"""File formats: point clouds (text and binary), grasp tables, labels,
targets, and rigid-transform pose files.

Point-cloud text format
    One point per line, comma-separated ``x,y,z[,r,g,b][,nx,ny,nz]`` in
    meters; ``#`` starts a comment. The writer emits a ``# fields: ...``
    comment declaring the column layout; the reader honors it and otherwise
    interprets 6 columns as xyz+rgb and 9 as xyz+rgb+normals.

Point-cloud binary format
    16-byte magic (``GFPC0001`` padded with NULs), little-endian uint32
    point count, one uint8 flag byte (bit0 = colors, bit1 = normals), then
    packed little-endian float32 records, one point per record.

Grasp table
    CSV with header ``px,py,pz,rx,ry,rz,theta,sa,sc,sg``; score columns are
    -1 for unscored grasps. ``#`` comment lines are permitted anywhere.

Pose file
    12 whitespace- or comma-separated numbers: the row-major 3x4 matrix
    [R | t] of a rigid transform.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .geometry import Grasp, PointCloud, RigidTransform

MAGIC = b"GFPC0001" + b"\x00" * 8
_FLAG_COLORS = 0x01
_FLAG_NORMALS = 0x02

GRASP_HEADER = "px,py,pz,rx,ry,rz,theta,sa,sc,sg"
LABEL_HEADER = "index,c_pc,label"
TARGET_HEADER = "point_index,class,resp_x,resp_y,resp_z,resr_x,resr_y,resr_z,res_theta"
REFINE_TARGET_HEADER = "proposal_index,y,resp_x,resp_y,resp_z,resr_x,resr_y,resr_z,res_theta"


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


def _data_lines(path: Path) -> list[tuple[int, str]]:
    lines = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            lines.append((lineno, text))
    return lines


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------

def save_cloud_text(path, cloud: PointCloud) -> None:
    path = Path(path)
    fields = ["x", "y", "z"]
    cols = [cloud.points]
    if cloud.colors is not None:
        fields += ["r", "g", "b"]
        cols.append(cloud.colors)
    if cloud.normals is not None:
        fields += ["nx", "ny", "nz"]
        cols.append(cloud.normals)
    data = np.hstack(cols)
    out = [f"# fields: {','.join(fields)}"]
    for row in data:
        out.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(out) + "\n")


_FIELD_LAYOUTS = {
    "x,y,z": (False, False),
    "x,y,z,r,g,b": (True, False),
    "x,y,z,nx,ny,nz": (False, True),
    "x,y,z,r,g,b,nx,ny,nz": (True, True),
}


def load_cloud_text(path) -> PointCloud:
    path = Path(path)
    layout = None
    for raw in path.read_text().splitlines():
        stripped = raw.strip()
        if stripped.startswith("#") and "fields:" in stripped:
            spec = stripped.split("fields:", 1)[1].replace(" ", "")
            if spec not in _FIELD_LAYOUTS:
                raise DataError(f"{path}: unknown fields layout '{spec}'")
            layout = _FIELD_LAYOUTS[spec]
            break
    rows = []
    width = None
    for lineno, text in _data_lines(path):
        parts = text.split(",")
        if width is None:
            width = len(parts)
            if width not in (3, 6, 9):
                raise DataError(f"{path}:{lineno}: expected 3, 6 or 9 columns, got {width}")
        elif len(parts) != width:
            raise DataError(f"{path}:{lineno}: inconsistent column count")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    data = np.array(rows, dtype=np.float64).reshape(len(rows), width or 3)
    if layout is None:
        layout = {3: (False, False), 6: (True, False), 9: (True, True)}[width or 3]
    has_colors, has_normals = layout
    expected = 3 + 3 * has_colors + 3 * has_normals
    if (width or expected) != expected:
        raise DataError(f"{path}: fields declare {expected} columns but rows have {width}")
    c = 3
    colors = normals = None
    if has_colors:
        colors = data[:, c : c + 3]
        c += 3
    if has_normals:
        normals = data[:, c : c + 3]
    return PointCloud(data[:, :3], colors, normals)


def save_cloud_binary(path, cloud: PointCloud) -> None:
    path = Path(path)
    flags = 0
    cols = [cloud.points]
    if cloud.colors is not None:
        flags |= _FLAG_COLORS
        cols.append(cloud.colors)
    if cloud.normals is not None:
        flags |= _FLAG_NORMALS
        cols.append(cloud.normals)
    records = np.hstack(cols).astype("<f4")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IB", len(cloud), flags))
        f.write(records.tobytes())


def load_cloud_binary(path) -> PointCloud:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 5 or blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a graspfield binary point cloud")
    count, flags = struct.unpack_from("<IB", blob, len(MAGIC))
    ncols = 3 + 3 * bool(flags & _FLAG_COLORS) + 3 * bool(flags & _FLAG_NORMALS)
    body = blob[len(MAGIC) + 5 :]
    expected = count * ncols * 4
    if len(body) != expected:
        raise DataError(f"{path}: expected {expected} payload bytes, got {len(body)}")
    data = np.frombuffer(body, dtype="<f4").reshape(count, ncols).astype(np.float64)
    c = 3
    colors = normals = None
    if flags & _FLAG_COLORS:
        colors = data[:, c : c + 3]
        c += 3
    if flags & _FLAG_NORMALS:
        normals = data[:, c : c + 3]
        # float32 storage shortens unit vectors; re-normalize
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
        if (lengths <= 0).any():
            raise DataError(f"{path}: zero-length normal record")
        normals = normals / lengths
    return PointCloud(data[:, :3], colors, normals)


def load_cloud(path) -> PointCloud:
    """Load a point cloud, sniffing binary vs text by the magic bytes."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    with open(path, "rb") as f:
        head = f.read(len(MAGIC))
    if head == MAGIC:
        return load_cloud_binary(path)
    return load_cloud_text(path)


# ---------------------------------------------------------------------------
# Grasps
# ---------------------------------------------------------------------------

def save_grasps(path, grasps) -> None:
    path = Path(path)
    lines = [GRASP_HEADER]
    for g in grasps:
        sa = -1 if g.score_antipodal is None else g.score_antipodal
        sc = -1 if g.score_collision is None else g.score_collision
        sg = -1 if g.score is None else g.score
        vals = [_fmt(v) for v in (*g.center, *g.orientation, g.angle)]
        lines.append(",".join(vals + [str(sa), str(sc), str(sg)]))
    path.write_text("\n".join(lines) + "\n")


def load_grasps(path) -> list[Grasp]:
    path = Path(path)
    lines = _data_lines(path)
    if not lines or lines[0][1] != GRASP_HEADER:
        raise DataError(f"{path}: missing grasp header '{GRASP_HEADER}'")
    grasps = []
    for lineno, text in lines[1:]:
        parts = text.split(",")
        if len(parts) != 10:
            raise DataError(f"{path}:{lineno}: expected 10 columns")
        try:
            vals = [float(p) for p in parts[:7]]
            scores = [int(p) for p in parts[7:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        opt = [None if s == -1 else s for s in scores]
        grasps.append(
            Grasp(
                vals[0:3],
                vals[3:6],
                vals[6],
                score_antipodal=opt[0],
                score_collision=opt[1],
                score=opt[2],
            )
        )
    return grasps


# ---------------------------------------------------------------------------
# Labels and targets
# ---------------------------------------------------------------------------

def save_labels(path, values, labels) -> None:
    path = Path(path)
    lines = [LABEL_HEADER]
    for i, (v, lab) in enumerate(zip(values, labels)):
        lines.append(f"{i},{_fmt(v)},{int(lab)}")
    path.write_text("\n".join(lines) + "\n")


def load_labels(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (values, labels) arrays ordered by point index."""
    path = Path(path)
    lines = _data_lines(path)
    if not lines or lines[0][1] != LABEL_HEADER:
        raise DataError(f"{path}: missing label header '{LABEL_HEADER}'")
    idx, values, labels = [], [], []
    for lineno, text in lines[1:]:
        parts = text.split(",")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns")
        idx.append(int(parts[0]))
        values.append(float(parts[1]))
        labels.append(int(parts[2]))
    if idx != list(range(len(idx))):
        raise DataError(f"{path}: point indices must be 0..N-1 in order")
    return np.array(values), np.array(labels, dtype=np.int64)


def _save_target_rows(path, header: str, rows) -> None:
    """Target table shared by both heads: ``header``, then per row the
    index, the class and the seven residuals (center, orientation, angle).
    ``rows`` yields (index, class, target); the residual cells are empty
    for a target without residuals."""
    lines = [header]
    for index, cls, t in rows:
        if t.res_center is None:
            tail = ",,,,,,"
        else:
            tail = ",".join(_fmt(v) for v in (*t.res_center, *t.res_orientation, t.res_angle))
        lines.append(f"{int(index)},{int(cls)},{tail}")
    Path(path).write_text("\n".join(lines) + "\n")


def _load_target_rows(path, header: str) -> list[tuple]:
    """Rows of a :func:`_save_target_rows` table as (index, class,
    res_center, res_orientation, res_angle); the residuals are None where
    the row's residual cells are empty."""
    path = Path(path)
    lines = _data_lines(path)
    if not lines or lines[0][1] != header:
        raise DataError(f"{path}: missing target header '{header}'")
    rows = []
    for lineno, text in lines[1:]:
        parts = text.split(",")
        if len(parts) != 9:
            raise DataError(f"{path}:{lineno}: expected 9 columns")
        try:
            index, cls = int(parts[0]), int(parts[1])
            res = [float(p) for p in parts[2:]] if any(parts[2:]) else None
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if res is None:
            rows.append((index, cls, None, None, None))
        else:
            rows.append((index, cls, np.array(res[0:3]), np.array(res[3:6]), res[6]))
    return rows


def save_proposal_targets(path, targets) -> None:
    """Targets: iterable of (point_index, ProposalTarget)."""
    _save_target_rows(path, TARGET_HEADER, ((i, t.anchor_class, t) for i, t in targets))


def load_proposal_targets(path) -> list[tuple[int, int, np.ndarray, np.ndarray, float]]:
    """Rows as (point_index, anchor_class, res_center, res_orientation, res_angle)."""
    return _load_target_rows(path, TARGET_HEADER)


def save_refine_targets(path, targets) -> None:
    """Targets: iterable of RefineTarget; residual cells are empty for y=0."""
    _save_target_rows(path, REFINE_TARGET_HEADER, ((t.proposal_index, t.label, t) for t in targets))


def load_refine_targets(path) -> list[tuple[int, int, np.ndarray | None, np.ndarray | None, float | None]]:
    """Rows as (proposal_index, label, res_center, res_orientation, res_angle);
    the residuals are None for label-0 rows."""
    return _load_target_rows(path, REFINE_TARGET_HEADER)


# ---------------------------------------------------------------------------
# Poses
# ---------------------------------------------------------------------------

def load_pose(path) -> RigidTransform:
    path = Path(path)
    values = []
    for _, text in _data_lines(path):
        values.extend(float(v) for v in text.replace(",", " ").split())
    if len(values) != 12:
        raise DataError(f"{path}: expected 12 numbers (row-major 3x4 [R|t]), got {len(values)}")
    m = np.array(values).reshape(3, 4)
    try:
        return RigidTransform(m[:, :3], m[:, 3])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_pose(path, transform: RigidTransform) -> None:
    path = Path(path)
    m = np.hstack([transform.rotation, transform.translation[:, None]])
    lines = [" ".join(_fmt(v) for v in row) for row in m]
    path.write_text("\n".join(lines) + "\n")
