"""File formats: point clouds (text and binary), grasp tables, labels,
targets, and rigid-transform pose files.

Text tables
    Every text format here, and the evaluation report in ``metrics``, is
    written by :func:`_write_table` and read by :func:`_read_table`: an
    optional header line, then one comma-separated row per line. ``#``
    starts a comment anywhere and blank lines are skipped; a table with a
    header must open with it. A wrong cell count or a malformed number
    raises ``DataError`` naming ``path:line``.

Point-cloud text format
    One point per row, ``x,y,z[,r,g,b][,nx,ny,nz]`` in meters. The writer
    emits a ``# fields: ...`` comment declaring the column layout; the
    reader honors it and otherwise interprets 6 columns as xyz+rgb and 9 as
    xyz+rgb+normals.

Point-cloud binary format
    16-byte magic (``GFPC0001`` padded with NULs), little-endian uint32
    point count, one uint8 flag byte (bit0 = colors, bit1 = normals), then
    packed little-endian float32 records, one point per record.

Grasp table
    Header ``px,py,pz,rx,ry,rz,theta,sa,sc,sg``; the three score columns
    are all -1 for an unscored grasp. It loads as one
    :class:`~.geometry.GraspSet`.

Pose file
    12 whitespace- or comma-separated numbers: the row-major 3x4 matrix
    [R | t] of a rigid transform.
"""

from __future__ import annotations

import itertools
import math
import re
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .geometry import GraspSet, PointCloud, RigidTransform

MAGIC = b"GFPC0001" + b"\x00" * 8
_FLAG_COLORS = 0x01
_FLAG_NORMALS = 0x02

GRASP_HEADER = "px,py,pz,rx,ry,rz,theta,sa,sc,sg"
LABEL_HEADER = "index,c_pc,label"
TARGET_HEADER = "point_index,class,resp_x,resp_y,resp_z,resr_x,resr_y,resr_z,res_theta"
REFINE_TARGET_HEADER = "proposal_index,y,resp_x,resp_y,resp_z,resr_x,resr_y,resr_z,res_theta"


def _write_table(path, header: str | None, rows) -> None:
    """Write ``header`` (when given), then each pre-formatted row, one per
    line. Writers format a float cell as ``repr`` of a Python float (from
    ``.tolist()``), the shortest decimal that reads back to the same bits."""
    lines = rows if header is None else itertools.chain((header,), rows)
    Path(path).write_text("".join(f"{line}\n" for line in lines))


def _read_table(
    path, header: str | None, width: int | None, parse, what: str = "table", lines=None, content: str | None = None
) -> list:
    """Rows of a text table, each parsed from its comma-separated cells by
    ``parse(cells)``; the line number of each row is appended to
    ``lines`` when it is given. ``content`` is the file's text when the
    caller has already read it; otherwise the file is read here.

    Text after ``#`` and blank lines are skipped. With ``header`` the
    first line must equal it; with ``width`` every row must have exactly
    that many cells (without it ``parse`` checks them). A ``ValueError`` or
    ``DataError`` raised by ``parse`` becomes a ``DataError`` naming
    ``path:line``.
    """
    path = Path(path)
    rows = []
    expect = header
    for lineno, raw in enumerate((path.read_text() if content is None else content).splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if expect is not None:
            if text != expect:
                break
            expect = None
            continue
        cells = text.split(",")
        if width is not None and len(cells) != width:
            raise DataError(f"{path}:{lineno}: expected {width} columns, got {len(cells)}")
        try:
            rows.append(parse(cells))
        except (ValueError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if lines is not None:
            lines.append(lineno)
    if expect is not None:
        raise DataError(f"{path}: malformed {what} file: missing {what} header '{header}'")
    return rows


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------

# fields spec -> layout (has colors, has normals)
_FIELD_LAYOUTS = {
    "x,y,z": (False, False),
    "x,y,z,r,g,b": (True, False),
    "x,y,z,nx,ny,nz": (False, True),
    "x,y,z,r,g,b,nx,ny,nz": (True, True),
}
_WIDTH_LAYOUTS = {3: (False, False), 6: (True, False), 9: (True, True)}
_FIELDS_COMMENT = re.compile(r"^[ \t]*#.*?fields:(.*)$", re.MULTILINE)


def _cloud_columns(cloud: PointCloud) -> tuple[tuple[bool, bool], np.ndarray]:
    """A cloud's layout and its (N, 3|6|9) columns: points, then colors
    and normals when present."""
    parts = [a for a in (cloud.points, cloud.colors, cloud.normals) if a is not None]
    return (cloud.colors is not None, cloud.normals is not None), np.hstack(parts)


def _columns_cloud(layout: tuple[bool, bool], data: np.ndarray) -> PointCloud:
    """Inverse of :func:`_cloud_columns`."""
    has_colors, has_normals = layout
    colors = data[:, 3:6] if has_colors else None
    return PointCloud(data[:, :3], colors, data[:, -3:] if has_normals else None)


def _cloud_row(cells) -> list[float]:
    if len(cells) not in _WIDTH_LAYOUTS:
        raise ValueError(f"expected 3, 6 or 9 columns, got {len(cells)}")
    return list(map(float, cells))


def save_cloud_text(path, cloud: PointCloud) -> None:
    layout, data = _cloud_columns(cloud)
    spec = next(spec for spec, fields in _FIELD_LAYOUTS.items() if fields == layout)
    _write_table(path, f"# fields: {spec}", (",".join(map(repr, row)) for row in data.tolist()))


def load_cloud_text(path) -> PointCloud:
    path = Path(path)
    layout = None
    content = path.read_text()
    match = _FIELDS_COMMENT.search(content)
    if match:
        spec = match.group(1).strip().replace(" ", "")
        if spec not in _FIELD_LAYOUTS:
            raise DataError(f"{path}: unknown fields layout '{spec}'")
        layout = _FIELD_LAYOUTS[spec]
    rows = _read_table(path, None, None if layout is None else 3 + 3 * sum(layout), _cloud_row, content=content)
    if layout is None:
        layout = _WIDTH_LAYOUTS[len(rows[0]) if rows else 3]
    try:
        data = np.array(rows, dtype=np.float64).reshape(len(rows), 3 + 3 * sum(layout))
    except ValueError:
        raise DataError(f"{path}: inconsistent column count") from None
    return _columns_cloud(layout, data)


def save_cloud_binary(path, cloud: PointCloud) -> None:
    (has_colors, has_normals), data = _cloud_columns(cloud)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IB", len(cloud), _FLAG_COLORS * has_colors | _FLAG_NORMALS * has_normals))
        f.write(data.astype("<f4").tobytes())


def load_cloud_binary(path) -> PointCloud:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 5 or blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a graspfield binary point cloud")
    count, flags = struct.unpack_from("<IB", blob, len(MAGIC))
    layout = (bool(flags & _FLAG_COLORS), bool(flags & _FLAG_NORMALS))
    ncols = 3 + 3 * sum(layout)
    body = blob[len(MAGIC) + 5 :]
    expected = count * ncols * 4
    if len(body) != expected:
        raise DataError(f"{path}: expected {expected} payload bytes, got {len(body)}")
    data = np.frombuffer(body, dtype="<f4").reshape(count, ncols).astype(np.float64)
    if layout[1]:
        # float32 storage shortens unit vectors; re-normalize
        lengths = np.linalg.norm(data[:, -3:], axis=1, keepdims=True)
        if (lengths <= 0).any():
            raise DataError(f"{path}: zero-length normal record")
        data[:, -3:] /= lengths
    return _columns_cloud(layout, data)


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
    """Write a :class:`~.geometry.GraspSet` or a list of grasps."""
    grasps = GraspSet.of(grasps)
    scores = np.full((len(grasps), 3), -1) if grasps.scores is None else grasps.scores
    values = np.hstack([grasps.centers, grasps.orientations, grasps.angles[:, None]]).tolist()
    rows = (",".join(map(repr, row)) + ",{},{},{}".format(*s) for row, s in zip(values, scores.tolist()))
    _write_table(path, GRASP_HEADER, rows)


def _grasp_row(cells) -> list[float]:
    """The ten cells as floats, a score cell of -1 as NaN (missing)."""
    return [float(c) for c in cells[:7]] + [math.nan if s == -1 else s for s in map(int, cells[7:])]


def load_grasps(path) -> GraspSet:
    """Read a grasp table as one set, every row checked as ``Grasp`` checks
    it; a row that fails raises ``DataError`` naming ``path:line``."""
    lines = []
    rows = _read_table(path, GRASP_HEADER, 10, _grasp_row, "grasp", lines)
    table = np.array(rows, dtype=np.float64).reshape(-1, 10)
    try:
        return GraspSet(table[:, 0:3], table[:, 3:6], table[:, 6], table[:, 7:])
    except DataError as exc:
        raise DataError(f"{path}:{lines[exc.row]}: {exc}") from exc


# ---------------------------------------------------------------------------
# Labels and targets
# ---------------------------------------------------------------------------

def save_labels(path, values, labels) -> None:
    values = np.asarray(values, dtype=np.float64).tolist()
    labels = np.asarray(labels).astype(np.int64).tolist()
    if len(values) != len(labels):
        raise DataError(f"{path}: {len(values)} confidence values but {len(labels)} labels")
    rows = (f"{i},{v!r},{lab}" for i, (v, lab) in enumerate(zip(values, labels)))
    _write_table(path, LABEL_HEADER, rows)


def _label_row(cells) -> tuple[int, float, int]:
    index, value, label = int(cells[0]), float(cells[1]), int(cells[2])
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"confidence must be finite and >= 0, got {value}")
    return index, value, label


def load_labels(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (values, labels) arrays ordered by point index."""
    path = Path(path)
    rows = _read_table(path, LABEL_HEADER, 3, _label_row, "label")
    if [row[0] for row in rows] != list(range(len(rows))):
        raise DataError(f"{path}: point indices must be 0..N-1 in order")
    return np.array([row[1] for row in rows]), np.array([row[2] for row in rows], dtype=np.int64)


def _save_target_rows(path, header: str, rows) -> None:
    """Target table shared by both heads: ``header``, then per row the
    index, the class and the seven residuals (center, orientation, angle).
    ``rows`` yields (index, class, target); the residual cells are empty
    for a target without residuals."""

    def line(index, cls, t) -> str:
        if t.res_center is None:
            tail = ",,,,,,"
        else:
            tail = ",".join(map(repr, [*t.res_center.tolist(), *t.res_orientation.tolist(), t.res_angle]))
        return f"{int(index)},{int(cls)},{tail}"

    _write_table(path, header, itertools.starmap(line, rows))


def _target_row(cells) -> tuple:
    index, cls = int(cells[0]), int(cells[1])
    if not any(cells[2:]):
        return index, cls, None, None, None
    res = [float(c) for c in cells[2:]]
    return index, cls, np.array(res[0:3]), np.array(res[3:6]), res[6]


def _load_target_rows(path, header: str) -> list[tuple]:
    """Rows of a :func:`_save_target_rows` table as (index, class,
    res_center, res_orientation, res_angle); the residuals are None where
    the row's residual cells are empty."""
    return _read_table(path, header, 9, _target_row, "target")


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
    rows = _read_table(path, None, None, lambda cells: [float(v) for v in " ".join(cells).split()])
    values = [v for row in rows for v in row]
    if len(values) != 12:
        raise DataError(f"{path}: expected 12 numbers (row-major 3x4 [R|t]), got {len(values)}")
    m = np.array(values).reshape(3, 4)
    try:
        return RigidTransform(m[:, :3], m[:, 3])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_pose(path, transform: RigidTransform) -> None:
    m = np.hstack([transform.rotation, transform.translation[:, None]])
    _write_table(path, None, (" ".join(map(repr, row)) for row in m.tolist()))
