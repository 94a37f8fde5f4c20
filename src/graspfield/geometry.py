"""Geometric core: point clouds, grasps, gripper model, and the grasp frame.

Conventions
-----------
All lengths are meters. The world frame is right-handed with +Z "up" by
default; callers that use a different ground plane can pass their own
``up`` vector wherever one is accepted.

A parallel-jaw grasp is the 7-tuple (center p, orientation r, angle theta):
``r`` is the direction of the line connecting the two fingertips (stored
unit-length) and ``theta`` in [-pi/2, pi/2] rotates the gripper about that
line, starting from the horizontal reference direction.

Grasp coordinate frame (built by :func:`grasp_frame`):

* origin at the grasp center,
* Y along the unit orientation (the jaw closing axis),
* X' = normalize(up x Y), horizontal and perpendicular to Y,
* X = X' rotated about Y by theta (right-hand rule),
* Z = X x Y, completing a right-handed basis.

Gripper solid, expressed in the grasp frame (side view onto the X-Y plane)::

            +Y
             |      __________________
        _____|_____|___ finger (+Y)___|   y in [ W/2, W/2+T ]
       |           |
       |   base    |      closing         |y| <= W/2
       |___________|____________________
             |     |___ finger (-Y)___|   y in [-W/2-T, -W/2 ]
             |
      ---------------------------------> +X
       x in [-L/2-B, -L/2]   x in [-L/2, L/2]

with L = finger_length, T = finger_thickness, W = max_opening and
B = base_depth; every box spans [-H/2, H/2] in Z (H = finger_height).
The gripper approaches the grasp center along the X axis with its base on
the -X side, so the volume swept while closing the jaws is the box
|x| <= L/2, |y| <= W/2, |z| <= H/2.

The jaw symmetry (r, theta) ~ (-r, pi - theta) maps the frame to
(X, -Y, -Z) and leaves the gripper solid unchanged; :func:`transform_grasp`
uses it to keep theta inside [-pi/2, pi/2] after a rigid motion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, GraspFieldWarning

WORLD_UP = np.array([0.0, 0.0, 1.0])
WORLD_UP.setflags(write=False)

FRAME_TAGS = ("world", "object", "grasp")

_ORTHO_TOL = 1e-9
_NORMAL_TOL = 1e-6
_DEGENERATE_AXIS_TOL = 1e-6


def _as_array(x, shape, name: str) -> np.ndarray:
    a = np.array(x, dtype=np.float64, copy=True)
    if a.shape != shape:
        raise DataError(f"{name}: expected shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise DataError(f"{name}: contains non-finite values")
    a.setflags(write=False)
    return a


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors.

    The same products and differences, in the same order, as the
    3-vector path of ``np.cross``, so the result is bit-equal to it
    (signed zeros included) without that function's per-call overhead.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize a vector, raising on (near-)zero input."""
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise DataError("cannot normalize a zero-length vector")
    return np.asarray(v, dtype=np.float64) / n


def canonical_orientation(r) -> np.ndarray:
    """Sign-normalized unit direction for a fingertip connection line.

    The line through both fingertips has no preferred end; this picks the
    sign that makes the component of largest magnitude positive (lowest
    index on magnitude ties), so equal lines compare equal.
    """
    r = unit(np.asarray(r, dtype=np.float64))
    lead = int(np.argmax(np.abs(r)))
    return r if r[lead] > 0.0 else -r


def derive_seed(seed, *ids) -> np.random.SeedSequence:
    """Reproducible child seed from a base seed and integer ids.

    The base may be an int or a flat sequence of ints (an already-derived
    path); ids extend the path. Distinct paths give independent streams,
    so parallel schedules cannot change results.
    """
    if isinstance(seed, (int, np.integer)):
        path = [int(seed)]
    else:
        path = [int(s) for s in seed]
    path.extend(int(i) for i in ids)
    if any(s < 0 for s in path):
        raise DataError("seed components must be non-negative")
    return np.random.SeedSequence(path)


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points with optional per-point color and normals.

    Arrays are copied and frozen at construction; instances are immutable
    and safe to share across threads.
    """

    points: np.ndarray
    colors: np.ndarray | None = None
    normals: np.ndarray | None = None
    frame_tag: str = "world"

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DataError(f"points must be (N, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise DataError("points contain non-finite coordinates")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

        n = len(pts)
        if self.colors is not None:
            col = np.array(self.colors, dtype=np.float64, copy=True)
            if col.shape != (n, 3):
                raise DataError(f"colors must be ({n}, 3), got {col.shape}")
            if not np.isfinite(col).all() or col.min(initial=0.0) < 0.0 or col.max(initial=0.0) > 1.0:
                raise DataError("colors must lie in [0, 1]")
            col.setflags(write=False)
            object.__setattr__(self, "colors", col)
        if self.normals is not None:
            nor = np.array(self.normals, dtype=np.float64, copy=True)
            if nor.shape != (n, 3):
                raise DataError(f"normals must be ({n}, 3), got {nor.shape}")
            if not np.isfinite(nor).all():
                raise DataError("normals contain non-finite values")
            lengths = np.linalg.norm(nor, axis=1)
            if n and np.abs(lengths - 1.0).max() > _NORMAL_TOL:
                raise DataError("normals must be unit length (tolerance 1e-6)")
            nor.setflags(write=False)
            object.__setattr__(self, "normals", nor)
        if self.frame_tag not in FRAME_TAGS:
            raise DataError(f"frame_tag must be one of {FRAME_TAGS}")

    def __len__(self) -> int:
        return len(self.points)

    def select(self, indices) -> "PointCloud":
        """Sub-cloud at the given indices (colors/normals carried along)."""
        idx = np.asarray(indices, dtype=np.intp)
        return PointCloud(
            self.points[idx],
            None if self.colors is None else self.colors[idx],
            None if self.normals is None else self.normals[idx],
            self.frame_tag,
        )

    def with_normals(self, normals) -> "PointCloud":
        return replace(self, normals=normals)


@dataclass(frozen=True)
class Grasp:
    """A parallel-jaw grasp: center, unit orientation, approach angle, and
    optional binary quality scores (antipodal, collision-free, combined).

    The orientation is normalized at construction. The combined score, when
    all three are present, must equal min(antipodal, collision).
    """

    center: np.ndarray
    orientation: np.ndarray
    angle: float
    score_antipodal: int | None = None
    score_collision: int | None = None
    score: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", _as_array(self.center, (3,), "center"))
        ori = np.array(self.orientation, dtype=np.float64, copy=True)
        if ori.shape != (3,) or not np.isfinite(ori).all():
            raise DataError("orientation must be a finite 3-vector")
        norm = np.linalg.norm(ori)
        if norm <= 0.0:
            raise DataError("orientation must have positive length")
        ori = ori / norm
        ori.setflags(write=False)
        object.__setattr__(self, "orientation", ori)
        theta = float(self.angle)
        if not np.isfinite(theta) or not (-np.pi / 2 <= theta <= np.pi / 2):
            raise DataError(f"angle must lie in [-pi/2, pi/2], got {theta}")
        object.__setattr__(self, "angle", theta)
        for name in ("score_antipodal", "score_collision", "score"):
            v = getattr(self, name)
            if v is not None:
                v = int(v)
                if v not in (0, 1):
                    raise DataError(f"{name} must be 0 or 1, got {v}")
                object.__setattr__(self, name, v)
        if (
            self.score is not None
            and self.score_antipodal is not None
            and self.score_collision is not None
            and self.score != min(self.score_antipodal, self.score_collision)
        ):
            raise DataError("score must equal min(antipodal, collision)")

    @property
    def scored(self) -> bool:
        return self.score is not None

    def with_scores(self, antipodal: int, collision: int) -> "Grasp":
        return replace(
            self,
            score_antipodal=int(antipodal),
            score_collision=int(collision),
            score=min(int(antipodal), int(collision)),
        )


@dataclass(frozen=True)
class GripperModel:
    """Parallel-jaw gripper geometry.

    ``max_opening`` is the jaw travel (distance between the inner finger
    faces when fully open). ``scale`` is the largest of the three overall
    gripper extents and is recomputed from the dimensions; passing it
    explicitly is only a consistency check.
    """

    finger_length: float = 0.06
    finger_thickness: float = 0.01
    finger_height: float = 0.02
    max_opening: float = 0.08
    base_depth: float = 0.02
    scale: float | None = None

    def __post_init__(self):
        for name in ("finger_length", "finger_thickness", "finger_height", "max_opening", "base_depth"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0.0:
                raise DataError(f"{name} must be strictly positive")
            object.__setattr__(self, name, v)
        computed = max(self.overall_length, self.overall_width, self.overall_height)
        if self.scale is None:
            object.__setattr__(self, "scale", computed)
        elif abs(float(self.scale) - computed) > 1e-12:
            raise DataError(f"scale {self.scale} does not match recomputed extent {computed}")

    @property
    def overall_length(self) -> float:
        """Extent along the approach axis (base plus fingers)."""
        return self.finger_length + self.base_depth

    @property
    def overall_width(self) -> float:
        """Extent along the closing axis at full opening."""
        return self.max_opening + 2.0 * self.finger_thickness

    @property
    def overall_height(self) -> float:
        return self.finger_height

    @property
    def region_radius(self) -> float:
        """Default grasp-region radius: half the largest gripper extent."""
        return self.scale / 2.0

    def closing_half_extents(self) -> np.ndarray:
        """Half extents of the box swept between the fingers, grasp frame."""
        return np.array(
            [self.finger_length / 2.0, self.max_opening / 2.0, self.finger_height / 2.0]
        )

    def collision_boxes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The three solid boxes (two fingers, base) as (lo, hi) corner
        pairs in the grasp frame, jaws fully open."""
        hl = self.finger_length / 2.0
        hw = self.max_opening / 2.0
        hh = self.finger_height / 2.0
        t = self.finger_thickness
        b = self.base_depth
        finger_pos = (np.array([-hl, hw, -hh]), np.array([hl, hw + t, hh]))
        finger_neg = (np.array([-hl, -hw - t, -hh]), np.array([hl, -hw, hh]))
        base = (np.array([-hl - b, -hw - t, -hh]), np.array([-hl, hw + t, hh]))
        return [finger_pos, finger_neg, base]


@dataclass(frozen=True)
class GraspFrame:
    """Orthonormal right-handed frame attached to a grasp (x_axis cross
    y_axis equals z_axis within 1e-9)."""

    origin: np.ndarray
    x_axis: np.ndarray
    y_axis: np.ndarray
    z_axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", _as_array(self.origin, (3,), "origin"))
        axes = []
        for name in ("x_axis", "y_axis", "z_axis"):
            a = _as_array(getattr(self, name), (3,), name)
            if abs(np.linalg.norm(a) - 1.0) > _ORTHO_TOL:
                raise DataError(f"{name} must be unit length")
            object.__setattr__(self, name, a)
            axes.append(a)
        x, y, z = axes
        if max(abs(x @ y), abs(y @ z), abs(x @ z)) > _ORTHO_TOL:
            raise DataError("frame axes must be mutually orthogonal")
        if np.abs(_cross3(x, y) - z).max() > _ORTHO_TOL:
            raise DataError("frame must be right-handed (x cross y = z)")

    @property
    def rotation(self) -> np.ndarray:
        """World-from-grasp rotation; columns are the frame axes."""
        return np.column_stack([self.x_axis, self.y_axis, self.z_axis])


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation, mapping points as R @ p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=np.float64, copy=True)
        if r.shape != (3, 3) or not np.isfinite(r).all():
            raise DataError("rotation must be a finite 3x3 matrix")
        if np.abs(r @ r.T - np.eye(3)).max() > 1e-6 or np.linalg.det(r) < 0.0:
            raise DataError("rotation must be orthonormal with determinant +1")
        r.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", _as_array(self.translation, (3,), "translation"))

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts) @ self.rotation.T + self.translation

    def apply_vectors(self, vecs: np.ndarray) -> np.ndarray:
        return np.asarray(vecs) @ self.rotation.T

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self.compose(other))(p) = self(other(p))."""
        return RigidTransform(self.rotation @ other.rotation, self.rotation @ other.translation + self.translation)

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -(self.rotation.T @ self.translation))

    def apply_cloud(self, cloud: PointCloud, frame_tag: str | None = None) -> PointCloud:
        return PointCloud(
            self.apply_points(cloud.points),
            cloud.colors,
            None if cloud.normals is None else self.apply_vectors(cloud.normals),
            cloud.frame_tag if frame_tag is None else frame_tag,
        )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def estimate_normals(cloud: PointCloud, k: int = 30, viewpoint=(0.0, 0.0, 0.0)) -> PointCloud:
    """Estimate per-point unit normals from the k-nearest-neighbor covariance.

    Each normal is the eigenvector of the smallest eigenvalue of the local
    covariance, sign-flipped so that normal . (viewpoint - point) >= 0.
    Neighborhoods of rank < 2 (e.g. collinear points) get the direction
    toward the viewpoint instead and raise a :class:`GraspFieldWarning`.

    Parameters
    ----------
    cloud : input cloud with at least ``k`` points.
    k : neighborhood size, at least 3.
    viewpoint : sensor position used to orient the normals.
    """
    if k < 3:
        raise DataError(f"k must be >= 3, got {k}")
    if len(cloud) < k:
        raise DataError(f"insufficient points: need at least k={k}, cloud has {len(cloud)}")
    pts = cloud.points
    vp = _as_array(viewpoint, (3,), "viewpoint")

    _, idx = cKDTree(pts).query(pts, k=k)
    neighborhoods = pts[idx]  # (N, k, 3)
    centered = neighborhoods - neighborhoods.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    normals = eigvecs[:, :, 0].copy()

    toward = vp - pts
    flip = np.einsum("ni,ni->n", normals, toward) < 0.0
    normals[flip] *= -1.0

    # rank < 2: the mid eigenvalue vanishes relative to the largest
    degenerate = eigvals[:, 1] <= 1e-10 * np.maximum(eigvals[:, 2], 1e-300)
    if degenerate.any():
        for i in np.nonzero(degenerate)[0]:
            d = toward[i]
            n = np.linalg.norm(d)
            normals[i] = d / n if n > 1e-12 else np.array([0.0, 0.0, 1.0])
        warnings.warn(
            f"{int(degenerate.sum())} degenerate (rank<2) neighborhoods; "
            "normals set to the viewpoint direction",
            GraspFieldWarning,
            stacklevel=2,
        )

    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return cloud.with_normals(normals)


def _horizontal_reference(y_axis: np.ndarray, up: np.ndarray) -> np.ndarray:
    """X' = normalize(up x Y); falls back to world basis vectors when the
    orientation is parallel to up. Never fails."""
    xp = _cross3(up, y_axis)
    n = np.linalg.norm(xp)
    if n >= _DEGENERATE_AXIS_TOL:
        return xp / n
    for basis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        xp = _cross3(up, basis)
        # up x basis is orthogonal to up, not to a Y that leans off up:
        # Gram-Schmidt it against Y (skipped when already exact, so those
        # frames keep every bit, signed zeros included)
        d = xp @ y_axis
        if d != 0.0:
            xp = xp - d * y_axis
        n = np.linalg.norm(xp)
        if n >= _DEGENERATE_AXIS_TOL:
            return xp / n
    raise DataError("up vector must be non-zero")


def _rotation(g: Grasp, up: np.ndarray) -> np.ndarray:
    """World-from-grasp rotation of ``g`` for a unit ``up``: a C-contiguous
    (3, 3) array whose columns are the X, Y and Z axes of
    :func:`grasp_frame`, bit for bit, built without its checks (see
    :func:`_grasp_rotations`)."""
    y = g.orientation
    xp = _horizontal_reference(y, up)
    ct, st = np.cos(g.angle), np.sin(g.angle)
    x = xp * ct + _cross3(y, xp) * st  # Rodrigues with y . xp = 0
    x = x / np.linalg.norm(x)
    z = _cross3(x, y)
    return np.column_stack([x, y, z / np.linalg.norm(z)])


def _check_rotations(rotations: np.ndarray) -> None:
    """:class:`GraspFrame`'s checks, with its tolerance and messages, on a
    (G, 3, 3) stack of rotations whose columns are the frame axes."""
    axes = np.moveaxis(rotations, 2, 0)  # (3, G, 3): x, y, z per grasp
    norms = np.sqrt(np.einsum("agi,agi->ag", axes, axes))
    for name, off in zip(("x_axis", "y_axis", "z_axis"), np.abs(norms - 1.0) > _ORTHO_TOL):
        if off.any():
            raise DataError(f"{name} must be unit length")
    x, y, z = axes
    dots = (np.einsum("gi,gi->g", x, y), np.einsum("gi,gi->g", y, z), np.einsum("gi,gi->g", x, z))
    if max(np.abs(d).max(initial=0.0) for d in dots) > _ORTHO_TOL:
        raise DataError("frame axes must be mutually orthogonal")
    if np.abs(np.cross(x, y) - z).max(initial=0.0) > _ORTHO_TOL:
        raise DataError("frame must be right-handed (x cross y = z)")


def _grasp_rotations(grasps) -> list[tuple[np.ndarray, np.ndarray]]:
    """(center, :func:`_rotation` with the world up) of every grasp in an
    iterable, the rotations checked once as a stack, so no per-grasp
    :class:`GraspFrame` is built."""
    frames = [(g.center, _rotation(g, WORLD_UP)) for g in grasps]
    if frames:
        _check_rotations(np.array([r for _, r in frames]))
    return frames


def grasp_frame(g: Grasp, up=WORLD_UP) -> GraspFrame:
    """Build the grasp coordinate frame of ``g``.

    Y runs along the grasp orientation; X is the horizontal reference
    X' = normalize(up x Y) rotated about Y by the grasp angle (right-hand
    rule); Z = X x Y.
    """
    r = _rotation(g, unit(np.asarray(up, dtype=np.float64)))
    return GraspFrame(g.center, r[:, 0], r[:, 1], r[:, 2])


def grasp_columns(points: np.ndarray) -> np.ndarray:
    """The workspace of :func:`local_coords` for an (N, 3) cloud: a (3, 3, N)
    array whose first slice is the C-contiguous column copy of the points
    and whose other two hold each grasp's shifted points and product.
    Made once per cloud and reused for every grasp: with fresh arrays per
    grasp, scoring on a 23k-point scene took 555 against 260 us per grasp
    (2-vCPU VM), the difference being page faults on the new memory."""
    work = np.empty((3, 3, len(points)))
    work[0] = points.T
    return work


def local_coords(
    work: np.ndarray, origin: np.ndarray, rotation: np.ndarray, half_z: float = np.inf
) -> tuple[np.ndarray, np.ndarray]:
    """Grasp-frame coordinates, in column layout, of the points within
    |z| <= ``half_z`` of the grasp's X-Y plane.

    ``work`` comes from :func:`grasp_columns`. Returns the ascending
    indices of the slab points and their (3, M) coordinates (a copy),
    whose rows x, y and z are contiguous.

    The product is ``R^T (cols - origin)`` with ``R^T`` the transposed
    *view* of the C-contiguous rotation, and then column i equals row i of
    ``(points - origin) @ R`` bit for bit, signed zeros included: 0 of
    949,332 rows differed over N = 1-39, 63-65, 127-129, 255-257, 1000,
    3150, 4096 and 20000 with random, grid-rounded and axis-permutation
    frames (numpy 2.4.6, OpenBLAS 0.3.31). A contiguous copy of ``R^T``
    rounds differently (170 of 300 one-point clouds), and so would
    ``einsum`` or a batch over grasps; grasp-frame ties decide contacts.
    The column layout is the speed: ``(N, 3) - (3,)`` runs an inner loop
    of length 3, and ``(3, N) - (3, 1)`` runs three of length N.
    """
    cols, shifted, local = work
    np.subtract(cols, origin[:, None], out=shifted)
    np.matmul(np.ascontiguousarray(rotation).T, shifted, out=local)
    idx = np.flatnonzero(np.abs(local[2]) <= half_z)
    return idx, local.take(idx, axis=1)


def to_grasp_frame(cloud: PointCloud, frame: GraspFrame) -> PointCloud:
    """Re-express a cloud in the grasp frame: p -> R^T (p - origin)."""
    r = frame.rotation
    _, local = local_coords(grasp_columns(cloud.points), frame.origin, r)
    return PointCloud(
        np.ascontiguousarray(local.T),
        cloud.colors,
        None if cloud.normals is None else cloud.normals @ r,
        "grasp",
    )


def from_grasp_frame(cloud: PointCloud, frame: GraspFrame, frame_tag: str = "world") -> PointCloud:
    """Inverse of :func:`to_grasp_frame`."""
    r = frame.rotation
    return PointCloud(
        cloud.points @ r.T + frame.origin,
        cloud.colors,
        None if cloud.normals is None else cloud.normals @ r.T,
        frame_tag,
    )


def points_in_box(cloud: PointCloud, frame: GraspFrame, half_extents) -> np.ndarray:
    """Indices (ascending) of points inside the axis-aligned box
    |x| <= hx, |y| <= hy, |z| <= hz in the grasp frame."""
    hx, hy, hz = _as_array(half_extents, (3,), "half_extents")
    if min(hx, hy, hz) <= 0.0:
        raise DataError("half_extents must be positive")
    idx, (x, y, _) = local_coords(grasp_columns(cloud.points), frame.origin, frame.rotation, hz)
    return idx[(np.abs(x) <= hx) & (np.abs(y) <= hy)]


def transform_grasp(g: Grasp, transform: RigidTransform, up=WORLD_UP) -> Grasp:
    """Move a grasp by a rigid transform, keeping the physical gripper pose.

    The full frame is rotated, then (center, orientation, angle) are read
    back; when the recovered angle leaves [-pi/2, pi/2] the jaw symmetry
    (r, theta) ~ (-r, pi - theta) restores it. Scores are dropped: they
    refer to an object expressed in the old frame.
    """
    up = unit(np.asarray(up, dtype=np.float64))
    frame = grasp_frame(g, up)
    center = transform.apply_points(g.center)
    x_new = transform.apply_vectors(frame.x_axis)
    y_new = transform.apply_vectors(frame.y_axis)

    xp = _horizontal_reference(y_new, up)
    theta = float(np.arctan2(_cross3(xp, x_new) @ y_new, xp @ x_new))
    if abs(theta) > np.pi / 2:
        y_new = -y_new
        theta = np.pi - theta
        if theta > np.pi:
            theta -= 2.0 * np.pi
    theta = float(np.clip(theta, -np.pi / 2, np.pi / 2))
    return Grasp(center, y_new, theta)


def nearest_center(grasps, point) -> tuple[int, float]:
    """Index and distance of the grasp whose center is closest to ``point``."""
    if not grasps:
        raise DataError("empty grasp list")
    centers = np.array([g.center for g in grasps])
    d = np.linalg.norm(centers - np.asarray(point, dtype=np.float64), axis=1)
    i = int(np.argmin(d))
    return i, float(d[i])
