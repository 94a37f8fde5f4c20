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

Grasp coordinate frame (:meth:`GraspSet.rotations` holds its axes as columns):

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
(X, -Y, -Z) and leaves the gripper solid unchanged; :func:`transform_grasps`
uses it to keep theta inside [-pi/2, pi/2] after a rigid motion.

A :class:`GraspSet` is the package's one grasp type: every pipeline stage
and every function that takes grasps holds them as one set of arrays,
checked once by :func:`_check_rows`; ``grasps[i]`` is the one-row set of
grasp i with the stored bits. Frames are built for a whole set at once
(:meth:`GraspSet.rotations` over :func:`_rotations`, the one frame
builder), and every row is bit-equal to building that grasp's frame
alone, signed zeros included, because ties in the grasp frame decide
contacts. Two rules keep it so (numpy 2.4.6, OpenBLAS 0.3.31):

* every norm and dot product of rows is ``np.vecdot``, which runs the
  same BLAS ``ddot`` as a 1-D ``np.linalg.norm`` or ``a @ b`` and matched
  it on 200,000 of 200,000 random vectors; ``np.einsum``,
  ``(v * v).sum(1)`` and ``norm(axis=1)`` differed on 10-14% of them;
* a rigid motion of rows is ``np.matmul(V[:, None, :], R.T)``, which
  matched the per-vector ``v @ R.T`` on 100,000 of 100,000 rows;
  ``V @ R.T`` (one matrix product) differed on 53-73% (by rotation) and
  ``einsum`` on more (84%).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

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

    @cached_property
    def _scoring_index(self) -> "_ScoringIndex":
        """The points sorted once for every scoring call (:class:`_ScoringIndex`)."""
        return _ScoringIndex(self.points)


_SCORE_ROWS = np.array([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)], dtype=np.float64)  # valid scored rows
_SET_FIELDS = ("centers", "orientations", "angles", "scores")


def _set_fields(obj, names, values) -> None:
    """Set the fields of a frozen instance, arrays made read-only."""
    for name, value in zip(names, values):
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _row_error(row: int, message: str) -> DataError:
    """A ``DataError`` naming its row in ``row`` (a file reader adds ``path:line``)."""
    exc = DataError(message)
    exc.row = row
    return exc


def _check_rows(centers, orientations, angles, scores) -> np.ndarray:
    """The one validation pass of :class:`GraspSet`, on
    (G, 3) centers and orientations, (G,) angles and a (G, 3) float score
    table (NaN for missing) or ``None``. Returns each orientation divided
    once by its :func:`_norms` (the 1-D norm's bits). One combined mask
    decides, so one grasp costs a few array operations; only the first
    bad row runs the checks one by one, and raises with the message of its
    first failed check. An orientation whose squares leave the float
    range normalizes off unit length: rejected, never rescaled."""
    with np.errstate(all="ignore"):  # non-finite, zero or huge orientations
        norms = _norms(orientations)
        units = orientations / norms
        unit_ok = np.abs(_norms(units)[:, 0] - 1.0) <= _ORTHO_TOL  # False for non-finite or zero input
    ok = unit_ok & (np.abs(angles) <= np.pi / 2) & np.logical_and.reduce(np.isfinite(centers), axis=1)
    if scores is not None:
        ok &= (scores[:, None] == _SCORE_ROWS).all(axis=2).any(axis=1) | np.isnan(scores).all(axis=1)
    if ok.all():
        return units
    i = int(np.argmin(ok))
    checks = [
        (np.isfinite(centers[i]).all(), "center: contains non-finite values"),
        (np.isfinite(orientations[i]).all(), "orientation must be a finite 3-vector"),
        (norms[i, 0] > 0.0, "orientation must have positive length"),
        (unit_ok[i], "orientation must normalize to unit length (tolerance 1e-9)"),
        (abs(angles[i]) <= np.pi / 2, "angle must lie in [-pi/2, pi/2], got {angle}"),
    ]
    if scores is not None:
        row, missing = scores[i], np.isnan(scores[i])
        for k, name in enumerate(("score_antipodal", "score_collision", "score")):
            checks.append((missing[k] or row[k] in (0.0, 1.0), f"{name} must be 0 or 1, got {{scores[{k}]:g}}"))
        checks += [
            (missing.all() or not missing.any(), "scores must be all three or none"),
            (missing[0] or row[2] == min(row[0], row[1]), "score must equal min(antipodal, collision)"),
        ]
    message = next(message for passed, message in checks if not passed)
    raise _row_error(i, message.format(angle=float(angles[i]), scores=None if scores is None else scores[i]))


def _score_table(scores) -> np.ndarray | None:
    """Checked (G, 3) float scores (NaN for missing) as int64, -1 in the
    rows of unscored grasps; ``None`` when no row is scored."""
    if scores is None or np.isnan(scores).all():
        return None
    return np.where(np.isnan(scores), -1.0, scores).astype(np.int64)


def _rows(x, width: int | None, name: str) -> np.ndarray:
    """A float64 copy of ``x`` as (G, width) rows, or (G,) without ``width``."""
    a, shape = np.array(x, dtype=np.float64), ((0,) if width is None else (0, width))
    if a.size == 0:
        a = a.reshape(shape)
    if a.ndim != len(shape) or a.shape[1:] != shape[1:]:
        raise DataError(f"{name} must have shape (G{'' if width is None else f', {width}'}), got {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class GraspSet:
    """G grasps as read-only arrays: (G, 3) centers, (G, 3) unit
    orientations, (G,) angles, and a (G, 3) int64 table of (antipodal,
    collision, combined) scores, -1 in the rows of unscored grasps, or
    ``None`` when no grasp is scored.

    Construction checks every row (:func:`_check_rows`; the ``DataError``
    names the row in ``row``) and divides each orientation once by its
    length; a NaN score marks a missing one. ``s[mask]``, ``s[indices]``
    and ``s[a:b]`` are sub-sets holding the stored bits, and ``s[i]`` is
    the one-row set ``s[[i]]``.
    """

    centers: np.ndarray
    orientations: np.ndarray
    angles: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        centers, orientations = _rows(self.centers, 3, "centers"), _rows(self.orientations, 3, "orientations")
        angles = _rows(self.angles, None, "angles")
        scores = None if self.scores is None else _rows(self.scores, 3, "scores")
        if not len(centers) == len(orientations) == len(angles) == len(centers if scores is None else scores):
            raise DataError("grasp set arrays must have one row per grasp")
        units = _check_rows(centers, orientations, angles, scores)
        _set_fields(self, _SET_FIELDS, (centers, units, angles, _score_table(scores)))

    @classmethod
    def _stored(cls, centers, orientations, angles, scores) -> "GraspSet":
        """A set of rows that already passed the checks, kept bit for bit."""
        out = object.__new__(cls)
        scores = None if scores is None or (scores < 0).all() else scores
        _set_fields(out, _SET_FIELDS, (centers, orientations, angles, scores))
        return out

    def __len__(self) -> int:
        return len(self.angles)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            index = [index]
        scores = None if self.scores is None else self.scores[index]
        return GraspSet._stored(self.centers[index], self.orientations[index], self.angles[index], scores)

    def rotations(self, up=WORLD_UP) -> np.ndarray:
        """(G, 3, 3) :func:`_rotations` for a unit ``up``, checked by :func:`_check_rotations`."""
        rotations = _rotations(self.orientations, self.angles, up)
        _check_rotations(rotations)
        return rotations


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

def _kdtree(points: np.ndarray):
    """A ``scipy.spatial.cKDTree`` over ``points``, the package's one
    KD-tree constructor. scipy is imported on the first call, not with the
    package: importing ``scipy.spatial`` costs more than the rest of the
    package, and only sampling, ``confidence_field`` and normal estimation
    build trees."""
    from scipy.spatial import cKDTree

    return cKDTree(points)


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

    _, idx = _kdtree(pts).query(pts, k=k)
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


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (G, 3) arrays (either may be one (3,)
    vector): :func:`_cross3`'s expressions on columns, so every row is
    bit-equal to it."""
    a0, a1, a2 = np.moveaxis(a, -1, 0)
    b0, b1, b2 = np.moveaxis(b, -1, 0)
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _norms(v: np.ndarray) -> np.ndarray:
    """(G, 1) lengths of the rows of a (G, 3) array, bit-equal to
    ``np.linalg.norm`` of each row (see the module docstring)."""
    return np.sqrt(np.vecdot(v, v))[:, None]


def _horizontal_references(y_axes: np.ndarray, up: np.ndarray) -> np.ndarray:
    """X' = normalize(up x Y) for every row of a (G, 3) array. A row
    parallel to up falls back to up x (1, 0, 0), then up x (0, 1, 0): that
    is orthogonal to up, not to a Y leaning off up, so one Gram-Schmidt
    step against Y follows, skipped where the dot is already 0 so that
    those frames keep every bit, signed zeros included."""
    xp = _cross_rows(up, y_axes)
    n = _norms(xp)
    for basis in np.eye(3)[:2]:
        rows = np.flatnonzero(n[:, 0] < _DEGENERATE_AXIS_TOL)
        if not rows.size:
            break
        side, y = _cross3(up, basis), y_axes[rows]
        d = np.vecdot(side, y)[:, None]
        xp[rows] = np.where(d != 0.0, side - d * y, side)
        n[rows] = _norms(xp[rows])
    if (n < _DEGENERATE_AXIS_TOL).any():
        raise DataError("up vector must be non-zero")
    return xp / n


def _rotations(orientations: np.ndarray, angles: np.ndarray, up: np.ndarray) -> np.ndarray:
    """World-from-grasp rotations for (G, 3) unit orientations, (G,)
    angles and a unit ``up``: a C-contiguous (G, 3, 3) stack whose
    columns are the X, Y and Z axes of the grasp frame (module docstring),
    built without checks (see :func:`_check_rotations`).

    This is the one frame builder. Each row repeats the single-grasp
    arithmetic element for element (crosses as in :func:`_cross3`, norms
    as in :func:`_norms`), so every rotation is bit-equal to building its
    frame on its own, signed zeros included.
    """
    y = orientations
    xp = _horizontal_references(y, up)
    x = xp * np.cos(angles)[:, None] + _cross_rows(y, xp) * np.sin(angles)[:, None]  # Rodrigues, y . xp = 0
    x = x / _norms(x)
    z = _cross_rows(x, y)
    return np.stack([x, y, z / _norms(z)], axis=-1)


def _check_rotations(rotations: np.ndarray) -> None:
    """The frame checks (finite unit axes, mutually orthogonal within
    1e-9, x cross y = z) on a (G, 3, 3) stack of rotations whose columns
    are the frame axes."""
    axes = np.moveaxis(rotations, 2, 0)  # (3, G, 3): x, y, z per grasp
    for name, a in zip(("x_axis", "y_axis", "z_axis"), axes):
        if not np.isfinite(a).all():
            raise DataError(f"{name}: contains non-finite values")
        if (np.abs(_norms(a) - 1.0) > _ORTHO_TOL).any():
            raise DataError(f"{name} must be unit length")
    x, y, z = axes
    dots = (np.vecdot(x, y), np.vecdot(y, z), np.vecdot(x, z))
    if max(np.abs(d).max(initial=0.0) for d in dots) > _ORTHO_TOL:
        raise DataError("frame axes must be mutually orthogonal")
    if np.abs(_cross_rows(x, y) - z).max(initial=0.0) > _ORTHO_TOL:
        raise DataError("frame must be right-handed (x cross y = z)")


class _ScoringIndex:
    """A cloud's points stably sorted along its widest world axis, as (3, N)
    columns, with each column's original index; cached on the cloud, as
    sorting per call took 0.66 s of ``score_grasps`` per ``scene-20k``
    iteration (104 calls) against 0.32 s. A point either test accepts lies
    in a grasp-frame box [lo, hi], so along the sort axis within
    ``c_a + sum_k min/max(R[a, k] lo_k, R[a, k] hi_k)``, padded by 1e-6 of
    the cloud extent plus the box's coordinate sum: far above the rounding
    of that bound, of the grasp-frame coordinates and of a rotation
    orthonormal to 1e-9. A slice may hold extra points, never miss one.
    """

    def __init__(self, points: np.ndarray):
        span = np.ptp(points, axis=0) if len(points) else np.zeros(3)
        self.axis = int(np.argmax(span))
        self.order = np.argsort(points[:, self.axis], kind="stable")
        self.cols = np.ascontiguousarray(points[self.order].T)
        self.extent = math.hypot(*span) + float(np.abs(points).max(initial=0.0))

    def slabs(self, centers: np.ndarray, rotations: np.ndarray, lo: np.ndarray, hi: np.ndarray, half_z: float):
        """Per grasp (center and checked rotation), the original indices of
        the columns its box [``lo``, ``hi``] can reach (a view, in sort
        order) and the :func:`local_coords` slab of those columns."""
        keys, pad = self.cols[self.axis], 1e-6 * (self.extent + np.abs([lo, hi]).sum())
        ra = rotations[:, self.axis, :]
        c = centers[:, self.axis]
        starts = np.searchsorted(keys, c + np.minimum(ra * lo, ra * hi).sum(axis=1) - pad, side="left")
        ends = np.searchsorted(keys, c + np.maximum(ra * lo, ra * hi).sum(axis=1) + pad, side="right")
        work = np.empty(6 * int((ends - starts).max(initial=0)))
        for center, r, s, e in zip(centers, rotations, starts.tolist(), ends.tolist()):
            yield self.order[s:e], *local_coords(self.cols[:, s:e], center, r, half_z, work)


def local_coords(
    cols: np.ndarray, origin: np.ndarray, rotation: np.ndarray, half_z: float = np.inf, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Grasp-frame coordinates of the columns of a (3, M) point array (any
    view) within |z| <= ``half_z`` of the grasp's X-Y plane: the slab's
    ascending column positions and their (3, K) coordinates (a copy, rows
    contiguous), computed in ``work`` (6M doubles, fresh by default).

    The product is ``R^T (cols - origin)`` with ``R^T`` the transposed
    *view* of the C-contiguous rotation, and then column i equals row i of
    ``(points - origin) @ R`` bit for bit, signed zeros included: 0 of
    949,332 rows differed over N = 1-39, 63-65, 127-129, 255-257, 1000,
    3150, 4096 and 20000 with random, grid-rounded and axis-permutation
    frames (numpy 2.4.6, OpenBLAS 0.3.31). So any slice of a sorted cloud
    (:class:`_ScoringIndex`) keeps the whole cloud's bits: 0 of 9,921
    (seed 1) and 10,030 (seed 2) ``score_grasps`` rows differed over one
    iteration of every benchmark workload. A contiguous copy of ``R^T``
    rounds differently (170 of 300 one-point clouds), and so would
    ``einsum`` or a batch over grasps; grasp-frame ties decide contacts.
    The column layout is the speed: ``(N, 3) - (3,)`` runs an inner loop
    of length 3, and ``(3, N) - (3, 1)`` three of length N. Fresh arrays
    per grasp took 555 against 260 us per grasp on a 23k-point scene
    (2-vCPU VM), from page faults.
    """
    m = cols.shape[1]
    work = np.empty(6 * m) if work is None else work
    shifted, local = work[: 3 * m].reshape(3, m), work[3 * m : 6 * m].reshape(3, m)
    np.subtract(cols, origin[:, None], out=shifted)
    np.matmul(np.ascontiguousarray(rotation).T, shifted, out=local)
    idx = (np.abs(local[2]) <= half_z).nonzero()[0]
    return idx, local.take(idx, axis=1)


def _apply_rows(rows: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """``v @ rotation.T`` for every row v of a C-contiguous (G, 3) array,
    bit for bit (see the module docstring)."""
    return np.matmul(rows[:, None, :], rotation.T)[:, 0]


def transform_grasps(grasps: GraspSet, transform: RigidTransform, up=WORLD_UP) -> GraspSet:
    """Move a :class:`GraspSet` by a rigid transform, keeping each
    physical gripper pose; row i is bit-equal to moving grasp i alone.
    Scores are dropped: they refer to an object in the old frame.

    The full frame is rotated (its checks passed before the motion), then
    (center, orientation, angle) are read back; when the recovered angle
    leaves [-pi/2, pi/2] the jaw symmetry (r, theta) ~ (-r, pi - theta)
    restores it. :class:`GraspSet` checks the result and normalizes each
    orientation once: normalizing twice changes the last bit of about a
    third of them.
    """
    up = unit(np.asarray(up, dtype=np.float64))
    rotations = grasps.rotations(up)
    r, t = transform.rotation, transform.translation
    x_new = _apply_rows(np.ascontiguousarray(rotations[:, :, 0]), r)
    y_new = _apply_rows(np.ascontiguousarray(rotations[:, :, 1]), r)
    xp = _horizontal_references(y_new, up)
    theta = np.arctan2(np.vecdot(_cross_rows(xp, x_new), y_new), np.vecdot(xp, x_new))
    flip = np.abs(theta) > np.pi / 2
    y_new[flip] = -y_new[flip]
    theta[flip] = np.pi - theta[flip]
    theta[flip & (theta > np.pi)] -= 2.0 * np.pi
    return GraspSet(_apply_rows(grasps.centers, r) + t, y_new, np.clip(theta, -np.pi / 2, np.pi / 2))


_NEAREST_BLOCK = 1 << 14  # query rows times centers per distance block


def _nearest_centers(centers: np.ndarray, points) -> tuple[np.ndarray, np.ndarray]:
    """Index and distance of the row of a (G, 3) center array closest to
    each of M points, lowest index on ties, in blocks of at most
    :data:`_NEAREST_BLOCK` pairs; each distance has the bits of that
    point's ``np.linalg.norm(centers - point, axis=1)``."""
    if not len(centers):
        raise DataError("empty grasp list")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    index = np.empty(len(points), dtype=np.intp)
    dist = np.empty(len(points))
    step = max(1, _NEAREST_BLOCK // len(centers))
    for start in range(0, len(points), step):
        d = np.linalg.norm(centers - points[start : start + step, None, :], axis=2)
        index[start : start + step] = i = np.argmin(d, axis=1)
        dist[start : start + step] = d[np.arange(len(i)), i]
    return index, dist
