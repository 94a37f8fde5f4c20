"""Physics-based grasp quality on point clouds: the binary antipodal
(force-closure) score, the binary collision score, and their minimum.

A grasp collides iff some object point lies strictly inside one of the
gripper solids; the open region between the fingers never collides. The
antipodal test needs both contact forces inside their friction cones,
folding the normal sign away; jaws that sweep no points score 0.

:func:`score_grasps` is the one scoring kernel; :func:`find_contacts`,
:func:`collision_score` and :func:`score_grasp` wrap it, and
``metrics.evaluate`` enters it with arrays of moved poses through
:func:`_score_frames`. Per call it makes one column copy of the cloud
(:func:`~.geometry.grasp_columns`); the grasp rotations are built as one
stack (:func:`~.geometry._rotations`) and checked once, with
:class:`GraspFrame`'s tolerance and messages; no per-grasp ``Grasp``,
``GraspFrame`` or ``ContactPair`` is built. Per grasp it reads one slab
of grasp-frame coordinates in column layout
(:func:`~.geometry.local_coords`: rows x, y, z of
``R^T (cols - origin)`` for the points with |z| <= max(H/2 + tol, the
collision boxes' z extent)), and both tests run on the slab's 1-D rows.

The scores are bit-identical to row-layout scoring with
``(points - origin) @ R``. With ``R^T`` the transposed view of the
C-contiguous rotation, each column of the product equals the matching
row, signed zeros included (0 of 949,332 rows differed over N = 1-39,
63-65, 127-129, 255-257, 1000, 3150, 4096 and 20000 with random,
grid-rounded and axis-permutation frames, numpy 2.4.6, OpenBLAS 0.3.31).
That order is kept on purpose: each contact is the extreme-Y point
(lowest index on ties, so the slab stays ascending) and grid objects tie
to an ulp, so a contiguous copy of ``R^T`` (170 of 300 one-point clouds
differ), ``einsum`` or cross-grasp local coordinates (33% of elements
differ in the last bit) would flip scores. The stacked rotations keep the
one-grasp bits by the same kind of rule: norms and dots are
``np.vecdot`` (0 of 200,000 vectors differ from a 1-D norm, against
10-14% for ``einsum``, ``(v * v).sum(1)`` or ``norm(axis=1)``), and a
rigid motion of rows is ``np.matmul(V[:, None, :], R.T)`` (0 of 100,000
rows differ from ``v @ R.T``, against 53-73% for ``V @ R.T``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .geometry import Grasp, GripperModel, PointCloud, _grasp_rotations, grasp_columns, local_coords

DEFAULT_MU = 0.6
DEFAULT_CONTACT_TOL = 0.005

_UNIT_TOL = 1e-6


@dataclass(frozen=True)
class ContactPair:
    """Two opposing contacts: positions, surface normals, and unit force
    directions along the closing line pointing into the object."""

    point_a: np.ndarray
    point_b: np.ndarray
    normal_a: np.ndarray
    normal_b: np.ndarray
    force_a: np.ndarray
    force_b: np.ndarray

    def __post_init__(self):
        for name in ("point_a", "point_b", "normal_a", "normal_b", "force_a", "force_b"):
            v = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if v.shape != (3,) or not np.isfinite(v).all():
                raise DataError(f"{name} must be a finite 3-vector")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        for name in ("normal_a", "normal_b", "force_a", "force_b"):
            if abs(np.linalg.norm(getattr(self, name)) - 1.0) > _UNIT_TOL:
                raise DataError(f"{name} must be unit length")
        if np.array_equal(self.point_a, self.point_b):
            raise DataError("contact points must be distinct")


def _check_friction(mu: float | None = None, tol: float | None = None) -> None:
    """Reject a friction coefficient or contact tolerance outside its
    domain: ``mu`` must be finite and positive, ``tol`` finite and
    non-negative (``None`` skips a check)."""
    if mu is not None and not (math.isfinite(mu) and mu > 0.0):
        raise DataError(f"mu must be a finite positive number, got {mu}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise DataError(f"tol must be a finite non-negative number, got {tol}")


def _sweep(obj: PointCloud, centers: np.ndarray, rotations: np.ndarray, gripper: GripperModel, tol: float):
    """Per checked grasp frame (center and rotation, see
    :func:`~.geometry._grasp_rotations`), ``(y_axis, ia, ib,
    collision_free)``: the jaw-sweep
    contacts of :func:`find_contacts` (``ia = ib = -1`` when there are
    none) and the collision test of :func:`collision_score`.

    Both tests read one slab of grasp-frame coordinates
    (:func:`local_coords`), |z| <= max(H/2 + tol, the boxes' z extent),
    which holds every point either test can accept.
    """
    hx = gripper.finger_length / 2.0 + tol
    hw = gripper.max_opening / 2.0
    hz = gripper.finger_height / 2.0 + tol
    boxes = gripper.collision_boxes()
    half_z = max(hz, *(max(-lo[2], hi[2]) for lo, hi in boxes))
    lo = np.array([lo for lo, _ in boxes])[:, :, None]  # (B, 3, 1)
    hi = np.array([hi for _, hi in boxes])[:, :, None]
    work = grasp_columns(obj.points)
    for center, r in zip(centers, rotations):
        idx, local = local_coords(work, center, r, half_z)
        x, y, z = local
        ia = ib = -1
        swept = (np.abs(z) <= hz) & (np.abs(x) <= hx) & (np.abs(y) <= hw)
        if swept.any():
            # the slab is ascending, so argmax/argmin keep the lowest index
            # on ties; a jaw touches iff the extreme Y lies on its side
            ys, near = y[swept], idx[swept]
            a, b = np.argmax(ys), np.argmin(ys)
            if ys[a] >= 0.0 and ys[b] <= 0.0 and near[a] != near[b]:
                ia, ib = int(near[a]), int(near[b])
        free = not ((local > lo) & (local < hi)).all(axis=1).any()
        yield r[:, 1].copy(), ia, ib, int(free)


def _antipodal(pairs, beta: float) -> int:
    """1 iff every (normal, force) pair's folded contact angle is at most
    ``beta``."""
    for n, f in pairs:
        cos_alpha = min(abs(float(np.dot(n, f))), 1.0)
        if math.acos(cos_alpha) > beta:
            return 0
    return 1


def find_contacts(
    obj: PointCloud,
    g: Grasp,
    gripper: GripperModel,
    tol: float = DEFAULT_CONTACT_TOL,
) -> ContactPair | None:
    """Close the jaws along the grasp Y axis and report the first-touch
    contact on each side, or None when either jaw sweeps empty space.

    The sweep volume of each finger is half of the closing box, with its
    X/Z cross-section inflated by ``tol`` to absorb sensor discreteness.
    The contact on each side is the point the finger reaches first, i.e.
    the one with extreme Y coordinate (lowest index on ties).
    """
    _check_friction(tol=tol)
    if obj.normals is None:
        raise DataError("normals required to extract contacts")
    ((y, ia, ib, _),) = _sweep(obj, *_grasp_rotations([g]), gripper, tol)
    if ia < 0:
        return None
    return ContactPair(obj.points[ia], obj.points[ib], obj.normals[ia], obj.normals[ib], -y, y)


def antipodal_score(contacts: ContactPair, mu: float = DEFAULT_MU) -> int:
    """1 iff both contact forces lie inside their friction cones.

    The cone half-angle is arctan(mu); the contact angle alpha between the
    surface normal and the force direction is folded into [0, pi/2] so the
    test is insensitive to the normal's sign.
    """
    _check_friction(mu=mu)
    return _antipodal(
        ((contacts.normal_a, contacts.force_a), (contacts.normal_b, contacts.force_b)), math.atan(mu)
    )


def collision_score(obj: PointCloud, g: Grasp, gripper: GripperModel) -> int:
    """1 iff no object point lies strictly inside any gripper solid (the
    two open fingers and the base) placed at the grasp pose."""
    ((_, _, _, free),) = _sweep(obj, *_grasp_rotations([g]), gripper, 0.0)
    return free


def score_grasps(
    obj: PointCloud,
    grasps,
    gripper: GripperModel,
    mu: float = DEFAULT_MU,
    tol: float = DEFAULT_CONTACT_TOL,
) -> np.ndarray:
    """(G, 3) int64 table of (antipodal, collision, combined) scores for
    an iterable of G grasps (read once; only their frames are kept).

    The combined score is min of the two components; unreachable grasps
    (no contacts) get antipodal score 0 rather than an error. Row i is
    bit-identical to scoring grasp i on its own. The contacts pass
    :class:`ContactPair`'s checks (unit normals, distinct points) without
    building one; the forces are the frame's Y axis, unit within 1e-9.
    """
    return _score_frames(obj, *_grasp_rotations(grasps), gripper, mu, tol)


def _score_frames(
    obj: PointCloud, centers: np.ndarray, rotations: np.ndarray, gripper: GripperModel, mu: float, tol: float
) -> np.ndarray:
    """:func:`score_grasps` on (G, 3) centers and (G, 3, 3) rotations that
    passed :func:`~.geometry._check_rotations`, for callers that hold
    grasp poses as arrays."""
    _check_friction(mu, tol)
    if obj.normals is None:
        raise DataError("normals required to extract contacts")
    points, normals, beta = obj.points, obj.normals, math.atan(mu)
    rows = []
    for y, ia, ib, sc in _sweep(obj, centers, rotations, gripper, tol):
        sa = 0
        if ia >= 0:
            for name, i in (("normal_a", ia), ("normal_b", ib)):
                if abs(np.linalg.norm(normals[i]) - 1.0) > _UNIT_TOL:
                    raise DataError(f"{name} must be unit length")
            if (points[ia] == points[ib]).all():
                raise DataError("contact points must be distinct")
            sa = _antipodal(((normals[ia], -y), (normals[ib], y)), beta)
        rows.append((sa, sc, min(sa, sc)))
    return np.array(rows, dtype=np.int64).reshape(len(rows), 3)


def score_grasp(
    obj: PointCloud,
    g: Grasp,
    gripper: GripperModel,
    mu: float = DEFAULT_MU,
    tol: float = DEFAULT_CONTACT_TOL,
) -> Grasp:
    """Attach (antipodal, collision, combined) scores to one grasp; see
    :func:`score_grasps`."""
    sa, sc, _ = score_grasps(obj, [g], gripper, mu=mu, tol=tol)[0]
    return g.with_scores(sa, sc)
