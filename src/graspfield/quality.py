"""Physics-based grasp quality on point clouds: the binary antipodal
(force-closure) score, the binary collision score, and their minimum.

A grasp collides iff some object point lies strictly inside one of the
gripper solids; the open region between the fingers never collides. The
antipodal test needs both contact forces inside their friction cones,
folding the normal sign away; jaws that sweep no points score 0.

:func:`score_grasps` is the one scoring kernel: it takes a
:class:`~.geometry.GraspSet` (a list of ``Grasp`` is stacked once) and
every stage scores through it, ``metrics.evaluate`` on the moved set.
:func:`find_contacts` and :func:`score_grasp` are one-grasp views of the
same sweep. Per call it makes one checked stack of rotations
(:meth:`~.geometry.GraspSet.rotations`) and builds no per-grasp object.
Each grasp reads only the slice of the cloud, sorted once along its
widest axis, that its gripper can reach (29% of the 20k-point scene):
both tests run on one slab of grasp-frame coordinates of that slice.

The scores are bit-identical to scoring each grasp alone in row layout,
``(points - origin) @ R``: :func:`~.geometry.local_coords` and the
:mod:`.geometry` module docstring give the rules that keep those bits and
the measurements behind them. They matter because each contact is the
extreme-Y point, the lowest index on exact ties, and grid objects tie to
an ulp; the slab runs in sort order, so a tie takes :func:`_lowest_tied`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .geometry import Grasp, GraspSet, GripperModel, PointCloud

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
    :meth:`~.geometry.GraspSet.rotations`), ``(y_axis, ia, ib,
    collision_free)``: the jaw-sweep contacts of :func:`find_contacts`
    (``ia = ib = -1`` when there are none) and the collision test, 1 iff
    no point lies strictly inside a gripper solid.

    Both tests read one slab (:meth:`~.geometry._ScoringIndex.slabs`) of
    the box holding the sweep box and every collision box.
    """
    hx = gripper.finger_length / 2.0 + tol
    hw = gripper.max_opening / 2.0
    hz = gripper.finger_height / 2.0 + tol
    boxes = gripper.collision_boxes()
    lo = np.array([lo for lo, _ in boxes])[:, :, None]  # (B, 3, 1)
    hi = np.array([hi for _, hi in boxes])[:, :, None]
    reach = np.array([hx, hw, hz])
    reach_lo, reach_hi = np.minimum(-reach, lo.min(axis=0)[:, 0]), np.maximum(reach, hi.max(axis=0)[:, 0])
    slabs = obj._scoring_index.slabs(centers, rotations, reach_lo, reach_hi, max(-reach_lo[2], reach_hi[2]))
    for r, (order, idx, local) in zip(rotations, slabs):
        x, y, z = local
        ia = ib = -1
        swept = (np.abs(z) <= hz) & (np.abs(x) <= hx) & (np.abs(y) <= hw)
        if swept.any():
            # a jaw touches iff the extreme Y lies on its side
            ys, near = y[swept], idx[swept]
            a, b = ys.argmax(), ys.argmin()  # methods: np.argmax's wrapper costs 1 us
            if ys[a] >= 0.0 and ys[b] <= 0.0:
                ia, ib = _lowest_tied(ys, near, a, order), _lowest_tied(ys, near, b, order)
                if ia == ib:
                    ia = ib = -1
        free = not ((local > lo) & (local < hi)).all(axis=1).any()
        yield r[:, 1].copy(), ia, ib, int(free)


def _lowest_tied(ys: np.ndarray, near: np.ndarray, k, order: np.ndarray) -> int:
    """The lowest original index ``order[near]`` among the points whose Y
    equals ``ys[k]``; a lone extreme, the common case, skips the ``min``."""
    tied = ys == ys[k]
    return int(order[near[k]]) if np.count_nonzero(tied) == 1 else int(order[near[tied]].min())


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
    one = GraspSet.of([g])
    ((y, ia, ib, _),) = _sweep(obj, one.centers, one.rotations(), gripper, tol)
    if ia < 0:
        return None
    return ContactPair(obj.points[ia], obj.points[ib], obj.normals[ia], obj.normals[ib], -y, y)


def score_grasps(
    obj: PointCloud,
    grasps,
    gripper: GripperModel,
    mu: float = DEFAULT_MU,
    tol: float = DEFAULT_CONTACT_TOL,
) -> np.ndarray:
    """(G, 3) int64 table of (antipodal, collision, combined) scores for a
    :class:`~.geometry.GraspSet` or a list of G grasps.

    The combined score is min of the two components; unreachable grasps
    (no contacts) get antipodal score 0 rather than an error. Row i is
    bit-identical to scoring grasp i on its own. The contacts pass
    :class:`ContactPair`'s checks (unit normals, distinct points) without
    building one; the forces are the frame's Y axis, unit within 1e-9.
    """
    grasps = GraspSet.of(grasps)
    _check_friction(mu, tol)
    if obj.normals is None:
        raise DataError("normals required to extract contacts")
    points, normals, beta = obj.points, obj.normals, math.atan(mu)
    rows = []
    for y, ia, ib, sc in _sweep(obj, grasps.centers, grasps.rotations(), gripper, tol):
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
    sa, sc, sg = score_grasps(obj, [g], gripper, mu=mu, tol=tol)[0].tolist()
    return replace(g, score_antipodal=sa, score_collision=sc, score=sg)
