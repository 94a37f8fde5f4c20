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

The gripper solids become, once per call, distinct strict interval tests
(:func:`_intervals`) that each run once per grasp, and the sweep returns
arrays. The antipodal test then runs once over every grasp with
contacts: row ``np.vecdot`` of the normals with the Y axes, and
``math.acos`` per value against ``atan(mu)``, as for one grasp.

The scores are bit-identical to scoring each grasp alone in row layout,
``(points - origin) @ R``: :func:`~.geometry.local_coords` and the
:mod:`.geometry` module docstring give the rules that keep those bits and
the measurements behind them. They matter because each contact is the
extreme-Y point, the lowest index on exact ties, and grid objects tie to
an ulp; the slab runs in sort order, so a tie looks up the lowest
original index among the tied points.
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


def _intervals(boxes) -> tuple[list, list]:
    """The distinct tests ``(row, lo, hi)``, each ``lo < c < hi`` (``c <
    hi`` when ``lo`` is None) on row ``row`` of ``(x, y, z, |x|, |y|,
    |z|)``, and per box the indices of its tests. An interval symmetric
    about 0 becomes ``|c| < hi``."""
    tests, members = [], []
    for lo, hi in boxes:
        ids = []
        for k, a, b in zip(range(3), np.asarray(lo, float).tolist(), np.asarray(hi, float).tolist()):
            test = (k + 3, None, b) if a == -b else (k, a, b)
            if test not in tests:
                tests.append(test)
            ids.append(tests.index(test))
        members.append(ids)
    return tests, members


def _sweep(obj: PointCloud, centers: np.ndarray, rotations: np.ndarray, gripper: GripperModel, tol: float):
    """``(ia, ib, free)`` int arrays over checked grasp frames (centers and
    rotations, see :meth:`~.geometry.GraspSet.rotations`): the jaw-sweep
    contacts of :func:`find_contacts` (``ia = ib = -1`` when there are
    none) and the collision test, 1 iff no point lies strictly inside a
    gripper solid.

    Both tests read one slab (:meth:`~.geometry._ScoringIndex.slabs`) of
    the box holding the sweep box and every collision box.
    """
    hx = gripper.finger_length / 2.0 + tol
    hw = gripper.max_opening / 2.0
    hz = gripper.finger_height / 2.0 + tol
    boxes = gripper.collision_boxes()
    tests, members = _intervals(boxes)
    reach = np.array([hx, hw, hz])
    reach_lo = np.minimum(-reach, np.min([lo for lo, _ in boxes], axis=0))
    reach_hi = np.maximum(reach, np.max([hi for _, hi in boxes], axis=0))
    half_z = max(-reach_lo[2], reach_hi[2])
    slabs = obj._scoring_index.slabs(centers, rotations, reach_lo, reach_hi, half_z)
    ia, ib, free = np.full(len(centers), -1), np.full(len(centers), -1), np.ones(len(centers), dtype=np.int64)
    for g, (order, idx, local) in enumerate(slabs):
        mag = np.abs(local)
        rows = (local[0], local[1], local[2], mag[0], mag[1], mag[2])  # indexing beats unpacking by 2 us
        swept = (rows[3] <= hx) & (rows[4] <= hw)
        if half_z != hz:  # the slab is taller than the sweep
            swept &= rows[5] <= hz
        near = swept.nonzero()[0]
        if near.size:
            # a jaw touches iff the extreme Y lies on its side
            ys = rows[1].take(near)
            a, b = ys.argmax(), ys.argmin()  # methods: np.argmax's wrapper costs 1 us
            top, bottom = ys[a], ys[b]
            if top >= 0.0 and bottom <= 0.0:
                tied = ys == top
                ia[g] = order[idx[near[a]]] if np.count_nonzero(tied) == 1 else order[idx[near[tied]]].min()
                tied = ys == bottom
                ib[g] = order[idx[near[b]]] if np.count_nonzero(tied) == 1 else order[idx[near[tied]]].min()
        masks = [rows[k] < hi if lo is None else (rows[k] > lo) & (rows[k] < hi) for k, lo, hi in tests]
        for i, j, k in members:
            inside = masks[i] & masks[j]
            inside &= masks[k]
            if np.count_nonzero(inside):  # faster than .any() on a bool array
                free[g] = 0
                break
    both = ia == ib
    ia[both] = ib[both] = -1
    return ia, ib, free


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
    rotations = one.rotations()
    (ia,), (ib,), _ = _sweep(obj, one.centers, rotations, gripper, tol)
    if ia < 0:
        return None
    y = rotations[0, :, 1]
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
    :class:`ContactPair`'s checks without building one: ``PointCloud``
    checked every normal, the points are checked distinct here, and the
    forces are the frame's Y axis, unit within 1e-9.
    """
    grasps = GraspSet.of(grasps)
    _check_friction(mu, tol)
    if obj.normals is None:
        raise DataError("normals required to extract contacts")
    rotations = grasps.rotations()
    ia, ib, free = _sweep(obj, grasps.centers, rotations, gripper, tol)
    rows = np.flatnonzero(ia >= 0)
    a, b = ia[rows], ib[rows]
    if (obj.points[a] == obj.points[b]).all(axis=1).any():
        raise DataError("contact points must be distinct")
    # the forces are -y on side a and y on side b; the folded cosine and
    # math.acos are those of the one-grasp test, bit for bit
    y = np.ascontiguousarray(rotations[rows, :, 1])
    cosines = np.abs(np.concatenate([np.vecdot(obj.normals[a], -y), np.vecdot(obj.normals[b], y)]))
    angles = np.fromiter(map(math.acos, np.minimum(cosines, 1.0).tolist()), dtype=np.float64, count=len(cosines))
    inside = (angles <= math.atan(mu)).reshape(2, -1).all(axis=0)
    table = np.zeros((len(grasps), 3), dtype=np.int64)
    table[rows, 0] = inside
    table[:, 1] = free
    table[:, 2] = np.minimum(table[:, 0], free)
    return table


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
