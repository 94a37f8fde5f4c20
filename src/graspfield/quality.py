"""Physics-based grasp quality on point clouds: the binary antipodal
(force-closure) score, the binary collision score, and their minimum.

A grasp collides iff some object point lies strictly inside one of the
gripper solids; the open region between the fingers never collides. The
antipodal test needs both contact forces inside their friction cones,
folding the normal sign away; jaws that sweep no points score 0.

:func:`score_grasps` is the one scoring kernel; the single-grasp functions
wrap it. Per grasp it builds the frame once and reads one
``(points - origin) @ R`` product (:func:`local_coords`) in both tests, so
its scores are bit-identical to per-grasp BLAS scoring. That order is kept
on purpose: each contact is the extreme-Y point (lowest index on ties) and
grid objects tie to an ulp, so ``einsum`` or cross-grasp local coordinates
(33% of elements differ in the last bit) or axis-1 frame norms (10% differ
from the 1-D norm) would flip scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .geometry import Grasp, GraspFrame, GripperModel, PointCloud, box_indices, grasp_frame, local_coords

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


def _contacts(obj: PointCloud, frame: GraspFrame, local: np.ndarray, gripper: GripperModel, tol: float):
    """:func:`find_contacts` on the cloud's grasp-frame coordinates."""
    half = (gripper.finger_length / 2.0 + tol, gripper.max_opening / 2.0, gripper.finger_height / 2.0 + tol)
    swept = box_indices(local, half)
    y = local[swept, 1]
    on_a, on_b = y >= 0.0, y <= 0.0
    if not (on_a.any() and on_b.any()):
        return None
    ia = swept[on_a][np.argmax(y[on_a])]
    ib = swept[on_b][np.argmin(y[on_b])]
    if ia == ib:
        return None
    return ContactPair(obj.points[ia], obj.points[ib], obj.normals[ia], obj.normals[ib], -frame.y_axis, frame.y_axis)


def _collision_free(local: np.ndarray, boxes) -> int:
    """1 iff no grasp-frame point lies strictly inside any (lo, hi) box."""
    z = local[:, 2]
    slab = local[(z > min(lo[2] for lo, _ in boxes)) & (z < max(hi[2] for _, hi in boxes))]
    x, y, z = slab[:, 0], slab[:, 1], slab[:, 2]
    for lo, hi in boxes:
        if ((z > lo[2]) & (z < hi[2]) & (x > lo[0]) & (x < hi[0]) & (y > lo[1]) & (y < hi[1])).any():
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
    the one with extreme Y coordinate.
    """
    if obj.normals is None:
        raise DataError("normals required to extract contacts")
    frame = grasp_frame(g)
    return _contacts(obj, frame, local_coords(obj.points, frame), gripper, tol)


def antipodal_score(contacts: ContactPair, mu: float = DEFAULT_MU) -> int:
    """1 iff both contact forces lie inside their friction cones.

    The cone half-angle is arctan(mu); the contact angle alpha between the
    surface normal and the force direction is folded into [0, pi/2] so the
    test is insensitive to the normal's sign.
    """
    if mu <= 0.0:
        raise DataError("mu must be positive")
    beta = math.atan(mu)
    for n, f in ((contacts.normal_a, contacts.force_a), (contacts.normal_b, contacts.force_b)):
        cos_alpha = min(abs(float(np.dot(n, f))), 1.0)
        if math.acos(cos_alpha) > beta:
            return 0
    return 1


def collision_score(obj: PointCloud, g: Grasp, gripper: GripperModel) -> int:
    """1 iff no object point lies strictly inside any gripper solid (the
    two open fingers and the base) placed at the grasp pose."""
    return _collision_free(local_coords(obj.points, grasp_frame(g)), gripper.collision_boxes())


def score_grasps(
    obj: PointCloud,
    grasps,
    gripper: GripperModel,
    mu: float = DEFAULT_MU,
    tol: float = DEFAULT_CONTACT_TOL,
) -> np.ndarray:
    """(G, 3) int64 table of (antipodal, collision, combined) scores for
    an iterable of G grasps (a generator keeps one grasp alive at a time).

    The combined score is min of the two components; unreachable grasps
    (no contacts) get antipodal score 0 rather than an error. Row i is
    bit-identical to scoring grasp i on its own.
    """
    if obj.normals is None:
        raise DataError("normals required to extract contacts")
    boxes = gripper.collision_boxes()
    rows = []
    for g in grasps:
        frame = grasp_frame(g)
        local = local_coords(obj.points, frame)
        contacts = _contacts(obj, frame, local, gripper, tol)
        sa = 0 if contacts is None else antipodal_score(contacts, mu)
        sc = _collision_free(local, boxes)
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
