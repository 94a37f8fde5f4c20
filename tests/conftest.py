"""Shared fixtures: analytic objects, the default gripper, and a couple of
hand-verified grasps that the physics tests reuse; and the one-grasp
helpers and records (frame, contact pair, closing area) the tests use as
scalar oracles, independent of the package's kernels."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from graspfield import DataError, GraspSet, GripperModel, PointCloud, find_contacts
from graspfield.geometry import WORLD_UP, _as_array, _check_rotations, _rotations, local_coords, unit
from graspfield.quality import DEFAULT_CONTACT_TOL, DEFAULT_MU, _check_friction
from graspfield.synthetic import box_cloud, plane_grid, sphere_cloud


@pytest.fixture(scope="session")
def gripper():
    return GripperModel()


@pytest.fixture(scope="session")
def box():
    """Default synthetic box: 3150 surface points, exact face normals."""
    return box_cloud()


@pytest.fixture(scope="session")
def small_sphere():
    """Sphere that fits between the jaws (diameter 0.07 < opening 0.08)."""
    return sphere_cloud(radius=0.035, count=4000)


def dead_plane_scene():
    """A coarse box resting on a table plane, 3920 points: below the ray
    index crossover, so the sampler scans. Plane points more than about
    2 cm from the box have no partner within the opening and the friction
    cone, so they can never yield a candidate."""
    plane = plane_grid(0.1, 0.004)
    box = box_cloud(spacing=0.003)
    points = np.concatenate([plane.points, box.points + (0.0, 0.0, 0.015)])
    return PointCloud(points, normals=np.concatenate([plane.normals, box.normals]))


@pytest.fixture
def z_grasp():
    """Grasp across the box's thin z dimension; scores (1, 1, 1) on `box`."""
    return one_grasp((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)


def one_grasp(center, orientation, angle, *scores) -> GraspSet:
    """One grasp as a one-row set; ``scores`` are all three or none."""
    return GraspSet([center], [orientation], [angle], [scores] if scores else None)


def stack(sets) -> GraspSet:
    """The rows of several sets as one set, with their stored bits."""
    sets = list(sets) or [GraspSet([], [], [])]
    scores = [np.full((len(s), 3), -1) if s.scores is None else s.scores for s in sets]
    return GraspSet._stored(
        np.concatenate([s.centers for s in sets]),
        np.concatenate([s.orientations for s in sets]),
        np.concatenate([s.angles for s in sets]),
        np.concatenate(scores),
    )


def random_unit(rng, n=None):
    """Uniform unit vector(s) on the sphere."""
    v = rng.normal(size=3 if n is None else (n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# One-grasp helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraspFrame:
    """Orthonormal right-handed frame attached to a grasp (x_axis cross
    y_axis equals z_axis within 1e-9)."""

    origin: np.ndarray
    x_axis: np.ndarray
    y_axis: np.ndarray
    z_axis: np.ndarray

    def __post_init__(self):
        for name in ("origin", "x_axis", "y_axis", "z_axis"):
            object.__setattr__(self, name, _as_array(getattr(self, name), (3,), name))
        _check_rotations(self.rotation[None])

    @property
    def rotation(self) -> np.ndarray:
        """World-from-grasp rotation; columns are the frame axes."""
        return np.column_stack([self.x_axis, self.y_axis, self.z_axis])


def grasp_frame(g: GraspSet, up=WORLD_UP) -> GraspFrame:
    """The checked grasp frame of a one-row set: Y along the orientation,
    X the horizontal reference normalize(up x Y) rotated about Y by the
    angle, Z = X x Y."""
    assert len(g) == 1
    (r,) = _rotations(g.orientations, g.angles, unit(np.asarray(up, dtype=np.float64)))
    return GraspFrame(g.centers[0], r[:, 0], r[:, 1], r[:, 2])


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
            if abs(np.linalg.norm(getattr(self, name)) - 1.0) > 1e-6:
                raise DataError(f"{name} must be unit length")
        if np.array_equal(self.point_a, self.point_b):
            raise DataError("contact points must be distinct")


def contact_pair(obj: PointCloud, g: GraspSet, gripper: GripperModel, tol=DEFAULT_CONTACT_TOL):
    """The :func:`~graspfield.find_contacts` contacts of a one-row set as a
    :class:`ContactPair`, or None when either jaw sweeps empty space."""
    (ia,), (ib,) = find_contacts(obj, g, gripper, tol)
    if ia < 0:
        return None
    y = g.rotations()[0, :, 1]
    return ContactPair(obj.points[ia], obj.points[ib], obj.normals[ia], obj.normals[ib], -y, y)


def closing_area(cloud: PointCloud, g: GraspSet, gripper: GripperModel):
    """Points between the jaws of a one-row set: (ascending indices, their
    grasp-frame coordinates), inside the closing box with inclusive bounds."""
    frame = grasp_frame(g)
    hx, hy, hz = gripper.closing_half_extents()
    idx, local = local_coords(cloud.points.T, frame.origin, frame.rotation, hz)
    keep = (np.abs(local[0]) <= hx) & (np.abs(local[1]) <= hy)
    return idx[keep], np.ascontiguousarray(local[:, keep].T)

def to_grasp_frame(cloud: PointCloud, frame: GraspFrame) -> PointCloud:
    """Re-express a cloud in the grasp frame: p -> R^T (p - origin)."""
    r = frame.rotation
    _, local = local_coords(cloud.points.T, frame.origin, r)
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
    idx, (x, y, _) = local_coords(cloud.points.T, frame.origin, frame.rotation, hz)
    return idx[(np.abs(x) <= hx) & (np.abs(y) <= hy)]


def antipodal_score(contacts: ContactPair, mu: float = DEFAULT_MU) -> int:
    """1 iff both contact forces lie inside their friction cones: each
    folded contact angle ``acos(min(|n . f|, 1))`` is at most ``atan(mu)``,
    one scalar pair at a time."""
    _check_friction(mu=mu)
    for n, f in ((contacts.normal_a, contacts.force_a), (contacts.normal_b, contacts.force_b)):
        if math.acos(min(abs(float(np.dot(n, f))), 1.0)) > math.atan(mu):
            return 0
    return 1


def collision_score(obj: PointCloud, g: GraspSet, gripper: GripperModel) -> int:
    """1 iff no object point lies strictly inside any gripper solid: a
    strict scan of every point against each box in turn, in the grasp
    frame ``(points - origin) @ R``."""
    frame = grasp_frame(g)
    local = (obj.points - frame.origin) @ frame.rotation
    for lo, hi in gripper.collision_boxes():
        if ((local > lo) & (local < hi)).all(axis=1).any():
            return 0
    return 1
