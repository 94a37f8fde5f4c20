"""Shared fixtures: analytic objects, the default gripper, and a couple of
hand-verified grasps that the physics tests reuse; and the one-grasp
helpers the tests use as scalar oracles around the package's kernels."""

import math

import numpy as np
import pytest

from graspfield import DataError, Grasp, GraspSet, GripperModel, PointCloud
from graspfield.geometry import GraspFrame, _as_array, local_coords
from graspfield.quality import DEFAULT_MU, ContactPair, _antipodal, _check_friction, _sweep
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
    return Grasp((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)


def random_unit(rng, n=None):
    """Uniform unit vector(s) on the sphere."""
    v = rng.normal(size=3 if n is None else (n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# One-grasp helpers
# ---------------------------------------------------------------------------

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
    """1 iff both contact forces lie inside their friction cones: the
    package's contact-angle test on one contact pair."""
    _check_friction(mu=mu)
    pairs = ((contacts.normal_a, contacts.force_a), (contacts.normal_b, contacts.force_b))
    return _antipodal(pairs, math.atan(mu))


def collision_score(obj: PointCloud, g: Grasp, gripper: GripperModel) -> int:
    """1 iff no object point lies strictly inside any gripper solid: the
    collision test of the package's sweep on one grasp."""
    one = GraspSet.of([g])
    ((_, _, _, free),) = _sweep(obj, one.centers, one.rotations(), gripper, 0.0)
    return free
