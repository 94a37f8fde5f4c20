"""Shared fixtures: analytic objects, the default gripper, and a couple of
hand-verified grasps that the physics tests reuse."""

import numpy as np
import pytest

from graspfield import Grasp, GripperModel, PointCloud
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
