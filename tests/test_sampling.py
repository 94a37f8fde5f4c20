"""Candidate sampling, positive-set building, and single-view rendering."""

import math

import numpy as np
import pytest

from graspfield import (
    DataError,
    GraspFieldWarning,
    OrthoCamera,
    PointCloud,
    UngraspableError,
    build_positive_set,
    render_single_view,
    sample_candidates,
    score_grasp,
)
from graspfield.synthetic import plane_grid, sphere_cloud


class TestSampleCandidates:
    def test_count_and_kind(self, box, gripper):
        grasps = sample_candidates(box, gripper, 50, seed=3)
        assert len(grasps) == 50
        for g in grasps:
            assert not g.scored
            assert -math.pi / 2 <= g.angle <= math.pi / 2

    def test_deterministic(self, box, gripper):
        a = sample_candidates(box, gripper, 30, seed=9)
        b = sample_candidates(box, gripper, 30, seed=9)
        assert len(a) == len(b)
        for g, h in zip(a, b):
            assert np.array_equal(g.center, h.center)
            assert np.array_equal(g.orientation, h.orientation)
            assert g.angle == h.angle

    def test_seed_changes_output(self, box, gripper):
        a = sample_candidates(box, gripper, 30, seed=1)
        b = sample_candidates(box, gripper, 30, seed=2)
        assert any(not np.array_equal(g.center, h.center) for g, h in zip(a, b))

    def test_widths_fit_between_jaws(self, box, gripper):
        # candidate span (twice the center-to-surface reach along r) stays
        # within the opening; check against the thin box's known widths
        grasps = sample_candidates(box, gripper, 80, seed=5)
        for g in grasps:
            axis = int(np.argmax(np.abs(g.orientation)))
            width = 2.0 * (0.03, 0.025, 0.015)[axis]
            assert width <= gripper.max_opening + 1e-12

    def test_orientation_is_canonical(self, box, gripper):
        for g in sample_candidates(box, gripper, 60, seed=7):
            lead = int(np.argmax(np.abs(g.orientation)))
            assert g.orientation[lead] > 0

    def test_friction_cone_property(self, box, gripper):
        # on an axis-aligned box every surface normal is an axis, so the
        # closing line must lie within arctan(mu) of some axis (plus a
        # small allowance for the ray tolerance)
        mu = 0.6
        limit = math.atan(mu) + math.radians(5.0)
        for g in sample_candidates(box, gripper, 100, seed=11, mu=mu):
            best = np.max(np.abs(g.orientation))
            assert math.acos(min(float(best), 1.0)) <= limit

    def test_tight_cone_narrows_orientations(self, box, gripper):
        limit = math.atan(0.15) + math.radians(5.0)
        for g in sample_candidates(box, gripper, 50, seed=13, mu=0.15):
            best = np.max(np.abs(g.orientation))
            assert math.acos(min(float(best), 1.0)) <= limit

    def test_oversized_sphere_raises(self, gripper):
        # diameter 0.12 exceeds the 0.08 jaw opening everywhere
        fat = sphere_cloud(radius=0.06, count=1500)
        with pytest.raises(UngraspableError, match="not graspable"):
            sample_candidates(fat, gripper, 10, seed=0)

    def test_argument_validation(self, box, gripper):
        with pytest.raises(DataError, match="count"):
            sample_candidates(box, gripper, 0, seed=0)
        with pytest.raises(DataError, match="mu"):
            sample_candidates(box, gripper, 5, seed=0, mu=0.0)
        with pytest.raises(DataError, match="normals"):
            sample_candidates(PointCloud(box.points), gripper, 5, seed=0)
        with pytest.raises(DataError, match="empty"):
            sample_candidates(PointCloud(np.zeros((0, 3))), gripper, 5, seed=0)


class TestBuildPositiveSet:
    def test_box_yields_requested_count(self, box, gripper):
        positives = build_positive_set(box, gripper, per_object=40, seed=1)
        assert len(positives) == 40
        for g in positives:
            assert (g.score_antipodal, g.score_collision, g.score) == (1, 1, 1)

    def test_every_positive_rescores_to_one(self, box, gripper):
        for g in build_positive_set(box, gripper, per_object=25, seed=2):
            again = score_grasp(box, g, gripper)
            assert again.score == 1

    def test_deterministic(self, box, gripper):
        a = build_positive_set(box, gripper, per_object=20, seed=4)
        b = build_positive_set(box, gripper, per_object=20, seed=4)
        for g, h in zip(a, b):
            assert np.array_equal(g.center, h.center)
            assert np.array_equal(g.orientation, h.orientation)
            assert g.angle == h.angle

    def test_zero_request(self, box, gripper):
        assert build_positive_set(box, gripper, per_object=0) == []

    def test_shortfall_warns_and_returns_partial(self, gripper):
        # graspable pair plus a blocker on the closing axis: the blocker
        # sits inside the finger sweep for every roll angle, and its
        # sideways normal sinks any pair that contacts it directly
        cloud = PointCloud(
            [[0, 0, 0.02], [0, 0, -0.02], [0, 0, 0.045]],
            normals=[[0, 0, 1], [0, 0, -1], [1, 0, 0]],
        )
        assert len(sample_candidates(cloud, gripper, 10, seed=0)) == 10
        with pytest.warns(GraspFieldWarning, match="positive grasps"):
            got = build_positive_set(cloud, gripper, per_object=5, seed=0)
        assert got == []

    def test_negative_request_rejected(self, box, gripper):
        with pytest.raises(DataError, match="per_object"):
            build_positive_set(box, gripper, per_object=-1)


class TestOrthoCamera:
    def test_basis_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cam = OrthoCamera(rng.normal(size=3), rng.normal(size=3), 0.01)
            f, r, u = cam.basis()
            m = np.stack([f, r, u])
            assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12

    def test_forward_points_at_target(self):
        cam = OrthoCamera((0, 0, 1.0), (0, 0, 0), 0.01)
        f, r, u = cam.basis()
        assert np.allclose(f, (0, 0, -1))

    def test_degenerate_up_handled(self):
        cam = OrthoCamera((0, 0, 1.0), (0, 0, 0), 0.01, up=(0, 0, 1.0))
        f, r, u = cam.basis()
        assert np.abs(np.stack([f, r, u]) @ np.stack([f, r, u]).T - np.eye(3)).max() < 1e-12

    def test_validation(self):
        with pytest.raises(DataError, match="cell_size"):
            OrthoCamera((0, 0, 1), (0, 0, 0), 0.0)
        with pytest.raises(DataError, match="cell_size"):
            OrthoCamera((0, 0, 1), (0, 0, 0), float("nan"))
        with pytest.raises(DataError, match="position: contains non-finite"):
            OrthoCamera((0, float("inf"), 1), (0, 0, 0), 0.01)

    def test_up_wrong_shape_rejected(self):
        with pytest.raises(DataError, match="up: expected shape"):
            OrthoCamera((0, 0, 1), (0, 0, 0), 0.01, up=(0, 0))

    def test_up_zero_rejected(self):
        with pytest.raises(DataError, match="up must be a non-zero vector"):
            OrthoCamera((0, 0, 1), (0, 0, 0), 0.01, up=(0, 0, 0))

    def test_up_non_finite_rejected(self):
        with pytest.raises(DataError, match="up: contains non-finite"):
            OrthoCamera((0, 0, 1), (0, 0, 0), 0.01, up=(float("nan"), 0, 1))

    def test_up_frozen(self):
        cam = OrthoCamera((0, 0, 1), (0, 0, 0), 0.01)
        assert cam.up.dtype == np.float64 and np.array_equal(cam.up, (0, 0, 1))
        with pytest.raises(ValueError):
            cam.up[0] = 1.0


class TestRenderSingleView:
    def test_two_points_one_ray_keeps_nearer(self):
        cloud = PointCloud([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]])
        cam = OrthoCamera((0, 0, 2.0), (0, 0, 0), 0.05)
        seen = render_single_view(cloud, cam)
        assert np.array_equal(seen.points, [[0.0, 0.0, 0.5]])

    def test_plane_from_above_all_kept(self):
        plane = plane_grid(half_size=0.05, spacing=0.005)
        cam = OrthoCamera((0, 0, 1.0), (0, 0, 0), 0.005)
        seen = render_single_view(plane, cam)
        assert len(seen) == len(plane)

    def test_sphere_roughly_half_visible(self):
        sphere = sphere_cloud(radius=0.05, count=2000)
        cam = OrthoCamera((0.4, 0.0, 0.0), (0, 0, 0), 0.0025)
        seen = render_single_view(sphere, cam)
        frac = len(seen) / len(sphere)
        assert 0.30 <= frac <= 0.60

    def test_output_is_subset_with_attributes(self, box):
        cam = OrthoCamera((0.3, 0.2, 0.4), (0, 0, 0), 0.002)
        seen = render_single_view(box, cam)
        assert 0 < len(seen) < len(box)
        # every visible point exists in the input with its normal
        index = {tuple(p): tuple(n) for p, n in zip(box.points, box.normals)}
        for p, n in zip(seen.points, seen.normals):
            assert index[tuple(p)] == tuple(n)

    def test_behind_camera_culled(self):
        cloud = PointCloud([[0.0, 0.0, 5.0], [0.0, 0.0, -1.0]])
        cam = OrthoCamera((0, 0, 2.0), (0, 0, 0), 0.05)
        seen = render_single_view(cloud, cam)
        assert np.array_equal(seen.points, [[0.0, 0.0, -1.0]])

    def test_empty_cloud_rejected(self):
        cam = OrthoCamera((0, 0, 1.0), (0, 0, 0), 0.01)
        with pytest.raises(DataError, match="empty"):
            render_single_view(PointCloud(np.zeros((0, 3))), cam)
