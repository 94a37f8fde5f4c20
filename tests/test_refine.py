"""Refinement stage: closing-area counts, refinability selection,
labels, the residual codec, and the refinement loss."""

import math

import numpy as np
import pytest

from graspfield import (
    DataError,
    GraspFieldWarning,
    GraspSet,
    PointCloud,
    build_refinement_targets,
    decode_refinements,
    select_refinable,
)
from graspfield.anchors import _encode_residuals
from graspfield.refine import (
    ANGLE_GATE,
    ORIENTATION_GATE,
    REFINE_WEIGHTS,
    RefineTarget,
    _refinement_labels,
    refinement_loss,
)

from conftest import closing_area, grasp_frame, one_grasp, random_unit, stack
from test_geometry import angle_between, random_grasp


def rotate_about(v, axis, angle):
    """Rodrigues rotation of v about a unit axis."""
    v = np.asarray(v, dtype=np.float64)
    axis = np.asarray(axis, dtype=np.float64)
    c, s = math.cos(angle), math.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * float(axis @ v) * (1.0 - c)


def tilted(orientation, angle, seed=0):
    """Unit vector at exactly ``angle`` from ``orientation``."""
    rng = np.random.default_rng(seed)
    perp = np.cross(orientation, random_unit(rng))
    perp /= np.linalg.norm(perp)
    return rotate_about(orientation, perp, angle)


def refinable_pairs(rng, count, scale=0.1):
    """Random (proposals, gts) sets of ``count`` rows, each pair guaranteed
    label 1, drawn pair by pair."""
    pairs = []
    for _ in range(count):
        center, orientation, angle = rng.uniform(-0.1, 0.1, 3), random_unit(rng), rng.uniform(-1.5, 1.5)
        phi = rng.uniform(0.0, ORIENTATION_GATE * 0.9)
        axis = np.cross(orientation, random_unit(rng))
        axis /= np.linalg.norm(axis)
        gt_angle = np.clip(angle + rng.uniform(-0.9, 0.9) * ANGLE_GATE * 0.9, -1.5, 1.5)
        gt_center = center + rng.uniform(-0.5, 0.5, 3) * scale
        pairs.append((center, orientation, angle, gt_center, rotate_about(orientation, axis, phi), float(gt_angle)))
    columns = list(zip(*pairs)) or [()] * 6
    return GraspSet(*columns[:3]), GraspSet(*columns[3:])


def refinement_label(a, b):
    """The label of one-row sets ``a`` and ``b``."""
    return int(_refinement_labels(a.orientations, a.angles, b.orientations, b.angles)[0])


def encode_pairs(proposals, gts, scale):
    """Labels and residuals of aligned proposal and gt sets, as
    ``build_refinement_targets`` encodes its matched pairs."""
    labels = _refinement_labels(proposals.orientations, proposals.angles, gts.orientations, gts.angles)
    ref = (proposals.centers, proposals.orientations, proposals.angles)
    return labels, _encode_residuals(ref, (gts.centers, gts.orientations, gts.angles), scale)


def positive_targets(proposals, gts, scale):
    """Label-1 targets of refinable pairs, indexed by row."""
    labels, (res_c, res_o, res_a) = encode_pairs(proposals, gts, scale)
    assert labels.all()
    return [RefineTarget(k, 1, res_c[k], res_o[k], float(res_a[k])) for k in range(len(labels))]


class TestClosingArea:
    # select_refinable counts the closing area; conftest.closing_area is
    # the direct reference scan of the same box
    def test_hand_case_inclusive_bounds(self, gripper):
        # closing box half extents (0.03, 0.04, 0.01) in the grasp frame
        g = one_grasp((0, 0, 0), (0, 1, 0), 0.0)
        cloud = PointCloud(
            [
                [0.03, 0.0, 0.0],   # on the X face (world -x is frame +x)
                [0.0, 0.04, 0.0],   # on the Y face
                [0.0, 0.0, 0.01],   # on the Z face
                [0.0301, 0.0, 0.0],
                [0.0, 0.0401, 0.0],
                [0.0, 0.0, 0.0101],
            ]
        )
        idx, local = closing_area(cloud, g, gripper)
        assert np.array_equal(idx, [0, 1, 2])
        frame = grasp_frame(g)
        expect = (cloud.points[idx] - frame.origin) @ frame.rotation
        assert np.array_equal(local, expect)
        assert np.array_equal(select_refinable(g, cloud, gripper, min_points=2), [0])
        assert select_refinable(g, cloud, gripper, min_points=3).size == 0

    def test_free_space_empty(self, box, gripper):
        g = one_grasp((1.0, 1.0, 1.0), (0, 0, 1), 0.0)
        idx, local = closing_area(box, g, gripper)
        assert idx.size == 0
        assert local.shape == (0, 3)
        assert select_refinable(g, box, gripper, min_points=0).size == 0

    def test_matches_direct_scan(self, gripper):
        rng = np.random.default_rng(60)
        cloud = PointCloud(rng.uniform(-0.08, 0.08, size=(500, 3)))
        half = gripper.closing_half_extents()
        counted = 0
        for _ in range(20):
            g = random_grasp(rng)
            idx, local = closing_area(cloud, g, gripper)
            frame = grasp_frame(g)
            expect = [
                i
                for i, p in enumerate(cloud.points)
                if np.all(np.abs(frame.rotation.T @ (p - frame.origin)) <= half)
            ]
            assert idx.tolist() == expect
            assert (np.abs(local) <= half + 1e-12).all()
            if expect:
                counted += 1
                assert np.array_equal(select_refinable(g, cloud, gripper, min_points=len(expect) - 1), [0])
            assert select_refinable(g, cloud, gripper, min_points=len(expect)).size == 0
        assert counted > 0

    def test_indices_ascending(self, box, gripper, z_grasp):
        idx, _ = closing_area(box, z_grasp, gripper)
        assert idx.size > 50
        assert np.array_equal(idx, np.sort(idx))
        assert np.array_equal(select_refinable(z_grasp, box, gripper, min_points=idx.size - 1), [0])


class TestSelectRefinable:
    def build_cloud_with_inside_count(self, gripper, count, seed=0):
        """Cloud with exactly ``count`` points in the closing area of the
        hand-case grasp, plus 40 points far away."""
        rng = np.random.default_rng(seed)
        half = gripper.closing_half_extents()
        inside_local = rng.uniform(-0.9, 0.9, size=(count, 3)) * half
        g = one_grasp((0, 0, 0), (0, 1, 0), 0.0)
        frame = grasp_frame(g)
        inside = inside_local @ frame.rotation.T + frame.origin
        far = rng.normal(size=(40, 3)) + 2.0
        return g, PointCloud(np.vstack([inside, far]))

    def test_exact_threshold_excluded(self, gripper):
        g, cloud = self.build_cloud_with_inside_count(gripper, 50)
        assert len(closing_area(cloud, g, gripper)[0]) == 50
        assert select_refinable(g, cloud, gripper, min_points=50).size == 0

    def test_one_past_threshold_included(self, gripper):
        g, cloud = self.build_cloud_with_inside_count(gripper, 51)
        assert np.array_equal(select_refinable(g, cloud, gripper, min_points=50), [0])

    def test_monotone_in_min_points(self, box, gripper):
        rng = np.random.default_rng(61)
        proposals = stack(random_grasp(rng) for _ in range(30))
        previous = None
        for mp in (0, 20, 80, 200):
            keep = set(select_refinable(proposals, box, gripper, min_points=mp).tolist())
            if previous is not None:
                assert keep <= previous
            previous = keep

    def test_indices_refer_to_input_order(self, box, gripper, z_grasp):
        far = one_grasp((1, 1, 1), (0, 0, 1), 0.0)
        keep = select_refinable(stack([far, z_grasp, far]), box, gripper)
        assert np.array_equal(keep, [1])

    def test_negative_min_points_rejected(self, box, gripper, z_grasp):
        with pytest.raises(DataError, match="min_points"):
            select_refinable(z_grasp, box, gripper, min_points=-1)


class TestRefinementLabel:
    def test_identical_pair_positive(self):
        g = one_grasp((0, 0, 0), (0, 0, 1), 0.2)
        assert refinement_label(g, g) == 1

    def test_orientation_gate_exact_boundary_negative(self):
        # constructor renormalization must be an exact no-op for the dot to
        # land exactly on cos(gate); nudge the sine until the norm is 1.0
        a = one_grasp((0, 0, 0), (0, 0, 1), 0.0)
        c = math.cos(ORIENTATION_GATE)
        s = math.sin(ORIENTATION_GATE)
        for _ in range(200):
            if np.linalg.norm([0.0, s, c]) == 1.0:
                break
            s = math.nextafter(s, 2.0)
        else:
            pytest.skip("no exactly-unit neighbor found")
        b = one_grasp((0, 0, 0), (0.0, s, c), 0.0)
        assert float(b.orientations[0] @ a.orientations[0]) == c
        assert refinement_label(a, b) == 0

    def test_orientation_gate_strict(self):
        a = one_grasp((0, 0, 0), (0, 0, 1), 0.0)
        inside = one_grasp((0, 0, 0), tilted((0, 0, 1.0), ORIENTATION_GATE - 1e-6), 0.0)
        outside = one_grasp((0, 0, 0), tilted((0, 0, 1.0), ORIENTATION_GATE + 1e-6), 0.0)
        assert refinement_label(a, inside) == 1
        assert refinement_label(a, outside) == 0

    def test_thirty_degree_tilt_positive(self):
        a = one_grasp((0, 0, 0), (0, 0, 1), 0.1)
        b = one_grasp((0.01, 0, 0), tilted((0, 0, 1.0), math.radians(30)), 0.2)
        assert refinement_label(a, b) == 1

    def test_seventy_degree_tilt_negative(self):
        a = one_grasp((0, 0, 0), (0, 0, 1), 0.1)
        b = one_grasp((0, 0, 0), tilted((0, 0, 1.0), math.radians(70)), 0.1)
        assert refinement_label(a, b) == 0

    def test_angle_gate_exact_boundary_negative(self):
        a = one_grasp((0, 0, 0), (0, 0, 1), 0.0)
        b = one_grasp((0, 0, 0), (0, 0, 1), math.pi / 3)
        assert refinement_label(a, b) == 0

    def test_angle_gate_strict(self):
        a = one_grasp((0, 0, 0), (0, 0, 1), -0.5)
        inside = one_grasp((0, 0, 0), (0, 0, 1), -0.5 + ANGLE_GATE - 1e-9)
        outside = one_grasp((0, 0, 0), (0, 0, 1), -0.5 + ANGLE_GATE + 1e-9)
        assert refinement_label(a, inside) == 1
        assert refinement_label(a, outside) == 0

    def test_symmetric(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            a, b = random_grasp(rng), random_grasp(rng)
            assert refinement_label(a, b) == refinement_label(b, a)

    def test_center_does_not_matter(self):
        a = one_grasp((0, 0, 0), (0, 0, 1), 0.0)
        b = one_grasp((5, 5, 5), (0, 0, 1), 0.0)
        assert refinement_label(a, b) == 1


class TestEncodeDecode:
    def test_identical_pair_zero_residuals(self):
        g = one_grasp((0.01, 0.02, 0.03), (0, 0, 1), 0.4)
        (t,) = positive_targets(g, g, scale=0.1)
        assert t.label == 1
        assert np.abs(t.res_center).max() == 0.0
        assert np.abs(t.res_orientation).max() == 0.0
        assert t.res_angle == 0.0

    def test_scale_length_offset_encodes_to_unit(self):
        a = one_grasp((0, 0, 0), (0, 0, 1), 0.0)
        b = one_grasp((0.1, 0, 0), (0, 0, 1), 0.0)
        (t,) = positive_targets(a, b, scale=0.1)
        assert np.array_equal(t.res_center, (1.0, 0.0, 0.0))

    def test_negative_pair_rejected(self, box, gripper, z_grasp):
        # a negative pair is labeled 0, and its target carries no residuals
        off_axis = one_grasp((0, 0, 0), (1, 0, 0), 0.0)
        assert encode_pairs(z_grasp, off_axis, 0.1)[0].tolist() == [0]
        (t,) = build_refinement_targets(z_grasp, box, off_axis, gripper, 0.1)
        assert t.label == 0 and t.res_center is None and t.res_angle is None

    def test_decode_zero_residuals_identity(self):
        rng = np.random.default_rng(63)
        grasps = stack(random_grasp(rng) for _ in range(20))
        back = decode_refinements(grasps, np.zeros((20, 3)), np.zeros((20, 3)), np.zeros(20), scale=0.1)
        assert np.array_equal(back.centers, grasps.centers)
        for got, want in zip(back.orientations, grasps.orientations):
            assert angle_between(got, want) < 1e-12
        assert np.array_equal(back.angles, grasps.angles)

    @pytest.mark.parametrize("scale", [0.05, 0.1, 0.4])
    def test_round_trip(self, scale):
        rng = np.random.default_rng(64)
        proposals, gts = refinable_pairs(rng, 300, scale)
        targets = positive_targets(proposals, gts, scale)
        residuals = [[getattr(t, name) for t in targets] for name in ("res_center", "res_orientation", "res_angle")]
        back = decode_refinements(proposals, *residuals, scale)
        assert np.abs(back.centers - gts.centers).max() < 1e-9
        assert max(angle_between(a, b) for a, b in zip(back.orientations, gts.orientations)) < 1e-9
        assert np.abs(back.angles - gts.angles).max() < 1e-9

    def test_decode_clamps_angle_with_warning(self):
        g = one_grasp((0, 0, 0), (0, 0, 1), 1.0)
        with pytest.warns(GraspFieldWarning, match="clamped"):
            back = decode_refinements(g, [(0, 0, 0)], [(0, 0, 0)], [1.0], scale=0.1)
        assert back.angles[0] == math.pi / 2

    def test_decode_degenerate_orientation_rejected(self):
        g = one_grasp((0, 0, 0), (0, 0, 1), 0.0)
        with pytest.raises(DataError, match="degenerate"):
            decode_refinements(g, [(0, 0, 0)], [(0, 0, -1.0)], [0.0], scale=0.1)

    def test_bad_scale(self):
        g = one_grasp((0, 0, 0), (0, 0, 1), 0.0)
        with pytest.raises(DataError, match="scale"):
            encode_pairs(g, g, scale=0.0)
        with pytest.raises(DataError, match="scale"):
            decode_refinements(g, [(0, 0, 0)], [(0, 0, 0)], [0.0], scale=-1.0)

    def test_target_validation(self):
        with pytest.raises(DataError, match="no residuals"):
            RefineTarget(0, 0, res_center=(0, 0, 0))
        with pytest.raises(DataError, match="all residuals"):
            RefineTarget(0, 1, res_center=(0, 0, 0))
        with pytest.raises(DataError, match="label"):
            RefineTarget(0, 2)


class TestBuildRefinementTargets:
    def test_mixed_labels_and_matching(self, box, gripper):
        gt_a = one_grasp((0.0, 0.0, 0.0), (0, 0, 1), 0.2)
        gt_b = one_grasp((0.02, 0.01, 0.0), (0, 0, 1), -0.3)
        near_a = one_grasp((0.001, 0.0, 0.0), tilted((0, 0, 1.0), 0.1, seed=1), 0.25)
        off_axis = one_grasp((0.019, 0.01, 0.0), (0, 1, 0), -0.3)  # 90 deg off gt_b
        far = one_grasp((1.0, 1.0, 1.0), (0, 0, 1), 0.0)  # empty closing area
        targets = build_refinement_targets(
            stack([near_a, off_axis, far]), box, stack([gt_a, gt_b]), gripper, scale=0.1
        )
        assert [t.proposal_index for t in targets] == [0, 1]
        assert [t.label for t in targets] == [1, 0]
        back = decode_refinements(
            near_a, [targets[0].res_center], [targets[0].res_orientation],
            [targets[0].res_angle], 0.1,
        )
        assert np.abs(back.centers - gt_a.centers).max() < 1e-9
        assert angle_between(back.orientations[0], gt_a.orientations[0]) < 1e-9

    def test_min_points_filter_applies(self, box, gripper, z_grasp):
        inside_count = len(closing_area(box, z_grasp, gripper)[0])
        gt = one_grasp((0, 0, 0), (0, 0, 1), 0.0)
        kept = build_refinement_targets(z_grasp, box, gt, gripper, 0.1,
                                        min_points=inside_count - 1)
        assert len(kept) == 1
        dropped = build_refinement_targets(z_grasp, box, gt, gripper, 0.1,
                                           min_points=inside_count)
        assert dropped == []

    def test_no_positives_rejected(self, box, gripper, z_grasp):
        with pytest.raises(DataError, match="no positive grasps"):
            build_refinement_targets(z_grasp, box, GraspSet([], [], []), gripper, 0.1)


class TestRefinementLoss:
    def make_mixed_targets(self):
        rng = np.random.default_rng(65)
        (pos,) = positive_targets(*refinable_pairs(rng, 1), 0.1)
        neg = RefineTarget(proposal_index=1, label=0)
        return [pos, neg]

    def perfect_predictions(self, targets):
        k2 = len(targets)
        probs = np.zeros((k2, 2))
        probs[np.arange(k2), [t.label for t in targets]] = 1.0
        rc = np.zeros((k2, 3))
        ro = np.zeros((k2, 3))
        ra = np.zeros(k2)
        for i, t in enumerate(targets):
            if t.label:
                rc[i] = t.res_center
                ro[i] = t.res_orientation
                ra[i] = t.res_angle
        return probs, rc, ro, ra

    def test_perfect_prediction_zero_loss(self):
        targets = self.make_mixed_targets()
        parts = refinement_loss(*self.perfect_predictions(targets), targets)
        assert parts["total"] == 0.0

    def test_unit_center_error_on_the_positive_row(self):
        # perfect classification; the one positive row off by (1,0,0):
        # smooth_l1(1) / k3 = 0.5
        targets = self.make_mixed_targets()
        probs, rc, ro, ra = self.perfect_predictions(targets)
        rc = rc.copy()
        rc[0] += (1.0, 0.0, 0.0)
        parts = refinement_loss(probs, rc, ro, ra, targets)
        assert parts["center"] == pytest.approx(0.5, abs=1e-12)
        assert parts["classification"] == 0.0
        assert parts["total"] == pytest.approx(0.5, abs=1e-12)

    def test_negative_rows_ignored(self):
        targets = self.make_mixed_targets()
        probs, rc, ro, ra = self.perfect_predictions(targets)
        clean = refinement_loss(probs, rc, ro, ra, targets)
        rc2, ro2, ra2 = rc.copy(), ro.copy(), ra.copy()
        rc2[1] = 99.0
        ro2[1] = -99.0
        ra2[1] = 7.0
        noisy = refinement_loss(probs, rc2, ro2, ra2, targets)
        assert noisy == clean

    def test_classification_averages_over_all_targets(self):
        targets = self.make_mixed_targets()
        _, rc, ro, ra = self.perfect_predictions(targets)
        uniform = np.full((2, 2), 0.5)
        parts = refinement_loss(uniform, rc, ro, ra, targets)
        assert parts["classification"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_all_negative_skips_regression(self):
        targets = [RefineTarget(0, 0), RefineTarget(1, 0)]
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        parts = refinement_loss(probs, np.full((2, 3), 9.0), np.zeros((2, 3)), np.zeros(2), targets)
        assert parts["center"] == 0.0
        assert parts["orientation"] == 0.0
        assert parts["angle"] == 0.0
        assert parts["total"] == pytest.approx(0.5 * -math.log(0.5) * 2 / 2, abs=1e-12)

    def test_regression_averages_over_positives_only(self):
        rng = np.random.default_rng(66)
        targets = positive_targets(*refinable_pairs(rng, 3), 0.1) + [RefineTarget(proposal_index=3, label=0)]
        probs, rc, ro, ra = self.perfect_predictions(targets)
        ra = ra.copy()
        ra[:3] += 1.0  # smooth_l1(1) = 0.5 on each positive row
        parts = refinement_loss(probs, rc, ro, ra, targets)
        assert parts["angle"] == pytest.approx(0.5, abs=1e-12)

    def test_prediction_shape_validated(self):
        targets = self.make_mixed_targets()
        probs, rc, ro, ra = self.perfect_predictions(targets)
        with pytest.raises(DataError, match="cover all"):
            refinement_loss(probs, rc[:1], ro, ra, targets)

    def test_custom_weights(self):
        targets = self.make_mixed_targets()
        probs, rc, ro, ra = self.perfect_predictions(targets)
        ra = ra.copy()
        ra[0] += 1.0
        parts = refinement_loss(probs, rc, ro, ra, targets, weights=(1, 1, 1, 4.0))
        assert parts["angle"] == pytest.approx(2.0, abs=1e-12)

    def test_default_weights(self):
        assert REFINE_WEIGHTS == (1.0, 1.0, 1.0, 1.0)

    def test_empty_targets_rejected(self):
        with pytest.raises(DataError, match="no targets"):
            refinement_loss(np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), [])
