"""Anchor set construction, orientation classification, proposal target
encode/decode, and the proposal loss."""

import math

import numpy as np
import pytest

from graspfield import (
    AnchorSet,
    DataError,
    Grasp,
    GraspFieldWarning,
    PointCloud,
    build_anchors,
    build_proposal_targets,
    confidence_field,
    decode_proposal,
    encode_proposal,
    nearest_anchor,
    proposal_loss,
)
from graspfield.anchors import PROPOSAL_WEIGHTS, ProposalTarget

from conftest import random_unit
from test_geometry import angle_between


def smooth_l1_value(x, beta=1.0):
    return 0.5 * x * x / beta if abs(x) < beta else abs(x) - 0.5 * beta


def anchor_gap_angles(anchors):
    """Angle from each anchor to its nearest other anchor."""
    ori = anchors.orientations
    dots = np.clip(ori @ ori.T, -1.0, 1.0)
    np.fill_diagonal(dots, -1.0)
    return np.arccos(dots.max(axis=1))


class TestBuildAnchors:
    def test_eight_corner_layout(self):
        anchors = build_anchors(8)
        assert len(anchors) == 8
        assert np.abs(np.linalg.norm(anchors.orientations, axis=1) - 1.0).max() < 1e-12
        # normalized cube corners: all coordinates +-1/sqrt(3)
        assert np.abs(np.abs(anchors.orientations) - 1 / math.sqrt(3)).max() < 1e-12
        assert len({tuple(np.sign(a)) for a in anchors.orientations}) == 8

    def test_eight_equiangular(self):
        gaps = anchor_gap_angles(build_anchors(8))
        assert np.abs(gaps - math.acos(1.0 / 3.0)).max() < 1e-9

    def test_six_axis_layout(self):
        anchors = build_anchors(6)
        assert len(anchors) == 6
        gaps = anchor_gap_angles(anchors)
        assert np.abs(gaps - math.pi / 2).max() < 1e-9
        # the world axes and their negatives, in both signs
        hits = {tuple(a) for a in anchors.orientations}
        for axis in np.vstack([np.eye(3), -np.eye(3)]):
            assert tuple(axis) in hits

    def test_default_is_eight(self):
        assert len(build_anchors()) == 8

    @pytest.mark.parametrize("count", [2, 5, 7, 12])
    def test_other_counts_rejected(self, count):
        with pytest.raises(DataError, match="no equiangular construction"):
            build_anchors(count)

    def test_anchor_set_validation(self):
        with pytest.raises(DataError, match="unit length"):
            AnchorSet(np.array([[1.0, 0, 0], [0, 2.0, 0]]))
        with pytest.raises(DataError, match="pairwise distinct"):
            AnchorSet(np.array([[1.0, 0, 0], [1.0, 1e-4, 0] / np.linalg.norm([1.0, 1e-4, 0])]))


class TestNearestAnchor:
    @pytest.mark.parametrize("count", [6, 8])
    def test_matches_brute_force_angles(self, count):
        anchors = build_anchors(count)
        rng = np.random.default_rng(50)
        for _ in range(500):
            r = random_unit(rng)
            angles = np.arccos(np.clip(anchors.orientations @ r, -1.0, 1.0))
            assert nearest_anchor(anchors, r) == int(np.argmin(angles))

    def test_anchor_classifies_to_itself(self):
        anchors = build_anchors(8)
        for i, a in enumerate(anchors.orientations):
            assert nearest_anchor(anchors, a) == i

    def test_scale_invariant(self):
        anchors = build_anchors(8)
        rng = np.random.default_rng(51)
        for _ in range(100):
            r = random_unit(rng)
            assert nearest_anchor(anchors, r) == nearest_anchor(anchors, 3.7 * r)

    def test_tie_takes_lowest_index(self):
        anchors = build_anchors(6)
        # equidistant between +x (index 0) and +y (index 1)
        assert nearest_anchor(anchors, (1.0, 1.0, 0.0)) == 0

    def test_zero_rejected(self):
        with pytest.raises(DataError, match="zero-length"):
            nearest_anchor(build_anchors(8), (0.0, 0.0, 0.0))


class TestEncodeDecode:
    def test_gt_on_anchor_gives_zero_orientation_residual(self):
        anchors = build_anchors(8)
        a = anchors.orientations[nearest_anchor(anchors, (1.0, 1.0, 1.0))]
        gt = Grasp((0.01, 0.02, 0.03), a, 0.4)
        target = encode_proposal((0.01, 0.02, 0.03), gt, anchors, scale=0.1)
        assert np.abs(target.res_orientation).max() < 1e-15
        assert np.abs(target.res_center).max() == 0.0
        assert target.res_angle == 0.4

    def test_center_residual_in_scale_units(self):
        anchors = build_anchors(8)
        gt = Grasp((0.05, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)
        target = encode_proposal((0.0, 0.0, 0.0), gt, anchors, scale=0.1)
        assert np.allclose(target.res_center, (0.5, 0.0, 0.0))
        halved = encode_proposal((0.0, 0.0, 0.0), gt, anchors, scale=0.2)
        assert np.allclose(halved.res_center, (0.25, 0.0, 0.0))

    def test_decode_zero_residuals_is_anchor_grasp(self):
        anchors = build_anchors(8)
        g = decode_proposal((0.01, 0.0, 0.0), 5, (0, 0, 0), (0, 0, 0), 0.0, anchors, 0.1)
        assert np.array_equal(g.center, (0.01, 0.0, 0.0))
        assert angle_between(g.orientation, anchors.orientations[5]) < 1e-12
        assert g.angle == 0.0

    @pytest.mark.parametrize("count", [6, 8])
    @pytest.mark.parametrize("scale", [0.05, 0.1, 0.37])
    def test_round_trip(self, count, scale):
        anchors = build_anchors(count)
        rng = np.random.default_rng(52)
        for _ in range(300):
            p_a = rng.uniform(-0.1, 0.1, 3)
            gt = Grasp(
                p_a + rng.uniform(-scale, scale, 3) * 0.5,
                random_unit(rng),
                rng.uniform(-math.pi / 2, math.pi / 2),
            )
            t = encode_proposal(p_a, gt, anchors, scale)
            back = decode_proposal(
                t.center, t.anchor_class, t.res_center, t.res_orientation,
                t.res_angle, anchors, scale,
            )
            assert np.abs(back.center - gt.center).max() < 1e-9
            expect_r = gt.orientation if gt.orientation[np.argmax(np.abs(gt.orientation))] > 0 else -gt.orientation
            assert angle_between(back.orientation, expect_r) < 1e-9
            assert back.angle == gt.angle

    def test_encode_canonicalizes_orientation(self):
        anchors = build_anchors(8)
        gt = Grasp((0, 0, 0), (0.0, 0.0, -1.0), 0.2)
        t = encode_proposal((0, 0, 0), gt, anchors, 0.1)
        back = decode_proposal(
            t.center, t.anchor_class, t.res_center, t.res_orientation,
            t.res_angle, anchors, 0.1,
        )
        assert np.allclose(back.orientation, (0, 0, 1.0), atol=1e-12)

    def test_out_of_range_angle_clamped_with_warning(self):
        anchors = build_anchors(8)
        with pytest.warns(GraspFieldWarning, match="clamped"):
            g = decode_proposal((0, 0, 0), 0, (0, 0, 0), (0, 0, 0), 2.0, anchors, 0.1)
        assert g.angle == math.pi / 2
        with pytest.warns(GraspFieldWarning, match="clamped"):
            g = decode_proposal((0, 0, 0), 0, (0, 0, 0), (0, 0, 0), -2.0, anchors, 0.1)
        assert g.angle == -math.pi / 2

    def test_degenerate_orientation_rejected(self):
        anchors = build_anchors(8)
        cancel = -anchors.orientations[2]
        with pytest.raises(DataError, match="degenerate orientation"):
            decode_proposal((0, 0, 0), 2, (0, 0, 0), cancel, 0.0, anchors, 0.1)

    def test_bad_arguments(self):
        anchors = build_anchors(8)
        gt = Grasp((0, 0, 0), (0, 0, 1), 0.0)
        with pytest.raises(DataError, match="scale"):
            encode_proposal((0, 0, 0), gt, anchors, scale=0.0)
        with pytest.raises(DataError, match="anchor_class"):
            decode_proposal((0, 0, 0), 8, (0, 0, 0), (0, 0, 0), 0.0, anchors, 0.1)

    def test_target_validation(self):
        with pytest.raises(DataError, match="unit-difference bound"):
            ProposalTarget((0, 0, 0), 0, (0, 0, 0), (3.0, 0, 0), 0.0)
        with pytest.raises(DataError, match="res_angle"):
            ProposalTarget((0, 0, 0), 0, (0, 0, 0), (0, 0, 0), 2.0)


class TestBuildProposalTargets:
    def make_setup(self, box):
        rng = np.random.default_rng(53)
        pick = rng.choice(len(box), size=12, replace=False)
        positives = [
            Grasp(box.points[i], random_unit(rng), rng.uniform(-1.5, 1.5))
            for i in pick
        ]
        field = confidence_field(box, positives)
        return positives, field

    def test_targets_decode_to_matched_grasp(self, box):
        positives, field = self.make_setup(box)
        anchors = build_anchors(8)
        pairs = build_proposal_targets(
            box, field, positives, anchors, scale=0.1,
            k1=8, radius=0.05, size=32, seed=0,
        )
        assert pairs
        centers = np.stack([g.center for g in positives])
        for point_index, target in pairs:
            p_a = box.points[point_index]
            assert np.array_equal(target.center, p_a)
            back = decode_proposal(
                target.center, target.anchor_class, target.res_center,
                target.res_orientation, target.res_angle, anchors, 0.1,
            )
            gi = int(np.argmin(np.linalg.norm(centers - p_a, axis=1)))
            gt = positives[gi]
            assert np.abs(back.center - gt.center).max() < 1e-9
            lead = int(np.argmax(np.abs(gt.orientation)))
            expect_r = gt.orientation if gt.orientation[lead] > 0 else -gt.orientation
            assert angle_between(back.orientation, expect_r) < 1e-9
            assert back.angle == gt.angle

    def test_region_centers_are_positive_points(self, box):
        positives, field = self.make_setup(box)
        pairs = build_proposal_targets(
            box, field, positives, build_anchors(8), scale=0.1,
            k1=6, radius=0.05, size=16, seed=1,
        )
        for point_index, _ in pairs:
            assert field.labels[point_index] == 1

    def test_unmatched_regions_dropped(self, box):
        # labels placed far from the only grasp center: nothing to regress
        from graspfield import ConfidenceField

        far = Grasp(box.points[0] + (0.5, 0.5, 0.5), (0, 0, 1), 0.0)
        values = np.zeros(len(box))
        values[10:15] = 1.0
        field = ConfidenceField(values, (values > 0.6).astype(np.int64), 0.6, 0.02)
        pairs = build_proposal_targets(
            box, field, [far], build_anchors(8), scale=0.1,
            k1=4, radius=0.05, size=8, seed=2,
        )
        assert pairs == []

    def test_no_positives_rejected(self, box):
        _, field = self.make_setup(box)
        with pytest.raises(DataError, match="no positive grasps"):
            build_proposal_targets(
                box, field, [], build_anchors(8), scale=0.1,
                k1=4, radius=0.05, size=8, seed=0,
            )


class TestProposalLoss:
    def make_targets(self, n=3, seed=54):
        anchors = build_anchors(8)
        rng = np.random.default_rng(seed)
        targets = []
        for _ in range(n):
            p_a = rng.uniform(-0.05, 0.05, 3)
            gt = Grasp(p_a + rng.normal(size=3) * 0.01, random_unit(rng), rng.uniform(-1.5, 1.5))
            targets.append(encode_proposal(p_a, gt, anchors, 0.1))
        return anchors, targets

    def perfect_predictions(self, anchors, targets):
        probs = np.zeros((len(targets), len(anchors)))
        probs[np.arange(len(targets)), [t.anchor_class for t in targets]] = 1.0
        return (
            probs,
            np.stack([t.res_center for t in targets]),
            np.stack([t.res_orientation for t in targets]),
            np.array([t.res_angle for t in targets]),
        )

    def test_perfect_prediction_zero_loss(self):
        anchors, targets = self.make_targets()
        probs, rc, ro, ra = self.perfect_predictions(anchors, targets)
        parts = proposal_loss(probs, rc, ro, ra, targets)
        assert parts["total"] == 0.0
        for key in ("classification", "center", "orientation", "angle"):
            assert parts[key] == 0.0

    def test_half_meter_center_error_single_target(self):
        # one target, right class, center residual off by 0.5 in one
        # coordinate: 10 * smooth_l1(0.5) / 1 = 1.25
        anchors, targets = self.make_targets(n=1)
        probs, rc, ro, ra = self.perfect_predictions(anchors, targets)
        rc = rc + np.array([[0.5, 0.0, 0.0]])
        parts = proposal_loss(probs, rc, ro, ra, targets)
        assert parts["center"] == pytest.approx(1.25, abs=1e-12)
        assert parts["classification"] == 0.0
        assert parts["orientation"] == 0.0
        assert parts["angle"] == 0.0
        assert parts["total"] == pytest.approx(1.25, abs=1e-12)

    def test_classification_term(self):
        anchors, targets = self.make_targets(n=1)
        probs, rc, ro, ra = self.perfect_predictions(anchors, targets)
        soft = np.full((1, len(anchors)), (1.0 - 0.25) / (len(anchors) - 1))
        soft[0, targets[0].anchor_class] = 0.25
        parts = proposal_loss(soft, rc, ro, ra, targets)
        assert parts["classification"] == pytest.approx(0.2 * -math.log(0.25), abs=1e-12)
        assert parts["total"] == pytest.approx(parts["classification"], abs=1e-12)

    def test_normalized_by_target_count(self):
        anchors, targets = self.make_targets(n=1)
        probs, rc, ro, ra = self.perfect_predictions(anchors, targets)
        rc_off = rc + np.array([[0.5, 0.0, 0.0]])
        single = proposal_loss(probs, rc_off, ro, ra, targets)

        doubled = targets * 2
        probs2, rc2, ro2, ra2 = self.perfect_predictions(anchors, doubled)
        rc2 = rc2 + np.array([[0.5, 0.0, 0.0]] * 2)
        both = proposal_loss(probs2, rc2, ro2, ra2, doubled)
        assert both["total"] == pytest.approx(single["total"], abs=1e-12)

    def test_default_weights(self):
        assert PROPOSAL_WEIGHTS == (0.2, 10.0, 5.0, 1.0)

    def test_custom_weights(self):
        anchors, targets = self.make_targets(n=1)
        probs, rc, ro, ra = self.perfect_predictions(anchors, targets)
        ra_off = ra + 2.0
        parts = proposal_loss(probs, rc, ro, ra_off, targets, weights=(0.2, 10, 5, 3.0))
        assert parts["angle"] == pytest.approx(3.0 * 1.5, abs=1e-12)

    def test_every_term_contributes(self):
        anchors, targets = self.make_targets(n=2)
        probs, rc, ro, ra = self.perfect_predictions(anchors, targets)
        probs = np.full_like(probs, 1.0 / len(anchors))
        rc = rc + 0.1
        ro = ro - 0.2
        ra = ra + 1.0
        parts = proposal_loss(probs, rc, ro, ra, targets)
        # 2 targets; vector groups hold 6 elementwise residuals each
        assert parts["classification"] == pytest.approx(0.2 * math.log(8))
        assert parts["center"] == pytest.approx(10 * 6 * smooth_l1_value(0.1) / 2, abs=1e-12)
        assert parts["orientation"] == pytest.approx(5 * 6 * smooth_l1_value(0.2) / 2, abs=1e-12)
        assert parts["angle"] == pytest.approx(1.0 * 2 * smooth_l1_value(1.0) / 2, abs=1e-12)
        assert parts["total"] == pytest.approx(sum(
            parts[k] for k in ("classification", "center", "orientation", "angle")
        ))

    def test_shape_mismatch_rejected(self):
        anchors, targets = self.make_targets(n=2)
        probs, rc, ro, ra = self.perfect_predictions(anchors, targets)
        with pytest.raises(DataError, match="center"):
            proposal_loss(probs, rc[:1], ro, ra, targets)

    def test_empty_targets_rejected(self):
        with pytest.raises(DataError, match="no targets"):
            proposal_loss(np.zeros((0, 8)), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), [])
