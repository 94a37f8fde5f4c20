"""Anchor set construction, orientation classification, proposal target
encode/decode, and the proposal loss."""

import math

import numpy as np
import pytest

from graspfield import (
    DataError,
    GraspFieldWarning,
    GraspSet,
    PointCloud,
    build_anchors,
    build_proposal_targets,
    confidence_field,
    decode_proposals,
    encode_proposals,
    proposal_loss,
)
from graspfield.anchors import PROPOSAL_WEIGHTS, AnchorSet, ProposalTarget

from conftest import one_grasp, random_unit, stack
from test_geometry import angle_between


def smooth_l1_value(x, beta=1.0):
    return 0.5 * x * x / beta if abs(x) < beta else abs(x) - 0.5 * beta


def canonical(r):
    """``r`` made unit, its largest-magnitude component positive."""
    r = np.asarray(r, dtype=np.float64) / np.linalg.norm(r)
    return r if r[np.argmax(np.abs(r))] > 0.0 else -r


def anchor_classes(anchors, orientations):
    """The anchor ``encode_proposals`` classifies ground truths along each
    row of ``orientations`` to."""
    n = len(orientations)
    gts = GraspSet(np.zeros((n, 3)), orientations, np.zeros(n))
    return np.array([t.anchor_class for t in encode_proposals(np.zeros((n, 3)), gts, anchors, 1.0)])


def decode_targets(targets, anchors, scale):
    """One decode of the targets' rows."""
    rows = [(t.center, t.anchor_class, t.res_center, t.res_orientation, t.res_angle) for t in targets]
    return decode_proposals(*zip(*rows), anchors, scale)


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
    # the class of a ground truth is the nearest anchor to its canonical line
    @pytest.mark.parametrize("count", [6, 8])
    def test_matches_brute_force_angles(self, count):
        anchors = build_anchors(count)
        rng = np.random.default_rng(50)
        lines = np.array([canonical(random_unit(rng)) for _ in range(500)])
        angles = np.arccos(np.clip(lines @ anchors.orientations.T, -1.0, 1.0))
        assert np.array_equal(anchor_classes(anchors, lines), np.argmin(angles, axis=1))

    def test_anchor_classifies_to_itself(self):
        # a cube corner's lead is its x (all magnitudes tie): the corners
        # with x > 0 are canonical, the others classify to their negation
        anchors = build_anchors(8)
        ori = anchors.orientations
        own = [i if a[0] > 0 else int(np.flatnonzero((ori == -a).all(axis=1))[0]) for i, a in enumerate(ori)]
        assert np.array_equal(anchor_classes(anchors, ori), own)

    def test_scale_invariant(self):
        anchors = build_anchors(8)
        rng = np.random.default_rng(51)
        lines = random_unit(rng, 100)
        assert np.array_equal(anchor_classes(anchors, lines), anchor_classes(anchors, 3.7 * lines))

    def test_tie_takes_lowest_index(self):
        anchors = build_anchors(6)
        # equidistant between +x (index 0) and +y (index 1)
        assert anchor_classes(anchors, [(1.0, 1.0, 0.0)]).tolist() == [0]

    def test_zero_rejected(self):
        with pytest.raises(DataError, match="orientation must have positive length"):
            anchor_classes(build_anchors(8), [(0.0, 0.0, 0.0)])


class TestEncodeDecode:
    def test_gt_on_anchor_gives_zero_orientation_residual(self):
        anchors = build_anchors(8)
        a = anchors.orientations[anchor_classes(anchors, [(1.0, 1.0, 1.0)])[0]]
        gt = one_grasp((0.01, 0.02, 0.03), a, 0.4)
        (target,) = encode_proposals([(0.01, 0.02, 0.03)], gt, anchors, scale=0.1)
        assert np.abs(target.res_orientation).max() < 1e-15
        assert np.abs(target.res_center).max() == 0.0
        assert target.res_angle == 0.4

    def test_center_residual_in_scale_units(self):
        anchors = build_anchors(8)
        gt = one_grasp((0.05, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)
        (target,) = encode_proposals([(0.0, 0.0, 0.0)], gt, anchors, scale=0.1)
        assert np.allclose(target.res_center, (0.5, 0.0, 0.0))
        (halved,) = encode_proposals([(0.0, 0.0, 0.0)], gt, anchors, scale=0.2)
        assert np.allclose(halved.res_center, (0.25, 0.0, 0.0))

    def test_decode_zero_residuals_is_anchor_grasp(self):
        anchors = build_anchors(8)
        g = decode_proposals([(0.01, 0.0, 0.0)], [5], [(0, 0, 0)], [(0, 0, 0)], [0.0], anchors, 0.1)
        assert np.array_equal(g.centers, [(0.01, 0.0, 0.0)])
        assert angle_between(g.orientations[0], anchors.orientations[5]) < 1e-12
        assert g.angles[0] == 0.0

    @pytest.mark.parametrize("count", [6, 8])
    @pytest.mark.parametrize("scale", [0.05, 0.1, 0.37])
    def test_round_trip(self, count, scale):
        anchors = build_anchors(count)
        rng = np.random.default_rng(52)
        rows = []
        for _ in range(300):
            p_a = rng.uniform(-0.1, 0.1, 3)
            rows.append((p_a, p_a + rng.uniform(-scale, scale, 3) * 0.5, random_unit(rng),
                         rng.uniform(-math.pi / 2, math.pi / 2)))
        p_as, *columns = zip(*rows)
        gts = GraspSet(*columns)
        targets = encode_proposals(p_as, gts, anchors, scale)
        assert [t.center.tolist() for t in targets] == np.array(p_as).tolist()
        back = decode_targets(targets, anchors, scale)
        assert np.abs(back.centers - gts.centers).max() < 1e-9
        for got, r in zip(back.orientations, gts.orientations):
            assert angle_between(got, canonical(r)) < 1e-9
        assert np.array_equal(back.angles, gts.angles)

    def test_encode_canonicalizes_orientation(self):
        anchors = build_anchors(8)
        gt = one_grasp((0, 0, 0), (0.0, 0.0, -1.0), 0.2)
        back = decode_targets(encode_proposals([(0, 0, 0)], gt, anchors, 0.1), anchors, 0.1)
        assert np.allclose(back.orientations[0], (0, 0, 1.0), atol=1e-12)

    def test_out_of_range_angle_clamped_with_warning(self):
        anchors = build_anchors(8)
        with pytest.warns(GraspFieldWarning, match="clamped"):
            g = decode_proposals([(0, 0, 0)], [0], [(0, 0, 0)], [(0, 0, 0)], [2.0], anchors, 0.1)
        assert g.angles[0] == math.pi / 2
        with pytest.warns(GraspFieldWarning, match="clamped"):
            g = decode_proposals([(0, 0, 0)], [0], [(0, 0, 0)], [(0, 0, 0)], [-2.0], anchors, 0.1)
        assert g.angles[0] == -math.pi / 2

    def test_degenerate_orientation_rejected(self):
        anchors = build_anchors(8)
        cancel = -anchors.orientations[2]
        with pytest.raises(DataError, match="degenerate orientation"):
            decode_proposals([(0, 0, 0)], [2], [(0, 0, 0)], [cancel], [0.0], anchors, 0.1)

    def test_bad_arguments(self):
        anchors = build_anchors(8)
        gt = one_grasp((0, 0, 0), (0, 0, 1), 0.0)
        with pytest.raises(DataError, match="scale"):
            encode_proposals([(0, 0, 0)], gt, anchors, scale=0.0)
        with pytest.raises(DataError, match="anchor_class"):
            decode_proposals([(0, 0, 0)], [8], [(0, 0, 0)], [(0, 0, 0)], [0.0], anchors, 0.1)

    def test_target_validation(self):
        with pytest.raises(DataError, match="unit-difference bound"):
            ProposalTarget((0, 0, 0), 0, (0, 0, 0), (3.0, 0, 0), 0.0)
        with pytest.raises(DataError, match="res_angle"):
            ProposalTarget((0, 0, 0), 0, (0, 0, 0), (0, 0, 0), 2.0)


class TestBuildProposalTargets:
    def make_setup(self, box):
        rng = np.random.default_rng(53)
        pick = rng.choice(len(box), size=12, replace=False)
        positives = stack(
            one_grasp(box.points[i], random_unit(rng), rng.uniform(-1.5, 1.5))
            for i in pick
        )
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
        decoded = decode_targets([target for _, target in pairs], anchors, 0.1)
        for k, (point_index, target) in enumerate(pairs):
            p_a = box.points[point_index]
            assert np.array_equal(target.center, p_a)
            gi = int(np.argmin(np.linalg.norm(positives.centers - p_a, axis=1)))
            assert np.abs(decoded.centers[k] - positives.centers[gi]).max() < 1e-9
            assert angle_between(decoded.orientations[k], canonical(positives.orientations[gi])) < 1e-9
            assert decoded.angles[k] == positives.angles[gi]

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
        from graspfield.confidence import ConfidenceField

        far = one_grasp(box.points[0] + (0.5, 0.5, 0.5), (0, 0, 1), 0.0)
        values = np.zeros(len(box))
        values[10:15] = 1.0
        field = ConfidenceField(values, (values > 0.6).astype(np.int64), 0.6, 0.02)
        pairs = build_proposal_targets(
            box, field, far, build_anchors(8), scale=0.1,
            k1=4, radius=0.05, size=8, seed=2,
        )
        assert pairs == []

    def test_no_positives_rejected(self, box):
        _, field = self.make_setup(box)
        with pytest.raises(DataError, match="no positive grasps"):
            build_proposal_targets(
                box, field, GraspSet([], [], []), build_anchors(8), scale=0.1,
                k1=4, radius=0.05, size=8, seed=0,
            )


class TestProposalLoss:
    def make_targets(self, n=3, seed=54):
        anchors = build_anchors(8)
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(n):
            p_a = rng.uniform(-0.05, 0.05, 3)
            rows.append((p_a, p_a + rng.normal(size=3) * 0.01, random_unit(rng), rng.uniform(-1.5, 1.5)))
        p_as, *columns = zip(*rows)
        return anchors, encode_proposals(p_as, GraspSet(*columns), anchors, 0.1)

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
