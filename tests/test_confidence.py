"""Point grasp-confidence: field accumulation, validation, binary labels,
segmentation helpers, and the segmentation loss."""

import math

import numpy as np
import pytest

from graspfield import DataError, Grasp, PointCloud, confidence_field, segmentation_loss
from graspfield.confidence import ConfidenceField, segment_positive

from conftest import random_unit


def brute_confidence(points, centers, d_th):
    """Plain double loop reference for the accumulated confidence."""
    values = np.zeros(len(points))
    for pi, p in enumerate(points):
        for c in centers:
            dis = float(np.linalg.norm(p - c))
            if dis < d_th:
                values[pi] += 1.0 - dis / d_th
    return values


def grasps_at(centers):
    return [Grasp(c, (0.0, 0.0, 1.0), 0.0) for c in centers]


class TestConfidenceField:
    def test_hand_case_accumulates_one_and_a_half(self):
        # three centers at distance 0.01 = d_th/2, each contributing 0.5
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        centers = [(0.01, 0, 0), (0, 0.01, 0), (0, 0, 0.01)]
        field = confidence_field(cloud, grasps_at(centers))
        assert field.values[0] == 1.5
        assert field.labels[0] == 1

    def test_boundary_distance_contributes_nothing(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        field = confidence_field(cloud, grasps_at([(0.02, 0, 0)]))
        assert field.values[0] == 0.0
        assert field.labels[0] == 0

    def test_center_one_ulp_inside_contributes(self):
        inside = np.nextafter(0.02, 0.0)
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        field = confidence_field(cloud, grasps_at([(inside, 0, 0)]))
        assert field.values[0] == 1.0 - inside / 0.02 > 0.0

    def test_coincident_center_contributes_one(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        field = confidence_field(cloud, grasps_at([(0.0, 0.0, 0.0)]))
        assert field.values[0] == 1.0
        assert field.labels[0] == 1

    def test_threshold_is_strict(self):
        # single center at 0.008: contribution exactly 1 - 0.4 = 0.6 = c_t
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        field = confidence_field(cloud, grasps_at([(0.008, 0, 0)]))
        assert field.values[0] == pytest.approx(0.6)
        assert field.labels[0] == 0

    def test_no_positives_all_zero(self):
        cloud = PointCloud(np.random.default_rng(0).normal(size=(20, 3)))
        field = confidence_field(cloud, [])
        assert not field.values.any()
        assert not field.labels.any()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            n, m = int(rng.integers(5, 300)), int(rng.integers(1, 60))
            pts = rng.uniform(-0.06, 0.06, size=(n, 3))
            centers = rng.uniform(-0.06, 0.06, size=(m, 3))
            field = confidence_field(PointCloud(pts), grasps_at(centers))
            expect = brute_confidence(pts, centers, 0.02)
            assert np.abs(field.values - expect).max() < 1e-12
            assert np.array_equal(field.labels, (expect > 0.6).astype(int))

    def test_dense_clouds_equal_double_loop_bit_for_bit(self):
        rng = np.random.default_rng(36)
        for trial in range(3):  # 400 points span more than one ball query block
            pts = rng.uniform(-0.015, 0.015, size=(400, 3))
            centers = rng.uniform(-0.015, 0.015, size=(int(rng.integers(80, 160)), 3))
            near = np.linalg.norm(pts[:, None] - centers[None], axis=2) < 0.02
            assert near.sum(axis=1).min() >= 9
            field = confidence_field(PointCloud(pts), grasps_at(centers))
            assert np.array_equal(field.values, brute_confidence(pts, centers, 0.02))

    def test_custom_thresholds(self):
        rng = np.random.default_rng(32)
        pts = rng.uniform(-0.05, 0.05, size=(50, 3))
        centers = rng.uniform(-0.05, 0.05, size=(12, 3))
        field = confidence_field(
            PointCloud(pts), grasps_at(centers),
            distance_threshold=0.035, confidence_threshold=1.2,
        )
        expect = brute_confidence(pts, centers, 0.035)
        assert np.abs(field.values - expect).max() < 1e-12
        assert np.array_equal(field.labels, (expect > 1.2).astype(int))

    def test_monotone_under_more_grasps(self):
        rng = np.random.default_rng(33)
        pts = rng.uniform(-0.04, 0.04, size=(40, 3))
        centers = rng.uniform(-0.04, 0.04, size=(20, 3))
        small = confidence_field(PointCloud(pts), grasps_at(centers[:10]))
        full = confidence_field(PointCloud(pts), grasps_at(centers))
        assert np.all(full.values >= small.values - 1e-15)

    def test_validation(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        with pytest.raises(DataError, match="distance_threshold"):
            confidence_field(cloud, [], distance_threshold=0.0)
        with pytest.raises(DataError, match="inconsistent"):
            ConfidenceField(np.array([1.0]), np.array([0]), 0.6, 0.02)
        with pytest.raises(DataError, match="finite"):
            ConfidenceField(np.array([-0.5]), np.array([0]), 0.6, 0.02)

    @pytest.mark.parametrize(
        "d_th, c_t, name",
        [
            (math.nan, 0.6, "distance_threshold"),
            (math.inf, 0.6, "distance_threshold"),
            (0.02, math.nan, "confidence_threshold"),
            (0.02, math.inf, "confidence_threshold"),
        ],
    )
    def test_non_finite_thresholds_rejected(self, box, d_th, c_t, name):
        rng = np.random.default_rng(37)
        positives = grasps_at(box.points[rng.choice(len(box), size=50, replace=False)])
        with pytest.raises(DataError, match=name):
            confidence_field(box, positives, distance_threshold=d_th, confidence_threshold=c_t)
        with pytest.raises(DataError, match=name):
            ConfidenceField(np.zeros(len(box)), np.zeros(len(box), dtype=int), c_t, d_th)

    @pytest.mark.parametrize("c_t", [-1.0, -1e-300, -math.inf])
    def test_negative_confidence_threshold_rejected(self, c_t):
        # a negative threshold labels points no grasp is near as positive,
        # which the config schema (confidence_threshold >= 0) never allows
        cloud = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(DataError, match="confidence_threshold must be finite and >= 0"):
            confidence_field(cloud, [], 0.02, c_t)
        with pytest.raises(DataError, match="confidence_threshold must be finite and >= 0"):
            ConfidenceField(np.zeros(2), np.ones(2, dtype=int), c_t, 0.02)
        assert confidence_field(cloud, [], 0.02, 0.0).labels.tolist() == [0, 0]


class TestSegmentPositive:
    def test_from_field_uses_labels(self):
        field = ConfidenceField(
            np.array([0.0, 0.7, 1.4, 0.6]),
            np.array([0, 1, 1, 0]),
            0.6,
            0.02,
        )
        assert np.array_equal(segment_positive(field), [1, 2])

    def test_from_scores_strict_majority(self):
        scores = np.array([[0.4, 0.6], [0.6, 0.4], [0.5, 0.5]])
        assert np.array_equal(segment_positive(scores), [0])

    def test_size_cross_check(self):
        field = ConfidenceField(np.array([1.0]), np.array([1]), 0.6, 0.02)
        cloud = PointCloud(np.zeros((2, 3)))
        with pytest.raises(DataError, match="sizes differ"):
            segment_positive(field, cloud)

    def test_bad_score_shape(self):
        with pytest.raises(DataError, match="score array"):
            segment_positive(np.zeros((4, 3)))


class TestSegmentationLoss:
    def test_uniform_scores_give_log_two(self):
        n = 64
        scores = np.full((n, 2), 0.5)
        labels = np.random.default_rng(0).integers(0, 2, size=n)
        assert segmentation_loss(scores, labels) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_quarter_probability(self):
        assert segmentation_loss([[0.25, 0.75]], [0]) == pytest.approx(-math.log(0.25))

    def test_perfect_prediction_is_zero(self):
        scores = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert segmentation_loss(scores, [0, 1, 0]) == 0.0

    def test_mean_over_points(self):
        scores = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1], [0.3, 0.7]])
        labels = [0, 1, 0, 1]
        per_point = [-math.log(s[lab]) for s, lab in zip(scores, labels)]
        expect = sum(per_point) / 4
        assert segmentation_loss(scores, labels) == pytest.approx(expect, abs=1e-12)

    def test_shape_validated(self):
        with pytest.raises(DataError, match=r"\(N, 2\)"):
            segmentation_loss(np.zeros((3, 4)), [0, 1, 0])


class TestFieldOnRealCloud:
    def test_positive_points_cluster_near_centers(self, box):
        rng = np.random.default_rng(34)
        pick = rng.choice(len(box), size=30, replace=False)
        centers = box.points[pick]
        field = confidence_field(box, grasps_at(centers))
        positive = segment_positive(field, box)
        assert positive.size > 0
        # every positive point is within d_th of at least one center
        for pi in positive:
            dists = np.linalg.norm(centers - box.points[pi], axis=1)
            assert dists.min() < 0.02

    def test_far_points_labeled_negative(self, box):
        rng = np.random.default_rng(35)
        offsets = random_unit(rng, 5) * 0.2
        field = confidence_field(box, grasps_at(offsets))
        assert not field.labels.any()
