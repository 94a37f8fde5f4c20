"""Grasp regions: farthest point sampling, fixed-size ball queries, and
the combined region extractor."""

import numpy as np
import pytest

from graspfield import DataError, PointCloud, extract_regions
from graspfield.confidence import ConfidenceField
from graspfield.region import GraspRegion, ball_query, farthest_point_sampling


def assert_greedy_maxmin(points, subset, chosen):
    """Verify the greedy max-min invariant of an FPS output sequence:
    each pick (after the first) is a farthest remaining subset point."""
    subset = set(int(i) for i in subset)
    assert set(int(i) for i in chosen) <= subset
    assert len(set(chosen.tolist())) == len(chosen)
    taken = [int(chosen[0])]
    for pick in chosen[1:]:
        remaining = sorted(subset - set(taken))
        dists = {
            j: min(np.linalg.norm(points[j] - points[t]) for t in taken)
            for j in remaining
        }
        best = max(dists.values())
        assert dists[int(pick)] == pytest.approx(best, abs=1e-12)
        taken.append(int(pick))


def field_for(n, positive_indices):
    values = np.zeros(n)
    values[list(positive_indices)] = 1.0
    return ConfidenceField(values, (values > 0.6).astype(np.int64), 0.6, 0.02)


class TestFarthestPointSampling:
    def test_square_picks_diagonal_second(self):
        corners = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        diagonal = {0: 3, 1: 2, 2: 1, 3: 0}
        for seed in range(8):
            chosen = farthest_point_sampling(corners, [0, 1, 2, 3], 2, seed)
            assert chosen[1] == diagonal[int(chosen[0])]

    def test_ties_resolve_to_lowest_index(self):
        # three points equidistant from the start: the smallest index wins
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        seed = next(s for s in range(100) if np.random.default_rng(s).integers(4) == 0)
        chosen = farthest_point_sampling(cloud, [0, 1, 2, 3], 3, seed)
        assert chosen[0] == 0
        assert chosen[1] == 1
        assert chosen[2] == 2

    def test_k_at_least_subset_returns_all(self):
        rng = np.random.default_rng(40)
        cloud = PointCloud(rng.normal(size=(9, 3)))
        subset = [1, 3, 4, 7]
        chosen = farthest_point_sampling(cloud, subset, 64, seed=5)
        assert sorted(chosen.tolist()) == subset
        assert_greedy_maxmin(cloud.points, subset, chosen)

    def test_prefix_property(self):
        rng = np.random.default_rng(41)
        cloud = PointCloud(rng.normal(size=(40, 3)))
        subset = rng.choice(40, size=25, replace=False)
        full = farthest_point_sampling(cloud, subset, 25, seed=9)
        for k in (1, 2, 5, 12):
            part = farthest_point_sampling(cloud, subset, k, seed=9)
            assert np.array_equal(part, full[:k])

    def test_greedy_invariant_random_clouds(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(4, 13))
            cloud = PointCloud(rng.normal(size=(n, 3)))
            subset = np.arange(n)
            k = int(rng.integers(2, min(6, n + 1)))
            chosen = farthest_point_sampling(cloud, subset, k, seed=int(rng.integers(100)))
            assert_greedy_maxmin(cloud.points, subset, chosen)

    def test_subset_respected(self):
        rng = np.random.default_rng(43)
        cloud = PointCloud(rng.normal(size=(30, 3)))
        subset = [2, 11, 17, 23, 29]
        chosen = farthest_point_sampling(cloud, subset, 3, seed=1)
        assert set(chosen.tolist()) <= set(subset)

    def test_duplicate_subset_entries_collapse(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        chosen = farthest_point_sampling(cloud, [1, 1, 1], 4, seed=0)
        assert np.array_equal(chosen, [1])

    def test_deterministic(self):
        rng = np.random.default_rng(44)
        cloud = PointCloud(rng.normal(size=(50, 3)))
        a = farthest_point_sampling(cloud, np.arange(50), 10, seed=123)
        b = farthest_point_sampling(cloud, np.arange(50), 10, seed=123)
        assert np.array_equal(a, b)

    def test_validation(self):
        cloud = PointCloud(np.zeros((3, 3)))
        with pytest.raises(DataError, match="no positive points"):
            farthest_point_sampling(cloud, [], 2, seed=0)
        with pytest.raises(DataError, match="out of range"):
            farthest_point_sampling(cloud, [5], 1, seed=0)
        with pytest.raises(DataError, match="k must be"):
            farthest_point_sampling(cloud, [0], 0, seed=0)


class TestBallQuery:
    def test_isolated_center_pads_with_itself(self):
        cloud = PointCloud([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
        region = ball_query(cloud, 0, radius=0.05, size=8, seed=0)
        assert len(region) == 8
        assert np.array_equal(region.member_indices, np.zeros(8, dtype=np.int64))

    def test_dense_ball_subsamples_distinct(self):
        rng = np.random.default_rng(45)
        pts = np.vstack([[0, 0, 0], rng.normal(size=(999, 3)) * 0.01])
        region = ball_query(PointCloud(pts), 0, radius=0.05, size=256, seed=3)
        assert len(region) == 256
        assert len(set(region.member_indices.tolist())) == 256
        assert 0 in region.member_indices

    def test_exact_fit_keeps_everyone(self):
        cloud = PointCloud([[0, 0, 0], [0.01, 0, 0], [0, 0.01, 0], [5, 5, 5]])
        region = ball_query(cloud, 0, radius=0.05, size=3, seed=0)
        assert np.array_equal(region.member_indices, [0, 1, 2])

    def test_radius_boundary_inclusive(self):
        cloud = PointCloud([[0, 0, 0], [0.05, 0, 0], [0.0500001, 0, 0]])
        region = ball_query(cloud, 0, radius=0.05, size=2, seed=0)
        assert np.array_equal(region.member_indices, [0, 1])

    def test_members_sorted_and_within_radius(self):
        rng = np.random.default_rng(46)
        cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(300, 3)))
        region = ball_query(cloud, 42, radius=0.06, size=64, seed=7)
        members = region.member_indices
        assert np.array_equal(members, np.sort(members))
        dist = np.linalg.norm(cloud.points[members] - cloud.points[42], axis=1)
        assert dist.max() <= 0.06 + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        cloud = PointCloud(rng.uniform(-0.05, 0.05, size=(200, 3)))
        a = ball_query(cloud, 10, radius=0.03, size=32, seed=11)
        b = ball_query(cloud, 10, radius=0.03, size=32, seed=11)
        assert np.array_equal(a.member_indices, b.member_indices)

    def test_validation(self):
        cloud = PointCloud(np.zeros((2, 3)))
        with pytest.raises(DataError, match="radius"):
            ball_query(cloud, 0, radius=0.0, size=4, seed=0)
        with pytest.raises(DataError, match="size"):
            ball_query(cloud, 0, radius=0.05, size=0, seed=0)
        with pytest.raises(DataError, match="center_index"):
            ball_query(cloud, 5, radius=0.05, size=4, seed=0)

    def test_region_type_invariants(self):
        with pytest.raises(DataError, match="center must be"):
            GraspRegion(3, np.array([0, 1]), 0.05)
        with pytest.raises(DataError, match="radius"):
            GraspRegion(0, np.array([0]), -1.0)


class TestExtractRegions:
    def test_single_positive_single_region(self, box):
        field = field_for(len(box), [77])
        regions = extract_regions(box, field, k1=64, radius=0.05, size=16, seed=0)
        assert len(regions) == 1
        assert regions[0].center_index == 77
        assert len(regions[0]) == 16

    def test_many_positives_distinct_centers(self, box):
        rng = np.random.default_rng(48)
        positives = rng.choice(len(box), size=200, replace=False)
        field = field_for(len(box), positives)
        regions = extract_regions(box, field, k1=64, radius=0.05, size=32, seed=1)
        assert len(regions) == 64
        centers = [r.center_index for r in regions]
        assert len(set(centers)) == 64
        assert set(centers) <= set(positives.tolist())

    def test_two_clusters_get_one_center_each(self):
        rng = np.random.default_rng(49)
        blob_a = rng.normal(size=(30, 3)) * 0.01
        blob_b = rng.normal(size=(30, 3)) * 0.01 + (1.0, 0.0, 0.0)
        cloud = PointCloud(np.vstack([blob_a, blob_b]))
        field = field_for(60, range(60))
        regions = extract_regions(cloud, field, k1=2, radius=0.05, size=8, seed=2)
        sides = sorted(cloud.points[r.center_index][0] > 0.5 for r in regions)
        assert sides == [False, True]

    def test_deterministic(self, box):
        field = field_for(len(box), range(0, len(box), 7))
        a = extract_regions(box, field, k1=8, radius=0.05, size=32, seed=5)
        b = extract_regions(box, field, k1=8, radius=0.05, size=32, seed=5)
        for ra, rb in zip(a, b):
            assert ra.center_index == rb.center_index
            assert np.array_equal(ra.member_indices, rb.member_indices)

    def test_center_prefix_with_larger_k1(self, box):
        field = field_for(len(box), range(0, len(box), 11))
        small = extract_regions(box, field, k1=3, radius=0.05, size=16, seed=9)
        large = extract_regions(box, field, k1=6, radius=0.05, size=16, seed=9)
        assert [r.center_index for r in large][:3] == [r.center_index for r in small]
        for ra, rb in zip(small, large):
            assert np.array_equal(ra.member_indices, rb.member_indices)

    def test_accepts_predicted_scores(self, box):
        scores = np.zeros((len(box), 2))
        scores[:, 0] = 1.0
        scores[50, :] = (0.2, 0.8)
        scores[90, :] = (0.1, 0.9)
        regions = extract_regions(box, scores, k1=4, radius=0.05, size=8, seed=3)
        assert sorted(r.center_index for r in regions) == [50, 90]

    def test_no_positive_points(self, box):
        field = field_for(len(box), [])
        with pytest.raises(DataError, match="no positive points"):
            extract_regions(box, field, k1=4, radius=0.05, size=8, seed=0)

    def test_members_inside_radius_or_padding(self, box):
        field = field_for(len(box), range(100, 160))
        for region in extract_regions(box, field, k1=4, radius=0.03, size=64, seed=4):
            center = box.points[region.center_index]
            dist = np.linalg.norm(box.points[region.member_indices] - center, axis=1)
            assert dist.max() <= 0.03 + 1e-12
