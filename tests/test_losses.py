"""Loss primitives: smooth L1 and summed cross-entropy."""

import math

import numpy as np
import pytest

from graspfield import DataError, GraspFieldWarning
from graspfield.losses import cross_entropy, smooth_l1


class TestSmoothL1:
    def test_reference_values(self):
        assert smooth_l1(0.0) == 0.0
        assert smooth_l1(0.5) == 0.125
        assert smooth_l1(1.0) == 0.5
        assert smooth_l1(2.0) == 1.5
        assert smooth_l1(-2.0) == 1.5

    def test_beta_scaling(self):
        # quadratic branch: 0.5 x^2 / beta
        assert smooth_l1(1.0, beta=2.0) == 0.25
        # linear branch: |x| - beta/2
        assert smooth_l1(3.0, beta=2.0) == 2.0

    def test_vectorized(self):
        out = smooth_l1(np.array([-1.5, -0.5, 0.0, 0.5, 1.5]))
        assert np.array_equal(out, [1.0, 0.125, 0.0, 0.125, 1.0])

    def test_continuity_at_transition(self):
        for beta in (0.5, 1.0, 3.0):
            eps = 1e-12
            lo = smooth_l1(beta - eps, beta=beta)
            hi = smooth_l1(beta + eps, beta=beta)
            assert abs(float(hi) - float(lo)) < 1e-9
            assert float(smooth_l1(beta, beta=beta)) == pytest.approx(0.5 * beta)

    def test_slope_continuity_at_transition(self):
        beta, h = 1.0, 1e-7
        inner = (smooth_l1(beta) - smooth_l1(beta - h)) / h
        outer = (smooth_l1(beta + h) - smooth_l1(beta)) / h
        assert abs(float(inner) - float(outer)) < 1e-6

    def test_bad_beta(self):
        with pytest.raises(DataError, match="beta"):
            smooth_l1(1.0, beta=0.0)


class TestCrossEntropy:
    def test_single_row(self):
        assert cross_entropy([[0.25, 0.75]], [0]) == pytest.approx(-math.log(0.25))
        assert cross_entropy([[0.25, 0.75]], [1]) == pytest.approx(-math.log(0.75))

    def test_sums_over_rows(self):
        probs = [[0.5, 0.5], [0.1, 0.9]]
        expect = -math.log(0.5) - math.log(0.9)
        assert cross_entropy(probs, [0, 1]) == pytest.approx(expect)

    def test_perfect_prediction_is_zero(self):
        assert cross_entropy([[1.0, 0.0], [0.0, 1.0]], [0, 1]) == 0.0

    def test_empty(self):
        assert cross_entropy(np.zeros((0, 2)), []) == 0.0

    def test_row_sum_validated(self):
        with pytest.raises(DataError, match="sum to 1"):
            cross_entropy([[0.5, 0.4]], [0])

    def test_negative_prob_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            cross_entropy([[-0.1, 1.1]], [0])

    def test_class_index_range(self):
        with pytest.raises(DataError, match="out of range"):
            cross_entropy([[0.5, 0.5]], [2])

    def test_count_mismatch(self):
        with pytest.raises(DataError, match="counts differ"):
            cross_entropy([[0.5, 0.5]], [0, 1])

    def test_zero_probability_clamped_with_warning(self):
        with pytest.warns(GraspFieldWarning, match="clamped"):
            value = cross_entropy([[0.0, 1.0]], [0])
        assert value == pytest.approx(-math.log(1e-12))

    def test_multiclass(self):
        probs = np.full((3, 4), 0.25)
        assert cross_entropy(probs, [0, 1, 3]) == pytest.approx(3 * math.log(4))
