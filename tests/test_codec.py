"""Bit identity of the shared residual codec against the two per-head
codecs it replaced.

The reference functions below are the proposal-head (anchor) and
refinement-head codecs and losses as they were written before the two
heads shared one encode, one decode and one loss. Every result of the
shared code must equal theirs bit for bit, signed zeros included, on
seeded random inputs: -0.0 angles, clamped angles, 6 and 8 anchors,
degenerate orientations, and refinement target sets with no positives.
"""

import math
import warnings

import numpy as np
import pytest

from graspfield import (
    DataError,
    Grasp,
    GraspFieldWarning,
    GraspSet,
    build_anchors,
    decode_proposal,
    decode_refinement,
    encode_proposal,
    nearest_anchor,
    proposal_loss,
    refinement_label,
)
from graspfield.anchors import ProposalTarget, _decode_proposals
from graspfield.geometry import canonical_orientation
from graspfield.losses import cross_entropy, smooth_l1
from graspfield.refine import RefineTarget, _decode_refinements, encode_refinement, refinement_loss

from conftest import random_unit

N = 10_000


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------

def ref_encode_proposal(center, gt, anchors, scale):
    if scale <= 0.0:
        raise DataError("scale must be positive")
    center = np.asarray(center, dtype=np.float64)
    r = canonical_orientation(gt.orientation)
    cls = nearest_anchor(anchors, r)
    return cls, (gt.center - center) / scale, r - anchors.orientations[cls], gt.angle


def ref_decode_proposal(center, anchor_class, res_center, res_orientation, res_angle, anchors, scale):
    if scale <= 0.0:
        raise DataError("scale must be positive")
    if not 0 <= anchor_class < len(anchors):
        raise DataError("anchor_class must be a valid index")
    center = np.asarray(center, dtype=np.float64)
    p = np.asarray(res_center, dtype=np.float64) * scale + center
    v = np.asarray(res_orientation, dtype=np.float64) + anchors.orientations[anchor_class]
    norm = np.linalg.norm(v)
    if norm < 1e-9:
        raise DataError("degenerate orientation")
    angle = float(res_angle)
    if abs(angle) > math.pi / 2:
        warnings.warn("approach angle clamped to [-pi/2, pi/2]", GraspFieldWarning, stacklevel=2)
        angle = math.copysign(math.pi / 2, angle)
    return Grasp(p, v / norm, angle)


def ref_encode_refinement(proposal, gt, scale):
    if scale <= 0.0:
        raise DataError("scale must be positive")
    if refinement_label(proposal, gt) == 0:
        raise DataError("no target for negatives")
    return (
        (gt.center - proposal.center) / scale,
        gt.orientation - proposal.orientation,
        gt.angle - proposal.angle,
    )


def ref_decode_refinement(proposal, res_center, res_orientation, res_angle, scale):
    if scale <= 0.0:
        raise DataError("scale must be positive")
    p = proposal.center + np.asarray(res_center, dtype=np.float64) * scale
    v = proposal.orientation + np.asarray(res_orientation, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm < 1e-9:
        raise DataError("degenerate orientation")
    angle = proposal.angle + float(res_angle)
    if abs(angle) > math.pi / 2:
        warnings.warn("approach angle clamped to [-pi/2, pi/2]", GraspFieldWarning, stacklevel=2)
        angle = math.copysign(math.pi / 2, angle)
    return Grasp(p, v / norm, angle)


def ref_proposal_loss(class_probs, res_center_pred, res_orientation_pred, res_angle_pred, targets, weights):
    n = len(targets)
    if n == 0:
        raise DataError("no targets")
    w_cls, w_center, w_orient, w_angle = (float(w) for w in weights)
    probs = np.asarray(class_probs, dtype=np.float64)
    classes = np.array([t.anchor_class for t in targets], dtype=np.int64)
    ce = cross_entropy(probs, classes)

    def _gap(pred, truth, name):
        pred = np.asarray(pred, dtype=np.float64)
        truth = np.asarray(truth, dtype=np.float64)
        if pred.shape != truth.shape:
            raise DataError(f"{name} predictions must have shape {truth.shape}")
        return float(smooth_l1(pred - truth).sum())

    center_gap = _gap(res_center_pred, np.stack([t.res_center for t in targets]), "center")
    orient_gap = _gap(res_orientation_pred, np.stack([t.res_orientation for t in targets]), "orientation")
    angle_gap = _gap(res_angle_pred, np.array([t.res_angle for t in targets]), "angle")

    parts = {
        "classification": w_cls * ce / n,
        "center": w_center * center_gap / n,
        "orientation": w_orient * orient_gap / n,
        "angle": w_angle * angle_gap / n,
    }
    parts["total"] = sum(parts.values())
    return parts


def ref_refinement_loss(class_probs, res_center_pred, res_orientation_pred, res_angle_pred, targets, weights):
    k2 = len(targets)
    if k2 == 0:
        raise DataError("no targets")
    w_cls, w_center, w_orient, w_angle = (float(w) for w in weights)
    labels = np.array([t.label for t in targets], dtype=np.int64)
    ce = cross_entropy(np.asarray(class_probs, dtype=np.float64), labels)
    parts = {"classification": w_cls * ce / k2, "center": 0.0, "orientation": 0.0, "angle": 0.0}

    pos = np.nonzero(labels == 1)[0]
    if pos.size:
        def _gap(pred, truth, name):
            pred = np.asarray(pred, dtype=np.float64)
            if pred.shape[0] != k2:
                raise DataError(f"{name} predictions must cover all {k2} targets")
            if pred[pos].shape != truth.shape:
                raise DataError(f"{name} predictions have the wrong row shape")
            return float(smooth_l1(pred[pos] - truth).sum())

        k3 = pos.size
        parts["center"] = w_center * _gap(
            res_center_pred, np.stack([targets[i].res_center for i in pos]), "center") / k3
        parts["orientation"] = w_orient * _gap(
            res_orientation_pred, np.stack([targets[i].res_orientation for i in pos]), "orientation") / k3
        parts["angle"] = w_angle * _gap(
            res_angle_pred, np.array([targets[i].res_angle for i in pos]), "angle") / k3
    parts["total"] = parts["classification"] + parts["center"] + parts["orientation"] + parts["angle"]
    return parts


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def same(a, b) -> bool:
    """Bit equality of floats or float arrays, signed zeros included."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def same_grasp(a: Grasp, b: Grasp) -> bool:
    return same(a.center, b.center) and same(a.orientation, b.orientation) and same(a.angle, b.angle)


def run(fn, *args):
    """(result, error message, warning messages) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = fn(*args), None
        except DataError as exc:
            result, error = None, str(exc)
    return result, error, [str(w.message) for w in caught]


def draw_angle(rng) -> float:
    """Approach angles in range, with signed zeros and both bounds."""
    u = rng.random()
    if u < 0.05:
        return -0.0
    if u < 0.10:
        return 0.0
    if u < 0.15:
        return math.copysign(math.pi / 2, rng.random() - 0.5)
    return float(rng.uniform(-math.pi / 2, math.pi / 2))


def draw_residual_angle(rng) -> float:
    """Raw predicted angle residuals: signed zeros and values that push
    the decoded angle outside [-pi/2, pi/2]."""
    u = rng.random()
    if u < 0.05:
        return -0.0
    if u < 0.10:
        return 0.0
    return float(rng.uniform(-3.5, 3.5))


def draw_grasp(rng) -> Grasp:
    return Grasp(rng.normal(size=3) * 0.05, random_unit(rng), draw_angle(rng))


def near_grasp(rng, g: Grasp) -> Grasp:
    """A grasp close to ``g``: mostly a refinable (label-1) pair."""
    u = rng.random()
    if u < 0.05:
        return g  # identical pair: every residual is zero
    ori = g.orientation + rng.normal(size=3) * rng.choice((0.01, 0.3))
    angle = float(np.clip(g.angle + rng.normal() * 0.4, -math.pi / 2, math.pi / 2))
    if u < 0.10:
        angle = -0.0
    return Grasp(g.center + rng.normal(size=3) * 0.01, ori, angle)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

class TestProposalCodec:
    def test_encode_bit_identical(self):
        rng = np.random.default_rng(900)
        anchor_sets = {6: build_anchors(6), 8: build_anchors(8)}
        for _ in range(N):
            anchors = anchor_sets[int(rng.choice((6, 8)))]
            center = rng.normal(size=3) * 0.05
            gt = draw_grasp(rng)
            scale = float(rng.uniform(0.01, 0.2))
            t = encode_proposal(center, gt, anchors, scale)
            cls, res_c, res_o, res_a = ref_encode_proposal(center, gt, anchors, scale)
            assert t.anchor_class == cls
            assert same(t.center, center)
            assert same(t.res_center, res_c) and same(t.res_orientation, res_o)
            assert same(t.res_angle, res_a)

    def test_decode_bit_identical(self):
        rng = np.random.default_rng(901)
        anchor_sets = {6: build_anchors(6), 8: build_anchors(8)}
        clamped = degenerate = 0
        for i in range(N):
            anchors = anchor_sets[int(rng.choice((6, 8)))]
            center = rng.normal(size=3) * 0.05
            scale = float(rng.uniform(0.01, 0.2))
            if i % 2:
                t = encode_proposal(center, draw_grasp(rng), anchors, scale)
                args = (t.center, t.anchor_class, t.res_center, t.res_orientation, t.res_angle)
            else:
                cls = int(rng.integers(len(anchors)))
                res_o = rng.normal(size=3) * 0.5
                if rng.random() < 0.02:
                    res_o = -anchors.orientations[cls]  # cancels the anchor
                args = (center, cls, rng.normal(size=3), res_o, draw_residual_angle(rng))
            got = run(decode_proposal, *args, anchors, scale)
            want = run(ref_decode_proposal, *args, anchors, scale)
            assert got[1:] == want[1:]
            if want[0] is None:
                degenerate += 1
            else:
                assert same_grasp(got[0], want[0])
                clamped += bool(want[2])
        assert clamped > 100 and degenerate > 10

    def test_bad_arguments_same_errors(self):
        anchors = build_anchors(8)
        for args in (
            ((0, 0, 0), 0, (0, 0, 0), (0, 0, 0), 0.0, anchors, 0.0),
            ((0, 0, 0), 8, (0, 0, 0), (0, 0, 0), 0.0, anchors, 0.1),
            ((0, 0, 0), -1, (0, 0, 0), (0, 0, 0), 0.0, anchors, 0.1),
        ):
            assert run(decode_proposal, *args)[1:] == run(ref_decode_proposal, *args)[1:]


def test_batched_decode_equals_one_row_decode():
    # the verify paths decode every stored target in one call
    rng = np.random.default_rng(904)
    anchors, scale, n = build_anchors(8), 0.1, 400
    centers, classes = rng.normal(size=(n, 3)) * 0.05, rng.integers(8, size=n)
    res_c, res_o = rng.normal(size=(n, 3)), rng.normal(size=(n, 3)) * 0.5
    res_a = np.array([draw_residual_angle(rng) for _ in range(n)])
    proposals = GraspSet.of([draw_grasp(rng) for _ in range(n)])
    for batched, one in (
        (lambda: _decode_proposals(centers, classes, res_c, res_o, res_a, anchors, scale),
         lambda k: decode_proposal(centers[k], classes[k], res_c[k], res_o[k], res_a[k], anchors, scale)),
        (lambda: _decode_refinements(proposals, res_c, res_o, res_a, scale),
         lambda k: decode_refinement(proposals[k], res_c[k], res_o[k], res_a[k], scale)),
    ):
        with pytest.warns(GraspFieldWarning, match="clamped"):
            decoded = batched()
        assert len(decoded) == n
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GraspFieldWarning)
            assert all(same_grasp(decoded[k], one(k)) for k in range(n))


class TestRefinementCodec:
    def test_encode_bit_identical(self):
        rng = np.random.default_rng(902)
        positives = 0
        for i in range(N):
            proposal = draw_grasp(rng)
            gt = near_grasp(rng, proposal)
            scale = float(rng.uniform(0.01, 0.2))
            got = run(encode_refinement, proposal, gt, scale, i)
            want = run(ref_encode_refinement, proposal, gt, scale)
            assert got[1:] == want[1:]
            if want[0] is None:
                continue
            t = got[0]
            assert (t.proposal_index, t.label) == (i, 1)
            assert same(t.res_center, want[0][0]) and same(t.res_orientation, want[0][1])
            assert same(t.res_angle, want[0][2])
            positives += 1
        assert 2000 < positives < N

    def test_decode_bit_identical(self):
        rng = np.random.default_rng(903)
        clamped = degenerate = 0
        for i in range(N):
            proposal = draw_grasp(rng)
            scale = float(rng.uniform(0.01, 0.2))
            gt = near_grasp(rng, proposal)
            if i % 2 and refinement_label(proposal, gt):
                t = encode_refinement(proposal, gt, scale)
                args = (t.res_center, t.res_orientation, t.res_angle)
            else:
                res_o = rng.normal(size=3) * 0.5
                if rng.random() < 0.02:
                    res_o = -proposal.orientation  # cancels the proposal
                args = (rng.normal(size=3), res_o, draw_residual_angle(rng))
            got = run(decode_refinement, proposal, *args, scale)
            want = run(ref_decode_refinement, proposal, *args, scale)
            assert got[1:] == want[1:]
            if want[0] is None:
                degenerate += 1
            else:
                assert same_grasp(got[0], want[0])
                clamped += bool(want[2])
        assert clamped > 100 and degenerate > 10

    def test_bad_scale_same_errors(self):
        g = Grasp((0, 0, 0), (0, 0, 1), 0.0)
        far = Grasp((0, 0, 0), (1, 0, 0), 0.0)  # a negative pair
        for pair in ((g, g), (g, far)):
            assert run(encode_refinement, *pair, 0.0)[1:] == run(ref_encode_refinement, *pair, 0.0)[1:]
        args = (g, (0, 0, 0), (0, 0, 0), 0.0, -1.0)
        assert run(decode_refinement, *args)[1:] == run(ref_decode_refinement, *args)[1:]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def draw_probs(rng, n, classes, true_classes):
    """Probability rows: random, exact one-hot, or zero on the true class."""
    probs = rng.dirichlet(np.ones(classes), size=n)
    u = rng.random()
    if u < 0.1:
        probs = np.eye(classes)[true_classes]
    elif u < 0.15:
        probs[0] = np.full(classes, 1.0 / (classes - 1))
        probs[0, true_classes[0]] = 0.0
    return probs


def draw_weights(rng):
    u = rng.random()
    if u < 0.1:
        return (0.2, 10.0, 5.0, 1.0)
    if u < 0.2:
        return (0.0, 0.0, 0.0, 0.0)
    return tuple(float(w) for w in rng.uniform(-1.0, 10.0, size=4))


def draw_predictions(rng, n, truths):
    """Predictions per residual group: near, exact or unrelated to the
    truths, sometimes in Fortran order."""
    out = []
    for truth in truths:
        u = rng.random()
        if u < 0.1:
            pred = truth.copy()
        elif u < 0.5:
            pred = truth + rng.normal(size=truth.shape) * 0.1
        else:
            pred = rng.normal(size=truth.shape) * 2.0
        if pred.ndim == 2 and rng.random() < 0.2:
            pred = np.asfortranarray(pred)
        out.append(pred)
    return out


def same_parts(got, want):
    """Every term bit-identical; the total only equal in value: when every
    term is -0.0 the shared loss sums from +0.0."""
    assert list(got) == list(want)
    for key in ("classification", "center", "orientation", "angle"):
        assert same(got[key], want[key]), key
    assert got["total"] == want["total"]


class TestLosses:
    def test_proposal_loss_bit_identical(self):
        rng = np.random.default_rng(904)
        rows = 0
        while rows < N:
            m = int(rng.choice((6, 8)))
            n = int(rng.integers(1, 16))
            classes = rng.integers(m, size=n)
            targets = [
                ProposalTarget(
                    rng.normal(size=3) * 0.05,
                    int(c),
                    rng.normal(size=3),
                    random_unit(rng) * rng.uniform(0.0, 2.0),
                    draw_angle(rng),
                )
                for c in classes
            ]
            truths = [
                np.stack([t.res_center for t in targets]),
                np.stack([t.res_orientation for t in targets]),
                np.array([t.res_angle for t in targets]),
            ]
            probs = draw_probs(rng, n, m, classes)
            preds = draw_predictions(rng, n, truths)
            weights = draw_weights(rng)
            got = run(proposal_loss, probs, *preds, targets, weights)
            want = run(ref_proposal_loss, probs, *preds, targets, weights)
            assert got[1:] == want[1:]
            same_parts(got[0], want[0])
            rows += n

    def test_refinement_loss_bit_identical(self):
        rng = np.random.default_rng(905)
        rows = all_negative = 0
        while rows < N:
            k2 = int(rng.integers(1, 16))
            labels = (rng.random(k2) < rng.choice((0.0, 0.3, 0.8, 1.0))).astype(np.int64)
            all_negative += not labels.any()
            targets = [
                RefineTarget(i, 1, rng.normal(size=3), random_unit(rng) * rng.uniform(0, 2), draw_angle(rng))
                if y
                else RefineTarget(i, 0)
                for i, y in enumerate(labels)
            ]
            # per-target rows; label-0 rows hold arbitrary values
            truths = [rng.normal(size=(k2, 3)), rng.normal(size=(k2, 3)), rng.normal(size=k2)]
            for i, t in enumerate(targets):
                if t.label:
                    truths[0][i], truths[1][i], truths[2][i] = t.res_center, t.res_orientation, t.res_angle
            probs = draw_probs(rng, k2, 2, labels)
            preds = draw_predictions(rng, k2, truths)
            weights = draw_weights(rng)
            got = run(refinement_loss, probs, *preds, targets, weights)
            want = run(ref_refinement_loss, probs, *preds, targets, weights)
            assert got[1:] == want[1:]
            same_parts(got[0], want[0])
            rows += k2
        assert all_negative > 50

    def test_all_negative_set_ignores_predictions(self):
        targets = [RefineTarget(0, 0), RefineTarget(1, 0)]
        probs = np.array([[0.7, 0.3], [0.6, 0.4]])
        junk = np.zeros((5, 7))  # never validated without positives
        got = refinement_loss(probs, junk, junk, junk, targets)
        same_parts(got, ref_refinement_loss(probs, junk, junk, junk, targets, (1.0, 1.0, 1.0, 1.0)))

    @pytest.mark.parametrize("loss", [proposal_loss, refinement_loss])
    def test_every_term_negative_zero(self, loss):
        # non-positive weights and exact predictions: each term is -0.0
        if loss is proposal_loss:
            targets = [ProposalTarget((0, 0, 0), 1, (0.1, 0, 0), (0, 0.2, 0), 0.3)]
            probs = np.eye(8)[[1]]
        else:
            targets = [RefineTarget(0, 1, (0.1, 0, 0), (0, 0.2, 0), 0.3)]
            probs = np.eye(2)[[1]]
        t = targets[0]
        preds = ([t.res_center], [t.res_orientation], [t.res_angle])
        parts = loss(probs, *preds, targets, weights=(-1, -1, -1, -1))
        for key in ("classification", "center", "orientation", "angle"):
            assert same(parts[key], -0.0)
        assert same(parts["total"], 0.0)
