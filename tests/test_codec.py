"""Bit identity of the shared residual codec against the two per-head
codecs it replaced.

The reference functions below are the proposal-head (anchor) and
refinement-head codecs and losses as they were written before the two
heads shared one encode, one decode and one loss, one grasp at a time.
Every row of the shared set-level code must equal theirs bit for bit,
signed zeros included, on seeded random inputs: -0.0 angles, clamped
angles, 6 and 8 anchors, sign and anchor ties, degenerate orientations,
and refinement target sets with no positives.
"""

import math
import warnings

import numpy as np
import pytest

from graspfield import (
    DataError,
    GraspFieldWarning,
    GraspSet,
    build_anchors,
    decode_proposals,
    decode_refinements,
    encode_proposals,
    proposal_loss,
)
from graspfield.anchors import ProposalTarget, _encode_residuals
from graspfield.losses import cross_entropy, smooth_l1
from graspfield.refine import ANGLE_GATE, ORIENTATION_GATE, RefineTarget, _refinement_labels, refinement_loss

from conftest import random_unit

N = 10_000


# ---------------------------------------------------------------------------
# Reference implementations (one grasp: a one-row set)
# ---------------------------------------------------------------------------

def ref_encode_proposal(center, gt, anchors, scale):
    if scale <= 0.0:
        raise DataError("scale must be positive")
    center = np.asarray(center, dtype=np.float64)
    # the sign-canonical line: the stored orientation normalized again,
    # its lowest-index largest-magnitude component made positive
    r = gt.orientations[0]
    n = np.linalg.norm(r)
    if n < 1e-12:
        raise DataError("cannot normalize a zero-length vector")
    r = r / n
    lead = int(np.argmax(np.abs(r)))
    r = r if r[lead] > 0.0 else -r
    # the nearest anchor: the first largest dot with the line normalized once more
    n = np.linalg.norm(r)
    if n < 1e-12:
        raise DataError("cannot classify a zero-length orientation")
    cls = int(np.argmax(anchors.orientations @ (r / n)))
    return cls, (gt.centers[0] - center) / scale, r - anchors.orientations[cls], float(gt.angles[0])


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
    return GraspSet([p], [v / norm], [angle])


def ref_refinement_label(proposal, gt):
    dot = float(np.clip(proposal.orientations[0] @ gt.orientations[0], -1.0, 1.0))
    return int(dot > math.cos(ORIENTATION_GATE) and abs(proposal.angles[0] - gt.angles[0]) < ANGLE_GATE)


def ref_encode_refinement(proposal, gt, scale):
    if scale <= 0.0:
        raise DataError("scale must be positive")
    if ref_refinement_label(proposal, gt) == 0:
        raise DataError("no target for negatives")
    return (
        (gt.centers[0] - proposal.centers[0]) / scale,
        gt.orientations[0] - proposal.orientations[0],
        float(gt.angles[0]) - float(proposal.angles[0]),
    )


def ref_decode_refinement(proposal, res_center, res_orientation, res_angle, scale):
    if scale <= 0.0:
        raise DataError("scale must be positive")
    p = proposal.centers[0] + np.asarray(res_center, dtype=np.float64) * scale
    v = proposal.orientations[0] + np.asarray(res_orientation, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm < 1e-9:
        raise DataError("degenerate orientation")
    angle = float(proposal.angles[0]) + float(res_angle)
    if abs(angle) > math.pi / 2:
        warnings.warn("approach angle clamped to [-pi/2, pi/2]", GraspFieldWarning, stacklevel=2)
        angle = math.copysign(math.pi / 2, angle)
    return GraspSet([p], [v / norm], [angle])


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


def same_grasps(a: GraspSet, b: GraspSet) -> bool:
    return same(a.centers, b.centers) and same(a.orientations, b.orientations) and same(a.angles, b.angles)


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


def draw_grasp(rng) -> tuple:
    """One grasp row: (center, orientation, angle)."""
    return rng.normal(size=3) * 0.05, random_unit(rng), draw_angle(rng)


def draw_line(rng) -> np.ndarray:
    """Ground-truth lines: random, axis-aligned with a negative lead, two
    components of equal largest magnitude (the sign tie), or one exact
    zero (equidistant from two cube corners)."""
    u = rng.random()
    if u < 0.1:
        line = rng.choice((0.0, -0.0), size=3)
        line[rng.integers(3)] = -rng.uniform(0.5, 2.0)
        return line
    if u < 0.2:
        a = rng.uniform(0.5, 2.0)
        line = rng.choice((-1.0, 1.0), size=3) * np.array([a, a, a * rng.uniform(0.0, 1.0)])
        return line[rng.permutation(3)]
    if u < 0.3:
        line = random_unit(rng)
        line[rng.integers(3)] = rng.choice((0.0, -0.0))
        return line
    return random_unit(rng)


def grasp_set(rows) -> GraspSet:
    """One set of (center, orientation, angle) rows."""
    return GraspSet(*zip(*rows))


def near_grasp(rng, g: tuple) -> tuple:
    """A grasp row close to ``g``: mostly a refinable (label-1) pair."""
    center, orientation, angle = g
    u = rng.random()
    if u < 0.05:
        return g  # identical pair: every residual is zero
    ori = orientation + rng.normal(size=3) * rng.choice((0.01, 0.3))
    angle = float(np.clip(angle + rng.normal() * 0.4, -math.pi / 2, math.pi / 2))
    if u < 0.10:
        angle = -0.0
    return center + rng.normal(size=3) * 0.01, ori, angle


def check_decode_chunk(decode, ref, leads, set_lead, residuals, scale):
    """Decode the rows of one chunk in one set call against the one-row
    reference. ``leads`` are the rows' reference arguments before the
    residuals and ``set_lead(index)`` the set call's for the chosen rows.
    The rows the reference decodes match bit for bit and warn as one call;
    the whole chunk fails with the first failing row's error, and each
    failing row fails alone with its own. Returns (clamped, degenerate)."""

    def call(index):
        columns = [[residuals[k][c] for k in index] for c in range(3)]
        return run(decode, *set_lead(index), *columns, scale)

    want = [run(ref, *lead, *res, scale) for lead, res in zip(leads, residuals)]
    good = [k for k, w in enumerate(want) if w[1] is None]
    bad = [k for k, w in enumerate(want) if w[1] is not None]
    got = call(good)
    assert got[1] is None and len(got[0]) == len(good)
    assert got[2] == ["approach angle clamped to [-pi/2, pi/2]"] * any(want[k][2] for k in good)
    for row, k in enumerate(good):
        assert same_grasps(got[0][row], want[k][0])
    if bad:
        assert call(range(len(leads)))[1] == want[bad[0]][1]
    for k in bad:
        assert call([k])[1:] == want[k][1:]
    return sum(bool(want[k][2]) for k in good), len(bad)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

class TestProposalCodec:
    def test_encode_bit_identical(self):
        rng = np.random.default_rng(900)
        for count in (6, 8):
            anchors = build_anchors(count)
            centers = rng.normal(size=(N, 3)) * 0.05
            gts = grasp_set([(rng.normal(size=3) * 0.05, draw_line(rng), draw_angle(rng)) for _ in range(N)])
            scale = float(rng.uniform(0.01, 0.2))
            targets = encode_proposals(centers, gts, anchors, scale)
            assert len(targets) == N
            flips = sign_ties = anchor_ties = 0
            for k, t in enumerate(targets):
                gt = gts[k]
                cls, res_c, res_o, res_a = ref_encode_proposal(centers[k], gt, anchors, scale)
                assert t.anchor_class == cls
                assert same(t.center, centers[k])
                assert same(t.res_center, res_c) and same(t.res_orientation, res_o)
                assert same(t.res_angle, res_a)
                mag = np.abs(gt.orientations[0])
                flips += gt.orientations[0, np.argmax(mag)] < 0.0
                sign_ties += np.count_nonzero(mag == mag.max()) > 1
                dots = np.sort(anchors.orientations @ (res_o + anchors.orientations[cls]))
                anchor_ties += dots[-1] == dots[-2]
            assert flips > N // 4 and sign_ties > N // 20 and anchor_ties > N // 20

    def test_decode_bit_identical(self):
        rng = np.random.default_rng(901)
        clamped = degenerate = 0
        for chunk in range(20):
            anchors = build_anchors(int(rng.choice((6, 8))))
            scale = float(rng.uniform(0.01, 0.2))
            leads, residuals = [], []
            for i in range(N // 20):
                center = rng.normal(size=3) * 0.05
                if i % 2:
                    (t,) = encode_proposals([center], grasp_set([draw_grasp(rng)]), anchors, scale)
                    leads.append((t.center, t.anchor_class))
                    residuals.append((t.res_center, t.res_orientation, t.res_angle))
                    continue
                cls = int(rng.integers(len(anchors)))
                res_o = rng.normal(size=3) * 0.5
                if rng.random() < 0.02:
                    res_o = -anchors.orientations[cls]  # cancels the anchor
                leads.append((center, cls))
                residuals.append((rng.normal(size=3), res_o, draw_residual_angle(rng)))

            def decode(centers, classes, *rest):
                return decode_proposals(centers, classes, *rest[:3], anchors, rest[3])

            def ref(center, cls, *rest):
                return ref_decode_proposal(center, cls, *rest[:3], anchors, rest[3])

            def set_lead(index):
                return [leads[k][0] for k in index], [leads[k][1] for k in index]

            counts = check_decode_chunk(decode, ref, leads, set_lead, residuals, scale)
            clamped, degenerate = clamped + counts[0], degenerate + counts[1]
        assert clamped > 100 and degenerate > 10

    def test_bad_arguments_same_errors(self):
        anchors = build_anchors(8)
        for args in (
            ((0, 0, 0), 0, (0, 0, 0), (0, 0, 0), 0.0, anchors, 0.0),
            ((0, 0, 0), 8, (0, 0, 0), (0, 0, 0), 0.0, anchors, 0.1),
            ((0, 0, 0), -1, (0, 0, 0), (0, 0, 0), 0.0, anchors, 0.1),
        ):
            rows = [[a] for a in args[:5]]
            assert run(decode_proposals, *rows, *args[5:])[1:] == run(ref_decode_proposal, *args)[1:]

    def test_clamp_warning_names_the_caller(self):
        anchors = build_anchors(8)
        with pytest.warns(GraspFieldWarning, match="clamped") as caught:
            decode_proposals([(0, 0, 0)], [0], [(0, 0, 0)], [(0, 0, 0)], [2.0], anchors, 0.1)
        assert [w.filename for w in caught] == [__file__]
        with pytest.warns(GraspFieldWarning, match="clamped") as caught:
            decode_refinements(GraspSet([(0, 0, 0)], [(0, 0, 1)], [1.0]), [(0, 0, 0)], [(0, 0, 0)], [1.0], 0.1)
        assert [w.filename for w in caught] == [__file__]


class TestRefinementCodec:
    def test_encode_bit_identical(self):
        # build_refinement_targets labels and encodes its matched pairs
        # with these two batch calls
        rng = np.random.default_rng(902)
        positives = 0
        for chunk in range(10):
            rows = [draw_grasp(rng) for _ in range(N // 10)]
            proposals, gts = grasp_set(rows), grasp_set([near_grasp(rng, g) for g in rows])
            scale = float(rng.uniform(0.01, 0.2))
            labels = _refinement_labels(proposals.orientations, proposals.angles, gts.orientations, gts.angles)
            ref = (proposals.centers, proposals.orientations, proposals.angles)
            res_c, res_o, res_a = _encode_residuals(ref, (gts.centers, gts.orientations, gts.angles), scale)
            for k in range(len(rows)):
                want = run(ref_encode_refinement, proposals[k], gts[k], scale)
                assert labels[k] == (want[1] is None)
                if labels[k]:
                    assert same(res_c[k], want[0][0]) and same(res_o[k], want[0][1])
                    assert same(res_a[k], want[0][2])
                    positives += 1
        assert 2000 < positives < N

    def test_decode_bit_identical(self):
        rng = np.random.default_rng(903)
        clamped = degenerate = 0
        for chunk in range(20):
            scale = float(rng.uniform(0.01, 0.2))
            rows, residuals = [], []
            for i in range(N // 20):
                proposal = draw_grasp(rng)
                gt = near_grasp(rng, proposal)
                one, near = grasp_set([proposal]), grasp_set([gt])
                rows.append(proposal)
                if i % 2 and ref_refinement_label(one, near):
                    residuals.append(ref_encode_refinement(one, near, scale))
                    continue
                res_o = rng.normal(size=3) * 0.5
                if rng.random() < 0.02:
                    res_o = -one.orientations[0]  # cancels the proposal
                residuals.append((rng.normal(size=3), res_o, draw_residual_angle(rng)))
            proposals = grasp_set(rows)
            leads = [(proposals[k],) for k in range(len(rows))]
            counts = check_decode_chunk(
                decode_refinements, ref_decode_refinement, leads, lambda index: (proposals[index],), residuals, scale
            )
            clamped, degenerate = clamped + counts[0], degenerate + counts[1]
        assert clamped > 100 and degenerate > 10

    def test_bad_scale_same_errors(self):
        g = GraspSet([(0, 0, 0)], [(0, 0, 1)], [0.0])
        far = GraspSet([(0, 0, 0)], [(1, 0, 0)], [0.0])  # a negative pair
        for a, b in ((g, g), (g, far)):
            rows = ((a.centers, a.orientations, a.angles), (b.centers, b.orientations, b.angles))
            assert run(_encode_residuals, *rows, 0.0)[1:] == run(ref_encode_refinement, a, b, 0.0)[1:]
        args = ((0, 0, 0), (0, 0, 0), 0.0)
        got = run(decode_refinements, g, *([a] for a in args), -1.0)
        assert got[1:] == run(ref_decode_refinement, g, *args, -1.0)[1:]


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
