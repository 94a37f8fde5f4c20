"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line on the real stdout so the
criterion status is visible in any pytest run, captured or not. The
checks mirror the per-module tests but pin the release sample sizes,
tolerances, and runtime budgets in one place.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from graspfield import (
    Grasp,
    GripperModel,
    PointCloud,
    RigidTransform,
    build_anchors,
    closing_area,
    confidence_field,
    decode_proposal,
    decode_refinement,
    encode_proposal,
    evaluate,
    grasp_frame,
    refinement_label,
    score_grasps,
    segmentation_loss,
)
from graspfield import cli
from graspfield.anchors import ProposalTarget, proposal_loss
from graspfield.fileio import load_grasps, save_cloud_text
from graspfield.geometry import canonical_orientation
from graspfield.losses import smooth_l1
from graspfield.metrics import summarize_scores
from graspfield.quality import ContactPair
from graspfield.refine import RefineTarget, encode_refinement, refinement_loss
from graspfield.region import farthest_point_sampling
from graspfield.sampling import build_positive_set
from graspfield.synthetic import box_cloud

from conftest import collision_score, from_grasp_frame, random_unit, to_grasp_frame
from test_geometry import angle_between
from test_metrics import random_table
from test_quality import kernel_antipodal, oracle_antipodal
from test_refine import refinable_pair
from test_region import assert_greedy_maxmin


@pytest.fixture
def criterion(capfd):
    """Context manager emitting exactly one PASS/FAIL line per criterion,
    outside pytest's output capture so it shows in any run."""

    @contextmanager
    def _criterion(name):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"FAIL: {name}", flush=True)
            raise
        with capfd.disabled():
            print(f"PASS: {name}", flush=True)

    return _criterion


def test_criterion_01_anchor_codec_round_trip(criterion):
    with criterion("anchor codec round trip (1e4 grasps, <1e-9 m/rad, theta exact, <5 s)"):
        anchors = build_anchors(8)
        scale = GripperModel().scale
        rng = np.random.default_rng(1001)
        worst_center = worst_orientation = 0.0
        start = time.perf_counter()
        for _ in range(10_000):
            p_a = rng.uniform(-0.5, 0.5, 3)
            gt = Grasp(
                p_a + random_unit(rng) * rng.uniform(0.0, scale),
                canonical_orientation(random_unit(rng)),
                rng.uniform(-math.pi / 2, math.pi / 2),
            )
            t = encode_proposal(p_a, gt, anchors, scale)
            back = decode_proposal(
                p_a, t.anchor_class, t.res_center, t.res_orientation, t.res_angle, anchors, scale
            )
            worst_center = max(worst_center, float(np.linalg.norm(back.center - gt.center)))
            worst_orientation = max(worst_orientation, angle_between(back.orientation, gt.orientation))
            assert back.angle == gt.angle
        elapsed = time.perf_counter() - start
        assert worst_center < 1e-9
        assert worst_orientation < 1e-9
        assert elapsed < 5.0


def test_criterion_02_refinement_codec_round_trip(criterion):
    with criterion("refinement codec round trip (1e4 positive pairs, <1e-9)"):
        scale = GripperModel().scale
        rng = np.random.default_rng(1002)
        worst_center = worst_orientation = worst_angle = 0.0
        start = time.perf_counter()
        for _ in range(10_000):
            proposal, gt = refinable_pair(rng, scale)
            assert refinement_label(proposal, gt) == 1
            t = encode_refinement(proposal, gt, scale)
            back = decode_refinement(proposal, t.res_center, t.res_orientation, t.res_angle, scale)
            worst_center = max(worst_center, float(np.linalg.norm(back.center - gt.center)))
            worst_orientation = max(worst_orientation, angle_between(back.orientation, gt.orientation))
            worst_angle = max(worst_angle, abs(back.angle - gt.angle))
        elapsed = time.perf_counter() - start
        assert worst_center < 1e-9
        assert worst_orientation < 1e-9
        assert worst_angle < 1e-9
        assert elapsed < 5.0


def test_criterion_03_force_closure_oracle(criterion):
    with criterion("force-closure test equals tangential-decomposition oracle (1e3 pairs)"):
        rng = np.random.default_rng(1003)
        for _ in range(1000):
            force = random_unit(rng)
            contacts = ContactPair(
                point_a=rng.uniform(-0.1, 0.1, 3),
                point_b=rng.uniform(0.11, 0.2, 3),
                normal_a=random_unit(rng),
                normal_b=random_unit(rng),
                force_a=-force,
                force_b=force,
            )
            mu = float(rng.uniform(0.05, 2.0))
            assert kernel_antipodal(contacts, mu) == oracle_antipodal(contacts, mu)


def test_criterion_04_confidence_field_equivalence(criterion):
    with criterion("confidence field equals brute force (50 instances, 1e-12) and hand case 1.5"):
        rng = np.random.default_rng(1004)
        for _ in range(50):
            n = int(rng.integers(500, 5001))
            n_grasps = int(rng.integers(20, 401))
            d_th = float(rng.uniform(0.01, 0.04))
            points = rng.uniform(-0.2, 0.2, (n, 3))
            centers = rng.uniform(-0.2, 0.2, (n_grasps, 3))
            grasps = [Grasp(c, (0.0, 0.0, 1.0), 0.0) for c in centers]
            field = confidence_field(PointCloud(points), grasps, d_th, 0.6)
            dis = cdist(points, centers)
            brute = np.where(dis < d_th, 1.0 - dis / d_th, 0.0).sum(axis=1)
            assert np.max(np.abs(field.values - brute)) < 1e-12
            assert np.array_equal(field.labels, (field.values > 0.6).astype(np.int64))

        hand = confidence_field(
            PointCloud([[0.0, 0.0, 0.0]]),
            [Grasp(c, (0.0, 0.0, 1.0), 0.0) for c in ((0.01, 0, 0), (0, 0.01, 0), (0, 0, 0.01))],
            0.02,
            0.6,
        )
        assert hand.values[0] == 1.5


def test_criterion_05_containment_oracle(criterion):
    with criterion("collision and closing-area match point-in-box oracle (200 grasps)"):
        rng = np.random.default_rng(1005)
        obj = box_cloud(half_extents=rng.uniform(0.02, 0.05, 3), spacing=0.004)
        gripper = GripperModel()
        half = gripper.closing_half_extents()
        for _ in range(200):
            g = Grasp(rng.uniform(-0.08, 0.08, 3), random_unit(rng), rng.uniform(-math.pi / 2, math.pi / 2))
            frame = grasp_frame(g)
            local = (obj.points - frame.origin) @ frame.rotation
            hit = False
            for lo, hi in gripper.collision_boxes():
                if np.any(np.all((local > lo) & (local < hi), axis=1)):
                    hit = True
                    break
            assert score_grasps(obj, [g], gripper)[0, 1] == collision_score(obj, g, gripper) == (0 if hit else 1)
            inside = np.nonzero(np.all(np.abs(local) <= half, axis=1))[0]
            indices, _ = closing_area(obj, g, gripper)
            assert np.array_equal(indices, inside)


def test_criterion_06_farthest_point_sampling(criterion):
    with criterion("FPS prefix property (100 sets) and exhaustive greedy optimality (<=12 pts)"):
        rng = np.random.default_rng(1006)
        for _ in range(100):
            n = int(rng.integers(5, 61))
            cloud = PointCloud(rng.uniform(-1.0, 1.0, (n, 3)))
            subset = np.arange(n)
            k_small = int(rng.integers(1, n))
            k_big = int(rng.integers(k_small, n + 1))
            seed = int(rng.integers(0, 2**31))
            small = farthest_point_sampling(cloud, subset, k_small, seed)
            big = farthest_point_sampling(cloud, subset, k_big, seed)
            assert np.array_equal(small, big[:k_small])
        for _ in range(40):
            n = int(rng.integers(3, 13))
            k = int(rng.integers(2, min(n, 5) + 1))
            points = rng.uniform(-1.0, 1.0, (n, 3))
            chosen = farthest_point_sampling(PointCloud(points), np.arange(n), k, int(rng.integers(100)))
            assert_greedy_maxmin(points, np.arange(n), chosen)


def test_criterion_07_losses(criterion):
    with criterion("losses: uniform ln 2, closed-form 1.25 and 0.5, smooth L1 continuity, zero when perfect"):
        # point segmentation loss on uniform predictions
        labels = np.array([0, 1, 1, 0, 1])
        uniform = np.full((5, 2), 0.5)
        assert abs(segmentation_loss(uniform, labels) - math.log(2.0)) < 1e-12
        perfect_seg = np.column_stack([1.0 - labels, labels]).astype(float)
        assert segmentation_loss(perfect_seg, labels) == 0.0

        # proposal loss: one target, exact class, center residual off by 0.5
        anchors = build_anchors(8)
        target = ProposalTarget(
            center=(0.0, 0.0, 0.0),
            anchor_class=2,
            res_center=(0.0, 0.0, 0.0),
            res_orientation=(0.0, 0.0, 0.0),
            res_angle=0.3,
        )
        probs = np.zeros((1, len(anchors)))
        probs[0, 2] = 1.0
        parts = proposal_loss(probs, [(0.5, 0.0, 0.0)], [(0.0, 0.0, 0.0)], [0.3], [target])
        assert abs(parts["total"] - 1.25) < 1e-12
        perfect = proposal_loss(probs, [(0.0, 0.0, 0.0)], [(0.0, 0.0, 0.0)], [0.3], [target])
        assert perfect["total"] == 0.0

        # refinement loss: two proposals, one positive with center error (1,0,0)
        targets = [
            RefineTarget(0, 1, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0),
            RefineTarget(1, 0),
        ]
        rn_probs = np.array([[0.0, 1.0], [1.0, 0.0]])
        centers = np.array([[1.0, 0.0, 0.0], [9.0, 9.0, 9.0]])  # row 1 ignored
        zeros = np.zeros((2, 3))
        parts = refinement_loss(rn_probs, centers, zeros, np.zeros(2), targets)
        assert abs(parts["total"] - 0.5) < 1e-12
        perfect = refinement_loss(rn_probs, zeros, zeros, np.zeros(2), targets)
        assert perfect["total"] == 0.0

        # smooth L1 is continuous at the quadratic/linear transition
        for beta in (0.3, 1.0, 2.5):
            below = float(smooth_l1(beta - 1e-10, beta))
            above = float(smooth_l1(beta + 1e-10, beta))
            at = float(smooth_l1(beta, beta))
            assert abs(below - at) < 1e-9
            assert abs(above - at) < 1e-9


def test_criterion_08_grasp_frames(criterion):
    with criterion("1e4 grasp frames orthonormal right-handed (1e-9), round trip <1e-9"):
        rng = np.random.default_rng(1008)
        template = rng.uniform(-0.2, 0.2, (8, 3))
        worst_ortho = worst_det = worst_round = 0.0
        for i in range(10_000):
            if i % 5 == 0:
                # force the up-parallel degenerate branch
                orientation = (0.0, 0.0, 1.0) if i % 10 == 0 else (0.0, 0.0, -1.0)
            else:
                orientation = random_unit(rng)
            g = Grasp(rng.uniform(-0.3, 0.3, 3), orientation, rng.uniform(-math.pi / 2, math.pi / 2))
            frame = grasp_frame(g)
            r = frame.rotation
            worst_ortho = max(worst_ortho, float(np.abs(r.T @ r - np.eye(3)).max()))
            worst_det = max(worst_det, abs(float(np.linalg.det(r)) - 1.0))
            cloud = PointCloud(template)
            back = from_grasp_frame(to_grasp_frame(cloud, frame), frame)
            worst_round = max(worst_round, float(np.abs(back.points - template).max()))
        assert worst_ortho < 1e-9
        assert worst_det < 1e-9
        assert worst_round < 1e-9


def test_criterion_09_metrics(criterion, box, gripper):
    with criterion("metrics: 4-grasp case exact, min rule on 100 tables, self-eval VGR 1.0"):
        predicted = [
            Grasp((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0),
            Grasp((0.01, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0),
            Grasp((0.0, 0.05, 0.0), (0.0, 0.0, 1.0), 0.0),
            Grasp((0.0, 0.0, -0.04), (0.0, 0.0, 1.0), 0.0),
        ]
        rep = evaluate(predicted, RigidTransform.identity(), box, gripper)
        assert rep.vagr == 0.75
        assert rep.vcgr == 0.5
        assert rep.vgr == 0.5

        rng = np.random.default_rng(1009)
        for _ in range(100):
            table = summarize_scores(random_table(rng, int(rng.integers(1, 40))))
            assert table.vgr <= min(table.vagr, table.vcgr)

        own = build_positive_set(box, gripper, per_object=25, seed=11)
        self_eval = evaluate(own, RigidTransform.identity(), box, gripper)
        assert self_eval.vgr == 1.0


def test_criterion_10_end_to_end_determinism(criterion, tmp_path):
    with criterion("generate-dataset: 400 positives x 4 views, identical reruns, verify clean, <60 s"):
        start = time.perf_counter()
        save_cloud_text(tmp_path / "box.csv", box_cloud())
        base = [
            "generate-dataset",
            "--objects",
            str(tmp_path / "box.csv"),
            "--views",
            "4",
            "--positives",
            "400",
            "--seed",
            "0",
        ]
        assert cli.main(base + ["--out-dir", str(tmp_path / "a"), "--verify"]) == 0
        assert cli.main(base + ["--out-dir", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "manifest.txt").read_text()
        second = (tmp_path / "b" / "manifest.txt").read_text()
        assert first == second
        assert first.splitlines()[-1].startswith("manifest-sha256 ")
        grasps = load_grasps(tmp_path / "a" / "box" / "grasps.csv")
        assert len(grasps) == 400
        assert all(g.score == 1 for g in grasps)
        assert time.perf_counter() - start < 60.0
