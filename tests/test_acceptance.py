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
    GraspSet,
    GripperModel,
    PointCloud,
    RigidTransform,
    build_anchors,
    confidence_field,
    decode_proposals,
    decode_refinements,
    encode_proposals,
    evaluate,
    score_grasps,
    segmentation_loss,
    select_refinable,
)
from graspfield import cli
from graspfield.anchors import ProposalTarget, _encode_residuals, proposal_loss
from graspfield.fileio import load_grasps, save_cloud_text
from graspfield.losses import smooth_l1
from graspfield.metrics import summarize_scores
from graspfield.refine import RefineTarget, _refinement_labels, refinement_loss
from graspfield.region import farthest_point_sampling
from graspfield.sampling import build_positive_set
from graspfield.synthetic import box_cloud

from conftest import (
    ContactPair,
    GraspFrame,
    closing_area,
    collision_score,
    from_grasp_frame,
    grasp_frame,
    one_grasp,
    random_unit,
    stack,
    to_grasp_frame,
)
from test_anchors import canonical
from test_geometry import angle_between
from test_metrics import random_table
from test_quality import kernel_antipodal, oracle_antipodal
from test_refine import refinable_pairs
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
        start = time.perf_counter()
        rows = []
        for _ in range(10_000):
            p_a = rng.uniform(-0.5, 0.5, 3)
            center = p_a + random_unit(rng) * rng.uniform(0.0, scale)
            rows.append((p_a, center, canonical(random_unit(rng)), rng.uniform(-math.pi / 2, math.pi / 2)))
        p_as, *columns = zip(*rows)
        gts = GraspSet(*columns)
        targets = encode_proposals(p_as, gts, anchors, scale)
        residuals = [[getattr(t, name) for t in targets] for name in ("res_center", "res_orientation", "res_angle")]
        back = decode_proposals(p_as, [t.anchor_class for t in targets], *residuals, anchors, scale)
        worst_center = float(np.linalg.norm(back.centers - gts.centers, axis=1).max())
        worst_orientation = max(map(angle_between, back.orientations, gts.orientations))
        assert np.array_equal(back.angles, gts.angles)
        elapsed = time.perf_counter() - start
        assert worst_center < 1e-9
        assert worst_orientation < 1e-9
        assert elapsed < 5.0


def test_criterion_02_refinement_codec_round_trip(criterion):
    with criterion("refinement codec round trip (1e4 positive pairs, <1e-9)"):
        scale = GripperModel().scale
        rng = np.random.default_rng(1002)
        start = time.perf_counter()
        proposals, gts = refinable_pairs(rng, 10_000, scale)
        assert _refinement_labels(proposals.orientations, proposals.angles, gts.orientations, gts.angles).all()
        reference = (proposals.centers, proposals.orientations, proposals.angles)
        residuals = _encode_residuals(reference, (gts.centers, gts.orientations, gts.angles), scale)
        back = decode_refinements(proposals, *residuals, scale)
        worst_center = float(np.linalg.norm(back.centers - gts.centers, axis=1).max())
        worst_orientation = max(map(angle_between, back.orientations, gts.orientations))
        worst_angle = float(np.abs(back.angles - gts.angles).max())
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
            grasps = GraspSet(centers, np.tile((0.0, 0.0, 1.0), (n_grasps, 1)), np.zeros(n_grasps))
            field = confidence_field(PointCloud(points), grasps, d_th, 0.6)
            dis = cdist(points, centers)
            brute = np.where(dis < d_th, 1.0 - dis / d_th, 0.0).sum(axis=1)
            assert np.max(np.abs(field.values - brute)) < 1e-12
            assert np.array_equal(field.labels, (field.values > 0.6).astype(np.int64))

        hand = confidence_field(
            PointCloud([[0.0, 0.0, 0.0]]),
            GraspSet(((0.01, 0, 0), (0, 0.01, 0), (0, 0, 0.01)), [(0.0, 0.0, 1.0)] * 3, [0.0] * 3),
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
            g = one_grasp(rng.uniform(-0.08, 0.08, 3), random_unit(rng), rng.uniform(-math.pi / 2, math.pi / 2))
            frame = grasp_frame(g)
            local = (obj.points - frame.origin) @ frame.rotation
            hit = False
            for lo, hi in gripper.collision_boxes():
                if np.any(np.all((local > lo) & (local < hi), axis=1)):
                    hit = True
                    break
            assert score_grasps(obj, g, gripper)[0, 1] == collision_score(obj, g, gripper) == (0 if hit else 1)
            inside = np.nonzero(np.all(np.abs(local) <= half, axis=1))[0]
            indices, _ = closing_area(obj, g, gripper)
            assert np.array_equal(indices, inside)
            assert select_refinable(g, obj, gripper, min_points=len(inside)).size == 0
            if len(inside):
                assert np.array_equal(select_refinable(g, obj, gripper, min_points=len(inside) - 1), [0])


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
        rows = []
        for i in range(10_000):
            if i % 5 == 0:
                # force the up-parallel degenerate branch
                orientation = (0.0, 0.0, 1.0) if i % 10 == 0 else (0.0, 0.0, -1.0)
            else:
                orientation = random_unit(rng)
            rows.append((rng.uniform(-0.3, 0.3, 3), orientation, rng.uniform(-math.pi / 2, math.pi / 2)))
        grasps = GraspSet(*zip(*rows))
        for center, r in zip(grasps.centers, grasps.rotations()):
            frame = GraspFrame(center, r[:, 0], r[:, 1], r[:, 2])
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
        predicted = stack(
            one_grasp(center, (0.0, 0.0, 1.0), 0.0)
            for center in ((0.0, 0.0, 0.0), (0.01, 0.0, 0.0), (0.0, 0.05, 0.0), (0.0, 0.0, -0.04))
        )
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
        assert (grasps.scores == 1).all()
        assert time.perf_counter() - start < 60.0
