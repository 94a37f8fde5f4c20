"""Tests for grasp-set evaluation ratios and report files."""

import numpy as np
import pytest

from graspfield.errors import DataError
from graspfield.geometry import Grasp, RigidTransform, transform_grasp
from graspfield.metrics import (
    REPORT_HEADER,
    SCORE_HEADER,
    EvalReport,
    compare_reports,
    evaluate,
    load_report,
    save_report,
    summarize_scores,
)
from graspfield.sampling import build_positive_set

from test_geometry import random_grasp, random_rotation


def random_table(rng, n):
    """Random valid (n, 3) score table with the combined column derived."""
    sa = rng.integers(0, 2, size=n)
    sc = rng.integers(0, 2, size=n)
    return np.stack([sa, sc, np.minimum(sa, sc)], axis=1)


def random_transform(rng):
    return RigidTransform(random_rotation(rng), rng.uniform(-0.2, 0.2, size=3))


# ---------------------------------------------------------------- EvalReport


def test_report_counts_and_ratios():
    rep = EvalReport([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert rep.k3 == 4
    assert rep.kT_a == 2
    assert rep.kT_c == 2
    assert rep.kT == 1
    assert rep.vagr == 0.5
    assert rep.vcgr == 0.5
    assert rep.vgr == 0.25


def test_report_all_pass():
    rep = EvalReport(np.ones((7, 3), dtype=int))
    assert rep.vgr == rep.vagr == rep.vcgr == 1.0


def test_min_rule_structural():
    # vgr <= min(vagr, vcgr) holds for every valid table.
    rng = np.random.default_rng(60)
    for _ in range(200):
        rep = summarize_scores(random_table(rng, int(rng.integers(1, 30))))
        assert rep.kT <= min(rep.kT_a, rep.kT_c)
        assert rep.vgr <= min(rep.vagr, rep.vcgr)


def test_report_rejects_empty():
    with pytest.raises(DataError, match="non-empty"):
        EvalReport(np.zeros((0, 3), dtype=int))


def test_report_rejects_bad_shape():
    with pytest.raises(DataError, match="table"):
        EvalReport([[1, 1], [0, 0]])
    with pytest.raises(DataError, match="table"):
        EvalReport([1, 1, 1])


def test_report_rejects_non_binary():
    with pytest.raises(DataError, match="0 or 1"):
        EvalReport([[1, 2, 1]])


def test_report_rejects_broken_min_rule():
    with pytest.raises(DataError, match="combined score must equal min"):
        EvalReport([[1, 1, 0]])
    with pytest.raises(DataError, match="combined score must equal min"):
        EvalReport([[0, 1, 1]])


def test_report_scores_read_only():
    rep = EvalReport([[1, 1, 1]])
    with pytest.raises(ValueError):
        rep.scores[0, 0] = 0


def test_summarize_scores_accepts_lists():
    rep = summarize_scores([(1, 0, 0), (1, 1, 1)])
    assert rep.k3 == 2 and rep.kT == 1


# ------------------------------------------------------------------ evaluate


def test_evaluate_hand_case(box, gripper):
    # Four grasps on the box: two good, one colliding with the base, one
    # off the surface entirely. Counts are exact.
    predicted = [
        Grasp((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0),
        Grasp((0.01, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0),
        Grasp((0.0, 0.05, 0.0), (0.0, 0.0, 1.0), 0.0),
        Grasp((0.0, 0.0, -0.04), (0.0, 0.0, 1.0), 0.0),
    ]
    rep = evaluate(predicted, RigidTransform.identity(), box, gripper)
    assert np.array_equal(rep.scores, [[1, 1, 1], [1, 1, 1], [1, 0, 0], [0, 0, 0]])
    assert rep.vagr == 0.75
    assert rep.vcgr == 0.5
    assert rep.vgr == 0.5


def test_evaluate_own_positives_scores_one(box, gripper):
    got = build_positive_set(box, gripper, per_object=12, seed=5)
    rep = evaluate(got, RigidTransform.identity(), box, gripper)
    assert rep.k3 == 12
    assert rep.vgr == 1.0
    assert np.all(rep.scores == 1)


def test_evaluate_empty_error(box, gripper):
    with pytest.raises(DataError, match="no grasps to evaluate"):
        evaluate([], RigidTransform.identity(), box, gripper)


def test_evaluate_applies_object_pose(box, gripper):
    # A world grasp placed with the inverse pose lands back on the object.
    rng = np.random.default_rng(61)
    good = build_positive_set(box, gripper, per_object=3, seed=7)
    pose = random_transform(rng)
    world = [transform_grasp(g, pose.inverse()) for g in good]
    rep = evaluate(world, pose, box, gripper)
    assert np.all(rep.scores == 1)


def test_evaluate_rigid_invariance(box, gripper):
    # Moving predictions and pose by the same transform keeps every row.
    rng = np.random.default_rng(62)
    predicted = [random_grasp(rng) for _ in range(12)]
    pose = random_transform(rng)
    base = evaluate(predicted, pose, box, gripper)
    for _ in range(3):
        t = random_transform(rng)
        moved = [transform_grasp(g, t) for g in predicted]
        rep = evaluate(moved, pose.compose(t.inverse()), box, gripper)
        assert np.array_equal(rep.scores, base.scores)


def test_evaluate_mu_passthrough(box, gripper):
    # Contacts folded 45 deg off the closing line: outside a 31 deg cone,
    # inside a 50 deg one.
    slanted = [Grasp((0.0, 0.0, 0.0), (0.0, 1.0, 1.0), 0.0)]
    strict = evaluate(slanted, RigidTransform.identity(), box, gripper, mu=0.6)
    loose = evaluate(slanted, RigidTransform.identity(), box, gripper, mu=1.2)
    assert strict.scores[0, 0] == 0
    assert loose.scores[0, 0] == 1


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"mu": 0.0}, "mu must be a finite positive number"),
        ({"mu": -0.5}, "mu must be a finite positive number"),
        ({"mu": float("nan")}, "mu must be a finite positive number"),
        ({"mu": float("inf")}, "mu must be a finite positive number"),
        ({"tol": -1e-3}, "tol must be a finite non-negative number"),
        ({"tol": float("nan")}, "tol must be a finite non-negative number"),
        ({"tol": float("inf")}, "tol must be a finite non-negative number"),
    ],
)
def test_evaluate_rejects_bad_mu_and_tol(box, gripper, kwargs, match):
    predicted = [Grasp((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)]
    with pytest.raises(DataError, match=match):
        evaluate(predicted, RigidTransform.identity(), box, gripper, **kwargs)


# ----------------------------------------------------------- compare_reports


def test_compare_single_report():
    rep = EvalReport([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 0]])
    table = compare_reports([("ours", rep)])
    lines = table.splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["name", "k3", "kT", "kT_a", "kT_c", "vgr", "vagr", "vcgr"]
    assert lines[1].split() == ["ours", "4", "1", "2", "2", "0.2500", "0.5000", "0.5000"]


def test_compare_orders_by_vgr_descending():
    low = EvalReport([[0, 0, 0]])
    mid = EvalReport([[1, 1, 1], [0, 0, 0]])
    high = EvalReport([[1, 1, 1]])
    table = compare_reports([("low", low), ("high", high), ("mid", mid)])
    names = [ln.split()[0] for ln in table.splitlines()[1:]]
    assert names == ["high", "mid", "low"]


def test_compare_breaks_ties_by_name():
    rep = EvalReport([[1, 1, 1], [0, 0, 0]])
    table = compare_reports([("zeta", rep), ("alpha", rep), ("mid", rep)])
    names = [ln.split()[0] for ln in table.splitlines()[1:]]
    assert names == ["alpha", "mid", "zeta"]


def test_compare_rows_are_aligned():
    rep = EvalReport([[1, 1, 1]])
    table = compare_reports([("a-rather-long-name", rep), ("b", rep)])
    lines = table.splitlines()
    assert all(ln == ln.rstrip() for ln in lines)
    assert all(len(ln.split()) == 8 for ln in lines)
    # cells line up column by column under the ljust widths
    starts = [lines[0].index(col) for col in ("k3", "kT ", "kT_a", "kT_c", "vgr", "vagr", "vcgr")]
    for ln in lines[1:]:
        for s in starts:
            assert ln[s - 1] == " "


def test_compare_empty_error():
    with pytest.raises(DataError, match="no reports to compare"):
        compare_reports([])


# ------------------------------------------------------------- report files


def test_report_round_trip(tmp_path):
    rng = np.random.default_rng(63)
    rep = summarize_scores(random_table(rng, 17))
    path = tmp_path / "report.csv"
    save_report(path, rep)
    back = load_report(path)
    assert np.array_equal(back.scores, rep.scores)
    assert back.vgr == rep.vgr


def test_report_file_layout(tmp_path):
    rep = EvalReport([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 0]])
    path = tmp_path / "report.csv"
    save_report(path, rep)
    lines = path.read_text().splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[1] == "4,1,2,2,0.2500,0.5000,0.5000"
    assert lines[2] == SCORE_HEADER
    assert lines[3] == "0,1,1,1"
    assert len(lines) == 3 + rep.k3


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("k3,kT\n1,1\n" + SCORE_HEADER + "\n0,1,1,1\n")
    with pytest.raises(DataError, match="malformed report file"):
        load_report(path)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text(REPORT_HEADER + "\n1,1,1,1\n")
    with pytest.raises(DataError, match="malformed report file"):
        load_report(path)


def test_load_rejects_bad_score_row(tmp_path):
    rep = EvalReport([[1, 1, 1], [0, 0, 0]])
    path = tmp_path / "report.csv"
    save_report(path, rep)
    lines = path.read_text().splitlines()
    lines[4] = "1,0,0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="malformed score row"):
        load_report(path)


def test_load_rejects_tampered_counts(tmp_path):
    rep = EvalReport([[1, 1, 1], [0, 0, 0]])
    path = tmp_path / "report.csv"
    save_report(path, rep)
    lines = path.read_text().splitlines()
    lines[1] = "2,2,2,2,1.0000,1.0000,1.0000"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="stored counts disagree with the score table"):
        load_report(path)


@pytest.mark.parametrize(
    "summary, message",
    [
        ("2,1,1,1,abc,0.9999,-3", "summary ratios abc,0.9999,-3 do not match the counts"),
        ("2,1,1,1,0.5000,0.5000,0.4999", "summary ratios .* do not match the counts"),
        ("2,1,1,1,0.5,0.5000,0.5000", "summary ratios .* do not match the counts"),
        ("0,0,0,0,0.0000,0.0000,0.0000", "k3 must be at least 1"),
    ],
)
def test_load_checks_summary_ratio_cells(tmp_path, summary, message):
    rep = EvalReport([[1, 1, 1], [0, 0, 0]])
    path = tmp_path / "report.csv"
    save_report(path, rep)
    lines = path.read_text().splitlines()
    assert lines[1] == "2,1,1,1,0.5000,0.5000,0.5000"
    lines[1] = summary
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=rf"report\.csv:2: {message}"):
        load_report(path)
