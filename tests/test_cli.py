"""Tests for the graspfield command line interface.

Commands run in-process through cli.main(argv) so exit codes and stdout
can be asserted without spawning an interpreter.
"""

from dataclasses import replace

import numpy as np
import pytest

from graspfield import Grasp, GraspSet, cli
from graspfield.fileio import (
    load_grasps,
    load_labels,
    load_proposal_targets,
    load_refine_targets,
    save_cloud_text,
    save_grasps,
    save_labels,
    save_proposal_targets,
    save_refine_targets,
)
from graspfield.metrics import load_report, summarize_scores
from graspfield.synthetic import box_cloud

IDENTITY_POSE = "1 0 0 0\n0 1 0 0\n0 0 1 0\n"


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Prepared workspace: object cloud, identity pose, fast config, and
    the grasp/label artifacts the later stages consume."""
    root = tmp_path_factory.mktemp("cliws")
    save_cloud_text(root / "box.csv", box_cloud())
    (root / "pose.txt").write_text(IDENTITY_POSE)
    (root / "fast.cfg").write_text("region_count = 8\nregion_size = 32\n")

    rc = cli.main(
        [
            "sample-grasps",
            "--object",
            str(root / "box.csv"),
            "--count",
            "8",
            "--out-dir",
            str(root),
        ]
    )
    assert rc == 0
    rc = cli.main(
        [
            "confidence",
            "--cloud",
            str(root / "box.csv"),
            "--grasps",
            str(root / "grasps.csv"),
            "--out-dir",
            str(root),
        ]
    )
    assert rc == 0
    return root


# ------------------------------------------------------------ happy paths


def test_sample_grasps_verify(ws, capsys):
    rc = cli.main(
        [
            "sample-grasps",
            "--object",
            str(ws / "box.csv"),
            "--count",
            "5",
            "--out",
            "verified.csv",
            "--out-dir",
            str(ws),
            "--verify",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote 5 grasps" in out
    assert "verify: 5 grasps re-score to 1" in out
    grasps = load_grasps(ws / "verified.csv")
    assert len(grasps) == 5
    assert all(g.score == 1 for g in grasps)


def test_sample_grasps_deterministic(ws, tmp_path):
    argv = ["sample-grasps", "--object", str(ws / "box.csv"), "--count", "6", "--seed", "3"]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli.main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "grasps.csv").read_bytes()
    assert a == (tmp_path / "b" / "grasps.csv").read_bytes()


def test_confidence_verify(ws, capsys):
    rc = cli.main(
        [
            "confidence",
            "--cloud",
            str(ws / "box.csv"),
            "--grasps",
            str(ws / "grasps.csv"),
            "--out",
            "labels2.csv",
            "--out-dir",
            str(ws),
            "--verify",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "verify: labels round-trip exactly" in out
    values, labels = load_labels(ws / "labels2.csv")
    assert len(values) == len(box_cloud())
    assert set(np.unique(labels)) <= {0, 1}


def test_confidence_threshold_flags(ws, tmp_path):
    rc = cli.main(
        [
            "confidence",
            "--cloud",
            str(ws / "box.csv"),
            "--grasps",
            str(ws / "grasps.csv"),
            "--ct",
            "5.0",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    _, labels = load_labels(tmp_path / "labels.csv")
    assert labels.sum() == 0  # unreachable threshold: nothing positive


def test_make_targets_verify(ws, capsys):
    rc = cli.main(
        [
            "make-targets",
            "--cloud",
            str(ws / "box.csv"),
            "--labels",
            str(ws / "labels.csv"),
            "--grasps",
            str(ws / "grasps.csv"),
            "--config",
            str(ws / "fast.cfg"),
            "--out-dir",
            str(ws),
            "--verify",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "targets decode to their grasps" in out
    rows = load_proposal_targets(ws / "targets.csv")
    assert len(rows) >= 1


def test_refine_targets_verify(ws, capsys):
    # the positives double as proposals; every match is exact
    rc = cli.main(
        [
            "refine-targets",
            "--cloud",
            str(ws / "box.csv"),
            "--proposals",
            str(ws / "grasps.csv"),
            "--grasps",
            str(ws / "grasps.csv"),
            "--min-points",
            "10",
            "--out-dir",
            str(ws),
            "--verify",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "refinement targets" in out
    assert "decode to their grasps" in out
    assert (ws / "rn_targets.csv").exists()


def test_eval_vgr_verify(ws, capsys):
    rc = cli.main(
        [
            "eval-vgr",
            "--pred",
            str(ws / "grasps.csv"),
            "--object",
            str(ws / "box.csv"),
            "--pose",
            str(ws / "pose.txt"),
            "--out-dir",
            str(ws),
            "--verify",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "k3=8" in out
    assert "vgr=1.0000" in out
    assert "verify: report round-trips exactly" in out
    assert load_report(ws / "report.csv").vgr == 1.0


def test_generate_dataset_command(ws, tmp_path, capsys):
    rc = cli.main(
        [
            "generate-dataset",
            "--objects",
            str(ws / "box.csv"),
            "--views",
            "1",
            "--positives",
            "8",
            "--config",
            str(ws / "fast.cfg"),
            "--out-dir",
            str(tmp_path / "ds"),
            "--verify",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "manifest:" in out
    assert "manifest-sha256" in out
    manifest = tmp_path / "ds" / "manifest.txt"
    assert manifest.exists()
    assert "object box points" in manifest.read_text()


def test_out_dir_creates_parents(ws, tmp_path):
    rc = cli.main(
        [
            "confidence",
            "--cloud",
            str(ws / "box.csv"),
            "--grasps",
            str(ws / "grasps.csv"),
            "--out",
            "nested/labels.csv",
            "--out-dir",
            str(tmp_path / "deep"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "deep" / "nested" / "labels.csv").exists()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


# ------------------------------------------------------------- exit codes


def test_usage_errors_exit_one(ws, capsys):
    assert cli.main([]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["confidence"]) == 1  # missing required args
    assert (
        cli.main(["sample-grasps", "--object", str(ws / "box.csv"), "--count", "0"]) == 1
    )
    assert (
        cli.main(
            [
                "make-targets",
                "--cloud",
                str(ws / "box.csv"),
                "--labels",
                str(ws / "labels.csv"),
                "--grasps",
                str(ws / "grasps.csv"),
                "--m1",
                "7",
            ]
        )
        == 1
    )
    assert "usage" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "key",
    [f"{head}_weight_{part}" for head in ("proposal", "refine")
     for part in ("class", "center", "orientation", "angle")],
)
def test_removed_loss_weight_keys_exit_two(ws, tmp_path, capsys, key):
    # no command computes a loss, so the loss weights are not config keys
    cfg = tmp_path / "weights.cfg"
    cfg.write_text(f"{key} = 1.0\n")
    rc = cli.main(["sample-grasps", "--object", str(ws / "box.csv"), "--config", str(cfg)])
    assert rc == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err


def test_data_errors_exit_two(ws, tmp_path, capsys):
    rc = cli.main(["sample-grasps", "--object", str(tmp_path / "missing.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("frobnicate = 1\n")
    rc = cli.main(
        ["sample-grasps", "--object", str(ws / "box.csv"), "--config", str(bad_cfg)]
    )
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err

    rc = cli.main(
        ["sample-grasps", "--object", str(ws / "box.csv"), "--config", str(tmp_path / "nope.cfg")]
    )
    assert rc == 2


def test_ungraspable_exits_two(ws, tmp_path, capsys):
    tight = tmp_path / "tight.cfg"
    tight.write_text("max_opening = 0.01\n")
    rc = cli.main(
        [
            "sample-grasps",
            "--object",
            str(ws / "box.csv"),
            "--config",
            str(tight),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_gripper_config_overlays_base(ws, tmp_path):
    # the later file wins: the base config closes the jaws, the gripper
    # overlay reopens them
    base = tmp_path / "base.cfg"
    base.write_text("max_opening = 0.01\n")
    grip = tmp_path / "grip.cfg"
    grip.write_text("max_opening = 0.08\n")
    rc = cli.main(
        [
            "sample-grasps",
            "--object",
            str(ws / "box.csv"),
            "--count",
            "3",
            "--config",
            str(base),
            "--gripper",
            str(grip),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert len(load_grasps(tmp_path / "grasps.csv")) == 3


def test_verification_failure_exits_three(ws, tmp_path, capsys, monkeypatch):
    # a saver that corrupts the labels must trip --verify
    def corrupting(path, values, labels):
        save_labels(path, values, 1 - np.asarray(labels))

    monkeypatch.setattr(cli, "save_labels", corrupting)
    rc = cli.main(
        [
            "confidence",
            "--cloud",
            str(ws / "box.csv"),
            "--grasps",
            str(ws / "grasps.csv"),
            "--out-dir",
            str(tmp_path),
            "--verify",
        ]
    )
    assert rc == 3
    assert "verification failed" in capsys.readouterr().err


def test_sample_grasps_verify_detects_moved_grasp(ws, tmp_path, capsys, monkeypatch):
    # a saver that drags the second grasp off the object must trip --verify
    def moving(path, grasps):
        moved = Grasp(grasps[1].center + 1.0, grasps[1].orientation, grasps[1].angle, 1, 1, 1)
        save_grasps(path, [grasps[0], moved, *grasps[2:]])

    monkeypatch.setattr(cli, "save_grasps", moving)
    rc = cli.main(
        ["sample-grasps", "--object", str(ws / "box.csv"), "--count", "3", "--out-dir", str(tmp_path), "--verify"]
    )
    assert rc == 3
    assert "verification failed: stored grasp 1 does not re-score to 1" in capsys.readouterr().err


def test_make_targets_verify_detects_shifted_target(ws, tmp_path, capsys, monkeypatch):
    # a saver that shifts the first target's center residual must trip --verify
    def shifting(path, targets):
        (i, t), *rest = targets
        save_proposal_targets(path, [(i, replace(t, res_center=t.res_center + 1.0)), *rest])

    monkeypatch.setattr(cli, "save_proposal_targets", shifting)
    rc = cli.main(
        [
            "make-targets",
            "--cloud",
            str(ws / "box.csv"),
            "--labels",
            str(ws / "labels.csv"),
            "--grasps",
            str(ws / "grasps.csv"),
            "--config",
            str(ws / "fast.cfg"),
            "--out-dir",
            str(tmp_path),
            "--verify",
        ]
    )
    targets = load_proposal_targets(tmp_path / "targets.csv")
    assert rc == 3
    assert f"target at point {targets[0][0]} does not decode to its grasp" in capsys.readouterr().err


def test_refine_targets_verify_detects_shifted_target(ws, tmp_path, capsys, monkeypatch):
    def shifting(path, targets):
        first = next(k for k, t in enumerate(targets) if t.label)
        targets = list(targets)
        targets[first] = replace(targets[first], res_center=targets[first].res_center + 1.0)
        save_refine_targets(path, targets)

    monkeypatch.setattr(cli, "save_refine_targets", shifting)
    rc = cli.main(
        [
            "refine-targets",
            "--cloud",
            str(ws / "box.csv"),
            "--proposals",
            str(ws / "grasps.csv"),
            "--grasps",
            str(ws / "grasps.csv"),
            "--min-points",
            "10",
            "--out-dir",
            str(tmp_path),
            "--verify",
        ]
    )
    first = next(row for row in load_refine_targets(tmp_path / "rn_targets.csv") if row[1])
    assert rc == 3
    assert f"refinement target {first[0]} does not decode to its grasp" in capsys.readouterr().err


def test_eval_verify_detects_mismatched_report(ws, tmp_path, capsys, monkeypatch):
    def wrong_report(path, report):
        from graspfield.metrics import save_report

        save_report(path, summarize_scores([[0, 0, 0]] * report.k3))

    monkeypatch.setattr(cli, "save_report", wrong_report)
    rc = cli.main(
        [
            "eval-vgr",
            "--pred",
            str(ws / "grasps.csv"),
            "--object",
            str(ws / "box.csv"),
            "--pose",
            str(ws / "pose.txt"),
            "--out-dir",
            str(tmp_path),
            "--verify",
        ]
    )
    assert rc == 3
    assert "stored report does not match" in capsys.readouterr().err


def test_label_count_mismatch_exits_two(ws, tmp_path, capsys):
    short = tmp_path / "short_labels.csv"
    save_labels(short, np.array([0.5, 0.5]), np.array([1, 0]))
    rc = cli.main(
        [
            "make-targets",
            "--cloud",
            str(ws / "box.csv"),
            "--labels",
            str(short),
            "--grasps",
            str(ws / "grasps.csv"),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert "label count does not match" in capsys.readouterr().err


def test_malformed_labels_exit_two(ws, tmp_path, capsys):
    bad = tmp_path / "bad_labels.csv"
    lines = (ws / "labels.csv").read_text().splitlines()
    lines[5] = "4,abc,0"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(
        [
            "make-targets",
            "--cloud",
            str(ws / "box.csv"),
            "--labels",
            str(bad),
            "--grasps",
            str(ws / "grasps.csv"),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert "bad_labels.csv:6:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, key",
    [
        ("eval-vgr", "--mu", "nan", "mu"),
        ("sample-grasps", "--mu", "-0.5", "mu"),
        ("confidence", "--ct", "-1", "confidence_threshold"),
        ("confidence", "--dth", "nan", "distance_threshold"),
        ("confidence", "--dth", "0", "distance_threshold"),
        ("confidence", "--dth", "inf", "distance_threshold"),
        ("confidence", "--ct", "inf", "confidence_threshold"),
        ("eval-vgr", "--mu", "inf", "mu"),
    ],
)
def test_override_flags_checked_by_config_schema(ws, tmp_path, capsys, command, flag, value, key):
    inputs = {
        "eval-vgr": ["--pred", ws / "grasps.csv", "--object", ws / "box.csv", "--pose", ws / "pose.txt"],
        "sample-grasps": ["--object", ws / "box.csv", "--count", "1"],
        "confidence": ["--cloud", ws / "box.csv", "--grasps", ws / "grasps.csv"],
    }[command]
    rc = cli.main([command, *map(str, inputs), f"{flag}={value}", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert f"key '{key}': value {float(value)} out of range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_override_flags_win_over_config_file(ws, tmp_path):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("confidence_threshold = 5.0\n")
    rc = cli.main(
        [
            "confidence",
            "--cloud",
            str(ws / "box.csv"),
            "--grasps",
            str(ws / "grasps.csv"),
            "--config",
            str(cfg),
            "--ct",
            "0",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    _, labels = load_labels(tmp_path / "labels.csv")
    assert labels.sum() > 0


def _rotated(orientation, angle):
    """``orientation`` turned by ``angle`` radians about a perpendicular axis."""
    perp = np.cross(orientation, (0.0, 0.0, 1.0))
    perp /= np.linalg.norm(perp)
    return np.cos(angle) * orientation + np.sin(angle) * perp


def test_grasp_mismatch_orientation_tolerance():
    a = Grasp((0.01, 0.02, 0.03), (1.3664634705496859, -0.6651946734866135, 0.3515100700930197), 0.1)
    nudged = a.orientation.copy()
    nudged[1] = np.nextafter(nudged[1], np.inf)
    ulp_off = Grasp(a.center, nudged, a.angle)
    # an orientation an ulp or two off whose dot with the original rounds
    # below 1.0, where acos jumps from 0 to 1.49e-8
    assert np.abs(ulp_off.orientation - a.orientation).max() <= 2 * np.spacing(1.0)
    assert abs(float(a.orientation @ ulp_off.orientation)) < 1.0
    others = [
        ulp_off,
        Grasp(a.center, -a.orientation, a.angle),  # headless axis
        Grasp(a.center, _rotated(a.orientation, 1e-6), a.angle),
        Grasp(a.center + (1e-6, 0, 0), a.orientation, a.angle),
        Grasp(a.center, a.orientation, a.angle + 1e-6),
    ]
    mismatch = cli._grasp_mismatch(GraspSet.of([a] * len(others)), GraspSet.of(others))
    assert mismatch.tolist() == [False, False, True, True, True]
