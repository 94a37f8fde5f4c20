"""Outputs pinned across commits.

The determinism tests compare two runs of the same code; these compare
against SHA-256 digests recorded once, so a refactor that silently moves
any output byte (a sampler draw, a tie between contacts, a rounding in
the grasp frame) fails here. A change that alters these outputs on
purpose must update the digests and say why in CHANGES.md.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from graspfield import GraspFieldWarning, cli
from graspfield.config import Config
from graspfield.dataset import generate_dataset
from graspfield.fileio import save_cloud_text, save_grasps, save_pose
from graspfield.geometry import Grasp, RigidTransform
from graspfield.metrics import load_report
from graspfield.synthetic import box_cloud, cylinder_cloud, sphere_cloud

from conftest import dead_plane_scene

MANIFEST_SHA256 = "e09a4905f15e10c65c3dbc8aed5073ffcec4963310b2ef180bb655b3869de7af"
REPORT_SHA256 = "57fd6bf40c0b25d6cf1a58139752f75e03be639cf801203afcd1dd3cace7c0c2"
SCAN_MANIFEST_SHA256 = "4a916ea742b345c0dab6b0092330d44ab647d3aba2ab548ac7ceb15bc61a97db"
REFINE_SHA256 = "cf65c15298da6f197110d5006e619dfa9a669281ca2a8891822ab5a9708e2fca"
EVAL_GRASPS = 300


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _eval_inputs(root):
    """Seeded noisy box grasps in the world, the box under a fixed pose."""
    rng = np.random.default_rng(0)
    axes = rng.integers(3, size=EVAL_GRASPS)
    centers = rng.uniform(-0.02, 0.02, size=(EVAL_GRASPS, 3))
    centers[np.arange(EVAL_GRASPS), axes] = 0.0
    orientations = np.zeros((EVAL_GRASPS, 3))
    orientations[np.arange(EVAL_GRASPS), axes] = rng.choice((-1.0, 1.0), size=EVAL_GRASPS)
    orientations += rng.normal(scale=0.3, size=orientations.shape)
    angles = rng.uniform(-math.pi / 2, math.pi / 2, size=EVAL_GRASPS)
    c, s = math.cos(0.7), math.sin(0.7)
    pose = RigidTransform([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], [0.05, -0.02, 0.1])
    # predictions live in the world; the pose maps world to object
    to_world = pose.inverse()
    save_grasps(
        root / "pred.csv",
        [Grasp(to_world.apply_points(p), to_world.apply_vectors(r), a)
         for p, r, a in zip(centers, orientations, angles)],
    )
    save_cloud_text(root / "box.csv", box_cloud())
    save_pose(root / "pose.txt", pose)
    return to_world


def _refine_inputs(root):
    """The eval inputs plus the box seen in the world and a fixed reference
    set: axis-aligned box grasps on a grid, three angles each."""
    to_world = _eval_inputs(root)
    save_cloud_text(root / "view.csv", to_world.apply_cloud(box_cloud()))
    reference = []
    for axis in range(3):
        for u, v in itertools.product((-0.015, 0.0, 0.015), repeat=2):
            center = np.insert(np.array([u, v]), axis, 0.0)
            for angle in (-1.0, 0.0, 1.0):
                reference.append(Grasp(to_world.apply_points(center), to_world.apply_vectors(np.eye(3)[axis]), angle))
    save_grasps(root / "reference.csv", reference)


def test_dataset_manifest_digest(tmp_path):
    manifest = generate_dataset(
        [("box", box_cloud()), ("cylinder", cylinder_cloud())],
        tmp_path,
        Config(),
        seed=0,
        views_per_object=2,
        positives_per_object=50,
        verify=True,
    )
    assert _sha256(manifest) == MANIFEST_SHA256


def test_scan_path_manifest_digest(tmp_path):
    # clouds with dead sampler origins: a graspable box, a sphere wider
    # than the jaws and a scene of mostly hopeless origins
    with pytest.warns(GraspFieldWarning, match="only 17 of 20 positive grasps found within the attempt budget"):
        manifest = generate_dataset(
            [("box", box_cloud()), ("wide_sphere", sphere_cloud()), ("scene", dead_plane_scene())],
            tmp_path,
            Config(),
            seed=0,
            views_per_object=2,
            positives_per_object=20,
            verify=True,
        )
    text = manifest.read_text()
    assert "skipped wide_sphere" in text
    assert "object box" in text and "object scene" in text
    assert _sha256(manifest) == SCAN_MANIFEST_SHA256


def test_eval_report_digest(tmp_path):
    _eval_inputs(tmp_path)
    rc = cli.main(
        [
            "eval-vgr",
            "--pred", str(tmp_path / "pred.csv"),
            "--object", str(tmp_path / "box.csv"),
            "--pose", str(tmp_path / "pose.txt"),
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    report = load_report(tmp_path / "report.csv")
    # a pin is only informative when both tests pass and fail somewhere
    assert 0 < report.kT_a < report.k3 and 0 < report.kT_c < report.k3
    assert _sha256(tmp_path / "report.csv") == REPORT_SHA256


def test_refine_targets_digest(tmp_path):
    _refine_inputs(tmp_path)
    rc = cli.main(
        [
            "refine-targets",
            "--cloud", str(tmp_path / "view.csv"),
            "--proposals", str(tmp_path / "pred.csv"),
            "--grasps", str(tmp_path / "reference.csv"),
            "--min-points", "800",
            "--out-dir", str(tmp_path),
            "--verify",
        ]
    )
    assert rc == 0
    rows = [row.split(",") for row in (tmp_path / "rn_targets.csv").read_text().splitlines()[1:]]
    # some proposals are dropped and both labels occur, so the pin covers
    # selection, matching and encoding
    assert 0 < len(rows) < EVAL_GRASPS
    assert {row[1] for row in rows} == {"0", "1"}
    assert _sha256(tmp_path / "rn_targets.csv") == REFINE_SHA256
