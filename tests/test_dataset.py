"""Tests for dataset generation: layout, manifest, determinism, verify."""

import hashlib
import warnings

import numpy as np
import pytest

from graspfield import dataset
from graspfield.anchors import build_anchors
from graspfield.config import Config
from graspfield.dataset import (
    ensure_normals,
    generate_dataset,
    ring_camera,
    subsample_cloud,
    verify_stored_grasps,
)
from graspfield.errors import DataError, GraspFieldWarning, VerificationError
from graspfield.geometry import Grasp, PointCloud, derive_seed
from graspfield.synthetic import box_cloud, sphere_cloud

# small settings keep the end-to-end runs quick
FAST = Config(region_count=8, region_size=32)


def fast_dataset(objects, out_dir, **kwargs):
    kwargs.setdefault("config", FAST)
    kwargs.setdefault("views_per_object", 2)
    kwargs.setdefault("positives_per_object", 12)
    return generate_dataset(objects, out_dir, **kwargs)


# ------------------------------------------------------------- subsampling


def test_subsample_passthrough_when_small(box):
    assert subsample_cloud(box, len(box), seed=0) is box
    assert subsample_cloud(box, len(box) + 1, seed=0) is box


def test_subsample_draws_sorted_subset(box):
    sub = subsample_cloud(box, 500, seed=3)
    assert len(sub) == 500
    assert sub.normals is not None
    # each kept point appears in the source, in source order
    matches = np.flatnonzero((box.points[:, None] == sub.points[None]).all(-1).any(-1))
    assert len(matches) >= 500


def test_subsample_deterministic(box):
    a = subsample_cloud(box, 300, seed=9)
    b = subsample_cloud(box, 300, seed=9)
    c = subsample_cloud(box, 300, seed=10)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_subsample_rejects_bad_size(box):
    with pytest.raises(DataError, match="subsample size must be >= 1"):
        subsample_cloud(box, 0, seed=0)


# ------------------------------------------------------------ ensure_normals


def test_ensure_normals_passthrough(box):
    assert ensure_normals(box) is box


def test_ensure_normals_estimates_with_warning():
    rng = np.random.default_rng(20)
    pts = np.column_stack([rng.uniform(-0.05, 0.05, size=(400, 2)), np.zeros(400)])
    bare = PointCloud(pts)
    with pytest.warns(GraspFieldWarning, match="no normals"):
        filled = ensure_normals(bare)
    assert filled.normals is not None
    assert np.allclose(np.linalg.norm(filled.normals, axis=1), 1.0)
    # flat sheet: normals along z, oriented toward the viewpoint above
    assert np.all(filled.normals[:, 2] > 0.99)


# -------------------------------------------------------------- ring_camera


def test_ring_camera_equally_spaced(box):
    views = 6
    centroid = box.points.mean(axis=0)
    cams = [ring_camera(box, v, views) for v in range(views)]
    radii = [np.linalg.norm(c.position - centroid) for c in cams]
    assert np.allclose(radii, radii[0])
    azimuths = np.unwrap([np.arctan2(*(c.position - centroid)[[1, 0]]) for c in cams])
    assert np.allclose(np.diff(azimuths), 2.0 * np.pi / views)
    assert all(c.position[2] > centroid[2] for c in cams)


def test_ring_camera_deterministic(box):
    a = ring_camera(box, 1, 4)
    b = ring_camera(box, 1, 4)
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.target, b.target)


def test_ring_camera_validation(box):
    with pytest.raises(DataError, match="views must be >= 1"):
        ring_camera(box, 0, 0)
    with pytest.raises(DataError, match="view_index out of range"):
        ring_camera(box, 4, 4)


# --------------------------------------------------------- generate_dataset


def test_generate_layout_and_manifest(box, tmp_path):
    out = tmp_path / "ds"
    manifest = fast_dataset([("box", box)], out)
    assert manifest == out / "manifest.txt"
    for v in range(2):
        assert (out / "box" / f"view_{v}.csv").exists()
        assert (out / "box" / f"labels_{v}.csv").exists()
        assert (out / "box" / f"targets_{v}.csv").exists()
    assert (out / "box" / "grasps.csv").exists()

    lines = manifest.read_text().splitlines()
    assert lines[0] == "graspfield dataset manifest"
    assert "seed = 0" in lines
    assert f"config-sha256 {FAST.digest()}" in lines
    assert any(ln.startswith("object box points 3150 positives 12") for ln in lines)

    # artifact hashes match the files on disk
    artifacts = [ln.split() for ln in lines if ln.startswith("artifact ")]
    assert len(artifacts) == 1 + 3 * 2
    for _, relpath, _, digest in artifacts:
        assert hashlib.sha256((out / relpath).read_bytes()).hexdigest() == digest

    # the trailing self-hash covers everything above it
    assert lines[-1].startswith("manifest-sha256 ")
    body = "\n".join(lines[:-1])
    assert lines[-1] == f"manifest-sha256 {hashlib.sha256(body.encode()).hexdigest()}"


def test_generate_byte_identical_reruns(box, tmp_path):
    m1 = fast_dataset([("box", box)], tmp_path / "a", seed=4)
    m2 = fast_dataset([("box", box)], tmp_path / "b", seed=4)
    assert m1.read_bytes() == m2.read_bytes()
    for rel in ("box/grasps.csv", "box/view_0.csv", "box/labels_1.csv", "box/targets_0.csv"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_generate_seed_changes_output(box, tmp_path):
    m1 = fast_dataset([("box", box)], tmp_path / "a", seed=4)
    m2 = fast_dataset([("box", box)], tmp_path / "b", seed=5)
    assert m1.read_bytes() != m2.read_bytes()


def test_generate_with_verify_passes(box, tmp_path):
    fast_dataset([("box", box)], tmp_path / "ds", verify=True)


def test_verify_catches_tampered_grasp(box, tmp_path):
    out = tmp_path / "ds"
    fast_dataset([("box", box)], out)
    grasps = out / "box" / "grasps.csv"
    lines = grasps.read_text().splitlines()
    first = lines[1].split(",")
    first[0] = "1.0"  # drag the first grasp center a metre off the object
    lines[1] = ",".join(first)
    grasps.write_text("\n".join(lines) + "\n")
    checks = [("box", box, [("box/view_0.csv", "box/targets_0.csv")])]
    with pytest.raises(VerificationError, match="stored grasp"):
        dataset._verify_dataset(out, checks, FAST, build_anchors(8), FAST.gripper())


def test_verify_catches_tampered_target_residual(box, tmp_path):
    out = tmp_path / "ds"
    fast_dataset([("box", box)], out)
    targets = out / "box" / "targets_0.csv"
    lines = targets.read_text().splitlines()
    row = lines[1].split(",")
    row[2:5] = ["40.0", "40.0", "40.0"]  # push the decoded center far off the box
    lines[1] = ",".join(row)
    targets.write_text("\n".join(lines) + "\n")
    checks = [("box", box, [("box/view_0.csv", "box/targets_0.csv")])]
    with pytest.raises(VerificationError, match=f"box/targets_0.csv: decoded target at point {row[0]} does not"):
        dataset._verify_dataset(out, checks, FAST, build_anchors(8), FAST.gripper())


def test_verify_stored_grasps(box, gripper, z_grasp):
    good = z_grasp.with_scores(1, 1)
    verify_stored_grasps(box, [good, good], gripper, 0.6)
    off = Grasp((1.0, 0.0, 0.0), (0, 0, 1), 0.0, 1, 1, 1)
    with pytest.raises(VerificationError, match="^box: stored grasp 1 does not re-score to 1$"):
        verify_stored_grasps(box, [good, off], gripper, 0.6, where="box: ")
    # a grasp that re-scores to 1 still fails when its stored scores are not (1, 1, 1)
    with pytest.raises(VerificationError, match="^stored grasp 0 does not"):
        verify_stored_grasps(box, [z_grasp], gripper, 0.6)


def test_verify_catches_tampered_target_index(box, tmp_path):
    out = tmp_path / "ds"
    fast_dataset([("box", box)], out)
    targets = out / "box" / "targets_0.csv"
    lines = targets.read_text().splitlines()
    row = lines[1].split(",")
    row[0] = "999999"
    lines[1] = ",".join(row)
    targets.write_text("\n".join(lines) + "\n")
    checks = [("box", box, [("box/view_0.csv", "box/targets_0.csv")])]
    with pytest.raises(VerificationError, match="point index 999999 out of range"):
        dataset._verify_dataset(out, checks, FAST, build_anchors(8), FAST.gripper())


@pytest.mark.parametrize("later", ["residual", "index"])
def test_verify_names_the_first_failing_target(box, tmp_path, later):
    # a view's targets are scored in one call; the error still names the
    # first failing row, before a later bad residual or bad index
    out = tmp_path / "ds"
    fast_dataset([("box", box)], out)
    targets = out / "box" / "targets_0.csv"
    lines = targets.read_text().splitlines()
    assert len(lines) >= 4
    first, second = lines[2].split(","), lines[3].split(",")
    first[2:5] = ["40.0", "40.0", "40.0"]
    if later == "residual":
        second[2:5] = ["-40.0", "40.0", "40.0"]
    else:
        second[0] = "999999"
    lines[2], lines[3] = ",".join(first), ",".join(second)
    targets.write_text("\n".join(lines) + "\n")
    checks = [("box", box, [("box/view_0.csv", "box/targets_0.csv")])]
    with pytest.raises(VerificationError, match=f"decoded target at point {first[0]} does not re-score to 1$"):
        dataset._verify_dataset(out, checks, FAST, build_anchors(8), FAST.gripper())


def test_ungraspable_object_skipped(box, tmp_path):
    # a 0.12 m sphere cannot fit between 0.08 m jaws
    boulder = sphere_cloud(radius=0.06, count=2000)
    out = tmp_path / "ds"
    manifest = fast_dataset([("brick", box), ("boulder", boulder)], out)
    text = manifest.read_text()
    assert "skipped boulder reason:" in text
    assert (out / "brick").is_dir()
    assert not (out / "boulder").exists()
    assert "object brick points" in text


def test_view_without_positive_points_noted(box, tmp_path):
    # an unreachable confidence threshold empties every label column
    cfg = Config(region_count=8, region_size=32, confidence_threshold=5.0)
    out = tmp_path / "ds"
    manifest = fast_dataset([("box", box)], out, config=cfg, views_per_object=1)
    text = manifest.read_text()
    assert "warning box view 0: no positive points" in text
    assert (out / "box" / "labels_0.csv").exists()
    assert not (out / "box" / "targets_0.csv").exists()


def test_split_tags_views(box, tmp_path):
    manifest = fast_dataset([("box", box)], tmp_path / "ds", split="1:1")
    lines = manifest.read_text().splitlines()
    assert "split = 1:1" in lines
    views = [ln for ln in lines if ln.startswith("view box ")]
    assert len(views) == 2
    assert views[0].endswith(" split train")
    assert views[1].endswith(" split test")


def test_bad_split_rejected(box, tmp_path):
    with pytest.raises(DataError, match="split must look like '4:1'"):
        fast_dataset([("box", box)], tmp_path / "ds", split="four:one")


def test_input_validation(box, tmp_path):
    with pytest.raises(DataError, match="no objects given"):
        fast_dataset([], tmp_path / "ds")
    with pytest.raises(DataError, match="object names must be unique"):
        fast_dataset([("box", box), ("box", box)], tmp_path / "ds")
    with pytest.raises(DataError, match="not directory-safe"):
        fast_dataset([("../box", box)], tmp_path / "ds")


def test_subsample_seed_derivation_used(tmp_path):
    # a big cloud goes through the seeded subsampler; reruns still match
    dense = box_cloud(spacing=0.0011)
    assert len(dense) > 2000
    cfg = Config(region_count=8, region_size=32, subsample_size=2000)
    m1 = generate_dataset(
        [("dense", dense)], tmp_path / "a", config=cfg, seed=2, views_per_object=1, positives_per_object=8
    )
    m2 = generate_dataset(
        [("dense", dense)], tmp_path / "b", config=cfg, seed=2, views_per_object=1, positives_per_object=8
    )
    assert m1.read_bytes() == m2.read_bytes()
    sub = subsample_cloud(dense, 2000, derive_seed(2, 0, 0))
    assert len(sub) == 2000
