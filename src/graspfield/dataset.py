"""Dataset generation: objects in, labeled training records out.

Per object: subsample, build the positive grasp set, then per view:
render a single-view cloud, label point confidence, and encode proposal
targets. Everything is written with round-trip-exact float formatting
and per-unit derived seeds, so a rerun with the same inputs, config and
seed is byte-identical; the manifest records every artifact hash and
ends with a hash over its own lines.

Layout under the output directory:
    <object>/grasps.csv      scored positive grasps
    <object>/view_<v>.csv    single-view cloud (world frame, with normals)
    <object>/labels_<v>.csv  per-point confidence and labels
    <object>/targets_<v>.csv encoded proposal targets
    manifest.txt
"""

from __future__ import annotations

import hashlib
import math
import re
import warnings
from pathlib import Path

import numpy as np

from .anchors import build_anchors, build_proposal_targets, decode_proposal
from .confidence import confidence_field
from .config import Config
from .errors import DataError, GraspFieldWarning, UngraspableError, VerificationError
from .fileio import (
    load_cloud,
    load_grasps,
    load_proposal_targets,
    save_cloud_text,
    save_grasps,
    save_labels,
    save_proposal_targets,
)
from .geometry import PointCloud, derive_seed, estimate_normals
from .quality import score_grasps
from .sampling import OrthoCamera, build_positive_set, render_single_view

MANIFEST_NAME = "manifest.txt"
_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def subsample_cloud(cloud: PointCloud, size: int, seed) -> PointCloud:
    """Uniform random subset of at most ``size`` points, seeded; clouds
    already small enough pass through unchanged."""
    if size < 1:
        raise DataError("subsample size must be >= 1")
    if len(cloud) <= size:
        return cloud
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(cloud), size=size, replace=False))
    return cloud.select(idx)


def ensure_normals(cloud: PointCloud, k: int = 30) -> PointCloud:
    """Pass through clouds that carry normals; estimate otherwise.

    Estimated normals are oriented toward a viewpoint above the centroid
    (best effort; the physics checks fold normal sign away, only sampler
    efficiency suffers from flipped patches).
    """
    if cloud.normals is not None:
        return cloud
    warnings.warn("input cloud has no normals; estimating", GraspFieldWarning, stacklevel=2)
    centroid = cloud.points.mean(axis=0)
    extent = max(float(np.ptp(cloud.points, axis=0).max()), 1e-3)
    return estimate_normals(cloud, k=min(k, len(cloud) - 1), viewpoint=centroid + (0.0, 0.0, 10.0 * extent))


def ring_camera(cloud: PointCloud, view_index: int, views: int) -> OrthoCamera:
    """Deterministic camera ring: equally spaced azimuths at a fixed
    elevation, looking at the centroid from 2.5 extents away."""
    if views < 1:
        raise DataError("views must be >= 1")
    if not 0 <= view_index < views:
        raise DataError("view_index out of range")
    centroid = cloud.points.mean(axis=0)
    extent = max(float(np.ptp(cloud.points, axis=0).max()), 1e-3)
    azimuth = 2.0 * math.pi * view_index / views
    elevation = 0.5
    offset = np.array(
        [
            math.cos(azimuth) * math.cos(elevation),
            math.sin(azimuth) * math.cos(elevation),
            math.sin(elevation),
        ]
    )
    return OrthoCamera(centroid + 2.5 * extent * offset, centroid, cell_size=extent / 50.0)


def _parse_split(split: str | None) -> tuple[int, int] | None:
    if split is None:
        return None
    m = re.fullmatch(r"(\d+):(\d+)", split.strip())
    if not m or int(m.group(1)) < 1 or int(m.group(2)) < 1:
        raise DataError(f"split must look like '4:1', got '{split}'")
    return int(m.group(1)), int(m.group(2))


class _ManifestWriter:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.lines: list[str] = []

    def note(self, line: str) -> None:
        self.lines.append(line)

    def artifact(self, relpath: str) -> None:
        digest = hashlib.sha256((self.out_dir / relpath).read_bytes()).hexdigest()
        self.lines.append(f"artifact {relpath} sha256 {digest}")

    def write(self) -> Path:
        body = "\n".join(self.lines)
        digest = hashlib.sha256(body.encode()).hexdigest()
        path = self.out_dir / MANIFEST_NAME
        path.write_text(body + f"\nmanifest-sha256 {digest}\n")
        return path


def generate_dataset(
    objects: list[tuple[str, PointCloud]],
    out_dir,
    config: Config = Config(),
    seed: int = 0,
    views_per_object: int = 4,
    positives_per_object: int = 400,
    split: str | None = None,
    verify: bool = False,
) -> Path:
    """Generate a labeled dataset; returns the manifest path.

    ``objects`` pairs a directory-safe name with a cloud. Ungraspable
    objects and views without positive points are recorded in the
    manifest instead of failing the run. With ``verify`` on, every
    stored grasp is reloaded and re-scored and every stored target is
    decoded and re-scored; any mismatch raises VerificationError.
    """
    if not objects:
        raise DataError("no objects given")
    names = [name for name, _ in objects]
    if len(set(names)) != len(names):
        raise DataError("object names must be unique")
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise DataError(f"object name '{name}' is not directory-safe")
    ratio = _parse_split(split)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gripper = config.gripper()
    anchors = build_anchors(config.anchor_count)
    radius = config.resolved_region_radius()

    manifest = _ManifestWriter(out_dir)
    manifest.note("graspfield dataset manifest")
    manifest.note(f"seed = {seed}")
    manifest.note(f"views_per_object = {views_per_object}")
    manifest.note(f"positives_per_object = {positives_per_object}")
    manifest.note(f"split = {split if split is not None else 'none'}")
    for line in config.lines():
        manifest.note(f"config {line}")
    manifest.note(f"config-sha256 {config.digest()}")

    # (object name, in-memory scoring cloud, [(view relpath, targets relpath)])
    checks: list[tuple[str, PointCloud, list[tuple[str, str]]]] = []
    global_view = 0
    for oi, (name, raw) in enumerate(objects):
        if len(raw) == 0:
            raise DataError(f"object '{name}' has an empty cloud")
        sub = ensure_normals(subsample_cloud(raw, config.subsample_size, derive_seed(seed, oi, 0)))
        try:
            positives = build_positive_set(
                sub,
                gripper,
                mu=config.mu,
                per_object=positives_per_object,
                seed=(seed, oi, 1),
            )
        except UngraspableError as exc:
            manifest.note(f"skipped {name} reason: {exc}")
            continue
        if not positives:
            manifest.note(f"skipped {name} reason: no candidate scored 1")
            continue
        obj_dir = out_dir / name
        obj_dir.mkdir(exist_ok=True)
        manifest.note(f"object {name} points {len(sub)} positives {len(positives)}")
        save_grasps(obj_dir / "grasps.csv", positives)
        manifest.artifact(f"{name}/grasps.csv")

        view_checks: list[tuple[str, str]] = []
        for v in range(views_per_object):
            view = render_single_view(sub, ring_camera(sub, v, views_per_object))
            tag = ""
            if ratio is not None:
                part = "train" if global_view % (ratio[0] + ratio[1]) < ratio[0] else "test"
                tag = f" split {part}"
            global_view += 1

            view_rel = f"{name}/view_{v}.csv"
            save_cloud_text(out_dir / view_rel, view)
            manifest.artifact(view_rel)

            field = confidence_field(
                view, positives, config.distance_threshold, config.confidence_threshold
            )
            labels_rel = f"{name}/labels_{v}.csv"
            save_labels(out_dir / labels_rel, field.values, field.labels)
            manifest.artifact(labels_rel)
            n_pos = int(field.labels.sum())
            manifest.note(f"view {name} {v} points {len(view)} positive_points {n_pos}{tag}")
            if n_pos == 0:
                manifest.note(f"warning {name} view {v}: no positive points")
                continue

            targets = build_proposal_targets(
                view,
                field,
                positives,
                anchors,
                gripper.scale,
                config.region_count,
                radius,
                config.region_size,
                seed=(seed, oi, 2, v),
                match_distance=config.distance_threshold,
            )
            targets_rel = f"{name}/targets_{v}.csv"
            save_proposal_targets(out_dir / targets_rel, targets)
            manifest.artifact(targets_rel)
            view_checks.append((view_rel, targets_rel))
        checks.append((name, sub, view_checks))

    path = manifest.write()
    if verify:
        _verify_dataset(out_dir, checks, config, anchors, gripper)
    return path


def verify_stored_grasps(obj: PointCloud, grasps, gripper, mu: float, where: str = "") -> None:
    """Re-score stored positives; raise VerificationError naming the first
    grasp whose stored or recomputed scores are not (1, 1, 1)."""
    for i, (g, row) in enumerate(zip(grasps, score_grasps(obj, grasps, gripper, mu=mu))):
        if row[2] != 1 or (g.score_antipodal, g.score_collision, g.score) != (1, 1, 1):
            raise VerificationError(f"{where}stored grasp {i} does not re-score to 1")


def _verify_dataset(out_dir: Path, checks, config: Config, anchors, gripper) -> None:
    """Reload artifacts and re-run the physics checks against them."""
    for name, obj_cloud, view_checks in checks:
        grasps = load_grasps(out_dir / name / "grasps.csv")
        verify_stored_grasps(obj_cloud, grasps, gripper, config.mu, where=f"{name}: ")
        for view_rel, targets_rel in view_checks:
            view = load_cloud(out_dir / view_rel)
            # the targets before the first bad index are scored in one call,
            # so a failing score still wins over a later bad index
            indices, decoded, out_of_range = [], [], None
            for point_index, cls, res_c, res_o, res_a in load_proposal_targets(out_dir / targets_rel):
                if not 0 <= point_index < len(view):
                    out_of_range = point_index
                    break
                indices.append(point_index)
                decoded.append(
                    decode_proposal(view.points[point_index], cls, res_c, res_o, res_a, anchors, gripper.scale)
                )
            failed = np.flatnonzero(score_grasps(obj_cloud, decoded, gripper, mu=config.mu)[:, 2] != 1)
            if failed.size:
                raise VerificationError(
                    f"{targets_rel}: decoded target at point {indices[failed[0]]} does not re-score to 1"
                )
            if out_of_range is not None:
                raise VerificationError(f"{targets_rel}: point index {out_of_range} out of range")
