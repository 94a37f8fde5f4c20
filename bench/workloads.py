"""Seeded benchmark inputs, the commands each workload runs, and readers
that turn the commands' outputs into counts and digests.

Inputs are built from numpy and ``graspfield.synthetic`` only and written
with a writer of this file, so a change to the sampler, the physics or
the file writers of the package cannot change what a workload feeds in.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from graspfield import synthetic

OBJECTS_POSITIVES = 400
SCENE_POSITIVES = 100
VIEWS = 4
COMMAND_SEED = 0
PREDICTIONS = 3000
REFERENCE_GRASPS_PER_AXIS = 27
BOX_HALF = np.array((0.03, 0.025, 0.015))  # synthetic.box_cloud() default

_CLOUD_HEADER = "# fields: x,y,z,nx,ny,nz"
_GRASP_HEADER = "px,py,pz,rx,ry,rz,theta,sa,sc,sg"


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix from a normalised Gaussian quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def _yaw(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _fmt_rows(rows: np.ndarray) -> list[str]:
    # repr() is the shortest decimal that round-trips a float64 exactly
    return [",".join(repr(v) for v in row) for row in rows.tolist()]


def _write_cloud(path: Path, points: np.ndarray, normals: np.ndarray) -> dict:
    lines = [_CLOUD_HEADER] + _fmt_rows(np.hstack([points, normals]))
    path.write_text("\n".join(lines) + "\n")
    return {"file": path.name, "points": len(points), "sha256": sha256_file(path)}


def _write_grasps(path: Path, centers: np.ndarray, orientations: np.ndarray, angles: np.ndarray) -> dict:
    rows = np.hstack([centers, orientations, angles[:, None]])
    lines = [_GRASP_HEADER] + [f"{row},-1,-1,-1" for row in _fmt_rows(rows)]
    path.write_text("\n".join(lines) + "\n")
    return {"file": path.name, "grasps": len(centers), "sha256": sha256_file(path)}


def _write_pose(path: Path, rotation: np.ndarray, translation: np.ndarray) -> dict:
    m = np.hstack([rotation, translation[:, None]])
    path.write_text("\n".join(" ".join(repr(v) for v in row) for row in m.tolist()) + "\n")
    return {"file": path.name, "sha256": sha256_file(path)}


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------


def _objects_mixed(rng: np.random.Generator, out: Path) -> list[dict]:
    """Four small objects, each under a seeded rigid pose. Label health per
    object: box all positive, cylinder mixed, small sphere all negative,
    large sphere (wider than the jaw opening) ungraspable and skipped."""
    objects = (
        ("box", synthetic.box_cloud()),
        ("cylinder", synthetic.cylinder_cloud()),
        ("sphere_small", synthetic.sphere_cloud(radius=0.035)),
        ("sphere_wide", synthetic.sphere_cloud()),
    )
    records = []
    for name, cloud in objects:
        r = _rotation(rng)
        t = rng.uniform(-0.05, 0.05, size=3)
        records.append(_write_cloud(out / f"{name}.csv", cloud.points @ r.T + t, cloud.normals @ r.T))
    return records


def _scene(rng: np.random.Generator, out: Path) -> list[dict]:
    """A table-top scene: a 0.5 m plane grid with a box, a cylinder and a
    sphere resting on it, 0.12 m from the middle at 120 degree spacing.

    The seed shifts the whole scene across the table by up to 5 cm. Each
    seed gives other input bytes, while the pipeline (relative ray casts,
    a camera ring around the centroid) does the same work on each. Moving
    the objects against each other by only 3 mm made the number of
    proposal targets range from 22 to 29 over five seeds.
    """
    plane = synthetic.plane_grid(half_size=0.25, spacing=0.004)
    parts = [(plane.points, plane.normals)]
    objects = (
        (synthetic.box_cloud(), 0.015),
        (synthetic.cylinder_cloud(), 0.04),
        (synthetic.sphere_cloud(radius=0.03), 0.03),
    )
    for slot, (cloud, lift) in enumerate(objects):
        bearing = 2.0 * math.pi * slot / len(objects)
        t = np.array([0.12 * math.cos(bearing), 0.12 * math.sin(bearing), lift])
        parts.append((cloud.points @ _yaw(bearing).T + t, cloud.normals @ _yaw(bearing).T))
    shift = np.append(rng.uniform(-0.05, 0.05, size=2), 0.0)
    points = np.concatenate([p for p, _ in parts]) + shift
    normals = np.concatenate([n for _, n in parts])
    return [_write_cloud(out / "scene.csv", points, normals)]


def _box_grasps(rng: np.random.Generator, count: int, axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic box grasps in the object frame: the jaws close along a
    face normal, centered on the box's mid-plane across that axis."""
    centers = rng.uniform(-0.8, 0.8, size=(count, 3)) * BOX_HALF
    centers[np.arange(count), axes] = 0.0
    orientations = np.zeros((count, 3))
    orientations[np.arange(count), axes] = rng.choice((-1.0, 1.0), size=count)
    return centers, orientations


def _eval_predictions(rng: np.random.Generator, out: Path) -> list[dict]:
    """Noisy analytic box grasps as predictions, noise-free analytic box
    grasps as the refinement ground truth, the box under a seeded pose."""
    box = synthetic.box_cloud()
    rotation, translation = _rotation(rng), rng.uniform(-0.2, 0.2, size=3)

    axes = rng.integers(3, size=PREDICTIONS)
    centers, orientations = _box_grasps(rng, PREDICTIONS, axes)
    centers += rng.normal(scale=0.004, size=centers.shape)
    orientations += rng.normal(scale=0.3, size=orientations.shape)
    orientations /= np.linalg.norm(orientations, axis=1, keepdims=True)
    angles = rng.uniform(-math.pi / 2, math.pi / 2, size=PREDICTIONS)

    ref_axes = np.repeat(np.arange(3), REFERENCE_GRASPS_PER_AXIS)
    ref_centers, ref_orientations = _box_grasps(rng, len(ref_axes), ref_axes)
    ref_angles = rng.uniform(-math.pi / 2, math.pi / 2, size=len(ref_axes))

    # The pose file maps world to object (x_obj = R x_world + t); the
    # predictions, the reference grasps and the view live in the world.
    def to_world(p):
        return (p - translation) @ rotation

    return [
        _write_cloud(out / "box.csv", box.points, box.normals),
        _write_pose(out / "pose.txt", rotation, translation),
        _write_grasps(out / "pred.csv", to_world(centers), orientations @ rotation, angles),
        _write_grasps(out / "reference.csv", to_world(ref_centers), ref_orientations @ rotation, ref_angles),
        _write_cloud(out / "view.csv", to_world(box.points), box.normals @ rotation),
    ]


# workload -> (stream id mixed into the seed, function writing the inputs)
_INPUTS = {
    "objects-mixed": (0, _objects_mixed),
    "scene-20k": (1, _scene),
    "eval-predictions": (2, _eval_predictions),
}


def write_inputs(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the workload's input files for ``seed`` into ``out`` and return
    a record (file, point or grasp count, SHA-256) per file."""
    out.mkdir(parents=True, exist_ok=True)
    stream, write = _INPUTS[workload]
    return write(np.random.default_rng([seed, stream]), out)


def commands(workload: str, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every ``graspfield`` command the workload runs.

    The commands' own ``--seed`` is pinned: the benchmark seed varies the
    input geometry only. Varying the sampler stream as well moves the
    number of candidates a dataset needs by about 12% between seeds,
    which would swamp the run-to-run spread the bounds are meant to see.
    """
    common = ["--seed", str(COMMAND_SEED), "--out-dir", str(out), "--verify"]
    if workload == "objects-mixed":
        objects = [str(inputs / f"{n}.csv") for n in ("box", "cylinder", "sphere_small", "sphere_wide")]
        return [
            (
                "generate-dataset",
                ["generate-dataset", "--objects", *objects, "--views", str(VIEWS),
                 "--positives", str(OBJECTS_POSITIVES), *common],
            )
        ]
    if workload == "scene-20k":
        return [
            (
                "generate-dataset",
                ["generate-dataset", "--objects", str(inputs / "scene.csv"), "--views", str(VIEWS),
                 "--positives", str(SCENE_POSITIVES), *common],
            )
        ]
    return [
        (
            "eval-vgr",
            ["eval-vgr", "--pred", str(inputs / "pred.csv"), "--object", str(inputs / "box.csv"),
             "--pose", str(inputs / "pose.txt"), "--out", "report.csv", *common],
        ),
        (
            "refine-targets",
            ["refine-targets", "--cloud", str(inputs / "view.csv"), "--proposals", str(inputs / "pred.csv"),
             "--grasps", str(inputs / "reference.csv"), "--out", "rn_targets.csv", *common],
        ),
    ]


# ---------------------------------------------------------------------------
# Output readers: counts and digests, plus the checks of the output gate
# ---------------------------------------------------------------------------


def _data_rows(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if ln.strip() and not ln.startswith("#")][1:]


def read_dataset(workload: str, out: Path) -> tuple[dict, list[str]]:
    """Counts from a generate-dataset output directory, and the problems
    found: a manifest whose self-hash or artifact hashes do not recompute,
    or (objects-mixed) a wide object that was not skipped."""
    problems = []
    manifest = out / "manifest.txt"
    lines = manifest.read_text().splitlines()
    body, last = lines[:-1], lines[-1]
    if last != "manifest-sha256 " + hashlib.sha256("\n".join(body).encode()).hexdigest():
        problems.append("manifest self-hash does not recompute")
    counts = dict(positives=0, views=0, targets=0, objects_skipped=0,
                  views_all_positive=0, views_all_negative=0)
    skipped = []
    for line in body:
        words = line.split()
        if words[0] == "artifact":
            rel, digest = words[1], words[3]
            if sha256_file(out / rel) != digest:
                problems.append(f"artifact {rel} does not match its manifest hash")
            if rel.split("/")[-1].startswith("targets_"):
                counts["targets"] += len(_data_rows(out / rel))
        elif words[0] == "object":
            counts["positives"] += int(words[5])
        elif words[0] == "view":
            points, positive = int(words[4]), int(words[6])
            counts["views"] += 1
            counts["views_all_positive"] += positive == points
            counts["views_all_negative"] += positive == 0
        elif words[0] == "skipped":
            counts["objects_skipped"] += 1
            skipped.append(words[1])
    if workload == "objects-mixed" and "sphere_wide" not in skipped:
        problems.append("the sphere wider than the jaw opening was not skipped")
    # --verify re-scores every stored grasp and every decoded target once
    counts["verified_grasps"] = counts["positives"] + counts["targets"]
    return counts, problems


def read_eval(out: Path) -> tuple[dict, list[str]]:
    """Counts from the eval-vgr report and the refine-targets output, and
    the problems found in them."""
    problems = []
    report = (out / "report.csv").read_text().splitlines()
    k3, kt, kt_a, kt_c = (int(v) for v in report[1].split(",")[:4])
    scores = np.array([[int(v) for v in ln.split(",")[1:]] for ln in report[3:]], dtype=np.int64)
    if k3 != PREDICTIONS or scores.shape != (PREDICTIONS, 3):
        problems.append(f"report scores {len(scores)} grasps, expected {PREDICTIONS}")
    elif (kt, kt_a, kt_c) != tuple(int(v) for v in scores.sum(axis=0)[[2, 0, 1]]):
        problems.append("report counts disagree with its score table")
    elif not np.array_equal(scores[:, 2], scores[:, :2].min(axis=1)):
        problems.append("report combined scores are not min(antipodal, collision)")
    targets = [ln.split(",") for ln in _data_rows(out / "rn_targets.csv")]
    indices = [int(t[0]) for t in targets]
    if indices != sorted(set(indices)) or (indices and not 0 <= indices[0] <= indices[-1] < PREDICTIONS):
        problems.append("refinement targets do not index distinct proposals in order")
    counts = dict(
        predictions=PREDICTIONS,
        valid=kt,
        selected=len(targets),
        positive_targets=sum(t[1] == "1" for t in targets),
    )
    return counts, problems


def read_outputs(workload: str, out: Path) -> tuple[dict, list[str], dict]:
    """Counts, problems and output digests of one iteration."""
    if workload == "eval-predictions":
        counts, problems = read_eval(out)
        names = ("report.csv", "rn_targets.csv")
    else:
        counts, problems = read_dataset(workload, out)
        names = ("manifest.txt",)
    return counts, problems, {name: sha256_file(out / name) for name in names}
