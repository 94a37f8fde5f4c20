"""Command line interface.

One executable with subcommands covering the pipeline stages:

    sample-grasps     sample and score a positive grasp set
    confidence        label per-point grasp confidence
    make-targets      encode proposal targets from a labeled view
    refine-targets    label and encode refinement targets for proposals
    eval-vgr          score a predicted grasp set against an object
    generate-dataset  run the whole pipeline over objects

Exit codes: 0 success, 1 usage error, 2 data or config error,
3 verification failure (with --verify).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .anchors import build_anchors, build_proposal_targets, decode_proposal
from .confidence import confidence_field
from .config import Config, load_config
from .dataset import ensure_normals, generate_dataset, verify_stored_grasps
from .errors import DataError, GraspFieldError, VerificationError
from .fileio import (
    load_cloud,
    load_grasps,
    load_labels,
    load_pose,
    load_proposal_targets,
    load_refine_targets,
    save_grasps,
    save_labels,
    save_proposal_targets,
    save_refine_targets,
)
from .geometry import Grasp, _nearest, canonical_orientation
from .metrics import evaluate, load_report, save_report
from .refine import build_refinement_targets, decode_refinement
from .sampling import build_positive_set

_ROUND_TRIP_TOL = 1e-9


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _config(args) -> Config:
    """``--config``, then ``--gripper`` over it, then the override flags
    over both; each override flag's dest is the config key it sets."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(Config)}
    return load_config(args.config, getattr(args, "gripper", None), overrides=overrides)


def _out_path(args, default_name: str) -> Path:
    out = Path(getattr(args, "out", None) or default_name)
    if not out.is_absolute():
        out = Path(args.out_dir) / out
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _grasp_mismatch(a, b) -> bool:
    """True when two grasps differ beyond the round-trip tolerance; the
    orientation is a headless axis, so it is compared by the shorter chord
    to ``b`` or ``-b``."""
    chord = min(np.linalg.norm(a.orientation - b.orientation), np.linalg.norm(a.orientation + b.orientation))
    return (
        np.linalg.norm(a.center - b.center) >= _ROUND_TRIP_TOL
        or chord >= _ROUND_TRIP_TOL
        or abs(a.angle - b.angle) >= _ROUND_TRIP_TOL
    )


def _verify_decoded(decoded, grasps, what: str) -> None:
    """Check that each decoded target is the grasp nearest its reference
    center; ``decoded`` yields (row index, reference center, grasp)."""
    centers = np.array([g.center for g in grasps]).reshape(-1, 3)
    for index, center, grasp in decoded:
        if _grasp_mismatch(grasp, grasps[_nearest(centers, center)[0]]):
            raise VerificationError(f"{what} {index} does not decode to its grasp")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sample_grasps(args) -> int:
    config = _config(args)
    gripper = config.gripper()
    cloud = ensure_normals(load_cloud(args.object))
    positives = build_positive_set(cloud, gripper, mu=config.mu, per_object=args.count, seed=args.seed)
    out = _out_path(args, "grasps.csv")
    save_grasps(out, positives)
    print(f"wrote {len(positives)} grasps to {out}")
    if args.verify:
        verify_stored_grasps(cloud, load_grasps(out), gripper, config.mu)
        print(f"verify: {len(positives)} grasps re-score to 1")
    return 0


def _cmd_confidence(args) -> int:
    config = _config(args)
    cloud = load_cloud(args.cloud)
    grasps = load_grasps(args.grasps)
    field = confidence_field(cloud, grasps, config.distance_threshold, config.confidence_threshold)
    out = _out_path(args, "labels.csv")
    save_labels(out, field.values, field.labels)
    print(f"wrote {len(field)} labels ({int(field.labels.sum())} positive) to {out}")
    if args.verify:
        values, labels = load_labels(out)
        if not (np.array_equal(values, field.values) and np.array_equal(labels, field.labels)):
            raise VerificationError("stored labels do not round-trip")
        print("verify: labels round-trip exactly")
    return 0


def _cmd_make_targets(args) -> int:
    config = _config(args)
    gripper = config.gripper()
    view = load_cloud(args.cloud)
    values, labels = load_labels(args.labels)
    if len(values) != len(view):
        raise DataError("label count does not match the cloud")
    positives = load_grasps(args.grasps)
    anchors = build_anchors(config.anchor_count)
    label_scores = np.stack([1.0 - labels, labels.astype(np.float64)], axis=1)
    targets = build_proposal_targets(
        view,
        label_scores,
        positives,
        anchors,
        gripper.scale,
        config.region_count,
        config.resolved_region_radius(),
        config.region_size,
        seed=args.seed,
        match_distance=config.distance_threshold,
    )
    out = _out_path(args, "targets.csv")
    save_proposal_targets(out, targets)
    print(f"wrote {len(targets)} targets to {out}")
    if args.verify:
        # targets encode the sign-canonical orientation of their grasp
        encoded = [Grasp(g.center, canonical_orientation(g.orientation), g.angle) for g in positives]
        decoded = (
            (i, view.points[i], decode_proposal(view.points[i], cls, *res, anchors, gripper.scale))
            for i, cls, *res in load_proposal_targets(out)
        )
        _verify_decoded(decoded, encoded, "target at point")
        print(f"verify: {len(targets)} targets decode to their grasps")
    return 0


def _cmd_refine_targets(args) -> int:
    config = _config(args)
    gripper = config.gripper()
    cloud = load_cloud(args.cloud)
    proposals = load_grasps(args.proposals)
    positives = load_grasps(args.grasps)
    targets = build_refinement_targets(
        proposals, cloud, positives, gripper, gripper.scale, config.min_closing_points
    )
    out = _out_path(args, "rn_targets.csv")
    save_refine_targets(out, targets)
    n_pos = sum(t.label for t in targets)
    print(f"wrote {len(targets)} refinement targets ({n_pos} positive) to {out}")
    if args.verify:
        decoded = (
            (i, proposals[i].center, decode_refinement(proposals[i], *res, gripper.scale))
            for i, label, *res in load_refine_targets(out)
            if label
        )
        _verify_decoded(decoded, positives, "refinement target")
        print(f"verify: {n_pos} positive targets decode to their grasps")
    return 0


def _cmd_eval_vgr(args) -> int:
    config = _config(args)
    gripper = config.gripper()
    predicted = load_grasps(args.pred)
    obj = ensure_normals(load_cloud(args.object))
    pose = load_pose(args.pose)
    report = evaluate(predicted, pose, obj, gripper, mu=config.mu)
    out = _out_path(args, "report.csv")
    save_report(out, report)
    print(
        f"k3={report.k3} kT={report.kT} vgr={report.vgr:.4f} "
        f"vagr={report.vagr:.4f} vcgr={report.vcgr:.4f}"
    )
    if args.verify:
        try:
            stored = load_report(out)
        except DataError as exc:
            raise VerificationError(str(exc)) from exc
        if not np.array_equal(stored.scores, report.scores):
            raise VerificationError("stored report does not match the computed scores")
        print("verify: report round-trips exactly")
    return 0


def _cmd_generate_dataset(args) -> int:
    config = _config(args)
    objects = []
    for path in args.objects:
        objects.append((Path(path).stem, load_cloud(path)))
    manifest = generate_dataset(
        objects,
        args.out_dir,
        config,
        seed=args.seed,
        views_per_object=args.views,
        positives_per_object=args.positives,
        split=args.split,
        verify=args.verify,
    )
    print(f"manifest: {manifest}")
    print(manifest.read_text().splitlines()[-1])
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_non_negative_int, default=0, help="base random seed")
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--out-dir", default=".", help="directory for outputs")
    common.add_argument(
        "--verify", action="store_true", help="re-check written outputs; exit 3 on mismatch"
    )

    # An override flag's dest is the config key it sets; _config lays it
    # over the config files, so the config schema checks it.
    parser = _Parser(prog="graspfield", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("sample-grasps", parents=[common], help="sample and score positive grasps")
    p.add_argument("--object", required=True, help="object point cloud")
    p.add_argument("--gripper", help="gripper config file (overlays --config)")
    p.add_argument("--count", type=_positive_int, default=400, help="positive grasps to collect")
    p.add_argument("--mu", type=float, help="friction coefficient")
    p.add_argument("--out", help="output grasp CSV (default grasps.csv)")
    p.set_defaults(func=_cmd_sample_grasps)

    p = sub.add_parser("confidence", parents=[common], help="label per-point grasp confidence")
    p.add_argument("--cloud", required=True, help="point cloud to label")
    p.add_argument("--grasps", required=True, help="positive grasp CSV")
    p.add_argument("--dth", dest="distance_threshold", type=float, help="confidence distance threshold (m)")
    p.add_argument("--ct", dest="confidence_threshold", type=float, help="positive-label confidence threshold")
    p.add_argument("--out", help="output label CSV (default labels.csv)")
    p.set_defaults(func=_cmd_confidence)

    p = sub.add_parser("make-targets", parents=[common], help="encode proposal targets")
    p.add_argument("--cloud", required=True, help="single-view point cloud")
    p.add_argument("--labels", required=True, help="label CSV for the cloud")
    p.add_argument("--grasps", required=True, help="positive grasp CSV")
    p.add_argument("--k1", dest="region_count", type=_positive_int, help="region count")
    p.add_argument("--m1", dest="anchor_count", type=int, choices=(6, 8), help="anchor count")
    p.add_argument("--out", help="output target CSV (default targets.csv)")
    p.set_defaults(func=_cmd_make_targets)

    p = sub.add_parser("refine-targets", parents=[common], help="encode refinement targets")
    p.add_argument("--cloud", required=True, help="single-view point cloud")
    p.add_argument("--proposals", required=True, help="proposal grasp CSV")
    p.add_argument("--grasps", required=True, help="positive grasp CSV")
    p.add_argument(
        "--min-points",
        dest="min_closing_points",
        type=_non_negative_int,
        help="closing-area point cutoff (strictly more required)",
    )
    p.add_argument("--out", help="output target CSV (default rn_targets.csv)")
    p.set_defaults(func=_cmd_refine_targets)

    p = sub.add_parser("eval-vgr", parents=[common], help="score predicted grasps")
    p.add_argument("--pred", required=True, help="predicted grasp CSV (world frame)")
    p.add_argument("--object", required=True, help="object point cloud (object frame)")
    p.add_argument("--pose", required=True, help="12-number row-major world-to-object transform")
    p.add_argument("--gripper", help="gripper config file (overlays --config)")
    p.add_argument("--mu", type=float, help="friction coefficient")
    p.add_argument("--out", help="output report (default report.csv)")
    p.set_defaults(func=_cmd_eval_vgr)

    p = sub.add_parser("generate-dataset", parents=[common], help="run the full pipeline")
    p.add_argument("--objects", required=True, nargs="+", help="object point cloud files")
    p.add_argument("--views", type=_positive_int, default=4, help="views per object")
    p.add_argument("--positives", type=_positive_int, default=400, help="positive grasps per object")
    p.add_argument("--split", help="train:test view ratio, e.g. 4:1")
    p.set_defaults(func=_cmd_generate_dataset)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except (GraspFieldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
