"""Proposal refinement: closing-area extraction, refinability selection,
binary refinement labels, and the residual codec between a proposal and
its matched ground-truth grasp.

A proposal is worth refining only when enough points fall between the
jaws; it counts as a positive refinement example when its orientation
and approach angle are already close to the matched ground truth, and
only positives carry regression residuals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GraspFieldWarning
from .geometry import Grasp, GripperModel, PointCloud, box_indices, grasp_frame, local_coords, nearest_center
from .losses import cross_entropy, smooth_l1

REFINE_WEIGHTS = (1.0, 1.0, 1.0, 1.0)  # class, center, orientation, angle
ORIENTATION_GATE = 2.0 * math.pi / 9.0  # 40 deg
ANGLE_GATE = math.pi / 3.0  # 60 deg
DEFAULT_MIN_CLOSING_POINTS = 50

_COS_ORIENTATION_GATE = math.cos(ORIENTATION_GATE)


def closing_area(cloud: PointCloud, g: Grasp, gripper: GripperModel) -> tuple[np.ndarray, np.ndarray]:
    """Points between the jaws of a grasp.

    Returns (ascending indices, their grasp-frame coordinates). The box
    spans finger_length/2 along X, max_opening/2 along Y, and
    finger_height/2 along Z, all inclusive.
    """
    local = local_coords(cloud.points, grasp_frame(g))
    idx = box_indices(local, gripper.closing_half_extents())
    return idx, local[idx]


def select_refinable(
    proposals: list[Grasp],
    cloud: PointCloud,
    gripper: GripperModel,
    min_points: int = DEFAULT_MIN_CLOSING_POINTS,
) -> np.ndarray:
    """Indices of proposals with strictly more than ``min_points`` points
    in their closing area. Exactly ``min_points`` does not qualify."""
    if min_points < 0:
        raise DataError("min_points must be >= 0")
    keep = [
        i
        for i, g in enumerate(proposals)
        if len(closing_area(cloud, g, gripper)[0]) > min_points
    ]
    return np.array(keep, dtype=np.int64)


def refinement_label(proposal: Grasp, gt: Grasp) -> int:
    """1 when the proposal is close enough to refine toward gt.

    Requires the orientation angle strictly under 2*pi/9 and the approach
    angle difference strictly under pi/3; symmetric in its arguments.
    """
    dot = float(np.clip(proposal.orientation @ gt.orientation, -1.0, 1.0))
    # angle >= gate compared in cosine space: exact at the boundary
    if dot <= _COS_ORIENTATION_GATE:
        return 0
    if abs(proposal.angle - gt.angle) >= ANGLE_GATE:
        return 0
    return 1


@dataclass(frozen=True)
class RefineTarget:
    """Refinement label for one proposal; residuals only when label=1."""

    proposal_index: int
    label: int
    res_center: np.ndarray | None = None
    res_orientation: np.ndarray | None = None
    res_angle: float | None = None

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DataError("label must be 0 or 1")
        if self.proposal_index < 0:
            raise DataError("proposal_index must be >= 0")
        residuals = (self.res_center, self.res_orientation, self.res_angle)
        if self.label == 0:
            if any(r is not None for r in residuals):
                raise DataError("negative targets carry no residuals")
            return
        if any(r is None for r in residuals):
            raise DataError("positive targets require all residuals")
        res_c = np.ascontiguousarray(self.res_center, dtype=np.float64)
        res_o = np.ascontiguousarray(self.res_orientation, dtype=np.float64)
        if res_c.shape != (3,) or res_o.shape != (3,):
            raise DataError("residual vectors must be 3-vectors")
        if not (np.all(np.isfinite(res_c)) and np.all(np.isfinite(res_o)) and math.isfinite(self.res_angle)):
            raise DataError("residuals must be finite")
        if np.linalg.norm(res_o) > 2.0 + 1e-9:
            raise DataError("orientation residual exceeds the unit-difference bound")
        res_c.setflags(write=False)
        res_o.setflags(write=False)
        object.__setattr__(self, "res_center", res_c)
        object.__setattr__(self, "res_orientation", res_o)
        object.__setattr__(self, "res_angle", float(self.res_angle))
        object.__setattr__(self, "proposal_index", int(self.proposal_index))
        object.__setattr__(self, "label", int(self.label))


def encode_refinement(proposal: Grasp, gt: Grasp, scale: float, proposal_index: int = 0) -> RefineTarget:
    """Residuals taking the proposal onto its ground-truth grasp.

    Only defined for refinable pairs (label 1); encoding a negative pair
    is an error since negatives carry no regression target.
    """
    if scale <= 0.0:
        raise DataError("scale must be positive")
    if refinement_label(proposal, gt) == 0:
        raise DataError("no target for negatives")
    return RefineTarget(
        proposal_index=proposal_index,
        label=1,
        res_center=(gt.center - proposal.center) / scale,
        res_orientation=gt.orientation - proposal.orientation,
        res_angle=gt.angle - proposal.angle,
    )


def decode_refinement(proposal: Grasp, res_center, res_orientation, res_angle: float, scale: float) -> Grasp:
    """Apply (predicted or encoded) residuals to a proposal.

    The corrected angle is clamped back into [-pi/2, pi/2] with a warning
    when the residual pushes it outside.
    """
    if scale <= 0.0:
        raise DataError("scale must be positive")
    p = proposal.center + np.asarray(res_center, dtype=np.float64) * scale
    v = proposal.orientation + np.asarray(res_orientation, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm < 1e-9:
        raise DataError("degenerate orientation")
    angle = proposal.angle + float(res_angle)
    if abs(angle) > math.pi / 2:
        warnings.warn("approach angle clamped to [-pi/2, pi/2]", GraspFieldWarning, stacklevel=2)
        angle = math.copysign(math.pi / 2, angle)
    return Grasp(p, v / norm, angle)


def build_refinement_targets(
    proposals: list[Grasp],
    cloud: PointCloud,
    positives: list[Grasp],
    gripper: GripperModel,
    scale: float,
    min_points: int = DEFAULT_MIN_CLOSING_POINTS,
) -> list[RefineTarget]:
    """Select refinable proposals, match each to the nearest positive
    grasp center, label it, and encode residuals for the positives."""
    if not positives:
        raise DataError("no positive grasps")
    targets: list[RefineTarget] = []
    for i in select_refinable(proposals, cloud, gripper, min_points):
        proposal = proposals[i]
        gi, _ = nearest_center(positives, proposal.center)
        gt = positives[gi]
        if refinement_label(proposal, gt) == 1:
            targets.append(encode_refinement(proposal, gt, scale, proposal_index=int(i)))
        else:
            targets.append(RefineTarget(proposal_index=int(i), label=0))
    return targets


def refinement_loss(
    class_probs,
    res_center_pred,
    res_orientation_pred,
    res_angle_pred,
    targets: list[RefineTarget],
    weights=REFINE_WEIGHTS,
) -> dict[str, float]:
    """Refinement loss over selected proposals.

    Classification cross-entropy is averaged over all targets; smooth L1
    regression terms average over the label-1 subset only and vanish by
    convention when that subset is empty. Predictions are per-target
    arrays aligned with ``targets``; regression rows for label-0 entries
    are ignored.
    """
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
