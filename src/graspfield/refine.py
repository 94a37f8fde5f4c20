"""Proposal refinement: closing-area extraction, refinability selection,
binary refinement labels, and the residual codec between a proposal and
its matched ground-truth grasp.

A proposal is worth refining only when enough points fall between the
jaws; it counts as a positive refinement example when its orientation
and approach angle are already close to the matched ground truth, and
only positives carry regression residuals.

The residuals are those of the proposal head's codec in :mod:`.anchors`
(``_encode_residuals``/``_decode_residuals``, with the proposal as the
reference grasp in place of an anchor), validated by the same
``_residual_arrays``; the loss is the shared ``losses._weighted_loss``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchors import _decode_residuals, _encode_residuals, _residual_arrays
from .errors import DataError
from .geometry import (
    Grasp,
    GripperModel,
    PointCloud,
    _grasp_rotations,
    _nearest,
    grasp_columns,
    grasp_frame,
    local_coords,
)
from .losses import _weighted_loss

REFINE_WEIGHTS = (1.0, 1.0, 1.0, 1.0)  # class, center, orientation, angle
ORIENTATION_GATE = 2.0 * math.pi / 9.0  # 40 deg
ANGLE_GATE = math.pi / 3.0  # 60 deg
DEFAULT_MIN_CLOSING_POINTS = 50

_COS_ORIENTATION_GATE = math.cos(ORIENTATION_GATE)


def _closing_box(work: np.ndarray, center: np.ndarray, rotation: np.ndarray, gripper: GripperModel):
    """Slab indices, their (3, M) grasp-frame coordinates, and the mask of
    the slab points inside the closing box."""
    hx, hy, hz = gripper.closing_half_extents()
    idx, local = local_coords(work, center, rotation, hz)
    return idx, local, (np.abs(local[0]) <= hx) & (np.abs(local[1]) <= hy)


def closing_area(cloud: PointCloud, g: Grasp, gripper: GripperModel) -> tuple[np.ndarray, np.ndarray]:
    """Points between the jaws of a grasp.

    Returns (ascending indices, their grasp-frame coordinates). The box
    spans finger_length/2 along X, max_opening/2 along Y, and
    finger_height/2 along Z, all inclusive.
    """
    frame = grasp_frame(g)
    idx, local, inside = _closing_box(grasp_columns(cloud.points), frame.origin, frame.rotation, gripper)
    return idx[inside], np.ascontiguousarray(local[:, inside].T)


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
    work = grasp_columns(cloud.points)
    keep = [
        i
        for i, (center, r) in enumerate(zip(*_grasp_rotations(proposals)))
        if np.count_nonzero(_closing_box(work, center, r, gripper)[2]) > min_points
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
        res_c, res_o, res_a = _residual_arrays(*residuals)
        object.__setattr__(self, "res_center", res_c)
        object.__setattr__(self, "res_orientation", res_o)
        object.__setattr__(self, "res_angle", res_a)
        object.__setattr__(self, "proposal_index", int(self.proposal_index))
        object.__setattr__(self, "label", int(self.label))


def encode_refinement(proposal: Grasp, gt: Grasp, scale: float, proposal_index: int = 0) -> RefineTarget:
    """Residuals taking the proposal onto its ground-truth grasp.

    Only defined for refinable pairs (label 1); encoding a negative pair
    is an error since negatives carry no regression target.
    """
    residuals = _encode_residuals(
        (proposal.center, proposal.orientation, proposal.angle), (gt.center, gt.orientation, gt.angle), scale
    )
    if refinement_label(proposal, gt) == 0:
        raise DataError("no target for negatives")
    return RefineTarget(proposal_index, 1, *residuals)


def decode_refinement(proposal: Grasp, res_center, res_orientation, res_angle: float, scale: float) -> Grasp:
    """Apply (predicted or encoded) residuals to a proposal.

    The corrected angle is clamped back into [-pi/2, pi/2] with a warning
    when the residual pushes it outside.
    """
    ref = (proposal.center, proposal.orientation, proposal.angle)
    return _decode_residuals(ref, res_center, res_orientation, res_angle, scale)


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
    centers = np.array([g.center for g in positives])
    targets: list[RefineTarget] = []
    for i in select_refinable(proposals, cloud, gripper, min_points):
        proposal = proposals[i]
        gi, _ = _nearest(centers, proposal.center)
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
    labels = np.array([t.label for t in targets], dtype=np.int64)
    pos = np.nonzero(labels == 1)[0]
    preds = (res_center_pred, res_orientation_pred, res_angle_pred)
    return _weighted_loss(class_probs, labels, preds, pos, [targets[i] for i in pos], weights)
