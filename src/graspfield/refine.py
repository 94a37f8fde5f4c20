"""Proposal refinement: refinability selection by closing-area count,
binary refinement labels, and the residual codec between a proposal set
and its matched ground-truth grasps.

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
from .geometry import GraspSet, GripperModel, PointCloud, _nearest_centers
from .losses import _weighted_loss

REFINE_WEIGHTS = (1.0, 1.0, 1.0, 1.0)  # class, center, orientation, angle
ORIENTATION_GATE = 2.0 * math.pi / 9.0  # 40 deg
ANGLE_GATE = math.pi / 3.0  # 60 deg
DEFAULT_MIN_CLOSING_POINTS = 50

_COS_ORIENTATION_GATE = math.cos(ORIENTATION_GATE)


def select_refinable(
    proposals: GraspSet,
    cloud: PointCloud,
    gripper: GripperModel,
    min_points: int = DEFAULT_MIN_CLOSING_POINTS,
) -> np.ndarray:
    """Indices of the proposals with strictly more than ``min_points``
    points in their closing area: the box of
    :meth:`~.geometry.GripperModel.closing_half_extents` in the grasp
    frame, all bounds inclusive. Exactly ``min_points`` does not qualify."""
    if min_points < 0:
        raise DataError("min_points must be >= 0")
    hx, hy, hz = half = gripper.closing_half_extents()
    slabs = cloud._scoring_index.slabs(proposals.centers, proposals.rotations(), -half, half, hz)
    counts = [np.count_nonzero((np.abs(x) <= hx) & (np.abs(y) <= hy)) for _, _, (x, y, _) in slabs]
    return np.flatnonzero(np.array(counts, dtype=np.int64) > min_points)


def _refinement_labels(orientations, angles, gt_orientations, gt_angles) -> np.ndarray:
    """1 for each proposal close enough to refine toward its ground truth,
    over aligned arrays: the orientation angle strictly under 2*pi/9 and
    the approach angle difference strictly under pi/3; symmetric in the
    two grasps. ``np.vecdot`` has the bits of ``a @ b``."""
    dots = np.clip(np.vecdot(orientations, gt_orientations), -1.0, 1.0)
    # angle >= gate compared in cosine space: exact at the boundary
    close = (dots > _COS_ORIENTATION_GATE) & (np.abs(np.subtract(angles, gt_angles)) < ANGLE_GATE)
    return close.astype(np.int64)


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


def decode_refinements(proposals: GraspSet, res_center, res_orientation, res_angle, scale: float) -> GraspSet:
    """Apply (predicted or encoded) per-row residuals to G proposals.

    A corrected angle is clamped back into [-pi/2, pi/2] with a warning
    when the residual pushes it outside.
    """
    ref = (proposals.centers, proposals.orientations, proposals.angles)
    return _decode_residuals(ref, res_center, res_orientation, res_angle, scale)


def build_refinement_targets(
    proposals: GraspSet,
    cloud: PointCloud,
    positives: GraspSet,
    gripper: GripperModel,
    scale: float,
    min_points: int = DEFAULT_MIN_CLOSING_POINTS,
) -> list[RefineTarget]:
    """Select refinable proposals, match each to the nearest positive
    grasp center in one batch, label it, and encode residuals for the
    positives."""
    if not len(positives):
        raise DataError("no positive grasps")
    selected = select_refinable(proposals, cloud, gripper, min_points)
    chosen = proposals[selected]
    gts = positives[_nearest_centers(positives.centers, chosen.centers)[0]]
    labels = _refinement_labels(chosen.orientations, chosen.angles, gts.orientations, gts.angles)
    res_center, res_orientation, res_angle = _encode_residuals(
        (chosen.centers, chosen.orientations, chosen.angles), (gts.centers, gts.orientations, gts.angles), scale
    )
    return [
        RefineTarget(int(i), 1, res_center[k], res_orientation[k], float(res_angle[k]))
        if labels[k]
        else RefineTarget(int(i), 0)
        for k, i in enumerate(selected)
    ]


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
