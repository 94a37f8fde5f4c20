"""Anchor-based encoding of grasp proposals.

A small set of reference orientations (anchors) discretizes the sphere.
A ground-truth grasp at a region center is encoded as the nearest anchor's
index plus residuals: center offset in gripper-scale units, orientation
difference vector, and the approach angle itself (the reference angle is
zero). Decoding inverts the construction, so a proposal head only has to
classify the anchor and regress small corrections.

The residual codec is shared with the refine network (:mod:`.refine`),
which regresses the same residuals from a proposal instead of an anchor:
``_encode_residuals``/``_decode_residuals`` take the reference grasp as
``(center, orientation, angle)``, and ``_residual_arrays`` validates the
stored residuals of both target types.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .confidence import DEFAULT_DISTANCE_THRESHOLD
from .errors import DataError, GraspFieldWarning
from .geometry import Grasp, GraspSet, PointCloud, _nearest_centers, _norms, canonical_orientation
from .losses import _weighted_loss
from .region import extract_regions

DEFAULT_ANCHOR_COUNT = 8
PROPOSAL_WEIGHTS = (0.2, 10.0, 5.0, 1.0)  # class, center, orientation, angle

_MIN_ANCHOR_ANGLE = math.radians(10.0)


@dataclass(frozen=True)
class AnchorSet:
    """Reference orientations; the reference angle of every anchor is 0."""

    orientations: np.ndarray

    def __post_init__(self):
        ori = np.ascontiguousarray(self.orientations, dtype=np.float64)
        if ori.ndim != 2 or ori.shape[1] != 3 or ori.shape[0] < 2:
            raise DataError("orientations must be an (M, 3) array with M >= 2")
        norms = np.linalg.norm(ori, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise DataError("anchor orientations must be unit length")
        dots = np.clip(ori @ ori.T, -1.0, 1.0)
        np.fill_diagonal(dots, -1.0)
        if math.acos(float(dots.max())) <= _MIN_ANCHOR_ANGLE:
            raise DataError("anchor orientations must be pairwise distinct (> 10 deg apart)")
        ori.setflags(write=False)
        object.__setattr__(self, "orientations", ori)

    def __len__(self) -> int:
        return len(self.orientations)


def build_anchors(count: int = DEFAULT_ANCHOR_COUNT) -> AnchorSet:
    """Equiangular anchor construction.

    count=8 gives the normalized cube corners (every nearest-neighbor
    angle ~70.53 deg); count=6 gives the positive and negative world
    axes. No other count admits an equal-angle layout on the sphere.
    """
    if count == 8:
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        return AnchorSet(corners / math.sqrt(3.0))
    if count == 6:
        return AnchorSet(np.concatenate((np.eye(3), -np.eye(3))))
    raise DataError("no equiangular construction")


def nearest_anchor(anchors: AnchorSet, orientation) -> int:
    """Index of the anchor at minimal angle to ``orientation`` (lowest
    index on ties). Invariant under positive rescaling of the input."""
    r = np.asarray(orientation, dtype=np.float64)
    n = np.linalg.norm(r)
    if n < 1e-12:
        raise DataError("cannot classify a zero-length orientation")
    return int(np.argmax(anchors.orientations @ (r / n)))


@dataclass(frozen=True)
class ProposalTarget:
    """Encoded regression target for one region center.

    center is the region's anchor point p_a in the cloud frame; residuals
    are relative to it and to the classified anchor orientation.
    """

    center: np.ndarray
    anchor_class: int
    res_center: np.ndarray
    res_orientation: np.ndarray
    res_angle: float

    def __post_init__(self):
        center = np.ascontiguousarray(self.center, dtype=np.float64)
        if center.shape != (3,) or not np.all(np.isfinite(center)):
            raise DataError("center must be a finite 3-vector")
        res_c, res_o, res_a = _residual_arrays(self.res_center, self.res_orientation, self.res_angle)
        if self.anchor_class < 0:
            raise DataError("anchor_class must be a valid index")
        if not -math.pi / 2 - 1e-12 <= res_a <= math.pi / 2 + 1e-12:
            raise DataError("res_angle out of [-pi/2, pi/2]")
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "res_center", res_c)
        object.__setattr__(self, "res_orientation", res_o)
        object.__setattr__(self, "anchor_class", int(self.anchor_class))
        object.__setattr__(self, "res_angle", res_a)


def _residual_arrays(res_center, res_orientation, res_angle) -> tuple[np.ndarray, np.ndarray, float]:
    """Validated residuals of a stored target: read-only center and
    orientation 3-vectors and the angle as a float."""
    res_c = np.ascontiguousarray(res_center, dtype=np.float64)
    res_o = np.ascontiguousarray(res_orientation, dtype=np.float64)
    if res_c.shape != (3,) or res_o.shape != (3,):
        raise DataError("residual vectors must be 3-vectors")
    if not (np.all(np.isfinite(res_c)) and np.all(np.isfinite(res_o)) and math.isfinite(res_angle)):
        raise DataError("residuals must be finite")
    if np.linalg.norm(res_o) > 2.0 + 1e-9:
        raise DataError("orientation residual exceeds the unit-difference bound")
    res_c.setflags(write=False)
    res_o.setflags(write=False)
    return res_c, res_o, float(res_angle)


def _encode_residuals(ref, gt, scale: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Residuals taking the reference grasp ``ref`` onto ``gt``, both given
    as (center, orientation, angle): the center offset in units of
    ``scale``, the orientation difference and the angle difference."""
    if scale <= 0.0:
        raise DataError("scale must be positive")
    (center, orientation, angle), (gt_center, gt_orientation, gt_angle) = ref, gt
    return (gt_center - center) / scale, gt_orientation - orientation, gt_angle - angle


def _decode_residuals(ref, res_center, res_orientation, res_angle, scale: float) -> GraspSet:
    """Apply residuals row by row to G reference grasps ``ref = (centers,
    orientations, angles)``: the inverse of :func:`_encode_residuals`.

    The orientations are renormalized (:func:`~.geometry._norms`, the 1-D
    norm's bits); a residual that cancels its reference orientation is
    rejected. Angles outside [-pi/2, pi/2] are clamped back with a warning.
    """
    if scale <= 0.0:
        raise DataError("scale must be positive")
    centers, orientations, angles = ref
    p = centers + np.asarray(res_center, dtype=np.float64).reshape(-1, 3) * scale
    v = orientations + np.asarray(res_orientation, dtype=np.float64).reshape(-1, 3)
    norms = _norms(v)
    if (norms < 1e-9).any():
        raise DataError("degenerate orientation")
    angles = angles + np.asarray(res_angle, dtype=np.float64)
    clamp = np.abs(angles) > math.pi / 2
    if clamp.any():
        warnings.warn("approach angle clamped to [-pi/2, pi/2]", GraspFieldWarning, stacklevel=4)
        angles[clamp] = np.copysign(math.pi / 2, angles[clamp])
    return GraspSet(p, v / norms, angles)


def encode_proposal(center, gt: Grasp, anchors: AnchorSet, scale: float) -> ProposalTarget:
    """Encode a ground-truth grasp relative to a region center.

    The gt orientation is sign-canonicalized first (the fingertip line is
    headless); grasps produced by this package's sampler already are.
    """
    center = np.asarray(center, dtype=np.float64)
    r = canonical_orientation(gt.orientation)
    cls = nearest_anchor(anchors, r)
    # x - 0.0 == x for every float, so the angle residual is gt.angle itself
    residuals = _encode_residuals((center, anchors.orientations[cls], 0.0), (gt.center, r, gt.angle), scale)
    return ProposalTarget(center, cls, *residuals)


def decode_proposal(
    center,
    anchor_class: int,
    res_center,
    res_orientation,
    res_angle: float,
    anchors: AnchorSet,
    scale: float,
) -> Grasp:
    """Invert :func:`encode_proposal` for a target or a raw prediction.

    Out-of-range angles are clamped to [-pi/2, pi/2] with a warning;
    a residual that cancels the anchor is rejected.
    """
    residuals = ([res_center], [res_orientation], [res_angle])
    return _decode_proposals([center], [anchor_class], *residuals, anchors, scale)[0]


def _decode_proposals(centers, classes, res_center, res_orientation, res_angle, anchors, scale) -> GraspSet:
    """:func:`decode_proposal` of G targets (per-row arrays) at once."""
    classes = np.asarray(classes, dtype=np.intp)
    if ((classes < 0) | (classes >= len(anchors))).any():
        raise DataError("anchor_class must be a valid index")
    # the reference angle is -0.0, not 0.0: x + -0.0 == x for every float,
    # -0.0 included, so the decoded angle is res_angle itself
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    ref = (centers, anchors.orientations[classes], -np.zeros(len(classes)))
    return _decode_residuals(ref, res_center, res_orientation, res_angle, scale)


def build_proposal_targets(
    cloud: PointCloud,
    field,
    positives,
    anchors: AnchorSet,
    scale: float,
    k1: int,
    radius: float,
    size: int,
    seed: int,
    match_distance: float = DEFAULT_DISTANCE_THRESHOLD,
) -> list[tuple[int, ProposalTarget]]:
    """Region extraction plus target encoding for one labeled cloud.

    Each region center is matched to the nearest positive grasp center
    (one batched match over ``positives``, a ``GraspSet`` or a list of
    grasps); the match must lie strictly within ``match_distance``
    (points labeled from these grasps always satisfy that) or the region
    is dropped. Returns (point index, target) pairs in region order.
    """
    positives = GraspSet.of(positives)
    if not len(positives):
        raise DataError("no positive grasps")
    index = [reg.center_index for reg in extract_regions(cloud, field, k1, radius, size, seed)]
    nearest, dist = _nearest_centers(positives.centers, cloud.points[index])
    # a region whose match is too far was not labeled from these grasps: nothing to regress
    return [
        (i, encode_proposal(cloud.points[i], positives[gi], anchors, scale))
        for i, gi, d in zip(index, nearest, dist)
        if d < match_distance
    ]


def proposal_loss(
    class_probs,
    res_center_pred,
    res_orientation_pred,
    res_angle_pred,
    targets: list[ProposalTarget],
    weights=PROPOSAL_WEIGHTS,
) -> dict[str, float]:
    """Weighted proposal loss over the encoded region targets.

    Sum of the anchor-classification cross-entropy and elementwise smooth
    L1 over the three residual groups, each weighted then normalized by
    the target count. Returns the total and the per-term breakdown.
    """
    classes = np.array([t.anchor_class for t in targets], dtype=np.int64)
    preds = (res_center_pred, res_orientation_pred, res_angle_pred)
    return _weighted_loss(class_probs, classes, preds, slice(None), targets, weights)
