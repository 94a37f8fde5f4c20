"""Point grasp-confidence field and binary point labels.

Each positive grasp contributes 1 - dis/d_th to every point closer than
d_th to its center. Points whose accumulated confidence exceeds c_t are
labeled positive; the boundary value is negative. The field is what the
point segmentation stage learns to predict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError
from .geometry import GraspSet, PointCloud
from .losses import cross_entropy

DEFAULT_DISTANCE_THRESHOLD = 0.02
DEFAULT_CONFIDENCE_THRESHOLD = 0.6
# Points per ball query. The pair arrays hold points times nearby centers
# (about 57 per point on a box view with 400 grasps), so one query over a
# whole view peaked at over three times the memory of these blocks.
_BLOCK = 256


def _check_thresholds(distance_threshold: float, confidence_threshold: float) -> None:
    if not (math.isfinite(distance_threshold) and distance_threshold > 0.0):
        raise DataError("distance_threshold must be finite and positive")
    if not (math.isfinite(confidence_threshold) and confidence_threshold >= 0.0):
        raise DataError("confidence_threshold must be finite and >= 0")


@dataclass(frozen=True)
class ConfidenceField:
    """Per-point confidence values with their binarized labels."""

    values: np.ndarray
    labels: np.ndarray
    confidence_threshold: float
    distance_threshold: float

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if values.ndim != 1 or labels.shape != values.shape:
            raise DataError("values and labels must be aligned 1-d arrays")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise DataError("confidence values must be finite and >= 0")
        _check_thresholds(self.distance_threshold, self.confidence_threshold)
        expect = values > self.confidence_threshold
        if not np.array_equal(labels.astype(bool), expect):
            raise DataError("labels inconsistent with values and confidence_threshold")
        values.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.values)


def confidence_field(
    cloud: PointCloud,
    positives,
    distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD,
    confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
) -> ConfidenceField:
    """Accumulate c_pc over the positive grasp set (a ``GraspSet`` or a
    list of grasps) and binarize.

    Per point: starting from 0.0, add 1 - dis/d_th for each grasp center
    with dis < d_th, in ascending grasp order, where dis is the 1-D
    ``np.linalg.norm`` of point - center. The values are bit-equal to that
    double loop. A KD-tree over the centers only proposes the pairs, with
    its radius widened past its own rounding; the exact test decides.
    """
    _check_thresholds(distance_threshold, confidence_threshold)
    values = np.zeros(len(cloud), dtype=np.float64)
    centers = GraspSet.of(positives).centers
    if len(centers):
        tree = cKDTree(centers)
        reach = distance_threshold * (1.0 + 1e-9)
        for start in range(0, len(cloud), _BLOCK):
            points = cloud.points[start:start + _BLOCK]
            balls = tree.query_ball_point(points, reach, return_sorted=True)
            counts = np.fromiter(map(len, balls), dtype=np.int64, count=len(balls))
            point_idx = np.repeat(np.arange(len(points)), counts)
            grasp_idx = np.fromiter(chain.from_iterable(balls), dtype=np.int64, count=int(counts.sum()))
            diff = points[point_idx] - centers[grasp_idx]
            dis = np.sqrt(np.vecdot(diff, diff))  # bit-equal to the 1-D norm (see geometry)
            near = dis < distance_threshold
            # bincount adds each point's terms from 0.0 in input (ascending grasp) order
            values[start:start + _BLOCK] = np.bincount(
                point_idx[near], weights=1.0 - dis[near] / distance_threshold, minlength=len(points)
            )
    labels = (values > confidence_threshold).astype(np.int64)
    return ConfidenceField(values, labels, confidence_threshold, distance_threshold)


def segmentation_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean two-class cross-entropy of predicted point scores.

    ``scores`` holds per-point probability pairs (negative, positive)
    summing to 1 within 1e-6; ``labels`` holds the true class per point.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[1] != 2:
        raise DataError("scores must be an (N, 2) probability array")
    return cross_entropy(scores, labels) / len(scores)


def segment_positive(field, cloud: PointCloud | None = None) -> np.ndarray:
    """Indices of points considered graspable.

    Accepts either a ground-truth :class:`ConfidenceField` (positive
    label wins) or a predicted (N, 2) score array (positive column
    strictly greater; ties excluded). Ascending order.
    """
    if isinstance(field, ConfidenceField):
        if cloud is not None and len(field) != len(cloud):
            raise DataError("field and cloud sizes differ")
        mask = field.labels == 1
    else:
        scores = np.asarray(field, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[1] != 2:
            raise DataError("expected a ConfidenceField or an (N, 2) score array")
        if cloud is not None and len(scores) != len(cloud):
            raise DataError("field and cloud sizes differ")
        mask = scores[:, 1] > scores[:, 0]
    return np.nonzero(mask)[0]
