"""Shared loss primitives: probability cross-entropy and smooth L1.

These are pure evaluations (no gradients); an external trainer is expected
to differentiate them.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DataError, GraspFieldWarning

PROB_FLOOR = 1e-12

# (loss term, target attribute) of the three residual groups
_RESIDUAL_GROUPS = (("center", "res_center"), ("orientation", "res_orientation"), ("angle", "res_angle"))


def smooth_l1(x, beta: float = 1.0):
    """Elementwise smooth L1: 0.5 x^2 / beta for |x| < beta, else |x| - beta/2.

    Continuous and once-differentiable at the |x| = beta transition.
    """
    if beta <= 0.0:
        raise DataError("beta must be positive")
    a = np.abs(np.asarray(x, dtype=np.float64))
    return np.where(a < beta, 0.5 * a * a / beta, a - 0.5 * beta)


def cross_entropy(probs: np.ndarray, true_classes) -> float:
    """Sum over rows of -log p[true class].

    ``probs`` is (N, C) with rows summing to 1 within 1e-6. Zero
    probabilities on the true class are clamped to 1e-12 with a warning.
    """
    probs = np.asarray(probs, dtype=np.float64)
    true_classes = np.asarray(true_classes, dtype=np.intp)
    if probs.ndim != 2:
        raise DataError("probs must be a 2D (N, C) array")
    if len(probs) != len(true_classes):
        raise DataError("probs and true_classes counts differ")
    if (probs < -1e-9).any():
        raise DataError("probabilities must be non-negative")
    if len(probs) and np.abs(probs.sum(axis=1) - 1.0).max() > 1e-6:
        raise DataError("probability rows must sum to 1 within 1e-6")
    if (true_classes < 0).any() or (true_classes >= probs.shape[1]).any():
        raise DataError("true class index out of range")
    p = probs[np.arange(len(probs)), true_classes]
    if (p < PROB_FLOOR).any():
        warnings.warn(
            "zero (or near-zero) probability on a true class; clamped to 1e-12",
            GraspFieldWarning,
            stacklevel=2,
        )
        p = np.maximum(p, PROB_FLOOR)
    # 0.0 - x instead of -x so a perfect score reports +0.0, not -0.0
    return float(0.0 - np.log(p).sum())


def _weighted_loss(class_probs, classes, preds, rows, regressed, weights) -> dict[str, float]:
    """Loss of a proposal or refinement head: the weighted cross-entropy of
    ``classes`` averaged over every target, plus per residual group of
    ``preds`` (center, orientation, angle; one row per target) the weighted
    smooth L1 between its ``rows`` and the residuals of the ``regressed``
    targets, averaged over those (0.0 when there are none). ``weights`` are
    (class, center, orientation, angle). Returns the total and the terms.
    """
    n = len(classes)
    if n == 0:
        raise DataError("no targets")
    w_cls, w_center, w_orient, w_angle = (float(w) for w in weights)
    ce = cross_entropy(np.asarray(class_probs, dtype=np.float64), classes)
    parts = {"classification": w_cls * ce / n}
    for (name, attr), w, pred in zip(_RESIDUAL_GROUPS, (w_center, w_orient, w_angle), preds):
        parts[name] = 0.0
        if not regressed:
            continue
        truth = np.array([getattr(t, attr) for t in regressed])
        pred = np.asarray(pred, dtype=np.float64)
        expected = (n, *truth.shape[1:])
        if pred.shape != expected:
            raise DataError(f"{name} predictions must cover all {n} targets with shape {expected}")
        parts[name] = w * float(smooth_l1(pred[rows] - truth).sum()) / len(regressed)
    parts["total"] = sum(parts.values())
    return parts
