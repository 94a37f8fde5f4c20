"""Grasp candidate sampling, positive-set construction, and single-view
rendering for dataset building.

Candidates come from antipodal ray casting: pick a surface point, shoot a
ray inside its friction cone, find the exit contact, and keep pairs that
fit between the jaws. The scorer (not the sampler) defines ground truth,
so sampler bias only affects coverage.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GraspFieldWarning, UngraspableError
from .geometry import Grasp, GripperModel, PointCloud, _as_array, _cross3, canonical_orientation, derive_seed, unit
from .quality import DEFAULT_CONTACT_TOL, DEFAULT_MU, score_grasps

ATTEMPT_FACTOR = 100


def _perpendicular(v: np.ndarray) -> np.ndarray:
    """Any unit vector perpendicular to v."""
    axis = np.zeros(3)
    axis[np.argmin(np.abs(v))] = 1.0
    return unit(_cross3(v, axis))


def _sample_cone(rng: np.random.Generator, axis: np.ndarray, half_angle: float) -> np.ndarray:
    """Direction drawn uniformly on the spherical cap around ``axis``."""
    u, w = rng.random(2)
    cos_psi = 1.0 - u * (1.0 - math.cos(half_angle))
    sin_psi = math.sqrt(max(0.0, 1.0 - cos_psi * cos_psi))
    phi = 2.0 * math.pi * w
    e1 = _perpendicular(axis)
    e2 = _cross3(axis, e1)
    return axis * cos_psi + (e1 * math.cos(phi) + e2 * math.sin(phi)) * sin_psi


def sample_candidates(
    obj: PointCloud,
    gripper: GripperModel,
    count: int,
    seed,
    mu: float = DEFAULT_MU,
    ray_tol: float = DEFAULT_CONTACT_TOL,
) -> list[Grasp]:
    """Sample up to ``count`` unscored antipodal grasp candidates.

    Per attempt: pick a random surface point, sample a closing direction
    inside its friction cone (half-angle arctan mu), find the farthest
    surface point within ``ray_tol`` of that ray as the opposite contact,
    and reject pairs wider than the jaw opening or whose realized closing
    line leaves the friction cone. Deterministic given the seed; raises
    :class:`UngraspableError` when 100x``count`` attempts yield nothing.
    """
    if len(obj) == 0:
        raise DataError("object cloud is empty")
    if obj.normals is None:
        raise DataError("normals required to sample candidates")
    if count <= 0:
        raise DataError("count must be positive")
    if mu <= 0.0:
        raise DataError("mu must be positive")
    rng = np.random.default_rng(seed)
    pts = obj.points
    nrm = obj.normals
    half_angle = math.atan(mu)
    cos_half = math.cos(half_angle)

    out: list[Grasp] = []
    for _ in range(ATTEMPT_FACTOR * count):
        if len(out) >= count:
            break
        i = int(rng.integers(len(pts)))
        direction = _sample_cone(rng, -nrm[i], half_angle)

        rel = pts - pts[i]
        t = rel @ direction
        perp_sq = np.einsum("ni,ni->n", rel, rel) - t * t
        hits = np.nonzero((t > ray_tol) & (perp_sq <= ray_tol * ray_tol))[0]
        if hits.size == 0:
            continue
        j = hits[np.argmax(t[hits])]

        span = pts[j] - pts[i]
        width = float(np.linalg.norm(span))
        if width > gripper.max_opening:
            continue
        r = canonical_orientation(span / width)  # fingertip line is headless
        if abs(float(r @ nrm[i])) < cos_half:
            continue  # realized closing line left the friction cone
        theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        out.append(Grasp((pts[i] + pts[j]) / 2.0, r, theta))

    if not out:
        raise UngraspableError("object not graspable at this gripper scale")
    return out


def build_positive_set(
    obj: PointCloud,
    gripper: GripperModel,
    mu: float = DEFAULT_MU,
    per_object: int = 400,
    seed=0,
    tol: float = DEFAULT_CONTACT_TOL,
) -> list[Grasp]:
    """Sample and score candidates, keeping the first ``per_object`` grasps
    whose combined quality score is 1.

    Every returned grasp re-scores to 1 against the same object. When the
    attempt budget (100x``per_object`` scored candidates) runs out first, a
    :class:`GraspFieldWarning` reports the shortfall and the partial set is
    returned.
    """
    if per_object < 0:
        raise DataError("per_object must be >= 0")
    if per_object == 0:
        return []
    budget = ATTEMPT_FACTOR * per_object
    chunk = max(32, per_object)
    positives: list[Grasp] = []
    drawn = 0
    batch = 0
    while len(positives) < per_object and drawn < budget:
        want = min(chunk, budget - drawn)
        candidates = sample_candidates(
            obj, gripper, want, derive_seed(seed, batch), mu=mu, ray_tol=tol
        )
        drawn += want  # budget counts attempts handed to the sampler
        batch += 1
        start = 0  # slices no longer than the shortfall: nothing past the last positive is scored
        while start < len(candidates) and len(positives) < per_object:
            part = candidates[start : start + per_object - len(positives)]
            start += len(part)
            for g, (sa, sc, s) in zip(part, score_grasps(obj, part, gripper, mu=mu, tol=tol)):
                if s == 1:
                    positives.append(g.with_scores(sa, sc))
    if len(positives) < per_object:
        warnings.warn(
            f"only {len(positives)} of {per_object} positive grasps found within the attempt budget",
            GraspFieldWarning,
            stacklevel=2,
        )
    return positives


@dataclass(frozen=True)
class OrthoCamera:
    """Orthographic camera: a viewing direction plus a square pixel grid of
    pitch ``cell_size`` perpendicular to it."""

    position: np.ndarray
    target: np.ndarray
    cell_size: float
    up: np.ndarray = (0.0, 0.0, 1.0)

    def __post_init__(self):
        for name in ("position", "target", "up"):
            object.__setattr__(self, name, _as_array(getattr(self, name), (3,), name))
        if not self.up.any():
            raise DataError("up must be a non-zero vector")
        if not self.cell_size > 0.0:  # NaN too
            raise DataError("cell_size must be positive")

    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        forward = unit(self.target - self.position)
        rightward = np.cross(forward, self.up)
        if np.linalg.norm(rightward) < 1e-6:
            rightward = np.cross(forward, np.array([1.0, 0.0, 0.0]))
            if np.linalg.norm(rightward) < 1e-6:
                rightward = np.cross(forward, np.array([0.0, 1.0, 0.0]))
        rightward = unit(rightward)
        return forward, rightward, np.cross(rightward, forward)


def render_single_view(obj: PointCloud, camera: OrthoCamera) -> PointCloud:
    """Self-occlusion culling: project onto the camera grid and keep only
    the nearest point per cell (ties by lowest index). The output is a
    subset of the input points, still in the world frame."""
    if len(obj) == 0:
        raise DataError("object cloud is empty")
    forward, rightward, upward = camera.basis()
    rel = obj.points - camera.position
    depth = rel @ forward
    visible = np.nonzero(depth > 0.0)[0]
    if visible.size == 0:
        return obj.select(visible)
    u = np.floor(rel[visible] @ rightward / camera.cell_size).astype(np.int64)
    v = np.floor(rel[visible] @ upward / camera.cell_size).astype(np.int64)
    order = np.lexsort((visible, depth[visible], v, u))
    u, v, visible = u[order], v[order], visible[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return obj.select(np.sort(visible[first]))
