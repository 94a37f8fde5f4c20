"""Grasp candidate sampling, positive-set construction, and single-view
rendering for dataset building.

Candidates come from antipodal ray casting: pick a surface point, shoot a
ray inside its friction cone, find the exit contact, and keep pairs that
fit between the jaws. The scorer (not the sampler) defines ground truth,
so sampler bias only affects coverage.

The exit contact is the farthest point within ``ray_tol`` of the ray, the
lowest index on ties. One exact test finds it: ``rel @ direction``, an
``einsum`` and an ``argmax``. On clouds of :data:`RAY_INDEX_MIN_POINTS`
points or more, a KD-tree built once per object first proposes a sorted
superset of the points near the ray, and the exact test runs on that
superset only. The tree only proposes and the exact test decides. The
test computes each row's bits as the whole-cloud scan does, and the
sorted superset keeps ties going to the lowest index, so the candidates
are the same either way. Smaller clouds scan every point, because there
the per-ray tree queries cost more than the scan they save.

Before any cast, one KD-tree query per object proves origins dead, on
every cloud size (:class:`_DeadOrigins`). An accepted candidate's partner
lies within the jaw opening of the origin, on a line within the friction
cone of the origin's normal; an origin whose cone holds no other point
can never yield a candidate. The scan path also checks lazily: the first
failed attempt from a live origin runs the exact whole-cloud check, which
proves more origins dead than the query. Attempts at a dead origin still
make the cone draw, so the random stream and the candidates stay the
same, but skip the cast, and once no origin is alive the sampler gives
up. Table points and objects wider than the jaws so cast no ray at all.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GraspFieldWarning, UngraspableError
from .geometry import (
    GraspSet,
    GripperModel,
    PointCloud,
    _as_array,
    _kdtree,
    canonical_orientation,
    derive_seed,
    unit,
)
from .quality import DEFAULT_CONTACT_TOL, DEFAULT_MU, _check_friction, score_grasps

ATTEMPT_FACTOR = 100

# Clouds of at least this many points cast rays against the KD-tree. The
# crossover was measured per attempt (CHANGES.md): the tree took 0.9-1.6x
# the scan's time on the benchmark's 1.4k-3.2k point objects, and 0.1-0.9x
# on every cloud of 4096 points or more (table-scene subsets, denser boxes
# and spheres). Every cloud builds the tree, for the dead-origin
# certificate; only this size and up cast against it.
RAY_INDEX_MIN_POINTS = 4096

_EPS = float(np.finfo(np.float64).eps)


class _RayIndex:
    """KD-tree over a cloud that proposes, per ray, a sorted superset of
    the points the exact hit test can accept.

    Take a point at distance ``s`` along the unit ray and ``w`` off it. The
    test computes ``t = s |d|`` and ``perp_sq = w^2 + s^2 (1 - |d|^2)``, so
    it can accept the point only if ``w^2 <= tol^2 + s^2 (|d|^2 - 1)``,
    plus rounding of order ``eps`` times the squared extent (the box
    diagonal plus the largest coordinate, which also bounds the rounding
    of the ball centres). ``reach`` bounds that ``w`` with a relative
    margin of 1e-6, so the tree can only over-propose. The point lies in
    the cloud's bounding box, so the foot of its perpendicular lies on the
    ray inside the box padded by ``reach``. Balls of radius
    ``reach * sqrt(2)`` centred every ``2 * reach`` along that stretch of
    the ray cover every such point.
    """

    def __init__(self, points: np.ndarray, tol: float, origins: _DeadOrigins | None = None):
        self.origins = origins  # the sampler's dead origins, whose tree this shares
        self.tree = _kdtree(points) if origins is None else origins.tree
        self.lo = points.min(axis=0).tolist()
        self.hi = points.max(axis=0).tolist()
        extent = math.dist(self.lo, self.hi) + float(np.abs(points).max())
        self.tol_sq = tol * tol
        self.extent_sq = extent * extent

    def near_ray(self, origin: np.ndarray, direction: np.ndarray) -> np.ndarray:
        """Sorted indices of every point the exact test may accept. Points
        in two balls repeat, which the test's ``argmax`` resolves to the
        same point."""
        d = direction.tolist()
        norm_sq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        reach = (1.0 + 1e-6) * math.sqrt(self.tol_sq + self.extent_sq * (max(0.0, norm_sq - 1.0) + 16.0 * _EPS))
        norm = math.sqrt(norm_sq)
        o = origin.tolist()
        leave = math.inf  # where the ray leaves the padded box; the origin is inside
        for k in range(3):
            u = d[k] / norm
            if u > 0.0:
                leave = min(leave, (self.hi[k] + reach - o[k]) / u)
            elif u < 0.0:
                leave = min(leave, (self.lo[k] - reach - o[k]) / u)
        step = 2.0 * reach
        centres = origin + np.arange(math.ceil(leave / step) + 1)[:, None] * (direction * (step / norm))
        balls = self.tree.query_ball_point(centres, reach * math.sqrt(2.0), return_sorted=False)
        return np.sort(np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp))


class _DeadOrigins:
    """The origins that can never yield a candidate, for one object, jaw
    opening and ``mu``; built once and shared by every batch.

    Every accepted pair passes :func:`_closing_line`: its partner ``j``
    has ``0 < |p_j - p_i| <= max_opening`` and
    ``|(p_j - p_i) . n_i| >= cos(atan mu) |p_j - p_i|``. An origin with no
    such point within a relative slack of 1e-6, far above the rounding of
    either test, is dead; the slack can only keep an origin alive.

    One tree query certifies origins dead up front. A point ``p_i + v``
    whose angle to ``-n_i`` has cosine ``cos`` lies in the ball of radius
    ``c`` centred at ``p_i - c n_i`` iff ``|v| <= 2 c cos``. With
    ``c = reach / (2 cos_limit)`` that ball holds every partner on the
    inward side. A partner on the outward side is a hit ahead of a ray
    within the cone around ``-n_i``, so it needs a cone half-angle of 45
    degrees or more; from there the mirrored ball must be empty too, and
    at 90 nothing is certified. :meth:`failed` adds the exact check of
    :meth:`alive` on an origin's first failed attempt.
    """

    def __init__(self, obj: PointCloud, max_opening: float, mu: float):
        self.points = obj.points
        self.normals = obj.normals
        self.reach = max_opening * (1.0 + 1e-6)
        self.cos_limit = math.cos(math.atan(mu)) - 1e-6
        self.tree = _kdtree(obj.points)
        n = len(obj)
        dead = np.full(n, self.cos_limit > 0.0)  # at 90 degrees nothing is certified
        if self.cos_limit > 0.0:
            c = self.reach / (2.0 * self.cos_limit)
            axis = c * self.normals / np.linalg.norm(self.normals, axis=1, keepdims=True)
            for side in (-1.0,) if self.cos_limit > math.sqrt(0.5) else (-1.0, 1.0):  # 45 degrees
                # indices, not distances: rounding cannot drop p_i from its own ball
                found = self.tree.query(self.points + side * axis, k=2, distance_upper_bound=c * (1.0 + 1e-6))[1]
                dead &= ((found == np.arange(n)[:, None]) | (found == n)).all(axis=1)
        self.checked = [False] * n
        self.dead = dead.tolist()
        self.live = n - int(dead.sum())  # origins not proven dead

    def alive(self, i: int) -> bool:
        """Whether any point can be origin ``i``'s partner."""
        rel = self.points - self.points[i]
        dist = np.sqrt(np.einsum("ni,ni->n", rel, rel))
        along = np.abs(rel @ self.normals[i])
        return bool(np.any((dist > 0.0) & (dist <= self.reach) & (along >= self.cos_limit * dist)))

    def failed(self, i: int) -> None:
        """Record a failed attempt from origin ``i``: the first one checks it."""
        if self.checked[i]:
            return
        self.checked[i] = True
        if not self.alive(i):
            self.dead[i] = True
            self.live -= 1


def _perpendicular(v: tuple[float, float, float]) -> tuple[float, float, float]:
    """Any unit vector perpendicular to v: v cross the axis of its smallest
    component, lowest index on ties. Float arithmetic as ``_cross3``; the
    norm stays ``np.linalg.norm``, whose summation a plain sum of squares
    does not match."""
    v0, v1, v2 = v
    a0, a1, a2 = abs(v0), abs(v1), abs(v2)
    if a0 <= a1 and a0 <= a2:
        b0, b1, b2 = 1.0, 0.0, 0.0
    elif a1 <= a2:
        b0, b1, b2 = 0.0, 1.0, 0.0
    else:
        b0, b1, b2 = 0.0, 0.0, 1.0
    c = (v1 * b2 - v2 * b1, v2 * b0 - v0 * b2, v0 * b1 - v1 * b0)
    n = float(np.linalg.norm(c))
    return c[0] / n, c[1] / n, c[2] / n


def _sample_cone(rng: np.random.Generator, axis: tuple[float, float, float], half_angle: float) -> np.ndarray:
    """Direction drawn uniformly on the spherical cap around ``axis``."""
    u, w = rng.random(2).tolist()
    cos_psi = 1.0 - u * (1.0 - math.cos(half_angle))
    sin_psi = math.sqrt(max(0.0, 1.0 - cos_psi * cos_psi))
    phi = 2.0 * math.pi * w
    a0, a1, a2 = axis
    p0, p1, p2 = _perpendicular(axis)
    q0, q1, q2 = a1 * p2 - a2 * p1, a2 * p0 - a0 * p2, a0 * p1 - a1 * p0
    c, s = math.cos(phi), math.sin(phi)
    return np.array(
        [
            a0 * cos_psi + (p0 * c + q0 * s) * sin_psi,
            a1 * cos_psi + (p1 * c + q1 * s) * sin_psi,
            a2 * cos_psi + (p2 * c + q2 * s) * sin_psi,
        ]
    )


def _check_sampler_inputs(obj: PointCloud, mu: float, ray_tol: float) -> None:
    if len(obj) == 0:
        raise DataError("object cloud is empty")
    if obj.normals is None:
        raise DataError("normals required to sample candidates")
    _check_friction(mu=mu)
    if not (math.isfinite(ray_tol) and ray_tol > 0.0):
        raise DataError(f"ray_tol must be a finite positive number, got {ray_tol}")


def sample_candidates(
    obj: PointCloud,
    gripper: GripperModel,
    count: int,
    seed,
    mu: float = DEFAULT_MU,
    ray_tol: float = DEFAULT_CONTACT_TOL,
) -> GraspSet:
    """Sample up to ``count`` unscored antipodal grasp candidates.

    Per attempt: pick a random surface point, sample a closing direction
    inside its friction cone (half-angle arctan mu), find the farthest
    surface point within ``ray_tol`` of that ray as the opposite contact
    (lowest index on ties), and reject pairs wider than the jaw opening or
    whose realized closing line leaves the friction cone. The ray index and
    the dead origins (module docstring) never change the candidates.
    Deterministic given the seed; raises :class:`UngraspableError` when
    100x``count`` attempts yield nothing, or sooner once every origin is
    dead: without a single cast when the up-front query proves them all.
    """
    if count <= 0:
        raise DataError("count must be positive")
    _check_sampler_inputs(obj, mu, ray_tol)
    return _sample(obj, gripper, count, seed, mu, ray_tol, _sampler_state(obj, gripper, mu, ray_tol))


def _sampler_state(obj: PointCloud, gripper: GripperModel, mu: float, tol: float) -> _RayIndex | _DeadOrigins:
    """The per-object state every batch shares: the dead origins, and on
    clouds of :data:`RAY_INDEX_MIN_POINTS` or more the ray index over
    their tree (smaller clouds scan every point)."""
    origins = _DeadOrigins(obj, gripper.max_opening, mu)
    if len(obj) >= RAY_INDEX_MIN_POINTS:
        return _RayIndex(obj.points, tol, origins)
    return origins


def _cast(pts: np.ndarray, i: int, direction: np.ndarray, tol: float, index: _RayIndex | None) -> int | None:
    """The exit contact of the ray from ``pts[i]``: the farthest point
    within ``tol`` of it, lowest index on ties; ``None`` when none is
    ahead. ``index`` narrows the points tested (``None`` scans all)."""
    # The superset always holds the origin i. A one-row product rounds
    # differently from the whole-cloud one, but that row is the origin
    # itself (t = 0), which never hits.
    near = None if index is None else index.near_ray(pts[i], direction)
    rel = (pts if near is None else pts[near]) - pts[i]
    t = rel @ direction
    perp_sq = np.einsum("ni,ni->n", rel, rel) - t * t
    hits = np.nonzero((t > tol) & (perp_sq <= tol * tol))[0]
    if hits.size == 0:
        return None
    j = int(hits[np.argmax(t[hits])])
    return j if near is None else int(near[j])


def _closing_line(pts: np.ndarray, nrm: np.ndarray, i: int, j: int, max_opening: float, cos_half: float):
    """The canonical closing line of contacts ``i`` and ``j``, or ``None``
    when they are wider than the jaws or the line leaves the friction
    cone of the origin's normal."""
    span = pts[j] - pts[i]
    width = float(np.linalg.norm(span))
    if width > max_opening:
        return None
    r = canonical_orientation(span / width)  # fingertip line is headless
    return r if abs(float(r @ nrm[i])) >= cos_half else None


def _sample(
    obj: PointCloud,
    gripper: GripperModel,
    count: int,
    seed,
    mu: float,
    ray_tol: float,
    state: _RayIndex | _DeadOrigins,
) -> GraspSet:
    """The attempt loop of :func:`sample_candidates` on checked inputs,
    with the object's state from :func:`_sampler_state`."""
    rng = np.random.default_rng(seed)
    pts = obj.points
    nrm = obj.normals
    half_angle = math.atan(mu)
    cos_half = math.cos(half_angle)
    index = state if isinstance(state, _RayIndex) else None
    memo = state if index is None else state.origins

    centers, orientations, angles = [], [], []
    for _ in range(ATTEMPT_FACTOR * count):
        if len(angles) >= count or memo.live == 0:
            break
        i = int(rng.integers(len(pts)))
        if memo.dead[i]:
            rng.random(2)  # the cone draw, so the stream stays the same
            continue
        direction = _sample_cone(rng, (-nrm[i]).tolist(), half_angle)
        j = _cast(pts, i, direction, ray_tol, index)
        r = None if j is None else _closing_line(pts, nrm, i, j, gripper.max_opening, cos_half)
        if r is None:
            if index is None:  # the scan path also checks lazily
                memo.failed(i)
            continue
        centers.append((pts[i] + pts[j]) / 2.0)
        orientations.append(r)
        angles.append(float(rng.uniform(-math.pi / 2, math.pi / 2)))

    if not angles:
        raise UngraspableError("object not graspable at this gripper scale")
    return GraspSet(centers, orientations, angles)


def build_positive_set(
    obj: PointCloud,
    gripper: GripperModel,
    mu: float = DEFAULT_MU,
    per_object: int = 400,
    seed=0,
    tol: float = DEFAULT_CONTACT_TOL,
) -> GraspSet:
    """Sample and score candidates, keeping the first ``per_object`` grasps
    whose combined quality score is 1, as one scored set.

    Every returned grasp re-scores to 1 against the same object. The
    budget is 100x``per_object`` requested candidates; each sampler batch
    makes 100 attempts per candidate it is asked for. When the budget runs
    out first, or a batch after the first yields no candidate, a
    :class:`GraspFieldWarning` reports the shortfall and names which of the
    two ended it, and the partial set is returned. :class:`UngraspableError`
    means the first batch yielded no candidate. The object's dead origins,
    and from :data:`RAY_INDEX_MIN_POINTS` points its ray index, are built
    once and shared by every batch, so an origin proven dead stays dead.
    """
    if per_object < 0:
        raise DataError("per_object must be >= 0")
    if per_object == 0:
        return GraspSet([], [], [])
    _check_sampler_inputs(obj, mu, tol)
    state = _sampler_state(obj, gripper, mu, tol)
    budget = ATTEMPT_FACTOR * per_object
    chunk = max(32, per_object)
    kept = []  # (centers, orientations, angles, scores) of each part's positives
    found = 0
    drawn = 0
    batch = 0
    cause = "within the attempt budget"
    while found < per_object and drawn < budget:
        want = min(chunk, budget - drawn)
        try:
            candidates = _sample(obj, gripper, want, derive_seed(seed, batch), mu, tol, state)
        except UngraspableError:
            if batch == 0:
                raise
            # earlier batches yielded candidates: end with the shortfall
            cause = f"before sampler batch {batch + 1} yielded no candidate ({drawn} of {budget} budgeted drawn)"
            break
        drawn += want  # budget counts requested candidates, not attempts
        batch += 1
        start = 0  # slices no longer than the shortfall: nothing past the last positive is scored
        while start < len(candidates) and found < per_object:
            part = candidates[start : start + per_object - found]
            start += len(part)
            scores = score_grasps(obj, part, gripper, mu=mu, tol=tol)
            positive = scores[:, 2] == 1
            kept.append((*(a[positive] for a in (part.centers, part.orientations, part.angles)), scores[positive]))
            found += int(positive.sum())
    if found < per_object:
        warnings.warn(
            f"only {found} of {per_object} positive grasps found {cause}",
            GraspFieldWarning,
            stacklevel=2,
        )
    # GraspSet normalizes each orientation once more; the pinned dataset digests hold that pass
    return GraspSet(*map(np.concatenate, zip(*kept)))


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
