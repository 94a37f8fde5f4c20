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

The scan path also remembers dead origins. An accepted candidate's
partner lies within the jaw opening of the origin, on a line within the
friction cone of the origin's normal. The first failed attempt from an
origin checks whether any point does; if none does, no draw from that
origin can ever yield a candidate. Later attempts there still make the
cone draw, so the random stream and the candidates stay the same, but
skip the cast, and once every origin is dead the sampler gives up. An
object wider than the jaws then costs one cast per origin, not the whole
attempt budget. The tree path keeps no such memo: on scene-sized clouds
origins rarely repeat, and the check, a ball of radius ``max_opening``
holding about a thousand points of a table plane, costs more than the
casts it saves.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, GraspFieldWarning, UngraspableError
from .geometry import Grasp, GripperModel, PointCloud, _as_array, canonical_orientation, derive_seed, unit
from .quality import DEFAULT_CONTACT_TOL, DEFAULT_MU, score_grasps

ATTEMPT_FACTOR = 100

# Clouds of at least this many points cast rays against the KD-tree. The
# crossover was measured per attempt (CHANGES.md): the tree took 0.9-1.6x
# the scan's time on the benchmark's 1.4k-3.2k point objects, and 0.1-0.9x
# on every cloud of 4096 points or more (table-scene subsets, denser boxes
# and spheres).
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

    def __init__(self, points: np.ndarray, tol: float):
        self.tree = cKDTree(points)
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
    """Scan-path memo of the origins that can never yield a candidate.

    Every accepted pair passes :func:`_closing_line`: its partner ``j``
    has ``0 < |p_j - p_i| <= max_opening`` and
    ``|(p_j - p_i) . n_i| >= cos(atan mu) |p_j - p_i|``. An origin with no
    such point within a relative slack of 1e-6, far above the rounding of
    either test, is dead; the slack can only keep an origin alive. Built
    once per object, gripper and ``mu``, and shared by every batch.
    """

    def __init__(self, obj: PointCloud, max_opening: float, mu: float):
        self.points = obj.points
        self.normals = obj.normals
        self.reach = max_opening * (1.0 + 1e-6)
        self.cos_limit = math.cos(math.atan(mu)) - 1e-6
        self.checked = [False] * len(obj)
        self.dead = [False] * len(obj)
        self.live = len(obj)  # origins not proven dead

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
    if not (math.isfinite(mu) and mu > 0.0):
        raise DataError(f"mu must be a finite positive number, got {mu}")
    if not (math.isfinite(ray_tol) and ray_tol > 0.0):
        raise DataError(f"ray_tol must be a finite positive number, got {ray_tol}")


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
    surface point within ``ray_tol`` of that ray as the opposite contact
    (lowest index on ties), and reject pairs wider than the jaw opening or
    whose realized closing line leaves the friction cone. Clouds of
    :data:`RAY_INDEX_MIN_POINTS` points or more get a KD-tree that only
    narrows the points the exact test runs on; the candidates are the
    same as from a whole-cloud scan. Smaller clouds skip the cast from
    origins proven dead (no point within the opening and the friction
    cone); the candidates are the same as without the memo.
    Deterministic given the seed; raises :class:`UngraspableError` when
    100x``count`` attempts yield nothing, or sooner once every origin of
    a scanned cloud is dead.
    """
    if count <= 0:
        raise DataError("count must be positive")
    _check_sampler_inputs(obj, mu, ray_tol)
    return _sample(obj, gripper, count, seed, mu, ray_tol, _sampler_state(obj, gripper, mu, ray_tol))


def _sampler_state(obj: PointCloud, gripper: GripperModel, mu: float, tol: float) -> _RayIndex | _DeadOrigins:
    """The per-object state every batch shares: the ray index for
    scene-sized clouds, the dead-origin memo (scan every point) below
    :data:`RAY_INDEX_MIN_POINTS`."""
    if len(obj) >= RAY_INDEX_MIN_POINTS:
        return _RayIndex(obj.points, tol)
    return _DeadOrigins(obj, gripper.max_opening, mu)


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
) -> list[Grasp]:
    """The attempt loop of :func:`sample_candidates` on checked inputs,
    with the object's state from :func:`_sampler_state`."""
    rng = np.random.default_rng(seed)
    pts = obj.points
    nrm = obj.normals
    half_angle = math.atan(mu)
    cos_half = math.cos(half_angle)
    index = state if isinstance(state, _RayIndex) else None
    memo = state if isinstance(state, _DeadOrigins) else None

    out: list[Grasp] = []
    for _ in range(ATTEMPT_FACTOR * count):
        if len(out) >= count or (memo is not None and memo.live == 0):
            break
        i = int(rng.integers(len(pts)))
        if memo is not None and memo.dead[i]:
            rng.random(2)  # the cone draw, so the stream stays the same
            continue
        direction = _sample_cone(rng, (-nrm[i]).tolist(), half_angle)
        j = _cast(pts, i, direction, ray_tol, index)
        r = None if j is None else _closing_line(pts, nrm, i, j, gripper.max_opening, cos_half)
        if r is None:
            if memo is not None:
                memo.failed(i)
            continue
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

    Every returned grasp re-scores to 1 against the same object. The
    budget is 100x``per_object`` requested candidates; each sampler batch
    makes 100 attempts per candidate it is asked for. When the budget runs
    out first, or a batch after the first yields no candidate, a
    :class:`GraspFieldWarning` reports the shortfall and names which of the
    two ended it, and the partial set is returned. :class:`UngraspableError`
    means the first batch yielded no candidate. The object's ray index, or below
    :data:`RAY_INDEX_MIN_POINTS` its dead-origin memo, is built once and
    shared by every batch, so an origin proven dead stays dead.
    """
    if per_object < 0:
        raise DataError("per_object must be >= 0")
    if per_object == 0:
        return []
    _check_sampler_inputs(obj, mu, tol)
    state = _sampler_state(obj, gripper, mu, tol)
    budget = ATTEMPT_FACTOR * per_object
    chunk = max(32, per_object)
    positives: list[Grasp] = []
    drawn = 0
    batch = 0
    cause = "within the attempt budget"
    while len(positives) < per_object and drawn < budget:
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
        while start < len(candidates) and len(positives) < per_object:
            part = candidates[start : start + per_object - len(positives)]
            start += len(part)
            for g, (sa, sc, s) in zip(part, score_grasps(obj, part, gripper, mu=mu, tol=tol)):
                if s == 1:
                    positives.append(g.with_scores(sa, sc))
    if len(positives) < per_object:
        warnings.warn(
            f"only {len(positives)} of {per_object} positive grasps found {cause}",
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
