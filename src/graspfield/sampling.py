"""Grasp candidate sampling, positive-set construction, and single-view
rendering for dataset building.

Candidates come from antipodal ray casting: pick a surface point, shoot a
ray inside its friction cone, find the exit contact, and keep pairs that
fit between the jaws. The scorer (not the sampler) defines ground truth,
so sampler bias only affects coverage.

Each sampler batch draws all of its attempts up front from its seed:
every attempt's origin, cone draw (u, w) and roll angle, whatever its
outcome. The candidates are the accepted attempts in attempt order, the
first ``count`` kept. So how attempts are grouped for casting cannot
change the candidates, and :data:`RAY_BLOCK` is a speed constant only.

Attempts are cast in blocks against a KD-tree built once per object
(:class:`_ObjectIndex`), each block sized to the batch's shortfall at
its yield so far, at most :data:`RAY_BLOCK`. The exit contact is the
farthest point within ``ray_tol`` of the ray, the lowest index on ties.
One ball query per block proposes a superset of the points near every
ray; an exact test on those points decides, and one ``lexsort`` picks
each ray's farthest hit. The exact test sums its products in a fixed
order per point, so each point's bits are those of a one-ray scan of the
whole cloud, and the candidates are the same.

An accepted candidate's partner lies within the jaw opening of the
origin, on a line within the friction cone of the origin's normal; an
origin whose cone holds no other point can never yield a candidate. One
tree query proves such origins dead before any cast. After each block,
the origins that have now failed twice get the exact check, which proves
more. Attempts at dead origins are skipped, and once no origin is alive
the sampler gives up. Table points and objects wider than the jaws so
cast no ray at all.
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
    _cross_rows,
    _kdtree,
    derive_seed,
    unit,
)
from .quality import DEFAULT_CONTACT_TOL, DEFAULT_MU, _check_friction, score_grasps

ATTEMPT_FACTOR = 100

# The most attempts cast together. Any size gives the same candidates;
# blocks of 64 to 512 ran the benchmark workloads equally fast (CHANGES.md).
RAY_BLOCK = 256

_EPS = float(np.finfo(np.float64).eps)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the columns of (3, M) arrays, x, y and z terms added
    in that order: a column's bits do not depend on the columns beside it."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _flat(balls) -> tuple[np.ndarray, np.ndarray]:
    """The lists of a KD-tree ball query as (ball, point) index pairs."""
    sizes = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
    points = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp, count=int(sizes.sum()))
    return np.repeat(np.arange(len(balls)), sizes), points


class _ObjectIndex:
    """The sampler's state for one object, jaw opening, ``mu`` and
    ``tol``, built once and shared by every batch: a KD-tree over the
    cloud, which proposes the points near each ray, and the origins proven
    dead. Points and normals are held as (3, N) columns.

    Ray cover. Take a point at distance ``s`` along the unit ray and ``w``
    off it. The exact test computes ``t = s |d|`` and
    ``perp_sq = w^2 + s^2 (1 - |d|^2)``, so it can accept the point only
    if ``w^2 <= tol^2 + s^2 (|d|^2 - 1)``, plus rounding of order ``eps``
    times the squared extent (the box diagonal plus the largest
    coordinate, which also bounds the rounding of the ball centres).
    ``reach`` bounds that ``w`` with a relative margin of 1e-6, so the tree
    can only over-propose. The point lies in the cloud's bounding box, so
    the foot of its perpendicular lies on the ray inside the box padded by
    ``reach``. Balls of radius ``reach * sqrt(2)`` centred every
    ``2 * reach`` along that stretch of the ray cover every such point.

    Dead origins. Every accepted pair passes :func:`_closing_lines`: its
    partner ``j`` has ``0 < |p_j - p_i| <= max_opening`` and
    ``|(p_j - p_i) . n_i| >= cos(atan mu) |p_j - p_i|``. An origin with no
    such point within a relative slack of 1e-6, far above the rounding of
    either test, is dead; the slack can only keep an origin alive. One
    tree query certifies origins dead up front. A point ``p_i + v`` whose
    angle to ``-n_i`` has cosine ``cos`` lies in the ball of radius ``c``
    centred at ``p_i - c n_i`` iff ``|v| <= 2 c cos``. With
    ``c = reach / (2 cos_limit)`` that ball holds every partner on the
    inward side. A partner on the outward side is a hit ahead of a ray
    within the cone around ``-n_i``, so it needs a cone half-angle of 45
    degrees or more; from there the mirrored ball must be empty too, and
    at 90 nothing is certified. :meth:`check` adds the exact test of
    :meth:`alive` for origins that failed twice.
    """

    def __init__(self, obj: PointCloud, max_opening: float, mu: float, tol: float):
        points = obj.points
        self.points = np.ascontiguousarray(points.T)
        self.normals = np.ascontiguousarray(obj.normals.T)
        self.tree = _kdtree(points)
        self.lo = points.min(axis=0)[:, None]
        self.hi = points.max(axis=0)[:, None]
        extent = math.dist(self.lo[:, 0], self.hi[:, 0]) + float(np.abs(points).max())
        self.tol = tol
        self.extent_sq = extent * extent
        self.reach = max_opening * (1.0 + 1e-6)
        self.cos_limit = math.cos(math.atan(mu)) - 1e-6
        n = len(obj)
        dead = np.full(n, self.cos_limit > 0.0)  # at 90 degrees nothing is certified
        if self.cos_limit > 0.0:
            c = self.reach / (2.0 * self.cos_limit)
            axis = c * obj.normals / np.linalg.norm(obj.normals, axis=1, keepdims=True)
            for side in (-1.0,) if self.cos_limit > math.sqrt(0.5) else (-1.0, 1.0):  # 45 degrees
                # indices, not distances: rounding cannot drop p_i from its own ball
                found = self.tree.query(points + side * axis, k=2, distance_upper_bound=c * (1.0 + 1e-6))[1]
                dead &= ((found == np.arange(n)[:, None]) | (found == n)).all(axis=1)
        self.dead = dead
        self.failed = np.zeros(n, dtype=bool)  # origins with a failed attempt
        self.checked = dead.copy()  # origins the exact test has seen, or need not see
        self.live = n - int(dead.sum())  # origins not proven dead

    def near_rays(self, origins: np.ndarray, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ray, point) index pairs holding, for each ray ``k`` from point
        ``origins[k]`` along column ``k`` of ``directions`` (3, R), every
        point the exact test may accept. Points in two balls repeat."""
        norm_sq = _dots(directions, directions)
        reach = (1.0 + 1e-6) * np.sqrt(
            self.tol * self.tol + self.extent_sq * (np.maximum(0.0, norm_sq - 1.0) + 16.0 * _EPS)
        )
        norm = np.sqrt(norm_sq)
        start = self.points[:, origins]
        u = directions / norm
        with np.errstate(divide="ignore", invalid="ignore"):  # u = 0 never leaves through that face
            exits = np.where(u > 0.0, (self.hi + reach - start) / u, (self.lo - reach - start) / u)
        leave = np.where(u == 0.0, np.inf, exits).min(axis=0)  # the origin is inside the padded box
        step = 2.0 * reach
        counts = np.ceil(leave / step).astype(np.intp) + 1
        ray = np.repeat(np.arange(len(origins)), counts)
        k = np.arange(len(ray)) - np.repeat(np.cumsum(counts) - counts, counts)
        centres = start[:, ray] + k * (directions * (step / norm))[:, ray]
        ball, points = _flat(self.tree.query_ball_point(centres.T, (reach * math.sqrt(2.0))[ray], return_sorted=False))
        return ray[ball], points

    def cast(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """The exit contact of each ray (:meth:`near_rays`): the farthest
        point within ``tol`` of it, lowest index on ties; -1 when none is
        ahead. The origin itself (t = 0) never hits."""
        ray, near = self.near_rays(origins, directions)
        rel = self.points[:, near] - self.points[:, origins[ray]]
        t = _dots(rel, directions[:, ray])
        perp_sq = _dots(rel, rel) - t * t
        hit = (t > self.tol) & (perp_sq <= self.tol * self.tol)
        ray, near, t = ray[hit], near[hit], t[hit]
        order = np.lexsort((near, -t, ray))  # per ray: farthest first, then lowest index
        ray, near = ray[order], near[order]
        first = np.ones(len(ray), dtype=bool)
        first[1:] = ray[1:] != ray[:-1]
        partner = np.full(len(origins), -1)
        partner[ray[first]] = near[first]
        return partner

    def alive(self, origins: np.ndarray) -> np.ndarray:
        """Whether any point can be the partner of each origin: the pairs
        within ``reach``, as arrays from one tree-to-tree query, then the
        exact test."""
        pairs = _kdtree(self.points[:, origins].T).sparse_distance_matrix(self.tree, self.reach, output_type="ndarray")
        owner, near = pairs["i"], pairs["j"]
        i = origins[owner]
        rel = self.points[:, near] - self.points[:, i]
        dist = np.sqrt(_dots(rel, rel))
        along = np.abs(_dots(rel, self.normals[:, i]))
        ok = (dist > 0.0) & (dist <= self.reach) & (along >= self.cos_limit * dist)
        return np.bincount(owner[ok], minlength=len(origins)) > 0

    def check(self, origins: np.ndarray) -> None:
        """Record failed attempts from ``origins``. An origin's second
        failure runs the exact test, and the dead are marked: only an
        origin drawn again can save casts, and on graspable objects most
        origins are drawn once."""
        seen, counts = np.unique(origins, return_counts=True)
        again = seen[(self.failed[seen] | (counts > 1)) & ~self.checked[seen]]
        self.failed[seen] = True
        if again.size:
            self.checked[again] = True
            dead = again[~self.alive(again)]
            self.dead[dead] = True
            self.live -= len(dead)


def _cone_directions(axes: np.ndarray, draws: np.ndarray, half_angle: float) -> np.ndarray:
    """(3, R) directions drawn uniformly on the spherical caps of
    ``half_angle`` around the columns of ``axes`` (3, R), from (R, 2)
    uniform draws (u, w). A cap's basis is p = axis x e_k for the axis's
    smallest component k (lowest index on ties), normalized, and
    q = axis x p."""
    u, w = draws.T
    cos_psi = 1.0 - u * (1.0 - math.cos(half_angle))
    sin_psi = np.sqrt(np.maximum(0.0, 1.0 - cos_psi * cos_psi))
    phi = 2.0 * math.pi * w
    e = np.zeros_like(axes)
    e[np.argmin(np.abs(axes), axis=0), np.arange(axes.shape[1])] = 1.0
    p = _cross_rows(axes.T, e.T).T
    p = p / np.sqrt(_dots(p, p))
    q = _cross_rows(axes.T, p.T).T
    return axes * cos_psi + (p * np.cos(phi) + q * np.sin(phi)) * sin_psi


def _closing_lines(index: _ObjectIndex, origins, partners, max_opening: float, cos_half: float):
    """The canonical closing lines (3, R) of each origin and partner, and
    whether each is accepted: a partner was found, the pair fits between
    the jaws, and the line lies within the friction cone of the origin's
    normal. Each line is the span divided once by its length, its largest
    component made positive (lowest index on ties): a line is headless."""
    lines = np.zeros((3, len(origins)))
    ok = partners >= 0
    i, j = origins[ok], partners[ok]
    span = index.points[:, j] - index.points[:, i]
    width = np.sqrt(_dots(span, span))  # > tol: a hit lies beyond it
    r = span / width
    lead = np.argmax(np.abs(r), axis=0)
    r = np.where(r[lead, np.arange(len(i))] > 0.0, r, -r)
    lines[:, ok] = r
    ok[ok] = (width <= max_opening) & (np.abs(_dots(r, index.normals[:, i])) >= cos_half)
    return lines, ok


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
    whose realized closing line leaves the friction cone. The 100x``count``
    attempts are drawn up front (module docstring). Deterministic given
    the seed; raises :class:`UngraspableError` when no attempt yields a
    candidate, or sooner once every origin is dead: without a draw or a
    cast when the up-front query proves them all.
    """
    if count <= 0:
        raise DataError("count must be positive")
    _check_sampler_inputs(obj, mu, ray_tol)
    return _sample(obj, gripper, count, seed, mu, _ObjectIndex(obj, gripper.max_opening, mu, ray_tol))


def _sample(obj: PointCloud, gripper: GripperModel, count: int, seed, mu: float, index: _ObjectIndex) -> GraspSet:
    """The attempts of :func:`sample_candidates` on checked inputs, cast
    against the object's shared :class:`_ObjectIndex`."""
    if index.live == 0:
        raise UngraspableError("object not graspable at this gripper scale")
    rng = np.random.default_rng(seed)
    attempts = ATTEMPT_FACTOR * count
    origins = rng.integers(len(obj), size=attempts)
    draws = rng.random((attempts, 2))
    angles = rng.uniform(-math.pi / 2, math.pi / 2, size=attempts)
    half_angle = math.atan(mu)
    cos_half = math.cos(half_angle)

    kept = []  # per block: the accepted attempts, their origins, partners and closing lines
    found = start = 0
    while start < attempts and found < count and index.live:
        # an attempt yields at most one candidate, so the first block holds `need`
        need = count - found
        size = min(RAY_BLOCK, math.ceil(need * start / found) if found else need)
        block = np.arange(start, min(start + size, attempts))
        start += size
        block = block[~index.dead[origins[block]]]
        if block.size == 0:
            continue
        i = origins[block]
        j = index.cast(i, _cone_directions(-index.normals[:, i], draws[block], half_angle))
        lines, ok = _closing_lines(index, i, j, gripper.max_opening, cos_half)
        index.check(i[~ok])
        kept.append((block[ok], i[ok], j[ok], lines[:, ok]))
        found += int(ok.sum())

    if not found:
        raise UngraspableError("object not graspable at this gripper scale")
    block, i, j, lines = (np.concatenate(a, axis=-1)[..., :count] for a in zip(*kept))
    centers = (index.points[:, i] + index.points[:, j]) / 2.0
    return GraspSet._stored(centers.T, lines.T, angles[block], None)


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

    Every returned grasp re-scores to 1 against the same object, and keeps
    the bits of the candidate that was scored. The budget is
    100x``per_object`` requested candidates; each sampler batch makes 100
    attempts per candidate it is asked for. When the budget runs out
    first, or a batch after the first yields no candidate, a
    :class:`GraspFieldWarning` reports the shortfall and names which of the
    two ended it, and the partial set is returned. :class:`UngraspableError`
    means the first batch yielded no candidate. The object's
    :class:`_ObjectIndex` is built once and shared by every batch, so an
    origin proven dead stays dead.
    """
    if per_object < 0:
        raise DataError("per_object must be >= 0")
    if per_object == 0:
        return GraspSet([], [], [])
    _check_sampler_inputs(obj, mu, tol)
    index = _ObjectIndex(obj, gripper.max_opening, mu, tol)
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
            candidates = _sample(obj, gripper, want, derive_seed(seed, batch), mu, index)
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
    return GraspSet._stored(*map(np.concatenate, zip(*kept)))


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
