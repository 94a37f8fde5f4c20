"""Candidate sampling, positive-set building, and single-view rendering."""

import contextlib
import math
import warnings

import numpy as np
import pytest

from graspfield import (
    DataError,
    GraspFieldWarning,
    GraspSet,
    GripperModel,
    PointCloud,
    UngraspableError,
    build_positive_set,
    sample_candidates,
    score_grasp,
)
from graspfield import sampling
from graspfield.geometry import RigidTransform, _cross3, unit
from graspfield.sampling import OrthoCamera, render_single_view
from graspfield.synthetic import box_cloud, cylinder_cloud, plane_grid, sphere_cloud

from conftest import dead_plane_scene

UNGRASPABLE = "^object not graspable at this gripper scale$"


def _blocked_pair(offset=(0.0, 0.0, 0.0)):
    """A graspable pair plus a blocker on the closing axis: the blocker
    sits inside the finger sweep for every roll angle, and its sideways
    normal sinks any pair that contacts it directly."""
    return PointCloud(
        np.array([[0, 0, 0.02], [0, 0, -0.02], [0, 0, 0.045]]) + offset,
        normals=[[0, 0, 1], [0, 0, -1], [1, 0, 0]],
    )


class TestSampleCandidates:
    def test_count_and_kind(self, box, gripper):
        grasps = sample_candidates(box, gripper, 50, seed=3)
        assert len(grasps) == 50
        for g in grasps:
            assert not g.scored
            assert -math.pi / 2 <= g.angle <= math.pi / 2

    def test_deterministic(self, box, gripper):
        a = sample_candidates(box, gripper, 30, seed=9)
        b = sample_candidates(box, gripper, 30, seed=9)
        assert len(a) == len(b)
        for g, h in zip(a, b):
            assert np.array_equal(g.center, h.center)
            assert np.array_equal(g.orientation, h.orientation)
            assert g.angle == h.angle

    def test_seed_changes_output(self, box, gripper):
        a = sample_candidates(box, gripper, 30, seed=1)
        b = sample_candidates(box, gripper, 30, seed=2)
        assert any(not np.array_equal(g.center, h.center) for g, h in zip(a, b))

    def test_widths_fit_between_jaws(self, box, gripper):
        # candidate span (twice the center-to-surface reach along r) stays
        # within the opening; check against the thin box's known widths
        grasps = sample_candidates(box, gripper, 80, seed=5)
        for g in grasps:
            axis = int(np.argmax(np.abs(g.orientation)))
            width = 2.0 * (0.03, 0.025, 0.015)[axis]
            assert width <= gripper.max_opening + 1e-12

    def test_orientation_is_canonical(self, box, gripper):
        for g in sample_candidates(box, gripper, 60, seed=7):
            lead = int(np.argmax(np.abs(g.orientation)))
            assert g.orientation[lead] > 0

    def test_friction_cone_property(self, box, gripper):
        # on an axis-aligned box every surface normal is an axis, so the
        # closing line must lie within arctan(mu) of some axis (plus a
        # small allowance for the ray tolerance)
        mu = 0.6
        limit = math.atan(mu) + math.radians(5.0)
        for g in sample_candidates(box, gripper, 100, seed=11, mu=mu):
            best = np.max(np.abs(g.orientation))
            assert math.acos(min(float(best), 1.0)) <= limit

    def test_tight_cone_narrows_orientations(self, box, gripper):
        limit = math.atan(0.15) + math.radians(5.0)
        for g in sample_candidates(box, gripper, 50, seed=13, mu=0.15):
            best = np.max(np.abs(g.orientation))
            assert math.acos(min(float(best), 1.0)) <= limit

    def test_oversized_sphere_raises(self, gripper):
        # diameter 0.12 exceeds the 0.08 jaw opening everywhere
        fat = sphere_cloud(radius=0.06, count=1500)
        with pytest.raises(UngraspableError, match="not graspable"):
            sample_candidates(fat, gripper, 10, seed=0)

    def test_argument_validation(self, box, gripper):
        with pytest.raises(DataError, match="count"):
            sample_candidates(box, gripper, 0, seed=0)
        with pytest.raises(DataError, match="mu"):
            sample_candidates(box, gripper, 5, seed=0, mu=0.0)
        with pytest.raises(DataError, match="normals"):
            sample_candidates(PointCloud(box.points), gripper, 5, seed=0)
        with pytest.raises(DataError, match="empty"):
            sample_candidates(PointCloud(np.zeros((0, 3))), gripper, 5, seed=0)
        for bad in (0.0, -0.005, float("nan"), float("inf")):
            with pytest.raises(DataError, match="ray_tol must be a finite positive number"):
                sample_candidates(box, gripper, 5, seed=0, ray_tol=bad)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DataError, match="mu must be a finite positive number"):
                sample_candidates(box, gripper, 5, seed=0, mu=bad)


class TestBuildPositiveSet:
    def test_box_yields_requested_count(self, box, gripper):
        positives = build_positive_set(box, gripper, per_object=40, seed=1)
        assert len(positives) == 40
        for g in positives:
            assert (g.score_antipodal, g.score_collision, g.score) == (1, 1, 1)

    def test_every_positive_rescores_to_one(self, box, gripper):
        for g in build_positive_set(box, gripper, per_object=25, seed=2):
            again = score_grasp(box, g, gripper)
            assert again.score == 1

    def test_deterministic(self, box, gripper):
        a = build_positive_set(box, gripper, per_object=20, seed=4)
        b = build_positive_set(box, gripper, per_object=20, seed=4)
        for g, h in zip(a, b):
            assert np.array_equal(g.center, h.center)
            assert np.array_equal(g.orientation, h.orientation)
            assert g.angle == h.angle

    @pytest.mark.parametrize(
        "shape", [box_cloud, cylinder_cloud, lambda: sphere_cloud(radius=0.035)], ids=["box", "cylinder", "small_sphere"]
    )
    def test_positives_keep_their_scored_bits(self, gripper, monkeypatch, shape):
        # each returned row is the row that was scored, bit for bit, in order
        obj = shape()
        scored = []
        score = sampling.score_grasps

        def spy(obj, part, *a, **k):
            scores = score(obj, part, *a, **k)
            scored.append((part, scores))
            return scores

        monkeypatch.setattr(sampling, "score_grasps", spy)
        got = build_positive_set(obj, gripper, per_object=400, seed=1)
        want = [(part[scores[:, 2] == 1], scores[scores[:, 2] == 1]) for part, scores in scored]
        assert len(got) == 400
        for name in ("centers", "orientations", "angles"):
            rows = np.concatenate([getattr(part, name) for part, _ in want])
            assert getattr(got, name).tobytes() == rows.tobytes(), name
        assert np.array_equal(got.scores, np.concatenate([scores for _, scores in want]))

    def test_zero_request(self, box, gripper):
        assert len(build_positive_set(box, gripper, per_object=0)) == 0

    def test_shortfall_warns_and_returns_partial(self, gripper):
        cloud = _blocked_pair()
        assert len(sample_candidates(cloud, gripper, 10, seed=0)) == 10
        with pytest.warns(GraspFieldWarning, match="positive grasps"):
            got = build_positive_set(cloud, gripper, per_object=5, seed=0)
        assert len(got) == 0

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_late_empty_batch_warns_and_returns_partial(self, gripper, monkeypatch, seed):
        # a plane whose origins never hit, far from the blocked pair: the
        # first batch draws the pair (its candidates score 0), the second
        # draws only plane origins
        plane = plane_grid(0.1, 0.004)
        pair = _blocked_pair((0.3, 0.3, 0.0))
        cloud = PointCloud(
            np.concatenate([plane.points, pair.points]), normals=np.concatenate([plane.normals, pair.normals])
        )
        yields = []
        sample = sampling._sample

        def spy(*a):
            try:
                out = sample(*a)
            except UngraspableError:
                yields.append(0)
                raise
            yields.append(len(out))
            return out

        monkeypatch.setattr(sampling, "_sample", spy)
        with pytest.warns(GraspFieldWarning, match="only 0 of 1 positive grasps") as caught:
            assert len(build_positive_set(cloud, gripper, per_object=1, seed=seed)) == 0
        assert yields == [{1: 2, 2: 1, 7: 1}[seed], 0]
        (message,) = [str(w.message) for w in caught]
        assert message == (
            "only 0 of 1 positive grasps found before sampler batch 2 yielded no candidate (32 of 100 budgeted drawn)"
        )

    def test_negative_request_rejected(self, box, gripper):
        with pytest.raises(DataError, match="per_object"):
            build_positive_set(box, gripper, per_object=-1)
        with pytest.raises(DataError, match="ray_tol"):
            build_positive_set(box, gripper, per_object=5, tol=float("nan"))


# The one-attempt-at-a-time reference: the arrays a sampler batch draws,
# a scalar cone, and a hit test over the whole cloud on every attempt.


def _draws(n, count, seed):
    """Every attempt's origin, cone draw (u, w) and angle, as a sampler
    batch of ``count`` candidates on ``n`` points draws them."""
    rng = np.random.default_rng(seed)
    attempts = sampling.ATTEMPT_FACTOR * count
    return (
        rng.integers(n, size=attempts),
        rng.random((attempts, 2)),
        rng.uniform(-math.pi / 2, math.pi / 2, size=attempts),
    )


def _reference_cone(axis, u, w, half_angle):
    cos_psi = 1.0 - u * (1.0 - math.cos(half_angle))
    sin_psi = math.sqrt(max(0.0, 1.0 - cos_psi * cos_psi))
    phi = 2.0 * math.pi * w
    e = np.zeros(3)
    e[np.argmin(np.abs(axis))] = 1.0
    p = _cross3(axis, e)
    p = p / math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
    q = _cross3(axis, p)
    return axis * cos_psi + (p * np.cos(phi) + q * np.sin(phi)) * sin_psi


def _reference_hit(pts, i, direction, tol):
    """The farthest point within ``tol`` of the ray, lowest index on ties,
    over the whole cloud; -1 when none is ahead."""
    rel = (pts - pts[i]).T
    t = rel[0] * direction[0] + rel[1] * direction[1] + rel[2] * direction[2]
    perp_sq = rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2] - t * t
    hits = np.flatnonzero((t > tol) & (perp_sq <= tol * tol))
    return int(hits[np.argmax(t[hits])]) if hits.size else -1


def _reference_attempts(obj, gripper, count, seed, mu=0.6, ray_tol=0.005, cone=_reference_cone):
    """The accepted attempts of one sampler batch, one at a time: (attempt,
    origin, center, closing line, angle) each."""
    origins, draws, angles = _draws(len(obj), count, seed)
    pts, nrm = obj.points, obj.normals
    half_angle = math.atan(mu)
    cos_half = math.cos(half_angle)
    out = []
    for k, i in enumerate(origins.tolist()):
        if len(out) >= count:
            break
        j = _reference_hit(pts, i, cone(-nrm[i], *draws[k].tolist(), half_angle), ray_tol)
        if j < 0:
            continue
        span = pts[j] - pts[i]
        width = math.sqrt(span[0] * span[0] + span[1] * span[1] + span[2] * span[2])
        if width > gripper.max_opening:
            continue
        r = span / width
        r = r if r[np.argmax(np.abs(r))] > 0.0 else -r
        if abs(r[0] * nrm[i][0] + r[1] * nrm[i][1] + r[2] * nrm[i][2]) < cos_half:
            continue
        out.append((k, i, (pts[i] + pts[j]) / 2.0, r, angles[k]))
    return out


def _reference_set(obj, gripper, count, seed, mu=0.6, ray_tol=0.005, cone=_reference_cone):
    out = _reference_attempts(obj, gripper, count, seed, mu, ray_tol, cone)
    if not out:
        raise UngraspableError("object not graspable at this gripper scale")
    _, _, centers, lines, angles = zip(*out)
    return GraspSet._stored(np.array(centers), np.array(lines), np.array(angles), None)


def _reference_sample(obj, gripper, count, seed, mu, index):
    """``sampling._sample`` with the reference loop in place of the block cast."""
    return _reference_set(obj, gripper, count, seed, mu, index.tol)


def _positive_set(*args, **kwargs):
    """``build_positive_set`` and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = build_positive_set(*args, **kwargs)
    return got, [str(w.message) for w in caught]


def _assert_same_grasps(got, want):
    assert len(got) == len(want) > 0
    for name in ("centers", "orientations", "angles", "scores"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), name


def _zero_smallest(directions):
    """A direction (3,) or columns (3, R), the smallest component of each
    set to exactly zero."""
    directions = directions.copy()
    columns = directions.reshape(3, -1)
    columns[np.argmin(np.abs(columns), axis=0), np.arange(columns.shape[1])] = 0.0
    return directions


@pytest.fixture(scope="module")
def scene():
    """A table plane with a box and a cylinder on it, with plane points
    whose rays leave the bounding box at once."""
    plane = plane_grid(0.25, 0.004)
    box, cyl = box_cloud(), cylinder_cloud()
    points = np.concatenate([plane.points, box.points + (0.1, 0.0, 0.015), cyl.points + (-0.08, 0.06, 0.04)])
    normals = np.concatenate([plane.normals, box.normals, cyl.normals])
    return PointCloud(points, normals=normals)


@pytest.fixture(scope="module")
def small_scene():
    return dead_plane_scene()


class TestBlockCast:
    """Any block size gives the candidates of the one-attempt-at-a-time
    reference on the same drawn arrays, bit for bit."""

    @pytest.fixture(scope="class")
    def clouds(self, scene, small_scene):
        return {
            "box": box_cloud(),
            "cylinder": cylinder_cloud(),
            "small_sphere": sphere_cloud(radius=0.035),
            "scene": scene,
            "dead_plane_scene": small_scene,
        }

    @pytest.mark.parametrize("block", [1, 7, 1024])
    @pytest.mark.parametrize("name", ["box", "cylinder", "small_sphere", "scene", "dead_plane_scene"])
    def test_candidates_match_reference(self, clouds, gripper, monkeypatch, name, block):
        monkeypatch.setattr(sampling, "RAY_BLOCK", block)
        for seed in (3, 4):
            want = _reference_set(clouds[name], gripper, 40, seed)
            _assert_same_grasps(sample_candidates(clouds[name], gripper, 40, seed=seed), want)

    @pytest.mark.parametrize("block", [1, 7, 1024])
    def test_tight_box_raises_as_reference(self, box, monkeypatch, block):
        tight = GripperModel(max_opening=0.01)
        monkeypatch.setattr(sampling, "RAY_BLOCK", block)
        for seed in (1, 2):
            assert _reference_attempts(box, tight, 10, seed) == []
            with pytest.raises(UngraspableError, match=UNGRASPABLE):
                sample_candidates(box, tight, 10, seed=seed)

    def test_same_without_the_exact_dead_check(self, clouds, gripper, monkeypatch):
        proven = []
        check = sampling._ObjectIndex.check

        def counted(self, origins):
            live = self.live
            check(self, origins)
            proven.append(live - self.live)

        def run(obj, grip):
            try:
                return sample_candidates(obj, grip, 40, seed=5)
            except UngraspableError as exc:
                return str(exc)

        cases = [(obj, gripper) for obj in clouds.values()] + [(clouds["box"], GripperModel(max_opening=0.01))]
        monkeypatch.setattr(sampling._ObjectIndex, "check", counted)
        got = [run(*case) for case in cases]
        assert got[-1] == "object not graspable at this gripper scale"
        assert sum(proven) > 0  # the check proved some origin dead
        monkeypatch.setattr(sampling._ObjectIndex, "check", lambda self, origins: None)
        for case, want in zip(cases[:-1], got):
            _assert_same_grasps(run(*case), want)
        assert run(*cases[-1]) == got[-1]


    def test_casts_stop_near_the_last_candidate(self, box, gripper, monkeypatch):
        # an attempt yields at most one candidate, and blocks after the
        # first are sized to the shortfall at the yield so far: whole
        # blocks cast up to RAY_BLOCK - 1 rays past the last one kept
        accepted = []
        closing_lines = sampling._closing_lines

        def counted(*args):
            lines, ok = closing_lines(*args)
            accepted.append(ok)  # one entry per ray cast
            return lines, ok

        monkeypatch.setattr(sampling, "_closing_lines", counted)
        for count in (5, 40, 300):
            accepted.clear()
            assert len(sample_candidates(box, gripper, count, seed=count)) == count
            ok = np.concatenate(accepted)
            assert len(ok) - 1 - np.flatnonzero(ok)[count - 1] < sampling.RAY_BLOCK // 8


class TestRayIndex:
    """The KD-tree only proposes; the candidates match the whole-cloud scan."""

    def test_sample_cone_bit_equal_to_reference(self):
        gen = np.random.default_rng(5)
        axes = [unit(v) for v in gen.normal(size=(40, 3))]
        for k in range(3):  # axis-aligned
            e = np.zeros(3)
            e[k] = 1.0
            axes.append(e)
        ties = ((1, 1, 0), (1, -1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (-1, 1, -1), (2, 2, 1), (1, 2, 2), (2, 1, 2))
        axes += [unit(np.array(v, dtype=float)) for v in ties]  # ties in |v|
        axes += [-a for a in axes]  # negated, with signed zeros
        axes += [a * (1.0 + 5e-7) for a in axes[:10]]  # unit within the cloud tolerance
        half_angles = [math.atan(mu) for mu in (0.6, 1e-3, 0.15, 5.0)]
        draws = np.random.default_rng(17).random((100_000, 2))
        n = np.arange(len(draws))
        got = np.empty((len(draws), 3))
        for h, half in enumerate(half_angles):
            rows = n % len(half_angles) == h
            got[rows] = sampling._cone_directions(np.array(axes)[n[rows] % len(axes)].T, draws[rows], half).T
        want = np.array(
            [_reference_cone(axes[k % len(axes)], u, w, half_angles[k % 4]) for k, (u, w) in enumerate(draws.tolist())]
        )
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_candidates_match_whole_cloud_scan(self, scene, gripper, monkeypatch):
        rays = []
        near_rays = sampling._ObjectIndex.near_rays
        monkeypatch.setattr(sampling._ObjectIndex, "near_rays", lambda s, o, d: rays.append(len(o)) or near_rays(s, o, d))
        for seed in (3, 4):
            want = _reference_set(scene, gripper, 80, seed)
            _assert_same_grasps(sample_candidates(scene, gripper, 80, seed=seed), want)
        assert rays  # the tree proposed

    def test_candidates_match_with_zero_direction_components(self, scene, gripper, monkeypatch):
        cone = sampling._cone_directions
        monkeypatch.setattr(sampling, "_cone_directions", lambda *a: _zero_smallest(cone(*a)))
        want = _reference_set(scene, gripper, 60, 5, cone=lambda *a: _zero_smallest(_reference_cone(*a)))
        _assert_same_grasps(sample_candidates(scene, gripper, 60, seed=5), want)

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    def test_superset_holds_every_hit(self, scene, gripper, offset):
        obj = PointCloud(scene.points + offset, normals=scene.normals)
        pts, tol = obj.points, 0.005
        index = sampling._ObjectIndex(obj, gripper.max_opening, 0.6, tol)
        rng = np.random.default_rng(8)
        directions = [unit(v) for v in rng.normal(size=(150, 3))]
        for k in range(3):
            for sign in (1.0, -1.0):
                e = np.zeros(3)
                e[k] = sign
                directions.append(e)
        directions += [_zero_smallest(d) for d in directions[:50]]
        directions += [d * scale for d in directions[:60] for scale in (1.0 - 1e-6, 1.0 + 1e-6)]
        origins = rng.integers(len(pts), size=len(directions))
        ray, near = index.near_rays(origins, np.array(directions).T)
        partners = index.cast(origins, np.array(directions).T)
        found = 0
        for n, (i, direction) in enumerate(zip(origins.tolist(), directions)):
            rel = (pts - pts[i]).T
            t = rel[0] * direction[0] + rel[1] * direction[1] + rel[2] * direction[2]
            perp_sq = rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2] - t * t
            hits = np.flatnonzero((t > tol) & (perp_sq <= tol * tol))
            assert np.isin(hits, near[ray == n]).all(), n
            assert partners[n] == _reference_hit(pts, i, direction, tol), n
            found += hits.size > 0
        assert found > 100

    @pytest.mark.parametrize("length", [1.0, 1.0 - 1e-6, 1.0 + 1e-6])
    def test_superset_holds_hits_at_the_cover_limit(self, length):
        # Points densely along the ray, just inside the widest offset the
        # exact test accepts for a direction of this length: those midway
        # between two ball centres are the farthest a hit can be from all.
        tol = 0.005
        s = np.arange(2 * tol, 0.6, tol / 100)
        w = (1.0 - 1e-9) * np.sqrt(tol * tol + s * s * (length * length - 1.0))
        pts = np.concatenate([[[0.0, 0.0, 0.0]], np.column_stack([s, w, np.zeros_like(s)])])
        direction = np.array([length, 0.0, 0.0])
        rel = (pts - pts[0]).T
        t = rel[0] * direction[0] + rel[1] * direction[1] + rel[2] * direction[2]
        perp_sq = rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2] - t * t
        hits = np.flatnonzero((t > tol) & (perp_sq <= tol * tol))
        assert len(hits) == len(s)
        obj = PointCloud(pts, normals=np.tile([0.0, 0.0, 1.0], (len(pts), 1)))
        _, near = sampling._ObjectIndex(obj, 0.08, 0.6, tol).near_rays(np.array([0]), direction[:, None])
        assert np.isin(hits, near).all()

    def test_build_positive_set_same_with_shared_tree(self, scene, gripper, monkeypatch):
        shared = build_positive_set(scene, gripper, per_object=8, seed=2)
        sample = sampling._sample

        def own_index(obj, gripper, count, seed, mu, index):
            return sample(obj, gripper, count, seed, mu, sampling._ObjectIndex(obj, gripper.max_opening, mu, index.tol))

        monkeypatch.setattr(sampling, "_sample", own_index)
        _assert_same_grasps(shared, build_positive_set(scene, gripper, per_object=8, seed=2))


def _perturbed(obj, seed):
    """The cloud under a seeded rigid pose, its normals scaled just inside
    the 1e-6 unit-length tolerance, alternately longer and shorter."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.linalg.det(q))
    moved = RigidTransform(q, rng.uniform(-0.1, 0.1, size=3)).apply_cloud(obj)
    scale = np.where(np.arange(len(obj)) % 2 == 0, 1.0 + 0.999e-6, 1.0 - 0.999e-6)
    return moved.with_normals(moved.normals * scale[:, None])


def _index(obj, opening, mu):
    return sampling._ObjectIndex(obj, opening, mu, 0.005)


def _accepted(pts, normal, opening, mu):
    """Whether the attempt's own checks accept the pair (pts[0], pts[1])
    from origin 0."""
    index = _index(PointCloud(pts, normals=[normal, normal]), opening, mu)
    return bool(sampling._closing_lines(index, np.array([0]), np.array([1]), opening, math.cos(math.atan(mu)))[1][0])


class TestDeadOrigins:
    """The sampler skips origins proven dead; the candidates and the error
    match the reference loop."""

    @pytest.fixture
    def casts(self, monkeypatch):
        origins = []
        cast = sampling._ObjectIndex.cast
        monkeypatch.setattr(sampling._ObjectIndex, "cast", lambda s, i, d: origins.extend(i.tolist()) or cast(s, i, d))
        return origins

    @pytest.mark.parametrize("seed", [0, 5])
    def test_wide_sphere_casts_each_origin_once(self, gripper, casts, seed):
        wide = sphere_cloud()
        assert _reference_attempts(wide, gripper, 50, seed) == []
        with pytest.raises(UngraspableError, match=UNGRASPABLE):
            sample_candidates(wide, gripper, 50, seed=seed)
        assert casts == []  # every origin is certified dead before the first attempt

    def test_wide_sphere_stops_once_every_origin_is_dead(self, gripper, casts):
        wide = sphere_cloud(count=300)
        rng = np.random.default_rng(0)  # the sampler draws from this generator itself
        before = rng.bit_generator.state
        with pytest.raises(UngraspableError, match=UNGRASPABLE):
            sample_candidates(wide, gripper, 400, seed=rng)
        # every origin is certified dead up front: no attempt, no draw, no cast
        assert casts == []
        assert rng.bit_generator.state == before

    def test_lazy_check_stops_once_every_origin_is_dead(self, gripper, casts):
        # each point lies in the other's ball but 60 degrees off its cone
        # axis: the up-front query keeps both alive, and the exact check
        # after the first block, whose casts from both fail, proves both dead
        s = math.sqrt(0.75)
        pair = PointCloud([[0.0, 0.0, 0.0], [0.03, 0.0, 0.0]], normals=[[-0.5, 0.0, -s], [0.5, 0.0, -s]])
        assert _index(pair, gripper.max_opening, 0.6).live == 2
        rng = np.random.default_rng(0)
        with pytest.raises(UngraspableError, match=UNGRASPABLE):
            sample_candidates(pair, gripper, 400, seed=rng)
        assert len(casts) == sampling.RAY_BLOCK and set(casts) == {0, 1}  # far short of 40k attempts
        # the batch drew all of its attempts up front, cast or not
        replay = np.random.default_rng(0)
        _draws(len(pair), 400, replay)
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("seed", [1, 2])
    def test_tight_box_raises_as_reference(self, box, casts, seed):
        tight = GripperModel(max_opening=0.01)
        assert _reference_attempts(box, tight, 10, seed) == []
        with pytest.raises(UngraspableError, match=UNGRASPABLE):
            sample_candidates(box, tight, 10, seed=seed)
        assert 0 < len(casts) < 10 * sampling.ATTEMPT_FACTOR  # dead origins were skipped

    @pytest.mark.parametrize("seed", [3, 4])
    def test_small_scene_candidates_match_reference(self, small_scene, gripper, casts, seed):
        want = _reference_attempts(small_scene, gripper, 60, seed)
        _assert_same_grasps(sample_candidates(small_scene, gripper, 60, seed=seed), _reference_set(small_scene, gripper, 60, seed))
        assert len(casts) < want[-1][0] + 1  # dead plane origins were skipped

    @pytest.mark.parametrize("seed", [3, 4])
    def test_build_positive_set_matches_reference(self, box, small_scene, gripper, monkeypatch, casts, seed):
        tight = GripperModel(max_opening=0.01)
        got = _positive_set(small_scene, gripper, per_object=6, seed=seed)
        errors = []
        for obj, grip in ((sphere_cloud(), gripper), (box, tight)):
            with pytest.raises(UngraspableError, match=UNGRASPABLE) as exc:
                build_positive_set(obj, grip, per_object=5, seed=seed)
            errors.append(str(exc.value))
        assert casts
        monkeypatch.setattr(sampling, "_sample", _reference_sample)
        want = _positive_set(small_scene, gripper, per_object=6, seed=seed)
        _assert_same_grasps(got[0], want[0])
        assert got[1] == want[1]  # the same shortfall warning, if any
        for (obj, grip), error in zip(((sphere_cloud(), gripper), (box, tight)), errors):
            with pytest.raises(UngraspableError) as exc:
                build_positive_set(obj, grip, per_object=5, seed=seed)
            assert str(exc.value) == error

    def test_boundary_pairs(self):
        # a lone partner at the jaw opening on the friction cone's edge, on
        # either side of the surface (the closing line is headless):
        # whenever the attempt's own checks accept the pair, the origin is
        # alive; a partner just past either limit leaves it dead
        rng = np.random.default_rng(3)
        accepted = 0
        for n in range(1500):
            mu, opening = (0.2, 0.6, 1.2)[n % 3], (0.01, 0.08)[n % 2]
            normal = unit(rng.normal(size=3)) * (1.0 + rng.choice((-0.999e-6, 0.0, 0.999e-6)))
            side = unit(_cross3(normal, rng.normal(size=3)))
            for past_angle, past_width in ((0.0, 0.0), (3e-5, 0.0), (0.0, 3e-6)):
                angle = math.atan(mu) + past_angle
                line = rng.choice((-1.0, 1.0)) * math.cos(angle) * unit(normal) + math.sin(angle) * side
                origin = rng.uniform(-0.2, 0.2, size=3)
                pts = np.array([origin, origin + opening * (1.0 + past_width) * line])
                alive = _index(PointCloud(pts, normals=[normal, side]), opening, mu).alive(np.array([0]))[0]
                if past_angle or past_width:
                    assert not alive, n
                elif _accepted(pts, normal, opening, mu):
                    assert alive, n
                    accepted += 1
        assert accepted > 100

    @pytest.mark.parametrize("opening", [0.01, 0.08])
    @pytest.mark.parametrize("make", [box_cloud, dead_plane_scene], ids=["box", "dead_plane_scene"])
    def test_alive_equals_ball_query(self, make, opening):
        # the pairs of one tree-to-tree query against a ball query per origin
        obj = make()
        index = _index(obj, opening, 0.6)
        origins = np.arange(0, len(obj), 3)
        balls = index.tree.query_ball_point(index.points[:, origins].T, index.reach)
        owner = np.repeat(np.arange(len(origins)), [len(b) for b in balls])
        near = np.concatenate(balls).astype(np.intp)
        i = origins[owner]
        rel = index.points[:, near] - index.points[:, i]
        dist = np.sqrt(sampling._dots(rel, rel))
        along = np.abs(sampling._dots(rel, index.normals[:, i]))
        ok = (dist > 0.0) & (dist <= index.reach) & (along >= index.cos_limit * dist)
        want = np.bincount(owner[ok], minlength=len(origins)) > 0
        got = index.alive(origins)
        assert np.array_equal(got, want) and got.any()
        assert make is box_cloud or not got.all()  # plane points far from the box are dead

    def test_every_accepted_origin_is_alive(self):
        # the objects-mixed shapes under a pose, normals just off unit
        shapes = [box_cloud(), cylinder_cloud(), sphere_cloud(radius=0.035), sphere_cloud()]
        accepted_any = dead_any = 0
        for n, shape in enumerate(shapes):
            obj = _perturbed(shape, n)
            for mu in (0.2, 0.6, 1.2):
                for opening in (0.01, 0.08):
                    accepted = [a[1] for a in _reference_attempts(obj, GripperModel(max_opening=opening), 10, n, mu=mu)]
                    index = _index(obj, opening, mu)
                    assert index.alive(np.array(accepted, dtype=np.intp)).all(), (n, mu, opening)
                    accepted_any += len(accepted)
                    dead_any += int((~index.alive(np.arange(0, len(obj), 50))).sum())
        assert accepted_any and dead_any  # neither side is vacuous

    def test_no_accepted_origin_is_certified_dead(self, scene):
        # the objects-mixed shapes as above, and the scene far from the
        # origin; at mu 1.2 the query certifies with both balls
        shapes = [box_cloud(), cylinder_cloud(), sphere_cloud(radius=0.035), sphere_cloud()]
        clouds = [_perturbed(shape, n) for n, shape in enumerate(shapes)]
        clouds.append(PointCloud(scene.points + 1000.0, normals=scene.normals))
        accepted_any = dead_any = 0
        for n, obj in enumerate(clouds):
            for mu in (0.2, 0.6, 1.2):
                for opening in (0.01, 0.08):
                    accepted = [a[1] for a in _reference_attempts(obj, GripperModel(max_opening=opening), 10, n, mu=mu)]
                    index = _index(obj, opening, mu)
                    assert not index.dead[accepted].any(), (n, mu, opening)
                    # nor is an origin the exact check keeps alive, where its
                    # partners all lie inward (convex shapes) or both balls
                    # are empty; a table point under an object has an
                    # outward partner, which no inward ray can reach
                    dead = np.flatnonzero(index.dead)
                    if n < len(shapes) or mu > 1.0:
                        assert not index.alive(dead[::37]).any(), (n, mu, opening)
                    accepted_any += len(accepted)
                    dead_any += len(dead)
        assert accepted_any and dead_any  # neither side is vacuous

    def test_boundary_pairs_not_certified_dead(self):
        # test_boundary_pairs' lone partner at the opening on the cone's
        # edge: whenever the attempt's own checks accept it and an inward
        # ray can reach it, the query keeps the origin alive
        rng = np.random.default_rng(3)
        kept = certified = 0
        for n in range(1500):
            mu, opening = (0.2, 0.6, 1.2)[n % 3], (0.01, 0.08)[n % 2]
            normal = unit(rng.normal(size=3)) * (1.0 + rng.choice((-0.999e-6, 0.0, 0.999e-6)))
            side = unit(_cross3(normal, rng.normal(size=3)))
            inward = rng.choice((-1.0, 1.0))
            line = inward * math.cos(math.atan(mu)) * unit(normal) + math.sin(math.atan(mu)) * side
            origin = rng.uniform(-0.2, 0.2, size=3)
            pts = np.array([origin, origin - opening * line])
            index = _index(PointCloud(pts, normals=[normal, side]), opening, mu)
            if not _accepted(pts, normal, opening, mu):
                continue
            if inward > 0 or mu > 1.0:  # below 45 degrees, only the inward side
                assert not index.dead[0], n
                kept += 1
            else:
                assert index.dead[0], n
                certified += 1
        assert kept > 100 and certified > 20

    def test_table_and_wide_sphere_certified_dead(self, scene, small_scene, gripper):
        for obj, table in ((scene, len(plane_grid(0.25, 0.004))), (small_scene, len(plane_grid(0.1, 0.004)))):
            index = _index(obj, gripper.max_opening, 0.6)
            assert index.dead[:table].all()
            assert index.live > 0
        assert _index(sphere_cloud(), gripper.max_opening, 0.6).live == 0

    def test_cast_never_sees_a_dead_origin(self, scene, small_scene, box, gripper, casts):
        for obj, grip in ((small_scene, gripper), (box, GripperModel(max_opening=0.01)), (scene, gripper)):
            casts.clear()
            with contextlib.suppress(UngraspableError):  # the tight box
                _positive_set(obj, grip, per_object=6, seed=3)
            index = _index(obj, grip.max_opening, 0.6)
            assert casts and not index.dead[casts].any()

    def test_scene_positive_set_matches_reference(self, scene, gripper, monkeypatch):
        got = _positive_set(scene, gripper, per_object=6, seed=3)
        monkeypatch.setattr(sampling, "_sample", _reference_sample)
        want = _positive_set(scene, gripper, per_object=6, seed=3)
        _assert_same_grasps(got[0], want[0])
        assert got[1] == want[1]


class TestOrthoCamera:
    def test_basis_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cam = OrthoCamera(rng.normal(size=3), rng.normal(size=3), 0.01)
            f, r, u = cam.basis()
            m = np.stack([f, r, u])
            assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12

    def test_forward_points_at_target(self):
        cam = OrthoCamera((0, 0, 1.0), (0, 0, 0), 0.01)
        f, r, u = cam.basis()
        assert np.allclose(f, (0, 0, -1))

    def test_degenerate_up_handled(self):
        cam = OrthoCamera((0, 0, 1.0), (0, 0, 0), 0.01, up=(0, 0, 1.0))
        f, r, u = cam.basis()
        assert np.abs(np.stack([f, r, u]) @ np.stack([f, r, u]).T - np.eye(3)).max() < 1e-12

    def test_validation(self):
        with pytest.raises(DataError, match="cell_size"):
            OrthoCamera((0, 0, 1), (0, 0, 0), 0.0)
        with pytest.raises(DataError, match="cell_size"):
            OrthoCamera((0, 0, 1), (0, 0, 0), float("nan"))
        with pytest.raises(DataError, match="position: contains non-finite"):
            OrthoCamera((0, float("inf"), 1), (0, 0, 0), 0.01)

    def test_up_wrong_shape_rejected(self):
        with pytest.raises(DataError, match="up: expected shape"):
            OrthoCamera((0, 0, 1), (0, 0, 0), 0.01, up=(0, 0))

    def test_up_zero_rejected(self):
        with pytest.raises(DataError, match="up must be a non-zero vector"):
            OrthoCamera((0, 0, 1), (0, 0, 0), 0.01, up=(0, 0, 0))

    def test_up_non_finite_rejected(self):
        with pytest.raises(DataError, match="up: contains non-finite"):
            OrthoCamera((0, 0, 1), (0, 0, 0), 0.01, up=(float("nan"), 0, 1))

    def test_up_frozen(self):
        cam = OrthoCamera((0, 0, 1), (0, 0, 0), 0.01)
        assert cam.up.dtype == np.float64 and np.array_equal(cam.up, (0, 0, 1))
        with pytest.raises(ValueError):
            cam.up[0] = 1.0


class TestRenderSingleView:
    def test_two_points_one_ray_keeps_nearer(self):
        cloud = PointCloud([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]])
        cam = OrthoCamera((0, 0, 2.0), (0, 0, 0), 0.05)
        seen = render_single_view(cloud, cam)
        assert np.array_equal(seen.points, [[0.0, 0.0, 0.5]])

    def test_plane_from_above_all_kept(self):
        plane = plane_grid(half_size=0.05, spacing=0.005)
        cam = OrthoCamera((0, 0, 1.0), (0, 0, 0), 0.005)
        seen = render_single_view(plane, cam)
        assert len(seen) == len(plane)

    def test_sphere_roughly_half_visible(self):
        sphere = sphere_cloud(radius=0.05, count=2000)
        cam = OrthoCamera((0.4, 0.0, 0.0), (0, 0, 0), 0.0025)
        seen = render_single_view(sphere, cam)
        frac = len(seen) / len(sphere)
        assert 0.30 <= frac <= 0.60

    def test_output_is_subset_with_attributes(self, box):
        cam = OrthoCamera((0.3, 0.2, 0.4), (0, 0, 0), 0.002)
        seen = render_single_view(box, cam)
        assert 0 < len(seen) < len(box)
        # every visible point exists in the input with its normal
        index = {tuple(p): tuple(n) for p, n in zip(box.points, box.normals)}
        for p, n in zip(seen.points, seen.normals):
            assert index[tuple(p)] == tuple(n)

    def test_behind_camera_culled(self):
        cloud = PointCloud([[0.0, 0.0, 5.0], [0.0, 0.0, -1.0]])
        cam = OrthoCamera((0, 0, 2.0), (0, 0, 0), 0.05)
        seen = render_single_view(cloud, cam)
        assert np.array_equal(seen.points, [[0.0, 0.0, -1.0]])

    def test_empty_cloud_rejected(self):
        cam = OrthoCamera((0, 0, 1.0), (0, 0, 0), 0.01)
        with pytest.raises(DataError, match="empty"):
            render_single_view(PointCloud(np.zeros((0, 3))), cam)
