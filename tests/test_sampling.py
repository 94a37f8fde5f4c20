"""Candidate sampling, positive-set building, and single-view rendering."""

import math
import warnings

import numpy as np
import pytest

from graspfield import (
    DataError,
    Grasp,
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
from graspfield.geometry import RigidTransform, _cross3, canonical_orientation, unit
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
        # first batch draws the pair (its candidate scores 0), the second
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
        assert yields == [1, 0]
        (message,) = [str(w.message) for w in caught]
        assert message == (
            "only 0 of 1 positive grasps found before sampler batch 2 yielded no candidate (32 of 100 budgeted drawn)"
        )

    def test_negative_request_rejected(self, box, gripper):
        with pytest.raises(DataError, match="per_object"):
            build_positive_set(box, gripper, per_object=-1)
        with pytest.raises(DataError, match="ray_tol"):
            build_positive_set(box, gripper, per_object=5, tol=float("nan"))


# The first-written sampler, kept as the reference: numpy-array cone
# draws and a hit test over the whole cloud on every attempt.


def _reference_perpendicular(v):
    axis = np.zeros(3)
    axis[np.argmin(np.abs(v))] = 1.0
    return unit(_cross3(v, axis))


def _reference_sample_cone(rng, axis, half_angle):
    u, w = rng.random(2)
    cos_psi = 1.0 - u * (1.0 - math.cos(half_angle))
    sin_psi = math.sqrt(max(0.0, 1.0 - cos_psi * cos_psi))
    phi = 2.0 * math.pi * w
    e1 = _reference_perpendicular(axis)
    e2 = _cross3(axis, e1)
    return axis * cos_psi + (e1 * math.cos(phi) + e2 * math.sin(phi)) * sin_psi


def _reference_candidates(
    obj, gripper, count, seed, mu=0.6, ray_tol=0.005, cone=_reference_sample_cone, drawn=None, accepted=None
):
    """The candidates; ``drawn`` and ``accepted`` collect the origin of
    every attempt and of every candidate."""
    rng = np.random.default_rng(seed)
    pts, nrm = obj.points, obj.normals
    half_angle = math.atan(mu)
    cos_half = math.cos(half_angle)
    out = []
    for _ in range(sampling.ATTEMPT_FACTOR * count):
        if len(out) >= count:
            break
        i = int(rng.integers(len(pts)))
        if drawn is not None:
            drawn.append(i)
        direction = cone(rng, -nrm[i], half_angle)
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
        r = canonical_orientation(span / width)
        if abs(float(r @ nrm[i])) < cos_half:
            continue
        theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        out.append(Grasp((pts[i] + pts[j]) / 2.0, r, theta))
        if accepted is not None:
            accepted.append(i)
    return out


def _reference_sample(obj, gripper, count, seed, mu, ray_tol, state):
    """``sampling._sample`` with the reference loop in place of the attempt loop."""
    out = _reference_candidates(obj, gripper, count, seed, mu, ray_tol)
    if not out:
        raise UngraspableError("object not graspable at this gripper scale")
    return GraspSet.of(out)


def _positive_set(*args, **kwargs):
    """``build_positive_set`` and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = build_positive_set(*args, **kwargs)
    return got, [str(w.message) for w in caught]


def _assert_same_grasps(got, want):
    assert len(got) == len(want) > 0
    for g, h in zip(got, want):
        assert np.array_equal(g.center, h.center)
        assert np.array_equal(g.orientation, h.orientation)
        assert g.angle == h.angle
        assert g.score == h.score


def _zero_smallest(direction):
    """The direction with its smallest component set to exactly zero."""
    direction = direction.copy()
    direction[np.argmin(np.abs(direction))] = 0.0
    return direction


@pytest.fixture(scope="module")
def scene():
    """A table plane with a box and a cylinder on it: above the crossover,
    with plane points whose rays leave the bounding box at once."""
    plane = plane_grid(0.25, 0.004)
    box, cyl = box_cloud(), cylinder_cloud()
    points = np.concatenate([plane.points, box.points + (0.1, 0.0, 0.015), cyl.points + (-0.08, 0.06, 0.04)])
    normals = np.concatenate([plane.normals, box.normals, cyl.normals])
    cloud = PointCloud(points, normals=normals)
    assert len(cloud) >= sampling.RAY_INDEX_MIN_POINTS
    return cloud


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
        draws = 100_000
        new_rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        got, want = np.empty((draws, 3)), np.empty((draws, 3))
        for n in range(draws):
            axis = axes[n % len(axes)]
            half = half_angles[n % len(half_angles)]
            got[n] = sampling._sample_cone(new_rng, axis.tolist(), half)
            want[n] = _reference_sample_cone(ref_rng, axis, half)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_candidates_match_whole_cloud_scan(self, scene, gripper, monkeypatch):
        calls = []
        near_ray = sampling._RayIndex.near_ray
        monkeypatch.setattr(sampling._RayIndex, "near_ray", lambda *a: calls.append(1) or near_ray(*a))
        for seed in (3, 4):
            want = _reference_candidates(scene, gripper, 80, seed)
            _assert_same_grasps(sample_candidates(scene, gripper, 80, seed=seed), want)
        assert calls  # the tree path ran

    def test_candidates_match_with_zero_direction_components(self, scene, gripper, monkeypatch):
        cone = sampling._sample_cone
        monkeypatch.setattr(sampling, "_sample_cone", lambda *a: _zero_smallest(cone(*a)))
        want = _reference_candidates(scene, gripper, 60, 5, cone=lambda *a: _zero_smallest(_reference_sample_cone(*a)))
        _assert_same_grasps(sample_candidates(scene, gripper, 60, seed=5), want)

    def test_small_clouds_scan_every_point(self, box, scene, gripper):
        assert len(box) < sampling.RAY_INDEX_MIN_POINTS
        assert isinstance(sampling._sampler_state(box, gripper, 0.6, 0.005), sampling._DeadOrigins)
        assert isinstance(sampling._sampler_state(scene, gripper, 0.6, 0.005), sampling._RayIndex)

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    def test_superset_holds_every_hit(self, scene, offset):
        pts = scene.points + offset
        tol = 0.005
        index = sampling._RayIndex(pts, tol)
        rng = np.random.default_rng(8)
        directions = [unit(v) for v in rng.normal(size=(150, 3))]
        for k in range(3):
            for sign in (1.0, -1.0):
                e = np.zeros(3)
                e[k] = sign
                directions.append(e)
        directions += [_zero_smallest(d) for d in directions[:50]]
        directions += [d * scale for d in directions[:60] for scale in (1.0 - 1e-6, 1.0 + 1e-6)]
        for n, direction in enumerate(directions):
            i = int(rng.integers(len(pts)))
            near = index.near_ray(pts[i], direction)
            assert np.all(np.diff(near) >= 0)
            rel = pts - pts[i]
            t = rel @ direction
            perp_sq = np.einsum("ni,ni->n", rel, rel) - t * t
            hits = np.nonzero((t > tol) & (perp_sq <= tol * tol))[0]
            assert np.isin(hits, near).all(), n

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
        rel = pts - pts[0]
        t = rel @ direction
        perp_sq = np.einsum("ni,ni->n", rel, rel) - t * t
        hits = np.nonzero((t > tol) & (perp_sq <= tol * tol))[0]
        assert len(hits) == len(s)
        near = sampling._RayIndex(pts, tol).near_ray(pts[0], direction)
        assert np.isin(hits, near).all()

    def test_build_positive_set_same_with_shared_tree(self, scene, gripper, monkeypatch):
        shared = build_positive_set(scene, gripper, per_object=8, seed=2)
        sample = sampling._sample

        def own_index(obj, gripper, count, seed, mu, ray_tol, state):
            assert isinstance(state, sampling._RayIndex)
            return sample(obj, gripper, count, seed, mu, ray_tol, sampling._sampler_state(obj, gripper, mu, ray_tol))

        def scan(obj, gripper, count, seed, mu, ray_tol, state):
            return sample(obj, gripper, count, seed, mu, ray_tol, sampling._DeadOrigins(obj, gripper.max_opening, mu))

        monkeypatch.setattr(sampling, "_sample", own_index)
        _assert_same_grasps(shared, build_positive_set(scene, gripper, per_object=8, seed=2))
        monkeypatch.setattr(sampling, "_sample", scan)  # whole-cloud scan
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


@pytest.fixture(scope="module")
def small_scene():
    cloud = dead_plane_scene()
    assert len(cloud) < sampling.RAY_INDEX_MIN_POINTS
    return cloud


class TestDeadOrigins:
    """Below the crossover the sampler skips origins proven dead; the
    candidates and the error match the reference loop."""

    @pytest.fixture
    def casts(self, monkeypatch):
        origins = []
        cast = sampling._cast
        monkeypatch.setattr(sampling, "_cast", lambda pts, i, *a: origins.append(i) or cast(pts, i, *a))
        return origins

    @pytest.mark.parametrize("seed", [0, 5])
    def test_wide_sphere_casts_each_origin_once(self, gripper, casts, seed):
        wide = sphere_cloud()
        drawn = []
        assert _reference_candidates(wide, gripper, 50, seed, drawn=drawn) == []
        with pytest.raises(UngraspableError, match=UNGRASPABLE):
            sample_candidates(wide, gripper, 50, seed=seed)
        # the same origins in the same order, each cast on its first draw only
        assert casts == list(dict.fromkeys(drawn))[: len(casts)]
        assert len(casts) < len(drawn)

    def test_wide_sphere_stops_once_every_origin_is_dead(self, gripper, casts):
        wide = sphere_cloud(count=300)
        rng = np.random.default_rng(0)  # the sampler draws from this generator itself
        with pytest.raises(UngraspableError, match=UNGRASPABLE):
            sample_candidates(wide, gripper, 400, seed=rng)
        assert sorted(casts) == list(range(len(wide)))
        # every attempt draws an origin and a cone; the last one drew the
        # last origin still unseen, far short of 40k attempts
        replay, seen, attempts = np.random.default_rng(0), set(), 0
        while len(seen) < len(wide):
            seen.add(int(replay.integers(len(wide))))
            replay.random(2)
            attempts += 1
        assert attempts < 400 * sampling.ATTEMPT_FACTOR
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("seed", [1, 2])
    def test_tight_box_raises_as_reference(self, box, casts, seed):
        tight = GripperModel(max_opening=0.01)
        drawn = []
        assert _reference_candidates(box, tight, 10, seed, drawn=drawn) == []
        with pytest.raises(UngraspableError, match=UNGRASPABLE):
            sample_candidates(box, tight, 10, seed=seed)
        assert len(casts) < len(drawn)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_small_scene_candidates_match_reference(self, small_scene, gripper, casts, seed):
        drawn = []
        want = _reference_candidates(small_scene, gripper, 60, seed, drawn=drawn)
        _assert_same_grasps(sample_candidates(small_scene, gripper, 60, seed=seed), want)
        assert len(casts) < len(drawn)  # dead plane origins were skipped

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
                memo = sampling._DeadOrigins(PointCloud(pts, normals=[normal, side]), opening, mu)
                if past_angle or past_width:
                    assert not memo.alive(0), n
                elif sampling._closing_line(pts, np.array([normal]), 0, 1, opening, math.cos(math.atan(mu))) is not None:
                    assert memo.alive(0), n
                    accepted += 1
        assert accepted > 100

    def test_every_accepted_origin_is_alive(self):
        # the objects-mixed shapes under a pose, normals just off unit
        shapes = [box_cloud(), cylinder_cloud(), sphere_cloud(radius=0.035), sphere_cloud()]
        accepted_any = dead_any = 0
        for n, shape in enumerate(shapes):
            obj = _perturbed(shape, n)
            for mu in (0.2, 0.6, 1.2):
                for opening in (0.01, 0.08):
                    accepted = []
                    _reference_candidates(obj, GripperModel(max_opening=opening), 10, n, mu=mu, accepted=accepted)
                    memo = sampling._DeadOrigins(obj, opening, mu)
                    assert all(memo.alive(i) for i in accepted), (n, mu, opening)
                    accepted_any += len(accepted)
                    dead_any += sum(not memo.alive(i) for i in range(0, len(obj), 50))
        assert accepted_any and dead_any  # neither side is vacuous


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
