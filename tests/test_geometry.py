"""Geometric core: value types, the grasp frame, canonical transforms,
and rigid motion of grasps."""

import itertools
import math

import numpy as np
import pytest

from graspfield import (
    DataError,
    Grasp,
    GraspFrame,
    GraspFieldWarning,
    GripperModel,
    PointCloud,
    RigidTransform,
    canonical_orientation,
    derive_seed,
    estimate_normals,
    from_grasp_frame,
    grasp_frame,
    nearest_center,
    points_in_box,
    to_grasp_frame,
    transform_grasp,
)
from graspfield.geometry import (
    WORLD_UP,
    _cross3,
    _horizontal_reference,
    _nearest,
    _rotations,
    grasp_columns,
    local_coords,
    transform_grasps,
    unit,
)
from graspfield import geometry
from graspfield.synthetic import plane_grid, sphere_cloud

from conftest import random_unit


def random_rotation(rng):
    """Haar-ish rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def random_grasp(rng):
    return Grasp(
        rng.uniform(-0.1, 0.1, 3),
        random_unit(rng),
        rng.uniform(-math.pi / 2, math.pi / 2),
    )


def angle_between(a, b):
    """Robust small-angle measurement (atan2 of cross/dot)."""
    return math.atan2(np.linalg.norm(np.cross(a, b)), float(np.dot(a, b)))


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

class TestPointCloud:
    def test_copies_and_freezes(self):
        pts = np.zeros((4, 3))
        cloud = PointCloud(pts)
        pts[0, 0] = 5.0
        assert cloud.points[0, 0] == 0.0
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0

    def test_shape_checks(self):
        with pytest.raises(DataError):
            PointCloud(np.zeros((4, 2)))
        with pytest.raises(DataError):
            PointCloud(np.zeros(3))
        with pytest.raises(DataError):
            PointCloud([[0.0, 0.0, np.nan]])

    def test_color_range(self):
        pts = np.zeros((2, 3))
        PointCloud(pts, colors=[[0.0, 0.5, 1.0], [1.0, 1.0, 1.0]])
        with pytest.raises(DataError):
            PointCloud(pts, colors=[[0.0, 0.5, 1.5], [1.0, 1.0, 1.0]])
        with pytest.raises(DataError):
            PointCloud(pts, colors=np.zeros((3, 3)))

    def test_normals_must_be_unit(self):
        pts = np.zeros((2, 3))
        with pytest.raises(DataError):
            PointCloud(pts, normals=[[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        cloud = PointCloud(pts, normals=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert cloud.normals.shape == (2, 3)

    def test_select_carries_attributes(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(
            rng.normal(size=(6, 3)),
            colors=rng.uniform(size=(6, 3)),
            normals=random_unit(rng, 6),
        )
        sub = cloud.select([4, 1])
        assert np.array_equal(sub.points, cloud.points[[4, 1]])
        assert np.array_equal(sub.colors, cloud.colors[[4, 1]])
        assert np.array_equal(sub.normals, cloud.normals[[4, 1]])

    def test_frame_tag(self):
        with pytest.raises(DataError):
            PointCloud(np.zeros((1, 3)), frame_tag="banana")


class TestGrasp:
    def test_orientation_normalized(self):
        g = Grasp((0, 0, 0), (0, 0, 2.0), 0.1)
        assert np.allclose(g.orientation, (0, 0, 1))

    def test_angle_range(self):
        Grasp((0, 0, 0), (1, 0, 0), math.pi / 2)
        Grasp((0, 0, 0), (1, 0, 0), -math.pi / 2)
        with pytest.raises(DataError):
            Grasp((0, 0, 0), (1, 0, 0), math.pi / 2 + 1e-6)

    def test_zero_orientation_rejected(self):
        with pytest.raises(DataError):
            Grasp((0, 0, 0), (0, 0, 0), 0.0)

    def test_score_consistency(self):
        with pytest.raises(DataError):
            Grasp((0, 0, 0), (1, 0, 0), 0.0, score_antipodal=1, score_collision=0, score=1)
        g = Grasp((0, 0, 0), (1, 0, 0), 0.0).with_scores(1, 0)
        assert (g.score_antipodal, g.score_collision, g.score) == (1, 0, 0)
        assert g.scored

    def test_score_values(self):
        with pytest.raises(DataError):
            Grasp((0, 0, 0), (1, 0, 0), 0.0, score=2)


class TestGripperModel:
    def test_scale_is_max_extent(self, gripper):
        # length 0.06+0.02, width 0.08+2*0.01, height 0.02
        assert gripper.overall_length == pytest.approx(0.08)
        assert gripper.overall_width == pytest.approx(0.10)
        assert gripper.scale == pytest.approx(0.10)
        assert gripper.region_radius == pytest.approx(0.05)

    def test_scale_cross_check(self):
        GripperModel(scale=0.1)
        with pytest.raises(DataError):
            GripperModel(scale=0.2)

    def test_positive_dimensions(self):
        with pytest.raises(DataError):
            GripperModel(finger_length=0.0)

    def test_collision_boxes_cover_fingers_and_base(self, gripper):
        boxes = gripper.collision_boxes()
        assert len(boxes) == 3
        for lo, hi in boxes:
            assert np.all(hi > lo)
        # fingers sit just outside the closing half-width
        assert boxes[0][0][1] == pytest.approx(gripper.max_opening / 2)
        assert boxes[1][1][1] == pytest.approx(-gripper.max_opening / 2)
        # base sits behind the fingers along -x
        assert boxes[2][1][0] == pytest.approx(-gripper.finger_length / 2)


class TestRigidTransform:
    def test_rejects_non_rotation(self):
        with pytest.raises(DataError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(DataError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_compose_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t1 = RigidTransform(random_rotation(rng), rng.normal(size=3))
            t2 = RigidTransform(random_rotation(rng), rng.normal(size=3))
            pts = rng.normal(size=(10, 3))
            assert np.allclose(
                t1.compose(t2).apply_points(pts),
                t1.apply_points(t2.apply_points(pts)),
                atol=1e-12,
            )
            back = t1.inverse().apply_points(t1.apply_points(pts))
            assert np.allclose(back, pts, atol=1e-12)

    def test_apply_cloud_rotates_normals(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(5, 3)), normals=random_unit(rng, 5))
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        out = t.apply_cloud(cloud)
        assert np.allclose(out.points, cloud.points @ t.rotation.T + t.translation)
        assert np.allclose(out.normals, cloud.normals @ t.rotation.T)


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

class TestCanonicalOrientation:
    def test_flips_to_positive_lead(self):
        assert np.allclose(canonical_orientation((0, 0, -1)), (0, 0, 1))
        assert np.allclose(canonical_orientation((0, 0, 1)), (0, 0, 1))

    def test_idempotent_and_sign_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            r = random_unit(rng)
            c = canonical_orientation(r)
            assert np.array_equal(c, canonical_orientation(-r))
            # renormalization may wiggle the last ulp
            assert np.allclose(c, canonical_orientation(c), atol=1e-15)
            assert c[int(np.argmax(np.abs(c)))] > 0

    def test_normalizes(self):
        assert np.allclose(canonical_orientation((0, -3.0, 0)), (0, 1, 0))

    def test_zero_rejected(self):
        with pytest.raises(DataError):
            canonical_orientation((0, 0, 0))


class TestDeriveSeed:
    def test_distinct_paths_distinct_streams(self):
        a = np.random.default_rng(derive_seed(5, 0)).random(4)
        b = np.random.default_rng(derive_seed(5, 1)).random(4)
        assert not np.array_equal(a, b)

    def test_sequence_base_extends_path(self):
        direct = np.random.default_rng(derive_seed(5, 2, 7)).random(4)
        staged = np.random.default_rng(derive_seed((5, 2), 7)).random(4)
        assert np.array_equal(direct, staged)

    def test_reproducible(self):
        a = np.random.default_rng(derive_seed(9, 1, 2)).random(4)
        b = np.random.default_rng(derive_seed(9, 1, 2)).random(4)
        assert np.array_equal(a, b)

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            derive_seed(-1)
        with pytest.raises(DataError):
            derive_seed(3, -2)


# ---------------------------------------------------------------------------
# Grasp frame
# ---------------------------------------------------------------------------

class TestGraspFrame:
    def test_hand_case(self):
        # r=(0,1,0), theta=0: X' = up x Y = (0,0,1)x(0,1,0) = (-1,0,0)
        frame = grasp_frame(Grasp((0, 0, 0), (0, 1, 0), 0.0))
        assert np.allclose(frame.y_axis, (0, 1, 0), atol=1e-15)
        assert np.allclose(frame.x_axis, (-1, 0, 0), atol=1e-15)
        assert np.allclose(frame.z_axis, (0, 0, -1), atol=1e-15)

    def test_zero_angle_keeps_horizontal_reference(self):
        rng = np.random.default_rng(2)
        up = np.array([0.0, 0.0, 1.0])
        for _ in range(50):
            y = random_unit(rng)
            if abs(y[2]) > 0.99:
                continue
            frame = grasp_frame(Grasp((0, 0, 0), y, 0.0))
            xp = np.cross(up, frame.y_axis)
            xp /= np.linalg.norm(xp)
            assert np.allclose(frame.x_axis, xp, atol=1e-12)
            assert abs(frame.x_axis @ up) < 1e-12  # horizontal

    def test_orthonormal_right_handed_property(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            frame = grasp_frame(random_grasp(rng))
            r = frame.rotation
            assert np.abs(r @ r.T - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_up_parallel_fallback(self):
        for sign in (1.0, -1.0):
            frame = grasp_frame(Grasp((0, 0, 0), (0, 0, sign), 0.3))
            r = frame.rotation
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_near_vertical_lines_leaning_off_the_fallback(self):
        # within 1e-6 of up the reference falls back to up x e_x = e_y; a
        # line leaning toward y is not orthogonal to it and used to raise
        # "frame axes must be mutually orthogonal"
        identity = RigidTransform(np.eye(3), np.zeros(3))
        for lean in (1e-9, 1e-8, 1e-7, 5e-7, 9e-7):
            for sign in (1.0, -1.0):
                for direction in ((0.0, lean), (0.0, -lean), (lean, lean)):
                    for theta in (-1.5, 0.0, 0.3, 1.2):
                        g = Grasp((0, 0, 0), (*direction, sign), theta)
                        frame = grasp_frame(g)
                        r = frame.rotation
                        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
                        assert np.array_equal(frame.y_axis, g.orientation)
                        back = transform_grasp(g, identity)
                        assert abs(back.angle - theta) < 1e-9

    def test_theta_rotation_about_y(self):
        # rotating X' by theta then by -theta restores X'
        rng = np.random.default_rng(6)
        for _ in range(50):
            y = random_unit(rng)
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
            pos = grasp_frame(Grasp((0, 0, 0), y, theta))
            ref = grasp_frame(Grasp((0, 0, 0), y, 0.0))
            # X' stays fixed under the composed rotations
            ct, st = math.cos(-theta), math.sin(-theta)
            undone = pos.x_axis * ct + np.cross(y / np.linalg.norm(y), pos.x_axis) * st
            assert np.allclose(undone, ref.x_axis, atol=1e-9)

    def test_custom_up(self):
        frame = grasp_frame(Grasp((0, 0, 0), (0, 0, 1), 0.0), up=(1.0, 0.0, 0.0))
        # up x Y = (1,0,0)x(0,0,1) = (0,-1,0)
        assert np.allclose(frame.x_axis, (0, -1, 0), atol=1e-15)

    def test_frame_validation(self):
        with pytest.raises(DataError):
            GraspFrame((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, -1))  # left-handed
        with pytest.raises(DataError):
            GraspFrame((0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 0, 1))  # not orthogonal
        with pytest.raises(DataError):
            GraspFrame((0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1))  # not unit


def np_cross_frame(g, up=(0.0, 0.0, 1.0)):
    """The grasp frame built with np.cross throughout (reference)."""
    up = np.asarray(up, dtype=np.float64)
    up = up / np.linalg.norm(up)
    y = g.orientation
    for ref in (y, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        xp = np.cross(up, ref)
        n = np.linalg.norm(xp)
        if n >= 1e-6:
            xp = xp / n
            break
    x = xp * np.cos(g.angle) + np.cross(y, xp) * np.sin(g.angle)
    x = x / np.linalg.norm(x)
    z = np.cross(x, y)
    return x, y, z / np.linalg.norm(z)


class TestCross3:
    def test_bit_equal_to_np_cross(self):
        rng = np.random.default_rng(40)
        a = rng.normal(size=(100_000, 3))
        b = rng.normal(size=(100_000, 3))
        # signed zeros, subnormal and huge components
        a[::5, 0] = 0.0
        a[::7, 1] = -0.0
        b[::3, 2] = -0.0
        b[::11] = 0.0
        a[::13] *= 1e-310
        b[::17] *= 1e300
        got = np.array([_cross3(x, y) for x, y in zip(a, b)])
        want = np.cross(a, b)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_grasp_frame_bit_equal_to_np_cross_construction(self):
        rng = np.random.default_rng(41)
        grasps = [random_grasp(rng) for _ in range(500)]
        # vertical and nearly vertical closing lines take the fallback
        for sign in (1.0, -1.0):
            for tilt in (0.0, -0.0, 1e-9, -1e-7, 5e-7):
                grasps.append(Grasp((0.01, 0, 0), (tilt, 0.0, sign), rng.uniform(-1.5, 1.5)))
                grasps.append(Grasp((0, 0, 0), (tilt, 0.0, sign), 0.0))
        for g in grasps:
            frame = grasp_frame(g)
            for got, want in zip((frame.x_axis, frame.y_axis, frame.z_axis), np_cross_frame(g)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_grasp_frame_custom_up_fallback(self):
        # up along x: closing lines along x degenerate onto the second basis
        for g in (Grasp((0, 0, 0), (1, 0, 0), 0.4), Grasp((0, 0, 0), (-1, 0, 0), -0.2)):
            frame = grasp_frame(g, up=(1.0, 0.0, 0.0))
            want = np_cross_frame(g, up=(1.0, 0.0, 0.0))
            assert all(np.array_equal(a, b) for a, b in zip((frame.x_axis, frame.y_axis, frame.z_axis), want))


class TestCanonicalTransform:
    def test_origin_maps_to_zero(self):
        rng = np.random.default_rng(8)
        g = random_grasp(rng)
        frame = grasp_frame(g)
        out = to_grasp_frame(PointCloud([g.center]), frame)
        assert np.allclose(out.points[0], 0.0, atol=1e-12)
        assert out.frame_tag == "grasp"

    def test_identity_frame_is_noop(self):
        frame = GraspFrame((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        pts = np.random.default_rng(0).normal(size=(10, 3))
        out = to_grasp_frame(PointCloud(pts), frame)
        assert np.allclose(out.points, pts, atol=1e-15)

    def test_round_trip_and_isometry(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            g = random_grasp(rng)
            frame = grasp_frame(g)
            cloud = PointCloud(rng.normal(size=(30, 3)), normals=random_unit(rng, 30))
            local = to_grasp_frame(cloud, frame)
            back = from_grasp_frame(local, frame)
            assert np.abs(back.points - cloud.points).max() < 1e-9
            assert np.abs(back.normals - cloud.normals).max() < 1e-9
            # isometry: pairwise distances preserved
            d0 = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=-1)
            d1 = np.linalg.norm(local.points[:, None] - local.points[None], axis=-1)
            assert np.abs(d0 - d1).max() < 1e-9


class TestLocalCoords:
    @staticmethod
    def permutation_frames():
        """The 24 proper rotations that permute and sign-flip the axes."""
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                r = np.zeros((3, 3))
                r[[0, 1, 2], list(perm)] = signs
                if np.linalg.det(r) > 0.0:
                    yield r

    @pytest.mark.parametrize("n", [*range(1, 17), 3150, 20000])
    def test_columns_equal_row_product_bit_for_bit(self, n):
        # column i of R^T (cols - origin) is row i of (points - origin) @ R,
        # signed zeros included: contacts are decided by grasp-frame ties
        rng = np.random.default_rng(n)
        points = rng.normal(size=(n, 3)) * 0.05
        if n % 2:
            points = np.round(points, 3)
        rotations = [grasp_frame(random_grasp(rng)).rotation for _ in range(6 if n < 100 else 2)]
        rotations += list(self.permutation_frames())[:: 1 if n < 100 else 6]
        work = grasp_columns(points)
        for r in rotations:
            origin = np.round(rng.normal(size=3) * 0.05, 3)
            want = (points - origin) @ r
            idx, local = local_coords(work, origin, r)
            assert np.array_equal(idx, np.arange(n))
            assert local.shape == (3, n) and local.flags.c_contiguous
            assert np.array_equal(local.T, want)
            assert np.array_equal(np.signbit(local.T), np.signbit(want))

    def test_slab_is_closed_and_ascending(self):
        points = np.array([[0.0, 0.0, 0.5], [1.0, 2.0, -0.5], [0.0, 0.0, 0.5000001], [3.0, 0.0, 0.0]])
        idx, local = local_coords(grasp_columns(points), np.zeros(3), np.eye(3), 0.5)
        assert np.array_equal(idx, [0, 1, 3])
        assert np.array_equal(local, points[idx].T)

    def test_empty_cloud(self):
        idx, local = local_coords(grasp_columns(np.zeros((0, 3))), np.zeros(3), np.eye(3), 0.1)
        assert idx.size == 0 and local.shape == (3, 0)

    def test_rotation_is_the_frame(self):
        rng = np.random.default_rng(77)
        grasps = [random_grasp(rng) for _ in range(200)] + [Grasp((0, 0, 0), (0, 0, 1), 0.3)]
        stack = _rotations(np.array([g.orientation for g in grasps]), np.array([g.angle for g in grasps]), WORLD_UP)
        assert stack.shape == (len(grasps), 3, 3) and stack.flags.c_contiguous
        for g, r in zip(grasps, stack):
            assert r.flags.c_contiguous
            assert np.array_equal(r, grasp_frame(g).rotation)


class TestPointsInBox:
    def test_empty_cloud(self):
        frame = GraspFrame((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert points_in_box(PointCloud(np.zeros((0, 3))), frame, (1, 1, 1)).size == 0

    def test_unit_cube_all_inside(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.5, 0.5, size=(50, 3))
        frame = GraspFrame((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        idx = points_in_box(PointCloud(pts), frame, (0.5, 0.5, 0.5))
        assert np.array_equal(idx, np.arange(50))

    def test_matches_direct_scan(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-1, 1, size=(100, 3))
        g = random_grasp(rng)
        frame = grasp_frame(g)
        h = np.array([0.25, 0.25, 0.25])
        idx = points_in_box(PointCloud(pts), frame, h)
        expect = []
        for i, p in enumerate(pts):
            local = frame.rotation.T @ (p - frame.origin)
            if all(abs(local[a]) <= h[a] for a in range(3)):
                expect.append(i)
        assert np.array_equal(idx, np.array(expect, dtype=np.int64))

    def test_bad_extents(self):
        frame = GraspFrame((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(DataError):
            points_in_box(PointCloud(np.zeros((1, 3))), frame, (0.0, 1, 1))


# ---------------------------------------------------------------------------
# Rigid motion of grasps
# ---------------------------------------------------------------------------

class TestTransformGrasp:
    def test_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            g = random_grasp(rng)
            out = transform_grasp(g, RigidTransform.identity())
            assert np.allclose(out.center, g.center, atol=1e-12)
            assert angle_between(out.orientation, g.orientation) < 1e-9
            assert abs(out.angle - g.angle) < 1e-9

    def test_preserves_physical_pose(self):
        # the recovered frame must equal the rigidly moved frame up to the
        # jaw symmetry (y, z jointly negated)
        rng = np.random.default_rng(22)
        for _ in range(200):
            g = random_grasp(rng)
            t = RigidTransform(random_rotation(rng), rng.normal(size=3))
            moved = transform_grasp(g, t)
            f0 = grasp_frame(g)
            f1 = grasp_frame(moved)
            assert np.allclose(moved.center, t.apply_points(g.center), atol=1e-12)
            assert np.abs(f1.x_axis - t.apply_vectors(f0.x_axis)).max() < 1e-9
            sign = 1.0 if f1.y_axis @ t.apply_vectors(f0.y_axis) > 0 else -1.0
            assert np.abs(f1.y_axis - sign * t.apply_vectors(f0.y_axis)).max() < 1e-9
            assert np.abs(f1.z_axis - sign * t.apply_vectors(f0.z_axis)).max() < 1e-9
            assert -math.pi / 2 <= moved.angle <= math.pi / 2

    def test_drops_scores(self):
        g = Grasp((0, 0, 0), (0, 1, 0), 0.0).with_scores(1, 1)
        out = transform_grasp(g, RigidTransform.identity())
        assert not out.scored

    def test_up_parallel_small_twist(self):
        # orientation along up, small rotation about z: the moved hand is still
        # representable, so the whole frame must follow the motion
        g = Grasp((0.01, 0.02, 0.03), (0, 0, 1), 0.4)
        c, s = math.cos(0.3), math.sin(0.3)
        t = RigidTransform(np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]]), np.zeros(3))
        moved = transform_grasp(g, t)
        f0, f1 = grasp_frame(g), grasp_frame(moved)
        assert np.abs(f1.x_axis - t.apply_vectors(f0.x_axis)).max() < 1e-9
        assert abs(moved.angle - 0.7) < 1e-9

    def test_up_parallel_closing_line_always_kept(self):
        # a quarter turn pushes the hand azimuth outside the representable
        # half-space; the closing line and angle range must still hold
        g = Grasp((0.01, 0.02, 0.03), (0, 0, 1), 0.4)
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t = RigidTransform(rot, np.zeros(3))
        moved = transform_grasp(g, t)
        assert min(
            angle_between(moved.orientation, (0, 0, 1)),
            angle_between(moved.orientation, (0, 0, -1)),
        ) < 1e-9
        assert -math.pi / 2 <= moved.angle <= math.pi / 2
        r = grasp_frame(moved).rotation
        assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_composition_matches_single_step(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            g = random_grasp(rng)
            t1 = RigidTransform(random_rotation(rng), rng.normal(size=3))
            t2 = RigidTransform(random_rotation(rng), rng.normal(size=3))
            once = transform_grasp(g, t2.compose(t1))
            twice = transform_grasp(transform_grasp(g, t1), t2)
            assert np.allclose(once.center, twice.center, atol=1e-9)
            assert angle_between(once.orientation, twice.orientation) < 1e-9 or (
                angle_between(once.orientation, -twice.orientation) < 1e-9
            )
            f_once, f_twice = grasp_frame(once), grasp_frame(twice)
            assert np.abs(f_once.x_axis - f_twice.x_axis).max() < 1e-9


# ---------------------------------------------------------------------------
# Stacked frames and rigid motions against the single-grasp reference
# ---------------------------------------------------------------------------

def reference_rotation(g, up):
    """The single-grasp frame builder the stacked one replaced, kept as the
    reference: one grasp at a time, 1-D norms and dots."""
    y = g.orientation
    xp = _horizontal_reference(y, up)
    ct, st = np.cos(g.angle), np.sin(g.angle)
    x = xp * ct + _cross3(y, xp) * st  # Rodrigues with y . xp = 0
    x = x / np.linalg.norm(x)
    z = _cross3(x, y)
    return np.column_stack([x, y, z / np.linalg.norm(z)])


def reference_transform_grasp(g, transform, up=WORLD_UP, seen=None):
    """The single-grasp rigid motion the stacked one replaced (reference);
    ``seen`` counts the rows that take the jaw-symmetry flip."""
    up = unit(np.asarray(up, dtype=np.float64))
    r = reference_rotation(g, up)
    frame = GraspFrame(g.center, r[:, 0], r[:, 1], r[:, 2])
    center = transform.apply_points(g.center)
    x_new = transform.apply_vectors(frame.x_axis)
    y_new = transform.apply_vectors(frame.y_axis)

    xp = _horizontal_reference(y_new, up)
    theta = float(np.arctan2(_cross3(xp, x_new) @ y_new, xp @ x_new))
    if abs(theta) > np.pi / 2:
        y_new = -y_new
        theta = np.pi - theta
        if theta > np.pi:
            theta -= 2.0 * np.pi
        if seen is not None:
            seen["flip"] += 1
    theta = float(np.clip(theta, -np.pi / 2, np.pi / 2))
    return Grasp(center, y_new, theta)


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def grid_grasps():
    """Axis-aligned and diagonal closing lines on a 2 mm grid, with angles
    on the pi/8 grid, signed zeros and the range ends."""
    lines = [
        p
        for p in itertools.product((-1.0, -0.0, 0.0, 0.5, 1.0), repeat=3)
        if any(abs(c) > 0.0 for c in p)
    ]
    angles = [-math.pi / 2, -3 * math.pi / 8, -math.pi / 4, -0.0, 0.0, math.pi / 8, math.pi / 3, math.pi / 2]
    rng = np.random.default_rng(5)
    return [
        Grasp(np.round(rng.uniform(-0.1, 0.1, 3) / 0.002) * 0.002, line, angle)
        for line in lines
        for angle in angles
    ]


def vertical_grasps():
    """Exactly and nearly vertical closing lines: within 1e-6 of up they
    take the horizontal reference's fallback, just beyond it they do not."""
    out = []
    for sign in (1.0, -1.0):
        for lean in (0.0, -0.0, 1e-12, 1e-9, 3e-7, 9.99e-7, 1e-6, 1.01e-6, 1e-5):
            for direction in ((lean, 0.0), (0.0, lean), (-lean, lean), (lean, -0.0)):
                for theta in (-math.pi / 2, -1.2, -0.0, 0.4, math.pi / 2):
                    out.append(Grasp((0.01, -0.02, 0.03), (*direction, sign), theta))
    return out


def turns():
    """Rigid motions that keep, flip and reverse closing lines: the
    identity, quarter and half turns about each axis, and random ones."""
    rng = np.random.default_rng(31)
    out = [RigidTransform.identity()]
    for axis in range(3):
        for quarter in (1, 2):
            c, s = [(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][quarter - 1]
            i, j = [(1, 2), (2, 0), (0, 1)][axis]
            r = np.eye(3)
            r[i, i], r[i, j], r[j, i], r[j, j] = c, -s, s, c
            out.append(RigidTransform(r, np.round(rng.normal(size=3) * 0.1, 3)))
    out += [RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.2) for _ in range(3)]
    return out


class TestStackedFrames:
    @staticmethod
    def stack(grasps, up=WORLD_UP):
        orientations = np.array([g.orientation for g in grasps]).reshape(-1, 3)
        return _rotations(orientations, np.array([g.angle for g in grasps]), up)

    @pytest.mark.parametrize("name", ["random", "grid", "vertical"])
    def test_rotations_bit_equal_to_reference(self, name):
        grasps = {
            "random": lambda: [random_grasp(np.random.default_rng(i)) for i in range(2000)],
            "grid": grid_grasps,
            "vertical": vertical_grasps,
        }[name]()
        stack = self.stack(grasps)
        assert stack.flags.c_contiguous
        for g, r in zip(grasps, stack):
            assert_bits_equal(r, reference_rotation(g, WORLD_UP))

    def test_custom_up_fallback_rows(self):
        up = np.array([1.0, 0.0, 0.0])
        grasps = [
            Grasp((0, 0, 0), (sign, lean, 0.0), theta)
            for sign in (1.0, -1.0)
            for lean in (0.0, 1e-8, 2e-6)
            for theta in (-1.0, 0.5)
        ]
        for g, r in zip(grasps, self.stack(grasps, up)):
            assert_bits_equal(r, reference_rotation(g, up))

    def test_empty_batch(self):
        assert self.stack([]).shape == (0, 3, 3)
        centers, orientations, angles = transform_grasps([], RigidTransform.identity())
        assert centers.shape == (0, 3) and orientations.shape == (0, 3) and angles.shape == (0,)

    @pytest.mark.parametrize("name", ["random", "grid", "vertical"])
    def test_transform_grasps_bit_equal_to_reference(self, name):
        rng = np.random.default_rng(8)
        grasps = {
            "random": lambda: [random_grasp(rng) for _ in range(300)],
            "grid": grid_grasps,
            "vertical": vertical_grasps,
        }[name]()
        seen = {"flip": 0}
        at_bounds = 0
        for t in turns():
            centers, orientations, angles = transform_grasps(grasps, t)
            for i, (g, c, o, a) in enumerate(zip(grasps, centers, orientations, angles)):
                want = reference_transform_grasp(g, t, seen=seen)
                assert_bits_equal(c, want.center)
                assert_bits_equal(o, want.orientation)
                assert_bits_equal(a, want.angle)
                if i % 7 == 0:  # the one-grasp wrapper, on a sample
                    got = transform_grasp(g, t)
                    assert_bits_equal(got.orientation, want.orientation)
                    assert_bits_equal(got.angle, want.angle)
            at_bounds += int((np.abs(angles) == np.pi / 2).sum())
        # the flip runs, and angles land exactly on the clip's bounds
        assert seen["flip"] > 0
        assert at_bounds > 0 or name == "random"

    def test_checks_keep_their_messages(self, monkeypatch):
        g = Grasp((0, 0, 0), (0, 1, 0), 0.2)
        rotations = _rotations
        monkeypatch.setattr(geometry, "_rotations", lambda *a: rotations(*a) * np.array([1.0, 1.0, -1.0]))
        with pytest.raises(DataError, match="frame must be right-handed"):
            transform_grasps([g], RigidTransform.identity())


class TestNearestCenter:
    def test_prebuilt_centers_match(self):
        rng = np.random.default_rng(9)
        grasps = [random_grasp(rng) for _ in range(50)]
        centers = np.array([g.center for g in grasps])
        for point in rng.uniform(-0.1, 0.1, size=(100, 3)):
            assert _nearest(centers, point) == nearest_center(grasps, point)
        with pytest.raises(DataError, match="empty grasp list"):
            _nearest(np.zeros((0, 3)), (0, 0, 0))

    def test_basic(self):
        grasps = [
            Grasp((0, 0, 0), (1, 0, 0), 0.0),
            Grasp((0.1, 0, 0), (1, 0, 0), 0.0),
        ]
        i, d = nearest_center(grasps, (0.09, 0, 0))
        assert i == 1
        assert d == pytest.approx(0.01)

    def test_empty(self):
        with pytest.raises(DataError):
            nearest_center([], (0, 0, 0))


# ---------------------------------------------------------------------------
# Normal estimation
# ---------------------------------------------------------------------------

class TestEstimateNormals:
    def test_plane_normals_point_up(self):
        plane = PointCloud(plane_grid(half_size=0.05, spacing=0.005).points)
        out = estimate_normals(plane, k=9, viewpoint=(0.0, 0.0, 1.0))
        assert np.abs(out.normals[:, 2] - 1.0).max() < 1e-6
        assert np.abs(out.normals[:, :2]).max() < 1e-6

    def test_sphere_normals_near_radial(self):
        sphere = sphere_cloud(radius=0.05, count=1000)
        bare = PointCloud(sphere.points)
        out = estimate_normals(bare, k=12, viewpoint=(0.0, 0.0, 1.0))
        # sign is viewpoint-dependent; compare folded angle to the radial truth
        dots = np.abs(np.einsum("ni,ni->n", out.normals, sphere.normals))
        assert np.degrees(np.arccos(np.clip(dots, -1, 1))).max() < 5.0

    def test_insufficient_points(self):
        with pytest.raises(DataError, match="insufficient points"):
            estimate_normals(PointCloud(np.zeros((2, 3))), k=3)
        with pytest.raises(DataError):
            estimate_normals(PointCloud(np.random.default_rng(0).normal(size=(10, 3))), k=2)

    def test_collinear_degenerate_flagged(self):
        pts = np.zeros((12, 3))
        pts[:, 0] = np.arange(12) * 0.01
        with pytest.warns(GraspFieldWarning, match="degenerate"):
            out = estimate_normals(PointCloud(pts), k=4, viewpoint=(0.0, 0.0, 1.0))
        assert np.abs(np.linalg.norm(out.normals, axis=1) - 1.0).max() < 1e-9

    def test_rigid_invariance_folded(self):
        rng = np.random.default_rng(30)
        sphere = sphere_cloud(radius=0.05, count=400)
        bare = PointCloud(sphere.points)
        vp = np.array([0.0, 0.0, 0.3])
        base = estimate_normals(bare, k=10, viewpoint=vp)
        t = RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.1)
        moved = estimate_normals(
            PointCloud(t.apply_points(bare.points)), k=10, viewpoint=t.apply_points(vp)
        )
        expect = base.normals @ t.rotation.T
        mismatch = np.minimum(
            np.abs(moved.normals - expect).max(axis=1),
            np.abs(moved.normals + expect).max(axis=1),
        )
        assert mismatch.max() < 1e-6
