"""Grasp physics: jaw-sweep contact extraction, the friction-cone
(antipodal) test, the collision test, and the combined score."""

import math

import numpy as np
import pytest

from graspfield import (
    DataError,
    GraspSet,
    PointCloud,
    RigidTransform,
    find_contacts,
    transform_grasps,
)
from graspfield import geometry
from graspfield.geometry import GripperModel, local_coords
from graspfield.metrics import evaluate
from graspfield.quality import DEFAULT_CONTACT_TOL, DEFAULT_MU, _intervals, _sweep, score_grasps
from graspfield.sampling import sample_candidates
from graspfield.synthetic import box_cloud, cylinder_cloud, plane_grid, sphere_cloud

from conftest import (
    ContactPair,
    GraspFrame,
    antipodal_score,
    collision_score,
    contact_pair,
    grasp_frame,
    one_grasp,
    points_in_box,
    random_unit,
    stack,
)
from test_geometry import permutation_frames, random_grasp, random_rotation


def oracle_antipodal(contacts, mu):
    """Independent friction-cone check via tangential decomposition:
    the tangential force magnitude may not exceed mu times the normal
    component. Folded in the normal sign like the implementation."""
    for n, f in (
        (contacts.normal_a, contacts.force_a),
        (contacts.normal_b, contacts.force_b),
    ):
        f_in = abs(float(np.dot(f, n)))
        tangential = f - float(np.dot(f, n)) * n
        if math.sqrt(float(np.dot(tangential, tangential))) > mu * f_in:
            return 0
    return 1


def oracle_collision(obj, g, gripper):
    """Direct per-point, per-box strict interior scan."""
    frame = grasp_frame(g)
    for p in obj.points:
        local = frame.rotation.T @ (p - frame.origin)
        for lo, hi in gripper.collision_boxes():
            if all(lo[k] < local[k] < hi[k] for k in range(3)):
                return 0
    return 1


def kernel_collision(obj, g, gripper):
    """The package's collision score of one grasp, checked against the
    strict per-box scan of :func:`conftest.collision_score`."""
    (free,) = _sweep(obj, g.centers, g.rotations(), gripper, 0.0)[2]
    assert free == collision_score(obj, g, gripper)
    return free


def kernel_antipodal(contacts, mu=DEFAULT_MU):
    """The package's antipodal score of a contact pair, checked against the
    scalar test of :func:`conftest.antipodal_score`. ``score_grasps`` sees
    the contacts 1 cm either side of the center of a grasp whose Y axis is
    the closing force, with the pair's normals: one grasp when the forces
    oppose, as the package's contacts do, else one grasp per contact,
    1 m apart, whose other point's normal lies along Y."""
    a, b = contacts.normal_a, contacts.normal_b
    if np.array_equal(contacts.force_a, -contacts.force_b):
        sides = [(contacts.force_b, a, b)]
    else:
        sides = [(-contacts.force_a, a, None), (contacts.force_b, None, b)]
    grasps, ys, points, normals = [], [], [], []
    for i, (force, top, bottom) in enumerate(sides):
        g = one_grasp((float(i), 0.0, 0.0), force, 0.0)
        y = grasp_frame(g).y_axis
        grasps.append(g)
        ys.append(y)
        points += [g.centers[0] + 0.01 * y, g.centers[0] - 0.01 * y]
        normals += [y if top is None else top, y if bottom is None else bottom]
    table = score_grasps(PointCloud(points, normals=normals), stack(grasps), GripperModel(), mu=mu)
    score = int(table[:, 0].min())
    pair = ContactPair(contacts.point_a, contacts.point_b, a, b, -ys[0], ys[-1])
    assert score == antipodal_score(pair, mu)
    return score


def contact_pair_along_y(alpha_a, alpha_b=0.0):
    """Pair with the closing line on the y axis and surface normals tilted
    by the given angles from that line."""
    def tilted(base_sign, alpha):
        return np.array([math.sin(alpha), base_sign * math.cos(alpha), 0.0])

    return ContactPair(
        point_a=(0.0, 0.01, 0.0),
        point_b=(0.0, -0.01, 0.0),
        normal_a=tilted(1.0, alpha_a),
        normal_b=tilted(-1.0, alpha_b),
        force_a=(0.0, -1.0, 0.0),
        force_b=(0.0, 1.0, 0.0),
    )


# ---------------------------------------------------------------------------
# Contact extraction
# ---------------------------------------------------------------------------

class TestFindContacts:
    def test_box_across_thin_axis(self, box, gripper, z_grasp):
        contacts = contact_pair(box, z_grasp, gripper)
        assert contacts is not None
        assert contacts.point_a[2] == pytest.approx(0.015, abs=1e-15)
        assert contacts.point_b[2] == pytest.approx(-0.015, abs=1e-15)
        assert np.allclose(contacts.normal_a, (0, 0, 1), atol=1e-15)
        assert np.allclose(contacts.normal_b, (0, 0, -1), atol=1e-15)
        frame = grasp_frame(z_grasp)
        assert np.allclose(contacts.force_a, -frame.y_axis, atol=1e-15)
        assert np.allclose(contacts.force_b, frame.y_axis, atol=1e-15)

    def test_contacts_stay_within_jaw_sweep(self, box, gripper):
        rng = np.random.default_rng(17)
        found = 0
        for _ in range(50):
            g = random_grasp(rng)
            contacts = contact_pair(box, g, gripper)
            if contacts is None:
                continue
            found += 1
            frame = grasp_frame(g)
            for p in (contacts.point_a, contacts.point_b):
                local = frame.rotation.T @ (p - frame.origin)
                assert abs(local[0]) <= gripper.finger_length / 2 + 0.005 + 1e-12
                assert abs(local[2]) <= gripper.finger_height / 2 + 0.005 + 1e-12
                assert abs(local[1]) <= gripper.max_opening / 2 + 1e-12
        assert found > 0

    def test_first_touch_is_extreme_along_closing_line(self, box, gripper):
        rng = np.random.default_rng(18)
        for _ in range(30):
            g = random_grasp(rng)
            contacts = contact_pair(box, g, gripper)
            if contacts is None:
                continue
            frame = grasp_frame(g)
            local = (box.points - frame.origin) @ frame.rotation
            hx = gripper.finger_length / 2 + 0.005
            hz = gripper.finger_height / 2 + 0.005
            hw = gripper.max_opening / 2
            section = (np.abs(local[:, 0]) <= hx) & (np.abs(local[:, 2]) <= hz)
            ya = local[section & (local[:, 1] >= 0) & (local[:, 1] <= hw), 1]
            yb = local[section & (local[:, 1] <= 0) & (local[:, 1] >= -hw), 1]
            la = (contacts.point_a - frame.origin) @ frame.rotation
            lb = (contacts.point_b - frame.origin) @ frame.rotation
            assert la[1] == pytest.approx(ya.max(), abs=1e-12)
            assert lb[1] == pytest.approx(yb.min(), abs=1e-12)

    def test_sphere_diametric(self, small_sphere, gripper):
        g = one_grasp((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0)
        contacts = contact_pair(small_sphere, g, gripper)
        assert contacts is not None
        # poles along the closing line, radial normals within sampling gap
        assert contacts.point_a[0] > 0.034 and contacts.point_b[0] < -0.034
        assert abs(contacts.normal_a @ np.array([1.0, 0, 0])) > 0.999
        assert abs(contacts.normal_b @ np.array([1.0, 0, 0])) > 0.999

    def test_empty_sweep_returns_none(self, box, gripper):
        g = one_grasp((1.0, 1.0, 1.0), (0.0, 0.0, 1.0), 0.0)
        assert contact_pair(box, g, gripper) is None

    def test_one_sided_sweep_returns_none(self, box, gripper):
        # hand hovering above the box: only the lower jaw side sees points
        g = one_grasp((0.0, 0.0, 0.05), (0.0, 0.0, 1.0), 0.0)
        assert contact_pair(box, g, gripper) is None

    def test_single_shared_point_returns_none(self, gripper):
        cloud = PointCloud([[0.0, 0.0, 0.0]], normals=[[0.0, 0.0, 1.0]])
        g = one_grasp((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)
        assert contact_pair(cloud, g, gripper) is None

    def test_point_on_closing_plane_counts_for_the_positive_jaw(self, gripper):
        # hand case frame: y=(0,1,0); a point at local y == 0 is a +Y contact
        cloud = PointCloud([[0.0, 0.0, 0.0], [0.0, -0.01, 0.0]], normals=[[0, 1.0, 0], [0, -1.0, 0]])
        contacts = contact_pair(cloud, one_grasp((0, 0, 0), (0, 1, 0), 0.0), gripper)
        assert contacts is not None
        assert np.array_equal(contacts.point_a, (0, 0, 0)) and np.array_equal(contacts.point_b, (0, -0.01, 0))

    def test_requires_normals(self, box, gripper, z_grasp):
        bare = PointCloud(box.points)
        with pytest.raises(DataError, match="normals"):
            find_contacts(bare, z_grasp, gripper)


class TestContactPair:
    def test_unit_vectors_enforced(self):
        with pytest.raises(DataError, match="unit length"):
            ContactPair(
                (0, 0.01, 0), (0, -0.01, 0),
                (0, 2.0, 0), (0, -1, 0),
                (0, -1, 0), (0, 1, 0),
            )

    def test_distinct_points_enforced(self):
        with pytest.raises(DataError, match="distinct"):
            ContactPair(
                (0, 0, 0), (0, 0, 0),
                (0, 1, 0), (0, -1, 0),
                (0, -1, 0), (0, 1, 0),
            )


# ---------------------------------------------------------------------------
# Antipodal (force-closure) test
# ---------------------------------------------------------------------------

class TestAntipodalScore:
    def test_aligned_contacts_pass(self):
        assert kernel_antipodal(contact_pair_along_y(0.0, 0.0)) == 1

    def test_forty_five_degrees_fails_at_default_mu(self):
        # cone half-angle arctan(0.6) is about 31 degrees
        assert kernel_antipodal(contact_pair_along_y(math.pi / 4, 0.0)) == 0
        assert kernel_antipodal(contact_pair_along_y(0.0, math.pi / 4)) == 0

    def test_wider_cone_admits_forty_five(self):
        assert kernel_antipodal(contact_pair_along_y(math.pi / 4, math.pi / 4), mu=1.5) == 1

    def test_boundary_is_inclusive_with_margin(self):
        alpha = math.pi / 6
        assert kernel_antipodal(contact_pair_along_y(alpha), mu=math.tan(alpha) + 1e-9) == 1
        assert kernel_antipodal(contact_pair_along_y(alpha), mu=math.tan(alpha) - 1e-9) == 0

    def test_normal_sign_folded(self):
        pair = contact_pair_along_y(0.1, 0.2)
        flipped = ContactPair(
            pair.point_a, pair.point_b,
            -pair.normal_a, -pair.normal_b,
            pair.force_a, pair.force_b,
        )
        assert kernel_antipodal(pair) == kernel_antipodal(flipped) == 1

    def test_matches_tangential_decomposition_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            pair = ContactPair(
                rng.normal(size=3), rng.normal(size=3),
                random_unit(rng), random_unit(rng),
                random_unit(rng), random_unit(rng),
            )
            mu = float(rng.uniform(0.1, 2.0))
            assert kernel_antipodal(pair, mu) == oracle_antipodal(pair, mu)

    def test_monotone_in_mu(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            pair = ContactPair(
                rng.normal(size=3), rng.normal(size=3),
                random_unit(rng), random_unit(rng),
                random_unit(rng), random_unit(rng),
            )
            mus = sorted(rng.uniform(0.05, 3.0, size=3))
            scores = [kernel_antipodal(pair, m) for m in mus]
            assert scores == sorted(scores)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            pair = ContactPair(
                rng.normal(size=3), rng.normal(size=3),
                random_unit(rng), random_unit(rng),
                random_unit(rng), random_unit(rng),
            )
            rot = random_rotation(rng)
            shift = rng.normal(size=3)
            moved = ContactPair(
                rot @ pair.point_a + shift, rot @ pair.point_b + shift,
                rot @ pair.normal_a, rot @ pair.normal_b,
                rot @ pair.force_a, rot @ pair.force_b,
            )
            mu = float(rng.uniform(0.2, 1.5))
            assert kernel_antipodal(pair, mu) == kernel_antipodal(moved, mu)

    def test_bad_mu(self):
        # nan and inf used to pass every contact pair
        for mu in (0.0, -0.6, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DataError, match="mu must be a finite positive number"):
                kernel_antipodal(contact_pair_along_y(0.0), mu=mu)


# ---------------------------------------------------------------------------
# Collision test
# ---------------------------------------------------------------------------

class TestCollisionScore:
    def test_empty_cloud_is_free(self, gripper):
        g = one_grasp((0, 0, 0), (0, 1, 0), 0.0)
        assert kernel_collision(PointCloud(np.zeros((0, 3))), g, gripper) == 1

    def test_point_at_finger_center_collides(self, gripper):
        # hand case frame: x=(-1,0,0), y=(0,1,0), z=(0,0,-1)
        g = one_grasp((0, 0, 0), (0, 1, 0), 0.0)
        finger_mid_y = (gripper.max_opening / 2 + gripper.max_opening / 2 + gripper.finger_thickness) / 2
        cloud = PointCloud([[0.0, finger_mid_y, 0.0]])
        assert kernel_collision(cloud, g, gripper) == 0

    def test_point_between_jaws_is_free(self, gripper):
        g = one_grasp((0, 0, 0), (0, 1, 0), 0.0)
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        assert kernel_collision(cloud, g, gripper) == 1

    def test_boundary_point_is_free(self, gripper):
        # exactly on the inner finger face: not strictly inside
        g = one_grasp((0, 0, 0), (0, 1, 0), 0.0)
        cloud = PointCloud([[0.0, gripper.max_opening / 2, 0.0]])
        assert kernel_collision(cloud, g, gripper) == 1

    def test_points_on_box_faces_are_free(self, gripper):
        # hand case frame: local (x, y, z) sits at world (-x, y, -z), exactly
        g = one_grasp((0, 0, 0), (0, 1, 0), 0.0)
        to_world = np.array([-1.0, 1.0, -1.0])
        for lo, hi in gripper.collision_boxes():
            center = (lo + hi) / 2.0
            assert kernel_collision(PointCloud([center * to_world]), g, gripper) == 0
            for k in range(3):
                for bound in (lo[k], hi[k]):
                    local = center.copy()
                    local[k] = bound
                    cloud = PointCloud([local * to_world])
                    assert kernel_collision(cloud, g, gripper) == oracle_collision(cloud, g, gripper) == 1

    def test_base_behind_fingers_collides(self, gripper):
        # hand case: base occupies world x in (0.03, 0.05) (local -x is world +x)
        g = one_grasp((0, 0, 0), (0, 1, 0), 0.0)
        cloud = PointCloud([[0.04, 0.0, 0.0]])
        assert kernel_collision(cloud, g, gripper) == 0

    def test_matches_point_in_box_oracle(self, gripper):
        rng = np.random.default_rng(23)
        cloud = PointCloud(rng.uniform(-0.08, 0.08, size=(400, 3)))
        for _ in range(60):
            g = random_grasp(rng)
            assert kernel_collision(cloud, g, gripper) == oracle_collision(cloud, g, gripper)

    def test_collision_boxes_consistent_with_points_in_box(self, gripper):
        # strict interior: shrink the closed box test by an epsilon margin
        rng = np.random.default_rng(24)
        cloud = PointCloud(rng.uniform(-0.08, 0.08, size=(300, 3)))
        g = random_grasp(rng)
        frame = grasp_frame(g)
        hit = set()
        for lo, hi in gripper.collision_boxes():
            center = frame.origin + frame.rotation @ ((np.asarray(lo) + hi) / 2)
            half = (np.asarray(hi) - lo) / 2
            boxframe = GraspFrame(center, frame.x_axis, frame.y_axis, frame.z_axis)
            hit.update(points_in_box(cloud, boxframe, half - 1e-12).tolist())
        assert kernel_collision(cloud, g, gripper) == (0 if hit else 1)


# ---------------------------------------------------------------------------
# Combined score
# ---------------------------------------------------------------------------

class TestScoreGrasp:
    def test_good_grasp_on_box(self, box, gripper, z_grasp):
        assert score_grasps(box, z_grasp, gripper).tolist() == [[1, 1, 1]]

    def test_good_grasp_on_sphere(self, small_sphere, gripper):
        # hand pulled back so the base clears the sphere
        g = one_grasp((0.0, -0.01, 0.0), (1.0, 0.0, 0.0), 0.0)
        assert score_grasps(small_sphere, g, gripper).tolist() == [[1, 1, 1]]

    def test_slanted_contacts_fail_antipodal_only(self, box, gripper):
        # closing line 45 degrees between the y and z faces: contacts exist
        # but both normals sit outside the friction cone
        g = one_grasp((0.0, 0.0, 0.0), (0.0, 1.0, 1.0), 0.0)
        assert contact_pair(box, g, gripper) is not None
        assert score_grasps(box, g, gripper).tolist() == [[0, 1, 0]]

    def test_base_collision_fails_collision_only(self, box, gripper):
        # grasp offset along +y: contacts still the z faces, base digs in
        g = one_grasp((0.0, 0.05, 0.0), (0.0, 0.0, 1.0), 0.0)
        assert score_grasps(box, g, gripper).tolist() == [[1, 0, 0]]

    def test_no_contacts_scores_zero_antipodal(self, box, gripper):
        g = one_grasp((0.0, 0.0, -0.04), (0.0, 0.0, 1.0), 0.0)
        assert contact_pair(box, g, gripper) is None
        (sa, _, sg), = score_grasps(box, g, gripper).tolist()
        assert sa == 0
        assert sg == 0

    def test_combined_is_min(self, box, gripper):
        rng = np.random.default_rng(25)
        grasps = stack(random_grasp(rng) for _ in range(40))
        for sa, sc, sg in score_grasps(box, grasps, gripper).tolist():
            assert sg == min(sa, sc)

    def test_monotone_in_mu_on_real_geometry(self, box, gripper):
        rng = np.random.default_rng(26)
        for _ in range(30):
            g = random_grasp(rng)
            lo = score_grasps(box, g, gripper, mu=0.2)[0, 0]
            hi = score_grasps(box, g, gripper, mu=1.5)[0, 0]
            assert lo <= hi

    def test_rigid_invariance(self, box, gripper):
        rng = np.random.default_rng(27)
        for _ in range(40):
            g = random_grasp(rng)
            t = RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.2)
            base = score_grasps(box, g, gripper)
            moved = score_grasps(t.apply_cloud(box), transform_grasps(g, t), gripper)
            assert np.array_equal(base, moved)


# ---------------------------------------------------------------------------
# Batched kernel
# ---------------------------------------------------------------------------

def reference_sweep(obj, origin, rotation, gripper, tol=0.005):
    """The contacts (ia, ib; -1 when none) and the collision score of one
    grasp frame, as first written: full-cloud masks for the jaw sweep and
    one all-columns pass per collision box."""
    local = (obj.points - origin) @ rotation
    hx = gripper.finger_length / 2.0 + tol
    hz = gripper.finger_height / 2.0 + tol
    hw = gripper.max_opening / 2.0
    in_section = (np.abs(local[:, 0]) <= hx) & (np.abs(local[:, 2]) <= hz)
    y = local[:, 1]
    side_a = np.nonzero(in_section & (y >= 0.0) & (y <= hw))[0]
    side_b = np.nonzero(in_section & (y <= 0.0) & (y >= -hw))[0]
    ia = ib = -1
    if side_a.size and side_b.size:
        ia = side_a[np.argmax(y[side_a])]
        ib = side_b[np.argmin(y[side_b])]
        if ia == ib:
            ia = ib = -1
    sc = 1
    for lo, hi in gripper.collision_boxes():
        if ((local > lo) & (local < hi)).all(axis=1).any():
            sc = 0
    return int(ia), int(ib), sc


def reference_scores(obj, g, gripper, mu=0.6, tol=0.005):
    """Per-grasp scoring as first written (:func:`reference_sweep`)."""
    frame = grasp_frame(g)
    ia, ib, sc = reference_sweep(obj, frame.origin, frame.rotation, gripper, tol)
    sa = 0
    if ia >= 0:
        pair = ContactPair(obj.points[ia], obj.points[ib], obj.normals[ia], obj.normals[ib],
                           -frame.y_axis, frame.y_axis)
        sa = antipodal_score(pair, mu)
    return sa, sc, min(sa, sc)


class TallPalm(GripperModel):
    """A palm taller than the fingers: its points lie outside the sweep
    slab |z| <= H/2 + tol."""

    def collision_boxes(self):
        boxes = super().collision_boxes()
        lo, hi = boxes[2]
        return boxes[:2] + [(lo - (0, 0, 0.02), hi + (0, 0, 0.02))]


class ShiftedWrist(GripperModel):
    """Every solid moved off the frame's axes, plus a wrist box behind the
    base: no interval is symmetric about 0."""

    def collision_boxes(self):
        boxes = super().collision_boxes()
        lo, hi = boxes[2]
        wrist = (np.array([lo[0] - 0.012, -0.011, -0.008]), np.array([lo[0], 0.015, 0.009]))
        shift = np.array([0.002, 0.003, -0.001])
        return [(lo + shift, hi + shift) for lo, hi in boxes + [wrist]]


def table_scene():
    """A box resting on a plane grid: one cloud, two kinds of surface,
    wide enough that every grasp scores a partial slice."""
    plane = plane_grid(half_size=0.08, spacing=0.004)
    box = box_cloud()
    return PointCloud(
        np.vstack([plane.points, box.points + (0.0, 0.0, 0.016)]),
        normals=np.vstack([plane.normals, box.normals]),
    )


def _after_motion(build, broken):
    """A frame builder for ``evaluate`` that builds the frames before the
    motion with ``build`` and the moved frames it scores with ``broken``."""
    calls = []

    def rotations(*args):
        calls.append(args)
        return (build if len(calls) == 1 else broken)(*args)

    return rotations


class TestScoreGrasps:
    @pytest.mark.parametrize(
        "make, count",
        [
            (box_cloud, 120),  # tied contacts across the flat faces
            (cylinder_cloud, 80),
            (lambda: sphere_cloud(radius=0.035, count=2000), 80),
            (table_scene, 60),
        ],
        ids=["box", "cylinder", "sphere", "scene"],
    )
    def test_equals_looped_and_reference_scoring(self, gripper, monkeypatch, make, count):
        obj = make()
        candidates = sample_candidates(obj, gripper, count, seed=11)
        rng = np.random.default_rng(12)
        grasps = stack([candidates, *(random_grasp(rng) for _ in range(20))])
        widths = []

        def recorded(cols, *args):
            widths.append(cols.shape[1])
            return local_coords(cols, *args)

        monkeypatch.setattr(geometry, "local_coords", recorded)
        table = score_grasps(obj, grasps, gripper)
        if make is table_scene:
            assert max(widths) < len(obj)  # every grasp scores a partial slice
        assert table.dtype == np.int64 and table.shape == (len(grasps), 3)
        looped = [score_grasps(obj, g, gripper)[0] for g in grasps]
        assert np.array_equal(table, looped)
        assert np.array_equal(table, [reference_scores(obj, g, gripper) for g in grasps])
        assert 0 < table[:, 2].sum() < len(grasps)

    def test_antipodal_column_matches_the_scalar_test(self, gripper):
        # one contact pair per grasp, 1 m apart along x so that each grasp
        # sweeps only its own pair; random normals, and normals at the cone
        # edge for each mu, test the array epilogue against the scalar one
        rng = np.random.default_rng(40)
        count = 300
        x = np.repeat(np.arange(count, dtype=np.float64), 2)
        points = np.column_stack([x, np.tile([0.02, -0.03], count), np.zeros(2 * count)])
        normals = random_unit(rng, 2 * count)
        edge = np.arange(0, 2 * count, 7)
        alpha = math.atan(0.6) + rng.choice([-1e-12, 0.0, 1e-12], size=len(edge))
        normals[edge] = np.column_stack([np.sin(alpha), np.cos(alpha), np.zeros(len(edge))])
        cloud = PointCloud(points, normals=normals)
        angles = [float(rng.uniform(-1.5, 1.5)) for _ in range(count)]
        grasps = GraspSet([(float(i), 0.0, 0.0) for i in range(count)], [(0.0, 1.0, 0.0)] * count, angles)
        for mu in (0.6, 1.1):
            table = score_grasps(cloud, grasps, gripper, mu=mu)
            want = [antipodal_score(contact_pair(cloud, g, gripper), mu) for g in grasps]
            assert np.array_equal(table[:, 0], want) and 0 < sum(want) < count
            assert np.array_equal(table, [reference_scores(cloud, g, gripper, mu=mu) for g in grasps])

    def test_mu_and_tol_forwarded(self, box, gripper):
        grasps = sample_candidates(box, gripper, 40, seed=13)
        for mu, tol in ((0.2, 0.005), (1.5, 0.0), (0.6, 0.01)):
            assert np.array_equal(
                score_grasps(box, grasps, gripper, mu=mu, tol=tol),
                [reference_scores(box, g, gripper, mu=mu, tol=tol) for g in grasps],
            )

    def test_empty_cloud(self, gripper):
        empty = PointCloud(np.zeros((0, 3)), normals=np.zeros((0, 3)))
        grasps = GraspSet([(0, 0, 0), (1, 2, 3)], [(0, 1, 0), (1, 1, 0)], [0.0, 0.5])
        assert np.array_equal(score_grasps(empty, grasps, gripper), [[0, 1, 0], [0, 1, 0]])

    def test_grasps_sweeping_nothing(self, box, gripper):
        far = GraspSet([(1.0, 1.0, 1.0), (0.0, 0.0, -0.5)], [(0, 0, 1), (1, 0, 0)], [0.0, 1.0])
        assert np.array_equal(score_grasps(box, far, gripper), [[0, 1, 0], [0, 1, 0]])

    def test_no_grasps(self, box, gripper):
        table = score_grasps(box, GraspSet([], [], []), gripper)
        assert table.shape == (0, 3) and table.dtype == np.int64

    def test_requires_normals(self, box, gripper, z_grasp):
        with pytest.raises(DataError, match="normals"):
            score_grasps(PointCloud(box.points), z_grasp, gripper)

    @pytest.mark.parametrize("mu", [0.0, -0.6, float("nan"), float("inf")])
    def test_bad_mu(self, box, gripper, z_grasp, mu):
        # nan and inf used to pass the antipodal test on every grasp
        with pytest.raises(DataError, match="mu must be a finite positive number"):
            score_grasps(box, z_grasp, gripper, mu=mu)
        with pytest.raises(DataError, match="mu must be a finite positive number"):
            score_grasps(box, GraspSet([], [], []), gripper, mu=mu)

    @pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf"), float("-inf")])
    def test_bad_tol(self, box, gripper, z_grasp, tol):
        # nan used to score every grasp antipodal 0, inf to sweep without bound
        with pytest.raises(DataError, match="tol must be a finite non-negative number"):
            score_grasps(box, z_grasp, gripper, tol=tol)
        with pytest.raises(DataError, match="tol must be a finite non-negative number"):
            find_contacts(box, z_grasp, gripper, tol=tol)

    def test_zero_tol_is_valid(self, box, gripper, z_grasp):
        assert score_grasps(box, z_grasp, gripper, tol=0.0).shape == (1, 3)
        assert find_contacts(box, z_grasp, gripper, tol=0.0)[0] >= 0

    def test_skewed_rotation_raises(self, box, gripper, z_grasp, monkeypatch):
        # the kernel builds no frame record: the stacked check must still
        # catch a frame that is not orthonormal and right-handed
        rotations = geometry._rotations

        def skewed(orientations, angles, up):
            r = rotations(orientations, angles, up).copy()
            x = r[:, :, 0] + 1e-6 * r[:, :, 1]
            r[:, :, 0] = x / np.linalg.norm(x, axis=1, keepdims=True)
            return r

        monkeypatch.setattr(geometry, "_rotations", skewed)
        with pytest.raises(DataError, match="frame axes must be mutually orthogonal"):
            score_grasps(box, z_grasp, gripper)
        with pytest.raises(DataError, match="frame axes must be mutually orthogonal"):
            score_grasps(box, stack([one_grasp((0, 0, 0), (0, 1, 0), 0.2)] * 3), gripper)
        # evaluate checks the frames before the motion (in transform_grasps)
        # and, with only the moved frames skewed, the frames it scores
        with pytest.raises(DataError, match="frame axes must be mutually orthogonal"):
            evaluate(stack([z_grasp] * 2), RigidTransform.identity(), box, gripper)
        monkeypatch.setattr(geometry, "_rotations", _after_motion(rotations, skewed))
        with pytest.raises(DataError, match="frame axes must be mutually orthogonal"):
            evaluate(stack([z_grasp] * 2), RigidTransform.identity(), box, gripper)

    @pytest.mark.parametrize(
        "breakage, message",
        [
            (lambda r: r * np.array([1.0 + 2e-9, 1.0, 1.0]), "x_axis must be unit length"),
            (lambda r: r * np.array([1.0, 1.0, -1.0]), "frame must be right-handed"),
        ],
        ids=["long-x", "left-handed"],
    )
    def test_bad_rotation_messages(self, box, gripper, z_grasp, monkeypatch, breakage, message):
        rotations = geometry._rotations

        def broken(*args):
            return breakage(rotations(*args))

        monkeypatch.setattr(geometry, "_rotations", broken)
        with pytest.raises(DataError, match=message):
            score_grasps(box, z_grasp, gripper)
        monkeypatch.setattr(geometry, "_rotations", _after_motion(rotations, broken))
        with pytest.raises(DataError, match=message):
            evaluate(z_grasp, RigidTransform.identity(), box, gripper)

    def test_duplicates_on_the_closing_plane_make_no_contacts(self, gripper):
        # both jaws reach the same (lowest-index) copy first: no pair
        cloud = PointCloud([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], normals=[[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        grasp = one_grasp((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0.0)
        assert np.array_equal(score_grasps(cloud, grasp, gripper), [[0, 1, 0]])

    @pytest.mark.parametrize("tol", [0.0, 0.005])
    @pytest.mark.parametrize("size", range(1, 9))
    def test_tiny_clouds_on_the_box_faces(self, gripper, tol, size):
        # 1-8 points drawn from the sweep and collision box faces, with
        # duplicates: x = -L/2, y = +-W/2, z = +-H/2 (+-tol), all exact in
        # the frame of grasps along +-y at the origin
        hl, hw, hh = gripper.finger_length / 2, gripper.max_opening / 2, gripper.finger_height / 2
        rng = np.random.default_rng(100 * size + int(1000 * tol))
        xs = (-hl, -hl - tol, 0.0, hl, 0.01)
        ys = (-hw, hw, 0.0, 0.02, -0.02, hw + 0.005)
        zs = (-hh, hh, -hh - tol, hh + tol, 0.0, 0.004)
        normals = [(0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (0.6, 0.8, 0.0), (0.0, 0.6, -0.8), (1.0, 0.0, 0.0)]
        grasps = GraspSet([(0, 0, 0)] * 4, [(0, 1, 0)] * 2 + [(0, -1, 0)] * 2, [0.0, math.pi / 2] * 2)
        for _ in range(40):
            pts = [(rng.choice(xs), rng.choice(ys), rng.choice(zs)) for _ in range(size)]
            if size > 1:
                pts[-1] = pts[0]  # a duplicate, tied on every coordinate
            cloud = PointCloud(pts, normals=[normals[i] for i in rng.integers(len(normals), size=size)])
            table = score_grasps(cloud, grasps, gripper, tol=tol)
            assert np.array_equal(table, [reference_scores(cloud, g, gripper, tol=tol) for g in grasps])

    def test_ties_take_the_lowest_index(self, gripper):
        # three copies of the extreme point on each side: only the first
        # copies' normals are antipodal, so a later copy flips the score
        tilted = (0.8, 0.6, 0.0)
        pts = [(0.0, 0.03, 0.0)] * 3 + [(0.0, -0.03, 0.0)] * 3
        for good_a, good_b in ((0, 0), (1, 0), (0, 2)):
            normals = [tilted] * 6
            normals[good_a], normals[3 + good_b] = (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)
            cloud = PointCloud(pts, normals=normals)
            grasp = one_grasp((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0.0)
            want = reference_scores(cloud, grasp, gripper)
            assert want[0] == int(good_a == 0 and good_b == 0)
            assert np.array_equal(score_grasps(cloud, grasp, gripper), [want])

    def test_collision_boxes_beyond_the_finger_height(self, box, gripper):
        # the shared slab must reach the palm's points beyond the sweep slab
        palm = TallPalm()
        # grasp-frame x is -world x for the first grasp, +world x for the second
        grasps = GraspSet([(0.0, 0.0, 0.0)] * 2, [(0.0, 1.0, 0.0), (0.0, -1.0, 0.0)], [0.0, 0.0])
        depth = gripper.finger_length / 2 + gripper.base_depth / 2
        for x in (depth, -depth):
            for z in (0.02, -0.025, 0.0201):  # inside the palm only
                cloud = PointCloud([(x, 0.01, z)], normals=[(1.0, 0.0, 0.0)])
                want = [reference_scores(cloud, g, palm) for g in grasps]
                assert [w[1] for w in want] == ([0, 1] if x > 0 else [1, 0])
                assert np.array_equal(score_grasps(cloud, grasps, palm), want)
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            near = stack(random_grasp(rng) for _ in range(40))
            assert np.array_equal(score_grasps(box, near, palm), [reference_scores(box, g, palm) for g in near])


# ---------------------------------------------------------------------------
# The sorted slice each grasp scores
# ---------------------------------------------------------------------------

class TestSortedSlices:
    def test_ties_reversed_along_the_sort_axis_take_the_lowest_index(self, gripper):
        # the tied extremes on each jaw side run along x in the reverse of
        # their index order, so the slice meets the highest index first;
        # only the lowest-index copies have antipodal normals
        tilted = (0.8, 0.6, 0.0)
        pts = [(0.02, 0.03, 0.0), (0.01, 0.03, 0.0), (0.0, 0.03, 0.0), (-0.01, 0.03, 0.0),
               (0.015, -0.03, 0.0), (-0.005, -0.03, 0.0), (0.3, 0.0, 0.0), (-0.3, 0.0, 0.0)]
        normals = [(0.0, 1.0, 0.0), tilted, tilted, tilted, (0.0, -1.0, 0.0), tilted, tilted, tilted]
        cloud = PointCloud(pts, normals=normals)
        index = cloud._scoring_index
        rank = np.argsort(index.order)  # each point's place in the sorted cloud
        assert index.axis == 0 and rank[0] > rank[1] > rank[2] > rank[3] and rank[4] > rank[5]
        grasps = GraspSet([(0.0, 0.0, 0.0)] * 2, [(0.0, 1.0, 0.0), (0.0, -1.0, 0.0)], [0.0, 0.3])
        want = [reference_scores(cloud, g, gripper) for g in grasps]
        assert [w[0] for w in want] == [1, 1]
        assert np.array_equal(score_grasps(cloud, grasps, gripper), want)
        contact = contact_pair(cloud, grasps[0], gripper)
        assert np.array_equal(contact.point_a, pts[0]) and np.array_equal(contact.point_b, pts[4])

    @pytest.mark.parametrize("grip", [GripperModel(), TallPalm()], ids=["default", "tall-palm"])
    def test_points_at_the_reach_of_the_slice(self, grip):
        # a point at the world reach, along the sort axis, of each box the
        # tests read (the tol-inflated sweep box and every collision box),
        # and 1 ulp either side of it: the crop keeps every point either
        # test can accept, so contacts and collisions are the full cloud's
        tol = DEFAULT_CONTACT_TOL
        half = np.array([grip.finger_length / 2 + tol, grip.max_opening / 2, grip.finger_height / 2 + tol])
        boxes = [(-half, half), *grip.collision_boxes()]
        rng = np.random.default_rng(31)
        frames = [(r, np.zeros(3)) for r in permutation_frames()]
        frames += [(random_rotation(rng), np.round(rng.normal(size=3) * 0.02, 3)) for _ in range(6)]
        partners = [(0.0, 0.001, 0.0), (0.0, -0.001, 0.0)]  # the contacts when no point lies farther out
        checked = 0
        for r, center in frames:
            r = np.ascontiguousarray(r)
            for axis in range(3):
                anchors = np.zeros((2, 3))
                anchors[:, axis] = (-1.0, 1.0)  # far outside the gripper, they make ``axis`` the widest
                for lo, hi in boxes:
                    for end in (np.minimum, np.maximum):
                        # the box corner at this end along the axis; free
                        # coordinates sit off the box's middle
                        terms = end(r[axis] * lo, r[axis] * hi)
                        corner = np.where(terms == r[axis] * lo, lo, hi)
                        corner = np.where(r[axis] == 0.0, lo + 0.75 * (hi - lo), corner)
                        point = center + r @ corner
                        reach = center[axis] + terms.sum()
                        for target in (np.nextafter(reach, -np.inf), reach, np.nextafter(reach, np.inf)):
                            point[axis] = target
                            local = [point, *(center + r @ np.array(p) for p in partners)]
                            cloud = PointCloud(np.vstack([local, anchors]))
                            assert cloud._scoring_index.axis == axis
                            (ia,), (ib,), (free,) = _sweep(cloud, center[None], r[None], grip, tol)
                            assert (ia, ib, free) == reference_sweep(cloud, center, r, grip, tol)
                            checked += (ia == 0 or ib == 0 or not free)
        assert checked > 0  # some point at the reach is a contact or collides


# ---------------------------------------------------------------------------
# The collision boxes as shared interval tests
# ---------------------------------------------------------------------------

GRIPPERS = [GripperModel(), TallPalm(), ShiftedWrist()]
GRIPPER_IDS = ["default", "tall-palm", "shifted-wrist"]


class TestCollisionMasks:
    def test_interval_layouts(self):
        # the default boxes share their x test (fingers) and z test (all
        # three) as |c| tests; the shifted wrist keeps four boxes of plain
        # two-sided tests
        tests, members = _intervals(GripperModel().collision_boxes())
        assert len(members) == 3 and len(tests) == 6
        assert members[0][0] == members[1][0] and members[0][2] == members[1][2] == members[2][2]
        assert tests[members[0][0]][1] is None and tests[members[0][2]][1] is None
        tests, members = _intervals(ShiftedWrist().collision_boxes())
        assert len(members) == 4 and all(k < 3 and lo is not None for k, lo, _ in tests)

    @pytest.mark.parametrize("grip", GRIPPERS, ids=GRIPPER_IDS)
    def test_box_faces_and_one_ulp_either_side(self, grip):
        # a point at the middle of every face of every box, and 1 ulp to
        # either side of it, swept in the 24 axis-permutation frames, whose
        # grasp-frame coordinates are exact: the identity frame sees the
        # point on the face, the others at a permutation of it
        frames = np.array(list(permutation_frames()))
        centers = np.zeros((len(frames), 3))
        partners = [(0.0, 0.001, 0.0), (0.0, -0.001, 0.0)]  # contacts unless the point is farther out
        collided = 0
        for lo, hi in grip.collision_boxes():
            for axis in range(3):
                for bound in (lo[axis], hi[axis]):
                    for value in (np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf)):
                        point = (lo + hi) / 2.0
                        point[axis] = value
                        cloud = PointCloud([point, *partners])
                        got = np.column_stack(_sweep(cloud, centers, frames, grip, DEFAULT_CONTACT_TOL))
                        want = [reference_sweep(cloud, c, r, grip) for c, r in zip(centers, frames)]
                        assert np.array_equal(got, want)
                        collided += len(frames) - int(got[:, 2].sum())
        assert collided > 0

    @pytest.mark.parametrize("grip", GRIPPERS, ids=GRIPPER_IDS)
    def test_random_grasps_on_box_and_scene(self, grip):
        rng = np.random.default_rng(41)
        for obj in (box_cloud(), table_scene()):
            grasps = stack([sample_candidates(obj, grip, 40, seed=42), *(random_grasp(rng) for _ in range(40))])
            rotations = grasps.rotations()
            got = np.column_stack(_sweep(obj, grasps.centers, rotations, grip, DEFAULT_CONTACT_TOL))
            want = [reference_sweep(obj, c, r, grip) for c, r in zip(grasps.centers, rotations)]
            assert np.array_equal(got, want)
            assert 0 < got[:, 2].sum() < len(grasps) and (got[:, 0] >= 0).any()
