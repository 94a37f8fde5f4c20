"""On-disk formats: text/binary point clouds, grasp tables, label tables,
proposal and refinement target tables, pose files, and the rules every
text table shares (the evaluation report included)."""

import math

import numpy as np
import pytest

from graspfield import (
    DataError,
    GraspSet,
    PointCloud,
    RigidTransform,
    load_cloud,
    load_grasps,
    save_cloud_binary,
    save_cloud_text,
    save_grasps,
)
from graspfield.anchors import ProposalTarget
from graspfield.fileio import (
    GRASP_HEADER,
    LABEL_HEADER,
    REFINE_TARGET_HEADER,
    TARGET_HEADER,
    load_cloud_binary,
    load_cloud_text,
    load_labels,
    load_pose,
    load_proposal_targets,
    load_refine_targets,
    save_labels,
    save_pose,
    save_proposal_targets,
    save_refine_targets,
)
from graspfield.metrics import EvalReport, load_report, save_report
from graspfield.refine import RefineTarget

from conftest import one_grasp, random_unit, stack


def full_cloud(n=17, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(
        rng.normal(size=(n, 3)) * 0.05,
        colors=rng.uniform(size=(n, 3)),
        normals=random_unit(rng, n),
    )


# ---------------------------------------------------------------------------
# Point clouds, text
# ---------------------------------------------------------------------------

class TestCloudText:
    def test_round_trip_exact(self, tmp_path):
        cloud = full_cloud()
        p = tmp_path / "c.csv"
        save_cloud_text(p, cloud)
        back = load_cloud_text(p)
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.colors, cloud.colors)
        assert np.array_equal(back.normals, cloud.normals)

    def test_points_only(self, tmp_path):
        cloud = PointCloud(np.random.default_rng(1).normal(size=(5, 3)))
        p = tmp_path / "c.csv"
        save_cloud_text(p, cloud)
        back = load_cloud_text(p)
        assert back.colors is None and back.normals is None
        assert np.array_equal(back.points, cloud.points)

    def test_fields_header_disambiguates_six_columns(self, tmp_path):
        # six columns default to colors; the fields comment can say normals
        p = tmp_path / "c.csv"
        p.write_text("# fields: x,y,z,nx,ny,nz\n0,0,0,0,0,1\n1,0,0,1,0,0\n")
        back = load_cloud_text(p)
        assert back.colors is None
        assert np.array_equal(back.normals, [[0, 0, 1], [1, 0, 0]])

    def test_six_columns_default_to_colors(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("0,0,0,0.5,0.5,0.5\n")
        back = load_cloud_text(p)
        assert back.normals is None
        assert np.array_equal(back.colors, [[0.5, 0.5, 0.5]])

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("# a comment\n\n0,0,0  # trailing note\n\n1,2,3\n")
        back = load_cloud_text(p)
        assert np.array_equal(back.points, [[0, 0, 0], [1, 2, 3]])

    def test_bad_width_reports_line(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("0,0,0\n1,1\n")
        with pytest.raises(DataError, match=r"c\.csv:2"):
            load_cloud_text(p)

    def test_bad_float_reports_line(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("0,0,0\n0,zero,0\n")
        with pytest.raises(DataError, match=r"c\.csv:2"):
            load_cloud_text(p)

    def test_unknown_fields_layout(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("# fields: x,y,z,w\n0,0,0,0\n")
        with pytest.raises(DataError, match="unknown fields layout"):
            load_cloud_text(p)


# ---------------------------------------------------------------------------
# Point clouds, binary
# ---------------------------------------------------------------------------

class TestCloudBinary:
    def test_round_trip_f32(self, tmp_path):
        cloud = full_cloud()
        p = tmp_path / "c.gfpc"
        save_cloud_binary(p, cloud)
        back = load_cloud_binary(p)
        assert np.abs(back.points - cloud.points).max() < 1e-6
        assert np.abs(back.colors - cloud.colors).max() < 1e-6
        assert np.abs(back.normals - cloud.normals).max() < 1e-6
        # storage quantizes; normals come back exactly unit length
        assert np.abs(np.linalg.norm(back.normals, axis=1) - 1.0).max() < 1e-12

    def test_points_only_flags(self, tmp_path):
        cloud = PointCloud(np.random.default_rng(2).normal(size=(4, 3)))
        p = tmp_path / "c.gfpc"
        save_cloud_binary(p, cloud)
        back = load_cloud_binary(p)
        assert back.colors is None and back.normals is None
        assert len(back) == 4

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.gfpc"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
        with pytest.raises(DataError, match="not a graspfield binary"):
            load_cloud_binary(p)

    def test_truncated_payload(self, tmp_path):
        cloud = PointCloud(np.zeros((3, 3)))
        p = tmp_path / "c.gfpc"
        save_cloud_binary(p, cloud)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(DataError, match="payload bytes"):
            load_cloud_binary(p)

    def test_sniffing_loader(self, tmp_path):
        cloud = full_cloud(n=6)
        save_cloud_text(tmp_path / "t.csv", cloud)
        save_cloud_binary(tmp_path / "b.gfpc", cloud)
        assert np.array_equal(load_cloud(tmp_path / "t.csv").points, cloud.points)
        assert np.abs(load_cloud(tmp_path / "b.gfpc").points - cloud.points).max() < 1e-6

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_cloud(tmp_path / "absent.csv")


# ---------------------------------------------------------------------------
# Grasp tables
# ---------------------------------------------------------------------------

class TestGrasps:
    def test_round_trip_exact(self, tmp_path):
        self.check_round_trip(tmp_path, scored=True)

    def test_round_trip_exact_unscored(self, tmp_path):
        self.check_round_trip(tmp_path, scored=False)

    @staticmethod
    def check_round_trip(tmp_path, scored):
        rng = np.random.default_rng(3)
        grasps = []
        for _ in range(20):
            sa, sc = (int(v) for v in rng.integers(2, size=2))
            scores = (sa, sc, min(sa, sc)) if scored else ()
            grasps.append(
                one_grasp(rng.normal(size=3) * 0.05, random_unit(rng), rng.uniform(-math.pi / 2, math.pi / 2), *scores)
            )
        grasps.append(one_grasp((0, 0, 0.01), (0, 1, 0), 0.25))  # unscored
        grasps = stack(grasps)
        p = tmp_path / "g.csv"
        save_grasps(p, grasps)
        back = load_grasps(p)
        assert len(back) == len(grasps)
        assert (back.scores is not None) == scored
        for name in ("centers", "orientations", "angles", "scores"):
            assert np.array_equal(getattr(back, name), getattr(grasps, name))

    def test_unscored_written_as_minus_one(self, tmp_path):
        p = tmp_path / "g.csv"
        save_grasps(p, one_grasp((0, 0, 0), (1, 0, 0), 0.0))
        body = p.read_text().splitlines()
        assert body[0] == GRASP_HEADER
        assert body[1].endswith(",-1,-1,-1")

    def test_header_comments(self, tmp_path):
        p = tmp_path / "g.csv"
        save_grasps(p, one_grasp((0, 0, 0), (1, 0, 0), 0.25))
        p.write_text("# seed 7\n# object box\n" + p.read_text())
        (g,) = load_grasps(p)
        assert np.array_equal(g.orientations[0], (1, 0, 0)) and g.angles[0] == 0.25

    def test_missing_header(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,0,0,1,0,0,0,1,1,1\n")
        with pytest.raises(DataError, match="missing grasp header"):
            load_grasps(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(GRASP_HEADER + "\n0,0,0,1,0,0,0,1,1\n")
        with pytest.raises(DataError, match="expected 10 columns"):
            load_grasps(p)

    def test_inconsistent_scores_rejected_on_load(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(GRASP_HEADER + "\n0,0,0,1,0,0,0,1,0,1\n")
        with pytest.raises(DataError):
            load_grasps(p)


# ---------------------------------------------------------------------------
# Label tables
# ---------------------------------------------------------------------------

class TestLabels:
    def test_round_trip(self, tmp_path):
        values = np.array([0.0, 0.75, 1.5, 0.6])
        labels = np.array([0, 1, 1, 0])
        p = tmp_path / "l.csv"
        save_labels(p, values, labels)
        v, lab = load_labels(p)
        assert np.array_equal(v, values)
        assert np.array_equal(lab, labels)
        assert p.read_text().splitlines()[0] == LABEL_HEADER

    def test_unequal_lengths_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        for values, labels in (([0.1, 0.2, 0.3], [1]), ([0.1], [1, 0])):
            with pytest.raises(DataError, match=f"{len(values)} confidence values but {len(labels)} labels"):
                save_labels(p, values, labels)
        assert not p.exists()

    def test_indices_must_be_sequential(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text(LABEL_HEADER + "\n0,0.5,0\n2,0.7,1\n")
        with pytest.raises(DataError, match="0..N-1"):
            load_labels(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("0,0.5,0\n")
        with pytest.raises(DataError, match="missing label header"):
            load_labels(p)


# ---------------------------------------------------------------------------
# Target tables
# ---------------------------------------------------------------------------

class TestProposalTargets:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        targets = []
        for i in (3, 11, 12):
            targets.append(
                (
                    i,
                    ProposalTarget(
                        center=rng.normal(size=3) * 0.05,
                        anchor_class=int(rng.integers(8)),
                        res_center=rng.normal(size=3),
                        res_orientation=rng.normal(size=3),
                        res_angle=float(rng.uniform(-1.5, 1.5)),
                    ),
                )
            )
        p = tmp_path / "t.csv"
        save_proposal_targets(p, targets)
        rows = load_proposal_targets(p)
        assert p.read_text().splitlines()[0] == TARGET_HEADER
        for (i, t), (j, cls, rc, ro, ra) in zip(targets, rows):
            assert i == j and t.anchor_class == cls
            assert np.array_equal(rc, t.res_center)
            assert np.array_equal(ro, t.res_orientation)
            assert ra == t.res_angle

    def test_missing_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,0,0,0,0,0,0,0,0\n")
        with pytest.raises(DataError, match="missing target header"):
            load_proposal_targets(p)

    def test_wrong_width(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(TARGET_HEADER + "\n1,2,0,0,0\n")
        with pytest.raises(DataError, match="expected 9 columns"):
            load_proposal_targets(p)


class TestRefineTargets:
    def test_round_trip_mixed_labels(self, tmp_path):
        rng = np.random.default_rng(6)
        targets = [
            RefineTarget(0, 1, rng.normal(size=3), rng.normal(size=3), 0.125),
            RefineTarget(1, 0, None, None, None),
            RefineTarget(2, 1, rng.normal(size=3), rng.normal(size=3), -0.5),
        ]
        p = tmp_path / "r.csv"
        save_refine_targets(p, targets)
        body = p.read_text().splitlines()
        assert body[0] == REFINE_TARGET_HEADER
        assert body[2] == "1,0,,,,,,,"
        assert len(body[2].split(",")) == 9
        rows = load_refine_targets(p)
        assert rows[1] == (1, 0, None, None, None)
        for t, (i, y, rc, ro, ra) in zip((targets[0], targets[2]), (rows[0], rows[2])):
            assert (t.proposal_index, t.label) == (i, y)
            assert np.array_equal(rc, t.res_center)
            assert np.array_equal(ro, t.res_orientation)
            assert ra == t.res_angle

    def test_missing_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("0,1,0,0,0,0,0,0,0\n")
        with pytest.raises(DataError, match="missing target header"):
            load_refine_targets(p)


# ---------------------------------------------------------------------------
# Pose files
# ---------------------------------------------------------------------------

class TestPose:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        t = RigidTransform(q, rng.normal(size=3))
        p = tmp_path / "pose.txt"
        save_pose(p, t)
        back = load_pose(p)
        assert np.array_equal(back.rotation, t.rotation)
        assert np.array_equal(back.translation, t.translation)

    def test_accepts_commas_and_comments(self, tmp_path):
        p = tmp_path / "pose.txt"
        p.write_text("# identity\n1,0,0,0\n0,1,0,0\n0,0,1,0\n")
        back = load_pose(p)
        assert np.array_equal(back.rotation, np.eye(3))

    def test_wrong_count(self, tmp_path):
        p = tmp_path / "pose.txt"
        p.write_text("1 0 0\n")
        with pytest.raises(DataError, match="expected 12 numbers"):
            load_pose(p)

    def test_non_rotation_rejected_with_path(self, tmp_path):
        p = tmp_path / "pose.txt"
        p.write_text("2 0 0 0\n0 1 0 0\n0 0 1 0\n")
        with pytest.raises(DataError, match="pose.txt"):
            load_pose(p)


# ---------------------------------------------------------------------------
# Shared table rules
# ---------------------------------------------------------------------------

def _write_grasps(p):
    save_grasps(p, one_grasp((0, 0, 0), (1, 0, 0), 0.25, 1, 1, 1))


def _write_labels(p):
    save_labels(p, [0.5, 0.75], [0, 1])


def _write_proposal_targets(p):
    target = ProposalTarget(np.zeros(3), 2, np.ones(3), np.ones(3), 0.5)
    save_proposal_targets(p, [(0, target)])


def _write_refine_targets(p):
    save_refine_targets(p, [RefineTarget(0, 1, np.ones(3), np.ones(3), 0.5)])


def _write_pose(p):
    save_pose(p, RigidTransform.identity())


def _write_report(p):
    save_report(p, EvalReport([[1, 1, 1], [0, 1, 0]]))


def _write_cloud(p):
    save_cloud_text(p, full_cloud(n=3))


# loader, writer, (line, cell) to corrupt; lines count from 1, cells are
# comma-separated except in the whitespace-separated pose file
MALFORMED_NUMBER_CASES = {
    "grasps": (load_grasps, _write_grasps, 2, 4),
    "labels": (load_labels, _write_labels, 3, 1),
    "proposal-targets": (load_proposal_targets, _write_proposal_targets, 2, 5),
    "refine-targets": (load_refine_targets, _write_refine_targets, 2, 8),
    "pose": (load_pose, _write_pose, 2, 3),
    "report": (load_report, _write_report, 4, 2),
    "cloud-text": (load_cloud_text, _write_cloud, 3, 7),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NUMBER_CASES))
def test_malformed_number_names_path_and_line(tmp_path, case):
    load, write, lineno, cell = MALFORMED_NUMBER_CASES[case]
    p = tmp_path / f"{case}.txt"
    write(p)
    load(p)  # the file as written loads
    lines = p.read_text().splitlines()
    sep = " " if case == "pose" else ","
    cells = lines[lineno - 1].split(sep)
    cells[cell] = "1.5abc"
    lines[lineno - 1] = sep.join(cells)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=rf"{case}\.txt:{lineno}: "):
        load(p)


@pytest.mark.parametrize("row", ["1,0.75,7", "1,0.75,-1", "1,nan,1", "1,inf,1", "1,-0.5,0"])
def test_labels_reject_bad_label_or_confidence(tmp_path, row):
    p = tmp_path / "l.csv"
    p.write_text(LABEL_HEADER + "\n0,0.5,0\n" + row + "\n")
    with pytest.raises(DataError, match=r"l\.csv:3: (label must be 0 or 1|confidence must be finite)"):
        load_labels(p)


def test_report_skips_comments(tmp_path):
    rep = EvalReport([[1, 1, 1], [0, 1, 0]])
    p = tmp_path / "report.csv"
    save_report(p, rep)
    lines = p.read_text().splitlines()
    lines.insert(2, "# per-grasp scores follow")
    lines.insert(0, "# eval-vgr report")
    p.write_text("\n".join(lines) + "  # trailing note\n")
    assert np.array_equal(load_report(p).scores, rep.scores)


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,0,0,1,0,0,0,-1,0,1", "scores must be all three or none"),
        ("0,0,0,1,0,0,0,1,-1,-1", "scores must be all three or none"),
        ("0,0,0,1e-160,1e-161,0,0.1,1,1,1", r"orientation must normalize to unit length \(tolerance 1e-9\)"),
        ("0,0,0,1,0,0,0,1,0,1", r"score must equal min\(antipodal, collision\)"),
    ],
    ids=["partial-sa-missing", "partial-sc-sg-missing", "tiny-orientation", "inconsistent"],
)
def test_bad_grasp_row_names_path_and_line(tmp_path, row, message):
    p = tmp_path / "g.csv"
    p.write_text(GRASP_HEADER + "\n0,0,0,0,1,0,0.5,1,1,1\n# note\n" + row + "\n")
    with pytest.raises(DataError, match=rf"g\.csv:4: {message}$"):
        load_grasps(p)


def test_loaded_grasps_are_one_set(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text(GRASP_HEADER + "\n0,0,0,0,2,0,0.5,1,1,1\n1,2,3,1,1,0,-0.5,0,1,0\n")
    grasps = load_grasps(p)
    assert isinstance(grasps, GraspSet) and len(grasps) == 2
    assert grasps.scores.tolist() == [[1, 1, 1], [0, 1, 0]]
    assert grasps.orientations[0].tolist() == [0.0, 1.0, 0.0]
    p.write_text(GRASP_HEADER + "\n")
    empty = load_grasps(p)
    assert len(empty) == 0 and empty.scores is None


def test_grasp_validation_error_names_line(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text(GRASP_HEADER + "\n# a comment\n0,0,0,0,0,0,0,1,1,1\n")
    with pytest.raises(DataError, match=r"g\.csv:3: orientation must have positive length"):
        load_grasps(p)
