"""Grasp-set evaluation ratios.

Predicted grasps are transformed into the object frame and re-scored by
the physics checks; the report counts how many pass the antipodal test,
the collision test, and both. Ratios derive from the counts, so they can
be re-computed exactly from any stored report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import _read_table, _write_table
from .geometry import GripperModel, PointCloud, RigidTransform, transform_grasps
from .quality import DEFAULT_CONTACT_TOL, DEFAULT_MU, score_grasps

REPORT_HEADER = "k3,kT,kT_a,kT_c,vgr,vagr,vcgr"
SCORE_HEADER = "index,sa,sc,sg"


@dataclass(frozen=True)
class EvalReport:
    """Per-grasp scores plus the derived pass counts.

    scores is a (k3, 3) 0/1 table with columns (antipodal, collision,
    combined); the combined column must equal the minimum of the other
    two, which is what makes vgr <= min(vagr, vcgr) structural.
    """

    scores: np.ndarray

    def __post_init__(self):
        scores = np.ascontiguousarray(self.scores, dtype=np.int64)
        if scores.ndim != 2 or scores.shape[1] != 3 or scores.shape[0] == 0:
            raise DataError("scores must be a non-empty (k3, 3) table")
        if not np.all((scores == 0) | (scores == 1)):
            raise DataError("scores must be 0 or 1")
        if not np.array_equal(scores[:, 2], np.minimum(scores[:, 0], scores[:, 1])):
            raise DataError("combined score must equal min(antipodal, collision)")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    @property
    def k3(self) -> int:
        return len(self.scores)

    @property
    def kT_a(self) -> int:
        return int(self.scores[:, 0].sum())

    @property
    def kT_c(self) -> int:
        return int(self.scores[:, 1].sum())

    @property
    def kT(self) -> int:
        return int(self.scores[:, 2].sum())

    @property
    def vagr(self) -> float:
        return self.kT_a / self.k3

    @property
    def vcgr(self) -> float:
        return self.kT_c / self.k3

    @property
    def vgr(self) -> float:
        return self.kT / self.k3


def summarize_scores(scores) -> EvalReport:
    """Build a report from a per-grasp (antipodal, collision, combined)
    score table."""
    return EvalReport(np.asarray(scores))


def evaluate(
    predicted,
    object_pose: RigidTransform,
    obj: PointCloud,
    gripper: GripperModel,
    mu: float = DEFAULT_MU,
    tol: float = DEFAULT_CONTACT_TOL,
) -> EvalReport:
    """Score a predicted grasp set (a ``GraspSet`` or a list of grasps)
    against an object model.

    ``object_pose`` maps world coordinates into the object frame; the set
    is moved by it (:func:`~.geometry.transform_grasps`) and re-scored
    against the object cloud, which must carry normals.
    """
    if not len(predicted):
        raise DataError("no grasps to evaluate")
    return summarize_scores(score_grasps(obj, transform_grasps(predicted, object_pose), gripper, mu, tol))


def compare_reports(named_reports: list[tuple[str, EvalReport]]) -> str:
    """Aligned comparison table, best VGR first (ties by name).

    Ratios print with 4 decimals; the counts that produced them are
    included so rows can be re-derived exactly.
    """
    if not named_reports:
        raise DataError("no reports to compare")
    rows = sorted(named_reports, key=lambda nr: (-nr[1].vgr, nr[0]))
    header = ("name", "k3", "kT", "kT_a", "kT_c", "vgr", "vagr", "vcgr")
    # the report file's summary cells: counts, then the ratios to 4 decimals
    table = [header] + [(str(name), *_summary_cells(rep.k3, rep.kT, rep.kT_a, rep.kT_c)) for name, rep in rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table)


def save_report(path, report: EvalReport) -> None:
    """Report file: a summary row (counts + 4-decimal ratios) followed by
    the per-grasp score table."""
    summary = ",".join(_summary_cells(report.k3, report.kT, report.kT_a, report.kT_c))
    scores = (f"{i},{sa},{sc},{sg}" for i, (sa, sc, sg) in enumerate(report.scores))
    _write_table(path, REPORT_HEADER, itertools.chain((summary, SCORE_HEADER), scores))


def _summary_cells(k3: int, kT: int, kT_a: int, kT_c: int) -> list[str]:
    """The summary row: the four counts, then vgr, vagr and vcgr to 4 decimals."""
    return [str(k3), str(kT), str(kT_a), str(kT_c), *(f"{count / k3:.4f}" for count in (kT, kT_a, kT_c))]


def _report_row(cells) -> tuple[int, ...] | None:
    """The summary row's four counts (each ratio cell must read as
    :func:`save_report` writes the ratio of those counts), None for the
    score header, or a score row's three scores."""
    if len(cells) == 7:
        counts = tuple(int(c) for c in cells[:4])
        if counts[0] < 1:
            raise ValueError(f"k3 must be at least 1, got {counts[0]}")
        expected = _summary_cells(*counts)[4:]
        if cells[4:] != expected:
            raise ValueError(
                f"summary ratios {','.join(cells[4:])} do not match the counts (expected {','.join(expected)})"
            )
        return counts
    if ",".join(cells) == SCORE_HEADER:
        return None
    if len(cells) != 4:
        raise ValueError(f"malformed score row '{','.join(cells)}'")
    return tuple(int(c) for c in cells[1:])


def load_report(path) -> EvalReport:
    """Rebuild a report from its per-grasp table, cross-checking the
    stored counts."""
    rows = _read_table(path, REPORT_HEADER, None, _report_row, "report")
    shapes = [None if row is None else len(row) for row in rows]
    if shapes[:2] != [4, None] or set(shapes[2:]) != {3}:
        raise DataError(f"{path}: malformed report file")
    report = summarize_scores(rows[2:])
    if rows[0] != (report.k3, report.kT, report.kT_a, report.kT_c):
        raise DataError(f"{path}: stored counts disagree with the score table")
    return report
