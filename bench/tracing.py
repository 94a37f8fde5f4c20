"""Span tracing from outside the package, and the per-layer metrics.

Package modules import each other's functions by name
(``from .quality import score_grasp``), so a call goes through the name
in the *caller's* namespace. ``Tracer.install`` therefore wraps every
call site listed in ``CALL_SITES`` -- ``sampling.score_grasp``,
``dataset.score_grasp`` and ``metrics.score_grasp`` are three separate
wrappers -- which also records which layer made each call. A span holds
the callee, the calling module, start, end, the index of its parent span
and a few numbers read from the call's arguments or result. Spans stay
in memory until the traced iteration ends.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter

SPAN, COUNT = "span", "count"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(args, kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


_LOADS = ("load_cloud", "load_grasps", "load_pose", "load_proposal_targets", "load_refine_targets", "load_labels")
_SAVES = ("save_cloud_text", "save_grasps", "save_labels", "save_proposal_targets", "save_refine_targets")

# Observers read a span's numbers: ``before`` from the arguments (so it
# holds even when the call raises), ``after`` from the result.
_BEFORE = {
    "sampling.sample_candidates": lambda a, k: {"requested": _arg(a, k, 2, "count")},
    **{f"fileio.{name}": _size for name in _LOADS},
}
_AFTER = {
    "sampling.sample_candidates": lambda a, k, r: {"candidates": len(r)},
    "sampling.build_positive_set": lambda a, k, r: {"positives": len(r)},
    "quality.score_grasp": lambda a, k, r: {"passed": int(r.score == 1)},
    "confidence.confidence_field": lambda a, k, r: {
        "points": len(r.labels), "positive_points": int(r.labels.sum())},
    "region.extract_regions": lambda a, k, r: {"regions": len(r)},
    "anchors.build_proposal_targets": lambda a, k, r: {"targets": len(r)},
    "refine.build_refinement_targets": lambda a, k, r: {
        "selected": len(r), "positive": sum(t.label for t in r)},
    **{f"fileio.{name}": (lambda a, k, r: _size(a, k)) for name in _SAVES},
}

# (calling module, imported name, callee layer, kind). A call from a
# module to its own function is listed when that function is a layer
# boundary (``sampling.sample_candidates``) or counted
# (``geometry.grasp_frame`` inside ``transform_grasp``).
CALL_SITES = [
    ("cli", "generate_dataset", "dataset", SPAN),
    ("cli", "evaluate", "metrics", SPAN),
    ("cli", "build_refinement_targets", "refine", SPAN),
    *(("cli", name, "fileio", SPAN) for name in _LOADS + _SAVES),
    ("dataset", "build_positive_set", "sampling", SPAN),
    ("dataset", "render_single_view", "sampling", SPAN),
    ("dataset", "confidence_field", "confidence", SPAN),
    ("dataset", "build_proposal_targets", "anchors", SPAN),
    ("dataset", "decode_proposal", "anchors", SPAN),
    ("dataset", "score_grasp", "quality", SPAN),
    *(("dataset", name, "fileio", SPAN) for name in _LOADS + _SAVES),
    ("sampling", "sample_candidates", "sampling", SPAN),
    ("sampling", "score_grasp", "quality", SPAN),
    ("anchors", "extract_regions", "region", SPAN),
    ("metrics", "score_grasp", "quality", SPAN),
    ("metrics", "transform_grasp", "geometry", SPAN),
    ("quality", "grasp_frame", "geometry", COUNT),
    ("refine", "grasp_frame", "geometry", COUNT),
    ("geometry", "grasp_frame", "geometry", COUNT),
]


class Tracer:
    """Records spans and counts at the call sites while installed."""

    def __init__(self):
        # span: [callee, caller, start, end, parent index, numbers]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _span(self, fn, callee: str, caller: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = _BEFORE.get(callee), _AFTER.get(callee)

        def wrapper(*args, **kwargs):
            record = [callee, caller, 0.0, 0.0, stack[-1] if stack else -1, {}]
            if before is not None:
                record[5].update(before(args, kwargs))
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                record[5].update(after(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, fn, callee: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[callee] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for caller, name, layer, kind in CALL_SITES:
            module = importlib.import_module(f"graspfield.{caller}")
            fn = getattr(module, name, None)
            if not callable(fn):
                self.missing.append(f"{caller}.{name}")
                continue
            callee = f"{layer}.{name}"
            wrapped = self._span(fn, callee, caller) if kind == SPAN else self._counter(fn, callee)
            self._patched.append((module, name, fn))
            setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced iteration.

    Times are self times: a span's duration minus the durations of its
    child spans, so work is charged to the layer that does it. The one
    exception is ``dataset.verify_s``, which sums whole spans by caller.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for callee, caller, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    self_s: Counter = Counter()
    calls: Counter = Counter()
    sums: Counter = Counter()
    regions_by_parent: Counter = Counter()
    verify_s = 0.0
    for i, (callee, caller, start, end, parent, numbers) in enumerate(spans):
        own = end - start - child_time[i]
        self_s[callee] += own
        calls[callee] += 1
        for key, value in numbers.items():
            sums[f"{callee}.{key}"] += value
        if callee == "quality.score_grasp":
            layer = {"dataset": "verify"}.get(caller, caller)
            self_s[f"quality.score_grasp.{layer}"] += own
            calls[f"quality.score_grasp.{layer}"] += 1
        if callee == "region.extract_regions" and parent >= 0:
            regions_by_parent[parent] += numbers.get("regions", 0)
        if caller == "dataset" and (
            callee == "quality.score_grasp" or callee == "anchors.decode_proposal" or callee.startswith("fileio.load_")
        ):
            verify_s += end - start

    def ratio(num, den):
        return num / den if den else 0.0

    dropped = sum(
        regions_by_parent[i] - numbers.get("targets", 0)
        for i, (callee, _, _, _, _, numbers) in enumerate(spans)
        if callee == "anchors.build_proposal_targets" and "targets" in numbers
    )
    score_s = self_s["quality.score_grasp"]
    score_calls = calls["quality.score_grasp"]
    return {
        "quality.score_grasp_s.sampling": self_s["quality.score_grasp.sampling"],
        "quality.score_grasp_s.verify": self_s["quality.score_grasp.verify"],
        "quality.score_grasp_s.metrics": self_s["quality.score_grasp.metrics"],
        "quality.score_grasp_calls": score_calls,
        "quality.us_per_grasp": 1e6 * ratio(score_s, score_calls),
        "quality.pass_ratio": ratio(sums["quality.score_grasp.passed"], score_calls),
        "geometry.grasp_frame_calls": tracer.counts["geometry.grasp_frame"],
        "geometry.transform_grasp_s": self_s["geometry.transform_grasp"],
        "sampling.sample_candidates_s": self_s["sampling.sample_candidates"],
        "sampling.candidates_requested": sums["sampling.sample_candidates.requested"],
        "sampling.candidates": sums["sampling.sample_candidates.candidates"],
        "sampling.candidate_yield": ratio(
            sums["sampling.sample_candidates.candidates"], sums["sampling.sample_candidates.requested"]
        ),
        "sampling.acceptance": ratio(
            sums["sampling.build_positive_set.positives"], calls["quality.score_grasp.sampling"]
        ),
        "sampling.build_positive_set_self_s": self_s["sampling.build_positive_set"],
        "sampling.render_s": self_s["sampling.render_single_view"],
        "dataset.verify_s": verify_s,
        "confidence.confidence_field_s": self_s["confidence.confidence_field"],
        "confidence.positive_fraction": ratio(
            sums["confidence.confidence_field.positive_points"], sums["confidence.confidence_field.points"]
        ),
        "region.extract_regions_s": self_s["region.extract_regions"],
        "region.regions": sums["region.extract_regions.regions"],
        "anchors.build_proposal_targets_self_s": self_s["anchors.build_proposal_targets"],
        "anchors.regions_dropped": dropped,
        "refine.build_refinement_targets_s": self_s["refine.build_refinement_targets"],
        "refine.selected": sums["refine.build_refinement_targets.selected"],
        "refine.positive_targets": sums["refine.build_refinement_targets.positive"],
        "metrics.evaluate_s": self_s["metrics.evaluate"],
        "fileio.save_s": sum(v for k, v in self_s.items() if k.startswith("fileio.save_")),
        "fileio.load_s": sum(v for k, v in self_s.items() if k.startswith("fileio.load_")),
        "fileio.bytes_written": sum(v for k, v in sums.items() if k.startswith("fileio.save_")),
        "fileio.bytes_read": sum(v for k, v in sums.items() if k.startswith("fileio.load_")),
        "trace.spans": len(spans),
    }


def span_records(tracer: Tracer) -> list[dict]:
    """Spans as JSON-ready records, times relative to the first span."""
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    return [
        {"name": callee, "caller": caller, "start": start - t0, "end": end - t0, "parent": parent, **numbers}
        for callee, caller, start, end, parent, numbers in tracer.spans
    ]
