#!/usr/bin/env python3
"""Benchmark of the graspfield command line, run in-process.

    python3 bench/run.py --workload objects-mixed --seed 1 --seconds 40 --trace 0

Run from the repository root. The benchmark imports ``graspfield`` from
``src/``, writes the workload's seeded inputs (set-up), then runs the
workload's ``graspfield`` commands through ``graspfield.cli.main(argv)``
repeatedly for ``--seconds`` (at least two iterations), checks every
iteration's outputs, and reports medians. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
iterations and prints the per-layer metrics, including the tracing
overhead. ``--workload all`` runs every workload in turn. The last line
of standard output is one JSON object; the full record, with the machine,
the inputs' hashes and the output digests, goes to
``.bench_work/results/``. See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("objects-mixed", "scene-20k", "eval-predictions")
SETUP_REPEATS = 5
MIN_ITERATIONS = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "positives_per_s": "1/s",
    "views_per_s": "1/s",
    "grasps_per_s": "1/s",
    "proposals_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("us_per_grasp"):
        return "us"
    if ".bytes_" in name:
        return "bytes"
    if name.split(".")[-1] in ("pass_ratio", "candidate_yield", "acceptance", "positive_fraction"):
        return "ratio"
    return "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# One iteration: the workload's commands, then the output gate
# ---------------------------------------------------------------------------


def _run_iteration(cli, workloads, tracing, workload, inputs: Path, out: Path, traced: bool) -> dict:
    out.mkdir(parents=True)
    gc.collect()
    tracer = tracing.Tracer() if traced else None
    times, problems = {}, []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install()
        try:
            for name, argv in workloads.commands(workload, inputs, out):
                text = io.StringIO()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                        code = cli.main(argv)
                except Exception:
                    code = "an exception"
                    text.write(traceback.format_exc())
                times[name] = time.perf_counter() - start
                if code != 0:
                    tail = text.getvalue().strip().splitlines()[-1:] or [""]
                    problems.append(f"{name} exited with {code}: {tail[0]}")
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
    result = {
        "traced": traced,
        "command_s": times,
        "wall_s": sum(times.values()),
        "warnings": len(caught),
        "counts": {},
        "digests": {},
    }
    if not problems:
        try:
            result["counts"], found, result["digests"] = workloads.read_outputs(workload, out)
            problems += found
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["unwrapped"] = tracer.missing
        result["spans"] = tracing.span_records(tracer)
    result["problems"] = problems
    shutil.rmtree(out)
    return result


# ---------------------------------------------------------------------------
# One workload: set-up, iterations, gate across iterations, metrics
# ---------------------------------------------------------------------------


def _setup(workloads, workload, seed, work: Path) -> tuple[Path, list, list, list]:
    """Write the inputs SETUP_REPEATS times; all copies must be identical."""
    times, records, problems = [], [], []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        rec = workloads.write_inputs(workload, seed, work / f"inputs{k}")
        times.append(time.perf_counter() - start)
        records.append(rec)
        if k:
            shutil.rmtree(work / f"inputs{k}")
    if any(rec != records[0] for rec in records):
        problems.append("inputs differ between set-ups of the same seed")
    return work / "inputs0", records[0], times, problems


def _end_to_end(workload, import_s, setup_times, untraced, counts) -> dict:
    wall = _median([it["wall_s"] for it in untraced])
    command = {name: _median([it["command_s"].get(name, 0.0) for it in untraced]) for name in untraced[0]["command_s"]}

    def per(count, seconds):
        return count / seconds if seconds else 0.0

    if workload == "eval-predictions":
        rates = {
            "positives_per_s": per(counts.get("valid", 0) + counts.get("positive_targets", 0), wall),
            "views_per_s": per(1, wall),
            "grasps_per_s": per(counts.get("predictions", 0), command.get("eval-vgr", 0.0)),
            "proposals_per_s": per(counts.get("predictions", 0), command.get("refine-targets", 0.0)),
        }
    else:
        rates = {
            "positives_per_s": per(counts.get("positives", 0), wall),
            "views_per_s": per(counts.get("views", 0), wall),
            "grasps_per_s": per(counts.get("verified_grasps", 0), wall),
            "proposals_per_s": per(counts.get("targets", 0), wall),
        }
    return {
        "setup_s": import_s + _median(setup_times),
        "wall_s": wall,
        **rates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(traced, untraced, counts) -> dict:
    layers = {}
    for name in traced[0]["layers"]:
        values = [it["layers"][name] for it in traced]
        # exact counts are equal in every traced iteration (the output gate checks)
        layers[name] = values[0] if _unit(name) in ("count", "bytes") else _median(values)
        if name == "dataset.verify_s":  # label health, read from the manifest
            for key in ("objects_skipped", "views_all_positive", "views_all_negative"):
                layers[f"dataset.{key}"] = counts.get(key, 0)
    traced_wall = _median([it["wall_s"] for it in traced])
    untraced_wall = _median([it["wall_s"] for it in untraced])
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    return layers


def run_workload(modules, workload: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    cli, workloads, tracing = modules
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, input_records, setup_times, setup_problems = _setup(workloads, workload, seed, work)
        iterations, durations = [], []
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(iterations) % 2 == 1
            begin = time.perf_counter()
            iterations.append(
                _run_iteration(cli, workloads, tracing, workload, inputs, work / f"iteration{len(iterations)}", traced)
            )
            durations.append(time.perf_counter() - begin)
            # stop when the next iteration would likely end past the deadline
            if len(iterations) >= MIN_ITERATIONS and time.perf_counter() + _median(durations) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Output gate across iterations: the same code and seed must give the
    # same output bytes and, when traced, the same exact counts.
    reference = next((it for it in iterations if not it["problems"]), None)
    first_traced = next((it for it in iterations if it["traced"] and not it["problems"]), None)
    for it in iterations:
        if it["problems"] or reference is None:
            continue
        if it["digests"] != reference["digests"] or it["counts"] != reference["counts"]:
            it["problems"].append("outputs differ from the first iteration's")
        if it["traced"] and first_traced is not None:
            exact = {k: v for k, v in it["layers"].items() if _unit(k) in ("count", "bytes")}
            if exact != {k: first_traced["layers"][k] for k in exact}:
                it["problems"].append("traced counts differ from the first traced iteration's")
    failed = sum(bool(it["problems"]) for it in iterations)
    untraced = [it for it in iterations if not it["traced"]]
    traced_its = [it for it in iterations if it["traced"]]
    counts = reference["counts"] if reference else {}

    end_to_end = _end_to_end(workload, import_s, setup_times, untraced, counts)
    per_layer = _per_layer(traced_its, untraced, counts) if trace else {}
    if trace:
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        spans_path = WORK / "results" / f"TRACE_{workload}_seed{seed}.json"
        spans_path.write_text(json.dumps(traced_its[0]["spans"]))
    for it in traced_its:
        del it["spans"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and not setup_problems,
        "attempted": len(iterations),
        "failed": failed,
        "failed_ratio": failed / len(iterations),
        "setup_problems": setup_problems,
        "import_s": import_s,
        "setup_write_s": setup_times,
        "inputs": input_records,
        "counts": counts,
        "digests": reference["digests"] if reference else {},
        "iterations": iterations,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def _print_table(result: dict) -> None:
    print(f"== {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
          f"{result['attempted']} iterations, {result['failed']} failed")
    for it in result["iterations"]:
        for problem in it["problems"]:
            print(f"   FAILED: {problem}")
    for problem in result["setup_problems"]:
        print(f"   FAILED: {problem}")
    rows = [(name, value, END_TO_END[name]) for name, value in result["end_to_end"].items()]
    rows.append(("failed_ratio", result["failed_ratio"], "ratio"))
    rows += [(name, value, _unit(name)) for name, value in result["per_layer"].items()]
    for name, value, unit in rows:
        print(f"   {name:40s} {value:16.6f} {unit}")


def _summary_line(result: dict) -> dict:
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    units = {name: (_unit(name) if result["trace"] else END_TO_END[name]) for name in metrics}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "graspfield" / "cli.py").is_file():
        print(f"error: no graspfield sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, nproc)  # before numpy loads its BLAS

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import graspfield.cli as cli
    import tracing
    import workloads

    import_s = time.perf_counter() - start

    machine = _machine()
    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload((cli, workloads, tracing), workload, args.seed, args.seconds, bool(args.trace), import_s)
        result["machine"] = machine
        results.append(result)
        _print_table(result)
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        path = WORK / "results" / f"BENCH_{workload}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        print(f"   record: {path.relative_to(ROOT)}")
    if len(results) == 1:
        print(json.dumps(_summary_line(results[0])))
    else:
        print(json.dumps({r["workload"]: _summary_line(r) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
