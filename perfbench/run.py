#!/usr/bin/env python3
"""Benchmark of the balanced_transport package, measured from outside it.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One process runs one workload with a single caller in a closed loop: the
next pass starts when the previous one returns.  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` alternates
untraced and traced passes over the same inputs and reports the
per-layer metrics and the tracer's own overhead.  Every output is
checked.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record (environment, sample counts, percentiles, failures, the spans of
one traced pass) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
WORK = ROOT / "perfbench" / ".work"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORKLOAD_NAMES = ("grid-anneal", "grid-cold", "desk-certify", "classic-reference")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

# Every end-to-end metric, measured with tracing off: (name, unit).  Only
# those listed in BENCHMARK.json end the run's last line; the rest are zero
# or undefined on some workloads, or move too much with the seed's
# problems to be bounded, and are printed and recorded.
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("solve_s", "s"), ("certify_s", "s"),
    ("oracle_s", "s"), ("reference_s", "s"), ("iterations", "count"),
    ("cell_updates_per_s", "cells/s"), ("objective_gap_rel", "ratio"),
    ("duality_gap_abs", "objective"), ("marginal_residual_rel", "ratio"),
    ("balanced_frac", "ratio"), ("failed_frac", "ratio"), ("peak_rss_mb", "MiB"),
)

LAYERS = ("model", "regularized", "classic", "verify", "experiments", "fileio", "cli")


def cap_blas_threads() -> None:
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="balanced_transport benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child(args, workload: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = child(args, name)
        sys.stdout.write(proc.stdout)
        result = last_json(proc.stdout)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def summarize(samples) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "samples": len(xs)}
    if len(xs) >= 11:
        rank = len(xs) - 11
        out[f"p{100 * (rank + 1) // len(xs)}"] = xs[rank]
    return out


def read_cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = int(size.rstrip("K")) * 1024 if size.endswith("K") else size
    return sizes


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(workload, seed: int) -> dict:
    import platform

    import numpy as np

    caches = read_cache_sizes()
    z_bytes = workload.z_bytes()
    l2 = caches.get("L2")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_cap": {var: os.environ.get(var) for var in BLAS_VARS},
        "cpu_model": cpu_model(),
        "nproc": NPROC,
        "l2_bytes_per_core": l2,
        "l3_bytes": caches.get("L3"),
        "z_bytes": z_bytes,
        "working_set": "cache-resident" if isinstance(l2, int) and max(z_bytes.values()) <= l2 else "not cache-resident",
        "seed": seed,
        "loop": "closed, one caller",
    }


def per_layer(tracer, out) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    counts = tracer.counts
    t = tracer.total
    col, row = "regularized.power_norm.col", "regularized.power_norm.row"
    cells = counts["power_norm.cells"]
    sampled = counts["power_norm.sampled_terms"]
    iterations = counts["solve.iterations"]
    pivots = counts["lp_oracle.pivots"]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {
        f"{col}.calls": (tracer.calls(col), "count"),
        f"{col}.s": (t(col), "s"),
        f"{row}.calls": (tracer.calls(row), "count"),
        f"{row}.s": (t(row), "s"),
        "regularized.power_norm.cells": (cells, "count"),
        "regularized.power_norm.input_bytes_computed": (8 * cells, "bytes"),
        "regularized.power_norm.ns_per_cell": (ratio(t(col) + t(row), cells, 1e9), "ns"),
        "regularized.power_norm.live_frac": (ratio(counts["power_norm.live_terms"], sampled), "ratio"),
        "regularized.power_norm.subnormal_frac": (ratio(counts["power_norm.subnormal_terms"], sampled), "ratio"),
        "regularized.solve.calls": (tracer.calls("regularized.solve"), "count"),
        "regularized.solve.self_s": (tracer.self_time("regularized.solve"), "s"),
        "regularized.solve.self_us_per_iter": (ratio(tracer.self_time("regularized.solve"), iterations, 1e6), "us"),
        "regularized.first_stage_iters": (counts["solve.first_stage_iters"], "count"),
        "regularized.warm_stage_iters": (counts["solve.warm_stage_iters"], "count"),
        "regularized.first_stage_s": (counts["solve.first_stage_s"], "s"),
        "regularized.warm_stage_s": (counts["solve.warm_stage_s"], "s"),
        "regularized.row_equilibrate.s": (t("regularized.row_equilibrate"), "s"),
        "model.ot_to_moma.s": (t("model.ot_to_moma"), "s"),
        "model.require_valid.calls": (tracer.calls("model.require_valid"), "count"),
        "model.require_valid.s": (t("model.require_valid"), "s"),
        "model.TransportPlan.against.s": (t("model.TransportPlan.against"), "s"),
        "verify.verify_balanced.calls": (tracer.calls("verify.verify_balanced"), "count"),
        "verify.verify_balanced.s": (t("verify.verify_balanced"), "s"),
        "verify.recover_duals.s": (t("verify.recover_duals"), "s"),
        "verify.support_cells": (counts["verify.support_cells"], "count"),
        "verify.balanced_frac": (ratio(out.balanced_plans, out.solver_plans), "ratio"),
        "verify.lp_oracle.s": (t("verify.lp_oracle"), "s"),
        "verify.lp_oracle.pivots": (pivots, "count"),
        "verify.lp_oracle.us_per_pivot": (ratio(t("verify.lp_oracle"), pivots, 1e6), "us"),
        "classic.concave_iteration.s": (t("classic.concave_iteration"), "s"),
        "classic.concave_iteration.sweeps": (counts["concave_iteration.sweeps"], "count"),
        "classic.evaluate.calls": (counts["classic.evaluate.calls"], "count"),
        "classic.evaluate.cells": (counts["classic.evaluate.cells"], "count"),
        "classic.ipfp_matrix.s": (t("classic.ipfp_matrix"), "s"),
        "classic.ipfp_matrix.iterations": (counts["ipfp_matrix.iterations"], "count"),
        "experiments.trajectory_study.s": (t("experiments.trajectory_study"), "s"),
        "fileio.read_problem.s": (t("fileio.read_problem"), "s"),
        "fileio.write_matrix_csv.s": (t("fileio.write_matrix_csv"), "s"),
        "fileio.write_trace_csv.s": (t("fileio.write_trace_csv"), "s"),
        "fileio.read_matrix_csv.s": (t("fileio.read_matrix_csv"), "s"),
        "fileio.bytes_written": (counts["fileio.bytes_written"], "bytes"),
        "cli.solve.self_s": (tracer.self_time("cli.solve"), "s"),
        "cli.verify.self_s": (tracer.self_time("cli.verify"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer_self[layer], "s")
    return m


def reached(tracer) -> set:
    names = {name for name, stat in tracer.stats.items() if stat[0] > 0}
    if tracer.counts["classic.evaluate.calls"] > 0:
        names.add("classic.evaluate")
    return names


def setup_probe(args) -> int:
    """Set the workload up once in this fresh process and report how long it took."""
    from perfbench.workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        workload.setup(workdir)
        workload.batch(0)
        elapsed = perf_counter() - START
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path, setup_samples) -> dict:
    """Set up, run passes until ``seconds`` are spent, and build the run's record.

    The record's ``result`` is the object the run prints last.
    """
    from perfbench.tracer import Tracer, patched
    from perfbench.workloads import Outcome

    tracer = Tracer()
    seen = set()
    if trace:
        with patched(tracer), tracer.span("setup", "bench"):
            workload.setup(workdir)
        seen = reached(tracer)
        setup_generate_s = tracer.total("experiments.generate_grid")
    else:
        workload.setup(workdir)

    untraced, traced, snapshots = [], [], []
    first_spans = None
    attempted = failed = 0
    failures = []
    begin = perf_counter()
    k = 0
    while True:
        batch = workload.batch(k)
        order = (False, True) if k % 2 == 0 else (True, False)
        for is_traced in order if trace else (False,):
            out = Outcome()
            if is_traced:
                tracer.reset()
                with patched(tracer):
                    t0 = perf_counter()
                    with tracer.span("pass", "bench"):
                        workload.run(batch, out, tracer)
                    wall = perf_counter() - t0
                snapshots.append(per_layer(tracer, out))
                seen |= reached(tracer)
                if first_spans is None:
                    first_spans = [(n, s - t0, e - t0, p) for n, s, e, p in tracer.spans]
                traced.append((wall, out))
            else:
                t0 = perf_counter()
                workload.run(batch, out)
                wall = perf_counter() - t0
                untraced.append((wall, out))
            attempted += out.attempted
            failed += out.failed
            failures += [f"pass {k}: {msg}" for msg in out.failures]
        k += 1
        elapsed = perf_counter() - begin
        if elapsed + elapsed / k > seconds:  # the next pass would overrun
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    missing = sorted(workload.expected - seen) if trace else []
    if trace:
        attempted += len(workload.expected)
        failed += len(missing)

    e2e = end_to_end(untraced, setup_samples, peak_rss_mb, attempted, failed)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seconds": seconds,
        "passes": k,
        "environment": environment(workload, seed),
        "end_to_end": e2e,
        "counts_pass0": dict(untraced[0][1].counts),
        "quality_pass0": untraced[0][1].quality,
        "wall_samples": [wall for wall, _ in untraced],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if trace:
        layer = {}
        for name, (value, unit) in snapshots[0].items():
            if unit in ("s", "ns", "us"):
                value = statistics.median(snap[name][0] for snap in snapshots)
            layer[name] = {"value": value, "unit": unit}
        layer["experiments.generate_grid.s"] = {"value": setup_generate_s, "unit": "s"}
        overheads = [t_wall / u_wall - 1.0 for (t_wall, _), (u_wall, _) in zip(traced, untraced)]
        layer["trace_overhead_frac"] = {"value": statistics.median(overheads), "unit": "ratio"}
        record["per_layer"] = layer
        record["missing_layers"] = {name: "expected on this workload but never reached" for name in missing}
        record["trace_pairs"] = len(traced)
        record["spans_first_traced_pass"] = first_spans
        metrics = layer
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]} for name in bounded_metrics()}
    record["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record


def measure(args) -> int:
    setup_samples = [last_json(child(args, args.workload, "--setup-probe").stdout)["setup_s"]
                     for _ in range(SETUP_REPEATS)]

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace), workdir, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans_first_traced_pass", None)
    if spans is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=_jsonable) + "\n")
    print_report(record)
    print(json.dumps(record["result"], default=_jsonable))
    return 0


def _jsonable(value):
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def bounded_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in doc["end_to_end"]]


def end_to_end(untraced, setup_samples, peak_rss_mb, attempted, failed) -> dict:
    """Every end-to-end metric as {value, unit, samples[, pNN]}; None where undefined."""
    outs = [out for _, out in untraced]
    first = outs[0]

    def timing(samples):
        samples = list(samples)
        return summarize(samples) if samples and max(samples) > 0 else None

    values = {
        "setup_s": summarize(setup_samples),
        "wall_s": summarize([wall for wall, _ in untraced]),
        "solve_s": timing(out.times["solve_s"] for out in outs),
        "certify_s": timing(out.times["certify_s"] for out in outs),
        "oracle_s": timing(out.times["oracle_s"] for out in outs),
        "reference_s": timing(out.times["reference_s"] for out in outs),
        "iterations": {"median": first.iterations, "samples": 1} if first.iterations else None,
        "cell_updates_per_s": timing(out.cell_updates / out.times["solve_s"] for out in outs if out.cell_updates)
        if first.cell_updates else None,
        "balanced_frac": {"median": sum(o.balanced_plans for o in outs) / sum(o.solver_plans for o in outs),
                          "samples": sum(o.solver_plans for o in outs)} if first.solver_plans else None,
        "failed_frac": {"median": failed / attempted, "samples": attempted},
        "peak_rss_mb": {"median": peak_rss_mb, "samples": 1},
    }
    for key in ("objective_gap_rel", "duality_gap_abs", "marginal_residual_rel"):
        values[key] = {"median": first.quality[key], "samples": 1} if key in first.quality else None
    e2e = {}
    for name, unit in END_TO_END:
        entry = values[name]
        if entry is None:
            e2e[name] = {"value": None, "unit": unit, "note": "not measured on this workload"}
        else:
            entry = dict(entry)
            e2e[name] = {"value": entry.pop("median"), "unit": unit, **entry}
    return e2e


def print_report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}: {record['why']}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, {env['cpu_model']}, nproc {env['nproc']}, "
          f"BLAS threads {env['blas_thread_cap']['OPENBLAS_NUM_THREADS']}, L2 {env['l2_bytes_per_core']} B/core, "
          f"L3 {env['l3_bytes']} B, z {env['z_bytes']} ({env['working_set']}), seed {env['seed']}")
    print(f"passes: {record['passes']} in a closed loop with one caller")
    for name, entry in record["end_to_end"].items():
        if entry["value"] is None:
            print(f"  {name}: n/a ({entry['note']})")
            continue
        extra = "".join(f", {k} {v:.6g}" for k, v in entry.items() if k.startswith("p") and k[1:].isdigit())
        print(f"  {name}: {entry['value']:.6g} {entry['unit']} (median of {entry['samples']}{extra})")
    for name, entry in record.get("per_layer", {}).items():
        print(f"  {name}: {entry['value']:.6g} {entry['unit']}")
    for name, reason in record.get("missing_layers", {}).items():
        print(f"  MISSING {name}: {reason}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"checks: {record['attempted']} attempted, {record['failed']} failed")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "balanced_transport" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    cap_blas_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
