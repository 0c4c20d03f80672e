"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from balanced_transport import model
from perfbench import run
from perfbench.tracer import Tracer
from perfbench.workloads import ClassicReference, DeskCertify, GridAnneal, GridCold, Outcome

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
TINY_DESK = ((3, 4, model.MAXIMIZE), (4, 4, model.MINIMIZE), (5, 3, model.MAXIMIZE))


def tiny(name, seed=1):
    """Each workload at a size that runs in well under a second."""
    return {
        "grid-anneal": lambda: GridAnneal(seed, size=8),
        "grid-cold": lambda: GridCold(seed, size=8, eta=1e-2),
        "desk-certify": lambda: DeskCertify(seed, shapes=TINY_DESK),
        "classic-reference": lambda: ClassicReference(seed, size=4),
    }[name]()


def record_of(workload, tmp_path, trace, seed=1):
    workdir = tmp_path / f"{workload.name}-{trace}"
    workdir.mkdir(parents=True)
    # seconds=0 stops after the first pass (or pair of passes when tracing)
    return run.run_workload(workload, seed, 0.0, trace, workdir, [0.1, 0.2, 0.3])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_named_metric_is_emitted_with_its_unit(name, tmp_path):
    untraced = record_of(tiny(name), tmp_path, trace=False)
    assert untraced["result"]["correct"], untraced["failures"]
    assert untraced["result"]["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = untraced["result"]["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == expected
    assert all(v["value"] > 0 for v in got.values())
    assert [k for k, _ in run.END_TO_END] == list(untraced["end_to_end"])
    assert all(v["unit"] == unit for (_, unit), v in zip(run.END_TO_END, untraced["end_to_end"].values()))

    traced = record_of(tiny(name), tmp_path, trace=True)
    assert traced["result"]["correct"], (traced["failures"], traced["missing_layers"])
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in traced["result"]["metrics"].items()} == expected


DETERMINISTIC = (
    "regularized.power_norm.col.calls", "regularized.power_norm.row.calls", "regularized.power_norm.cells",
    "regularized.first_stage_iters", "regularized.warm_stage_iters", "verify.lp_oracle.pivots",
    "verify.support_cells", "classic.concave_iteration.sweeps", "classic.evaluate.calls",
    "classic.evaluate.cells", "classic.ipfp_matrix.iterations", "regularized.power_norm.live_frac",
)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_deterministic_counts_repeat_for_the_same_seed(name, tmp_path):
    first, second = (record_of(tiny(name, seed=7), tmp_path / run_dir, trace=True, seed=7) for run_dir in "ab")
    assert first["counts_pass0"] == second["counts_pass0"]
    assert first["counts_pass0"]  # per-stage iterations, pivots, sweeps, ...
    for metric in DETERMINISTIC:
        assert first["per_layer"][metric]["value"] == second["per_layer"][metric]["value"], metric


def test_a_different_seed_changes_desk_and_classic_inputs():
    for make in (lambda s: DeskCertify(s, shapes=TINY_DESK), lambda s: ClassicReference(s, size=4)):
        same = [np.concatenate([p.weights.ravel() for p in np.atleast_1d(make(1).batch(0))]) for _ in range(2)]
        other = np.concatenate([p.weights.ravel() for p in np.atleast_1d(make(2).batch(0))])
        assert np.array_equal(same[0], same[1])
        assert not np.array_equal(same[0], other)


def test_later_passes_draw_new_problems():
    desk = DeskCertify(3, shapes=TINY_DESK)
    first = desk.batch(0)[0].weights
    assert desk.batch(0)[0].weights is first
    assert not np.array_equal(desk.batch(1)[0].weights, first)


def test_a_layer_that_is_never_reached_is_reported_missing(tmp_path):
    class BypassedOracle(GridCold):
        expected = GridCold.expected | {"verify.lp_oracle"}

    record = record_of(BypassedOracle(1, size=8, eta=1e-2), tmp_path, trace=True)
    assert list(record["missing_layers"]) == ["verify.lp_oracle"]
    assert record["result"]["failed"] == 1
    assert not record["result"]["correct"]


def test_failed_checks_and_exceptions_are_counted_without_aborting():
    out = Outcome()
    with out.chain("first", 3):
        out.check("ok", converged=True)
        out.check("bad", converged=False)
        raise RuntimeError("boom")
    with out.chain("second", 1):
        out.check("ok", converged=True)
    assert (out.attempted, out.failed) == (4, 2)
    assert "bad: failed converged" in out.failures[0]
    assert "RuntimeError: boom" in out.failures[1]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("parent", "a"):
        with tracer.span("child", "b"):
            sum(range(10_000))
        sum(range(10_000))
    parent, child = tracer.stats["parent"], tracer.stats["child"]
    assert parent[2] == pytest.approx(parent[1] - child[1])
    assert tracer.layer_self["a"] == pytest.approx(parent[2])
    assert [s[3] for s in tracer.spans] == [-1, 0]


def test_a_run_whose_solver_raises_reports_failures_and_finishes(tmp_path, monkeypatch):
    from balanced_transport import regularized

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(regularized, "solve", broken)
    record = record_of(tiny("grid-cold"), tmp_path, trace=False)
    assert record["result"]["attempted"] == 2
    assert record["result"]["failed"] == 2
    assert not record["result"]["correct"]
    assert "FloatingPointError: injected" in record["failures"][0]
