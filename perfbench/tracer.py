"""Span tracer that wraps the package's functions from outside.

Each wrapped function is replaced, for the duration of a traced pass, at
the module (or class) attribute its callers resolve at call time, so
nothing under ``src/`` changes.  A span records its name, start, end and
parent; a name's self time is its span time minus the time its child
spans cover.  Work the tracer adds (kernel counters, file sizes) runs in
``trace.counters`` spans, so it is subtracted from the caller's self
time and shows only in the tracer's own overhead.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from balanced_transport import classic, cli, experiments, fileio, model, regularized, verify

COUNTERS = "trace.counters"

#: power_norm's live and subnormal shares are recomputed on every
#: SAMPLE_EVERY-th call per axis; recomputing costs about one more call.
SAMPLE_EVERY = 8

_HALF_ULP = 2.0**-53
_TINY = np.finfo(float).tiny


class Tracer:
    """In-memory spans, per-name totals, per-layer self time and counters."""

    def __init__(self):
        self.reset()

    def reset(self):
        self._stack = []  # [name, layer, start, child_time, span index]
        self.spans = []  # (name, start, end, parent span index or -1)
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(float)

    def enter(self, name: str, layer: str) -> None:
        parent = self._stack[-1][4] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append([name, layer, perf_counter(), 0.0, len(self.spans) - 1])

    def exit(self) -> None:
        end = perf_counter()
        name, layer, start, child, index = self._stack.pop()
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        self.layer_self[layer] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        self.spans[index] = (name, start, end, self.spans[index][3])

    @contextmanager
    def span(self, name: str, layer: str):
        self.enter(name, layer)
        try:
            yield
        finally:
            self.exit()

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


def _wrap(tracer: Tracer, fn, name: str, layer: str, hook=None):
    def wrapper(*args, **kwargs):
        tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            tracer.enter(COUNTERS, "trace")
            try:
                hook(tracer, args, kwargs, result)
            finally:
                tracer.exit()
        return result

    return functools.update_wrapper(wrapper, fn)


def _power_norm_counts(tracer: Tracer, values, eta: float, axis) -> None:
    """Terms that can still change the sum, and terms below the normal range."""
    v = np.asarray(values, dtype=float)
    with np.errstate(under="ignore"):
        terms = (v / np.max(v, axis=axis, keepdims=True)) ** (1.0 / eta)
    total = np.sum(terms, axis=axis, keepdims=True)
    tracer.counts["power_norm.sampled_terms"] += terms.size
    tracer.counts["power_norm.live_terms"] += int(np.count_nonzero(terms > total * _HALF_ULP))
    tracer.counts["power_norm.subnormal_terms"] += int(np.count_nonzero(terms < _TINY))


def _wrap_power_norm(tracer: Tracer, fn):
    names = {0: "regularized.power_norm.col", 1: "regularized.power_norm.row"}

    def power_norm(values, eta, axis=None):
        name = names.get(axis, "regularized.power_norm.all")
        tracer.enter(name, "regularized")
        try:
            out = fn(values, eta, axis)
        finally:
            tracer.exit()
        tracer.enter(COUNTERS, "trace")
        try:
            tracer.counts["power_norm.cells"] += np.size(values)
            if tracer.calls(name) % SAMPLE_EVERY == 1:
                _power_norm_counts(tracer, values, eta, axis)
        finally:
            tracer.exit()
        return out

    return functools.update_wrapper(power_norm, fn)


def _solve_hook(tracer, args, kwargs, result) -> None:
    stages = result.stage_iterations
    walls = result.trace.wall_times
    first = stages[0]
    tracer.counts["solve.iterations"] += result.iterations
    tracer.counts["solve.first_stage_iters"] += first
    tracer.counts["solve.warm_stage_iters"] += result.iterations - first
    tracer.counts["solve.first_stage_s"] += walls[first - 1]
    tracer.counts["solve.warm_stage_s"] += walls[-1] - walls[first - 1]


def _verify_hook(tracer, args, kwargs, result) -> None:
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    tracer.counts["verify.support_cells"] += int(np.count_nonzero(verify.support_mask(plan.values)))


def _oracle_hook(tracer, args, kwargs, result) -> None:
    tracer.counts["lp_oracle.pivots"] += result.pivots


def _concave_hook(tracer, args, kwargs, result) -> None:
    tracer.counts["concave_iteration.sweeps"] += result.sweeps


def _ipfp_hook(tracer, args, kwargs, result) -> None:
    tracer.counts["ipfp_matrix.iterations"] += result.iterations


def _bytes_hook(tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["fileio.bytes_written"] += os.path.getsize(path)


# (owner, attribute, span name, layer, hook): every attribute through which
# a caller reaches one of these functions, the package's own callers and
# the benchmark's.
WRAPPED = (
    (regularized, "row_equilibrate", "regularized.row_equilibrate", "regularized", None),
    (regularized, "solve", "regularized.solve", "regularized", _solve_hook),
    (experiments, "solve", "regularized.solve", "regularized", _solve_hook),
    (cli, "solve", "regularized.solve", "regularized", _solve_hook),
    (regularized, "ot_to_moma", "model.ot_to_moma", "model", None),
    (model, "require_valid", "model.require_valid", "model", None),
    (regularized, "require_valid", "model.require_valid", "model", None),
    (verify, "require_valid", "model.require_valid", "model", None),
    (cli, "require_valid", "model.require_valid", "model", None),
    (verify, "verify_balanced", "verify.verify_balanced", "verify", _verify_hook),
    (cli, "verify_balanced", "verify.verify_balanced", "verify", _verify_hook),
    (verify, "recover_duals", "verify.recover_duals", "verify", None),
    (cli, "recover_duals", "verify.recover_duals", "verify", None),
    (verify, "lp_oracle", "verify.lp_oracle", "verify", _oracle_hook),
    (classic, "concave_iteration", "classic.concave_iteration", "classic", _concave_hook),
    (classic, "ipfp_matrix", "classic.ipfp_matrix", "classic", _ipfp_hook),
    (experiments, "generate_grid", "experiments.generate_grid", "experiments", None),
    (experiments, "run_single_stage", "experiments.run_single_stage", "experiments", None),
    (experiments, "trajectory_study", "experiments.trajectory_study", "experiments", None),
    (fileio, "write_problem", "fileio.write_problem", "fileio", _bytes_hook),
    (cli, "read_problem", "fileio.read_problem", "fileio", None),
    (cli, "read_matrix_csv", "fileio.read_matrix_csv", "fileio", None),
    (cli, "write_matrix_csv", "fileio.write_matrix_csv", "fileio", _bytes_hook),
    (cli, "write_trace_csv", "fileio.write_trace_csv", "fileio", _bytes_hook),
    (cli, "write_report", "fileio.write_report", "fileio", _bytes_hook),
)

@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, layer, hook in WRAPPED:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name, layer, hook))
        saved.append((regularized, "power_norm", regularized.power_norm))
        regularized.power_norm = _wrap_power_norm(tracer, regularized.power_norm)
        against = model.TransportPlan.__dict__["against"]
        saved.append((model.TransportPlan, "against", against))
        model.TransportPlan.against = classmethod(
            _wrap(tracer, against.__func__, "model.TransportPlan.against", "model")
        )
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
