"""The four benchmark workloads: inputs, one pass, and the output checks.

A pass calls the package through module attributes resolved at call time
(``regularized.solve``, ``cli.main``, ...), so the tracer's wrappers see
the benchmark's own calls as well as the package's internal ones.  Grid
workloads are deterministic; ``desk-certify`` and ``classic-reference``
draw a fresh batch of problems for every pass from one generator seeded
with the benchmark's seed, so pass 0 of a seed always sees the same
problems and a run averages over many of them.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from balanced_transport import classic, cli, experiments, fileio, model, regularized, verify

TOL = 1e-2
SCHEDULE_FLAG = "stages=12,factor=1.5,final=1e-4"
SCHEDULE = regularized.make_schedule(1e-4, stages=12, factor=1.5, tol=TOL)

#: A stage that stopped at criterion < tol has column sums within a factor
#: exp(tol) of c (rows are exact up to rounding), so no relative marginal
#: residual may exceed expm1(tol); the slack covers extraction rounding.
RESIDUAL_LIMIT = math.expm1(TOL) + 1e-9

#: Largest relative objective gap to the exact oracle accepted from a plan
#: whose marginals are only fitted to RESIDUAL_LIMIT.
OBJECTIVE_GAP_LIMIT = math.expm1(TOL)

#: Largest relative plan difference between the concave iteration (stopped
#: at 1e-8) and the regularized iteration (stopped at 1e-10).
AGREEMENT_LIMIT = 1e-6

# Span names every workload that runs the regularized solver must reach.
SOLVER_SPANS = (
    "regularized.solve",
    "regularized.power_norm.col",
    "regularized.power_norm.row",
    "regularized.row_equilibrate",
    "model.ot_to_moma",
    "model.require_valid",
    "model.TransportPlan.against",
)


class Outcome:
    """What one pass measured, checked and counted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.times = defaultdict(float)  # solve_s, certify_s, oracle_s, reference_s
        self.iterations = 0
        self.cell_updates = 0
        self.quality = {}  # worst value over the pass's problems
        self.solver_plans = 0
        self.balanced_plans = 0
        self.counts = defaultdict(list)  # deterministic counts, in call order
        self._left = 0

    @contextmanager
    def chain(self, label: str, ops: int):
        """``ops`` dependent operations; an exception fails those not yet closed."""
        self.attempted += ops
        self._left = ops
        try:
            yield
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += self._left
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def check(self, label: str, **conditions) -> None:
        """Close one operation; it fails when any named condition is false."""
        self._left -= 1
        bad = [name for name, ok in conditions.items() if not ok]
        if bad:
            self.failed += 1
            self.failures.append(f"{label}: failed {', '.join(bad)}")

    def timed(self, key: str, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.times[key] += perf_counter() - start
        return result

    def worst(self, key: str, value: float) -> None:
        self.quality[key] = max(self.quality.get(key, value), value)

    def solved(self, problem, result) -> None:
        self.iterations += result.iterations
        self.cell_updates += problem.n * problem.m * result.iterations
        self.counts["stage_iterations"].append(list(result.stage_iterations))

    def certified(self, report) -> None:
        self.solver_plans += 1
        self.balanced_plans += bool(report.is_balanced)
        self.worst("duality_gap_abs", abs(report.duality_gap))


def relative_residual(plan, problem) -> float:
    values = plan.values
    row = np.max(np.abs(values.sum(axis=1) / problem.row_marginals - 1.0))
    col = np.max(np.abs(values.sum(axis=0) / problem.col_marginals - 1.0))
    return float(max(row, col))


def solver_duals(problem, result):
    """The solver's scalings as potentials in the problem's own sense."""
    duals = result.scalings.to_potentials()
    if problem.sense == model.MINIMIZE:
        duals = model.DualPotentials(-duals.lam, -duals.mu)
    return duals


def seeded_problem(rng, n: int, m: int, sense: str, weights: str) -> model.OTProblem:
    """Random weights, uniform(0.5, 1.5) marginals scaled to equal mass."""
    a = rng.standard_normal((n, m)) if weights == "gaussian" else rng.uniform(0.0, 1.0, size=(n, m))
    r = rng.uniform(0.5, 1.5, size=n)
    c = rng.uniform(0.5, 1.5, size=m)
    c *= r.sum() / c.sum()
    return model.OTProblem(a, r, c, sense)


class Workload:
    name = ""
    why = ""
    expected = frozenset()  # span names a traced pass must reach

    def setup(self, workdir: Path) -> None:
        """Build the inputs every pass shares; may write files to workdir."""

    def batch(self, k: int):
        """Inputs of pass k (built outside the timed pass)."""
        return None

    def z_bytes(self) -> dict:
        raise NotImplementedError

    def run(self, batch, out: Outcome, tracer=None) -> None:
        raise NotImplementedError


class SeededWorkload(Workload):
    """Draws batch k as the k-th batch of one generator seeded once."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._drawn = -1
        self._batch = None

    def batch(self, k: int):
        if k < self._drawn:
            raise ValueError("seeded batches are drawn in order")
        while self._drawn < k:
            self._batch = self.draw(self._rng)
            self._drawn += 1
        return self._batch

    def draw(self, rng):
        raise NotImplementedError


class GridAnneal(Workload):
    name = "grid-anneal"
    why = ("Paper grid through the bt CLI with the 12-stage annealing ladder; "
           "the only workload for cli, fileio and recover_duals on a regularized support.")
    expected = frozenset(SOLVER_SPANS + (
        "experiments.generate_grid", "fileio.write_problem", "fileio.read_problem",
        "fileio.write_matrix_csv", "fileio.write_trace_csv", "fileio.write_report",
        "fileio.read_matrix_csv", "verify.verify_balanced", "verify.recover_duals",
        "cli.solve", "cli.verify",
    ))

    def __init__(self, seed: int, size: int = 256):
        self.size = size

    def z_bytes(self) -> dict:
        return {f"{self.size}x{self.size}": self.size * self.size * 8}

    def setup(self, workdir: Path) -> None:
        self.problem_path = workdir / "grid.json"
        self.plan_path = workdir / "plan.csv"
        self.trace_path = workdir / "trace.csv"
        self.report_path = workdir / "report.json"
        problem = experiments.generate_grid(experiments.GridSpec(self.size))
        fileio.write_problem(problem, self.problem_path)

    def run(self, batch, out: Outcome, tracer=None) -> None:
        argv = [
            "solve", str(self.problem_path), "--schedule", SCHEDULE_FLAG, "--tol", str(TOL),
            "--out-plan", str(self.plan_path), "--out-trace", str(self.trace_path),
            "--report", str(self.report_path),
        ]
        for stale in (self.plan_path, self.trace_path, self.report_path):
            stale.unlink(missing_ok=True)
        with out.chain(self.name, 2):
            code = _cli(out, "solve_s", "cli.solve", tracer, argv)[0]
            report = json.loads(self.report_path.read_text())
            iterations = int(report["iterations_total"])
            out.iterations += iterations
            out.cell_updates += self.size * self.size * iterations
            out.counts["stage_iterations"].append(report["iterations_per_stage"])
            out.check("bt solve", exit_0=code == 0, converged=report["converged"] is True)

            code, text = _cli(out, "certify_s", "cli.verify", tracer,
                              ["verify", str(self.problem_path), str(self.plan_path)])
            fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
            residual = max(float(fields["row_residual"]), float(fields["col_residual"]))
            out.solver_plans += 1
            out.balanced_plans += fields["is_balanced"] == "True"
            out.worst("duality_gap_abs", abs(float(report["duality_gap"])))
            out.worst("marginal_residual_rel", residual)
            out.check("bt verify", exit_0_or_3=code in (0, 3), marginals_within_tol=residual <= RESIDUAL_LIMIT)


def _cli(out: Outcome, key: str, span: str, tracer, argv):
    """One in-process bt command; returns (exit code, captured stdout)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        if tracer is None:
            code = out.timed(key, cli.main, argv)
        else:
            with tracer.span(span, "cli"):
                code = out.timed(key, cli.main, argv)
    return code, buffer.getvalue()


class GridCold(Workload):
    name = "grid-cold"
    why = ("Paper grid at one cold stage, eta 1e-3: nearly all time is power_norm on "
           "underflowing ratios, with no annealing and no file I/O.")
    expected = frozenset(SOLVER_SPANS + ("experiments.generate_grid", "verify.verify_balanced"))

    def __init__(self, seed: int, size: int = 128, eta: float = 1e-3):
        self.size = size
        self.schedule = regularized.AnnealingSchedule(((eta, TOL),))

    def z_bytes(self) -> dict:
        return {f"{self.size}x{self.size}": self.size * self.size * 8}

    def setup(self, workdir: Path) -> None:
        self.problem = experiments.generate_grid(experiments.GridSpec(self.size))

    def run(self, batch, out: Outcome, tracer=None) -> None:
        problem = self.problem
        with out.chain(self.name, 2):
            result = out.timed("solve_s", regularized.solve, problem, self.schedule)
            out.solved(problem, result)
            residual = relative_residual(result.plan, problem)
            out.worst("marginal_residual_rel", residual)
            out.check("solve", converged=result.converged, marginals_within_tol=residual <= RESIDUAL_LIMIT)
            report = out.timed("certify_s", verify.verify_balanced, problem, result.plan,
                               duals=solver_duals(problem, result))
            out.certified(report)
            out.check("verify_balanced", finite_gap=math.isfinite(report.duality_gap))


class DeskCertify(SeededWorkload):
    name = "desk-certify"
    why = ("Small non-square seeded problems in both senses, certified against the exact "
           "oracle: per-call cost dominates, and the only workload for oracle pivots.")
    expected = frozenset(SOLVER_SPANS + ("verify.verify_balanced", "verify.recover_duals", "verify.lp_oracle"))
    shapes = ((24, 40, model.MAXIMIZE), (32, 32, model.MINIMIZE), (48, 36, model.MAXIMIZE))

    def __init__(self, seed: int, shapes=None):
        super().__init__(seed)
        if shapes is not None:
            self.shapes = shapes

    def z_bytes(self) -> dict:
        return {f"{n}x{m}": n * m * 8 for n, m, _ in self.shapes}

    def draw(self, rng):
        return [seeded_problem(rng, n, m, sense, "gaussian") for n, m, sense in self.shapes]

    def run(self, batch, out: Outcome, tracer=None) -> None:
        for problem in batch:
            with out.chain(f"{self.name} {problem.n}x{problem.m}", 4):
                result = out.timed("solve_s", regularized.solve, problem, SCHEDULE)
                out.solved(problem, result)
                residual = relative_residual(result.plan, problem)
                out.worst("marginal_residual_rel", residual)
                out.check("solve", converged=result.converged, marginals_within_tol=residual <= RESIDUAL_LIMIT)

                report = out.timed("certify_s", verify.verify_balanced, problem, result.plan,
                                   duals=solver_duals(problem, result))
                out.certified(report)
                out.check("verify_balanced", finite_gap=math.isfinite(report.duality_gap))

                oracle = out.timed("oracle_s", verify.lp_oracle, problem)
                out.counts["pivots"].append(oracle.pivots)
                gap = abs(result.plan.objective(problem) - oracle.objective) / abs(oracle.objective)
                out.worst("objective_gap_rel", gap)
                out.check("lp_oracle", objective_near_oracle=gap <= OBJECTIVE_GAP_LIMIT)

                exact = out.timed("certify_s", verify.verify_balanced, problem, oracle.plan)
                out.check("verify_balanced(oracle)", oracle_plan_balanced=exact.is_balanced)


class ClassicReference(SeededWorkload):
    name = "classic-reference"
    why = ("Concave iteration on a seeded 12x12 problem against the regularized plan, then "
           "the 3x3 stagnation study: the only workload for classic, little power_norm.")
    expected = frozenset(SOLVER_SPANS + (
        "classic.concave_iteration", "classic.ipfp_matrix", "experiments.trajectory_study",
        "experiments.run_single_stage", "classic.evaluate",
    ))

    def __init__(self, seed: int, size: int = 12, eta: float = 0.1):
        super().__init__(seed)
        self.size = size
        self.eta = eta
        self.params = classic.ConcaveIterationParams(tol=1e-8)

    def z_bytes(self) -> dict:
        return {f"{self.size}x{self.size}": self.size * self.size * 8}

    def setup(self, workdir: Path) -> None:
        self.small = experiments.small_example()
        self.targets = experiments.small_example_stagnation_matrices()

    def draw(self, rng):
        return seeded_problem(rng, self.size, self.size, model.MAXIMIZE, "uniform")

    def run(self, problem, out: Outcome, tracer=None) -> None:
        with out.chain(f"{self.name} {problem.n}x{problem.m}", 2):
            family = classic.entropic_family(problem.weights, self.eta)
            if tracer is not None:
                family = counting_family(family, tracer)
            reference = out.timed(
                "solve_s", classic.concave_iteration, family, problem.row_marginals,
                problem.col_marginals, np.zeros(problem.n), self.params,
            )
            out.times["reference_s"] = out.times["solve_s"]
            out.counts["sweeps"].append(reference.sweeps)
            out.check("concave_iteration", finite_plan=bool(np.all(np.isfinite(reference.plan))))

            regular = out.timed("certify_s", experiments.run_single_stage, problem, self.eta, 1e-10)
            values = regular.plan.values
            agreement = float(np.max(np.abs(reference.plan - values)) / np.max(values))
            out.worst("plan_disagreement_rel", agreement)
            out.check("run_single_stage", converged=regular.converged,
                      plans_agree=agreement <= AGREEMENT_LIMIT)

        small = self.small
        with out.chain(f"{self.name} stagnation", 1 + len(self.targets)):
            visits, study = experiments.trajectory_study(small, self.targets, eta=1e-3, tol=TOL)
            arrivals = [v.at_iteration for v in visits]
            out.counts["trajectory_arrivals"].append(arrivals)
            out.check("trajectory_study", converged=study.converged,
                      visits_all=all(v.min_distance <= 0.05 for v in visits),
                      visits_in_order=arrivals == sorted(arrivals) and len(set(arrivals)) == len(arrivals))
            for start in self.targets:
                stalled = classic.ipfp_matrix(start, small.row_marginals, small.col_marginals, max_iters=10_000)
                out.counts["ipfp_iterations"].append(stalled.iterations)
                out.check("ipfp_matrix", cycles=stalled.status == "cycling")


def counting_family(family, tracer):
    """The family with an inverse_marginal that counts calls and cells."""
    inner = family.inverse_marginal
    armed = []  # stays empty while the constructor probes the new family

    def inverse_marginal(T):
        if armed:
            tracer.counts["classic.evaluate.calls"] += 1
            tracer.counts["classic.evaluate.cells"] += T.size
        return inner(T)

    counted = dataclasses.replace(family, inverse_marginal=inverse_marginal)
    armed.append(True)
    return counted


WORKLOADS = {w.name: w for w in (GridAnneal, GridCold, DeskCertify, ClassicReference)}
