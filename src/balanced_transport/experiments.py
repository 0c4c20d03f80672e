"""Built-in test problems and the reproduction suite.

Provides the radial-sine grid family, the 3x3 worked example with its
known optimum and the row-balanced matrices near which the solution path
stalls, plus runners for the temperature sweep, the annealing
comparison, and the stagnation-trajectory study.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError, ZeroMarginal
from .model import MAXIMIZE, OTProblem
from .regularized import AnnealingSchedule, SolveResult, make_schedule, solve

@dataclass(frozen=True)
class GridSpec:
    """Square grid problem: radial sine weights, tent-shaped marginals.

    Cells are sampled at their centers, (k - 0.5)/N for k = 1..N, which
    keeps every marginal strictly positive for even N.
    """

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValidationError(f"grid size must be >= 2, got {self.size}")


def generate_grid(spec: GridSpec) -> OTProblem:
    """Discretize the radial sine problem on an N x N grid.

    a_ij = sin(4*pi*((x_i - 0.5)^2 + (y_j - 0.5)^2)) at cell centers,
    r_i proportional to |x_i - 0.5| and c_j to |y_j - 0.5|, each marginal
    normalized to total mass 1.  Odd N puts a cell center exactly at 0.5,
    which zeroes a marginal and is rejected.
    """
    N = spec.size
    coords = (np.arange(1, N + 1) - 0.5) / N
    radial = np.abs(coords - 0.5)
    if np.any(radial == 0):
        raise ZeroMarginal(f"grid size {N} places a cell center at 0.5, zeroing a marginal; use an even size")
    weights = np.sin(4.0 * np.pi * ((coords[:, None] - 0.5) ** 2 + (coords[None, :] - 0.5) ** 2))
    r = radial / radial.sum()
    c = radial / radial.sum()
    return OTProblem(weights, r, c, MAXIMIZE)


def small_example() -> OTProblem:
    """The 3x3 worked example used throughout the test suite."""
    a = np.array([[0.0, 1.0, 0.5], [0.7, 0.5, 0.3], [0.6, 0.3, 0.0]])
    r = np.array([0.25, 0.25, 0.5])
    c = np.array([0.2, 0.6, 0.2])
    return OTProblem(a, r, c, MAXIMIZE)


def small_example_solution() -> np.ndarray:
    """The unique optimal plan of the small example."""
    return np.array([[0.0, 0.25, 0.0], [0.0, 0.05, 0.2], [0.2, 0.3, 0.0]])


def small_example_stagnation_matrices() -> List[np.ndarray]:
    """Row-balanced matrices the solution path stalls near, in visit order.

    Each would make plain IPFP cycle if used as its start: their support
    patterns are too sparse to meet both marginals.
    """
    return [
        np.array([[0.0, 0.1875, 0.0625], [0.25, 0.0, 0.0], [0.5, 0.0, 0.0]]),
        np.array([[0.0, 0.25, 0.0], [0.0, 0.0, 0.25], [0.5, 0.0, 0.0]]),
        np.array([[0.0, 0.25, 0.0], [0.0, 0.0, 0.25], [0.1875, 0.3125, 0.0]]),
    ]


def problem_digest(problem: OTProblem) -> str:
    """Stable hex digest of the problem data, for result bookkeeping."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(problem.weights).tobytes())
    h.update(np.ascontiguousarray(problem.row_marginals).tobytes())
    h.update(np.ascontiguousarray(problem.col_marginals).tobytes())
    h.update(problem.sense.encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class RunRecord:
    """One solver run: configuration plus outcome counters."""

    label: str
    eta: float
    tol: float
    iterations: int
    final_criterion: float
    wall_time: float
    converged: bool


@dataclass
class ExperimentResult:
    """All runs of one suite invocation on one problem."""

    digest: str
    runs: List[RunRecord] = field(default_factory=list)
    traces: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    trajectory_visits: Optional[List["TrajectoryVisit"]] = None


@dataclass(frozen=True)
class TrajectoryVisit:
    """Closest approach of the solution path to one target matrix."""

    target_index: int
    min_distance: float
    at_iteration: int


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of run_suite."""

    grid_size: int = 64
    single_etas: Tuple[float, ...] = (1e-2, 1e-3)
    schedule_stages: int = 12
    schedule_factor: float = 1.5
    schedule_final_eta: float = 1e-4
    tol: float = 1e-2
    max_iters: int = 100_000
    trajectory_eta: float = 1e-3
    include_trajectory: bool = True


def run_single_stage(problem: OTProblem, eta: float, tol: float, max_iters: int = 100_000,
                     snapshot_stride: Optional[int] = None) -> SolveResult:
    schedule = AnnealingSchedule(((eta, tol),))
    return solve(problem, schedule, max_iters=max_iters, snapshot_stride=snapshot_stride)


def trajectory_study(
    problem: OTProblem,
    targets: Sequence[np.ndarray],
    eta: float = 1e-3,
    tol: float = 1e-2,
    max_iters: int = 100_000,
) -> Tuple[List[TrajectoryVisit], SolveResult]:
    """Closest approaches of a single-stage run's plan path to each target.

    Distance is the max-entry absolute deviation.  Snapshots are taken
    every iteration for problems of at most 100 cells and every 10th
    iteration otherwise.
    """
    stride = 1 if problem.n * problem.m <= 100 else 10
    result = run_single_stage(problem, eta, tol, max_iters, snapshot_stride=stride)
    visits = []
    for idx, target in enumerate(targets):
        dists = [float(np.max(np.abs(snap - target))) for _, snap in result.trace.snapshots]
        best = int(np.argmin(dists))
        visits.append(
            TrajectoryVisit(
                target_index=idx,
                min_distance=dists[best],
                at_iteration=result.trace.snapshots[best][0],
            )
        )
    return visits, result


def visited_targets(visits: Sequence[TrajectoryVisit], threshold: float) -> List[int]:
    """Indices of targets approached within the threshold."""
    return [v.target_index for v in visits if v.min_distance <= threshold]


def run_suite(config: SuiteConfig) -> ExperimentResult:
    """Temperature sweep, annealed run, and the small-example trajectory study.

    Partial results are kept: each finished run is recorded even if a
    later one fails to converge within its budget.
    """
    grid = generate_grid(GridSpec(config.grid_size))
    result = ExperimentResult(digest=problem_digest(grid))
    for eta in config.single_etas:
        t0 = time.perf_counter()
        run = run_single_stage(grid, eta, config.tol, config.max_iters)
        wall = time.perf_counter() - t0
        label = f"single_eta_{eta:g}"
        result.runs.append(
            RunRecord(label, eta, config.tol, run.iterations, run.final_criterion, wall, run.converged)
        )
        result.traces[label] = run.trace
        result.plans[label] = run.plan
    schedule = make_schedule(config.schedule_final_eta, config.schedule_stages, config.schedule_factor, config.tol)
    t0 = time.perf_counter()
    annealed = solve(grid, schedule, max_iters=config.max_iters)
    wall = time.perf_counter() - t0
    result.runs.append(
        RunRecord(
            "annealed",
            config.schedule_final_eta,
            config.tol,
            annealed.iterations,
            annealed.final_criterion,
            wall,
            annealed.converged,
        )
    )
    result.traces["annealed"] = annealed.trace
    result.plans["annealed"] = annealed.plan
    if config.include_trajectory:
        visits, study = trajectory_study(
            small_example(), small_example_stagnation_matrices(), config.trajectory_eta, config.tol, config.max_iters
        )
        result.traces["trajectory"] = study.trace
        result.plans["trajectory"] = study.plan
        result.runs.append(
            RunRecord(
                "trajectory",
                config.trajectory_eta,
                config.tol,
                study.iterations,
                study.final_criterion,
                float("nan"),
                study.converged,
            )
        )
        result.trajectory_visits = visits
    return result
