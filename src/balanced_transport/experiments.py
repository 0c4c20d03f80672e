"""Built-in test problems and the single-run helpers the scripts share.

Provides the radial-sine grid family, the 3x3 worked example with its
known optimum and the row-balanced matrices near which the solution path
stalls, a single-temperature run, and the stagnation-trajectory study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError, ZeroMarginal
from .model import MAXIMIZE, OTProblem
from .regularized import DEFAULT_MAX_ITERS, DEFAULT_TOL, AnnealingSchedule, SolveResult, solve

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


@dataclass(frozen=True)
class TrajectoryVisit:
    """Closest approach of the solution path to one target matrix."""

    target_index: int
    min_distance: float
    at_iteration: int


def run_single_stage(problem: OTProblem, eta: float, tol: float, max_iters: int = DEFAULT_MAX_ITERS,
                     snapshot_stride: Optional[int] = None) -> SolveResult:
    schedule = AnnealingSchedule(((eta, tol),))
    return solve(problem, schedule, max_iters=max_iters, snapshot_stride=snapshot_stride)


def trajectory_study(
    problem: OTProblem,
    targets: Sequence[np.ndarray],
    eta: float = 1e-3,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> Tuple[List[TrajectoryVisit], SolveResult]:
    """Closest approaches of a single-stage run's plan path to each target.

    Distance is the max-entry absolute deviation.  Snapshots are taken
    every iteration for problems of at most 100 cells and every 10th
    iteration otherwise; the final plan counts as one more when the last
    iteration was not a snapshot, so a run shorter than the stride still
    has a path.
    """
    stride = 1 if problem.n * problem.m <= 100 else 10
    result = run_single_stage(problem, eta, tol, max_iters, snapshot_stride=stride)
    snapshots = result.trace.snapshots
    if result.iterations % stride:
        snapshots = snapshots + [(result.iterations, result.plan.values)]
    stacked = np.stack([snap for _, snap in snapshots])
    visits = []
    for idx, target in enumerate(targets):
        dists = np.max(np.abs(stacked - target), axis=(1, 2))
        best = int(np.argmin(dists))
        visits.append(
            TrajectoryVisit(
                target_index=idx,
                min_distance=float(dists[best]),
                at_iteration=snapshots[best][0],
            )
        )
    return visits, result
