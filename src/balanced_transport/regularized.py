"""Temperature-regularized scaling iteration with stagewise annealing.

The additive problem max sum(a*x) is smoothed by replacing each linear
reward a_ij*x with a_ij*x + eta*(-x log x); on the multiplicative side
this is the isoelastic family b_ij * x^(1-eta)/(1-eta).  The resulting
fixed-point iteration alternates column and row fits of the matrix
z_ij = alpha_i b_ij / beta_j, from which the plan is x = z^(1/eta):

    s_j = c_j^eta / ||z_:j||_{1/eta}        (column multipliers)
    t_i = r_i^eta / ||z_i:'||_{1/eta}       (row multipliers, post column fit)

All 1/eta-norms are evaluated in max-factored form, so no intermediate
quantity leaves the z-domain; this is what keeps the iteration usable at
temperatures where x itself would overflow.  Each norm skips the terms
(v/max v)^(1/eta) at or below 2^-(54 + ceil(log2 n)) for a length-n
reduction: together they add less than a quarter ulp to a sum that is at
least 1, so dropping them is exact to within the sum's own rounding, and
at small eta they are the subnormal terms that make pow slow (Schmitzer's
truncation, in dense form; see ``power_norm``).  After each full step the
quantity (1/eta) * log(max_j s_j / min_j s_j) equals the Hilbert distance
between the plan's column sums and c, giving a stopping criterion for
free.

The iteration is one kernel, and ``solve`` runs exactly this loop::

    s = column_multipliers(z, c, eta)           # at each stage start
    z, t, s = z_step(z, s, r, c, eta)           # per iteration

``z_step`` returns the column multipliers of the new z alongside it, so
each norm is computed once per step: ``s`` is both the stopping
measurement of the step just taken and the column fit of the next one.

Annealing runs the iteration over a decreasing temperature ladder.  The
z matrix is carried unchanged between stages: z encodes the dual
potentials (z_ij = exp(a_ij - lambda_i - mu_j)), so keeping it fixed
warm-starts each colder stage from the incumbent potentials while the
plan x = z^(1/eta) resharpens, which is what makes staging effective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    NonFiniteEntry,
    NonPositiveEntry,
    NumericalDegeneracy,
    ValidationError,
)
from .model import (
    MAXIMIZE,
    MOMAProblem,
    OTProblem,
    Scalings,
    TransportPlan,
    ot_to_moma,
    require_valid,  # unused here; kept because perfbench/tracer.py patches this name
)

#: Temperatures below this floor freeze the iteration at machine epsilon
#: (norms collapse to max-norms, powers to 1) and are rejected outright.
ETA_FLOOR = 1e-8

DEFAULT_TOL = 1e-2
DEFAULT_MAX_ITERS = 100_000


def power_norm(values: np.ndarray, eta: float, axis: Optional[int] = None) -> np.ndarray:
    """The 1/eta-norm, evaluated as M * (sum((v/M)^(1/eta)))^eta, M = max v.

    Factoring out the maximum keeps every intermediate in [0, n], with n
    the length along ``axis`` (``v.size`` when ``axis`` is None), so the
    norm neither overflows nor underflows even for very small eta.

    Terms are truncated, not approximated: the maximum contributes exactly
    1, so the sum is at least 1, and the n - 1 other terms, if each is at
    most 2^-(54 + ceil(log2 n)), add less than 2^-54, a quarter ulp of 1.
    Dropping them cannot move the sum by more than the rounding the sum
    incurs anyway.  In the ratio domain the cutoff is
    ratio <= 2^(-(54 + ceil(log2 n)) * eta), and pow is evaluated only
    above it.  At small eta this skips the terms that would underflow into
    subnormals or to zero, which are the slow path of pow, so no power
    underflows.  A NaN ratio is not below the cutoff, so it still
    propagates.  Entries must be strictly positive.
    """
    v = np.asarray(values, dtype=float)
    vmax = np.max(v, axis=axis, keepdims=True)
    ratio = v / vmax
    n = v.size if axis is None else v.shape[axis]
    cutoff = 2.0 ** (-(54 + (n - 1).bit_length()) * eta)  # (n - 1).bit_length() == ceil(log2 n)
    terms = np.power(ratio, 1.0 / eta, out=np.zeros(ratio.shape), where=~(ratio <= cutoff))
    total = np.sum(terms, axis=axis, keepdims=True)
    out = vmax * total**eta
    if axis is None:
        return float(out.squeeze())
    return np.squeeze(out, axis=axis)


def isoelastic_utility(x, eta: float):
    """Power utility x^(1-eta)/(1-eta), the multiplicative-side regularizer.

    Its relative risk aversion -g''(x)/g'(x) equals eta/x, which is eta
    times that of the logarithmic benchmark 1/x.
    """
    return np.asarray(x, dtype=float) ** (1.0 - eta) / (1.0 - eta)


def _check_eta(eta: float) -> None:
    if not (eta >= ETA_FLOOR and np.isfinite(eta)):
        raise ValidationError(f"eta must be >= {ETA_FLOOR} (the eta floor), got {eta}")


@dataclass(frozen=True)
class AnnealingSchedule:
    """Ordered stages of (eta, tol), with strictly decreasing temperatures."""

    stages: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        stages = tuple((float(e), float(t)) for e, t in self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ValidationError("schedule must contain at least one stage")
        for eta, tol in stages:
            _check_eta(eta)
            if not (tol > 0):
                raise ValidationError(f"tol must be positive, got {tol}")
        etas = [e for e, _ in stages]
        if any(e2 >= e1 for e1, e2 in zip(etas, etas[1:])):
            raise ValidationError(f"stage temperatures must be strictly decreasing, got {etas}")

    @property
    def eta_final(self) -> float:
        return self.stages[-1][0]


def make_schedule(eta_final: float, stages: int, factor: float, tol: float = DEFAULT_TOL) -> AnnealingSchedule:
    """Geometric ladder: stage k of K has eta = eta_final * factor^(K-1-k).

    The last stage equals ``eta_final`` exactly.  ``AnnealingSchedule``
    checks every stage's eta and tol.
    """
    if stages < 1:
        raise ValidationError(f"stages must be >= 1, got {stages}")
    if not (factor > 1):
        raise ValidationError(f"factor must be > 1, got {factor}")
    etas = [eta_final * factor ** (stages - 1 - k) for k in range(stages)]
    etas[-1] = eta_final
    return AnnealingSchedule(tuple((e, tol) for e in etas))


@dataclass
class ConvergenceTrace:
    """Per-iteration record of the stopping criterion, plus optional snapshots.

    ``iterations`` holds the global 1-based step index, ``etas`` the stage
    temperature, ``criteria`` the post-step criterion value, and
    ``wall_times`` seconds since the run started.  ``snapshots`` holds
    (iteration, plan matrix) pairs when a snapshot stride was requested.
    """

    iterations: List[int] = field(default_factory=list)
    etas: List[float] = field(default_factory=list)
    criteria: List[float] = field(default_factory=list)
    wall_times: List[float] = field(default_factory=list)
    snapshots: List[Tuple[int, np.ndarray]] = field(default_factory=list)

    def record(self, k: int, eta: float, crit: float, wall: float) -> None:
        self.iterations.append(k)
        self.etas.append(eta)
        self.criteria.append(crit)
        self.wall_times.append(wall)

    def __len__(self) -> int:
        return len(self.iterations)


@dataclass(frozen=True)
class SolveResult:
    """Plan, recovered scalings, trace, and per-stage iteration counts.

    ``final_z`` is the raw iteration state the plan was extracted from
    (plan = final_z^(1/eta_final)); kept for debugging since the plan
    itself may underflow where z is merely below 1.
    """

    plan: TransportPlan
    scalings: Scalings
    trace: ConvergenceTrace
    converged: bool
    stage_iterations: Tuple[int, ...]
    final_criterion: float
    final_z: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        return int(sum(self.stage_iterations))


def row_equilibrate(b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Scale each row minimally so it touches one of its column maxima.

    alpha_i = min_j (max_i b_ij) / b_ij and bhat = alpha_i * b_ij.  The
    scaling never changes any column maximum, and afterwards every row of
    bhat contains an entry equal to its column's maximum.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise NonFiniteEntry("matrix contains non-finite entries")
    if not np.all(b > 0):
        raise NonPositiveEntry("row equilibration requires a strictly positive matrix")
    col_max = np.max(b, axis=0)
    alpha = np.min(col_max[None, :] / b, axis=1)
    return alpha[:, None] * b, alpha


def phi_eta_step(alpha: np.ndarray, problem: MOMAProblem, eta: float) -> Tuple[np.ndarray, np.ndarray]:
    """One application of the regularized weight-update mapping.

    beta_j = ||alpha * b_:j||_{1/eta} / c_j^eta, then
    alpha_hat_i = r_i^eta / ||b_i: / beta||_{1/eta}.

    The mapping is homogeneous of degree one and strongly monotone, so
    iterating it converges to a fixed point that is unique up to scale.
    Returns (alpha_hat, beta).
    """
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(alpha > 0):
        raise NonPositiveEntry("alpha must be strictly positive")
    _check_eta(eta)
    b = problem.coefficients
    beta = power_norm(alpha[:, None] * b, eta, axis=0) / problem.col_marginals**eta
    alpha_hat = problem.row_marginals**eta / power_norm(b / beta[None, :], eta, axis=1)
    if not (np.all(np.isfinite(alpha_hat)) and np.all(np.isfinite(beta))):
        raise NonFiniteEntry("weight update produced non-finite values")
    return alpha_hat, beta


def column_multipliers(z: np.ndarray, c: np.ndarray, eta: float) -> np.ndarray:
    """Column fit of z: s_j = c_j^eta / ||z_:j||_{1/eta}."""
    return c**eta / power_norm(z, eta, axis=0)


def z_step(
    z: np.ndarray, s: np.ndarray, r: np.ndarray, c: np.ndarray, eta: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One full column-then-row fit of z, given its column multipliers s.

    s (from ``column_multipliers(z, c, eta)``) rescales the columns; the
    row multipliers t are then computed from the half-updated matrix and
    rescale the rows.  Returns (z_next, t, s_next), with s_next the column
    multipliers of z_next.  After the step the extracted plan's row sums
    equal r (row fits are exact up to z-domain rounding, which the
    extraction amplifies by a factor 1/eta).  z, s, r and c are float
    arrays, and z is strictly positive.

    The step makes no finiteness check of its own: ``solve`` runs it under
    ``np.errstate(over/divide/invalid="raise")``, so an overflow raises
    there.  Other callers get numpy's floating-point handling in effect.
    """
    z_half = z * s[None, :]
    t = r**eta / power_norm(z_half, eta, axis=1)
    z_next = z_half * t[:, None]
    return z_next, t, column_multipliers(z_next, c, eta)


def criterion(s: np.ndarray, eta: float) -> float:
    """Stopping criterion (1/eta) * log(max_j s_j / min_j s_j).

    Equals the Hilbert distance between the column sums of the plan
    z^(1/eta) and the prescribed column sums, for s the column multipliers
    of z.
    """
    s = np.asarray(s, dtype=float)
    if not np.all(s > 0):
        raise NonPositiveEntry("column multipliers must be strictly positive")
    return _log_spread(s, eta)


def _log_spread(s: np.ndarray, eta: float) -> float:
    return float((1.0 / eta) * np.log(np.max(s) / np.min(s)))


def solve(
    problem: OTProblem,
    schedule: AnnealingSchedule,
    *,
    max_iters: int = DEFAULT_MAX_ITERS,
    snapshot_stride: Optional[int] = None,
) -> SolveResult:
    """Run the annealed scaling iteration on an additive-form problem.

    Steps: form b = exp(a) (negating a first for minimization), apply the
    preliminary row equilibration, initialize z = bhat, then per stage
    iterate ``z_step`` until the criterion measured on the post-step plan
    drops below the stage tolerance.  z carries over to the next stage
    unchanged.  The returned scalings are the cumulative products of the
    step multipliers together with the equilibration, and satisfy
    x_ij = (alpha_i b_ij / beta_j)^(1/eta_final) with b the internal
    (sense-adjusted) coefficients.

    ``max_iters`` bounds each stage; on an exhausted budget the iterate
    reached is returned with ``converged=False``.  ``snapshot_stride``
    records the plan every that many iterations in ``trace.snapshots``.
    An overflow, division by zero or invalid operation while iterating
    raises NonFiniteEntry.
    """
    if max_iters < 1:
        raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
    if snapshot_stride is not None and snapshot_stride < 1:
        raise ValidationError("snapshot_stride must be >= 1 when given")
    moma = ot_to_moma(problem if problem.sense == MAXIMIZE else OTProblem(
        -problem.weights, problem.row_marginals, problem.col_marginals, MAXIMIZE))
    r = moma.row_marginals
    c = moma.col_marginals
    z, alpha = row_equilibrate(moma.coefficients)
    beta = np.ones(moma.m)
    trace = ConvergenceTrace()
    stage_iterations: List[int] = []
    converged = True
    crit = np.inf
    k_global = 0
    t0 = time.perf_counter()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for eta, tol in schedule.stages:
                iters = 0
                s = column_multipliers(z, c, eta)
                crit = _log_spread(s, eta)
                while True:
                    z_before, crit_before = z, crit
                    beta = beta / s
                    z, t, s = z_step(z, s, r, c, eta)
                    alpha = alpha * t
                    iters += 1
                    k_global += 1
                    crit = _log_spread(s, eta)
                    trace.record(k_global, eta, crit, time.perf_counter() - t0)
                    if snapshot_stride and k_global % snapshot_stride == 0:
                        trace.snapshots.append((k_global, z ** (1.0 / eta)))
                    if crit < tol:
                        break
                    # An unmoved z recomputes the same s, hence the same criterion,
                    # so the full comparison runs only when the criterion repeats.
                    if crit == crit_before and np.array_equal(z, z_before):
                        raise NumericalDegeneracy(
                            f"updates no longer move z at eta={eta} while the criterion is {crit:.3g};"
                            " the temperature is below usable resolution"
                        )
                    if iters >= max_iters:
                        converged = False
                        break
                stage_iterations.append(iters)
                if not converged:
                    break
    except FloatingPointError as exc:
        raise NonFiniteEntry(f"{exc} at eta={eta} in iteration {k_global + 1}") from exc
    eta_final = schedule.stages[len(stage_iterations) - 1][0]
    x = z ** (1.0 / eta_final)
    plan = TransportPlan.against(x, problem.row_marginals, problem.col_marginals)
    return SolveResult(
        plan=plan,
        scalings=Scalings(alpha, beta),
        trace=trace,
        converged=converged,
        stage_iterations=tuple(stage_iterations),
        final_criterion=float(crit),
        final_z=z,
    )
