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

The iteration is one dense kernel, ``z_step``, and on problems with a
side below 4 ``solve`` runs this loop::

    s = column_multipliers(z, c, eta)           # at each stage start
    z, t, s = z_step(z, s**omega, r, c, eta)    # per iteration

``z_step`` returns the column multipliers of the new z alongside it, so
each norm is computed once per step: ``s`` is both the stopping
measurement of the step just taken and the column fit of the next one.
Larger problems run the same loop on a stage kernel (below), which takes
the same norms by matrix-vector products.

The column fit is over-relaxed.  Each stage takes 8 plain steps
(omega = 1), estimates the criterion's contraction rate as
theta = (crit_8 / crit_4)^(1/4), and for the rest of the stage fits the
columns by s^omega with omega = min(1.9, 2 / (1 + sqrt(1 - theta))), or
1 when theta >= 1 (Lehmann, von Renesse, Sambale and Uschmajew, "A note
on overrelaxation in the Sinkhorn algorithm", Optim. Lett. 2022).  The
row fit stays exact, and the criterion is still measured on the exact
column multipliers s of the post-step z, which ``z_step`` returns
whatever column fit it was given.  So a stage stops on the same
condition as the plain iteration, the criterion is still the Hilbert
distance of the plan's column sums to c, and beta, divided by s^omega,
still gives x = (alpha b / beta)^(1/eta).  As a safeguard, a criterion
that is not below its value 10 steps earlier while omega > 1 drops omega
to 1 for the rest of the stage (Thibault, Chizat, Dossal and Papadakis,
"Overrelaxed Sinkhorn-Knopp algorithm for regularized optimal
transport", Algorithms 2021).  On the paper grids and the desk problems
this takes about a third fewer steps than the plain iteration.

On problems with at least 4 rows and columns a stage runs on a kernel of
the powered matrix, the stabilized scaling of Schmitzer (SIAM J. Sci.
Comput. 2019): z is held as z_base_ij * V_j * U_i, with z_base the z the
kernel was built from and U, V the row and column multipliers since.
Each stage builds its kernel from the z it starts from, carried or
predicted, and takes its first column multipliers from it at U = V = 1.
With R and C the row and column maxima of z_base, the kernel stores

    K_row = (z_base / R[:, None])^(1/eta),   K_col = (z_base / C)^(1/eta),

each zero where the ratio lies at or below its line's cutoff times
e^-delta, one cutoff band lower, with delta =
(54 + ceil(log2 max(n, m))) * eta * ln 2.  A row ratio moves only with V
and a column ratio only with U, so while log(max V / min V) and
log(max U / min U) stay at or below delta/2 every zeroed term is also
truncated by the dense kernel, and each norm is one matrix-vector product
(``kernel_power_norm``), as in Cuturi's Sinkhorn iteration (NeurIPS
2013)::

    rows = U * R * max V * (K_row @ (V / max V)^(1/eta))^eta
    cols = V * C * max U * ((U / max U)^(1/eta) @ K_col)^eta

A step costs two matrix-vector products and pow on two vectors, instead
of pow on every live cell twice.  It agrees with ``z_step`` up to the
order of summation and of the scalar products.  Drift is absorbed, not
stepped around: a column fit that would break the drift bound on V
materializes z, rebuilds the kernel from it and is retried there, and a
row fit that breaks it on U materializes z and rebuilds the kernel,
which gives the column multipliers.  Only a fit that a fresh kernel
cannot take, with a log spread above delta/2 by itself, steps densely,
and the kernel is rebuilt from the step's z; on the paper grids and the
desk problems that is the first step of the first stage alone.  An
over-relaxed step moves V by s^omega, under the same bound.  Kernel
stages run on every problem with at least 4 rows and columns, whatever
share of the cells is live, since a matrix-vector product costs the
same at any share.  Smaller problems step densely throughout, so their
iterates are ``z_step``'s bit for bit; a kernel step would save little
there (about a tenth of a 3x3 dense step).

The two log spreads are not taken at every step but bounded from
numbers the loop already has, each bound reset to 0 at every build.  The
column fit f = s^omega moves V's spread by at most
spread(f) = omega * eta * crit, with crit the criterion already measured
on s.  When the z held before a kernel step has its rows fit exactly at
this stage's eta, the row norms of z * f lie within [min f, max f] times
r^eta, the row multipliers t within [1 / max f, 1 / min f], and U's
spread also moves by at most spread(f) (the Hilbert-metric contraction
of a row fit; Franklin and Lorenz, "On the scaling of multidimensional
matrices", Linear Algebra Appl. 1989).  Every kernel step ends with a
row fit, and an absorption or a dense step rebuilds from a z whose rows
are fit, but a stage's first kernel starts from the last stage's z or
its prediction, whose rows are fit at another eta or not at all.  So the
first step on that kernel takes U's exact spread.  Each bound also grows
by a rounding slack of 64 ulp of max(1, delta/2) per step.  Only a bound
that passes delta/2 takes the exact spread, which then replaces it, so
every decision is the one the exact checks would make.

Annealing runs the iteration over a decreasing temperature ladder, and
each colder stage starts from the potentials the last one reached: z
encodes them (z_ij = exp(a_ij - lambda_i - mu_j)), so the plan
x = z^(1/eta) resharpens from the incumbent duals, which is what makes
staging effective.  The start is predicted, not carried.  On the support
a_ij - lambda_i - mu_j = eta * log x_ij, and x(eta) tends to an LP
vertex, so the potentials move by about eta times a fixed vector from
one stage to the next (Cominetti and San Martin, "Asymptotic analysis of
the exponential penalty trajectory in linear programming", Math.
Programming 1994; Weed, "An explicit analysis of the entropic penalty in
linear programming", COLT 2018).  From the end of the second stage on,
z is extrapolated linearly in eta along the secant of the last two stage
ends (``_secant_prediction``).  Within a stage z changes only by row and
column scalings, so the secant is a pair of scalings too, A on the rows
and B on the columns, and the prediction is pow on n + m values with
no log or exp over the matrix.  On the paper grids and the desk problems
it takes about half the steps of the warm stages.
"""

from __future__ import annotations

import math
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

#: Stages on problems with at least this many rows and columns run on a
#: kernel between dense steps (see the module docstring).
_KERNEL_MIN_SIDE = 4


def _cutoff(n: int, eta: float) -> float:
    """Truncation cutoff of a length-n line: ratios at or below it are dropped."""
    return 2.0 ** (-(54 + (n - 1).bit_length()) * eta)  # (n - 1).bit_length() == ceil(log2 n)


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

    The maximum and the sum are taken with ``np.maximum.reduce`` and
    ``np.add.reduce``, the ufunc reductions behind ``np.max`` and
    ``np.sum``, called directly: the same reductions in the same order,
    without the wrappers' per-call dispatch, which dominates at desk sizes.
    Row maxima (``axis=1``) are broadcast back as a column, ``vmax[:, None]``,
    so ``axis`` is None, 0, or 1 on a matrix.
    """
    v = np.asarray(values, dtype=float)
    vmax = np.maximum.reduce(v, axis=axis)
    ratio = v / (vmax[:, None] if axis == 1 else vmax)
    cutoff = _cutoff(v.size if axis is None else v.shape[axis], eta)
    terms = np.power(ratio, 1.0 / eta, out=np.zeros(ratio.shape), where=~(ratio <= cutoff))
    out = vmax * np.power(np.add.reduce(terms, axis=axis), eta)
    return float(out) if axis is None else out


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
    # An overflowed ratio is inf and loses the row minimum to any finite one.
    with np.errstate(over="ignore"):
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
    arrays, and z is strictly positive.  z and s are left unchanged; the
    rows are scaled in place on the step's own new matrix.

    The step makes no finiteness check of its own: ``solve`` runs it under
    ``np.errstate(over/divide/invalid="raise")``, so an overflow raises
    there.  Other callers get numpy's floating-point handling in effect.
    """
    z_next = z * s
    t = r**eta / power_norm(z_next, eta, axis=1)
    z_next *= t[:, None]
    return z_next, t, column_multipliers(z_next, c, eta)


#: Rounding slack added to each drift bound per kernel step, relative to
#: the larger of 1 and the bound's limit (see ``_StageKernel.step``).
_DRIFT_SLACK = 64 * np.finfo(float).eps


class _StageKernel:
    """A stage's z, held as z_base_ij * V_j * U_i with z_base^(1/eta) precomputed.

    z_base is the z the kernel was built from, and U, V are the products of
    the row and column multipliers since.  ``K_row`` holds the row ratios of
    z_base raised to 1/eta, ``(z_base / R[:, None])^(1/eta)`` with R its row
    maxima, and ``K_colT`` the column ratios, ``(z_base / C)^(1/eta)`` with C
    its column maxima, stored transposed, so that each norm of the stage's z
    is one matrix-vector product (see ``kernel_power_norm``).  A ratio at or
    below its line's cutoff times e^-delta is stored as zero.  A row ratio
    moves only with V and a column ratio only with U, so while both
    log(max U / min U) and log(max V / min V) are at most delta/2, every
    zeroed term stays at or below its cutoff, and the dense kernel drops
    it too.

    Those two log spreads are tracked by upper bounds, ``u_drift`` and
    ``v_drift``, both 0 at the build.  A column fit f moves V's spread by
    at most spread(f) = log(max f / min f).  When the z held before a step
    has its rows fit exactly at the kernel's eta, the row norms of z * f
    lie within [min f, max f] times r^eta, so t_i lies in
    [1 / max f, 1 / min f] and U's spread also moves by at most spread(f)
    (Franklin and Lorenz, "On the scaling of multidimensional matrices",
    Linear Algebra Appl. 1989).  Each step ends with a row fit, so this
    holds from the second step on, and from the first when the kernel is
    built from a row-fit z.  On a kernel built from any other z,
    ``_Stage`` starts ``u_drift`` at infinity, so that its first step
    takes U's exact spread.  The exact spread is taken only when a bound
    passes delta/2, and then replaces the bound.
    """

    def __init__(self, z: np.ndarray, eta: float):
        n, m = z.shape
        col_cut, row_cut = _cutoff(n, eta), _cutoff(m, eta)
        band = min(col_cut, row_cut)  # e^-delta
        self.z_base, self.eta, self.max_drift = z, eta, -0.5 * np.log(band)
        self.slack = _DRIFT_SLACK * max(1.0, self.max_drift)
        self.R, self.C = np.maximum.reduce(z, axis=1), np.maximum.reduce(z, axis=0)
        self.K_row = _truncated_power(z / self.R[:, None], eta, row_cut * band)
        col_ratio = np.divide(z.T, self.C[:, None], out=np.empty((m, n)))  # rows of K_colT are z's columns
        self.K_colT = _truncated_power(col_ratio, eta, col_cut * band)
        self.U, self.V = np.ones(n), np.ones(m)
        self.u_drift = self.v_drift = 0.0

    def step(self, s: np.ndarray, spread: float, r_eta: np.ndarray, c_eta: np.ndarray):
        """``z_step`` on the held z: (t, s_next), or None.

        ``spread`` is log(max s / min s), up to rounding, which the drift
        bounds grow by.  None, with nothing changed, when V would drift too
        far for the row norms.  s_next is None when the row fit is done but
        U has drifted too far for the column norms.
        """
        grow = spread + self.slack
        V = self.V * s
        v_drift = self.v_drift + grow
        if v_drift > self.max_drift:
            v_drift = _log_spread(V, 1.0)
            if v_drift > self.max_drift:
                return None
        self.V, self.v_drift = V, v_drift
        t = r_eta / kernel_power_norm(self, 1)
        self.U *= t
        self.u_drift += grow
        if self.u_drift > self.max_drift:
            self.u_drift = _log_spread(self.U, 1.0)
            if self.u_drift > self.max_drift:
                return t, None
        return t, c_eta / kernel_power_norm(self, 0)

    def materialize(self) -> np.ndarray:
        z = self.z_base * self.V
        z *= self.U[:, None]
        return z


def _truncated_power(ratio: np.ndarray, eta: float, cut: float) -> np.ndarray:
    """ratio^(1/eta) where ratio lies above ``cut``, zero elsewhere."""
    return np.power(ratio, 1.0 / eta, out=np.zeros(ratio.shape), where=ratio > cut)


def kernel_power_norm(kernel: _StageKernel, axis: int) -> np.ndarray:
    """``power_norm(kernel.materialize(), kernel.eta, axis)`` from the kernel.

    Row i's norm (axis 1) is U_i R_i max V (sum_j K_row_ij (V_j / max V)^(1/eta))^eta,
    and column j's (axis 0) the same with the roles of rows and columns
    swapped.  Every term is at most 1 and the line maximum's own term is at
    least e^-(delta/2)/eta, so nothing overflows or underflows.  Within the
    drift bound the result differs from the dense kernel's only by the
    order of summation and of the scalar products.
    """
    if axis == 1:
        own, across, K, line_max = kernel.U, kernel.V, kernel.K_row, kernel.R
    else:
        own, across, K, line_max = kernel.V, kernel.U, kernel.K_colT, kernel.C
    top = np.maximum.reduce(across)
    norms = K @ np.power(across / top, 1.0 / kernel.eta)
    np.power(norms, kernel.eta, out=norms)
    norms *= top
    norms *= line_max
    norms *= own
    return norms


class _Stage:
    """One annealing stage's iterate, stepped as ``z_step`` steps z.

    On problems with at least 4 rows and columns the stage lives on a
    kernel, built from the z it starts from.  A kernel whose drift bound
    would break is absorbed: z is materialized and the kernel rebuilt from
    it.  A column fit that breaks the bound on V is then retried on the
    fresh kernel, and only a fit that a fresh kernel cannot take steps
    densely, after which the kernel is rebuilt from the step's z.  Smaller
    problems step densely throughout.
    """

    def __init__(self, z: np.ndarray, r: np.ndarray, c: np.ndarray, eta: float):
        self.z, self.r, self.c, self.eta = z, r, c, eta  # z is current only without a kernel
        self.r_eta, self.c_eta = r**eta, c**eta
        self.kernel: Optional[_StageKernel] = None
        self.before: Optional[Tuple[np.ndarray, np.ndarray]] = None  # see ``unmoved``
        if min(z.shape) >= _KERNEL_MIN_SIDE:
            self.kernel = _StageKernel(z, eta)
            self.kernel.u_drift = np.inf  # z's rows are not fit at this eta

    def column_fit(self) -> np.ndarray:
        """The column multipliers of the z the stage starts from."""
        if self.kernel is None:
            return column_multipliers(self.z, self.c, self.eta)
        return self.c_eta / kernel_power_norm(self.kernel, 0)

    def step(self, s: np.ndarray, spread: float) -> Tuple[np.ndarray, np.ndarray]:
        """``z_step`` with column fit s, whose log spread is ``spread``: (t, s_next)."""
        self.before = None
        kernel = self.kernel
        if kernel is None:
            return self._dense_step(self.z, s)
        stepped = kernel.step(s, spread, self.r_eta, self.c_eta)
        if stepped is None:
            z = kernel.materialize()
            if not np.array_equal(z, kernel.z_base):  # else a rebuild would give this kernel again
                kernel = self.kernel = _StageKernel(z, self.eta)
                stepped = kernel.step(s, spread, self.r_eta, self.c_eta)
            if stepped is None:
                return self._dense_step(z, s)
        t, s_next = stepped
        if s_next is None:
            z = kernel.materialize()
            self.before = (kernel.z_base, z)
            self.kernel = _StageKernel(z, self.eta)
            s_next = self.c_eta / kernel_power_norm(self.kernel, 0)
        return t, s_next

    def _dense_step(self, z: np.ndarray, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        z_next, t, s_next = z_step(z, s, self.r, self.c, self.eta)
        self.before = (z, z_next)
        if self.kernel is None:
            self.z = z_next
        else:
            self.kernel = _StageKernel(z_next, self.eta)
        return t, s_next

    def unmoved(self) -> bool:
        """Whether the last step left z bit for bit where it was.

        A dense step compares z with its input.  A kernel step that is
        absorbed after its row fit compares the materialized z with the z
        the absorbed kernel was built from: an equal one has not moved
        since that build.  Any other kernel step counts as moved, since
        comparing would cost a materialization; a stage whose z stops
        moving there still moves U and V by rounding.
        """
        return self.before is not None and np.array_equal(*self.before)

    def materialized(self) -> np.ndarray:
        return self.z if self.kernel is None else self.kernel.materialize()


def _plan(z: np.ndarray, eta: float) -> np.ndarray:
    """The plan z^(1/eta), with pow taken only where it does not underflow to 0.

    An entry at or below 2^(-1080 * eta) has a power at or below about
    2^-1080, under half the smallest subnormal, so pow would round it to 0
    anyway, through its slow path.  Equal bit for bit to ``z ** (1/eta)``.
    """
    return np.power(z, 1.0 / eta, out=np.zeros(z.shape), where=z > 2.0 ** (-1080.0 * eta))


def criterion(s: np.ndarray, eta: float) -> float:
    """Stopping criterion (1/eta) * log(max_j s_j / min_j s_j).

    Equals the Hilbert distance between the column sums of the plan
    z^(1/eta) and the prescribed column sums, for s the column multipliers
    of z.
    """
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise NonFiniteEntry("column multipliers must be finite")
    if not np.all(s > 0):
        raise NonPositiveEntry("column multipliers must be strictly positive")
    return _log_spread(s, eta)


def _log_spread(s: np.ndarray, eta: float) -> float:
    return float((1.0 / eta) * np.log(np.maximum.reduce(s) / np.minimum.reduce(s)))


#: Over-relaxation of the column fit (see ``_relaxation``): plain steps that
#: probe a stage's contraction rate, the cap on omega, and the safeguard's
#: window in steps.
_PROBE_STEPS = 8
_OMEGA_CAP = 1.9
_SAFEGUARD_WINDOW = 10


def _relaxation(crits: List[float], omega: float) -> float:
    """Over-relaxation factor of a stage's next column fit.

    ``crits`` holds the post-step criteria of the stage so far, and
    ``omega`` the factor of the step just taken.  After the probe steps
    the contraction rate they show sets omega, the optimal factor for a
    linear iteration contracting at that rate, capped; after that only
    the safeguard changes it, back to 1.  See the module docstring.
    """
    k = len(crits)
    if k == _PROBE_STEPS:
        half = _PROBE_STEPS // 2
        theta = (crits[-1] / crits[half - 1]) ** (1.0 / half)
        return 1.0 if theta >= 1.0 else min(_OMEGA_CAP, 2.0 / (1.0 + math.sqrt(1.0 - theta)))
    if omega > 1.0 and k >= _PROBE_STEPS + _SAFEGUARD_WINDOW and not crits[-1] < crits[-1 - _SAFEGUARD_WINDOW]:
        return 1.0
    return omega


def _secant_prediction(
    z: np.ndarray,
    ends: List[Tuple[np.ndarray, np.ndarray]],
    etas: Tuple[float, float, float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start of the next stage, extrapolated linearly in eta from the last two stage ends.

    ``ends`` holds the cumulative (alpha, beta) at the ends of the two
    stages just run, older first, and ``etas`` their temperatures and the
    next one.  Between the two ends z moved by the row and column
    scalings A = alpha_k / alpha_(k-1) and B = beta_k / beta_(k-1), so
    z * A^w / B^w with w = (eta_(k+1) - eta_k) / (eta_k - eta_(k-1)) is
    log z continued along that secant.  w is capped at 1, so the start is
    never extrapolated further than the last stage's own move; geometric
    ladders have w = 1/factor and are unaffected, while two nearly equal
    temperatures followed by a larger step would otherwise raise the
    scalings to a huge power.  Returns (z, alpha, beta), all scaled alike,
    so that x = (alpha b / beta)^(1/eta) still holds.  See the module
    docstring.
    """
    (alpha_prev, beta_prev), (alpha, beta) = ends
    eta_prev, eta, eta_next = etas
    w = min((eta_next - eta) / (eta - eta_prev), 1.0)
    row = (alpha / alpha_prev) ** w
    col = (beta / beta_prev) ** w
    z = z * row[:, None]
    z /= col
    return z, alpha * row, beta * col


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
    drops below the stage tolerance.  After a stage's first 8 steps the
    column fit is over-relaxed, s**omega in place of s, with omega set
    from the contraction rate those steps show and dropped back to 1 if
    the criterion stalls (see the module docstring); the criterion is
    always that of the exact s, so stopping means what it does for the
    plain iteration.  From the end of the second stage on, z, alpha and
    beta are extrapolated along the secant of the last two stage ends
    before the next stage starts (see ``_secant_prediction``); the first
    two stages start from z as the previous stage left it.  The
    returned scalings are the cumulative products of the step multipliers
    (the column ones as applied, s**omega) and the predictions' scalings,
    together with the equilibration, and satisfy
    x_ij = (alpha_i b_ij / beta_j)^(1/eta_final) with b the internal
    (sense-adjusted) coefficients.

    On problems with at least 4 rows and columns, each stage builds a
    kernel of z^(1/eta) from the z it starts from and steps on it,
    absorbing drift into rebuilt kernels (see the module docstring); the
    iterates then agree with those of ``z_step`` under the same omegas
    to rounding, and the per-stage iteration counts are the same on the
    paper grids and the annealed desk problems.  z is materialized for
    snapshots and at each stage end.  The plan is z^(1/eta) with pow
    skipped on the entries whose power underflows to 0 (``_plan``).

    ``max_iters`` bounds each stage; on an exhausted budget the iterate
    reached is returned with ``converged=False``.  ``snapshot_stride``
    records the plan every that many iterations in ``trace.snapshots``.
    An overflow, division by zero or invalid operation while iterating
    or predicting raises NonFiniteEntry, naming the stage's eta.  A step
    that repeats the criterion and is found to leave z unchanged raises
    NumericalDegeneracy (see ``_Stage.unmoved``).
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
    ends: List[Tuple[np.ndarray, np.ndarray]] = []
    t0 = time.perf_counter()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for k, (eta, tol) in enumerate(schedule.stages):
                iters = 0
                stage = _Stage(z, r, c, eta)
                s = stage.column_fit()
                crit = _log_spread(s, eta)
                crits: List[float] = []
                omega = 1.0
                while True:
                    crit_before = crit
                    fit = s if omega == 1.0 else s**omega  # pow(x, 1) == x
                    beta /= fit
                    t, s = stage.step(fit, omega * eta * crit)
                    alpha *= t
                    iters += 1
                    k_global += 1
                    crit = _log_spread(s, eta)
                    crits.append(crit)
                    trace.record(k_global, eta, crit, time.perf_counter() - t0)
                    if snapshot_stride and k_global % snapshot_stride == 0:
                        trace.snapshots.append((k_global, _plan(stage.materialized(), eta)))
                    if crit < tol:
                        break
                    # An unmoved z recomputes the same s, hence the same criterion,
                    # so the full comparison runs only when the criterion repeats.
                    if crit == crit_before and stage.unmoved():
                        raise NumericalDegeneracy(
                            f"updates no longer move z at eta={eta} while the criterion is {crit:.3g};"
                            " the temperature is below usable resolution"
                        )
                    if iters >= max_iters:
                        converged = False
                        break
                    omega = _relaxation(crits, omega)
                z = stage.materialized()
                stage_iterations.append(iters)
                if not converged:
                    break
                ends = ends[-1:] + [(alpha.copy(), beta.copy())]
                if k >= 1 and k + 1 < len(schedule.stages):
                    etas = (schedule.stages[k - 1][0], eta, schedule.stages[k + 1][0])
                    try:
                        z, alpha, beta = _secant_prediction(z, ends, etas)
                    except FloatingPointError as exc:
                        raise NonFiniteEntry(
                            f"{exc} at eta={eta} in the prediction of the next stage's start") from exc
    except FloatingPointError as exc:
        raise NonFiniteEntry(f"{exc} at eta={eta} in iteration {k_global + 1}") from exc
    eta_final = schedule.stages[len(stage_iterations) - 1][0]
    plan = TransportPlan.against(_plan(z, eta_final), problem.row_marginals, problem.col_marginals)
    return SolveResult(
        plan=plan,
        scalings=Scalings(alpha, beta),
        trace=trace,
        converged=converged,
        stage_iterations=tuple(stage_iterations),
        final_criterion=float(crit),
        final_z=z,
    )
