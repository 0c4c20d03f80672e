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
the same fits by matrix-vector products.

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
distance of the plan's column sums to c, and x = (alpha b / beta)^(1/eta)
still holds with beta divided by the fit as applied, s^omega, which the
stage folds in with its other multipliers (below).  As a safeguard, a
criterion that is not below its value 10 steps earlier while omega > 1
drops omega to 1 for the rest of the stage (Thibault, Chizat, Dossal and
Papadakis, "Overrelaxed Sinkhorn-Knopp algorithm for regularized optimal
transport", Algorithms 2021).  On the paper grids and the desk problems
this takes about a third fewer steps than the plain iteration.

On problems with at least 4 rows and columns a stage (``_Stage``) runs on
a kernel of the powered matrix, the stabilized scaling of Schmitzer (SIAM
J. Sci. Comput. 2019): z is held as z_base_ij * V_j * U_i, with z_base
the z the kernel was built from and U, V the row and column multipliers
since.  One build method makes every kernel.  Each stage builds its
kernel from the z it starts from, carried or predicted, and takes its
first column multipliers from it at U = V = 1.  The stage owns the
scalings: each build folds U and V into them, alpha * U and beta / V,
before it resets both, and a dense step folds its own t and s, so
alpha * U and beta / V are the scalings of the stage's z at any step.
With R and C the row and column maxima of z_base, the kernel stores

    K_row = (z_base / R[:, None])^(1/eta),   K_col = (z_base / C)^(1/eta),

each zero where the ratio lies at or below its line's cutoff times
e^-delta, one cutoff band lower, with delta =
(54 + ceil(log2 max(n, m))) * eta * ln 2, and the targets r^eta / R and
c^eta / C.  A row ratio moves only with V and a column ratio only with
U, so while log(max V / min V) and log(max U / min U) stay at or below
delta/2 every zeroed term is also truncated by the dense kernel, and
each fit is one matrix-vector product (``kernel_fit``), as in Cuturi's
Sinkhorn iteration (NeurIPS 2013)::

    U = (r^eta / R) * (K_row @ V^(1/eta))^-eta
    W = (c^eta / C) * (U^(1/eta) @ K_col)^-eta

The row fit gives the new U directly.  W is the V that fits the
columns, so the column multipliers are s = W / V, and the column fit
moves V to V * s^omega.  A step costs two matrix-vector products and
pow on four vectors, instead of pow on every live cell twice.  It agrees
with ``z_step`` up to the order of summation and of the scalar
products, and up to the rounding the multipliers' level adds (below).
Drift is absorbed, not stepped around: a column fit that would break the
drift bound on V materializes z, rebuilds the kernel from it and is
retried there, and a row fit that breaks it on U materializes z and
rebuilds the kernel, which gives the column multipliers.  Only a fit
that a fresh kernel cannot take, with a log spread above delta/2 by
itself, steps densely, and the kernel is rebuilt from the step's z; on
the paper grids and the desk problems that is the first step of the
first stage alone.  An over-relaxed step moves V by s^omega, under the
same bound.  Kernel stages run on every problem with at least 4 rows
and columns, whatever share of the cells is live, since a matrix-vector
product costs the same at any share.  Smaller problems step densely
throughout, so their iterates are ``z_step``'s bit for bit, as the tests
of the 3x3 paper example require; a kernel step would cost about 0.4x
of a dense one there.

No maximum is factored out of U or V, so the powers U^(1/eta) and
V^(1/eta) are bounded by the multipliers' level, max |log M|, not by
their spread.  A level guard (Schmitzer's absorption threshold) keeps
both levels within a limit, the smaller of two.  One is 4 delta: every
kept kernel entry is at least 2^-(2 (54 + k)), k = ceil(log2 max(n, m)),
and every power then lies within 2^(+-4 (54 + k)), so every product of
the two is at least 2^-(6 (54 + k)), normal for any side below 2^116,
and no sum overflows.  The other is 2 nats: the exponent 1/eta is
rounded, so a power M^(1/eta) carries a relative error up to
|log M| eps / 2 into the fit, about one ulp at 2 nats.  The 2-nat limit
binds only above eta of about 0.012.  A column fit that would pass V's
limit is refused like one that breaks its drift bound, and a row fit
that passes U's limit is absorbed like one that breaks U's.

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

The two levels are bounded the same way, each bound reset to 0 at every
build and grown by the same spread(f) plus slack per step.  When the z
held before a step has its rows fit, the plan's column sums total
sum(c), so min f <= 1 <= max f: every |log f_j|, and by the bracket
above every |log t_i|, is at most spread(f).  A stage's first step takes
both exact levels, and only a bound that passes the level limit takes
the exact level again, so the level guard, too, decides as exact checks
at every step would.

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
    LengthMismatch,
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
    so ``axis`` is None, 0, or 1 on a matrix; any other axis raises
    ValidationError.
    """
    if axis not in (None, 0, 1):
        raise ValidationError(f"axis must be None, 0 or 1, got {axis}")
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
    try:
        etas = [eta_final * factor ** (stages - 1 - k) for k in range(stages)]
    except OverflowError:
        raise ValidationError(f"ladder stages={stages},factor={factor},final={eta_final} overflows:"
                              f" factor ** {stages - 1} is beyond the float range") from None
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
#: the larger of 1 and the bound's limit (see ``_Stage``).
_DRIFT_SLACK = 64 * np.finfo(float).eps

#: The stage kernel's limit on its multipliers' level max |log M| (see
#: ``_Stage``): this multiple of the drift limit delta/2, which keeps every
#: power and product normal, but at most this many nats, which keeps the
#: rounding the level adds to a fit within about one ulp.
_LEVEL_FACTOR = 8
_LEVEL_CAP = 2.0


def _truncated_power(ratio: np.ndarray, eta: float, cut: float) -> np.ndarray:
    """ratio^(1/eta) where ratio lies above ``cut``, zero elsewhere."""
    return np.power(ratio, 1.0 / eta, out=np.zeros(ratio.shape), where=ratio > cut)


def kernel_fit(stage: _Stage, axis: int) -> np.ndarray:
    """The multipliers that fit this axis of the stage's z exactly: the next U (axis 1) or V (axis 0).

    Row i's fit (axis 1) is (r_i^eta / R_i) (sum_j K_row_ij V_j^(1/eta))^-eta,
    and column j's (axis 0) the same with the roles of rows and columns
    swapped; the build stores the targets r^eta / R and c^eta / C.  This
    is ``own * target**eta / power_norm(stage.materialized(), stage.eta,
    axis)``, with ``own`` the stage's U or V and ``target`` r or c, up to
    the order of summation and of the scalar products, within the drift
    and level bounds (see ``_Stage``), which keep every power and product
    normal.
    """
    if axis == 1:
        across, K, target = stage.V, stage.K_row, stage.row_target
    else:
        across, K, target = stage.U, stage.K_colT, stage.col_target
    fit = K @ np.power(across, 1.0 / stage.eta)
    np.power(fit, -stage.eta, out=fit)
    fit *= target
    return fit


class _Stage:
    """One annealing stage's iterate, stepped as ``z_step`` steps z.

    On problems with at least 4 rows and columns z is held on a kernel, as
    z_base_ij * V_j * U_i: z_base is the z the kernel was built from, and
    U, V are the products of the row and column multipliers since.  The
    stage owns the scalings alpha and beta of its z, with
    x = (alpha b / beta)^(1/eta): each build folds U and V into them,
    alpha * U and beta / V, before it resets both to 1, and a dense step
    folds its own t and s (one multiply and one divide, so a small
    problem's scalings are those of a loop over ``z_step`` bit for bit).
    ``scalings`` gives them for the current z.
    ``K_row`` holds the row ratios of z_base raised to 1/eta,
    ``(z_base / R[:, None])^(1/eta)`` with R its row maxima, and ``K_colT``
    the column ratios, ``(z_base / C)^(1/eta)`` with C its column maxima,
    stored transposed, and ``row_target`` and ``col_target`` hold
    r^eta / R and c^eta / C, so that each fit of z is one matrix-vector
    product (see ``kernel_fit``): the row fit is the next U, and the
    column fit the V that fits the columns, W, whose ratio to V is the
    column multipliers.  A ratio at or below its line's cutoff times
    e^-delta is stored as zero.  A row ratio moves only with V and a
    column ratio only with U, so while both log(max U / min U) and
    log(max V / min V) are at most delta/2, every zeroed term stays at or
    below its cutoff, and the dense kernel drops it too.

    Those two log spreads are tracked by upper bounds, ``u_drift`` and
    ``v_drift``, both 0 at a build.  A column fit f moves V's spread by at
    most spread(f) = log(max f / min f).  When the z held before a step has
    its rows fit exactly at the stage's eta, the row norms of z * f lie
    within [min f, max f] times r^eta, so t_i lies in [1 / max f, 1 / min f]
    and U's spread also moves by at most spread(f) (Franklin and Lorenz,
    "On the scaling of multidimensional matrices", Linear Algebra Appl.
    1989).  Each step ends with a row fit, so this holds from the second
    step on, and from the first on a kernel built from a row-fit z.  The
    stage's first kernel is built from a z whose rows are not fit at this
    eta, so its ``u_drift`` starts at infinity and the first step takes U's
    exact spread.  The exact spread is taken only when a bound passes
    delta/2, and then replaces the bound.

    The levels max |log U| and max |log V| bound the powers U^(1/eta) and
    V^(1/eta) the fits take, and are tracked the same way by ``u_level``
    and ``v_level`` against ``max_level``, the smaller of 4 delta, which
    keeps every power and product normal, and 2 nats, which keeps the
    rounding a level adds to a fit within about one ulp (see the module
    docstring).  With the rows fit, min f <= 1 <= max f, so each level
    also moves by at most spread(f) per step.  Both start at infinity, so
    a stage's first step takes both exact levels.

    Drift and level are absorbed by a rebuild (``_build``) from the
    materialized z.  A column fit that breaks either bound on V is retried
    on the fresh kernel, and only a fit that a fresh kernel cannot take
    steps densely, after which the kernel is rebuilt from the step's z.  A
    row fit that breaks either bound on U is kept, and the column fit is
    taken on the rebuilt kernel.  Smaller problems step densely
    throughout, with z_base the current z and U = V = 1.
    """

    def __init__(self, z: np.ndarray, r: np.ndarray, c: np.ndarray, eta: float, alpha: np.ndarray, beta: np.ndarray):
        self.r, self.c, self.eta = r, c, eta
        self.r_eta, self.c_eta = r**eta, c**eta
        self.alpha, self.beta = alpha, beta
        self.U = self.V = 1.0  # multipliers since the last build: none yet, and none ever on a dense stage
        self.before: Optional[Tuple[np.ndarray, np.ndarray]] = None  # see ``unmoved``
        self.on_kernel = min(z.shape) >= _KERNEL_MIN_SIDE
        col_cut, row_cut = _cutoff(z.shape[0], eta), _cutoff(z.shape[1], eta)
        band = min(col_cut, row_cut)  # e^-delta
        self.row_cut, self.col_cut = row_cut * band, col_cut * band  # one cutoff band lower
        self.max_drift = -0.5 * np.log(band)
        self.max_level = min(_LEVEL_FACTOR * self.max_drift, _LEVEL_CAP)
        self.slack = _DRIFT_SLACK * max(1.0, self.max_drift)
        self._build(z)
        self.u_drift = self.u_level = self.v_level = np.inf  # z's rows are not fit at this eta

    def _build(self, z: np.ndarray) -> None:
        """Hold z as z_base; on a kernel, fold U and V into alpha and beta, then build it from z.

        The fresh kernel has U = V = 1 and its drift and level bounds 0.
        """
        self.z_base = z
        if not self.on_kernel:
            return
        self.alpha, self.beta = self.scalings()
        n, m = z.shape
        self.U, self.V = np.ones(n), np.ones(m)
        self.u_drift = self.v_drift = self.u_level = self.v_level = 0.0
        R, C = np.maximum.reduce(z, axis=1), np.maximum.reduce(z, axis=0)
        self.row_target, self.col_target = self.r_eta / R, self.c_eta / C
        self.K_row = _truncated_power(z / R[:, None], self.eta, self.row_cut)
        col_ratio = np.divide(z.T, C[:, None], out=np.empty((m, n)))  # rows of K_colT are z's columns
        self.K_colT = _truncated_power(col_ratio, self.eta, self.col_cut)

    def column_fit(self) -> np.ndarray:
        """The column multipliers of the stage's z."""
        if not self.on_kernel:
            return column_multipliers(self.z_base, self.c, self.eta)
        return kernel_fit(self, 0) / self.V

    def scalings(self) -> Tuple[np.ndarray, np.ndarray]:
        """The stage's (alpha, beta), with x = (alpha b / beta)^(1/eta) for its z; new arrays."""
        return self.alpha * self.U, self.beta / self.V

    def step(self, s: np.ndarray, spread: float) -> np.ndarray:
        """``z_step`` with column fit s, whose log spread is ``spread``: the next column multipliers.

        ``spread`` is log(max s / min s), up to rounding, which the drift
        bounds grow by.
        """
        self.before = None
        if not self.on_kernel:
            return self._dense_step(self.z_base, s)
        grow = spread + self.slack
        if not self._fit_columns(s, grow):
            z = self.materialized()
            if np.array_equal(z, self.z_base):  # a rebuild would give this kernel again
                return self._dense_step(z, s)
            self._build(z)
            if not self._fit_columns(s, grow):
                return self._dense_step(z, s)
        self.U = kernel_fit(self, 1)
        self.u_drift = self._drift(self.u_drift + grow, self.U)
        self.u_level = self._level(self.u_level + grow, self.U)
        if self.u_drift > self.max_drift or self.u_level > self.max_level:
            self.before = (self.z_base, self.materialized())
            self._build(self.before[1])
        return self.column_fit()

    def _fit_columns(self, s: np.ndarray, grow: float) -> bool:
        """Whether V takes the column fit s within its drift and level bounds; V moves only if so."""
        V = self.V * s
        v_drift = self._drift(self.v_drift + grow, V)
        if v_drift > self.max_drift:
            return False
        v_level = self._level(self.v_level + grow, V)
        if v_level > self.max_level:
            return False
        self.V, self.v_drift, self.v_level = V, v_drift, v_level
        return True

    def _drift(self, bound: float, multipliers: np.ndarray) -> float:
        """A grown drift bound, or the multipliers' exact log spread once it passes delta/2."""
        return _log_spread(multipliers, 1.0) if bound > self.max_drift else bound

    def _level(self, bound: float, multipliers: np.ndarray) -> float:
        """A grown level bound, or the multipliers' exact level once it passes the level limit."""
        return _log_level(multipliers) if bound > self.max_level else bound

    def _dense_step(self, z: np.ndarray, s: np.ndarray) -> np.ndarray:
        z_next, t, s_next = z_step(z, s, self.r, self.c, self.eta)
        # Not in place: the alpha and beta a stage starts from may be a stage end ``solve`` keeps.
        self.alpha, self.beta = self.alpha * t, self.beta / s
        self.before = (z, z_next)
        self._build(z_next)
        return s_next

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
        if not self.on_kernel:
            return self.z_base
        z = self.z_base * self.V
        z *= self.U[:, None]
        return z


def _plan(z: np.ndarray, eta: float) -> np.ndarray:
    """The plan z^(1/eta), with pow taken only where it does not underflow to 0.

    An entry at or below 2^(-1080 * eta) has a power at or below about
    2^-1080, under half the smallest subnormal, so pow would round it to 0
    anyway, through its slow path.  Equal bit for bit to ``z ** (1/eta)``.
    """
    return _truncated_power(z, eta, 2.0 ** (-1080.0 * eta))


def criterion(s: np.ndarray, eta: float) -> float:
    """Stopping criterion (1/eta) * log(max_j s_j / min_j s_j).

    Equals the Hilbert distance between the column sums of the plan
    z^(1/eta) and the prescribed column sums, for s the column multipliers
    of z.  An empty s raises LengthMismatch.
    """
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        raise LengthMismatch("column multipliers must not be empty")
    if not np.all(np.isfinite(s)):
        raise NonFiniteEntry("column multipliers must be finite")
    if not np.all(s > 0):
        raise NonPositiveEntry("column multipliers must be strictly positive")
    return _log_spread(s, eta)


def _log_spread(s: np.ndarray, eta: float) -> float:
    return float((1.0 / eta) * np.log(np.maximum.reduce(s) / np.minimum.reduce(s)))


def _log_level(multipliers: np.ndarray) -> float:
    """max |log M_k|: how far the multipliers stray from 1 on a log scale."""
    return float(max(np.log(np.maximum.reduce(multipliers)), -np.log(np.minimum.reduce(multipliers))))


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
    two stages start from z as the previous stage left it.  Each stage
    owns alpha and beta while it runs, folding its step multipliers (the
    column ones as applied, s**omega) into them at each kernel build and
    each dense step; ``solve`` reads them from the stage at its end
    (``_Stage.scalings``) for the prediction and, after the last stage,
    returns them.  Together with the equilibration and the predictions'
    scalings they satisfy x_ij = (alpha_i b_ij / beta_j)^(1/eta_final)
    with b the internal (sense-adjusted) coefficients.

    On problems with at least 4 rows and columns, each stage builds a
    kernel of z^(1/eta) from the z it starts from and steps on it,
    absorbing drift and level into rebuilt kernels (see the module
    docstring); the iterates then agree with those of ``z_step`` under
    the same omegas to rounding, and the per-stage iteration counts are
    the same on the paper grids and the annealed desk problems.  z is
    materialized for snapshots and at each stage end.  The plan is
    z^(1/eta) with pow skipped on the entries whose power underflows to 0
    (``_plan``).

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
    r, c = moma.row_marginals, moma.col_marginals
    z, alpha = row_equilibrate(moma.coefficients)
    beta = np.ones(moma.m)
    trace = ConvergenceTrace()
    stage_iterations: List[int] = []
    k_global = 0
    ends: List[Tuple[np.ndarray, np.ndarray]] = []
    t0 = time.perf_counter()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for k, (eta, tol) in enumerate(schedule.stages):
                stage = _Stage(z, r, c, eta, alpha, beta)
                s = stage.column_fit()
                crit = _log_spread(s, eta)
                crits: List[float] = []
                omega = 1.0
                while True:
                    crit_before = crit
                    fit = s if omega == 1.0 else s**omega  # pow(x, 1) == x
                    s = stage.step(fit, omega * eta * crit)
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
                    if len(crits) >= max_iters:
                        break
                    omega = _relaxation(crits, omega)
                z = stage.materialized()
                alpha, beta = stage.scalings()
                stage_iterations.append(len(crits))
                converged = crit < tol  # else the stage's budget ran out
                if not converged:
                    break
                ends = ends[-1:] + [(alpha, beta)]
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
