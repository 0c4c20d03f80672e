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
side below 4 each stage (``_Stage``) runs this loop::

    s = column_multipliers(z, c, eta)           # at each stage start
    z, t, s = z_step(z, s**omega, r, c, eta)    # per iteration

``z_step`` returns the column multipliers of the new z alongside it, so
each norm is computed once per step: ``s`` is both the stopping
measurement of the step just taken and the column fit of the next one.
The stage keeps s; a stage-local rule (``_Mixer``) hands each step the
column scaling to apply and a bound on its level and takes the next
criterion back.  Larger problems run the same loop on a stage kernel
(below), which takes the same fits in the plan domain by matrix-vector
products.

The column fit is over-relaxed, and on problems with at least 4 rows and
columns also mixed.  Each stage takes 8 plain steps (omega = 1),
estimates the criterion's contraction rate as
theta = (crit_8 / crit_4)^(1/4), and sets omega = min(1.9,
2 / (1 + sqrt(1 - theta))), or 1 when theta >= 1 (Lehmann, von Renesse,
Sambale and Uschmajew, "A note on overrelaxation in the Sinkhorn
algorithm", Optim. Lett. 2022).  The relaxed step fits the columns by
s^omega.  As a safeguard, a criterion that is not below its value 10
steps earlier while omega > 1 drops omega to 1 for the rest of the stage
(Thibault, Chizat, Dossal and Papadakis, "Overrelaxed Sinkhorn-Knopp
algorithm for regularized optimal transport", Algorithms 2021).  A
problem with a side below 4 takes only relaxed steps, so its iterates
are those of a loop over ``z_step`` bit for bit.

On larger problems the first step after the probe is relaxed, and each
later step mixes at depth 1 (Anderson, J. ACM 1965; Walker and Ni, SIAM
J. Numer. Anal. 2011) in plan nats.  With f = log s (log(s) / eta on a
dense build), dF = f - f_prev and x_prev the log scaling the last step
applied, gamma = dF.f / dF.dF, and the step applies the column scaling
exp(x), x = omega f - gamma (x_prev + omega dF).  Once the rows are fit,
min s <= 1 <= max s, so max |f| <= crit, and the level bounds (below)
grow by |omega (1 - gamma)| crit + |gamma omega| crit_prev + |gamma| b,
with b the last step's bound.  A mixed step is tried only when
gamma < 1, so that x keeps a positive weight on f (a step with gamma
near 1 barely moves, and on a plateau of the criterion such steps stall
a stage), and when its level max |x| is one a fresh kernel can take.  It
is kept if its criterion is below twice the stage's best so far;
otherwise the stage's state is restored and the step is redone as the
relaxed step (a rollback safeguard after Zhang, O'Donoghue and Boyd,
"Globally convergent type-I Anderson acceleration for nonsmooth
fixed-point iterations", SIAM J. Optim. 2020), and until a mixed step is
kept again, one whose column fit the kernel refuses is not taken rather
than absorbed by a rebuild.  The row fit stays exact, and the criterion
is still measured on the exact column multipliers s of the post-step z,
which ``z_step`` returns whatever column fit it was given.  So a stage
stops on the same condition as the plain iteration, the criterion is
still the Hilbert distance of the plan's column sums to c, and
x = (alpha b / beta)^(1/eta) still holds with beta divided by the fit as
applied, which the stage folds in with its other multipliers (below).  A
step is a kept row fit: the trace records one criterion per kept step
and ``max_iters`` counts them, while ``SolveResult.stage_fits`` counts
every row fit, undone ones included.  On the benchmark's desk problems
the rule takes about a third of the relaxed rule's row fits.

On problems with at least 4 rows and columns a stage (``_Stage``) runs on
a kernel of the powered matrix, the stabilized scaling of Schmitzer (SIAM
J. Sci. Comput. 2019): z is held as z_base_ij * V_j * U_i, with z_base
the z the kernel was built from and U, V the row and column multipliers
since.  The kernel holds them in the plan domain, u = U^(1/eta) and
v = V^(1/eta), so that the plan is z_base^(1/eta) * v_j * u_i.  One build
method makes every kernel.  Each stage builds its kernel from the z it
starts from, carried or predicted, and takes its first column
multipliers from it at u = v = 1.  The stage owns the scalings: each
build folds U = u^eta and V = v^eta into them, alpha * U and beta / V,
before it resets both, and a dense step folds its own t and s, so
alpha * U and beta / V are the scalings of the stage's z at any step.
U and V are formed only there and where z is materialized.  With R and
C the row and column maxima of z_base, the kernel stores

    K_row = (z_base / R[:, None])^(1/eta),   K_col = (z_base / C)^(1/eta),

each zero where the ratio lies at or below its line's cutoff times
e^(-7 delta), a zero band of 7 cutoffs, with delta =
(54 + ceil(log2 max(n, m))) * eta * ln 2, and the powered targets
(r^eta / R)^(1/eta) and (c^eta / C)^(1/eta).  A row ratio moves only
with V and a column ratio only with U, so while log(max v / min v) and
log(max u / min u) stay at or below 7 delta / eta, every zeroed term is
also truncated by the dense kernel, and each fit is one matrix-vector
product and one divide (``kernel_fit``), the form of Cuturi's Sinkhorn
iteration (NeurIPS 2013)::

    u = (r^eta / R)^(1/eta) / (K_row @ v)
    w = (c^eta / C)^(1/eta) / (u @ K_col)

The row fit gives the new u directly.  w is the v that fits the
columns, so the column multipliers are s = w / v, (w / v)^eta in the z
domain, the criterion is log(max s / min s), and the column fit moves v
to v * f for a column scaling f, to w itself for the plain fit f = s.  A
plain step costs two matrix-vector products, three divides and the
criterion's two extremes, with no pow, instead of pow on every live cell
twice; an over-relaxed step adds pow and a multiply on one vector, and a
mixed one a log, an exp and two small products.  It agrees with ``z_step``
up to the order of summation and of the scalar products, and up to the
rounding the levels add (below).  Kernel stages run on every problem
with at least 4 rows and columns, whatever share of the cells is live,
since a matrix-vector product costs the same at any share.  Smaller
problems step densely throughout, so their iterates are ``z_step``'s bit
for bit, as the tests of the 3x3 paper example require; a kernel step
would cost about 0.4x of a dense one there.

One rule decides when a kernel is rebuilt, Schmitzer's absorption
threshold on the multipliers' level max |log M|.  No maximum is factored
out of u, v or the targets, so their size is bounded by their level, and
a spread is at most twice the level.  The rule keeps the z-domain levels
of U and V within ``max_level``, max_level / eta in the plan nats u and
v are measured in, the smaller of two limits.  One is a quarter of the
zero band, 7 delta / 4, so both spreads stay within half the band and
every zeroed term stays truncated.  The other is 2 nats: the exponent
1/eta is rounded, so a power M^(1/eta) carries a relative error up to
|log M| eps / 2, about one ulp at 2 nats, into the fit.  The 2-nat limit
binds only above eta of about 0.027.  The band and the limit also keep
every product normal: with k = ceil(log2 max(n, m)), every kept kernel
entry is at least 2^-(8 (54 + k)) and every multiplier lies within
2^(+-7 (54 + k) / 4), so every product of the two is at least
2^-(9.75 (54 + k)), normal for any side below 2^50, and no sum
overflows.  A level past the limit is absorbed, not stepped around: a
column fit that would put v past it materializes z, rebuilds the kernel
from it and is retried there, and a row fit that puts u past it
materializes z and rebuilds the kernel, which gives the column
multipliers.  Only a fit that a fresh kernel cannot take, with a level
past the limit by itself, steps densely, by ``z_step`` with the fit in
the z domain, f^eta, and the kernel is rebuilt from the step's z and
takes its own column fit.

A target guard holds the powered targets to the same limit.  A build
whose z-domain targets r^eta / R or c^eta / C have a level past
max_level could not power them in range, so it builds no kernel: it
holds z densely until the next build, and the next step is a
``z_step``.  A build from a z whose rows are fit has its row targets in
[1, m^eta], within the limit whenever eta log m <= 2, so the guard fires
at a stage start whose z is far from row-fit at the stage's eta: the
first stage's row-equilibrated start on the paper grids and the desk
problems, and a cold single stage's.  On the paper grids and the
benchmark's desk problems that is the only dense step.

The levels are not taken at every step but bounded from numbers the loop
already has, each bound reset to 0 at every build.  A column scaling f
moves v's level by at most max |log f|, the bound each step is handed.
When the z held before a kernel step has its rows fit exactly at this
stage's eta, the plan's row sums after the column fit lie within
[min f, max f] times r: the row fit lies within [1 / max f, 1 / min f],
and u's level also moves by at most max |log f| (the Hilbert-metric
contraction of a row fit; Franklin and Lorenz, "On the scaling of
multidimensional matrices", Linear Algebra Appl. 1989).  The plan's
column sums then total sum(c), so min s <= 1 <= max s, and the relaxed
fit f = s^omega has max |log f| <= omega * crit, with crit the criterion
already measured on s.  Every kernel step ends with a row fit, and
an absorption or a dense step rebuilds from a z whose rows are fit, but
a stage's first kernel starts from the last stage's z or its prediction,
whose rows are fit at another eta or not at all.  So a stage's first
step takes both exact levels.  Each bound also grows by a rounding slack
per step: the z domain's 64 ulp of max(1, max_level), taken to plan nats
by 1/eta, since the multipliers are rounded in the z domain.  Only a
bound that passes the limit takes the exact level, which then replaces
it, so every decision is the one exact checks at every step would make.

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

A ladder's first stage starts cold, from the row-equilibrated z, and on
weights whose spread = max(a) - min(a) is large it stalls on long
plateaus of the criterion.  When spread / eta_0 passes
B = (7 + 1)(54 + k) ln 2 plan nats, the largest log ratio a fresh kernel
keeps, a ladder of two or more stages starts hot (epsilon-scaling;
Schmitzer, SIAM J. Sci. Comput. 2019): ``_warm_up`` continues it upward
by its ratio eta_0 / eta_1, for at most 32 temperatures, to the first at
or above 4 spread / B, and drops any above
min(1, 100 / (spread + |log sum(r)|)), where r^eta could leave the float
range.  These run first with stage 0's tol, and the stage loop and the
secant prediction carry z down into stage 0.  The paper grids and the
3x3 example do not warm up; the Gaussian desk problems warm up through 6
temperatures to about 0.1 and take about 40% fewer row fits.
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
    itself may underflow where z is merely below 1.  ``stage_iterations``
    counts each stage's steps and ``stage_fits`` its row fits: the steps
    plus the mixed steps undone and redone (see ``solve``).  Stage 0's
    entries include the steps and fits of its warm-up, if any.
    """

    plan: TransportPlan
    scalings: Scalings
    trace: ConvergenceTrace
    converged: bool
    stage_iterations: Tuple[int, ...]
    final_criterion: float
    final_z: Optional[np.ndarray] = None
    stage_fits: Tuple[int, ...] = ()

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


#: Rounding slack added to each level bound per kernel step, in ulp of the
#: larger of 1 and the z-domain level limit, taken to plan nats by 1/eta
#: (see ``_Stage``).
_LEVEL_SLACK = 64 * float(np.finfo(float).eps)

#: The stage kernel's zero band, in cutoffs: a ratio at or below its line's
#: cutoff times e^(-_BAND delta) is stored as zero.  Its multipliers' level
#: max |log M| is held to a quarter of the band, _BAND delta / 4, which
#: keeps every zeroed term truncated and every power and product normal,
#: but to at most _LEVEL_CAP nats, which keeps the rounding the level adds
#: to a fit within about one ulp (see ``_Stage``).
_BAND = 7
_LEVEL_CAP = 2.0


def _truncated_power(ratio: np.ndarray, eta: float, cut: float) -> np.ndarray:
    """ratio^(1/eta) where ratio lies above ``cut``, zero elsewhere."""
    return np.power(ratio, 1.0 / eta, out=np.zeros(ratio.shape), where=ratio > cut)


def kernel_fit(stage: _Stage, axis: int) -> np.ndarray:
    """The plan-domain multipliers that fit this axis of the stage's z exactly: the next u (axis 1) or v (axis 0).

    Row i's fit (axis 1) is (r_i^eta / R_i)^(1/eta) / sum_j K_row_ij v_j,
    and column j's (axis 0) the same with the roles of rows and columns
    swapped; the build stores the powered targets (r^eta / R)^(1/eta) and
    (c^eta / C)^(1/eta).  This is ``own * target / (line sums of the
    plan)``, with ``own`` the stage's u or v, ``target`` r or c and the
    plan the materialized z raised to 1/eta, up to the order of summation
    and of the scalar products, within the level bounds and the target
    guard (see ``_Stage``), which keep every power and product normal.
    """
    if axis == 1:
        return stage.row_target / stage.K_row.dot(stage.v)
    return stage.col_target / stage.K_colT.dot(stage.u)


class _Stage:
    """One annealing stage's iterate, stepped as ``z_step`` steps z.

    On problems with at least 4 rows and columns z is held on a kernel, as
    z_base_ij * V_j * U_i: z_base is the z the kernel was built from, and
    U, V are the products of the row and column multipliers since, held in
    the plan domain as u = U^(1/eta) and v = V^(1/eta).  The stage owns the
    scalings alpha and beta of its z, with x = (alpha b / beta)^(1/eta):
    each build folds U and V into them, alpha * U and beta / V, and a dense
    step folds its own t and s (one multiply and one divide, so a small
    problem's scalings are those of a loop over ``z_step`` bit for bit).
    ``scalings`` gives them for the current z.  The stage also keeps the
    column multipliers of its z, ``s``: z-domain on a dense build, and in
    the plan domain, s = w / v, on a kernel, with w the v that fits the
    columns.  ``on_kernel`` tells which: it is a property of each build,
    since the target guard (below) can hold a kernel-sized problem densely
    until its next build.
    ``K_row`` holds the row ratios of z_base raised to 1/eta,
    ``(z_base / R[:, None])^(1/eta)`` with R its row maxima, and ``K_colT``
    the column ratios, ``(z_base / C)^(1/eta)`` with C its column maxima,
    stored transposed, and ``row_target`` and ``col_target`` hold
    (r^eta / R)^(1/eta) and (c^eta / C)^(1/eta), so that each fit of z is
    one matrix-vector product and one divide (see ``kernel_fit``): the row
    fit is the next u, and the column fit is w.  A ratio at or below its
    line's cutoff times e^(-F delta) is stored as zero, with F = ``_BAND``
    (7) cutoffs, delta = (54 + k) * eta * ln 2 and k = ceil(log2 max(n, m)).
    A row ratio moves only with V and a column ratio only with U, so while
    both log(max u / min u) and log(max v / min v) are at most
    F delta / eta, every zeroed term stays at or below its cutoff, and the
    dense kernel drops it too.

    One bound decides every absorption: the levels max |log u| and
    max |log v|, tracked by upper bounds ``u_level`` and ``v_level``
    against ``level_limit``, ``max_level / eta``, with ``max_level`` the
    z-domain limit, the smaller of F delta / 4 and 2 nats.  A spread is at
    most twice the level, so the level limit keeps both spreads within
    F delta / 2 and every zeroed term truncated.  It also keeps every
    product normal.  Kept entries are at least 2^-((F + 1)(54 + k)) and
    the multipliers lie within 2^(+-F (54 + k) / 4), so every product of
    the two is at least 2^-((1.25 F + 1)(54 + k)), normal while
    (1.25 F + 1)(54 + k) < 1022: at F = 7 for any side below 2^50.  The
    2-nat cap keeps the rounding a level adds to a fit within about one
    ulp (see the module docstring).

    A column scaling f moves v's level by at most max |log f|.  When the z
    held before a step has its rows fit exactly at the stage's eta, the
    row sums of the plan after the column fit lie within [min f, max f]
    times r, so the row fit lies in [1 / max f, 1 / min f] and u's level
    also moves by at most max |log f| (Franklin and Lorenz, "On the
    scaling of multidimensional matrices", Linear Algebra Appl. 1989).
    Each step ends with a row fit, so this holds from the second step on,
    and from the first on a kernel built from a row-fit z.  The stage's
    first kernel is built from a z whose rows are not fit at this eta, so
    both bounds start at infinity and the first step takes both exact
    levels.  Each bound is 0 at a build and grows by the step's bound on
    max |log f| plus a rounding slack per step; the exact level is taken
    only when a bound passes ``level_limit``, and then replaces it.
    The target guard holds the powered targets to the same limit: a build
    whose z-domain targets r^eta / R or c^eta / C have a level past
    ``max_level`` holds z densely until the next build, so the next step is
    a ``z_step``.

    A level past the limit is absorbed by a rebuild (``_build``) from the
    materialized z.  A column fit that puts v past it is retried on the
    fresh kernel, and only a fit that a fresh kernel cannot take steps
    densely, after which the kernel is rebuilt from the step's z and takes
    its column fit.  A row fit that puts u past it is kept, and the column
    fit is taken on the rebuilt kernel.  Smaller problems step densely
    throughout, with z_base the current z.
    """

    def __init__(self, z: np.ndarray, r: np.ndarray, c: np.ndarray, eta: float, alpha: np.ndarray, beta: np.ndarray):
        self.r, self.c, self.eta = r, c, eta
        self.r_eta, self.c_eta = r**eta, c**eta
        self.alpha, self.beta = alpha, beta
        self.before: Optional[Tuple[np.ndarray, np.ndarray]] = None  # see ``unmoved``
        self.on_kernel = False  # whether the current build is a kernel; none yet
        self.kernel_sized = min(z.shape) >= _KERNEL_MIN_SIDE
        col_cut, row_cut = _cutoff(z.shape[0], eta), _cutoff(z.shape[1], eta)
        delta = (54 + (max(z.shape) - 1).bit_length()) * eta * math.log(2.0)  # -log min(col_cut, row_cut)
        band = math.exp(-_BAND * delta)
        self.row_cut, self.col_cut = row_cut * band, col_cut * band  # _BAND cutoffs lower
        self.max_level = min(_BAND * delta / 4, _LEVEL_CAP)
        self.level_limit = self.max_level / eta
        self.slack = _LEVEL_SLACK * max(1.0, self.max_level) / eta
        self._build(z)
        self.u_level = self.v_level = np.inf  # z's rows are not fit at this eta

    def _build(self, z: np.ndarray) -> None:
        """Hold z as z_base, on a fresh kernel unless the target guard holds it densely (``on_kernel``).

        The current kernel's U and V are folded into alpha and beta first.
        The fresh kernel has u = v = 1 and its level bounds 0.
        """
        self.alpha, self.beta = self.scalings()
        self.z_base = z
        self.on_kernel = False
        if not self.kernel_sized:
            return
        R, C = np.maximum.reduce(z, axis=1), np.maximum.reduce(z, axis=0)
        row_target, col_target = self.r_eta / R, self.c_eta / C
        if max(_log_level(row_target), _log_level(col_target)) > self.max_level:
            return  # the target guard
        self.on_kernel = True
        n, m = z.shape
        self.u, self.v = np.ones(n), np.ones(m)
        self.u_level = self.v_level = 0.0
        self.row_target, self.col_target = row_target ** (1.0 / self.eta), col_target ** (1.0 / self.eta)
        self.K_row = _truncated_power(z / R[:, None], self.eta, self.row_cut)
        col_ratio = np.divide(z.T, C[:, None], out=np.empty((m, n)))  # rows of K_colT are z's columns
        self.K_colT = _truncated_power(col_ratio, self.eta, self.col_cut)

    def column_fit(self, dense_s: Optional[np.ndarray] = None) -> float:
        """Take and keep the column multipliers of the stage's z; their criterion, in plan nats.

        ``dense_s`` holds those of a z that ``z_step`` just made, which a
        dense build keeps instead of taking them again.
        """
        if not self.on_kernel:
            self.s = column_multipliers(self.z_base, self.c, self.eta) if dense_s is None else dense_s
            return _log_spread(self.s, self.eta)
        self.w = kernel_fit(self, 0)
        self.s = self.w / self.v
        return _spread(self.s)

    def scalings(self) -> Tuple[np.ndarray, np.ndarray]:
        """The stage's (alpha, beta), with x = (alpha b / beta)^(1/eta) for its z; never changed in place."""
        if not self.on_kernel:
            return self.alpha, self.beta
        return self.alpha * self.u**self.eta, self.beta / self.v**self.eta

    def step(self, fit: np.ndarray, bound: float, absorb: bool = True) -> Optional[float]:
        """``z_step`` with the column scaling ``fit`` applied to z: the next criterion.

        ``fit`` is in the domain of the kept column multipliers ``s``: the
        plan domain on a kernel and the z domain on a dense build, where
        the scaling ``s`` itself is the plain fit.  ``bound`` bounds
        max |log fit| in plan nats, and both level bounds grow by it.
        Without ``absorb``, a column fit the kernel refuses is not taken:
        the stage stays where it was and the step returns None.
        """
        self.before = None
        if not self.on_kernel:
            return self._dense_step(self.z_base, fit)
        grow = bound + self.slack
        v = self.w if fit is self.s else self.v * fit  # v * s is w, up to rounding
        if not self._fit_columns(v, grow):
            if not absorb:
                return None
            z = self.materialized()
            if np.array_equal(z, self.z_base):  # a rebuild would give this kernel again
                return self._dense_step(z, fit**self.eta)
            self._build(z)
            if not (self.on_kernel and self._fit_columns(fit, grow)):
                return self._dense_step(z, fit**self.eta)
        self.u = kernel_fit(self, 1)
        self.u_level = self._level(self.u_level + grow, self.u)
        if self.u_level > self.level_limit:
            self.before = (self.z_base, self.materialized())
            self._build(self.before[1])
        return self.column_fit()

    def save(self) -> dict:
        """The stage's state, for ``restore``: its arrays are replaced, never changed in place."""
        return self.__dict__.copy()

    def restore(self, state: dict) -> None:
        """Put the stage back where ``save`` found it."""
        self.__dict__.update(state)

    def _fit_columns(self, v: np.ndarray, grow: float) -> bool:
        """Whether v takes the new column multipliers within its level bound; v moves only if so."""
        v_level = self._level(self.v_level + grow, v)
        if v_level > self.level_limit:
            return False
        self.v, self.v_level = v, v_level
        return True

    def _level(self, bound: float, multipliers: np.ndarray) -> float:
        """A grown level bound, or the multipliers' exact level once it passes the level limit."""
        return _log_level(multipliers) if bound > self.level_limit else bound

    def _dense_step(self, z: np.ndarray, s: np.ndarray) -> float:
        """``z_step`` on z with the z-domain column fit s, folded into the scalings, then a build from its z; the next criterion."""
        z_next, t, s_next = z_step(z, s, self.r, self.c, self.eta)
        # Not in place: the alpha and beta a stage starts from may be a stage end ``solve`` keeps.
        self.alpha, self.beta = self.alpha * t, self.beta / s
        self.before = (z, z_next)
        self._build(z_next)  # folds a kernel's U and V, as z is theirs
        return self.column_fit(s_next)

    def unmoved(self) -> bool:
        """Whether the last step left z bit for bit where it was.

        A dense step compares z with its input.  A kernel step that is
        absorbed after its row fit compares the materialized z with the z
        the absorbed kernel was built from: an equal one has not moved
        since that build.  Any other kernel step counts as moved, since
        comparing would cost a materialization; a stage whose z stops
        moving there still moves u and v by rounding.
        """
        return self.before is not None and np.array_equal(*self.before)

    def materialized(self) -> np.ndarray:
        if not self.on_kernel:
            return self.z_base
        z = self.z_base * self.v**self.eta
        z *= (self.u**self.eta)[:, None]
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
    return float((1.0 / eta) * np.log(s[s.argmax()] / s[s.argmin()]))  # the extremes as in ``_spread``


def _spread(multipliers: np.ndarray) -> float:
    """log(max M / min M), the log spread of multipliers held in the plan domain.

    The extremes are found by ``argmax`` and ``argmin``, which cost about
    a quarter of ``np.maximum.reduce`` on a desk-sized vector and give the
    same values.
    """
    return math.log(multipliers[multipliers.argmax()] / multipliers[multipliers.argmin()])


def _log_level(multipliers: np.ndarray) -> float:
    """max |log M_k|: how far the multipliers stray from 1 on a log scale."""
    return float(max(np.log(multipliers[multipliers.argmax()]), -np.log(multipliers[multipliers.argmin()])))


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


class _Mixer:
    """A stage's column-fit rule: the scaling each step applies, and whether a mixed step is kept.

    The relaxed step applies s**omega, with omega set by ``_relaxation``;
    on a stage with at least 4 rows and columns the steps after the probe
    mix at depth 1 in plan nats, with a rollback (see the module
    docstring).  Every step goes through ``_Stage.step``.  ``crits``
    holds the criteria of the kept steps, and ``fits`` counts every row
    fit, undone ones included.
    """

    def __init__(self, stage: _Stage):
        self.stage, self.crits, self.omega, self.best, self.fits = stage, [], 1.0, math.inf, 0
        self.absorb = True  # whether a mixed step may rebuild the kernel: not right after an undone one
        self.last: Optional[Tuple[float, float, float]] = None  # crit, f.f and bound of the last step
        self.R, self.coef, self.now = np.zeros((3, len(stage.c))), np.empty(3), 0  # rows f, f_prev in turn; x_prev
        self.rows, self.F = list(self.R), self.R[:2]

    def step(self, crit: float) -> float:
        """Take the stage's next step from its multipliers, whose criterion is ``crit``: the next criterion."""
        stage, omega, stepped = self.stage, self.omega, None
        mixing = stage.kernel_sized and len(self.crits) >= _PROBE_STEPS
        if mixing:
            now = 1 - self.now
            f = np.log(stage.s, out=self.rows[now])
            if not stage.on_kernel:
                f /= stage.eta
            dots = self.F.dot(f).tolist()
            ff, fp = dots[now], dots[1 - now]
            if self.last and ff - 2.0 * fp + self.last[1] > 0.0:  # dF.dF
                stepped = self._mixed(now, crit, ff, fp)
        if stepped is None:
            fit, bound = (stage.s, crit) if omega == 1.0 else (stage.s**omega, omega * crit)
            stepped = stage.step(fit, bound), bound
            self.fits += 1
            if mixing:
                np.multiply(f, omega, out=self.rows[2])
        if mixing:
            self.now, self.last = now, (crit, ff, stepped[1])
        self.crits.append(stepped[0])
        self.best = min(self.best, stepped[0])
        self.omega = _relaxation(self.crits, omega)
        return stepped[0]

    def _mixed(self, now: int, crit: float, ff: float, fp: float) -> Optional[Tuple[float, float]]:
        """The mixed step from f in row ``now``, if kept: its criterion and its scaling's bound."""
        stage, omega, (crit_prev, pp, bound_prev) = self.stage, self.omega, self.last
        gamma = (ff - fp) / (ff - 2.0 * fp + pp)
        if not gamma < 1.0:
            return None  # x would keep no positive weight on f
        a, b = omega * (1.0 - gamma), gamma * omega
        self.coef[now], self.coef[1 - now], self.coef[2] = a, b, -gamma
        x = self.coef.dot(self.R)
        # max |f| <= crit once the rows are fit, since min s <= 1 <= max s.
        bound = (abs(a) * crit + abs(b) * crit_prev + abs(gamma) * bound_prev) * (1.0 + 1e-12)
        if bound > stage.level_limit and max(x.max(), -x.min()) > stage.level_limit:
            return None  # past what a fresh kernel takes
        saved = stage.save()
        nxt = stage.step(np.exp(x if stage.on_kernel else x * stage.eta), bound, self.absorb)
        if nxt is None:  # refused by the kernel while absorbing is off
            return None
        self.fits += 1
        self.absorb = kept = nxt < 2.0 * self.best
        if not kept:
            stage.restore(saved)
            return None
        self.rows[2][...] = x
        return nxt, bound


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


#: At most this many warm-up temperatures, so that a ladder whose ratio is
#: near 1 climbs only part of the way.
_WARM_UP_MAX = 32


def _warm_up(weights: np.ndarray, r: np.ndarray, stages: Tuple[Tuple[float, float], ...]) -> List[float]:
    """The warm-up temperatures of a ladder's first stage, hottest first, or none (see the module docstring)."""
    spread = float(weights.max()) - float(weights.min())
    band = (_BAND + 1) * (54 + (max(weights.shape) - 1).bit_length()) * math.log(2.0)
    if len(stages) < 2 or not spread / stages[0][0] > band:
        return []
    eta_0, ratio = stages[0][0], stages[0][0] / stages[1][0]
    cap = min(1.0, 100.0 / (spread + abs(math.log(r.sum()))))
    etas: List[float] = []
    for j in range(1, _WARM_UP_MAX + 1):
        eta = eta_0 * ratio**j
        if eta > cap:
            break
        etas.insert(0, eta)
        if eta >= 4.0 * spread / band:
            break
    return etas


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
    drops below the stage tolerance.  The stage (``_Stage``) keeps the
    column multipliers s of its z, and a stage-local rule (``_Mixer``)
    hands each step the column scaling to apply and takes the next
    criterion back, so the loop itself handles no multipliers.  After a
    stage's first 8 steps the column fit is over-relaxed, s**omega in
    place of s, with omega set from the contraction rate those steps show
    and dropped back to 1 if the criterion stalls, and on problems with at
    least 4 rows and columns it is then mixed at depth 1 with weight omega
    (see the module docstring); the criterion is always that of the exact
    s, so stopping means what it does for the plain iteration.  A step is
    a kept row fit: the trace records one criterion per step, and
    ``stage_iterations`` and ``max_iters`` count steps.  A mixed step
    whose criterion is not below twice the stage's best is undone and
    redone as the relaxed step, and ``stage_fits`` counts every row fit,
    undone ones included.  From the end of the second stage on, z, alpha and
    beta are extrapolated along the secant of the last two stage ends
    before the next stage starts (see ``_secant_prediction``); the first
    two stages start from z as the previous stage left it.  Each stage
    owns alpha and beta while it runs, folding its step multipliers (the
    column ones as applied) into them at each kernel build and
    each dense step; ``solve`` reads them from the stage at its end
    (``_Stage.scalings``) for the prediction and, after the last stage,
    returns them.  Together with the equilibration and the predictions'
    scalings they satisfy x_ij = (alpha_i b_ij / beta_j)^(1/eta_final)
    with b the internal (sense-adjusted) coefficients.

    On problems with at least 4 rows and columns, each stage builds a
    kernel of z^(1/eta) from the z it starts from and steps on it in the
    plan domain, absorbing a level past its limit into a rebuilt kernel,
    and holding z densely for one ``z_step`` where the target guard finds
    the start too far from row-fit (see the module docstring).  Each step
    then agrees with ``z_step`` from the same z under the same column
    scaling to rounding; mixing amplifies that rounding, so a whole run
    may part from a dense one.  The criterion is then
    log(max s / min s) of the plan-domain column multipliers, equal to
    the dense one up to rounding.  z is materialized for snapshots and at
    each stage end.  The plan is
    z^(1/eta) with pow skipped on the entries whose power underflows to 0
    (``_plan``).

    A ladder whose first stage starts cold first runs the warm-up
    temperatures of ``_warm_up``, whose steps the trace records at their
    own etas and stage 0's entries count.

    ``max_iters`` bounds each stage's steps and each warm-up temperature's;
    on an exhausted budget the iterate reached is returned with
    ``converged=False``, but an exhausted warm-up temperature only ends
    the warm-up.  ``snapshot_stride``
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
    stage_fits: List[int] = []
    k_global = 0
    ends: List[Tuple[np.ndarray, np.ndarray]] = []
    warm = _warm_up(problem.weights, r, schedule.stages)
    stages = [(e, schedule.stages[0][1]) for e in warm] + list(schedule.stages)
    converged = True
    t0 = time.perf_counter()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for k, (eta, tol) in enumerate(stages):
                if k < len(warm) and not converged:
                    continue  # an exhausted warm-up temperature ends the warm-up
                stage = _Stage(z, r, c, eta, alpha, beta)
                crit = stage.column_fit()
                mixer = _Mixer(stage)
                while True:
                    crit_before = crit
                    crit = mixer.step(crit)
                    k_global += 1
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
                    if len(mixer.crits) >= max_iters:
                        break
                z = stage.materialized()
                alpha, beta = stage.scalings()
                if 0 < k <= len(warm):  # the warm-up and stage 0 count in one entry
                    stage_iterations[-1] += len(mixer.crits)
                    stage_fits[-1] += mixer.fits
                else:
                    stage_iterations.append(len(mixer.crits))
                    stage_fits.append(mixer.fits)
                converged = crit < tol  # else the stage's budget ran out
                if not converged:
                    if k >= len(warm):
                        break
                    ends = []
                    continue
                ends = ends[-1:] + [(alpha, beta)]
                if len(ends) == 2 and k + 1 < len(stages):
                    etas = (stages[k - 1][0], eta, stages[k + 1][0])
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
        stage_fits=tuple(stage_fits),
    )
