"""Temperature-regularized scaling iteration with stagewise annealing.

The additive problem max sum(a*x) is smoothed by replacing each linear
reward a_ij*x with a_ij*x + eta*(-x log x); on the multiplicative side
this is the isoelastic family b_ij * x^(1-eta)/(1-eta).  The resulting
fixed-point iteration alternates column and row fits of the matrix
z_ij = alpha_i b_ij / beta_j, from which the plan is x = z^(1/eta):

    s_j = c_j^eta / ||z_:j||_{1/eta}        (column multipliers)
    t_i = r_i^eta / ||z_i:'||_{1/eta}       (row multipliers, post column fit)

The column multipliers of each step give its stopping criterion for
free (``criterion``).  Annealing runs the iteration over a decreasing
temperature ladder (``AnnealingSchedule``), and each colder stage starts
from the potentials the last one reached, which z encodes:
z_ij = exp(a_ij - lambda_i - mu_j).

Each rule of the solver is stated once, in the docstring of the code
that enforces it:

- ``power_norm``: the max-factored 1/eta-norm, and the truncation of the
  terms that cannot move it.
- ``z_step``: the dense step, a column fit by a given scaling and an
  exact row fit, which returns the new z's column multipliers, so that
  each norm is taken once per step.
- ``_Stage``: one stage's iterate.  Problems with a side below 4 step by
  ``z_step``; larger ones step on a kernel of the powered matrix, with
  its zero band, level limit and bounds, absorption, target guard and
  dense fallback.
- ``_relaxation``: the over-relaxation of the column fit, its probe and
  its safeguard.
- ``_Mixer``: the column scaling each step applies, relaxed or mixed at
  depth 1, the mix's guards and its rollback.
- ``_secant_prediction``: the predicted start of a colder stage.
- ``_warm_up``: the hot start of a ladder whose first stage starts cold.
- ``solve``: the stage loop's contract: what it counts, what it returns
  and the errors it raises.
- ``_plan``: the plan z^(1/eta), with pow skipped where it underflows.
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
#: kernel between dense steps (see ``_Stage``).
_KERNEL_MIN_SIDE = 4


def _truncation_bits(n: int) -> int:
    """The truncation exponent 54 + ceil(log2 n) of a length-n line (see ``power_norm``)."""
    return 54 + (n - 1).bit_length()


def _cutoff(n: int, eta: float) -> float:
    """Truncation cutoff of a length-n line: ratios at or below it are dropped."""
    return 2.0 ** (-_truncation_bits(n) * eta)


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

    The maximum and the sum are the ufunc reductions behind ``np.max`` and
    ``np.sum``, called directly to skip the wrappers' per-call dispatch.
    ``axis`` is None, 0, or 1 on a matrix; any other axis raises
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
    """Plan, recovered scalings, trace, and per-stage counts (see ``solve``).

    ``final_z`` is the raw iteration state the plan was extracted from;
    kept for debugging since the plan itself may underflow where z is
    merely below 1.
    """

    plan: TransportPlan
    scalings: Scalings
    trace: ConvergenceTrace
    converged: bool
    stage_iterations: Tuple[int, ...]
    final_criterion: float
    final_z: np.ndarray
    stage_fits: Tuple[int, ...]

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
#: larger of 1 and the z-domain level limit: the multipliers are rounded in
#: the z domain, and 1/eta takes the slack to plan nats (see ``_Stage``).
_LEVEL_SLACK = 64 * float(np.finfo(float).eps)

#: The stage kernel's zero band, in cutoffs, and the cap on its level limit
#: in z-domain nats (see ``_Stage``).
_BAND = 7
_LEVEL_CAP = 2.0


def _truncated_power(ratio: np.ndarray, eta: float, cut: float) -> np.ndarray:
    """ratio^(1/eta) where ratio lies above ``cut``, zero elsewhere."""
    return np.power(ratio, 1.0 / eta, out=np.zeros(ratio.shape), where=ratio > cut)


def kernel_fit(stage: _Stage, axis: int) -> np.ndarray:
    """The plan-domain multipliers that fit this axis of the stage's z exactly: the next u (axis 1) or v (axis 0).

    This is ``own * target / (line sums of the plan)``, with ``own`` the
    stage's u or v, ``target`` r or c and the plan the materialized z
    raised to 1/eta (see ``_Stage``).
    """
    if axis == 1:
        return stage.row_target / stage.K_row.dot(stage.v)
    return stage.col_target / stage.K_colT.dot(stage.u)


class _Stage:
    """One annealing stage's iterate, stepped as ``z_step`` steps z.

    The stage owns the scalings alpha and beta of its z, with
    x = (alpha b / beta)^(1/eta) (``scalings``), and its z's column
    multipliers ``s``.  A problem with a side below ``_KERNEL_MIN_SIDE``
    (4) steps densely throughout, with z_base the current z.  Each step is
    a ``z_step`` whose t and s are folded into the scalings by one
    multiply and one divide, so its iterates and scalings are those of a
    loop over ``z_step`` bit for bit.

    A larger problem holds z on a kernel, the stabilized scaling of
    Schmitzer (SIAM J. Sci. Comput. 2019), as z_base_ij * V_j * U_i:
    z_base is the z the kernel was built from, and U, V are the products
    of the row and column multipliers since, held in the plan domain as
    u = U^(1/eta) and v = V^(1/eta).  ``_build`` makes every kernel: at the
    stage start, at each absorption and after each dense step.
    ``K_row`` holds (z_base / R[:, None])^(1/eta), with R the row maxima of
    z_base, ``K_colT`` (z_base / C)^(1/eta), with C its column maxima,
    stored transposed, and ``row_target`` and ``col_target`` the powered
    targets (r^eta / R)^(1/eta) and (c^eta / C)^(1/eta).  So each fit is
    one matrix-vector product and one divide (``kernel_fit``), the form of
    Cuturi's Sinkhorn iteration (NeurIPS 2013), at the same cost whatever
    share of the cells is live.  The row fit is the next u.  The column
    fit is w, the v that fits the columns, so s = w / v in the plan domain.
    A kernel step agrees with ``z_step`` from the same z under the same
    column scaling up to the order of summation and of the scalar
    products.  ``on_kernel`` tells whether the current build is a kernel
    (and ``s`` in the plan domain) or dense (``s`` in the z domain).

    A ratio at or below its line's cutoff (``_cutoff``) times e^(-F delta)
    is stored as zero, with F = ``_BAND`` (7) cutoffs,
    delta = (54 + k) * eta * ln 2 and k = ceil(log2 max(n, m)).  A row
    ratio moves only with V and a column ratio only with U, so while
    log(max u / min u) and log(max v / min v) are at most F delta / eta,
    every zeroed term stays at or below its cutoff, and ``power_norm``
    drops it too.  One rule decides every absorption: the levels
    max |log u| and max |log v| are held to ``level_limit``,
    ``max_level / eta``, with ``max_level`` the z-domain limit, the smaller
    of two.  F delta / 4 keeps both spreads, at most twice the level,
    within F delta / 2, so every zeroed term stays truncated.  It also
    keeps every product normal: kept entries are at least
    2^-((F + 1)(54 + k)) and the multipliers lie within
    2^(+-F (54 + k) / 4), so every product of the two is at least
    2^-((1.25 F + 1)(54 + k)), normal while (1.25 F + 1)(54 + k) < 1022,
    at F = 7 for any side below 2^50, and no sum overflows.
    ``_LEVEL_CAP``, 2 nats, bounds rounding: the exponent 1/eta is rounded,
    so a power M^(1/eta) carries a relative error up to |log M| eps / 2
    into the fit, about one ulp at 2 nats.  It binds only above eta of
    about 0.027.

    The levels are bounded rather than taken at every step.  ``u_level``
    and ``v_level`` are 0 at a build and grow by the step's bound on
    max |log f| for its column scaling f, plus ``slack``.  v moves by f
    itself.  When the z held before a step has its rows fit exactly at
    the stage's eta, the plan's row sums after the column fit lie within
    [min f, max f] times r, so the row fit lies in [1 / max f, 1 / min f]
    and u's level also moves by at most max |log f| (Franklin and Lorenz,
    "On the scaling of multidimensional matrices", Linear Algebra Appl.
    1989).  Every step ends with a row fit and every rebuild is from a
    row-fit z, but the stage's first kernel is built from the z it starts
    from, whose rows are fit at another eta or not at all, so both bounds
    start at infinity and the first step takes both exact levels.  Only a
    bound that passes ``level_limit`` takes the exact level, which then
    replaces it, so every decision is the one exact checks at every step
    would make.

    A level past the limit is absorbed by a rebuild from the materialized
    z.  A column fit that puts v past it is retried on the fresh kernel,
    and only a fit that a fresh kernel cannot take steps densely, by
    ``z_step`` with the fit in the z domain, f^eta; the kernel is then
    rebuilt from the step's z and takes its own column fit.  A row fit
    that puts u past it is kept, and the column fit is taken on the
    rebuilt kernel.  The target guard holds the powered targets to the
    same limit: a build whose z-domain targets r^eta / R or c^eta / C have
    a level past ``max_level`` could not power them in range, so it holds
    z densely until the next build, and the next step is a ``z_step``.  A
    build from a row-fit z has its row targets in [1, m^eta], within the
    limit whenever eta log m <= 2, so the guard fires at a stage start far
    from row-fit at the stage's eta, such as a first stage's
    row-equilibrated start.
    """

    def __init__(self, z: np.ndarray, r: np.ndarray, c: np.ndarray, eta: float, alpha: np.ndarray, beta: np.ndarray):
        self.r, self.c, self.eta = r, c, eta
        self.r_eta, self.c_eta = r**eta, c**eta
        self.alpha, self.beta = alpha, beta
        self.before: Optional[Tuple[np.ndarray, np.ndarray]] = None  # see ``unmoved``
        self.on_kernel = False  # whether the current build is a kernel; none yet
        self.kernel_sized = min(z.shape) >= _KERNEL_MIN_SIDE
        col_cut, row_cut = _cutoff(z.shape[0], eta), _cutoff(z.shape[1], eta)
        delta = _truncation_bits(max(z.shape)) * eta * math.log(2.0)  # -log min(col_cut, row_cut)
        band = math.exp(-_BAND * delta)
        self.row_cut, self.col_cut = row_cut * band, col_cut * band  # _BAND cutoffs lower
        self.max_level = min(_BAND * delta / 4, _LEVEL_CAP)
        self.level_limit = self.max_level / eta
        self.slack = _LEVEL_SLACK * max(1.0, self.max_level) / eta
        self._build(z)
        self.u_level = self.v_level = np.inf  # z's rows are not fit at this eta

    def _build(self, z: np.ndarray) -> None:
        """Hold z as z_base, on a fresh kernel unless the target guard holds it densely (``on_kernel``).

        The current kernel's U and V are folded into the scalings first,
        alpha * U and beta / V.  The fresh kernel has u = v = 1 and its
        level bounds 0.
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

    ``argmax`` and ``argmin`` find the extremes at less cost than
    ``np.maximum.reduce`` on a desk-sized vector.
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
    """Over-relaxation factor omega of a stage's next column fit, which applies s^omega in place of s.

    ``crits`` holds the post-step criteria of the stage so far, and
    ``omega`` the factor of the step just taken.  A stage takes 8 plain
    steps (omega = 1), estimates the criterion's contraction rate as
    theta = (crit_8 / crit_4)^(1/4), and sets omega = min(1.9,
    2 / (1 + sqrt(1 - theta))), the optimal factor for a linear iteration
    contracting at that rate, or 1 when theta >= 1 (Lehmann, von Renesse,
    Sambale and Uschmajew, Optim. Lett. 2022).  After that only the
    safeguard changes it: a criterion that is not below its value 10 steps
    earlier while omega > 1 drops omega to 1 for the rest of the stage
    (Thibault, Chizat, Dossal and Papadakis, Algorithms 2021).
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

    Every step goes through ``_Stage.step`` with the column scaling to
    apply and a bound on its level in plan nats.  The row fit stays exact,
    and the criterion is that of the exact column multipliers s of the new
    z whatever scaling was applied, so a stage stops on the condition of
    the plain iteration.  Once the rows are fit the plan's column sums
    total sum(c), so min s <= 1 <= max s, and f = log s in plan nats
    (log(s) / eta on a dense build) has max |f| <= crit.  The relaxed
    step applies s^omega (``_relaxation``), with the bound omega crit.

    On a stage with at least 4 rows and columns the first step after the
    probe is relaxed, and each later one mixes at depth 1 (Anderson, J.
    ACM 1965; Walker and Ni, SIAM J. Numer. Anal. 2011): with
    dF = f - f_prev and x_prev the log scaling the last step applied,
    gamma = dF.f / dF.dF, and the step applies exp(x),
    x = omega f - gamma (x_prev + omega dF), with the bound
    |omega (1 - gamma)| crit + |gamma omega| crit_prev + |gamma| b_prev,
    b_prev the last step's, widened by a factor 1 + 1e-12.  Mixing amplifies the
    rounding by which a kernel step parts from ``z_step``, so a whole
    kernel run may part from a dense one.  Three guards take the relaxed
    step instead: unless dF.dF > 0 and gamma < 1, so that x keeps a
    positive weight on f (a step with gamma near 1 barely moves, and on a
    plateau of the criterion such steps stall a stage); when neither its
    bound nor its level max |x| is within ``_Stage.level_limit``, which no
    fresh kernel could take; and, from an undone mixed step until one is kept
    again, when the kernel refuses its column fit, which is then not
    absorbed by a rebuild.  A mixed step is kept if its criterion is below
    twice the stage's best so far; otherwise the stage is restored and the
    step redone as the relaxed one (a rollback after Zhang, O'Donoghue and
    Boyd, SIAM J. Optim. 2020).
    ``crits`` holds the criteria of the kept steps, and ``fits`` counts
    every row fit, undone ones included.
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

    On the support a_ij - lambda_i - mu_j = eta * log x_ij, and x(eta)
    tends to an LP vertex, so the potentials that z encodes move by about
    eta times a fixed vector from one stage to the next (Cominetti and San
    Martin, Math. Programming 1994; Weed, COLT 2018), and a start carried
    over unchanged is off by that first-order term.  ``ends`` holds the
    cumulative (alpha, beta) at the ends of the two stages just run, older
    first, and ``etas`` their temperatures and the next one.  Within a
    stage z changes only by row and column scalings, so between the two
    ends it moved by A = alpha_k / alpha_(k-1) on the rows and
    B = beta_k / beta_(k-1) on the columns, and z * A^w / B^w with
    w = (eta_(k+1) - eta_k) / (eta_k - eta_(k-1)) is log z continued along
    that secant: pow on n + m values, with no log or exp over the matrix.
    w is capped at 1, so the start is never extrapolated further than the
    last stage's own move; geometric ladders have w = 1/factor and are
    unaffected, while two nearly equal temperatures followed by a larger
    step would otherwise raise the scalings to a huge power.  Returns
    (z, alpha, beta), all scaled alike, so that x = (alpha b / beta)^(1/eta)
    still holds.
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
    """The warm-up temperatures of a ladder's first stage, hottest first, or none.

    The first stage starts cold, from the row-equilibrated z, whose row
    ratios exp(a_ij - max_j a_ij) reach spread / eta_0 plan nats, with
    spread = max(a) - min(a).  Past B = (F + 1)(54 + k) ln 2 plan nats,
    the largest log ratio a fresh kernel keeps (its zero band of F cutoffs
    plus the cutoff, F and k as in ``_Stage``), it stalls on long plateaus
    of the criterion.  So a ladder of two or more stages with
    spread / eta_0 > B starts hot (epsilon-scaling; Kosowsky and Yuille,
    Neural Networks 1994; Schmitzer, SIAM J. Sci. Comput. 2019): it is
    continued upward by its ratio eta_0 / eta_1, for at most 32
    temperatures, to the first at or above 4 spread / B, where the spread
    fits in a quarter of the band.  Any above
    min(1, 100 / (spread + |log sum(r)|)) is dropped, since r^eta could
    leave the float range there.
    """
    spread = float(weights.max()) - float(weights.min())
    band = (_BAND + 1) * _truncation_bits(max(weights.shape)) * math.log(2.0)
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

    b = exp(a), with a negated first for minimization, is row-equilibrated
    into the first z (``row_equilibrate``).  Each stage of ``schedule`` is
    a ``_Stage`` whose column fits a ``_Mixer`` sets, stepped until the
    criterion of the post-step plan drops below the stage's tol.  The
    warm-up temperatures of ``_warm_up``, if any, run first as stages with
    stage 0's tol, and each stage run right after two converged ones
    starts from ``_secant_prediction``.

    A step is a kept row fit.  The trace records one criterion per step at
    its stage's eta, the warm-up's included, and ``snapshot_stride``
    records the plan every that many steps in ``trace.snapshots``.
    ``stage_iterations`` counts each stage's steps and ``stage_fits`` its
    row fits, the steps plus the mixed steps undone and redone; stage 0's
    entries include the warm-up's.  ``max_iters`` bounds the steps of each
    stage and of each warm-up temperature.  A stage that runs out ends the
    solve with ``converged=False`` and the entries up to its own, and the
    plan is extracted at its eta.  A warm-up temperature that runs out
    ends only the warm-up, and stage 0 starts from the z it reached.  The
    returned scalings satisfy x_ij = (alpha_i b_ij / beta_j)^(1/eta), with
    b the sense-adjusted coefficients, and ``final_z`` is the z the plan
    was extracted from (``_plan``).

    An overflow, division by zero or invalid operation raises
    NonFiniteEntry, naming the eta and the iteration or the prediction
    where it happened.  A step that repeats the criterion and is found to
    leave z unchanged raises NumericalDegeneracy (``_Stage.unmoved``).
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
    steps, fits = [0] * len(schedule.stages), [0] * len(schedule.stages)
    k_global = 0
    ends: List[Tuple[np.ndarray, np.ndarray]] = []
    warm = _warm_up(problem.weights, r, schedule.stages)
    stages = [(e, schedule.stages[0][1]) for e in warm] + list(schedule.stages)
    converged = True
    where = None  # the prediction, while one runs
    t0 = time.perf_counter()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for k, (eta, tol) in enumerate(stages):
                if k < len(warm) and not converged:
                    continue  # an exhausted warm-up temperature ends the warm-up
                entry = max(k - len(warm), 0)  # the warm-up counts in stage 0's entries
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
                steps[entry] += len(mixer.crits)
                fits[entry] += mixer.fits
                converged = crit < tol  # else the stage's budget ran out
                if not converged and k >= len(warm):
                    break
                ends = ends[-1:] + [(alpha, beta)] if converged else []
                if len(ends) == 2 and k + 1 < len(stages):
                    where = "the prediction of the next stage's start"
                    z, alpha, beta = _secant_prediction(z, ends, (stages[k - 1][0], eta, stages[k + 1][0]))
                    where = None
    except FloatingPointError as exc:
        raise NonFiniteEntry(f"{exc} at eta={eta} in {where or f'iteration {k_global + 1}'}") from exc
    plan = TransportPlan.against(_plan(z, schedule.stages[entry][0]), problem.row_marginals, problem.col_marginals)
    return SolveResult(
        plan=plan,
        scalings=Scalings(alpha, beta),
        trace=trace,
        converged=converged,
        stage_iterations=tuple(steps[:entry + 1]),
        final_criterion=float(crit),
        final_z=z,
        stage_fits=tuple(fits[:entry + 1]),
    )
