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

The iteration is one dense kernel, and ``solve`` runs this loop::

    s = column_multipliers(z, c, eta)           # at each stage start
    z, t, s = z_step(z, s**omega, r, c, eta)    # per iteration

``z_step`` returns the column multipliers of the new z alongside it, so
each norm is computed once per step: ``s`` is both the stopping
measurement of the step just taken and the column fit of the next one.

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

As eta anneals, z^(1/eta) concentrates on a thin support, and in the late
stages most cells lie far below the truncation cutoff, so ``solve``
steps the live cells only, as a shortlist.  After each
stage's first step, ``solve`` lists the cells whose column or row ratio
lies above the cutoff times e^-delta, one cutoff band lower, with delta =
(54 + ceil(log2 max(n, m))) * eta * ln 2.  When at most
``SHORTLIST_SHARE`` of the cells are listed, the stage's further steps
update only the listed values, in ``z_step``'s multiply order, and take
both norms by segment reductions over them (``segment_power_norm``).
The other cells are held as z_base_ij * V_j * U_i, with U and V the row
and column multipliers since the list was built: a column ratio moves
only with U and a row ratio only with V, so while log(max U / min U) and
log(max V / min V) stay at or below delta/2 every off-list term is
truncated by the dense kernel too, and the shortlist step is the dense
step up to the order in which kept terms are summed.  A step that would
break that drift bound finishes on the materialized z, and the list is
rebuilt after it.  An over-relaxed step moves V by s^omega, under the
same bound.  This is the truncated sparse scaling of
Schmitzer (SIAM J. Sci. Comput. 2019), with the stage's own multipliers
in place of absorbed potentials.

Annealing runs the iteration over a decreasing temperature ladder.  The
z matrix is carried unchanged between stages: z encodes the dual
potentials (z_ij = exp(a_ij - lambda_i - mu_j)), so keeping it fixed
warm-starts each colder stage from the incumbent potentials while the
plan x = z^(1/eta) resharpens, which is what makes staging effective.
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

#: A stage runs on its shortlist of live cells only when at most this share
#: of the matrix is listed; delta, the listing margin below the cutoff, is
#: one cutoff band, (54 + ceil(log2 max(n, m))) * eta * ln 2, and the
#: off-list multipliers may drift by delta/2 (see the module docstring).
#: Measured crossover, steady-state steps on the 256x256 paper grid, 2-vCPU
#: shared Intel Xeon, numpy 2.4: with 7.9% of cells listed (the final
#: stage) a dense step takes about 850 us and a shortlist step about
#: 260 us; with 30% (stage 5) about 930 against 590 us; with 74% (stage
#: 1) the shortlist step no longer wins, 1510 against 1580 us.  The switch
#: sits below the crossover so that a shortlist also pays for its build,
#: which costs about one dense step, and for the dense steps of its
#: fallbacks.
SHORTLIST_SHARE = 0.3


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


@dataclass(frozen=True)
class LineList:
    """Listed cells of a matrix, grouped into its lines along ``axis``.

    ``axis`` has ``power_norm``'s meaning: 0 for column lines, 1 for row
    lines.  A value list ordered line by line holds line l's cells at
    positions ``starts[l]`` up to ``starts[l + 1]``; ``line`` gives the
    line of each position, and ``length`` the full length of a line, which
    sets its truncation cutoff.  Every line holds at least one cell.
    """

    axis: int
    length: int
    starts: np.ndarray
    line: np.ndarray


def segment_power_norm(
    values: np.ndarray, eta: float, lines: LineList, ratio: np.ndarray, terms: np.ndarray
) -> np.ndarray:
    """``power_norm`` of each line of ``lines``, from its listed values only.

    ``values`` is ordered as ``lines`` lists it; ``ratio`` and ``terms``
    are work buffers of its size.  Maxima and sums are segment reductions
    (``reduceat``), and the truncation is ``power_norm``'s.  When every
    unlisted entry of a line lies at or below the line's cutoff, the dense
    kernel drops it too, and the two results differ only by the order in
    which the kept terms are summed.
    """
    vmax = np.maximum.reduceat(values, lines.starts)
    np.divide(values, vmax[lines.line], out=ratio)
    terms.fill(0.0)
    np.power(ratio, 1.0 / eta, out=terms, where=~(ratio <= _cutoff(lines.length, eta)))
    return vmax * np.power(np.add.reduceat(terms, lines.starts), eta)


class _ListBuffers:
    """List-sized work arrays that the shortlists of one stage share.

    Each list takes views of its own size.  The arrays are sized to the
    first list and regrown only when a later list outgrows them, so a
    rebuild allocates no list-sized array that outlives it.
    """

    def __init__(self):
        self.capacity = 0

    def views(self, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Five index and four value arrays of length ``size``, as rows."""
        if size > self.capacity:
            self.capacity = size
            self.index, self.values = np.empty((5, size), dtype=np.intp), np.empty((4, size))
        return self.index[:, :size], self.values[:, :size]


class _Shortlist:
    """A stage's z, held as its listed values plus multipliers for the rest.

    Off-list cells are z_base_ij * V_j * U_i, where z_base is the z the list
    was built from and U, V are the products of the row and column
    multipliers since.  A cell's column ratio moves only with U and its row
    ratio only with V, so an off-list cell, listed out at a ratio below its
    cutoff times e^-delta, stays at or below the cutoff while both
    log(max U / min U) and log(max V / min V) are at most delta/2.
    """

    def __init__(self, z: np.ndarray, listed: np.ndarray, eta: float, max_drift: float, buffers: _ListBuffers):
        n, m = z.shape
        flat = np.flatnonzero(listed)
        index, values = buffers.views(flat.size)
        self.flat, self.rows, self.cols, col_cols, self.perm = index
        self.vals, self.gathered, self.ratio, self.terms = values
        np.copyto(self.flat, flat)
        np.divmod(self.flat, m, out=(self.rows, self.cols))
        col_rows = np.flatnonzero(listed.T)
        np.divmod(col_rows, n, out=(col_cols, col_rows))
        row_counts = np.bincount(self.rows, minlength=n)
        col_counts = np.bincount(col_cols, minlength=m)
        self.by_row = LineList(1, m, np.cumsum(row_counts) - row_counts, self.rows)
        self.by_col = LineList(0, n, np.cumsum(col_counts) - col_counts, col_cols)
        # perm maps the column order onto the row order the values are kept
        # in: flat is sorted, so a cell's row-order position is its rank there.
        col_rows *= m
        col_rows += col_cols
        np.copyto(self.perm, np.searchsorted(self.flat, col_rows))
        self.z_base, self.eta, self.max_drift = z, eta, max_drift
        np.take(z, self.flat, out=self.vals)
        self.U, self.V = np.ones(n), np.ones(m)

    @classmethod
    def build(cls, z: np.ndarray, eta: float, buffers: Optional[_ListBuffers] = None) -> Optional["_Shortlist"]:
        """List z's live cells, or None when more than SHORTLIST_SHARE are.

        The list's arrays are views of ``buffers`` (fresh ones by default).
        """
        n, m = z.shape
        col_cut, row_cut = _cutoff(n, eta), _cutoff(m, eta)
        band = min(col_cut, row_cut)  # e^-delta
        listed = z > np.maximum.reduce(z, axis=0) * (col_cut * band)
        listed |= z > (np.maximum.reduce(z, axis=1) * (row_cut * band))[:, None]
        if np.count_nonzero(listed) > SHORTLIST_SHARE * z.size:
            return None
        return cls(z, listed, eta, -0.5 * np.log(band), buffers or _ListBuffers())

    def step(self, s: np.ndarray, r_eta: np.ndarray, c_eta: np.ndarray):
        """``z_step`` on the listed values: (t, s_next), or None.

        None, with nothing changed, when V would drift too far for the row
        norms.  s_next is None when the row fit is done but U has drifted
        too far for the column norms.
        """
        V = self.V * s
        if _log_spread(V, 1.0) > self.max_drift:
            return None
        vals = self.vals
        vals *= np.take(s, self.cols, out=self.gathered)
        t = r_eta / segment_power_norm(vals, self.eta, self.by_row, self.ratio, self.terms)
        vals *= np.take(t, self.rows, out=self.gathered)
        self.V = V
        self.U *= t
        if _log_spread(self.U, 1.0) > self.max_drift:
            return t, None
        np.take(vals, self.perm, out=self.gathered)
        return t, c_eta / segment_power_norm(self.gathered, self.eta, self.by_col, self.ratio, self.terms)

    def materialize(self) -> np.ndarray:
        z = self.z_base * self.V
        z *= self.U[:, None]
        np.put(z, self.flat, self.vals)
        return z


class _Stage:
    """One annealing stage's iterate, stepped as ``z_step`` steps z.

    The stage starts on z itself.  After its first step, and after each
    step that left the shortlist, it lists the live cells; when few enough
    are listed, the following steps run on the shortlist.
    """

    def __init__(self, z: np.ndarray, r: np.ndarray, c: np.ndarray, eta: float):
        self.z, self.r, self.c, self.eta = z, r, c, eta
        self.r_eta, self.c_eta = r**eta, c**eta
        self.shortlist: Optional[_Shortlist] = None
        self.buffers = _ListBuffers()
        self.first, self.relist = True, False
        self.z_before: Optional[np.ndarray] = None  # the last step's input, if it was dense

    def step(self, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self.relist:
            self.shortlist, self.relist = _Shortlist.build(self.z, self.eta, self.buffers), False
        shortlist = self.shortlist
        if shortlist is not None:
            stepped = shortlist.step(s, self.r_eta, self.c_eta)
            if stepped is not None:
                t, s_next = stepped
                self.z_before = None
                if s_next is None:
                    self.z, self.shortlist, self.relist = shortlist.materialize(), None, True
                    s_next = column_multipliers(self.z, self.c, self.eta)
                return t, s_next
            self.z, self.shortlist = shortlist.materialize(), None
        self.z_before = self.z
        self.z, t, s = z_step(self.z, s, self.r, self.c, self.eta)
        self.relist, self.first = self.first or shortlist is not None, False
        return t, s

    def unmoved(self) -> bool:
        """Whether the last step was dense and left z bit for bit unchanged.

        A shortlist step never counts as unmoved: listed values that stop
        moving while the criterion stays above tol leave s non-uniform, so V
        drifts until the stage falls back to a dense step, and that step's
        comparison of the whole z decides.
        """
        return self.z_before is not None and np.array_equal(self.z_before, self.z)

    def materialized(self) -> np.ndarray:
        return self.z if self.shortlist is None else self.shortlist.materialize()


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
    plain iteration.  z carries over to the next stage unchanged.  The
    returned scalings are the cumulative products of the step multipliers
    (the column ones as applied, s**omega) together with the
    equilibration, and satisfy x_ij = (alpha_i b_ij / beta_j)^(1/eta_final)
    with b the internal (sense-adjusted) coefficients.

    Once few enough cells are live, a stage steps only its listed cells
    (see the module docstring); the iterates then agree with those of
    ``z_step`` under the same omegas to rounding, and the per-stage
    iteration counts are the same on the paper grids and the desk
    problems.  z is materialized for snapshots and at each stage end.

    ``max_iters`` bounds each stage; on an exhausted budget the iterate
    reached is returned with ``converged=False``.  ``snapshot_stride``
    records the plan every that many iterations in ``trace.snapshots``.
    An overflow, division by zero or invalid operation while iterating
    raises NonFiniteEntry.  A dense step that repeats the criterion and
    leaves z unchanged raises NumericalDegeneracy.
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
                stage = _Stage(z, r, c, eta)
                s = column_multipliers(z, c, eta)
                crit = _log_spread(s, eta)
                crits: List[float] = []
                omega = 1.0
                while True:
                    crit_before = crit
                    fit = s**omega
                    beta /= fit
                    t, s = stage.step(fit)
                    alpha *= t
                    iters += 1
                    k_global += 1
                    crit = _log_spread(s, eta)
                    crits.append(crit)
                    trace.record(k_global, eta, crit, time.perf_counter() - t0)
                    if snapshot_stride and k_global % snapshot_stride == 0:
                        trace.snapshots.append((k_global, stage.materialized() ** (1.0 / eta)))
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
