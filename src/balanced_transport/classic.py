"""Non-regularized scaling map, plain IPFP in both forms, and the general
concave marginal-inverse iteration.

The non-regularized map is the eta -> 0 limit of the regularized update:
column maxima replace column norms and row minima replace row norms.  It
reaches a fixed point after a single application but has many fixed
points, none of which determines a plan, which is why regularization is
needed in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import (
    DivisionDegeneracy,
    LengthMismatch,
    MaxItersExceeded,
    NonPositiveEntry,
    NonPositiveMarginal,
    Overflow,
    RootBracketFailure,
    ValidationError,
    ZeroLine,
)
from .model import DualPotentials

#: Cycle detection: no 10% improvement of the running-minimum column error
#: over this many consecutive iterations, while the error stays above
#: CYCLE_ERROR_FLOOR, is declared cycling.
CYCLE_WINDOW = 200
CYCLE_IMPROVEMENT = 0.9
CYCLE_ERROR_FLOOR = 1e-6


def nonreg_step(alpha: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One application of the max/min update.

    beta_j = max_i alpha_i b_ij (the column maxima of the row-scaled
    matrix) and alpha_hat_i = min_j beta_j / b_ij, i.e. each row is
    rescaled by the smallest factor that makes it reach some column
    maximum.  Column maxima are unchanged, and a second application
    reproduces the first up to a couple of ulps.
    """
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(alpha > 0):
        raise NonPositiveEntry("alpha must be strictly positive")
    if not np.all(b > 0):
        raise NonPositiveEntry("matrix must be strictly positive")
    scaled = alpha[:, None] * b
    beta = np.max(scaled, axis=0)
    # Relative form: ratios beta_j / (alpha_i b_ij) are >= 1 exactly, so a
    # state whose rows already touch their column maxima is a bitwise
    # fixed point.
    rho = np.min(beta[None, :] / scaled, axis=1)
    return alpha * rho, beta


def ipfp_vector(
    x0: np.ndarray,
    u0: np.ndarray,
    r: np.ndarray,
    c: np.ndarray,
    iters: int,
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Cumulative-form IPFP: returns [(u, v, x)] for k = 1..iters.

    v_j = c_j / sum_i(u_i x0_ij), u_i = r_i / sum_j(x0_ij v_j), and
    x = u_i x0_ij v_j.  With u0 all ones this produces the same matrix
    sequence as the incremental matrix form.
    """
    x0 = np.asarray(x0, dtype=float)
    u = np.asarray(u0, dtype=float).copy()
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    if not np.all(x0 > 0):
        raise NonPositiveEntry("vector-form IPFP requires a strictly positive start matrix")
    if not np.all(u > 0):
        raise NonPositiveEntry("u0 must be strictly positive")
    if iters < 1:
        raise ValidationError(f"iters must be >= 1, got {iters}")
    out = []
    for _ in range(iters):
        den_v = x0.T @ u
        if np.any(den_v == 0):
            raise DivisionDegeneracy("column denominator underflowed to zero")
        v = c / den_v
        den_u = x0 @ v
        if np.any(den_u == 0):
            raise DivisionDegeneracy("row denominator underflowed to zero")
        u = r / den_u
        x = u[:, None] * x0 * v[None, :]
        out.append((u.copy(), v.copy(), x))
    return out


@dataclass
class IPFPMatrixResult:
    """Outcome of the incremental matrix iteration.

    ``status`` is one of ``converged``, ``cycling``, or ``max_iters``.
    ``col_errors[k]`` is the infinity-norm column-sum error before
    iteration k+1; ``history`` holds the post-step matrices when
    requested.
    """

    x: np.ndarray
    status: str
    iterations: int
    col_errors: List[float] = field(default_factory=list)
    history: Optional[List[np.ndarray]] = None


def ipfp_matrix(
    x0: np.ndarray,
    r: np.ndarray,
    c: np.ndarray,
    max_iters: int = 10_000,
    tol: float = 1e-12,
    keep_history: bool = False,
) -> IPFPMatrixResult:
    """Incremental IPFP: column-normalize, then row-normalize, repeatedly.

    Stops as soon as the column-sum error max_j |colsum_j - c_j| falls to
    ``tol`` (an already-feasible start therefore takes zero iterations).
    Declares cycling when that error makes no 10% improvement on its
    running minimum over ``CYCLE_WINDOW`` consecutive iterations while
    staying above ``CYCLE_ERROR_FLOOR``; sparse support patterns that
    cannot meet both marginals show exactly this signature.
    """
    x = np.array(x0, dtype=float)
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.any(x < 0):
        raise NonPositiveEntry("start matrix must be nonnegative")
    row_mass = x.sum(axis=1)
    col_mass = x.sum(axis=0)
    if np.any(row_mass == 0) or np.any(col_mass == 0):
        k = int(np.argmax(row_mass == 0)) if np.any(row_mass == 0) else int(np.argmax(col_mass == 0))
        kind = "row" if np.any(row_mass == 0) else "column"
        raise ZeroLine(f"{kind} {k + 1} of the start matrix is entirely zero")
    history: Optional[List[np.ndarray]] = [] if keep_history else None
    col_errors: List[float] = []
    running_min = np.inf
    last_progress = 0
    status = "max_iters"
    iterations = 0
    for k in range(max_iters + 1):
        col_sums = x.sum(axis=0)
        err = float(np.max(np.abs(col_sums - c)))
        col_errors.append(err)
        if err <= tol:
            status = "converged"
            iterations = k
            break
        if err < CYCLE_IMPROVEMENT * running_min:
            last_progress = k
        running_min = min(running_min, err)
        if k - last_progress >= CYCLE_WINDOW and err > CYCLE_ERROR_FLOOR:
            status = "cycling"
            iterations = k
            break
        if k == max_iters:
            iterations = k
            break
        x = x * (c / col_sums)[None, :]
        x = x * (r / x.sum(axis=1))[:, None]
        if history is not None:
            history.append(x.copy())
    return IPFPMatrixResult(x=x, status=status, iterations=iterations, col_errors=col_errors, history=history)


@dataclass(frozen=True)
class ConcaveFamily:
    """Indexed family of inverse marginal-reward functions F_ij.

    ``inverse_marginal`` maps an (n, m) matrix T of multiplier sums
    lambda_i + mu_j to the elementwise values F_ij(T_ij); each F_ij must
    be strictly decreasing and positive on the real line.  Construction
    spot-checks both properties at t = -1, 0 and 1, raising Overflow when
    a value there is infinite or zero (positive, but outside the float
    range) and ValidationError when one is negative or NaN or the values
    do not decrease; the iteration's root brackets start from the
    previous multipliers.
    """

    label: str
    n: int
    m: int
    inverse_marginal: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError("family dimensions must be >= 1")
        probes = (-1.0, 0.0, 1.0)
        with np.errstate(over="ignore", under="ignore"):
            vals = [self.evaluate(np.full((self.n, self.m), t)) for t in probes]
        for t, v in zip(probes, vals):
            if not np.all(v >= 0):
                raise ValidationError(f"family {self.label!r} is not positive at t = {t}")
            if np.any(np.isinf(v) | (v == 0)):
                raise Overflow(f"family {self.label!r} leaves the float range at t = {t}")
        for lo, hi in zip(vals, vals[1:]):
            if not np.all(hi < lo):
                raise ValidationError(f"family {self.label!r} is not strictly decreasing")

    def evaluate(self, T: np.ndarray) -> np.ndarray:
        out = np.asarray(self.inverse_marginal(np.asarray(T, dtype=float)), dtype=float)
        if out.shape != (self.n, self.m):
            raise LengthMismatch(f"family returned shape {out.shape}, expected {(self.n, self.m)}")
        return out


#: A root solve stops once its bracket is at most this wide.
ROOT_TOL = 1e-12

#: Bracket doublings allowed per root before RootBracketFailure.
MAX_BRACKET_EXPANSIONS = 200


@dataclass(frozen=True)
class ConcaveIterationParams:
    tol: float = 1e-10
    max_sweeps: int = 10_000

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValidationError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


@dataclass
class ConcaveIterationResult:
    duals: DualPotentials
    plan: np.ndarray
    sweeps: int
    residuals: List[float]
    plans: List[np.ndarray] = field(default_factory=list)


def _line_sums(values: np.ndarray) -> np.ndarray:
    """Row sums, each rounded as ``values[k].sum()`` alone (pairwise, unlike
    ``values.T.sum(axis=0)``, which adds rows one after another)."""
    return np.ascontiguousarray(values).sum(axis=1)


def _line_roots(
    G: Callable[[np.ndarray], np.ndarray],
    target: np.ndarray,
    start: np.ndarray,
    start_sums: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Roots of G_k(t) = target_k for independent strictly decreasing
    positive G_k, one ``G`` call per step.  ``start_sums``, when given, is
    ``G(start)``, and saves the first call.

    ``G`` maps probe points t to the line sums G_k(t_k); each entry solves
    h_k(t) = log(G_k(t) / target_k) = 0, where a zero sum gives -inf and
    an infinite one +inf.  Each entry brackets from ``start`` (step 1,
    doubling), then probes at the false-position point of its bracket,
    kept ROOT_TOL / 2 inside either end so that a probe next to the root
    closes the bracket.  When two false-position probes in a row keep the
    same end, that end's h is halved (Illinois).  An entry bisects instead
    when an end value is not finite or its bracket did not halve over its
    last two probes, so at least every third probe halves the bracket.  Each entry does what it would do
    alone; a stopped entry is probed again at its last point.  A NaN value
    ends the expansion and counts as negative.
    """

    def h(t, sums=None):
        with np.errstate(over="ignore", divide="ignore"):
            return np.log((G(t) if sums is None else sums) / target)

    lo = hi = t = start
    hlo = hhi = h(t, start_sums)
    down = hlo < 0  # need h(lo) >= 0: move lo left
    up = hhi > 0  # need h(hi) <= 0: move hi right
    step = 1.0
    for _ in range(MAX_BRACKET_EXPANSIONS):
        if not (down.any() or up.any()):
            break
        lo = np.where(down, lo - step, lo)
        hi = np.where(up, hi + step, hi)
        t = np.where(down, lo, np.where(up, hi, t))
        step *= 2.0
        ht = h(t)
        hlo = np.where(down, ht, hlo)
        hhi = np.where(up, ht, hhi)
        down &= ht < 0
        up &= ht > 0
    stuck = down | up
    if stuck.any():
        side = "below" if down[np.argmax(stuck)] else "above"
        raise RootBracketFailure(f"could not bracket the root from {side}")
    moved = np.zeros(np.shape(start))  # +1: a secant probe last moved lo, -1: hi
    width_before_last = width_before_that = np.full(np.shape(start), np.inf)
    while True:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        live = (width > ROOT_TOL) & (mid != lo) & (mid != hi)
        if not live.any():
            return mid
        dh = hlo - hhi
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = np.clip(lo + width * (hlo / dh), lo + 0.5 * ROOT_TOL, hi - 0.5 * ROOT_TOL)
        secant = (0 < dh) & (dh < np.inf) & (width <= 0.5 * width_before_that)
        t = np.where(live, np.where(secant, guess, mid), t)
        ht = h(t)
        above = live & (ht >= 0)
        below = live & ~above
        hhi = np.where(above & (moved > 0), 0.5 * hhi, hhi)
        hlo = np.where(below & (moved < 0), 0.5 * hlo, hlo)
        lo = np.where(above, t, lo)
        hlo = np.where(above, ht, hlo)
        hi = np.where(below, t, hi)
        hhi = np.where(below, ht, hhi)
        moved = np.where(secant & above, 1.0, np.where(secant & below, -1.0, moved))
        width_before_that, width_before_last = width_before_last, width


def concave_iteration(
    family: ConcaveFamily,
    r: np.ndarray,
    c: np.ndarray,
    lambda0: np.ndarray,
    params: Optional[ConcaveIterationParams] = None,
    keep_plans: bool = False,
) -> ConcaveIterationResult:
    """Alternate multiplier sweeps for a strictly concave problem.

    Given lambda, each mu_j solves sum_i F_ij(lambda_i + mu_j) = c_j (a
    scalar strictly monotone root problem); given mu, each lambda_i
    solves sum_j F_ij(lambda_i + mu_j) = r_i.  The independent roots of a
    half-sweep are solved together, on the log of the line sums, so
    the marginals must be positive.  The plan at any stage is
    x_ij = F_ij(lambda_i + mu_j).  Stops when the worst relative column
    residual of the post-sweep plan falls below ``params.tol``.
    """
    params = params or ConcaveIterationParams()
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    lam = np.asarray(lambda0, dtype=float).copy()
    for name, vec, size in (("r", r, family.n), ("c", c, family.m), ("lambda0", lam, family.n)):
        if vec.shape != (size,):
            raise LengthMismatch(f"{name} has shape {vec.shape}, expected ({size},) for family {family.label!r}")
    for name, vec in (("r", r), ("c", c)):
        if not np.all(vec > 0):
            k = int(np.argmin(vec > 0))
            raise NonPositiveMarginal(f"{name}[{k + 1}] = {vec[k]} is not positive")
    mu = np.zeros(family.m)
    residuals: List[float] = []
    plans: List[np.ndarray] = []
    col_sums = None  # the column sums of the last sweep's plan, at the next column roots' start
    for sweep in range(1, params.max_sweeps + 1):
        mu = _line_roots(lambda t: _line_sums(family.evaluate(lam[:, None] + t[None, :]).T), c, mu, col_sums)
        lam = _line_roots(lambda t: _line_sums(family.evaluate(t[:, None] + mu[None, :])), r, lam)
        plan = family.evaluate(lam[:, None] + mu[None, :])
        col_sums = _line_sums(plan.T)
        resid = float(np.max(np.abs(plan.sum(axis=0) / c - 1.0)))
        residuals.append(resid)
        if keep_plans:
            plans.append(plan)
        if resid <= params.tol:
            return ConcaveIterationResult(DualPotentials(lam, mu), plan, sweep, residuals, plans)
    raise MaxItersExceeded(
        f"no convergence to tol={params.tol} within {params.max_sweeps} sweeps",
        partial=ConcaveIterationResult(DualPotentials(lam, mu), plan, params.max_sweeps, residuals, plans),
    )


def entropic_family(a: np.ndarray, eta: float) -> ConcaveFamily:
    """Inverse marginals of the entropy-smoothed additive rewards.

    For rewards a_ij x + eta(-x log x) the marginal reward is
    a_ij - eta(log x + 1), whose inverse is F_ij(t) = exp((a_ij - t)/eta - 1).
    """
    a = np.asarray(a, dtype=float)
    n, m = a.shape
    return ConcaveFamily(
        label=f"entropic(eta={eta})",
        n=n,
        m=m,
        inverse_marginal=lambda T: np.exp((a - T) / eta - 1.0),
    )


def isoelastic_family(b: np.ndarray, eta: float) -> ConcaveFamily:
    """Inverse marginals of the isoelastic multiplicative rewards.

    For rewards b_ij x^(1-eta)/(1-eta) with multiplier sum t = log(beta_j)
    - log(alpha_i), the first-order condition gives
    F_ij(t) = (b_ij exp(-t))^(1/eta).
    """
    b = np.asarray(b, dtype=float)
    if not np.all(b > 0):
        raise NonPositiveEntry("coefficients must be strictly positive")
    n, m = b.shape
    return ConcaveFamily(
        label=f"isoelastic(eta={eta})",
        n=n,
        m=m,
        inverse_marginal=lambda T: (b * np.exp(-T)) ** (1.0 / eta),
    )
