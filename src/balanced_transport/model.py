"""Problem, plan, and scaling data types, and the conversions between forms.

Two equivalent problem forms are supported.  The additive form carries a
weight matrix ``a`` and asks for a transport plan maximizing (or
minimizing) ``sum(a * x)`` under prescribed row and column sums.  The
multiplicative form carries strictly positive coefficients ``b`` and asks
for a balanced allocation, one linear objective per row.  The two are
linked entrywise by ``a = log(b)``, and a plan solves one problem exactly
when it solves the other.

All types are immutable value objects: arrays are copied on construction
and marked read-only, so instances can be shared freely across threads.
The problem constructors also run ``require_valid``, so a problem object
is always valid and no consumer needs to check it again.
Indices in user-facing reports are 1-based; everything internal is
0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    GlobalFeasibilityViolation,
    LengthMismatch,
    NonFiniteEntry,
    NonPositiveCoefficient,
    NonPositiveEntry,
    NonPositiveMarginal,
    Overflow,
    ValidationError,
)

#: Relative slack allowed between total row mass and total column mass.
FEASIBILITY_RTOL = 1e-10

MAXIMIZE = "maximize"
MINIMIZE = "minimize"


def _frozen_array(values, ndim: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise LengthMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _init_problem(problem, matrix_name: str) -> None:
    """Freeze a problem's arrays, check sense and lengths, then its contents."""
    for name, ndim in ((matrix_name, 2), ("row_marginals", 1), ("col_marginals", 1)):
        object.__setattr__(problem, name, _frozen_array(getattr(problem, name), ndim, name))
    if problem.sense not in (MAXIMIZE, MINIMIZE):
        raise ValidationError(f"sense must be '{MAXIMIZE}' or '{MINIMIZE}', got {problem.sense!r}")
    n, m = getattr(problem, matrix_name).shape
    if problem.row_marginals.shape != (n,):
        raise LengthMismatch(f"row_marginals has length {problem.row_marginals.shape[0]}, expected {n}")
    if problem.col_marginals.shape != (m,):
        raise LengthMismatch(f"col_marginals has length {problem.col_marginals.shape[0]}, expected {m}")
    require_valid(problem)


@dataclass(frozen=True)
class OTProblem:
    """Discrete transport problem in additive (weight-matrix) form.

    ``weights[i, j]`` is the reward per unit of mass routed from row i to
    column j; it may be any finite real.  ``row_marginals`` and
    ``col_marginals`` are the prescribed row and column sums, both
    strictly positive with equal totals.
    """

    weights: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    sense: str = MAXIMIZE

    def __post_init__(self):
        _init_problem(self, "weights")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def m(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class MOMAProblem:
    """Multi-objective allocation problem in multiplicative form.

    ``coefficients[i, j]`` is the strictly positive marginal reward of row
    objective i per unit allocated in column j.
    """

    coefficients: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    sense: str = MAXIMIZE

    def __post_init__(self):
        _init_problem(self, "coefficients")

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]

    @property
    def m(self) -> int:
        return self.coefficients.shape[1]


Problem = Union[OTProblem, MOMAProblem]


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative allocation matrix with marginal residual metadata.

    ``row_residual`` and ``col_residual`` are the worst absolute
    deviations of the plan's row and column sums from the marginals it
    was checked against.
    """

    values: np.ndarray
    row_residual: float
    col_residual: float

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, 2, "values"))

    @classmethod
    def against(cls, values, row_marginals, col_marginals) -> "TransportPlan":
        """Build a plan, computing residuals against the given marginals."""
        arr = np.array(values, dtype=float)
        r = np.asarray(row_marginals, dtype=float)
        c = np.asarray(col_marginals, dtype=float)
        if arr.shape != (r.shape[0], c.shape[0]):
            raise DimensionMismatch(
                f"plan shape {arr.shape} does not match marginals ({r.shape[0]}, {c.shape[0]})"
            )
        if not np.all(np.isfinite(arr)):
            i, j = np.unravel_index(int(np.argmax(~np.isfinite(arr))), arr.shape)
            raise NonFiniteEntry(f"plan entry [{i + 1}, {j + 1}] = {arr[i, j]} is not finite")
        if np.any(arr < 0):
            i, j = np.unravel_index(int(np.argmax(arr < 0)), arr.shape)
            raise ValidationError(f"plan entry [{i + 1}, {j + 1}] = {arr[i, j]} is negative")
        row_res = float(np.max(np.abs(arr.sum(axis=1) - r)))
        col_res = float(np.max(np.abs(arr.sum(axis=0) - c)))
        return cls(arr, row_res, col_res)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def objective(self, problem: Problem) -> float:
        """Total additive value of the plan under the problem's weights."""
        a = additive_weights(problem)
        return float(np.sum(a * self.values))


@dataclass(frozen=True)
class Scalings:
    """Multiplicative weights alpha (rows) and dual variables beta (columns)."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen_array(self.alpha, 1, "alpha"))
        object.__setattr__(self, "beta", _frozen_array(self.beta, 1, "beta"))
        if not (np.all(self.alpha > 0) and np.all(self.beta > 0)):
            raise NonPositiveEntry("scalings must be strictly positive")
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.beta))):
            raise NonFiniteEntry("scalings must be finite")

    def to_potentials(self) -> "DualPotentials":
        """Additive potentials: lambda = -log(alpha), mu = log(beta)."""
        return DualPotentials(-np.log(self.alpha), np.log(self.beta))


@dataclass(frozen=True)
class DualPotentials:
    """Additive dual potentials lambda (rows) and mu (columns)."""

    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", _frozen_array(self.lam, 1, "lam"))
        object.__setattr__(self, "mu", _frozen_array(self.mu, 1, "mu"))

    def value(self, row_marginals, col_marginals) -> float:
        """Dual objective sum(lambda * r) + sum(mu * c)."""
        return float(np.dot(self.lam, row_marginals) + np.dot(self.mu, col_marginals))


def require_valid(problem: Problem) -> Problem:
    """Check all type invariants and return the problem.

    Both problem constructors run this check, so every problem object
    already passes it.  Checks run in a fixed order and the first
    violation is raised: finiteness of every array, positivity of the
    marginals, positivity of multiplicative coefficients, and the global
    feasibility condition sum(r) == sum(c) up to a relative slack of
    ``FEASIBILITY_RTOL``, which needs both totals finite.
    """
    if isinstance(problem, MOMAProblem):
        mat, mat_name = problem.coefficients, "coefficients"
    else:
        mat, mat_name = problem.weights, "weights"
    if not np.all(np.isfinite(mat)):
        raise NonFiniteEntry(f"{mat_name} contains non-finite entries")
    for name, vec in (("row_marginals", problem.row_marginals), ("col_marginals", problem.col_marginals)):
        if not np.all(np.isfinite(vec)):
            raise NonFiniteEntry(f"{name} contains non-finite entries")
        if not np.all(vec > 0):
            k = int(np.argmax(~(vec > 0)))
            raise NonPositiveMarginal(f"{name}[{k + 1}] = {vec[k]} is not positive")
    if isinstance(problem, MOMAProblem) and not np.all(mat > 0):
        i, j = np.unravel_index(int(np.argmax(~(mat > 0))), mat.shape)
        raise NonPositiveCoefficient(f"coefficients[{i + 1}, {j + 1}] = {mat[i, j]} is not positive")
    with np.errstate(over="ignore"):
        total_r = float(np.sum(problem.row_marginals))
        total_c = float(np.sum(problem.col_marginals))
    if not (np.isfinite(total_r) and np.isfinite(total_c)):
        raise GlobalFeasibilityViolation(f"total row mass {total_r!r} or column mass {total_c!r} overflows")
    if abs(total_r - total_c) > FEASIBILITY_RTOL * max(total_r, total_c):
        raise GlobalFeasibilityViolation(f"total row mass {total_r!r} != total column mass {total_c!r}")
    return problem


def additive_weights(problem: Problem) -> np.ndarray:
    """The additive weight matrix of either problem form (log of b)."""
    if isinstance(problem, MOMAProblem):
        return np.log(problem.coefficients)
    return problem.weights


def ot_to_moma(problem: OTProblem) -> MOMAProblem:
    """Convert additive weights to multiplicative coefficients, b = exp(a)."""
    with np.errstate(over="ignore"):
        b = np.exp(problem.weights)
    representable = np.isfinite(b) & (b > 0)
    if not np.all(representable):
        i, j = np.unravel_index(int(np.argmax(~representable)), b.shape)
        raise Overflow(f"exp(weights[{i + 1}, {j + 1}]) = exp({problem.weights[i, j]}) is not representable")
    return MOMAProblem(b, problem.row_marginals, problem.col_marginals, problem.sense)


def moma_to_ot(problem: MOMAProblem) -> OTProblem:
    """Convert multiplicative coefficients to additive weights, a = log(b)."""
    return OTProblem(np.log(problem.coefficients), problem.row_marginals, problem.col_marginals, problem.sense)


@dataclass(frozen=True)
class MongeCheckResult:
    """Outcome of the 2x2-minor inequality scan (1-based indices)."""

    is_monge: bool
    first_violation: Optional[tuple] = None


def monge_check(problem: Problem) -> MongeCheckResult:
    """Test the inequality a[i1,j1] + a[i2,j2] >= a[i1,j2] + a[i2,j1].

    Required of every quadruple i1 < i2, j1 < j2 for maximization (for
    minimization the inequality is reversed).  Comparisons are exact:
    ties satisfy the inequality.  On failure the lexicographically first
    violating quadruple (i1, i2, j1, j2) is reported, 1-based.  For the
    multiplicative form this is equivalent to nonnegativity of all 2x2
    determinants of the coefficient matrix.
    """
    a = additive_weights(problem)
    if problem.sense == MINIMIZE:
        a = -a
    n, m = a.shape
    # Adjacent minors decide the property; scan all quadruples only when
    # a violation exists, to locate the lexicographically first one.
    adjacent_ok = np.all(a[:-1, :-1] + a[1:, 1:] >= a[:-1, 1:] + a[1:, :-1])
    if adjacent_ok:
        return MongeCheckResult(True, None)
    for i1 in range(n - 1):
        for i2 in range(i1 + 1, n):
            for j1 in range(m - 1):
                for j2 in range(j1 + 1, m):
                    if a[i1, j1] + a[i2, j2] < a[i1, j2] + a[i2, j1]:
                        return MongeCheckResult(False, (i1 + 1, i2 + 1, j1 + 1, j2 + 1))
    return MongeCheckResult(True, None)
