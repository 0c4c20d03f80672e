"""Ground truth and certification: Hilbert metric, dual recovery, balance
verification, an exact desk-scale LP oracle, and the greedy allocator.

A plan is balanced exactly when positive weights alpha and dual variables
beta exist with alpha_i b_ij <= beta_j everywhere and equality wherever
the plan is positive, together with both marginal constraints.  In
additive form this is complementary slackness for the transport dual:
lambda_i + mu_j >= a_ij with equality on the support.  All checks here
run in the additive domain for numerical range, and all reported
violations are relative (multiplicative) deviations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentSupport,
    LengthMismatch,
    NonPositiveEntry,
    Overflow,
    SizeGuardExceeded,
    ValidationError,
)
from .model import (
    MAXIMIZE,
    MINIMIZE,
    DualPotentials,
    Problem,
    TransportPlan,
    additive_weights,
    require_valid,  # unused here; kept because perfbench/tracer.py patches this name
)

#: Plan entries above this fraction of the largest entry count as support.
SUPPORT_RTOL = 1e-10

#: Relative tolerance for every balance-verification field.
KKT_RTOL = 1e-8

#: Reduced-cost optimality tolerance of the exact oracle.
ORACLE_OPT_TOL = 1e-11

#: Largest cell count n*m the exact oracle accepts.
ORACLE_CELL_GUARD = 10_000

#: Consecutive degenerate pivots the oracle allows per line (n + m of
#: them at 1) before it enters by Bland's rule until the next
#: nondegenerate pivot.
_DEGENERATE_RUN = 1


def hilbert_distance(x: np.ndarray, y: np.ndarray) -> float:
    """log(max_i(x_i/y_i) / min_i(x_i/y_i)) for positive vectors.

    A pseudo-metric on the positive cone: symmetric, satisfies the
    triangle inequality, and vanishes exactly on proportional pairs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise LengthMismatch(f"vectors must share one nonzero length, got {x.shape} and {y.shape}")
    if not (np.all(x > 0) and np.all(y > 0)):
        raise NonPositiveEntry("Hilbert distance requires strictly positive vectors")
    ratios = x / y
    return float(np.log(np.max(ratios) / np.min(ratios)))


def support_mask(plan_values: np.ndarray) -> np.ndarray:
    """Entries larger than SUPPORT_RTOL times the largest entry."""
    values = np.asarray(plan_values, dtype=float)
    return values > SUPPORT_RTOL * np.max(values) if np.max(values) > 0 else np.zeros_like(values, dtype=bool)


def _support_tree(values: np.ndarray, mask: np.ndarray):
    """Maximum-mass spanning forest of the bipartite support graph.

    Returns (forest cells, non-tree support cells), both as (i, j) lists
    in descending-mass order.  Heavier entries anchor the duals, so
    contradictions surface at the lightest inconsistent cells.
    """
    n, m = values.shape
    rows, cols = np.nonzero(mask)  # row-major, so the stable sort breaks ties by (i, j)
    order = np.argsort(-values[mask], kind="stable")
    cells = zip(rows[order].tolist(), cols[order].tolist())
    parent = list(range(n + m))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    forest: List[Tuple[int, int]] = []
    non_tree: List[Tuple[int, int]] = []
    for i, j in cells:
        ru, rv = find(i), find(n + j)
        if ru == rv:
            non_tree.append((i, j))
        else:
            parent[ru] = rv
            forest.append((i, j))
    return forest, non_tree


def _empty_tree(nodes: int):
    """Links, parents, depths and duals (None until hung) of a tree on ``nodes`` nodes."""
    return [{} for _ in range(nodes)], [-1] * nodes, [0] * nodes, [None] * nodes


def _hang(links: List[Dict[int, float]], parent: List[int], depth: List[int], duals: List[Optional[float]],
          top: int, above: int, top_dual: float) -> None:
    """Set parent, depth and dual on the subtree reached from ``above`` via ``top``.

    Nodes 0..n-1 are rows and n..n+m-1 columns; ``links[node]`` maps each
    tree neighbour to the weight of the connecting cell, and a child's dual
    is that weight minus its parent's (u_i + v_j = weight_ij).  A dual is
    fixed by the node's path from the root, so the visiting order does not
    change it.  ``above`` is -1 at a root.
    """
    parent[top] = above
    depth[top] = depth[above] + 1 if above >= 0 else 0
    duals[top] = top_dual
    stack = [top]
    budget = len(links)
    while stack:
        budget -= 1
        if budget < 0:
            raise ValidationError("basis graph is not a spanning tree")  # internal invariant
        node = stack.pop()
        up, below, known = parent[node], depth[node] + 1, duals[node]
        for other, weight in links[node].items():
            if other != up:
                parent[other] = node
                depth[other] = below
                duals[other] = weight - known
                stack.append(other)


def recover_duals(
    problem: Problem,
    plan: TransportPlan,
    strict: bool = True,
) -> DualPotentials:
    """Potentials with lambda_i + mu_j = a_ij across the plan's support.

    The duals are hung from a maximum-mass spanning forest of the support
    by the oracle's tree walk (``_hang``), with lambda = 0 at the
    lowest-indexed row of each component.  Rows or columns without
    support get the tightest dual-feasible value; a plan without support
    gets lambda = 0 first.  With ``strict`` set, a support cell whose
    potentials disagree with its weight beyond ``KKT_RTOL`` raises
    InconsistentSupport, certifying that the plan is not optimal.
    """
    a = additive_weights(problem)
    n, m = a.shape
    if plan.values.shape != (n, m):
        raise DimensionMismatch(f"plan shape {plan.values.shape} does not match problem ({n}, {m})")
    forest, non_tree = _support_tree(plan.values, support_mask(plan.values))
    links, parent, depth, duals = _empty_tree(n + m)
    for i, j in forest:
        links[i][n + j] = links[n + j][i] = float(a[i, j])
    for root in range(n):  # lowest-indexed row of each component anchors it
        if links[root] and duals[root] is None:
            _hang(links, parent, depth, duals, root, -1, 0.0)
    lam = np.array(duals[:n], dtype=float)  # None, for a line without support, reads nan
    mu = np.array(duals[n:], dtype=float)
    # Tightest feasible values for unsupported columns, then rows.
    tightest = np.max if problem.sense == MAXIMIZE else np.min
    if np.all(np.isnan(lam)):
        lam[:] = 0.0
    known = ~np.isnan(lam)
    free = np.isnan(mu)
    mu[free] = tightest(a[known][:, free] - lam[known, None], axis=0)
    free = np.isnan(lam)
    lam[free] = tightest(a[free] - mu, axis=1)
    if strict and non_tree:
        ti, tj = np.array(non_tree).T
        gaps = a[ti, tj] - lam[ti] - mu[tj]
        bad = np.abs(gaps) > KKT_RTOL * max(1.0, float(np.max(np.abs(a))))
        if np.any(bad):
            k = int(np.argmax(bad))  # the heaviest violating cell
            i, j = non_tree[k]
            raise InconsistentSupport(
                f"support entry ({i + 1}, {j + 1}) forces contradictory potentials"
                f" (residual {gaps[k]:.3e}); the plan is not optimal",
                entry=(i + 1, j + 1),
            )
    return DualPotentials(lam, mu)


@dataclass(frozen=True)
class KKTReport:
    """Balance certificate for one plan (all violation fields relative)."""

    is_balanced: bool
    max_slackness_violation: float
    max_dual_infeasibility: float
    marginal_residuals: Tuple[float, float]
    objective: float
    dual_value: float
    duality_gap: float


def verify_balanced(
    problem: Problem,
    plan: TransportPlan,
    duals: Optional[DualPotentials] = None,
) -> KKTReport:
    """Check the balance (complementary-slackness) conditions of a plan.

    Verifies, relative to ``KKT_RTOL``: equality alpha_i b_ij = beta_j on the
    support, the dual inequality off the support (direction set by the
    problem's sense), and both marginal constraints.  When no duals are
    passed they are recovered from the support (non-strictly, so that an
    inconsistent support shows up as a slackness violation rather than an
    exception).  The duality gap is dual value minus primal value for
    maximization and the negative of that for minimization.

    Slackness is measured in absolute terms, as expm1(a_ij - lam_i - mu_j),
    so its rounding is that of the weights: near |a| = 1e12 float spacing
    is about 1e-4, far above ``KKT_RTOL``, and an exactly optimal plan
    with the oracle's duals can fail the certificate there.
    """
    a = additive_weights(problem)
    n, m = a.shape
    if plan.values.shape != (n, m):
        raise DimensionMismatch(f"plan shape {plan.values.shape} does not match problem ({n}, {m})")
    if np.any(plan.values < 0):
        raise ValidationError("plan contains negative entries")
    if duals is None:
        duals = recover_duals(problem, plan, strict=False)
    elif duals.lam.shape != (n,) or duals.mu.shape != (m,):
        raise LengthMismatch(f"duals have lengths {duals.lam.size} and {duals.mu.size}, the problem {n} and {m}")
    mask = support_mask(plan.values)
    gap_matrix = a - duals.lam[:, None] - duals.mu[None, :]  # log(alpha b / beta)
    if problem.sense == MINIMIZE:
        gap_matrix = -gap_matrix
    off = ~mask
    with np.errstate(over="ignore"):  # a gap past log(max float) is an infinite violation
        slack = float(np.max(np.abs(np.expm1(gap_matrix[mask])))) if np.any(mask) else 0.0
        infeas = float(np.max(np.clip(np.expm1(gap_matrix[off]), 0.0, None))) if np.any(off) else 0.0
    row_res = float(np.max(np.abs(plan.values.sum(axis=1) / problem.row_marginals - 1.0)))
    col_res = float(np.max(np.abs(plan.values.sum(axis=0) / problem.col_marginals - 1.0)))
    primal = plan.objective(problem)
    dual_value = duals.value(problem.row_marginals, problem.col_marginals)
    gap = dual_value - primal if problem.sense == MAXIMIZE else primal - dual_value
    balanced = slack <= KKT_RTOL and infeas <= KKT_RTOL and row_res <= KKT_RTOL and col_res <= KKT_RTOL
    return KKTReport(
        is_balanced=bool(balanced),
        max_slackness_violation=slack,
        max_dual_infeasibility=infeas,
        marginal_residuals=(row_res, col_res),
        objective=primal,
        dual_value=dual_value,
        duality_gap=float(gap),
    )


def greedy_northwest(problem: Problem) -> TransportPlan:
    """Northwest-corner allocation, scanning rows and columns in order.

    x_ij = min(remaining row mass, remaining column mass).  Ignores the
    weights entirely; optimal exactly on problems passing monge_check.
    Runs ``_least_cost_basis`` on a zero cost, so it sorts and visits all
    n*m cells in Python: meant for desk-scale problems, like the oracle.
    """
    r, c = problem.row_marginals, problem.col_marginals
    x, _ = _least_cost_basis(np.zeros((r.shape[0], c.shape[0])), r, c)  # all ties: row-major order
    return TransportPlan.against(x, r, c)


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum with its certificate ingredients.

    ``min_offbasis_reduced_cost`` is the smallest reduced cost over
    nonbasic cells at the final basis (in the internal minimization
    form); a strictly positive value certifies that the optimal plan is
    unique.
    """

    plan: TransportPlan
    objective: float
    duals: DualPotentials
    min_offbasis_reduced_cost: float
    pivots: int

    def is_unique(self, threshold: float = 1e-9) -> bool:
        return self.min_offbasis_reduced_cost > threshold


def _least_cost_basis(cost: np.ndarray, r: np.ndarray, c: np.ndarray):
    """Least-cost start: allocations plus exactly n+m-1 basic cells.

    Visits the cells cheapest first (row-major among ties), skipping any
    whose row or column is closed, allocates min(remaining row mass,
    remaining column mass) and closes exactly one line: the row if only
    one column is open, or if the row is exhausted and another row is
    open; otherwise the column.  Every allocation joins the line it closes
    to a line that stays open, and the last joins the last row to the last
    column, so the cells form a spanning tree.
    """
    n, m = cost.shape
    x = np.zeros((n, m))
    basis: List[Tuple[int, int]] = []
    rr = r.tolist()
    cc = c.tolist()
    row_open = [True] * n
    col_open = [True] * m
    open_rows, open_cols = n, m
    rows, cols = np.divmod(np.argsort(cost, axis=None, kind="stable"), m)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        q = min(rr[i], cc[j])
        x[i, j] = q
        basis.append((i, j))
        if open_cols == 1 or (open_rows > 1 and rr[i] <= cc[j]):
            row_open[i] = False
            open_rows -= 1
            if open_rows == 0:
                break
        else:
            col_open[j] = False
            open_cols -= 1
        rr[i] -= q
        cc[j] -= q
    return x, basis


def lp_oracle(problem: Problem) -> OracleResult:
    """Exact optimal basic plan via the transportation simplex.

    Works on the internal minimization form (maximization negates the
    weights); the reported objective and duals are in the caller's sense.
    Guarded to n*m <= ORACLE_CELL_GUARD (10^4) because the dense tableau
    walk is meant for desk-scale certification, not bulk solving.

    - Start: the least-cost basis (``_least_cost_basis``).
    - Pricing: the entering cell has the most negative reduced cost among
      the nonbasic cells (Dantzig's rule); optimality means none is below
      -ORACLE_OPT_TOL.  Basic cells are masked out of the search: their
      reduced cost is zero only up to rounding, and once |a| is about 1e5
      or more that residue exceeds ORACLE_OPT_TOL.
    - Leaving: the smallest (i, j) among the tied minus cells of the cycle.
    - Anti-cycling: after n + m consecutive degenerate pivots (theta = 0)
      the cell enters by Bland's rule, the smallest (i, j) with a reduced
      cost below -ORACLE_OPT_TOL, until the next nondegenerate pivot.  The
      leaving rule uses the same row-major order, so each such phase is
      Bland's rule and ends.  Each nondegenerate pivot strictly lowers the
      objective, so no basis repeats across them, and the oracle stops
      after finitely many pivots.

    Weights too large for the duals to stay finite, 2 (n + m) max|a|
    beyond the float range, raise Overflow before any pivot.
    """
    a = additive_weights(problem)
    n, m = a.shape
    if n * m > ORACLE_CELL_GUARD:
        raise SizeGuardExceeded(f"problem has {n * m} cells, above the oracle guard {ORACLE_CELL_GUARD}")
    # A dual is a signed sum of at most n + m - 1 weights along a tree path,
    # and a reduced cost adds two duals to a weight; Python floats overflow
    # to inf without a numpy warning.
    largest = float(np.max(np.abs(a)))
    if not np.isfinite(2.0 * (n + m) * largest):
        raise Overflow(f"weights up to {largest:.3e} leave the oracle's duals no room in the float range")
    r = problem.row_marginals
    c = problem.col_marginals
    # Internal form: minimize cost over the transportation polytope.
    cost = -a if problem.sense == MAXIMIZE else a

    x, basis_list = _least_cost_basis(cost, r, c)
    # The basis tree lives across pivots, rooted at row 0: a cell mask;
    # per node (rows 0..n-1, columns n..n+m-1) a map from each tree
    # neighbour to the cost of the connecting cell; and each node's
    # parent, depth and dual.  A pivot swaps one edge and re-hangs only the
    # subtree that the leaving edge cut off.  A dual is fixed by the
    # node's unique path from the root, so the duals are those a fresh
    # traversal would give, bit for bit.  The loops run on Python floats,
    # whose arithmetic is numpy's IEEE double arithmetic.
    flows = x.tolist()
    cost_rows = cost.tolist()
    basic = np.zeros((n, m), dtype=bool)
    links, parent, depth, duals = _empty_tree(n + m)

    def link(i: int, j: int) -> None:
        basic[i, j] = True
        links[i][n + j] = links[n + j][i] = cost_rows[i][j]

    for i, j in basis_list:
        link(i, j)
    _hang(links, parent, depth, duals, 0, -1, 0.0)
    if None in duals:
        raise ValidationError("basis graph is not a spanning tree")  # internal invariant
    max_pivots = 10 * (n + m) * n * m + 1000  # the oracle terminates well before this
    degenerate_limit = _DEGENERATE_RUN * (n + m)
    degenerate = 0  # consecutive pivots with theta == 0
    pivots = 0
    while True:
        u = np.array(duals[:n])
        v = np.array(duals[n:])
        # Masked, since a basic cell's reduced cost is zero only up to rounding.
        reduced = np.where(basic, 0.0, cost - u[:, None] - v[None, :])
        if degenerate < degenerate_limit:
            flat = int(np.argmin(reduced))  # Dantzig: the most negative
        else:
            # Bland: the smallest (i, j) with negative reduced cost, i.e. the
            # first candidate in row-major order (flat 0 when there is none).
            flat = int(np.argmax(reduced < -ORACLE_OPT_TOL))
        if not reduced.flat[flat] < -ORACLE_OPT_TOL:
            break
        ei, ej = divmod(flat, m)

        # The unique cycle: climb from the entering cell's column and row to
        # their common ancestor, then list the tree path from the column
        # down to the row as cells.
        row_side, col_side = ei, n + ej
        from_row: List[int] = []
        from_col: List[int] = []
        while row_side != col_side:
            if row_side < 0 or col_side < 0:
                raise ValidationError("entering cell closes no cycle")  # internal invariant
            if depth[row_side] >= depth[col_side]:
                from_row.append(row_side)
                row_side = parent[row_side]
            else:
                from_col.append(col_side)
                col_side = parent[col_side]
        nodes = from_col + [row_side] + from_row[::-1]
        path = [(p, q - n) if p < n else (q, p - n) for p, q in zip(nodes, nodes[1:])]
        # The path has odd length; its cells alternate -, +, ..., - around
        # the entering cell's +.
        minus_cells = path[0::2]
        theta = min(flows[i][j] for i, j in minus_cells)
        degenerate = degenerate + 1 if theta == 0.0 else 0
        leaving = min(cell for cell in minus_cells if flows[cell[0]][cell[1]] == theta)
        flows[ei][ej] += theta
        for i, j in minus_cells:
            flows[i][j] -= theta
        for i, j in path[1::2]:
            flows[i][j] += theta
        li, lj = leaving
        flows[li][lj] = 0.0
        basic[li, lj] = False
        del links[li][n + lj], links[n + lj][li]
        link(ei, ej)
        # Re-hang the cut-off subtree from the entering cell's endpoint in it.
        cut = li if parent[li] == n + lj else n + lj
        if cut in from_col:
            _hang(links, parent, depth, duals, n + ej, ei, cost_rows[ei][ej] - duals[ei])
        else:
            _hang(links, parent, depth, duals, ei, n + ej, cost_rows[ei][ej] - duals[n + ej])
        pivots += 1
        if pivots > max_pivots:
            raise ValidationError("pivot budget exhausted; this should be unreachable")  # internal invariant

    x = np.array(flows)
    np.clip(x, 0.0, None, out=x)
    off_mask = ~basic
    min_off = float(np.min(reduced[off_mask])) if np.any(off_mask) else np.inf
    if problem.sense == MAXIMIZE:
        lam, mu = -u, -v
    else:
        lam, mu = u.copy(), v.copy()
    plan = TransportPlan.against(x, r, c)
    objective = plan.objective(problem)
    return OracleResult(
        plan=plan,
        objective=objective,
        duals=DualPotentials(lam, mu),
        min_offbasis_reduced_cost=min_off,
        pivots=pivots,
    )
