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


def hilbert_distance(x: np.ndarray, y: np.ndarray) -> float:
    """log(max_i(x_i/y_i) / min_i(x_i/y_i)) for positive vectors.

    A pseudo-metric on the positive cone: symmetric, satisfies the
    triangle inequality, and vanishes exactly on proportional pairs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"vectors must share one length, got {x.shape} and {y.shape}")
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

    Returns (tree adjacency per node, non-tree support edges in
    descending-mass order).  Nodes 0..n-1 are rows, n..n+m-1 columns.
    Heavier entries anchor the duals, so contradictions surface at the
    lightest inconsistent cells.
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

    adjacency: List[List[Tuple[int, int, int]]] = [[] for _ in range(n + m)]
    non_tree: List[Tuple[int, int]] = []
    for i, j in cells:
        ru, rv = find(i), find(n + j)
        if ru == rv:
            non_tree.append((i, j))
        else:
            parent[ru] = rv
            adjacency[i].append((n + j, i, j))
            adjacency[n + j].append((i, i, j))
    return adjacency, non_tree


def recover_duals(
    problem: Problem,
    plan: TransportPlan,
    strict: bool = True,
) -> DualPotentials:
    """Potentials with lambda_i + mu_j = a_ij across the plan's support.

    The support graph is traversed along a maximum-mass spanning forest,
    anchoring lambda = 0 at the lowest-indexed row of each component.
    Rows or columns without support get the tightest dual-feasible value.
    With ``strict`` set, a support cell whose potentials disagree with
    its weight beyond ``KKT_RTOL`` raises InconsistentSupport, certifying
    that the plan is not optimal.
    """
    a = additive_weights(problem)
    n, m = a.shape
    if plan.values.shape != (n, m):
        raise DimensionMismatch(f"plan shape {plan.values.shape} does not match problem ({n}, {m})")
    mask = support_mask(plan.values)
    adjacency, non_tree = _support_tree(plan.values, mask)
    lam = np.full(n, np.nan)
    mu = np.full(m, np.nan)
    for root in range(n):  # lowest-indexed row of each component anchors it
        if not np.isnan(lam[root]) or not adjacency[root]:
            continue
        lam[root] = 0.0
        stack = [root]
        while stack:
            node = stack.pop()
            for other, i, j in adjacency[node]:
                if node < n:  # row -> column
                    if np.isnan(mu[j]):
                        mu[j] = a[i, j] - lam[i]
                        stack.append(other)
                else:  # column -> row
                    if np.isnan(lam[i]):
                        lam[i] = a[i, j] - mu[j]
                        stack.append(other)
    # Tightest feasible values for unsupported columns, then rows.
    sense_max = problem.sense == MAXIMIZE
    assigned = ~np.isnan(lam)
    if not np.any(assigned):
        lam[:] = 0.0
        assigned = ~np.isnan(lam)
    for j in range(m):
        if np.isnan(mu[j]):
            gaps = a[assigned, j] - lam[assigned]
            mu[j] = np.max(gaps) if sense_max else np.min(gaps)
    for i in range(n):
        if np.isnan(lam[i]):
            gaps = a[i, :] - mu
            lam[i] = np.max(gaps) if sense_max else np.min(gaps)
    if strict:
        scale = max(1.0, float(np.max(np.abs(a))))
        for i, j in non_tree:
            gap = a[i, j] - lam[i] - mu[j]
            if abs(gap) > KKT_RTOL * scale:
                raise InconsistentSupport(
                    f"support entry ({i + 1}, {j + 1}) forces contradictory potentials"
                    f" (residual {gap:.3e}); the plan is not optimal",
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
    """
    a = additive_weights(problem)
    n, m = a.shape
    if plan.values.shape != (n, m):
        raise DimensionMismatch(f"plan shape {plan.values.shape} does not match problem ({n}, {m})")
    if np.any(plan.values < 0):
        raise ValidationError("plan contains negative entries")
    if duals is None:
        duals = recover_duals(problem, plan, strict=False)
    mask = support_mask(plan.values)
    gap_matrix = a - duals.lam[:, None] - duals.mu[None, :]  # log(alpha b / beta)
    if problem.sense == MINIMIZE:
        gap_matrix = -gap_matrix
    slack = float(np.max(np.abs(np.expm1(gap_matrix[mask])))) if np.any(mask) else 0.0
    off = ~mask
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
    """
    x, _ = _northwest_basis(problem.row_marginals, problem.col_marginals)
    return TransportPlan.against(x, problem.row_marginals, problem.col_marginals)


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


def _northwest_basis(r: np.ndarray, c: np.ndarray):
    """Northwest-corner start: allocations plus exactly n+m-1 basic cells."""
    n, m = r.shape[0], c.shape[0]
    x = np.zeros((n, m))
    basis: List[Tuple[int, int]] = []
    rr = r.copy()
    cc = c.copy()
    i = j = 0
    while True:
        q = min(rr[i], cc[j])
        x[i, j] = q
        basis.append((i, j))
        rr[i] -= q
        cc[j] -= q
        if i == n - 1 and j == m - 1:
            break
        if rr[i] == 0 and i < n - 1:
            i += 1
        elif cc[j] == 0 and j < m - 1:
            j += 1
        elif i < n - 1:
            i += 1
        else:
            j += 1
    return x, basis


def lp_oracle(problem: Problem) -> OracleResult:
    """Exact optimal basic plan via the transportation simplex.

    Northwest-corner start, Bland's smallest-index entering/leaving rule
    for anti-cycling, reduced-cost optimality tolerance ORACLE_OPT_TOL.
    Guarded to n*m <= ORACLE_CELL_GUARD (10^4) because the
    dense tableau walk is meant for desk-scale certification, not bulk
    solving.  Minimization is handled by negating weights internally;
    the reported objective and duals are in the caller's sense.
    """
    a = additive_weights(problem)
    n, m = a.shape
    if n * m > ORACLE_CELL_GUARD:
        raise SizeGuardExceeded(f"problem has {n * m} cells, above the oracle guard {ORACLE_CELL_GUARD}")
    r = problem.row_marginals
    c = problem.col_marginals
    # Internal form: minimize cost over the transportation polytope.
    cost = -a if problem.sense == MAXIMIZE else a

    x, basis_list = _northwest_basis(r, c)
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
    links: List[Dict[int, float]] = [{} for _ in range(n + m)]
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    duals: List[Optional[float]] = [None] * (n + m)

    def link(i: int, j: int) -> None:
        basic[i, j] = True
        links[i][n + j] = links[n + j][i] = cost_rows[i][j]

    def hang(top: int, above: int, top_dual: float) -> None:
        """Set parent, depth and dual on the subtree reached from above via top."""
        parent[top] = above
        depth[top] = depth[above] + 1 if above >= 0 else 0
        duals[top] = top_dual
        stack = [top]
        budget = n + m
        while stack:
            budget -= 1
            if budget < 0:
                raise ValidationError("basis graph is not a spanning tree")  # internal invariant
            node = stack.pop()
            up, below, known = parent[node], depth[node] + 1, duals[node]
            for other, edge_cost in links[node].items():
                if other != up:
                    parent[other] = node
                    depth[other] = below
                    duals[other] = edge_cost - known  # u_i + v_j = cost_ij
                    stack.append(other)

    for i, j in basis_list:
        link(i, j)
    hang(0, -1, 0.0)
    if None in duals:
        raise ValidationError("basis graph is not a spanning tree")  # internal invariant
    max_pivots = 10 * (n + m) * n * m + 1000  # Bland terminates well before this
    pivots = 0
    while True:
        u = np.array(duals[:n])
        v = np.array(duals[n:])
        reduced = cost - u[:, None] - v[None, :]
        # Bland: the smallest (i, j) with negative reduced cost, i.e. the
        # first candidate in row-major order.
        candidates = reduced < -ORACLE_OPT_TOL
        candidates &= ~basic
        flat = int(np.argmax(candidates))
        if not candidates.flat[flat]:
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
            hang(n + ej, ei, cost_rows[ei][ej] - duals[ei])
        else:
            hang(ei, n + ej, cost_rows[ei][ej] - duals[n + ej])
        pivots += 1
        if pivots > max_pivots:
            raise ValidationError("pivot budget exhausted; this should be unreachable with Bland's rule")

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
