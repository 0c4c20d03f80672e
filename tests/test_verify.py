import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balanced_transport import (
    InconsistentSupport,
    LengthMismatch,
    MAXIMIZE,
    MINIMIZE,
    DualPotentials,
    MOMAProblem,
    NonPositiveEntry,
    OTProblem,
    Overflow,
    SizeGuardExceeded,
    TransportPlan,
    additive_weights,
    greedy_northwest,
    hilbert_distance,
    ipfp_matrix,
    lp_oracle,
    monge_check,
    ot_to_moma,
    recover_duals,
    support_mask,
    verify_balanced,
)
from balanced_transport import verify
from balanced_transport.verify import KKT_RTOL, ORACLE_OPT_TOL, _least_cost_basis, _support_tree
from problems import random_problem, supermodular_problem

positive_vectors = st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8)


def desk_problems():
    """Pass 0 of the desk-certify benchmark at seed 1."""
    rng = np.random.default_rng(1)
    return [random_problem(rng, n, m, sense, gaussian=True)
            for n, m, sense in ((24, 40, MAXIMIZE), (32, 32, MINIMIZE), (48, 36, MAXIMIZE))]


def desk_and_assignment():
    """A 24x40 Gaussian problem and a 12x12 assignment with weights in {0, 1, 2}."""
    rng = np.random.default_rng(17)
    desk = random_problem(rng, 24, 40, gaussian=True)
    assignment = OTProblem(rng.integers(0, 3, size=(12, 12)).astype(float),
                           np.ones(12), np.ones(12), MINIMIZE)
    return desk, assignment


SWEEP_FAMILIES = ("assignment", "integer", "constant", "gaussian", "wide")


def sweep_problem(family, rng, sense):
    """One seeded problem of a degenerate or wide-range family, sizes 2-24."""
    n, m = (int(k) for k in rng.integers(2, 25, size=2))
    r = rng.uniform(0.5, 1.5, size=n)
    c = rng.uniform(0.5, 1.5, size=m)
    c *= r.sum() / c.sum()
    if family == "assignment":
        return OTProblem(rng.integers(0, 3, size=(n, n)).astype(float), np.ones(n), np.ones(n), sense)
    if family == "integer":
        r, c = rng.integers(1, 6, size=n), rng.integers(1, 6, size=m)
        short = r if r.sum() < c.sum() else c
        short += rng.multinomial(abs(int(r.sum() - c.sum())), np.full(short.size, 1.0 / short.size))
        return OTProblem(rng.integers(-3, 4, size=(n, m)).astype(float), r.astype(float), c.astype(float), sense)
    if family == "constant":
        return OTProblem(np.full((n, m), rng.standard_normal()), r, c, sense)
    a = rng.standard_normal((n, m))
    if family == "wide":  # scaled by up to 1e12 and shifted by up to +-1e12
        a = a * 10.0 ** rng.uniform(0.0, 12.0) + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(0.0, 12.0)
    return OTProblem(a, r, c, sense)


def degenerate_example():
    """Equal unit masses: every basis is degenerate."""
    return OTProblem(np.array([[0.0, 1.0, 0.2], [0.5, 0.1, 0.9], [0.3, 0.3, 0.3]]),
                     np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]))


class TestHilbertDistance:
    def test_self_distance_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert hilbert_distance(x, x) == 0.0

    def test_ray_invariance(self):
        x = np.array([1.5, 2.25, 0.5])
        assert hilbert_distance(2.0 * x, x) == 0.0  # power-of-two scale is exact
        assert hilbert_distance(3.0 * x, x) <= 1e-14

    def test_direct_value(self):
        assert hilbert_distance(np.array([2.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(
            np.log(2.0), rel=1e-15
        )

    @given(positive_vectors, st.data())
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_triangle(self, xs, data):
        k = len(xs)
        ys = data.draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=k, max_size=k))
        zs = data.draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=k, max_size=k))
        x, y, z = np.array(xs), np.array(ys), np.array(zs)
        dxy = hilbert_distance(x, y)
        assert dxy == pytest.approx(hilbert_distance(y, x), abs=1e-12)
        assert dxy <= hilbert_distance(x, z) + hilbert_distance(z, y) + 1e-12
        assert dxy >= 0.0

    def test_positive_on_nonproportional(self):
        assert hilbert_distance(np.array([1.0, 2.0]), np.array([1.0, 1.0])) > 0.5

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            hilbert_distance(np.ones(2), np.ones(3))
        with pytest.raises(LengthMismatch):
            hilbert_distance([], [])
        with pytest.raises(NonPositiveEntry):
            hilbert_distance(np.array([1.0, 0.0]), np.ones(2))


def kruskal_reference(values, mask):
    """Kruskal over the support sorted by (-value, i, j): (forest cells, non-tree cells)."""
    n, m = values.shape
    cells = sorted((-values[i, j], i, j) for i in range(n) for j in range(m) if mask[i, j])
    component = list(range(n + m))

    def find(u):
        while component[u] != u:
            u = component[u]
        return u

    forest, non_tree = [], []
    for _, i, j in cells:
        ru, rv = find(i), find(n + j)
        if ru == rv:
            non_tree.append((i, j))
        else:
            component[ru] = rv
            forest.append((i, j))
    return forest, non_tree


def loop_recover_duals(problem, plan, strict):
    """recover_duals as per-node loops: a walk of its own with NaN
    sentinels, one reduction per line without support, one check per cell."""
    a = additive_weights(problem)
    n, m = a.shape
    forest, non_tree = kruskal_reference(plan.values, support_mask(plan.values))
    adjacency = [[] for _ in range(n + m)]
    for i, j in forest:
        adjacency[i].append((n + j, i, j))
        adjacency[n + j].append((i, i, j))
    lam = np.full(n, np.nan)
    mu = np.full(m, np.nan)
    for root in range(n):
        if not np.isnan(lam[root]) or not adjacency[root]:
            continue
        lam[root] = 0.0
        stack = [root]
        while stack:
            node = stack.pop()
            for other, i, j in adjacency[node]:
                if node < n:
                    if np.isnan(mu[j]):
                        mu[j] = a[i, j] - lam[i]
                        stack.append(other)
                elif np.isnan(lam[i]):
                    lam[i] = a[i, j] - mu[j]
                    stack.append(other)
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
    return lam, mu


def strict_outcome(recover, problem, plan):
    """(entry, message) of the InconsistentSupport that strict recovery raises, or None."""
    try:
        recover(problem, plan, strict=True)
    except InconsistentSupport as exc:
        return exc.entry, str(exc)
    return None


class TestRecoverDuals:
    def test_small_example_plan(self, small_problem, known_plan):
        plan = TransportPlan.against(known_plan, small_problem.row_marginals, small_problem.col_marginals)
        duals = recover_duals(small_problem, plan)
        assert np.allclose(duals.lam, [0.0, -0.5, -0.7], atol=1e-12)
        assert np.allclose(duals.mu, [1.3, 1.0, 0.8], atol=1e-12)

    def test_scalar_problem(self):
        prob = OTProblem([[0.4]], [2.0], [2.0])
        plan = TransportPlan.against([[2.0]], prob.row_marginals, prob.col_marginals)
        duals = recover_duals(prob, plan)
        assert duals.lam[0] == 0.0
        assert duals.mu[0] == 0.4

    def test_product_plan_on_constant_weights(self):
        prob = OTProblem(np.full((2, 3), 0.7), [0.5, 0.5], [0.3, 0.4, 0.3])
        plan = TransportPlan.against(np.outer(prob.row_marginals, prob.col_marginals),
                                     prob.row_marginals, prob.col_marginals)
        duals = recover_duals(prob, plan)
        assert np.allclose(duals.lam, 0.0, atol=1e-14)
        assert np.allclose(duals.mu, 0.7, atol=1e-14)

    def test_inconsistent_support_is_certified(self, small_problem):
        perturbed = np.array([[0.05, 0.2, 0.0], [0.0, 0.05, 0.2], [0.15, 0.35, 0.0]])
        plan = TransportPlan.against(perturbed, small_problem.row_marginals, small_problem.col_marginals)
        with pytest.raises(InconsistentSupport) as err:
            recover_duals(small_problem, plan, strict=True)
        assert err.value.entry == (1, 1)
        # non-strict recovery still returns potentials for reporting
        duals = recover_duals(small_problem, plan, strict=False)
        assert np.all(np.isfinite(duals.lam)) and np.all(np.isfinite(duals.mu))
        # the strict error carries those same potentials
        assert np.array_equal(err.value.duals.lam, duals.lam) and np.array_equal(err.value.duals.mu, duals.mu)

    def test_support_mask_threshold(self):
        values = np.array([[1.0, 1e-11], [0.5, 0.0]])
        mask = support_mask(values)
        assert mask.tolist() == [[True, False], [True, False]]

    def test_support_tree_orders_cells_by_mass_then_index(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n, m = rng.integers(1, 9, size=2)
            values = rng.integers(0, 4, size=(n, m)) * 0.25  # many ties, some zeros
            mask = support_mask(values)
            assert _support_tree(values, mask) == kruskal_reference(values, mask)

    def test_matches_the_loop_reference_bit_for_bit(self):
        # Random plans in both senses, with rows and columns shrunk below
        # SUPPORT_RTOL and all-zero plans, so that the fills for lines
        # without support and the no-support branch run.
        rng = np.random.default_rng(22)
        seen = {"unsupported line": 0, "no support": 0, "inconsistent": 0, "consistent cycle": 0}
        for case in range(400):
            n, m = (int(k) for k in rng.integers(1, 7, size=2))
            sense = (MAXIMIZE, MINIMIZE)[case % 2]
            family = case % 3
            if family == 0:  # every cycle consistent
                weights = rng.integers(-3, 4, size=n)[:, None] + rng.integers(-3, 4, size=m)[None, :] + 0.5
            elif family == 1:  # integer weights with many ties
                weights = rng.integers(-3, 4, size=(n, m)) * 0.5
            else:
                weights = rng.normal(scale=10.0 ** rng.integers(-2, 4), size=(n, m))
            prob = OTProblem(weights, np.full(n, float(m)), np.full(m, float(n)), sense)
            values = rng.random((n, m)) * (rng.random((n, m)) < rng.uniform(0.2, 1.0))
            if rng.random() < 0.4:
                values[rng.integers(n)] *= 1e-12
            if rng.random() < 0.4:
                values[:, rng.integers(m)] *= 1e-12
            if case % 25 == 0:
                values[:] = 0.0
            plan = TransportPlan.against(values, prob.row_marginals, prob.col_marginals)
            mask = support_mask(values)
            if not mask.any():
                seen["no support"] += 1
            elif not (mask.any(axis=1).all() and mask.any(axis=0).all()):
                seen["unsupported line"] += 1
            duals = recover_duals(prob, plan, strict=False)
            lam, mu = loop_recover_duals(prob, plan, strict=False)
            assert np.array_equal(duals.lam, lam) and np.array_equal(duals.mu, mu)
            expected = strict_outcome(loop_recover_duals, prob, plan)
            assert strict_outcome(recover_duals, prob, plan) == expected
            if expected is not None:
                seen["inconsistent"] += 1
            elif kruskal_reference(values, mask)[1]:
                seen["consistent cycle"] += 1
        assert min(seen.values()) >= 10, seen


class TestVerifyBalanced:
    def test_known_plan_is_balanced(self, small_problem, known_plan):
        plan = TransportPlan.against(known_plan, small_problem.row_marginals, small_problem.col_marginals)
        report = verify_balanced(small_problem, plan)
        assert report.is_balanced
        assert abs(report.duality_gap) <= 1e-9
        assert report.objective == pytest.approx(0.545, abs=1e-12)

    def test_oracle_plan_certifies_beyond_the_exp_range(self, small_problem):
        # exp(720 + a) overflows; every checked field is additive, so the
        # certificate must not form the multiplicative weights.
        shifted = OTProblem(small_problem.weights + 720.0, small_problem.row_marginals,
                            small_problem.col_marginals)
        oracle = lp_oracle(shifted)
        report = verify_balanced(shifted, oracle.plan)
        assert report.is_balanced
        assert report.objective == pytest.approx(720.0 + 0.545, abs=1e-9)
        assert abs(report.duality_gap) <= 1e-9

    def test_constant_coefficients_accept_the_product_plan(self):
        moma = MOMAProblem(np.full((2, 3), 2.0), [0.5, 0.5], [0.3, 0.4, 0.3])
        x = np.outer(moma.row_marginals, moma.col_marginals)  # total mass is 1
        plan = TransportPlan.against(x, moma.row_marginals, moma.col_marginals)
        report = verify_balanced(moma, plan)
        assert report.is_balanced
        duals = recover_duals(moma, plan)
        assert np.allclose(duals.lam, 0.0, atol=1e-12)  # weights alpha = exp(-lam) all one
        assert np.allclose(duals.mu, np.log(2.0), atol=1e-12)  # beta = exp(mu), the column values of b

    def test_perturbed_plan_is_rejected(self, small_problem):
        perturbed = np.array([[0.05, 0.2, 0.0], [0.0, 0.05, 0.2], [0.15, 0.35, 0.0]])
        plan = TransportPlan.against(perturbed, small_problem.row_marginals, small_problem.col_marginals)
        report = verify_balanced(small_problem, plan)
        assert not report.is_balanced
        assert report.max_slackness_violation > 1e-8
        assert report.violation == (1, 1)  # where strict recovery locates it
        # feasibility was preserved by construction
        assert max(report.marginal_residuals) <= 1e-12
        # with duals passed in, nothing was recovered, so nothing is located
        duals = recover_duals(small_problem, plan, strict=False)
        assert verify_balanced(small_problem, plan, duals=duals).violation is None

    def test_minimization_reverses_the_inequality(self, small_problem, known_plan):
        negated = OTProblem(-small_problem.weights, small_problem.row_marginals,
                            small_problem.col_marginals, MINIMIZE)
        plan = TransportPlan.against(known_plan, negated.row_marginals, negated.col_marginals)
        report = verify_balanced(negated, plan)
        assert report.is_balanced
        assert abs(report.duality_gap) <= 1e-9

    @pytest.mark.parametrize("lengths", [(2, 3), (3, 2), (1, 3), (3, 1)])
    def test_duals_of_the_wrong_length_are_rejected(self, small_problem, known_plan, lengths):
        plan = TransportPlan.against(known_plan, small_problem.row_marginals, small_problem.col_marginals)
        duals = DualPotentials(np.zeros(lengths[0]), np.zeros(lengths[1]))
        with pytest.raises(LengthMismatch, match=f"lengths {lengths[0]} and {lengths[1]}"):
            verify_balanced(small_problem, plan, duals=duals)

    def test_a_gap_past_the_exp_range_is_an_infinite_violation(self):
        # expm1(800) overflows; the violation reads inf, with no warning.
        prob = OTProblem([[800.0, 0.0], [0.0, 800.0]], np.ones(2), np.ones(2))
        report = verify_balanced(prob, lp_oracle(prob).plan, duals=DualPotentials(np.zeros(2), np.zeros(2)))
        assert report.max_slackness_violation == np.inf
        assert report.max_dual_infeasibility == 0.0
        assert not report.is_balanced

    def test_weak_duality_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            prob = random_problem(rng, 4, 5)
            # a feasible plan via plain scaling, and deliberately loose duals
            feas = ipfp_matrix(np.exp(prob.weights), prob.row_marginals, prob.col_marginals,
                               max_iters=20_000, tol=1e-12)
            lam = rng.uniform(0.0, 2.0, size=4) + float(np.max(prob.weights))
            mu = rng.uniform(0.0, 2.0, size=5)
            dual_value = float(lam @ prob.row_marginals + mu @ prob.col_marginals)
            primal = float(np.sum(prob.weights * feas.x))
            assert np.all(lam[:, None] + mu[None, :] >= prob.weights - 1e-12)
            assert dual_value >= primal - 1e-9


class TestLPOracle:
    def test_small_example_exact(self, small_problem, known_plan):
        result = lp_oracle(small_problem)
        assert np.allclose(result.plan.values, known_plan, atol=1e-9)
        assert result.objective == pytest.approx(0.545, abs=1e-9)
        assert result.min_offbasis_reduced_cost > 1e-3  # unique optimum
        report = verify_balanced(small_problem, result.plan, duals=result.duals)
        assert report.is_balanced
        assert abs(report.duality_gap) <= 1e-9

    def test_scalar_problem(self):
        result = lp_oracle(OTProblem([[0.3]], [2.0], [2.0]))
        assert result.plan.values[0, 0] == 2.0
        assert result.objective == pytest.approx(0.6, rel=1e-15)

    def test_oracle_certificates_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            prob = random_problem(rng, 5, 4)
            result = lp_oracle(prob)
            report = verify_balanced(prob, result.plan, duals=result.duals)
            assert report.is_balanced
            assert abs(report.duality_gap) <= 1e-9

    def test_against_independent_lp_solver(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n, m = rng.integers(2, 7, size=2)
            prob = random_problem(rng, int(n), int(m))
            mine = lp_oracle(prob)
            value, plan = highs_optimum(prob)
            assert mine.objective == pytest.approx(value, abs=1e-9)
            if mine.is_unique(1e-7):
                assert np.allclose(mine.plan.values, plan, atol=1e-7)

    def test_against_independent_lp_solver_at_desk_size(self):
        # In the assignment, unit marginals make every basis degenerate and
        # the tied weights leave many optimal plans.
        for prob in desk_and_assignment():
            mine = lp_oracle(prob)
            value, _ = highs_optimum(prob)
            assert mine.objective == pytest.approx(value, rel=1e-9, abs=1e-9)
            assert verify_balanced(prob, mine.plan, duals=mine.duals).is_balanced
        # A basic plan of an assignment problem is a permutation matrix.
        values = mine.plan.values
        assert np.array_equal(np.sort(values, axis=1)[:, -1], np.ones(12))
        assert np.count_nonzero(values) == 12

    def test_pinned_pivot_counts_on_desk_problems(self):
        # Least-cost start, Dantzig entering: the rules fix the pivot
        # sequence, so these counts move only if the start, entering or
        # leaving rule does.
        pivots = []
        for prob in desk_problems():
            n, m = prob.n, prob.m
            oracle = lp_oracle(prob)
            pivots.append(oracle.pivots)
            assert verify_balanced(prob, oracle.plan, duals=oracle.duals).is_balanced
            assert oracle.min_offbasis_reduced_cost >= -ORACLE_OPT_TOL
            # The final basis is nondegenerate, hence the plan's support, so a
            # fresh traversal of it from row 0 gives the same duals bit for bit.
            assert np.count_nonzero(support_mask(oracle.plan.values)) == n + m - 1
            fresh = recover_duals(prob, oracle.plan)
            assert np.array_equal(oracle.duals.lam, fresh.lam)
            assert np.array_equal(oracle.duals.mu, fresh.mu)
        assert pivots == [26, 37, 32]

    def test_bland_fallback_alone(self, monkeypatch):
        # With a run limit of 0 every pivot enters by Bland's rule, the
        # anti-cycling fallback, which the benchmark's problems never reach.
        monkeypatch.setattr(verify, "_DEGENERATE_RUN", 0)
        pivots = []
        for prob in desk_problems():
            oracle = lp_oracle(prob)
            pivots.append(oracle.pivots)
            assert verify_balanced(prob, oracle.plan, duals=oracle.duals).is_balanced
        assert pivots == [85, 214, 104]
        _, assignment = desk_and_assignment()
        for prob in (assignment, degenerate_example()):
            mine = lp_oracle(prob)
            value, _ = highs_optimum(prob)
            assert mine.objective == pytest.approx(value, rel=1e-9, abs=1e-9)
            assert verify_balanced(prob, mine.plan, duals=mine.duals).is_balanced

    def test_minimize_sense(self, small_problem, known_plan):
        negated = OTProblem(-small_problem.weights, small_problem.row_marginals,
                            small_problem.col_marginals, MINIMIZE)
        result = lp_oracle(negated)
        assert np.allclose(result.plan.values, known_plan, atol=1e-9)
        assert result.objective == pytest.approx(-0.545, abs=1e-9)

    def test_equivalence_of_transport_optimum_and_balanced_allocation(self):
        # The regularized solver's annealed plan approaches the unique LP
        # optimum, and that optimum passes the balance certificate under
        # the multiplicative form with b = exp(a).
        from balanced_transport import make_schedule, solve

        rng = np.random.default_rng(16)
        checked = 0
        while checked < 5:
            prob = random_problem(rng, 3, 4)
            oracle = lp_oracle(prob)
            if not oracle.is_unique(1e-6):
                continue
            annealed = solve(prob, make_schedule(1e-4, 12, 1.5, 1e-2))
            assert annealed.converged
            assert np.max(np.abs(annealed.plan.values - oracle.plan.values)) < 0.01
            moma_report = verify_balanced(ot_to_moma(prob), oracle.plan)
            assert moma_report.is_balanced
            checked += 1

    def test_size_guard(self):
        big = OTProblem(np.zeros((101, 101)), np.ones(101), np.ones(101))
        with pytest.raises(SizeGuardExceeded):
            lp_oracle(big)
        at_guard = OTProblem(np.zeros((100, 100)), np.ones(100), np.ones(100))
        result = lp_oracle(at_guard)  # constant weights: any feasible plan is optimal
        assert result.plan.row_residual <= 1e-9

    def test_degenerate_marginals(self):
        # equal masses force degenerate pivots, which the pricing must cope with
        prob = degenerate_example()
        result = lp_oracle(prob)
        report = verify_balanced(prob, result.plan, duals=result.duals)
        assert report.is_balanced

    @pytest.mark.parametrize("weights", [
        [[1e308, 0.0, -1e308], [1e308, 1e308, 1e308], [-1e308, -1e308, 0.0]],
        [[1e308, -1e308], [-1e308, 1e308]],
    ])
    def test_weights_near_the_float_maximum_overflow(self, weights):
        # Duals would leave the float range: a typed error before any pivot,
        # not an exhausted budget, an inf objective or a numpy warning.
        n = len(weights)
        with pytest.raises(Overflow):
            lp_oracle(OTProblem(np.array(weights), np.ones(n), np.ones(n), MAXIMIZE))

    def test_assignments_at_the_float_range_match_brute_force(self):
        # At 1e306 the duals still fit; the suite turns any numpy warning
        # into a failure.
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = int(rng.integers(1, 6))
            a = rng.uniform(-1.0, 1.0, size=(n, n)) * 1e306
            sense = (MAXIMIZE, MINIMIZE)[trial % 2]
            pick = max if sense == MAXIMIZE else min
            best = pick(sum(a[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
            oracle = lp_oracle(OTProblem(a, np.ones(n), np.ones(n), sense))
            assert oracle.objective == pytest.approx(best, rel=1e-12, abs=1e-12 * n * 1e306)

    @pytest.mark.parametrize("seed, family", enumerate(SWEEP_FAMILIES), ids=SWEEP_FAMILIES)
    def test_degenerate_and_wide_range_problems_against_highs(self, seed, family):
        rng = np.random.default_rng(seed)
        for trial in range(40):
            prob = sweep_problem(family, rng, (MAXIMIZE, MINIMIZE)[trial % 2])
            mine = lp_oracle(prob)
            value, _ = highs_optimum(prob)
            assert mine.objective == pytest.approx(value, rel=1e-9, abs=1e-9)
            report = verify_balanced(prob, mine.plan, duals=mine.duals)
            # verify_balanced measures slackness in the additive domain, so
            # it resolves no finer than the weights' float spacing: about
            # 1e-4 at |a| ~ 1e12, beyond KKT_RTOL.  Allow that floor only.
            floor = 4 * (prob.n + prob.m) * np.finfo(float).eps * float(np.max(np.abs(prob.weights)))
            assert max(report.marginal_residuals) <= KKT_RTOL
            assert report.max_slackness_violation <= KKT_RTOL + floor
            assert report.max_dual_infeasibility <= KKT_RTOL + floor


def highs_optimum(prob):
    """Optimal value (in the problem's sense) and plan from scipy's HiGHS."""
    from scipy.optimize import linprog  # a declared test dependency: missing, these checks fail

    n, m = prob.n, prob.m
    rows = np.kron(np.eye(n), np.ones(m))  # sums of x.ravel() over each row
    cols = np.kron(np.ones(n), np.eye(m))  # and over each column
    sign = -1.0 if prob.sense == MAXIMIZE else 1.0
    res = linprog(sign * prob.weights.ravel(), A_eq=np.vstack([rows, cols]),
                  b_eq=np.concatenate([prob.row_marginals, prob.col_marginals]), method="highs")
    assert res.status == 0
    return sign * res.fun, res.x.reshape(n, m)


class TestLeastCostBasis:
    @staticmethod
    def assert_spanning_tree(basis, n, m):
        # n + m - 1 distinct cells closing no cycle on n + m nodes span them.
        assert len(basis) == len(set(basis)) == n + m - 1
        parent = list(range(n + m))

        def find(u):
            while parent[u] != u:
                u = parent[u]
            return u

        for i, j in basis:
            ru, rv = find(i), find(n + j)
            assert ru != rv
            parent[ru] = rv

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1), st.booleans())
    def test_a_spanning_tree_that_meets_the_marginals(self, n, m, seed, tied):
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, 3, size=(n, m)).astype(float) if tied else rng.standard_normal((n, m))
        r = rng.uniform(0.5, 1.5, size=n)
        c = rng.uniform(0.5, 1.5, size=m)
        c *= r.sum() / c.sum()
        x, basis = _least_cost_basis(cost, r, c)
        self.assert_spanning_tree(basis, n, m)
        off = np.ones((n, m), dtype=bool)
        off[tuple(zip(*basis))] = False
        assert np.all(x >= 0.0) and not np.any(x[off])
        assert np.allclose(x.sum(axis=1), r, rtol=0.0, atol=1e-13 * r.sum())
        assert np.allclose(x.sum(axis=0), c, rtol=0.0, atol=1e-13 * r.sum())

    def test_tied_costs_and_unit_marginals(self):
        # Every cost ties, so cells come row-major; each exhausted row closes
        # until one is left, and the zero allocations step down the columns.
        x, basis = _least_cost_basis(np.zeros((4, 4)), np.ones(4), np.ones(4))
        assert basis == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]
        assert np.array_equal(x, np.eye(4))
        self.assert_spanning_tree(basis, 4, 4)

    def test_single_row_and_single_column(self):
        cost = np.array([[2.0, 0.0, 1.0]])
        c = np.array([0.5, 1.5, 1.0])
        x, basis = _least_cost_basis(cost, np.array([3.0]), c)
        assert basis == [(0, 1), (0, 2), (0, 0)]
        assert np.array_equal(x, c[None, :])
        x, basis = _least_cost_basis(cost.T, c, np.array([3.0]))
        assert basis == [(1, 0), (2, 0), (0, 0)]
        assert np.array_equal(x, c[:, None])


class TestGreedyNorthwest:
    def test_diagonal_reward(self):
        prob = OTProblem([[0.0, 0.0], [0.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
        plan = greedy_northwest(prob)
        assert np.array_equal(plan.values, [[0.5, 0.0], [0.0, 0.5]])
        assert plan.objective(prob) == pytest.approx(lp_oracle(prob).objective, abs=1e-12)
        assert monge_check(prob).is_monge

    def test_constant_weights_feasible_and_optimal(self):
        prob = OTProblem(np.full((3, 3), 1.0), np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.3, 0.2]))
        plan = greedy_northwest(prob)
        assert plan.row_residual <= 1e-15
        assert plan.objective(prob) == pytest.approx(lp_oracle(prob).objective, rel=1e-12)

    def test_small_example_suboptimal(self, small_problem):
        plan = greedy_northwest(small_problem)
        assert plan.objective(small_problem) == pytest.approx(0.265, abs=1e-12)
        assert plan.objective(small_problem) < 0.545

    @staticmethod
    def staircase(r, c):
        """The northwest-corner rule as a loop: allocate, then step down or right."""
        n, m = len(r), len(c)
        x, basis, rr, cc = np.zeros((n, m)), [], list(r), list(c)
        i = j = 0
        while True:
            q = min(rr[i], cc[j])
            x[i, j] = q
            basis.append((i, j))
            rr[i] -= q
            cc[j] -= q
            if (i, j) == (n - 1, m - 1):
                return x, basis
            if j == m - 1 or (rr[i] == 0 and i < n - 1):
                i += 1
            else:
                j += 1

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(1, 11), max_size=7), st.sets(st.integers(1, 11), max_size=7),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_the_staircase_rule(self, row_cuts, col_cuts, seed, tied):
        # Tied: integer marginals cut from one total of 12, so a row and a
        # column often run out together.  Otherwise uniform marginals.
        n, m = len(row_cuts) + 1, len(col_cuts) + 1
        rng = np.random.default_rng(seed)
        if tied:
            r = np.diff([0, *sorted(row_cuts), 12]).astype(float)
            c = np.diff([0, *sorted(col_cuts), 12]).astype(float)
        else:
            r = rng.uniform(0.5, 1.5, size=n)
            c = rng.uniform(0.5, 1.5, size=m)
            c *= r.sum() / c.sum()
        x, basis = self.staircase(r, c)
        assert np.array_equal(greedy_northwest(OTProblem(rng.standard_normal((n, m)), r, c)).values, x)
        assert _least_cost_basis(np.zeros((n, m)), r, c)[1] == basis

    def test_monge_implies_greedy_optimal(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            prob = supermodular_problem(rng, 6, 5)
            assert monge_check(prob).is_monge
            greedy_value = greedy_northwest(prob).objective(prob)
            assert greedy_value == pytest.approx(lp_oracle(prob).objective, abs=1e-9)
