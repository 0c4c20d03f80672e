import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balanced_transport import (
    InconsistentSupport,
    LengthMismatch,
    MINIMIZE,
    MOMAProblem,
    NonPositiveEntry,
    OTProblem,
    SizeGuardExceeded,
    TransportPlan,
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
from problems import random_problem, supermodular_problem

positive_vectors = st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8)


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
        with pytest.raises(NonPositiveEntry):
            hilbert_distance(np.array([1.0, 0.0]), np.ones(2))


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

    def test_support_mask_threshold(self):
        values = np.array([[1.0, 1e-11], [0.5, 0.0]])
        mask = support_mask(values)
        assert mask.tolist() == [[True, False], [True, False]]


class TestVerifyBalanced:
    def test_known_plan_is_balanced(self, small_problem, known_plan):
        plan = TransportPlan.against(known_plan, small_problem.row_marginals, small_problem.col_marginals)
        report = verify_balanced(small_problem, plan)
        assert report.is_balanced
        assert abs(report.duality_gap) <= 1e-9
        assert report.objectives.total_ot_value == pytest.approx(0.545, abs=1e-12)

    def test_constant_coefficients_accept_the_product_plan(self):
        moma = MOMAProblem(np.full((2, 3), 2.0), [0.5, 0.5], [0.3, 0.4, 0.3])
        x = np.outer(moma.row_marginals, moma.col_marginals)  # total mass is 1
        plan = TransportPlan.against(x, moma.row_marginals, moma.col_marginals)
        report = verify_balanced(moma, plan)
        assert report.is_balanced
        duals = recover_duals(moma, plan)
        scalings = duals.to_scalings()
        assert np.allclose(scalings.alpha, 1.0, atol=1e-12)  # weights all one
        assert np.allclose(scalings.beta, 2.0, atol=1e-12)  # the column values of b

    def test_perturbed_plan_is_rejected(self, small_problem):
        perturbed = np.array([[0.05, 0.2, 0.0], [0.0, 0.05, 0.2], [0.15, 0.35, 0.0]])
        plan = TransportPlan.against(perturbed, small_problem.row_marginals, small_problem.col_marginals)
        report = verify_balanced(small_problem, plan)
        assert not report.is_balanced
        assert report.max_slackness_violation > 1e-8
        # feasibility was preserved by construction
        assert max(report.marginal_residuals) <= 1e-12

    def test_minimization_reverses_the_inequality(self, small_problem, known_plan):
        negated = OTProblem(-small_problem.weights, small_problem.row_marginals,
                            small_problem.col_marginals, MINIMIZE)
        plan = TransportPlan.against(known_plan, negated.row_marginals, negated.col_marginals)
        report = verify_balanced(negated, plan)
        assert report.is_balanced
        assert abs(report.duality_gap) <= 1e-9

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
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(14)
        for _ in range(10):
            n, m = rng.integers(2, 7, size=2)
            prob = random_problem(rng, int(n), int(m))
            mine = lp_oracle(prob)
            a_eq = []
            b_eq = []
            for i in range(prob.n):
                row = np.zeros((prob.n, prob.m))
                row[i, :] = 1.0
                a_eq.append(row.ravel())
                b_eq.append(prob.row_marginals[i])
            for j in range(prob.m):
                col = np.zeros((prob.n, prob.m))
                col[:, j] = 1.0
                a_eq.append(col.ravel())
                b_eq.append(prob.col_marginals[j])
            res = linprog(-prob.weights.ravel(), A_eq=np.array(a_eq), b_eq=np.array(b_eq), method="highs")
            assert res.status == 0
            assert mine.objective == pytest.approx(-res.fun, abs=1e-9)
            if mine.is_unique(1e-7):
                assert np.allclose(mine.plan.values, res.x.reshape(prob.n, prob.m), atol=1e-7)

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

    def test_size_guard(self, monkeypatch):
        monkeypatch.delenv("BT_MAX_ORACLE_CELLS", raising=False)
        big = OTProblem(np.zeros((101, 101)), np.ones(101), np.ones(101))
        with pytest.raises(SizeGuardExceeded):
            lp_oracle(big)
        monkeypatch.setenv("BT_MAX_ORACLE_CELLS", "20000")
        result = lp_oracle(big)  # constant weights: any feasible plan is optimal
        assert result.plan.row_residual <= 1e-9

    def test_degenerate_marginals(self):
        # equal masses force degenerate pivots; Bland's rule must cope
        prob = OTProblem(np.array([[0.0, 1.0, 0.2], [0.5, 0.1, 0.9], [0.3, 0.3, 0.3]]),
                         np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]))
        result = lp_oracle(prob)
        report = verify_balanced(prob, result.plan, duals=result.duals)
        assert report.is_balanced


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

    def test_monge_implies_greedy_optimal(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            prob = supermodular_problem(rng, 6, 5)
            assert monge_check(prob).is_monge
            greedy_value = greedy_northwest(prob).objective(prob)
            assert greedy_value == pytest.approx(lp_oracle(prob).objective, abs=1e-9)
