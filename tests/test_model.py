import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balanced_transport import (
    AnnealingSchedule,
    DualPotentials,
    GlobalFeasibilityViolation,
    LengthMismatch,
    MAXIMIZE,
    MINIMIZE,
    MOMAProblem,
    NonFiniteEntry,
    NonPositiveCoefficient,
    NonPositiveMarginal,
    OTProblem,
    Overflow,
    Scalings,
    TransportPlan,
    lp_oracle,
    moma_to_ot,
    monge_check,
    ot_to_moma,
    require_valid,
    solve,
)
from problems import random_problem


class TestValidation:
    def test_small_example_is_valid(self, small_problem):
        assert require_valid(small_problem) is small_problem

    def test_trivial_identity_case(self):
        require_valid(OTProblem([[0.0]], [1.0], [1.0]))

    def test_global_feasibility_violation(self):
        with pytest.raises(GlobalFeasibilityViolation):
            require_valid(OTProblem([[0.0], [0.0]], [1.0, 1.0], [1.0]))

    def test_feasibility_tolerance_is_relative(self):
        r = [1.0, 1.0]
        c = [2.0 * (1.0 + 5e-11)]
        require_valid(OTProblem([[0.0], [0.0]], r, c))
        c_bad = [2.0 * (1.0 + 5e-10)]
        with pytest.raises(GlobalFeasibilityViolation):
            require_valid(OTProblem([[0.0], [0.0]], r, c_bad))

    def test_overflowing_total_mass_is_a_feasibility_violation(self):
        with pytest.raises(GlobalFeasibilityViolation, match="overflows"):
            OTProblem([[0.0], [0.0]], [1e308, 1e308], [1.0])

    def test_nonpositive_marginal(self):
        with pytest.raises(NonPositiveMarginal):
            require_valid(OTProblem([[0.0]], [0.0], [0.0]))

    def test_nonpositive_coefficient(self):
        with pytest.raises(NonPositiveCoefficient, match=r"\[1, 2\]"):  # 1-based location
            require_valid(MOMAProblem([[1.0, -2.0]], [1.0], [0.5, 0.5]))

    def test_nonfinite_entry(self):
        with pytest.raises(NonFiniteEntry):
            require_valid(OTProblem([[np.nan]], [1.0], [1.0]))

    def test_checks_run_in_a_fixed_order(self):
        # Non-finite weights are reported before a non-positive marginal,
        # and that before the global feasibility condition.
        with pytest.raises(NonFiniteEntry, match="weights"):
            require_valid(OTProblem([[np.inf], [0.0]], [0.0, 1.0], [5.0]))
        with pytest.raises(NonPositiveMarginal, match=r"row_marginals\[1\]"):
            require_valid(OTProblem([[0.0], [0.0]], [0.0, 1.0], [5.0]))

    def test_negative_and_zero_weights_are_fine(self):
        require_valid(OTProblem([[-3.0, 0.0]], [1.0], [0.5, 0.5]))

    def test_marginal_length_mismatch_raises_at_construction(self):
        with pytest.raises(LengthMismatch):
            OTProblem([[0.0, 0.0]], [1.0, 1.0], [1.0])

    def test_problems_are_immutable(self, small_problem):
        with pytest.raises(Exception):
            small_problem.weights[0, 0] = 5.0


class TestFormConversion:
    def test_zero_weights_become_unit_coefficients(self):
        moma = ot_to_moma(OTProblem([[0.0, 0.0]], [1.0], [0.5, 0.5]))
        assert np.array_equal(moma.coefficients, [[1.0, 1.0]])

    def test_unit_entry_maps_to_e(self, small_problem):
        moma = ot_to_moma(small_problem)
        assert moma.coefficients[0, 1] == pytest.approx(np.e, rel=1e-15)

    def test_log_two(self):
        ot = moma_to_ot(MOMAProblem([[2.0]], [1.0], [1.0]))
        assert ot.weights[0, 0] == pytest.approx(np.log(2.0), rel=1e-15)

    def test_round_trip(self, small_problem):
        back = moma_to_ot(ot_to_moma(small_problem))
        assert np.allclose(back.weights, small_problem.weights, rtol=1e-14, atol=1e-14)
        assert back.sense == small_problem.sense

    def test_overflow_rejected(self):
        with pytest.raises(Overflow):
            ot_to_moma(OTProblem([[1000.0]], [1.0], [1.0]))

    def test_underflow_rejected(self, small_problem):
        # exp(-800) is 0.0: no valid coefficient, so the 1-based cell is named.
        p = small_problem
        shifted = OTProblem(p.weights - 800.0, p.row_marginals, p.col_marginals)
        with pytest.raises(Overflow, match=r"\[1, 1\]"):
            ot_to_moma(shifted)
        with pytest.raises(Overflow, match=r"\[1, 1\]"):
            solve(shifted, AnnealingSchedule(((1e-2, 1e-2),)))

    def test_nonpositive_coefficient_rejected_on_inverse(self):
        with pytest.raises(NonPositiveCoefficient):
            moma_to_ot(MOMAProblem([[0.0]], [1.0], [1.0]))


class TestSenseFlip:
    def test_argmax_equals_argmin_of_negated(self, small_problem):
        plan_max = lp_oracle(small_problem).plan.values
        negated = OTProblem(-small_problem.weights, small_problem.row_marginals,
                            small_problem.col_marginals, MINIMIZE)
        plan_min = lp_oracle(negated).plan.values
        assert np.allclose(plan_max, plan_min, atol=1e-12)


class TestMarginalScaling:
    def test_oracle_plan_scales(self, small_problem, known_plan):
        p = small_problem
        halved = lp_oracle(OTProblem(p.weights, p.row_marginals / 2, p.col_marginals / 2)).plan.values
        assert np.allclose(halved, known_plan / 2.0, atol=1e-12)


class TestMongeCheck:
    def test_constant_matrix(self):
        assert monge_check(OTProblem(np.zeros((3, 4)), np.ones(3) / 3, np.ones(4) / 4)).is_monge

    def test_single_minor(self):
        assert monge_check(OTProblem([[0.0, 0.0], [0.0, 1.0]], [0.5, 0.5], [0.5, 0.5])).is_monge

    def test_small_example_violation(self, small_problem):
        result = monge_check(small_problem)
        assert not result.is_monge
        assert result.first_violation == (1, 2, 1, 2)

    def test_multiplicative_form_agrees(self, small_problem):
        rng = np.random.default_rng(3)
        for _ in range(20):
            prob = random_problem(rng, 4, 5)
            assert monge_check(prob).is_monge == monge_check(ot_to_moma(prob)).is_monge

    def test_ties_satisfy_the_inequality(self):
        a = [[1.0, 2.0], [2.0, 3.0]]  # equality in the lone minor
        assert monge_check(OTProblem(a, [0.5, 0.5], [0.5, 0.5])).is_monge

    def test_minimize_sense_reverses_inequality(self):
        a = [[0.0, 1.0], [1.0, 0.0]]  # submodular: fails max form, passes min form
        assert not monge_check(OTProblem(a, [0.5, 0.5], [0.5, 0.5], MAXIMIZE)).is_monge
        assert monge_check(OTProblem(a, [0.5, 0.5], [0.5, 0.5], MINIMIZE)).is_monge


class TestShiftInvariance:
    def test_row_and_column_shifts_preserve_the_optimal_plan(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 5:
            prob = random_problem(rng, 4, 4)
            base = lp_oracle(prob)
            if not base.is_unique(1e-7):
                continue
            lam = rng.uniform(-2.0, 2.0, size=4)
            mu = rng.uniform(-2.0, 2.0, size=4)
            shifted = OTProblem(
                prob.weights + lam[:, None] + mu[None, :],
                prob.row_marginals,
                prob.col_marginals,
            )
            again = lp_oracle(shifted)
            assert np.allclose(again.plan.values, base.plan.values, atol=1e-9)
            checked += 1


class TestScalingsAndPotentials:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        scalings = Scalings(rng.uniform(0.1, 10.0, size=6), rng.uniform(0.1, 10.0, size=4))
        back = scalings.to_potentials().to_scalings()
        assert np.allclose(back.alpha, scalings.alpha, rtol=1e-12)
        assert np.allclose(back.beta, scalings.beta, rtol=1e-12)

    def test_positivity_enforced(self):
        with pytest.raises(Exception):
            Scalings([1.0, -1.0], [1.0])

    @pytest.mark.parametrize(
        "convert, error",
        [
            (lambda: DualPotentials([-800.0], [0.0]).to_scalings(), NonFiniteEntry),
        ],
        ids=["to_scalings"],
    )
    def test_an_overflowing_conversion_raises_its_typed_error_alone(self, convert, error):
        # RuntimeWarnings are errors in this suite, so a numpy overflow
        # warning ahead of the typed error fails the test.
        with pytest.raises(error):
            convert()


class TestPlansAndReports:
    def test_residuals_recompute_exactly(self, small_problem, known_plan):
        plan = TransportPlan.against(known_plan, small_problem.row_marginals, small_problem.col_marginals)
        recomputed = TransportPlan.against(plan.values, small_problem.row_marginals, small_problem.col_marginals)
        assert plan.row_residual == recomputed.row_residual
        assert plan.col_residual == recomputed.col_residual

    def test_negative_entries_rejected(self, small_problem):
        bad = np.array([[0.3, -0.1, 0.0], [0.0, 0.05, 0.2], [0.2, 0.3, 0.0]])
        with pytest.raises(Exception, match=r"\[1, 2\]"):
            TransportPlan.against(bad, small_problem.row_marginals, small_problem.col_marginals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entries_rejected(self, small_problem, known_plan, bad):
        values = np.array(known_plan, dtype=float)
        values[1, 2] = bad
        with pytest.raises(NonFiniteEntry, match=r"\[2, 3\]"):
            TransportPlan.against(values, small_problem.row_marginals, small_problem.col_marginals)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6), st.integers())
    @settings(max_examples=30, deadline=None)
    def test_random_problems_validate(self, n, m, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        require_valid(random_problem(rng, n, m))
