import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from balanced_transport import (
    ETA_FLOOR,
    AnnealingSchedule,
    GridSpec,
    LengthMismatch,
    MAXIMIZE,
    MINIMIZE,
    NonFiniteEntry,
    NonPositiveEntry,
    OTProblem,
    NumericalDegeneracy,
    ValidationError,
    column_multipliers,
    criterion,
    generate_grid,
    hilbert_distance,
    isoelastic_utility,
    make_schedule,
    ot_to_moma,
    phi_eta_step,
    power_norm,
    regularized,
    row_equilibrate,
    small_example,
    solve,
    z_step,
)
from problems import random_problem


class TestPowerNorm:
    def test_matches_plain_norm_at_moderate_p(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0.1, 5.0, size=9)
        for eta, p in [(0.5, 2.0), (0.25, 4.0), (1.0, 1.0)]:
            assert power_norm(v, eta) == pytest.approx(np.linalg.norm(v, ord=p), rel=1e-13)

    def test_no_overflow_at_tiny_eta(self):
        v = np.array([2.0, 1.0, 1.5])
        out = power_norm(v, 1e-6)
        assert np.isfinite(out)
        assert out == pytest.approx(2.0, rel=1e-5)  # approaches the max-norm

    def test_axis_reductions(self):
        rng = np.random.default_rng(1)
        mat = rng.uniform(0.5, 2.0, size=(3, 4))
        cols = power_norm(mat, 0.5, axis=0)
        assert cols.shape == (4,)
        assert cols[1] == pytest.approx(np.linalg.norm(mat[:, 1], ord=2.0), rel=1e-13)

    def test_an_axis_other_than_none_0_or_1_is_rejected(self):
        mat = np.array([[1.0, 2.0], [30.0, 4.0]])
        assert power_norm(mat, 0.5, axis=1) == pytest.approx([math.sqrt(5.0), math.sqrt(916.0)], rel=1e-15)
        for values in (mat, np.ones((2, 3))):
            for axis in (-1, -2, 2):
                with pytest.raises(ValidationError, match="axis"):
                    power_norm(values, 0.5, axis=axis)

    def test_ties_in_the_maximum_are_fine(self):
        assert power_norm(np.array([3.0, 3.0]), 1.0) == pytest.approx(6.0, rel=1e-15)

    @staticmethod
    def _fsum_norm(v: np.ndarray, eta: float) -> float:
        """Untruncated, exactly summed reference: M * fsum((v/M)^(1/eta))^eta."""
        vmax = float(np.max(v))
        return vmax * math.fsum((float(x) / vmax) ** (1.0 / eta) for x in v) ** eta

    @staticmethod
    def _keepdims_norm(v: np.ndarray, eta: float, axis) -> np.ndarray:
        """The same truncated norm through np.max/np.sum with keepdims, then np.squeeze."""
        vmax = np.max(v, axis=axis, keepdims=True)
        ratio = v / vmax
        n = v.size if axis is None else v.shape[axis]
        cutoff = 2.0 ** (-(54 + (n - 1).bit_length()) * eta)
        terms = np.power(ratio, 1.0 / eta, out=np.zeros(ratio.shape), where=~(ratio <= cutoff))
        total = np.sum(terms, axis=axis, keepdims=True)
        return np.squeeze(vmax * total**eta, axis=axis)

    # Terms (v/M)^(1/eta) spread from 1 down to exp(-depth): live, near the
    # cutoff, subnormal and zero, at every temperature.
    spread_inputs = given(
        st.floats(min_value=-8.0, max_value=0.0),
        st.integers(min_value=1, max_value=2048),
        st.sampled_from([None, 0, 1]),
        st.floats(min_value=0.0, max_value=1500.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )

    @staticmethod
    def _spread(log_eta: float, n: int, axis, depth: float, seed: int):
        """(eta, v) for ``spread_inputs``: n-long lines along ``axis``, 1 to 3 of them."""
        eta = 10.0**log_eta
        rng = np.random.default_rng(seed)
        width = 1 if axis is None else int(rng.integers(1, 4))
        shape = (n, width) if axis == 0 else (width, n)
        log_v = np.maximum(eta * rng.uniform(-depth, 0.0, size=shape), -600.0)  # v stays normal
        v = np.exp(log_v + rng.uniform(-50.0, 50.0))
        return eta, (v.ravel() if axis is None else v)

    @spread_inputs
    @settings(max_examples=60, deadline=None)
    def test_truncation_matches_exact_sum(self, log_eta, n, axis, depth, seed):
        eta, v = self._spread(log_eta, n, axis, depth, seed)
        got = np.atleast_1d(power_norm(v, eta, axis=axis))
        # The same reduction without truncation: dropping terms alone may
        # not move the result by more than 4 ulp.
        vmax = np.max(v, axis=axis, keepdims=True)
        with np.errstate(under="ignore"):
            total = np.sum((v / vmax) ** (1.0 / eta), axis=axis, keepdims=True)
        full = np.atleast_1d(np.squeeze(vmax * total**eta))
        lines = [v] if axis is None else list(np.moveaxis(v, axis, -1))
        for out, untruncated, line in zip(got, full, lines):
            assert abs(out - untruncated) <= 4 * math.ulp(untruncated)
            ref = self._fsum_norm(line, eta)
            # 4 ulp, plus the worst-case error of summing n terms in floating
            # point (the untruncated sum has it too: sequential summation
            # along axis 0 reaches tens of ulp at eta near 1), scaled by eta
            # through the outer power.
            summation = eta * (n - 1) * 2.0**-53 * ref
            assert abs(out - ref) <= 4 * math.ulp(ref) + summation

    @spread_inputs
    @example(log_eta=-1.0, n=11, axis=None, depth=49.47079862130778, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_the_keepdims_formulation(self, log_eta, n, axis, depth, seed):
        # The direct ufunc reductions run the same arithmetic in the same
        # order as np.max/np.sum with keepdims, so no bit may differ.
        eta, v = self._spread(log_eta, n, axis, depth, seed)
        got = power_norm(v, eta, axis=axis)
        want = self._keepdims_norm(v, eta, axis)
        assert np.shape(got) == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("eta", [0.5, 1e-2, 1e-4, 1e-6, ETA_FLOOR])
    def test_no_floating_point_exception_down_to_the_floor(self, eta):
        # Term exponents reach -1000 while the entries stay normal: without
        # truncation most terms would underflow to subnormals or zero.
        rng = np.random.default_rng(6)
        mat = np.exp(eta * rng.uniform(-1000.0, 0.0, size=(40, 30)))
        with np.errstate(all="raise"):
            power_norm(mat, eta)
            power_norm(mat, eta, axis=0)
            power_norm(mat, eta, axis=1)


class TestRowEquilibrate:
    def test_constant_matrix_is_fixed(self):
        b = np.full((3, 4), 2.5)
        b_hat, alpha = row_equilibrate(b)
        assert np.array_equal(alpha, np.ones(3))
        assert np.array_equal(b_hat, b)

    def test_already_equilibrated_matrix(self):
        b = np.array([[5.0, 1.0], [1.0, 5.0]])  # each row holds a column max
        _, alpha = row_equilibrate(b)
        assert np.array_equal(alpha, np.ones(2))

    def test_small_example_coefficients(self, small_problem):
        b = np.exp(small_problem.weights)
        b_hat, alpha = row_equilibrate(b)
        assert np.allclose(alpha, [1.0, 1.0, np.exp(0.1)], rtol=1e-14)
        # every row of the scaled matrix touches its column maximum
        col_max = b_hat.max(axis=0)
        assert np.all(np.isclose(b_hat, col_max[None, :], rtol=1e-12).any(axis=1))
        # and the column maxima themselves are unchanged
        assert np.allclose(col_max, b.max(axis=0), rtol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveEntry):
            row_equilibrate(np.array([[1.0, 0.0]]))

    def test_an_overflowing_ratio_solves_without_a_warning(self):
        # col_max / b overflows in cell [2, 1] (e^400 / e^-400); the row's
        # other ratio is finite and sets alpha.  Warnings are errors here.
        # The plan is fitted to the stage tolerance only, so it is pinned at
        # the point where the (over-relaxed) iteration stops, not at the
        # regularized optimum.
        problem = OTProblem([[400.0, 0.0], [-400.0, 0.0]], [1.0, 1.0], [1.0, 1.0])
        result = solve(problem, AnnealingSchedule(((1e-2, 1e-2),)))
        assert result.converged
        assert np.allclose(result.plan.values, [[0.9950047008, 0.0049952992], [0.0, 1.0]], atol=1e-8)

    def test_a_row_of_overflowing_ratios_raises_nonfinite(self):
        problem = OTProblem([[400.0, 400.0], [-400.0, -400.0]], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(NonFiniteEntry):
            solve(problem, AnnealingSchedule(((1e-2, 1e-2),)))


class TestPhiEtaStep:
    def test_scalar_problem_any_alpha_is_fixed(self):
        prob = ot_to_moma(OTProblem([[0.0]], [1.0], [1.0]))
        for alpha0 in (0.3, 1.0, 7.5):
            alpha, beta = phi_eta_step(np.array([alpha0]), prob, eta=0.2)
            assert alpha[0] == pytest.approx(alpha0, rel=1e-14)
            assert beta[0] > 0

    def test_homogeneity(self, small_problem):
        rng = np.random.default_rng(2)
        prob = ot_to_moma(small_problem)
        for _ in range(100):
            alpha = rng.uniform(0.2, 5.0, size=3)
            lam = rng.uniform(0.1, 10.0)
            a1, b1 = phi_eta_step(alpha, prob, eta=0.1)
            a2, b2 = phi_eta_step(lam * alpha, prob, eta=0.1)
            assert np.allclose(a2, lam * a1, rtol=1e-12)
            assert np.allclose(b2, lam * b1, rtol=1e-12)

    def test_strict_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            prob = ot_to_moma(random_problem(rng, 4, 5))
            alpha = rng.uniform(0.2, 5.0, size=4)
            bumped = alpha.copy()
            k = rng.integers(0, 4)
            bumped[k] += rng.uniform(0.01, 1.0)
            base, _ = phi_eta_step(alpha, prob, eta=0.2)
            more, _ = phi_eta_step(bumped, prob, eta=0.2)
            assert np.all(more > base)

    def test_eta_floor_enforced(self, small_problem):
        with pytest.raises(ValidationError):
            phi_eta_step(np.ones(3), ot_to_moma(small_problem), eta=1e-9)

    def test_normalized_iterates_are_cauchy_in_the_hilbert_metric(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            prob = ot_to_moma(random_problem(rng, 4, 5))
            alpha = rng.uniform(0.2, 5.0, size=4)
            steps = []
            for _ in range(80):
                nxt, _ = phi_eta_step(alpha, prob, eta=0.3)
                nxt /= nxt.sum()  # normalization is immaterial to the metric
                steps.append(hilbert_distance(nxt, alpha / alpha.sum()))
                alpha = nxt
            # successive distances contract toward the unique fixed point
            assert steps[-1] < 1e-10
            tail = steps[40:]
            assert all(d2 <= d1 * (1 + 1e-9) for d1, d2 in zip(tail, tail[1:]))


class TestZStep:
    def test_eta_one_is_plain_ipfp_on_z(self):
        rng = np.random.default_rng(4)
        prob = random_problem(rng, 4, 6)
        r, c = prob.row_marginals, prob.col_marginals
        z0 = np.exp(prob.weights)
        z, _, _ = z_step(z0, column_multipliers(z0, c, 1.0), r, c, 1.0)
        manual = z0 * (c / z0.sum(axis=0))[None, :]
        manual = manual * (r / manual.sum(axis=1))[:, None]
        assert np.allclose(z, manual, rtol=1e-14)

    def test_product_coupling_is_a_fixed_point_at_eta_one(self):
        r = np.array([0.25, 0.75])
        c = np.array([0.4, 0.35, 0.25])
        z0 = np.outer(r, c)
        s = column_multipliers(z0, c, 1.0)
        _, t, s_next = z_step(z0, s, r, c, 1.0)
        for multipliers in (s, t, s_next):
            assert np.allclose(multipliers, 1.0, atol=1e-14)

    @pytest.mark.parametrize("eta", [0.5, 0.1])
    def test_matches_ipfp_on_powered_matrix(self, eta):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, 5, 7)
        r, c = prob.row_marginals, prob.col_marginals
        z = np.exp(prob.weights)
        s = column_multipliers(z, c, eta)
        x_ipfp = z ** (1.0 / eta)
        for _ in range(20):
            z, _, s = z_step(z, s, r, c, eta)
            x_ipfp = x_ipfp * (c / x_ipfp.sum(axis=0))[None, :]
            x_ipfp = x_ipfp * (r / x_ipfp.sum(axis=1))[:, None]
            assert np.allclose(z ** (1.0 / eta), x_ipfp, rtol=1e-8)

    def test_arguments_are_left_unchanged(self):
        # The row scaling happens in place, on the step's own new matrix.
        rng = np.random.default_rng(8)
        prob = random_problem(rng, 4, 6)
        r, c = prob.row_marginals, prob.col_marginals
        z = np.exp(prob.weights)
        s = column_multipliers(z, c, 0.3)
        z_before, s_before = z.copy(), s.copy()
        z_next, _, _ = z_step(z, s, r, c, 0.3)
        assert np.array_equal(z, z_before)
        assert np.array_equal(s, s_before)
        assert not np.shares_memory(z_next, z)

    def test_row_sums_after_full_step(self, small_problem):
        r, c = small_problem.row_marginals, small_problem.col_marginals
        z = np.exp(small_problem.weights)
        s = column_multipliers(z, c, 1e-2)
        for _ in range(50):
            z, _, s = z_step(z, s, r, c, 1e-2)
            rows = (z ** (1.0 / 1e-2)).sum(axis=1)
            assert np.allclose(rows, r, rtol=1e-12)


class TestCriterion:
    def test_converged_is_zero(self):
        assert criterion(np.array([1.0, 1.0, 1.0]), eta=0.3) == 0.0

    def test_direct_formula(self):
        assert criterion(np.array([2.0, 1.0]), eta=0.5) == pytest.approx(2.0 * np.log(2.0), rel=1e-14)

    def test_identity_with_hilbert_distance_mid_run(self, small_problem):
        r, c = small_problem.row_marginals, small_problem.col_marginals
        z = np.exp(small_problem.weights)
        s = column_multipliers(z, c, 1e-2)
        for _ in range(40):
            hd = hilbert_distance((z ** (1.0 / 1e-2)).sum(axis=0), c)
            assert criterion(s, eta=1e-2) == pytest.approx(hd, abs=1e-9)
            z, _, s = z_step(z, s, r, c, 1e-2)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveEntry):
            criterion(np.array([1.0, 0.0]), eta=0.5)
        with pytest.raises(NonPositiveEntry):
            criterion(np.array([1.0, -1.0]), eta=0.5)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(NonFiniteEntry, match="finite"):
            criterion(np.array([1.0, bad]), eta=0.5)

    def test_rejects_an_empty_vector(self):
        with pytest.raises(LengthMismatch, match="empty"):
            criterion([], eta=0.5)


class TestSchedule:
    def test_single_stage(self):
        sched = make_schedule(1e-3, 1, 1.5)
        assert sched.stages == ((1e-3, 1e-2),)

    def test_twelve_stage_head(self):
        sched = make_schedule(1e-4, 12, 1.5)
        assert sched.stages[0][0] == pytest.approx(8.6498e-3, rel=1e-4)
        assert sched.stages[0][0] == pytest.approx(1e-4 * 1.5**11, rel=1e-15)
        assert sched.stages[-1][0] == 1e-4  # final stage exact

    def test_consecutive_ratios_equal_factor(self):
        sched = make_schedule(1e-4, 12, 1.5)
        etas = [e for e, _ in sched.stages]
        for e1, e2 in zip(etas, etas[1:]):
            assert e1 / e2 == pytest.approx(1.5, rel=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            make_schedule(1e-4, 0, 1.5)
        with pytest.raises(ValidationError):
            make_schedule(1e-4, 3, 1.0)
        with pytest.raises(ValidationError):
            make_schedule(1e-9, 3, 1.5)  # below the eta floor
        with pytest.raises(ValidationError):
            make_schedule(1e-2, 3, 1.5, tol=0.0)
        with pytest.raises(ValidationError):
            AnnealingSchedule(((1e-2, 0.0),))
        with pytest.raises(ValidationError):
            AnnealingSchedule(((1e-3, 1e-2), (1e-3, 1e-2)))  # not decreasing

    def test_an_overflowing_ladder_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="stages=3000,factor=1.5,final=0.0001"):
            make_schedule(1e-4, 3000, 1.5)


class TestSolve:
    def test_scalar_problem_is_one_iteration(self):
        prob = OTProblem([[0.3]], [2.0], [2.0])
        result = solve(prob, AnnealingSchedule(((0.05, 1e-2),)))
        assert result.converged
        assert result.stage_iterations == (1,)
        assert result.plan.values[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_small_example_single_stage(self, small_problem, known_plan):
        result = solve(small_problem, AnnealingSchedule(((1e-3, 1e-2),)))
        assert result.converged
        assert np.max(np.abs(result.plan.values - known_plan)) < 0.01

    def test_small_example_annealed(self, small_problem, known_plan):
        result = solve(small_problem, make_schedule(1e-4, 12, 1.5, 1e-2))
        assert result.converged
        assert len(result.stage_iterations) == 12
        assert all(k >= 1 for k in result.stage_iterations)
        assert np.max(np.abs(result.plan.values - known_plan)) < 0.01

    def test_scalings_reproduce_the_plan(self, small_problem):
        result = solve(small_problem, AnnealingSchedule(((1e-3, 1e-2),)))
        b = np.exp(small_problem.weights)
        rebuilt = (result.scalings.alpha[:, None] * b / result.scalings.beta[None, :]) ** (1.0 / 1e-3)
        mask = result.plan.values > 1e-12
        assert np.allclose(rebuilt[mask], result.plan.values[mask], rtol=1e-8)

    @pytest.mark.parametrize(
        "schedule",
        [AnnealingSchedule(((1e-2, 1e-2),)), make_schedule(1e-2, 3, 2.0, 1e-2)],
        ids=["1-stage", "3-stage"],
    )
    def test_solve_matches_manual_z_steps(self, small_problem, schedule):
        # z carries across stages, predicted along the secant of the last two
        # stage ends from the second stage's end on; s is recomputed at each
        # stage start, and each stage over-relaxes its column fit by the
        # shared rule.
        result = solve(small_problem, schedule)
        assert len(result.stage_iterations) == len(schedule.stages)
        assert result.stage_iterations[0] > regularized._PROBE_STEPS
        r, c = small_problem.row_marginals, small_problem.col_marginals
        z, alpha = row_equilibrate(np.exp(small_problem.weights))
        beta = np.ones(len(c))
        etas = [eta for eta, _ in schedule.stages]
        crits, ends = [], []
        for k, iterations in enumerate(result.stage_iterations):
            eta = etas[k]
            s = column_multipliers(z, c, eta)
            stage_crits, omega = [], 1.0
            for _ in range(iterations):
                fit = s**omega
                z, t, s = z_step(z, fit, r, c, eta)
                alpha, beta = alpha * t, beta / fit
                stage_crits.append(criterion(s, eta))
                omega = regularized._relaxation(stage_crits, omega)
            crits += stage_crits
            ends = ends[-1:] + [(alpha, beta)]
            if 1 <= k < len(etas) - 1:
                z, alpha, beta = regularized._secant_prediction(z, ends, tuple(etas[k - 1:k + 2]))
        assert np.array_equal(np.array(crits), np.array(result.trace.criteria))
        assert np.array_equal(z, result.final_z)
        assert np.array_equal(z ** (1.0 / schedule.eta_final), result.plan.values)
        assert np.array_equal(alpha, result.scalings.alpha)
        assert np.array_equal(beta, result.scalings.beta)

    def test_minimize_sense(self, small_problem, known_plan):
        negated = OTProblem(-small_problem.weights, small_problem.row_marginals,
                            small_problem.col_marginals, MINIMIZE)
        result = solve(negated, AnnealingSchedule(((1e-3, 1e-2),)))
        assert np.max(np.abs(result.plan.values - known_plan)) < 0.01

    def test_terminal_column_criterion_below_tol(self, small_problem):
        result = solve(small_problem, AnnealingSchedule(((1e-3, 1e-2),)))
        hd = hilbert_distance(result.plan.values.sum(axis=0), small_problem.col_marginals)
        assert hd <= 1e-2
        assert result.final_criterion == pytest.approx(hd, abs=1e-9)

    def test_max_iters_flagged(self, small_problem):
        schedule = AnnealingSchedule(((1e-3, 1e-2),))
        result = solve(small_problem, schedule, max_iters=3)
        assert not result.converged
        assert result.stage_iterations == (3,)
        with pytest.raises(ValidationError):
            solve(small_problem, schedule, max_iters=0)
        with pytest.raises(ValidationError):
            solve(small_problem, schedule, snapshot_stride=0)

    @pytest.mark.parametrize("size", [2, 4])
    def test_a_temperature_whose_cutoff_underflows_solves(self, size):
        # At eta 20 a line's cutoff 2^(-(54 + k) eta) is below the smallest
        # subnormal and rounds to 0, so the stage's band and level limit
        # must not be taken from its logarithm.
        result = solve(generate_grid(GridSpec(size)), AnnealingSchedule(((20.0, 1e-2),)))
        assert result.converged

    @pytest.mark.parametrize("shift", [-700.0, -720.0, -745.0])
    def test_shifted_weights_converge_or_raise_a_typed_error(self, small_problem, known_plan, shift):
        # exp(a - 720) is subnormal, and the stage-start column fit divides by
        # its norm: that overflow must surface as NonFiniteEntry, not as a
        # numpy warning.
        shifted = OTProblem(small_problem.weights + shift, small_problem.row_marginals,
                            small_problem.col_marginals)
        schedule = AnnealingSchedule(((1e-3, 1e-2),))
        if shift > -709.0:
            result = solve(shifted, schedule)
            assert np.max(np.abs(result.plan.values - known_plan)) < 0.01
        else:
            with pytest.raises(NonFiniteEntry, match=r"eta=0\.001 in iteration 1"):
                solve(shifted, schedule)

    def test_trace_is_well_formed(self, small_problem):
        result = solve(small_problem, make_schedule(1e-3, 3, 2.0, 1e-2), snapshot_stride=5)
        ks = result.trace.iterations
        assert all(k2 == k1 + 1 for k1, k2 in zip(ks, ks[1:]))
        assert all(c >= 0 for c in result.trace.criteria)
        assert len(result.trace.snapshots) == len(ks) // 5
        for k, snap in result.trace.snapshots:
            assert snap.shape == (3, 3)

    def test_stage_etas_recorded(self, small_problem):
        result = solve(small_problem, make_schedule(1e-3, 2, 4.0, 1e-2))
        etas = sorted(set(result.trace.etas), reverse=True)
        assert etas == [4e-3, 1e-3]

    def test_degeneracy_matches_comparing_z_every_step(self):
        # Reference: the same iteration through z_step, comparing the whole
        # of z with its predecessor after every step.  At tol 1e-300 only an
        # exactly uniform s converges, so some runs freeze one rounding short.
        degenerate = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, m = (int(k) for k in rng.integers(1, 4, size=2))
            prob = random_problem(rng, n, m)
            r, c = prob.row_marginals, prob.col_marginals
            for eta in (1.0, 0.5):
                z = row_equilibrate(np.exp(prob.weights))[0]
                s = column_multipliers(z, c, eta)
                crits, omega = [], 1.0
                outcome = "max_iters"
                for k in range(1, 301):
                    before = z
                    z, _, s = z_step(z, s**omega, r, c, eta)
                    crits.append(criterion(s, eta))
                    if crits[-1] < 1e-300:
                        outcome = "converged"
                        break
                    if np.array_equal(z, before):
                        outcome = "degenerate"
                        break
                    omega = regularized._relaxation(crits, omega)
                sched = AnnealingSchedule(((eta, 1e-300),))
                if outcome == "degenerate":
                    degenerate += 1
                    with pytest.raises(NumericalDegeneracy):
                        solve(prob, sched, max_iters=300)
                else:
                    result = solve(prob, sched, max_iters=300)
                    assert result.iterations == k
                    assert result.converged == (outcome == "converged")
        assert degenerate > 0


class TestIterationCounts:
    """Iteration counts are deterministic: they are the regression signal."""

    def test_grid64_single_stage(self):
        result = solve(generate_grid(GridSpec(64)), AnnealingSchedule(((1e-3, 1e-2),)))
        assert result.stage_iterations == (452,)
        assert result.stage_fits == (456,)

    def test_grid64_annealed(self):
        result = solve(generate_grid(GridSpec(64)), make_schedule(1e-4, 12, 1.5, 1e-2))
        assert result.stage_iterations == (138, 13, 2, 5, 8, 10, 9, 12, 10, 10, 10, 5)
        assert result.stage_fits == (142, 13, 2, 5, 8, 10, 9, 12, 10, 10, 10, 5)

    def test_grid64_annealed_without_relaxation(self, monkeypatch):
        # With omega held at 1 the relaxed step is the plain one, s**1.0 == s,
        # and the mixed steps mix with weight 1.
        monkeypatch.setattr(regularized, "_relaxation", lambda crits, omega: 1.0)
        result = solve(generate_grid(GridSpec(64)), make_schedule(1e-4, 12, 1.5, 1e-2))
        assert result.stage_iterations == (69, 12, 6, 9, 8, 10, 10, 10, 12, 12, 10, 3)
        assert sum(result.stage_fits) == 181

    def test_grid64_annealed_norm_traffic(self, monkeypatch):
        # One column fit per stage start plus one column and one row fit
        # per row fit taken, undone mixed steps included, each through a
        # module attribute that callers resolve: the dense power_norm (which
        # the benchmark tracer wraps) or the stage kernel's kernel_fit.  The
        # one dense step, stage 0's first, hands off to a kernel built from
        # its z, which takes its own column fit: one more than the step's.
        calls = {0: 0, 1: 0}
        norm, fit = regularized.power_norm, regularized.kernel_fit

        def counting(values, eta, axis=None):
            calls[axis] += 1
            return norm(values, eta, axis)

        def counting_kernel(stage, axis):
            calls[axis] += 1
            return fit(stage, axis)

        monkeypatch.setattr(regularized, "power_norm", counting)
        monkeypatch.setattr(regularized, "kernel_fit", counting_kernel)
        result = solve(generate_grid(GridSpec(64)), make_schedule(1e-4, 12, 1.5, 1e-2))
        fits = sum(result.stage_fits)
        assert fits == result.iterations + 4
        assert calls == {0: fits + 12 + 1, 1: fits}


def _dense_solve(problem: OTProblem, schedule: AnnealingSchedule, max_iters: int = 100_000,
                 plain: bool = False):
    """solve's iteration through z_step alone, comparing z itself for a freeze.

    Each stage over-relaxes its column fit by the rule solve keeps on
    problems with a side below 4, with no mixing, or, with ``plain``,
    keeps omega at 1 throughout.  From the second stage's end
    on, the next stage starts from solve's own secant prediction.

    Returns (outcome, stage iterations, criteria, final z), with outcome
    "converged", "frozen" or "max_iters".
    """
    a = problem.weights if problem.sense == MAXIMIZE else -problem.weights
    z, alpha = row_equilibrate(np.exp(a))
    beta = np.ones(problem.m)
    r, c = problem.row_marginals, problem.col_marginals
    etas = [eta for eta, _ in schedule.stages]
    counts, crits, ends = [], [], []
    for stage, (eta, tol) in enumerate(schedule.stages):
        s = column_multipliers(z, c, eta)
        stage_crits, omega = [], 1.0
        for k in range(1, max_iters + 1):
            before, fit = z, s**omega
            z, t, s = z_step(z, fit, r, c, eta)
            alpha, beta = alpha * t, beta / fit
            stage_crits.append(criterion(s, eta))
            crits.append(stage_crits[-1])
            if crits[-1] < tol:
                break
            if np.array_equal(z, before):
                return "frozen", tuple(counts) + (k,), np.array(crits), z
            omega = 1.0 if plain else regularized._relaxation(stage_crits, omega)
        else:
            return "max_iters", tuple(counts) + (k,), np.array(crits), z
        counts.append(k)
        ends = ends[-1:] + [(alpha, beta)]
        if 1 <= stage < len(etas) - 1:
            z, alpha, beta = regularized._secant_prediction(z, ends, tuple(etas[stage - 1:stage + 2]))
    return "converged", tuple(counts), np.array(crits), z


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of the stage kernel's fits."""
    calls = [0]
    fit = regularized.kernel_fit

    def counting(*args):
        calls[0] += 1
        return fit(*args)

    monkeypatch.setattr(regularized, "kernel_fit", counting)
    return calls


def _z_domain(stage, fit: np.ndarray) -> np.ndarray:
    """A column scaling as ``_Stage.step`` takes it, in the z domain, as ``z_step`` takes it."""
    return fit**stage.eta if stage.on_kernel else fit


def _lockstep_solve(monkeypatch, problem: OTProblem, schedule: AnnealingSchedule):
    """solve, with each of its steps redone by z_step from the z that step started from.

    Every step through ``_Stage.step``, kept or undone, is redone with the
    z-domain column scaling it applied.  Returns solve's result and, in
    ``_dense_solve``'s form, the outcome, the criteria of the kept steps'
    redos and the last one's z.  Each redo starts where solve stands, so
    rounding differences do not compound from step to step, and each
    step's z must agree with its redo's.
    """
    crits, zs = [], []

    class Lockstep(regularized._Stage):
        def step(self, fit, bound, absorb=True):
            z, _, s_ref = z_step(self.materialized(), _z_domain(self, fit), self.r, self.c, self.eta)
            stepped = super().step(fit, bound, absorb)
            if stepped is not None:
                assert np.max(np.abs(self.materialized() - z) / z) <= 1e-12
                crits.append(criterion(s_ref, self.eta))
                zs[:] = [z]
            return stepped

        def restore(self, state):
            super().restore(state)
            crits.pop()

    with monkeypatch.context() as patch:
        patch.setattr(regularized, "_Stage", Lockstep)
        result = solve(problem, schedule)
    outcome = "converged" if result.converged else "max_iters"
    return result, (outcome, result.stage_iterations, np.array(crits), zs[0])


def _count_kernel_traffic(monkeypatch):
    """Counts kernel builds, V and U level exits and dense steps of every solve that follows.

    A V exit is a column fit that a kernel refuses; a U exit is a step
    absorbed after its row fit, which records its ``before`` pair without
    a dense step.
    """
    counts = dict.fromkeys(["builds", "v_exits", "u_exits", "dense"], 0)
    z_step_ = regularized.z_step

    class Counting(regularized._Stage):
        def _build(self, z):
            counts["builds"] += self.kernel_sized
            super()._build(z)

        def _fit_columns(self, v, grow):
            fitted = super()._fit_columns(v, grow)
            counts["v_exits"] += not fitted
            return fitted

        def step(self, fit, bound, absorb=True):
            dense = counts["dense"]
            stepped = super().step(fit, bound, absorb)
            counts["u_exits"] += self.before is not None and counts["dense"] == dense
            return stepped

    def counting_dense(*args):
        counts["dense"] += 1
        return z_step_(*args)

    monkeypatch.setattr(regularized, "_Stage", Counting)
    monkeypatch.setattr(regularized, "z_step", counting_dense)
    return counts


def _raise_in_the_kernel(monkeypatch):
    """Runs the kernel's builds and steps of every solve that follows with every exception raised.

    solve raises on overflow, division by zero and invalid operations;
    the kernel's build and steps also never underflow, so they run
    cleanly with every exception raised.  The dense fallback keeps solve's
    own handling, which lets an underflow pass.  Returns counts of builds,
    of steps whose column fit V took (a step that falls back to dense does
    not count) and of exact levels found past the level limit.
    """
    counts = {"builds": 0, "steps": 0, "levels_past": 0}
    z_step_ = regularized.z_step

    class Raising(regularized._Stage):
        def _build(self, z):
            counts["builds"] += 1
            with np.errstate(all="raise"):
                super()._build(z)

        def _fit_columns(self, v, grow):
            fitted = super()._fit_columns(v, grow)
            counts["steps"] += fitted
            return fitted

        def _level(self, bound, multipliers):
            level = super()._level(bound, multipliers)
            counts["levels_past"] += level > self.max_level
            return level

        def step(self, *args):
            with np.errstate(all="raise"):
                return super().step(*args)

    def dense(*args):
        with np.errstate(under="ignore"):
            return z_step_(*args)

    monkeypatch.setattr(regularized, "_Stage", Raising)
    monkeypatch.setattr(regularized, "z_step", dense)
    return counts


def _extreme_problem(seed: int):
    """A seeded 4-29-sided problem near the float range's edges, with its ladder.

    Both marginals are scaled by one factor 10^u, u uniform in [-150, 150],
    and Gaussian weights by 10^v, v uniform in [0, 2], so entries reach
    about 300.  Even seeds maximize.  Seeds 0 and 1 mod 4 run the 12-stage
    x1.5 ladder; the others a random power-of-two ladder, 1 to 7 distinct
    temperatures 2^-k with k in 0..14, whose consecutive ratios reach 2^14.
    """
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(4, 30, size=2))
    a = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(0.0, 2.0)
    r = rng.uniform(0.5, 1.5, size=n)
    c = rng.uniform(0.5, 1.5, size=m)
    c *= r.sum() / c.sum()
    scale = 10.0 ** rng.uniform(-150.0, 150.0)
    if seed % 4 < 2:
        schedule = make_schedule(1e-4, 12, 1.5, 1e-2)
    else:
        ks = np.sort(rng.choice(np.arange(15), size=int(rng.integers(1, 8)), replace=False))
        schedule = AnnealingSchedule(tuple((2.0 ** -int(k), 1e-2) for k in ks))
    return OTProblem(a, r * scale, c * scale, MAXIMIZE if seed % 2 == 0 else MINIMIZE), schedule


class TestShortlist:
    """Stages run on the stage kernel; dense iterations are the reference."""

    @pytest.mark.parametrize(
        "problem, schedule, pinned",
        [
            (lambda: generate_grid(GridSpec(64)), make_schedule(1e-4, 12, 1.5, 1e-2), (232, 236)),
            (lambda: generate_grid(GridSpec(64)), AnnealingSchedule(((1e-3, 1e-2),)), (452, 456)),
            (lambda: random_problem(np.random.default_rng(1), 24, 40, gaussian=True),
             make_schedule(1e-4, 12, 1.5, 1e-2), (318, 324)),
            (lambda: random_problem(np.random.default_rng(2), 32, 32, MINIMIZE, gaussian=True),
             make_schedule(1e-4, 12, 1.5, 1e-2), (381, 384)),
            (lambda: random_problem(np.random.default_rng(3), 48, 36, gaussian=True),
             make_schedule(1e-4, 12, 1.5, 1e-2), (465, 495)),
            # One cold stage on a random problem, whose lines peak at many
            # scales.  Its criterion sits on plateaus (1.70503, then 0.4678)
            # where the relaxed rule alone takes 4421 steps.
            (lambda: random_problem(np.random.default_rng(1), 24, 40, gaussian=True),
             AnnealingSchedule(((1e-3, 1e-2),)), (1760, 1803)),
        ],
        ids=["grid64-annealed", "grid64-cold", "24x40-max", "32x32-min", "48x36-max", "24x40-cold"],
    )
    def test_matches_the_dense_iteration(self, kernel_calls, monkeypatch, problem, schedule, pinned):
        # Every step, kept or undone, is redone by z_step from solve's own z
        # with the z-domain column scaling the step applied.  The kernel sums
        # the kept terms in another order than the dense kernel, and mixing
        # amplifies that rounding, so two whole runs may part; step by step
        # the iterates agree to rounding.  The counts (kept steps, row fits)
        # are pinned.
        result, (outcome, counts, crits, z) = _lockstep_solve(monkeypatch, problem(), schedule)
        assert kernel_calls[0] > 0
        assert outcome == "converged" and counts == result.stage_iterations
        assert (result.iterations, sum(result.stage_fits)) == pinned
        assert np.max(np.abs(result.final_z - z) / z) <= 1e-12
        plan = z ** (1.0 / schedule.eta_final)
        assert np.max(np.abs(result.plan.values - plan)) <= 1e-10 * np.max(plan)
        assert np.max(np.abs(np.array(result.trace.criteria) - crits)) <= 1e-10

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=-6.0, max_value=-1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_fits_match_the_dense_fits_within_the_bounds(self, n, m, log_eta, reach, level, seed):
        eta = 10.0**log_eta
        rng = np.random.default_rng(seed)
        # Plan-domain depths of up to 2000 nats: most cells fall far below the
        # cutoff, as in the late annealing stages.  Every line peaks at 1,
        # then rows and columns are scaled by up to e^+-50 in the plan.
        z = np.exp(eta * rng.uniform(-2000.0, 0.0, size=(n, m)))
        k = np.arange(max(n, m))
        z[k % n, k % m] = 1.0
        z *= np.exp(eta * rng.uniform(-50.0, 50.0, size=n))[:, None]
        z *= np.exp(eta * rng.uniform(-50.0, 50.0, size=m))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regularized, "_KERNEL_MIN_SIDE", 2)  # a kernel at every side drawn
            probe = regularized._Stage(z, np.ones(n), np.ones(m), eta, np.ones(n), np.ones(m))
            # Marginals whose targets r^eta / R and c^eta / C reach 99% of
            # reach times the level limit, within the target guard.
            reach = 0.99 * reach * probe.level_limit
            r = np.exp(np.log(z.max(axis=1)) / eta + reach * rng.uniform(-1.0, 1.0, size=n))
            c = np.exp(np.log(z.max(axis=0)) / eta + reach * rng.uniform(-1.0, 1.0, size=m))
            stage = regularized._Stage(z, r, c, eta, np.ones(n), np.ones(m))
        assert stage.on_kernel
        # Row and column multipliers at levels up to level times the level
        # limit, each with both extremes drawn, so that their log spreads
        # reach twice that.
        limit = level * stage.level_limit
        stage.u = np.exp(limit * rng.uniform(-1.0, 1.0, size=n))
        stage.v = np.exp(limit * rng.uniform(-1.0, 1.0, size=m))
        stage.u[:2] = stage.v[:2] = np.exp([limit, -limit])
        # The reference sums the plan z_base^(1/eta) v_j u_i in extended
        # precision (np.longdouble, 64 mantissa bits on x86-64), so that its
        # own roundings do not count: in doubles, the reference's pow alone
        # is off by up to |log z_base| eps / 2 relative in z.  A relative
        # error e in the z domain, where the iteration lives, is e / eta in
        # the plan, so 4 ulp of z are 4 ulp / eta of the fit.
        eta_x = np.longdouble(eta)
        plan = np.asarray(stage.z_base, np.longdouble) ** (1 / eta_x) * stage.v
        plan *= stage.u[:, None]
        for axis, own, target in ((1, stage.u, r), (0, stage.v, c)):
            got = regularized.kernel_fit(stage, axis)
            want = own * np.asarray(target, np.longdouble) / plan.sum(axis=axis)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(got) / eta)

    @pytest.mark.parametrize(
        "problem, schedule",
        [
            (lambda: generate_grid(GridSpec(64)), make_schedule(1e-4, 12, 1.5, 1e-2)),
            (lambda: generate_grid(GridSpec(64)), AnnealingSchedule(((1e-3, 1e-2),))),
            (lambda: random_problem(np.random.default_rng(1), 24, 40, gaussian=True),
             make_schedule(1e-4, 12, 1.5, 1e-2)),
            (lambda: random_problem(np.random.default_rng(2), 32, 32, MINIMIZE, gaussian=True),
             make_schedule(1e-4, 12, 1.5, 1e-2)),
            (lambda: random_problem(np.random.default_rng(3), 48, 36, gaussian=True),
             make_schedule(1e-4, 12, 1.5, 1e-2)),
            (lambda: random_problem(np.random.default_rng(1005), 23, 7), make_schedule(1e-4, 12, 1.5, 1e-2)),
        ],
        ids=["grid64-annealed", "grid64-cold", "24x40-max", "32x32-min", "48x36-max", "23x7-1005"],
    )
    def test_kernel_scalings_reproduce_z_and_the_plan(self, kernel_calls, problem, schedule):
        # The stage folds its multipliers into alpha and beta at each build,
        # so the returned scalings carry a few roundings per build, not one
        # per step, and rebuild z to a few ulp.
        problem = problem()
        result = solve(problem, schedule)
        assert kernel_calls[0] > 0
        b = np.exp(problem.weights if problem.sense == MAXIMIZE else -problem.weights)
        z = result.scalings.alpha[:, None] * b / result.scalings.beta
        assert np.max(np.abs(z - result.final_z) / result.final_z) <= 32 * np.finfo(float).eps
        plan = result.plan.values
        mask = plan > 1e-12
        assert np.allclose(z[mask] ** (1.0 / schedule.eta_final), plan[mask], rtol=1e-8, atol=0.0)

    def test_a_frozen_shortlist_ends_as_the_dense_iteration(self, kernel_calls):
        # The kernel's z stops moving while the criterion stays above tol.
        # The dense reference keeps moving cells by rounding, so it runs on
        # to max_iters, and so must the kernel: only a dense step's comparison
        # of z is a freeze.
        prob = random_problem(np.random.default_rng(3), 6, 6, gaussian=True)
        prob = OTProblem(100.0 * prob.weights, prob.row_marginals, prob.col_marginals)
        schedule = AnnealingSchedule(((0.2, 1e-300),))
        result = solve(prob, schedule, max_iters=300)
        assert kernel_calls[0] > 0
        assert not result.converged
        assert _dense_solve(prob, schedule, max_iters=300)[:2] == ("max_iters", result.stage_iterations)

    def test_an_absorption_that_finds_z_unmoved_is_a_freeze(self, monkeypatch):
        # Every kernel step is absorbed after its row fit, so each absorption
        # compares the z one step reached with the z that step started from,
        # as a dense step does.  At step 26 the two are equal bit for bit
        # while the criterion repeats; unchecked, the stage would run on to
        # max_iters with its criterion at 2.2e-16.
        rng = np.random.default_rng(2)
        prob = random_problem(rng, *(int(k) for k in rng.integers(4, 6, size=2)))
        assert prob.weights.shape == (5, 4)
        schedule = AnnealingSchedule(((0.5, 1e-300),))
        found = []

        class Absorbing(regularized._Stage):
            def _level(self, bound, multipliers):
                # u's bound breaks at every row fit; v's is checked as usual.
                return np.inf if multipliers is self.u else super()._level(bound, multipliers)

            def materialized(self):
                z = super().materialized()
                found.append(np.array_equal(z, self.z_base))
                return z

        monkeypatch.setattr(regularized, "_Stage", Absorbing)
        with pytest.raises(NumericalDegeneracy, match="eta=0.5 while the criterion is 2.22e-16"):
            solve(prob, schedule, max_iters=300)
        assert len(found) == 26 and found.index(True) == 25
        monkeypatch.setattr(regularized._Stage, "unmoved", lambda stage: False)
        result = solve(prob, schedule, max_iters=300)
        assert result.stage_iterations == (300,) and not result.converged

    def test_grid64_annealed_build_and_dense_traffic(self, monkeypatch):
        # Each stage builds its kernel from the z it starts from.  Stage 0's
        # start, the row-equilibrated z, has targets past the level limit,
        # so the target guard holds it densely: it alone steps
        # densely, and the kernel is rebuilt from its z.  One exit of V's
        # level bound is absorbed by a rebuild.  U's bound never breaks here.
        counts = _count_kernel_traffic(monkeypatch)
        result = solve(generate_grid(GridSpec(64)), _DESK)
        assert result.iterations == 232
        assert counts == {"builds": 12 + 1 + 2, "v_exits": 2, "u_exits": 0, "dense": 1}

    def test_a_u_absorption_keeps_the_dense_iteration(self, monkeypatch):
        # No problem tried breaks U's level bound on its own, so one break
        # is forced: at step 100 of a 23x7 problem (stage 7's sixth),
        # after a row fit whose V fit held.  The row fit is kept, z is
        # materialized, and the column fit comes from the rebuilt kernel.
        # Every step must still agree with z_step redone from that step's
        # own z.
        counts = _count_kernel_traffic(monkeypatch)
        steps = [0]

        class Forced(regularized._Stage):
            def step(self, *args):
                steps[0] += 1
                return super().step(*args)

            def _level(self, bound, multipliers):
                if steps[0] == 100 and multipliers is self.u:
                    return np.inf
                return super()._level(bound, multipliers)

        monkeypatch.setattr(regularized, "_Stage", Forced)
        problem = random_problem(np.random.default_rng(1005), 23, 7)
        result, (outcome, stage_counts, crits, z) = _lockstep_solve(monkeypatch, problem, _DESK)
        assert result.iterations == 145
        # The stage-0 start is held densely by the target guard for one step.
        assert counts == {"builds": 12 + 1 + 1, "v_exits": 0, "u_exits": 1, "dense": 1}
        assert outcome == "converged" and stage_counts == result.stage_iterations
        assert np.max(np.abs(result.final_z - z) / z) <= 1e-12
        assert np.max(np.abs(np.array(result.trace.criteria) - crits)) <= 1e-10

    @pytest.mark.parametrize(
        "problem",
        [
            lambda: generate_grid(GridSpec(64)),
            lambda: random_problem(np.random.default_rng(1), 24, 40, gaussian=True),
            lambda: random_problem(np.random.default_rng(2), 32, 32, MINIMIZE, gaussian=True),
            lambda: random_problem(np.random.default_rng(3), 48, 36, gaussian=True),
        ],
        ids=["grid64", "24x40-max", "32x32-min", "48x36-max"],
    )
    def test_the_kernel_raises_no_floating_point_exception(self, monkeypatch, problem):
        counts = _raise_in_the_kernel(monkeypatch)
        result = solve(problem(), make_schedule(1e-4, 12, 1.5, 1e-2))
        assert result.converged
        assert counts["builds"] >= 12
        assert counts["steps"] > result.iterations // 2

    def test_the_zero_band_keeps_every_product_normal(self):
        # With F = _BAND and k = ceil(log2 max(n, m)), kept kernel entries
        # are at least 2^-((F + 1)(54 + k)) and the multipliers lie within
        # 2^(+-F (54 + k) / 4), so every product is normal while
        # (1.25 F + 1)(54 + k) < 1022: at F = 7 for any side below 2^50.
        # Checked for sides up to 2^31, so a band past 8 fails here.
        assert (1.25 * regularized._BAND + 1) * (54 + 31) < 1022
        eta, bits = 1e-3, 54 + 6  # 40 rows: k = 6
        z = np.exp(eta * np.random.default_rng(0).uniform(-5000.0, 0.0, size=(40, 24)))
        k = np.arange(40)
        z[k, k % 24] = 1.0  # every line peaks at 1, so the targets r^eta / R and c^eta / C are 1
        stage = regularized._Stage(z, np.ones(40), np.ones(24), eta, np.ones(40), np.ones(24))
        assert stage.on_kernel
        assert stage.max_level == pytest.approx(regularized._BAND * bits * eta * math.log(2) / 4, rel=1e-12)
        floor = 2.0 ** -((regularized._BAND + 1) * bits)
        for kernel in (stage.K_row, stage.K_colT):
            kept = kernel[kernel > 0]
            assert kept.size < kernel.size and kept.min() >= floor

    def test_the_level_guard_keeps_extreme_problems_free_of_exceptions(self, monkeypatch):
        # Marginals at 10^+-150 and weights up to about 300 put the
        # multipliers' level far from 1 at a stage's first step, and U and V
        # drift apart in level over a stage while z stays put.  Unguarded,
        # V^(1/eta) or U^(1/eta) overflows or underflows on some of these
        # problems; the guard absorbs such a level by a rebuild first.
        counts = _raise_in_the_kernel(monkeypatch)
        for seed in range(100):
            problem, schedule = _extreme_problem(seed)
            solve(problem, schedule, max_iters=300)
        assert counts["levels_past"] > 0

    def test_a_level_past_the_limit_is_absorbed_not_overflowed(self, monkeypatch):
        # A start whose rows are fit, so that the target guard lets it onto
        # the kernel, with u below 1 at a level past the level limit that
        # still fits in a double.  The column fit w carries u's level, so
        # the kernel refuses it, and z is materialized and the kernel
        # rebuilt from it.  With v at a matching level above 1, z stays
        # near its base and the fresh kernel takes the fit; with v at 1, z's
        # targets carry u's level, the target guard holds the rebuild, and
        # z steps densely.
        dense, z_step_ = [0], regularized.z_step

        def counting(*args):
            dense[0] += 1
            return z_step_(*args)

        monkeypatch.setattr(regularized, "z_step", counting)
        rng = np.random.default_rng(7)
        eta = 1e-2
        problem = random_problem(rng, 6, 5)
        r, c = problem.row_marginals, problem.col_marginals
        z = row_equilibrate(np.exp(problem.weights))[0]
        z = z_step(z, column_multipliers(z, c, eta), r, c, eta)[0]
        for u_level, v_level, dense_steps in ((-1.4, 1.5, 0), (-1.5, 0.0, 1)):
            dense[0] = 0
            stage = regularized._Stage(z, r, c, eta, np.ones(6), np.ones(5))
            assert stage.on_kernel
            assert 1.5 * stage.level_limit < math.log(np.finfo(float).max)
            stage.u = np.full(6, math.exp(u_level * stage.level_limit))
            stage.v = np.full(5, math.exp(v_level * stage.level_limit))
            stage.u_level = stage.v_level = 1.5 * stage.level_limit
            z_held, base = stage.materialized(), stage.z_base
            with np.errstate(all="raise"):
                crit = stage.column_fit()
                assert regularized._log_level(stage.w) > stage.level_limit
                fit = _z_domain(stage, stage.s)
                crit_next = stage.step(stage.s, crit)
            assert stage.z_base is not base and dense[0] == dense_steps  # rebuilt
            assert stage.on_kernel and regularized._log_level(stage.v) <= stage.level_limit
            z_ref, _, s_ref = z_step(z_held, fit, r, c, eta)
            assert np.max(np.abs(stage.materialized() - z_ref) / z_ref) <= 1e-12
            assert np.max(np.abs(stage.s**eta - s_ref) / s_ref) <= 1e-12
            assert crit_next == pytest.approx(criterion(s_ref, eta), rel=1e-10)

    def test_the_target_guard_holds_a_far_start_densely(self, monkeypatch):
        # A cold stage's row-equilibrated start is far from row-fit at eta
        # 1e-3: its row targets r^eta / R lie near e^-2.5, whose 1/eta power
        # underflows.  The build holds z densely, so the first step is a
        # z_step, whose z has its rows fit, and the build from it is on the
        # kernel.  Unguarded, the first build raises FloatingPointError.
        counts = _raise_in_the_kernel(monkeypatch)
        dense, z_step_ = [0], regularized.z_step

        def counting(*args):
            dense[0] += 1
            return z_step_(*args)

        monkeypatch.setattr(regularized, "z_step", counting)
        eta = 1e-3
        problem = random_problem(np.random.default_rng(1), 24, 40, gaussian=True)
        r, c = problem.row_marginals, problem.col_marginals
        z = row_equilibrate(np.exp(problem.weights))[0]
        stage = regularized._Stage(z, r, c, eta, np.ones(24), np.ones(40))
        assert regularized._log_level(r**eta / z.max(axis=1)) > stage.max_level
        assert not stage.on_kernel
        crit = stage.column_fit()
        crit = stage.step(stage.s, crit)
        assert dense[0] == 1 and stage.on_kernel
        for _ in range(20):
            crit = stage.step(stage.s, crit)
        assert dense[0] == 1 and counts["steps"] == 20

    def test_bitwise_equal_with_one_and_two_blas_threads(self, tmp_path):
        # The kernel's matrix-vector products may be split across threads;
        # each product's sum must not depend on how.
        script = (
            "import sys, numpy as np\n"
            "from balanced_transport import GridSpec, generate_grid, make_schedule, solve\n"
            "result = solve(generate_grid(GridSpec(64)), make_schedule(1e-4, 12, 1.5, 1e-2))\n"
            "np.savez(sys.argv[1], criteria=result.trace.criteria, final_z=result.final_z)\n"
        )
        src = str(Path(regularized.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"threads{threads}.npz"
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
            with np.load(out) as saved:
                outputs.append((saved["criteria"], saved["final_z"]))
        (crits_1, z_1), (crits_2, z_2) = outputs
        assert np.array_equal(crits_1, crits_2)
        assert np.array_equal(z_1, z_2)


_DESK = make_schedule(1e-4, 12, 1.5, 1e-2)


def _assert_the_bounds_hold(problem: OTProblem, schedule: AnnealingSchedule) -> None:
    """solve, asserting after every step that ends on a kernel that its bounds hold, in plan nats.

    Also asserts that most steps stay on the kernel.
    """
    steps = [0]  # steps whose column fit v took, so that stayed on the kernel

    class Checked(regularized._Stage):
        def _fit_columns(self, v, grow):
            fitted = super()._fit_columns(v, grow)
            steps[0] += fitted
            return fitted

        def step(self, *args):
            stepped = super().step(*args)
            if self.on_kernel:
                assert self.u_level >= regularized._log_level(self.u)
                assert self.v_level >= regularized._log_level(self.v)
            return stepped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regularized, "_Stage", Checked)
        result = solve(problem, schedule, max_iters=20_000)
    assert steps[0] > result.iterations // 2


class TestDriftBounds:
    """The kernel's level checks run on running upper bounds, exactly only past the level limit."""

    @given(
        st.integers(min_value=4, max_value=49),
        st.integers(min_value=4, max_value=49),
        st.sampled_from([MAXIMIZE, MINIMIZE]),
        st.booleans(),
        st.sampled_from([_DESK, AnnealingSchedule(((1e-3, 1e-2),))]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_the_bounds_hold_at_every_kernel_step(self, n, m, sense, gaussian, schedule, seed):
        _assert_the_bounds_hold(random_problem(np.random.default_rng(seed), n, m, sense, gaussian), schedule)

    @pytest.mark.parametrize("seed", [10, 15, 25])
    def test_the_slack_carries_over_from_the_z_domain(self, seed):
        # Cold Gaussian problems at eta 1e-3 (seed 15 is 46x35) on which a
        # running bound on the log spread, grown with a slack of 64 ulp of
        # the plan-nat limit, fell below the exact spread by up to 2.6e-13
        # nats.  Level bounds are looser: on these, and on 160 cold and 60
        # laddered seeds, they hold even with no slack.  The slack in use
        # is the z domain's, 64 ulp of max(1, max_level), taken to plan
        # nats by 1/eta.
        rng = np.random.default_rng(seed)
        n, m = (int(k) for k in rng.integers(4, 50, size=2))
        _assert_the_bounds_hold(random_problem(rng, n, m, MAXIMIZE, gaussian=True),
                                AnnealingSchedule(((1e-3, 1e-2),)))

    @pytest.mark.parametrize(
        "problem, schedule, pinned",
        [
            (lambda: generate_grid(GridSpec(64)), _DESK, None),
            (lambda: random_problem(np.random.default_rng(1), 24, 40, gaussian=True), _DESK, None),
            (lambda: random_problem(np.random.default_rng(2), 32, 32, MINIMIZE, gaussian=True), _DESK, None),
            (lambda: random_problem(np.random.default_rng(3), 48, 36, gaussian=True), _DESK, None),
            (lambda: random_problem(np.random.default_rng(1), 24, 40, gaussian=True),
             AnnealingSchedule(((1e-3, 1e-2),)), (1760,)),
            (lambda: random_problem(np.random.default_rng(1078), 23, 32, gaussian=True), _DESK, (118,)),
        ],
        ids=["grid64-annealed", "24x40-max", "32x32-min", "48x36-max", "24x40-cold", "23x32-1078"],
    )
    def test_bitwise_equal_to_exact_checks_every_step(self, monkeypatch, problem, schedule, pinned):
        # An infinite slack passes every bound at once, so each step takes
        # both exact levels, as the checks did before they had bounds.
        problem = problem()
        result = solve(problem, schedule)
        with monkeypatch.context() as patch:
            patch.setattr(regularized, "_LEVEL_SLACK", np.inf)
            exact = solve(problem, schedule)
        if pinned is not None:
            assert result.stage_iterations[:len(pinned)] == pinned
        assert result.stage_iterations == exact.stage_iterations
        assert result.trace.criteria == exact.trace.criteria
        assert np.array_equal(result.plan.values, exact.plan.values)
        assert np.array_equal(result.scalings.alpha, exact.scalings.alpha)
        assert np.array_equal(result.scalings.beta, exact.scalings.beta)
        assert np.array_equal(result.final_z, exact.final_z)

    def test_seeded_sweep_counts_are_pinned(self):
        # Per-problem step counts of 24 seeded problems on the desk ladder.
        # A change that rounds the iterates differently moves some of them
        # on rounding plateaus, and must say why.
        counts = []
        for seed in range(1000, 1024):
            rng = np.random.default_rng(seed)
            n, m = (int(k) for k in rng.integers(4, 33, size=2))
            problem = random_problem(rng, n, m, MAXIMIZE if seed % 2 == 0 else MINIMIZE, gaussian=bool(seed % 3))
            result = solve(problem, _DESK, max_iters=20_000)
            assert result.converged
            counts.append(result.iterations)
        assert counts == [543, 334, 209, 214, 124, 95, 285, 870, 128, 173, 150, 140,
                          247, 269, 189, 274, 226, 294, 292, 296, 147, 249, 190, 159]  # 6,097 steps, 6,408 row fits

    def test_grid64_annealed_exact_level_traffic(self, monkeypatch):
        # The kernel's exact level checks are the levels ``_level`` takes
        # once a bound passes the level limit.  Taken at every kernel step
        # they are two per kernel row fit, plus one per refused column fit
        # (472: 235 kernel row fits and 2 refusals); the bounds leave 55, 22
        # of them the two of each stage's first kernel step but stage 0's,
        # whose z's rows are not fit at the stage's eta.
        calls = [0]

        class Counting(regularized._Stage):
            def _level(self, bound, multipliers):
                calls[0] += bound > self.level_limit
                return super()._level(bound, multipliers)

        monkeypatch.setattr(regularized, "_Stage", Counting)
        solve(generate_grid(GridSpec(64)), _DESK)
        assert calls[0] == 55
        calls[0] = 0
        monkeypatch.setattr(regularized, "_LEVEL_SLACK", np.inf)
        solve(generate_grid(GridSpec(64)), _DESK)
        assert calls[0] == 472


class TestOverRelaxation:
    """Each stage probes its contraction rate with plain steps, then over-relaxes."""

    @staticmethod
    def _omega_after_probe(rate: float) -> float:
        crits = [rate**k for k in range(1, regularized._PROBE_STEPS + 1)]
        assert all(regularized._relaxation(crits[:k], 1.0) == 1.0 for k in range(1, len(crits)))
        return regularized._relaxation(crits, 1.0)

    def test_the_probe_rate_sets_omega(self):
        assert self._omega_after_probe(0.5) == pytest.approx(2.0 / (1.0 + math.sqrt(0.5)), rel=1e-12)
        assert self._omega_after_probe(0.999) == regularized._OMEGA_CAP

    @pytest.mark.parametrize("rate", [1.0, 1.5])
    def test_omega_is_one_when_the_probe_does_not_contract(self, rate):
        assert self._omega_after_probe(rate) == 1.0

    def test_the_safeguard_drops_omega_for_the_rest_of_the_stage(self):
        # The criterion falls for 9 over-relaxed steps, then sits at its
        # value of 10 steps earlier: omega drops to 1 and stays there.
        crits = [0.5**k for k in range(1, 18)]
        omega = regularized._relaxation(crits[:8], 1.0)
        assert omega > 1.0
        assert all(regularized._relaxation(crits[:k], omega) == omega for k in range(9, 18))
        crits.append(crits[-10])
        assert regularized._relaxation(crits, omega) == 1.0
        crits.append(crits[-1] / 2.0)
        assert regularized._relaxation(crits, 1.0) == 1.0

    def test_the_safeguard_fires_where_the_probe_misjudges_the_rate(self, monkeypatch):
        # Found by a seeded search: after the probe sets omega 1.82, this
        # stage's criterion at step 31 is no lower than at step 21.
        problem = random_problem(np.random.default_rng(8), 3, 3)
        schedule = AnnealingSchedule(((1e-3, 1e-2),))
        reference = _dense_solve(problem, schedule)
        rule, calls = regularized._relaxation, []

        def recording(crits, omega):
            calls.append((len(crits), omega, rule(crits, omega)))
            return calls[-1][2]

        monkeypatch.setattr(regularized, "_relaxation", recording)
        result = solve(problem, schedule)
        fired = [k for k, before, after in calls if before > 1.0 and after == 1.0]
        assert fired == [31]
        crits = result.trace.criteria
        assert not crits[30] < crits[30 - regularized._SAFEGUARD_WINDOW]
        assert all(after == 1.0 for k, _, after in calls if k >= 31)
        assert result.converged
        assert reference[:2] == ("converged", result.stage_iterations)
        assert np.array_equal(reference[2], crits)

    @given(
        st.integers(min_value=4, max_value=49),
        st.integers(min_value=4, max_value=49),
        st.sampled_from([MAXIMIZE, MINIMIZE]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_desk_problems_converge_with_exact_rows_in_no_more_steps(self, n, m, sense, gaussian, seed):
        problem = random_problem(np.random.default_rng(seed), n, m, sense, gaussian)
        schedule = make_schedule(1e-4, 12, 1.5, 1e-2)
        result = solve(problem, schedule)
        assert result.converged
        ends = np.cumsum(result.stage_iterations) - 1
        assert np.all(np.array(result.trace.criteria)[ends] < [tol for _, tol in schedule.stages])
        # The row fit is exact in the z domain.  Extracting the plan,
        # z^(1/eta), amplifies that rounding by 1/eta = 1e4, so plan rows,
        # in the plain iteration too, sit a few 1e-12 off.
        eta = schedule.eta_final
        fitted = power_norm(result.final_z, eta, axis=1) / problem.row_marginals**eta
        assert np.max(np.abs(fitted - 1.0)) <= 1e-12
        assert np.allclose(result.plan.values.sum(axis=1), problem.row_marginals, rtol=1e-11, atol=0.0)
        outcome, plain_counts, _, _ = _dense_solve(problem, schedule, plain=True)
        assert outcome == "converged"
        assert result.iterations <= sum(plain_counts)


def _assert_same_state(a: dict, b: dict) -> None:
    """Two stage states, attribute by attribute, bit for bit."""
    assert a.keys() == b.keys()
    for key, value in a.items():
        pairs = zip(value, b[key]) if isinstance(value, tuple) else [(value, b[key])]
        assert all(np.array_equal(x, y) for x, y in pairs), key


class TestMixing:
    """The step seam, the mixed column fit, and its rollback."""

    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=4, max_value=12),
        st.sampled_from([1e-1, 1e-2]),
        st.lists(st.floats(min_value=0.0, max_value=2.5), min_size=1, max_size=4),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_column_scaling_matches_z_step(self, n, m, eta, levels, absorb_u, seed):
        # Column scalings at levels up to 2.5 level limits, each with its
        # exact level as its bound, from a z whose rows are fit.  Past the
        # limit the kernel refuses a fit, absorbs it into a rebuilt kernel,
        # or steps densely when the fresh kernel cannot take it either; with
        # ``absorb_u`` the last step's row fit is absorbed as well.  Each
        # step must agree with z_step on the z it started from, and the
        # level bounds must hold after it.
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, n, m)
        r, c = problem.row_marginals, problem.col_marginals
        z = row_equilibrate(np.exp(problem.weights))[0]
        z = z_step(z, column_multipliers(z, c, eta), r, c, eta)[0]
        forced = [False]

        class Forced(regularized._Stage):
            def _level(self, bound, multipliers):
                if forced[0] and multipliers is self.u:
                    return np.inf
                return super()._level(bound, multipliers)

        stage = Forced(z, r, c, eta, np.ones(n), np.ones(m))
        assume(stage.on_kernel)
        crit = stage.column_fit()
        stage.step(stage.s, crit)  # the stage's first step takes both exact levels
        for k, level in enumerate(levels):
            x = level * stage.level_limit * rng.uniform(-1.0, 1.0, size=m)
            x[rng.integers(m)] = level * stage.level_limit * rng.choice([-1.0, 1.0])
            fit = np.exp(x if stage.on_kernel else eta * x)
            z_ref, _, s_ref = z_step(stage.materialized(), _z_domain(stage, fit), r, c, eta)
            forced[0] = absorb_u and k == len(levels) - 1
            stage.step(fit, float(np.max(np.abs(x))) * (1.0 + 1e-12))
            forced[0] = False
            assert np.max(np.abs(stage.materialized() - z_ref) / z_ref) <= 1e-12
            assert np.max(np.abs(_z_domain(stage, stage.s) - s_ref) / s_ref) <= 1e-12
            if stage.on_kernel:
                assert stage.u_level >= regularized._log_level(stage.u)
                assert stage.v_level >= regularized._log_level(stage.v)

    def test_an_undone_mixed_step_leaves_the_stage_where_the_relaxed_step_does(self, monkeypatch):
        # At each undone mixed step the stage must be back, bit for bit, in
        # the state it saved, and its redo must leave it where a copy of
        # that state is left by the relaxed step alone.
        record, undone = {}, []

        class Twin(regularized._Stage):
            def save(self):
                state = super().save()
                record["saved"] = copy.deepcopy(state)
                return state

            def restore(self, state):
                super().restore(state)
                _assert_same_state(self.__dict__, record["saved"])
                record["twin"] = copy.deepcopy(record["saved"])

            def step(self, fit, bound, absorb=True):
                twin, plain = record.pop("twin", None), fit is self.s
                stepped = super().step(fit, bound, absorb)
                if twin is not None:  # the relaxed redo of an undone mixed step
                    alone = regularized._Stage.__new__(regularized._Stage)
                    alone.__dict__.update(twin)
                    assert alone.step(alone.s if plain else fit, bound) == stepped
                    _assert_same_state(alone.__dict__, self.__dict__)
                    undone.append(stepped)
                return stepped

        monkeypatch.setattr(regularized, "_Stage", Twin)
        result = solve(random_problem(np.random.default_rng(3), 48, 36, gaussian=True), _DESK)
        assert len(undone) == sum(result.stage_fits) - result.iterations > 0
        assert all(crit in result.trace.criteria for crit in undone)

    @pytest.mark.parametrize(
        "problem",
        [
            lambda: random_problem(np.random.default_rng(1), 24, 40, gaussian=True),
            lambda: random_problem(np.random.default_rng(2), 32, 32, MINIMIZE, gaussian=True),
            lambda: random_problem(np.random.default_rng(3), 48, 36, gaussian=True),
        ],
        ids=["24x40-max", "32x32-min", "48x36-max"],
    )
    def test_the_log_multipliers_stay_within_the_criterion(self, monkeypatch, problem):
        # The mixed step's bound rests on max |f| <= crit, f = log s in plan
        # nats, which holds once the rows are fit, since min s <= 1 <= max s.
        checked = [0]
        mixed = regularized._Mixer._mixed

        def checking(self, now, crit, ff, fp):
            assert np.max(np.abs(self.rows[now])) <= crit + self.stage.slack
            checked[0] += 1
            return mixed(self, now, crit, ff, fp)

        monkeypatch.setattr(regularized._Mixer, "_mixed", checking)
        result = solve(problem(), _DESK)
        assert result.converged and checked[0] > result.iterations // 2

    def test_small_problems_keep_the_relaxed_rule(self, small_problem):
        # A side below 4 takes no mixed step: every step is one row fit.
        result = solve(small_problem, _DESK)
        assert result.stage_fits == result.stage_iterations


def _column_residual(plan: np.ndarray, problem: OTProblem) -> float:
    return float(np.max(np.abs(plan.sum(axis=0) / problem.col_marginals - 1.0)))


class TestSecantPrediction:
    """From the second stage's end on, each stage starts from the secant of the last two stage ends."""

    def test_scalings_move_with_z_and_follow_the_secant(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(0.5, 2.0, size=(3, 4))
        alpha_prev, beta_prev = rng.uniform(0.5, 2.0, size=3), rng.uniform(0.5, 2.0, size=4)
        alpha, beta = 2.0 * alpha_prev, 4.0 * beta_prev
        ends = [(alpha_prev, beta_prev), (alpha, beta)]
        z_next, alpha_next, beta_next = regularized._secant_prediction(z, ends, (0.09, 0.06, 0.04))
        # w = (0.04 - 0.06) / (0.06 - 0.09) = 2/3 on the x1.5 ladder.
        w = 2.0 / 3.0
        assert np.allclose(alpha_next, alpha * 2.0**w, rtol=1e-14, atol=0.0)
        assert np.allclose(beta_next, beta * 4.0**w, rtol=1e-14, atol=0.0)
        assert np.allclose(z_next, z * 2.0**w / 4.0**w, rtol=1e-14, atol=0.0)

    @given(
        st.integers(min_value=4, max_value=49),
        st.integers(min_value=4, max_value=49),
        st.sampled_from([MAXIMIZE, MINIMIZE]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_converges_wherever_the_unpredicted_iteration_does(self, n, m, sense, gaussian, seed):
        # The reference is solve itself with each stage carrying z over
        # unchanged, so stages 0 and 1, which no prediction precedes, run
        # bit for bit alike.
        problem = random_problem(np.random.default_rng(seed), n, m, sense, gaussian)
        schedule = make_schedule(1e-4, 12, 1.5, 1e-2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regularized, "_secant_prediction", lambda z, ends, etas: (z, *ends[-1]))
            reference = solve(problem, schedule)
        if not reference.converged:
            return
        result = solve(problem, schedule)
        assert result.converged
        assert result.stage_iterations[:2] == reference.stage_iterations[:2]
        early = sum(result.stage_iterations[:2])
        assert result.trace.criteria[:early] == reference.trace.criteria[:early]
        # A criterion below tol bounds every column ratio by exp(tol); the
        # slack covers the extraction's rounding, amplified by 1/eta.
        limit = math.expm1(schedule.stages[-1][1]) + 1e-9
        assert _column_residual(reference.plan.values, problem) <= limit
        assert _column_residual(result.plan.values, problem) <= limit

    def test_the_step_ratio_is_capped_at_one(self):
        z = np.ones((2, 2))
        ends = [(np.ones(2), np.ones(2)), (np.array([2.0, 1.0]), np.array([1.0, 4.0]))]
        # w = (0.01 - 0.09999) / (0.09999 - 0.1) is about 9e3 uncapped.
        z_next, alpha_next, beta_next = regularized._secant_prediction(z, ends, (0.1, 0.09999, 0.01))
        assert alpha_next.tolist() == [4.0, 1.0]
        assert beta_next.tolist() == [1.0, 16.0]
        assert z_next.tolist() == [[2.0, 0.5], [1.0, 0.25]]

    @pytest.mark.parametrize("eta_1", [0.09999999, 0.0999999999999])
    def test_nearly_coinciding_temperatures_converge(self, small_problem, eta_1):
        # Uncapped, w = (0.01 - eta_1) / (eta_1 - 0.1) would raise the
        # scalings between the first two stage ends to a power of 9e6 or
        # more, and overflow.
        result = solve(small_problem, AnnealingSchedule(((0.1, 1e-2), (eta_1, 1e-2), (0.01, 1e-2))))
        assert result.converged
        assert result.stage_iterations == (6, 1, 21)

    def test_a_non_finite_prediction_raises_a_typed_error(self):
        # With marginals of 1e52, the cumulative column scaling stands at
        # about e^665 at the second stage's end, having moved by about e^123
        # in that stage, so its predicted value (w = 3/4) overflows.  The
        # carried start fails as well, later, in the last stage's iteration.
        problem = OTProblem(np.array([[380.0, 200.0], [-230.0, 400.0]]), np.array([1.0, 1.0]) * 1e52,
                            np.array([1.5, 0.5]) * 1e52, MAXIMIZE)
        schedule = AnnealingSchedule(((2.0, 1.0), (1.0, 0.1), (0.25, 100.0)))
        with pytest.raises(NonFiniteEntry, match=r"overflow .* at eta=1\.0 in the prediction of the next stage's start"):
            solve(problem, schedule)


class TestPlanExtraction:
    """The plan z^(1/eta) is taken by pow only where it does not underflow to 0."""

    @pytest.mark.parametrize(
        "problem",
        [
            lambda: generate_grid(GridSpec(64)),
            lambda: random_problem(np.random.default_rng(1), 24, 40, gaussian=True),
            lambda: random_problem(np.random.default_rng(2), 32, 32, MINIMIZE, gaussian=True),
            lambda: random_problem(np.random.default_rng(3), 48, 36, gaussian=True),
        ],
        ids=["grid64", "24x40-max", "32x32-min", "48x36-max"],
    )
    def test_bit_identical_to_the_full_power(self, problem):
        result = solve(problem(), _DESK, snapshot_stride=50)
        assert result.trace.snapshots
        with np.errstate(under="ignore"):
            full = result.final_z ** (1.0 / _DESK.eta_final)
        assert np.array_equal(result.plan.values, full)
        assert 0 < np.count_nonzero(full == 0.0) < full.size
        for k, snapshot in result.trace.snapshots:
            assert snapshot.shape == full.shape and np.all(np.isfinite(snapshot))

    @given(
        st.floats(min_value=-8.0, max_value=0.0),
        st.floats(min_value=-12.0, max_value=12.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(log_eta=0.0, bits=0.0, seed=0)
    @example(log_eta=-8.0, bits=0.0, seed=0)
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_near_the_underflow_threshold(self, log_eta, bits, seed):
        # Plans from 2^-12 to 2^12 times 2^-1080, the plan at the threshold
        # z = 2^(-1080 eta), with the threshold and its float neighbours.
        eta = 10.0**log_eta
        threshold = 2.0 ** (-1080.0 * eta)
        offsets = np.random.default_rng(seed).uniform(-12.0, 12.0, size=63)
        z = np.concatenate([
            2.0 ** ((-1080.0 + offsets) * eta),
            2.0 ** ((-1080.0 + bits) * eta) * np.ones(1),
            np.nextafter(threshold, [0.0, np.inf]),
            [threshold, 1.0],
        ]).reshape(4, 17)
        with np.errstate(under="ignore"):
            assert np.array_equal(regularized._plan(z, eta), z ** (1.0 / eta))


class TestIsoelasticUtility:
    @pytest.mark.parametrize("eta", [0.3, 0.05])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_risk_aversion_ratio(self, eta, x):
        # independent oracle: central finite differences of the utility
        h = 1e-4 * x
        g = lambda t: isoelastic_utility(t, eta)
        g1 = (g(x + h) - g(x - h)) / (2.0 * h)
        g2 = (g(x + h) - 2.0 * g(x) + g(x - h)) / h**2
        assert -g2 / g1 == pytest.approx(eta / x, rel=1e-6)
