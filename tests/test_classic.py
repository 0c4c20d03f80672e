import dataclasses

import numpy as np
import pytest

from balanced_transport import (
    ConcaveFamily,
    ConcaveIterationParams,
    LengthMismatch,
    MaxItersExceeded,
    NonPositiveEntry,
    RootBracketFailure,
    ValidationError,
    ZeroLine,
    column_multipliers,
    concave_iteration,
    entropic_family,
    ipfp_matrix,
    ipfp_vector,
    isoelastic_family,
    nonreg_step,
    phi_eta_step,
    ot_to_moma,
    small_example,
    small_example_stagnation_matrices,
    z_step,
)
from balanced_transport.classic import MAX_BRACKET_EXPANSIONS, ROOT_TOL, _line_sums
from problems import random_problem

# Quotient/product chains in IEEE arithmetic wobble by an ulp or two, so
# "exact" fixed-point identities are asserted at a few-epsilon tolerance.
ULP_RTOL = 5e-15


class TestNonregStep:
    def test_scalar(self):
        alpha, beta = nonreg_step(np.array([1.0]), np.array([[7.0]]))
        assert beta[0] == 7.0
        assert alpha[0] == 1.0

    def test_symmetric_two_by_two_fixed_point(self):
        alpha, beta = nonreg_step(np.array([1.0, 1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert np.array_equal(beta, [2.0, 2.0])
        assert np.array_equal(alpha, [1.0, 1.0])

    def test_small_example_equilibration(self, small_problem):
        b = np.exp(small_problem.weights)
        alpha, beta = nonreg_step(np.ones(3), b)
        assert np.allclose(alpha, [1.0, 1.0, np.exp(0.1)], rtol=1e-14)
        # a second application changes nothing on this input
        alpha2, beta2 = nonreg_step(alpha, b)
        assert np.array_equal(alpha, alpha2)
        assert np.array_equal(beta, beta2)

    def test_idempotence_on_random_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n, m = rng.integers(2, 9, size=2)
            b = np.exp(rng.normal(size=(n, m)))
            a0 = np.exp(rng.normal(size=n))
            a1, b1 = nonreg_step(a0, b)
            a2, b2 = nonreg_step(a1, b)
            assert np.allclose(a2, a1, rtol=ULP_RTOL)
            assert np.allclose(b2, b1, rtol=ULP_RTOL)

    def test_every_row_attains_a_column_maximum(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n, m = rng.integers(2, 9, size=2)
            b = np.exp(rng.normal(size=(n, m)))
            alpha, _ = nonreg_step(np.exp(rng.normal(size=n)), b)
            scaled = alpha[:, None] * b
            col_max = scaled.max(axis=0)
            attains = np.isclose(scaled, col_max[None, :], rtol=1e-13).any(axis=1)
            assert np.all(attains)

    def test_column_maxima_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            b = np.exp(rng.normal(size=(5, 6)))
            a0 = np.exp(rng.normal(size=5))
            a1, _ = nonreg_step(a0, b)
            before = (a0[:, None] * b).max(axis=0)
            after = (a1[:, None] * b).max(axis=0)
            assert np.allclose(after, before, rtol=1e-13)

    def test_two_nonproportional_fixed_points(self, small_problem):
        # Scaling the slack second row of the equilibration point yields
        # another fixed point on a different ray.
        b = np.exp(small_problem.weights)
        fp1 = np.array([1.0, 1.0, np.exp(0.1)])
        fp2 = np.array([1.0, np.exp(0.1), np.exp(0.2)])
        for fp in (fp1, fp2):
            nxt, _ = nonreg_step(fp, b)
            assert np.allclose(nxt, fp, rtol=ULP_RTOL)
        ratios = fp2 / fp1
        assert np.max(ratios) / np.min(ratios) > 1.05  # not the same ray

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveEntry):
            nonreg_step(np.array([1.0, -1.0]), np.ones((2, 2)))


class TestIPFPVector:
    def test_product_coupling_is_immediate_fixed_point(self):
        r = np.array([0.25, 0.75])
        c = np.array([0.4, 0.35, 0.25])
        seq = ipfp_vector(np.outer(r, c), np.ones(2), r, c, iters=2)
        for u, v, x in seq:
            assert np.allclose(u, 1.0, atol=1e-14)
            assert np.allclose(v, 1.0, atol=1e-14)
            assert np.allclose(x, np.outer(r, c), rtol=1e-14)

    def test_symmetric_two_by_two_converges_in_one_step(self):
        r = c = np.array([0.5, 0.5])
        seq = ipfp_vector(np.ones((2, 2)), np.ones(2), r, c, iters=1)
        _, _, x = seq[-1]
        assert np.allclose(x, 0.25, rtol=1e-15)

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(9)
        x0 = rng.uniform(0.2, 3.0, size=(4, 4))
        r = rng.uniform(0.5, 1.5, size=4)
        c = rng.uniform(0.5, 1.5, size=4)
        c *= r.sum() / c.sum()
        seq = ipfp_vector(x0, np.ones(4), r, c, iters=20)
        mat = ipfp_matrix(x0, r, c, max_iters=20, tol=0.0, keep_history=True)
        for (u, v, x_vec), x_mat in zip(seq, mat.history):
            assert np.allclose(x_vec, x_mat, rtol=1e-14)

    def test_validation(self):
        with pytest.raises(NonPositiveEntry):
            ipfp_vector(np.zeros((2, 2)), np.ones(2), np.ones(2), np.ones(2), iters=1)
        with pytest.raises(ValidationError):
            ipfp_vector(np.ones((2, 2)), np.ones(2), np.ones(2), np.ones(2), iters=0)


class TestIPFPMatrix:
    def test_positive_start_converges(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            prob = random_problem(rng, 4, 5)
            out = ipfp_matrix(np.exp(prob.weights), prob.row_marginals, prob.col_marginals,
                              max_iters=50_000, tol=1e-10)
            assert out.status == "converged"
            assert np.allclose(out.x.sum(axis=0), prob.col_marginals, atol=1e-9)

    def test_cycling_matrices_are_flagged(self, small_problem):
        for start in small_example_stagnation_matrices():
            out = ipfp_matrix(start, small_problem.row_marginals, small_problem.col_marginals,
                              max_iters=10_000)
            assert out.status == "cycling"
            assert out.iterations <= 10_000

    def test_feasible_start_needs_zero_iterations(self, small_problem, known_plan):
        out = ipfp_matrix(known_plan, small_problem.row_marginals, small_problem.col_marginals)
        assert out.status == "converged"
        assert out.iterations == 0

    def test_zero_line_rejected(self):
        with pytest.raises(ZeroLine):
            ipfp_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2), np.ones(2))


def per_line_concave_iteration(family, r, c, lambda0, params):
    """Reference: one scalar bracket-and-bisect per line, in line order,
    each probe evaluating the whole matrix and keeping one line of it.
    Returns (sweeps, lam, mu, plan, residuals)."""

    def root(g, start):
        lo = hi = start
        glo = g(lo)
        step, expansions = 1.0, 0
        while glo < 0:
            lo -= step
            step *= 2.0
            glo = g(lo)
            expansions += 1
            if expansions > MAX_BRACKET_EXPANSIONS:
                raise RootBracketFailure("could not bracket the root from below")
        ghi = g(hi)
        step, expansions = 1.0, 0
        while ghi > 0:
            hi += step
            step *= 2.0
            ghi = g(hi)
            expansions += 1
            if expansions > MAX_BRACKET_EXPANSIONS:
                raise RootBracketFailure("could not bracket the root from above")
        while hi - lo > ROOT_TOL:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if g(mid) >= 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def column(j, t):
        T = lam[:, None] + mu[None, :]
        T[:, j] = lam + t
        return float(family.evaluate(T)[:, j].sum()) - c[j]

    def row(i, t):
        T = lam[:, None] + mu[None, :]
        T[i, :] = t + mu
        return float(family.evaluate(T)[i, :].sum()) - r[i]

    lam = np.array(lambda0, dtype=float)
    mu = np.zeros(family.m)
    residuals = []
    for sweep in range(1, params.max_sweeps + 1):
        for j in range(family.m):
            mu[j] = root(lambda t: column(j, t), mu[j])
        for i in range(family.n):
            lam[i] = root(lambda t: row(i, t), lam[i])
        plan = family.evaluate(lam[:, None] + mu[None, :])
        residuals.append(float(np.max(np.abs(plan.sum(axis=0) / c - 1.0))))
        if residuals[-1] <= params.tol:
            return sweep, lam, mu, plan, residuals
    raise MaxItersExceeded("the per-line reference did not converge")


def assert_matches_the_per_line_reference(family, r, c, params):
    args = (family, r, c, np.zeros(family.n), params)
    sweeps, lam, mu, plan, residuals = per_line_concave_iteration(*args)
    out = concave_iteration(*args)
    assert (out.sweeps, out.residuals) == (sweeps, residuals)
    assert np.array_equal(out.duals.lam, lam)
    assert np.array_equal(out.duals.mu, mu)
    assert np.array_equal(out.plan, plan)


def counting_family(family, calls):
    """The family with an inverse_marginal that appends each call's shape
    to ``calls``; the constructor's probes are dropped."""
    inner = family.inverse_marginal

    def inverse_marginal(T):
        calls.append(T.shape)
        return inner(T)

    counted = dataclasses.replace(family, inverse_marginal=inverse_marginal)
    calls.clear()
    return counted


class TestConcaveIteration:
    @pytest.mark.parametrize("seed, n, m, gaussian, eta", [
        (1, 6, 6, False, 0.1),
        (2, 12, 7, False, 0.1),
        (3, 10, 4, True, 0.3),
        (5, 9, 9, True, 0.5),
        (6, 4, 9, False, 0.2),
    ])
    def test_matches_the_per_line_reference_bit_for_bit(self, seed, n, m, gaussian, eta):
        prob = random_problem(np.random.default_rng(seed), n, m, gaussian=gaussian)
        assert_matches_the_per_line_reference(entropic_family(prob.weights, eta), prob.row_marginals,
                                              prob.col_marginals, ConcaveIterationParams(tol=1e-8))

    def test_isoelastic_family_matches_the_per_line_reference_bit_for_bit(self, small_problem):
        assert_matches_the_per_line_reference(
            isoelastic_family(ot_to_moma(small_problem).coefficients, 0.5), small_problem.row_marginals,
            small_problem.col_marginals, ConcaveIterationParams(tol=1e-11, max_sweeps=500),
        )

    def test_line_sums_add_each_line_as_it_is_summed_alone(self):
        # numpy sums a lone line of 9 or more entries pairwise, but
        # sum(axis=0) adds rows one after another and rounds differently.
        values = np.random.default_rng(3).uniform(size=(40, 7))
        for v in (values, values.T):
            assert np.array_equal(_line_sums(v), [line.sum() for line in v])

    def test_one_evaluation_per_step_of_a_half_sweep(self):
        # Solving each line on its own took 25828 evaluations here.
        prob = random_problem(np.random.default_rng(12), 12, 12)
        calls = []
        family = counting_family(entropic_family(prob.weights, 0.1), calls)
        out = concave_iteration(family, prob.row_marginals, prob.col_marginals, np.zeros(12),
                                ConcaveIterationParams(tol=1e-8))
        assert out.sweeps == 25
        assert len(calls) == 2128
        assert set(calls) == {(12, 12)}

    @pytest.mark.parametrize("r, c, lambda0", [
        ([0.25, 0.25, 0.5, 7.0], [0.2, 0.6, 0.2], [0.0, 0.0, 0.0]),
        ([0.25, 0.25], [0.2, 0.6, 0.2], [0.0, 0.0, 0.0]),
        ([0.25, 0.25, 0.5], [0.2, 0.6, 0.2, 7.0], [0.0, 0.0, 0.0]),
        ([0.25, 0.25, 0.5], [0.2, 0.6, 0.2], [0.0, 0.0, 0.0, 0.0]),
    ], ids=["long-r", "short-r", "long-c", "long-lambda0"])
    def test_lengths_must_match_the_family(self, small_problem, r, c, lambda0):
        family = entropic_family(small_problem.weights, 0.5)
        with pytest.raises(LengthMismatch):
            concave_iteration(family, np.array(r), np.array(c), np.array(lambda0))

    def test_scalar_problem(self):
        family = entropic_family(np.array([[0.4]]), eta=0.5)
        out = concave_iteration(family, np.array([2.0]), np.array([2.0]), np.zeros(1))
        assert out.plan[0, 0] == pytest.approx(2.0, rel=1e-10)

    def test_entropic_family_matches_z_iteration(self, small_problem):
        eta = 0.5
        family = entropic_family(small_problem.weights, eta)
        out = concave_iteration(
            family,
            small_problem.row_marginals,
            small_problem.col_marginals,
            np.zeros(3),
            ConcaveIterationParams(tol=1e-9, max_sweeps=200),
            keep_plans=True,
        )
        r, c = small_problem.row_marginals, small_problem.col_marginals
        z = np.exp(small_problem.weights)
        s = column_multipliers(z, c, eta)
        for sweep_plan in out.plans:
            z, _, s = z_step(z, s, r, c, eta)
            assert np.allclose(sweep_plan, z ** (1.0 / eta), rtol=1e-8)

    def test_isoelastic_family_matches_weight_mapping_fixed_point(self, small_problem):
        eta = 0.5
        moma = ot_to_moma(small_problem)
        family = isoelastic_family(moma.coefficients, eta)
        out = concave_iteration(
            family,
            small_problem.row_marginals,
            small_problem.col_marginals,
            np.zeros(3),
            ConcaveIterationParams(tol=1e-11, max_sweeps=500),
        )
        alpha = np.ones(3)
        for _ in range(300):
            alpha, beta = phi_eta_step(alpha, moma, eta)
        x_phi = (alpha[:, None] * moma.coefficients / beta[None, :]) ** (1.0 / eta)
        assert np.allclose(out.plan, x_phi, rtol=1e-8)

    def test_bracket_failure_when_no_root_exists(self):
        family = ConcaveFamily(
            label="bounded-below",
            n=1,
            m=1,
            inverse_marginal=lambda T: 1.0 + np.exp(-T),
        )
        with pytest.raises(RootBracketFailure):
            concave_iteration(family, np.array([0.5]), np.array([0.5]), np.zeros(1))

    def test_max_sweeps_exceeded_carries_partial(self, small_problem):
        family = entropic_family(small_problem.weights, eta=0.05)
        with pytest.raises(MaxItersExceeded) as err:
            concave_iteration(
                family,
                small_problem.row_marginals,
                small_problem.col_marginals,
                np.zeros(3),
                ConcaveIterationParams(tol=1e-12, max_sweeps=2),
            )
        assert err.value.partial.sweeps == 2

    def test_family_validation(self):
        with pytest.raises(ValidationError):
            ConcaveFamily(label="increasing", n=1, m=1, inverse_marginal=lambda T: np.exp(T))
        with pytest.raises(ValidationError):
            ConcaveFamily(label="negative", n=1, m=1, inverse_marginal=lambda T: -np.exp(-T))
