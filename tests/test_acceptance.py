"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  Run with ``pytest -v -s tests/test_acceptance.py`` to see one
pass/fail line per criterion.
"""

import time

import numpy as np
import pytest

from balanced_transport import (
    AnnealingSchedule,
    GridSpec,
    OTProblem,
    column_multipliers,
    criterion,
    generate_grid,
    greedy_northwest,
    hilbert_distance,
    ipfp_matrix,
    ipfp_vector,
    isoelastic_utility,
    lp_oracle,
    make_schedule,
    nonreg_step,
    ot_to_moma,
    phi_eta_step,
    row_equilibrate,
    small_example,
    small_example_stagnation_matrices,
    solve,
    trajectory_study,
    verify_balanced,
    z_step,
)
from problems import random_problem, supermodular_problem


def passline(number: int, label: str) -> None:
    print(f"[criterion {number:02d}] {label}: PASS")


@pytest.fixture(scope="module")
def grid64_runs():
    """Single-stage runs at three temperatures plus the annealed ladder."""
    problem = generate_grid(GridSpec(64))
    runs = {}
    for eta in (1e-2, 1e-3, 1e-4):
        runs[eta] = solve(problem, AnnealingSchedule(((eta, 1e-2),)))
        assert runs[eta].converged
    runs["annealed"] = solve(problem, make_schedule(1e-4, 12, 1.5, 1e-2))
    assert runs["annealed"].converged
    return runs


def test_01_small_example_exactness(small_problem, known_plan):
    start = time.perf_counter()
    result = solve(small_problem, make_schedule(1e-4, 12, 1.5, 1e-2))
    elapsed = time.perf_counter() - start
    assert result.converged
    assert np.max(np.abs(result.plan.values - known_plan)) <= 0.01
    assert result.plan.objective(small_problem) >= 0.545 - 0.005
    assert elapsed < 5.0
    passline(1, f"annealed plan within 0.01 of the known optimum in {elapsed:.2f}s")


def test_02_oracle_ground_truth(small_problem, known_plan):
    result = lp_oracle(small_problem)
    assert np.max(np.abs(result.plan.values - known_plan)) <= 1e-9
    assert result.objective == pytest.approx(0.545, abs=1e-9)
    assert result.min_offbasis_reduced_cost > 0  # unique optimum
    report = verify_balanced(small_problem, result.plan, duals=result.duals)
    assert report.is_balanced
    assert abs(report.duality_gap) <= 1e-9
    passline(2, "oracle returns the exact plan with objective 0.545 and zero gap")


def test_03_formulation_equivalence():
    rng = np.random.default_rng(100)
    for trial in range(20):
        prob = random_problem(rng, 5, 7)
        r, c = prob.row_marginals, prob.col_marginals
        b = np.exp(prob.weights)
        for eta in (0.5, 0.1):
            z, s = b, column_multipliers(b, c, eta)
            x_ipfp = b ** (1.0 / eta)
            for _ in range(15):
                z, _, s = z_step(z, s, r, c, eta)
                x_ipfp = x_ipfp * (c / x_ipfp.sum(axis=0))[None, :]
                x_ipfp = x_ipfp * (r / x_ipfp.sum(axis=1))[:, None]
                assert np.allclose(z ** (1.0 / eta), x_ipfp, rtol=1e-8)
        seq = ipfp_vector(b, np.ones(5), prob.row_marginals, prob.col_marginals, iters=20)
        mat = ipfp_matrix(b, prob.row_marginals, prob.col_marginals, max_iters=20, tol=0.0,
                          keep_history=True)
        for (_, _, x_vec), x_mat in zip(seq, mat.history):
            assert np.allclose(x_vec, x_mat, rtol=1e-14)
    passline(3, "z-iteration matches IPFP on the powered matrix; both IPFP forms agree")


def test_04_criterion_identity(small_problem):
    r, c = small_problem.row_marginals, small_problem.col_marginals
    z = np.exp(small_problem.weights)
    s = column_multipliers(z, c, 1e-2)
    iterations = 0
    while True:
        crit = criterion(s, eta=1e-2)
        hd = hilbert_distance((z ** (1.0 / 1e-2)).sum(axis=0), c)
        assert abs(crit - hd) <= 1e-9
        z, _, s = z_step(z, s, r, c, 1e-2)
        iterations += 1
        if crit < 1e-2 or iterations > 10_000:
            break
    assert iterations <= 10_000
    passline(4, f"criterion equals the column-sum Hilbert distance at all {iterations} iterations")


def test_05_fixed_point_eigenvalue(small_problem):
    result = solve(small_problem, make_schedule(1e-4, 12, 1.5, 1e-3))
    assert result.converged
    moma = ot_to_moma(small_problem)
    alpha_hat, _ = phi_eta_step(result.scalings.alpha, moma, eta=1e-4)
    deviation = float(np.max(np.abs(alpha_hat / result.scalings.alpha - 1.0)))
    assert deviation <= 1e-6
    passline(5, f"fixed-point eigenvalue within {deviation:.2e} of 1")


def test_06_phi_eta_properties():
    rng = np.random.default_rng(101)
    for _ in range(100):
        prob = ot_to_moma(random_problem(rng, 4, 5))
        alpha = rng.uniform(0.2, 5.0, size=4)
        lam = rng.uniform(0.1, 10.0)
        a1, b1 = phi_eta_step(alpha, prob, eta=0.2)
        a2, b2 = phi_eta_step(lam * alpha, prob, eta=0.2)
        assert np.allclose(a2, lam * a1, rtol=1e-12)
        assert np.allclose(b2, lam * b1, rtol=1e-12)
    for _ in range(100):
        prob = ot_to_moma(random_problem(rng, 4, 5))
        alpha = rng.uniform(0.2, 5.0, size=4)
        bumped = alpha.copy()
        bumped[rng.integers(0, 4)] += rng.uniform(0.01, 1.0)
        base, _ = phi_eta_step(alpha, prob, eta=0.2)
        more, _ = phi_eta_step(bumped, prob, eta=0.2)
        assert np.all(more > base)
    passline(6, "homogeneity (1e-12) and strict monotonicity over 100 trials each")


def test_07_degenerate_map_behavior(small_problem):
    rng = np.random.default_rng(102)
    for _ in range(100):
        n, m = rng.integers(2, 9, size=2)
        b = np.exp(rng.normal(size=(n, m)))
        a0 = np.exp(rng.normal(size=n))
        a1, b1 = nonreg_step(a0, b)
        a2, b2 = nonreg_step(a1, b)
        # idempotent up to quotient/product rounding (a couple of ulps)
        assert np.allclose(a2, a1, rtol=5e-15)
        assert np.allclose(b2, b1, rtol=5e-15)
        scaled = a1[:, None] * b
        col_max = scaled.max(axis=0)
        assert np.all(np.isclose(scaled, col_max[None, :], rtol=1e-13).any(axis=1))
    b = np.exp(small_problem.weights)
    fp1 = np.array([1.0, 1.0, np.exp(0.1)])
    fp2 = np.array([1.0, np.exp(0.1), np.exp(0.2)])
    for fp in (fp1, fp2):
        nxt, _ = nonreg_step(fp, b)
        assert np.allclose(nxt, fp, rtol=5e-15)
    ratios = fp2 / fp1
    assert np.max(ratios) / np.min(ratios) > 1.05
    passline(7, "one-step idempotence, row maxima attained, two non-proportional fixed points")


def test_08_monge_greedy(small_problem):
    rng = np.random.default_rng(103)
    for _ in range(50):
        prob = supermodular_problem(rng, 8, 8)
        greedy_value = greedy_northwest(prob).objective(prob)
        assert greedy_value == pytest.approx(lp_oracle(prob).objective, abs=1e-9)
    greedy_small = greedy_northwest(small_problem).objective(small_problem)
    assert greedy_small == pytest.approx(0.265, abs=1e-12)
    assert greedy_small < 0.545
    passline(8, "greedy matches the oracle on 50 supermodular instances; 0.265 < 0.545 off-Monge")


def test_09_shift_invariance():
    rng = np.random.default_rng(104)
    checked = 0
    attempts = 0
    while checked < 20:
        attempts += 1
        assert attempts < 200
        prob = random_problem(rng, 4, 5)
        base = lp_oracle(prob)
        if not base.is_unique(1e-7):
            continue
        lam = rng.uniform(-2.0, 2.0, size=4)
        mu = rng.uniform(-2.0, 2.0, size=5)
        shifted = OTProblem(prob.weights + lam[:, None] + mu[None, :],
                            prob.row_marginals, prob.col_marginals)
        assert np.allclose(lp_oracle(shifted).plan.values, base.plan.values, atol=1e-9)
        checked += 1
    passline(9, "row/column shifts leave 20 unique optimal plans unchanged")


def test_10_iteration_scaling(grid64_runs):
    ratio = grid64_runs[1e-3].iterations / grid64_runs[1e-2].iterations
    assert 5.0 <= ratio <= 20.0
    passline(10, f"iterations grow by x{ratio:.1f} when eta drops tenfold")


def test_11_annealing_speedup(grid64_runs):
    single = grid64_runs[1e-4].iterations
    annealed = grid64_runs["annealed"].iterations
    assert annealed <= single / 5.0
    passline(11, f"annealing cuts {single} iterations to {annealed} (x{single / annealed:.1f})")


def test_12_stagnation_path(small_problem):
    targets = small_example_stagnation_matrices()
    visits, result = trajectory_study(small_problem, targets, eta=1e-3, tol=1e-2)
    assert result.converged
    assert all(v.min_distance <= 0.05 for v in visits)
    arrivals = [v.at_iteration for v in visits]
    assert arrivals == sorted(arrivals) and len(set(arrivals)) == 3
    for start in targets:
        out = ipfp_matrix(start, small_problem.row_marginals, small_problem.col_marginals,
                          max_iters=10_000)
        assert out.status == "cycling"
    passline(12, f"path visits all three stall matrices in order at iterations {arrivals}")


def test_13_marginal_conservation(small_problem):
    r, c = small_problem.row_marginals, small_problem.col_marginals
    for eta in (1e-2, 1e-3):
        z, _ = row_equilibrate(np.exp(small_problem.weights))
        s = column_multipliers(z, c, eta)
        while True:
            z, _, s = z_step(z, s, r, c, eta)
            rows = (z ** (1.0 / eta)).sum(axis=1)
            assert np.max(np.abs(rows / r - 1.0)) <= 1e-12
            if criterion(s, eta=eta) < 1e-2:
                break
    result = solve(small_problem, AnnealingSchedule(((1e-3, 1e-2),)))
    terminal = hilbert_distance(result.plan.values.sum(axis=0), small_problem.col_marginals)
    assert terminal <= 1e-2
    passline(13, "row sums exact to 1e-12 each step; terminal column distance below tol")


def test_14_risk_aversion_relation():
    for eta in (0.3, 0.05):
        for x in (0.5, 1.0, 2.0):
            h = 1e-4 * x
            g = lambda t: isoelastic_utility(t, eta)
            g1 = (g(x + h) - g(x - h)) / (2.0 * h)
            g2 = (g(x + h) - 2.0 * g(x) + g(x - h)) / h**2
            assert -g2 / g1 == pytest.approx(eta / x, rel=1e-6)
    passline(14, "finite-difference risk aversion equals eta/x at all probe points")
