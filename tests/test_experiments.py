import numpy as np
import pytest

from balanced_transport import (
    GridSpec,
    OTProblem,
    TrajectoryVisit,
    ValidationError,
    ZeroMarginal,
    generate_grid,
    require_valid,
    run_single_stage,
    small_example,
    small_example_solution,
    small_example_stagnation_matrices,
    trajectory_study,
)


class TestGridGeneration:
    def test_two_by_two(self):
        prob = generate_grid(GridSpec(2))
        assert np.allclose(prob.weights, 1.0, atol=1e-15)  # sin(pi/2) at every cell
        assert np.allclose(prob.row_marginals, [0.5, 0.5])
        assert np.allclose(prob.col_marginals, [0.5, 0.5])

    def test_matches_the_defining_formula(self):
        N = 4
        prob = generate_grid(GridSpec(N))
        for i in range(N):
            for j in range(N):
                x = (i + 0.5) / N
                y = (j + 0.5) / N
                expected = np.sin(4.0 * np.pi * ((x - 0.5) ** 2 + (y - 0.5) ** 2))
                assert prob.weights[i, j] == pytest.approx(expected, abs=1e-15)
        radial = np.abs((np.arange(1, N + 1) - 0.5) / N - 0.5)
        assert np.allclose(prob.row_marginals, radial / radial.sum(), rtol=1e-15)

    @pytest.mark.parametrize("N", [2, 4, 8, 16])
    def test_even_sizes_are_valid(self, N):
        prob = generate_grid(GridSpec(N))
        require_valid(prob)
        assert prob.row_marginals.sum() == pytest.approx(1.0, rel=1e-12)
        assert prob.row_marginals.min() > 0

    @pytest.mark.parametrize("N", [3, 5])
    def test_odd_sizes_rejected(self, N):
        with pytest.raises(ZeroMarginal):
            generate_grid(GridSpec(N))

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(1)


class TestSmallExample:
    def test_exact_data(self):
        prob = small_example()
        assert np.array_equal(prob.weights, [[0.0, 1.0, 0.5], [0.7, 0.5, 0.3], [0.6, 0.3, 0.0]])
        assert np.array_equal(prob.row_marginals, [0.25, 0.25, 0.5])
        assert np.array_equal(prob.col_marginals, [0.2, 0.6, 0.2])
        require_valid(prob)

    def test_solution_is_feasible(self):
        plan = small_example_solution()
        prob = small_example()
        assert np.allclose(plan.sum(axis=1), prob.row_marginals, atol=1e-15)
        assert np.allclose(plan.sum(axis=0), prob.col_marginals, atol=1e-15)

    def test_stagnation_matrices_share_the_row_sums(self):
        prob = small_example()
        for mat in small_example_stagnation_matrices():
            assert np.allclose(mat.sum(axis=1), prob.row_marginals, atol=1e-15)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        prob = generate_grid(GridSpec(8))
        one = run_single_stage(prob, 1e-2, 1e-2)
        two = run_single_stage(prob, 1e-2, 1e-2)
        assert one.trace.criteria == two.trace.criteria
        assert np.array_equal(one.plan.values, two.plan.values)


class TestTrajectoryStudy:
    def test_visits_are_ordered_and_close(self):
        visits, result = trajectory_study(
            small_example(), small_example_stagnation_matrices(), eta=1e-3
        )
        assert result.converged
        distances = [v.min_distance for v in visits]
        assert all(d <= 0.05 for d in distances)
        arrival = [v.at_iteration for v in visits]
        assert arrival == sorted(arrival)
        assert len(set(arrival)) == len(arrival)

    def test_a_run_shorter_than_the_stride_uses_the_final_plan(self):
        # 121 cells take a snapshot every 10th step; a uniform problem
        # converges in 1 step, so the final plan is the whole path.
        problem = OTProblem(np.zeros((11, 11)), np.ones(11), np.ones(11))
        target = np.zeros((11, 11))
        visits, result = trajectory_study(problem, [target])
        assert result.converged and result.iterations < 10
        assert result.trace.snapshots == []
        assert visits == [TrajectoryVisit(0, float(np.max(result.plan.values)), result.iterations)]

    def test_distances_match_the_per_snapshot_loop(self):
        # One array pass over the stacked snapshots takes the same maxima as
        # a loop over them, so the visits agree exactly.
        targets = small_example_stagnation_matrices()
        visits, result = trajectory_study(small_example(), targets, eta=1e-3)
        snapshots = result.trace.snapshots
        for idx, target in enumerate(targets):
            dists = [float(np.max(np.abs(snap - target))) for _, snap in snapshots]
            best = int(np.argmin(dists))
            assert visits[idx] == TrajectoryVisit(idx, dists[best], snapshots[best][0])
