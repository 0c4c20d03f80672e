import numpy as np
import pytest

from balanced_transport import MOMAProblem, OTProblem, small_example, solve, AnnealingSchedule
from balanced_transport.fileio import (
    ProblemFileError,
    read_matrix_csv,
    read_pgm,
    read_problem,
    read_trace_csv,
    write_matrix_csv,
    write_pgm,
    write_problem,
    write_trace_csv,
)


class TestProblemFiles:
    def test_round_trip_additive(self, tmp_path):
        prob = small_example()
        path = tmp_path / "prob.json"
        write_problem(prob, path)
        back = read_problem(path)
        assert isinstance(back, OTProblem)
        assert np.array_equal(back.weights, prob.weights)
        assert np.array_equal(back.row_marginals, prob.row_marginals)
        assert back.sense == prob.sense

    def test_round_trip_multiplicative(self, tmp_path):
        rng = np.random.default_rng(0)
        prob = MOMAProblem(rng.uniform(0.1, 3.0, size=(2, 4)), [1.0, 1.0],
                           rng.dirichlet(np.ones(4)) * 2.0, "minimize")
        path = tmp_path / "prob.json"
        write_problem(prob, path)
        back = read_problem(path)
        assert isinstance(back, MOMAProblem)
        assert np.array_equal(back.coefficients, prob.coefficients)
        assert np.array_equal(back.col_marginals, prob.col_marginals)

    def test_serialize_parse_serialize_is_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        prob = OTProblem(rng.normal(size=(3, 5)), rng.uniform(0.5, 1.0, 3),
                         np.full(5, rng.uniform(0.5, 1.0, 3).sum() / 5))
        c = prob.row_marginals.sum() / 5 * np.ones(5)
        prob = OTProblem(prob.weights, prob.row_marginals, c)
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        write_problem(prob, p1)
        write_problem(read_problem(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_json_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 1,\n  "m": }\n')
        with pytest.raises(ProblemFileError) as err:
            read_problem(path)
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_length_checks(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"n": 2, "m": 2, "sense": "maximize", "form": "additive",'
                        ' "weights": [1, 2, 3], "r": [1, 1], "c": [1, 1]}')
        with pytest.raises(ProblemFileError):
            read_problem(path)

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "m": 1, "sense": "upward", "form": "additive",'
                        ' "weights": [1], "r": [1], "c": [1]}')
        with pytest.raises(ProblemFileError):
            read_problem(path)


class TestMatrixCSV:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(4, 6)) * np.exp(rng.uniform(-30, 30, size=(4, 6)))
        path = tmp_path / "mat.csv"
        write_matrix_csv(mat, path)
        back = read_matrix_csv(path)
        assert np.array_equal(back, mat)

    def test_seventeen_digit_thirds(self, tmp_path):
        mat = np.array([[1.0 / 3.0, 2.0 / 3.0]])
        path = tmp_path / "thirds.csv"
        write_matrix_csv(mat, path)
        assert np.array_equal(read_matrix_csv(path), mat)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ProblemFileError):
            read_matrix_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ProblemFileError):
            read_matrix_csv(path)


class TestTraceCSV:
    def test_round_trip(self, tmp_path):
        result = solve(small_example(), AnnealingSchedule(((1e-2, 1e-2),)))
        path = tmp_path / "trace.csv"
        write_trace_csv(result.trace, path)
        rows = read_trace_csv(path)
        assert [k for k, _, _, _ in rows] == result.trace.iterations
        assert [c for _, _, c, _ in rows] == result.trace.criteria
        assert [w for _, _, _, w in rows] == result.trace.wall_times
        assert path.read_text().splitlines()[0] == "iter,eta,criterion,wall_time"

    def test_three_column_form_still_reads(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,eta,criterion\n1,0.01,0.5\n2,0.01,0.25\n")
        assert read_trace_csv(path) == [(1, 0.01, 0.5, None), (2, 0.01, 0.25, None)]

    def test_row_width_must_match_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,eta,criterion,wall_time\n1,0.01,0.5\n")
        with pytest.raises(ProblemFileError):
            read_trace_csv(path)
        path.write_text("iter,eta,criterion\n1,0.01,0.5,0.1\n")
        with pytest.raises(ProblemFileError):
            read_trace_csv(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("1,0.1,0.5\n")
        with pytest.raises(ProblemFileError):
            read_trace_csv(path)


class TestPGM:
    def test_single_cell_maps_to_midgray(self, tmp_path):
        path = tmp_path / "one.pgm"
        write_pgm(np.array([[3.7]]), path)
        assert path.read_bytes() == b"P5\n1 1\n255\n" + bytes([128])

    def test_linear_scaling(self, tmp_path):
        path = tmp_path / "two.pgm"
        write_pgm(np.array([[0.0, 1.0], [1.0, 0.0]]), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert list(raw[-4:]) == [0, 255, 255, 0]

    def test_round_trip_and_orientation(self, tmp_path):
        mat = np.array([[0.0, 0.5], [1.0, 0.25], [0.75, 0.1]])
        path = tmp_path / "three.pgm"
        write_pgm(mat, path)
        pixels = read_pgm(path)
        assert pixels.shape == (3, 2)
        assert pixels[0, 0] == 0  # row 1 stays on top
        assert pixels[1, 0] == 255

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(Exception):
            write_pgm(np.zeros((0, 2)), tmp_path / "no.pgm")

    def test_full_scale_grid_header(self, tmp_path):
        from balanced_transport import GridSpec, generate_grid

        weights = generate_grid(GridSpec(256)).weights
        path = tmp_path / "grid.pgm"
        write_pgm(weights, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n256 256\n255\n")
        assert len(raw) == len(b"P5\n256 256\n255\n") + 256 * 256
