import json

import numpy as np
import pytest

from balanced_transport import (
    AnnealingSchedule,
    ConvergenceTrace,
    GridSpec,
    MOMAProblem,
    OTProblem,
    generate_grid,
    make_schedule,
    small_example,
    solve,
)
from balanced_transport.errors import NonFiniteEntry, ValidationError
from balanced_transport.fileio import (
    FORM_ADDITIVE,
    FORM_MULTIPLICATIVE,
    ProblemFileError,
    read_matrix_csv,
    read_problem,
    write_matrix_csv,
    write_pgm,
    write_problem,
    write_trace_csv,
)


# Reference writers: format every value to 17 digits in Python, one at a
# time.  The package's writers must produce the same bytes.

def _fmt(value):
    return format(float(value), ".17g")


def reference_write_problem(problem, path):
    moma = isinstance(problem, MOMAProblem)
    matrix = problem.coefficients if moma else problem.weights
    doc = {
        "n": problem.n,
        "m": problem.m,
        "sense": problem.sense,
        "form": FORM_MULTIPLICATIVE if moma else FORM_ADDITIVE,
        "weights": [float(_fmt(v)) for v in matrix.ravel()],
        "r": [float(_fmt(v)) for v in problem.row_marginals],
        "c": [float(_fmt(v)) for v in problem.col_marginals],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def reference_write_matrix_csv(matrix, path):
    lines = [",".join(_fmt(v) for v in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n")


def reference_write_trace_csv(trace, path):
    lines = ["iter,eta,criterion,wall_time"]
    for k, eta, crit, wall in zip(trace.iterations, trace.etas, trace.criteria, trace.wall_times):
        lines.append(f"{k},{_fmt(eta)},{_fmt(crit)},{_fmt(wall)}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def grid64():
    problem = generate_grid(GridSpec(64))
    return problem, solve(problem, make_schedule(1e-4, 12, 1.5, 1e-2))


def _same_bytes(tmp_path, write, reference, obj, name="ours"):
    ours, ref = tmp_path / name, tmp_path / "reference"
    write(obj, ours)
    reference(obj, ref)
    return ours.read_bytes() == ref.read_bytes()


EXTREMES = np.array([[0.0, -0.0, 5e-324, -5e-324],
                     [np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf],
                     [np.nan, 1.0 / 3.0, -2.5e-308, 1e22]])


class TestWritersMatchReference:
    def test_small_example_problem(self, tmp_path):
        assert _same_bytes(tmp_path, write_problem, reference_write_problem, small_example())

    def test_multiplicative_minimize_problem(self, tmp_path):
        rng = np.random.default_rng(3)
        prob = MOMAProblem(rng.uniform(0.1, 3.0, size=(4, 5)), rng.dirichlet(np.ones(4)) * 4.0,
                           rng.dirichlet(np.ones(5)) * 4.0, "minimize")
        assert _same_bytes(tmp_path, write_problem, reference_write_problem, prob)

    def test_grid64_problem(self, tmp_path, grid64):
        assert _same_bytes(tmp_path, write_problem, reference_write_problem, grid64[0])

    def test_grid64_plan_final_z_and_trace(self, tmp_path, grid64):
        result = grid64[1]
        assert _same_bytes(tmp_path, write_matrix_csv, reference_write_matrix_csv, result.plan.values)
        assert _same_bytes(tmp_path, write_matrix_csv, reference_write_matrix_csv, result.final_z)
        assert _same_bytes(tmp_path, write_trace_csv, reference_write_trace_csv, result.trace)

    def test_extreme_values(self, tmp_path):
        assert _same_bytes(tmp_path, write_matrix_csv, reference_write_matrix_csv, EXTREMES)
        # A problem holds finite weights only; nan and +-inf stay in the CSV half.
        finite = np.where(np.isfinite(EXTREMES), EXTREMES, 0.5)
        prob = OTProblem(finite, np.ones(3), np.full(4, 0.75))
        assert _same_bytes(tmp_path, write_problem, reference_write_problem, prob)

    def test_gz_suffix_still_writes_plain_text(self, tmp_path, grid64):
        assert _same_bytes(tmp_path, write_matrix_csv, reference_write_matrix_csv, EXTREMES, "plan.csv.gz")
        assert _same_bytes(tmp_path, write_trace_csv, reference_write_trace_csv, grid64[1].trace, "trace.csv.gz")

    def test_empty_trace(self, tmp_path):
        assert _same_bytes(tmp_path, write_trace_csv, reference_write_trace_csv, ConvergenceTrace())


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
        a = rng.normal(size=(3, 5))
        r = rng.uniform(0.5, 1.0, 3)
        prob = OTProblem(a, r, r.sum() / 5 * np.ones(5))
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
        assert "(line 2, column " in str(err.value)

    def test_length_checks(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"n": 2, "m": 2, "sense": "maximize", "form": "additive",'
                        ' "weights": [1, 2, 3], "r": [1, 1], "c": [1, 1]}')
        with pytest.raises(ProblemFileError):
            read_problem(path)

    @pytest.mark.parametrize("n", ["1.9", "true", "1.0", "\"1\""])
    def test_shape_must_be_a_json_integer(self, tmp_path, n):
        path = tmp_path / "shape.json"
        path.write_text(f'{{"n": {n}, "m": 1, "sense": "maximize", "form": "additive",'
                        ' "weights": [1], "r": [1], "c": [1]}')
        with pytest.raises(ProblemFileError, match="n and m must be integers"):
            read_problem(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "number.json"
        path.write_text("5\n")
        with pytest.raises(ProblemFileError, match="not a JSON object"):
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

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (2, 0), (1, 2, 2)])
    def test_writer_needs_a_non_empty_matrix(self, tmp_path, shape):
        # an empty matrix would give a file that read_matrix_csv rejects
        with pytest.raises(ValidationError, match="non-empty matrix"):
            write_matrix_csv(np.zeros(shape), tmp_path / "none.csv")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ProblemFileError):
            read_matrix_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ProblemFileError) as err:
            read_matrix_csv(path)
        assert str(err.value).endswith("has ragged rows (line 2)")

    @pytest.mark.parametrize("text, line", [("1,,2\n3,4\n", 1), ("1,2\n3,4,\n", 2), ("1,2\n\n3,4\n", 2)],
                             ids=["inner", "trailing", "blank-line"])
    def test_empty_cell_rejected_with_its_line(self, tmp_path, text, line):
        path = tmp_path / "gap.csv"
        path.write_text(text)
        with pytest.raises(ProblemFileError, match="empty cell") as err:
            read_matrix_csv(path)
        assert err.value.line == line
        assert str(err.value).endswith(f"(line {line})")

    def test_extreme_values_round_trip(self, tmp_path):
        path = tmp_path / "extremes.csv"
        write_matrix_csv(EXTREMES, path)
        back = read_matrix_csv(path)
        assert np.array_equal(back, EXTREMES, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(EXTREMES))


class TestTraceCSV:
    def test_round_trip(self, tmp_path):
        result = solve(small_example(), AnnealingSchedule(((1e-2, 1e-2),)))
        path = tmp_path / "trace.csv"
        write_trace_csv(result.trace, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        trace = result.trace
        assert np.array_equal(rows, np.column_stack((trace.iterations, trace.etas, trace.criteria, trace.wall_times)))
        assert path.read_text().splitlines()[0] == "iter,eta,criterion,wall_time"


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
        header = b"P5\n2 3\n255\n"  # width 2, height 3
        raw = path.read_bytes()
        assert raw.startswith(header)
        pixels = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(3, 2)
        assert pixels[0, 0] == 0  # row 1 stays on top
        assert pixels[1, 0] == 255

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_rejected_with_its_cell(self, tmp_path, bad):
        mat = np.array([[0.0, 0.5], [1.0, bad], [0.75, 0.1]])
        path = tmp_path / "bad.pgm"
        with pytest.raises(NonFiniteEntry, match=r"\[2, 2\]"):
            write_pgm(mat, path)
        assert not path.exists()

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
