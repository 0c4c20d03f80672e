import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from balanced_transport import small_example, small_example_solution, verify
from balanced_transport import cli
from balanced_transport.cli import main
from balanced_transport.fileio import read_matrix_csv, read_problem, write_matrix_csv, write_problem

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "small.json"
    write_problem(small_example(), path)
    return path


class TestGenerate:
    def test_small_example_preset(self, tmp_path):
        out = tmp_path / "small.json"
        assert main(["generate", "--preset", "small-example", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["weights"] == [0.0, 1.0, 0.5, 0.7, 0.5, 0.3, 0.6, 0.3, 0.0]
        prob = read_problem(out)
        assert np.array_equal(prob.weights, small_example().weights)

    def test_grid_preset_size_two(self, tmp_path):
        out = tmp_path / "grid.json"
        assert main(["generate", "--preset", "paper-grid", "--size", "2", "--out", str(out)]) == 0
        prob = read_problem(out)
        assert np.allclose(prob.weights, 1.0)
        assert np.allclose(prob.row_marginals, [0.5, 0.5])

    def test_odd_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert main(["generate", "--preset", "paper-grid", "--size", "3", "--out", str(out)]) == 1
        assert "marginal" in capsys.readouterr().err

    def test_missing_size(self, tmp_path):
        assert main(["generate", "--preset", "paper-grid", "--out", str(tmp_path / "g.json")]) == 1


class TestSolve:
    def test_schedule_run_recovers_the_known_plan(self, problem_file, tmp_path):
        plan_path = tmp_path / "plan.csv"
        trace_path = tmp_path / "trace.csv"
        report_path = tmp_path / "report.json"
        code = main([
            "solve", str(problem_file),
            "--schedule", "stages=12,factor=1.5,final=1e-4",
            "--out-plan", str(plan_path),
            "--out-trace", str(trace_path),
            "--report", str(report_path),
        ])
        assert code == 0
        plan = read_matrix_csv(plan_path)
        assert np.max(np.abs(plan - small_example_solution())) < 0.01
        report = json.loads(report_path.read_text())
        assert report["converged"] is True
        assert len(report["iterations_per_stage"]) == 12
        # The 3x3 example keeps the relaxed rule, so each step is one row fit.
        assert report["fits_per_stage"] == report["iterations_per_stage"]
        assert report["final_criterion"] < 0.01
        assert report["objective_value"] >= 0.54
        assert report["duality_gap"] is not None
        rows = np.loadtxt(trace_path, delimiter=",", skiprows=1, ndmin=2)
        assert len(rows) == report["iterations_total"]
        # the running minimum of the criterion column never increases
        criteria = rows[:, 2]
        running = np.minimum.accumulate(criteria)
        assert np.all(np.diff(running) <= 0.0 + 1e-18)

    def test_minimize_and_multiplicative_files_agree_with_the_additive_one(self, tmp_path):
        # The minimize report flips the solver's duals back to the caller's
        # weights; the multiplicative file goes through moma_to_ot.
        from balanced_transport import MINIMIZE, OTProblem, ot_to_moma

        p = small_example()
        forms = {
            "additive": p,
            "minimize": OTProblem(-p.weights, p.row_marginals, p.col_marginals, MINIMIZE),
            "multiplicative": ot_to_moma(p),
        }
        reports, plans = {}, {}
        for name, problem in forms.items():
            write_problem(problem, tmp_path / f"{name}.json")
            code = main([
                "solve", str(tmp_path / f"{name}.json"),
                "--schedule", "stages=12,factor=1.5,final=1e-4",
                "--report", str(tmp_path / f"{name}.report.json"),
                "--out-plan", str(tmp_path / f"{name}.plan.csv"),
            ])
            assert code == 0
            reports[name] = json.loads((tmp_path / f"{name}.report.json").read_text())
            plans[name] = (tmp_path / f"{name}.plan.csv").read_bytes()
        base = reports["additive"]
        assert base["iterations_per_stage"] == [37, 12, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1]
        assert 0 < base["duality_gap"] < 1e-3
        for name in ("minimize", "multiplicative"):
            assert reports[name]["iterations_per_stage"] == base["iterations_per_stage"]
            assert plans[name] == plans["additive"]
            assert reports[name]["duality_gap"] == pytest.approx(base["duality_gap"], rel=1e-12)
        assert reports["minimize"]["objective_value"] == pytest.approx(-base["objective_value"], rel=1e-12)
        assert reports["multiplicative"]["objective_value"] == pytest.approx(base["objective_value"], rel=1e-12)

    def test_zero_eta_names_the_floor(self, problem_file, capsys):
        assert main(["solve", str(problem_file), "--eta", "0"]) == 1
        err = capsys.readouterr().err
        assert "floor" in err and "1e-08" in err

    def test_scalar_problem_plan_file(self, tmp_path):
        from balanced_transport import OTProblem

        path = tmp_path / "one.json"
        write_problem(OTProblem([[0.25]], [3.0], [3.0]), path)
        plan_path = tmp_path / "plan.csv"
        assert main(["solve", str(path), "--eta", "0.05", "--out-plan", str(plan_path)]) == 0
        plan = read_matrix_csv(plan_path)
        assert plan.shape == (1, 1)
        assert plan[0, 0] == pytest.approx(3.0, rel=1e-12)

    def test_the_report_counts_row_fits_per_stage(self, tmp_path):
        # A 16x16 grid mixes its column fits, and one mixed step of its
        # first stage is undone and redone: 72 row fits for its 71 steps.
        from balanced_transport import GridSpec, generate_grid

        path, report_path = tmp_path / "grid.json", tmp_path / "report.json"
        write_problem(generate_grid(GridSpec(16)), path)
        assert main(["solve", str(path), "--schedule", "stages=12,factor=1.5,final=1e-4",
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["iterations_per_stage"] == [71, 12, 10, 4, 10, 4, 10, 9, 10, 5, 10, 10]
        assert report["fits_per_stage"] == [72, 12, 10, 4, 10, 4, 10, 9, 10, 5, 10, 10]

    def test_budget_exhaustion_exits_two(self, problem_file):
        assert main(["solve", str(problem_file), "--eta", "1e-3", "--max-iters", "3"]) == 2

    def test_debug_z_dump(self, problem_file, tmp_path):
        z_path = tmp_path / "z.csv"
        plan_path = tmp_path / "plan.csv"
        eta = 1e-3
        code = main(["solve", str(problem_file), "--eta", str(eta),
                     "--out-plan", str(plan_path), "--debug-z", str(z_path)])
        assert code == 0
        z = read_matrix_csv(z_path)
        plan = read_matrix_csv(plan_path)
        assert np.allclose(z ** (1.0 / eta), plan, rtol=1e-12)

    def test_eta_and_schedule_conflict(self, problem_file):
        assert main(["solve", str(problem_file), "--eta", "1e-2",
                     "--schedule", "stages=2,factor=2,final=1e-3"]) == 1

    def test_eta_or_schedule_required(self, problem_file, capsys):
        assert main(["solve", str(problem_file)]) == 1
        assert "--eta" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value",
                             [("n", "three"), ("n", 1.9), ("n", True), ("weights", ["x"] * 9), ("r", 1.0),
                              ("r", [0.25, 0.25, -0.5]), ("c", [0.2, 0.6, 0.3]), ("form", "multiplicative")],
                             ids=["n-text", "n-fraction", "n-bool", "weights-text", "r-scalar",
                                  "r-negative", "c-unequal-total", "zero-coefficient"])
    def test_malformed_problem_field_exits_one(self, problem_file, capsys, field, value):
        doc = json.loads(problem_file.read_text())
        doc[field] = value
        problem_file.write_text(json.dumps(doc))
        assert main(["solve", str(problem_file), "--eta", "1e-2"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert main(["verify", str(problem_file), str(problem_file)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_problem_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json"), "--eta", "1e-2"]) == 1

    def test_malformed_schedule_flag(self, problem_file):
        assert main(["solve", str(problem_file), "--schedule", "stages=2;factor=2"]) == 1

    def test_an_overflowing_ladder_exits_one(self, problem_file, capsys):
        assert main(["solve", str(problem_file), "--schedule", "stages=3000,factor=1.5,final=1e-4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "stages=3000,factor=1.5" in err


class TestVerify:
    def test_known_plan_passes(self, problem_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.csv"
        write_matrix_csv(small_example_solution(), plan_path)
        assert main(["verify", str(problem_file), str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "is_balanced: True" in out

    def test_perturbed_plan_exits_three(self, problem_file, tmp_path, capsys):
        perturbed = np.array([[0.05, 0.2, 0.0], [0.0, 0.05, 0.2], [0.15, 0.35, 0.0]])
        plan_path = tmp_path / "plan.csv"
        write_matrix_csv(perturbed, plan_path)
        assert main(["verify", str(problem_file), str(plan_path)]) == 3
        assert "is_balanced: False" in capsys.readouterr().out

    def test_a_failing_plan_recovers_its_duals_once(self, problem_file, tmp_path, capsys, monkeypatch):
        # The certificate's own recovery locates the violating cell; the
        # CLI prints it without recovering the duals again.
        calls = [0]
        recover = verify.recover_duals

        def counting(*args, **kwargs):
            calls[0] += 1
            return recover(*args, **kwargs)

        monkeypatch.setattr(verify, "recover_duals", counting)
        monkeypatch.setattr(cli, "recover_duals", counting)
        perturbed = np.array([[0.05, 0.2, 0.0], [0.0, 0.05, 0.2], [0.15, 0.35, 0.0]])
        plan_path = tmp_path / "plan.csv"
        write_matrix_csv(perturbed, plan_path)
        assert main(["verify", str(problem_file), str(plan_path)]) == 3
        assert capsys.readouterr().out == (
            "is_balanced: False\n"
            "max_slackness_violation: 0.727468\n"
            "max_dual_infeasibility: 0\n"
            "row_residual: 0\n"
            "col_residual: 0\n"
            "objective: 0.48\n"
            "dual_value: 0.545\n"
            "duality_gap: 0.065\n"
            "violation located at (1, 1)\n"
        )
        assert calls[0] == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_plan_exits_one(self, problem_file, tmp_path, capsys, bad):
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(f"0,0.25,0\n0,{bad},0.2\n0.2,0.3,0\n")
        assert main(["verify", str(problem_file), str(plan_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "[2, 2]" in err

    def test_all_zero_plan_exits_three(self, problem_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.csv"
        write_matrix_csv(np.zeros((3, 3)), plan_path)
        assert main(["verify", str(problem_file), str(plan_path)]) == 3
        out = capsys.readouterr().out
        assert "is_balanced: False" in out and "row_residual: 1" in out

    def test_wrong_dimensions_exit_one(self, problem_file, tmp_path):
        plan_path = tmp_path / "plan.csv"
        write_matrix_csv(np.ones((2, 2)), plan_path)
        assert main(["verify", str(problem_file), str(plan_path)]) == 1


class TestHeatmap:
    def test_renders_plan(self, tmp_path):
        plan_path = tmp_path / "plan.csv"
        write_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), plan_path)
        out = tmp_path / "plan.pgm"
        assert main(["heatmap", str(plan_path), "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert list(raw[-4:]) == [0, 255, 255, 0]

    def test_a_range_beyond_the_float_maximum_renders(self, tmp_path):
        matrix_path = tmp_path / "wide.csv"
        write_matrix_csv(np.array([[-1e308, 0.0, 1e308]]), matrix_path)
        out = tmp_path / "wide.pgm"
        assert main(["heatmap", str(matrix_path), "--out", str(out)]) == 0
        assert out.read_bytes() == b"P5\n3 1\n255\n" + bytes([0, 128, 255])

    def test_grid_weights_header(self, tmp_path):
        code = main(["generate", "--preset", "paper-grid", "--size", "16", "--out", str(tmp_path / "g.json")])
        assert code == 0
        prob = read_problem(tmp_path / "g.json")
        weights_path = tmp_path / "weights.csv"
        write_matrix_csv(prob.weights, weights_path)
        out = tmp_path / "weights.pgm"
        assert main(["heatmap", str(weights_path), "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_nonfinite_cell_exits_one(self, tmp_path, capsys):
        matrix_path = tmp_path / "bad.csv"
        matrix_path.write_text("0,1\n1,nan\n")
        assert main(["heatmap", str(matrix_path), "--out", str(tmp_path / "bad.pgm")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "[2, 2]" in err

    def test_empty_input_exits_one(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["heatmap", str(empty), "--out", str(tmp_path / "x.pgm")]) == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        out = tmp_path / "gen.json"
        proc = subprocess.run(
            [sys.executable, "-m", "balanced_transport", "generate",
             "--preset", "small-example", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_usage_error_exits_one(self):
        assert main(["frobnicate"]) == 1
