"""Smoke runs of the reproduction scripts at desk scale."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PYTHON = [sys.executable, "-W", "error"]  # as in-process, every warning fails the run


@pytest.mark.parametrize(
    "script, args, headline",
    [
        ("run_grid_experiment.py", ["--size", "8", "--etas", "1e-1", "1e-2"], "grid 8 x 8, tol 0.01"),
        ("run_annealing_comparison.py", ["--size", "8", "--final-eta", "1e-2", "--stages", "3", "--factor", "2"],
         "iteration reduction factor:"),
        ("run_stagnation_study.py", [], "final plan max deviation from the known optimum:"),
        ("run_count_sweep.py", ["--first", "1000", "--count", "3"], '"total": '),
    ],
    ids=["grid", "annealing", "stagnation", "count-sweep"],
)
def test_script_runs(tmp_path, script, args, headline):
    if script == "run_grid_experiment.py":
        args = args + ["--out-dir", str(tmp_path / "grid")]
    proc = subprocess.run(
        [*PYTHON, str(SCRIPTS / script), *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert headline in proc.stdout


def test_count_sweep_compare_prints_the_moved_seeds_and_both_totals(tmp_path):
    old = tmp_path / "old.json"
    old.write_text('{"total": 1000, "counts": {"1000": 500, "1001": 1}, "unconverged": []}')
    proc = subprocess.run(
        [*PYTHON, str(SCRIPTS / "run_count_sweep.py"), "--first", "1000", "--count", "2", "--compare", str(old)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("seed 1000: 500 -> ") and ", ratio " in lines[0]
    assert lines[1].startswith("seed 1001: 1 -> ")
    assert lines[2].startswith("2 of 2 moved; total 501 -> ")


def test_count_sweep_prints_and_compares_row_fits(tmp_path):
    proc = subprocess.run(
        [*PYTHON, str(SCRIPTS / "run_count_sweep.py"), "--first", "1000", "--count", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["fits"].keys() == out["counts"].keys() == out["warm_ups"].keys() == {"1000", "1001"}
    assert all(out["fits"][seed] >= out["counts"][seed] for seed in out["counts"])
    assert out["fits_total"] == sum(out["fits"].values())
    # Both problems have Gaussian weights, so their first stage starts cold
    # and warms up.
    assert out["warm_ups"] == {"1000": 6, "1001": 6} and out["warm_ups_total"] == 12
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"total": 501, "counts": {"1000": 500, "1001": 1},
                               "fits_total": 501, "fits": {"1000": 500, "1001": 1}, "unconverged": []}))
    proc = subprocess.run(
        [*PYTHON, str(SCRIPTS / "run_count_sweep.py"), "--first", "1000", "--count", "2", "--compare", str(old)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    assert lines[2].startswith("2 of 2 moved; total 501 -> ") and lines[2].endswith(" steps")
    assert lines[3].startswith("seed 1000: 500 -> ") and " fits, ratio " in lines[3]
    assert lines[5] == f"2 of 2 moved; total 501 -> {out['fits_total']} fits"
