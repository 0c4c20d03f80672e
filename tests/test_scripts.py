"""Smoke runs of the reproduction scripts at desk scale."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert headline in proc.stdout
