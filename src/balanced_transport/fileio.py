"""File formats: JSON problem files, full-precision CSV matrices and
traces, and binary PGM heatmaps.

Floats are written with 17 significant digits, so every file round-trips
to bit-identical values.  CSV was chosen over binary containers for
diff-ability; PGM (P5) is the simplest lossless grayscale raster.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import ValidationError
from .model import MAXIMIZE, MINIMIZE, MOMAProblem, OTProblem, Problem
from .regularized import ConvergenceTrace

FORM_ADDITIVE = "additive"
FORM_MULTIPLICATIVE = "multiplicative"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


class ProblemFileError(ValidationError):
    """A problem file failed to parse or carries inconsistent fields.

    ``line`` and ``column`` locate JSON syntax errors when available.
    """

    def __init__(self, message: str, line: int = None, column: int = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def write_problem(problem: Problem, path: Union[str, Path]) -> None:
    """Serialize a problem to a JSON document with a declared form flag."""
    if isinstance(problem, MOMAProblem):
        form = FORM_MULTIPLICATIVE
        matrix = problem.coefficients
    else:
        form = FORM_ADDITIVE
        matrix = problem.weights
    doc = {
        "n": problem.n,
        "m": problem.m,
        "sense": problem.sense,
        "form": form,
        "weights": [float(_fmt(v)) for v in matrix.ravel()],
        "r": [float(_fmt(v)) for v in problem.row_marginals],
        "c": [float(_fmt(v)) for v in problem.col_marginals],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_problem(path: Union[str, Path]) -> Problem:
    """Parse a problem file, checking lengths against the declared shape."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"invalid problem file {path}: {exc.msg}", exc.lineno, exc.colno) from exc
    for key in ("n", "m", "sense", "form", "weights", "r", "c"):
        if key not in doc:
            raise ProblemFileError(f"problem file {path} is missing field {key!r}")
    n, m = int(doc["n"]), int(doc["m"])
    if n < 1 or m < 1:
        raise ProblemFileError(f"problem file {path} declares invalid shape ({n}, {m})")
    weights = doc["weights"]
    if len(weights) != n * m:
        raise ProblemFileError(f"weights array has {len(weights)} entries, expected n*m = {n * m}")
    if len(doc["r"]) != n:
        raise ProblemFileError(f"r has {len(doc['r'])} entries, expected n = {n}")
    if len(doc["c"]) != m:
        raise ProblemFileError(f"c has {len(doc['c'])} entries, expected m = {m}")
    sense = doc["sense"]
    if sense not in (MAXIMIZE, MINIMIZE):
        raise ProblemFileError(f"unknown sense {sense!r}")
    matrix = np.array(weights, dtype=float).reshape(n, m)
    r = np.array(doc["r"], dtype=float)
    c = np.array(doc["c"], dtype=float)
    if doc["form"] == FORM_ADDITIVE:
        return OTProblem(matrix, r, c, sense)
    if doc["form"] == FORM_MULTIPLICATIVE:
        return MOMAProblem(matrix, r, c, sense)
    raise ProblemFileError(f"unknown form {doc['form']!r}")


def write_matrix_csv(matrix: np.ndarray, path: Union[str, Path]) -> None:
    """Row-major CSV, one matrix row per line, 17 significant digits."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError(f"expected a matrix, got shape {matrix.shape}")
    lines = [",".join(_fmt(v) for v in row) for row in matrix]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path: Union[str, Path]) -> np.ndarray:
    text = Path(path).read_text().strip()
    if not text:
        raise ProblemFileError(f"matrix file {path} is empty")
    rows = []
    width = None
    for k, line in enumerate(text.splitlines(), start=1):
        parts = [p for p in line.strip().split(",") if p != ""]
        if not parts:
            raise ProblemFileError(f"matrix file {path} has an empty row", line=k)
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise ProblemFileError(f"matrix file {path}: {exc}", line=k) from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ProblemFileError(f"matrix file {path} has ragged rows", line=k)
        rows.append(row)
    return np.array(rows, dtype=float)


_TRACE_HEADER = "iter,eta,criterion,wall_time"
_LEGACY_TRACE_HEADER = "iter,eta,criterion"


def write_trace_csv(trace: ConvergenceTrace, path: Union[str, Path]) -> None:
    """Columns iter,eta,criterion,wall_time; one line per recorded iteration.

    ``wall_time`` is seconds since the run started.
    """
    lines = [_TRACE_HEADER]
    for k, eta, crit, wall in trace.rows():
        lines.append(f"{k},{_fmt(eta)},{_fmt(crit)},{_fmt(wall)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path: Union[str, Path]) -> List[Tuple[int, float, float, Optional[float]]]:
    """Rows (iter, eta, criterion, wall_time) of a trace file.

    Files in the older three-column form, without wall times, are still
    read; their rows carry ``None`` as the wall time.
    """
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].strip() if lines else ""
    if header not in (_TRACE_HEADER, _LEGACY_TRACE_HEADER):
        raise ProblemFileError(f"trace file {path} lacks the {_TRACE_HEADER} header", line=1)
    width = header.count(",") + 1
    out = []
    for k, line in enumerate(lines[1:], start=2):
        parts = line.strip().split(",")
        if len(parts) != width:
            raise ProblemFileError(f"trace file {path} has a malformed row", line=k)
        wall = float(parts[3]) if width == 4 else None
        out.append((int(parts[0]), float(parts[1]), float(parts[2]), wall))
    return out


def write_pgm(matrix: np.ndarray, path: Union[str, Path]) -> None:
    """8-bit binary PGM; min maps to 0, max to 255, row 1 at the top.

    A constant matrix maps to mid-gray 128.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValidationError("heatmap input must be a non-empty matrix")
    lo = float(matrix.min())
    hi = float(matrix.max())
    if hi > lo:
        scaled = np.rint((matrix - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.full(matrix.shape, 128, dtype=np.uint8)
    n, m = matrix.shape
    header = f"P5\n{m} {n}\n255\n".encode("ascii")
    Path(path).write_bytes(header + scaled.tobytes())


def read_pgm(path: Union[str, Path]) -> np.ndarray:
    """Read back a binary PGM written by write_pgm (for tests and tools)."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        raise ProblemFileError(f"{path} is not a binary PGM produced by this package")
    m, n = (int(tok) for tok in parts[1].split())
    if parts[2] != b"255":
        raise ProblemFileError(f"{path} has unexpected maxval {parts[2]!r}")
    data = np.frombuffer(parts[3][: n * m], dtype=np.uint8)
    return data.reshape(n, m)


def write_report(report: dict, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
