"""File formats: JSON problem files, full-precision CSV matrices and
traces, and binary PGM heatmaps.

JSON numbers are Python's shortest round-trip ``repr`` and CSV cells carry
17 significant digits, so every file reads back bit-identically.  CSV is
diff-able; PGM (P5) is the simplest lossless grayscale raster.  Problems
and matrices have readers here; traces and heatmaps are only written,
and a trace reads back with ``np.loadtxt(path, delimiter=",", skiprows=1)``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .errors import NonFiniteEntry, ValidationError
from .model import MAXIMIZE, MINIMIZE, MOMAProblem, OTProblem, Problem
from .regularized import ConvergenceTrace

FORM_ADDITIVE = "additive"
FORM_MULTIPLICATIVE = "multiplicative"


class ProblemFileError(ValidationError):
    """A problem file failed to parse or carries inconsistent fields.

    ``line`` (1-based) locates the fault in any file; ``column`` only in JSON.
    """

    def __init__(self, message: str, line: int = None, column: int = None):
        if line is not None:
            message += f" (line {line})" if column is None else f" (line {line}, column {column})"
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
        "weights": matrix.ravel().tolist(),
        "r": problem.row_marginals.tolist(),
        "c": problem.col_marginals.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _number_list(doc: dict, key: str, length: int, expected: str, path) -> np.ndarray:
    """Field ``key`` of a problem document as a float vector of ``length`` entries."""
    try:
        values = np.array(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"problem file {path}: {key} is not a list of numbers ({exc})") from exc
    if values.ndim != 1:
        raise ProblemFileError(f"problem file {path}: {key} is not a flat list of numbers")
    if values.shape[0] != length:
        raise ProblemFileError(f"{key} has {values.shape[0]} entries, expected {expected}")
    return values


def read_problem(path: Union[str, Path]) -> Problem:
    """Parse a problem file, checking lengths against the declared shape."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"invalid problem file {path}: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"problem file {path} is not a JSON object")
    for key in ("n", "m", "sense", "form", "weights", "r", "c"):
        if key not in doc:
            raise ProblemFileError(f"problem file {path} is missing field {key!r}")
    n, m = doc["n"], doc["m"]
    if not all(type(v) is int for v in (n, m)):
        raise ProblemFileError(f"problem file {path}: n and m must be integers, got {n!r} and {m!r}")
    if n < 1 or m < 1:
        raise ProblemFileError(f"problem file {path} declares invalid shape ({n}, {m})")
    matrix = _number_list(doc, "weights", n * m, f"n*m = {n * m}", path).reshape(n, m)
    r = _number_list(doc, "r", n, f"n = {n}", path)
    c = _number_list(doc, "c", m, f"m = {m}", path)
    sense = doc["sense"]
    if sense not in (MAXIMIZE, MINIMIZE):
        raise ProblemFileError(f"unknown sense {sense!r}")
    if doc["form"] == FORM_ADDITIVE:
        return OTProblem(matrix, r, c, sense)
    if doc["form"] == FORM_MULTIPLICATIVE:
        return MOMAProblem(matrix, r, c, sense)
    raise ProblemFileError(f"unknown form {doc['form']!r}")


def write_matrix_csv(matrix: np.ndarray, path: Union[str, Path]) -> None:
    """Row-major CSV, one matrix row per line, 17 significant digits."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValidationError(f"expected a non-empty matrix, got shape {matrix.shape}")
    with open(path, "w") as handle:  # a path would gzip a name ending in .gz
        np.savetxt(handle, matrix, fmt="%.17g", delimiter=",")


def read_matrix_csv(path: Union[str, Path]) -> np.ndarray:
    text = Path(path).read_text().strip()
    if not text:
        raise ProblemFileError(f"matrix file {path} is empty")
    rows = []
    width = None
    for k, line in enumerate(text.splitlines(), start=1):
        parts = line.strip().split(",")
        if "" in parts:
            raise ProblemFileError(f"matrix file {path} has an empty cell", line=k)
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


def write_trace_csv(trace: ConvergenceTrace, path: Union[str, Path]) -> None:
    """Columns iter,eta,criterion,wall_time; one line per recorded iteration.

    ``wall_time`` is seconds since the run started.
    """
    rows = np.column_stack((trace.iterations, trace.etas, trace.criteria, trace.wall_times))
    with open(path, "w") as handle:
        np.savetxt(handle, rows, fmt=("%d", "%.17g", "%.17g", "%.17g"), delimiter=",",
                   header="iter,eta,criterion,wall_time", comments="")


def write_pgm(matrix: np.ndarray, path: Union[str, Path]) -> None:
    """8-bit binary PGM; min maps to 0, max to 255, row 1 at the top.

    A constant matrix maps to mid-gray 128.  A NaN or infinite entry has
    no gray level and raises NonFiniteEntry naming its 1-based cell.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValidationError("heatmap input must be a non-empty matrix")
    if not np.all(np.isfinite(matrix)):
        i, j = np.unravel_index(int(np.argmax(~np.isfinite(matrix))), matrix.shape)
        raise NonFiniteEntry(f"heatmap entry [{i + 1}, {j + 1}] = {matrix[i, j]} is not finite")
    lo = float(matrix.min())
    hi = float(matrix.max())
    if hi > lo:
        scaled = np.rint((matrix - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.full(matrix.shape, 128, dtype=np.uint8)
    n, m = matrix.shape
    header = f"P5\n{m} {n}\n255\n".encode("ascii")
    Path(path).write_bytes(header + scaled.tobytes())


def write_report(report: dict, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
