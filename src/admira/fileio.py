"""Line-oriented file formats: full-precision numbers and CSV, ``key=value``
lines, observed-entry triples, problem files, and dense matrices. Which
columns a CSV holds is the CLI's to decide; this module only writes them.

Formats are deliberately plain text. Observed entries are ``row col value``
triples with 1-based indices; Gaussian operators serialize as seed plus
dimensions and a checksum of their first rows, and are regenerated and
checked on load. All numbers are written with 17 significant digits so
values round-trip exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .operators import EntrySampler, GaussianOperator

__all__ = [
    "format_number",
    "write_csv",
    "read_key_values",
    "save_observed_entries",
    "load_observed_entries",
    "save_problem",
    "load_problem",
    "save_dense_matrix",
]

# operator rows a problem file's checksum covers
CHECK_ROWS = 4


def format_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path, header, rows) -> None:
    """Write rows of numbers/strings as CSV at full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_number(x) for x in row) + "\n")


def _data_lines(path):
    """Yield ``(lineno, line)`` for each stripped line of ``path`` that is
    neither blank nor a ``#`` comment."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def read_key_values(path):
    """Yield ``(key, value)`` for each data line of a ``key=value`` file."""
    for lineno, line in _data_lines(path):
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        yield key.strip(), value.strip()


def _operator_check(operator: GaussianOperator) -> str:
    """Short SHA-256 of the operator's first rows as little-endian float64,
    so a file whose seed no longer rebuilds the same operator is caught."""
    rows = operator.matrix[:CHECK_ROWS].astype("<f8").tobytes()
    return hashlib.sha256(rows).hexdigest()[:16]


def save_observed_entries(path, sampler: EntrySampler, values) -> None:
    """Write one ``row col value`` triple per line (1-based indices); the
    values go through ``sampler.check_measurements`` first, so a wrong
    count or a non-finite value writes no file."""
    values = sampler.check_measurements(values)
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(sampler.rows, sampler.cols, values):
            fh.write(f"{r + 1} {c + 1} {format_number(float(v))}\n")


def _number(kind, text, where):
    """``kind(text)``; a ValueError names ``where``, a file's line or key."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_observed_entries(path):
    """Read ``row col value`` triples; returns 0-based (rows, cols, values)."""
    rows, cols, values = [], [], []
    for lineno, line in _data_lines(path):
        parts = line.split()
        where = f"{path}:{lineno}"
        if len(parts) != 3:
            raise ValueError(f"{where}: expected 'row col value'")
        row, col = (_number(int, text, where) - 1 for text in parts[:2])
        if max(abs(row), abs(col)) >= np.iinfo(np.intp).max:
            raise ValueError(f"{where}: an index is past the integer range")
        rows.append(row)
        cols.append(col)
        values.append(_number(float, parts[2], where))
    return np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(values)


def save_problem(path, operator, b) -> None:
    """Write a Gaussian-operator problem as key=value lines plus measurements.

    The operator is stored as seed and dimensions only, so it must have been
    built from an integer seed. ``b`` goes through the operator's
    ``check_measurements``, so a wrong count or a non-finite value writes no
    file.
    """
    if not isinstance(operator, GaussianOperator):
        raise ValueError("problem files store Gaussian operators; use observed-entry "
                         "triples for samplers")
    if operator.seed is None:
        raise ValueError("operator has no stored seed and cannot be serialized")
    b = operator.check_measurements(b)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind=gaussian\n")
        fh.write(f"m={operator.m}\n")
        fh.write(f"n={operator.n}\n")
        fh.write(f"p={operator.p}\n")
        fh.write(f"seed={int(operator.seed)}\n")
        fh.write(f"check={_operator_check(operator)}\n")
        for v in b:
            fh.write(f"b={format_number(float(v))}\n")


def load_problem(path):
    """Read a problem file and check its operator; returns (operator, b).
    The measurements are checked as the solvers check them, by the rebuilt
    operator's ``check_measurements``."""
    meta, b = {}, []
    for key, value in read_key_values(path):
        if key == "b":
            b.append(_number(float, value, f"{path}: b"))
        else:
            meta[key] = value
    if meta.get("kind") != "gaussian":
        raise ValueError(f"unsupported problem kind {meta.get('kind')!r}")
    for key in ("m", "n", "p", "seed", "check"):
        if key not in meta:
            raise ValueError(f"problem file is missing {key}")
    op = GaussianOperator(*(_number(int, meta[key], f"{path}: {key}")
                            for key in ("m", "n", "p", "seed")))
    if meta["check"] != _operator_check(op):
        raise ValueError(f"{path}: check={meta['check']} does not match the operator "
                         "rebuilt from m, n, p and seed")
    return op, op.check_measurements(b)


def save_dense_matrix(path, X) -> None:
    np.savetxt(path, np.asarray(X, dtype=float), fmt="%.17g", delimiter=",")
