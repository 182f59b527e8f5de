"""Line-oriented file formats: full-precision CSV, observed-entry triples,
operator specs, problem files, and solver traces.

Formats are deliberately plain text. Observed entries are ``row col value``
triples with 1-based indices; Gaussian operators serialize as seed plus
dimensions and a checksum of their first rows, and are regenerated and
checked on load. All numbers are written with 17 significant digits so
values round-trip exactly.
"""

from __future__ import annotations

import hashlib
import math

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
    "save_trace",
    "save_rip_estimates",
    "save_orthogonality_pairs",
    "save_dense_matrix",
]

# operator rows a problem file's checksum covers
CHECK_ROWS = 4


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(x)
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
    """Write one ``row col value`` triple per line (1-based indices)."""
    values = np.asarray(values, dtype=float).ravel()
    if values.shape[0] != sampler.p:
        raise ValueError(f"expected {sampler.p} values, got {values.shape[0]}")
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
        rows.append(_number(int, parts[0], where) - 1)
        cols.append(_number(int, parts[1], where) - 1)
        values.append(_number(float, parts[2], where))
    return np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(values)


def save_problem(path, operator, b) -> None:
    """Write a Gaussian-operator problem as key=value lines plus measurements.

    The operator is stored as seed and dimensions only, so it must have been
    built from an integer seed.
    """
    if not isinstance(operator, GaussianOperator):
        raise ValueError("problem files store Gaussian operators; use observed-entry "
                         "triples for samplers")
    if operator.seed is None:
        raise ValueError("operator has no stored seed and cannot be serialized")
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != operator.p:
        raise ValueError(f"expected {operator.p} measurements, got {b.shape[0]}")
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
    """Read a problem file and check its operator; returns (operator, b)."""
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
    if len(b) != op.p:
        raise ValueError(f"expected {op.p} measurements, found {len(b)}")
    return op, np.array(b)


def save_trace(path, result) -> None:
    """Export a solver trace as CSV; the error column appears only if known."""
    with_error = any(row.error_fro is not None for row in result.trace)
    header = ["iter", "residual_l2", "rel_residual"] + (["error_fro"] if with_error else [])
    rows = []
    for row in result.trace:
        out = [row.iteration, row.residual_l2, row.rel_residual]
        if with_error:
            out.append(row.error_fro if row.error_fro is not None else math.nan)
        rows.append(out)
    write_csv(path, header, rows)


def save_rip_estimates(path, estimates) -> None:
    """Export isometry-constant estimates as ``r,delta_hat,samples,seed``."""
    rows = [[e.r, e.delta_hat, e.samples_used, e.seed] for e in estimates]
    write_csv(path, ["r", "delta_hat", "samples", "seed"], rows)


def save_orthogonality_pairs(path, report) -> None:
    """Export per-pair orthogonality checks as ``pair_id,lhs,rhs_sqrt2,rhs_1``."""
    rows = [[c.pair_id, c.lhs, c.rhs_sqrt2, c.rhs_1] for c in report.pairs]
    write_csv(path, ["pair_id", "lhs", "rhs_sqrt2", "rhs_1"], rows)


def save_dense_matrix(path, X) -> None:
    np.savetxt(path, np.asarray(X, dtype=float), fmt="%.17g", delimiter=",")
