"""JSON I/O for the value types used across the package.

Schemas:
    polynomial  {"coeffs": [[re, im], ...], "basis": "chebyshev-monomial-dual"}
    phases      {"thetas": [...], "phis": [...], "lambda": x}
                (the degree is len(thetas) - 1; an older file's "degree"
                key is read only to be checked against it)
    matrix      {"rows": R, "cols": C, "data": [[re, im], ...]} row-major,
                R and C positive integers by the rule of `_number`

A polynomial or a matrix is read from a decoded JSON object
(`PolyCoeffs.from_json_dict`, `matrix_from_json`), never from a path;
phases are written to and read from files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .phases import PhaseFactors

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "phases_from_file",
    "phases_to_file",
]


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": np.column_stack((m.real.ravel(), m.imag.ravel())).tolist(),
    }


def _number(value, name: str, kind=float):
    """A scalar JSON field converted by `kind`.  It must be a JSON number,
    not a string or a boolean, and for an int field an integral one (1e3
    reads as 1000); ValueError otherwise."""
    if kind is int:
        ok = isinstance(value, int) or (isinstance(value, float)
                                        and value.is_integer())
    else:
        ok = isinstance(value, (int, float))
    if isinstance(value, bool) or not ok:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, not {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"{name} must be within the float range") from exc


def matrix_from_json(d: dict) -> np.ndarray:
    rows = _number(d["rows"], "rows", int)
    cols = _number(d["cols"], "cols", int)
    for name, n in (("rows", rows), ("cols", cols)):
        if n < 1:
            raise ValueError(f"{name} must be at least 1, not {n}")
    data = np.asarray(d["data"])
    if data.dtype.kind not in "iuf" or data.shape != (rows * cols, 2):
        raise ValueError(f"matrix data must be rows*cols = {rows * cols} "
                         f"[re, im] number pairs, got {data.dtype} "
                         f"of shape {data.shape}")
    if not np.isfinite(data).all():
        raise ValueError("matrix data must be finite")
    return data.astype(float).view(complex).reshape(rows, cols)


def phases_from_file(path: str | Path) -> PhaseFactors:
    return PhaseFactors.from_json_dict(json.loads(Path(path).read_text()))


def phases_to_file(ph: PhaseFactors, path: str | Path):
    """Write json.dumps(ph.to_json_dict(), indent=2) + "\n", byte for byte.

    An indent makes the json module fall back to its pure-Python encoder,
    which took about 6 % of the benchmark's inversion workload, so each
    angle list (never empty) is written by the C encoder with the indented
    item separator."""
    fields = []
    for key, v in ph.to_json_dict().items():
        if isinstance(v, list):
            v = ("[\n    " + json.dumps(v, separators=(",\n    ", ": "))[1:-1]
                 + "\n  ]")
        else:
            v = json.dumps(v)
        fields.append(f"  {json.dumps(key)}: {v}")
    Path(path).write_text("{\n" + ",\n".join(fields) + "\n}\n")
