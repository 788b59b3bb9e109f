"""JSON I/O for the value types used across the package.

Schemas:
    polynomial  {"coeffs": [[re, im], ...], "basis": "chebyshev-monomial-dual"}
    phases      {"thetas": [...], "phis": [...], "lambda": x, "degree": d}
    matrix      {"rows": R, "cols": C, "data": [[re, im], ...]} row-major
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .phases import PhaseFactors
from .polynomials import PolyCoeffs

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "save_json",
    "load_json",
    "poly_from_file",
    "phases_from_file",
    "phases_to_file",
    "matrix_from_file",
]


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": np.column_stack((m.real.ravel(), m.imag.ravel())).tolist(),
    }


def matrix_from_json(d: dict) -> np.ndarray:
    rows, cols = int(d["rows"]), int(d["cols"])
    data = np.asarray(d["data"])
    if data.dtype.kind not in "iuf" or data.shape != (rows * cols, 2):
        raise ValueError(f"matrix data must be rows*cols = {rows * cols} "
                         f"[re, im] number pairs, got {data.dtype} "
                         f"of shape {data.shape}")
    if not np.isfinite(data).all():
        raise ValueError("matrix data must be finite")
    return data.astype(float).view(complex).reshape(rows, cols)


def save_json(obj: dict, path: str | Path):
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def poly_from_file(path: str | Path) -> PolyCoeffs:
    return PolyCoeffs.from_json_dict(load_json(path))


def phases_from_file(path: str | Path) -> PhaseFactors:
    return PhaseFactors.from_json_dict(load_json(path))


def phases_to_file(ph: PhaseFactors, path: str | Path):
    save_json(ph.to_json_dict(), path)


def matrix_from_file(path: str | Path) -> np.ndarray:
    return matrix_from_json(load_json(path))
