"""Closed-form scaling-factor bound and its empirical verification.

For a real-coefficient polynomial p of degree N with |Re p| <= M on the unit
circle, |p| on the circle is bounded by an explicit Hilbert-transform
estimate.  This module evaluates the estimate in its corollary closed form
(the mollifier-width case split baked in), and runs randomized sweeps
confirming that sampled polynomials never violate it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np

from . import polynomials
from .polynomials import ZERO_TOL

__all__ = [
    "BoundReport",
    "g1_constant",
    "corollary_bound",
    "verify_beta_bound",
]


def g1_constant() -> float:
    """log(sin(1/2)) / log(1/2), approximately 1.06."""
    return math.log(math.sin(0.5)) / math.log(0.5)


def corollary_bound(N: int, M: float) -> float:
    """Circle-norm bound for degree-N polynomials with |Re p| <= M:

        M (1 + (g1/pi)(4 L + h)),   L = log(2 N^2),
        h = sqrt(4 + 4 L + 2 L^2).

    The mollifier-width case split (delta = 1 vs N^-2) is already folded
    into this closed form.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not M > 0:
        raise ValueError("M must be positive")
    L = math.log(2.0 * N ** 2)
    h = math.sqrt(4.0 + 4.0 * L + 2.0 * L * L)
    return M * (1.0 + (g1_constant() / math.pi) * (4.0 * L + h))


@dataclasses.dataclass(frozen=True)
class BoundReport:
    rows: tuple  # (degree, max_interval, max_circle, beta, bound, ratio)
    violations: int

    @property
    def max_ratio(self) -> float:
        return max((r[5] for r in self.rows), default=0.0)


# Sweep sampling: the sampler is called once per sweep and returns every
# trial's row as one ragged batch, an integer array of row lengths and one
# 1-D array of the rows' coefficients end to end, normally float64.  The rows
# are grouped by circle grid, and each FFT block of one grid is a 2-D array
# read straight from the batch by index arithmetic, with no object per row,
# and padded only to the block's own longest row, so the per-row checks
# (finite coefficients, real coefficients, trimmed degree) and both maxima
# are row reductions of it, and the bound is a table lookup per distinct
# degree.  A complex row is accepted when each imaginary part is at most
# 1e-12 of the row's largest |a|, and then its real part is used; a
# non-finite row is refused.  A row of len coefficients gets
# G = max(64, 16 * 2^ceil(log2(len - 1))) circle points, at least 16 per
# period of its top harmonic (the density 4096 points give degree 256), and
# G >= len, so no row is cropped.  A vectorized parabolic refinement then
# reads the peak.  Stated
# accuracy, measured on random rows of degree 1 to 2400 against a 2^20-point
# scan: both maxima within 1e-2 relative (worst seen 8.6e-3 for max |Re P|,
# 1.5e-3 for max |P|).  The coefficients are real, so P(e^{-it}) = conj
# P(e^{it}) and the half circle t in [0, pi] (one rfft per row) holds both
# maxima; the parabola at t = 0 and t = pi reads the mirrored neighbour by
# index.  The corollary bound exceeds the true maximum by a large factor, so
# grid resolution is not the binding accuracy constraint here.
#
# The blocks are independent, and numpy's take, rfft, abs and argmax release
# the GIL, so they run on a thread pool made for the sweep.  W is the number
# of CPUs the process may run on, at most 8 (`polynomials._workers`, the rule
# the circuit kernel also uses).  The rows of grid G go through
# k = min(W, 64 * 4096 / G) threads (at least 1) in blocks of at most
# 64 * 4096 / k points, or one row, so the k blocks in flight hold at most
# 64 * 4096 points, or one row, as one block does on one CPU.  Each block
# writes only its own rows of the output, and the blocks are read back in
# order (grid groups ascending, then rows in batch order), so a failing row
# raises what the serial loop raises and every value is the same for every
# W.  With W = 1 no pool is made.
_SWEEP_DENSITY = 16
_SWEEP_BLOCK_POINTS = 64 * 4096


def _sweep_grid(lengths: np.ndarray) -> np.ndarray:
    """Circle points G of each row with the given coefficient counts."""
    # ceil(log2(len - 1)) is the bit length of len - 2, which is the
    # exponent frexp returns for it (0 for 0).
    _, bits = np.frexp(np.maximum(lengths - 2, 0))
    return np.maximum(64, _SWEEP_DENSITY << bits.astype(np.intp))


def _parabolic_peak(y: np.ndarray) -> np.ndarray:
    """Refine the per-row maximum of y with a 3-point parabola fit.

    Column 0 and the last column are the ends of a half circle, so the
    neighbour outside either end is its mirror image: index |i - 1| and
    half - |half - i - 1|.
    """
    half = y.shape[1] - 1
    i = np.argmax(y, axis=1)
    rows = np.arange(y.shape[0])
    ym = y[rows, np.abs(i - 1)]
    y0 = y[rows, i]
    yp = y[rows, half - np.abs(half - i - 1)]
    denom = ym - 2 * y0 + yp
    with np.errstate(divide="ignore", invalid="ignore"):
        peak = y0 - 0.125 * (yp - ym) ** 2 / np.where(denom == 0, 1.0, denom)
    return np.where(denom < 0, np.maximum(peak, y0), y0)


def _sweep_runs(grid: np.ndarray, workers: int) -> list:
    """The FFT blocks of a sweep in order, as runs (k, [(G, rows), ...]) of
    blocks that go through k threads at once: each grid's rows in batch
    order, k = min(workers, _SWEEP_BLOCK_POINTS / G) or 1, and at most
    _SWEEP_BLOCK_POINTS / k points or one row a block."""
    runs = []
    for g in np.unique(grid).tolist():
        k = min(workers, max(_SWEEP_BLOCK_POINTS // g, 1))
        group = np.flatnonzero(grid == g)
        step = max(_SWEEP_BLOCK_POINTS // k // g, 1)
        blocks = [(g, group[s:s + step]) for s in range(0, len(group), step)]
        if runs and runs[-1][0] == k:
            runs[-1][1].extend(blocks)
        else:
            runs.append((k, blocks))
    return runs


def _sweep_block(coeffs: np.ndarray, lengths: np.ndarray,
                 offsets: np.ndarray, out: tuple, part: tuple) -> None:
    """Check the rows r of one block part = (G, r) and write their trimmed
    degree, max |Re P| and max |P| to rows r of out = (N, M, max_abs)."""
    g, r = part
    N, M, max_abs = out
    width = int(lengths[r].max())
    cols = np.arange(width)
    # Row i reads the batch from its offset on; what it reads past its own
    # length (the next rows, or the last entry repeated by the clip) is
    # padding and set to zero.
    block = coeffs.take(offsets[r, None] + cols, mode="clip")
    block = block.astype(np.result_type(block, float), copy=False)
    block[cols >= lengths[r, None]] = 0
    mag = np.abs(block)
    scale = mag.max(axis=1)
    # The largest |a| of a float row is finite exactly when the row is; NaN
    # compares below every tolerance and would read as zero.
    if not np.isfinite(scale).all():
        raise ValueError("coefficients must be finite")
    if block.dtype.kind == "c":
        if np.any(np.abs(block.imag).max(axis=1)
                  > 1e-12 * np.maximum(scale, 1e-300)):
            raise ValueError("sampler must yield real coefficients")
        block = block.real
    # PolyCoeffs.trimmed().degree: the index of the last entry of a row above
    # ZERO_TOL * scale, or 0 when none is (scale == 0).
    last = width - 1 - np.argmax(mag[:, ::-1] > ZERO_TOL * scale[:, None],
                                 axis=1)
    N[r] = np.maximum(np.where(scale > 0, last, 0), 1)
    vals = np.fft.rfft(block, g, axis=1)
    max_abs[r] = _parabolic_peak(np.abs(vals))
    M[r] = _parabolic_peak(np.abs(vals.real))


def verify_beta_bound(
        sampler: Callable[[np.random.Generator, int],
                          tuple[np.ndarray, np.ndarray]],
        trials: int, seed: int = 0) -> BoundReport:
    """Check max|P| <= the real-form corollary bound with M = max|Re P| over
    random samples.

    The sampler is called once, as sampler(rng, trials), and returns the
    rows of all the trials as a ragged batch (lengths, coeffs): an integer
    array of `trials` row lengths, each at least 1, and one 1-D array of
    sum(lengths) entries holding the coefficients a_0..a_d of each real
    polynomial end to end, normally float64.  A batch of another shape
    raises ValueError, and so does an empty row ("non-empty").  A row with
    a non-finite coefficient raises ValueError ("finite"); a complex row is
    read as its real part when every imaginary part is at most 1e-12 of the
    row's largest |a|, and raises ValueError otherwise.  Complex polynomials
    are covered by splitting into real and imaginary parts before sampling.
    Rows with M <= 0 are skipped.

    The rows go through the FFT in blocks, which run on one thread per CPU
    the process may use (at most 8), with no pool on one CPU.  The report,
    and the error a failing row raises, are the same on any CPU count.
    """
    rng = np.random.default_rng(seed)
    lengths, coeffs = map(np.asarray, sampler(rng, trials))
    if lengths.shape != (trials,) or lengths.dtype.kind not in "iu":
        raise ValueError(f"the sampler must return {trials} integer row "
                         f"lengths, not an array of shape {lengths.shape} "
                         f"and dtype {lengths.dtype}")
    if np.any(lengths < 1):
        raise ValueError("coefficient vector must be 1-D and non-empty")
    lengths = lengths.astype(np.intp, copy=False)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if trials else 0
    if coeffs.shape != (total,):
        raise ValueError(f"the row lengths sum to {total}, but the "
                         f"coefficients have shape {coeffs.shape}")
    offsets = ends - lengths
    grid = _sweep_grid(lengths)
    N = np.empty(trials, dtype=np.intp)
    M = np.empty(trials)
    max_abs = np.empty(trials)
    sweep = functools.partial(_sweep_block, coeffs, lengths, offsets,
                              (N, M, max_abs))
    for k, blocks in _sweep_runs(grid, polynomials._workers()):
        polynomials._run_parts(sweep, blocks, k)

    keep = ~(M <= 0)  # a NaN M is kept, so the check below rejects it
    N, M, max_abs = N[keep], M[keep], max_abs[keep]
    if np.any(np.isnan(M)):
        raise ValueError("M must be positive")
    # corollary_bound is M times a factor of N alone, and at M = 1.0 it is
    # that factor, so M * factor[N] equals the per-row bound bit for bit.
    degrees, inverse = np.unique(N, return_inverse=True)
    factor = np.array([corollary_bound(int(n), 1.0) for n in degrees])
    bound = M * factor[inverse]
    # For real coefficients p(cos t) = Re P(e^{it}), so the interval
    # maximum coincides with M and needs no separate scan.
    with np.errstate(invalid="ignore"):  # inf / inf is nan, as for floats
        beta = np.where(M > 1e-14, max_abs / M, np.nan)
        ratio = max_abs / bound
    violations = int(np.count_nonzero(max_abs > bound * (1.0 + 1e-9)))
    rows = zip(*(a.tolist() for a in (N, M, max_abs, beta, bound, ratio)))
    return BoundReport(tuple(rows), violations)
