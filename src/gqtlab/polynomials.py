"""Dual-basis polynomial algebra.

A single complex coefficient vector ``a_0 .. a_d`` is read two ways
throughout this package: as Chebyshev coefficients of ``p(x) = sum a_n T_n(x)``
on [-1, 1], and as monomial coefficients of ``P(z) = sum a_n z^n`` on the
unit circle.  The ratio of the two sup-norms (the scaling factor ``beta``)
decides how much a transformation polynomial must be scaled down before a
phase-factor sequence exists.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = [
    "PolyCoeffs",
    "ApproxSpec",
    "InverseApproxResult",
    "DomainError",
    "ParityError",
    "NumericalError",
    "ApproximationError",
    "eval_cheb",
    "max_abs_interval",
    "max_abs_circle",
    "definite_parity",
    "sqrt_substitute_even",
    "sqrt_substitute_odd",
    "approx_inverse",
]

# Relative tolerance below which a coefficient counts as zero for the parity
# rule (`definite_parity`) and tail trimming.
ZERO_TOL = 1e-12


class DomainError(ValueError):
    """Evaluation point outside the allowed domain."""


class ParityError(ValueError):
    """Coefficients do not have the parity the operation requires."""


class NumericalError(RuntimeError):
    """The input was valid, and a check on a value the lab computed failed."""
    stage = "numerical check"  # the CLI prints "<stage> failed: <message>"


class ApproximationError(NumericalError):
    """Target accuracy unreachable within the degree cap."""


# The one worker rule of the stages that split their work over threads (the
# bound sweep's FFT blocks and the circuit kernel's column chunks): the CPUs
# this process may run on, at most 8.  There is no setting for it; tests
# monkeypatch `_workers`, which the stages read at each call.
_MAX_WORKERS = 8


def _workers() -> int:
    """Threads a split stage may run on: the CPUs this process may run on,
    at most _MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _run_parts(fn: Callable, parts: list, threads: int) -> list:
    """[fn(part) for part in parts], on `threads` threads.  With one thread
    or one part the parts run in order on the calling thread and no pool is
    made.  Otherwise a pool lives for this call only, so no idle thread
    outlives it, and `concurrent.futures` is imported only then (it costs a
    few milliseconds of every CLI start).  The results are read in part
    order: the first failing part raises, and the parts not yet started
    are cancelled."""
    if threads == 1 or len(parts) == 1:
        return [fn(part) for part in parts]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, parts))


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


def _numbers(value, name: str, pairs: bool = False) -> np.ndarray:
    """A JSON array of numbers as a 1-D float array, or with `pairs` an
    array of [re, im] number pairs as an (n, 2) one.  Each entry follows
    the rule of `_number`: a JSON number, not a boolean (np.asarray reads
    true and false beside numbers as 1 and 0), a string or null;
    ValueError otherwise.  A row that is not a list fails the length or
    the type scan.  The scans and `fromiter` together cost less than
    np.asarray of the nested lists (2.2 ms against 2.5 ms for the pairs of
    a 128 x 128 matrix)."""
    noun = "[re, im] number pairs" if pairs else "numbers"
    try:
        ok = type(value) is list and (not pairs
                                      or set(map(len, value)) <= {2})
    except TypeError:  # a row with no length
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a list of {noun}")
    items = list(itertools.chain.from_iterable(value)) if pairs else value
    if set(map(type, items)) - {int, float}:
        bad = next(x for x in items if type(x) not in (int, float))
        raise ValueError(f"{name} must hold numbers only, not {bad!r}")
    try:
        data = np.fromiter(items, float, len(items))
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"{name} must be within the float range") from exc
    return data.reshape(-1, 2) if pairs else data


@dataclasses.dataclass(frozen=True)
class PolyCoeffs:
    """Complex coefficients a_0..a_d, shared by p(x) and P(z).

    The one form of a polynomial argument, and the one place it is
    validated.  The coefficients must be finite (ValueError otherwise): a
    NaN would compare below every tolerance and read as a zero coefficient.

    `defect` is the completion defect max | |P|^2 + |Q|^2 - 1 | that
    `phases.complementary_polynomial` measured for this Q against its P
    (None otherwise, `scaled` and `trimmed` too); it is neither serialised
    nor compared."""

    coeffs: np.ndarray
    defect: float | None = dataclasses.field(default=None, compare=False,
                                             repr=False)

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex, ndmin=1)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coefficient vector must be 1-D and non-empty")
        # count_nonzero costs half of .all() here, once per construction.
        if np.count_nonzero(np.isfinite(arr)) < arr.size:
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def trimmed(self, tol: float = ZERO_TOL) -> "PolyCoeffs":
        """Drop an exact/near-zero tail (relative to the largest coefficient)."""
        a = self.coeffs
        keep = np.nonzero(np.abs(a) > tol * np.max(np.abs(a)))[0]
        if keep.size == 0:  # the zero polynomial, too
            return PolyCoeffs(np.zeros(1, dtype=complex))
        return PolyCoeffs(a[: keep[-1] + 1])

    def scaled(self, s: complex) -> "PolyCoeffs":
        return PolyCoeffs(self.coeffs * s)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        # Python hashes -0.0 and 0.0 alike, as == requires.
        return hash(tuple(self.coeffs.tolist()))

    def to_json_dict(self) -> dict:
        return {
            "coeffs": np.column_stack((self.coeffs.real,
                                       self.coeffs.imag)).tolist(),
            "basis": "chebyshev-monomial-dual",
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PolyCoeffs":
        if d.get("basis", "chebyshev-monomial-dual") != "chebyshev-monomial-dual":
            raise ValueError(f"unknown basis {d.get('basis')!r}")
        return cls(_numbers(d["coeffs"], "coeffs", pairs=True)
                   .view(complex)[:, 0])


@dataclasses.dataclass(frozen=True)
class ApproxSpec:
    """Parameters of the matrix-inversion target 1/(4*kappa*x)."""

    kappa: float
    eps: float

    def __post_init__(self):
        if not 1 < self.kappa < math.inf:
            raise ValueError("kappa must exceed 1 and be finite")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")


@dataclasses.dataclass(frozen=True)
class InverseApproxResult:
    """The design and its sup error on [1/kappa, 1], refined off the Remez
    grid."""

    poly: PolyCoeffs
    max_error: float

    @property
    def degree(self) -> int:
        return self.poly.degree


def eval_cheb(c: PolyCoeffs, x):
    """p(x) = sum a_n T_n(x) by the Clenshaw recurrence."""
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1 + 1e-12):
        raise DomainError("Chebyshev evaluation requires |x| <= 1")
    return _cheb.chebval(xa, c.coeffs)


# Both sup norms are max |Q(e^{i theta})| for one polynomial Q of degree D:
# Q = P on the circle (D = d), and on the interval the palindromic
# Q = (a_d, .., a_1, 2 a_0, a_1, .., a_d) / 2 (D = 2d), as
# Q(e^{i theta}) = e^{i d theta} p(cos theta).  One FFT samples Q at
# N >= 32 (D + 1) points.  g = |Q|^2 is a trigonometric polynomial of degree
# D, so by Bernstein's inequality its maximum exceeds the grid maximum by at
# most a relative (D pi / N)^2 / 2.  All grid peaks in that band are refined
# together by Newton steps on g' = 0, and the largest |Q| evaluated, a value
# Q attains, is returned.
_GRID_PER_DEGREE = 32
_NEWTON_EVALS = 3  # parabolic start, then two Newton steps
_CHUNK = 1024  # grid peaks refined together (a few MB at D ~ 10^4)


def _sup_abs(c: np.ndarray, mirrored: bool) -> float:
    """max |sum_k c_k e^{i k theta}|; over theta in [-pi, 0] if `mirrored`.

    c is scaled by 2^-k to real and imaginary parts below 1, so |Q|^2 can
    neither overflow nor underflow; a norm in the float range keeps its
    bits (powers of two are exact), and one beyond it is inf."""
    k = math.frexp(float(np.max(np.abs(c.view(float)))))[1]
    c = np.ldexp(c.view(float), -k).view(complex)
    D = len(c) - 1
    n = 1 << (_GRID_PER_DEGREE * (D + 1) - 1).bit_length()
    g = np.abs(np.fft.fft(c, n)) ** 2  # at theta_j = -2 pi j / n
    gmax = float(g.max())
    lo, hi = np.roll(g, 1), np.roll(g, -1)
    # A peak must rise above FFT rounding (about 64 eps per FFT stage), so
    # |z^d| and constants have none.
    peak = ((g >= lo) & (g >= hi)
            & (g >= gmax * (1.0 - 0.5 * (D * math.pi / n) ** 2))
            & (g - np.minimum(lo, hi) > 1.5e-14 * math.log2(n) * gmax))
    js = np.flatnonzero(peak[: n // 2 + 1] if mirrored else peak)
    best = gmax
    for s in range(0, len(js), _CHUNK):
        best = max(best, _newton_peaks(c, js[s:s + _CHUNK], lo, g, hi, n))
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(best), k))


def _newton_peaks(c: np.ndarray, j: np.ndarray, lo: np.ndarray,
                  g: np.ndarray, hi: np.ndarray, n: int) -> float:
    """Largest |Q|^2 met by Newton steps from the grid peaks j.

    Baby-step giant-step: for k = B k1 + k0, e^{i k theta} is the product of
    e^{i B k1 theta} and e^{i k0 theta}.  Each is its grid part, from the
    exact residue (k j) mod n, times a power below sqrt(D) + 1 of the offset
    rotation, so no array has len(j) * len(c) entries.
    """
    h = 2.0 * math.pi / n
    B = math.isqrt(len(c) - 1) + 1
    m = -(-len(c) // B)
    k = np.arange(m * B)
    coef = np.zeros((3, m * B), dtype=complex)
    coef[:, :len(c)] = c
    coef = (coef * np.stack([k ** 0, k, k * k])).reshape(3 * m, B).T
    grid = [np.exp((-2j * math.pi / n) * ((e * j[:, None]) % n))
            for e in (k[:B], B * k[:m])]
    # Start at the vertex of the parabola through three grid values (theta
    # falls as the index rises); stay within one grid step of theta_j.
    delta = -0.5 * h * (lo[j] - hi[j]) / (lo[j] - 2.0 * g[j] + hi[j])
    best = 0.0
    for _ in range(_NEWTON_EVALS):
        baby = grid[0] * _powers(np.exp(1j * delta), B)
        giant = grid[1] * _powers(np.exp(1j * B * delta), m)
        t = (baby @ coef).reshape(len(j), 3, m)
        s0, s1, s2 = np.matmul(t, giant[:, :, None])[:, :, 0].T
        best = max(best, float(np.max(np.abs(s0) ** 2)))
        # theta-derivatives of g = |Q|^2, with Q' = i s1 and Q'' = -s2.
        g1 = -2.0 * np.imag(np.conj(s0) * s1)
        g2 = 2.0 * (np.abs(s1) ** 2 - np.real(np.conj(s0) * s2))
        step = np.where(g2 < 0, -g1 / np.where(g2 < 0, g2, -1.0),
                        np.sign(g1) * h)
        delta = np.clip(delta + np.clip(step, -h, h), -h, h)
    return best


def _powers(u: np.ndarray, count: int) -> np.ndarray:
    """Rows u^0 .. u^(count - 1), by repeated multiplication."""
    ones = np.ones((len(u), 1), dtype=complex)
    return np.cumprod(np.hstack([ones, np.tile(u[:, None], count - 1)]), 1)


def max_abs_interval(c: PolyCoeffs) -> float:
    """max over [-1, 1] of |p(x)|, by the FFT peak search above."""
    a = c.coeffs
    half = a[:0:-1] / 2.0
    return _sup_abs(np.concatenate((half, a[:1], half[::-1])), True)


def max_abs_circle(c: PolyCoeffs) -> float:
    """max over theta of |P(e^{i theta})|, by the FFT peak search above."""
    return _sup_abs(c.coeffs, False)


def definite_parity(c: PolyCoeffs) -> str:
    """The one parity rule: "even" or "odd", read from the coefficients
    that count, those above ZERO_TOL * max |a|; ParityError when both
    parities count.  The zero polynomial, where none counts, is even."""
    a = np.abs(c.coeffs)
    counts = a > ZERO_TOL * a.max()
    if not counts[1::2].any():
        return "even"
    if counts[0::2].any():
        raise ParityError(f"coefficients have mixed parity: even and odd "
                          f"ones exceed {ZERO_TOL:g} * max |a|")
    return "odd"


def _substitute(w: np.ndarray, u: np.ndarray, first) -> np.ndarray:
    """sum_n w_n c_n(x) for c_0 = 1, c_1 = first, c_n = 2u c_{n-1} - c_{n-2}.

    u, first and the result are in the Chebyshev basis; c_n has degree
    n deg u, and the sum has the dtype of w and u.
    """
    q = np.zeros((len(u) - 1) * max(len(w) - 1, 0) + 1,
                 dtype=np.result_type(w, u))
    prev, cur = np.array([1.0]), np.asarray(first)
    for wn in w:
        q[:len(prev)] += wn * prev
        prev, cur = cur, _cheb.chebsub(2.0 * _cheb.chebmul(u, cur), prev)
    return q


def sqrt_substitute_even(c_even: PolyCoeffs) -> PolyCoeffs:
    """q with q(y^2) = p_even(y); via T_{2n}(y) = T_n(2y^2 - 1)."""
    return _sqrt_substitute(c_even, "even")


def sqrt_substitute_odd(c_odd: PolyCoeffs) -> PolyCoeffs:
    """q with y*q(y^2) = p_odd(y).

    T_{2n+1}(y) = y * c_n(2y^2 - 1) where c_0 = 1, c_1 = 2u - 1 and
    c_n = 2u c_{n-1} - c_{n-2} (from T_{a+2} = 2 T_2 T_a - T_{a-2}).
    """
    return _sqrt_substitute(c_odd, "odd")


def _sqrt_substitute(c: PolyCoeffs, parity: str) -> PolyCoeffs:
    """Either substitution, or NumericalError naming the degree when q is
    not finite: q grows like (1 + sqrt 2)^d, and its overflow warns nothing.
    The zero polynomial is even, and either substitute takes it (q = 0)."""
    if c.coeffs.any() and definite_parity(c) != parity:
        raise ParityError(f"square-root substitution needs {parity} "
                          f"coefficients to {ZERO_TOL:g}")
    u = np.array([-1.0, 2.0])  # 2y^2 - 1 = -T_0 + 2 T_1 in x = y^2
    with np.errstate(over="ignore", invalid="ignore"):
        q = (_substitute(c.coeffs[0::2], u, u) if parity == "even"
             else _substitute(c.coeffs[1::2], u, [-3.0, 4.0]))
    if not np.isfinite(q).all():
        raise NumericalError(f"square-root substitution of degree "
                             f"{c.degree} overflows the float range")
    return PolyCoeffs(q)


# ---------------------------------------------------------------------------
# Minimax approximation of 1/(4 kappa x) on [1/kappa, 1] by odd polynomials.
# ---------------------------------------------------------------------------

def _cheb_grid(coef: np.ndarray, n: int) -> np.ndarray:
    """sum_k coef_k T_k(u) at u = cos(pi j / n), j = n .. 0 (u ascending).

    On Chebyshev points of the second kind this is sum_k coef_k
    cos(pi k j / n), one DCT-I, taken here as the real part of an rfft.
    """
    return np.fft.rfft(coef, 2 * n).real[n::-1]


def _smooth(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1)."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The least p35 * 2^k >= n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# Remez exchange: grid points per unit of degree (at least _REMEZ_GRID_MIN)
# and the iteration cap.  The grid has n + 1 points, n the smallest
# 2^a 3^b 5^c at or above that density: `_cheb_grid`'s rfft has length 2n,
# and numpy's FFT runs about ten times slower at a length with a prime
# factor in the hundreds.
_REMEZ_GRID_PER_DEGREE = 20
_REMEZ_GRID_MIN = 2000
_REMEZ_MAX_ITER = 60


def _grid_intervals(degree: int) -> int:
    """n of the Remez exchange grid cos(pi j / n), j = 0 .. n."""
    return _smooth(max(_REMEZ_GRID_PER_DEGREE * degree, _REMEZ_GRID_MIN) - 1)


def _remez_odd(f: Callable[[np.ndarray], np.ndarray], a: float,
               degree: int) -> tuple[np.ndarray, float]:
    """Minimax odd approximation of f on [a, 1] by weighted Remez exchange.

    An odd polynomial of degree d is x * s(x^2) with deg s = (d-1)/2, so the
    problem is solved as a weighted (weight sqrt(y)) approximation of
    f(sqrt(y))/sqrt(y) by s over y in [a^2, 1], in the Chebyshev basis of
    that interval; this stays well-conditioned at degrees where the global
    odd-Chebyshev design matrix degenerates.  The exchange grid is the
    Chebyshev points of the second kind on [a^2, 1], where s is one FFT
    (`_cheb_grid`).  Returns the coefficients of s in that basis
    (`_odd_cheb` converts them) and the achieved sup error on the grid, a
    lower bound of the sup on [a, 1] (`_refined_error`).
    """
    m = (degree + 1) // 2  # free coefficients c_0..c_{m-1} of s
    npts = m + 1
    ylo, yhi = a * a, 1.0
    mid, half = 0.5 * (yhi + ylo), 0.5 * (yhi - ylo)

    def g(ys):
        x = np.sqrt(ys)
        return f(x) / x

    w = np.sqrt  # the error in x-space is sqrt(y) * (s(y) - g(y))

    k = np.arange(npts)
    ref = mid + half * np.cos(math.pi * k / (npts - 1))
    ref.sort()
    n = _grid_intervals(degree)
    # Ascending in y, the order in which `_cheb_grid` returns values.
    grid = mid + half * np.cos(np.linspace(0.0, math.pi, n + 1))[::-1]
    gg, wg = g(grid), w(grid)

    for _ in range(_REMEZ_MAX_ITER):
        A = np.empty((npts, m + 1))
        A[:, :m] = _cheb.chebvander(np.clip((ref - mid) / half, -1.0, 1.0),
                                    m - 1)
        A[:, m] = (-1.0) ** np.arange(npts) / w(ref)
        sol = np.linalg.solve(A, g(ref))
        coef, h = sol[:m], sol[m]

        err = wg * (_cheb_grid(coef, n) - gg)
        max_err = float(np.max(np.abs(err)))
        pts = _alternation(err, npts)
        if len(pts) < npts:
            break  # degenerate alternation; current solution is near-optimal
        if max_err - abs(h) <= 1e-6 * max(abs(h), 1e-300) + 1e-15:
            break
        ref = grid[pts]
    return coef, max_err


def _alternation(err: np.ndarray, count: int) -> np.ndarray:
    """The next Remez reference: grid indices of an alternating subsequence
    of the error's local extrema and endpoints, at most `count` long (fewer
    when the alternation degenerates).

    Each run of candidates of equal `np.sign` keeps the first index of its
    largest |err| (a NaN, equal to nothing, is a run of its own); then,
    while more than `count` remain, the end of smaller |err| is dropped,
    the last one on a tie."""
    sign_change = np.diff(np.sign(np.diff(err)))
    interior = np.nonzero(sign_change != 0)[0] + 1
    cand = np.unique(np.concatenate(([0], interior, [len(err) - 1])))
    sign, mag = np.sign(err[cand]), np.abs(err[cand])
    starts = np.r_[True, sign[1:] != sign[:-1]]
    run = np.cumsum(starts) - 1
    peak = np.maximum.reduceat(mag, np.flatnonzero(starts))
    at_peak = np.flatnonzero((mag == peak[run]) | np.isnan(mag))
    pts = at_peak[np.unique(run[at_peak], return_index=True)[1]]
    lo, hi = 0, len(pts)
    while hi - lo > count:
        if mag[pts[lo]] < mag[pts[hi - 1]]:
            lo += 1
        else:
            hi -= 1
    return cand[pts[lo:hi]]


# Grid peaks of the Remez error within this fraction of the grid maximum are
# refined.  Between grid points the error rises by up to about
# (pi m / 2n)^2 / 2 ~ 8e-4 relative (m ~ d / 2 oscillations, n ~ 20 d; 7.7e-4
# measured at kappa <= 300); the band leaves ten times that.
_REFINE_BAND = 1e-2


def _vertex_shift(lo, mid, hi, step):
    """Offset of the vertex of the parabola through (-step, lo), (0, mid),
    (step, hi), within one step; 0 where the three values are not concave."""
    curv = lo - 2.0 * mid + hi
    shift = 0.5 * step * (lo - hi) / np.where(curv < 0, curv, -np.inf)
    return np.clip(shift, -step, step)


def _refined_error(f: Callable[[np.ndarray], np.ndarray], a: float,
                   coef: np.ndarray, degree: int) -> float:
    """max over [a, 1] of |x s(x^2) - f(x)|, for s = coef from `_remez_odd`.

    In theta, with y = x^2 = mid + half cos(theta), the error is smooth and
    even about theta = 0 and pi, so each end is a peak like any other.  Each
    grid peak of |err| in the band moves to the vertex of the parabola
    through its three grid values (reflected at the ends), and then to the
    vertex of a parabola resampled there at an eighth of the grid step.
    Returns the largest |err| evaluated, grid values included; on the
    designs of kappa <= 300 a further resampling changes it by no more than
    evaluation rounding (about 1e-10 relative at d = 1565).
    """
    mid, half = 0.5 * (1.0 + a * a), 0.5 * (1.0 - a * a)

    def error(theta, s=None):
        if s is None:
            s = _cheb.chebval(np.cos(theta), coef)
        x = np.sqrt(mid + half * np.cos(theta))
        return np.abs(x * (s - f(x) / x))  # weighted as in `_remez_odd`

    n = _grid_intervals(degree)
    step = math.pi / n
    theta = np.linspace(0.0, math.pi, n + 1)
    e = error(theta, _cheb_grid(coef, n)[::-1])
    lo = np.concatenate((e[1:2], e[:-1]))
    hi = np.concatenate((e[1:], e[-2:-1]))
    j = np.flatnonzero((e >= lo) & (e >= hi)
                       & (e >= (1.0 - _REFINE_BAND) * e.max()))
    t = theta[j] + _vertex_shift(lo[j], e[j], hi[j], step)
    step /= 8.0
    near = error(np.concatenate((t - step, t, t + step)))
    t = t + _vertex_shift(*near.reshape(3, -1), step)
    return float(max(e.max(), near.max(), error(t).max()))


def _odd_cheb(coef: np.ndarray, a: float, degree: int) -> np.ndarray:
    """Global Chebyshev coefficients on [-1, 1] of x * s(x^2), degree odd.

    s = sum_k coef_k T_k(u) with u = (y - mid) / half on [a^2, 1].  x s(x^2)
    is sampled at the degree + 1 Chebyshev points of the second kind, x_j =
    cos(pi j / N) = sin(pi (N - 2j) / 2N) for N = degree, and interpolated
    by one DCT-I, the rfft of the even extension.  The sine form makes
    x_{N-j} = -x_j exactly, so s is evaluated (`chebval`) on the positive
    half only; only the odd slots are written, so the result is exactly odd.
    """
    mid, half = 0.5 * (1.0 + a * a), 0.5 * (1.0 - a * a)
    N = degree
    x = np.sin(math.pi * np.arange(N, 0, -2) / (2 * N))  # j = 0 .. (N-1)/2
    v = x * _cheb.chebval((x * x - mid) / half, coef)
    v = np.concatenate((v, -v[::-1]))  # j = 0 .. N
    c = np.fft.rfft(np.concatenate((v, v[-2:0:-1]))).real / N
    full = np.zeros(degree + 1)
    full[1::2] = c[1::2]
    full[N] *= 0.5  # the DCT-I halves its last coefficient (N is odd)
    return full


_DEGREE_CAP = 4001  # the largest degree approx_inverse tries


def approx_inverse(spec: ApproxSpec) -> InverseApproxResult:
    """Odd real polynomial approximating 1/(4 kappa x) on [1/kappa, 1].

    The polynomial is written as x * s(x^2), and a weighted Remez exchange
    runs for s on y = x^2 in [1/kappa^2, 1], in the Chebyshev basis of that
    interval (`_remez_odd`); oddness makes the error on [-1, -1/kappa]
    identical.  The minimal odd degree d with error <= eps is found from
    the predicted error decay C rho^(-(d-1)/2), rho = (1 + a)/(1 - a) with
    a = 1/kappa (the Bernstein ellipse of 1/y on [a^2, 1] passes through
    the pole y = 0): a probe at d = kappa fixes C, each later probe is
    placed at the degree its predecessor predicts, and the answer is
    confirmed by a miss at d - 2.  A design meets eps when its sup error,
    refined off the exchange grid (`_refined_error`), does; that refined
    sup is `max_error`.  Degree 1 is never tried, and no degree
    above _DEGREE_CAP: then ApproximationError, as when a^2 is lost next
    to 1: y = a^2 would round to 0, where the Remez weight divides by 0.
    """
    kappa, eps = spec.kappa, spec.eps
    a = 1.0 / kappa
    if 1.0 - a * a == 1.0 + a * a:
        raise ApproximationError("1/kappa^2 is lost next to 1")
    f = lambda x: 1.0 / (4.0 * kappa * x)
    log_rho = math.log((1.0 + a) / (1.0 - a))
    top = _DEGREE_CAP if _DEGREE_CAP % 2 == 1 else _DEGREE_CAP - 1
    # lo: largest degree known to miss eps (1 by convention); hi: smallest
    # degree known to meet it.
    lo, hi, best, lo_err = 1, None, None, math.nan
    d = max(3, int(kappa)) | 1
    while hi is None or hi - lo > 2:
        d = max(lo + 2, min(d, top if hi is None else hi - 2))
        if d > top:
            detail = (f" (best error {lo_err:.3e} at degree {lo})"
                      if lo > 1 else "")
            raise ApproximationError(f"eps {eps:.3e} unreachable below "
                                     f"degree {_DEGREE_CAP}{detail}")
        coef, e = _remez_odd(f, a, d)
        if e <= eps:  # a grid maximum above eps is already a miss
            e = _refined_error(f, a, coef, d)
        if e <= eps:
            hi, best = d, (coef, e)
        else:
            lo, lo_err = d, e
        d += 2 * math.ceil(math.log(e / eps) / log_rho)
    return InverseApproxResult(PolyCoeffs(_odd_cheb(best[0], a, hi)), best[1])
