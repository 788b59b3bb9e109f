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
import math
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

__all__ = [
    "PolyCoeffs",
    "ParityClass",
    "ApproxSpec",
    "InverseApproxResult",
    "DomainError",
    "DegeneratePolynomialError",
    "ParityError",
    "ApproximationError",
    "eval_cheb",
    "eval_circle",
    "max_abs_interval",
    "max_abs_circle",
    "scaling_factor",
    "classify_parity",
    "check_parity",
    "parity_split",
    "sqrt_substitute_even",
    "sqrt_substitute_odd",
    "approx_inverse",
]

# Relative tolerance below which a coefficient counts as zero for parity
# classification, parity checks and tail trimming.
ZERO_TOL = 1e-12


class DomainError(ValueError):
    """Evaluation point outside the allowed domain."""


class DegeneratePolynomialError(ValueError):
    """Polynomial too close to zero for the requested operation."""


class ParityError(ValueError):
    """Coefficients do not have the parity the operation requires."""


class ApproximationError(RuntimeError):
    """Target accuracy unreachable within the degree cap."""


@dataclasses.dataclass(frozen=True)
class PolyCoeffs:
    """Complex coefficients a_0..a_d, shared by p(x) and P(z).

    The coefficients must be finite (ValueError otherwise): a NaN would
    compare below every tolerance and read as a zero coefficient."""

    coeffs: np.ndarray

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
        scale = np.max(np.abs(a))
        if scale == 0.0:
            return PolyCoeffs(np.zeros(1, dtype=complex))
        keep = np.nonzero(np.abs(a) > tol * scale)[0]
        if keep.size == 0:
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
        pairs = np.asarray(d["coeffs"])
        if (pairs.dtype.kind not in "iuf" or pairs.ndim != 2
                or pairs.shape[1] != 2):
            raise ValueError("coeffs must be a list of [re, im] number pairs")
        return cls(pairs.astype(float).view(complex)[:, 0])


@dataclasses.dataclass(frozen=True)
class ParityClass:
    """Which coefficient indices carry weight.

    ``tag`` is even/odd/mixed; ``mod4`` refines odd polynomials whose nonzero
    indices all sit in one residue class mod 4 (those enjoy beta <= 2).
    """

    tag: str  # "even" | "odd" | "mixed"
    mod4: str | None = None  # "mod4_1" | "mod4_3" | None

    def __post_init__(self):
        if self.tag not in ("even", "odd", "mixed"):
            raise ValueError(f"bad parity tag {self.tag!r}")
        if self.mod4 not in (None, "mod4_1", "mod4_3"):
            raise ValueError(f"bad mod4 tag {self.mod4!r}")


@dataclasses.dataclass(frozen=True)
class ApproxSpec:
    """Parameters of the matrix-inversion target 1/(4*kappa*x)."""

    kappa: float
    eps: float

    def __post_init__(self):
        if not self.kappa > 1:
            raise ValueError("kappa must exceed 1")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")


@dataclasses.dataclass(frozen=True)
class InverseApproxResult:
    poly: PolyCoeffs
    degree: int
    max_error: float
    kappa: float
    eps: float


def _as_poly(c) -> PolyCoeffs:
    return c if isinstance(c, PolyCoeffs) else PolyCoeffs(np.asarray(c))


def eval_cheb(c: PolyCoeffs | Sequence[complex], x):
    """p(x) = sum a_n T_n(x) by the Clenshaw recurrence."""
    c = _as_poly(c)
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1 + 1e-12):
        raise DomainError("Chebyshev evaluation requires |x| <= 1")
    return _cheb.chebval(xa, c.coeffs)


def eval_circle(c: PolyCoeffs | Sequence[complex], theta):
    """P(e^{i theta}) = sum a_n e^{i n theta}."""
    c = _as_poly(c)
    z = np.exp(1j * np.asarray(theta, dtype=float))
    return _poly.polyval(z, c.coeffs)


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
    """max |sum_k c_k e^{i k theta}|; over theta in [-pi, 0] if `mirrored`."""
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
    return math.sqrt(best)


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


def max_abs_interval(c: PolyCoeffs | Sequence[complex]) -> float:
    """max over [-1, 1] of |p(x)|, by the FFT peak search above."""
    a = _as_poly(c).coeffs
    half = a[:0:-1] / 2.0
    return _sup_abs(np.concatenate((half, a[:1], half[::-1])), True)


def max_abs_circle(c: PolyCoeffs | Sequence[complex]) -> float:
    """max over theta of |P(e^{i theta})|, by the FFT peak search above."""
    return _sup_abs(_as_poly(c).coeffs, False)


def scaling_factor(c: PolyCoeffs | Sequence[complex]) -> float:
    """beta = max|P| on the circle / max|p| on [-1,1]; >= 1 up to roundoff."""
    c = _as_poly(c)
    denom = max_abs_interval(c)
    if denom < 1e-14:
        raise DegeneratePolynomialError(
            "interval sup-norm below 1e-14; scaling factor undefined")
    return max_abs_circle(c) / denom


def classify_parity(c: PolyCoeffs | Sequence[complex]) -> ParityClass:
    a = np.abs(_as_poly(c).coeffs)
    scale = a.max()
    if scale == 0.0:
        return ParityClass("even")
    idx = np.nonzero(a > ZERO_TOL * scale)[0]
    if np.all(idx % 2 == 0):
        return ParityClass("even")
    if np.all(idx % 2 == 1):
        mod4 = None
        if np.all(idx % 4 == 1):
            mod4 = "mod4_1"
        elif np.all(idx % 4 == 3):
            mod4 = "mod4_3"
        return ParityClass("odd", mod4)
    return ParityClass("mixed")


def parity_split(c: PolyCoeffs | Sequence[complex]) -> tuple[PolyCoeffs, PolyCoeffs]:
    """(even part, odd part); they sum back to c exactly after padding."""
    c = _as_poly(c)
    even = c.coeffs.copy()
    odd = c.coeffs.copy()
    even[1::2] = 0.0
    odd[0::2] = 0.0
    return PolyCoeffs(even).trimmed(tol=0.0), PolyCoeffs(odd).trimmed(tol=0.0)


def check_parity(c: PolyCoeffs | Sequence[complex], parity: str):
    """The one parity rule: ParityError when a coefficient of the other
    parity exceeds ZERO_TOL * max |a|.  The zero polynomial has both
    parities; a parity other than 'even'/'odd' is a ValueError."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', not {parity!r}")
    a = np.abs(_as_poly(c).coeffs)
    other = a[1::2] if parity == "even" else a[0::2]
    if other.size and other.max() > ZERO_TOL * a.max():
        raise ParityError(f"coefficients are not {parity} to {ZERO_TOL:g}")


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


def sqrt_substitute_even(c_even: PolyCoeffs | Sequence[complex]) -> PolyCoeffs:
    """q with q(y^2) = p_even(y); via T_{2n}(y) = T_n(2y^2 - 1)."""
    c = _as_poly(c_even)
    check_parity(c, "even")
    u = np.array([-1.0, 2.0])  # 2y^2 - 1 = -T_0 + 2 T_1 in x = y^2
    return PolyCoeffs(_substitute(c.coeffs[0::2], u, u))


def sqrt_substitute_odd(c_odd: PolyCoeffs | Sequence[complex]) -> PolyCoeffs:
    """q with y*q(y^2) = p_odd(y).

    T_{2n+1}(y) = y * c_n(2y^2 - 1) where c_0 = 1, c_1 = 2u - 1 and
    c_n = 2u c_{n-1} - c_{n-2} (from T_{a+2} = 2 T_2 T_a - T_{a-2}).
    """
    c = _as_poly(c_odd)
    check_parity(c, "odd")
    return PolyCoeffs(_substitute(c.coeffs[1::2], np.array([-1.0, 2.0]),
                                  [-3.0, 4.0]))


# ---------------------------------------------------------------------------
# Minimax approximation of 1/(4 kappa x) on [1/kappa, 1] by odd polynomials.
# ---------------------------------------------------------------------------

def _cheb_grid(coef: np.ndarray, n: int) -> np.ndarray:
    """sum_k coef_k T_k(u) at u = cos(pi j / n), j = n .. 0 (u ascending).

    On Chebyshev points of the second kind this is sum_k coef_k
    cos(pi k j / n), one DCT-I, taken here as the real part of an rfft.
    """
    return np.fft.rfft(coef, 2 * n).real[n::-1]


# Remez exchange: grid points per unit of degree (at least _REMEZ_GRID_MIN)
# and the iteration cap.
_REMEZ_GRID_PER_DEGREE = 20
_REMEZ_GRID_MIN = 2000
_REMEZ_MAX_ITER = 60


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
    (`_odd_cheb` converts them) and the achieved sup error on the grid.
    """
    m = (degree + 1) // 2  # free coefficients c_0..c_{m-1} of s
    npts = m + 1
    ylo, yhi = a * a, 1.0
    mid, half = 0.5 * (yhi + ylo), 0.5 * (yhi - ylo)

    def design(ys: np.ndarray) -> np.ndarray:
        u = np.clip((ys - mid) / half, -1.0, 1.0)
        return np.cos(np.outer(np.arccos(u), np.arange(m)))

    def g(ys):
        x = np.sqrt(ys)
        return f(x) / x

    w = np.sqrt  # the error in x-space is sqrt(y) * (s(y) - g(y))

    k = np.arange(npts)
    ref = mid + half * np.cos(math.pi * k / (npts - 1))
    ref.sort()
    grid_size = max(_REMEZ_GRID_PER_DEGREE * degree, _REMEZ_GRID_MIN)
    n = grid_size - 1
    # Ascending in y, the order in which `_cheb_grid` returns values.
    grid = mid + half * np.cos(np.linspace(0.0, math.pi, grid_size))[::-1]
    gg, wg = g(grid), w(grid)

    for _ in range(_REMEZ_MAX_ITER):
        A = np.empty((npts, m + 1))
        A[:, :m] = design(ref)
        A[:, m] = (-1.0) ** np.arange(npts) / w(ref)
        sol = np.linalg.solve(A, g(ref))
        coef, h = sol[:m], sol[m]

        err = wg * (_cheb_grid(coef, n) - gg)
        max_err = float(np.max(np.abs(err)))
        # Local extrema of the error (plus the endpoints).
        sign_change = np.diff(np.sign(np.diff(err)))
        interior = np.nonzero(sign_change != 0)[0] + 1
        cand = np.unique(np.concatenate(([0], interior, [len(grid) - 1])))
        # Keep an alternating subsequence, favouring the largest |err|.
        pts, vals = [], []
        for i in cand:
            if pts and np.sign(err[i]) == np.sign(vals[-1]):
                if abs(err[i]) > abs(vals[-1]):
                    pts[-1], vals[-1] = i, err[i]
            else:
                pts.append(i)
                vals.append(err[i])
        if len(pts) > npts:
            # Drop smallest-amplitude endpoints until the count fits.
            while len(pts) > npts:
                drop = 0 if abs(vals[0]) < abs(vals[-1]) else len(pts) - 1
                pts.pop(drop)
                vals.pop(drop)
        if len(pts) < npts:
            break  # degenerate alternation; current solution is near-optimal
        if max_err - abs(h) <= 1e-6 * max(abs(h), 1e-300) + 1e-15:
            break
        ref = grid[np.array(pts)]
    return coef, max_err


def _odd_cheb(coef: np.ndarray, a: float, degree: int) -> np.ndarray:
    """Global Chebyshev coefficients on [-1, 1] of x * s(x^2).

    s = sum_k coef_k T_k(u) with u = (y - mid) / half on [a^2, 1]; with
    x^2 = (T_2 + 1)/2, u(x^2) = ((1 - 2 mid) T_0 + T_2) / (2 half).
    """
    mid, half = 0.5 * (1.0 + a * a), 0.5 * (1.0 - a * a)
    u = np.array([(0.5 - mid) / half, 0.0, 0.5 / half])
    full_c = _cheb.chebmul([0.0, 1.0], _substitute(coef, u, u))
    full = np.zeros(degree + 1)
    full[:len(full_c)] = full_c
    return full


def approx_inverse(spec: ApproxSpec, degree: int | None = None,
                   degree_cap: int = 4001) -> InverseApproxResult:
    """Odd real polynomial approximating 1/(4 kappa x) on [1/kappa, 1].

    The polynomial is written as x * s(x^2), and a weighted Remez exchange
    runs for s on y = x^2 in [1/kappa^2, 1], in the Chebyshev basis of that
    interval (`_remez_odd`); oddness makes the error on [-1, -1/kappa]
    identical.  When ``degree`` is None the minimal odd degree
    d <= ``degree_cap`` with error <= eps is found from the predicted error
    decay C rho^(-(d-1)/2), rho = (1 + a)/(1 - a) with a = 1/kappa (the
    Bernstein ellipse of 1/y on [a^2, 1] passes through the pole y = 0):
    a probe at d = kappa fixes C, each later probe is placed at the degree
    its predecessor predicts, and the answer is confirmed by a miss at
    d - 2.  Degree 1 is never tried; ApproximationError is raised when the
    largest odd degree <= ``degree_cap`` misses eps.
    """
    kappa, eps = spec.kappa, spec.eps
    a = 1.0 / kappa
    f = lambda x: 1.0 / (4.0 * kappa * x)

    def result(d: int, coef: np.ndarray, e: float) -> InverseApproxResult:
        return InverseApproxResult(PolyCoeffs(_odd_cheb(coef, a, d)), d, e,
                                   kappa, eps)

    if degree is not None:
        d = degree if degree % 2 == 1 else degree + 1
        coef, e = _remez_odd(f, a, d)
        if e > eps:
            raise ApproximationError(
                f"degree {d} reaches error {e:.3e} > eps {eps:.3e} "
                f"(kappa={kappa})")
        return result(d, coef, e)

    log_rho = math.log((1.0 + a) / (1.0 - a))
    top = degree_cap if degree_cap % 2 == 1 else degree_cap - 1
    # lo: largest degree known to miss eps (1 by convention); hi: smallest
    # degree known to meet it.
    lo, hi, best, lo_err = 1, None, None, math.nan
    d = max(3, int(kappa)) | 1
    while hi is None or hi - lo > 2:
        d = max(lo + 2, min(d, top if hi is None else hi - 2))
        if d > top:
            detail = (f" (best error {lo_err:.3e} at degree {lo})"
                      if lo > 1 else "")
            raise ApproximationError(
                f"eps {eps:.3e} unreachable below degree {degree_cap}{detail}")
        coef, e = _remez_odd(f, a, d)
        if e <= eps:
            hi, best = d, (coef, e)
        else:
            lo, lo_err = d, e
        d += 2 * math.ceil(math.log(e / eps) / log_rho)
    return result(hi, *best)
