"""Phase-factor synthesis for generalized signal processing.

A degree-d complex polynomial P(z) with max |P| <= 1 on the unit circle is
realized as the top-left block of an interleaved product

    R(theta_d, phi_d, 0) * A * R(theta_{d-1}, phi_{d-1}, 0) * A * ...
        * A * R(theta_0, phi_0, lambda),       A = diag(z, 1),

where R is the single-qubit rotation of `rotation_matrix`.  `solve_phases`
finds the angles (FFT completion + layer stripping) and checks them;
`reconstruct_P` multiplies the chain symbolically, with polynomial-valued
entries, as an FFT product tree in O(d log^2 d), and is the independent
round-trip oracle; `gqsp_matrix` applies the circuit for a given matrix
argument to a stack of columns without forming it (the identity stack
gives the explicit unitary).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os

import numpy as np

from . import polynomials
from .polynomials import (NumericalError, PolyCoeffs, _number, _numbers,
                          max_abs_circle)

__all__ = [
    "PhaseFactors",
    "PhaseSynthesisError",
    "CompletionError",
    "DEFAULT_MARGIN",
    "rotation_matrix",
    "rescale_to_margin",
    "solve_phases",
    "reconstruct_P",
    "round_trip_error",
    "complementary_polynomial",
    "gqsp_matrix",
]

DEFAULT_MARGIN = 1e-4
# What solve_phases accepts: completion defect, and round trip per
# coefficient of P (the `gqtlab phases` default).
DEFECT_TOL = 1e-9
ROUND_TRIP_TOL = 1e-8
# complementary_polynomial's target for its dropped tail and its defect.
_COMPLETION_TARGET = 1e-12
_MAX_GRID = 1 << 20
# The one unitarity rule: a unitary of dimension dim passes when its defect
# (`_unitary_defect`, or `_column_defect` of the columns it pushed) is at
# most VALIDATION_TOL * dim.  Encodings, circuits and gqsp_matrix all use it.
# Each unitary is measured once: a matrix whose defect follows exactly from
# a measured one's (an adjoint, a Hermitianized encoding, a walk operator on
# a coordinate isometry) inherits that value instead of a Gram of its own.
VALIDATION_TOL = 1e-10


class PhaseSynthesisError(NumericalError):
    """Synthesized angles fail their own completion or round-trip check."""
    stage = "phase synthesis"


class CompletionError(PhaseSynthesisError):
    """No complementary polynomial meets the target within the grid cap."""


def _canonical(angle):
    """Map angles to (-pi, pi] as mod(a + pi, 2 pi) - pi, read as +pi where
    that gives -pi.  Adding pi rounds every angle to the floats near a + pi,
    spaced 4.4e-16 for |a| < 0.86 and at most 8.9e-16, so an angle keeps
    only its absolute accuracy, and any |a| < 2.2e-16 reads 0; e^{i angle}
    moves by at most that rounding."""
    a = np.mod(np.asarray(angle, dtype=float) + math.pi, 2.0 * math.pi) - math.pi
    return np.where(a == -math.pi, math.pi, a)


@dataclasses.dataclass(frozen=True)
class PhaseFactors:
    """Angles ({theta_i}, {phi_i}, lambda) for a degree-d polynomial.

    `round_trip` is the reconstruct_P error that solve_phases measured on
    these angles (None otherwise); it is neither serialised nor compared."""

    thetas: np.ndarray
    phis: np.ndarray
    lam: float
    round_trip: float | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.thetas, dtype=float))
        p = np.atleast_1d(np.asarray(self.phis, dtype=float))
        if t.shape != p.shape or t.ndim != 1 or t.size < 1:
            raise ValueError("thetas and phis must be equal-length 1-D, size >= 1")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))
                and math.isfinite(float(self.lam))):
            raise ValueError("angles must be finite")
        t = _canonical(t)
        p = _canonical(p)
        t.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "thetas", t)
        object.__setattr__(self, "phis", p)
        object.__setattr__(self, "lam", float(_canonical(self.lam)))

    @property
    def degree(self) -> int:
        return len(self.thetas) - 1

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self.thetas, other.thetas)
                and np.array_equal(self.phis, other.phis)
                and self.lam == other.lam)

    def __hash__(self):
        # Python hashes -0.0 and 0.0 alike, as == requires.
        return hash((tuple(self.thetas.tolist()), tuple(self.phis.tolist()),
                     self.lam))

    def to_json_dict(self) -> dict:
        return {
            "thetas": self.thetas.tolist(),
            "phis": self.phis.tolist(),
            "lambda": float(self.lam),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PhaseFactors":
        ph = cls(_numbers(d["thetas"], "thetas"), _numbers(d["phis"], "phis"),
                 _number(d["lambda"], "lambda"))
        # Older files also store the degree; a file comes from outside the
        # program, so a degree that disagrees with the angles is refused.
        if "degree" in d and _number(d["degree"], "degree", int) != ph.degree:
            raise ValueError("degree field inconsistent with angle count")
        return ph


def rotation_matrix(theta: float | np.ndarray, phi: float | np.ndarray,
                    lam: float | np.ndarray) -> np.ndarray:
    """A layer's rotation from its three angles:
    [[e^{i(lam+phi)} cos, e^{i phi} sin], [e^{i lam} sin, -cos]] of theta.

    Arrays of angles broadcast against each other and give the (..., 2, 2)
    stack of their rotations, each entry bit-identical to the scalar call."""
    theta, phi, lam = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (theta, phi, lam)))
    ct, st = np.cos(theta), np.sin(theta)
    r = np.empty(theta.shape + (2, 2), dtype=complex)
    r[..., 0, 0] = np.exp(1j * (lam + phi)) * ct
    r[..., 0, 1] = np.exp(1j * phi) * st
    r[..., 1, 0] = np.exp(1j * lam) * st
    r[..., 1, 1] = -ct
    return r


def _layer_rotations(ph: PhaseFactors) -> np.ndarray:
    """The chain's d + 1 rotations R(theta_k, phi_k, lambda_k) as a
    (d + 1, 2, 2) stack, from one call; lambda_k is lambda at k = 0 and 0
    above it."""
    lams = np.zeros(ph.degree + 1)
    lams[0] = ph.lam
    return rotation_matrix(ph.thetas, ph.phis, lams)


def _reconstruct_PQ(ph: PhaseFactors) -> tuple[np.ndarray, np.ndarray]:
    """The chain's first column (P, Q), multiplied as a product tree.

    A run of m consecutive layers R_k diag(z, 1) is N(z) diag(z, 1), with N
    a 2x2 matrix polynomial of m coefficients; a leaf is N = R_k, and the
    lambda layer R_0 is the first leaf, so the first column of the tree's N
    is the chain's first column without its top layer.  Neighbours multiply
    as N_later diag(z, 1) N_earlier: row 0 of N_earlier moves up one
    coefficient, and the 2m-coefficient product is exact as a cyclic
    convolution of length 2m, so each level is one FFT of all its pairs, an
    entry-wise 2x2 product and one inverse FFT.  An odd count carries its
    last (latest) node up unchanged.  ceil(log2 d) levels: O(d log^2 d)
    flops in O(log d) numpy calls.

    The top layer d is applied to that column by the recursion of
    `reconstruct_P`, so degrees 0 and 1 take no FFT and give the
    recursion's values bit for bit; above that the sums run in another
    order and (P, Q) agree with the recursion to rounding."""
    d = ph.degree
    r = _layer_rotations(ph)
    # (node, row, column, coefficient)
    nodes, m = r[:max(d, 1), :, :, None], 1
    while len(nodes) > 1:
        pairs, odd = divmod(len(nodes), 2)
        # (pair, [earlier, later], row, column, coefficient) on 2m points
        src = nodes[:2 * pairs].reshape(pairs, 2, 2, 2, m)
        f = np.zeros((pairs, 2, 2, 2, 2 * m), dtype=complex)
        f[:, 1, :, :, :m] = src[:, 1]
        f[:, 0, 0, :, 1:m + 1] = src[:, 0, 0]
        f[:, 0, 1, :, :m] = src[:, 0, 1]
        f = np.fft.fft(f)
        later, earlier = f[:, 1], f[:, 0]
        up = np.empty((pairs + odd, 2, 2, 2 * m), dtype=complex)
        up[:pairs] = np.fft.ifft(later[:, :, :1] * earlier[:, None, 0]
                                 + later[:, :, 1:] * earlier[:, None, 1])
        if odd:
            up[pairs, :, :, :m] = nodes[-1]
            up[pairs, :, :, m:] = 0.0
        nodes, m = up, 2 * m
    if not d:
        return nodes[0, 0, 0], nodes[0, 1, 0]
    ct, st = math.cos(ph.thetas[d]), math.sin(ph.thetas[d])
    zP, Qp = np.zeros(d + 1, dtype=complex), np.zeros(d + 1, dtype=complex)
    zP[1:], Qp[:d] = nodes[0, 0, 0, :d], nodes[0, 1, 0, :d]
    return (np.exp(1j * ph.phis[d]) * (ct * zP + st * Qp),
            st * zP - ct * Qp)


def reconstruct_P(ph: PhaseFactors) -> PolyCoeffs:
    """Top-left polynomial entry of the symbolic chain product.

    P_0 = e^{i(lam+phi_0)} cos th_0,    Q_0 = e^{i lam} sin th_0,
    P_k = e^{i phi_k}(cos th_k * z P_{k-1} + sin th_k * Q_{k-1}),
    Q_k =            sin th_k * z P_{k-1} - cos th_k * Q_{k-1}.
    """
    P, _ = _reconstruct_PQ(ph)
    return PolyCoeffs(P)


def _on_circle(a: np.ndarray, n: int) -> np.ndarray:
    """sum_k a_k z^k at the n-th roots of unity exp(2 pi i j / n)."""
    return np.fft.ifft(a, n) * n


def _parity_stride(d: int, *arrays: np.ndarray) -> int:
    """2 when every coefficient of the other parity than d is exactly 0 in
    each array, so that each is z^r R(z^2) with r = d mod 2; else 1.

    The read is structural, as `_nonzero_blocks` reads U: a coefficient
    under `definite_parity`'s tolerance still counts, since dropping it
    would change P."""
    return 1 if any(a[1 - d % 2::2].any() for a in arrays) else 2


def _completion_defect(p: np.ndarray, q: np.ndarray) -> float:
    """max | |P|^2 + |Q|^2 - 1 | over max(4096, 8 (d + 1)) circle points.

    For P = z^r R(z^2) and Q = z^r S(z^2) (`_parity_stride` 2) those points
    are read through their squares w = z^2: |R|^2 + |S|^2 at half as many
    w-points, the same values at the same tolerance."""
    d = max(len(p), len(q)) - 1
    n = 1 << (max(4096, 8 * (d + 1)) - 1).bit_length()
    s = _parity_stride(d, p, q)
    r = d % s
    return float(np.max(np.abs(np.abs(_on_circle(p[r::s], n // s)) ** 2
                               + np.abs(_on_circle(q[r::s], n // s)) ** 2
                               - 1.0)))


def _outer_completion(a: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """One grid of `complementary_polynomial` for the polynomial a: its
    completion from an n-point circle grid and the largest coefficient of
    G that the grid aliased past the degree of a."""
    m = len(a) - 1
    absp = np.abs(_on_circle(a, n))
    if np.max(absp) >= 1.0:
        raise CompletionError(
            "max |P| reaches 1 on the circle; no complementary polynomial "
            "with a finite log-modulus (scale P with rescale_to_margin)")
    h = np.fft.fft(0.5 * np.log1p(-absp ** 2)) / n
    h[1:n // 2] *= 2.0
    h[n // 2 + 1:] = 0.0
    g = np.fft.fft(np.exp(_on_circle(h, n))) / n
    return np.conj(g[m::-1]), np.max(np.abs(g[m + 1:]))


def complementary_polynomial(c: PolyCoeffs) -> PolyCoeffs:
    """Q of degree <= d with |P|^2 + |Q|^2 = 1 on the unit circle.

    FFT completion (Berntson & Sunderhauf, arXiv:2406.04246).  On an N-point
    circle grid, s = 1/2 log(1 - |P|^2) is the log-modulus Q must have.  The
    analytic part h = c_0 + 2 sum_{n>0} c_n z^n of its Fourier series (one
    FFT) has Re h = s, so G = exp(h) is the outer polynomial with
    |G|^2 = 1 - |P|^2 and no root inside the disk; a second FFT gives its
    coefficients, and those beyond degree d (aliasing) are dropped.  Q is
    the reversed conjugate z^d conj(G(1/conj z)): same modulus, roots inside
    the disk, the orientation layer stripping needs to reproduce P.

    A P = z^r R(z^2) of `_parity_stride` 2 is completed as R on N/2 points
    of the w = z^2 circle: the outer factor of 1 - |R(z^2)|^2 is G_R(z^2),
    so Q = z^r S(z^2) with S the completion of R, and Q's coefficients of
    the other parity are exactly 0.

    N starts at the power of two >= 16 (d + 1) and doubles while the dropped
    tail or the completion defect exceeds 1e-12; Q holds the defect it
    passed with as `Q.defect`.  Raises CompletionError when |P| reaches 1 on
    the grid or N passes 2^20 short of that target.
    """
    a = c.coeffs
    d = len(a) - 1
    s = _parity_stride(d, a)
    r = d % s
    n = 1 << (16 * (d + 1) - 1).bit_length()
    while n <= _MAX_GRID:
        q = np.zeros(d + 1, dtype=complex)
        q[r::s], tail = _outer_completion(a[r::s], n // s)
        defect = _completion_defect(a, q)
        if max(tail, defect) <= _COMPLETION_TARGET:
            return PolyCoeffs(q, defect)
        n *= 2
    raise CompletionError(f"completion misses {_COMPLETION_TARGET:g} on "
                          f"{_MAX_GRID} circle points; max |P| is too near 1")


def rescale_to_margin(c: PolyCoeffs, margin: float = DEFAULT_MARGIN,
                      ) -> tuple[PolyCoeffs, float]:
    """Scale P to max |P| = 1 - 2 margin if above 1 - margin; (P, scale).
    The one margin rule: no other code compares a circle norm with a
    margin.  ValueError unless 0 <= margin < 1/2.

    A P = z^r R(z^2) (`_parity_stride` 2) is normed as R: |P(z)| = |R(z^2)|
    and z^2 runs over the whole circle, so the maximum is the same, on half
    the grid."""
    if not 0.0 <= margin < 0.5:
        raise ValueError(f"margin must lie in [0, 0.5), not {margin}")
    a = c.coeffs
    d = len(a) - 1
    maxP = max_abs_circle(c if _parity_stride(d, a) == 1
                          else PolyCoeffs(a[d % 2::2]))
    if maxP > 1.0 - margin:
        scale = (1.0 - 2.0 * margin) / maxP
        return c.scaled(scale), scale
    return c, 1.0


def round_trip_error(ph: PhaseFactors, c: PolyCoeffs) -> float:
    """Largest coefficient gap between reconstruct_P(ph) and trimmed P."""
    rec, ref = reconstruct_P(ph).coeffs, c.trimmed().coeffs
    n = max(len(rec), len(ref))
    return float(np.max(np.abs(np.pad(rec, (0, n - len(rec)))
                               - np.pad(ref, (0, n - len(ref))))))


def _strip_layers(P: np.ndarray, Q: np.ndarray) -> PhaseFactors:
    """Peel R(theta_k, phi_k, 0) diag(z, 1) off (P, Q) one degree at a time
    (Motlagh & Wiebe, arXiv:2308.01501); P and Q are only read.

    When P = z^r R(z^2) and Q = z^r S(z^2), r = d mod 2 (`_parity_stride`
    2), each layer k >= 1 of the other parity than d meets q_lead = 0
    exactly: theta = phi = 0, a shift of P and a negation of Q.  Each step
    then strips layer k and that partner k - 1 on (R, S), with the
    partner's negation folded into the coefficients of the new S
    (-(a - b) is (-a) + b exactly), so the angles are those of the
    layer-by-layer loop bit for bit, in half the steps.  Any other (P, Q)
    runs the same loop one layer a step (stride 1).
    """
    d = len(P) - 1
    s = _parity_stride(d, P, Q)
    thetas = np.zeros(d + 1)
    phis = np.zeros(d + 1)
    # [R; S] fills columns t + 1 .. n of buf at step t (column 0 is
    # spare).  A step writes the new R to column j from column j and the
    # new S from column j - 1; from column t + 2 on they are the next
    # (R, S), since R's lowest coefficient and S's leading one drop.  So
    # the leading pair stays in column n.
    n = (d + s) // s
    buf = np.zeros((2, n + 1), dtype=complex)
    buf[0, 1:], buf[1, 1:] = P[d % s::s], Q[d % s::s]
    # window[i, j, c] = buf[j, c + i]: i = 0 feeds the new S, i = 1 the new R
    window = np.lib.stride_tricks.as_strided(
        buf, (2, 2, n), (buf.strides[1],) + buf.strides, writeable=False)
    prod = np.empty((2, 2, n), dtype=complex)
    coef = np.empty((2, 2, 1), dtype=complex)
    # A layer has theta = 0 iff |q_lead| <= 1e-14 max(|P|, |Q|), a max that
    # the other parity's zeros leave unchanged.  Every layer is a 2x2
    # unitary on the pairs (P_j, Q_j) and then drops an end, so that max
    # stays below 2 ||(P, Q)||_2 (~1), and it is at least |p_lead| (halved
    # against the rounding of abs): the exact max is computed only when
    # q_lead falls between the two tests.
    near_zero = 1e-14 * 2.0 * float(np.linalg.norm(buf))
    # A theta = 0 layer negates Q; a pair of them leaves it as it is.
    shift_S = np.negative if s == 1 else np.positive
    for t, k in enumerate(range(d, 0, -s)):
        p_lead, q_lead = buf[0, n], buf[1, n]
        aq = abs(q_lead)
        if aq <= near_zero and (
                aq <= 0.5e-14 * abs(p_lead)
                or aq <= 1e-14 * np.max(np.abs(buf[:, t + 1:]))):
            # theta = 0 layer: P_k = z P_{k-1}, Q_k = -Q_{k-1}.
            theta, phi = 0.0, 0.0
            shift_S(buf[1, t:n], out=buf[1, t + 1:])
        else:
            ratio = p_lead / q_lead
            phi = math.atan2(ratio.imag, ratio.real)
            theta = math.atan2(abs(q_lead), abs(p_lead))
            e = np.exp(-1j * phi)
            ct, st = math.cos(theta), math.sin(theta)
            # z P_{k-1} = e ct P + st Q, Q_{k-1} = e st P - ct Q, the same
            # two products and one sum per coefficient.
            coef[1, 0, 0], coef[1, 1, 0] = e * ct, st
            coef[0, 0, 0], coef[0, 1, 0] = ((e * st, -ct) if s == 1
                                            else (-(e * st), ct))
            np.multiply(coef, window[:, :, t:], out=prod[:, :, t:])
            np.add(prod[:, 0, t:], prod[:, 1, t:], out=buf[::-1, t + 1:])
        thetas[k], phis[k] = theta, phi

    # An odd P of stride 2 ends on layer 1, which has no partner: its z P_0
    # is the last column's new R, and its Q_0 is 0.
    p0, q0 = buf[0, n], (buf[1, n] if s == 1 or d % 2 == 0 else 0.0)
    thetas[0] = math.atan2(abs(q0), abs(p0))
    if abs(q0) > 1e-14:
        lam = math.atan2(q0.imag, q0.real)
    else:
        lam = 0.0
    if abs(p0) > 1e-14:
        phis[0] = math.atan2(p0.imag, p0.real) - lam
    return PhaseFactors(thetas, phis, lam)


def solve_phases(c: PolyCoeffs) -> PhaseFactors:
    """Angles realizing P(z), checked against P before they are returned.

    Trailing zero coefficients are trimmed first, so the returned degree is
    the effective degree of P.  Needs max |P| < 1 on the circle and takes no
    margin: `rescale_to_margin` is the one rule that holds P to a margin,
    and callers apply it first.  Q comes from `complementary_polynomial`;
    layer stripping then peels R(theta_k, phi_k, 0) diag(z, 1) off (P, Q)
    one degree at a time (Motlagh & Wiebe, arXiv:2308.01501).

    The round trip error is recorded on the result as `round_trip`.
    Raises CompletionError when |P| reaches 1 on the completion grid or is
    too near 1 for its cap; PhaseSynthesisError (of which CompletionError is
    one) when the completion defect of (P, Q) exceeds DEFECT_TOL or the
    reconstruct_P round trip exceeds ROUND_TRIP_TOL * (d + 1).
    """
    c = c.trimmed()
    d = c.degree
    P = c.coeffs
    completion = complementary_polynomial(c)
    Q = completion.coeffs
    # The completion measured its defect on this (P, Q); a Q that holds
    # none is measured here.
    defect = (_completion_defect(P, Q) if completion.defect is None
              else completion.defect)
    if not defect <= DEFECT_TOL:
        raise PhaseSynthesisError(
            f"completion defect {defect:.3e} exceeds {DEFECT_TOL:g}")

    ph = _strip_layers(P, Q)
    err = round_trip_error(ph, c)
    if not err <= ROUND_TRIP_TOL * (d + 1):
        raise PhaseSynthesisError(
            f"round trip error {err:.3e} exceeds "
            f"{ROUND_TRIP_TOL * (d + 1):.3e} at degree {d}")
    object.__setattr__(ph, "round_trip", err)
    return ph


def _coordinate_rows(X: np.ndarray) -> tuple[np.ndarray, bool]:
    """The rows r where X is nonzero, and whether X[r] is the identity, as
    for the coordinate isometries every constructor builds.  Such an X is
    read by index: X^dag Y is Y[r] and X^dag X is I, exactly, since a
    product with 0/1 entries rounds nothing."""
    r = np.flatnonzero(X.any(axis=1))
    return r, len(r) == X.shape[1] and np.array_equal(X[r], np.eye(len(r)))


def _paired_blocks(U: np.ndarray) -> tuple | None:
    """Two N x N blocks (a, b), N = M/2, with ||U^dag U - I||_F =
    hypot(||a^dag a - I||_F, ||b^dag b - I||_F), when U has one of two
    exact 2x2-block structures up to the signs of its rows; else None.

    The blocks are read from the bottom half [C, D]; each top row must be
    +-1 times the matching row of

      [D, C]   (U commutes with X (x) I, as the product of `multiply` and
               its walk): a = D + C, b = D - C, since
               U = (H (x) I) diag(a, b) (H (x) I) for the Hadamard H;
      [D, -C]  (U commutes with iY (x) I once rows are negated, as
               `dilate_hermitian`'s U and its walk, with B = D, S = -C):
               a = B + iS, b = B - iS (T of `_nonzero_blocks`).

    Negating rows leaves U^dag U unchanged, so a matrix and its walk on a
    coordinate isometry, which differ only in the signs of rows, get the
    same bits.  The comparisons are exact and O(M^2).
    """
    M = len(U)
    if not M or M % 2:
        return None
    N = M // 2
    C, D = U[N:, :N], U[N:, N:]
    top_D, top_C = U[:N, :N], U[:N, N:]
    same_D, neg_D = (top_D == D).all(1), (top_D == -D).all(1)
    if not (same_D | neg_D).all():
        return None
    same_C, neg_C = (top_C == C).all(1), (top_C == -C).all(1)
    if ((same_D & same_C) | (neg_D & neg_C)).all():
        return D + C, D - C
    if ((same_D & neg_C) | (neg_D & same_C)).all():
        return D - 1j * C, D + 1j * C
    return None


def _unitary_defect(U: np.ndarray) -> float:
    """||U^dag U - I||_F for square U, inf otherwise: the one unitarity
    check.  A U with a structure of `_paired_blocks` costs two N^3 Grams of
    its blocks, N = M/2, instead of one M^3 Gram of U."""
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        return math.inf
    blocks = _paired_blocks(U)
    if blocks is None:
        return float(np.linalg.norm(U.conj().T @ U - np.eye(len(U))))
    eye = np.eye(len(U) // 2)
    return math.hypot(*(float(np.linalg.norm(x.conj().T @ x - eye))
                        for x in blocks))


def _column_defect(Y: np.ndarray, X: np.ndarray) -> float:
    """||Y^dag Y - X^dag X||_F, inf on a shape mismatch: the check that a
    unitary pushed the columns X to Y.  O(rows * k^2) for k columns; a
    coordinate X has X^dag X = I exactly, so it needs no product."""
    if Y.shape != X.shape:
        return math.inf
    gram = Y.conj().T @ Y
    if X.ndim == 2 and _coordinate_rows(X)[1]:
        return float(np.linalg.norm(gram - np.eye(X.shape[1])))
    return float(np.linalg.norm(gram - X.conj().T @ X))


def _nonzero_blocks(U: np.ndarray) -> tuple[np.ndarray, str | None]:
    """U as the blocks the kernel multiplies, and the structure that lets
    it, read from U's entries by exact comparisons (O(M^2)).  With
    N = M/2 and U = [[B, S], [S', B']]:

      "commuting"     B' = B and S' = -S (U commutes with iY (x) I, as the
                      walk of a `dilate_hermitian` encoding does):
                      the stack (B + iS, B - iS), for
                      U = T diag(B + iS, B - iS) T^dag,
                      T = [[I, I], [iI, -iI]] / sqrt 2;
      "off-diagonal"  B = B' = 0 (the walk of a `hermitianize` encoding):
                      the stack (S, S'), applied to the swapped halves;
      None            any other U: U itself.
    """
    M = len(U)
    if M and not M % 2:
        N = M // 2
        B, S = U[:N, :N], U[:N, N:]
        if not B.any() and not U[N:, N:].any():
            return np.stack([S, U[N:, :N]]), "off-diagonal"
        if np.array_equal(U[N:, N:], B) and np.array_equal(U[N:, :N], -S):
            return np.stack([B + 1j * S, B - 1j * S]), "commuting"
    return U, None


# The columns of a stack do not interact, so `gqsp_matrix` may cut its stack
# into column chunks and push each through every layer on a thread of its
# own, with no barrier between layers; numpy releases the GIL inside each
# GEMM and each entry-wise rotation.  The split pays only when each thread's
# GEMMs are large, so a push runs on min(W, P / _SPLIT_PRODUCT,
# k / _SPLIT_COLUMNS) threads (one when that is below 2), where P = (U's
# block entries) * k is the push's complex multiply-adds per layer, k its
# columns and W the CPUs the process may use (`polynomials._workers`).
# Medians of interleaved pushes on a 2-CPU machine with one BLAS thread,
# 2 threads against 1:
#   J-commuting, N = 128, k = 128, d = 64 (2 * 2^20 per thread):
#       43 -> 24 ms; at k = 96 (1.5 * 2^20): x0.78 to x0.84
#   J-commuting, N = 128, k = 64 (2^20):  x0.95 to x1.05
#   J-commuting, N = 64, k = 96 (0.38 * 2^20):  x1.04 (GIL hand-offs
#       between many small numpy calls)
#   off-diagonal, N = 160, k = 64 (1.56 * 2^20, 32 columns per thread):
#       x1.12, and a general M = 320 U at k = 64: x1.06 (each chunk's GEMM
#       packs U's blocks again, so narrow chunks repeat that work); at
#       k = 96 (48 columns per thread):  x0.79
# A multi-threaded BLAS already spreads each GEMM over the CPUs, and threads
# that each call it contend for them: with two BLAS threads the gqet
# 128 x 128, d = 64 command took 96 ms split against 70 ms serial (median
# wall times), so the kernel splits only under a one-thread BLAS.  Chunks
# start at multiples of 8 columns and none is one column: then each chunk's
# GEMMs give the bits of the whole stack's, and the stack does not depend on
# W.  A cut off a multiple of 8 (65 columns as 33 + 32) or a 1-column chunk
# moved last bits.
_SPLIT_PRODUCT = 1 << 20
_SPLIT_COLUMNS = 48
# The BLAS reads its thread count from the first of these that is set, and
# uses every CPU when none is.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _serial_blas() -> bool:
    """Whether the BLAS runs each call on one thread, by the first of its
    thread-count variables that is set."""
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value:
            return value == "1"
    return False


def _kernel_threads(product: int, k: int) -> int:
    """Threads of a push of k columns with `product` complex multiply-adds
    per layer, by the rule above."""
    threads = min(product // _SPLIT_PRODUCT, k // _SPLIT_COLUMNS)
    if threads < 2 or not _serial_blas():
        return 1
    return min(polynomials._workers(), threads)


def _column_chunks(k: int, threads: int) -> list:
    """Slices of range(k), in order and covering each column once, for at
    most `threads` threads: every chunk starts at a multiple of 8 and none
    is one column.  One thread gets the whole stack."""
    step = 8 * max(1, -(-k // (8 * threads)))
    starts = list(range(0, k, step)) or [0]
    if len(starts) > 1 and k - starts[-1] == 1:
        starts.pop()  # join a 1-column last chunk to the one before
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [k])]


def gqsp_matrix(ph: PhaseFactors, U: np.ndarray, columns: np.ndarray,
                defect: float | None = None) -> np.ndarray:
    """C applied to a 2M x k column stack, where C is the 2M x 2M circuit
    whose top-left block applies P to U.

    The ancilla is the slow tensor factor: diag(z, 1) becomes
    block_diag(U, I), i.e. U is applied when the ancilla is |0>.  The stack
    is kept as two M-row halves: U multiplies the top half, and each
    rotation mixes the halves entry-wise.  A general U costs M^2 k per
    layer, so pushing the identity gives C itself in 2 d M^3.  A U of one
    of the two structures of `_nonzero_blocks` runs as its two N x N
    blocks, N = M/2, in M^2 k / 2 per layer (d M^3 for C): a J-commuting
    U on the stack turned in place by T^dag before the layers and by T
    after them (T of `_nonzero_blocks`), an off-diagonal U on the swapped
    halves of the top half.  When every layer k >= 1 of the other parity
    than d has theta = phi = 0 exactly (a definite-parity solve), those d/2
    layers apply U and no rotation, with the same stack.

    Under a one-thread BLAS, a stack with large enough GEMMs is cut into
    column chunks, each pushed through every layer on a thread of its own
    (`_kernel_threads`: at least 2^20 multiply-adds a layer and 48 columns
    per thread, at most one thread per CPU).  Chunks start at multiples of
    8 columns, so the bytes of the stack do not depend on the CPU count.
    They do depend on the BLAS thread count, as they did before the split:
    of 120 serial stacks, 64 differed in their last bits between one and
    two OpenBLAS threads.

    U must be unitary to VALIDATION_TOL * M (ValueError otherwise: U is
    the caller's argument).  The kernel never checks C itself; on every
    call it certifies the product of its d checked layers:
    d * ||U^dag U - I||_F <= VALIDATION_TOL * 2M, or NumericalError.
    ``defect`` is ||U^dag U - I||_F when the caller already holds it (gqet
    passes the defect a walk operator inherits from its encoding); both
    checks then read it, and a bare U (None) is measured here.
    """
    U = np.asarray(U, dtype=complex)
    if defect is None:
        defect = _unitary_defect(U)
    M = U.shape[0] if U.ndim else 0
    if not defect <= VALIDATION_TOL * M:
        raise ValueError(f"U is not unitary to {VALIDATION_TOL:g} * {M}")
    if not ph.degree * defect <= VALIDATION_TOL * 2 * M:
        raise NumericalError(
            f"{ph.degree} layers of unitarity defect {defect:.3e} "
            f"exceed {VALIDATION_TOL:g} * {2 * M}")
    columns = np.asarray(columns)
    if columns.ndim != 2 or columns.shape[0] != 2 * M:
        raise ValueError(f"columns must have {2 * M} rows")
    blocks, structure = _nonzero_blocks(U)
    d = ph.degree
    rotations = _layer_rotations(ph)
    # A layer k >= 1 of the other parity than d (never d itself) with
    # theta = phi = 0, as every such layer of a definite-parity solve, is U
    # on the top half and R = diag(1, -1).  When all of them are, each runs
    # as U alone: the product waits in Utop for layer k + 1, and the -1 on
    # the bottom half moves to the second column of that layer's rotation.
    # A negated factor gives the negated product exactly, so the stack is
    # the one of rotating every layer, up to the signs of zeros.
    paired = not (ph.thetas[1 + d % 2:d:2].any()
                  or ph.phis[1 + d % 2:d:2].any())
    if paired:
        second = rotations[2 + d % 2::2, :, 1]
        np.negative(second, out=second)
    k = columns.shape[1]
    threads = _kernel_threads(blocks.size * k, k)
    # Every buffer is made here, on the calling thread: a worker thread that
    # allocated would get a malloc arena of its own, whose freed pages stay
    # resident (about 2 MB more peak RSS at M = 256, k = 128).
    chunks, buffers = [], []
    for cols in _column_chunks(k, threads):
        # A C-ordered copy, so that the reshapes of `_push_columns` are
        # views: on strided column views of the whole stack a matmul took
        # 314 against 231 us and an entry-wise multiply 33 against 10 us
        # (a 2 x 128 x 64 chunk, one BLAS thread).
        chunks.append(np.array(columns[:, cols], dtype=complex, order="C"))
        buffers.append(np.empty((2, M * chunks[-1].shape[1]), dtype=complex))
    push = functools.partial(_push_columns, blocks, structure, rotations,
                             paired)
    polynomials._run_parts(push, list(zip(chunks, buffers)), threads)
    del buffers  # freed before the join, so the peak is the serial one's
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)


def _push_columns(blocks: np.ndarray, structure: str | None,
                  rotations: np.ndarray, paired: bool, part: tuple) -> None:
    """The layer loop of `gqsp_matrix` on one chunk of the stack, in place:
    part = (out, buffers) is the C-ordered chunk and two buffers of its
    top half's size, `blocks` and `structure` are those of
    `_nonzero_blocks`, and `rotations` the d + 1 layers' (with the folded
    signs when `paired`)."""
    out, buffers = part
    # (ancilla, [block,] row, column): views of the chunk.
    stack = out.reshape((2,) + blocks.shape[:-1] + out.shape[1:])
    top, bot = stack
    Utop, tmp = buffers.reshape((2,) + top.shape)
    operand, held = ((top[::-1], Utop[::-1]) if structure == "off-diagonal"
                     else (top, Utop))
    d = len(rotations) - 1
    if structure == "commuting":
        # The walk-register halves (x0, x1) of both ancilla halves, turned
        # in place by T^dag: ((x0 - i x1), (x0 + i x1)) / sqrt 2.  The loop's
        # scratch buffer holds i x1, so no chunk-sized temporary is made.
        x0, x1 = stack.swapaxes(0, 1)
        ix1 = np.multiply(x1, 1j, out=tmp.reshape(x1.shape))
        np.add(x0, ix1, out=x1)
        x0 -= ix1
        stack *= math.sqrt(0.5)
    for k, r in enumerate(rotations):
        # V is U applied to the top half; scratch is the free buffer.
        if not k:
            Utop[...] = top
            V, scratch = Utop, tmp
        elif paired and (d - k) % 2:
            np.matmul(blocks, operand, out=Utop)
            continue
        elif paired and k > 1:
            np.matmul(blocks, held, out=tmp)
            V, scratch = tmp, Utop
        else:
            np.matmul(blocks, operand, out=Utop)
            V, scratch = Utop, tmp
        np.multiply(V, r[0, 0], out=top)
        top += np.multiply(bot, r[0, 1], out=scratch)
        bot *= r[1, 1]
        bot += np.multiply(V, r[1, 0], out=scratch)
    if structure == "commuting":
        # and back by T: (y0 + y1, i (y0 - y1)) / sqrt 2.
        diff = np.subtract(x0, x1, out=tmp.reshape(x1.shape))
        x0 += x1
        np.multiply(diff, 1j, out=x1)
        stack *= math.sqrt(0.5)
