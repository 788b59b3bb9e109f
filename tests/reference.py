"""Reference constructions the tests compare the library against.

Each is a dense, direct form of something the library computes another way
(qubitized eigenpairs against `walk_operator`, the rotation-absorbed circuit
against `gqet`, the two-register QSVT circuit against `_qsvt_circuit`, the
Hilbert-transform theorem against `corollary_bound`, the one-block layer loop
and the loop that rotates every layer against `gqsp_matrix`, the Remez
alternation loop against `_alternation`), or a value the tests read that the
library never needs (the encoded block, P on the circle, the parity halves).  Nothing in `src/` imports this module.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from gqtlab.bounds import g1_constant
from gqtlab.encodings import HermitianEncoding, hermitianize, walk_operator
from gqtlab.phases import (
    PhaseFactors,
    _nonzero_blocks,
    gqsp_matrix,
    rotation_matrix,
)
from gqtlab.polynomials import PolyCoeffs, max_abs_circle
from gqtlab.transforms import _qsvt_circuit


def encoded_matrix(e) -> np.ndarray:
    """A/alpha = Pi_L^dag U Pi_R."""
    return e.Pi_L.conj().T @ (e.U @ e.Pi_R)


def eval_circle(c: PolyCoeffs, theta):
    """P(e^{i theta}) = sum a_n e^{i n theta}."""
    z = np.exp(1j * np.asarray(theta, dtype=float))
    return np.polynomial.polynomial.polyval(z, c.coeffs)


def parity_split(c: PolyCoeffs) -> tuple[PolyCoeffs, PolyCoeffs]:
    """(even part, odd part); they sum back to c exactly after padding."""
    even = c.coeffs.copy()
    odd = c.coeffs.copy()
    even[1::2] = 0.0
    odd[0::2] = 0.0
    return PolyCoeffs(even).trimmed(tol=0.0), PolyCoeffs(odd).trimmed(tol=0.0)


def g_lemma(x) -> np.ndarray:
    """g(x) = log(sin(x/2)) / log(x/2) on (0, 1]; increasing, g(0+) = 1."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x > 1):
        raise ValueError("g is evaluated on (0, 1]")
    return np.log(np.sin(x / 2)) / np.log(x / 2)


def hilbert_theorem_bound(delta: float, norm_inf_f: float,
                          norm_2_fprime: float) -> float:
    """Mollified Hilbert-transform estimate with explicit width delta:

        g1 (4/pi) |log(d/2)| ||f||_inf
          + g1 (sqrt(2d)/pi) sqrt(2 - 2 log(d/2) + log^2(d/2)) ||f'||_2.

    `corollary_bound(N, M)` is M plus this at delta = N^-2, ||f||_inf = M
    and ||f'||_2 = N M.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if norm_inf_f < 0 or norm_2_fprime < 0:
        raise ValueError("norms must be nonnegative")
    g1 = g1_constant()
    L = math.log(delta / 2.0)
    return (g1 * (4.0 / math.pi) * abs(L) * norm_inf_f
            + g1 * (math.sqrt(2.0 * delta) / math.pi)
            * math.sqrt(2.0 - 2.0 * L + L * L) * norm_2_fprime)


def bernstein_check(c: PolyCoeffs) -> bool:
    """||f'||_inf <= N ||f||_inf for f(theta) = P(e^{i theta})."""
    c = c.trimmed()
    N = max(c.degree, 1)
    deriv = PolyCoeffs(np.arange(len(c.coeffs)) * c.coeffs)
    lhs = max_abs_circle(deriv)
    rhs = N * max_abs_circle(c)
    return lhs <= rhs * (1.0 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# Qubitization: the walk operator's eigenpairs in closed form.
# ---------------------------------------------------------------------------

class DegenerateBranchError(ValueError):
    """Operation needs a non-degenerate qubitized pair."""


class NearDegenerateWarning(UserWarning):
    """sin(gamma) too small for the closed-form eigenvectors."""


def reflection(Pi: np.ndarray) -> np.ndarray:
    """-(I - 2 Pi Pi^dag): +1 on the range of Pi, -1 on its complement."""
    Pi = np.asarray(Pi, dtype=complex)
    M = Pi.shape[0]
    return 2.0 * (Pi @ Pi.conj().T) - np.eye(M)


@dataclasses.dataclass(frozen=True)
class QubitizedPair:
    """Walk-operator eigendata sourced from one eigenvalue of A/alpha.

    Non-degenerate pairs carry two eigenvectors with eigenvalues
    e^{+i gamma}, e^{-i gamma}; the degenerate branch (gamma in {0, pi})
    carries a single vector, and `degenerate` reads that count.
    """

    gamma: float
    eigvals: tuple
    eigvecs: tuple

    @property
    def degenerate(self) -> bool:
        return len(self.eigvecs) == 1


def qubitized_eigenpairs(e: HermitianEncoding) -> list[QubitizedPair]:
    """Walk-operator eigenpairs derived from the eigenpairs of A/alpha.

    For each eigenpair (x, v) of A/alpha with gamma = arccos(x), the vectors
    (e^{+-i gamma} I - U) Pi v / (sqrt(2) sin gamma) are eigenvectors of
    R_Pi U with eigenvalues e^{+-i gamma}; when x = +-1 the single vector
    Pi v is kept with eigenvalue x.
    """
    vals, vecs = np.linalg.eigh(encoded_matrix(e))
    U, Pi = e.U, e.Pi
    pairs = []
    for x, v in zip(vals, vecs.T):
        x = float(np.clip(x, -1.0, 1.0))
        gamma = math.acos(x)
        pv = Pi @ v
        if abs(math.sin(gamma)) < 1e-6:
            warnings.warn(
                f"sin(gamma)={math.sin(gamma):.2e}; using the degenerate "
                "single-vector branch", NearDegenerateWarning, stacklevel=2)
            pairs.append(QubitizedPair(gamma, (complex(x),), (pv,)))
            continue
        norm = math.sqrt(2.0) * math.sin(gamma)
        plus = (np.exp(1j * gamma) * pv - U @ pv) / norm
        minus = (np.exp(-1j * gamma) * pv - U @ pv) / norm
        pairs.append(QubitizedPair(
            gamma, (np.exp(1j * gamma), np.exp(-1j * gamma)), (plus, minus)))
    return pairs


def coding_subspace_decomposition(pair: QubitizedPair) -> np.ndarray:
    """Recover Pi v from the eigenvector pair: (v_plus - v_minus)/(sqrt(2) i)."""
    if pair.degenerate:
        raise DegenerateBranchError(
            "decomposition needs a non-degenerate pair")
    plus, minus = pair.eigvecs
    return (plus - minus) / (math.sqrt(2.0) * 1j)


def controlled_walk(e: HermitianEncoding, decomposed: bool = False) -> np.ndarray:
    """|0><0| (x) R_Pi U + |1><1| (x) I on control (x) system.

    With decomposed=True the same matrix is assembled from three factors:
    anti-controlled U, the projector-controlled reflection
    I - 2|0><0| (x) Pi Pi^dag, and -Z on the control.  Both forms agree to
    float roundoff.
    """
    M = e.M
    eyeM = np.eye(M)
    if not decomposed:
        W = walk_operator(e)
        return np.block([[W, np.zeros((M, M))], [np.zeros((M, M)), eyeM]])
    anti_U = np.block([[e.U, np.zeros((M, M))], [np.zeros((M, M)), eyeM]])
    P = e.Pi @ e.Pi.conj().T
    ctrl_refl = np.eye(2 * M) - 2.0 * np.block(
        [[P, np.zeros((M, M))], [np.zeros((M, M)), np.zeros((M, M))]])
    minus_Z = np.kron(np.diag([-1.0, 1.0]), eyeM)
    return ctrl_refl @ minus_Z @ anti_U


# ---------------------------------------------------------------------------
# Circuits: the same transformation assembled another way.
# ---------------------------------------------------------------------------

def gqsp_layers(ph: PhaseFactors, U: np.ndarray,
                columns: np.ndarray) -> np.ndarray:
    """The gqsp_matrix layer loop on all of U, with no checks: each layer
    multiplies the top M-row half of the stack by U and mixes the halves
    entry-wise with the rotation.  The kernel runs a U of exact block
    structure as two half-size blocks, and any other U by this arithmetic."""
    U = np.asarray(U, dtype=complex)
    M = len(U)
    out = np.array(columns, dtype=complex)
    top, bot = out[:M], out[M:]
    Utop, tmp = np.empty_like(top), np.empty_like(top)
    for k in range(ph.degree + 1):
        if k:
            np.matmul(U, top, out=Utop)
        else:
            Utop[...] = top
        r = rotation_matrix(ph.thetas[k], ph.phis[k], 0.0 if k else ph.lam)
        np.multiply(Utop, r[0, 0], out=top)
        top += np.multiply(bot, r[0, 1], out=tmp)
        bot *= r[1, 1]
        bot += np.multiply(Utop, r[1, 0], out=tmp)
    return out


def gqsp_every_layer(ph: PhaseFactors, U: np.ndarray,
                     columns: np.ndarray) -> np.ndarray:
    """The gqsp_matrix layer loop on the blocks of `_nonzero_blocks`, with
    no checks, rotating every layer: the kernel skips the rotations of
    theta = phi = 0 layers of the other parity than d and must give this
    stack bit for bit (up to the signs of zeros)."""
    out = np.array(columns, dtype=complex, order="C")
    blocks, structure = _nonzero_blocks(np.asarray(U, dtype=complex))
    top, bot = out.reshape((2,) + blocks.shape[:-1] + out.shape[1:])
    operand = top[::-1] if structure == "off-diagonal" else top
    Utop, tmp = np.empty_like(top), np.empty_like(top)
    if structure == "commuting":
        x0, x1 = out.reshape(2, 2, out.size // 4).swapaxes(0, 1)
        ix1 = np.multiply(x1, 1j, out=tmp.reshape(x1.shape))
        np.add(x0, ix1, out=x1)
        x0 -= ix1
        out *= math.sqrt(0.5)
    for k in range(ph.degree + 1):
        if k:
            np.matmul(blocks, operand, out=Utop)
        else:
            Utop[...] = top
        r = rotation_matrix(ph.thetas[k], ph.phis[k], 0.0 if k else ph.lam)
        np.multiply(Utop, r[0, 0], out=top)
        top += np.multiply(bot, r[0, 1], out=tmp)
        bot *= r[1, 1]
        bot += np.multiply(Utop, r[1, 0], out=tmp)
    if structure == "commuting":
        diff = np.subtract(x0, x1, out=tmp.reshape(x1.shape))
        x0 += x1
        np.multiply(diff, 1j, out=x1)
        out *= math.sqrt(0.5)
    return out


def gqet_absorbed_matrix(e: HermitianEncoding,
                         ph: PhaseFactors) -> np.ndarray:
    """The gqet circuit with the walk reflection folded into the rotations.

    Each anti-controlled walk factor splits as
    (I - 2|0><0| (x) Pi Pi^dag) * (-Z (x) I) * anti-controlled-U, and the
    -Z on the ancilla is absorbed into the rotation to its right by the
    shift phi -> phi + pi (every rotation except the last one).  What is
    left of a layer is block_diag((I - 2 Pi Pi^dag) U, I) = block_diag(-W, I).
    """
    shift = np.where(np.arange(ph.degree + 1) < ph.degree, math.pi, 0.0)
    W = walk_operator(e)
    return gqsp_matrix(PhaseFactors(ph.thetas, ph.phis + shift, ph.lam),
                       -W, np.eye(2 * len(W)))


def qsvt_equivalence_check(e, phis: np.ndarray) -> tuple[bool, float]:
    """Alternating-U/U^dag circuit vs its two-register Hermitianized form.

    The Hermitianized circuit is `_qsvt_circuit` run on `hermitianize(e)`,
    on flag (x) direction (x) system: U_bar = [[0, U], [U^dag, 0]] toggles
    the direction qubit, so with it initialized to |1> the phase rotations
    controlled by Pi_bar Pi_bar^dag see Pi_R and Pi_L alternately and the
    whole circuit reduces to the same kernel run on e.  Returns
    (pass, residual) where the residual compares the full circuit
    restricted to the deterministic direction track against the reduced
    circuit, at 1e-10.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    M = e.M
    # Direction |1> in; out on |1> after an even number of toggles, else |0>.
    track_in = np.eye(2 * M)[:, M:]
    track_out = track_in if len(phis) % 2 == 0 else np.eye(2 * M)[:, :M]
    E_in = np.kron(np.eye(2), track_in)
    E_out = np.kron(np.eye(2), track_out)
    full = _qsvt_circuit(phis, hermitianize(e), E_in)
    reduced = _qsvt_circuit(phis, e, np.eye(2 * M))
    residual = float(np.linalg.norm(full - E_out @ reduced, 2))
    return residual <= 1e-10, residual


# ---------------------------------------------------------------------------
# Remez: the alternation pick as a loop over the candidates.
# ---------------------------------------------------------------------------

def remez_alternation(err: np.ndarray, count: int) -> np.ndarray:
    """The loop `polynomials._alternation` replaces: walk the local extrema
    and endpoints of err, keep one point per run of equal sign (the first
    of largest |err|), then drop the end of smaller |err| (the last one on
    a tie) while more than `count` remain."""
    sign_change = np.diff(np.sign(np.diff(err)))
    interior = np.nonzero(sign_change != 0)[0] + 1
    cand = np.unique(np.concatenate(([0], interior, [len(err) - 1])))
    pts, vals = [], []
    for i in cand:
        if pts and np.sign(err[i]) == np.sign(vals[-1]):
            if abs(err[i]) > abs(vals[-1]):
                pts[-1], vals[-1] = i, err[i]
        else:
            pts.append(i)
            vals.append(err[i])
    while len(pts) > count:
        drop = 0 if abs(vals[0]) < abs(vals[-1]) else len(pts) - 1
        pts.pop(drop)
        vals.pop(drop)
    return np.array(pts, dtype=int)
