"""Projected unitary encodings as explicit dense matrices.

An encoding is a unitary U together with isometries Pi_L, Pi_R and a scale
alpha such that Pi_L^dag U Pi_R = A/alpha.  This module constructs encodings
from plain matrices (dilation), qubitizes Hermitian encodings into walk
operators, and combines encodings (Hermitianization, product with one extra
qubit).  Dimensions are exact — no power-of-two padding is required.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .phases import VALIDATION_TOL, _coordinate_rows, _unitary_defect

__all__ = [
    "ProjectedUnitaryEncoding",
    "HermitianEncoding",
    "EncodingValidationError",
    "SubnormalizationError",
    "dilate_hermitian",
    "dilate_general",
    "walk_operator",
    "hermitianize",
    "multiply",
]


class EncodingValidationError(ValueError):
    """One or more encoding invariants violated; message lists them."""


class SubnormalizationError(ValueError):
    """alpha smaller than the spectral norm of the matrix to encode."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex).copy()
    a.flags.writeable = False
    return a


def _block(U, E_L: np.ndarray, E_R: np.ndarray) -> np.ndarray:
    """E_L^dag U E_R, the one block reader.  U is a matrix or an operator on
    column stacks (anything with `@`); an operator is applied to E_R only.
    A coordinate isometry is read by index (`_coordinate_rows`): E_L^dag Y
    is the rows r_L of Y, and a matrix U times E_R its columns r_R, with
    the same values as the products."""
    r_L, coordinate_L = _coordinate_rows(E_L)
    r_R, coordinate_R = _coordinate_rows(E_R)
    Y = (U[:, r_R] if coordinate_R and isinstance(U, np.ndarray)
         else U @ E_R)
    return Y[r_L] if coordinate_L else E_L.conj().T @ Y


def _validate_core(U, Pi_L, Pi_R, alpha, hermitian: bool,
                   ) -> tuple[list[str], tuple]:
    """The problems of an encoding ([] when it holds to tolerance), and the
    Gram defects it measured: (delta_U, delta_L, delta_R).

    The block norm needs no SVD when the defects already measured settle
    it: with delta_U = ||U^dag U - I||_F and delta_L, delta_R the isometry
    defects ||Pi^dag Pi - I||_F (each bounds the spectral defect),

        ||Pi_L^dag U Pi_R||_2 <= sqrt((1 + delta_U)(1 + delta_L)(1 + delta_R)),

    which is at most 1 + 0.5e-9 + O(1e-18) once delta_U + delta_L + delta_R
    <= 1e-9.  Otherwise the SVD runs, so the verdict is the SVD's either way.
    """
    problems = []
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        problems.append(f"U is {U.shape}, not square")
        return problems, ()
    M = U.shape[0]
    defects = [_unitary_defect(U)]
    if not defects[0] <= VALIDATION_TOL * max(M, 1):
        problems.append(f"U is not unitary to {VALIDATION_TOL:g} * {M}")
    if hermitian and np.linalg.norm(U - U.conj().T) > VALIDATION_TOL * max(M, 1):
        problems.append(f"U is not Hermitian to {VALIDATION_TOL:g} * {M}")
    for name, Pi in (("Pi_L", Pi_L), ("Pi_R", Pi_R)):
        if Pi.ndim != 2:
            problems.append(f"{name} is {Pi.ndim}-D, not 2-D")
            continue
        if Pi.shape[0] != M:
            problems.append(f"{name} has {Pi.shape[0]} rows, expected {M}")
            continue
        # a coordinate Pi has Pi^dag Pi = I exactly
        defects.append(0.0 if _coordinate_rows(Pi)[1] else float(
            np.linalg.norm(Pi.conj().T @ Pi - np.eye(Pi.shape[1]))))
        if defects[-1] > VALIDATION_TOL:
            problems.append(f"{name} is not an isometry to 1e-10")
    if not 0 < alpha < math.inf:
        problems.append("alpha must be positive and finite")
    if not problems and not sum(defects) <= 1e-9:
        if np.linalg.norm(_block(U, Pi_L, Pi_R), 2) > 1 + 1e-9:
            problems.append("encoded matrix has spectral norm above 1 + 1e-9")
    return problems, tuple(defects)


@dataclasses.dataclass(frozen=True)
class ProjectedUnitaryEncoding:
    """U with Pi_L^dag U Pi_R = A/alpha.

    `defects` holds (delta_U, delta_L, delta_R): the Gram defects
    ||U^dag U - I||_F, ||Pi_L^dag Pi_L - I||_F and ||Pi_R^dag Pi_R - I||_F
    that the check at construction measured, or, for an encoding derived
    from a checked one (`adjoint`, `hermitianize`), the values that follow
    exactly from the checked one's.  Each unitary is measured once, and
    what is built from it reads the measurement."""

    U: np.ndarray
    Pi_L: np.ndarray
    Pi_R: np.ndarray
    alpha: float
    defects: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        U = _freeze(self.U)
        Pi_L = _freeze(self.Pi_L)
        Pi_R = _freeze(self.Pi_R)
        problems, defects = _validate_core(U, Pi_L, Pi_R, self.alpha,
                                           isinstance(self, HermitianEncoding))
        if problems:
            raise EncodingValidationError("; ".join(problems))
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Pi_L", Pi_L)
        object.__setattr__(self, "Pi_R", Pi_R)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "defects", defects)

    def adjoint(self) -> ProjectedUnitaryEncoding:
        """(U^dag, Pi_R, Pi_L, alpha), encoding A^dag/alpha, with no check of
        its own: for square U, ||U U^dag - I||_F = ||U^dag U - I||_F, the
        isometries are the same pair swapped and the encoded block has the
        same spectral norm, so the check of this encoding covers it."""
        delta_U, delta_L, delta_R = self.defects
        return _derived(type(self), _freeze(self.U.conj().T), self.Pi_R,
                        self.Pi_L, self.alpha, (delta_U, delta_R, delta_L))

    @property
    def M(self) -> int:
        return self.U.shape[0]

    @property
    def N_L(self) -> int:
        return self.Pi_L.shape[1]

    @property
    def N_R(self) -> int:
        return self.Pi_R.shape[1]


@dataclasses.dataclass(frozen=True, init=False)
class HermitianEncoding(ProjectedUnitaryEncoding):
    """U Hermitian; one isometry Pi, given once, is both Pi_L and Pi_R."""

    def __init__(self, U: np.ndarray, Pi: np.ndarray, alpha: float):
        super().__init__(U, Pi, Pi, alpha)

    @property
    def Pi(self) -> np.ndarray:
        return self.Pi_L


def _derived(cls, U, Pi_L, Pi_R, alpha, defects):
    """An encoding of type `cls` from read-only parts, with no check of its
    own.  The caller derives it from a checked encoding and passes the
    defects that follow exactly from that encoding's, so the check would
    measure the same values and give the same verdict."""
    enc = object.__new__(cls)
    for name, value in (("U", U), ("Pi_L", Pi_L), ("Pi_R", Pi_R),
                        ("alpha", alpha), ("defects", defects)):
        object.__setattr__(enc, name, value)
    return enc


def _selector(M: int, N: int) -> np.ndarray:
    """Isometry onto the first N coordinates of dimension M."""
    Pi = np.zeros((M, N), dtype=complex)
    Pi[:N, :N] = np.eye(N)
    return Pi


def _check_alpha(alpha: float, norm: float = 0.0):
    """SubnormalizationError unless 0 < alpha < inf, alpha >= norm - 1e-12."""
    if not 0 < alpha < math.inf:
        raise SubnormalizationError(
            f"alpha={alpha} must be positive and finite")
    if alpha < norm - 1e-12:
        raise SubnormalizationError(
            f"alpha={alpha} below spectral norm {norm}")


def dilate_hermitian(A: np.ndarray, alpha: float) -> HermitianEncoding:
    """Hermitian unitary [[A/a, S], [S, -A/a]] with S = sqrt(I - (A/a)^2).

    S is assembled from the eigendecomposition of A/a itself (eigenvalues
    clamped to [-1, 1]) so that (A/a)^2 + S^2 = I and [A/a, S] = 0 hold to
    roundoff even when eigenvalues of A/a sit exactly at +-1.  ||A|| is
    alpha * max |w| from that same decomposition.
    """
    A = np.asarray(A, dtype=complex)
    N = A.shape[0]
    if A.shape != (N, N) or np.linalg.norm(A - A.conj().T) > 1e-10 * max(N, 1):
        raise EncodingValidationError("A must be square Hermitian to 1e-10")
    _check_alpha(alpha)
    w, V = np.linalg.eigh(A / alpha)
    _check_alpha(alpha, alpha * np.max(np.abs(w)))
    w = np.clip(w, -1.0, 1.0)
    B = (V * w) @ V.conj().T
    S = (V * np.sqrt(1.0 - w ** 2)) @ V.conj().T
    U = np.block([[B, S], [S, -B]])
    return HermitianEncoding(U, _selector(2 * N, N), alpha)


def dilate_general(A: np.ndarray, alpha: float) -> ProjectedUnitaryEncoding:
    """Unitary completion of the contraction A/alpha; M = N_L + N_R.

    Cosine-sine construction from the full SVD B = W S V^dag:

        U = [[B, W C_L W^dag], [V C_R V^dag, -V S^T W^dag]],

    with C = sqrt(1 - s^2) on the singular directions (1 on the padding),
    so every block shares one factorization and U is unitary to roundoff;
    ||A|| is alpha * s_max from it.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    N_L, N_R = A.shape
    _check_alpha(alpha)
    B = A / alpha
    W, s, Vh = np.linalg.svd(B, full_matrices=True)
    _check_alpha(alpha, alpha * s[0])
    s = np.clip(s, 0.0, 1.0)
    c = np.sqrt(1.0 - s ** 2)
    cL = np.ones(N_L)
    cL[: len(s)] = c
    cR = np.ones(N_R)
    cR[: len(s)] = c
    V = Vh.conj().T
    Bc = (W[:, : len(s)] * s) @ Vh[: len(s), :]
    St = np.zeros((N_R, N_L))
    St[: len(s), : len(s)] = np.diag(s)
    U = np.block([
        [Bc, (W * cL) @ W.conj().T],
        [(V * cR) @ V.conj().T, -V @ St @ W.conj().T],
    ])
    return ProjectedUnitaryEncoding(
        U, _selector(N_L + N_R, N_L), _selector(N_L + N_R, N_R), alpha)


def walk_operator(e: HermitianEncoding) -> np.ndarray:
    """Qubitized operator R_Pi U = 2 Pi (Pi^dag U) - U.

    Only the rows r where Pi is nonzero change sign twice, so W is -U with
    rows r replaced by 2 Pi_r (Pi_r^dag U_r) - U_r: O(|r| N M).  For a
    coordinate isometry (Pi[r] = I) those rows are U[r] itself, so W is U
    with its other rows negated, copied with no product; it equals
    (2 Pi Pi^dag - I) @ U, and its Gram equals U's bit for bit, which is why
    gqet hands the kernel the encoding's defect (`_walk_defect`).
    """
    Pi, U = e.Pi, e.U
    r, coordinate = _coordinate_rows(Pi)
    W = -U
    W[r] = U[r] if coordinate else (
        2.0 * (Pi[r] @ (Pi[r].conj().T @ U[r])) - U[r])
    return W


def _walk_defect(e: HermitianEncoding) -> float | None:
    """||W^dag W - I||_F of W = walk_operator(e) when it follows from e's
    defect, else None.  For a coordinate Pi, W negates rows of U and so
    has U's Gram; any other Pi forms W by products, to be measured."""
    return e.defects[0] if _coordinate_rows(e.Pi)[1] else None


def hermitianize(e: ProjectedUnitaryEncoding) -> HermitianEncoding:
    """Embed A into the Hermitian [[0, A], [A^dag, 0]] at the same alpha.

    The result inherits the check of e, as `adjoint` does, and runs no Gram
    and no SVD.  U_bar = [[0, U], [U^dag, 0]] is Hermitian by construction,
    and U_bar^dag U_bar = diag(U U^dag, U^dag U), so its defect is
    sqrt(2) delta_U for square U.  Pi_bar = diag(Pi_L, Pi_R) has defect
    hypot(delta_L, delta_R), judged against the isometry tolerance here,
    and the encoded block has the norm of e's.
    """
    M = e.M
    Z = np.zeros((M, M))
    U_bar = np.block([[Z, e.U], [e.U.conj().T, Z]])
    Pi_bar = np.block([
        [e.Pi_L, np.zeros((M, e.N_R))],
        [np.zeros((M, e.N_L)), e.Pi_R],
    ])
    delta_U, delta_L, delta_R = e.defects
    delta_Pi = math.hypot(delta_L, delta_R)
    if delta_Pi > VALIDATION_TOL:
        raise EncodingValidationError("Pi is not an isometry to 1e-10")
    for a in (U_bar, Pi_bar):
        a.flags.writeable = False
    return _derived(HermitianEncoding, U_bar, Pi_bar, Pi_bar, e.alpha,
                    (math.sqrt(2.0) * delta_U, delta_Pi, delta_Pi))


def _padded(U, x: np.ndarray) -> np.ndarray:
    """(U (+) I) x: U acts on the leading rows only.  A stack that is zero
    there is returned as it is, so an operator never pushes zeros."""
    m = U.shape[0]
    if not x[:m].any():
        return x
    return np.vstack([U @ x[:m], x[m:]])


def _block_product(U1, Pi1_L, Pi1_R, U2, Pi2_L, Pi2_R):
    """(apply, Pi_L, Pi_R) of `multiply`, unchecked: apply(X) is U_bar X for
    a column stack X, so apply(I) is U_bar itself.

    Each U_i is padded by an identity summand to M = max(m1, m2) rows and
    applied to its own rows only.  It may be a matrix or an operator on
    column stacks (anything with `shape` and `@`).  For X = [x0; x1], with
    y_i = U2 x_i and w = Pi_{2,L}^dag y0 - Pi_{1,R}^dag y1,

        U_bar X = [U1 (y1 + Pi_{1,R} w); U1 (y0 - Pi_{2,L} w)],

    so U_bar X needs U2 applied to X and U1 applied to one stack of the
    same width, plus rank-N corrections.
    """
    m1, m2 = U1.shape[0], U2.shape[0]
    M = max(m1, m2)
    P1R, P2L = (np.pad(P, ((0, M - len(P)), (0, 0))) for P in (Pi1_R, Pi2_L))

    def apply(X):
        y0, y1 = _padded(U2, X[:M]), _padded(U2, X[M:])
        w = P2L.conj().T @ y0 - P1R.conj().T @ y1
        return np.vstack([_padded(U1, y1 + P1R @ w),
                          _padded(U1, y0 - P2L @ w)])

    return (apply, np.pad(Pi1_L, ((0, 2 * M - m1), (0, 0))),
            np.pad(Pi2_R, ((0, 2 * M - m2), (0, 0))))


def multiply(e1: ProjectedUnitaryEncoding,
             e2: ProjectedUnitaryEncoding) -> ProjectedUnitaryEncoding:
    """Encoding of A1 A2 / (alpha1 alpha2) with one extra qubit.

    U_bar = (I2 (x) U1) Omega (I2 (x) U2) where Omega transfers the range of
    Pi_{2,L} into the range of Pi_{1,R} on the |0> branch (and the adjoint on
    the |1> branch, with the orthogonal complements swapped across branches to
    stay unitary):

        Omega = [[V, I - P1], [I - P2, V^dag]],
        V = Pi_{1,R} Pi_{2,L}^dag,  P1 = Pi_{1,R} Pi_{1,R}^dag,
                                    P2 = Pi_{2,L} Pi_{2,L}^dag.

    When Pi_{1,R} = Pi_{2,L} this reduces to the projector-controlled-NOT
    form I2 (x) P + X (x) (I - P).  Extraction: Pi_bar = |0> (x) Pi_{1,L} /
    |0> (x) Pi_{2,R}.  Unitary dimension is 2*max(M1, M2): the smaller
    encoding is padded by an identity direct summand first.  When e1 is the
    adjoint of e2, U_bar is Hermitian and a HermitianEncoding is returned.

    For that adjoint pair on a coordinate isometry Pi = Pi_{1,R} = Pi_{2,L}
    with rows r, U_bar = [[G, H], [H, G]] with the two Grams
    G = U[r]^dag U[r] = U^dag P U and H = U[~r]^dag U[~r] = U^dag (I - P) U
    of U = U2: M^3 instead of the product's 8 M^3.  Any other pair is
    formed by `_block_product`.  Either way the result is checked at
    construction, so its defect is measured.
    """
    if e1.N_R != e2.N_L:
        raise ValueError(
            f"inner dimensions differ: {e1.N_R} (right of first) vs "
            f"{e2.N_L} (left of second)")
    adjoint = (e1.M == e2.M and np.array_equal(e1.Pi_L, e2.Pi_R)
               and np.array_equal(e1.Pi_R, e2.Pi_L)
               and np.array_equal(e1.U, e2.U.conj().T))
    alpha = e1.alpha * e2.alpha
    if adjoint:
        r, coordinate = _coordinate_rows(e2.Pi_L)
        if coordinate:
            other = np.ones(e2.M, dtype=bool)
            other[r] = False
            G, H = (X.conj().T @ X for X in (e2.U[r], e2.U[other]))
            return HermitianEncoding(np.block([[G, H], [H, G]]),
                                     np.pad(e2.Pi_R, ((0, e2.M), (0, 0))),
                                     alpha)
    apply, Pi_L, Pi_R = _block_product(e1.U, e1.Pi_L, e1.Pi_R,
                                       e2.U, e2.Pi_L, e2.Pi_R)
    U = apply(np.eye(len(Pi_L), dtype=complex))
    if adjoint:  # then Pi_L == Pi_R
        return HermitianEncoding(U, Pi_L, alpha)
    return ProjectedUnitaryEncoding(U, Pi_L, Pi_R, alpha)
