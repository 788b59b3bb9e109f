"""Polynomial transformations of encoded matrices as explicit circuits.

Builds the eigenvalue-transformation circuit for Hermitian encodings and the
two singular-value-transformation routes (Hermitianization, and the
one-extra-qubit product encoding of A^dag A with a square-root-substituted
polynomial), extracts transformed blocks through named isometries, simulates
end-only and mid-circuit postselection, and provides independent
eigendecomposition/SVD oracles for every construction.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .encodings import (
    HermitianEncoding,
    ProjectedUnitaryEncoding,
    _block,
    _block_product,
    _freeze,
    _walk_defect,
    hermitianize,
    multiply,
    walk_operator,
)
from .phases import (
    VALIDATION_TOL,
    PhaseFactors,
    _column_defect,
    gqsp_matrix,
    rescale_to_margin,
    solve_phases,
)
from .polynomials import (
    NumericalError,
    PolyCoeffs,
    definite_parity,
    eval_cheb,
    sqrt_substitute_even,
    sqrt_substitute_odd,
)

__all__ = [
    "CircuitProduct",
    "PostselectOutcome",
    "ZeroProbabilityError",
    "gqet",
    "eigen_oracle",
    "svt_oracle",
    "gqsvt_hermitianization",
    "extract_svt",
    "gqsvt_multiplication",
    "simulate_postselect",
]


class ZeroProbabilityError(NumericalError):
    """Postselection success probability numerically zero."""
    stage = "postselection"


class _Operator:
    """A unitary circuit C as a map on column stacks, the only way C is read.

    ``C @ X`` returns C X from ``apply(X)`` without forming C.  Each distinct
    stack is pushed once: the result is checked to keep the Gram matrix of
    X (||Y^dag Y - X^dag X||_F <= VALIDATION_TOL * dim; NumericalError
    otherwise, as the circuit is the lab's), frozen and memoised by the
    content of X, so routes that read the same columns share one push.  The
    dense C is ``C @ np.eye(dim)``, under the same check.
    """

    def __init__(self, apply, dim: int):
        self._apply = apply
        self.shape = (dim, dim)
        self._pushed: list[tuple[np.ndarray, np.ndarray]] = []

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        for X0, Y0 in self._pushed:
            if X0.shape == X.shape and np.array_equal(X0, X):
                return Y0
        Y = np.asarray(self._apply(X), dtype=complex)
        defect = _column_defect(Y, X)
        if not defect <= VALIDATION_TOL * self.shape[0]:
            raise NumericalError(f"pushed columns are off isometric by "
                                 f"{defect:.3e}, above {VALIDATION_TOL:g} * "
                                 f"{self.shape[0]}")
        Y.flags.writeable = False
        self._pushed.append((_freeze(X), Y))
        return Y


@dataclasses.dataclass(frozen=True, eq=False, kw_only=True)
class CircuitProduct:
    """Transformation circuit as an operator, plus bookkeeping.

    ``poly`` is the polynomial the circuit applies through its default
    extraction: the input times ``scale_applied``, on every route.
    ``operator`` applies the circuit to column stacks (``cp.operator @ X``),
    and is the only way the circuit is read.  ``extraction`` maps names to
    (E_L, E_R) isometry pairs on the circuit space.  ``stages`` declare the
    mid-circuit measurement decomposition as (unitary, E_L, E_R) triples in
    the same order, each unitary an operator or a checked matrix, run first
    to last; their unnormalized composition equals the default extraction.
    ``stages=None`` is one stage: the circuit read through the default
    extraction.  Products compare by identity; `dataclasses.replace`
    relabels one and keeps its operator, so the columns it pushed and the
    checks they passed serve both.
    """

    operator: _Operator
    queries_U: int
    queries_U_dagger: int
    degree: int
    route: str
    scale_applied: float
    extraction: dict
    poly: PolyCoeffs
    phases: PhaseFactors | None = None
    stages: tuple | None = None

    def metadata(self) -> dict:
        return {
            "scale_applied": self.scale_applied,
            "queries_U": self.queries_U,
            "queries_U_dagger": self.queries_U_dagger,
            "degree": self.degree,
            "route": self.route,
        }


@dataclasses.dataclass(frozen=True)
class PostselectOutcome:
    """The renormalized output and the probability of each stage."""

    conditioned: np.ndarray
    stage_probs: tuple

    @property
    def success_prob(self) -> float:
        return float(np.prod(self.stage_probs))


def gqet(e: HermitianEncoding, c: PolyCoeffs) -> CircuitProduct:
    """Eigenvalue transformation: block-applies p(A/alpha) = sum a_n T_n(A/alpha).

    The circuit is the signal-processing chain run on the qubitized walk
    operator; extraction isometry |0> (x) Pi on both sides.  Polynomials are
    scaled by `rescale_to_margin` first (scale recorded in metadata).  The
    kernel's checks read the walk's defect from e when it follows from it.
    """
    c, scale = rescale_to_margin(c)
    ph = solve_phases(c)
    W = walk_operator(e)
    defect = _walk_defect(e)  # None: the kernel measures W
    E = np.vstack([e.Pi, np.zeros_like(e.Pi)])  # |0> (x) Pi
    # gqsp_matrix is looked up at each push, so a rebound kernel is the one
    # that runs.
    op = _Operator(lambda X: gqsp_matrix(ph, W, columns=X, defect=defect),
                   2 * len(W))
    return CircuitProduct(
        operator=op, queries_U=ph.degree, queries_U_dagger=0,
        degree=ph.degree, route="gqet", scale_applied=scale,
        extraction={"default": (E, E)}, poly=c, phases=ph)


def eigen_oracle(A: np.ndarray, alpha: float, c: PolyCoeffs,
                 eig: tuple | None = None) -> np.ndarray:
    """Reference p(A/alpha) from a dense eigendecomposition.  ``eig`` is
    `np.linalg.eigh(A)` when the caller already holds it."""
    if eig is None:
        eig = np.linalg.eigh(np.asarray(A, dtype=complex))
    vals, vecs = eig
    pv = eval_cheb(c, np.clip(vals / alpha, -1.0, 1.0))
    return (vecs * pv) @ vecs.conj().T


def svt_oracle(A: np.ndarray, alpha: float, c: PolyCoeffs,
               svd: tuple | None = None) -> np.ndarray:
    """Reference singular-value transformation from a dense SVD, in the
    form of the parity of c (`definite_parity`; the zero polynomial is even).

    odd:  sum over singular triples of p(s_i/alpha) u_i v_i^dag  (N_L x N_R);
    even: right-singular-vector form V^dag-conjugated diagonal  (N_R x N_R),
    with p(0) on the padding entries.
    ``svd`` is the full SVD (u, s, vh) of A/alpha when the caller already
    holds it, so oracles of several polynomials for one A share one
    decomposition.
    """
    parity = definite_parity(c)
    if svd is None:
        A = np.atleast_2d(np.asarray(A, dtype=complex))
        svd = np.linalg.svd(A / alpha, full_matrices=True)
    u, s, vh = svd
    N_L, N_R = len(u), len(vh)
    k = len(s)
    ps = eval_cheb(c, np.clip(s, -1.0, 1.0))
    if parity == "odd":
        D = np.zeros((N_L, N_R), dtype=complex)
        D[:k, :k] = np.diag(ps)
        return u @ D @ vh
    pad = complex(eval_cheb(c, 0.0))
    diag = np.full(N_R, pad, dtype=complex)
    diag[:k] = ps
    return vh.conj().T @ np.diag(diag) @ vh


def gqsvt_hermitianization(e: ProjectedUnitaryEncoding,
                           c: PolyCoeffs) -> CircuitProduct:
    """Singular-value transformation by eigen-transforming [[0, A], [A^dag, 0]].

    Costs d controlled applications of U and d of U^dag; the extracted
    (N_L + N_R)-dimensional block carries the odd part off-diagonally and the
    even part on the diagonal.
    """
    cp = gqet(hermitianize(e), c)
    # Named sub-extractions: the Pi_L and Pi_R columns of the default one.
    top, bot = np.hsplit(cp.extraction["default"][0], [e.N_L])
    extraction = dict(cp.extraction, odd=(top, bot), even=(bot, bot),
                      upper_left=(top, top))
    if e.N_L == e.N_R:
        sym = (top + bot) / math.sqrt(2.0)
        extraction["hermitian_full"] = (sym, sym)
    return dataclasses.replace(
        cp, queries_U_dagger=cp.degree, route="gqsvt-hermitianization",
        extraction=extraction)


def extract_svt(cp: CircuitProduct, which: str = "default") -> np.ndarray:
    """Apply the named left/right isometries of a circuit ('default': the
    route's own).  For Hermitianization, which='odd' gives the odd-part block
    p_odd(A/alpha); 'even' the right-singular even block; 'hermitian_full' the
    symmetrized isometry that returns the full p(A/alpha) for Hermitian A
    (square encodings only).
    """
    if which not in cp.extraction:
        if which == "hermitian_full":
            raise ValueError(
                "hermitian_full extraction needs N_L == N_R")
        raise ValueError(f"unknown extraction {which!r}; "
                         f"have {sorted(cp.extraction)}")
    return _block(cp.operator, *cp.extraction[which])


def gqsvt_multiplication(e: ProjectedUnitaryEncoding, c: PolyCoeffs
                         ) -> tuple[CircuitProduct, PostselectOutcome]:
    """Singular-value transformation via the A^dag A product encoding.

    The one-extra-qubit product of (U^dag, Pi_R, Pi_L) and (U, Pi_L, Pi_R)
    encodes A^dag A / alpha^2 with matching isometries, so it supports an
    eigenvalue transformation by q, where q(y^2) = p_even(y) (even c) or
    y q(y^2) = p_odd(y) (odd c), the parity read by `definite_parity`.  Odd
    polynomials need one final application of A/alpha, realized by
    composing with the original encoding; the returned stages declare the
    matching mid-circuit measurement point.
    Query count: 2*floor(d/2) applications of U/U^dag, plus 1 for odd.
    q is rescaled in `gqet`, so the circuit applies c times that scale
    (``poly``); the block is named by its parity as well as ``default``.
    """
    parity = definite_parity(c)
    d = c.degree
    q = sqrt_substitute_even(c) if parity == "even" else sqrt_substitute_odd(c)

    he = multiply(e.adjoint(), e)  # a HermitianEncoding of A^dag A / alpha^2

    cp_q = gqet(he, q)
    dq = cp_q.degree
    K = cp_q.extraction["default"][0]
    poly = c.scaled(cp_q.scale_applied)

    if parity == "even":
        cp = dataclasses.replace(
            cp_q, queries_U_dagger=dq, degree=d, route="gqsvt-multiplication",
            poly=poly, extraction={"default": (K, K), "even": (K, K)})
        out = simulate_postselect(cp, schedule="end-only")
        return cp, out

    # Odd: left-multiply by A/alpha.  The end-only circuit is the product
    # encoding of (original e) with the transformation circuit viewed as an
    # encoding; the staged form measures the flags before the final U.
    # Either reads the transformation circuit only through K.
    apply, Pi_L, Pi_R = _block_product(e.U, e.Pi_L, e.Pi_R, cp_q.operator,
                                       K, K)
    stages = ((cp_q.operator, K, K), (e.U, e.Pi_L, e.Pi_R))
    cp = CircuitProduct(
        operator=_Operator(apply, len(Pi_R)), queries_U=dq + 1,
        queries_U_dagger=dq,
        degree=d, route="gqsvt-multiplication",
        scale_applied=cp_q.scale_applied,
        extraction={"default": (Pi_L, Pi_R), "odd": (Pi_L, Pi_R)},
        poly=poly, phases=cp_q.phases, stages=stages)
    out = simulate_postselect(cp, schedule="measure-early")
    return cp, out


def simulate_postselect(cp: CircuitProduct, input: np.ndarray | None = None,
                        schedule: str = "end-only") -> PostselectOutcome:
    """Project flag registers to |0>, renormalize, report success probability.

    ``input`` lives in the coded input space (a state vector, or a matrix /
    isometry of coded inputs processed with Frobenius-norm semantics, with
    n_in rows; ValueError for any other shape or a zero norm); omitted,
    the identity isometry is used.  end-only runs the circuit as one stage
    and projects once; measure-early walks the declared stages, projecting and
    renormalizing after each.  Both yield the same conditioned output and
    the same total probability because the unnormalized stage composition
    equals the end-only extracted block; a circuit with ``stages=None`` is
    one stage under either schedule.  A stage pushes only its E_R through
    its unitary and applies the input to the block that reads.
    """
    E_L, E_R = cp.extraction["default"]
    n_in = E_R.shape[1]
    if input is None:
        x0 = np.eye(n_in, dtype=complex)
    else:
        x0 = np.asarray(input, dtype=complex)
        if x0.ndim not in (1, 2) or x0.shape[0] != n_in:
            raise ValueError(f"input of shape {x0.shape} is not a vector or "
                             f"matrix with {n_in} rows")
    norm0 = np.linalg.norm(x0)
    if norm0 < 1e-14:
        raise ValueError("input has zero norm")

    if schedule not in ("end-only", "measure-early"):
        raise ValueError(f"unknown schedule {schedule!r}")
    stages = (cp.stages if schedule == "measure-early" and cp.stages
              else ((cp.operator, E_L, E_R),))
    y = x0
    probs = []
    prev = norm0
    for stage in stages:
        y = _block(*stage) @ y
        cur = np.linalg.norm(y)
        probs.append(float(cur ** 2 / prev ** 2) if prev > 0 else 0.0)
        prev = cur
    p = float(np.prod(probs))

    if p < 1e-14:
        raise ZeroProbabilityError(
            f"success probability {p:.3e} below 1e-14")
    ny = np.linalg.norm(y)
    return PostselectOutcome(conditioned=y / ny, stage_probs=tuple(probs))


def _qsvt_circuit(phis: np.ndarray, e: ProjectedUnitaryEncoding,
                  columns: np.ndarray) -> np.ndarray:
    """The alternating-phase circuit H prod_i (U_i G_i Rz(phi_i) G_i) H on
    flag (x) system, applied to a 2M x k column stack.

    U_i runs U, U^dag, U, ... and G_i is the flag X controlled by
    Pi_R Pi_R^dag, Pi_L Pi_L^dag, ...  G Rz(phi) G is Rz(-phi) on the
    projector's range and Rz(phi) off it, so a layer is a phase on each flag
    half, a rank-N correction through the isometry, and U_i applied to both
    halves at once: the stack is kept as one M x 2k block [top, bot].
    """
    M = e.M
    X = np.asarray(columns, dtype=complex)
    k = X.shape[1]
    Y = np.hstack([X[:M] + X[M:], X[:M] - X[M:]]) / math.sqrt(2.0)
    layers = ((e.U, e.Pi_R), (e.U.conj().T, e.Pi_L))
    for i, phi in enumerate(phis):
        U, Pi = layers[i % 2]
        r = np.repeat([np.exp(-0.5j * phi), np.exp(0.5j * phi)], k)
        Y = U @ (Y * r + Pi @ ((Pi.conj().T @ Y) * (r.conj() - r)))
    return np.vstack([Y[:, :k] + Y[:, k:], Y[:, :k] - Y[:, k:]]) / math.sqrt(2.0)
