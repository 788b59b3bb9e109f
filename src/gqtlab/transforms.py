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
    VALIDATION_TOL,
    HermitianEncoding,
    ProjectedUnitaryEncoding,
    _block_product,
    _freeze,
    hermitianize,
    multiply,
    walk_operator,
)
from .phases import (
    PhaseFactors,
    _column_defect,
    _unitary_defect,
    gqsp_matrix,
    rescale_to_margin,
    solve_phases,
)
from .polynomials import (
    PolyCoeffs,
    check_parity,
    eval_cheb,
    sqrt_substitute_even,
    sqrt_substitute_odd,
)

__all__ = [
    "CircuitProduct",
    "PostselectOutcome",
    "ZeroProbabilityError",
    "gqet",
    "gqet_absorbed_matrix",
    "eigen_oracle",
    "svt_oracle",
    "gqsvt_hermitianization",
    "extract_svt",
    "gqsvt_multiplication",
    "simulate_postselect",
    "qsvt_equivalence_check",
]


class ZeroProbabilityError(RuntimeError):
    """Postselection success probability numerically zero."""


class _Operator:
    """A unitary circuit C as a map on column stacks.

    ``C @ X`` returns C X from ``apply(X)`` without forming C.  Each distinct
    stack is pushed once: the result is checked to keep the Gram matrix of
    X (||Y^dag Y - X^dag X||_F <= 1e-10 * dim), frozen and memoised by the
    content of X, so routes that read the same columns share one push.
    ``matrix`` is ``apply(None)``, formed on first access, checked unitary
    to 1e-10 * dim, frozen and cached.
    """

    def __init__(self, apply, dim: int):
        self._apply = apply
        self.shape = (dim, dim)
        self._matrix = None
        self._pushed: list[tuple[np.ndarray, np.ndarray]] = []

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = _freeze(self._apply(None))
            if not _unitary_defect(m) <= VALIDATION_TOL * max(len(m), 1):
                raise ValueError("circuit matrix is not unitary to 1e-10")
            self._matrix = m
        return self._matrix

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        for X0, Y0 in self._pushed:
            if X0.shape == X.shape and np.array_equal(X0, X):
                return Y0
        Y = np.asarray(self._apply(X), dtype=complex)
        defect = _column_defect(Y, X)
        if not defect <= VALIDATION_TOL * self.shape[0]:
            raise ValueError(f"pushed columns are off isometric by "
                             f"{defect:.3e}, above 1e-10 * {self.shape[0]}")
        Y.flags.writeable = False
        self._pushed.append((_freeze(X), Y))
        return Y


@dataclasses.dataclass(frozen=True, eq=False, kw_only=True)
class CircuitProduct:
    """Transformation circuit as an operator, plus bookkeeping.

    ``poly`` is the polynomial the circuit applies through its default
    extraction: the input times ``scale_applied``, on every route.
    ``operator`` applies the circuit to column stacks (``cp.operator @ X``);
    ``matrix`` is the dense circuit, formed only when read, checked unitary
    to 1e-10 * dimension and frozen.  ``extraction`` maps names to (left, right) isometry
    pairs on the circuit space; ``stages`` (when present) declare the
    mid-circuit measurement decomposition as (unitary, in_isometry,
    out_isometry) triples, each unitary an operator or a checked matrix,
    whose unnormalized composition equals the default extraction.
    Products compare by identity; `dataclasses.replace` relabels one and
    keeps its operator, so the columns it pushed and the checks they passed
    serve both.
    """

    operator: _Operator
    queries_U: int
    queries_U_dagger: int
    degree: int
    route: str
    scale_applied: float
    extraction: dict
    encoding: ProjectedUnitaryEncoding
    poly: PolyCoeffs
    phases: PhaseFactors | None = None
    stages: tuple | None = None

    @property
    def matrix(self) -> np.ndarray:
        return self.operator.matrix

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
    conditioned: np.ndarray
    success_prob: float
    stage_probs: tuple


def _ancilla_zero(iso: np.ndarray) -> np.ndarray:
    """|0> on a fresh leading qubit tensored with the given isometry."""
    return np.vstack([iso, np.zeros_like(iso)])


def gqet(e: HermitianEncoding, c: PolyCoeffs) -> CircuitProduct:
    """Eigenvalue transformation: block-applies p(A/alpha) = sum a_n T_n(A/alpha).

    The circuit is the signal-processing chain run on the qubitized walk
    operator; extraction isometry |0> (x) Pi on both sides.  Polynomials are
    scaled by `rescale_to_margin` first (scale recorded in metadata).
    """
    c = c if isinstance(c, PolyCoeffs) else PolyCoeffs(np.asarray(c))
    c, scale = rescale_to_margin(c)
    ph = solve_phases(c)
    W = walk_operator(e)
    E = _ancilla_zero(e.Pi)
    # gqsp_matrix is looked up at each push, so a rebound kernel is the one
    # that runs.
    op = _Operator(lambda X: gqsp_matrix(ph, W, columns=X), 2 * len(W))
    return CircuitProduct(
        operator=op, queries_U=ph.degree, queries_U_dagger=0,
        degree=ph.degree, route="gqet", scale_applied=scale,
        extraction={"default": (E, E)}, encoding=e, poly=c, phases=ph,
        stages=((op, E, E),))


def gqet_absorbed_matrix(e: HermitianEncoding,
                         ph: PhaseFactors) -> np.ndarray:
    """The same circuit with the walk reflection folded into the rotations.

    Each anti-controlled walk factor splits as
    (I - 2|0><0| (x) Pi Pi^dag) * (-Z (x) I) * anti-controlled-U, and the
    -Z on the ancilla is absorbed into the rotation to its right by the
    shift phi -> phi + pi (every rotation except the last one).  What is
    left of a layer is block_diag((I - 2 Pi Pi^dag) U, I) = block_diag(-W, I).
    """
    shift = np.where(np.arange(ph.degree + 1) < ph.degree, math.pi, 0.0)
    return gqsp_matrix(PhaseFactors(ph.thetas, ph.phis + shift, ph.lam),
                       -walk_operator(e))


def eigen_oracle(A: np.ndarray, alpha: float, c: PolyCoeffs) -> np.ndarray:
    """Reference p(A/alpha) from a dense eigendecomposition."""
    A = np.asarray(A, dtype=complex)
    vals, vecs = np.linalg.eigh(A)
    pv = eval_cheb(c, np.clip(vals / alpha, -1.0, 1.0))
    return (vecs * pv) @ vecs.conj().T


def svt_oracle(A: np.ndarray, alpha: float, c: PolyCoeffs,
               parity: str) -> np.ndarray:
    """Reference singular-value transformation from a dense SVD.

    odd:  sum over singular triples of p(s_i/alpha) u_i v_i^dag  (N_L x N_R);
    even: right-singular-vector form V^dag-conjugated diagonal  (N_R x N_R),
    with p(0) on the padding entries.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    check_parity(c, parity)
    u, s, vh = np.linalg.svd(A / alpha, full_matrices=True)
    N_L, N_R = A.shape
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
    h = hermitianize(e)
    cp = gqet(h, c)
    # Named sub-extractions into the Hermitianized block structure.
    M, N_L, N_R = e.M, e.N_L, e.N_R
    top = _ancilla_zero(np.vstack([e.Pi_L, np.zeros((M, N_L))]))
    bot = _ancilla_zero(np.vstack([np.zeros((M, N_R)), e.Pi_R]))
    extraction = dict(cp.extraction, odd=(top, bot), even=(bot, bot),
                      upper_left=(top, top))
    if N_L == N_R:
        sym = (top + bot) / math.sqrt(2.0)
        extraction["hermitian_full"] = (sym, sym)
    return dataclasses.replace(
        cp, queries_U_dagger=cp.degree, route="gqsvt-hermitianization",
        extraction=extraction, encoding=e)


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
    E_L, E_R = cp.extraction[which]
    return E_L.conj().T @ (cp.operator @ E_R)


def gqsvt_multiplication(e: ProjectedUnitaryEncoding, c: PolyCoeffs,
                         parity: str,
                         ) -> tuple[CircuitProduct, PostselectOutcome]:
    """Singular-value transformation via the A^dag A product encoding.

    The one-extra-qubit product of (U^dag, Pi_R, Pi_L) and (U, Pi_L, Pi_R)
    encodes A^dag A / alpha^2 with matching isometries, so it supports an
    eigenvalue transformation by q, where q(y^2) = p_even(y) (even input) or
    y q(y^2) = p_odd(y) (odd input).  Odd polynomials need one final
    application of A/alpha, realized by composing with the original encoding;
    the returned stages declare the matching mid-circuit measurement point.
    Query count: 2*floor(d/2) applications of U/U^dag, plus 1 for odd.
    q is rescaled in `gqet`, so the circuit applies c times that scale
    (``poly``); the block is named ``parity`` as well as ``default``.
    """
    c = c if isinstance(c, PolyCoeffs) else PolyCoeffs(np.asarray(c))
    check_parity(c, parity)
    d = c.degree
    q = sqrt_substitute_even(c) if parity == "even" else sqrt_substitute_odd(c)

    e_dag = ProjectedUnitaryEncoding(e.U.conj().T, e.Pi_R, e.Pi_L, e.alpha)
    he = multiply(e_dag, e)  # a HermitianEncoding of A^dag A / alpha^2

    cp_q = gqet(he, q)
    dq = cp_q.degree
    K = cp_q.extraction["default"][0]
    poly = c.scaled(cp_q.scale_applied)

    if parity == "even":
        cp = dataclasses.replace(
            cp_q, queries_U_dagger=dq, degree=d, route="gqsvt-multiplication",
            encoding=e, poly=poly,
            extraction={"default": (K, K), "even": (K, K)})
        out = simulate_postselect(cp, schedule="end-only")
        return cp, out

    # Odd: left-multiply by A/alpha.  The end-only circuit is the product
    # encoding of (original e) with the transformation circuit viewed as an
    # encoding; the staged form measures the flags before the final U.
    # Either reads the transformation circuit only through K.
    apply, Pi_L, Pi_R = _block_product(e.U, e.Pi_L, e.Pi_R, cp_q.operator,
                                       K, K)
    stages = ((cp_q.operator, K, K), (e.U, e.Pi_R, e.Pi_L))
    cp = CircuitProduct(
        operator=_Operator(apply, len(Pi_R)), queries_U=dq + 1,
        queries_U_dagger=dq,
        degree=d, route="gqsvt-multiplication",
        scale_applied=cp_q.scale_applied,
        extraction={"default": (Pi_L, Pi_R), "odd": (Pi_L, Pi_R)}, encoding=e,
        poly=poly, phases=cp_q.phases, stages=stages)
    out = simulate_postselect(cp, schedule="measure-early")
    return cp, out


def simulate_postselect(cp: CircuitProduct, input: np.ndarray | None = None,
                        schedule: str = "end-only") -> PostselectOutcome:
    """Project flag registers to |0>, renormalize, report success probability.

    ``input`` lives in the coded input space (a state vector, or a matrix /
    isometry of coded inputs processed with Frobenius-norm semantics);
    omitted, the identity isometry is used.  end-only runs the circuit as
    one stage and projects once; measure-early walks the declared stages,
    projecting and renormalizing after each.  Both yield the same conditioned
    output and the same total probability because the unnormalized stage
    composition equals the end-only extracted block.  A stage pushes only
    its input isometry through its unitary and applies the input to that.
    """
    E_L, E_R = cp.extraction["default"]
    n_in = E_R.shape[1]
    if input is None:
        x0 = np.eye(n_in, dtype=complex)
    else:
        x0 = np.asarray(input, dtype=complex)
        if x0.shape[0] != n_in:
            raise ValueError(f"input dimension {x0.shape[0]} != {n_in}")
    norm0 = np.linalg.norm(x0)
    if norm0 < 1e-14:
        raise ZeroProbabilityError("input has zero norm")

    if schedule == "end-only":
        stages = ((cp.operator, E_R, E_L),)
    elif schedule == "measure-early":
        if cp.stages is None:
            raise ValueError("circuit declares no mid-circuit flag point")
        stages = cp.stages
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    y = x0
    probs = []
    prev = norm0
    for U, E_in, E_out in stages:
        y = E_out.conj().T @ (U @ E_in) @ y
        cur = np.linalg.norm(y)
        probs.append(float(cur ** 2 / prev ** 2) if prev > 0 else 0.0)
        prev = cur
    p = float(np.prod(probs))

    if p < 1e-14:
        raise ZeroProbabilityError(
            f"success probability {p:.3e} below 1e-14")
    ny = np.linalg.norm(y)
    return PostselectOutcome(conditioned=y / ny, success_prob=p,
                             stage_probs=tuple(probs))


def _qsvt_circuit(phis: np.ndarray, e: ProjectedUnitaryEncoding,
                  columns: np.ndarray | None = None) -> np.ndarray:
    """The alternating-phase circuit H prod_i (U_i G_i Rz(phi_i) G_i) H on
    flag (x) system, or that circuit applied to a 2M x k column stack.

    U_i runs U, U^dag, U, ... and G_i is the flag X controlled by
    Pi_R Pi_R^dag, Pi_L Pi_L^dag, ...  G Rz(phi) G is Rz(-phi) on the
    projector's range and Rz(phi) off it, so a layer is a phase on each flag
    half, a rank-N correction through the isometry, and U_i applied to both
    halves at once: the stack is kept as one M x 2k block [top, bot].
    columns=None pushes the identity, which gives the circuit itself.
    """
    M = e.M
    X = (np.eye(2 * M, dtype=complex) if columns is None
         else np.asarray(columns, dtype=complex))
    k = X.shape[1]
    Y = np.hstack([X[:M] + X[M:], X[:M] - X[M:]]) / math.sqrt(2.0)
    layers = ((e.U, e.Pi_R), (e.U.conj().T, e.Pi_L))
    for i, phi in enumerate(phis):
        U, Pi = layers[i % 2]
        r = np.repeat([np.exp(-0.5j * phi), np.exp(0.5j * phi)], k)
        Y = U @ (Y * r + Pi @ ((Pi.conj().T @ Y) * (r.conj() - r)))
    return np.vstack([Y[:, :k] + Y[:, k:], Y[:, :k] - Y[:, k:]]) / math.sqrt(2.0)


def qsvt_equivalence_check(e: ProjectedUnitaryEncoding,
                           phis: np.ndarray) -> tuple[bool, float]:
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
    reduced = _qsvt_circuit(phis, e)
    residual = float(np.linalg.norm(full - E_out @ reduced, 2))
    return residual <= 1e-10, residual
