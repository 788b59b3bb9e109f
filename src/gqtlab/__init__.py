"""Classical laboratory for generalized eigenvalue and singular-value
transformations of block-encoded matrices.

Everything is explicit dense linear algebra: encodings are matrices,
circuits are matrix products, and every construction is checked against an
independent eigendecomposition or SVD oracle.
"""

from .polynomials import (
    ApproxSpec,
    ParityClass,
    PolyCoeffs,
    approx_inverse,
    check_parity,
    classify_parity,
    eval_cheb,
    eval_circle,
    max_abs_circle,
    max_abs_interval,
    parity_split,
    scaling_factor,
    sqrt_substitute_even,
    sqrt_substitute_odd,
)
from .phases import (
    PhaseFactors,
    RotationGate,
    gqsp_matrix,
    reconstruct_P,
    rotation_matrix,
    solve_phases,
)
from .encodings import (
    HermitianEncoding,
    ProjectedUnitaryEncoding,
    QubitizedPair,
    coding_subspace_decomposition,
    controlled_walk,
    dilate_general,
    dilate_hermitian,
    encoded_matrix,
    hermitianize,
    multiply,
    qubitized_eigenpairs,
    reflection,
    walk_operator,
)
from .transforms import (
    CircuitProduct,
    PostselectOutcome,
    eigen_oracle,
    extract_svt,
    gqet,
    gqet_absorbed_matrix,
    gqsvt_hermitianization,
    gqsvt_multiplication,
    qsvt_equivalence_check,
    simulate_postselect,
    svt_oracle,
)
from .bounds import (
    BoundParams,
    bernstein_check,
    corollary_bound,
    g1_constant,
    hilbert_theorem_bound,
    verify_beta_bound,
)

__version__ = "0.1.0"
