import collections
import math
import threading
import time

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from hypothesis import given, settings, strategies as st

from gqtlab import phases, polynomials
from gqtlab.encodings import (
    HermitianEncoding,
    dilate_general,
    dilate_hermitian,
    hermitianize,
    multiply,
    walk_operator,
)
from gqtlab.phases import (
    CompletionError,
    DEFAULT_MARGIN,
    ROUND_TRIP_TOL,
    PhaseFactors,
    PhaseSynthesisError,
    complementary_polynomial,
    gqsp_matrix,
    reconstruct_P,
    rescale_to_margin,
    rotation_matrix,
    solve_phases,
)
from gqtlab.polynomials import (
    ApproxSpec,
    NumericalError,
    PolyCoeffs,
    approx_inverse,
    definite_parity,
    max_abs_circle,
)
from reference import (
    eval_circle,
    gqet_absorbed_matrix,
    gqsp_every_layer,
    gqsp_layers,
)

CIRCLE_4096 = np.linspace(0, 2 * np.pi, 4096, endpoint=False)


def scaled_random_poly(rng, d, target=0.9):
    a = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
    c = PolyCoeffs(a)
    return c.scaled(target / max_abs_circle(c))


def coeff_error(a: PolyCoeffs, b: PolyCoeffs) -> float:
    n = max(len(a.coeffs), len(b.coeffs))
    pa = np.pad(a.coeffs, (0, n - len(a.coeffs)))
    pb = np.pad(b.coeffs, (0, n - len(b.coeffs)))
    return float(np.max(np.abs(pa - pb)))


def completion_defect(c: PolyCoeffs, q: PolyCoeffs) -> float:
    total = (np.abs(eval_circle(c, CIRCLE_4096)) ** 2
             + np.abs(eval_circle(q, CIRCLE_4096)) ** 2)
    return float(np.max(np.abs(total - 1)))


class TestRotationMatrix:
    def test_zero_angles(self):
        assert np.allclose(rotation_matrix(0, 0, 0),
                           [[1, 0], [0, -1]])

    def test_half_pi(self):
        assert np.allclose(rotation_matrix(math.pi / 2, 0, 0),
                           [[0, 1], [1, 0]], atol=1e-15)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
    def test_unitary(self, t, p, l):
        R = rotation_matrix(t, p, l)
        assert np.linalg.norm(R.conj().T @ R - np.eye(2)) < 1e-12

    @staticmethod
    def scalar_formula(theta, phi, lam):
        """The rotation entry by entry, with math.cos and math.sin."""
        ct, st = math.cos(theta), math.sin(theta)
        return np.array([[np.exp(1j * (lam + phi)) * ct, np.exp(1j * phi) * st],
                         [np.exp(1j * lam) * st, -ct]])

    @staticmethod
    def assert_bits(got, want):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)),
                              np.signbit(want.view(float)))

    def test_array_matches_the_scalar_calls(self):
        rng = np.random.default_rng(40)
        special = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, 1e-300]
        t, p, l = (np.concatenate((rng.uniform(-4, 4, 500), special))
                   for _ in range(3))
        stack = rotation_matrix(t, p, l)
        assert stack.shape == (len(t), 2, 2)
        for k in range(len(t)):
            self.assert_bits(stack[k], rotation_matrix(t[k], p[k], l[k]))
            self.assert_bits(stack[k], self.scalar_formula(t[k], p[k], l[k]))

    def test_lambda_broadcasts(self):
        # The chain's stack: lambda on the k = 0 layer, a scalar 0 above it.
        ph = random_angles(np.random.default_rng(41), 30)
        lams = np.zeros(31)
        lams[0] = ph.lam
        stack = rotation_matrix(ph.thetas, ph.phis, lams)
        self.assert_bits(stack[0], self.scalar_formula(
            ph.thetas[0], ph.phis[0], ph.lam))
        self.assert_bits(stack[1:],
                         rotation_matrix(ph.thetas[1:], ph.phis[1:], 0.0))
        for k in range(1, 31):
            self.assert_bits(stack[k], self.scalar_formula(
                ph.thetas[k], ph.phis[k], 0.0))
        self.assert_bits(phases._layer_rotations(ph), stack)


class TestPhaseFactors:
    def test_canonicalized(self):
        ph = PhaseFactors([4.0], [-4.0], 7.0)
        assert -math.pi < ph.thetas[0] <= math.pi
        assert -math.pi < ph.phis[0] <= math.pi
        assert -math.pi < ph.lam <= math.pi

    def test_json_round_trip(self):
        ph = PhaseFactors([0.1, 0.2], [0.3, -0.4], 1.5)
        back = PhaseFactors.from_json_dict(ph.to_json_dict())
        assert np.allclose(back.thetas, ph.thetas)
        assert np.allclose(back.phis, ph.phis)
        assert back.lam == pytest.approx(ph.lam)

    def test_json_holds_the_degree_once(self):
        # The degree is the angle count less one; an older file's degree
        # key still loads when it agrees and is refused when it does not.
        ph = PhaseFactors([0.1, 0.2], [0.3, -0.4], 1.5)
        d = ph.to_json_dict()
        assert sorted(d) == ["lambda", "phis", "thetas"]
        assert PhaseFactors.from_json_dict({**d, "degree": 1}) == ph
        with pytest.raises(ValueError, match="degree"):
            PhaseFactors.from_json_dict({**d, "degree": 2})

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PhaseFactors([0.1], [0.2, 0.3], 0.0)

    def test_equal_and_unequal_values(self):
        ph = PhaseFactors([0.1, 0.2], [0.3, 0.4], 0.5)
        assert ph == PhaseFactors([0.1, 0.2], [0.3, 0.4], 0.5)
        assert ph != PhaseFactors([0.1, 0.2], [0.3, -0.4], 0.5)
        assert ph != PhaseFactors([0.1, 0.2], [0.3, 0.4], 0.6)
        assert ph != PhaseFactors([0.1, 0.2, 0.0], [0.3, 0.4, 0.0], 0.5)
        # round_trip is a measurement, not part of the value
        assert ph == PhaseFactors(ph.thetas, ph.phis, ph.lam, round_trip=1e-16)

    def test_equal_values_hash_alike(self):
        a = PhaseFactors([0.0, 0.2], [-0.0, 0.4], 0.0)
        b = PhaseFactors([-0.0, 0.2], [0.0, 0.4], -0.0)
        assert a == b
        assert len({a, b}) == 1
        assert len({a, PhaseFactors([0.1, 0.2], [0.0, 0.4], 0.0)}) == 2

    def test_canonical_angles_keep_their_phase(self):
        # Only exactly -pi moves (to +pi); angles just above -pi stay put.
        angles = np.array([-math.pi + 10.0 ** -k for k in range(1, 17)]
                          + [math.pi, -math.pi, 3 * math.pi, -3 * math.pi])
        ph = PhaseFactors(angles, angles, 0.0)
        for got in (ph.thetas, ph.phis,
                    np.array([PhaseFactors([0.0], [0.0], a).lam
                              for a in angles])):
            assert np.all((-math.pi < got) & (got <= math.pi))
            assert np.max(np.abs(np.exp(1j * got) - np.exp(1j * angles))) <= 1e-15


class TestSolvePhases:
    def test_constant(self):
        ph = solve_phases(PolyCoeffs([0.5]))
        assert ph.degree == 0
        assert coeff_error(reconstruct_P(ph), PolyCoeffs([0.5])) < 1e-12

    def test_single_monomial(self):
        c = PolyCoeffs([0, 0.9])
        ph = solve_phases(c)
        assert coeff_error(reconstruct_P(ph), c) < 1e-10

    def test_inverse_polynomial(self):
        c = approx_inverse(ApproxSpec(kappa=10, eps=1e-3)).poly.scaled(0.5)
        ph = solve_phases(c)
        assert coeff_error(reconstruct_P(ph), c.trimmed()) <= 1e-8 * 56

    def test_norm_violation(self):
        # solve_phases holds P to no margin; |P| = 1 has no completion, and
        # neither has a peak just above 1 that a grid point may miss.
        with pytest.raises(CompletionError):
            solve_phases(PolyCoeffs([0, 1.0]))
        for d in (5, 64):
            c = scaled_random_poly(np.random.default_rng(d), d, 1 + 1e-12)
            with pytest.raises(CompletionError):
                solve_phases(c)

    @pytest.mark.parametrize("d", [0, 5, 64])
    def test_inside_the_margin_band(self, d):
        # max |P| in (1 - DEFAULT_MARGIN, 1): rescale_to_margin would scale
        # it, but solve_phases holds P to no margin and solves it as given.
        target = 0.99995
        assert 1 - DEFAULT_MARGIN < target < 1
        c = scaled_random_poly(np.random.default_rng(400 + d), d, target)
        ph = solve_phases(c)
        assert ph.degree == d
        assert coeff_error(reconstruct_P(ph), c) <= ROUND_TRIP_TOL * (d + 1)

    def test_round_trip_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(0, 65))
            c = scaled_random_poly(rng, d)
            ph = solve_phases(c)
            assert coeff_error(reconstruct_P(ph), c.trimmed()) <= 1e-8 * (d + 1)

    def test_sparse_polynomial(self):
        # Its phi_4 lies 2.6e-5 above -pi.
        c = PolyCoeffs([0.3, 0, 0, 0, 0, 0.2j, 0, 0, 0, -0.4])
        ph = solve_phases(c)
        assert coeff_error(reconstruct_P(ph), c) <= 1e-14

    @pytest.mark.parametrize("t", [15, 23, 26, 48, 55, 65])
    def test_time_evolution(self, t):
        # Chebyshev interpolant of e^{-ixt}: complex, of indefinite parity.
        d = int(1.5 * t) + 60
        c, _ = rescale_to_margin(PolyCoeffs(
            chebyshev.chebinterpolate(lambda x: np.exp(-1j * x * t), d)))
        ph = solve_phases(c)
        assert coeff_error(reconstruct_P(ph), c.trimmed()) <= 1e-14


class TestPaperDegrees:
    """Phase synthesis at the degrees of the paper's inversion table."""

    @pytest.mark.parametrize("kappa, degree", [(40, 221), (100, 553)])
    def test_inversion_polynomial(self, inverse_design, kappa, degree):
        c = inverse_design(kappa).poly
        assert c.degree == degree
        ph = solve_phases(c)
        budget = 1e-8 * (degree + 1)
        assert coeff_error(reconstruct_P(ph), c.trimmed()) <= budget
        assert completion_defect(c, complementary_polynomial(c)) <= 1e-9

    def test_random_degree_1024_under_a_second(self):
        c = scaled_random_poly(np.random.default_rng(26), 1024)
        t0 = time.perf_counter()
        ph = solve_phases(c)
        elapsed = time.perf_counter() - t0
        assert coeff_error(reconstruct_P(ph), c.trimmed()) <= 1e-8 * 1025
        assert completion_defect(c, complementary_polynomial(c)) <= 1e-9
        assert elapsed < 1.0


class TestSelfCheck:
    @pytest.mark.parametrize("bad_q", [
        # |P|^2 + |Q|^2 = 1 broken: caught by the completion defect.
        lambda q: q.scaled(1.001),
        # Same modulus on the circle, roots outside the disk: the identity
        # holds but stripping loses P, caught by the round trip.
        lambda q: PolyCoeffs(np.conj(q.coeffs[::-1])),
    ], ids=["defect", "round-trip"])
    def test_perturbed_completion_raises(self, monkeypatch, bad_q):
        real = phases.complementary_polynomial
        monkeypatch.setattr(phases, "complementary_polynomial",
                            lambda c: bad_q(real(c)))
        c = scaled_random_poly(np.random.default_rng(27), 100)
        with pytest.raises(PhaseSynthesisError):
            solve_phases(c)

    def test_unit_modulus_has_no_completion(self):
        # |P| >= 1 on the circle: no complementary polynomial, a named error.
        for a in ([1.0], [0, 2.0], [0.5, 0.5]):
            with pytest.raises(CompletionError):
                solve_phases(PolyCoeffs(a))

    def test_grid_cap(self):
        # 1 - |P|^2 vanishes 3e-6 off the circle: no grid up to the cap
        # resolves its logarithm.
        with pytest.raises(CompletionError):
            complementary_polynomial(PolyCoeffs([0.5, 0.5]).scaled(1 - 1e-12))


class TestReconstructP:
    def test_trivial(self):
        ph = PhaseFactors([0.0], [0.0], 0.0)
        assert coeff_error(reconstruct_P(ph), PolyCoeffs([1.0])) < 1e-15

    def test_round_trip(self):
        c = PolyCoeffs([0, 0, 0.7])
        rec = reconstruct_P(solve_phases(c))
        assert coeff_error(rec, c) < 1e-10

    def test_interpolation_oracle(self):
        # coefficients must match a Fourier fit of the numerically
        # assembled 2x2 chain evaluated at unit-circle points
        rng = np.random.default_rng(22)
        d = 6
        ph = PhaseFactors(rng.uniform(-np.pi, np.pi, d + 1),
                          rng.uniform(-np.pi, np.pi, d + 1),
                          rng.uniform(-np.pi, np.pi))
        npts = 13
        thetas = 2 * np.pi * np.arange(npts) / npts
        tl = []
        for t in thetas:
            z = np.exp(1j * t)
            M = rotation_matrix(ph.thetas[0], ph.phis[0], ph.lam)
            for k in range(1, d + 1):
                M = np.diag([z, 1.0]) @ M
                M = rotation_matrix(ph.thetas[k], ph.phis[k], 0.0) @ M
            tl.append(M[0, 0])
        V = np.exp(1j * np.outer(thetas, np.arange(npts)))
        fitted = np.linalg.solve(V, np.array(tl))[: d + 1]
        assert coeff_error(PolyCoeffs(fitted), reconstruct_P(ph)) < 1e-10


class TestComplementary:
    def test_identity_on_circle(self):
        rng = np.random.default_rng(23)
        c = scaled_random_poly(rng, 24)
        q = complementary_polynomial(c)
        theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        total = (np.abs(eval_circle(c, theta)) ** 2
                 + np.abs(eval_circle(q, theta)) ** 2)
        assert np.max(np.abs(total - 1)) < 1e-9

    def test_a_raw_sequence_is_not_a_polynomial(self):
        # PolyCoeffs is the one place a polynomial is validated, and the
        # only form the function reads: a raw list fails at its first
        # attribute access, before any grid is sampled.
        with pytest.raises(AttributeError):
            complementary_polynomial([math.nan, 0.5])
        with pytest.raises(ValueError, match="finite"):
            PolyCoeffs([math.nan, 0.5])


class TestGqspMatrix:
    def test_identity_argument(self):
        c = PolyCoeffs([0, 0.9])
        ph = solve_phases(c)
        G = gqsp_matrix(ph, np.eye(3), np.eye(6))
        assert np.allclose(G[:3, :3], 0.9 * np.eye(3), atol=1e-10)

    def test_diagonal_unitary(self):
        rng = np.random.default_rng(24)
        c = scaled_random_poly(rng, 5)
        ph = solve_phases(c)
        gammas = rng.uniform(0, 2 * np.pi, 4)
        U = np.diag(np.exp(1j * gammas))
        blk = gqsp_matrix(ph, U, np.eye(8))[:4, :4]
        assert np.allclose(np.diag(blk), eval_circle(c, gammas), atol=1e-9)

    def test_random_unitary_eig_oracle(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        U, _ = np.linalg.qr(X)
        c = scaled_random_poly(rng, 5)
        ph = solve_phases(c)
        G = gqsp_matrix(ph, U, np.eye(8))
        w, V = np.linalg.eig(U)
        PU = (V * np.polynomial.polynomial.polyval(w, c.coeffs)) \
            @ np.linalg.inv(V)
        assert np.linalg.norm(G[:4, :4] - PU, 2) < 1e-9
        assert np.linalg.norm(G.conj().T @ G - np.eye(8)) < 1e-10

    def test_rejects_nonunitary(self):
        ph = solve_phases(PolyCoeffs([0.5]))
        with pytest.raises(ValueError):
            gqsp_matrix(ph, np.ones((2, 2)), np.eye(4))

    def test_rejects_perturbed_factor_on_operator_path(self):
        # Pushing columns forms no circuit, so nothing checks it whole; the
        # factor's own check still rejects a walk operator off by 1e-8.
        rng = np.random.default_rng(26)
        X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        W = np.linalg.qr(X)[0]
        W[0, 0] += 1e-8
        ph = random_angles(rng, 3)
        E = np.eye(8)[:, :2]
        with pytest.raises(ValueError, match="unitary"):
            gqsp_matrix(ph, W, columns=E)

    def test_operator_path_certifies_the_product(self):
        # U = (1 + t) V has ||U^dag U - I||_F = (2t + t^2) sqrt(2) = 0.9e-10,
        # within the factor check; d layers are certified while
        # d * 0.9e-10 <= 1e-10 * 2M = 4e-10, so d = 4 passes and d = 5 raises.
        rng = np.random.default_rng(27)
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t = math.sqrt(1 + 0.9e-10 / math.sqrt(2)) - 1
        U = np.linalg.qr(X)[0] * (1 + t)
        E = np.eye(4)[:, :1]
        gqsp_matrix(random_angles(rng, 4), U, columns=E)
        ph = random_angles(rng, 5)
        with pytest.raises(NumericalError, match="layers"):
            gqsp_matrix(ph, U, columns=E)
        # The dense path, the identity stack, runs the same certificate.
        with pytest.raises(NumericalError, match="layers"):
            gqsp_matrix(ph, U, np.eye(4))

    def test_given_defect_is_the_one_checked(self, monkeypatch):
        # A defect the caller holds replaces the kernel's Gram in both
        # checks: for an exactly unitary U, 0.9e-10 passes 4 layers and
        # fails 5 (the certificate), and 3e-10 fails the factor check.
        from gqtlab import phases
        rng = np.random.default_rng(28)
        U = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        E = np.eye(4)[:, :1]
        grams = []
        monkeypatch.setattr(phases, "_unitary_defect",
                            lambda U: grams.append(U) or 0.0)
        gqsp_matrix(random_angles(rng, 4), U, E, defect=0.9e-10)
        with pytest.raises(NumericalError, match="layers"):
            gqsp_matrix(random_angles(rng, 5), U, E, defect=0.9e-10)
        with pytest.raises(ValueError, match="unitary"):
            gqsp_matrix(random_angles(rng, 1), U, E, defect=3e-10)
        assert grams == []


def dense_chain(ph: PhaseFactors, V: np.ndarray) -> np.ndarray:
    """Reference: the chain as full 2M x 2M products, kron(R, I) and
    block_diag(V, I) in every layer, independent of the half-block kernel."""
    M = V.shape[0]
    eyeM = np.eye(M)
    A = np.block([[V, np.zeros((M, M))], [np.zeros((M, M)), eyeM]])
    out = np.kron(rotation_matrix(ph.thetas[0], ph.phis[0], ph.lam), eyeM)
    for k in range(1, ph.degree + 1):
        out = A @ out
        out = np.kron(rotation_matrix(ph.thetas[k], ph.phis[k], 0.0),
                      eyeM) @ out
    return out


def random_angles(rng, d):
    return PhaseFactors(rng.uniform(-np.pi, np.pi, d + 1),
                        rng.uniform(-np.pi, np.pi, d + 1),
                        rng.uniform(-np.pi, np.pi))


class TestKernelAgainstDenseChain:
    SIZES = [(1, 0), (3, 1), (4, 7), (16, 40)]

    @pytest.mark.parametrize("M,d", SIZES)
    def test_gqsp_matrix(self, M, d):
        rng = np.random.default_rng(100 + 7 * M + d)
        X = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        U, _ = np.linalg.qr(X)
        assert M == 1 or np.linalg.norm(U - U.conj().T) > 0.1  # non-Hermitian
        ph = random_angles(rng, d)
        dense = dense_chain(ph, U)
        assert np.max(np.abs(gqsp_matrix(ph, U, np.eye(2 * M)) - dense)) <= 1e-12
        # a column stack goes through the same kernel
        k = max(M // 2, 1)
        E = np.linalg.qr(rng.normal(size=(2 * M, k))
                         + 1j * rng.normal(size=(2 * M, k)))[0]
        assert np.max(np.abs(gqsp_matrix(ph, U, columns=E) - dense @ E)) <= 1e-12

    @pytest.mark.parametrize("M,d", SIZES)
    def test_gqet_absorbed_matrix(self, M, d):
        # A Hermitian unitary (a reflection) with a random isometry Pi; the
        # walk form is the dense chain on W = (2 Pi Pi^dag - I) U.
        rng = np.random.default_rng(200 + 7 * M + d)
        v = rng.normal(size=(M, 1)) + 1j * rng.normal(size=(M, 1))
        U = np.eye(M) - 2.0 * (v @ v.conj().T) / float(np.vdot(v, v).real)
        N = max(M // 2, 1)
        X = rng.normal(size=(M, N)) + 1j * rng.normal(size=(M, N))
        Pi = np.linalg.qr(X)[0][:, :N]
        e = HermitianEncoding(U, Pi, 1.0)
        ph = random_angles(rng, d)
        W = (2.0 * Pi @ Pi.conj().T - np.eye(M)) @ U
        absorbed = gqet_absorbed_matrix(e, ph)
        assert np.max(np.abs(absorbed - dense_chain(ph, W))) <= 1e-12


def random_unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))[0]


def j_commuting(rng, N):
    """T diag(G1, G2) T^dag, T = [[I, I], [iI, -iI]] / sqrt 2, assembled
    from its blocks so that it commutes with iY (x) I bit for bit:
    B = (G1 + G2) / 2 and S = (G1 - G2) / 2i."""
    G1, G2 = random_unitary(rng, N), random_unitary(rng, N)
    B, S = (G1 + G2) / 2, (G1 - G2) / 2j
    return np.block([[B, S], [-S, B]])


def off_diagonal(rng, N):
    Z = np.zeros((N, N))
    return np.block([[Z, random_unitary(rng, N)],
                     [random_unitary(rng, N), Z]])


def x_commuting(rng, N):
    """[[B, S], [S, B]]: one sign away from J-commuting, so one block."""
    G1, G2 = random_unitary(rng, N), random_unitary(rng, N)
    B, S = (G1 + G2) / 2, (G1 - G2) / 2
    return np.block([[B, S], [S, B]])


def unstructured(rng, N):
    return random_unitary(rng, 2 * N)


class TestStructuredKernel:
    """gqsp_matrix runs a J-commuting or an off-diagonal U as two N x N
    blocks, and any other U by the one-block loop of `gqsp_layers`."""

    N = 6
    STRUCTURED = [j_commuting, off_diagonal]
    ONE_BLOCK = [x_commuting, unstructured]

    def stack(self, rng, k):
        M = 2 * self.N
        if k == 2 * M:
            return np.eye(2 * M)
        X = rng.normal(size=(2 * M, k)) + 1j * rng.normal(size=(2 * M, k))
        return np.linalg.qr(X)[0]

    @pytest.mark.parametrize("build", STRUCTURED + ONE_BLOCK)
    @pytest.mark.parametrize("d", [0, 1, 5, 64])
    @pytest.mark.parametrize("k", [1, N, 4 * N])
    def test_matches_the_one_block_loop(self, build, d, k):
        rng = np.random.default_rng(300 + 7 * d + k)
        U = build(rng, self.N)
        ph, E = random_angles(rng, d), self.stack(rng, k)
        got, want = gqsp_matrix(ph, U, E), gqsp_layers(ph, U, E)
        if build in self.STRUCTURED:
            assert phases._nonzero_blocks(U)[1] is not None
            assert np.max(np.abs(got - want)) <= 1e-13
        else:
            assert phases._nonzero_blocks(U)[1] is None
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("build, entry", [
        (j_commuting, (6, 7)),    # lower-right block
        (j_commuting, (7, 0)),    # lower-left block
        (off_diagonal, (0, 1)),   # upper-left block
        (off_diagonal, (11, 6)),  # lower-right block
    ])
    def test_one_ulp_off_is_one_block(self, build, entry):
        rng = np.random.default_rng(310)
        U = build(rng, self.N)
        U[entry] = complex(np.nextafter(U[entry].real, np.inf), U[entry].imag)
        assert phases._nonzero_blocks(U)[1] is None
        ph, E = random_angles(rng, 5), self.stack(rng, self.N)
        assert np.array_equal(gqsp_matrix(ph, U, E), gqsp_layers(ph, U, E))

    @pytest.mark.parametrize("build", STRUCTURED + ONE_BLOCK)
    def test_fortran_ordered_columns(self, build):
        rng = np.random.default_rng(320)
        U = build(rng, self.N)
        ph, E = random_angles(rng, 5), self.stack(rng, self.N)
        F = np.asfortranarray(E)
        assert F.flags.f_contiguous and not F.flags.c_contiguous
        assert np.array_equal(gqsp_matrix(ph, U, F), gqsp_matrix(ph, U, E))

    def test_walks_of_the_constructors(self):
        # The saving rests on exact structure in the walks the constructors
        # build: the walk of dilate_hermitian commutes with iY (x) I, the
        # walk of a Hermitianized encoding has zero diagonal blocks, and the
        # walk of a product encoding has neither.
        rng = np.random.default_rng(330)
        X = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        A = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        e = dilate_general(A, 1.1 * np.linalg.norm(A, 2))
        H = X + X.conj().T
        walks = [walk_operator(dilate_hermitian(H, np.linalg.norm(H, 2))),
                 walk_operator(hermitianize(e)),
                 walk_operator(multiply(e.adjoint(), e))]
        assert [phases._nonzero_blocks(W)[1] for W in walks] == [
            "commuting", "off-diagonal", None]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 256), st.integers(0, 2 ** 31 - 1))
def test_round_trip_property(d, seed):
    rng = np.random.default_rng(seed)
    c = scaled_random_poly(rng, d)
    ph = solve_phases(c)
    assert coeff_error(reconstruct_P(ph), c.trimmed()) <= 1e-8 * (d + 1)


def reference_reconstruct_PQ(ph: PhaseFactors):
    """Reference: the out-of-place coefficient recursion, two new arrays per
    layer, independent of the in-place buffers of phases._reconstruct_PQ."""
    P = np.array([np.exp(1j * (ph.lam + ph.phis[0])) * math.cos(ph.thetas[0])])
    Q = np.array([np.exp(1j * ph.lam) * math.sin(ph.thetas[0])])
    for k in range(1, ph.degree + 1):
        ct, st = math.cos(ph.thetas[k]), math.sin(ph.thetas[k])
        zP = np.concatenate(([0.0], P))
        Qp = np.concatenate((Q, [0.0]))
        P = np.exp(1j * ph.phis[k]) * (ct * zP + st * Qp)
        Q = st * zP - ct * Qp
    return P, Q


def reference_strip(P: np.ndarray, Q: np.ndarray) -> PhaseFactors:
    """Reference: layer stripping with the exact max of |P|, |Q| at every
    layer and new arrays per layer, independent of the in-place buffers and
    the theta = 0 shortcuts of phases._strip_layers."""
    d = len(P) - 1
    thetas, phis = np.zeros(d + 1), np.zeros(d + 1)
    for k in range(d, 0, -1):
        p_lead, q_lead = P[k], Q[k]
        mag = max(np.max(np.abs(P)), np.max(np.abs(Q)))
        if abs(q_lead) <= 1e-14 * mag:
            theta, phi = 0.0, 0.0
            newP, newQ = P[1:], -Q[:k]
        else:
            phi = math.atan2((p_lead / q_lead).imag, (p_lead / q_lead).real)
            theta = math.atan2(abs(q_lead), abs(p_lead))
            e = np.exp(-1j * phi)
            ct, st = math.cos(theta), math.sin(theta)
            zP = e * ct * P + st * Q
            newQ = e * st * P - ct * Q
            newP, newQ = zP[1:], newQ[:k]
        thetas[k], phis[k] = theta, phi
        P, Q = newP, newQ
    p0, q0 = P[0], Q[0]
    thetas[0] = math.atan2(abs(q0), abs(p0))
    lam = math.atan2(q0.imag, q0.real) if abs(q0) > 1e-14 else 0.0
    if abs(p0) > 1e-14:
        phis[0] = math.atan2(p0.imag, p0.real) - lam
    return PhaseFactors(thetas, phis, lam)


# The product tree of phases._reconstruct_PQ against the coefficient
# recursion: max |tree - recursion| <= RECONSTRUCT_C * eps * (d + 1).  The
# largest ratio measured is 0.26, over 3000 random angle sets at d < 80
# (0.024 above d = 100, 0.011 at d = 2349 and 4000); C = 1 leaves a margin
# of about 4.
RECONSTRUCT_C = 1.0


def assert_reconstructs_like_reference(ph: PhaseFactors):
    bound = RECONSTRUCT_C * np.finfo(float).eps * (ph.degree + 1)
    for got, want in zip(phases._reconstruct_PQ(ph),
                         reference_reconstruct_PQ(ph)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= bound


class TestBitExactAgainstReference:
    """The in-place stripping gives the angles of the out-of-place
    reference bit for bit; the product tree that reconstructs the chain
    sums in another order and agrees with the recursion to
    RECONSTRUCT_C * eps * (d + 1)."""

    @staticmethod
    def assert_same(c: PolyCoeffs):
        P = c.trimmed().coeffs
        ph = solve_phases(c)
        ref = reference_strip(P, complementary_polynomial(PolyCoeffs(P)).coeffs)
        assert np.array_equal(ph.thetas, ref.thetas)
        assert np.array_equal(ph.phis, ref.phis)
        assert ph.lam == ref.lam
        assert_reconstructs_like_reference(ph)
        return ph

    @pytest.mark.parametrize("kappa", [10, 40, 100, 300])
    def test_inversion_designs(self, inverse_design, kappa):
        c = inverse_design(kappa).poly
        c, _ = phases.rescale_to_margin(c)
        self.assert_same(c)

    @pytest.mark.parametrize("d", [0, 1, 2, 5, 33, 64, 257, 1024])
    def test_random_complex(self, d):
        self.assert_same(scaled_random_poly(np.random.default_rng(300 + d), d))

    @pytest.mark.parametrize("a", [[0, 0, 0, 0.9],
                                   [0, 0, 0.4, 0, 0, 0, 0, 0.3j, 0, 0, 0, 0,
                                    -0.2]],
                             ids=["z^3", "sparse"])
    def test_theta_zero_layers(self, a):
        ph = self.assert_same(PolyCoeffs(a))
        assert np.count_nonzero(ph.thetas[1:] == 0.0) >= 2

    @pytest.mark.parametrize("ratio, big_lead, theta_zero", [
        (0.4e-14, True, True),    # below 1e-14 |p_lead|: no max needed
        (0.9e-14, False, True),   # needs the exact max of |P|, |Q|
        (1.1e-14, True, False),   # just above 1e-14 max: a rotation
        (1.1e-14, False, False),
    ])
    def test_theta_zero_decision(self, ratio, big_lead, theta_zero):
        # Any (P, Q) strips: each layer is unitary on the pairs.  The top
        # layer's q_lead is set at `ratio` times the exact max of |P|, |Q|.
        rng = np.random.default_rng(33)
        P, Q = (rng.normal(size=13) + 1j * rng.normal(size=13)
                for _ in range(2))
        P[-1] = 0.6 if big_lead else 1e-3
        Q[-1] = 0.0
        Q[-1] = ratio * max(np.max(np.abs(P)), np.max(np.abs(Q))) * 1j
        ref = reference_strip(P.copy(), Q.copy())
        ph = phases._strip_layers(P.copy(), Q.copy())
        assert (ref.thetas[-1] == 0.0) == theta_zero
        assert np.array_equal(ph.thetas, ref.thetas)
        assert np.array_equal(ph.phis, ref.phis)
        assert ph.lam == ref.lam

    def test_random_angles_reconstruct(self):
        rng = np.random.default_rng(31)
        for d in (2, 7, 100, 2349, 4000):
            assert_reconstructs_like_reference(random_angles(rng, d))

    @pytest.mark.parametrize("d", [0, 1])
    def test_degrees_0_and_1_are_the_recursion(self, d):
        # No product to take: the lambda layer's column and, at d = 1, the
        # recursion's own step, bit for bit and sign for sign.
        rng = np.random.default_rng(34)
        for _ in range(50):
            ph = random_angles(rng, d)
            for got, want in zip(phases._reconstruct_PQ(ph),
                                 reference_reconstruct_PQ(ph)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got.view(float)),
                                      np.signbit(want.view(float)))

    @pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("kappa, d", [(10, 55), (100, 553)])
    @pytest.mark.parametrize("entry", ["theta", "phi", "lambda"])
    def test_perturbed_angles_flag_alike(self, inverse_design, kappa, d,
                                         delta, entry):
        # One angle off by delta: the tree's round trip error is the
        # recursion's within the bound, so both flag the same angles.
        c, _ = phases.rescale_to_margin(inverse_design(kappa).poly)
        ph = solve_phases(c)
        assert ph.degree == d
        thetas, phis, lam = ph.thetas.copy(), ph.phis.copy(), ph.lam
        if entry == "theta":
            thetas[d // 2] += delta
        elif entry == "phi":
            phis[d] += delta
        else:
            lam += delta
        moved = PhaseFactors(thetas, phis, lam)
        err = phases.round_trip_error(moved, c)
        ref_P = reference_reconstruct_PQ(moved)[0]
        ref_err = float(np.max(np.abs(ref_P - c.trimmed().coeffs)))
        assert abs(err - ref_err) <= (RECONSTRUCT_C * np.finfo(float).eps
                                      * (d + 1))
        tol = ROUND_TRIP_TOL * (d + 1)
        assert (err <= tol) == (ref_err <= tol)
        # The move shows: a phase angle scales P by e^{i delta}, so it moves
        # P by about delta * max |P_k| (0.048 and 0.005 here).
        assert ref_err >= 1e-3 * delta

    def test_degree_20000_in_under_half_a_second(self):
        # Far past the recursion's reach (seconds at this degree); the tree's
        # column must still lie on the unit sphere around the circle.
        ph = random_angles(np.random.default_rng(35), 20000)
        t0 = time.perf_counter()
        P, Q = phases._reconstruct_PQ(ph)
        elapsed = time.perf_counter() - t0
        assert len(P) == len(Q) == 20001
        assert phases._completion_defect(P, Q) <= 1e-12
        assert elapsed < 0.5

    def test_round_trip_recorded_not_compared(self):
        c = scaled_random_poly(np.random.default_rng(32), 20)
        ph = solve_phases(c)
        assert ph.round_trip == phases.round_trip_error(ph, c)
        back = PhaseFactors.from_json_dict(ph.to_json_dict())
        assert back.round_trip is None and "round_trip" not in ph.to_json_dict()


def one_parity_poly(rng, d, target=0.9):
    """A random complex P of degree d whose coefficients of the other
    parity are exactly 0, scaled to max |P| = target on the circle."""
    a = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
    a[1 - d % 2::2] = 0.0
    c = PolyCoeffs(a)
    return c.scaled(target / max_abs_circle(c))


def off_parity_layers(d: int) -> np.ndarray:
    """The layers k >= 1 of the other parity than d."""
    return np.arange(1 + d % 2, d + 1, 2)


class TestParityStride:
    """A P = z^r R(z^2), read by exact zeros, is completed, checked and
    stripped as R(w), w = z^2, and gets the angles of the layer-by-layer
    loop on the full arrays bit for bit."""

    @staticmethod
    def assert_strided_like_reference(c: PolyCoeffs) -> PhaseFactors:
        P = c.trimmed().coeffs
        d = len(P) - 1
        Q = complementary_polynomial(PolyCoeffs(P)).coeffs
        assert not Q[1 - d % 2::2].any()
        assert phases._parity_stride(d, P, Q) == 2
        ph = solve_phases(c)
        ref = reference_strip(P, Q)
        assert np.array_equal(ph.thetas, ref.thetas)
        assert np.array_equal(ph.phis, ref.phis)
        assert ph.lam == ref.lam
        k = off_parity_layers(d)
        assert not ph.thetas[k].any() and not ph.phis[k].any()
        return ph

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 256), st.integers(0, 2 ** 31 - 1))
    def test_angles_match_the_full_loop(self, d, seed):
        self.assert_strided_like_reference(
            one_parity_poly(np.random.default_rng(seed), d))

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_lowest_degrees(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(20):
            self.assert_strided_like_reference(one_parity_poly(rng, d))
        # z and 1: a single layer of each parity.
        self.assert_strided_like_reference(
            PolyCoeffs(np.eye(d + 1)[d] * 0.6j))

    def test_theta_zero_at_the_nonzero_positions(self):
        # 1 - |P|^2 is a polynomial in z^8 here, so Q has no z^3, z^5 or
        # z^7 term and those layers of P's parity have theta = 0 too.
        a = np.zeros(10, dtype=complex)
        a[1], a[9] = 0.4, 0.3j
        ph = self.assert_strided_like_reference(PolyCoeffs(a))
        assert not ph.thetas[[3, 5, 7]].any()
        assert ph.thetas[9] != 0.0 and ph.thetas[1] != 0.0

    @pytest.mark.parametrize("d", [7, 8, 55])
    def test_one_tiny_coefficient_takes_stride_1(self, d, monkeypatch):
        # 1e-300 of the other parity is far below definite_parity's
        # tolerance, but it is part of P: the full-length path runs.
        c = one_parity_poly(np.random.default_rng(50 + d), d)
        a = c.coeffs.copy()
        a[1 - d % 2] = 1e-300
        c = PolyCoeffs(a)
        assert definite_parity(c) == ("odd" if d % 2 else "even")
        assert phases._parity_stride(d, a) == 1
        lengths = []
        real = phases._on_circle
        monkeypatch.setattr(phases, "_on_circle",
                            lambda x, n: lengths.append(n) or real(x, n))
        Q = complementary_polynomial(c).coeffs
        assert lengths[0] == 1 << (16 * (d + 1) - 1).bit_length()
        ph = solve_phases(c)
        ref = reference_strip(a, Q)
        assert np.array_equal(ph.thetas, ref.thetas)
        assert np.array_equal(ph.phis, ref.phis)
        assert ph.lam == ref.lam

    def test_grids_are_half_size(self, inverse_design, monkeypatch):
        # kappa = 100, d = 553: the full-length path completes on 16384
        # points and checks the defect on 8192; the same z-points are read
        # as 8192 and 4096 points w = z^2.  solve_phases reads the defect
        # the completion measured and holds, and measures it no more.
        c, _ = rescale_to_margin(inverse_design(100).poly)
        assert c.degree == 553
        lengths = []
        real = phases._on_circle
        monkeypatch.setattr(phases, "_on_circle",
                            lambda x, n: lengths.append(n) or real(x, n))
        solve_phases(c)
        assert lengths == [8192] * 2 + [4096] * 2

    def test_one_completion_per_solve(self, inverse_design, monkeypatch):
        calls = []
        real = phases.complementary_polynomial
        monkeypatch.setattr(phases, "complementary_polynomial",
                            lambda c: calls.append(c) or real(c))
        c, _ = rescale_to_margin(inverse_design(10).poly)
        solve_phases(c)
        solve_phases(scaled_random_poly(np.random.default_rng(51), 30))
        assert len(calls) == 2


SCALING_TABLE_DESIGNS = [(10, 1e-3), (10, 1e-4), (40, 1e-3), (100, 1e-3),
                         (100, 1e-4), (200, 1e-4), (300, 1e-4)]


class TestMarginNorm:
    """rescale_to_margin norms a P = z^r R(z^2) as R, on half the grid:
    the value is max_abs_circle(P) to rounding, and a P of both parities
    is normed as itself."""

    @staticmethod
    def margin_norm(c, monkeypatch) -> tuple[np.ndarray, float]:
        seen = []
        real = phases.max_abs_circle
        monkeypatch.setattr(phases, "max_abs_circle",
                            lambda p: seen.append((p.coeffs, real(p)))
                            or seen[-1][1])
        rescale_to_margin(c)
        (normed, value), = seen
        return normed, value

    def assert_normed_as_r(self, c, monkeypatch, tol):
        a = c.coeffs
        d = len(a) - 1
        normed, value = self.margin_norm(c, monkeypatch)
        assert np.array_equal(normed, a[d % 2::2])
        assert abs(value - max_abs_circle(c)) <= tol

    @pytest.mark.parametrize("kappa, eps", SCALING_TABLE_DESIGNS)
    def test_inverse_designs(self, inverse_design, monkeypatch, kappa, eps):
        c = inverse_design(kappa, eps).poly
        self.assert_normed_as_r(c, monkeypatch,
                                2 * np.spacing(max_abs_circle(c)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 600), st.integers(0, 2 ** 31 - 1))
    def test_random_definite_parity(self, d, seed):
        # The two sums round apart by up to 2 eps sum |a_k|: about 16 ulp
        # at d = 571 for random coefficients, whose peak is far below
        # sum |a_k|; the designs peak at sum |a_k| and meet 2 ulp.
        c = one_parity_poly(np.random.default_rng(seed), d, 1.3)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_normed_as_r(
                c, monkeypatch,
                2 * np.finfo(float).eps * np.sum(np.abs(c.coeffs)))

    def test_both_parities_are_normed_whole(self, monkeypatch):
        c = scaled_random_poly(np.random.default_rng(60), 40, 1.3)
        normed, value = self.margin_norm(c, monkeypatch)
        assert np.array_equal(normed, c.coeffs)
        assert value == max_abs_circle(c)

    def test_rescaled_to_the_margin(self):
        # The scale comes from R's norm, and P lands at 1 - 2 margin.
        c = one_parity_poly(np.random.default_rng(61), 101, 1.3)
        scaled, scale = rescale_to_margin(c)
        R = PolyCoeffs(c.coeffs[1::2])
        assert scale == (1.0 - 2.0 * DEFAULT_MARGIN) / max_abs_circle(R)
        assert abs(max_abs_circle(scaled) - (1.0 - 2.0 * DEFAULT_MARGIN)) <= 1e-15


class TestHeldDefect:
    """complementary_polynomial's Q holds the defect it measured, and
    solve_phases reads it instead of measuring (P, Q) again."""

    @pytest.mark.parametrize("stride", [1, 2])
    def test_completion_holds_its_defect(self, stride):
        rng = np.random.default_rng(70 + stride)
        c = (scaled_random_poly(rng, 40) if stride == 1
             else one_parity_poly(rng, 41))
        q = complementary_polynomial(c)
        assert phases._parity_stride(c.degree, c.coeffs) == stride
        assert q.defect == phases._completion_defect(c.coeffs, q.coeffs)
        assert q.defect <= 1e-12
        # neither compared nor serialised, and a rebuilt Q holds none
        assert q == PolyCoeffs(q.coeffs)
        assert q.to_json_dict() == PolyCoeffs(q.coeffs).to_json_dict()
        assert q.scaled(1.0).defect is None and q.trimmed().defect is None

    @pytest.mark.parametrize("held", [True, False])
    def test_solve_measures_only_a_q_without_one(self, monkeypatch, held):
        c = one_parity_poly(np.random.default_rng(72), 60)
        calls = []
        real = phases._completion_defect
        monkeypatch.setattr(phases, "_completion_defect",
                            lambda p, q: calls.append(1) or real(p, q))
        completion = phases.complementary_polynomial
        completion(c)
        in_completion = len(calls)
        if not held:
            monkeypatch.setattr(phases, "complementary_polynomial",
                                lambda c: completion(c).scaled(1.0))
        calls.clear()
        ph = solve_phases(c)
        assert len(calls) == in_completion + (0 if held else 1)
        assert phases.round_trip_error(ph, c) == ph.round_trip

    def test_a_held_defect_over_tolerance_raises(self, monkeypatch):
        # The held value is the one judged: the same Q holding a defect
        # above DEFECT_TOL is refused.
        real = phases.complementary_polynomial
        monkeypatch.setattr(phases, "complementary_polynomial",
                            lambda c: PolyCoeffs(real(c).coeffs, 2e-9))
        with pytest.raises(PhaseSynthesisError, match="completion defect"):
            solve_phases(one_parity_poly(np.random.default_rng(73), 30))


def paired_angles(rng, d):
    """Random angles with theta = phi = 0 on every layer k >= 1 of the
    other parity than d, as a definite-parity solve gives."""
    ph = random_angles(rng, d)
    thetas, phis = ph.thetas.copy(), ph.phis.copy()
    thetas[off_parity_layers(d)] = phis[off_parity_layers(d)] = 0.0
    return PhaseFactors(thetas, phis, ph.lam)


class TestPairedLayers:
    """When every layer k >= 1 of the other parity than d has
    theta = phi = 0, gqsp_matrix applies U and no rotation on those layers
    and gives the stack of the loop that rotates every layer bit for bit,
    on each structure of U."""

    N = 6
    BUILDS = [off_diagonal, j_commuting, unstructured]

    def stack(self, rng, k):
        M = 2 * self.N
        if k == 2 * M:
            return np.eye(2 * M)
        return rng.normal(size=(2 * M, k)) + 1j * rng.normal(size=(2 * M, k))

    @staticmethod
    def count_calls(monkeypatch) -> collections.Counter:
        """Counts of the kernel's np.multiply and np.matmul calls: a
        rotated layer makes three multiplies, and each layer k >= 1 one
        matmul."""
        calls = collections.Counter()

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def multiply(*args, **kwargs):
                calls["multiply"] += 1
                return np.multiply(*args, **kwargs)

            @staticmethod
            def matmul(*args, **kwargs):
                calls["matmul"] += 1
                return np.matmul(*args, **kwargs)

        monkeypatch.setattr(phases, "np", Numpy())
        return calls

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("d", [2, 3, 8, 9, 54, 55])
    @pytest.mark.parametrize("k", [1, 4 * N])
    def test_solved_phases(self, build, d, k):
        rng = np.random.default_rng(500 + 3 * d + k)
        U = build(rng, self.N)
        ph = solve_phases(one_parity_poly(rng, d))
        assert not ph.thetas[off_parity_layers(d)].any()
        assert not ph.phis[off_parity_layers(d)].any()
        E = self.stack(rng, k)
        assert np.array_equal(gqsp_matrix(ph, U, E), gqsp_every_layer(ph, U, E))

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("d", [0, 1, 2, 5, 6, 64, 65])
    def test_random_paired_angles(self, build, d):
        rng = np.random.default_rng(600 + d)
        U = build(rng, self.N)
        ph, E = paired_angles(rng, d), self.stack(rng, self.N)
        assert np.array_equal(gqsp_matrix(ph, U, E), gqsp_every_layer(ph, U, E))

    @pytest.mark.parametrize("d", [8, 9])
    def test_only_the_rotations_are_skipped(self, monkeypatch, d):
        # d + 1 - d // 2 layers are rotated, and every layer k >= 1 still
        # applies U once.
        rng = np.random.default_rng(700 + d)
        U = unstructured(rng, self.N)
        ph, E = paired_angles(rng, d), self.stack(rng, 2)
        calls = self.count_calls(monkeypatch)
        gqsp_matrix(ph, U, E)
        assert calls == {"multiply": 3 * (d + 1 - d // 2), "matmul": d}

    @pytest.mark.parametrize("entry", ["theta", "phi"])
    @pytest.mark.parametrize("d", [8, 9])
    @pytest.mark.parametrize("angle", [1e-300, np.spacing(math.pi)])
    def test_one_tiny_angle_takes_the_full_loop(self, monkeypatch, entry, d,
                                                angle):
        # One layer of the other parity off zero: every layer is rotated.
        # PhaseFactors maps an angle under half an ulp of pi to 0, so
        # 1e-300 is set on the frozen angles directly; spacing(pi) is the
        # least angle that passes through the constructor.
        rng = np.random.default_rng(800 + d)
        U = off_diagonal(rng, self.N)
        ph, E = paired_angles(rng, d), self.stack(rng, 3)
        angles = (ph.thetas if entry == "theta" else ph.phis).copy()
        angles[off_parity_layers(d)[-1]] = angle
        if angle < np.spacing(math.pi):
            object.__setattr__(ph, entry + "s", angles)
        elif entry == "theta":
            ph = PhaseFactors(angles, ph.phis, ph.lam)
        else:
            ph = PhaseFactors(ph.thetas, angles, ph.lam)
        assert (ph.thetas if entry == "theta" else ph.phis).any()
        want = gqsp_every_layer(ph, U, E)
        calls = self.count_calls(monkeypatch)
        assert np.array_equal(gqsp_matrix(ph, U, E), want)
        assert calls == {"multiply": 3 * (d + 1), "matmul": d}


WORKER_COUNTS = [1, 2, 3, 8]


@pytest.fixture
def split(monkeypatch):
    """set(workers, bar=True): the kernel runs on `workers` threads under a
    one-thread BLAS, whatever the CPUs and the environment; with bar=False
    every stack of two columns or more splits, however small."""

    def set_split(workers, bar=True):
        monkeypatch.setattr(polynomials, "_workers", lambda: workers)
        monkeypatch.setattr(phases, "_serial_blas", lambda: True)
        if not bar:
            monkeypatch.setattr(phases, "_SPLIT_PRODUCT", 1)
            monkeypatch.setattr(phases, "_SPLIT_COLUMNS", 1)
    return set_split


@pytest.fixture
def push_threads(monkeypatch):
    """The set of threads the kernel's column chunks run on."""
    threads = set()
    push = phases._push_columns

    def recorded(*args):
        threads.add(threading.current_thread())
        push(*args)
    monkeypatch.setattr(phases, "_push_columns", recorded)
    return threads


class TestKernelWorkers:
    """gqsp_matrix cuts a large stack into column chunks and pushes each on
    a thread of its own; the stack is the serial one bit for bit on any
    worker count."""

    N = 6

    def case(self, build, paired, k, seed=0):
        rng = np.random.default_rng(900 + 10 * k + seed)
        U = build(rng, self.N)
        ph = (paired_angles if paired else random_angles)(rng, 5)
        X = (rng.normal(size=(4 * self.N, k))
             + 1j * rng.normal(size=(4 * self.N, k)))
        return ph, U, X

    @pytest.mark.parametrize("build", [j_commuting, off_diagonal,
                                       unstructured])
    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 9, 63, 64, 65, 129, 257])
    def test_stack_is_the_serial_one(self, split, build, paired, k):
        ph, U, X = self.case(build, paired, k)
        want = gqsp_every_layer(ph, U, X)
        split(1, bar=False)
        serial = gqsp_matrix(ph, U, X)
        assert np.array_equal(serial, want)
        for workers in WORKER_COUNTS[1:]:
            split(workers, bar=False)
            got = gqsp_matrix(ph, U, X)
            assert got.flags.c_contiguous
            assert np.array_equal(got, serial)

    @pytest.mark.parametrize("k", [129, 257])
    def test_stack_at_the_bar(self, split, k):
        # A J-commuting U of N = 128 pushes 2 * 128^2 * k multiply-adds a
        # layer, enough for k / 48 threads at the fitted bar.
        rng = np.random.default_rng(950 + k)
        U = j_commuting(rng, 128)
        ph = random_angles(rng, 3)
        X = rng.normal(size=(512, k)) + 1j * rng.normal(size=(512, k))
        split(1)
        serial = gqsp_matrix(ph, U, X)
        assert np.array_equal(serial, gqsp_every_layer(ph, U, X))
        for workers in WORKER_COUNTS[1:]:
            split(workers)
            assert phases._kernel_threads(2 * 128 ** 2 * k, k) > 1
            assert np.array_equal(gqsp_matrix(ph, U, X), serial)

    @pytest.mark.parametrize("threads", range(1, 9))
    def test_chunk_plan(self, threads):
        for k in range(0, 300):
            chunks = phases._column_chunks(k, threads)
            assert 1 <= len(chunks) <= threads
            assert [c.start for c in chunks[1:]] == [c.stop
                                                     for c in chunks[:-1]]
            assert chunks[0].start == 0 and chunks[-1].stop == k
            assert all(c.start % 8 == 0 for c in chunks)
            if len(chunks) > 1:
                assert all(c.stop - c.start > 1 for c in chunks)
        assert phases._column_chunks(128, 2) == [slice(0, 64),
                                                 slice(64, 128)]
        assert phases._column_chunks(65, 2) == [slice(0, 40), slice(40, 65)]

    @pytest.mark.parametrize("build, N, k", [
        (j_commuting, 64, 64),      # gqet on 64 x 64
        (off_diagonal, 80, 32),     # hermitianization of 48 x 32
        (unstructured, 80, 32),     # multiplication of 48 x 32
        (off_diagonal, 160, 64),    # hermitianization of 96 x 64
        (unstructured, 160, 64),    # multiplication of 96 x 64
        (off_diagonal, 14, 6),      # inversion on 8 x 6
    ])
    def test_stacks_under_the_bar_run_serially(self, split, push_threads,
                                               build, N, k):
        # Every circuit op of the benchmark but gqet on 128 x 128 stays on
        # the calling thread, with no pool, on any worker count.
        U = build(np.random.default_rng(960 + N), N)
        blocks, _ = phases._nonzero_blocks(U)
        X = np.eye(4 * N)[:, :k]
        for workers in WORKER_COUNTS:
            split(workers)
            assert phases._kernel_threads(blocks.size * k, k) == 1
            gqsp_matrix(random_angles(np.random.default_rng(0), 3), U, X)
        assert push_threads == {threading.main_thread()}

    def test_gqet_on_128_splits(self, split):
        split(8)
        assert phases._kernel_threads(2 * 128 ** 2 * 128, 128) == 2

    def test_no_split_under_a_threaded_blas(self, monkeypatch):
        monkeypatch.setattr(polynomials, "_workers", lambda: 8)
        for var in phases._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        product = 2 * 128 ** 2 * 256
        assert phases._kernel_threads(product, 256) == 1  # every CPU
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert phases._kernel_threads(product, 256) == 5
        # The BLAS reads OPENBLAS_NUM_THREADS first.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert phases._kernel_threads(product, 256) == 1

    def test_no_thread_outlives_the_push(self, split, push_threads):
        split(2, bar=False)
        before = threading.active_count()
        ph, U, X = self.case(j_commuting, False, 64)
        gqsp_matrix(ph, U, X)
        # Two pool threads; one of them may take both chunks.
        assert push_threads and threading.main_thread() not in push_threads
        assert threading.active_count() == before

    def test_one_worker_makes_no_pool(self, split, push_threads):
        split(1, bar=False)
        ph, U, X = self.case(unstructured, True, 257)
        gqsp_matrix(ph, U, X)
        assert push_threads == {threading.main_thread()}

    def test_checks_come_before_any_pool(self, split, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a pool was made")
        split(8, bar=False)
        monkeypatch.setattr(polynomials, "_run_parts", no_pool)
        ph, U, X = self.case(unstructured, False, 64)
        with pytest.raises(ValueError, match="not unitary"):
            gqsp_matrix(ph, 1.01 * U, X)
        # A defect within the U check, but over d layers past the product's.
        M = len(U)
        with pytest.raises(NumericalError, match="layers of unitarity"):
            gqsp_matrix(ph, U, X, defect=0.9 * phases.VALIDATION_TOL * M)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
def test_a_moved_angle_fails_the_round_trip(inverse_design):
    # ROUND_TRIP_TOL * (d + 1) is absolute, while the kappa = 100 design's
    # largest coefficient is 0.005: theta_276 moved by 1e-6 moves P by
    # about 1e-6, under the tolerance of 5.5e-6, and passes.
    c, _ = rescale_to_margin(inverse_design(100).poly)
    ph = solve_phases(c)
    thetas = ph.thetas.copy()
    thetas[276] += 1e-6
    err = phases.round_trip_error(PhaseFactors(thetas, ph.phis, ph.lam), c)
    assert err > ROUND_TRIP_TOL * (ph.degree + 1)
