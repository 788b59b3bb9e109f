import math

import numpy as np
import pytest

from gqtlab.encodings import (
    EncodingValidationError,
    HermitianEncoding,
    ProjectedUnitaryEncoding,
    SubnormalizationError,
    dilate_general,
    dilate_hermitian,
    hermitianize,
    multiply,
    walk_operator,
)
from reference import (
    DegenerateBranchError,
    NearDegenerateWarning,
    coding_subspace_decomposition,
    controlled_walk,
    encoded_matrix,
    qubitized_eigenpairs,
    reflection,
)


def random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2


def random_isometry(rng, m, n):
    X = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    Q, _ = np.linalg.qr(X)
    return Q[:, :n]


class TestEncodedMatrix:
    def test_identity(self):
        e = ProjectedUnitaryEncoding(np.eye(3), np.eye(3), np.eye(3), 1.0)
        assert np.allclose(encoded_matrix(e), np.eye(3))

    def test_scalar_block(self):
        e = dilate_hermitian(np.array([[0.5]]), 1.0)
        assert np.allclose(encoded_matrix(e), [[0.5]])

    def test_random_dilation(self):
        rng = np.random.default_rng(31)
        A = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        e = dilate_general(A, 1.5 * np.linalg.norm(A, 2))
        assert np.linalg.norm(encoded_matrix(e) - A / e.alpha) < 1e-10

    def test_validation(self):
        with pytest.raises(EncodingValidationError):
            ProjectedUnitaryEncoding(np.ones((2, 2)), np.eye(2), np.eye(2), 1.0)

    def test_one_dimensional_isometry_is_a_listed_problem(self):
        with pytest.raises(EncodingValidationError, match="Pi_L is 1-D"):
            ProjectedUnitaryEncoding(np.eye(2), np.array([1.0, 0.0]),
                                     np.eye(2), 1.0)


class TestBlockNormCheck:
    """The block norm is bounded by sqrt((1 + d_U)(1 + d_L)(1 + d_R)) from
    the Gram defects; an SVD decides whenever that bound cannot."""

    @staticmethod
    def stretched(top):
        U = np.eye(64)
        U[0, 0] = top
        return U, np.eye(64)[:, :32]

    def test_block_above_one_is_rejected(self):
        # unitary to 1e-10 * 64, but the defect (about 4e-9) leaves the
        # bound open, and the block norm 1 + 2e-9 is over the limit
        U, Pi = self.stretched(1 + 2e-9)
        with pytest.raises(EncodingValidationError,
                           match="spectral norm above 1 \\+ 1e-9"):
            ProjectedUnitaryEncoding(U, Pi, Pi, 1.0)

    def test_block_within_limit_is_accepted(self):
        U, Pi = self.stretched(1 + 0.9e-9)
        ProjectedUnitaryEncoding(U, Pi, Pi, 1.0)


class TestDilateHermitian:
    def test_scalar(self):
        e = dilate_hermitian(np.array([[0.5]]), 1.0)
        s = math.sqrt(0.75)
        assert np.allclose(e.U, [[0.5, s], [s, -0.5]])

    def test_zero(self):
        e = dilate_hermitian(np.zeros((2, 2)), 1.0)
        assert np.allclose(e.U, np.block([[np.zeros((2, 2)), np.eye(2)],
                                          [np.eye(2), np.zeros((2, 2))]]))

    def test_random(self):
        rng = np.random.default_rng(32)
        A = random_hermitian(rng, 4)
        e = dilate_hermitian(A, 1.5 * np.linalg.norm(A, 2))
        assert np.linalg.norm(e.U @ e.U - np.eye(8)) < 1e-10
        assert np.linalg.norm(e.U - e.U.conj().T) < 1e-10
        assert np.linalg.norm(encoded_matrix(e) - A / e.alpha) < 1e-10

    def test_subnormalization_error(self):
        with pytest.raises(SubnormalizationError):
            dilate_hermitian(np.array([[2.0]]), 1.0)


class TestDilateGeneral:
    def test_unitary_input(self):
        rng = np.random.default_rng(33)
        U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        e = dilate_general(U, 1.0)
        assert np.allclose(encoded_matrix(e), U, atol=1e-10)

    def test_diagonal(self):
        e = dilate_general(np.diag([0.3, 0.7]), 1.0)
        assert np.allclose(encoded_matrix(e), np.diag([0.3, 0.7]), atol=1e-12)

    def test_rectangular(self):
        rng = np.random.default_rng(34)
        A = rng.normal(size=(3, 5))
        e = dilate_general(A, 1.2 * np.linalg.norm(A, 2))
        assert np.linalg.norm(e.U.conj().T @ e.U - np.eye(8)) < 1e-10
        assert np.linalg.norm(encoded_matrix(e) - A / e.alpha) < 1e-10


class TestSubnormalizationCheck:
    """Both dilations take ||A|| from the decomposition they already run,
    and keep the threshold alpha < ||A|| - 1e-12."""

    @pytest.mark.parametrize("dilate, A", [
        (dilate_hermitian, np.diag([2.0, -0.5])),
        (dilate_general, np.array([[2.0, 0.0, 0.0], [0.0, 0.5, 0.0]])),
    ])
    def test_threshold(self, dilate, A):
        dilate(A, 2.0 - 5e-13)
        with pytest.raises(SubnormalizationError):
            dilate(A, 2.0 - 2e-12)
        for alpha in (0.0, -3.0, math.nan, math.inf):
            with pytest.raises(SubnormalizationError):
                dilate(A, alpha)

    def test_encoding_alpha_must_be_finite(self):
        # A/inf = 0 would encode silently; alpha must be positive and finite.
        e = dilate_hermitian(np.diag([0.5]), 1.0)
        with pytest.raises(EncodingValidationError, match="finite"):
            ProjectedUnitaryEncoding(e.U, e.Pi_L, e.Pi_R, math.inf)

    @pytest.mark.parametrize("dilate", [dilate_hermitian, dilate_general])
    def test_one_decomposition(self, dilate, monkeypatch):
        calls = []
        for name in ("eigh", "svd", "norm"):
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                if _name != "norm" or args[1:] == (2,):
                    calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        dilate(random_hermitian(np.random.default_rng(36), 4), 20.0)
        # the encoding's check of its own block follows from its Gram
        # defects, so no 2-norm is left
        assert calls == ["eigh" if dilate is dilate_hermitian else "svd"]


class TestReflection:
    def test_full_isometry(self):
        assert np.allclose(reflection(np.eye(3)), np.eye(3))

    def test_e0(self):
        Pi = np.array([[1.0], [0.0]])
        assert np.allclose(reflection(Pi), np.diag([1.0, -1.0]))

    def test_involution(self):
        rng = np.random.default_rng(35)
        Pi = random_isometry(rng, 6, 2)
        R = reflection(Pi)
        assert np.linalg.norm(R @ R - np.eye(6)) < 1e-10
        assert np.linalg.norm(R - R.conj().T) < 1e-10


class TestWalkOperator:
    def test_scalar_half(self):
        e = dilate_hermitian(np.array([[0.5]]), 1.0)
        vals = np.linalg.eigvals(walk_operator(e))
        expected = {np.exp(1j * math.pi / 3), np.exp(-1j * math.pi / 3)}
        for v in vals:
            assert min(abs(v - w) for w in expected) < 1e-9

    def test_identity_fixed(self):
        with pytest.warns(NearDegenerateWarning):
            e = dilate_hermitian(np.eye(2), 1.0)
            W = walk_operator(e)
            v = e.Pi[:, 0]
            assert np.linalg.norm(W @ v - v) < 1e-9
            qubitized_eigenpairs(e)

    def test_spectrum(self):
        rng = np.random.default_rng(36)
        A = random_hermitian(rng, 4)
        alpha = 1.3 * np.linalg.norm(A, 2)
        e = dilate_hermitian(A, alpha)
        W = walk_operator(e)
        vals = np.linalg.eigvals(W)
        lam = np.linalg.eigvalsh(A) / alpha
        expected = np.concatenate([np.exp(1j * np.arccos(lam)),
                                   np.exp(-1j * np.arccos(lam))])
        # the walk spectrum restricted to the qubitized pairs
        got = sorted(vals, key=lambda v: -abs(v))
        for w in expected:
            assert min(abs(w - v) for v in vals) < 1e-9

    @pytest.mark.parametrize("build", ["hermitian", "hermitianized",
                                       "adjoint_product"])
    def test_equals_reflection_product(self, build):
        rng = np.random.default_rng(38)
        A = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        alpha = 1.2 * np.linalg.norm(A, 2)
        if build == "hermitian":
            e = dilate_hermitian(random_hermitian(rng, 4), 9.0)
        elif build == "hermitianized":
            e = hermitianize(dilate_general(A, alpha))
        else:
            g = dilate_general(A, alpha)
            e = multiply(g.adjoint(), g)
        assert np.array_equal(walk_operator(e), reflection(e.Pi) @ e.U)

    def test_rotated_isometry(self):
        rng = np.random.default_rng(39)
        e = dilate_hermitian(random_hermitian(rng, 4), 9.0)
        Q = random_isometry(rng, 8, 8)
        r = HermitianEncoding(Q @ e.U @ Q.conj().T, Q @ e.Pi, 9.0)
        diff = walk_operator(r) - reflection(r.Pi) @ r.U
        assert np.max(np.abs(diff)) <= 1e-14


class TestAdjoint:
    def test_equals_checked_construction(self, monkeypatch):
        from gqtlab import encodings

        rng = np.random.default_rng(67)
        A = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        e = dilate_general(A, 1.2 * np.linalg.norm(A, 2))
        built = ProjectedUnitaryEncoding(e.U.conj().T, e.Pi_R, e.Pi_L, e.alpha)
        checks = []
        norm = np.linalg.norm

        def counted_norm(*args, **kwargs):
            if args[1:] == (2,) or kwargs.get("ord") == 2:
                checks.append("norm")
            return norm(*args, **kwargs)

        monkeypatch.setattr(encodings, "_unitary_defect",
                            lambda U: checks.append("gram"))
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        adj = e.adjoint()
        monkeypatch.undo()
        assert checks == []
        assert type(adj) is ProjectedUnitaryEncoding
        for name in ("U", "Pi_L", "Pi_R"):
            assert np.array_equal(getattr(adj, name), getattr(built, name))
            assert not getattr(adj, name).flags.writeable
        assert adj.alpha == built.alpha
        assert isinstance(multiply(adj, e), HermitianEncoding)


class TestQubitizedPairs:
    def test_scalar_half(self):
        e = dilate_hermitian(np.array([[0.5]]), 1.0)
        (pair,) = qubitized_eigenpairs(e)
        assert pair.gamma == pytest.approx(math.pi / 3)
        assert pair.eigvals[0] == pytest.approx(np.exp(1j * math.pi / 3))

    def test_degenerate_branch(self):
        with pytest.warns(NearDegenerateWarning):
            e = dilate_hermitian(np.array([[1.0]]), 1.0)
            (pair,) = qubitized_eigenpairs(e)
        assert pair.degenerate
        assert pair.eigvals[0] == pytest.approx(1.0)
        W = walk_operator(e)
        v = pair.eigvecs[0]
        assert np.linalg.norm(W @ v - v) < 1e-9

    def test_residuals(self):
        rng = np.random.default_rng(37)
        A = random_hermitian(rng, 4)
        e = dilate_hermitian(A, 1.4 * np.linalg.norm(A, 2))
        W = walk_operator(e)
        for pair in qubitized_eigenpairs(e):
            for val, vec in zip(pair.eigvals, pair.eigvecs):
                assert abs(np.linalg.norm(vec) - 1) < 1e-10
                assert np.linalg.norm(W @ vec - val * vec) < 1e-9


class TestCodingSubspace:
    def test_scalar_half(self):
        e = dilate_hermitian(np.array([[0.5]]), 1.0)
        (pair,) = qubitized_eigenpairs(e)
        rec = coding_subspace_decomposition(pair)
        target = np.array([1.0, 0.0])
        phase = rec[0] / abs(rec[0])
        assert np.linalg.norm(rec / phase - target) < 1e-9

    def test_zero_matrix(self):
        e = dilate_hermitian(np.array([[0.0]]), 1.0)
        (pair,) = qubitized_eigenpairs(e)
        assert pair.gamma == pytest.approx(math.pi / 2)
        rec = coding_subspace_decomposition(pair)
        enc = encoded_matrix(e)
        _, vecs = np.linalg.eigh(enc)
        assert np.linalg.norm(rec - e.Pi @ vecs[:, 0]) < 1e-12

    def test_random(self):
        rng = np.random.default_rng(38)
        A = random_hermitian(rng, 4)
        e = dilate_hermitian(A, 1.5 * np.linalg.norm(A, 2))
        _, vecs = np.linalg.eigh(encoded_matrix(e))
        for pair, v in zip(qubitized_eigenpairs(e), vecs.T):
            rec = coding_subspace_decomposition(pair)
            assert np.linalg.norm(rec - e.Pi @ v) < 1e-9

    def test_degenerate_error(self):
        with pytest.warns(NearDegenerateWarning):
            e = dilate_hermitian(np.array([[1.0]]), 1.0)
            (pair,) = qubitized_eigenpairs(e)
        with pytest.raises(DegenerateBranchError):
            coding_subspace_decomposition(pair)


class TestControlledWalk:
    def test_blocks(self):
        rng = np.random.default_rng(39)
        A = random_hermitian(rng, 3)
        e = dilate_hermitian(A, 1.2 * np.linalg.norm(A, 2))
        C = controlled_walk(e)
        M = e.M
        assert np.allclose(C[:M, :M], walk_operator(e))
        assert np.allclose(C[M:, M:], np.eye(M))
        assert np.allclose(C[:M, M:], 0)

    def test_decomposed_equals_direct(self):
        rng = np.random.default_rng(40)
        A = random_hermitian(rng, 4)
        e = dilate_hermitian(A, 1.3 * np.linalg.norm(A, 2))
        d1 = controlled_walk(e)
        d2 = controlled_walk(e, decomposed=True)
        assert np.linalg.norm(d1 - d2) < 1e-12


class TestHermitianize:
    def test_scalar_one(self):
        e = dilate_general(np.array([[1.0]]), 1.0)
        h = hermitianize(e)
        enc = encoded_matrix(h)
        assert np.allclose(enc, [[0, 1], [1, 0]], atol=1e-10)
        assert sorted(np.linalg.eigvalsh(enc)) == pytest.approx([-1, 1])

    def test_singular_values_one_zero(self):
        h = hermitianize(dilate_general(np.diag([1.0, 0.0]), 1.0))
        vals = np.sort(np.linalg.eigvalsh(encoded_matrix(h)))
        assert np.allclose(vals, [-1, 0, 0, 1], atol=1e-10)

    def test_pm_singular_values(self):
        rng = np.random.default_rng(41)
        A = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        e = dilate_general(A, 1.3 * np.linalg.norm(A, 2))
        h = hermitianize(e)
        assert np.linalg.norm(h.U - h.U.conj().T) < 1e-12
        sv = np.linalg.svd(A / e.alpha, compute_uv=False)
        vals = np.sort(np.linalg.eigvalsh(encoded_matrix(h)))
        expected = np.sort(np.concatenate(
            [sv, -sv, np.zeros(len(vals) - 2 * len(sv))]))
        assert np.allclose(vals, expected, atol=1e-10)


class TestInheritedDefects:
    """Hermitianized encodings and walk operators on coordinate isometries
    take the defects that follow from the checked U instead of measuring
    their own; a general isometry still has its walk measured."""

    @staticmethod
    def general(case):
        rng = np.random.default_rng(68)
        shape = {"wide": (3, 5), "tall": (5, 3), "square": (4, 4),
                 "rank_deficient": (5, 4), "stretched": (5, 4)}[case]
        A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if case == "rank_deficient":
            A[:, 2:] = A[:, :2] @ rng.normal(size=(2, 2))  # rank 2
        e = dilate_general(A, 1.2 * np.linalg.norm(A, 2))
        if case == "stretched":  # delta_U = 2e-11 * 3 = 6e-11, far above roundoff
            e = ProjectedUnitaryEncoding(e.U * (1 + 1e-11), e.Pi_L, e.Pi_R,
                                         e.alpha)
        return e

    @pytest.mark.parametrize("case", ["wide", "tall", "square",
                                      "rank_deficient", "stretched"])
    def test_hermitianized_defects_match_measured(self, case):
        from gqtlab.phases import _unitary_defect
        e = self.general(case)
        assert e.defects[0] == _unitary_defect(e.U)
        h = hermitianize(e)
        assert abs(h.defects[0] - _unitary_defect(h.U)) <= 1e-14 * h.M
        iso = np.linalg.norm(h.Pi.conj().T @ h.Pi - np.eye(h.N_L))
        assert h.defects[1:] == (iso, iso)
        # the checked construction of the same matrices agrees
        checked = HermitianEncoding(h.U, h.Pi, h.alpha)
        assert abs(h.defects[0] - checked.defects[0]) <= 1e-14 * h.M

    def test_hermitianize_runs_no_check(self, monkeypatch):
        from gqtlab import encodings
        e = self.general("wide")
        M, Z = e.M, np.zeros((e.M, e.M))
        checked = HermitianEncoding(
            np.block([[Z, e.U], [e.U.conj().T, Z]]),
            np.block([[e.Pi_L, np.zeros((M, e.N_R))],
                      [np.zeros((M, e.N_L)), e.Pi_R]]),
            e.alpha)
        calls = []
        monkeypatch.setattr(encodings, "_unitary_defect",
                            lambda U: calls.append("gram"))
        for name in ("norm", "svd", "eigh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda *a, _n=name, _r=real, **k: calls.append(_n) or _r(*a, **k))
        h = hermitianize(e)
        monkeypatch.undo()
        assert calls == []
        assert type(h) is HermitianEncoding and h.alpha == checked.alpha
        for name in ("U", "Pi_L", "Pi_R"):
            assert np.array_equal(getattr(h, name), getattr(checked, name))
            assert not getattr(h, name).flags.writeable

    def test_hermitianize_judges_the_derived_isometry(self):
        # Pi_L and Pi_R each 0.8e-10 off isometric pass alone, but
        # diag(Pi_L, Pi_R) is hypot(0.8e-10, 0.8e-10) = 1.13e-10 off: refused,
        # as the checked construction refuses it.
        t = math.sqrt(1 + 0.8e-10) - 1  # (1 + t)^2 - 1 = 0.8e-10
        Pi = np.array([[1.0 + t], [0.0]])
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        e = ProjectedUnitaryEncoding(X, Pi, Pi, 1.0)
        assert e.defects[1] == pytest.approx(0.8e-10, rel=1e-5)
        with pytest.raises(EncodingValidationError, match="isometry"):
            hermitianize(e)
        Z = np.zeros((2, 2))
        with pytest.raises(EncodingValidationError, match="isometry"):
            HermitianEncoding(np.block([[Z, X], [X, Z]]),
                              np.block([[Pi, 0 * Pi], [0 * Pi, Pi]]), 1.0)

    def test_adjoint_swaps_the_isometry_defects(self):
        rng = np.random.default_rng(69)
        U = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        Pi_L = np.eye(4)[:, :2] * (1 + 1e-11)
        e = ProjectedUnitaryEncoding(U, Pi_L, np.eye(4)[:, :3], 1.0)
        assert e.adjoint().defects == (e.defects[0], e.defects[2],
                                       e.defects[1])

    @pytest.mark.parametrize("build", ["hermitianize", "multiply"])
    @pytest.mark.parametrize("case", ["wide", "tall", "square"])
    def test_coordinate_walk_has_the_gram_of_u(self, build, case):
        from gqtlab.encodings import _walk_defect
        from gqtlab.phases import _unitary_defect
        g = self.general(case)
        e = hermitianize(g) if build == "hermitianize" else multiply(
            g.adjoint(), g)
        W = walk_operator(e)
        # bit for bit: W is U with rows negated
        assert _unitary_defect(W) == _unitary_defect(e.U)
        assert _walk_defect(e) == e.defects[0]
        if build == "multiply":  # measured, not derived
            assert e.defects[0] == _unitary_defect(e.U)

    def test_general_isometry_walk_is_measured(self, monkeypatch):
        from gqtlab import phases, transforms
        from gqtlab.encodings import _walk_defect
        from gqtlab.polynomials import PolyCoeffs
        rng = np.random.default_rng(70)
        e = dilate_hermitian(random_hermitian(rng, 4), 9.0)
        Q = random_isometry(rng, 8, 8)
        r = HermitianEncoding(Q @ e.U @ Q.conj().T, Q @ e.Pi, 9.0)
        assert _walk_defect(r) is None
        W = walk_operator(r)
        measured, check = [], phases._unitary_defect
        monkeypatch.setattr(phases, "_unitary_defect",
                            lambda U: measured.append(U.copy()) or check(U))
        c = PolyCoeffs([0.1, 0.4, 0.2])
        transforms.extract_svt(transforms.gqet(r, c))
        assert len(measured) == 1 and np.array_equal(measured[0], W)
        # a walk off unitary on that path is refused by the kernel
        bad = W.copy()
        bad[0, 0] += 1e-8
        monkeypatch.setattr(transforms, "walk_operator", lambda e: bad)
        with pytest.raises(ValueError, match="unitary"):
            transforms.extract_svt(transforms.gqet(r, c))


class TestMultiply:
    def test_unitary_squares_to_identity(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        e = ProjectedUnitaryEncoding(X, np.eye(2), np.eye(2), 1.0)
        prod = multiply(e, e)
        assert np.allclose(encoded_matrix(prod), np.eye(2), atol=1e-12)

    def test_scalars(self):
        e = dilate_hermitian(np.array([[0.5]]), 1.0)
        prod = multiply(e, e)
        assert np.allclose(encoded_matrix(prod), [[0.25]], atol=1e-12)

    def test_rectangular_product(self):
        rng = np.random.default_rng(42)
        A1 = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        A2 = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        e1 = dilate_general(A1, 1.2 * np.linalg.norm(A1, 2))
        e2 = dilate_general(A2, 1.3 * np.linalg.norm(A2, 2))
        prod = multiply(e1, e2)
        assert np.linalg.norm(
            encoded_matrix(prod) - A1 @ A2 / (e1.alpha * e2.alpha)) < 1e-10

    def test_one_extra_qubit(self):
        rng = np.random.default_rng(43)
        A1 = rng.normal(size=(2, 3))
        A2 = rng.normal(size=(3, 2))
        e1 = dilate_general(A1, 1.5 * np.linalg.norm(A1, 2))  # M = 5
        e2 = dilate_general(A2, 1.5 * np.linalg.norm(A2, 2))  # M = 5
        assert multiply(e1, e2).M == 2 * max(e1.M, e2.M)

    def test_padding_unequal_dims(self):
        rng = np.random.default_rng(44)
        A1 = rng.normal(size=(2, 2))
        A2 = rng.normal(size=(2, 5))
        e1 = dilate_general(A1, 1.2 * np.linalg.norm(A1, 2))  # M = 4
        e2 = dilate_general(A2, 1.2 * np.linalg.norm(A2, 2))  # M = 7
        prod = multiply(e1, e2)
        assert prod.M == 2 * 7
        assert np.linalg.norm(
            encoded_matrix(prod) - A1 @ A2 / (e1.alpha * e2.alpha)) < 1e-10

    def test_associative(self):
        rng = np.random.default_rng(45)
        A1 = rng.normal(size=(2, 3))
        A2 = rng.normal(size=(3, 4))
        A3 = rng.normal(size=(4, 2))
        encs = [dilate_general(A, 1.3 * np.linalg.norm(A, 2))
                for A in (A1, A2, A3)]
        left = encoded_matrix(multiply(multiply(encs[0], encs[1]), encs[2]))
        right = encoded_matrix(multiply(encs[0], multiply(encs[1], encs[2])))
        assert np.linalg.norm(left - right) < 1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(46)
        e1 = dilate_general(rng.normal(size=(2, 3)), 5.0)
        e2 = dilate_general(rng.normal(size=(4, 2)), 5.0)
        with pytest.raises(ValueError):
            multiply(e1, e2)


def dense_product(e1, e2):
    """Reference: kron(I2, U1) @ Omega @ kron(I2, U2) with both encodings
    padded to M = max(M1, M2) by an identity direct summand."""
    M = max(e1.M, e2.M)

    def pad(e):
        extra = M - e.M
        U = np.block([[e.U, np.zeros((e.M, extra))],
                      [np.zeros((extra, e.M)), np.eye(extra)]])
        return (U, np.vstack([e.Pi_L, np.zeros((extra, e.N_L))]),
                np.vstack([e.Pi_R, np.zeros((extra, e.N_R))]))

    (U1, P1L, P1R), (U2, P2L, P2R) = pad(e1), pad(e2)
    V = P1R @ P2L.conj().T
    eye = np.eye(M)
    Omega = np.block([[V, eye - P1R @ P1R.conj().T],
                      [eye - P2L @ P2L.conj().T, V.conj().T]])
    U_bar = np.kron(np.eye(2), U1) @ Omega @ np.kron(np.eye(2), U2)
    return (U_bar, np.vstack([P1L, np.zeros((M, e1.N_L))]),
            np.vstack([P2R, np.zeros((M, e2.N_R))]))


def random_encoding(rng, M, N_L, N_R):
    X = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    U, _ = np.linalg.qr(X)
    return ProjectedUnitaryEncoding(U, random_isometry(rng, M, N_L),
                                    random_isometry(rng, M, N_R), 1.0)


class TestMultiplyAgainstDenseProduct:
    @pytest.mark.parametrize("M1,M2,N", [
        (6, 6, 3),    # equal dimensions, Pi_{1,R} != Pi_{2,L}
        (4, 9, 2),    # first encoding padded
        (9, 4, 2),    # second encoding padded
        (1, 5, 1),
        (8, 3, 3),
    ])
    def test_random_isometries(self, M1, M2, N):
        rng = np.random.default_rng(60 + M1 + 10 * M2)
        e1 = random_encoding(rng, M1, 2 if M1 > 1 else 1, N)
        e2 = random_encoding(rng, M2, N, 1)
        assert not np.allclose(e1.Pi_R[:min(M1, M2)], e2.Pi_L[:min(M1, M2)])
        prod = multiply(e1, e2)
        U_bar, Pi_L, Pi_R = dense_product(e1, e2)
        assert type(prod) is ProjectedUnitaryEncoding
        assert np.max(np.abs(prod.U - U_bar)) <= 1e-12
        assert np.array_equal(prod.Pi_L, Pi_L)
        assert np.array_equal(prod.Pi_R, Pi_R)

    def test_adjoint_pair_is_hermitian(self):
        rng = np.random.default_rng(66)
        A = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        e = dilate_general(A, 1.2 * np.linalg.norm(A, 2))
        e_dag = ProjectedUnitaryEncoding(e.U.conj().T, e.Pi_R, e.Pi_L, e.alpha)
        prod = multiply(e_dag, e)
        U_bar, Pi_L, Pi_R = dense_product(e_dag, e)
        assert isinstance(prod, HermitianEncoding)
        assert np.max(np.abs(prod.U - U_bar)) <= 1e-12
        assert np.allclose(encoded_matrix(prod),
                           A.conj().T @ A / e.alpha ** 2, atol=1e-12)


class TestHermitianEncodingType:
    def test_takes_one_isometry(self):
        rng = np.random.default_rng(47)
        A = random_hermitian(rng, 2)
        e = dilate_hermitian(A, 1.2 * np.linalg.norm(A, 2))
        h = HermitianEncoding(e.U, e.Pi, e.alpha)
        assert np.array_equal(h.Pi_L, h.Pi_R)
        assert np.array_equal(h.Pi, e.Pi)
        assert np.allclose(encoded_matrix(h), A / e.alpha, rtol=0.0,
                           atol=1e-12)

    def test_requires_hermitian_unitary(self):
        rng = np.random.default_rng(48)
        U, _ = np.linalg.qr(rng.normal(size=(4, 4))
                            + 1j * rng.normal(size=(4, 4)))
        Pi = np.eye(4)[:, :2]
        with pytest.raises(EncodingValidationError):
            HermitianEncoding(U, Pi, 1.0)


class TestStructuredReads:
    """The product of an adjoint pair on a coordinate isometry is formed
    from two Grams, the unitarity check reads the two exact 2x2-block
    structures, and coordinate isometries are read by index; each agrees
    with the dense product it replaces."""

    CASES = ["wide", "tall", "square", "rank_deficient", "stretched"]

    @staticmethod
    def dense_defect(U):
        return float(np.linalg.norm(U.conj().T @ U - np.eye(len(U))))

    @pytest.mark.parametrize("case", CASES)
    def test_two_gram_product_matches_the_block_product(self, case):
        from gqtlab.encodings import _block_product
        e = TestInheritedDefects.general(case)
        prod = multiply(e.adjoint(), e)
        apply, Pi_L, Pi_R = _block_product(e.U.conj().T, e.Pi_R, e.Pi_L,
                                           e.U, e.Pi_L, e.Pi_R)
        U_bar = apply(np.eye(len(Pi_L), dtype=complex))
        assert type(prod) is HermitianEncoding
        assert np.max(np.abs(prod.U - U_bar)) <= 1e-14 * prod.M
        assert np.array_equal(prod.Pi, Pi_L) and np.array_equal(Pi_L, Pi_R)
        assert prod.alpha == e.alpha ** 2
        # measured at construction: the stretched U_bar carries its defect
        assert abs(prod.defects[0] - self.dense_defect(U_bar)) <= 1e-14 * prod.M
        if case == "stretched":
            assert prod.defects[0] > 1e-11

    def test_only_a_coordinate_adjoint_pair_skips_the_block_product(
            self, monkeypatch):
        from gqtlab import encodings
        calls, real = [], encodings._block_product
        monkeypatch.setattr(encodings, "_block_product",
                            lambda *a: calls.append(a) or real(*a))
        rng = np.random.default_rng(71)
        g = dilate_general(rng.normal(size=(4, 3)), 9.0)
        multiply(g.adjoint(), g)
        assert calls == []
        # the same pair seen through a rotated, non-coordinate isometry
        Q = random_isometry(rng, g.M, g.M)
        e = ProjectedUnitaryEncoding(Q @ g.U @ Q.conj().T, Q @ g.Pi_L,
                                     Q @ g.Pi_R, g.alpha)
        prod = multiply(e.adjoint(), e)
        assert len(calls) == 1
        U_bar, Pi_L, _ = dense_product(e.adjoint(), e)
        assert type(prod) is HermitianEncoding
        assert np.max(np.abs(prod.U - U_bar)) <= 1e-12
        assert np.array_equal(prod.Pi, Pi_L)

    @staticmethod
    def structured(case):
        """(U, structure) pairs the check reads by blocks."""
        rng = np.random.default_rng(72)
        g = TestInheritedDefects.general(case)
        h = dilate_hermitian(random_hermitian(rng, 5), 9.0)
        p = multiply(g.adjoint(), g)
        return {"product": p.U, "product walk": walk_operator(p),
                "hermitian": h.U, "hermitian walk": walk_operator(h)}

    @pytest.mark.parametrize("case", CASES)
    def test_structured_defect_matches_the_dense_gram(self, case):
        from gqtlab.phases import _paired_blocks, _unitary_defect
        for name, U in self.structured(case).items():
            assert _paired_blocks(U) is not None, name
            assert (abs(_unitary_defect(U) - self.dense_defect(U))
                    <= 1e-14 * len(U)), name

    @pytest.mark.parametrize("structure", ["X", "iY"])
    @pytest.mark.parametrize("stretched", [0, 1])
    def test_structured_defect_reads_each_block(self, structure, stretched):
        # U built from two blocks (a, b) of which one is stretched off
        # unitary by 1e-9, with some rows negated: the defect is that
        # block's, as the dense Gram measures it.
        from gqtlab.phases import _paired_blocks, _unitary_defect
        rng = np.random.default_rng(75)
        a, b = (random_isometry(rng, 6, 6) for _ in range(2))
        if stretched:
            b = b * (1 + 1e-9)
        else:
            a = a * (1 + 1e-9)
        if structure == "X":
            D, C = (a + b) / 2, (a - b) / 2
            U = np.block([[D, C], [C, D]])
        else:
            B, S = (a + b) / 2, (a - b) / 2j
            U = np.block([[B, S], [-S, B]])
        U[[0, 4, 7, 9]] *= -1
        assert _paired_blocks(U) is not None
        dense = self.dense_defect(U)
        assert dense > 1e-9
        assert abs(_unitary_defect(U) - dense) <= 1e-14 * len(U)

    @pytest.mark.parametrize("row", ["top", "bottom"])
    def test_a_moved_entry_breaks_the_structure(self, row, monkeypatch):
        from gqtlab import encodings
        from gqtlab.phases import _paired_blocks, _unitary_defect
        g = TestInheritedDefects.general("square")
        p = multiply(g.adjoint(), g)
        h = dilate_hermitian(random_hermitian(np.random.default_rng(73), 4),
                             9.0)
        for e in (p, h):
            U = np.array(e.U)
            U[0 if row == "top" else e.M // 2, 1] += 1e-8
            assert _paired_blocks(U) is None
            measured = []
            monkeypatch.setattr(
                encodings, "_unitary_defect",
                lambda X: measured.append(_unitary_defect(X)) or measured[-1])
            with pytest.raises(EncodingValidationError, match="not unitary"):
                HermitianEncoding(U, e.Pi, e.alpha)
            monkeypatch.undo()
            assert measured == [self.dense_defect(U)]
            assert measured[0] > 1e-10 * e.M

    def test_coordinate_reads_equal_the_dense_products(self):
        from gqtlab.encodings import _block, _validate_core
        from gqtlab.phases import _column_defect
        rng = np.random.default_rng(74)
        g = dilate_general(rng.normal(size=(5, 3))
                           + 1j * rng.normal(size=(5, 3)), 9.0)
        E_L, E_R = g.Pi_L, g.Pi_R

        class Operator:  # a matrix seen only through `@`
            shape = g.U.shape

            def __matmul__(self, X):
                return g.U @ X

        dense = E_L.conj().T @ (g.U @ E_R)
        for U in (g.U, Operator()):
            assert _block(U, E_L, E_R).tobytes() == dense.tobytes()
        Y = g.U @ E_R
        want = float(np.linalg.norm(Y.conj().T @ Y - E_R.conj().T @ E_R))
        assert _column_defect(Y, E_R) == want
        # the isometry defects of a coordinate Pi are exactly 0, as the
        # dense Gram reads them
        _, defects = _validate_core(g.U, E_L, E_R, 1.0, False)
        assert defects[1:] == tuple(
            float(np.linalg.norm(P.conj().T @ P - np.eye(P.shape[1])))
            for P in (E_L, E_R)) == (0.0, 0.0)
