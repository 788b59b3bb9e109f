import math

import numpy as np
import pytest

from gqtlab import transforms
from gqtlab.encodings import (
    HermitianEncoding,
    ProjectedUnitaryEncoding,
    dilate_general,
    dilate_hermitian,
    hermitianize,
)
from gqtlab.phases import _unitary_defect
from gqtlab.polynomials import (
    ApproxSpec,
    NumericalError,
    ParityError,
    PolyCoeffs,
    approx_inverse,
)
from gqtlab.transforms import (
    CircuitProduct,
    ZeroProbabilityError,
    eigen_oracle,
    extract_svt,
    gqet,
    gqsvt_hermitianization,
    gqsvt_multiplication,
    simulate_postselect,
    svt_oracle,
    _Operator,
)
import reference
from reference import (
    gqet_absorbed_matrix,
    parity_split,
    qsvt_circuit,
    qsvt_equivalence_check,
)


def random_hermitian(rng, n):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = X + X.conj().T
    return A / (np.linalg.norm(A, 2) * 1.1)


def random_contraction(rng, nl, nr, cap=0.9):
    A = rng.normal(size=(nl, nr)) + 1j * rng.normal(size=(nl, nr))
    return A * (cap / np.linalg.norm(A, 2))


def dense_circuit(cp):
    """The dense circuit: its operator applied to the identity."""
    return cp.operator @ np.eye(cp.operator.shape[0])


def scaled_random_poly(rng, d, target=0.9):
    from gqtlab.polynomials import max_abs_circle
    a = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
    c = PolyCoeffs(a)
    return c.scaled(target / max_abs_circle(c))


def scaled_for_mult(c, parity, target=0.9):
    # admissible for the product route: the substituted q stays under 1
    from gqtlab.polynomials import (
        max_abs_circle, sqrt_substitute_even, sqrt_substitute_odd)
    q = (sqrt_substitute_even(c) if parity == "even"
         else sqrt_substitute_odd(c))
    s = target / max(max_abs_circle(q), max_abs_circle(c))
    return c.scaled(min(s, 1.0))


class TestGqet:
    def test_t1_scalar(self):
        e = dilate_hermitian(np.array([[0.5]]), 1.0)
        cp = gqet(e, PolyCoeffs([0, 0.9]))
        blk = extract_svt(cp)
        assert blk[0, 0] == pytest.approx(0.45, abs=1e-12)
        assert cp.queries_U == 1 and cp.queries_U_dagger == 0

    def test_t2_random(self):
        rng = np.random.default_rng(31)
        A = random_hermitian(rng, 4)
        e = dilate_hermitian(A, 1.0)
        cp = gqet(e, PolyCoeffs([0, 0, 0.8]))
        blk = extract_svt(cp)
        assert np.linalg.norm(blk - 0.8 * (2 * A @ A - np.eye(4)), 2) < 1e-10

    def test_mixed_degree9_vs_eigen_oracle(self):
        rng = np.random.default_rng(32)
        A = random_hermitian(rng, 5)
        e = dilate_hermitian(A, 1.0)
        c = scaled_random_poly(rng, 9)
        cp = gqet(e, c)
        ref = eigen_oracle(A, 1.0, cp.poly)
        assert np.linalg.norm(extract_svt(cp) - ref, 2) <= 1e-8 * 10

    def test_auto_rescale(self):
        e = dilate_hermitian(np.array([[0.5]]), 1.0)
        cp = gqet(e, PolyCoeffs([0, 1.0]))  # |P| = 1 on the circle
        assert cp.scale_applied < 1.0
        assert extract_svt(cp)[0, 0] == pytest.approx(
            cp.scale_applied * 0.5, abs=1e-10)

    @pytest.mark.parametrize("a", [[0, 0.5], [0, 1.0]],
                             ids=["inside", "rescaled"])
    def test_one_circle_norm(self, monkeypatch, a):
        # rescale_to_margin measures max |P| once; solve_phases not again.
        from gqtlab import phases
        calls = []
        real = phases.max_abs_circle
        monkeypatch.setattr(phases, "max_abs_circle",
                            lambda c: calls.append(c) or real(c))
        gqet(dilate_hermitian(np.array([[0.5]]), 1.0), PolyCoeffs(a))
        assert len(calls) == 1

    def test_subnormalized(self):
        rng = np.random.default_rng(33)
        A = random_hermitian(rng, 3)
        e = dilate_hermitian(A, 2.5)
        c = scaled_random_poly(rng, 6)
        cp = gqet(e, c)
        ref = eigen_oracle(A, 2.5, cp.poly)
        assert np.linalg.norm(extract_svt(cp) - ref, 2) <= 1e-8 * 7


def test_gqet_accepts_what_the_encoding_accepts():
    # One unitarity rule: delta_U = 1.2e-9 is within 1e-10 * 16 for the
    # encoding and for the walk operator gqsp_matrix receives; two layers,
    # 2.4e-9, are within 1e-10 * 32.
    rng = np.random.default_rng(49)
    A = random_hermitian(rng, 8)
    e0 = dilate_hermitian(A, 1.0)
    t = math.sqrt(1 + 1.2e-9 / 4) - 1  # ||(1 + t)^2 I_16 - I_16||_F = 1.2e-9
    U = e0.U * (1 + t)
    assert _unitary_defect(U) == pytest.approx(1.2e-9, rel=1e-3)
    e = HermitianEncoding(U, e0.Pi, 1.0)
    cp = gqet(e, PolyCoeffs([0.1, 0.2, 0.5]))
    assert np.linalg.norm(extract_svt(cp) - eigen_oracle(A, 1.0, cp.poly),
                          2) <= 1e-8


class TestAbsorbedForm:
    def test_matches_walk_form(self):
        rng = np.random.default_rng(34)
        A = random_hermitian(rng, 4)
        e = dilate_hermitian(A, 1.0)
        c = scaled_random_poly(rng, 7)
        cp = gqet(e, c)
        absorbed = gqet_absorbed_matrix(e, cp.phases)
        assert np.linalg.norm(absorbed - dense_circuit(cp), 2) < 1e-12

    def test_degree_zero(self):
        e = dilate_hermitian(np.array([[0.3]]), 1.0)
        cp = gqet(e, PolyCoeffs([0.25]))
        absorbed = gqet_absorbed_matrix(e, cp.phases)
        assert np.linalg.norm(absorbed - dense_circuit(cp), 2) < 1e-12


class TestCircuitProductCheck:
    def make(self, matrix):
        """A product whose operator applies `matrix`."""
        E = np.eye(len(matrix))[:, :1]
        op = _Operator(lambda X: matrix @ X, len(matrix))
        return CircuitProduct(
            operator=op, queries_U=0, queries_U_dagger=0, degree=0,
            route="test", scale_applied=1.0, extraction={"default": (E, E)},
            poly=PolyCoeffs([1.0]))

    def test_non_unitary_raises(self):
        cp = self.make(np.ones((4, 4)))
        with pytest.raises(NumericalError, match="isometric"):
            dense_circuit(cp)

    def test_tolerance_is_1e_10_per_dimension(self):
        # ||(1 + t)^2 I_4 - I_4||_F = 2 t (2 + t) against 1e-10 * 4: t = 5e-12
        # passes; t = 5e-10 (defect 2e-9, within 1e-9 * 4) is rejected.
        dense_circuit(self.make(np.eye(4) * (1 + 0.5e-11)))
        with pytest.raises(NumericalError, match="isometric"):
            dense_circuit(self.make(np.eye(4) * (1 + 0.5e-9)))

    def test_matrix_is_read_only(self):
        m = np.eye(4, dtype=complex)
        cp = self.make(m)
        with pytest.raises(ValueError):
            dense_circuit(cp)[0, 0] = 2.0
        m[0, 0] = 2.0  # the caller's array is not the frozen one
        assert dense_circuit(cp)[0, 0] == 1.0

    def test_push_that_changes_the_gram_matrix_raises(self, monkeypatch):
        # No circuit is formed on the operator path; the pushed columns are
        # what is checked.
        from gqtlab import transforms
        kernel = transforms.gqsp_matrix
        monkeypatch.setattr(transforms, "gqsp_matrix",
                            lambda ph, U, columns, **inherited:
                            (1 + 1e-9) * kernel(ph, U, columns=columns,
                                                **inherited))
        cp = gqet(dilate_hermitian(np.array([[0.5]]), 1.0),
                  PolyCoeffs([0, 0.9]))
        with pytest.raises(NumericalError, match="isometric"):
            extract_svt(cp)

    def test_relabelled_product_shares_its_operator(self):
        import dataclasses
        cp = self.make(np.eye(2, dtype=complex))
        other = dataclasses.replace(cp, route="relabelled")
        assert other.operator is cp.operator
        assert other.route == "relabelled" and cp.route == "test"
        # Products compare and hash by identity, not by field values.
        assert other != cp and cp == cp
        assert len({cp, other}) == 2
        with pytest.raises(AttributeError):
            cp.route = "changed"

    def test_route_products_are_read_only(self):
        e = dilate_general(np.array([[0.4, 0.2], [0.1, 0.3]]), 1.0)
        for cp in (gqsvt_hermitianization(e, PolyCoeffs([0, 0.5])),
                   gqsvt_multiplication(e, PolyCoeffs([0, 0.5]))[0],
                   gqsvt_multiplication(e, PolyCoeffs([0.2, 0, 0.5]))[0]):
            assert not dense_circuit(cp).flags.writeable


def _gqet(rng):
    return gqet(dilate_hermitian(random_hermitian(rng, 4), 1.0),
                scaled_random_poly(rng, 9))


def _square_hermitianization(rng):
    A = random_hermitian(rng, 3)
    return gqsvt_hermitianization(dilate_hermitian(A, 1.0),
                                  scaled_random_poly(rng, 7))


def _mult(parity):
    def build(rng):
        A = random_contraction(rng, 3, 4)
        a = np.zeros(8 if parity == "odd" else 7, dtype=complex)
        a[1 if parity == "odd" else 0::2] = rng.normal(size=4)
        c = scaled_for_mult(PolyCoeffs(a), parity)
        return gqsvt_multiplication(dilate_general(A, 1.0), c)[0]
    return build


class TestOperatorMatchesDense:
    """Each route read through its operator (pushing only the extracted
    columns) against the same route's dense circuit (pushing the identity)."""

    EXTRACTIONS = [
        pytest.param(_gqet, "default", id="gqet"),
        *[pytest.param(_square_hermitianization, which,
                       id=f"hermitianization-{which}")
          for which in ("default", "odd", "even", "upper_left",
                        "hermitian_full")],
        pytest.param(_mult("even"), "default", id="multiplication-even"),
        pytest.param(_mult("odd"), "default", id="multiplication-odd"),
    ]

    @pytest.mark.parametrize("build,which", EXTRACTIONS)
    def test_extraction(self, build, which):
        cp = build(np.random.default_rng(46))
        pushed = extract_svt(cp, which)
        E_L, E_R = cp.extraction[which]
        dense = E_L.conj().T @ dense_circuit(cp) @ E_R
        assert np.max(np.abs(pushed - dense)) <= 1e-13

    # The one-stage circuits (stages=None) run measure-early as end-only.
    @pytest.mark.parametrize("schedule", ["end-only", "measure-early"])
    @pytest.mark.parametrize("shape", [(), (2,)], ids=["vector", "matrix"])
    @pytest.mark.parametrize("build", [
        pytest.param(_mult("even"), id="even"),
        pytest.param(_mult("odd"), id="odd"),
        pytest.param(_gqet, id="gqet"),
        pytest.param(_square_hermitianization, id="hermitianization"),
    ])
    def test_postselection(self, build, shape, schedule):
        rng = np.random.default_rng(47)
        cp = build(rng)
        E_L, E_R = cp.extraction["default"]
        n = E_R.shape[1]
        x = rng.normal(size=(n, *shape)) + 1j * rng.normal(size=(n, *shape))
        out = simulate_postselect(cp, input=x, schedule=schedule)
        y = E_L.conj().T @ dense_circuit(cp) @ E_R @ x
        p = np.linalg.norm(y) ** 2 / np.linalg.norm(x) ** 2
        assert np.max(np.abs(out.conditioned - y / np.linalg.norm(y))) <= 1e-13
        assert out.success_prob == pytest.approx(p, rel=1e-13)


def test_gqet_large_dimension_pushes_columns_only(monkeypatch):
    # M = 1024: the 2048 x 2048 circuit and its unitarity check would need
    # more than 256 MiB; the pushed 2048 x 512 stack needs about 120.
    import tracemalloc
    from gqtlab import transforms
    kernel, stacks = transforms.gqsp_matrix, []

    def recording(ph, U, columns, **inherited):
        stacks.append(columns.shape)
        return kernel(ph, U, columns=columns, **inherited)

    monkeypatch.setattr(transforms, "gqsp_matrix", recording)
    rng = np.random.default_rng(48)
    A = random_hermitian(rng, 512)
    c = scaled_random_poly(rng, 4)
    tracemalloc.start()
    try:
        cp = gqet(dilate_hermitian(A, 1.0), c)
        blk = extract_svt(cp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stacks == [(2048, 512)]
    assert np.linalg.norm(blk - eigen_oracle(A, 1.0, cp.poly), 2) <= 1e-8 * 4
    assert peak < 192 * 2 ** 20


class TestOracles:
    def test_eigen_identity_poly(self):
        rng = np.random.default_rng(35)
        A = random_hermitian(rng, 4)
        assert np.allclose(eigen_oracle(A, 1.0, PolyCoeffs([0, 1])), A)

    def test_svt_odd_identity(self):
        rng = np.random.default_rng(36)
        A = random_contraction(rng, 3, 5)
        assert np.allclose(svt_oracle(A, 1.0, PolyCoeffs([0, 1])), A,
                           atol=1e-12)

    def test_svt_even_constant_pad(self):
        A = np.zeros((2, 4))
        out = svt_oracle(A, 1.0, PolyCoeffs([0.7]))
        assert np.allclose(out, 0.7 * np.eye(4))


class TestParityReadFromCoefficients:
    """svt_oracle and gqsvt_multiplication read the parity of c by
    `definite_parity`; a parity nobody states cannot disagree with c."""

    A = np.array([[0.5, 0.1], [0.2, 0.3], [0.0, 0.4]])
    E = dilate_general(A, 1.0)

    def test_mixed_raises(self):
        # The rule itself: TestParity::test_classify.
        c = PolyCoeffs([0.3, 0.5])
        with pytest.raises(ParityError, match="mixed"):
            svt_oracle(self.A, 1.0, c)
        with pytest.raises(ParityError, match="mixed"):
            gqsvt_multiplication(self.E, c)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_zero_tol(self, near_definite, parity):
        # 1e-13 relative weight in the other parity runs as definite on
        # both singular-value functions; 1e-11 is mixed.
        c = near_definite(parity, 1e-13)
        cp, _ = gqsvt_multiplication(self.E, c)
        ref = svt_oracle(self.A, 1.0, cp.poly)
        assert ref.shape == ((3, 2) if parity == "odd" else (2, 2))
        assert sorted(cp.extraction) == ["default", parity]
        assert np.linalg.norm(extract_svt(cp, parity) - ref, 2) <= 1e-8 * 5
        c = near_definite(parity, 1e-11)
        with pytest.raises(ParityError):
            svt_oracle(self.A, 1.0, c)
        with pytest.raises(ParityError):
            gqsvt_multiplication(self.E, c)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zero_polynomial_is_even(self, n):
        # The even form: N_R x N_R, p(0) = 0 everywhere.
        out = svt_oracle(self.A, 1.0, PolyCoeffs(np.zeros(n)))
        assert out.shape == (2, 2) and not out.any()


class TestHermitianizationRoute:
    def setup_method(self):
        rng = np.random.default_rng(37)
        self.A = random_contraction(rng, 3, 5)
        self.e = dilate_general(self.A, 1.0)
        self.c = scaled_random_poly(rng, 9)
        self.cp = gqsvt_hermitianization(self.e, self.c)

    def test_query_counts(self):
        assert self.cp.queries_U == 9
        assert self.cp.queries_U_dagger == 9

    def test_odd_block(self):
        _, odd = parity_split(self.cp.poly)
        ref = svt_oracle(self.A, 1.0, odd)
        assert np.linalg.norm(extract_svt(self.cp, "odd") - ref, 2) <= 1e-10

    def test_even_block(self):
        even, _ = parity_split(self.cp.poly)
        ref = svt_oracle(self.A, 1.0, even)
        assert np.linalg.norm(extract_svt(self.cp, "even") - ref, 2) <= 1e-10

    def test_upper_left_block(self):
        even, _ = parity_split(self.cp.poly)
        u, s, vh = np.linalg.svd(self.A, full_matrices=True)
        from gqtlab.polynomials import eval_cheb
        diag = np.full(3, complex(eval_cheb(even, 0.0)))
        diag[: len(s)] = eval_cheb(even, s)
        ref = u @ np.diag(diag) @ u.conj().T
        assert np.linalg.norm(
            extract_svt(self.cp, "upper_left") - ref, 2) <= 1e-10

    def test_hermitian_full_requires_square(self):
        with pytest.raises(ValueError):
            extract_svt(self.cp, "hermitian_full")

    def test_hermitian_full_square(self):
        rng = np.random.default_rng(38)
        A = random_hermitian(rng, 4)
        e = dilate_hermitian(A, 1.0)
        c = scaled_random_poly(rng, 6)
        cp = gqsvt_hermitianization(e, c)
        ref = eigen_oracle(A, 1.0, cp.poly)
        assert np.linalg.norm(
            extract_svt(cp, "hermitian_full") - ref, 2) <= 1e-9

    def test_unknown_extraction(self):
        with pytest.raises(ValueError):
            extract_svt(self.cp, "bogus")


class TestMultiplicationRoute:
    def test_t2_scalar(self):
        e = dilate_general(np.array([[0.6]]), 1.0)
        cp, out = gqsvt_multiplication(e, PolyCoeffs([0, 0, 0.3]))
        blk = extract_svt(cp)
        # 0.3 * T2(0.6) = 0.3 * (2*0.36 - 1)
        assert blk[0, 0] == pytest.approx(-0.084, abs=1e-10)
        assert out.success_prob == pytest.approx(0.084 ** 2, abs=1e-10)

    def test_t1_odd_rectangular(self):
        rng = np.random.default_rng(39)
        A = random_contraction(rng, 2, 3)
        e = dilate_general(A, 1.0)
        cp, _ = gqsvt_multiplication(e, PolyCoeffs([0, 0.8]))
        blk = extract_svt(cp) / cp.scale_applied
        assert np.linalg.norm(blk - 0.8 * A, 2) < 1e-9

    def test_query_counts(self):
        rng = np.random.default_rng(40)
        A = random_contraction(rng, 3, 3)
        e = dilate_general(A, 1.0)
        a = np.zeros(6)
        a[1::2] = rng.normal(size=3)
        c = scaled_for_mult(PolyCoeffs(a.astype(complex)), "odd")
        cp, _ = gqsvt_multiplication(e, c)
        assert cp.queries_U == 5 // 2 + 1
        assert cp.queries_U_dagger == 5 // 2
        assert sorted(cp.extraction) == ["default", "odd"]
        a = np.zeros(9)
        a[0::2] = rng.normal(size=5)
        c = scaled_for_mult(PolyCoeffs(a.astype(complex)), "even")
        cp, _ = gqsvt_multiplication(e, c)
        assert cp.queries_U == 8 // 2
        assert cp.queries_U_dagger == 8 // 2
        assert sorted(cp.extraction) == ["default", "even"]

    def test_matches_hermitianization(self):
        rng = np.random.default_rng(41)
        A = random_contraction(rng, 4, 2)
        e = dilate_general(A, 1.0)
        a = np.zeros(8, dtype=complex)
        a[1::2] = rng.normal(size=4) + 1j * rng.normal(size=4)
        c = PolyCoeffs(a).scaled(0.5)
        cp_m, _ = gqsvt_multiplication(e, c)
        cp_h = gqsvt_hermitianization(e, c)
        blk_m = extract_svt(cp_m) / cp_m.scale_applied
        blk_h = extract_svt(cp_h, "odd") / cp_h.scale_applied
        assert np.linalg.norm(blk_m - blk_h, 2) <= 1e-7 * 8

    def test_pseudo_inversion_hermitianization(self):
        s = np.array([0.12, 0.35, 0.8, 1.0])
        A = np.diag(s)
        e = dilate_general(A, 1.0)
        res = approx_inverse(ApproxSpec(kappa=10, eps=1e-3))
        cp = gqsvt_hermitianization(e, res.poly)
        blk = extract_svt(cp, "odd") / cp.scale_applied
        target = 1.0 / (4 * 10 * s)
        assert np.max(np.abs(np.diag(blk).real - target)) <= 1e-3
        assert np.max(np.abs(blk - np.diag(np.diag(blk)))) < 1e-8

    def test_inverse_poly_impractical_here(self):
        # q(y) = p(sqrt(y))/sqrt(y) of the degree-55 inverse polynomial
        # explodes off [0, 1]; the forced rescale drives the success
        # probability to zero, so this route rejects the run outright.
        A = np.diag([0.12, 0.35, 0.8, 1.0])
        e = dilate_general(A, 1.0)
        res = approx_inverse(ApproxSpec(kappa=10, eps=1e-3))
        with pytest.raises(ZeroProbabilityError):
            gqsvt_multiplication(e, res.poly)


class TestAppliedPolynomial:
    """cp.poly is the polynomial the block applies, input times
    scale_applied, on both singular-value routes."""

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("route", ["hermitianization", "multiplication"])
    def test_forced_rescale(self, route, parity):
        from gqtlab.polynomials import (
            max_abs_circle, sqrt_substitute_even, sqrt_substitute_odd)
        rng = np.random.default_rng(44)
        A = random_contraction(rng, 5, 3)
        e = dilate_general(A, 1.0)
        d = 6 if parity == "even" else 5
        a = np.zeros(d + 1, dtype=complex)
        start = 0 if parity == "even" else 1
        a[start::2] = rng.normal(size=len(a[start::2]))
        c = PolyCoeffs(a)
        q = (sqrt_substitute_even(c) if parity == "even"
             else sqrt_substitute_odd(c))
        # both p and q peak at 2 or more, so either route must scale down
        c = c.scaled(2.0 / min(max_abs_circle(c), max_abs_circle(q)))
        if route == "hermitianization":
            cp = gqsvt_hermitianization(e, c)
        else:
            cp, _ = gqsvt_multiplication(e, c)
        assert cp.scale_applied < 0.5
        assert np.array_equal(cp.poly.coeffs, c.scaled(cp.scale_applied).coeffs)
        blk = extract_svt(cp, parity)
        ref = svt_oracle(A, 1.0, cp.poly)
        assert np.linalg.norm(blk - ref, 2) <= 1e-8 * d


class TestSimulatePostselect:
    def test_scalar_odd_stage_probs(self):
        e = dilate_general(np.array([[0.6]]), 1.0)
        cp, out = gqsvt_multiplication(e, PolyCoeffs([0, 0.5]))
        # q = 0.5 constant, then one application of A: probs 0.25, 0.36
        assert out.stage_probs[0] == pytest.approx(0.25, abs=1e-10)
        assert out.stage_probs[1] == pytest.approx(0.36, abs=1e-10)
        assert out.success_prob == pytest.approx(0.09, abs=1e-10)

    def test_schedules_agree(self):
        rng = np.random.default_rng(42)
        A = random_contraction(rng, 3, 4)
        e = dilate_general(A, 1.0)
        a = np.zeros(6, dtype=complex)
        a[1::2] = rng.normal(size=3)
        c = PolyCoeffs(a).scaled(0.4)
        cp, _ = gqsvt_multiplication(e, c)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        end = simulate_postselect(cp, input=x, schedule="end-only")
        early = simulate_postselect(cp, input=x, schedule="measure-early")
        assert np.linalg.norm(end.conditioned - early.conditioned) <= 1e-12
        assert end.success_prob == pytest.approx(early.success_prob,
                                                 abs=1e-12)

    def test_zero_probability(self):
        A = np.diag([0.0, 0.5])
        e = dilate_hermitian(A, 1.0)
        cp = gqet(e, PolyCoeffs([0, 0.9]))
        with pytest.raises(ZeroProbabilityError):
            simulate_postselect(cp, input=np.array([1.0, 0.0]))

    def test_zero_input(self):
        e = dilate_hermitian(np.array([[0.5]]), 1.0)
        cp = gqet(e, PolyCoeffs([0, 0.9]))
        with pytest.raises(ValueError, match="zero norm"):
            simulate_postselect(cp, input=np.array([0.0]))

    @pytest.mark.parametrize("x", [np.array(1.0), np.ones((1, 1, 1))],
                             ids=["0-d", "3-d"])
    def test_input_must_be_a_vector_or_matrix(self, x):
        e = dilate_hermitian(np.array([[0.5]]), 1.0)
        cp = gqet(e, PolyCoeffs([0, 0.9]))
        with pytest.raises(ValueError, match="vector or matrix"):
            simulate_postselect(cp, input=x)

    def test_unknown_schedule(self):
        e = dilate_hermitian(np.array([[0.5]]), 1.0)
        cp = gqet(e, PolyCoeffs([0, 0.9]))
        with pytest.raises(ValueError):
            simulate_postselect(cp, schedule="sometimes")


class TestQsvtEquivalence:
    def test_degree_one_random(self):
        rng = np.random.default_rng(43)
        A = random_contraction(rng, 3, 3)
        e = dilate_general(A, 1.0)
        ok, res = qsvt_equivalence_check(e, rng.uniform(-np.pi, np.pi, 1))
        assert ok and res <= 1e-12

    def test_degree_four_zero_phases(self):
        rng = np.random.default_rng(44)
        A = random_contraction(rng, 2, 4)
        e = dilate_general(A, 1.0)
        ok, res = qsvt_equivalence_check(e, np.zeros(4))
        assert ok and res <= 1e-12

    def test_random_degrees(self):
        rng = np.random.default_rng(45)
        for d in (2, 3, 5, 8):
            A = random_contraction(rng, 3, 2)
            e = dilate_general(A, 1.0)
            ok, res = qsvt_equivalence_check(
                e, rng.uniform(-np.pi, np.pi, d))
            assert ok, f"residual {res} at degree {d}"


def dense_qsvt_chains(e, phis):
    """Reference for `qsvt_circuit`: the two circuits of the equivalence
    check assembled from dense Kronecker factors, layer by layer.

    Returns (full, reduced, E_in): the Hermitianized circuit on
    flag (x) direction (x) system, the alternating-U/U^dag circuit on
    flag (x) system, and the isometry that starts the direction at |1>.
    """
    d, U, M = len(phis), e.U, e.M
    P_L = e.Pi_L @ e.Pi_L.conj().T
    P_R = e.Pi_R @ e.Pi_R.conj().T
    eyeM, eye2M = np.eye(M), np.eye(2 * M)
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])

    def rz(phi):
        return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])

    def ctrl_x_f(proj):  # X on the flag qubit controlled by a projector
        n = proj.shape[0]
        return np.kron(X, proj) + np.kron(np.eye(2), np.eye(n) - proj)

    CL = ctrl_x_f(np.kron(p0, P_L))
    CR = ctrl_x_f(np.kron(p1, P_R))
    Xh = np.kron(np.eye(2), np.kron(X, eyeM))
    CU = np.kron(np.eye(2), np.kron(p0, U) + np.kron(p1, U.conj().T))
    full = np.kron(H, eye2M)
    for i in range(d):
        refl = CL @ CR @ np.kron(rz(phis[i]), eye2M) @ CL @ CR
        full = CU @ Xh @ refl @ full
    full = np.kron(H, eye2M) @ full

    reduced = np.kron(H, eyeM)
    for i in range(d):
        G = ctrl_x_f(P_R if i % 2 == 0 else P_L)
        Ui = np.kron(np.eye(2), U if i % 2 == 0 else U.conj().T)
        reduced = Ui @ G @ np.kron(rz(phis[i]), eyeM) @ G @ reduced
    reduced = np.kron(H, eyeM) @ reduced

    E_in = np.kron(np.eye(2), np.kron(np.array([[0.0], [1.0]]), eyeM))
    return full, reduced, E_in


def rotated(rng, e):
    """The same encoded matrix under a random unitary change of basis V:
    (V U V^dag, V Pi_L, V Pi_R), so neither isometry is a selector."""
    Z = rng.normal(size=(e.M, e.M)) + 1j * rng.normal(size=(e.M, e.M))
    V, _ = np.linalg.qr(Z)
    return ProjectedUnitaryEncoding(V @ e.U @ V.conj().T, V @ e.Pi_L,
                                    V @ e.Pi_R, e.alpha)


class TestQsvtCircuitKernel:
    @pytest.mark.parametrize("nl, nr", [(1, 1), (3, 3), (2, 4), (5, 2)])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_matches_dense_chains(self, nl, nr, rotate):
        rng = np.random.default_rng(10 * nl + nr + 100 * rotate)
        e = dilate_general(random_contraction(rng, nl, nr), 1.0)
        if rotate:
            e = rotated(rng, e)
        for d in range(1, 10):
            phis = rng.uniform(-np.pi, np.pi, d)
            full, reduced, E_in = dense_qsvt_chains(e, phis)
            assert np.abs(qsvt_circuit(phis, e, np.eye(2 * e.M))
                          - reduced).max() <= 1e-12
            pushed = qsvt_circuit(phis, hermitianize(e), E_in)
            assert np.abs(pushed - full @ E_in).max() <= 1e-12

    def test_check_runs_the_library_hermitianization(self, monkeypatch):
        # U and U^dag swapped in U_bar still make a valid Hermitian
        # encoding, but not the Hermitianization of e: the check must fail.
        def swapped(e):
            Z = np.zeros((e.M, e.M))
            U_bar = np.block([[Z, e.U.conj().T], [e.U, Z]])
            Pi_bar = hermitianize(e).Pi
            return HermitianEncoding(U_bar, Pi_bar, e.alpha)

        rng = np.random.default_rng(46)
        e = dilate_general(random_contraction(rng, 3, 2), 1.0)
        phis = rng.uniform(-np.pi, np.pi, 5)
        assert qsvt_equivalence_check(e, phis)[0]
        monkeypatch.setattr(reference, "hermitianize", swapped)
        ok, res = qsvt_equivalence_check(e, phis)
        assert not ok and res > 0.1
