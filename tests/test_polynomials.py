import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as npmono

from gqtlab import polynomials
from gqtlab.polynomials import (
    ApproxSpec,
    ApproximationError,
    DomainError,
    ParityError,
    PolyCoeffs,
    approx_inverse,
    definite_parity,
    eval_cheb,
    max_abs_circle,
    max_abs_interval,
    sqrt_substitute_even,
    sqrt_substitute_odd,
)
from reference import eval_circle, parity_split, remez_alternation


def random_poly(rng, d, real=False):
    a = rng.normal(size=d + 1)
    if not real:
        a = a + 1j * rng.normal(size=d + 1)
    return PolyCoeffs(a.astype(complex))


class TestPolyCoeffsEquality:
    def test_equal_and_unequal_values(self):
        assert PolyCoeffs([0.1, 0.2j, 0.3]) == PolyCoeffs([0.1, 0.2j, 0.3])
        assert PolyCoeffs([0.1, 0.2]) != PolyCoeffs([0.1, 0.3])
        assert PolyCoeffs([0.1, 0.2]) != PolyCoeffs([0.1, 0.2, 0.0])
        assert PolyCoeffs([0.1, 0.2]) != (0.1, 0.2)

    def test_equal_values_hash_alike(self):
        a = PolyCoeffs([0.0, -0.0, 0.5 - 0.0j])
        b = PolyCoeffs([-0.0, 0.0, 0.5])
        assert a == b
        assert len({a, b}) == 1
        assert len({a, PolyCoeffs([0.0, 0.0, 0.25])}) == 2


class TestEvalCheb:
    def test_t1(self):
        assert eval_cheb(PolyCoeffs([0, 1]), 0.5) == pytest.approx(0.5)

    def test_t3_at_one(self):
        assert eval_cheb(PolyCoeffs([0, 0, 0, 1]), 1.0) == pytest.approx(1.0)

    def test_cosine_sum_oracle(self):
        rng = np.random.default_rng(11)
        c = random_poly(rng, 10)
        gamma = 0.7
        expected = sum(a * math.cos(n * gamma) for n, a in enumerate(c.coeffs))
        assert abs(eval_cheb(c, math.cos(gamma)) - expected) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_cheb(PolyCoeffs([0, 1]), 1.1)


class TestEvalCircle:
    def test_z(self):
        assert eval_circle(PolyCoeffs([0, 1]), math.pi / 2) == pytest.approx(1j)

    def test_constant(self):
        assert eval_circle(PolyCoeffs([1]), 2.34) == pytest.approx(1.0)

    def test_horner_oracle(self):
        rng = np.random.default_rng(12)
        c = random_poly(rng, 9)
        theta = 1.234
        z = np.exp(1j * theta)
        horner = 0j
        for a in c.coeffs[::-1]:
            horner = horner * z + a
        assert abs(eval_circle(c, theta) - horner) < 1e-13


class TestMaxAbs:
    def test_t3_interval(self):
        assert max_abs_interval(PolyCoeffs([0, 0, 0, 1])) == pytest.approx(1.0)

    def test_affine_interval(self):
        assert max_abs_interval(PolyCoeffs([0.5, 0.5])) == pytest.approx(1.0)

    def test_z2_circle(self):
        assert max_abs_circle(PolyCoeffs([0, 0, 1])) == pytest.approx(1.0)

    def test_affine_circle(self):
        assert max_abs_circle(PolyCoeffs([0.5, 0.5])) == pytest.approx(1.0)

    def test_against_dense_grid(self):
        # refinement must match a brute-force grid to 1e-6 relative.  The
        # grid is sized to the degree D: near the maximiser t*, Re of
        # conj(f(t*)) f / |f(t*)| is a real trigonometric polynomial of
        # degree D with maximum |f(t*)| there, so by Bernstein's inequality
        # (|g''| <= D^2 max |f|) a grid point within pi / n of t* reads at
        # least max |f| (1 - (D pi / n)^2 / 2): 1e-7 relative at this n.
        # The interval grid, n points of cos on [0, pi], is twice as fine.
        rng = np.random.default_rng(13)
        for _ in range(100):
            c = random_poly(rng, int(rng.integers(1, 33)))
            n = math.ceil(c.degree * math.pi / math.sqrt(2e-7))
            theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
            grid_circle = np.max(np.abs(
                np.polynomial.polynomial.polyval(np.exp(1j * theta), c.coeffs)))
            x = np.cos(np.linspace(0, np.pi, n))
            grid_interval = np.max(np.abs(
                np.polynomial.chebyshev.chebval(x, c.coeffs)))
            assert max_abs_circle(c) == pytest.approx(grid_circle, rel=1e-6)
            assert max_abs_interval(c) == pytest.approx(grid_interval, rel=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 299), st.integers(-5, 5), st.integers(-600, 600),
           st.integers(0, 2 ** 31 - 1))
    def test_power_of_two_scaling_is_exact(self, d, decade, k, seed):
        # 2^k c is exact, so both norms scale by exactly 2^k, also where
        # |P|^2 itself would overflow or underflow.
        c = random_poly(np.random.default_rng(seed), d).scaled(10.0 ** decade)
        for norm in (max_abs_circle, max_abs_interval):
            assert norm(c.scaled(2.0 ** k)) == math.ldexp(norm(c), k)

    def test_norm_beyond_the_float_range_is_inf(self):
        assert max_abs_circle(PolyCoeffs([1e308, 1e308])) == math.inf
        assert max_abs_interval(PolyCoeffs([1e308, 1e308])) == math.inf


def sup_oracle(a, interval):
    """max |p| on [-1, 1] (interval) or max |P| on the circle, without gqtlab.

    Every local maximum of |f|^2 on a dense FFT grid that Bernstein's
    inequality cannot rule out is polished by Newton steps in theta, using
    numpy's polynomial evaluation; the best few points are then evaluated in
    mpmath at 30 digits.
    """
    a = np.asarray(a, dtype=complex)
    d = len(a) - 1
    D = 2 * d if interval else d  # degree of |f|^2 in theta
    M = 1 << (256 * (D + 1)).bit_length()
    F = np.fft.fft(a, M)  # F[j] = P(e^{-i theta_j}), theta_j = 2 pi j / M
    if interval:
        vals, t = 0.5 * (F + np.roll(F[::-1], 1)), 2 * np.pi * np.arange(M) / M
    else:
        vals, t = F, -2 * np.pi * np.arange(M) / M
    g = np.abs(vals) ** 2
    peaks = ((g >= np.roll(g, 1)) & (g >= np.roll(g, -1))
             & (g >= g.max() * (1 - 0.5 * (D * np.pi / M) ** 2)))
    if interval:
        peaks[M // 2 + 1:] = False  # p(cos theta) is even in theta
    t = t[peaks]
    assert 0 < t.size < 10 ** 4
    if interval:
        da, dda = npcheb.chebder(a), npcheb.chebder(a, 2)
    else:
        da, dda = npmono.polyder(a), npmono.polyder(a, 2)
    for _ in range(6):
        if interval:
            x, s = np.cos(t), np.sin(t)
            f, f1 = npcheb.chebval(x, a), -s * npcheb.chebval(x, da)
            f2 = s * s * npcheb.chebval(x, dda) - x * npcheb.chebval(x, da)
        else:
            z = np.exp(1j * t)
            f, p1 = npmono.polyval(z, a), npmono.polyval(z, da)
            f1 = 1j * z * p1
            f2 = -(z * p1 + z * z * npmono.polyval(z, dda))
        g1 = 2 * np.real(np.conj(f) * f1)
        g2 = 2 * (np.abs(f1) ** 2 + np.real(np.conj(f) * f2))
        t = t - np.where(g2 < 0, g1 / np.where(g2 < 0, g2, -1.0), 0.0)
    with mpmath.workdps(30):
        coeffs = [mpmath.mpc(c.real, c.imag) for c in a]
        best = mpmath.mpf(0)
        for ti in t[np.argsort(np.abs(f))[-3:]]:
            if interval:
                x = mpmath.cos(mpmath.mpf(float(ti)))
                b1 = b2 = mpmath.mpf(0)
                for c in coeffs[:0:-1]:  # Clenshaw
                    b1, b2 = 2 * x * b1 - b2 + c, b1
                v = coeffs[0] + x * b1 - b2
            else:
                v = mpmath.polyval(coeffs[::-1], mpmath.expj(float(ti)))
            best = max(best, abs(v))
        return float(best)


def tie_family(d):
    """(coefficients, exact circle max or None, exact interval max or None).

    z^d (= T_d), whose modulus is flat on the circle; 1 + z^d; and T_d plus a
    1e-4 bump centred at x = 0.3, a near-tie among about d peaks.
    """
    e = np.zeros(d + 1, dtype=complex)
    e[d] = 1.0
    one = e.copy()
    one[0] += 1.0
    bump = npcheb.chebinterpolate(
        lambda x: 1e-4 * np.exp(-((x - 0.3) / 0.2) ** 2), 40)
    bumped = e.copy()
    bumped[:min(41, d + 1)] += bump[:d + 1]
    return [(e, 1.0, 1.0), (one, 2.0, 2.0), (bumped, None, None)]


class TestSupNorm:
    """The FFT peak search behind max_abs_circle and max_abs_interval."""

    @pytest.mark.parametrize("d", [1, 7, 55, 553])
    def test_off_grid_circle_peak(self, d):
        # |1 + e^{i sqrt 2} z^d| = 2 where d theta + sqrt 2 = 0 mod 2 pi.
        a = np.zeros(d + 1, dtype=complex)
        a[0], a[d] = 1.0, np.exp(1j * math.sqrt(2))
        assert max_abs_circle(PolyCoeffs(a)) == pytest.approx(2.0, rel=1e-13,
                                                              abs=0)

    @pytest.mark.parametrize("k", [1, 5, 55, 276])
    def test_off_grid_interval_peak(self, k):
        # q(y) = 2 - (y - y0)^2 peaks at y0 = 1/sqrt 3 with |q| <= 2 on
        # [-1, 1]; p = e^{i sqrt 2} q(T_k) peaks wherever T_k(x) = y0, and
        # q(T_k) has Chebyshev coefficients q_m at index m k.
        y0 = 1 / math.sqrt(3)
        q = [1.5 - y0 * y0, 2 * y0, -0.5]
        a = np.zeros(2 * k + 1, dtype=complex)
        a[::k] = np.exp(1j * math.sqrt(2)) * np.array(q)
        assert max_abs_interval(PolyCoeffs(a)) == pytest.approx(2.0, rel=1e-13,
                                                                abs=0)

    @pytest.mark.parametrize("d", [1, 2, 55, 553, 2349])
    def test_tie_family(self, d):
        for a, circle, interval in tie_family(d):
            for f, exact, on_interval in ((max_abs_circle, circle, False),
                                          (max_abs_interval, interval, True)):
                want = exact if exact is not None else sup_oracle(a, on_interval)
                assert f(PolyCoeffs(a)) == pytest.approx(want, rel=1e-12,
                                                         abs=0)

    def test_kappa_100_design(self, inverse_design):
        c = inverse_design(100).poly
        assert c.degree == 553
        assert max_abs_circle(c) == pytest.approx(
            sup_oracle(c.coeffs, False), rel=1e-12, abs=0)
        assert max_abs_interval(c) == pytest.approx(
            sup_oracle(c.coeffs, True), rel=1e-12, abs=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 512), st.booleans(), st.integers(0, 2 ** 31 - 1))
    def test_random_against_oracle(self, d, real, seed):
        c = random_poly(np.random.default_rng(seed), d, real=real)
        assert max_abs_circle(c) == pytest.approx(
            sup_oracle(c.coeffs, False), rel=1e-12, abs=0)
        assert max_abs_interval(c) == pytest.approx(
            sup_oracle(c.coeffs, True), rel=1e-12, abs=0)

    def test_degree_2349_time(self):
        # kappa = 300 inversion polynomials have degree 2349.
        a = random_poly(np.random.default_rng(20), 2349)
        t0 = time.perf_counter()
        max_abs_circle(a), max_abs_interval(a)
        assert time.perf_counter() - t0 < 0.25
        for a, _, _ in tie_family(2349):
            c = PolyCoeffs(a)
            t0 = time.perf_counter()
            max_abs_circle(c), max_abs_interval(c)
            assert time.perf_counter() - t0 < 0.5

    def test_degree_2349_memory(self):
        c = PolyCoeffs(tie_family(2349)[2][0])
        tracemalloc.start()
        try:
            max_abs_circle(c), max_abs_interval(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


def beta(c):
    """The scaling factor: max |P| on the circle over max |p| on [-1, 1]."""
    return max_abs_circle(c) / max_abs_interval(c)


class TestScalingFactor:
    def test_cheb_monomial(self):
        assert beta(PolyCoeffs([0, 0, 0, 1])) == pytest.approx(1.0, abs=1e-9)

    def test_mod4_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a = np.zeros(22)
            a[1::4] = rng.normal(size=len(a[1::4]))
            assert beta(PolyCoeffs(a.astype(complex))) <= 2 + 1e-9

    def test_beta_at_least_one(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            c = random_poly(rng, int(rng.integers(1, 20)))
            if max_abs_interval(c) > 1e-6:
                assert beta(c) >= 1 - 1e-9

    def test_degenerate(self):
        # beta is undefined at the zero polynomial: both norms are exactly 0.
        for n in (1, 4):
            zero = PolyCoeffs(np.zeros(n))
            assert max_abs_interval(zero) == 0.0 and max_abs_circle(zero) == 0.0


class TestParity:
    def test_classify(self):
        assert definite_parity(PolyCoeffs([0, 1, 0, 0])) == "odd"
        assert definite_parity(PolyCoeffs([1, 0, 1])) == "even"
        with pytest.raises(ParityError, match="mixed"):
            definite_parity(PolyCoeffs([1, 1]))

    def test_split_examples(self):
        even, odd = parity_split(PolyCoeffs([1, 2, 3]))
        assert np.allclose(even.coeffs, [1, 0, 3])
        assert np.allclose(odd.coeffs, [0, 2])
        even, odd = parity_split(PolyCoeffs([0, 1]))
        assert np.allclose(even.coeffs, [0])
        assert np.allclose(odd.coeffs, [0, 1])

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    def test_split_reconstructs(self, coeffs):
        c = PolyCoeffs(np.array(coeffs, dtype=complex))
        even, odd = parity_split(c)
        n = len(c.coeffs)
        total = (np.pad(even.coeffs, (0, n - len(even.coeffs)))
                 + np.pad(odd.coeffs, (0, n - len(odd.coeffs))))
        assert np.array_equal(total, c.coeffs)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_check_parity_tolerance(self, near_definite, parity):
        # ZERO_TOL = 1e-12 of max |a|: 1e-13 of the other parity keeps the
        # polynomial definite, 1e-11 makes it mixed
        assert definite_parity(near_definite(parity, 1e-13)) == parity
        with pytest.raises(ParityError):
            definite_parity(near_definite(parity, 1e-11))

    def test_check_parity_zero_polynomial(self):
        # No coefficient counts, so no odd one does: the zero polynomial
        # is even.
        for n in (1, 2, 4):
            assert definite_parity(PolyCoeffs(np.zeros(n))) == "even"


class TestSqrtSubstitute:
    def test_t2(self):
        q = sqrt_substitute_even(PolyCoeffs([0, 0, 1]))
        assert np.allclose(q.coeffs, [-1, 2])

    def test_t0(self):
        q = sqrt_substitute_even(PolyCoeffs([1]))
        assert np.allclose(q.coeffs, [1])

    def test_t1(self):
        q = sqrt_substitute_odd(PolyCoeffs([0, 1]))
        assert np.allclose(q.coeffs, [1])

    def test_t3(self):
        # T3(y) = 4y^3 - 3y, so q(x) = 4x - 3 = -3 T0 + 4 T1
        q = sqrt_substitute_odd(PolyCoeffs([0, 0, 0, 1]))
        assert np.allclose(q.coeffs, [-3, 4])

    def test_even_pointwise(self):
        rng = np.random.default_rng(16)
        a = np.zeros(13, dtype=complex)
        a[0::2] = rng.normal(size=7) + 1j * rng.normal(size=7)
        c = PolyCoeffs(a)
        q = sqrt_substitute_even(c)
        y = np.cos(np.pi * (np.arange(200) + 0.5) / 200)
        assert np.max(np.abs(eval_cheb(q, y ** 2) - eval_cheb(c, y))) < 1e-10

    def test_odd_pointwise(self):
        rng = np.random.default_rng(17)
        a = np.zeros(12, dtype=complex)
        a[1::2] = rng.normal(size=6) + 1j * rng.normal(size=6)
        c = PolyCoeffs(a)
        q = sqrt_substitute_odd(c)
        y = np.cos(np.pi * (np.arange(200) + 0.5) / 200)
        assert np.max(np.abs(y * eval_cheb(q, y ** 2) - eval_cheb(c, y))) < 1e-10

    def test_parity_error(self):
        with pytest.raises(ParityError):
            sqrt_substitute_even(PolyCoeffs([0, 1, 1]))
        with pytest.raises(ParityError):
            sqrt_substitute_odd(PolyCoeffs([1, 1]))

    def test_parity_error_at_zero_tol(self):
        # The substitutes use definite_parity, so 1e-11 of the other parity
        # is rejected (the old 1e-10 rule let it through)
        with pytest.raises(ParityError):
            sqrt_substitute_even(PolyCoeffs([1, 1e-11, 1]))
        with pytest.raises(ParityError):
            sqrt_substitute_odd(PolyCoeffs([1e-11, 1, 0, 1]))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zero_polynomial(self, n):
        # The zero polynomial is even, and either substitute takes it: no
        # coefficient of the other parity counts, and q = 0.
        for substitute in (sqrt_substitute_even, sqrt_substitute_odd):
            q = substitute(PolyCoeffs(np.zeros(n)))
            assert not q.coeffs.any()


class TestApproxInverse:
    def test_kappa10(self):
        spec = ApproxSpec(kappa=10, eps=1e-3)
        res = approx_inverse(spec)
        assert res.degree == pytest.approx(55, abs=6)
        assert max_abs_interval(res.poly) == pytest.approx(0.29, abs=0.02)
        xs = np.linspace(0.1, 1.0, 10 ** 5)
        err = np.max(np.abs(eval_cheb(res.poly, xs).real - 1 / (40 * xs)))
        assert err <= spec.eps

    def test_is_odd_real(self):
        res = approx_inverse(ApproxSpec(kappa=10, eps=1e-3))
        assert definite_parity(res.poly) == "odd"
        assert np.max(np.abs(res.poly.coeffs.imag)) == 0.0


# The minimal odd degrees of the paper's scaling table (and the benchmark's).
MINIMAL_DEGREES = [(10, 1e-3, 55), (10, 1e-4, 79), (40, 1e-3, 221),
                   (100, 1e-3, 553)]


def inverse_target(kappa):
    return lambda x: 1.0 / (4.0 * kappa * x)


def dense_sup_error(c, kappa):
    """max over [1/kappa, 1] of |p(x) - 1/(4 kappa x)|, without gqtlab.

    A 2^18-point theta-scan (p(cos(pi j / 2^18)) by one DCT-I) finds the
    local maxima of the error within 1 % of the scan maximum; each is
    polished by Newton steps on E'(x) = 0 inside its scan bracket, and every
    iterate and both ends are evaluated by numpy's Clenshaw `chebval`.
    """
    a = c.coeffs.real
    E = lambda x: npcheb.chebval(x, a) - 1.0 / (4.0 * kappa * x)
    N = 2 ** 18
    x = np.cos(np.pi * np.arange(N + 1) / N)
    keep = x >= 1.0 / kappa
    x = x[keep]
    e = np.abs(np.fft.rfft(a, 2 * N).real[:N + 1][keep]
               - 1.0 / (4.0 * kappa * x))
    j = np.flatnonzero((e[1:-1] >= e[:-2]) & (e[1:-1] >= e[2:])) + 1
    j = j[e[j] >= 0.99 * e.max()]
    xs, lo, hi = x[j], x[j + 1], x[j - 1]
    d1, d2 = npcheb.chebder(a), npcheb.chebder(a, 2)
    best = float(np.max(np.abs(E(np.array([1.0 / kappa, 1.0])))))
    for _ in range(8):
        best = max(best, float(np.max(np.abs(E(xs)))))
        g1 = npcheb.chebval(xs, d1) + 1.0 / (4.0 * kappa * xs ** 2)
        g2 = npcheb.chebval(xs, d2) - 1.0 / (2.0 * kappa * xs ** 3)
        xs = np.clip(xs - g1 / g2, lo, hi)
    return max(best, float(np.max(np.abs(E(xs)))))


# The rows of `gqtlab scaling-table` with include_high_degree.
SCALING_TABLE_DEGREES = [(10, 1e-3, 55), (10, 1e-4, 79), (40, 1e-3, 221),
                         (100, 1e-3, 553), (100, 1e-4, 783),
                         (200, 1e-4, 1565), (300, 1e-4, 2349)]


class TestApproxInverseAccuracy:
    """approx_inverse meets eps off its exchange grid, not only on it."""

    @pytest.mark.parametrize("kappa,eps,d", sorted(set(
        MINIMAL_DEGREES + SCALING_TABLE_DEGREES)))
    def test_paper_degrees(self, inverse_design, kappa, eps, d):
        res = inverse_design(kappa, eps)
        assert res.degree == d
        sup = dense_sup_error(res.poly, kappa)
        assert sup <= eps
        # chebval of the d = 2349 design rounds at about 4e-12 = 4e-8 eps.
        assert res.max_error == pytest.approx(sup, rel=1e-7, abs=0)

    # Designs whose sup error on the exchange grid met eps while the true sup
    # missed it by about 7e-4 relative (the grid maximum was returned).
    @pytest.mark.parametrize("kappa,eps", [(27, 1e-3), (45, 3e-3), (48, 1e-3),
                                           (55, 1e-2), (300, 3e-3)])
    def test_grid_maximum_is_not_the_sup(self, kappa, eps):
        res = approx_inverse(ApproxSpec(kappa, eps))
        sup = dense_sup_error(res.poly, kappa)
        assert sup <= eps
        assert res.max_error == pytest.approx(sup, rel=1e-9, abs=0)


def prime_factors(n):
    p, out = 2, set()
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


class TestRemezGridRule:
    @pytest.mark.parametrize("kappa,eps,d", MINIMAL_DEGREES)
    def test_fft_lengths_are_5_smooth(self, monkeypatch, kappa, eps, d):
        calls = []
        cheb_grid = polynomials._cheb_grid

        def recorded(coef, n):
            calls.append((2 * len(coef) - 1, n))
            return cheb_grid(coef, n)

        monkeypatch.setattr(polynomials, "_cheb_grid", recorded)
        assert approx_inverse(ApproxSpec(kappa, eps)).degree == d
        assert calls
        for degree, n in calls:
            need = max(20 * degree, 2000) - 1
            assert n >= need
            assert max(prime_factors(2 * n)) <= 5, (degree, n)
            # n is the smallest such size.
            assert all(max(prime_factors(2 * k)) > 5
                       for k in range(need, n)), (degree, n)


class TestApproxInverseDegree:
    @pytest.mark.parametrize("kappa,eps,d", MINIMAL_DEGREES)
    def test_minimal(self, inverse_design, kappa, eps, d):
        res = inverse_design(kappa, eps)
        assert res.degree == d
        assert res.max_error <= eps
        _, below = polynomials._remez_odd(inverse_target(kappa), 1 / kappa, d - 2)
        assert below > eps

    @pytest.mark.parametrize("kappa,eps,d", MINIMAL_DEGREES)
    def test_at_most_four_remez_runs(self, monkeypatch, kappa, eps, d):
        runs = []
        remez = polynomials._remez_odd

        def counted(f, a, degree, *args, **kwargs):
            runs.append(degree)
            return remez(f, a, degree, *args, **kwargs)

        monkeypatch.setattr(polynomials, "_remez_odd", counted)
        assert approx_inverse(ApproxSpec(kappa, eps)).degree == d
        assert len(runs) <= 4, runs
        assert d - 2 in runs  # the degree is confirmed by a miss below it

    def test_cap_below_minimal_degree(self, monkeypatch):
        for cap in (53, 54):
            monkeypatch.setattr(polynomials, "_DEGREE_CAP", cap)
            with pytest.raises(ApproximationError, match="unreachable"):
                approx_inverse(ApproxSpec(10, 1e-3))
        monkeypatch.setattr(polynomials, "_DEGREE_CAP", 55)
        assert approx_inverse(ApproxSpec(10, 1e-3)).degree == 55

    def test_cap_below_first_probe(self, monkeypatch):
        # The first probe would be d = 41; the cap alone decides.
        for cap in (21, 2):
            monkeypatch.setattr(polynomials, "_DEGREE_CAP", cap)
            with pytest.raises(ApproximationError, match="unreachable"):
                approx_inverse(ApproxSpec(40, 1e-3))


def dense_cheb_grid(coef, n):
    """Reference for `_cheb_grid`: a dense (n + 1) x m cosine matrix."""
    theta = np.linspace(0.0, np.pi, n + 1)[::-1]
    return np.cos(np.outer(theta, np.arange(len(coef)))) @ coef


class TestRemezGridAgainstDense:
    @pytest.mark.parametrize("d", [11, 221, 553])
    def test_grid_values(self, d):
        rng = np.random.default_rng(d)
        coef = rng.normal(size=(d + 1) // 2)
        n = max(20 * d, 2000) - 1
        got = polynomials._cheb_grid(coef, n)
        assert got.shape == (n + 1,)
        scale = np.sum(np.abs(coef))
        assert np.max(np.abs(got - dense_cheb_grid(coef, n))) <= 1e-12 * scale

    @pytest.mark.parametrize("d", [11, 221, 553])
    def test_remez(self, monkeypatch, d):
        kappa = 100
        fast = polynomials._remez_odd(inverse_target(kappa), 1 / kappa, d)
        monkeypatch.setattr(polynomials, "_cheb_grid", dense_cheb_grid)
        dense = polynomials._remez_odd(inverse_target(kappa), 1 / kappa, d)
        scale = np.max(np.abs(dense[0]))
        assert np.max(np.abs(fast[0] - dense[0])) <= 1e-12 * scale
        assert fast[1] == pytest.approx(dense[1], rel=1e-12)


# Test-only copies of the two Chebyshev-composition loops that
# `polynomials._substitute` and `polynomials._odd_cheb` replaced: the q(y^2)
# square-root substitution and the x * s(x^2) expansion of the Remez result.

def reference_substitute(w, first):
    u = np.array([-1.0, 2.0])
    q = np.zeros(max(len(w), 1), dtype=complex)
    prev, cur = np.array([1.0]), np.array(first)
    for n, wn in enumerate(w):
        q[: n + 1] += wn * prev
        prev, cur = cur, npcheb.chebsub(2.0 * npcheb.chebmul(u, cur), prev)
    return q


def reference_odd_cheb(coef, a, degree):
    mid, half = 0.5 * (1.0 + a * a), 0.5 * (1.0 - a * a)
    u_cheb = np.array([(0.5 - mid) / half, 0.0, 0.5 / half])
    t_prev = np.array([1.0])
    acc = coef[0] * t_prev
    if len(coef) > 1:
        t_cur = u_cheb.copy()
        acc = npcheb.chebadd(acc, coef[1] * t_cur)
        for kk in range(2, len(coef)):
            t_next = npcheb.chebsub(2.0 * npcheb.chebmul(u_cheb, t_cur), t_prev)
            t_prev, t_cur = t_cur, t_next
            acc = npcheb.chebadd(acc, coef[kk] * t_cur)
    full_c = npcheb.chebmul(np.array([0.0, 1.0]), acc)
    full = np.zeros(degree + 1)
    full[:len(full_c)] = full_c
    return full


class TestBitExactAgainstReference:
    @pytest.mark.parametrize("kappa,eps", [(10, 1e-3), (40, 1e-3),
                                           (100, 1e-3), (300, 1e-4)])
    def test_approx_inverse(self, inverse_design, kappa, eps):
        # `_odd_cheb` interpolates by one DCT-I instead of the recurrence, so
        # it agrees with the reference to rounding, not bit for bit.
        res = inverse_design(kappa, eps)
        d = res.degree
        coef, _ = polynomials._remez_odd(inverse_target(kappa), 1 / kappa, d)
        got = res.poly.coeffs
        want = reference_odd_cheb(coef, 1 / kappa, d)
        scale = (d + 1) * np.max(np.abs(coef))
        assert np.max(np.abs(got - want)) <= 1e-16 * scale
        assert not got.imag.any()
        assert not got.real[0::2].any()
        # Both forms match x s(x^2) evaluated directly, to chebval's rounding.
        a = 1 / kappa
        mid, half = 0.5 * (1 + a * a), 0.5 * (1 - a * a)
        x = np.random.default_rng(d).uniform(-1.0, 1.0, 2000)
        direct = x * npcheb.chebval((x * x - mid) / half, coef)
        for c in (got.real, want):
            assert np.max(np.abs(npcheb.chebval(x, c) - direct)) <= 1e-14 * scale

    @pytest.mark.parametrize("d", [0, 1, 2, 5, 12, 13, 33, 64])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_sqrt_substitute(self, d, parity):
        rng = np.random.default_rng(100 * d + (parity == "odd"))
        a = np.zeros(d + 1, dtype=complex)
        start = 0 if parity == "even" else 1
        n = len(a[start::2])
        a[start::2] = rng.normal(size=n) + 1j * rng.normal(size=n)
        if parity == "even":
            got = sqrt_substitute_even(PolyCoeffs(a))
            want = reference_substitute(a[0::2], [-1.0, 2.0])
        else:
            got = sqrt_substitute_odd(PolyCoeffs(a))
            want = reference_substitute(a[1::2], [-3.0, 4.0])
        assert np.array_equal(got.coeffs, want)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12), st.integers(0, 2 ** 31 - 1))
def test_single_cheb_monomial_beta_is_one(n, seed):
    a = np.zeros(n + 1, dtype=complex)
    a[n] = 1.0
    assert beta(PolyCoeffs(a)) == pytest.approx(1.0, abs=1e-9)


class TestAlternation:
    """The vectorised Remez alternation pick against the loop it replaced,
    index for index."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 60))
    def test_matches_the_loop(self, seed, size):
        rng = np.random.default_rng(seed)
        # Few distinct values make ties within and across runs; zeros (of
        # both signs) make runs of sign 0, and a NaN is a run of its own.
        err = rng.integers(-3, 4, size).astype(float)
        err[rng.random(size) < 0.1] = -0.0
        err[rng.random(size) < 0.1] = np.nan
        for count in range(1, size + 2):
            got = polynomials._alternation(err, count)
            assert np.array_equal(got, remez_alternation(err, count))

    @pytest.mark.parametrize("count", [3, 8, 20])
    def test_smooth_errors(self, count):
        # Equioscillating errors whose peaks tie exactly, and the same with
        # flat tops: many candidates per run, and every drop is a tie.
        x = np.linspace(0.0, 7 * np.pi, 2001)
        for err in (np.sign(np.sin(x)) * np.round(np.abs(np.sin(x)), 2),
                    np.clip(1.5 * np.cos(x), -1.0, 1.0),
                    np.cos(x) * (1 + x) / 10):
            got = polynomials._alternation(err, count)
            assert np.array_equal(got, remez_alternation(err, count))
