import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from gqtlab import bounds
from gqtlab.bounds import (
    BoundParams,
    bernstein_check,
    corollary_bound,
    g1_constant,
    g_lemma,
    hilbert_theorem_bound,
    norm2_torus,
    norm2_torus_derivative,
    verify_beta_bound,
)
from gqtlab.cli import _SAMPLERS
from gqtlab.polynomials import PolyCoeffs


class TestG1:
    def test_two_digits(self):
        assert g1_constant() == pytest.approx(1.06, abs=0.005)

    def test_matches_g_at_one(self):
        assert g_lemma(1.0) == pytest.approx(g1_constant(), abs=1e-15)

    def test_limit_at_zero(self):
        assert g_lemma(1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_monotone_increasing(self):
        xs = np.linspace(1e-6, 1.0, 10 ** 4)
        vals = g_lemma(xs)
        assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            g_lemma(0.0)
        with pytest.raises(ValueError):
            g_lemma(1.5)


class TestTheoremBound:
    def test_zero_norms(self):
        assert hilbert_theorem_bound(0.5, 0.0, 0.0) == 0.0

    def test_delta_one_sup_only(self):
        expected = g1_constant() * (4 / math.pi) * math.log(2)
        assert hilbert_theorem_bound(1.0, 1.0, 0.0) == pytest.approx(
            expected, abs=1e-15)

    def test_high_precision_oracle(self):
        rng = np.random.default_rng(51)
        mpmath.mp.dps = 50
        g1 = mpmath.log(mpmath.sin(mpmath.mpf(1) / 2)) / mpmath.log(
            mpmath.mpf(1) / 2)
        for _ in range(25):
            d = float(rng.uniform(1e-6, 1.0))
            fi = float(rng.uniform(0, 10))
            fp = float(rng.uniform(0, 10))
            L = mpmath.log(mpmath.mpf(d) / 2)
            ref = (g1 * 4 / mpmath.pi * abs(L) * fi
                   + g1 * mpmath.sqrt(2 * mpmath.mpf(d)) / mpmath.pi
                   * mpmath.sqrt(2 - 2 * L + L ** 2) * fp)
            assert hilbert_theorem_bound(d, fi, fp) == pytest.approx(
                float(ref), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            hilbert_theorem_bound(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            hilbert_theorem_bound(0.5, -1.0, 1.0)


class TestCorollaryBound:
    def test_real_n1_closed_form(self):
        L = math.log(2)
        expected = 1 + g1_constant() / math.pi * (
            4 * L + math.sqrt(4 + 4 * L + 2 * L * L))
        assert corollary_bound(BoundParams(N=1, M=1.0)) == pytest.approx(
            expected, abs=1e-15)

    def test_complex_reduces_to_real(self):
        p = BoundParams(N=7, M=2.5, im_p0=0.0)
        assert corollary_bound(p, form="complex") == pytest.approx(
            corollary_bound(p, form="real"), abs=1e-15)

    def test_complex_adds_imaginary_part(self):
        p = BoundParams(N=7, M=2.0, im_p0=0.3)
        assert corollary_bound(p, form="complex") == pytest.approx(
            corollary_bound(p, form="real") + 2.0 * 0.3, abs=1e-12)

    def test_simplified_dominates(self):
        for N in range(1, 10 ** 4 + 1):
            p = BoundParams(N=N, M=1.0)
            assert corollary_bound(p, "simplified") >= corollary_bound(
                p, "real") - 1e-12

    def test_monotone_in_n_linear_in_m(self):
        prev = 0.0
        for N in range(1, 1001):
            b = corollary_bound(BoundParams(N=N, M=1.0))
            assert b >= prev
            prev = b
        assert corollary_bound(BoundParams(N=5, M=3.0)) == pytest.approx(
            3 * corollary_bound(BoundParams(N=5, M=1.0)), rel=1e-14)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            BoundParams(N=0, M=1.0)
        with pytest.raises(ValueError):
            BoundParams(N=1, M=0.0)
        with pytest.raises(ValueError):
            BoundParams(N=1, M=1.0, im_p0=-0.1)
        with pytest.raises(ValueError):
            corollary_bound(BoundParams(N=1, M=1.0), form="imagined")


def cheb_monomial_sampler(rng):
    n = int(rng.integers(1, 65))
    a = np.zeros(n + 1)
    a[n] = 1.0
    return PolyCoeffs(a.astype(complex))


def random_real_sampler(rng):
    d = int(rng.integers(1, 65))
    return PolyCoeffs(rng.normal(size=d + 1).astype(complex))


def mod4_sampler(rng):
    d = int(rng.integers(1, 33))
    a = np.zeros(4 * d + 2)
    a[1::4] = rng.normal(size=len(a[1::4]))
    return PolyCoeffs(a.astype(complex))


class TestVerifyBetaBound:
    def test_cheb_monomials(self):
        rep = verify_beta_bound(cheb_monomial_sampler, 64, seed=1)
        betas = np.array([r[3] for r in rep.rows])
        assert rep.violations == 0
        assert np.allclose(betas, 1.0, atol=1e-6)
        assert rep.max_ratio < 0.5

    def test_random_real(self):
        rep = verify_beta_bound(random_real_sampler, 1000, seed=2)
        assert rep.violations == 0

    def test_mod4_beta_at_most_two(self):
        rep = verify_beta_bound(mod4_sampler, 300, seed=3)
        assert rep.violations == 0
        assert max(r[3] for r in rep.rows) <= 2 + 1e-6

    def test_rejects_complex_sampler(self):
        def bad(rng):
            return PolyCoeffs(np.array([1.0, 1j]))
        with pytest.raises(ValueError):
            verify_beta_bound(bad, 2)


def padded_circle_max(coeffs):
    """Reference for `_batched_circle_max`: one rfft of the whole batch, the
    half circle padded at each end with a copy of its mirrored neighbour."""
    half = bounds._SWEEP_GRID // 2
    vals = np.fft.rfft(coeffs, bounds._SWEEP_GRID, axis=1)
    vals = np.concatenate((vals[:, 1:2], vals, vals[:, half - 1:half]), 1)

    def peak(y):
        i = np.argmax(y[:, 1:-1], axis=1) + 1
        rows = np.arange(y.shape[0])
        ym, y0, yp = y[rows, i - 1], y[rows, i], y[rows, i + 1]
        denom = ym - 2 * y0 + yp
        with np.errstate(divide="ignore", invalid="ignore"):
            top = y0 - 0.125 * (yp - ym) ** 2 / np.where(denom == 0, 1.0, denom)
        return np.where(denom < 0, np.maximum(top, y0), y0)

    return peak(np.abs(vals)), peak(np.abs(vals.real))


def per_row_verify_beta_bound(sampler, trials, seed=0):
    """Reference for `verify_beta_bound`: the same sweep, row by row, with a
    PolyCoeffs, a BoundParams and a corollary_bound per row."""
    rng = np.random.default_rng(seed)
    polys = [sampler(rng) for _ in range(trials)]
    dmax = max(p.degree for p in polys)
    batch = np.zeros((trials, dmax + 1))
    for i, p in enumerate(polys):
        if np.max(np.abs(p.coeffs.imag)) > 1e-12 * max(
                np.max(np.abs(p.coeffs)), 1e-300):
            raise ValueError("sampler must yield real coefficients")
        batch[i, : len(p.coeffs)] = p.coeffs.real
    max_abs, max_re = padded_circle_max(batch)

    rows = []
    violations = 0
    for i, p in enumerate(polys):
        N = max(p.trimmed().degree, 1)
        M = float(max_re[i])
        if M <= 0:
            continue
        bound = corollary_bound(BoundParams(N=N, M=M))
        beta = float(max_abs[i]) / M if M > 1e-14 else float("nan")
        ratio = float(max_abs[i]) / bound
        if max_abs[i] > bound * (1.0 + 1e-9):
            violations += 1
        rows.append((N, M, float(max_abs[i]), beta, bound, ratio))
    return bounds.BoundReport(tuple(rows), violations)


def assert_same_report(got, want):
    """Equal rows, value for value and type for type (nan equals nan)."""
    assert got.violations == want.violations
    assert len(got.rows) == len(want.rows)
    for g, w in zip(got.rows, want.rows):
        assert [type(v) for v in g] == [type(v) for v in w]
        assert all(a == b or (a != a and b != b) for a, b in zip(g, w)), (g, w)


def listed_sampler(polys):
    """A sampler yielding the given coefficient lists in turn."""
    it = iter(polys)
    return lambda rng: PolyCoeffs(next(it))


class TestBatchedSweepEqualsPerRow:
    @pytest.mark.parametrize("name", sorted(_SAMPLERS))
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_cli_samplers(self, name, seed):
        for dmax, trials in ((64, 300), (300, 100)):
            sampler = _SAMPLERS[name](dmax)
            assert_same_report(verify_beta_bound(sampler, trials, seed=seed),
                               per_row_verify_beta_bound(sampler, trials, seed))

    EDGE_ROWS = [
        [0.0],                            # zero polynomial: M = 0, skipped
        [0.0, 0.0, 0.0],                  # the same, longer
        [1.0, 0.5, 1e-13, 5e-14],         # tail below 1e-12 max: N = 1
        [0.3, 0.2, 1.0, 1e-12],           # tail at exactly 1e-12 max: N = 2
        [0.0, 0.0, 0.0, 2.0],             # single monomial
        [1e-15, 0.0],                     # M below 1e-14: beta is nan
        [1.0, 0.5 + 0.9e-12j, -0.25],     # imaginary part just under 1e-12
        [-2.0],                           # constant: N = 1
    ]

    def test_edge_rows(self):
        rows = self.EDGE_ROWS
        got = verify_beta_bound(listed_sampler(rows), len(rows))
        assert_same_report(got, per_row_verify_beta_bound(
            listed_sampler(rows), len(rows)))
        assert len(got.rows) == len(rows) - 2
        assert [r[0] for r in got.rows] == [1, 2, 3, 1, 2, 1]
        assert math.isnan(got.rows[3][3])

    def test_imaginary_part_just_over_the_limit(self):
        rows = [[1.0, 0.5], [1.0, 0.5 + 1.1e-12j, -0.25], [0.3]]
        for verify in (verify_beta_bound, per_row_verify_beta_bound):
            with pytest.raises(ValueError, match="real coefficients"):
                verify(listed_sampler(rows), len(rows))

    @pytest.mark.parametrize("coeffs", [[0.7], [0.0, 0.0], [0.1, -0.4, 0.2]])
    def test_one_trial(self, coeffs):
        assert_same_report(verify_beta_bound(listed_sampler([coeffs]), 1),
                           per_row_verify_beta_bound(listed_sampler([coeffs]), 1))

    def test_nan_row_raises(self):
        with pytest.raises(ValueError, match="M must be positive"):
            verify_beta_bound(listed_sampler([[1.0], [np.nan, 1.0]]), 2)


def full_circle_max(coeffs):
    """Reference for `_batched_circle_max`: one complex FFT of every row on
    the whole 4096-point circle, the parabola wrapping around its ends."""
    vals = np.fft.fft(coeffs.astype(complex), 4096, axis=1)

    def peak(y):
        i = np.argmax(y, axis=1)
        rows = np.arange(y.shape[0])
        ym, y0, yp = (y[rows, (i + s) % y.shape[1]] for s in (-1, 0, 1))
        denom = ym - 2 * y0 + yp
        with np.errstate(divide="ignore", invalid="ignore"):
            top = y0 - 0.125 * (yp - ym) ** 2 / np.where(denom == 0, 1.0, denom)
        return np.where(denom < 0, np.maximum(top, y0), y0)

    return peak(np.abs(vals)), peak(np.abs(vals.real))


class TestHalfCircleSweep:
    @pytest.mark.parametrize("rows,dmax", [(3, 1), (300, 64), (700, 300)])
    def test_against_full_circle(self, rows, dmax):
        rng = np.random.default_rng(rows)
        batch = np.zeros((rows, dmax + 1))
        degrees = rng.integers(0, dmax + 1, size=rows)
        degrees[:2] = (0, 1)
        for i, d in enumerate(degrees):
            batch[i, :d + 1] = rng.normal(size=d + 1)
            if i % 5 == 4:  # a single Chebyshev monomial: |P| is flat
                batch[i, :d] = 0.0
        got = bounds._batched_circle_max(batch)
        want = full_circle_max(batch)
        for g, w, p in zip(got, want, padded_circle_max(batch)):
            assert g.shape == (rows,)
            assert np.max(np.abs(g - w) / w) <= 1e-12
            assert np.array_equal(g, p)

    def test_peak_at_either_end_of_the_half_circle(self):
        # Maxima at t = 0 (all ones) and t = pi (alternating signs), where
        # the parabola needs the mirrored neighbour.
        batch = np.zeros((4, 9))
        batch[0], batch[1] = 1.0, (-1.0) ** np.arange(9)
        batch[2, :3], batch[3, :3] = (0.3, 1.0, 0.2), (0.3, -1.0, 0.2)
        got = bounds._batched_circle_max(batch)
        want = full_circle_max(batch)
        for g, w, p in zip(got, want, padded_circle_max(batch)):
            assert np.max(np.abs(g - w) / w) <= 1e-12
            assert np.array_equal(g, p)
        assert got[0] == pytest.approx([9.0, 9.0, 1.5, 1.5], rel=1e-12)


    def test_memory_of_the_benchmark_sweep(self):
        # 4000 rows of degree 256: a single FFT of the whole batch would
        # hold over 100 MB.
        batch = np.random.default_rng(9).normal(size=(4000, 257))
        tracemalloc.start()
        try:
            bounds._batched_circle_max(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_memory_of_the_benchmark_bound_sweep(self):
        # The benchmark's largest op: 4000 trials of degree <= 256.  The
        # coefficients are stacked flat (~8 MB complex); a padded complex
        # (trials, 257) batch would add 16 MB on top of the real one.
        sampler = _SAMPLERS["random"](256)
        tracemalloc.start()
        try:
            verify_beta_bound(sampler, 4000, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28e6


class TestBernstein:
    def test_pure_exponential_equality(self):
        for N in (1, 5, 17):
            a = np.zeros(N + 1, dtype=complex)
            a[N] = 1.0
            assert bernstein_check(PolyCoeffs(a))

    def test_constant(self):
        assert bernstein_check(PolyCoeffs([0.7]))

    def test_random_sweep(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            d = int(rng.integers(1, 33))
            a = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            assert bernstein_check(PolyCoeffs(a))


class TestTorusNorms:
    def test_parseval_single_mode(self):
        assert norm2_torus(PolyCoeffs([0, 0, 3.0])) == pytest.approx(
            3.0 * math.sqrt(2 * math.pi), abs=1e-14)

    def test_derivative_weights(self):
        c = PolyCoeffs([1.0, 0, 2.0])
        assert norm2_torus_derivative(c) == pytest.approx(
            math.sqrt(2 * math.pi * 16.0), abs=1e-12)
