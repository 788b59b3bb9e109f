import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from gqtlab import bounds
from gqtlab.bounds import corollary_bound, g1_constant, verify_beta_bound
from gqtlab.cli import _SAMPLERS
from gqtlab.polynomials import PolyCoeffs, max_abs_circle
from reference import bernstein_check, g_lemma, hilbert_theorem_bound


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
        assert corollary_bound(1, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_is_the_theorem_at_width_n_minus_2(self):
        # delta = N^-2, ||f||_inf = M and ||f'||_2 = N M, plus Re p's M.
        rng = np.random.default_rng(53)
        for _ in range(25):
            N = int(rng.integers(1, 10 ** 4))
            M = float(rng.uniform(1e-3, 10))
            assert corollary_bound(N, M) == pytest.approx(
                M + hilbert_theorem_bound(N ** -2.0, M, N * M), rel=1e-13)

    def test_monotone_in_n_linear_in_m(self):
        prev = 0.0
        for N in range(1, 1001):
            b = corollary_bound(N, 1.0)
            assert b >= prev
            prev = b
        assert corollary_bound(5, 3.0) == pytest.approx(
            3 * corollary_bound(5, 1.0), rel=1e-14)

    def test_param_validation(self):
        with pytest.raises(ValueError, match="N must be >= 1"):
            corollary_bound(0, 1.0)
        with pytest.raises(ValueError, match="M must be positive"):
            corollary_bound(1, 0.0)
        with pytest.raises(ValueError, match="M must be positive"):
            corollary_bound(1, math.nan)


def cheb_monomial_sampler(rng, trials):
    lengths = rng.integers(1, 65, size=trials) + 1
    coeffs = np.zeros(lengths.sum())
    coeffs[np.cumsum(lengths) - 1] = 1.0
    return lengths, coeffs


def random_real_sampler(rng, trials):
    lengths = rng.integers(1, 65, size=trials) + 1
    return lengths, rng.normal(size=lengths.sum())


def mod4_sampler(rng, trials):
    # Rows of degree 4d + 1, d = 1..32, each cut from a row of 130 slots.
    lengths = 4 * rng.integers(1, 33, size=trials) + 2
    a = np.zeros((trials, 130))
    a[:, 1::4] = rng.normal(size=(trials, 33))
    return lengths, a[np.arange(130) < lengths[:, None]]


def batch_rows(lengths, coeffs):
    """The rows of a ragged batch, as views of its coefficient array."""
    return np.split(np.asarray(coeffs), np.cumsum(lengths)[:-1])


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
        def bad(rng, trials):
            return np.full(trials, 2), np.tile([1.0, 1j], trials)
        with pytest.raises(ValueError, match="real coefficients"):
            verify_beta_bound(bad, 2)


def row_grid(length):
    """The sweep's circle points for a row of `length` coefficients: 16 per
    period of its top harmonic, rounded up to a power of two, at least 64."""
    if length <= 2:
        return 64
    return max(64, 16 * 2 ** math.ceil(math.log2(length - 1)))


def parabola_peak(y):
    """The parabola through the largest entry of each row of y and its two
    neighbours, taken as is at the ends."""
    i = np.argmax(y[:, 1:-1], axis=1) + 1
    rows = np.arange(y.shape[0])
    ym, y0, yp = y[rows, i - 1], y[rows, i], y[rows, i + 1]
    denom = ym - 2 * y0 + yp
    with np.errstate(divide="ignore", invalid="ignore"):
        top = y0 - 0.125 * (yp - ym) ** 2 / np.where(denom == 0, 1.0, denom)
    return np.where(denom < 0, np.maximum(top, y0), y0)


def padded_circle_max(coeffs, lengths=None, grid=row_grid):
    """Reference for the sweep's circle maxima, row by row: one rfft of each
    row on its own grid, the half circle padded at each end with a copy of
    its mirrored neighbour."""
    if lengths is None:
        lengths = [coeffs.shape[1]] * len(coeffs)
    max_abs, max_re = np.empty(len(coeffs)), np.empty(len(coeffs))
    for i, (row, n) in enumerate(zip(coeffs, lengths)):
        vals = np.fft.rfft(row[:n], grid(n))
        vals = np.concatenate((vals[1:2], vals, vals[-2:-1]))[None]
        max_abs[i] = parabola_peak(np.abs(vals))[0]
        max_re[i] = parabola_peak(np.abs(vals.real))[0]
    return max_abs, max_re


def per_row_verify_beta_bound(sampler, trials, seed=0):
    """Reference for `verify_beta_bound`: the same sweep, walking the same
    batch row by row, with a PolyCoeffs, a circle scan and a corollary_bound
    per row."""
    rng = np.random.default_rng(seed)
    polys = [PolyCoeffs(row) for row in batch_rows(*sampler(rng, trials))]
    rows = []
    violations = 0
    for p in polys:
        if np.max(np.abs(p.coeffs.imag)) > 1e-12 * max(
                np.max(np.abs(p.coeffs)), 1e-300):
            raise ValueError("sampler must yield real coefficients")
        (max_abs,), (M,) = padded_circle_max(p.coeffs.real[None])
        N = max(p.trimmed().degree, 1)
        M, max_abs = float(M), float(max_abs)
        if M <= 0:
            continue
        bound = corollary_bound(N, M)
        beta = max_abs / M if M > 1e-14 else float("nan")
        ratio = max_abs / bound
        if max_abs > bound * (1.0 + 1e-9):
            violations += 1
        rows.append((N, M, max_abs, beta, bound, ratio))
    return bounds.BoundReport(tuple(rows), violations)


def assert_same_report(got, want):
    """Equal rows, value for value and type for type (nan equals nan)."""
    assert got.violations == want.violations
    assert len(got.rows) == len(want.rows)
    for g, w in zip(got.rows, want.rows):
        assert [type(v) for v in g] == [type(v) for v in w]
        assert all(a == b or (a != a and b != b) for a, b in zip(g, w)), (g, w)


def listed_sampler(polys):
    """A sampler returning the given coefficient lists as one batch, the
    rows end to end in the dtype numpy gives their concatenation."""
    rows = [np.asarray(p) for p in polys]

    def sampler(rng, trials):
        assert trials == len(rows)
        return np.array([len(r) for r in rows]), np.concatenate(rows)
    return sampler


def sweep_maxima(rows):
    """(max |P|, max |Re P|) of each row, read from the max_circle and
    max_interval columns of verify_beta_bound's report."""
    rep = verify_beta_bound(listed_sampler(rows), len(rows))
    assert len(rep.rows) == len(rows)
    return (np.array([r[2] for r in rep.rows]),
            np.array([r[1] for r in rep.rows]))


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
        with pytest.raises(ValueError, match="finite"):
            verify_beta_bound(listed_sampler([[1.0], [np.nan, 1.0]]), 2)

    def test_empty_row_raises(self):
        # An empty row would read as the zero polynomial and be skipped.
        with pytest.raises(ValueError, match="non-empty"):
            verify_beta_bound(listed_sampler([[1.0, 0.5], []]), 2)


def full_circle_max(coeffs, lengths):
    """Reference for the sweep's circle maxima: one complex FFT of each row
    on its whole circle grid, the parabola wrapping around its ends."""
    def wrapped_peak(y):
        j = int(np.argmax(y))
        ym, y0, yp = (y[(j + s) % len(y)] for s in (-1, 0, 1))
        denom = ym - 2 * y0 + yp
        if denom < 0:
            return max(y0 - 0.125 * (yp - ym) ** 2 / denom, y0)
        return y0

    max_abs, max_re = np.empty(len(coeffs)), np.empty(len(coeffs))
    for i, (row, n) in enumerate(zip(coeffs, lengths)):
        vals = np.fft.fft(row[:n].astype(complex), row_grid(n))
        max_abs[i] = wrapped_peak(np.abs(vals))
        max_re[i] = wrapped_peak(np.abs(vals.real))
    return max_abs, max_re


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
        # Each row on the grid of the batch width, and on that of its own
        # length, which puts the rows in several groups.
        for lengths in (np.full(rows, dmax + 1), degrees + 1):
            got = sweep_maxima([r[:n] for r, n in zip(batch, lengths)])
            want = full_circle_max(batch, lengths)
            for g, w, p in zip(got, want, padded_circle_max(batch, lengths)):
                assert g.shape == (rows,)
                assert np.max(np.abs(g - w) / w) <= 1e-12
                assert np.array_equal(g, p)

    def test_peak_at_either_end_of_the_half_circle(self):
        # Maxima at t = 0 (all ones) and t = pi (alternating signs), where
        # the parabola needs the mirrored neighbour.
        batch = np.zeros((4, 9))
        batch[0], batch[1] = 1.0, (-1.0) ** np.arange(9)
        batch[2, :3], batch[3, :3] = (0.3, 1.0, 0.2), (0.3, -1.0, 0.2)
        got = sweep_maxima(batch)
        want = full_circle_max(batch, [9] * 4)
        for g, w, p in zip(got, want, padded_circle_max(batch)):
            assert np.max(np.abs(g - w) / w) <= 1e-12
            assert np.array_equal(g, p)
        assert got[0] == pytest.approx([9.0, 9.0, 1.5, 1.5], rel=1e-12)

    def test_memory_of_the_benchmark_bound_sweep(self):
        # The benchmark's largest op: 4000 trials of degree <= 256, whose
        # float coefficients (~4 MB) the sweep holds; a single FFT of the
        # whole batch would hold over 100 MB.  Rows held as complex128
        # peaked at 15.4 MB.
        sampler = _SAMPLERS["random"](256)
        tracemalloc.start()
        try:
            verify_beta_bound(sampler, 4000, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13e6


class TestDegreeAdaptedGrid:
    def test_grid_rule(self):
        lengths = np.arange(1, 20000)
        want = [row_grid(int(n)) for n in lengths]
        assert np.array_equal(bounds._sweep_grid(lengths), want)
        assert np.all(bounds._sweep_grid(lengths) >= lengths)

    def test_degrees_129_to_256_keep_the_4096_point_grid(self):
        # Rows of degree 129 to 256 get exactly 4096 points, so their maxima,
        # and their CSV rows, equal those of a fixed 4096-point scan.
        rng = np.random.default_rng(12)
        lengths = rng.integers(1, 400, size=500)
        lengths[:2] = (130, 257)
        batch = np.zeros((500, 400))
        for i, n in enumerate(lengths):
            batch[i, :n] = rng.normal(size=n)
        got = sweep_maxima([r[:n] for r, n in zip(batch, lengths)])
        fixed = padded_circle_max(batch, lengths, grid=lambda n: 4096)
        kept = (lengths >= 130) & (lengths <= 257)
        for g, f in zip(got, fixed):
            assert np.array_equal(g[kept], f[kept])

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 256, 1000, 2400])
    def test_accuracy_against_a_fine_grid(self, N):
        # The bound stated in bounds.py: both maxima within 1e-2 relative
        # of a 2^20-point scan of the circle.
        rng = np.random.default_rng(N)
        batch = rng.normal(size=(8, N + 1))
        batch[0, 1:N] = 0.0  # a constant plus the top monomial
        got = sweep_maxima(batch)
        for i, row in enumerate(batch):
            vals = np.fft.rfft(row, 2 ** 20)
            want = np.max(np.abs(vals)), np.max(np.abs(vals.real))
            for g, w in zip(got, want):
                assert abs(g[i] - w) <= 1e-2 * w

    def test_no_row_is_cropped(self):
        # z^5000 + 0.01 z peaks at t = 0 with 1.01; a 4096-point grid keeps
        # only 0.01 z of it.
        row = np.zeros(5001)
        row[5000], row[1] = 1.0, 0.01
        rep = verify_beta_bound(listed_sampler([row]), 1)
        (N, max_interval, max_circle, *_), = rep.rows
        assert N == 5000
        assert max_interval == pytest.approx(1.01, abs=1e-12)
        assert max_circle == pytest.approx(1.01, abs=1e-12)

    def test_chebyshev_monomials_above_4096_are_kept(self):
        rep = verify_beta_bound(_SAMPLERS["chebyshev"](8000), 50, seed=0)
        assert len(rep.rows) == 50 and rep.violations == 0
        assert max(r[0] for r in rep.rows) > 4096
        for _, max_interval, max_circle, *_ in rep.rows:
            assert max_interval == pytest.approx(1.0, abs=1e-12)
            assert max_circle == pytest.approx(1.0, abs=1e-12)

    def test_degree_2400_against_max_abs_circle(self):
        sampler = _SAMPLERS["random"](2400)
        rep = verify_beta_bound(sampler, 20, seed=3)
        polys = batch_rows(*sampler(np.random.default_rng(3), 20))
        assert max(len(p) - 1 for p in polys) > 2048
        for p, row in zip(polys, rep.rows):
            assert row[0] == len(p) - 1
            assert row[2] == pytest.approx(max_abs_circle(PolyCoeffs(p)),
                                           rel=1e-2)

    def test_memory_of_high_degree_rows(self):
        # 100 rows of degree 5000 get 131072 points each: one FFT of the
        # whole batch would hold over 100 MB, while blocks of 64 * 4096
        # points hold what a block of 64 rows of degree 256 holds.  The
        # batch is drawn first, so only the sweep's buffers count.
        lengths = np.full(100, 5001)
        coeffs = np.random.default_rng(10).normal(size=100 * 5001)
        tracemalloc.start()
        try:
            verify_beta_bound(lambda rng, trials: (lengths, coeffs), 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_memory_at_the_top_paper_degree(self):
        # 1000 trials of degree <= 2400: each grid block is padded only to
        # its own longest row, not to the longest row of the sweep, and the
        # rows are held as float64 (23.7 MB as complex128).
        sampler = _SAMPLERS["random"](2400)
        tracemalloc.start()
        try:
            verify_beta_bound(sampler, 1000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18e6


class TestCliSamplers:
    # The degrees each sampler draws at a max_degree, as the README states.
    DEGREES = {
        "random": lambda dmax: set(range(1, dmax + 1)),
        "mod4": lambda dmax: set(range(1, dmax + 1, 4)),
        "chebyshev": lambda dmax: set(range(dmax + 1)),
    }

    @staticmethod
    def draw(name, dmax, trials, seed=0):
        lengths, coeffs = _SAMPLERS[name](dmax)(np.random.default_rng(seed),
                                                trials)
        assert lengths.shape == (trials,) and lengths.dtype.kind == "i"
        assert coeffs.dtype == np.float64
        assert coeffs.shape == (lengths.sum(),)
        return lengths, coeffs

    @pytest.mark.parametrize("name", sorted(_SAMPLERS))
    @pytest.mark.parametrize("dmax", [1, 2, 3, 4, 5, 64])
    def test_every_degree_is_drawn(self, name, dmax):
        # 4000 trials reach both end degrees: 1 and max_degree (random),
        # 1 and the largest 4k + 1 (mod4), 0 and max_degree (chebyshev).
        lengths, _ = self.draw(name, dmax, 4000)
        assert set((lengths - 1).tolist()) == self.DEGREES[name](dmax)

    def test_mod4_rows_hold_only_the_slots_one_mod_four(self):
        lengths, coeffs = self.draw("mod4", 64, 500)
        for row in batch_rows(lengths, coeffs):
            slots = np.arange(len(row)) % 4 == 1
            assert len(row) % 4 == 2
            assert np.all(row[~slots] == 0.0) and np.all(row[slots] != 0.0)

    def test_chebyshev_rows_are_monomials(self):
        lengths, coeffs = self.draw("chebyshev", 64, 500)
        for row in batch_rows(lengths, coeffs):
            assert row[-1] == 1.0 and not np.any(row[:-1])

    def test_random_rows_are_standard_normal(self):
        _, coeffs = self.draw("random", 64, 1000)
        assert np.all(coeffs != 0.0)
        assert abs(coeffs.mean()) < 0.02 and abs(coeffs.std() - 1) < 0.02

    @pytest.mark.parametrize("name", sorted(_SAMPLERS))
    def test_a_seed_reproduces_its_batch(self, name):
        batches = [self.draw(name, 64, 300, seed) for seed in (5, 5, 6)]
        same, again, other = ([a.tobytes() for a in b] for b in batches)
        assert same == again and same != other


class TestMalformedBatch:
    @pytest.mark.parametrize("lengths, coeffs, match", [
        ([2, 1], [1.0, 0.5, 0.2], "3 integer row lengths"),      # too few
        ([2, 1, 1, 1], [1.0, 0.5, 0.2, 0.1, 0.3], "3 integer row lengths"),
        ([2.0, 1.0, 1.0], [1.0, 0.5, 0.2, 0.1], "integer row lengths"),
        ([[2, 1, 1]], [1.0, 0.5, 0.2, 0.1], "integer row lengths"),
        ([2, 1, 1], [1.0, 0.5, 0.2], "sum to 4"),                 # short
        ([2, 1, 1], [1.0, 0.5, 0.2, 0.1, 0.3], "sum to 4"),       # long
        ([2, 1, 1], [[1.0, 0.5], [0.2, 0.1]], "sum to 4"),        # 2-D
        ([2, 0, 2], [1.0, 0.5, 0.2, 0.1], "non-empty"),
        ([2, -1, 3], [1.0, 0.5, 0.2, 0.1], "non-empty"),
    ])
    def test_raises(self, lengths, coeffs, match):
        batch = (np.asarray(lengths), np.asarray(coeffs))
        with pytest.raises(ValueError, match=match):
            verify_beta_bound(lambda rng, trials: batch, 3)

    def test_zero_trials(self):
        empty = (np.zeros(0, dtype=int), np.zeros(0))
        rep = verify_beta_bound(lambda rng, trials: empty, 0)
        assert rep.rows == () and rep.violations == 0


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
