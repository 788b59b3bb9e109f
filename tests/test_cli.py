import csv
import io
import json
import time

import numpy as np
import pytest

from gqtlab import phases
from gqtlab.cli import EXIT_INPUT, EXIT_OK, EXIT_TOLERANCE, FMT, _csv, main
from gqtlab.encodings import EncodingValidationError, dilate_hermitian
from gqtlab.polynomials import PolyCoeffs
from gqtlab.serialization import (
    matrix_from_json, matrix_to_json, phases_from_file)


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def hermitian_config(tmp_path, coeffs, n=3, seed=7, alpha=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = (X + X.conj().T) / (2.2 * np.linalg.norm(X + X.conj().T, 2))
    cfg = {
        "matrix": matrix_to_json(A),
        "poly": PolyCoeffs(np.asarray(coeffs, dtype=complex)).to_json_dict(),
    }
    if alpha is not None:
        cfg["alpha"] = alpha
    return write_config(tmp_path, "gqet.json", cfg)


class TestGqetCommand:
    def test_identity_poly(self, tmp_path, capsys):
        cfg = hermitian_config(tmp_path, [0, 1], alpha=1.0)
        out = tmp_path / "report.json"
        assert main(["gqet", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["residual"] < 1e-9
        assert report["queries_U"] == 1

    def test_t2_scalar(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.array([[0.5]])),
            "poly": PolyCoeffs([0, 0, 1.0]).to_json_dict(),
            "alpha": 1.0,
        })
        assert main(["gqet", "--config", cfg]) == EXIT_OK
        text = capsys.readouterr().out
        # |P| = 1 on the circle forces a rescale; -0.5 recovered after it
        assert "scale=" in text

    def test_mixed_degree9(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        a = rng.normal(size=10) + 1j * rng.normal(size=10)
        c = PolyCoeffs(a).scaled(0.1 / np.sum(np.abs(a)))
        cfg = hermitian_config(tmp_path, c.coeffs)
        assert main(["gqet", "--config", cfg]) == EXIT_OK

    def test_time_evolution(self, tmp_path, capsys):
        # The Chebyshev interpolant of e^{-ixt} at t = 15, rescaled by gqet.
        t, d = 15, 82
        c = np.polynomial.chebyshev.chebinterpolate(
            lambda x: np.exp(-1j * x * t), d)
        cfg = hermitian_config(tmp_path, c, n=4)
        assert main(["gqet", "--config", cfg]) == EXIT_OK

    def test_non_hermitian_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])),
            "poly": PolyCoeffs([0, 0.5]).to_json_dict(),
        })
        assert main(["gqet", "--config", cfg]) == EXIT_INPUT

    @pytest.mark.parametrize("defect", [5e-10, 2e-9])
    def test_hermitian_rule_is_dilate_hermitians(self, tmp_path, capsys,
                                                 defect):
        # ||A - A^dag||_F = defect at N = 8, against the library's 8e-10.
        rng = np.random.default_rng(13)
        n = 8
        X = rng.normal(size=(n, n))
        S = rng.normal(size=(n, n))
        S = (S - S.T) * (defect / (2.0 * np.linalg.norm(S - S.T)))
        A = (X + X.T) / (2.5 * np.linalg.norm(X + X.T, 2)) + S
        try:
            dilate_hermitian(A, 1.0)
            expected = EXIT_OK
        except EncodingValidationError:
            expected = EXIT_INPUT
        assert expected == (EXIT_OK if defect <= 1e-10 * n else EXIT_INPUT)
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(A), "alpha": 1.0,
            "poly": PolyCoeffs([0, 0.5]).to_json_dict(),
        })
        assert main(["gqet", "--config", cfg]) == expected

    def test_missing_config(self, capsys):
        assert main(["gqet", "--config", "/nonexistent.json"]) == EXIT_INPUT

    def test_missing_poly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.array([[0.5]]))})
        assert main(["gqet", "--config", cfg]) == EXIT_INPUT


_POLY = PolyCoeffs([0, 0.5]).to_json_dict()
_NOT_PAIRS = {"coeffs": [0.0, 0.5, 0.25]}


@pytest.mark.parametrize("command, cfg", [
    ("gqet", [1, 2]),
    ("gqet", {"matrix": 5, "poly": _POLY}),
    ("gqet", {"matrix": {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]},
              "poly": _NOT_PAIRS}),
    ("phases", {"poly": _NOT_PAIRS}),
    ("gqet", {"matrix": {"rows": 1, "cols": 2, "data": [[0.5, 0.0], [0.1]]},
              "poly": _POLY}),
    ("gqet", {"matrix": {"rows": 1, "cols": 1, "data": [["0.5", "0"]]},
              "poly": _POLY}),
], ids=["config-list", "matrix-number", "coeffs-not-pairs",
        "phases-coeffs-not-pairs", "data-not-pairs", "data-strings"])
def test_malformed_config_is_an_input_error(tmp_path, capsys, command, cfg):
    # exit 2 with a message, not a traceback
    argv = [command, "--config", write_config(tmp_path, "c.json", cfg)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


_NAN_POLY = {"coeffs": [[float("nan"), 0.0], [0.5, 0.0]]}
_INF_POLY = {"coeffs": [[0.0, 0.0], [0.5, float("inf")]]}
_SCALAR = matrix_to_json(np.array([[0.5]]))
_NAN_MATRIX = {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}


@pytest.mark.parametrize("command, cfg", [
    ("phases", {"poly": _NAN_POLY}),
    ("phases", {"poly": _INF_POLY}),
    ("gqet", {"matrix": _SCALAR, "poly": _NAN_POLY}),
    ("gqet", {"matrix": _SCALAR, "poly": _INF_POLY}),
    ("gqsvt", {"matrix": _SCALAR, "poly": _NAN_POLY, "parity": "odd"}),
    ("gqsvt", {"matrix": _SCALAR, "poly": _INF_POLY, "parity": "odd"}),
    ("gqet", {"matrix": _NAN_MATRIX, "poly": _POLY}),
    ("gqsvt", {"matrix": _NAN_MATRIX, "poly": _POLY, "parity": "odd"}),
], ids=["phases-nan", "phases-inf", "gqet-nan", "gqet-inf", "gqsvt-nan",
        "gqsvt-inf", "gqet-nan-matrix", "gqsvt-nan-matrix"])
def test_non_finite_input_is_an_input_error(tmp_path, capsys, command, cfg):
    # The config is written with the NaN and Infinity literals that
    # Python's json reads back as floats.
    argv = [command, "--config", write_config(tmp_path, "c.json", cfg)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "finite" in err


def test_json_decoding_is_exact():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(M))))
    assert back.shape == (3, 4) and np.array_equal(back, M)
    c = PolyCoeffs(M[0])
    back = PolyCoeffs.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
    assert np.array_equal(back.coeffs, c.coeffs)


class TestGqsvtCommand:
    def test_t1_both_routes(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(2, 3))
        A = A / (1.5 * np.linalg.norm(A, 2))
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(A),
            "poly": PolyCoeffs([0, 0.8]).to_json_dict(),
            "alpha": 1.0,
            "parity": "odd",
            "route": "both",
        })
        assert main(["gqsvt", "--config", cfg]) == EXIT_OK
        text = capsys.readouterr().out
        assert "route agreement" in text
        assert "success_prob" in text

    def test_even_query_halving(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.array([[0.6]])),
            "poly": PolyCoeffs([0, 0, 0.3]).to_json_dict(),
            "alpha": 1.0,
            "parity": "even",
            "route": "both",
        })
        assert main(["gqsvt", "--config", cfg]) == EXIT_OK
        text = capsys.readouterr().out
        assert "hermitianization: residual" in text
        assert "multiplication: residual" in text
        herm = [l for l in text.splitlines() if l.startswith("hermitian")][0]
        mult = [l for l in text.splitlines() if l.startswith("multiplic")][0]
        assert "queries_U=2" in herm
        assert "queries_U=1" in mult

    def test_parity_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.array([[0.6]])),
            "poly": PolyCoeffs([0, 0.5]).to_json_dict(),
        })
        assert main(["gqsvt", "--config", cfg]) == EXIT_INPUT

    @pytest.mark.parametrize("tol", [None, "1e-7"])
    def test_unknown_route(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.array([[0.6]])),
            "poly": PolyCoeffs([0, 0.5]).to_json_dict(),
            "parity": "odd",
            "route": "bogus",
        })
        out = tmp_path / "report.txt"
        argv = ["gqsvt", "--config", cfg, "--out", str(out)]
        assert main(argv + (["--tol", tol] if tol else [])) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "'bogus'" in err
        for route in ("hermitianization", "multiplication", "both"):
            assert route in err
        assert not out.exists()

    def test_odd_both_checks_each_matrix_once(self, tmp_path, capsys,
                                              monkeypatch):
        # Every unitarity check goes through phases._unitary_defect and every
        # check of pushed columns through phases._column_defect; count what
        # they see, by content, over one odd --route both op.
        import hashlib
        from gqtlab import encodings, transforms

        def digest(a):
            return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

        squares, columns, pushes = [], [], []
        square_check, column_check = phases._unitary_defect, phases._column_defect
        kernel = transforms.gqsp_matrix

        def counting_square(U):
            squares.append((U.shape[0], digest(U)))
            return square_check(U)

        def counting_columns(Y, X):
            columns.append((X.shape, digest(X)))
            return column_check(Y, X)

        def counting_kernel(ph, U, columns=None):
            pushes.append(columns is not None)
            return kernel(ph, U, columns=columns)

        for mod in (phases, encodings, transforms):
            monkeypatch.setattr(mod, "_unitary_defect", counting_square)
        for mod in (phases, transforms):
            monkeypatch.setattr(mod, "_column_defect", counting_columns)
        monkeypatch.setattr(transforms, "gqsp_matrix", counting_kernel)
        rng = np.random.default_rng(10)
        A = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        a = np.zeros(6, dtype=complex)
        a[1::2] = [0.3, -0.2, 0.1]
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(A / (1.5 * np.linalg.norm(A, 2))),
            "poly": PolyCoeffs(a).to_json_dict(),
            "alpha": 1.0,
            "parity": "odd",
            "route": "both",
        })
        assert main(["gqsvt", "--config", cfg]) == EXIT_OK
        dims = sorted(dim for dim, _ in squares)
        # U and U^dag (10), Hermitianized U, the product U and both walk
        # operators (20); no circuit is formed, so none is checked whole
        assert dims == [10, 10, 20, 20, 20, 20]
        assert len(set(squares)) == len(squares)
        # Each eigenvalue circuit pushes its right isometry once (4 of 40
        # columns), and the odd product pushes its own (4 of 80) through the
        # memoised push of the second one: one column check per stack.
        assert pushes == [True, True]
        assert sorted(shape for shape, _ in columns) == [(40, 4), (40, 4),
                                                          (80, 4)]
        assert len(set(columns)) == len(columns)

    def test_vanishing_postselection_exits_tolerance(self, tmp_path, capsys):
        # An odd d = 33 polynomial scaled so that its square-root substitute
        # peaks at 0.9 leaves p tiny on the spectrum: the measure-early
        # success probability is about 2e-24, and the op must end with
        # exit 1 and a message, not a traceback.
        from gqtlab.polynomials import max_abs_circle, sqrt_substitute_odd
        rng = np.random.default_rng(0)
        A = rng.normal(size=(48, 32)) + 1j * rng.normal(size=(48, 32))
        a = np.zeros(34, dtype=complex)
        a[1::2] = rng.normal(size=17) + 1j * rng.normal(size=17)
        a[33] += 1.0
        c = PolyCoeffs(a)
        c = c.scaled(0.9 / max(max_abs_circle(c),
                               max_abs_circle(sqrt_substitute_odd(c))))
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(A),
            "poly": c.to_json_dict(),
            "parity": "odd",
            "route": "both",
        })
        assert main(["gqsvt", "--config", cfg]) == EXIT_TOLERANCE
        err = capsys.readouterr().err
        assert err.startswith("postselection failed: success probability")
        assert "Traceback" not in err

    def test_pseudo_inversion_demo(self, tmp_path, capsys):
        from gqtlab.polynomials import ApproxSpec, approx_inverse
        res = approx_inverse(ApproxSpec(kappa=10, eps=1e-3))
        s = np.array([0.15, 0.4, 1.0])
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.diag(s)),
            "poly": res.poly.to_json_dict(),
            "alpha": 1.0,
            "parity": "odd",
            "route": "hermitianization",
        })
        out = tmp_path / "demo.txt"
        assert main(["gqsvt", "--config", cfg, "--out", str(out),
                     "--tol", "1e-7"]) == EXIT_OK


class TestBoundsCommand:
    def test_default_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", {"trials": 50})
        out = tmp_path / "rows.csv"
        assert main(["bounds", "--config", cfg, "--seed", "5",
                     "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "violations=0" in text
        header = out.read_text().splitlines()[0]
        assert header == "degree,max_interval,max_circle,beta,bound,ratio"

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", {"trials": 40})
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["bounds", "--config", cfg, "--seed", "11", "--out", str(o1)])
        main(["bounds", "--config", cfg, "--seed", "11", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()
        o3 = tmp_path / "c.csv"
        main(["bounds", "--config", cfg, "--seed", "12", "--out", str(o3)])
        assert o1.read_bytes() != o3.read_bytes()

    def test_mod4_sampler(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json",
                           {"trials": 60, "sampler": "mod4"})
        out = tmp_path / "rows.csv"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
        betas = [float(line.split(",")[3])
                 for line in out.read_text().splitlines()[1:]]
        assert max(betas) <= 2 + 1e-6

    def test_chebyshev_sampler(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json",
                           {"trials": 30, "sampler": "chebyshev"})
        out = tmp_path / "rows.csv"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
        betas = [float(line.split(",")[3])
                 for line in out.read_text().splitlines()[1:]]
        assert np.allclose(betas, 1.0, atol=1e-6)

    def test_bad_sampler(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", {"sampler": "quantum"})
        assert main(["bounds", "--config", cfg]) == EXIT_INPUT

    def test_bad_trials(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", {"trials": 0})
        assert main(["bounds", "--config", cfg]) == EXIT_INPUT


class TestPhasesCommand:
    def test_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p.json", {
            "poly": PolyCoeffs([0, 0, 0.7]).to_json_dict()})
        out = tmp_path / "phases.json"
        assert main(["phases", "--config", cfg, "--out", str(out)]) == EXIT_OK
        ph = phases_from_file(str(out))
        assert ph.degree == 2

    def test_rescales_large_poly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p.json", {
            "poly": PolyCoeffs([0, 2.0]).to_json_dict()})
        assert main(["phases", "--config", cfg]) == EXIT_OK
        assert "rescaled" in capsys.readouterr().out

    @pytest.mark.parametrize("margin", [0.5, -0.1])
    def test_margin_outside_range(self, tmp_path, capsys, margin):
        # margin 0.5 would scale by 1 - 2 margin = 0 and "solve" P = 0
        cfg = write_config(tmp_path, "p.json", {
            "poly": PolyCoeffs([0, 2.0]).to_json_dict(), "margin": margin})
        assert main(["phases", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "margin" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("failure", ["defect", "completion"])
    def test_synthesis_failure_exits_tolerance(self, tmp_path, capsys,
                                               monkeypatch, failure):
        real = phases.complementary_polynomial

        def broken(c):
            if failure == "completion":
                raise phases.CompletionError("forced")
            return real(c).scaled(1.001)

        monkeypatch.setattr(phases, "complementary_polynomial", broken)
        cfg = write_config(tmp_path, "p.json", {
            "poly": PolyCoeffs([0, 0, 0.7]).to_json_dict()})
        assert main(["phases", "--config", cfg]) == EXIT_TOLERANCE
        assert "phase synthesis failed" in capsys.readouterr().err


class TestScalingTableCommand:
    def test_small_custom_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "rows": [{"kappa": 4, "eps": 1e-2}]})
        out = tmp_path / "table.csv"
        assert main(["scaling-table", "--config", cfg,
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "degree,kappa,eps,max_p,max_P,beta"
        assert len(lines) == 2
        beta = float(lines[1].split(",")[5])
        assert 1.0 <= beta < 1.75
        # rounded comparison view on stdout
        assert "rounded to two digits" in capsys.readouterr().out

    def test_grid_sorted_deterministically(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "rows": [{"kappa": 6, "eps": 1e-2}, {"kappa": 4, "eps": 1e-2}]})
        out = tmp_path / "table.csv"
        assert main(["scaling-table", "--config", cfg,
                     "--out", str(out)]) == EXIT_OK
        kappas = [float(line.split(",")[1])
                  for line in out.read_text().splitlines()[1:]]
        assert kappas == sorted(kappas)

    def test_mode_key_is_ignored(self, tmp_path, capsys):
        # There is one design path; a leftover "mode" is an unknown key.
        rows = [{"kappa": 4, "eps": 1e-2}]
        tables = []
        for i, cfg in enumerate(({"rows": rows},
                                 {"rows": rows, "mode": "projection"})):
            out = tmp_path / f"table{i}.csv"
            assert main(["scaling-table", "--config",
                         write_config(tmp_path, f"s{i}.json", cfg),
                         "--out", str(out)]) == EXIT_OK
            tables.append(out.read_text())
        assert tables[0] == tables[1]

    def test_high_degree_grid_in_seconds(self, tmp_path, capsys):
        # The paper's scaling table up to kappa = 300, eps = 1e-4.
        cfg = write_config(tmp_path, "s.json", {"include_high_degree": True})
        out = tmp_path / "table.csv"
        t0 = time.perf_counter()
        assert main(["scaling-table", "--config", cfg,
                     "--out", str(out)]) == EXIT_OK
        elapsed = time.perf_counter() - t0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [55, 79, 221, 553, 783, 1565, 2349]
        assert all(float(r[5]) < 1.75 for r in rows)
        assert elapsed < 15.0

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_high_degree_flag_must_be_boolean(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, "s.json", {"include_high_degree": value})
        assert main(["scaling-table", "--config", cfg]) == EXIT_INPUT
        assert "include_high_degree" in capsys.readouterr().err


def test_main_runs_the_handler_bound_at_call_time(monkeypatch):
    # The parser is built once per process; rebinding a cmd_* handler, as
    # per-module tracing does, must still change what main runs.
    from gqtlab import cli
    assert main(["phases", "--config", "missing.json"]) == EXIT_INPUT
    monkeypatch.setattr(cli, "cmd_phases", lambda args: 7)
    assert main(["phases"]) == 7


_ONE_BY_ONE = {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]}


@pytest.mark.parametrize("command, cfg", [
    ("phases", {"poly": _POLY, "margin": [0.1]}),
    ("gqsvt", {"matrix": _ONE_BY_ONE, "poly": _POLY, "parity": "odd",
               "alpha": [1]}),
    ("gqet", {"matrix": _ONE_BY_ONE, "poly": _POLY, "alpha": None}),
    ("bounds", {"trials": [3]}),
    ("bounds", {"trials": 3, "seed": {"s": 1}}),
    ("scaling-table", {"rows": [[10, 1e-3]]}),
    ("scaling-table", {"rows": [{"kappa": "ten", "eps": 1e-3}]}),
    ("scaling-table", {"rows": 5}),
], ids=["phases-margin-list", "gqsvt-alpha-list", "gqet-alpha-null",
        "bounds-trials-list", "bounds-seed-object", "scaling-row-list",
        "scaling-kappa-string", "scaling-rows-number"])
def test_wrong_type_scalar_is_an_input_error(tmp_path, capsys, command, cfg):
    argv = [command, "--config", write_config(tmp_path, "c.json", cfg)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("command", ["gqet", "gqsvt"])
def test_given_alpha_skips_the_default_norm(tmp_path, capsys, monkeypatch,
                                            command):
    # The default alpha = 1.2 ||A||_2 is a full SVD of A; with alpha in the
    # config no 2-norm of A is taken.
    A = np.array([[0.3, 0.1], [0.1, -0.2]])
    cfg = write_config(tmp_path, "c.json", {
        "matrix": matrix_to_json(A), "poly": _POLY, "alpha": 2.0,
        "parity": "odd", "route": "hermitianization"})
    real, of_A = np.linalg.norm, []

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.shape(x) == A.shape and np.array_equal(x, A):
            of_A.append(x)
        return real(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    assert main([command, "--config", cfg]) == EXIT_OK
    assert of_A == []
    # without alpha the default is still computed, from A itself
    cfg = write_config(tmp_path, "d.json", {
        "matrix": matrix_to_json(A), "poly": _POLY,
        "parity": "odd", "route": "hermitianization"})
    assert main([command, "--config", cfg]) == EXIT_OK
    assert len(of_A) == 1


@pytest.mark.parametrize("command", ["phases", "gqet"])
def test_one_round_trip_per_op(tmp_path, capsys, monkeypatch, command):
    calls = []
    real = phases._reconstruct_PQ
    monkeypatch.setattr(phases, "_reconstruct_PQ",
                        lambda ph: calls.append(ph) or real(ph))
    poly = PolyCoeffs([0.1, 0.3j, 0, -0.2]).to_json_dict()
    cfg = write_config(tmp_path, "c.json", {
        "matrix": matrix_to_json(np.array([[0.3, 0.1], [0.1, -0.2]])),
        "poly": poly, "alpha": 1.0})
    assert main([command, "--config", cfg]) == EXIT_OK
    assert len(calls) == 1
    if command == "phases":
        err = float(capsys.readouterr().out.split("round_trip_error=")[1]
                    .split()[0])
        ph = calls[0]
        assert err == float(f"{ph.round_trip:.3e}")


@pytest.mark.parametrize("command, extra, expected", [
    ("phases", {}, 1),
    ("gqet", {}, 1),
    ("gqsvt", {"parity": "odd", "route": "both"}, 2),
], ids=["phases", "gqet", "gqsvt-both"])
def test_one_circle_norm_per_solve(tmp_path, capsys, monkeypatch, command,
                                   extra, expected):
    # rescale_to_margin is the one margin rule: each phase solve measures
    # max |P| on the circle once, in it, and solve_phases not again.
    calls = []
    real = phases.max_abs_circle
    monkeypatch.setattr(phases, "max_abs_circle",
                        lambda c: calls.append(c) or real(c))
    cfg = write_config(tmp_path, "c.json", {
        "matrix": matrix_to_json(np.array([[0.3, 0.1], [0.1, -0.2]])),
        "poly": PolyCoeffs([0, 0.5, 0, -0.3]).to_json_dict(), "alpha": 1.0,
        **extra})
    assert main([command, "--config", cfg]) == EXIT_OK
    assert len(calls) == expected


def _per_element(values):
    return [[float(v.real), float(v.imag)] for v in values]


def test_json_encoders_match_the_per_element_form():
    # .tolist() on stacked (re, im) columns gives the same JSON text as
    # converting one element at a time, signed zeros, subnormals and the
    # ends of the float range included.
    special = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308,
                        1.0 / 3.0, -7.25, 2.0 ** -1074 * 3])
    z = np.empty(len(special), dtype=complex)
    z.real, z.imag = special, special[::-1]
    c = PolyCoeffs(z)
    assert (json.dumps(c.to_json_dict())
            == json.dumps({"coeffs": _per_element(c.coeffs),
                           "basis": "chebyshev-monomial-dual"}))
    M = np.concatenate([z, z[::-1]]).reshape(3, 6)
    for m in (M, M.T, special.reshape(3, 3)):
        want = {"rows": m.shape[0], "cols": m.shape[1],
                "data": _per_element(np.asarray(m, dtype=complex).ravel())}
        assert json.dumps(matrix_to_json(m)) == json.dumps(want)
    ph = phases.PhaseFactors(np.array([-0.0, 5e-324, 1.0 / 3.0]),
                             np.array([-2.5e-310, 0.0, -7.25]), -0.0)
    want = {"thetas": [float(x) for x in ph.thetas],
            "phis": [float(x) for x in ph.phis],
            "lambda": float(ph.lam), "degree": ph.degree}
    assert json.dumps(ph.to_json_dict()) == json.dumps(want)
    assert "-0.0" in json.dumps(c.to_json_dict())


def test_csv_matches_csv_writer():
    # The CLI writes rows of ints and floats; for those the joined lines are
    # csv.writer's output byte for byte, special floats included.
    floats = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300,
              5e-324, -2.5e-310, 1e308, 1.0 / 3.0, -7.25, 0.1 + 0.2]
    rows = [(i, floats[i], -i, floats[-1 - i], 2 ** 70, 3.0)
            for i in range(len(floats))]
    rows += [(0, 1.5, 2, 0.0, -1, float("nan"))]
    header = ["degree", "max_interval", "max_circle", "beta", "bound", "ratio"]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([FMT % v if isinstance(v, float) else v for v in row])
    assert _csv(rows, header) == buf.getvalue()
    assert _csv([], header) == ",".join(header) + "\n"
