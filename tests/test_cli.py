import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import gqtlab
from gqtlab import phases
from gqtlab.cli import EXIT_INPUT, EXIT_OK, EXIT_TOLERANCE, FMT, _csv, main
from gqtlab.encodings import (
    EncodingValidationError, dilate_general, dilate_hermitian)
from gqtlab.polynomials import PolyCoeffs, eval_cheb, max_abs_circle
from gqtlab.serialization import (
    matrix_from_json, matrix_to_json, phases_from_file, phases_to_file)
from gqtlab.transforms import (
    extract_svt, gqet, gqsvt_hermitianization, gqsvt_multiplication)


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


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def count_unitarity_checks(monkeypatch) -> list:
    """Every unitarity check goes through phases._unitary_defect; record
    (dimension, content digest) of each matrix it measures from now on."""
    from gqtlab import encodings
    squares, check = [], phases._unitary_defect

    def counting(U):
        squares.append((U.shape[0], _digest(U)))
        return check(U)

    for mod in (phases, encodings):
        monkeypatch.setattr(mod, "_unitary_defect", counting)
    return squares


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

    def test_checks_only_the_dilation(self, tmp_path, capsys, monkeypatch):
        # The walk operator inherits the defect of the dilation U: one Gram,
        # of the 6 x 6 U.
        squares = count_unitarity_checks(monkeypatch)
        cfg = hermitian_config(tmp_path, [0.1, 0.5, 0.0, -0.2])
        assert main(["gqet", "--config", cfg]) == EXIT_OK
        assert [dim for dim, _ in squares] == [6]

    def test_missing_config(self, capsys):
        assert main(["gqet", "--config", "/nonexistent.json"]) == EXIT_INPUT

    def test_missing_poly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.array([[0.5]]))})
        assert main(["gqet", "--config", cfg]) == EXIT_INPUT

    @pytest.mark.parametrize("key", ["poly", "matrix"])
    def test_a_file_path_is_not_a_config_value(self, tmp_path, capsys, key):
        # poly and matrix are inline JSON objects; a path string, even to a
        # file that holds a valid value, is an input error naming the key.
        values = {"matrix": matrix_to_json(np.array([[0.5]])),
                  "poly": PolyCoeffs([0, 0.5]).to_json_dict(), "alpha": 1.0}
        path = write_config(tmp_path, f"{key}.json", values[key])
        cfg = write_config(tmp_path, "c.json", {**values, key: path})
        assert main(["gqet", "--config", cfg]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {key} must be a JSON object\n")


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
    ("gqet", {"matrix": _SCALAR, "poly": _POLY, "alpha": float("inf")}),
    ("gqsvt", {"matrix": _SCALAR, "poly": _POLY, "parity": "odd",
               "alpha": float("inf")}),
], ids=["phases-nan", "phases-inf", "gqet-nan", "gqet-inf", "gqsvt-nan",
        "gqsvt-inf", "gqet-nan-matrix", "gqsvt-nan-matrix", "gqet-inf-alpha",
        "gqsvt-inf-alpha"])
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
    # An integral float is an integer dimension.
    d = {**matrix_to_json(M), "rows": 3.0, "cols": 4.0}
    assert np.array_equal(matrix_from_json(d), M)
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

    def test_small_stage_probabilities_are_printed(self, tmp_path, capsys):
        # q = 5e-4 on A = 0.6: the first stage passes with p = 2.5e-7, which
        # six decimals would print as 0.
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.array([[0.6]])),
            "poly": PolyCoeffs([0, 5e-4]).to_json_dict(),
            "alpha": 1.0,
            "route": "both",
        })
        assert main(["gqsvt", "--config", cfg]) == EXIT_OK
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("multiplication:")]
        success = float(line.split("success_prob=")[1].split()[0])
        probs = [float(p) for p in
                 line.split("stage_probs=(")[1].rstrip(")").split(", ")]
        assert len(probs) == 2 and 0 < probs[0] < 5e-7
        assert all(p > 0 for p in probs)
        assert math.prod(probs) == pytest.approx(success, rel=1e-5)

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

    @pytest.mark.parametrize("coeffs,parity", [([0, 0.5], "odd"),
                                               ([0.2, 0, 0.5], "even")],
                             ids=["odd", "even"])
    def test_parity_is_read_from_the_coefficients(self, tmp_path, capsys,
                                                  coeffs, parity):
        # A leftover "parity" key is ignored: the same bytes either way.
        base = {"matrix": matrix_to_json(np.array([[0.6], [0.3]])),
                "poly": PolyCoeffs(coeffs).to_json_dict()}
        runs = []
        for name, cfg in (("bare", base),
                          ("tagged", {**base, "parity": parity})):
            out = tmp_path / f"{name}.txt"
            assert main(["gqsvt", "--config",
                         write_config(tmp_path, f"{name}.json", cfg),
                         "--out", str(out)]) == EXIT_OK
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[0] == runs[1]

    def test_mixed_parity_is_an_input_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.array([[0.6]])),
            "poly": PolyCoeffs([0.3, 0.5]).to_json_dict(),
        })
        assert main(["gqsvt", "--config", cfg]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "mixed parity" in err

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
        # Count, by content, what the unitarity check and the check of
        # pushed columns (phases._column_defect) see over one odd --route
        # both op.
        from gqtlab import transforms

        columns, pushes = [], []
        column_check = phases._column_defect
        kernel = transforms.gqsp_matrix

        def counting_columns(Y, X):
            columns.append((X.shape, _digest(X)))
            return column_check(Y, X)

        def counting_kernel(ph, U, columns, **inherited):
            pushes.append(columns.shape)
            return kernel(ph, U, columns=columns, **inherited)

        squares = count_unitarity_checks(monkeypatch)
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
        # U (10) and the product U (20), formed from two Grams.  U^dag and the
        # Hermitianized U inherit the check of U, each walk operator (on a
        # coordinate isometry) that of its encoding, and no circuit is
        # formed, so none is checked whole.
        assert dims == [10, 20]
        assert len(set(squares)) == len(squares)
        # Each eigenvalue circuit pushes its right isometry once (4 of 40
        # columns), and the odd product pushes its own (4 of 80) through the
        # memoised push of the second one: one column check per stack.
        assert pushes == [(40, 4), (40, 4)]
        assert sorted(shape for shape, _ in columns) == [(40, 4), (40, 4),
                                                          (80, 4)]
        assert len(set(columns)) == len(columns)

    def test_odd_both_shares_the_oracle_svd(self, tmp_path, capsys,
                                            monkeypatch):
        # One odd --route both op with the default alpha decomposes A five
        # times: one SVD of A that gives the default alpha and the oracle
        # both routes read, the dilation's SVD, and the 2-norms of the two
        # residuals and of the route agreement.  A separate norm(A, 2) for
        # the default alpha made six, and each route taking its own oracle
        # SVD seven.
        calls = []
        for name in ("svd", "norm"):
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                if _name == "svd" or args[1:2] == (2,) or kwargs.get("ord") == 2:
                    calls.append((_name, np.shape(args[0])))
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(12)
        A = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(A),
            "poly": PolyCoeffs([0, 0.5, 0, -0.3]).to_json_dict(),
            "route": "both",
        })
        assert main(["gqsvt", "--config", cfg]) == EXIT_OK
        assert sorted(calls) == [("norm", (6, 4))] * 3 + [("svd", (6, 4))] * 2

    def test_hermitianization_checks_only_u(self, tmp_path, capsys,
                                            monkeypatch):
        # The Hermitianized U inherits sqrt(2) delta_U and its walk operator
        # that value: one Gram, of the dilation U (10 x 10).
        squares = count_unitarity_checks(monkeypatch)
        rng = np.random.default_rng(11)
        A = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(A),
            "poly": PolyCoeffs([0, 0.5, 0, -0.3]).to_json_dict(),
            "route": "hermitianization",
        })
        assert main(["gqsvt", "--config", cfg]) == EXIT_OK
        assert [dim for dim, _ in squares] == [10]

    @pytest.mark.parametrize("cfg", [
        {"poly": PolyCoeffs([0.3, 0.5]).to_json_dict()},  # mixed parity
        {"poly": PolyCoeffs([0, 0.5]).to_json_dict(), "route": "bogus"},
    ])
    def test_refused_poly_or_route_builds_no_encoding(self, tmp_path, capsys,
                                                      monkeypatch, cfg):
        # The poly, its parity and the route are checked before the matrix
        # is read, its default alpha (an SVD) taken and the dilation built.
        from gqtlab import cli
        calls = []
        monkeypatch.setattr(cli, "dilate_general",
                            lambda *args: calls.append(args))
        path = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.array([[0.6]])), **cfg})
        assert main(["gqsvt", "--config", path]) == EXIT_INPUT
        assert capsys.readouterr().err.count("\n") == 1
        assert calls == []

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

    @pytest.mark.parametrize("d, line", [
        (21, "postselection failed: success probability 2.209e-16 below "
             "1e-14"),
        (1201, "numerical check failed: square-root substitution of degree "
               "1201 overflows the float range"),
    ], ids=["d21", "d1201"])
    def test_multiplication_shrink_exits_tolerance(self, tmp_path, capsys,
                                                   d, line):
        # 0.5 T_d: the route's q grows like (1 + sqrt 2)^d, so at d = 21 the
        # rescaled circuit postselects too rarely, and at d = 1201 q leaves
        # the float range.  Either is the lab's failure on a valid input:
        # exit 1, one stderr line, and no RuntimeWarning.
        a = np.zeros(d + 1)
        a[d] = 0.5
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.array([[0.6]])),
            "poly": PolyCoeffs(a).to_json_dict(), "alpha": 1.0,
            "parity": "odd", "route": "multiplication"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["gqsvt", "--config", cfg]) == EXIT_TOLERANCE
        assert caught == []
        assert capsys.readouterr().err == line + "\n"

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


class TestZeroMatrixDefaultAlpha:
    """With no alpha in the config, a zero matrix is encoded at alpha = 1
    (any alpha > 0 encodes it exactly) and p(A/alpha) is p(0) I."""

    def test_gqet(self, tmp_path, capsys):
        c = PolyCoeffs([0.5, 0.2, 0.3])
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.zeros((3, 3))),
            "poly": c.to_json_dict()})
        out = tmp_path / "report.json"
        assert main(["gqet", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["residual"] < 1e-12
        cp = gqet(dilate_hermitian(np.zeros((3, 3)), 1.0), c)
        assert np.allclose(extract_svt(cp), eval_cheb(cp.poly, 0.0) * np.eye(3),
                           rtol=0.0, atol=1e-12)

    def test_gqsvt_both_routes(self, tmp_path, capsys):
        c = PolyCoeffs([0.5, 0.0, 0.3])
        cfg = write_config(tmp_path, "c.json", {
            "matrix": matrix_to_json(np.zeros((3, 2))),
            "poly": c.to_json_dict(), "parity": "even", "route": "both"})
        assert main(["gqsvt", "--config", cfg]) == EXIT_OK
        text = capsys.readouterr().out
        for route in ("hermitianization", "multiplication"):
            line = next(l for l in text.splitlines() if l.startswith(route))
            assert float(line.split("residual=")[1].split()[0]) < 1e-12
        e = dilate_general(np.zeros((3, 2)), 1.0)
        for cp in (gqsvt_hermitianization(e, c),
                   gqsvt_multiplication(e, c)[0]):
            assert np.allclose(extract_svt(cp, "even"),
                               eval_cheb(cp.poly, 0.0) * np.eye(2),
                               rtol=0.0, atol=1e-12)


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

    @pytest.mark.parametrize("dmax", [1, 3, 4, 5, 64])
    def test_mod4_degrees_respect_max_degree(self, tmp_path, capsys, dmax):
        cfg = write_config(tmp_path, "b.json", {
            "trials": 200, "sampler": "mod4", "max_degree": dmax})
        out = tmp_path / "rows.csv"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
        degrees = [int(line.split(",")[0])
                   for line in out.read_text().splitlines()[1:]]
        assert all(d <= dmax and d % 4 == 1 for d in degrees)

    @pytest.mark.parametrize("sampler", ["random", "mod4", "chebyshev"])
    def test_max_degree_below_one(self, tmp_path, capsys, sampler):
        cfg = write_config(tmp_path, "b.json",
                           {"sampler": sampler, "max_degree": 0})
        assert main(["bounds", "--config", cfg]) == EXIT_INPUT
        assert "max_degree" in capsys.readouterr().err

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
        assert sorted(json.loads(out.read_text())) == ["lambda", "phis",
                                                        "thetas"]

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

    def test_infinite_kappa_is_an_input_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "rows": [{"kappa": float("inf"), "eps": 1e-3}]})
        assert "Infinity" in open(cfg).read()
        assert main(["scaling-table", "--config", cfg]) == EXIT_INPUT
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("kappa", [1e9, 1e17])
    def test_kappa_beyond_float_range_fails_by_name(self, tmp_path, capsys,
                                                     kappa):
        # 1/kappa^2 is lost in 1 +- 1/kappa^2: the row fails before Remez.
        cfg = write_config(tmp_path, "s.json", {
            "rows": [{"kappa": kappa, "eps": 1e-3}]})
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scaling-table", "--config", cfg]) == EXIT_TOLERANCE
        assert time.perf_counter() - t0 < 2.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "FAILED" in err

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_high_degree_flag_must_be_boolean(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, "s.json", {"include_high_degree": value})
        assert main(["scaling-table", "--config", cfg]) == EXIT_INPUT
        assert "include_high_degree" in capsys.readouterr().err


# The options each subcommand reads; argparse rejects every other one.
_OPTIONS = {
    "scaling-table": {"--config", "--out"},
    "gqet": {"--config", "--out", "--tol"},
    "gqsvt": {"--config", "--out", "--tol"},
    "bounds": {"--config", "--out", "--seed"},
    "phases": {"--config", "--out", "--tol"},
}
_VALUES = {"--config": "c.json", "--out": "o.txt", "--tol": "1e-8",
           "--seed": "1"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in _OPTIONS for flag in _VALUES])
def test_each_subcommand_takes_only_the_options_it_reads(capsys, command,
                                                         flag):
    from gqtlab.cli import build_parser
    argv = [command, flag, _VALUES[flag]]
    if flag in _OPTIONS[command]:
        build_parser().parse_args(argv)
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_bounds_seed_defaults_to_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, "b.json", {"trials": 20, "seed": 5})
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bounds", "--config", cfg, "--out", str(o1)]) == EXIT_OK
    assert main(["bounds", "--config", cfg, "--seed", "0",
                 "--out", str(o2)]) == EXIT_OK
    assert o1.read_bytes() == o2.read_bytes()  # the config's seed is ignored


def test_a_failed_check_on_a_computed_value_exits_tolerance(
        tmp_path, capsys, monkeypatch):
    # A kernel whose pushed columns drift off isometric is the lab's fault,
    # not the input's: exit 1 with one line that names the stage.
    from gqtlab import transforms
    kernel = transforms.gqsp_matrix
    monkeypatch.setattr(transforms, "gqsp_matrix",
                        lambda ph, U, columns, **inherited:
                        (1 + 1e-9) * kernel(ph, U, columns=columns,
                                            **inherited))
    cfg = hermitian_config(tmp_path, [0.1, 0.5, 0.0, -0.2])
    out = tmp_path / "report.json"
    assert main(["gqet", "--config", cfg, "--out", str(out)]) == EXIT_TOLERANCE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical check failed: pushed columns are "
                             "off isometric")
    assert not out.exists()


def test_main_runs_the_handler_bound_at_call_time(monkeypatch):
    # The parser is built once per process; rebinding a cmd_* handler, as
    # per-module tracing does, must still change what main runs.
    from gqtlab import cli
    assert main(["phases", "--config", "missing.json"]) == EXIT_INPUT
    monkeypatch.setattr(cli, "cmd_phases", lambda args: 7)
    assert main(["phases"]) == 7


_ONE_BY_ONE = {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]}


@pytest.mark.parametrize("command, cfg, err", [
    ("phases", {"poly": _POLY, "margin": [0.1]}, "margin must be a number"),
    ("gqsvt", {"matrix": _ONE_BY_ONE, "poly": _POLY, "parity": "odd",
               "alpha": [1]}, "alpha must be a number"),
    ("gqet", {"matrix": _ONE_BY_ONE, "poly": _POLY, "alpha": None},
     "alpha must be a number"),
    ("bounds", {"trials": [3]}, "trials must be an integer"),
    ("scaling-table", {"rows": [[10, 1e-3]]}, "rows must be a list"),
    ("scaling-table", {"rows": [{"kappa": "ten", "eps": 1e-3}]},
     "kappa must be a number"),
    ("scaling-table", {"rows": 5}, "rows must be a list"),
    # A string is not read as the number it spells, a fraction is not
    # truncated to an int field, and a boolean is not read as 0 or 1.
    ("bounds", {"trials": "12"}, "trials must be an integer, not '12'"),
    ("scaling-table", {"rows": [{"kappa": 10, "eps": "1e-3"}]},
     "eps must be a number, not '1e-3'"),
    ("phases", {"poly": _POLY, "margin": "1e-3"},
     "margin must be a number, not '1e-3'"),
    ("bounds", {"trials": 2.7}, "trials must be an integer, not 2.7"),
    ("bounds", {"max_degree": 8.9}, "max_degree must be an integer, not 8.9"),
    ("bounds", {"trials": True}, "trials must be an integer, not True"),
    ("gqet", {"matrix": _ONE_BY_ONE, "poly": _POLY, "alpha": False},
     "alpha must be a number, not False"),
    ("scaling-table", {"rows": [{"kappa": 10 ** 400, "eps": 1e-3}]},
     "kappa must be within the float range"),
    # A sampler name that is not a string is refused, not hashed.
    ("bounds", {"sampler": ["random"], "trials": 3},
     "unknown sampler ['random']"),
    ("bounds", {"sampler": {}, "trials": 3}, "unknown sampler {}"),
    ("scaling-table", {"rows": [{"kappa": 10}]}, "rows[0] is missing 'eps'"),
    # Matrix dimensions follow the integer rule: not truncated, not a
    # boolean or a string.
    ("gqet", {"matrix": {"rows": 2.9, "cols": 2,
                         "data": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0],
                                  [0.5, 0.0]]}, "poly": _POLY},
     "bad matrix input: rows must be an integer, not 2.9"),
    ("gqet", {"matrix": {"rows": True, "cols": "1", "data": [[0.5, 0.0]]},
              "poly": _POLY},
     "bad matrix input: rows must be an integer, not True"),
    # and they are positive: -1 x -1 and -2 x -2 have the size of their
    # data, and 0 rows or columns hold no matrix.
    ("gqet", {"matrix": {"rows": -1, "cols": -1, "data": [[0.5, 0.0]]},
              "poly": _POLY},
     "bad matrix input: rows must be at least 1, not -1"),
    ("gqet", {"matrix": {"rows": -2, "cols": -2,
                         "data": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0],
                                  [0.5, 0.0]]}, "poly": _POLY},
     "bad matrix input: rows must be at least 1, not -2"),
    ("gqet", {"matrix": {"rows": 0, "cols": 1, "data": []}, "poly": _POLY},
     "bad matrix input: rows must be at least 1, not 0"),
    ("gqsvt", {"matrix": {"rows": 1, "cols": 0, "data": []}, "poly": _POLY},
     "bad matrix input: cols must be at least 1, not 0"),
], ids=["phases-margin-list", "gqsvt-alpha-list", "gqet-alpha-null",
        "bounds-trials-list", "scaling-row-list",
        "scaling-kappa-string", "scaling-rows-number", "bounds-trials-string",
        "scaling-eps-string", "phases-margin-string", "bounds-trials-fraction",
        "bounds-max-degree-fraction", "bounds-trials-boolean",
        "gqet-alpha-boolean", "scaling-kappa-beyond-float",
        "bounds-sampler-list", "bounds-sampler-object",
        "scaling-row-missing-eps", "gqet-rows-fraction",
        "gqet-rows-boolean", "gqet-dims-minus-one", "gqet-dims-minus-two",
        "gqet-zero-rows", "gqsvt-zero-cols"])
def test_wrong_type_scalar_is_an_input_error(tmp_path, capsys, command, cfg,
                                             err):
    argv = [command, "--config", write_config(tmp_path, "c.json", cfg)]
    assert main(argv) == EXIT_INPUT
    text = capsys.readouterr().err
    assert text.startswith(f"input error: {err}") and text.count("\n") == 1


def test_an_integral_float_is_an_int_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "b.json", {"trials": 1e3, "max_degree": 8.0})
    out = tmp_path / "rows.csv"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("trials=1000 ")
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 1000
    assert max(int(r.split(",")[0]) for r in rows) <= 8


@pytest.mark.parametrize("command", ["gqet", "gqsvt"])
def test_given_alpha_skips_the_default_norm(tmp_path, capsys, monkeypatch,
                                            command):
    # The default alpha is read from the decomposition of A that the oracle
    # runs anyway (gqet: eigh, 1.2 max |lambda|; gqsvt: one full SVD,
    # 1.2 s_0): no 2-norm of A is taken either way, and A is decomposed
    # once with or without alpha in the config.
    A = np.array([[0.3, 0.1], [0.1, -0.2]])
    calls = []
    for name in ("norm", "svd", "eigh"):
        real = getattr(np.linalg, name)

        def counted(x, *args, _name=name, _real=real, **kwargs):
            if (np.shape(x) == A.shape and np.array_equal(x, A)
                    and (_name != "norm" or args[:1] == (2,)
                         or kwargs.get("ord") == 2)):
                calls.append(_name)
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    oracle = "eigh" if command == "gqet" else "svd"
    cfg = write_config(tmp_path, "c.json", {
        "matrix": matrix_to_json(A), "poly": _POLY, "alpha": 2.0,
        "parity": "odd", "route": "hermitianization"})
    assert main([command, "--config", cfg]) == EXIT_OK
    assert calls == [oracle]
    # without alpha the default is still computed, from that decomposition
    calls.clear()
    cfg = write_config(tmp_path, "d.json", {
        "matrix": matrix_to_json(A), "poly": _POLY,
        "parity": "odd", "route": "hermitianization"})
    assert main([command, "--config", cfg]) == EXIT_OK
    assert calls == [oracle]


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
            "lambda": float(ph.lam)}
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
    # numpy scalars, as a row built without .tolist() holds them: an
    # np.float64 is a float and prints through FMT, an np.int64 through str.
    rows += [(np.int64(i), np.float64(v), np.int64(-i), np.float64(-v),
              np.int64(2 ** 62), np.float64(1 / 3)) for i, v in
             enumerate(floats)]
    rows += [(1, np.float64(0.1), np.int64(3), 0.2, 4, np.float64("nan"))]
    header = ["degree", "max_interval", "max_circle", "beta", "bound", "ratio"]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([FMT % v if isinstance(v, float) else v for v in row])
    assert _csv(rows, header) == buf.getvalue()
    assert _csv([], header) == ",".join(header) + "\n"


# sha256 of (stdout, --out file) of each run (numpy 2.4, x86-64): the
# outputs must not change by a byte.  The `bounds` files of the `random` and
# `mod4` samplers were recorded when the samplers began to draw each sweep
# as one batch (all the degrees, then all the coefficients), which gave each
# seed new rows from the same distributions; `chebyshev` draws its degrees
# only, and numpy's `integers` gives the same stream in one call as one at a
# time, so its files kept their digests.  Every `bounds` stdout is the one
# recorded before the sweep held its rows as float64 and before _csv
# formatted whole runs of rows at once: max_ratio is set by the degree-1
# rows.  The scaling table's Remez designs solve dense systems whose last
# bits depend on the BLAS thread count, so that case runs in a child
# process on one thread (`_one_thread_main`), and its file digest is the
# one-thread output.  So do the `phases` cases, recorded before
# definite-parity polynomials were completed and stripped at half length:
# the inverse designs (kappa, 1e-3) and a random complex polynomial of
# degree 64.
_PINNED = {
    ("random", 64): (
        "03fb933036a2beaf005997e9a207b7006e5081d461db55ab683b7649e170ac50",
        "aa8e91b1021ddf824e3791d5f691598faaa94809f9712b158f3406df530fa7a3"),
    ("random", 256): (
        "03fb933036a2beaf005997e9a207b7006e5081d461db55ab683b7649e170ac50",
        "1b69dffcf2d84c953a355495fe9011852d6ecad111a9c84b13ce209ef6c7eb9b"),
    ("mod4", 64): (
        "c82519c95b9f1bd5c4ec8cf8c43321b094b41e8ad37c3ab264441de99dd61b63",
        "0c10b77ce324c64d76c3fd8cb83bfa31a41f6dbb811b7053f47dc31691fe46cd"),
    ("mod4", 256): (
        "c82519c95b9f1bd5c4ec8cf8c43321b094b41e8ad37c3ab264441de99dd61b63",
        "4ab3715cecc3697267738ba55364a00847472d7bd5e598cad31ea939d46bfd02"),
    ("chebyshev", 64): (
        "fa07caea4830bd32e417481e5d0d50cb2f5b4f95ad30033526e3fe10bb5480ea",
        "22ee57f4772cdff9d80a77d2fff97a80ca0b1f0a7996f53a1654800f258b8393"),
    ("chebyshev", 256): (
        "fa07caea4830bd32e417481e5d0d50cb2f5b4f95ad30033526e3fe10bb5480ea",
        "3f994cfd3e9f764c7f59af6105608dc4aab0d4811fd52a9efade46dd04f6bbe4"),
    "scaling-table": (
        "4d9721148701473d573a53266d249e836e1f37dfa788798bbd4a8b11f555e67b",
        "0c3cce222de0e55e4b1067ff15d8856b05d13db4e01706458051d2054150e470"),
    ("phases", 10): (
        "d8ec43418a5e7aa55d065d1e146b37d0d395b20fde192ed39a26b9546c7558f7",
        "aa992c4abfcc1c6f3f9f8c07e3437cb2b8b45e21912b0293af7b689f45754316"),
    ("phases", 40): (
        "692b6b2d7d346a65092926051f152bca4521fdb54e04d688e988ee3e788b3c75",
        "c9a61b022da68eed45d7594dff9dac1f9e1c2f4e3341141cfb69275e6f04a7a9"),
    ("phases", 100): (
        "20abd1fd6ce19c35daf4acda5971986c28055f562e1b5e907a2e6b63412da9d2",
        "95b448b8854e1c3cc6bcab3aa5ee719999a96478870f66f2bed9837b39de14bd"),
    ("phases", "random-64"): (
        "e937085d375f08f9581f99c7d2896280bfe5370612fd3156ed2408658f670eb5",
        "8a8e33e8319501dbe16950d00c90a0c24d51b7cee29ff98115621a1c68d9bfd7"),
}

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_thread_main(argv, prelude: str = "") -> tuple[int, bytes]:
    """(exit code, stdout) of `main(argv)` in a child process whose BLAS
    runs on one thread, importing the gqtlab under test; the child runs the
    statements `prelude` first."""
    src = str(Path(gqtlab.__file__).parents[1])
    env = dict(os.environ, **dict.fromkeys(_THREAD_VARS, "1"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "; ".join(filter(None, [
        "import sys", "from gqtlab.cli import main", prelude,
        "sys.exit(main(sys.argv[1:]))"]))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, check=False)
    return proc.returncode, proc.stdout


def _phases_case(tmp_path, case) -> str:
    """The prelude of a pinned `phases` run whose config is tmp_path/p.json:
    an inverse design at (case, 1e-3), made in the child because its bits
    depend on the thread count, or a config written here."""
    cfg = tmp_path / "p.json"
    if case == "random-64":
        rng = np.random.default_rng(64)
        c = PolyCoeffs(rng.normal(size=65) + 1j * rng.normal(size=65))
        write_config(tmp_path, cfg.name,
                     {"poly": c.scaled(0.9 / max_abs_circle(c)).to_json_dict()})
        return ""
    return ("import json; "
            "from gqtlab.polynomials import ApproxSpec, approx_inverse; "
            f"open({str(cfg)!r}, 'w').write(json.dumps({{'poly': "
            f"approx_inverse(ApproxSpec({case}, 1e-3)).poly.to_json_dict()}}))")


@pytest.mark.parametrize("key", list(_PINNED), ids=str)
def test_outputs_are_pinned(tmp_path, capsys, key):
    out = tmp_path / "out.csv"
    if key == "scaling-table":
        code, stdout = _one_thread_main(["scaling-table", "--out", str(out)])
        assert code == EXIT_OK
    elif key[0] == "phases":
        prelude = _phases_case(tmp_path, key[1])
        code, stdout = _one_thread_main(
            ["phases", "--config", str(tmp_path / "p.json"),
             "--out", str(out)], prelude)
        assert code == EXIT_OK
    else:
        sampler, dmax = key
        argv = ["bounds", "--seed", "7", "--config", write_config(
            tmp_path, "b.json",
            {"sampler": sampler, "max_degree": dmax, "trials": 1000})]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out.encode()
    assert (hashlib.sha256(stdout).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest()) == _PINNED[key]


@pytest.mark.parametrize("rows, err", [
    ([[1.0, 0.5], [np.nan, 1.0]], "finite"),
    ([[1.0, -np.inf]], "finite"),
    ([[1.0, 0.5], [1.0, 0.5 + 1.1e-12j, -0.25]], "real coefficients"),
    ([[1.0, 0.5 + 0.9e-12j, -0.25]], None),
])
def test_bounds_checks_each_sampled_row(tmp_path, capsys, monkeypatch, rows,
                                        err):
    # A row that is not finite, or complex beyond 1e-12 of its largest
    # |a|, is an input error; an imaginary part under that is dropped.
    from gqtlab import cli
    batch = (np.array([len(r) for r in rows]),
             np.concatenate([np.asarray(r) for r in rows]))
    monkeypatch.setitem(cli._SAMPLERS, "random",
                        lambda dmax: lambda rng, trials: batch)
    cfg = write_config(tmp_path, "b.json", {"trials": len(rows)})
    code = main(["bounds", "--config", cfg])
    captured = capsys.readouterr()
    if err is None:
        assert code == EXIT_OK and "violations=0" in captured.out
    else:
        assert code == EXIT_INPUT
        assert captured.err.startswith("input error:") and err in captured.err


class _Angles:
    """Stands in for PhaseFactors, whose angles are mapped to (-pi, pi]:
    -0.0 and 5e-324 would read 0.0 there."""

    def __init__(self, d):
        self.d = d

    def to_json_dict(self):
        return self.d


def test_phase_files_are_the_indented_json_dump(tmp_path):
    rng = np.random.default_rng(3)
    cases = []
    for degree in (0, 1, 55, 553):
        t, p = rng.uniform(-math.pi, math.pi, size=(2, degree + 1))
        t[-1] = math.pi
        cases.append(phases.PhaseFactors(t, p, rng.uniform(-1, 1)))
    cases.append(_Angles({"thetas": [-0.0, 5e-324, math.pi],
                          "phis": [5e-324, -0.0, -math.pi], "lambda": -0.0}))
    cases.append(_Angles({"thetas": [math.pi], "phis": [-0.0],
                          "lambda": 5e-324}))
    path = tmp_path / "angles.json"
    for ph in cases:
        phases_to_file(ph, path)
        want = json.dumps(ph.to_json_dict(), indent=2) + "\n"
        assert path.read_bytes() == want.encode()
        assert phases_from_file(path) == phases.PhaseFactors(
            *(ph.to_json_dict()[k] for k in ("thetas", "phis", "lambda")))
