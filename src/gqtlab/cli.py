"""Experiment runner: reproduce the scaling table and run verification sweeps.

Subcommands
    scaling-table   minimax-inverse polynomials over a (kappa, eps) grid
    gqet            eigenvalue transformation of a Hermitian matrix file
    gqsvt           singular-value transformation, either route
    bounds          randomized circle-norm bound sweep
    phases          solve phase factors for a polynomial file, round-trip check

All subcommands take --config <json>, --seed <u64>, --out <path>,
--tol <float>.  Exit codes: 0 success, 1 tolerance failure (including a
failed phase synthesis or postselection), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import serialization as ser
from .encodings import dilate_general, dilate_hermitian
from .phases import (
    DEFAULT_MARGIN,
    ROUND_TRIP_TOL,
    PhaseSynthesisError,
    rescale_to_margin,
    solve_phases,
)
from .polynomials import (
    ApproxSpec,
    ApproximationError,
    PolyCoeffs,
    approx_inverse,
    max_abs_circle,
    max_abs_interval,
)
from .transforms import (
    ZeroProbabilityError,
    eigen_oracle,
    extract_svt,
    gqet,
    gqsvt_hermitianization,
    gqsvt_multiplication,
    svt_oracle,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INPUT = 2

# 17 significant digits round-trips float64 exactly.
FMT = "%.17g"


class InputError(Exception):
    pass


# What a malformed file or JSON value raises while it is decoded.
_BAD_INPUT = (OSError, ValueError, KeyError, TypeError, AttributeError)


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    return cfg


def _number(value, name: str, kind=float):
    """A scalar config field converted by `kind`; InputError if it is not a
    number (a list or an object would otherwise raise TypeError)."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be a number, not {value!r}") from exc


def _load_poly(cfg: dict, key: str = "poly") -> PolyCoeffs:
    src = cfg.get(key)
    if src is None:
        raise InputError(f"config is missing {key!r}")
    try:
        if isinstance(src, str):
            return ser.poly_from_file(src)
        return PolyCoeffs.from_json_dict(src)
    except _BAD_INPUT as exc:
        raise InputError(f"bad polynomial input: {exc}") from exc


def _load_matrix(cfg: dict, key: str = "matrix") -> np.ndarray:
    src = cfg.get(key)
    if src is None:
        raise InputError(f"config is missing {key!r}")
    try:
        if isinstance(src, str):
            return ser.matrix_from_file(src)
        return ser.matrix_from_json(src)
    except _BAD_INPUT as exc:
        raise InputError(f"bad matrix input: {exc}") from exc


def _alpha(cfg: dict, A: np.ndarray) -> float:
    """The config's alpha, else 1.2 ||A||_2, which costs a full SVD and so
    is computed only when the config has none."""
    if "alpha" in cfg:
        return _number(cfg["alpha"], "alpha")
    return float(1.2 * np.linalg.norm(A, 2))


def _tol(args, degree: int) -> float:
    """--tol, else 1e-8 per unit of degree (1e-8 at degree 0)."""
    return args.tol if args.tol is not None else 1e-8 * max(degree, 1)


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _csv(rows: list, header: list[str]) -> str:
    """CSV text of int and float rows: floats as FMT, ints as str.  None of
    these strings holds a comma or quote, so no field needs quoting."""
    lines = [",".join(header)]
    lines += [",".join([FMT % v if isinstance(v, float) else str(v)
                        for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_scaling_table(args) -> int:
    cfg = _load_config(args)
    grid = cfg.get("rows")
    if grid is None:
        grid = [{"kappa": 10, "eps": 1e-3}, {"kappa": 10, "eps": 1e-4},
                {"kappa": 40, "eps": 1e-3}]
        high = cfg.get("include_high_degree", False)
        if not isinstance(high, bool):
            raise InputError(f"include_high_degree must be true or false, "
                             f"not {high!r}")
        if high:
            grid += [{"kappa": 100, "eps": 1e-3}, {"kappa": 100, "eps": 1e-4},
                     {"kappa": 200, "eps": 1e-4}, {"kappa": 300, "eps": 1e-4}]
    if not isinstance(grid, list) or not all(isinstance(r, dict) for r in grid):
        raise InputError("rows must be a list of {kappa, eps} objects")
    grid = [(_number(r["kappa"], "kappa"), _number(r["eps"], "eps"))
            for r in grid]
    rows = []
    flagged = False
    for kappa, eps in sorted(grid, key=lambda r: (r[0], -r[1])):
        try:
            res = approx_inverse(ApproxSpec(kappa=kappa, eps=eps))
        except ApproximationError as exc:
            print(f"kappa={kappa} eps={eps}: FAILED: {exc}", file=sys.stderr)
            flagged = True
            continue
        mi = max_abs_interval(res.poly)
        mc = max_abs_circle(res.poly)
        beta = mc / mi
        if beta > 1.75:
            print(f"kappa={kappa} eps={eps}: beta={beta:.4f} exceeds 1.75",
                  file=sys.stderr)
            flagged = True
        rows.append((res.degree, kappa, eps, mi, mc, beta))
    _write_out(_csv(rows, ["degree", "kappa", "eps", "max_p", "max_P", "beta"]),
               args.out)
    # Two-digit comparison view on stdout.
    print("degree,kappa,eps,max_p,max_P,beta  (rounded to two digits)")
    for d, k, e, mi, mc, b in rows:
        print(f"{d},{k:g},{e:g},{mi:.2f},{mc:.2f},{b:.2f}")
    return EXIT_TOLERANCE if flagged else EXIT_OK


def cmd_gqet(args) -> int:
    cfg = _load_config(args)
    A = _load_matrix(cfg)
    enc = dilate_hermitian(A, _alpha(cfg, A))
    c = _load_poly(cfg)
    cp = gqet(enc, c)
    oracle = eigen_oracle(A, enc.alpha, cp.poly)
    residual = float(np.linalg.norm(extract_svt(cp) - oracle, 2))
    tol = _tol(args, cp.degree)
    report = {
        "residual": residual, "tol": tol, **cp.metadata(),
    }
    _write_out(json.dumps(report, indent=2) + "\n", args.out)
    print(f"residual={residual:.3e} tol={tol:.3e} scale={cp.scale_applied:.6g} "
          f"queries_U={cp.queries_U} queries_U_dagger={cp.queries_U_dagger}")
    return EXIT_OK if residual <= tol else EXIT_TOLERANCE


def cmd_gqsvt(args) -> int:
    cfg = _load_config(args)
    A = _load_matrix(cfg)
    alpha = _alpha(cfg, A)
    enc = dilate_general(A, alpha)
    c = _load_poly(cfg)
    routes = ("hermitianization", "multiplication")
    route = cfg.get("route", "both")
    if route not in routes + ("both",):
        raise InputError(f"unknown gqsvt route {route!r}; have "
                         "'hermitianization', 'multiplication', 'both'")
    parity = cfg.get("parity")
    if parity not in ("even", "odd"):
        raise InputError("gqsvt config needs parity 'even' or 'odd'")
    lines = []
    worst = 0.0
    blocks = {}
    for name in routes if route == "both" else (route,):
        if name == "hermitianization":
            cp, outcome = gqsvt_hermitianization(enc, c), None
        else:
            cp, outcome = gqsvt_multiplication(enc, c, parity)
        blk = extract_svt(cp, parity)
        oracle = svt_oracle(A, alpha, cp.poly, parity)
        r = float(np.linalg.norm(blk - oracle, 2))
        worst = max(worst, r / max(cp.scale_applied, 1e-300))
        blocks[name] = blk / cp.scale_applied
        msg = (f"{name}: residual={r:.3e} queries_U={cp.queries_U} "
               f"queries_U_dagger={cp.queries_U_dagger} "
               f"scale={cp.scale_applied:.6g}")
        if outcome is not None and parity == "odd":
            msg += (f" success_prob={outcome.success_prob:.6g} "
                    f"stage_probs={tuple(round(p, 6) for p in outcome.stage_probs)}")
        lines.append(msg)
        d = cp.degree
    if len(blocks) == 2:
        agree = float(np.linalg.norm(
            blocks["hermitianization"] - blocks["multiplication"], 2))
        lines.append(f"route agreement: {agree:.3e}")
        worst = max(worst, agree / 10.0)  # route tolerance is 10x looser
    tol = _tol(args, d)
    text = "\n".join(lines) + "\n"
    _write_out(text, args.out)
    if args.out is not None:
        print(text, end="")
    return EXIT_OK if worst <= tol else EXIT_TOLERANCE


_SAMPLERS = {
    "random": lambda dmax: lambda rng: PolyCoeffs(
        rng.normal(size=int(rng.integers(1, dmax + 1)) + 1).astype(complex)),
    "mod4": lambda dmax: lambda rng: _mod4_sample(rng, dmax),
    "chebyshev": lambda dmax: lambda rng: _cheb_monomial_sample(rng, dmax),
}


def _mod4_sample(rng, dmax):
    d = int(rng.integers(1, max(dmax // 4, 1) + 1)) * 4 + 1
    a = np.zeros(d + 1)
    a[1::4] = rng.normal(size=len(a[1::4]))
    return PolyCoeffs(a.astype(complex))


def _cheb_monomial_sample(rng, dmax):
    n = int(rng.integers(0, dmax + 1))
    a = np.zeros(n + 1)
    a[n] = 1.0
    return PolyCoeffs(a.astype(complex))


def cmd_bounds(args) -> int:
    cfg = _load_config(args)
    trials = _number(cfg.get("trials", 1000), "trials", int)
    if trials <= 0:
        raise InputError("trials must be positive")
    dmax = _number(cfg.get("max_degree", 64), "max_degree", int)
    name = cfg.get("sampler", "random")
    if name not in _SAMPLERS:
        raise InputError(f"unknown sampler {name!r}; have {sorted(_SAMPLERS)}")
    seed = (args.seed if args.seed is not None
            else _number(cfg.get("seed", 0), "seed", int))
    report = bounds_mod.verify_beta_bound(_SAMPLERS[name](dmax), trials,
                                          seed=seed)
    _write_out(_csv(list(report.rows),
                    ["degree", "max_interval", "max_circle", "beta", "bound",
                     "ratio"]), args.out)
    print(f"trials={trials} sampler={name} violations={report.violations} "
          f"max_ratio={report.max_ratio:.4f}")
    return EXIT_OK if report.violations == 0 else EXIT_TOLERANCE


def cmd_phases(args) -> int:
    cfg = _load_config(args)
    c = _load_poly(cfg)
    margin = _number(cfg.get("margin", DEFAULT_MARGIN), "margin")
    c, scale = rescale_to_margin(c, margin)
    if scale != 1.0:
        print(f"rescaled by {scale:.6g} to fit the margin")
    ph = solve_phases(c)
    err = ph.round_trip
    tol = (args.tol if args.tol is not None
           else ROUND_TRIP_TOL * (ph.degree + 1))
    if args.out is not None:
        ser.phases_to_file(ph, args.out)
    print(f"degree={ph.degree} round_trip_error={err:.3e} tol={tol:.3e}")
    return EXIT_OK if err <= tol else EXIT_TOLERANCE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: a build costs over a
    millisecond, and parse_args leaves the parser unchanged."""
    p = argparse.ArgumentParser(prog="gqtlab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("scaling-table", "gqet", "gqsvt", "bounds", "phases"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--tol", type=float, default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, so a rebound cmd_* handler is the one that runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (InputError, OSError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PhaseSynthesisError as exc:
        print(f"phase synthesis failed: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except ZeroProbabilityError as exc:
        print(f"postselection failed: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
