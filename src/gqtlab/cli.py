"""Experiment runner: reproduce the scaling table and run verification sweeps.

Subcommands
    scaling-table   minimax-inverse polynomials over a (kappa, eps) grid
    gqet            eigenvalue transformation of a Hermitian matrix
    gqsvt           singular-value transformation, either route
    bounds          randomized circle-norm bound sweep
    phases          solve phase factors for a polynomial, round-trip check

Every subcommand takes --config <json> and --out <path>; gqet, gqsvt and
phases also take --tol <float>, and bounds takes --seed <u64> (default 0).
A config's poly and matrix are inline JSON objects.
Exit codes: 0 success; 1 a tolerance or bound failure, or a NumericalError
(a failed check on a computed value: `<stage> failed: ...`); 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import serialization as ser
from .serialization import _number
from .encodings import dilate_general, dilate_hermitian
from .phases import (
    DEFAULT_MARGIN,
    ROUND_TRIP_TOL,
    rescale_to_margin,
    solve_phases,
)
from .polynomials import (
    ApproxSpec,
    ApproximationError,
    NumericalError,
    PolyCoeffs,
    approx_inverse,
    definite_parity,
    max_abs_circle,
    max_abs_interval,
)
from .transforms import (
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


def _load(cfg: dict, key: str):
    """cfg['poly'] as PolyCoeffs or cfg['matrix'] as an array, each from an
    inline JSON object; the reader is looked up per call, so a rebound one
    runs."""
    noun, from_json = {
        "poly": ("polynomial", PolyCoeffs.from_json_dict),
        "matrix": ("matrix", ser.matrix_from_json),
    }[key]
    src = cfg.get(key)
    if src is None:
        raise InputError(f"config is missing {key!r}")
    if not isinstance(src, dict):
        raise InputError(f"{key} must be a JSON object")
    try:
        return from_json(src)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad {noun} input: {exc}") from exc


def _alpha(cfg: dict, norm: float) -> float:
    """The config's alpha, else 1.2 ||A||_2, with ||A||_2 = norm read from
    the decomposition of A that the command's oracle runs anyway.  A zero A
    gets alpha = 1: every alpha > 0 encodes it exactly."""
    if "alpha" in cfg:
        return _number(cfg["alpha"], "alpha")
    return 1.0 if norm == 0 else 1.2 * float(norm)


def _tol(args, degree: int) -> float:
    """--tol, else 1e-8 per unit of degree (1e-8 at degree 0)."""
    return args.tol if args.tol is not None else 1e-8 * max(degree, 1)


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _csv(rows: list, header: list[str]) -> str:
    """CSV text of int and float rows: floats (np.float64 too) as FMT, every
    other value as str.  None of these strings holds a comma or quote, so no
    field needs quoting.  Each run of rows with the same value types is one
    `%` over its flattened values."""
    parts = [",".join(header) + "\n"]
    for types, run in itertools.groupby(rows,
                                        lambda row: tuple(map(type, row))):
        line = ",".join([FMT if issubclass(t, float) else "%s"
                         for t in types]) + "\n"
        run = list(run)
        parts.append((line * len(run)) % tuple(itertools.chain(*run)))
    return "".join(parts)


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
    for i, r in enumerate(grid):
        for key in ("kappa", "eps"):
            if key not in r:
                raise InputError(f"rows[{i}] is missing {key!r}")
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
    A = _load(cfg, "matrix")
    # One eigh of A gives the oracle's eigenpairs and the default alpha,
    # 1.2 max |lambda|; the dilation keeps its own decomposition of A/alpha,
    # and refuses an A that is not square Hermitian.
    eig = np.linalg.eigh(A) if A.shape[0] == A.shape[1] else None
    enc = dilate_hermitian(
        A, _alpha(cfg, 0.0 if eig is None else np.max(np.abs(eig[0]))))
    c = _load(cfg, "poly")
    cp = gqet(enc, c)
    oracle = eigen_oracle(A, enc.alpha, cp.poly, eig)
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
    # The cheap input checks come first: a refused config costs no SVD.
    c = _load(cfg, "poly")
    parity = definite_parity(c)  # names the block; ParityError if mixed
    routes = ("hermitianization", "multiplication")
    route = cfg.get("route", "both")
    if route not in routes + ("both",):
        raise InputError(f"unknown gqsvt route {route!r}; have "
                         "'hermitianization', 'multiplication', 'both'")
    A = _load(cfg, "matrix")
    # One full SVD of A gives the default alpha, 1.2 s_0, and both routes'
    # oracles read it as the SVD (u, s/alpha, vh) of A/alpha; the
    # dilation's own stays apart, so the oracle checks it independently.
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    alpha = _alpha(cfg, s[0])
    enc = dilate_general(A, alpha)
    svd = (u, s / alpha, vh)
    lines = []
    worst = 0.0
    blocks = {}
    for name in routes if route == "both" else (route,):
        if name == "hermitianization":
            cp, outcome = gqsvt_hermitianization(enc, c), None
        else:
            cp, outcome = gqsvt_multiplication(enc, c)
        blk = extract_svt(cp, parity)
        oracle = svt_oracle(A, alpha, cp.poly, svd)
        r = float(np.linalg.norm(blk - oracle, 2))
        worst = max(worst, r / max(cp.scale_applied, 1e-300))
        blocks[name] = blk / cp.scale_applied
        msg = (f"{name}: residual={r:.3e} queries_U={cp.queries_U} "
               f"queries_U_dagger={cp.queries_U_dagger} "
               f"scale={cp.scale_applied:.6g}")
        if outcome is not None and parity == "odd":
            probs = ", ".join(f"{p:.6g}" for p in outcome.stage_probs)
            msg += (f" success_prob={outcome.success_prob:.6g} "
                    f"stage_probs=({probs})")
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


# Each sampler draws a whole sweep as the ragged float64 batch that
# verify_beta_bound reads: every trial's degree in one rng.integers call,
# then every coefficient in one rng.normal call, so a seed reproduces its
# batch.
_SAMPLERS = {
    "random": lambda dmax: functools.partial(_random_batch, dmax=dmax),
    "mod4": lambda dmax: functools.partial(_mod4_batch, dmax=dmax),
    "chebyshev": lambda dmax: functools.partial(_cheb_monomial_batch,
                                                dmax=dmax),
}


def _random_batch(rng, trials, dmax):
    """Degree uniform on 1..dmax, with N(0, 1) coefficients."""
    lengths = rng.integers(1, dmax + 1, size=trials) + 1
    return lengths, rng.normal(size=int(lengths.sum()))


def _mod4_batch(rng, trials, dmax):
    """Degree 4k + 1 <= dmax, with N(0, 1) on the slots = 1 mod 4 and zeros
    elsewhere."""
    k = rng.integers(0, (dmax - 1) // 4 + 1, size=trials)
    lengths = 4 * k + 2
    # Draw t, the j-th of row i, sits at row i's offset 4 (t - j) - 2 i
    # plus its slot 4 j + 1.
    row = np.repeat(np.arange(trials), k + 1)
    coeffs = np.zeros(int(lengths.sum()))
    coeffs[4 * np.arange(len(row)) - 2 * row + 1] = rng.normal(size=len(row))
    return lengths, coeffs


def _cheb_monomial_batch(rng, trials, dmax):
    """The monomial e_n, with n uniform on 0..dmax."""
    lengths = rng.integers(0, dmax + 1, size=trials) + 1
    coeffs = np.zeros(int(lengths.sum()))
    coeffs[np.cumsum(lengths) - 1] = 1.0
    return lengths, coeffs


def cmd_bounds(args) -> int:
    cfg = _load_config(args)
    trials = _number(cfg.get("trials", 1000), "trials", int)
    if trials <= 0:
        raise InputError("trials must be positive")
    dmax = _number(cfg.get("max_degree", 64), "max_degree", int)
    if dmax < 1:
        raise InputError("max_degree must be at least 1")
    name = cfg.get("sampler", "random")
    if not isinstance(name, str) or name not in _SAMPLERS:
        raise InputError(f"unknown sampler {name!r}; have {sorted(_SAMPLERS)}")
    report = bounds_mod.verify_beta_bound(_SAMPLERS[name](dmax), trials,
                                          seed=args.seed)
    _write_out(_csv(list(report.rows),
                    ["degree", "max_interval", "max_circle", "beta", "bound",
                     "ratio"]), args.out)
    print(f"trials={trials} sampler={name} violations={report.violations} "
          f"max_ratio={report.max_ratio:.4f}")
    return EXIT_OK if report.violations == 0 else EXIT_TOLERANCE


def cmd_phases(args) -> int:
    cfg = _load_config(args)
    c = _load(cfg, "poly")
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
        sp.add_argument("--out", default=None)
        if name in ("gqet", "gqsvt", "phases"):
            sp.add_argument("--tol", type=float, default=None)
        if name == "bounds":
            sp.add_argument("--seed", type=int, default=0)
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
    except NumericalError as exc:
        print(f"{exc.stage} failed: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
