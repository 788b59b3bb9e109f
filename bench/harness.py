"""Workloads, op runner and metrics of the gqtlab benchmark (see README.md).

Every op is one `gqtlab.cli.main([...])` call on a config file written
during set-up.  Ops run back to back in a fixed cycle, one caller in one
process.  Each op is verified from what the subcommand reports (exit code,
residual or round-trip error against its tolerance, exact query counts) and,
where the output allows it, by an independent check in this file.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import resource
import statistics
import time
from pathlib import Path
from typing import Callable

import numpy as np

from gqtlab import cli, polynomials
from gqtlab.phases import PhaseFactors, reconstruct_P
from gqtlab.polynomials import (
    ApproxSpec,
    PolyCoeffs,
    max_abs_circle,
    sqrt_substitute_even,
    sqrt_substitute_odd,
)
from gqtlab.serialization import matrix_to_json

from layers import Tracer
from speed import SpeedProbe

# Each list is one cycle, in order; the first op is also the warm-up op.
SPECS = {
    # Remez and the two sup norms; no circuit is built.
    "beta": [
        ("bounds", "random", 64, 1000),
        ("bounds", "mod4", 64, 1000),
        ("bounds", "chebyshev", 64, 1000),
        ("bounds", "random", 256, 4000),
        ("scaling", 10, 1e-3, 55),
        ("scaling", 10, 1e-4, 79),
        ("scaling", 40, 1e-3, 221),
        ("scaling", 100, 1e-3, 553),
    ],
    # Large unitary dimension M, low degree: circuit assembly dominates.
    "circuit": [
        ("gqet", 64, 32),
        ("gqet", 64, 64),
        ("gqet", 128, 32),
        ("gqet", 128, 64),
        ("gqsvt", (48, 32), 12, "both"),
        ("gqsvt", (48, 32), 13, "both"),
        ("gqsvt", (96, 64), 12, "both"),
        ("gqsvt", (96, 64), 13, "both"),
        ("gqsvt", (48, 32), 33, "hermitianization"),
    ],
    # Small M, high degree: phase synthesis dominates.
    "inversion": [
        ("phases", 10, 1e-3),
        ("phases", 20, 1e-3),
        ("phases", 30, 1e-3),
        ("phases", 40, 1e-3),
        ("phases", 100, 1e-3),
        ("inverse_gqsvt", (8, 6), 10, 1e-3),
        ("inverse_gqsvt", (8, 6), 20, 1e-3),
        ("inverse_gqsvt", (8, 6), 40, 1e-3),
    ],
}

# The CLI flags a scaling-table row whose beta exceeds this.
BETA_LIMIT = 1.75
# Reported in place of -inf when more than half of the ops raised.
HEADROOM_FLOOR = -99.0

# Layer groups: metric prefix -> wrapped function keys ('module.function').
GROUPS = {
    "polynomials.approx_inverse": ("polynomials.approx_inverse",),
    "polynomials.max_abs_interval": ("polynomials.max_abs_interval",),
    "polynomials.max_abs_circle": ("polynomials.max_abs_circle",),
    "polynomials.sqrt_substitute": ("polynomials.sqrt_substitute_even",
                                    "polynomials.sqrt_substitute_odd"),
    "bounds.verify_beta_bound": ("bounds.verify_beta_bound",),
    "phases.complementary_polynomial": ("phases.complementary_polynomial",),
    "phases.solve_phases": ("phases.solve_phases",),
    "phases.gqsp_matrix": ("phases.gqsp_matrix",),
    "encodings.dilate_hermitian": ("encodings.dilate_hermitian",),
    "encodings.dilate_general": ("encodings.dilate_general",),
    "encodings.walk_operator": ("encodings.walk_operator",),
    "encodings.hermitianize": ("encodings.hermitianize",),
    "encodings.multiply": ("encodings.multiply",),
    "transforms.gqet": ("transforms.gqet",),
    "transforms.gqsvt_hermitianization": ("transforms.gqsvt_hermitianization",),
    "transforms.gqsvt_multiplication": ("transforms.gqsvt_multiplication",),
    "transforms.extract": ("transforms.extract_svt", "transforms.extracted_block"),
    "transforms.oracle": ("transforms.eigen_oracle", "transforms.svt_oracle"),
    "transforms.simulate_postselect": ("transforms.simulate_postselect",),
    "serialization": "serialization.",
    "cli.scaling-table": ("cli.cmd_scaling_table",),
    "cli.gqet": ("cli.cmd_gqet",),
    "cli.gqsvt": ("cli.cmd_gqsvt",),
    "cli.bounds": ("cli.cmd_bounds",),
    "cli.phases": ("cli.cmd_phases",),
}

# Groups each kind of op must reach; the traced run checks them.
_GQET_LAYERS = ("polynomials.max_abs_circle", "phases.complementary_polynomial",
                "phases.solve_phases", "phases.gqsp_matrix",
                "encodings.walk_operator", "transforms.gqet",
                "transforms.extract", "transforms.oracle", "serialization")
_HERM_LAYERS = _GQET_LAYERS + ("encodings.dilate_general",
                               "encodings.hermitianize",
                               "transforms.gqsvt_hermitianization", "cli.gqsvt")
_MULT_LAYERS = ("polynomials.sqrt_substitute", "encodings.multiply",
                "transforms.gqsvt_multiplication",
                "transforms.simulate_postselect")


class BenchError(RuntimeError):
    """The benchmark itself is broken (not the program under test)."""


@dataclasses.dataclass
class Verdict:
    met: bool             # the output meets its tolerance and exact counts
    err: float            # achieved error as reported by the subcommand
    tol: float
    info: dict


@dataclasses.dataclass
class Op:
    name: str
    argv: list
    check: Callable[[str], Verdict]  # captured stdout -> verdict
    outputs: tuple                   # files the op writes, removed first
    layers: tuple                    # layer groups the op must reach


@dataclasses.dataclass
class OpResult:
    name: str
    wall_s: float
    rc: int | None
    error: str | None
    verified: bool
    consistent: bool      # False: exit 0 but the output fails its check
    headroom: float
    info: dict
    unattributed_s: float = 0.0
    ref_s: float | None = None   # wall_s at the probe's reference speed

    @property
    def timed_s(self) -> float:
        """The time the metrics use: at the reference speed when probed."""
        return self.wall_s if self.ref_s is None else self.ref_s


@dataclasses.dataclass
class Cycle:
    traced: bool
    wall_s: float
    results: list


# ---------------------------------------------------------------------------
# Building ops
# ---------------------------------------------------------------------------

def _write(workdir: Path, name: str, cfg: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _slug(*parts) -> str:
    return "-".join(str(p) for p in parts).replace("(", "").replace(
        ")", "").replace(", ", "x")


def _circle_scaled(a: np.ndarray, top: float = 0.9) -> PolyCoeffs:
    c = PolyCoeffs(a)
    return c.scaled(top / max_abs_circle(c))


def _definite_parity_poly(rng, d: int, parity: str) -> PolyCoeffs:
    """Random degree-d poly of one parity; it and its sqrt substitute peak at 0.9."""
    a = np.zeros(d + 1, dtype=complex)
    start = 0 if parity == "even" else 1
    n = len(a[start::2])
    a[start::2] = rng.normal(size=n) + 1j * rng.normal(size=n)
    a[d] += 1.0
    c = PolyCoeffs(a)
    q = sqrt_substitute_even(c) if parity == "even" else sqrt_substitute_odd(c)
    return c.scaled(0.9 / max(max_abs_circle(c), max_abs_circle(q)))


def _design(designs: dict, kappa: float, eps: float):
    # Looked up on the module so that a traced set-up records the design.
    key = (kappa, eps)
    if key not in designs:
        designs[key] = polynomials.approx_inverse(ApproxSpec(kappa=kappa, eps=eps))
    return designs[key]


def build_ops(spec: list, rng: np.random.Generator, workdir: Path) -> list[Op]:
    """Generate every input of one cycle from `rng` and write its config."""
    designs: dict = {}
    ops = []
    for entry in spec:
        kind, params = entry[0], entry[1:]
        name = _slug(kind, *params)
        out = workdir / f"{name}.out"
        if kind == "bounds":
            sampler, max_degree, trials = params
            cfg = _write(workdir, name, {"sampler": sampler,
                                         "max_degree": max_degree,
                                         "trials": trials})
            seed = int(rng.integers(0, 2 ** 32))
            ops.append(Op(name, ["bounds", "--config", cfg, "--seed", str(seed),
                                 "--out", str(out)],
                          _bounds_check(out, trials), (out,),
                          ("bounds.verify_beta_bound", "cli.bounds")))
        elif kind == "scaling":
            kappa, eps, degree = params
            cfg = _write(workdir, name, {"rows": [{"kappa": kappa, "eps": eps}]})
            ops.append(Op(name, ["scaling-table", "--config", cfg, "--out",
                                 str(out)], _scaling_check(out, degree), (out,),
                          ("polynomials.approx_inverse",
                           "polynomials.max_abs_interval",
                           "polynomials.max_abs_circle", "cli.scaling-table")))
        elif kind == "gqet":
            n, d = params
            X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            c = _circle_scaled(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
            cfg = _write(workdir, name, {"matrix": matrix_to_json((X + X.conj().T) / 2),
                                         "poly": c.to_json_dict()})
            ops.append(Op(name, ["gqet", "--config", cfg, "--out", str(out)],
                          _gqet_check(out, d), (out,),
                          _GQET_LAYERS + ("encodings.dilate_hermitian", "cli.gqet")))
        elif kind == "gqsvt":
            (rows, cols), d, route = params
            parity = "even" if d % 2 == 0 else "odd"
            A = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            c = _definite_parity_poly(rng, d, parity)
            ops.append(_gqsvt_op(workdir, name, A, c, d, parity, route, None))
        elif kind == "phases":
            kappa, eps = params
            res = _design(designs, kappa, eps)
            cfg = _write(workdir, name, {"poly": res.poly.to_json_dict()})
            ops.append(Op(name, ["phases", "--config", cfg, "--out", str(out)],
                          _phases_check(out, res.poly), (out,),
                          ("polynomials.approx_inverse",
                           "polynomials.max_abs_circle",
                           "phases.complementary_polynomial",
                           "phases.solve_phases", "serialization",
                           "cli.phases")))
        elif kind == "inverse_gqsvt":
            (rows, cols), kappa, eps = params
            res = _design(designs, kappa, eps)
            ops.append(_gqsvt_op(workdir, name, _spread_matrix(rng, rows, cols, kappa),
                                 res.poly, res.degree, "odd", "hermitianization",
                                 1.0))
        else:
            raise BenchError(f"unknown op kind {kind!r}")
    return ops


def _spread_matrix(rng, rows: int, cols: int, kappa: float) -> np.ndarray:
    """rows x cols matrix whose singular values span [1/kappa, 1]."""
    k = min(rows, cols)
    s = np.sort(rng.uniform(1.0 / kappa, 1.0, size=k))
    s[0], s[-1] = 1.0 / kappa, 1.0
    W, _ = np.linalg.qr(rng.normal(size=(rows, rows)) + 1j * rng.normal(size=(rows, rows)))
    V, _ = np.linalg.qr(rng.normal(size=(cols, cols)) + 1j * rng.normal(size=(cols, cols)))
    return (W[:, :k] * s) @ V[:, :k].conj().T


def _gqsvt_op(workdir, name, A, c, d, parity, route, alpha) -> Op:
    cfg = {"matrix": matrix_to_json(A), "poly": c.to_json_dict(),
           "parity": parity, "route": route}
    if alpha is not None:
        cfg["alpha"] = alpha
    path = _write(workdir, name, cfg)
    out = workdir / f"{name}.out"
    # The CLI default tolerance, passed explicitly because gqsvt does not
    # print the tolerance it used.
    tol = 1e-8 * max(d, 1)
    layers = _HERM_LAYERS + (_MULT_LAYERS if route == "both" else ())
    return Op(name, ["gqsvt", "--config", path, "--out", str(out), "--tol",
                     repr(tol)],
              _gqsvt_check(d, parity, route, tol), (out,), layers)


# ---------------------------------------------------------------------------
# Checks: each parses what the subcommand reported and re-checks it.
# ---------------------------------------------------------------------------

def _scaling_check(out: Path, degree: int | None):
    def check(stdout: str) -> Verdict:
        with out.open() as f:
            row = next(csv.DictReader(f))
        beta = float(row["beta"])
        coherent = abs(beta - float(row["max_P"]) / float(row["max_p"])) <= 1e-12 * beta
        met = (beta <= BETA_LIMIT and coherent
               and (degree is None or int(row["degree"]) == degree))
        return Verdict(met, beta, BETA_LIMIT, {})
    return check


_BOUNDS_LINE = re.compile(r"trials=(\d+) sampler=\S+ violations=(\d+) "
                          r"max_ratio=(\S+)")


def _bounds_check(out: Path, trials: int):
    def check(stdout: str) -> Verdict:
        m = _BOUNDS_LINE.search(stdout)
        violations, printed = int(m.group(2)), float(m.group(3))
        with out.open() as f:
            rows = list(csv.DictReader(f))
        ratios = [float(r["ratio"]) for r in rows]
        recount = sum(float(r["max_circle"]) > float(r["bound"]) * (1 + 1e-9)
                      for r in rows)
        worst = max(ratios)
        met = (int(m.group(1)) == trials == len(rows) and violations == 0
               and recount == 0 and abs(worst - printed) <= 1e-4 and worst <= 1.0)
        return Verdict(met, worst, 1.0, {})
    return check


def _gqet_check(out: Path, d: int):
    def check(stdout: str) -> Verdict:
        rep = json.loads(out.read_text())
        res, tol = float(rep["residual"]), float(rep["tol"])
        met = (res <= tol and rep["queries_U"] == d
               and rep["queries_U_dagger"] == 0 and rep["degree"] == d)
        return Verdict(met, res, tol, {"queries_U": rep["queries_U"],
                                       "queries_U_dagger": rep["queries_U_dagger"],
                                       "rescaled": rep["scale_applied"] != 1.0})
    return check


_ROUTE_LINE = re.compile(r"(hermitianization|multiplication): residual=(\S+) "
                         r"queries_U=(\d+) queries_U_dagger=(\d+) scale=(\S+)"
                         r"(?: success_prob=(\S+))?")
_AGREE_LINE = re.compile(r"route agreement: (\S+)")


def _expected_queries(route: str, d: int, parity: str) -> tuple[int, int]:
    if route == "hermitianization":
        return d, d
    half = d // 2
    return (half, half) if parity == "even" else (half + 1, half)


def _gqsvt_check(d: int, parity: str, route: str, tol: float):
    want = ("hermitianization", "multiplication") if route == "both" else (route,)

    def check(stdout: str) -> Verdict:
        found = {m.group(1): m for m in _ROUTE_LINE.finditer(stdout)}
        # The CLI's own rule: residual relative to the applied scale, and a
        # ten times looser tolerance on the agreement of the two routes.
        worst, queries_ok, info = 0.0, set(found) == set(want), {
            "queries_U": 0, "queries_U_dagger": 0, "rescaled": False}
        for r, m in found.items():
            scale = float(m.group(5))
            worst = max(worst, float(m.group(2)) / max(scale, 1e-300))
            q = (int(m.group(3)), int(m.group(4)))
            queries_ok &= q == _expected_queries(r, d, parity)
            info["queries_U"] += q[0]
            info["queries_U_dagger"] += q[1]
            info["rescaled"] |= scale != 1.0
            if m.group(6) is not None:
                info["success_prob"] = float(m.group(6))
        if not found:
            raise ValueError("no route residual reported")
        agree = _AGREE_LINE.search(stdout)
        if agree:
            worst = max(worst, float(agree.group(1)) / 10.0)
        return Verdict(queries_ok and worst <= tol, worst, tol, info)
    return check


_PHASES_LINE = re.compile(r"degree=(\d+) round_trip_error=(\S+) tol=(\S+)")
_RESCALED_LINE = re.compile(r"rescaled by (\S+)")


def _phases_check(out: Path, poly: PolyCoeffs):
    def check(stdout: str) -> Verdict:
        m = _PHASES_LINE.search(stdout)
        err, tol = float(m.group(2)), float(m.group(3))
        rescale = _RESCALED_LINE.search(stdout)
        ref = poly.scaled(float(rescale.group(1))) if rescale else poly
        # Independent round trip of the returned angles.
        ph = PhaseFactors.from_json_dict(json.loads(out.read_text()))
        rec, want = reconstruct_P(ph).coeffs, ref.trimmed().coeffs
        n = max(len(rec), len(want))
        own = float(np.max(np.abs(np.pad(rec, (0, n - len(rec)))
                                  - np.pad(want, (0, n - len(want))))))
        ok = own <= tol
        return Verdict(err <= tol and ok, err, tol,
                       {"round_trip_ok": ok, "rescaled": rescale is not None})
    return check


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def run_op(op: Op, tracer: Tracer | None = None,
           probe: SpeedProbe | None = None) -> OpResult:
    for p in op.outputs:
        p.unlink(missing_ok=True)
    buf = io.StringIO()
    root0 = tracer.root_s if tracer else 0.0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc, error = cli.main(op.argv), None
    except (Exception, SystemExit) as exc:
        # An op that raises is a failed op, not a failed benchmark.
        rc, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    wall, ref = probe.reference_s(t0, t1) if probe else (t1 - t0, None)
    spans = (tracer.root_s - root0) if tracer else wall
    verdict = None
    if rc is not None:
        try:
            verdict = op.check(buf.getvalue())
        except (OSError, ValueError, KeyError, AttributeError, StopIteration) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    met = verdict is not None and verdict.met
    headroom = -math.inf
    if verdict is not None and verdict.tol > 0:
        headroom = math.log10(verdict.tol / max(verdict.err, 1e-300))
    return OpResult(
        name=op.name, wall_s=wall, rc=rc, error=error,
        verified=rc == 0 and met, consistent=rc != 0 or met,
        headroom=headroom, info=verdict.info if verdict else {},
        unattributed_s=wall - spans, ref_s=ref)


def setup(spec: list, seed: int, workdir: Path) -> tuple[list[Op], OpResult]:
    """Inputs, configs, designs and one untimed warm-up op."""
    ops = build_ops(spec, np.random.default_rng(seed), workdir)
    return ops, run_op(ops[0])


def run_cycles(ops: list[Op], seconds: float, tracer: Tracer | None = None,
               probe: SpeedProbe | None = None) -> list[Cycle]:
    """Whole cycles while the next is expected to end within `seconds`.

    The last cycle's time is the estimate, and at least one cycle runs.  With
    a tracer, cycles alternate untraced and traced (untraced first) and at
    least one traced cycle runs, so the two can be compared.
    """
    cycles: list[Cycle] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            results = [run_op(op, tracer if traced else None, probe)
                       for op in ops]
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        cycles.append(Cycle(traced, wall, results))
        if (time.perf_counter() - start + wall > seconds
                and (tracer is None or any(c.traced for c in cycles))):
            return cycles


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(results: list[OpResult],
         key: Callable[[OpResult], float] = lambda r: r.timed_s) -> tuple[str, float]:
    """(op name, seconds): the slowest op of the mix, by its median time.

    A run makes few cycles of 8 or 9 ops.  With one or two cycles no
    percentile has ten samples beyond it, and with more the percentile that
    does would land on a different op of the mix as the cycle count changes.
    """
    by_name: dict = {}
    for r in results:
        by_name.setdefault(r.name, []).append(key(r))
    return max(((n, statistics.median(t)) for n, t in by_name.items()),
               key=lambda item: item[1])


def headroom_median(results: list[OpResult]) -> float:
    # Upper median: with an even op count the mean of the two middle values
    # would fall in the gap between failing and passing ops.
    value = statistics.median_high(r.headroom for r in results)
    return max(value, HEADROOM_FLOOR)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(cycles: list[Cycle], setup_samples: list[float]) -> dict:
    """End-to-end metrics; op times are `timed_s`, set-up samples as given."""
    results = [r for c in cycles for r in c.results]
    verified = sum(r.verified for r in results)
    _, tail_s = tail(results)
    return {
        "setup_s": statistics.median(setup_samples),
        "verified_per_s": verified / sum(r.timed_s for r in results),
        "op_p50_s": statistics.median(r.timed_s for r in results),
        "op_tail_s": tail_s,
        "verified_frac": verified / len(results),
        "accuracy_headroom_digits": headroom_median(results),
        "peak_rss_mb": peak_rss_mb(),
    }


def wall_clock(cycles: list[Cycle]) -> dict:
    """The op time metrics of `end_to_end` in plain wall-clock seconds."""
    results = [r for c in cycles for r in c.results]
    walls = [r.wall_s for r in results]
    return {
        "verified_per_s": sum(r.verified for r in results) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail(results, key=lambda r: r.wall_s)[1],
    }


def _group_stat(stats: dict, group: str, field: str) -> float:
    keys = GROUPS[group]
    if isinstance(keys, str):
        keys = tuple(k for k in stats if k.startswith(keys))
    return sum(getattr(stats[k], field) for k in keys if k in stats)


def per_layer(tracer: Tracer, setup_snap: tuple, cycles: list[Cycle]) -> dict:
    """One set-up plus the mean of one traced cycle, for every layer group.

    Counts taken from op outputs (queries, rescales, round trips, success
    probabilities) are per cycle over all cycles of the run.
    """
    traced = [c for c in cycles if c.traced]
    untraced = [c for c in cycles if not c.traced]
    s_stats, s_counts = setup_snap
    e_stats, e_counts = tracer.snapshot()
    n = len(traced)

    def blend(before, after):
        return before + (after - before) / n

    out = {}
    for group in GROUPS:
        for field in ("calls", "self_s"):
            out[f"{group}.{field}"] = blend(_group_stat(s_stats, group, field),
                                            _group_stat(e_stats, group, field))
    for name in ("bounds.verify_beta_bound.trials",
                 "bounds.verify_beta_bound.violations",
                 "phases.gqsp_matrix.layers"):
        out[name] = blend(s_counts.get(name, 0.0), e_counts.get(name, 0.0))

    results = [r for c in cycles for r in c.results]
    k = len(cycles)
    out["transforms.queries_U"] = sum(r.info.get("queries_U", 0) for r in results) / k
    out["transforms.queries_U_dagger"] = sum(
        r.info.get("queries_U_dagger", 0) for r in results) / k
    out["transforms.rescaled_count"] = sum(
        bool(r.info.get("rescaled")) for r in results) / k
    probs = [r.info["success_prob"] for r in results if "success_prob" in r.info]
    out["transforms.success_prob_median"] = statistics.median(probs) if probs else 0.0
    trips = [r.info["round_trip_ok"] for r in results if "round_trip_ok" in r.info]
    out["phases.round_trip_ok_frac"] = sum(trips) / len(trips) if trips else 0.0
    out["trace.overhead_frac"] = (
        statistics.median(c.wall_s for c in traced)
        / statistics.median(c.wall_s for c in untraced) - 1.0)
    return out


def trace_hooks() -> dict:
    def beta_bound(tr, args, kwargs, result):
        tr.count("bounds.verify_beta_bound.trials",
                 kwargs.get("trials", args[1] if len(args) > 1 else 0))
        tr.count("bounds.verify_beta_bound.violations", result.violations)

    def gqsp(tr, args, kwargs, result):
        tr.count("phases.gqsp_matrix.layers", args[0].degree)

    return {"bounds.verify_beta_bound": beta_bound, "phases.gqsp_matrix": gqsp}


def check_trace(tracer: Tracer, ops: list[Op], cycles: list[Cycle]):
    """Raise BenchError if a layer an op must reach recorded no call, or if
    the spans of a traced op do not cover its wall time."""
    missing = sorted({g for op in ops for g in op.layers
                      if _group_stat(tracer.stats, g, "calls") < 1})
    if missing:
        raise BenchError(f"traced run recorded no call in {missing}; a name "
                         "imported by value was not wrapped")
    for c in cycles:
        if not c.traced:
            continue
        for r in c.results:
            if r.unattributed_s > max(0.02, 0.05 * r.wall_s):
                raise BenchError(
                    f"op {r.name}: {r.unattributed_s:.3f} s of {r.wall_s:.3f} s "
                    "ran outside every traced span")


def layer_shares(tracer: Tracer, setup_snap: tuple, cycles: list[Cycle]) -> dict:
    """Self time of each group as a share of traced op time (cycles only)."""
    traced = [c for c in cycles if c.traced]
    op_time = sum(r.wall_s for c in traced for r in c.results)
    s_stats, _ = setup_snap
    return {g: round((_group_stat(tracer.stats, g, "self_s")
                      - _group_stat(s_stats, g, "self_s")) / op_time, 4)
            for g in GROUPS}


def op_summary(cycles: list[Cycle]) -> dict:
    """Per op name: attempts, verified, median wall time, headroom, failure."""
    by_name: dict = {}
    for c in cycles:
        for r in c.results:
            by_name.setdefault(r.name, []).append(r)
    out = {}
    for name, rs in by_name.items():
        bad = next((r for r in rs if not r.verified), None)
        out[name] = {
            "attempted": len(rs),
            "verified": sum(r.verified for r in rs),
            "wall_s_median": statistics.median(r.wall_s for r in rs),
            "timed_s_median": statistics.median(r.timed_s for r in rs),
            "headroom_digits": rs[0].headroom if math.isfinite(rs[0].headroom) else None,
            "failure": None if bad is None else (bad.error or f"exit {bad.rc}"),
        }
    return out
