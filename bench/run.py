"""gqtlab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload beta --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/`.  With --trace 0 the result holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics of a separate traced
run.  The line before the result is a record of the environment, the tail
percentile and a per-op summary.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Single-threaded BLAS: the steadiest setting on a small shared machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed this many times per untraced run (one in this process,
# the rest in fresh processes) and the median reported.
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # time one cold set-up and exit
    return p.parse_args(argv)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment(args, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _probe_setup(args) -> tuple[float, float]:
    """(reference, wall) seconds of one cold set-up, imports included, in a
    fresh process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed",
         str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["wall_s"])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "gqtlab" / "__init__.py").is_file():
        print(f"no gqtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)

    setup_samples = []
    if not (args.trace or args.setup_probe):
        setup_samples = [_probe_setup(args) for _ in range(SETUP_REPEATS - 1)]

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import gqtlab
    import harness
    from layers import Tracer
    from speed import SpeedProbe

    # Untraced runs time set-up and ops at the probe's reference speed.
    # Traced runs compare traced with untraced cycles in wall time, unprobed.
    probe = None if args.trace else SpeedProbe()

    if Path(gqtlab.__file__).resolve().parent != ROOT / "src" / "gqtlab":
        print(f"gqtlab imported from {gqtlab.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in harness.SPECS:
        print(f"unknown workload {args.workload!r}; have {sorted(harness.SPECS)}",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    if probe:
        probe.start()
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            spec = harness.SPECS[args.workload]
            tracer = Tracer(harness.trace_hooks()) if args.trace else None
            if tracer:
                tracer.install()
            try:
                ops, warm = harness.setup(spec, args.seed, Path(tmp))
            finally:
                if tracer:
                    tracer.uninstall()
            t_setup = time.perf_counter()
            setup_s = setup_wall = t_setup - t0
            if probe:
                # Imports before the probe started count at the speed of the
                # rest of set-up; one more probe covers a short set-up.
                probe.sample()
                setup_wall, setup_s = probe.reference_s(t0, t_setup)
            if args.setup_probe:
                print(json.dumps({"setup_s": setup_s, "wall_s": setup_wall}))
                return 0
            setup_snap = tracer.snapshot() if tracer else None
            cycles = harness.run_cycles(ops, args.seconds, tracer, probe)
    finally:
        if probe:
            probe.stop()
        try:
            scratch.rmdir()
        except OSError:
            pass

    results = [r for c in cycles for r in c.results]
    record = {"env": _environment(args, np)}
    record["tail"] = {"op": harness.tail(results)[0], "n": len(results)}
    record["cycles"] = [{"traced": c.traced, "wall_s": c.wall_s} for c in cycles]
    record["ops"] = harness.op_summary(cycles)
    if tracer:
        try:
            harness.check_trace(tracer, ops, cycles)
        except harness.BenchError as exc:
            print(f"trace check failed: {exc}", file=sys.stderr)
            return 1
        values = harness.per_layer(tracer, setup_snap, cycles)
        record["layer_share"] = harness.layer_shares(tracer, setup_snap, cycles)
    else:
        setup_samples.append((setup_s, setup_wall))
        values = harness.end_to_end(cycles, [ref for ref, _ in setup_samples])
        record["setup_samples_s"] = [ref for ref, _ in setup_samples]
        record["setup_wall_s"] = [wall for _, wall in setup_samples]
        record["wall_clock"] = harness.wall_clock(cycles)
        record["probe"] = probe.summary()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if tracer else "end_to_end"
    verified = sum(r.verified for r in results)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": warm.consistent and all(r.consistent for r in results),
        "attempted": len(results),
        "failed": len(results) - verified,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared[kind]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
