"""Compare two sets of benchmark runs.

    python3 bench/compare.py --base base-*.txt --new new-*.txt

Each file holds the standard output of one `bench/run.py` run.  For every
metric the script prints each side's median, the base's quartile spread as a
share of its median, and the change of the medians as a share of the base
median, signed so that positive is worse.  End-to-end metrics are judged
against their bound in BENCHMARK.json: `worse` beyond the bound, `unresolved`
where the base's own spread exceeds the bound.  Runs whose BLAS thread
counts, workloads or trace settings differ are not compared (exit 2).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("blas_threads", "workload", "trace")


def load(path) -> tuple[dict, dict]:
    """(environment, result) of one run's standard output."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.startswith("{")]
    return json.loads(lines[-2])["record"]["env"], json.loads(lines[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(statistics.median(values))


def compare(base: list, new: list) -> list[dict]:
    """One row per metric; raises ValueError when the runs are not comparable."""
    for key in MUST_MATCH:
        seen = {env[key] for env, _ in base + new}
        if len(seen) > 1:
            raise ValueError(f"runs differ in {key}: {sorted(map(str, seen))}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    rows = []
    for name in base[0][1]["metrics"]:
        b = [res["metrics"][name]["value"] for _, res in base]
        n = [res["metrics"][name]["value"] for _, res in new]
        mb, mn = statistics.median(b), statistics.median(n)
        sign = 1.0 if meta[name]["better"] == "lower" else -1.0
        change = sign * (mn - mb) / abs(mb) if mb else float("nan")
        bound = meta[name].get("bound")
        verdict = ""
        if bound is not None:
            verdict = ("unresolved" if spread(b) > bound
                       else "worse" if change > bound else "ok")
        rows.append({"metric": name, "base": mb, "new": mn, "base_spread": spread(b),
                     "change": change, "bound": bound, "verdict": verdict})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    try:
        rows = compare([load(f) for f in args.base], [load(f) for f in args.new])
    except ValueError as exc:
        print(f"not comparable: {exc}", file=sys.stderr)
        return 2
    print(f"{'metric':44s} {'base':>12s} {'new':>12s} {'spread':>7s} "
          f"{'change':>7s} {'bound':>6s}  verdict")
    for r in rows:
        bound = "" if r["bound"] is None else f"{r['bound']:.2f}"
        print(f"{r['metric']:44s} {r['base']:12.5g} {r['new']:12.5g} "
              f"{r['base_spread']:7.3f} {r['change']:+7.3f} {bound:>6s}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
