"""Tests of the benchmark itself, at tiny sizes:  python3 -m pytest bench -q"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
from layers import Tracer  # noqa: E402
from speed import REF_PROBE_S, SpeedProbe  # noqa: E402

import gqtlab.cli  # noqa: E402
import gqtlab.transforms  # noqa: E402

# The op kinds of each workload, at sizes that run in well under a second.
TINY = {
    "beta": [("bounds", "random", 8, 20), ("scaling", 4, 1e-2, None)],
    "circuit": [("gqet", 3, 4), ("gqsvt", (3, 2), 4, "both"),
                ("gqsvt", (3, 2), 5, "both"),
                ("gqsvt", (3, 2), 5, "hermitianization")],
    "inversion": [("phases", 4, 1e-2), ("inverse_gqsvt", (3, 2), 4, 1e-2)],
}


def metric_names(kind):
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


def untraced(spec, workdir):
    ops, _ = harness.setup(spec, 3, workdir)
    return ops, harness.run_cycles(ops, 0.0)


def traced(spec, workdir):
    tracer = Tracer(harness.trace_hooks())
    tracer.install()
    try:
        ops, _ = harness.setup(spec, 3, workdir)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    cycles = harness.run_cycles(ops, 0.0, tracer)
    return tracer, snap, ops, cycles


@pytest.fixture(scope="module", params=sorted(TINY))
def both_runs(request, tmp_path_factory):
    spec = TINY[request.param]
    _, plain = untraced(spec, tmp_path_factory.mktemp("plain"))
    return plain, traced(spec, tmp_path_factory.mktemp("traced"))


def test_all_metric_names_present(both_runs):
    plain, (tracer, snap, ops, cycles) = both_runs
    e2e = harness.end_to_end(plain, [0.5, 0.4, 0.6])
    harness.check_trace(tracer, ops, cycles)
    layer = harness.per_layer(tracer, snap, cycles)
    for names, values in ((metric_names("end_to_end"), e2e),
                          (metric_names("per_layer"), layer)):
        missing = [n for n in names if n not in values]
        assert not missing
        assert all(math.isfinite(values[n]) for n in names)
    assert e2e["setup_s"] == 0.5
    assert e2e["verified_frac"] == 1.0


def test_traced_and_untraced_report_same_verified_ops(both_runs):
    plain, (_, _, _, cycles) = both_runs
    def verified(cs):
        return [(r.name, r.verified) for c in cs for r in c.results]
    assert [c.traced for c in cycles] == [False, True]
    assert verified(plain) == verified(cycles[:1]) == verified(cycles[1:])


def test_forced_failing_ops_are_counted(tmp_path):
    ops, _ = harness.setup(TINY["inversion"], 3, tmp_path)
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"trials": [1]}))  # TypeError escapes cli.main
    never = harness.Verdict(True, 1.0, 1.0, {})
    ops += [
        harness.Op("bad-flag", ["gqet", "--no-such-flag"], lambda s: never, (), ()),
        harness.Op("raises", ["bounds", "--config", str(bad_cfg)],
                   lambda s: never, (), ()),
        harness.Op("tol-miss", ops[0].argv + ["--tol", "0"], ops[0].check,
                   ops[0].outputs, ()),
    ]
    cycles = harness.run_cycles(ops, 0.0)
    results = cycles[0].results
    assert [r.verified for r in results] == [True, True, False, False, False]
    assert results[3].error.startswith("TypeError")
    assert results[4].rc == 1 and results[4].headroom < 0
    assert all(r.consistent for r in results)
    metrics = harness.end_to_end(cycles, [1.0])
    assert metrics["verified_frac"] == pytest.approx(2 / 5)
    # Three of five ops have no finite headroom, so the median is the floor.
    assert metrics["accuracy_headroom_digits"] == harness.HEADROOM_FLOOR


def test_output_failing_its_check_is_inconsistent(tmp_path):
    # Exit 0 with a wrong degree is a silent wrong answer, not a failed op.
    ops, _ = harness.setup([("scaling", 4, 1e-2, 2)], 3, tmp_path)
    r = harness.run_op(ops[0])
    assert r.rc == 0 and not r.verified and not r.consistent


def test_tracer_rebinds_names_imported_by_value():
    original = gqtlab.transforms.solve_phases
    tracer = Tracer()
    tracer.install()
    try:
        assert gqtlab.transforms.solve_phases is not original
        assert gqtlab.transforms.solve_phases is gqtlab.phases.solve_phases
        assert gqtlab.cli.gqet is gqtlab.transforms.gqet
    finally:
        tracer.uninstall()
    assert gqtlab.transforms.solve_phases is original


def test_tail_is_slowest_op_by_median():
    def res(name, wall):
        return harness.OpResult(name, wall, 0, None, True, True, 1.0, {})
    results = [res("a", 1.0), res("b", 2.0), res("a", 5.0), res("b", 2.5),
               res("a", 1.2)]
    assert harness.tail(results) == ("b", 2.25)


def test_reference_speed_conversion():
    probe = SpeedProbe()
    probe.starts = [10.0, 10.5, 11.0, 20.0]
    probe.durations = [2 * REF_PROBE_S, 2 * REF_PROBE_S, 4 * REF_PROBE_S,
                       REF_PROBE_S]
    # Probes inside the op are taken out of its wall time, and the op runs
    # at the median speed of the probes within a second of it: half speed.
    wall, ref = probe.reference_s(10.2, 11.2)
    assert wall == pytest.approx(1.0 - 6 * REF_PROBE_S)
    assert ref == pytest.approx(wall / 2)
    # With no probe that close, the nearest one decides.
    wall, ref = probe.reference_s(16.0, 17.0)
    assert (wall, ref) == (1.0, pytest.approx(1.0))


def test_probed_run_reports_reference_times(tmp_path):
    ops, _ = harness.setup(TINY["beta"], 3, tmp_path)
    probe = SpeedProbe()
    probe.start()
    try:
        cycles = harness.run_cycles(ops, 0.0, probe=probe)
    finally:
        probe.stop()
    results = cycles[0].results
    assert all(r.verified and r.ref_s > 0 for r in results)
    metrics = harness.end_to_end(cycles, [1.0])
    assert metrics["op_p50_s"] == statistics.median(r.ref_s for r in results)
    assert harness.wall_clock(cycles)["op_p50_s"] == statistics.median(
        r.wall_s for r in results)


def test_compare_refuses_different_blas_threads():
    env = {"blas_threads": 1, "workload": "beta", "trace": 0}
    res = {"metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    rows = compare.compare([(env, res)], [(env, res)])
    assert rows[0]["change"] == 0.0 and rows[0]["verdict"] == "ok"
    with pytest.raises(ValueError, match="blas_threads"):
        compare.compare([(env, res)], [(dict(env, blas_threads=2), res)])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "beta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
