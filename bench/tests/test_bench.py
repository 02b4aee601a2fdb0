"""Tests of the benchmark itself; run with ``python3 -m pytest bench/tests``.

They stay outside the package's tier-1 suite (``testpaths = ["tests"]``).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spectral_cesaro import measures, spectral  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass(name, tmp_path):
    """One pass per workload: every check passes against the seed references."""
    w = workloads.WORKLOADS[name]
    inputs = w.build(3, tmp_path)
    checker = workloads.Checker(run.load_refs())
    w.check(inputs, w.run(inputs), checker)
    assert checker.failures == []
    assert checker.attempted > 0
    assert checker.max_rel_drift < 1e-6


def _namespace_snapshot():
    snap = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is not None and mod_name.startswith("spectral_cesaro"):
            for attr, obj in vars(mod).items():
                if callable(obj):
                    snap[(mod_name, attr)] = obj
    for attr, obj in vars(measures.SpectralMeasure).items():
        snap[("SpectralMeasure", attr)] = obj
    return snap


def _recorded(w, inputs, tracer=None):
    checker = workloads.Checker(record=True)
    if tracer is None:
        results = w.run(inputs)
    else:
        with tracer:
            results = w.run(inputs)
    w.check(inputs, results, checker)
    assert checker.failures == []
    return checker.recorded


@pytest.mark.parametrize("name", ["atoms-float", "kernels-smear"])
def test_trace_restores_wrappers_and_keeps_results(name, tmp_path):
    w = workloads.WORKLOADS[name]
    inputs = w.build(5, tmp_path)
    before = _namespace_snapshot()
    plain = _recorded(w, inputs)
    tracer = tracing.Tracer()
    traced = _recorded(w, inputs, tracer)
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert traced == plain          # bit-identical: exact float equality
    assert tracer.spans and all(end >= start for _, start, end, _ in tracer.spans)
    metrics = tracing.layer_metrics(tracer, 1, 0.0)
    assert list(metrics) == [n for n, _ in tracing.per_layer_names()]


@pytest.mark.parametrize("name", ["atoms-float", "kernels-smear"])
def test_calibrated_clock_restores_wrappers_and_keeps_results(name, tmp_path):
    w = workloads.WORKLOADS[name]
    inputs = w.build(5, tmp_path)
    before = _namespace_snapshot()
    plain = _recorded(w, inputs)
    clock = hostspeed.CalibratedClock()
    clock.install()
    try:
        t0 = time.perf_counter()
        clock.start()
        results = w.run(inputs)
        work, ref, cal = clock.stop()
        wall = time.perf_counter() - t0
    finally:
        clock.uninstall()
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    checker = workloads.Checker(record=True)
    w.check(inputs, results, checker)
    assert checker.recorded == plain
    assert len(clock._cal) > 20             # the kernel ran through the pass
    assert work + cal == pytest.approx(wall, rel=1e-3)
    assert 0.2 * work < ref < 5.0 * work


def test_reference_seconds_uses_the_kernels_around_each_stretch():
    # the first stretch ends at the first kernel run and has no other
    ref = hostspeed.reference_seconds([0.1, 0.3], [1.0, 3.0])
    assert ref == pytest.approx((0.1 / 1.0 + 0.3 / 2.0) * hostspeed.REF_S)


def test_setup_probe_prints_raw_and_rescaled_time(tmp_path):
    out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                          "atoms-float", "1", str(tmp_path)],
                         capture_output=True, text=True, timeout=60, check=True)
    raw, ref = map(float, out.stdout.split())
    assert 0.0 < raw and 0.2 * raw < ref < 5.0 * raw


def test_trace_restores_measure_generators():
    m = spectral.interval_measure(1.0, 2.0)
    original = m.atom_fn
    with tracing.Tracer() as tracer:
        measures.riesz_mean(m, 1, 1e4)
        measures.riesz_mean(m, 1, 1e4, dps=20)
        assert m.atom_fn is not original
    assert m.atom_fn is original
    assert tracer.counts["atom_fn.float"] == 100
    assert tracer.counts["atom_fn.mp"] == 100
    st = tracer.self_times()
    assert st["measures.riesz_mean.float"][0] == 1
    assert st["measures.riesz_mean.mp"][0] == 1


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
                    ["b", 5.0, 6.0, 0]]
    st = tracer.self_times()
    assert st["a"] == [1, 10.0, 6.0]
    assert st["b"] == [2, 4.0, 3.0]
    assert st["c"] == [1, 1.0, 1.0]


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [n for n, _ in tracing.per_layer_names()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "atoms-float", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
