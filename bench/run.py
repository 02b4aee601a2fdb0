"""Benchmark runner for spectral_cesaro.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs the named workload's pass repeatedly in this process for ``--seconds``
(at least three passes; after those, no pass starts that would be expected to
end after the deadline), checks every output and prints, as the last line of
stdout, ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones: set-up time in fresh interpreters
(started between passes) and pass time, both rescaled to a fixed host speed
(``hostspeed.py``), and peak RSS. With ``--trace 1`` the first half of the time
runs untraced passes and the second half traced ones, and the metrics are
the per-layer ones from ``tracing.py``. Lines before the last one give the
environment, the raw median set-up time and pass wall and CPU times with
quartiles and sample counts, ``failed_frac`` and ``max_rel_drift``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify-registry", "atoms-float", "kernels-smear")
END_TO_END = ("setup_s", "pass_ref_s", "peak_rss_mb")
MIN_PASSES = 3
SETUP_PROBES = 5
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment():
    import mpmath
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def setup_time(args, workdir):
    """(raw, rescaled) time of import + input build in a fresh interpreter."""
    env = dict(os.environ, **SINGLE_THREAD)
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), args.workload,
         str(args.seed), str(workdir)],
        capture_output=True, text=True, timeout=120, env=env, check=True)
    raw, ref = out.stdout.strip().splitlines()[-1].split()
    return float(raw), float(ref)


def run_passes(workload, inputs, checker, until, min_passes, tracer=None,
               clock=None, before_pass=None):
    """Run at least ``min_passes``, then while one more fits before ``until``.

    ``before_pass`` runs untimed before each pass. With a ``clock``
    (``hostspeed.CalibratedClock``) the wall and CPU times leave out its
    kernel runs, and the third list holds each pass's ``pass_ref_s``.
    """
    wall, cpu, ref = [], [], []
    while len(wall) < min_passes or \
            time.perf_counter() + statistics.median(wall) <= until:
        if before_pass is not None:
            before_pass()
        if tracer is not None:
            tracer.install()
        if clock is not None:
            clock.install()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            if clock is not None:
                clock.start()
            results = workload.run(inputs)
            if clock is not None:
                work, ref_s, cal_s = clock.stop()
            t1, c1 = time.perf_counter(), time.process_time()
        finally:
            if clock is not None:
                clock.uninstall()
            if tracer is not None:
                tracer.uninstall()
        if clock is None:
            wall.append(t1 - t0)
            cpu.append(c1 - c0)
        else:
            wall.append(work)
            cpu.append(c1 - c0 - cal_s)
            ref.append(ref_s)
        workload.check(inputs, results, checker)
    return wall, cpu, ref


def load_refs():
    with open(BENCH / "reference" / "seed_refs.json") as fh:
        return json.load(fh)["values"]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spectral_cesaro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source under {SRC}\n")
        return 2
    if args.seconds < 0:
        sys.stderr.write("error: --seconds must be >= 0\n")
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path[:0] = [str(SRC), str(BENCH)]

    import hostspeed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    checker = workloads.Checker(load_refs())
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.build(args.seed, workdir)
        start = time.perf_counter()
        detail = {"env": dict(environment(), workload=args.workload,
                              seed=args.seed, seconds=args.seconds,
                              trace=args.trace)}
        if args.trace == 0:
            # set-up probes are spread over the run, one before each pass,
            # so that their median samples the same host speeds as the passes
            setups = []

            def probe():
                if len(setups) < SETUP_PROBES:
                    setups.append(setup_time(args, workdir))

            wall, cpu, ref = run_passes(
                workload, inputs, checker, start + args.seconds, MIN_PASSES,
                clock=hostspeed.CalibratedClock(), before_pass=probe)
            while len(setups) < SETUP_PROBES:
                probe()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(r for _, r in setups),
                            "unit": "s"},
                "pass_ref_s": {"value": statistics.median(ref), "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            detail.update(setup_s=[r for _, r in setups],
                          setup_raw_s=[raw for raw, _ in setups],
                          pass_ref_s=ref, pass_s=wall, pass_cpu_s=cpu)
        else:
            half = start + args.seconds / 2.0
            wall, _, _ = run_passes(workload, inputs, checker, half, 1)
            tracer = tracing.Tracer()
            traced, _, _ = run_passes(workload, inputs, checker,
                                   start + args.seconds, 1, tracer)
            overhead = statistics.median(traced) - statistics.median(wall)
            metrics = tracing.layer_metrics(tracer, len(traced), overhead)
            tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
            detail.update(pass_s=wall, traced_pass_s=traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = max(checker.attempted, 1)
    detail.update(failed_frac=checker.failed / attempted,
                  max_rel_drift=checker.max_rel_drift,
                  failures=checker.failures)
    for key in ("setup_s", "setup_raw_s", "pass_ref_s", "pass_s", "pass_cpu_s",
                "traced_pass_s"):
        if key in detail:
            q1, med, q3 = quartiles(detail[key])
            print(f"{key:14s} median {med:.4f} s  p25 {q1:.4f}  p75 {q3:.4f}  "
                  f"n={len(detail[key])}")
    if "peak_rss_mb" in metrics:
        print(f"{'peak_rss_mb':14s} {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"{'failed_frac':14s} {detail['failed_frac']:.6g}  "
          f"({checker.failed} of {checker.attempted} checks)")
    print(f"{'max_rel_drift':14s} {detail['max_rel_drift']:.6g}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": checker.failed == 0 and checker.attempted > 0,
                      "attempted": attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
