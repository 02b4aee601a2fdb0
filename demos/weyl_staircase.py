"""The Weyl law on the Dirichlet interval, raw versus Riesz-averaged.

The eigenvalue staircase E(x,x;lam) jumps forever and never settles on the
smooth density; its Riesz means do. Writes a plot-ready CSV sweep.
"""

import math
import sys

import numpy as np

import spectral_cesaro as sc
from spectral_cesaro.experiments import ExperimentConfig, run_experiment

x = 1.0
print(f"diagonal staircase at x = {x}: raw jumps vs the smooth Weyl density")
print(f"{'lambda':>10} {'staircase*pi/sqrt':>18} {'Riesz-2 ratio':>14}")
atomic = sc.interval_measure(x)
smooth = sc.free_line_density_measure(x, x)
rows = []
for lam in np.geomspace(1e2, 1e6, 9):
    raw = sc.staircase_interval(x, x, lam) * math.pi / math.sqrt(lam)
    r2 = sc.riesz_mean(atomic, 2, lam) / sc.riesz_mean(smooth, 2, lam)
    rows.append((lam, raw, r2))
    print(f"{lam:10.1e} {raw:18.6f} {r2:14.8f}")

print()
print("raw values oscillate at the percent level forever;")
print("the order-2 averaged ratio converges like a power of 1/lambda.")

report, _ = run_experiment(ExperimentConfig("weyl-diagonal", x=x))
worst = max(p["relative_difference"] for p in report.probes)
print(f"weyl-diagonal: {report.verdict}, worst relative difference {worst:.2e}")

out = sys.argv[1] if len(sys.argv) > 1 else None
if out:
    with open(out, "w") as fh:
        fh.write("lambda,value\n")
        for lam, raw, _ in rows:
            fh.write(f"{lam!r},{raw!r}\n")
    print(f"wrote sweep to {out}")
