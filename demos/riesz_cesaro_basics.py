"""Summing divergent series with Riesz means and testing Cesaro orders.

Walks through the package's summability core on three classic inputs: an
oscillating cosine series with a definite Cesaro limit, an alternating
series, and a counting measure whose staircase growth defeats every order.
"""

import math

import numpy as np

import spectral_cesaro as sc
from spectral_cesaro.measures import SpectralMeasure

print("=" * 70)
print("1. The Cesaro limit of sum_n cos(2 n x) at x = pi/4")
print("=" * 70)
x = math.pi / 4
measure = SpectralMeasure.from_generator(
    lambda n, B: (B.mpf(n), B.cos(2 * n * B.mpf(x))))
for k in (1, 2, 3):
    vals = [sc.riesz_mean(measure, k, lam) for lam in (1e3, 1e4, 1e5)]
    print(f"  Riesz order {k}: " + "  ".join(f"{v:+.6f}" for v in vals))
value, report = sc.cesaro_limit(measure, max_order=4)
print(f"  accepted limit: {value:+.6f}   (expect -0.5; verdict {report.verdict})")

print()
print("=" * 70)
print("2. The alternating series 1 - 1 + 1 - ... as a spectral measure")
print("=" * 70)
alt = SpectralMeasure.from_generator(lambda n, B: (B.mpf(n), B.mpf(-1) ** (n + 1)))
value, report = sc.cesaro_limit(alt, max_order=4)
print(f"  accepted limit: {value:+.6f}   (expect +0.5; verdict {report.verdict})")

print()
print("=" * 70)
print("3. Cesaro order testing: is f = O(x^beta) (C)?")
print("=" * 70)
print("  f = sin as a continuous density, claim O(x^-3.5):")

def exact_riesz(k, lam, B):
    # int_0^lam (1-u/lam)^k sin u du via the integration-by-parts recursion
    I, J = 1.0 - math.cos(lam), math.sin(lam)
    for j in range(1, k + 1):
        I, J = 1.0 - (j / lam) * J, (j / lam) * I
    return I

sin_density = SpectralMeasure.from_density(exact_riesz)
rep = sc.cesaro_order_test(sin_density, -3.5, max_order=8,
                           lambdas=np.geomspace(10, 1e4, 24))
print(f"    verdict {rep.verdict} at primitive order {rep.order_used}, "
      f"fitted slope {rep.fitted_slope:+.2f}")

print("  counting measure sum delta(lam - n), claim O(x^-0.5):")
counting = SpectralMeasure.from_generator(lambda n, B: (B.mpf(n), B.mpf(1)))
rep = sc.cesaro_order_test(counting, -0.5, max_order=6,
                           lambdas=np.geomspace(10, 1e4, 24))
print(f"    verdict {rep.verdict} (the staircase grows like lam; "
      f"no amount of averaging makes it small)")
