"""Spectral densities and staircases of the model operators.

Closed forms: the free-line density cos(sqrt(lam) (x-y)) / (2 pi sqrt(lam)),
its d-dimensional Bessel generalization, and the Dirichlet-interval
sine-series density. Cesaro-averaged comparisons (Weyl law on the diagonal,
free-line equivalence off the diagonal) are exposed as report-producing
checks.

:func:`_sine_series` is the only float eigen-series of the interval; the
staircase, the density smear and every interval kernel pair its atoms with
their profile g through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from .errors import DataError, DomainError, ParameterError, SingularityError
from .measures import SpectralMeasure, riesz_mean
from .quadrature import _exact_sum
from .summability import CesaroReport, cesaro_order_test
from .testfn import TestFunction

__all__ = [
    "DensityEval",
    "density_free_line",
    "density_free_space",
    "staircase_interval",
    "density_smear_interval",
    "diagonal_weyl_check",
    "offdiagonal_equivalence_check",
    "evaluate_named_density",
    "interval_measure",
    "free_line_density_measure",
    "weyl_density_measure",
    "interval_minus_free_measure",
]


@dataclass(frozen=True)
class DensityEval:
    """One point evaluation of a spectral density or staircase."""
    value: float
    lam: float
    x: float
    y: float
    truncation: Optional[int] = None

    def __post_init__(self):
        if self.lam < 0 and self.value != 0.0:
            raise ParameterError("densities vanish for negative lam")


NAMED_DENSITIES = ("free_line", "free_space", "interval_staircase", "weyl")

_SMEAR_TAIL_TOL = 1e-14
_SMEAR_MAX_TERMS = 10**7
_OFFDIAG_BETA = -4.0
_OFFDIAG_MAX_ORDER = 8
_OFFDIAG_DPS = 30
_OFFDIAG_RATIO_THRESHOLD = 0.1


def evaluate_named_density(name: str, x: float, y: float, lam: float,
                           dimension: int = 1) -> DensityEval:
    """Evaluate a density addressable by name (the CLI entry point).

    Names: free_line, free_space (with ``dimension``), interval_staircase,
    weyl (the smooth diagonal density).
    """
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(lam)):
        raise DomainError(f"x={x}, y={y}, lam={lam} must be finite")
    if name == "free_line":
        v = density_free_line(x, y, lam)
        trunc = None
    elif name == "free_space":
        v = density_free_space(dimension, [x] + [0.0] * (dimension - 1),
                               [y] + [0.0] * (dimension - 1), lam)
        trunc = None
    elif name == "interval_staircase":
        v = staircase_interval(x, y, lam)
        trunc = int(math.isqrt(max(int(lam), 0)))
    elif name == "weyl":
        v = 1.0 / (2.0 * math.pi * math.sqrt(lam)) if lam > 0 else 0.0
        trunc = None
    else:
        raise ParameterError(
            f"unknown density {name!r}; known: {', '.join(NAMED_DENSITIES)}")
    return DensityEval(value=float(v), lam=lam, x=x, y=y, truncation=trunc)


def density_free_line(x: float, y: float, lam: float) -> float:
    """Free-line spectral density: cos(sqrt(lam)(x-y)) / (2 pi sqrt(lam)).

    Vanishes for lam < 0 (Heaviside factor); lam = 0 is the inverse-sqrt
    singularity.
    """
    if lam == 0:
        raise SingularityError("free-line density is singular at lam = 0")
    if lam < 0:
        return 0.0
    s = math.sqrt(lam)
    return math.cos(s * (x - y)) / (2.0 * math.pi * s)


def density_free_space(d: int, x, y, lam: float) -> float:
    """Free spectral density of -Laplace on R^d at points x, y.

    lam^{d/4-1/2} J_{d/2-1}(sqrt(lam) r) / (2^{d/2+1} pi^{d/2} r^{d/2-1}),
    r = |x-y|; on the diagonal the small-argument Bessel limit
    lam^{d/2-1} / (2^d pi^{d/2} Gamma(d/2)) is used.
    """
    if d < 1 or int(d) != d:
        raise ParameterError("dimension d must be an integer >= 1")
    if lam <= 0:
        return 0.0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    if xa.shape != ya.shape or xa.size != d:
        raise ParameterError(f"points must have dimension {d}")
    r = float(np.linalg.norm(xa - ya))
    if r == 0.0:
        return lam ** (d / 2.0 - 1.0) / (2.0**d * math.pi ** (d / 2.0)
                                         * math.gamma(d / 2.0))
    z = math.sqrt(lam) * r
    order = d / 2.0 - 1.0
    # J_{-1/2} and J_{1/2} by their closed forms (d = 1, 3), others by scipy's
    # jv, imported on first use so that importing the package skips scipy
    if order == -0.5:
        bessel = np.sqrt(2.0 / (np.pi * z)) * np.cos(z)
    elif order == 0.5 and z < 1e-4:
        # series sqrt(2z/pi)*(1 - z^2/6 + ...) avoids 0/0 at the origin
        bessel = np.sqrt(2.0 * z / np.pi) * (1.0 - z * z / 6.0 + z**4 / 120.0)
    elif order == 0.5:
        bessel = np.sqrt(2.0 / (np.pi * z)) * np.sin(z)
    else:
        from scipy.special import jv
        bessel = jv(order, z)
    return (lam ** (d / 4.0 - 0.5) * float(bessel)
            / (2.0 ** (d / 2.0 + 1.0) * math.pi ** (d / 2.0) * r ** (d / 2.0 - 1.0)))


def staircase_interval(x: float, y: float, lam: float) -> float:
    """Spectral function E(x,y;lam) = sum_{n^2<=lam} (2/pi) sin(nx) sin(ny)."""
    if not math.isfinite(lam):
        raise DomainError(f"lam={lam} must be finite")
    if not (0.0 < x < math.pi and 0.0 < y < math.pi):
        raise DomainError("x and y must lie in the open interval (0, pi)")
    if lam < 1.0:
        return 0.0
    # n^2 <= lam exactly when n^2 <= floor(lam)
    return _sine_series(x, y, math.isqrt(int(lam)), lambda k: 1.0)


def _sine_series(x: float, y: float, n: int, g):
    """sum_{k=1}^{n} (2/pi) sin(kx) sin(ky) g(k), each part correctly rounded.

    The atoms of ``interval_measure`` paired with a profile ``g``, which maps
    the array ``np.arange(1, n + 1)`` to its values; real and imaginary parts
    are each added by ``_exact_sum``.
    """
    ks = np.arange(1, n + 1)
    terms = (2.0 / math.pi) * np.sin(ks * x) * np.sin(ks * y) * g(ks)
    if terms.dtype.kind == "c":
        return complex(_exact_sum(terms.real), _exact_sum(terms.imag))
    return _exact_sum(terms)


def density_smear_interval(x: float, y: float, phi: TestFunction,
                           eps: float) -> float:
    """Smeared interval density: sum_n (2/pi) sin(nx) sin(ny) phi(eps n^2).

    Truncates when a geometric bound on the remaining tail falls below
    1e-14, and gives up after 1e7 terms. phi must decay (gaussian, bump,
    exp_decay kinds).
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    if not phi.decays:
        raise ParameterError("phi must decay at infinity for the smear to converge")
    sup_hi = phi.support[1] if phi.support else None
    pv = []
    n = 1
    prev_abs = None
    while n <= _SMEAR_MAX_TERMS:
        u = eps * n * n
        if sup_hi is not None and u > sup_hi:
            break
        pv.append(float(phi(u)))
        a = abs(pv[-1])
        if prev_abs is not None and 0.0 < a < prev_abs:
            ratio = a / prev_abs
            tail = (2.0 / math.pi) * a * ratio / (1.0 - ratio)
            if tail < _SMEAR_TAIL_TOL:
                break
        prev_abs = a
        n += 1
    else:
        raise DataError("smear did not converge within the term budget")
    return _sine_series(x, y, len(pv), lambda k: np.array(pv))


# ------------------------------------------------------- measure builders

def interval_measure(x: float, y: Optional[float] = None) -> SpectralMeasure:
    """Atomic sine-series density of the Dirichlet interval at (x, y).

    Atoms (2/pi) sin(nx) sin(ny) at lam = n^2; y defaults to x (diagonal).
    Boundary values of x, y are accepted (the measure is then identically
    zero), matching the boundary behavior of the eigenfunctions.
    """
    yv = x if y is None else y

    def atom_fn(n, B):
        xn = B.mpf(n) * B.mpf(n)
        w = 2 * B.sin(n * B.mpf(x)) * B.sin(n * B.mpf(yv)) / B.pi
        return xn, w

    return SpectralMeasure.from_generator(atom_fn, support_lower_bound=0.0)


def _free_line_density_riesz(c: float):
    """Closed form for int_0^lam (1-mu/lam)^k cos(c sqrt(mu))/(2 pi sqrt(mu)) dmu.

    Substituting mu = s^2 gives (1/pi) int_0^S (1-s^2/S^2)^k cos(c s) ds with
    S = sqrt(lam), and the v-integral is a half-integer Bessel function:
    int_0^1 (1-v^2)^k cos(z v) dv = (sqrt(pi) k!/2) (2/z)^{k+1/2} J_{k+1/2}(z).
    The c = 0 case reduces to the Beta function; the float branch uses it
    for every c sqrt(lam) < 1e-8.
    """
    def density_riesz(k, lam, B):
        if B is mp:
            S = mp.sqrt(lam)
            if c == 0.0:
                return S * mp.beta(mp.mpf('0.5'), k + 1) / (2 * mp.pi)
            z = c * S
            I = (mp.sqrt(mp.pi) * mp.factorial(k) / 2
                 * (2 / z) ** (k + mp.mpf('0.5')) * mp.besselj(k + mp.mpf('0.5'), z))
            return S * I / mp.pi
        from scipy.special import beta, jv
        S = math.sqrt(lam)
        z = c * S
        # below z = 1e-8 the relative z^2/(4k+6) term is under rounding, and
        # (2/z)**(k+1/2) would overflow at tiny separations: the c = 0 form
        if z < 1e-8:
            return S * beta(0.5, k + 1) / (2.0 * math.pi)
        I = (math.sqrt(math.pi) * math.factorial(k) / 2.0
             * (2.0 / z) ** (k + 0.5) * jv(k + 0.5, z))
        return S * I / math.pi

    return density_riesz


def free_line_density_measure(x: float, y: float) -> SpectralMeasure:
    """Continuous measure with the free-line density at separation |x-y|."""
    return SpectralMeasure.from_density(_free_line_density_riesz(abs(x - y)))


def weyl_density_measure() -> SpectralMeasure:
    """The smooth diagonal Weyl density (1/2pi) lam^{-1/2}."""
    return SpectralMeasure.from_density(_free_line_density_riesz(0.0))


def interval_minus_free_measure(x: float, y: float) -> SpectralMeasure:
    """Difference measure: interval sine-series atoms minus free-line density."""
    base = _free_line_density_riesz(abs(x - y))

    def neg_density_riesz(k, lam, B):
        return -base(k, lam, B)

    return SpectralMeasure(
        atom_fn=interval_measure(x, y).atom_fn, density_riesz=neg_density_riesz)


# ------------------------------------------------------------- the checks

def diagonal_weyl_check(x: float, k: int, lam_probes: Sequence[float],
                        tol: float = 1e-2) -> CesaroReport:
    """Compare Riesz means of the diagonal sine-series and the Weyl density.

    Both sides run through the same Riesz-mean code path. The verdict holds
    when the relative difference stays below ``tol`` at every probe.
    """
    if not 0.0 < x < math.pi:
        raise ParameterError("x must lie in (0, pi)")
    if k < 0:
        raise ParameterError("k must be >= 0")
    probes = sorted(float(p) for p in lam_probes)
    if not probes:
        raise ParameterError("need at least one probe")
    atomic = interval_measure(x)
    smooth = weyl_density_measure()
    rel = []
    for lam in probes:
        a = riesz_mean(atomic, k, lam)
        s = riesz_mean(smooth, k, lam)
        rel.append(abs(a - s) / abs(s))
    worst = max(rel)
    verdict = "holds" if worst < tol else "fails"
    slope = 0.0
    if len(probes) >= 3:
        slope, _ = np.polyfit(np.log(probes), np.log(np.maximum(rel, 1e-300)), 1)
    return CesaroReport(
        claimed_exponent=float(slope) if verdict == "holds" else 0.0,
        order_used=k, verdict=verdict, fitted_slope=float(slope),
        residual=float(worst),
        details={"probes": probes, "relative_differences": rel, "tol": tol})


def offdiagonal_equivalence_check(x: float, y: float, k: int,
                                  lam_probes: Sequence[float]) -> CesaroReport:
    """Test the off-diagonal equivalence of sine-series and free-line densities.

    The difference measure is run through the Cesaro order test at the fixed
    exponent beta = -4 (proxy for rapid decay at desk scale), up to order 8,
    with Riesz means at 30 digits. Because both sides are individually of
    rapid Cesaro decay at fixed interior points, the slope test alone cannot
    see a vanishing left side; the verdict therefore also requires genuine
    cancellation: the rms Riesz mean of the difference at order ``k`` must be
    below 0.1 times that of the free-line side. At the boundary (y = 0 or
    pi) the sine series vanishes identically, the ratio is 1, and the check
    fails.
    """
    if not (0.0 < x < math.pi):
        raise ParameterError("x must lie in (0, pi)")
    if not (0.0 <= y <= math.pi):
        raise ParameterError("y must lie in [0, pi]")
    if x == y:
        raise ParameterError("diagonal point: use diagonal_weyl_check instead")
    probes = sorted(float(p) for p in lam_probes)
    if len(probes) < _OFFDIAG_MAX_ORDER + 4:
        probes = list(np.geomspace(probes[0], probes[-1],
                                   max(24, _OFFDIAG_MAX_ORDER + 6)))
    if abs(x - y) < 1e-6:
        return CesaroReport(claimed_exponent=_OFFDIAG_BETA, order_used=0,
                            verdict="inconclusive", fitted_slope=float("nan"),
                            residual=float("nan"),
                            details={"reason": "near-diagonal degradation"})

    diff = interval_minus_free_measure(x, y)
    means = {}
    report = cesaro_order_test(diff, _OFFDIAG_BETA, _OFFDIAG_MAX_ORDER,
                               lambdas=probes, dps=_OFFDIAG_DPS,
                               allow_excluded_beta=True, _means=means)

    free = free_line_density_measure(x, y)
    if k not in means:      # the order test stopped below order k
        means[k] = [riesz_mean(diff, k, lam, dps=_OFFDIAG_DPS) for lam in probes]
    num = [float(abs(v)) for v in means[k]]
    den = [float(abs(riesz_mean(free, k, lam, dps=_OFFDIAG_DPS))) for lam in probes]
    rms_diff = math.sqrt(math.fsum(v * v for v in num) / len(num))
    rms_free = math.sqrt(math.fsum(v * v for v in den) / len(den))
    ratio = rms_diff / rms_free if rms_free > 0 else math.inf

    verdict = report.verdict
    if verdict == "holds" and ratio > _OFFDIAG_RATIO_THRESHOLD:
        verdict = "fails"
    details = dict(report.details)
    details.update({"cancellation_ratio": ratio,
                    "ratio_threshold": _OFFDIAG_RATIO_THRESHOLD,
                    "riesz_order": k})
    return CesaroReport(
        claimed_exponent=_OFFDIAG_BETA, order_used=report.order_used,
        verdict=verdict, fitted_slope=report.fitted_slope, residual=ratio, details=details)
