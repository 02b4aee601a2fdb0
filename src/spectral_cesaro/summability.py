"""Riesz/Cesaro summability machinery.

Operations: Riesz means of spectral measures, Cesaro limits of divergent
series, Cesaro order testing f(x) = O(x^beta) (C), finite-part distributions
with their scaling laws, and distributional (Lojasiewicz) point values.

Order testing works on repeated primitives of the measure. The N-th
primitive relates to the Riesz mean by F_N(lam) = lam^(N-1) R^(N-1)(lam)/(N-1)!;
the degree-(N-1) polynomial allowed in the definition is annihilated exactly
by order-N divided differences over sliding windows of the probe grid, and
the surviving remainder is slope-fitted on a log-log grid.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np

from .errors import AccuracyError, DataError, ParameterError
from .measures import SpectralMeasure, riesz_mean
from .quadrature import integrate
from .testfn import TestFunction, make_bump

__all__ = [
    "CesaroReport",
    "FinitePart",
    "cesaro_limit",
    "cesaro_order_test",
    "finite_part_eval",
    "point_value",
    "riesz_mean",
]

SLOPE_TOLERANCE = 0.25
_EXCLUDED_BETA_TOL = 1e-9
_FINITE_PART_TOL = 1e-12


@dataclass
class CesaroReport:
    claimed_exponent: float
    order_used: int
    verdict: str                 # "holds" | "fails" | "inconclusive"
    fitted_slope: float
    residual: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.order_used < 0:
            raise ParameterError("order_used must be >= 0")
        if self.verdict not in ("holds", "fails", "inconclusive"):
            raise ParameterError(f"bad verdict {self.verdict!r}")
        if self.verdict == "holds" and not (
                self.fitted_slope <= self.claimed_exponent + SLOPE_TOLERANCE):
            raise ParameterError("verdict 'holds' inconsistent with fitted slope")


@dataclass(frozen=True)
class FinitePart:
    """The scaling family g_alpha: x_+^alpha, or Pf(chi(x) x^-k) at alpha = -k."""
    exponent: float

    @property
    def is_exceptional(self) -> bool:
        a = self.exponent
        return a < 0 and abs(a - round(a)) < 1e-12


# --------------------------------------------------------------- Riesz means
# riesz_mean re-exported from .measures


def cesaro_limit(measure: SpectralMeasure, max_order: int = 4,
                 lambdas: Optional[Sequence[float]] = None):
    """Estimate lim f = L (C) by stabilization of successive Riesz orders.

    Riesz means of orders 1..max_order are evaluated on geometrically spaced
    probes; the limit is accepted at order k when, within
    max(1e-6, 1e-3 |value|), orders k and k+1 agree at each of the three
    largest probes and the order-(k+1) values at those probes agree with
    each other. Returns (value_or_None, CesaroReport); an 'inconclusive'
    verdict is returned rather than a wrong value.
    """
    if max_order < 1:
        raise ParameterError("max_order must be >= 1")
    if measure.atom_fn is not None and measure.n_atoms is not None \
            and measure.n_atoms < 1000:
        raise DataError("need an extendable atom generator or >= 1e3 atoms")
    if lambdas is None:
        lambdas = np.geomspace(1e2, 1e5, 13)
    probes = sorted(float(x) for x in lambdas)[-3:]
    if len(probes) < 3:
        raise ParameterError("need at least three probes")

    values = {k: [riesz_mean(measure, k, lam) for lam in probes]
              for k in range(1, max_order + 2)}
    for k in range(1, max_order + 1):
        vk, vk1 = values[k], values[k + 1]
        ref = max(abs(complex(v)) for v in vk1)
        tol = max(1e-6, 1e-3 * ref)
        pairs = list(zip(vk, vk1)) + list(itertools.combinations(vk1, 2))
        if all(abs(complex(a) - complex(b)) <= tol for a, b in pairs):
            val = vk1[-1]
            spread = max(abs(complex(a) - complex(b)) for a, b in zip(vk, vk1))
            report = CesaroReport(
                claimed_exponent=0.0, order_used=k, verdict="holds",
                fitted_slope=0.0, residual=float(spread),
                details={"probes": probes, "order_values": vk1})
            return (float(val.real) if abs(complex(val).imag) == 0 else complex(val),
                    report)
    report = CesaroReport(claimed_exponent=0.0, order_used=max_order,
                          verdict="inconclusive", fitted_slope=0.0,
                          residual=float("nan"),
                          details={"probes": probes})
    return None, report


# ---------------------------------------------------------- Cesaro order test

def _divided_difference_points(lambdas, F, N, gaps):
    """Order-N divided differences over sliding windows of N+1 probes.

    Annihilates polynomials of degree <= N-1 exactly. Each window yields
    (geometric-mean lambda, |dd| / W) where W = sum_l 1/prod_{j!=l}|x_l-x_j|
    normalizes the difference so the result is on the scale of the remainder
    itself. One Newton table gives each window its differences, by the same operations.
    ``gaps[j - 1]`` holds the differences x_{m+j} - x_m, with their absolute
    values as floats, that the orders of one test share; the orders j <= N
    that it lacks are appended.
    """
    P = len(lambdas)
    for order in range(len(gaps) + 1, N + 1):
        diffs = [lambdas[m + order] - lambdas[m] for m in range(P - order)]
        gaps.append((diffs, [abs(float(d)) for d in diffs]))
    table = list(F)
    for order in range(1, N + 1):
        table = [(table[m + 1] - table[m]) / d for m, d in enumerate(gaps[order - 1][0])]
    logs = np.log([float(x) for x in lambdas])
    pts = []
    for i in range(P - N):
        W = 0.0
        for l in range(i, i + N + 1):
            W += 1.0 / math.prod((gaps[abs(l - j) - 1][1][min(l, j)]
                                  for j in range(i, i + N + 1) if j != l), start=1.0)
        pts.append((float(np.exp(np.mean(logs[i:i + N + 1]))), abs(table[i]) / W))
    return pts


def _log_any(y):
    if isinstance(y, (mp.mpf, mp.mpc)):
        return float(mp.log(abs(y)))
    return math.log(y)


def _loglog_slope(pts):
    """Least-squares slope of log|T| against log(lam); ignores exact zeros."""
    data = [(math.log(float(x)), _log_any(y)) for x, y in pts if y > 0]
    if len(data) < 3:
        return None, float("nan")
    X = np.array([[u, 1.0] for u, _ in data])
    Y = np.array([v for _, v in data])
    coef, res, *_ = np.linalg.lstsq(X, Y, rcond=None)
    rms = float(np.sqrt(res[0] / len(data))) if len(res) else 0.0
    return float(coef[0]), rms


def cesaro_order_test(measure: SpectralMeasure, beta: float, max_order: int,
                      lambdas: Optional[Sequence[float]] = None,
                      dps: Optional[int] = None,
                      allow_excluded_beta: bool = False) -> CesaroReport:
    """Test f(x) = O(x^beta) (C) by repeated primitives plus slope fitting.

    For N = 1..max_order the N-th primitive of the measure (expressed through
    the Riesz mean of order N-1) is formed on the probe grid, the allowed
    degree-(N-1) polynomial is removed by divided differencing, and the
    remainder magnitude is slope-fitted on a log-log grid. The claim holds at
    order N when fitted_slope <= beta + SLOPE_TOLERANCE, where fitted_slope
    is the remainder slope converted back to f's own scale.

    Negative integer beta lies outside the defining relation and is rejected
    unless ``allow_excluded_beta`` is set; rapid-decay proxies (testing
    "faster than lam^-4" and the like) legitimately opt out, since the slope
    machinery itself is indifferent to the exclusion.

    The exponent search over N is a first-success heuristic; the theory only
    asserts existence of some N.

    ``details["riesz_means"][k]`` lists the order-k Riesz means over the
    sorted probes, for each order k the test reached, so that a caller
    needing some of them does not compute them again. With ``dps``, they
    and the primitives and divided differences are formed at that precision,
    which is mpmath's process-global one (``mp.workdps``, ``mp.workprec``):
    a test with ``dps`` must not run in several threads at once.
    """
    if (not allow_excluded_beta and beta < 0
            and abs(beta - round(beta)) < _EXCLUDED_BETA_TOL):
        raise ParameterError(
            f"beta={beta} is in the excluded set of negative integers; "
            "pass allow_excluded_beta=True to use it as a decay proxy")
    if max_order < 1:
        raise ParameterError("max_order must be >= 1")
    if lambdas is None:
        lambdas = np.geomspace(1e2, 1e5, 24)
    lambdas = sorted(float(x) for x in lambdas)
    if len(lambdas) < max_order + 4:
        raise ParameterError("need at least max_order + 4 probes")
    span = lambdas[-1] / lambdas[0]
    if span < 10.0 ** 1.5:
        raise ParameterError("probe grid must span at least 1.5 decades")

    xs, at_dps = lambdas, contextlib.nullcontext()
    if dps is not None:
        at_dps = mp.workdps(dps)
        with at_dps:
            xs = [mp.mpf(x) for x in lambdas]
    gaps = []
    history = []
    means = {}
    fitted = float("nan")
    residual = float("nan")
    for N in range(1, max_order + 1):
        R = means[N - 1] = [riesz_mean(measure, N - 1, lam, dps=dps) for lam in lambdas]
        with at_dps:
            F = [x ** (N - 1) * r / math.factorial(N - 1) for x, r in zip(xs, R)]
            pts = _divided_difference_points(xs, F, N, gaps)
        slope, rms = _loglog_slope(pts)
        if slope is None:
            # remainder annihilated to zero: stronger than any power law
            return CesaroReport(beta, N, "holds", -math.inf, 0.0,
                                details={"history": history, "riesz_means": means})
        f_slope = slope - N
        residual = float(max(t / x ** (beta + N) for x, t in pts if t > 0)) \
            if any(t > 0 for x, t in pts) else 0.0
        history.append((N, f_slope))
        fitted = f_slope
        if f_slope <= beta + SLOPE_TOLERANCE:
            return CesaroReport(beta, N, "holds", f_slope, residual,
                                details={"history": history, "fit_rms": rms,
                                         "riesz_means": means})
    return CesaroReport(beta, max_order, "fails", fitted, residual,
                        details={"history": history, "riesz_means": means})


# ------------------------------------------------------------- finite parts

def _taylor_poly_terms(phi: TestFunction, m: int, scale: float = 1.0):
    """Value and derivative list [phi(0), phi'(0)/scale, ...] up to order m-1."""
    return [complex(phi.derivative(j)(0.0)) / scale**j for j in range(m)]


def finite_part_eval(g: FinitePart, phi: TestFunction,
                     lam_scale: float = 1.0) -> float:
    """Evaluate <g_alpha(lam_scale * x), phi(x)>.

    Convention for the exceptional exponents alpha = -k: the regularized
    split <Pf(chi x^-k), phi> = int_0^1 (phi - T_{k-1}phi)/x^k
    + int_1^inf phi/x^k + sum_{j<=k-2} phi^(j)(0)/(j!(j-k+1)), with T_{k-1}
    the Taylor polynomial at 0 and the split point fixed at 1. The boundary
    sum (absent for k = 1) is what makes the exceptional log-scaling law
    hold exactly for every k; without it the law fails at k >= 2 by
    phi(0)(lam-1)/lam^2-type terms. The scaled evaluation reduces to the
    unscaled functional via <g(s x), phi(x)> = (1/s) <g(u), phi(u/s)>. Both
    scaling laws are checked explicitly in the test suite. Each quadrature
    runs at tolerance 1e-12.
    """
    if lam_scale <= 0:
        raise ParameterError("lam_scale must be positive")
    alpha = g.exponent
    s = float(lam_scale)

    def phi_s(u):
        return phi(u / s)

    def taylor(u):
        return sum(d * u**j / math.factorial(j) for j, d in enumerate(derivs))

    # pow(u, -k) and 1/u**k round differently: each case keeps its own power
    if g.is_exceptional:
        k = int(round(-alpha))
        alpha, m = -k, k
        head_f = lambda u: (phi_s(u) - taylor(u)) / u**k
        tail_f = lambda u: phi_s(u) / u**k
    else:
        m = 0 if alpha > -1 else int(math.ceil(-alpha)) - 1
        head_f = lambda u: (phi_s(u) - taylor(u)) * u**alpha
        tail_f = lambda u: phi_s(u) * u**alpha
    derivs = _taylor_poly_terms(phi, m, scale=s)
    head = integrate(head_f, 0.0, 1.0, tol=_FINITE_PART_TOL, limit=800).value
    tail = integrate(tail_f, 1.0, math.inf, tol=_FINITE_PART_TOL, limit=800).value
    # Hadamard boundary terms of the subtracted Taylor polynomial; at
    # alpha = -k the j = k-1 term is the log channel and is omitted (its
    # scaling shows up as the explicit log term of the exceptional scaling
    # law, which this convention satisfies exactly for every k)
    boundary = sum(d / (math.factorial(j) * (alpha + j + 1))
                   for j, d in enumerate(derivs) if alpha + j + 1 != 0)
    total = head + tail + boundary
    out = total / s
    return out.real if abs(out.imag) < 1e-300 or out.imag == 0 else out


# ------------------------------------------------------ Lojasiewicz point value

_EPS_LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
_POINT_VALUE_TOL = 5e-4


def _aitken_limit(vals):
    """Aitken delta-squared estimate of the limit from the last three values."""
    if len(vals) < 3:
        return vals[-1]
    v0, v1, v2 = vals[-3], vals[-2], vals[-1]
    denom = (v2 - v1) - (v1 - v0)
    scale = max(abs(v0), abs(v1), abs(v2), 1e-30)
    if abs(denom) < 1e-12 * scale:
        return v2
    return v2 - (v2 - v1) ** 2 / denom


def point_value(g: Callable, x0: float):
    """Distributional value of g at x0: the common limit of shrinking smears.

    Evaluates <g(x0 + eps x), phi(x)> / int(phi) over three bump test
    functions (deliberately including asymmetric ones) and the fixed ladder
    eps = 1e-1, 3e-2, 1e-2, 3e-3, 1e-3. Each ladder is Aitken-extrapolated
    to kill the leading O(eps) error of asymmetric smears; the common limit
    gamma is returned when the per-family estimates agree within
    5e-4 (1 + |gamma|), otherwise None. Exceptions raised by ``g``
    propagate; quadrature shortfalls on wildly oscillatory integrands fall
    back to the best available estimate (the consistency gates below still
    apply).
    """
    limits = []
    for phi in (make_bump(-1.0, 1.0), make_bump(-0.4, 1.2), make_bump(-1.3, 0.5)):
        lo, hi = phi.support
        norm = integrate(phi, lo, hi, tol=1e-12).value
        vals = []
        for eps in _EPS_LADDER:
            f = lambda u: g(x0 + eps * u) * phi(u)
            try:
                v = integrate(f, lo, hi, tol=1e-10, limit=600).value
            except AccuracyError as err:
                v = err.best_estimate
            vals.append(v / norm)
        gamma = _aitken_limit(vals)
        # the ladder must be settling, not wandering
        if abs(vals[-1] - vals[-2]) > 0.02 * (1.0 + abs(gamma)):
            return None
        limits.append(gamma)
    ref = sum(limits) / len(limits)
    if any(abs(v - ref) > _POINT_VALUE_TOL * (1.0 + abs(ref)) for v in limits):
        return None
    return ref.real if abs(complex(ref).imag) <= _POINT_VALUE_TOL else ref
