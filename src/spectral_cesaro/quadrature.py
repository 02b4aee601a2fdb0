"""Adaptive quadrature, and lobe-by-lobe sums for oscillatory integrands.

The engine is QUADPACK via :func:`scipy.integrate.quad`. For an oscillatory
integrand the caller supplies breakpoints at consecutive zeros of the
oscillatory factor; :func:`lobe_sum` integrates each lobe adaptively and
adds the lobes in order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import AccuracyError, ParameterError

__all__ = ["QuadratureResult", "integrate", "lobe_sum"]


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not np.isfinite(self.error_estimate):
            raise ValueError("error_estimate must be finite")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


def _quad_counted(f, a, b, tol, points=None, limit=400):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    kw = dict(epsabs=tol, epsrel=max(tol, 1e-13), limit=limit)
    if points is not None and np.isfinite(a) and np.isfinite(b):
        inner = [p for p in points if a < p < b]
        if inner:
            kw["points"] = inner
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = quad(g, a, b, **kw)
    return val, err, calls[0]


def _probe_point(a, b):
    if np.isfinite(a) and np.isfinite(b):
        return 0.5 * (a + b)
    if np.isfinite(a):
        return a + 1.0
    if np.isfinite(b):
        return b - 1.0
    return 0.0


def integrate(f, a, b, tol=1e-10, points=None, limit=400, complex_output=None):
    """Adaptive quadrature of ``f`` over ``[a, b]`` (either end may be inf).

    Complex-valued integrands are split into real and imaginary parts;
    by default the output type is probed at one interior point. Raises
    :class:`AccuracyError` (carrying the best estimate) when the reported
    error exceeds ``tol`` by a wide margin.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    if complex_output is None:
        probe = f(_probe_point(a, b))
        complex_output = np.iscomplexobj(probe) or isinstance(probe, complex)
    if complex_output:
        vr, er, nr = _quad_counted(lambda x: np.real(f(x)), a, b, tol, points, limit)
        vi, ei, ni = _quad_counted(lambda x: np.imag(f(x)), a, b, tol, points, limit)
        value, err, n = vr + 1j * vi, er + ei, nr + ni
    else:
        value, err, n = _quad_counted(f, a, b, tol, points, limit)
    scale = max(abs(value), 1.0)
    if err > max(tol * 50, 1e-13 * scale) and err > tol:
        raise AccuracyError(
            f"quadrature error estimate {err:.2e} exceeds tol {tol:.2e}",
            best_estimate=value,
            error_estimate=err,
        )
    return QuadratureResult(value=value, error_estimate=float(err), evaluations=n)


def lobe_sum(f, breakpoints, tol=1e-12):
    """Integrate ``f`` over consecutive intervals and add them left to right.

    ``breakpoints`` is an increasing sequence delimiting the lobes (typically
    zeros of the oscillatory factor). Integrating lobe by lobe resolves a
    near-total cancellation between lobes that one adaptive pass over the
    whole range cannot. Returns a :class:`QuadratureResult` whose error
    estimate is the sum of the lobes' estimates.
    """
    bp = [float(b) for b in breakpoints]
    if len(bp) < 2:
        raise ParameterError("need at least two breakpoints")
    if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
        raise ParameterError("breakpoints must be strictly increasing")
    lobes = []
    total_err = 0.0
    calls = 0
    for a, b in zip(bp, bp[1:]):
        r = integrate(f, a, b, tol=tol, limit=200)
        lobes.append(r.value)
        total_err += r.error_estimate
        calls += r.evaluations
    # left to right; a pairwise np.sum or math.fsum moves smears by an ulp
    value = np.cumsum(lobes)[-1]
    return QuadratureResult(value=value, error_estimate=float(total_err),
                            evaluations=calls)
