"""Smooth test functions with exact analytic derivatives.

Built-in kinds: ``gaussian``, ``bump`` (compactly supported) and
``exp_decay`` (one-sided exponential). Each knows its derivatives
analytically to high order; a finite-difference fallback exists but must be
invoked explicitly.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ParameterError, UnsupportedOrderError

__all__ = [
    "TestFunction",
    "make_gaussian",
    "make_bump",
    "make_exp_decay",
    "finite_difference_derivative",
]


class TestFunction:
    """A smooth function together with its analytic derivatives.

    Instances are immutable; ``derivative`` returns a new TestFunction.
    Calling is vectorized over numpy arrays.
    """

    def __init__(self, kind, evaluate, derivative_factory, max_order=64,
                 support=None, decays=True):
        self.kind = kind
        self.max_analytic_derivative_order = max_order
        self.support = support  # (a, b) for compactly supported kinds, else None
        self.decays = decays
        self._evaluate = evaluate
        self._derivative_factory = derivative_factory

    def __call__(self, x):
        """phi at ``x``: a float for a scalar, an array for an array.

        A Python float goes straight to the scalar code, without the
        ``np.ndim`` test: quadrature calls test functions one point at a time.
        """
        if type(x) is float:
            return self._evaluate(x)
        return self._evaluate(np.asarray(x, dtype=float)) if np.ndim(x) else self._evaluate(float(x))

    def derivative(self, order=1):
        if order < 0:
            raise ParameterError("derivative order must be >= 0")
        if order == 0:
            return self
        if order > self.max_analytic_derivative_order:
            raise UnsupportedOrderError(
                f"analytic derivatives of kind '{self.kind}' available to order "
                f"{self.max_analytic_derivative_order}, requested {order}; use "
                "finite_difference_derivative explicitly if approximation is acceptable")
        return self._derivative_factory(order)


# ---------------------------------------------------------------- gaussian

def _hermite_eval(k, u):
    """Physicists' Hermite polynomial H_k(u), stable three-term recurrence."""
    h0 = np.ones_like(u)
    if k == 0:
        return h0
    h1 = 2.0 * u
    for j in range(1, k):
        h0, h1 = h1, 2.0 * u * h1 - 2.0 * j * h0
    return h1


def make_gaussian(center: float, width: float) -> TestFunction:
    """phi(x) = exp(-((x-center)/width)^2), derivatives exact to any order."""
    if width <= 0:
        raise ParameterError("width must be positive")
    c, w = float(center), float(width)

    def make(order):
        def ev(x):
            u = (x - c) / w
            return (-1.0 / w) ** order * _hermite_eval(order, u) * np.exp(-u * u)

        return TestFunction("gaussian", ev, lambda k: make(order + k),
                            max_order=256, decays=True)

    return make(0)


# -------------------------------------------------------------------- bump

def make_bump(a: float, b: float) -> TestFunction:
    """The standard smooth bump exp(-1/(1-u^2)) on (a, b), 0 outside.

    u = (2x - a - b)/(b - a); all derivatives vanish at the support edges.
    """
    if not a < b:
        raise ParameterError("bump requires a < b")
    a, b = float(a), float(b)
    width = b - a
    du = 2.0 / width

    # k-th derivative in u has the form Q(u) / (1-u^2)^(2k) * exp(-1/(1-u^2))
    def make(order, poly):
        dscale = du**order
        power = 2 * order
        coeffs_desc = tuple(float(c) for c in reversed(poly))   # Horner's order

        def ev(x):
            if type(x) is not float:
                if np.ndim(x):
                    return ev_array(np.asarray(x, dtype=float))
                x = float(x)
            u = (2.0 * x - a - b) / width
            if not -1.0 < u < 1.0:
                return 0.0
            q = 1.0 - u * u
            acc = 0.0
            for c in coeffs_desc:
                acc = acc * u + c
            return acc / q ** power * math.exp(-1.0 / q) * dscale

        def ev_array(x):
            u = (2.0 * x - a - b) / width
            out = np.zeros_like(u)
            inside = np.abs(u) < 1.0
            ui = u[inside]
            q = 1.0 - ui * ui
            core = np.exp(-1.0 / q)
            out[inside] = P.polyval(ui, poly) / q ** power * core * dscale
            return out

        def deriv(k):
            p, o = poly, order
            for _ in range(k):
                p, o = _bump_step(p, o)
            return make(o, p)

        return TestFunction("bump", ev, deriv, max_order=64, support=(a, b),
                            decays=True)

    return make(0, np.array([1.0]))


def _bump_step(poly, order):
    """One u-derivative of Q(u)/(1-u^2)^(2k) * exp(-1/(1-u^2)).

    Returns the polynomial for order k+1 (denominator power 2k+2):
    Q_{k+1} = Q'(1-u^2)^2 + 4k u (1-u^2) Q - 2u Q.
    """
    q = np.array([1.0, 0.0, -1.0])  # 1 - u^2
    dq = P.polyder(poly)
    term1 = P.polymul(dq, P.polymul(q, q))
    term2 = P.polymul(np.array([0.0, 4.0 * order]), P.polymul(q, poly))
    term3 = P.polymul(np.array([0.0, -2.0]), poly)
    new = P.polyadd(P.polyadd(term1, term2), term3)
    return np.trim_zeros(new, "b") if np.any(new) else np.array([0.0]), order + 1


# --------------------------------------------------------------- exp decay

def make_exp_decay(rate: float = 1.0) -> TestFunction:
    """phi(x) = exp(-rate*x); one-sided decay class, used in (0, inf) pairings."""
    if rate <= 0:
        raise ParameterError("rate must be positive")
    r = float(rate)

    def make(order):
        coef = (-r) ** order

        def ev(x):
            return coef * np.exp(-r * np.asarray(x, dtype=float)) if np.ndim(x) \
                else coef * math.exp(-r * x)

        return TestFunction("exp_decay", ev, lambda k: make(order + k),
                            max_order=10**6, decays=True)

    return make(0)


# -------------------------------------------------- finite-difference fallback

def _stencil_weights(order, npts):
    """Central-difference weights on npts symmetric nodes for d^order/dx^order."""
    offsets = np.arange(npts) - (npts - 1) / 2.0
    A = np.array([offsets**i / math.factorial(i) for i in range(npts)])
    e = np.zeros(npts)
    e[order] = 1.0
    return offsets, np.linalg.solve(A, e)


def finite_difference_derivative(phi, order: int, x: float,
                                 h: Optional[float] = None,
                                 extra_accuracy: int = 2):
    """Central finite-difference derivative of ``phi`` at ``x``.

    Uses a symmetric stencil with ``extra_accuracy`` orders beyond the bare
    difference (the classic 5-point stencil for first and second
    derivatives). Step defaults to eps**(1/(order+2)) scaled by the argument
    magnitude, balancing truncation against round-off for the default
    stencil; high-order cross-checks should pass an explicit, shorter step.
    This fallback is explicit by design; ``TestFunction.derivative`` never
    calls it silently.
    """
    if order < 1:
        raise ParameterError("order must be >= 1")
    if h is None:
        h = np.finfo(float).eps ** (1.0 / (order + 2)) * max(1.0, abs(x))
    npts = order + 1 + extra_accuracy
    if npts % 2 == 0:
        npts += 1
    offsets, w = _stencil_weights(order, npts)
    vals = np.array([phi(x + dx * h) for dx in offsets])
    return float(np.dot(w, vals) / h**order)
