"""Smooth test functions with exact analytic derivatives.

Built-in kinds: ``bump`` (compactly supported) and ``exp_decay``
(one-sided exponential). Each knows its derivatives analytically, the bump
to order 64 and exp_decay to order 10**6; there is no finite-difference
fallback, and an order beyond the analytic ones raises
:class:`UnsupportedOrderError`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ParameterError, UnsupportedOrderError

__all__ = [
    "TestFunction",
    "make_bump",
    "make_exp_decay",
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

        Each evaluator splits scalars from arrays itself.
        """
        return self._evaluate(x)

    def derivative(self, order=1):
        if order < 0:
            raise ParameterError("derivative order must be >= 0")
        if order == 0:
            return self
        if order > self.max_analytic_derivative_order:
            raise UnsupportedOrderError(
                f"analytic derivatives of kind '{self.kind}' available to order "
                f"{self.max_analytic_derivative_order}, requested {order}")
        return self._derivative_factory(order)


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
