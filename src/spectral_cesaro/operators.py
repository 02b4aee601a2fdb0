"""Potentials V of one-dimensional Schrodinger operators -d2/dx2 + V.

A :class:`Potential` carries V and its analytic derivatives; the two
builders give a constant and a quadratic potential. From these,
:func:`wkb_coefficients` fills the phase-integral (WKB) spectral-density
coefficients through second order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOrderError

__all__ = [
    "Potential",
    "WkbTable",
    "wkb_coefficients",
    "constant_potential",
    "quadratic_potential",
]


class Potential:
    """A potential V with analytic derivatives to the order supplied."""

    def __init__(self, name, derivatives):
        # derivatives: [V, V', V'', ...] as callables
        self._chain = list(derivatives)
        self.name = name
        self.max_derivative_order = len(self._chain) - 1

    def __call__(self, x):
        return self._chain[0](x)

    def derivative(self, k=1):
        if k == 0:
            return self
        if k > self.max_derivative_order:
            raise UnsupportedOrderError(
                f"potential '{self.name}' has derivatives to order "
                f"{self.max_derivative_order}")
        return Potential(f"{self.name}'", self._chain[k:])


def constant_potential(c: float) -> Potential:
    cc = float(c)
    zero = lambda x: 0.0 * np.asarray(x, dtype=float) if np.ndim(x) else 0.0
    return Potential(f"const({c})",
                     [lambda x: cc + zero(x), zero, zero, zero, zero])


def quadratic_potential(a: float = 1.0) -> Potential:
    aa = float(a)
    zero = lambda x: 0.0 * np.asarray(x, dtype=float) if np.ndim(x) else 0.0
    return Potential(
        f"quadratic({a})",
        [lambda x: aa * np.asarray(x) ** 2 if np.ndim(x) else aa * x * x,
         lambda x: 2 * aa * np.asarray(x) if np.ndim(x) else 2 * aa * x,
         lambda x: 2 * aa + zero(x),
         zero, zero],
    )


# ------------------------------------------------------------ WKB table

@dataclass(frozen=True)
class WkbTable:
    """Spectral-density coefficients rho_n^{jk}, j,k in {0,1}, n in {0,1,2}.

    dmu^{jk} ~ (1/pi) sum_n rho_n^{jk} omega^{2 dj1 dk1 - 2n} domega with
    lambda = omega^2. Truncated at n = 2; higher orders are out of scope.
    """
    base_point: float
    entries: dict

    def rho(self, n: int, j: int, k: int) -> float:
        return self.entries[(n, j, k)]

    def density_series(self, j: int, k: int, omega: float) -> float:
        """(1/pi) sum_{n<=2} rho_n^{jk} omega^{2 dj1 dk1 - 2n}."""
        lead = 2 if (j == 1 and k == 1) else 0
        return sum(self.entries[(n, j, k)] * omega ** (lead - 2 * n)
                   for n in range(3)) / math.pi


def wkb_coefficients(V: Potential, x0: float) -> WkbTable:
    """Fill the WKB coefficient table through n = 2 at base point x0.

    Needs V, V', V'' (and V''' for the mixed n = 2 entry).
    """
    if V.max_derivative_order < 3:
        raise UnsupportedOrderError("wkb_coefficients needs V''' for rho_2^{01}")
    v = float(V(x0))
    v1 = float(V.derivative(1)(x0))
    v2 = float(V.derivative(2)(x0))
    v3 = float(V.derivative(3)(x0))

    rho00 = {0: 1.0, 1: 0.5 * v, 2: 0.125 * (-v2 + 3.0 * v * v)}
    rho11 = {0: 1.0, 1: -0.5 * v, 2: 0.125 * (v2 - 3.0 * v * v)}
    # rho_n^{10} = rho_n^{01} = (1/2) d/dx0 rho_n^{00}
    rho01 = {0: 0.0, 1: 0.25 * v1, 2: 0.0625 * (-v3 + 6.0 * v * v1)}

    entries = {}
    for n in range(3):
        entries[(n, 0, 0)] = rho00[n]
        entries[(n, 1, 1)] = rho11[n]
        entries[(n, 0, 1)] = rho01[n]
        entries[(n, 1, 0)] = rho01[n]
    return WkbTable(base_point=float(x0), entries=entries)
