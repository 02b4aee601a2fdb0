"""Bessel J inside the free-space density: closed forms and a series oracle.

density_free_space(d, ...) at lam = 1 and separation r = z is
J_{d/2-1}(z) / (2^{d/2+1} pi^{d/2} z^{d/2-1}), so each Bessel order
-1/2, 0, 1/2, 1, ... is checked through the dimension d = 2 order + 2.
"""

import math

import mpmath as mp
import pytest

import spectral_cesaro as sc
from spectral_cesaro.errors import ParameterError


def _series_oracle(order, z, dps=40):
    """Power series sum_m (-1)^m (z/2)^(2m+order) / (m! Gamma(m+order+1))."""
    with mp.workdps(dps):
        zh = mp.mpf(z) / 2
        total = mp.mpf(0)
        for m in range(120):
            total += (-1) ** m * zh ** (2 * m + order) \
                / (mp.factorial(m) * mp.gamma(m + order + 1))
        return float(total)


def _dimension(order):
    return 2.0 * order + 2.0


def bessel_j(order, z):
    """J_order(z) read off the off-diagonal free-space density."""
    d = int(_dimension(order))
    dens = sc.density_free_space(d, [z] + [0.0] * (d - 1), [0.0] * d, 1.0)
    return dens * 2.0 ** (d / 2.0 + 1.0) * math.pi ** (d / 2.0) * z ** (d / 2.0 - 1.0)


def test_half_order_at_half_pi():
    assert abs(bessel_j(0.5, math.pi / 2) - 2.0 / math.pi) < 1e-14


def test_zero_order_at_origin():
    """J_0(0) = 1: the d = 2 diagonal density is lam^0 / (4 pi) exactly."""
    got = sc.density_free_space(2, [0.3, 0.1], [0.3, 0.1], 5.0)
    assert got == 1.0 / (4.0 * math.pi)


def test_j1_at_one_against_series_oracle():
    got = bessel_j(1, 1.0)
    want = _series_oracle(1, 1.0)
    assert abs(got - want) < 1e-13
    assert abs(got - 0.4400505857449335) < 1e-12


@pytest.mark.parametrize("order", [0, 1, 2, 0.5, 1.5, 2.5, -0.5])
@pytest.mark.parametrize("z", [0.3, 1.7, 6.2])
def test_series_oracle_agreement(order, z):
    assert abs(bessel_j(order, z) - _series_oracle(order, z)) < 1e-11


@pytest.mark.parametrize("z", [0.1, 1.0, 10.0, 100.0])
def test_half_order_sine_identity(z):
    """J_{1/2}(z) sqrt(pi z / 2) = sin z to near machine precision."""
    lhs = bessel_j(0.5, z) * math.sqrt(math.pi * z / 2.0)
    assert abs(lhs - math.sin(z)) < 1e-12


def test_large_argument_accuracy():
    # 10 significant digits at z = 1e4 against the mpmath reference
    z = 1e4
    want = float(mp.besselj(2, z))
    got = bessel_j(2, z)
    assert abs(got - want) < 1e-10 * abs(want)


@pytest.mark.parametrize("order", [-1.0, 0.3, -0.75])
def test_unsupported_orders_raise(order):
    """Orders below -1/2 or off the half-integers come only from dimensions
    that are rejected before any Bessel function is evaluated."""
    d = _dimension(order)
    with pytest.raises(ParameterError, match="integer >= 1"):
        sc.density_free_space(d, [1.0], [0.0], 1.0)
