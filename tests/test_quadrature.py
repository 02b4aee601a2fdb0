"""Quadrature engine and lobe sums."""

import math

import numpy as np
import pytest

import spectral_cesaro as sc
from spectral_cesaro.errors import ParameterError

# catalogued closed-form integrals: (f, a, b, exact)
CATALOG = [
    (lambda x: np.exp(-x * x), -np.inf, np.inf, math.sqrt(math.pi)),
    (lambda x: np.exp(-x * x), 0, np.inf, math.sqrt(math.pi) / 2),
    (lambda u: u**-0.5 * np.exp(-u), 0, np.inf, math.gamma(0.5)),
    (lambda u: u**2.5 * np.exp(-u), 0, np.inf, math.gamma(3.5)),
    (lambda x: 1.0 / (1.0 + x * x), -np.inf, np.inf, math.pi),
    (lambda x: 1.0 / (4.0 + x * x), 0, np.inf, math.pi / 4),
    (lambda u: np.exp(-u) * np.cos(50 * u), 0, np.inf, 1.0 / 2501.0),
    (lambda u: np.exp(-2 * u) * np.cos(3 * u), 0, np.inf, 2.0 / 13.0),
    (lambda x: np.exp(-abs(x)), -np.inf, np.inf, 2.0),
    (lambda x: x * np.exp(-x), 0, np.inf, 1.0),
]


@pytest.mark.parametrize("f,a,b,exact", CATALOG)
def test_catalog_integrals(f, a, b, exact):
    r = sc.integrate(f, a, b, tol=1e-10)
    assert abs(r.value - exact) < 1e-9
    assert r.evaluations > 0
    assert math.isfinite(r.error_estimate)


def test_complex_integrand():
    r = sc.integrate(lambda t: np.exp(-t) * np.exp(1j * t), 0, np.inf, tol=1e-11)
    assert abs(r.value - (0.5 + 0.5j)) < 1e-10


def test_bad_tolerance_rejected():
    with pytest.raises(ParameterError):
        sc.integrate(np.exp, 0, 1, tol=0.0)


def test_lobe_sum_matches_plain_quadrature():
    f = lambda t: math.sin(10 * t) * math.exp(-t)
    pts = [k * math.pi / 10 for k in range(0, 32)]
    direct = sc.integrate(f, pts[0], pts[-1], tol=1e-13).value
    lobed = sc.lobe_sum(f, pts, tol=1e-13).value
    assert abs(direct - lobed) < 1e-11
