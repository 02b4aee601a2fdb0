"""Potentials and their WKB spectral-density coefficients."""

import math

import pytest

import spectral_cesaro as sc
from spectral_cesaro.errors import UnsupportedOrderError


class TestWkbCoefficients:
    def test_constant_potential_entries(self):
        c = 2.5
        tab = sc.wkb_coefficients(sc.constant_potential(c), 0.0)
        assert tab.rho(0, 0, 0) == 1.0
        assert tab.rho(0, 1, 1) == 1.0
        assert tab.rho(1, 0, 0) == c / 2
        assert tab.rho(1, 1, 1) == -c / 2
        assert tab.rho(2, 0, 0) == 3 * c * c / 8
        assert tab.rho(2, 1, 1) == -3 * c * c / 8
        # mixed entries vanish for constant V
        for n in range(3):
            assert tab.rho(n, 0, 1) == tab.rho(n, 1, 0)
            assert tab.rho(n, 0, 1) == 0.0

    def test_quadratic_potential(self):
        x0 = 1.3
        tab = sc.wkb_coefficients(sc.quadratic_potential(1.0), x0)
        assert abs(tab.rho(2, 0, 0) - (-2 + 3 * x0**4) / 8) < 1e-14
        # rho_1^{01} = V'/4
        assert abs(tab.rho(1, 0, 1) - 2 * x0 / 4) < 1e-14

    def test_mixed_symmetry(self):
        tab = sc.wkb_coefficients(sc.quadratic_potential(2.0), 0.4)
        for n in range(3):
            assert tab.rho(n, 1, 0) == tab.rho(n, 0, 1)
        assert tab.rho(1, 0, 1) != 0.0   # V' != 0: the entries are not trivially 0

    def test_series_matches_exact_constant_density(self):
        """(1/pi) sum rho_n^00 w^-2n vs Taylor of (1/pi)(1-c/w^2)^(-1/2).

        The exact spectral density of the shifted free operator, expanded
        through w^-4; agreement to 1e-12 (it is exact in rational arithmetic).
        """
        for c in (1.0, 2.5):
            tab = sc.wkb_coefficients(sc.constant_potential(c), 0.0)
            for omega in (2.0, 3.0, 10.0):
                u = c / omega**2
                taylor = (1 + 0.5 * u + 0.375 * u * u) / math.pi
                assert abs(tab.density_series(0, 0, omega) - taylor) < 1e-12

    def test_missing_third_derivative(self):
        V = sc.Potential("twice", [lambda x: 0.0, lambda x: 0.0, lambda x: 0.0])
        with pytest.raises(UnsupportedOrderError):
            sc.wkb_coefficients(V, 0.0)
