"""WKB spectral-density coefficients from V and its derivatives at a point."""

import math

import spectral_cesaro as sc


class TestWkbCoefficients:
    def test_constant_potential_entries(self):
        c = 2.5
        rho = sc.wkb_coefficients(c, 0.0, 0.0, 0.0).entries
        assert rho[(0, 0, 0)] == 1.0
        assert rho[(0, 1, 1)] == 1.0
        assert rho[(1, 0, 0)] == c / 2
        assert rho[(1, 1, 1)] == -c / 2
        assert rho[(2, 0, 0)] == 3 * c * c / 8
        assert rho[(2, 1, 1)] == -3 * c * c / 8
        # mixed entries vanish for constant V
        for n in range(3):
            assert rho[(n, 0, 1)] == rho[(n, 1, 0)]
            assert rho[(n, 0, 1)] == 0.0

    def test_quadratic_potential(self):
        # V = a x^2 at x0: (V, V', V'', V''') = (a x0^2, 2a x0, 2a, 0)
        a, x0 = 1.0, 1.3
        rho = sc.wkb_coefficients(a * x0 * x0, 2 * a * x0, 2 * a, 0.0).entries
        assert abs(rho[(2, 0, 0)] - (-2 + 3 * x0**4) / 8) < 1e-14
        # rho_1^{01} = V'/4
        assert abs(rho[(1, 0, 1)] - 2 * x0 / 4) < 1e-14

    def test_mixed_symmetry(self):
        a, x0 = 2.0, 0.4
        rho = sc.wkb_coefficients(a * x0 * x0, 2 * a * x0, 2 * a, 0.0).entries
        for n in range(3):
            assert rho[(n, 1, 0)] == rho[(n, 0, 1)]
        assert rho[(1, 0, 1)] != 0.0   # V' != 0: the entries are not trivially 0

    def test_series_matches_exact_constant_density(self):
        """(1/pi) sum rho_n^00 w^-2n vs Taylor of (1/pi)(1-c/w^2)^(-1/2).

        The exact spectral density of the shifted free operator, expanded
        through w^-4; agreement to 1e-12 (it is exact in rational arithmetic).
        """
        for c in (1.0, 2.5):
            tab = sc.wkb_coefficients(c, 0.0, 0.0, 0.0)
            for omega in (2.0, 3.0, 10.0):
                u = c / omega**2
                taylor = (1 + 0.5 * u + 0.375 * u * u) / math.pi
                assert abs(tab.density_series(0, 0, omega) - taylor) < 1e-12
