"""Green kernels: two-path agreement, boundary behavior, expansions, smears."""

import cmath
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import spectral_cesaro as sc
from spectral_cesaro.errors import (AccuracyError, BoundaryError, DomainError,
                                    ParameterError, SingularityError)
from spectral_cesaro.quadrature import _exact_sum, _refused
from test_acceptance import _mp_offdiagonal_smear


class TestHeatKernel:
    def test_line_closed_form(self):
        k = sc.heat_kernel("line", 0.25, 1.0, 0.0)
        assert abs(k.value - math.exp(-1.0) / math.sqrt(math.pi)) < 1e-16

    def test_line_spectral_matches_closed(self):
        a = sc.heat_kernel("line", 0.3, 0.8, 0.1, "spectral_sum")
        b = sc.heat_kernel("line", 0.3, 0.8, 0.1, "closed_form")
        assert abs(a.value - b.value) < 1e-11

    def test_interval_two_paths(self):
        a = sc.heat_kernel("interval", 0.1, 1.0, 2.0, "spectral_sum")
        b = sc.heat_kernel("interval", 0.1, 1.0, 2.0, "image_sum")
        assert abs(a.value - b.value) < 1e-10

    def test_dirichlet_boundary_zero(self):
        assert sc.heat_kernel("interval", 0.1, 0.0, 2.0, "spectral_sum").value == 0.0
        edge = abs(sc.heat_kernel("interval", 0.1, 1e-4, 1.5, "image_sum").value)
        interior = abs(sc.heat_kernel("interval", 0.1, 1.5, 1.5, "image_sum").value)
        assert edge < 1e-2 * interior

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            sc.heat_kernel("line", 0.0, 0.0, 0.0)

    def test_symmetry(self):
        a = sc.heat_kernel("interval", 0.2, 0.7, 2.2, "spectral_sum")
        b = sc.heat_kernel("interval", 0.2, 2.2, 0.7, "spectral_sum")
        assert abs(a.value - b.value) < 1e-14

    def test_initial_condition(self):
        """<K(t, x, .), phi> -> phi(x) as t -> 0, within 1e-4 at t = 1e-4."""
        phi = sc.make_bump(0.5, 2.5)
        x = 1.3
        f = lambda y: sc.heat_kernel("interval", 1e-4, x, y, "image_sum").value * phi(y)
        r = sc.integrate(f, 0.0, math.pi, tol=1e-9)
        assert abs(r.value - phi(x)) < 1e-4


class TestSchrodingerKernel:
    def test_line_diagonal(self):
        u = sc.schrodinger_kernel("line", 0.3, 1.0, 1.0)
        want = cmath.exp(-1j * math.pi / 4) / math.sqrt(4 * math.pi * 0.3)
        assert abs(u.value - want) < 1e-16

    def test_modulus_independent_of_points(self):
        for t in (0.5, -0.5):
            for (x, y) in ((0.0, 0.0), (1.0, 2.5), (-3.0, 7.0)):
                u = sc.schrodinger_kernel("line", t, x, y)
                assert abs(abs(u.value) - 1 / math.sqrt(4 * math.pi * abs(t))) < 1e-15

    def test_negative_time_phase_conjugates(self):
        up = sc.schrodinger_kernel("line", 0.4, 0.3, 1.1).value
        um = sc.schrodinger_kernel("line", -0.4, 0.3, 1.1).value
        assert abs(um - up.conjugate()) < 1e-15

    def test_image_terms_have_equal_modulus(self):
        """Every image term carries the main term's modulus: no pointwise decay."""
        t, x, y = 0.3, 1.0, 2.0
        base = 1 / math.sqrt(4 * math.pi * t)
        for n in (-2, 0, 3):
            term = cmath.exp(1j * (x - y - 2 * n * math.pi) ** 2 / (4 * t)) * base
            assert abs(abs(term) - base) < 1e-15

    def test_pointwise_spectral_sum_unsupported(self):
        with pytest.raises(ParameterError):
            sc.schrodinger_kernel("interval", 0.1, 1.0, 2.0, "spectral_sum")

    def test_interval_image_sum_error_is_infinite(self):
        ev = sc.schrodinger_kernel("interval", 0.1, 1.0, 2.0, "image_sum")
        assert math.isinf(ev.error_estimate)

    def test_zero_time_rejected(self):
        with pytest.raises(DomainError):
            sc.schrodinger_kernel("line", 0.0, 0.0, 1.0)


class TestCylinderKernel:
    def test_line_diagonal_value(self):
        assert abs(sc.cylinder_kernel("line", 1.0, 0.3, 0.3).value
                   - 1.0 / math.pi) < 1e-16

    def test_interval_series_vs_closed(self):
        a = sc.cylinder_kernel("interval", 0.5, 1.0, 2.0, "spectral_sum")
        c = sc.cylinder_kernel("interval", 0.5, 1.0, 2.0, "closed_form")
        assert abs(a.value - c.value) < 1e-10

    def test_interval_image_sum_path(self):
        i = sc.cylinder_kernel("interval", 0.5, 1.0, 2.0, "image_sum")
        c = sc.cylinder_kernel("interval", 0.5, 1.0, 2.0, "closed_form")
        assert abs(i.value - c.value) < 1e-9

    def test_decays_at_large_time(self):
        v = sc.cylinder_kernel("interval", 40.0, 1.0, 2.0, "closed_form").value
        assert abs(v) < 1e-15

    def test_line_spectral_matches_closed(self):
        a = sc.cylinder_kernel("line", 0.7, 0.4, 1.9, "spectral_sum")
        b = sc.cylinder_kernel("line", 0.7, 0.4, 1.9, "closed_form")
        assert abs(a.value - b.value) < 1e-10

    def test_initial_condition(self):
        phi = sc.make_bump(0.5, 2.5)
        x = 1.3
        f = lambda y: sc.cylinder_kernel("interval", 1e-4, x, y,
                                         "closed_form").value * phi(y)
        r = sc.integrate(f, 0.0, math.pi, tol=1e-9)
        assert abs(r.value - phi(x)) < 1e-4


class TestWightman:
    def test_P_branch_examples(self):
        assert sc.wightman_P(1.0, 0.5, 1.0) == 1
        assert sc.wightman_P(0.2, 0.5, 1.0) == 0
        assert sc.wightman_P(-1.0, 0.5, 1.0) == -1

    def test_P_outer_band(self):
        # f(x+y) = 1.5 < |t| < 2 pi - 1.5
        assert sc.wightman_P(3.0, 0.5, 1.0) == 0

    def test_P_periodicity(self):
        assert sc.wightman_P(1.0 + 2 * math.pi, 0.5, 1.0) == 1

    def test_P_odd_in_t(self):
        rng = np.random.default_rng(99)
        done = 0
        while done < 100:
            x = float(rng.uniform(0.2, math.pi - 0.2))
            y = float(rng.uniform(0.2, math.pi - 0.2))
            t = float(rng.uniform(0.05, 3.0))
            try:
                assert sc.wightman_P(-t, x, y) == -sc.wightman_P(t, x, y)
            except BoundaryError:
                continue
            done += 1

    def test_boundary_band_raises(self):
        with pytest.raises(BoundaryError):
            sc.wightman_P(0.5 + 1e-12, 0.5, 1.0)

    def test_closed_form_value(self):
        w = sc.wightman_interval(1.0, 0.5, 1.0)
        re = math.log(abs((math.cos(1.0) - math.cos(1.5))
                          / (math.cos(1.0) - math.cos(0.5)))) / (4 * math.pi)
        assert abs(w.value - complex(re, 0.25)) < 1e-15

    def test_imaginary_part_is_quarter_P(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 25:
            x = float(rng.uniform(0.3, math.pi - 0.3))
            y = float(rng.uniform(0.3, math.pi - 0.3))
            t = float(rng.uniform(0.1, 6.0))
            try:
                w = sc.wightman_interval(t, x, y)
                P = sc.wightman_P(t, x, y)
            except (BoundaryError, SingularityError):
                continue
            assert w.value.imag == 0.25 * P
            done += 1

    def test_small_t_real_part_limit(self):
        """Re W(0+) = (1/4pi) ln((1-cos(x+y))/(1-cos(x-y)))."""
        x, y = 0.8, 1.7
        w = sc.wightman_interval(1e-6, x, y).value.real
        want = math.log((1 - math.cos(x + y)) / (1 - math.cos(x - y))) / (4 * math.pi)
        assert abs(w - want) < 1e-9

    def test_cesaro_series_matches_closed_form(self):
        w_closed = sc.wightman_interval(1.0, 0.5, 1.0, "closed_form")
        w_series = sc.wightman_interval(1.0, 0.5, 1.0, "spectral_sum",
                                        n_terms=10**4)
        assert abs(w_series.value - w_closed.value) < 1e-3

    def test_light_cone_rejected(self):
        x, y = 0.7, 1.2
        with pytest.raises(SingularityError):
            sc.wightman_interval(abs(x - y), x, y)


class TestTwoPathRandomSweep:
    """Independent evaluation paths agree across the interior (50 points)."""

    def test_heat(self):
        rng = np.random.default_rng(321)
        for _ in range(50):
            t = float(rng.uniform(0.05, 1.0))
            x = float(rng.uniform(0.2, math.pi - 0.2))
            y = float(rng.uniform(0.2, math.pi - 0.2))
            a = sc.heat_kernel("interval", t, x, y, "spectral_sum").value
            b = sc.heat_kernel("interval", t, x, y, "image_sum").value
            assert abs(a - b) < 1e-8

    def test_cylinder(self):
        rng = np.random.default_rng(321)
        for _ in range(50):
            t = float(rng.uniform(0.05, 1.0))
            x = float(rng.uniform(0.2, math.pi - 0.2))
            y = float(rng.uniform(0.2, math.pi - 0.2))
            a = sc.cylinder_kernel("interval", t, x, y, "spectral_sum").value
            b = sc.cylinder_kernel("interval", t, x, y, "closed_form").value
            assert abs(a - b) < 1e-8

    def test_wightman_cesaro(self):
        rng = np.random.default_rng(321)
        done = 0
        while done < 20:
            t = float(rng.uniform(0.2, 2.8))
            x = float(rng.uniform(0.3, math.pi - 0.3))
            y = float(rng.uniform(0.3, math.pi - 0.3))
            try:
                closed = sc.wightman_interval(t, x, y, "closed_form").value
            except (SingularityError, BoundaryError):
                continue
            r, z = abs(x - y), x + y
            f = z if z <= math.pi else 2 * math.pi - z
            tt = math.remainder(t, 2 * math.pi)
            if min(abs(abs(tt) - r), abs(abs(tt) - f)) < 0.05:
                continue
            series = sc.wightman_interval(t, x, y, "spectral_sum",
                                          n_terms=10**4).value
            assert abs(series - closed) < 1e-3
            done += 1


class TestSmallTCoefficients:
    def test_heat_interval_single_term(self):
        """Interior diagonal: leading (4 pi t)^(-1/2), all corrections zero."""
        co = sc.small_t_coefficients("heat", "interval", 1.0, 1.0, N=2)
        lead = 1 / math.sqrt(4 * math.pi)
        assert abs(co.coefficient(-0.5) - lead) < 1e-10
        assert abs(co.coefficient(0.5)) < 1e-8 * lead
        assert abs(co.coefficient(1.5)) < 1e-8 * lead
        assert co.validity == "pointwise" and co.locality == "local"

    def test_heat_line_interval_agree_termwise(self):
        a = sc.small_t_coefficients("heat", "line", 1.0, 1.0, N=2)
        b = sc.small_t_coefficients("heat", "interval", 1.0, 1.0, N=2)
        lead = 1 / math.sqrt(4 * math.pi)
        for j in range(3):
            e = j - 0.5
            assert abs(a.coefficient(e) - b.coefficient(e)) < 1e-8 * lead

    @pytest.mark.parametrize("x", [0.5, 0.8, math.pi - 0.8])
    def test_heat_line_interval_agree_near_boundary(self, x):
        """The t-ladder shrinks with the nearest image distance min(2x, 2 pi - 2x)."""
        a = sc.small_t_coefficients("heat", "line", x, x, N=2)
        b = sc.small_t_coefficients("heat", "interval", x, x, N=2)
        lead = 1 / math.sqrt(4 * math.pi)
        for j in range(3):
            e = j - 0.5
            assert abs(a.coefficient(e) - b.coefficient(e)) < 1e-8 * lead

    def test_cylinder_line_offdiagonal_t1(self):
        co = sc.small_t_coefficients("cylinder", "line", 1.0, 2.0, N=3)
        assert abs(co.coefficient(1.0) - 1.0 / math.pi) < 1e-5
        assert co.locality == "global"

    def test_cylinder_line_t3_from_taylor(self):
        """The t^3 coefficient of t/(pi(r^2+t^2)) is -1/(pi r^4) (r = 1)."""
        co = sc.small_t_coefficients("cylinder", "line", 1.0, 2.0, N=3)
        assert abs(co.coefficient(3.0) - (-1.0 / math.pi)) < 1e-3

    def test_cylinder_interval_diagonal_t1(self):
        co = sc.small_t_coefficients("cylinder", "interval", 1.0, 1.0, N=3)
        want = (1 / math.pi) * (1.0 / 12.0 - 1.0 / (2 * (1 - math.cos(2.0))))
        assert abs(co.coefficient(1.0) - want) < 1e-6
        assert abs(co.coefficient(-1.0) - 1.0 / math.pi) < 1e-12

    def test_cylinder_line_diagonal_t1_vanishes(self):
        co = sc.small_t_coefficients("cylinder", "line", 1.0, 1.0, N=3)
        assert abs(co.coefficient(1.0)) < 1e-10

    def test_schrodinger_tags(self):
        co = sc.small_t_coefficients("schrodinger", "line", 1.0, 1.0, N=2)
        lead = cmath.exp(-1j * math.pi / 4) / math.sqrt(4 * math.pi)
        assert abs(co.coefficient(-0.5) - lead) < 1e-15
        assert co.validity == "averaged" and co.locality == "local"

    def test_exponents_strictly_increasing(self):
        with pytest.raises(ParameterError):
            sc.ExpansionCoefficients(((1.0, 1.0), (1.0, 2.0)), "pointwise", "local")


class TestAveragedSmear:
    def test_heat_diagonal_matches_direct_quadrature(self):
        phi = sc.make_bump(1.0, 2.0)
        eps = 0.05
        v = sc.averaged_smear("heat", "line", 0.0, 0.0, phi, eps)
        direct = sc.integrate(
            lambda t: phi(t) / math.sqrt(4 * math.pi * eps * t), 1.0, 2.0,
            tol=1e-12).value
        assert abs(v - direct) < 1e-10

    def test_schrodinger_diagonal_identity(self):
        """<U(eps t, x, x), phi> = (4 pi eps)^(-1/2) e^(-i pi/4) int phi/sqrt(t)."""
        phi = sc.make_bump(1.0, 2.0)
        eps = 1e-3
        v = sc.averaged_smear("schrodinger", "line", 0.3, 0.3, phi, eps)
        ref = (cmath.exp(-1j * math.pi / 4) / math.sqrt(4 * math.pi * eps)
               * sc.integrate(lambda t: phi(t) / math.sqrt(t), 1.0, 2.0,
                              tol=1e-13).value)
        assert abs(v - ref) / abs(ref) < 1e-6

    def test_schrodinger_offdiagonal_rapid_decay_at_onset(self):
        """|<U(eps t, 1, 2), phi>| falls with slope >= 4 on eps in [1e-4, 1e-3].

        The bump-smeared oscillatory kernel decays like exp(-c/sqrt(eps));
        the power-law slope clears 4 only below the onset scale eps ~ 5e-4
        for this geometry (phase sweep 1/(8 eps) radians across the support).
        The grid stops at 1e-4: below it the rounding of the phase in doubles
        swamps the value (1e-3 relative error at 6.3e-5; at 10**-4.5, where
        the value is 2.29e-15, tol 1e-14 is refused with an estimate of
        5.5e-13 for the integral).
        """
        phi = sc.make_bump(1.0, 2.0)
        eps = np.geomspace(1e-4, 1e-3, 6)
        vals = [abs(sc.averaged_smear("schrodinger", "line", 1.0, 2.0, phi,
                                      float(e), tol=1e-14)) for e in eps]
        slope = np.linalg.lstsq(np.vstack([np.log(eps), np.ones(len(eps))]).T,
                                np.log(vals), rcond=None)[0][0]
        assert slope >= 4.0, slope

    def test_interval_smear_runtime_budget(self):
        """Six interval smears of the benchmark geometry in 3 s.

        On a 2-vCPU Xeon VM: about 7 ms by the trapezoidal sums in s = 1/t,
        about 0.07 s with the batched lobe rule they replace and about 6 s
        with one adaptive quadrature per lobe.
        """
        phi = sc.make_bump(1.0, 2.0)
        t0 = time.perf_counter()
        vals = [sc.averaged_smear("schrodinger", "interval", 1.0, 2.0, phi, float(e))
                for e in np.geomspace(1e-3, 1e-1, 6)]
        elapsed = time.perf_counter() - t0
        line = sc.averaged_smear("schrodinger", "line", 1.0, 2.0, phi, 1e-3)
        assert abs(vals[0] - line) < 1e-6
        assert elapsed < 3.0, elapsed

    def test_interval_schrodinger_close_to_line_at_small_eps(self):
        """Image corrections are below any power: interval smear ~ line smear."""
        phi = sc.make_bump(1.0, 2.0)
        a = sc.averaged_smear("schrodinger", "interval", 1.0, 2.0, phi, 1e-3)
        b = sc.averaged_smear("schrodinger", "line", 1.0, 2.0, phi, 1e-3)
        assert abs(a - b) < 1e-6


    @pytest.mark.parametrize("case", ["line", "interval"])
    @pytest.mark.parametrize("support", [(-1.0, 1.0), (0.0, 1.0)])
    def test_schrodinger_offdiagonal_needs_support_in_positive_t(self, monkeypatch,
                                                                 case, support):
        """The phase r^2/(4 eps t) has no value at t = 0: refused before any
        quadrature or node, where the lobe split used to divide by zero."""
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature before the support check")
        monkeypatch.setattr(sc.kernels, "_smear_nodes", no_quadrature)
        monkeypatch.setattr(sc.kernels, "integrate", no_quadrature)
        with pytest.raises(ParameterError, match="supported in t > 0"):
            sc.averaged_smear("schrodinger", case, 1.0, 2.0, sc.make_bump(*support), 0.01)

    @pytest.mark.parametrize("support", [(-1.0, 1.0), (0.0, 1.0)])
    def test_schrodinger_diagonal_takes_support_from_zero(self, support):
        """The diagonal term (r^2 = 0) integrates phi over t >= 0 only."""
        phi = sc.make_bump(*support)
        eps = 0.01
        v = sc.averaged_smear("schrodinger", "line", 0.5, 0.5, phi, eps)
        ref = (cmath.exp(-1j * math.pi / 4) / math.sqrt(4 * math.pi * eps)
               * sc.integrate(lambda t: phi(t) / math.sqrt(t), 0.0, 1.0, tol=1e-13).value)
        assert abs(v - ref) / abs(ref) < 1e-10

    @pytest.mark.parametrize("case", ["line", "interval"])
    @pytest.mark.parametrize("lo", [1e-12, 5e-324])
    def test_schrodinger_nodes_past_the_budget_are_refused(self, monkeypatch, case, lo):
        """A support reaching down to 1e-12 spans 1e12 in s = 1/t, which would
        take about 1e15 nodes, and one from 5e-324 (where 1/t overflows)
        infinitely many; refused from their count, before any array or
        quadrature."""
        def no_quadrature(*args, **kwargs):
            raise AssertionError("nodes or quadrature past the budget")
        monkeypatch.setattr(sc.kernels.np, "arange", no_quadrature)
        monkeypatch.setattr(sc.kernels, "integrate", no_quadrature)
        with pytest.raises(ParameterError, match=rf"support \[{lo!r}, 1\.0\] at "
                           r"eps=0\.01 .*budget of 10000000"):
            sc.averaged_smear("schrodinger", case, 1.0, 2.0, sc.make_bump(lo, 1.0), 0.01)

    def test_schrodinger_node_budget_counts_the_nodes(self, monkeypatch):
        """At (1, 2), eps = 1e-5 and the bump on [1, 2], omega = 25000 and
        W = 8000: int(0.5 (omega + W)/(2 pi) + 1) + 1 = 2628 nodes, more than
        the FFT's 2548. A budget of 2628 takes them, one of 2627 refuses."""
        seen = []
        term = sc.kernels._smear_term
        monkeypatch.setattr(sc.kernels, "_smear_term",
                            lambda *args: seen.append(term(*args)) or seen[-1])
        nodes = int(0.5 / (2.0 * math.pi / (25000.0 + 8000.0)) + 1.0) + 1
        assert nodes == 2628
        phi = sc.make_bump(1.0, 2.0)
        monkeypatch.setattr(sc.kernels, "_MAX_SERIES_TERMS", nodes)
        sc.averaged_smear("schrodinger", "line", 1.0, 2.0, phi, 1e-5)
        assert [r.evaluations for r in seen] == [nodes]
        monkeypatch.setattr(sc.kernels, "_MAX_SERIES_TERMS", nodes - 1)
        with pytest.raises(ParameterError, match="2.63e\\+03 nodes"):
            sc.averaged_smear("schrodinger", "line", 1.0, 2.0, phi, 1e-5)

    @pytest.mark.parametrize("case", ["line", "interval"])
    def test_schrodinger_offdiagonal_makes_no_quadrature_call(self, monkeypatch, case):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("integrate called for an off-diagonal term")
        monkeypatch.setattr(sc.kernels, "integrate", no_quadrature)
        for eps in (1e-3, 1e-1):
            sc.averaged_smear("schrodinger", case, 1.0, 2.0, sc.make_bump(1.0, 2.0), eps)

    def test_schrodinger_smear_refuses_a_kink(self):
        """A tent on [1, 2] is compactly supported but has kinks, so its
        transform decays only like 1/xi^2 and the alias estimate misses tol:
        AccuracyError, whose best estimate lies within its error estimate of
        the integral at 30 digits."""
        tent = lambda t: np.maximum(0.0, 1.0 - np.abs(2.0 * np.asarray(t) - 3.0))
        phi = sc.TestFunction("tent", tent, None, max_order=0, support=(1.0, 2.0))
        eps = 0.01
        with pytest.raises(AccuracyError) as info:
            sc.averaged_smear("schrodinger", "line", 1.0, 2.0, phi, eps)
        value, err = info.value.best_estimate, info.value.error_estimate
        assert _refused(err, value, 1e-12) and err > 1e-9
        with mpmath.workdps(30):
            w = mpmath.mpf(1) / (4 * mpmath.mpf(eps))
            f = lambda t: (1 - abs(2 * t - 3)) / mpmath.sqrt(t) * mpmath.expj(w / t)
            pts = sorted({mpmath.mpf(1), mpmath.mpf(1.5), mpmath.mpf(2)}
                         | {w / (k * mpmath.pi) for k in range(4, 8)
                            if 1 < w / (k * mpmath.pi) < 2})
            ref = complex(mpmath.quad(f, pts))
        assert abs(value - ref) <= err


@pytest.mark.parametrize("call", [
    lambda: sc.heat_kernel("interval", 1e-20, 1.0, 2.0, "spectral_sum"),
    lambda: sc.cylinder_kernel("interval", 1e-20, 1.0, 2.0, "spectral_sum"),
    lambda: sc.cylinder_kernel("interval", 5e-324, 1.0, 2.0, "spectral_sum"),
    lambda: sc.wightman_interval(0.3, 1.0, 2.0, "spectral_sum", n_terms=10**12),
], ids=["heat", "cylinder", "cylinder_subnormal_t", "wightman"])
def test_interval_spectral_sum_refuses_more_than_the_term_budget(monkeypatch, call):
    """Far past the 10^7-term budget the series is refused before any array
    exists, pointing to the closed form."""
    def no_series(*args):
        raise AssertionError("series evaluated past the budget")
    monkeypatch.setattr(sc.kernels, "_sine_series", no_series)
    with pytest.raises(ParameterError, match="budget.*closed_form"):
        call()


@pytest.mark.parametrize("call", [
    lambda t, x, y: sc.heat_kernel("line", t, x, y),
    lambda t, x, y: sc.heat_kernel("interval", t, x, y, "spectral_sum"),
    lambda t, x, y: sc.cylinder_kernel("line", t, x, y),
    lambda t, x, y: sc.schrodinger_kernel("line", t, x, y),
    lambda t, x, y: sc.wightman_interval(t, x, y),
], ids=["heat_line", "heat_interval", "cylinder_line", "schrodinger_line",
        "wightman_interval"])
@pytest.mark.parametrize("t, x, y", [
    (math.nan, 1.0, 2.0), (math.inf, 1.0, 2.0), (-math.inf, 1.0, 2.0),
    (0.5, math.nan, 2.0), (0.5, 1.0, math.inf),
])
def test_non_finite_arguments_rejected(call, t, x, y):
    with pytest.raises(DomainError, match="finite"):
        call(t, x, y)


# The line cylinder Fourier integrand in u = k t as written before the
# half-line fold, over the whole line; the kernel integrates twice it over
# [0, inf).
_LINE_FOURIER = {
    "cylinder": (sc.cylinder_kernel, lambda t, x, y: lambda uu: math.exp(-abs(uu))
                 * math.cos(uu * ((x - y) / t)) / (2.0 * math.pi * t)),
}
_LINE_TOL = 1e-12


def _full_line_quad(f):
    """scipy's quad over the line, with integrate's epsabs, epsrel and limit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, err, info = quad(f, -math.inf, math.inf, epsabs=_LINE_TOL,
                                epsrel=max(_LINE_TOL, 1e-13), limit=400,
                                full_output=1)[:3]
    return value, err, info["neval"]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_LINE_FOURIER)),
       t=st.one_of(st.floats(1e-3, 0.05), st.floats(0.05, 3.0)),
       x=st.floats(-4.0, 4.0), y=st.floats(-4.0, 4.0))
# the full line's estimate is refused: AccuracyError
@example(kind="cylinder", t=0.016605403786932586, x=1.0482850977782032,
         y=2.800417584331015)
def test_line_fourier_route_is_the_full_line_integral_bit_for_bit(kind, t, x, y):
    """The half-line cosine transform gives the full line's value and error."""
    kernel, integrand = _LINE_FOURIER[kind]
    value, err, _ = _full_line_quad(integrand(t, x, y))
    if _refused(err, value, _LINE_TOL):
        with pytest.raises(AccuracyError) as info:
            kernel("line", t, x, y, "spectral_sum")
        assert info.value.best_estimate == value
        assert info.value.error_estimate == err
        assert str(info.value) == (f"quadrature error estimate {err:.2e} "
                                   f"exceeds tol {_LINE_TOL:.2e}")
        return
    got = kernel("line", t, x, y, "spectral_sum")
    assert (got.value, got.error_estimate) == (value, err)
    assert type(got.value) is float


@pytest.mark.parametrize("kind", sorted(_LINE_FOURIER))
@pytest.mark.parametrize("t, x, y", [(0.3, 0.8, 0.1), (0.01, 1.0, 1.0),
                                     (0.018780117783027447, 2.5799651661104637,
                                      2.5040674617684413)])
def test_line_fourier_route_takes_half_the_calls(monkeypatch, kind, t, x, y):
    results = []
    integrate = sc.kernels.integrate

    def recorded(*args, **kwargs):
        results.append(integrate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(sc.kernels, "integrate", recorded)
    kernel, integrand = _LINE_FOURIER[kind]
    kernel("line", t, x, y, "spectral_sum")
    _, _, full_calls = _full_line_quad(integrand(t, x, y))
    assert [r.evaluations for r in results] == [full_calls // 2]
    assert full_calls % 2 == 0


def _heat_line_closed(t, x, y):
    """The line heat closed form and a bound on its rounding: exp's argument
    (x-y)^2/4t = z is formed within 4u of itself, then exp, sqrt, the product
    and the quotient add a few u."""
    z = (x - y) ** 2 / (4.0 * t)
    v = sc.heat_kernel("line", t, x, y).value
    return v, 2.0 ** -53 * (8.0 + 8.0 * z) * v


def _assert_heat_line_route_within_its_bound(t, x, y):
    """The route's value, or the best estimate it refuses, lies within its
    error estimate of the closed form; a refusal is integrate's."""
    closed, rounding = _heat_line_closed(t, x, y)
    try:
        got = sc.heat_kernel("line", t, x, y, "spectral_sum")
    except AccuracyError as info:
        value, err = info.best_estimate, info.error_estimate
        assert _refused(err, value, _LINE_TOL)
        assert str(info) == (f"quadrature error estimate {err:.2e} "
                             f"exceeds tol {_LINE_TOL:.2e}")
        assert abs(value - closed) <= err + rounding
        return None
    assert got.method == "spectral_sum" and type(got.value) is float
    assert not _refused(got.error_estimate, got.value, _LINE_TOL)
    assert abs(got.value - closed) <= got.error_estimate + rounding
    return got


@settings(max_examples=300, deadline=None)
@given(t=st.floats(-6.0, 12.0).map(lambda e: 10.0 ** e),
       x=st.floats(-5.0, 5.0), y=st.one_of(st.none(), st.floats(-5.0, 5.0)))
# the point whose full-line QUADPACK estimate met only the relative bound
@example(t=0.018780117783027447, x=2.5799651661104637, y=2.5040674617684413)
@example(t=1e-6, x=5.0, y=-5.0)         # the most nodes and the deepest cancellation
# the largest error against the estimate in a sweep of 20,000 draws: 0.09 of it
@example(t=1354055.6263821863, x=-3.2957976242389977, y=-2.620989899727978)
@example(t=1e-6, x=1.0, y=None)
def test_heat_line_trapezoid_is_within_its_estimate(t, x, y):
    """On log-uniform t in [1e-6, 1e12] and x, y in [-5, 5] (y = x for None),
    a returned value lies within its error estimate of the closed form, and
    a value that does not meet tol 1e-12 is refused with integrate's message."""
    _assert_heat_line_route_within_its_bound(t, x, x if y is None else y)


@pytest.mark.parametrize("t, x, y", [
    (1e7, 1.0, 1.5), (1e8, 1.0, 1.5), (1e10, 1.0, 1.5), (1e12, 1.0, 1.5),
    (1e-100, 1.0, 1.0),
    *[(10.0 ** -e, 1.0, 1.0) for e in range(5, 21)],
])
def test_heat_line_trapezoid_regressions(t, x, y):
    """Points where dqagie's line route went wrong: 2.29e-23 against 8.92e-5
    at t = 1e7; 0.0 with estimate 0.0 from t = 1e8; -0.318 on the diagonal at
    t = 1e-100; AccuracyError on the diagonal at every decade of [1e-20, 1e-5].
    Each is now resolved, to a few ulp."""
    got = _assert_heat_line_route_within_its_bound(t, x, y)
    assert got is not None and got.error_estimate < 1e-14 * got.value
    assert got.truncation == 13


def test_heat_line_trapezoid_makes_no_quadrature_call(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrate called by the heat line route")
    monkeypatch.setattr(sc.kernels, "integrate", no_quadrature)
    for t, x, y in [(0.3, 0.8, 0.1), (0.01, 1.0, 1.0), (1e-4, 0.0, 1.0), (1e9, 2.0, -3.0)]:
        assert sc.heat_kernel("line", t, x, y, "spectral_sum").truncation > 0


def test_heat_line_trapezoid_refuses_more_than_the_node_budget(monkeypatch):
    """|x-y|/sqrt(t) = 1e8 would need about 4e8 nodes: refused, naming the
    closed form, before any array exists."""
    def no_array(*args, **kwargs):
        raise AssertionError("nodes built past the budget")
    monkeypatch.setattr(sc.kernels.np, "arange", no_array)
    for x in (1e8, 1.7e308):
        with pytest.raises(ParameterError, match="budget.*closed_form"):
            sc.heat_kernel("line", 1.0, x, -x, "spectral_sum")


@pytest.mark.parametrize("t, x, y", [(3e4, 1.0, 1.5), (1e6, 1.0, 1.5),
                                     (1e12, 1.0, 1.5), (1e-20, 1.0, 1.0)])
def test_cylinder_line_route_regressions(t, x, y):
    """Points where the route in k went wrong: 2.35e-31 (estimate 4.7e-31)
    against 1.06e-5 at t = 3e4; 0.0 with estimate 0.0 from t = 1e6; -0.318
    (estimate 5.1e-13) on the diagonal at t = 1e-20. In u = k t each is now
    within its estimate of the closed form, or refused."""
    closed = sc.cylinder_kernel("line", t, x, y).value
    try:
        got = sc.cylinder_kernel("line", t, x, y, "spectral_sum")
    except AccuracyError as info:
        assert abs(info.best_estimate - closed) <= info.error_estimate
        return
    assert abs(got.value - closed) <= got.error_estimate + 1e-15 * closed
    assert got.value > 0.5 * closed


@pytest.mark.parametrize("method", ["image_sum", "closed_form"])
@pytest.mark.parametrize("t", [2.5e13, 1e20, 1e300])
def test_heat_interval_image_sum_refuses_more_than_the_image_budget(monkeypatch, method, t):
    """From t of about 2.47e13 the image sum would need more than 10^7
    images (at t = 1e300 it never ended): refused, naming the eigen-series,
    before any image is listed. The series itself takes 8 terms there, and
    from t = 1 on it is the closed form."""
    def no_images(*args):
        raise AssertionError("images listed past the budget")
    monkeypatch.setattr(sc.kernels, "_image_array", no_images)
    series = sc.heat_kernel("interval", t, 1.0, 2.0, "spectral_sum")
    assert series.truncation == 8
    if method == "closed_form":
        assert sc.heat_kernel("interval", t, 1.0, 2.0, method) == series
        return
    with pytest.raises(ParameterError, match="budget of 10000000; use method spectral_sum"):
        sc.heat_kernel("interval", t, 1.0, 2.0, method)


def test_heat_interval_image_budget_is_the_image_count(monkeypatch):
    """The last t whose 2 nimg + 1 images fit the budget still lists them."""
    seen = []
    monkeypatch.setattr(sc.kernels, "_image_array",
                        lambda x, y, n: seen.append(n) or (np.empty(0), np.empty(0)))
    monkeypatch.setattr(sc.kernels, "_MAX_SERIES_TERMS", 2 * 1002 + 1)
    t = lambda j: (2.0 * math.pi * (j + 0.5)) ** 2 / 40.0   # int(sqrt(40 t)/2pi) = j
    assert sc.heat_kernel("interval", t(1000), 1.0, 2.0, "image_sum").truncation == 2005
    assert seen == [1002]
    with pytest.raises(ParameterError, match="2.01e\\+03 images"):
        sc.heat_kernel("interval", t(1001), 1.0, 2.0, "image_sum")


@pytest.mark.parametrize("case, t, x, y, route", [
    ("interval", 1e-9, 1.0, 1.0, "image_sum"),
    ("interval", 1e-12, 0.0, 0.0, "image_sum"),
    ("interval", 1e3, 1.0, 2.0, "spectral_sum"),
    ("line", 1e-300, 1.0, 1.0, "spectral_sum"),
    ("line", 1e-160, 1.0, 1.0, "spectral_sum"),
    ("line", 1e200, 1.0, 1.0, "spectral_sum"),
    ("line", 1.0, 1e200, -1.0, "spectral_sum"),
])
def test_cylinder_closed_form_refusals(case, t, x, y, route):
    """Where a closed form divides by a 0 it rounded to (or by a subnormal
    that lost its digits), or by an inf (1e200 gave 0.0 for 3.2e-201), or
    cosh t overflows, it raises ParameterError naming a route that still
    evaluates, not a bare arithmetic error or a wrong value."""
    with pytest.raises(ParameterError, match=f"use method {route}"):
        sc.cylinder_kernel(case, t, x, y)


def _old_cylinder_interval_closed(t, x, y):
    return (math.sinh(t) / (math.cosh(t) - math.cos(x - y))
            - math.sinh(t) / (math.cosh(t) - math.cos(x + y))) / (2.0 * math.pi)


@settings(max_examples=300, deadline=None)
@given(t=st.floats(-7.5, 2.8).map(lambda e: 10.0 ** e),
       x=st.floats(0.0, math.pi), y=st.floats(0.0, math.pi),
       near=st.one_of(st.none(), st.just(0.0), st.floats(-1e-5, 1e-5)))
@example(t=1e-6, x=1.0, y=1.0, near=None)
@example(t=1e-7, x=1.0, y=1.0, near=None)
def test_cylinder_interval_closed_form_reports_its_cancellation(t, x, y, near):
    """The closed form keeps its bits, and lies within its error estimate of
    the same formula at 40 digits: near the diagonal (y = x + near) cosh t
    and cos(x - y) cancel to a few digits at small t."""
    y = y if near is None else x + near
    assume(0.0 <= y <= math.pi and (t > 1.5e-8 or x != y))
    got = sc.cylinder_kernel("interval", t, x, y)
    assert got.value == _old_cylinder_interval_closed(t, x, y)
    with mpmath.workdps(40):
        t_, x_, y_ = mpmath.mpf(t), mpmath.mpf(x), mpmath.mpf(y)
        exact = (mpmath.sinh(t_) / (mpmath.cosh(t_) - mpmath.cos(x_ - y_))
                 - mpmath.sinh(t_) / (mpmath.cosh(t_) - mpmath.cos(x_ + y_))) / (2 * mpmath.pi)
        assert abs(got.value - exact) <= got.error_estimate


def test_cylinder_interval_closed_form_estimate_at_small_t():
    """At (1e-6, 1, 1) the closed form is off by 8.9e-5 relative and at 1e-7
    by 2.1%; it used to report 1e-15 |v| at both."""
    for t, off in [(1e-6, 8.8e-5), (1e-7, 2e-2)]:
        got = sc.cylinder_kernel("interval", t, 1.0, 1.0)
        image = sc.cylinder_kernel("interval", t, 1.0, 1.0, "image_sum")
        assert abs(got.value - image.value) > off * abs(image.value)
        assert got.error_estimate > abs(got.value - image.value)


# ------------------------------------------ one eigen-series, one image list
# Each interval series and image sum as it was written out by hand before
# every kernel went through spectral._sine_series and kernels._image_array. The
# shared constructions must give these doubles bit for bit.

def _ref_heat_series(t, x, y):
    kmax = max(8, int(math.sqrt(40.0 / t)) + 1)
    ks = np.arange(1, kmax + 1)
    terms = (2.0 / math.pi) * np.sin(ks * x) * np.sin(ks * y) * np.exp(-ks**2 * t)
    return _exact_sum(terms)


def _ref_cylinder_series(t, x, y):
    kmax = max(8, int(40.0 / t) + 1)
    ks = np.arange(1, kmax + 1)
    terms = (2.0 / math.pi) * np.sin(ks * x) * np.sin(ks * y) * np.exp(-ks * t)
    return _exact_sum(terms)


def _ref_heat_images(t, x, y):
    nimg = max(2, int(math.sqrt(40.0 * t) / (2.0 * math.pi)) + 2)
    vals = []
    for n in range(-nimg, nimg + 1):
        vals.append(math.exp(-((x - y - 2.0 * n * math.pi) ** 2) / (4.0 * t)))
        vals.append(-math.exp(-((x + y - 2.0 * n * math.pi) ** 2) / (4.0 * t)))
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    return pref * math.fsum(vals)


def _ref_cylinder_images(t, x, y):
    M = 400
    vals = []
    for n in range(-M, M + 1):
        vals.append(1.0 / ((x - y - 2.0 * n * math.pi) ** 2 + t * t))
        vals.append(-1.0 / ((x + y - 2.0 * n * math.pi) ** 2 + t * t))
    total = math.fsum(vals)
    # int_{M+1/2}^inf of the four Lorentzians in u, 1/((c -+ 2 pi u)^2 + t^2)
    # (c = x -+ y, signed), is the sum of atan(t/(w -+ c))/(2 pi t), w = 2 pi (M + 1/2),
    # which folds into one arctangent
    w = 2.0 * math.pi * (M + 0.5)
    g = 8.0 * w * x * y / (((w - x + y) * (w - x - y) + t * t)
                           * ((w + x - y) * (w + x + y) + t * t) + 4.0 * (y * t) * (y * t))
    z = g * t
    corr = -(math.atan(z) / z if z else 1.0) * g / (2.0 * math.pi)
    return t / math.pi * (total + corr)


def _ref_schrodinger_images(t, x, y):
    phase = cmath.exp(-1j * math.copysign(1.0, t) * math.pi / 4.0)
    pref = phase / math.sqrt(4.0 * math.pi * abs(t))
    total = 0.0 + 0.0j
    for n in range(-8, 8 + 1):
        total += cmath.exp(1j * (x - y - 2.0 * n * math.pi) ** 2 / (4.0 * t))
        total -= cmath.exp(1j * (x + y - 2.0 * n * math.pi) ** 2 / (4.0 * t))
    return pref * total


def _ref_smear_pairs(x, y):
    pairs = []
    for n in range(-6, 6 + 1):
        pairs.append((x - y - 2.0 * n * math.pi, +1.0))
        pairs.append((x + y - 2.0 * n * math.pi, -1.0))
    pairs.sort(key=lambda p: abs(p[0]))
    return pairs


def _outcome(f, *args):
    """The value f returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:    # both sides must fail alike
        return type(exc), str(exc)


_T = st.floats(1e-3, 2.0)
_X = st.floats(0.0, math.pi)


@settings(max_examples=200, deadline=None)
@given(t=_T, x=_X, y=_X)
def test_interval_eigen_series_bit_for_bit(t, x, y):
    heat = sc.heat_kernel("interval", t, x, y, "spectral_sum").value
    cylinder = sc.cylinder_kernel("interval", t, x, y, "spectral_sum").value
    assert heat == _ref_heat_series(t, x, y) and type(heat) is float
    assert cylinder == _ref_cylinder_series(t, x, y) and type(cylinder) is float


@settings(max_examples=100, deadline=None)
@given(t=_T, x=_X, y=_X)
def test_interval_image_sums_bit_for_bit(t, x, y):
    assert sc.heat_kernel("interval", t, x, y, "image_sum").value == \
        _ref_heat_images(t, x, y)
    cyl = _outcome(lambda: sc.cylinder_kernel("interval", t, x, y, "image_sum").value)
    assert cyl == _outcome(_ref_cylinder_images, t, x, y)
    for s in (t, -t):
        got = sc.schrodinger_kernel("interval", s, x, y, "image_sum").value
        assert got == _ref_schrodinger_images(s, x, y)


def _ref_images(x, y, n):
    """The Dirichlet images (x -+ y - 2 pi j, +-1.0), j = -n..n, as a list."""
    want = []
    for j in range(-n, n + 1):
        want.append((x - y - 2.0 * j * math.pi, +1.0))
        want.append((x + y - 2.0 * j * math.pi, -1.0))
    return want


@settings(max_examples=100, deadline=None)
@given(x=_X, y=_X, n=st.integers(0, 400))
def test_images_list_the_dirichlet_reflections_in_order(x, y, n):
    d, s = sc.kernels._image_array(x, y, n)
    assert list(zip(d.tolist(), s.tolist())) == _ref_images(x, y, n)


@settings(max_examples=200, deadline=None)
@given(t=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e), x=_X, y=_X)
def test_cylinder_image_array_sum_is_the_list_sum(t, x, y):
    """The interval cylinder image sum forms its Lorentzians as one array:
    the same distances, squares and quotients as the list form, bit for bit,
    and the same correctly rounded sum."""
    d, s = sc.kernels._image_array(x, y, 400)
    assert list(zip(d.tolist(), s.tolist())) == _ref_images(x, y, 400)
    listed = [sj / (dj ** 2 + t * t) for dj, sj in _ref_images(x, y, 400)]
    arrayed = s / (np.float_power(d, 2.0) + t * t)
    assert arrayed.tolist() == listed
    assert _exact_sum(arrayed) == math.fsum(listed)
    assert sc.cylinder_kernel("interval", t, x, y, "image_sum").value == \
        _ref_cylinder_images(t, x, y)


def _mp_cylinder_interval(t, x, y):
    """(1/pi) Re(z_-/(1 - z_-) - z_+/(1 - z_+)), z_-+ = e^{-t + i(x -+ y)}, at 40 digits."""
    with mpmath.workdps(40):
        t_, x_, y_ = mpmath.mpf(t), mpmath.mpf(x), mpmath.mpf(y)
        zm, zp = mpmath.exp(-t_ + 1j * (x_ - y_)), mpmath.exp(-t_ + 1j * (x_ + y_))
        return mpmath.re(zm / (1 - zm) - zp / (1 - zp)) / mpmath.pi


@settings(max_examples=150, deadline=None)
@given(t=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
       x=st.floats(0.01, math.pi - 0.01), y=st.floats(0.01, math.pi - 0.01),
       on_diagonal=st.integers(0, 9).map(lambda k: k == 0))
# QUADPACK's tail integral was 7.6e-16, 9.1e-15 and 6.1e-25 off here, and the
# estimate read 9.7e-18, 4.2e-19 and 0.0
@example(t=10.0, x=1.0, y=6.103515625e-05, on_diagonal=False)
@example(t=1e6, x=1.0, y=2.0, on_diagonal=False)
@example(t=1e10, x=1.0, y=2.0, on_diagonal=False)
@example(t=1e-6, x=math.pi - 0.01, y=1.0, on_diagonal=True)    # x + y - 2 pi cancels
def test_cylinder_interval_image_sum_is_within_its_estimate(t, x, y, on_diagonal):
    """The image sum lies within its estimate, plus 4u of the value, of the
    kernel at 40 digits; y = x one draw in ten."""
    y = x if on_diagonal else y
    got = sc.cylinder_kernel("interval", t, x, y, "image_sum")
    ref = _mp_cylinder_interval(t, x, y)
    assert abs(got.value - ref) <= got.error_estimate + 4 * _U * abs(ref)


@settings(max_examples=25, deadline=None)
@given(x=st.floats(0.1, 3.0), y=st.floats(0.1, 3.0), eps=st.floats(1e-3, 0.1))
def test_averaged_smear_visits_the_reference_pairs_in_order(x, y, eps):
    """The interval smear walks the sorted image list, nearest image first."""
    seen = []
    term = sc.kernels._smear_term

    def recorded(phi, lo, hi, eps, r2, *args):
        seen.append(r2)
        return term(phi, lo, hi, eps, r2, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc.kernels, "_smear_term", recorded)
        sc.averaged_smear("schrodinger", "interval", x, y, sc.make_bump(0.5, 1.5), eps)
    want = [d * d for d, _ in _ref_smear_pairs(x, y) if d != 0.0]
    assert seen and seen == want[:len(seen)]


def _mp_decaying_smear(kind, case, x, y, eps, support, dps=40):
    """int G(eps t, x, y) phi(t) dt for the bump phi on ``support``, at
    ``dps`` digits by mpmath's tanh-sinh, split where the integrand peaks
    (heat at small eps peaks near the top of the support, as sharply as
    exp(-(x-y)^2/(4 eps t)) rises): the heat interval kernel by its
    images up to exponent 200, the cylinder interval one as
    (1/pi) Re(z_-/(1 - z_-) - z_+/(1 - z_+)), z_-+ = e^{-t + i(x -+ y)}."""
    with mpmath.workdps(dps):
        e, x_, y_ = mpmath.mpf(eps), mpmath.mpf(x), mpmath.mpf(y)
        a, b = (mpmath.mpf(v) for v in support)
        pi = mpmath.pi

        def kernel(t):
            if kind == "heat" and case == "line":
                return mpmath.exp(-(x_ - y_) ** 2 / (4 * t)) / mpmath.sqrt(4 * pi * t)
            if kind == "heat":
                n = int(math.sqrt(800.0 * float(t)) / (2.0 * math.pi)) + 2
                return mpmath.fsum(mpmath.exp(-(x_ - y_ - 2 * j * pi) ** 2 / (4 * t))
                                   - mpmath.exp(-(x_ + y_ - 2 * j * pi) ** 2 / (4 * t))
                                   for j in range(-n, n + 1)) / mpmath.sqrt(4 * pi * t)
            if case == "line":
                return t / (pi * ((x_ - y_) ** 2 + t * t))
            zm, zp = mpmath.exp(-t + 1j * (x_ - y_)), mpmath.exp(-t + 1j * (x_ + y_))
            return mpmath.re(zm / (1 - zm) - zp / (1 - zp)) / pi

        def f(t):
            u = (2 * t - a - b) / (b - a)
            q = 1 - u * u       # a node may round onto an end of the support
            return kernel(e * t) * mpmath.exp(-1 / q) if q > 0 else mpmath.mpf(0)

        # quad stops on an absolute error, and a value of 1e-147 has none:
        # scale the integrand to 1 at its largest value on a grid, split there
        top, at = max((abs(f(t)), t) for t in mpmath.linspace(a, b, 201)[1:-1])
        if not top:
            return mpmath.mpf(0)
        return top * mpmath.quad(lambda t: f(t) / top, [a, at, b])


def _decaying_smear_outcome(kind, case, x, y, phi, eps):
    """averaged_smear's value and the estimate of its trapezoidal sum, or the
    AccuracyError it raises."""
    seen = []
    rule = sc.kernels._decaying_smear
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc.kernels, "_decaying_smear",
                   lambda *args: seen.append(rule(*args)) or seen[-1])
        value = sc.averaged_smear(kind, case, x, y, phi, eps)
    assert len(seen) == 1 and value == seen[0].value
    return value, seen[0].error_estimate


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["heat", "cylinder"]),
       case=st.sampled_from(["line", "interval"]),
       x=st.floats(0.1, 3.0), y=st.floats(0.1, 3.0), eps=st.floats(1e-3, 0.1))
# the QUADPACK route raised AccuracyError here: the sinh/cosh closed form
# cancels on the diagonal at eps t ~ 1e-3, the q = e^{-t} form does not
@example(kind="cylinder", case="interval", x=1.0, y=1.0, eps=1e-3)
@example(kind="heat", case="interval", x=1.0, y=1.0, eps=0.1)
def test_averaged_smear_decaying_profiles_are_within_their_estimate(kind, case, x, y, eps):
    """Each heat and cylinder smear with a bump lies within its estimate,
    plus 4u of itself, of the smear at 40 digits; a refusal is one that the
    QUADPACK route over the kernel's pointwise closed form refuses too."""
    phi = sc.make_bump(0.5, 1.5)
    ref = _mp_decaying_smear(kind, case, x, y, eps, (0.5, 1.5))
    try:
        got, estimate = _decaying_smear_outcome(kind, case, x, y, phi, eps)
    except AccuracyError:
        kernel = {"heat": sc.heat_kernel, "cylinder": sc.cylinder_kernel}[kind]
        with pytest.raises(AccuracyError):
            sc.integrate(lambda t: kernel(case, eps * t, x, y).value * phi(t),
                         0.5, 1.5, tol=1e-12)
        return
    assert type(got) is complex
    assert abs(got - ref) <= estimate + 4 * _U * abs(ref)


def test_heat_line_smear_pin():
    """At this bench point the QUADPACK route returned 3.482716732441589e-13,
    1.8e-6 relative off the smear at 40 digits."""
    got, estimate = _decaying_smear_outcome(
        "heat", "line", 2.2465434657609142, 0.8663952475519332, sc.make_bump(1.0, 2.0), 0.01)
    assert abs(got - 3.482723112453722e-13) <= estimate
    assert abs(got - 3.482716732441589e-13) > 1e3 * estimate


@pytest.mark.parametrize("kind, case, x, y, eps, match", [
    ("heat", "line", 1e200, -1.0, 0.01, "overflows"),
    ("cylinder", "line", 1e200, -1.0, 0.01, "overflows"),
    ("heat", "interval", 1.0, 2.0, 1e-320, "normal doubles"),
    ("cylinder", "line", 1.0, 1.0, 1e-160, "normal doubles"),
    ("cylinder", "interval", 1.0, 1.0, 1e-160, "normal doubles"),
    ("heat", "interval", 1.0, 2.0, 1e300, "budget"),
])
def test_decaying_smear_refuses_what_doubles_cannot_hold(kind, case, x, y, eps, match):
    """A square that overflows, an eps t or a denominator below the normal
    doubles, or more images than the budget: a ParameterError, not a NaN,
    an inf or a 0.0."""
    with pytest.raises(ParameterError, match=match):
        sc.averaged_smear(kind, case, x, y, sc.make_bump(1.0, 2.0), eps)


@pytest.mark.parametrize("kind", ["heat", "cylinder"])
@pytest.mark.parametrize("case", ["line", "interval"])
@pytest.mark.parametrize("x, y", [(1.0, 2.0), (1.0, 1.0)])
def test_averaged_smear_exp_decay_keeps_the_quadrature_route(monkeypatch, kind, case, x, y):
    """A phi whose support reaches 0 or infinity is QUADPACK over the
    pointwise closed form, bit for bit."""
    kernel = {"heat": sc.heat_kernel, "cylinder": sc.cylinder_kernel}[kind]
    phi, eps = sc.make_exp_decay(1.0), 0.05
    f = lambda t: kernel(case, eps * t, x, y).value * phi(t)
    want = _outcome(lambda: complex(sc.integrate(f, 0.0, math.inf, tol=1e-12).value))
    monkeypatch.setattr(sc.kernels, "_decaying_smear", None)
    assert _outcome(sc.averaged_smear, kind, case, x, y, phi, eps) == want


@pytest.mark.parametrize("kind", ["heat", "cylinder", "schrodinger"])
@pytest.mark.parametrize("case", ["line", "interval"])
@pytest.mark.parametrize("x, y", [(1.0, 2.0), (1.0, 1.0)])
@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_averaged_smear_refuses_non_finite_eps(monkeypatch, kind, case, x, y, eps):
    """One ParameterError for every kind, before any quadrature."""
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature before the eps check")
    monkeypatch.setattr(sc.kernels, "_smear_nodes", no_quadrature)
    monkeypatch.setattr(sc.kernels, "integrate", no_quadrature)
    with pytest.raises(ParameterError, match="eps must be a positive finite number"):
        sc.averaged_smear(kind, case, x, y, sc.make_bump(1.0, 2.0), eps)


_U = 2.0 ** -53


@settings(max_examples=20, deadline=None)
@given(d=st.floats(0.1, 5.0), sign=st.sampled_from([-1.0, 1.0]),
       eps=st.floats(-4.0, -1.0).map(lambda e: 10.0 ** e),
       lo=st.floats(0.3, 3.0), width=st.floats(0.1, 2.0))
# criterion 7a's onset, 400 lobes: without the rounding term the value is
# beyond its estimate
@example(d=1.0, sign=1.0, eps=1e-4, lo=1.0, width=1.0)
@example(d=1.0, sign=-1.0, eps=1e-3, lo=1.0, width=1.0)   # the bench geometry
def test_schrodinger_line_smear_is_within_its_estimate(d, sign, eps, lo, width):
    """On omega = d^2/(4 eps) up to 2e3 and bumps on [lo, lo + width], the
    line smear lies within its estimate, plus 4u of the sum of its terms'
    magnitudes, of the smear at 30 digits (Gauss-Legendre on each lobe); a
    refusal carries a best estimate that does too."""
    hi = lo + width
    omega = d * d / (4.0 * eps)
    assume(omega <= 2e3 and omega * (1.0 / lo - 1.0 / hi) <= 500.0)  # <= 160 lobes
    phi = sc.make_bump(lo, hi)
    pref = abs(1.0 / math.sqrt(4.0 * math.pi * eps))
    terms = pref * sc.integrate(lambda t: phi(t) / np.sqrt(t), lo, hi, tol=1e-14).value
    ref = _mp_offdiagonal_smear(eps, d, (lo, hi), method="gauss-legendre")
    seen = []
    term = sc.kernels._smear_term
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc.kernels, "_smear_term",
                   lambda *args: seen.append(term(*args)) or seen[-1])
        try:
            got = sc.averaged_smear("schrodinger", "line", sign * d, 0.0, phi, eps,
                                    tol=1e-13)
        except AccuracyError as info:
            got = cmath.exp(-1j * math.pi / 4.0) * pref * info.best_estimate
            seen.append(sc.QuadratureResult(info.best_estimate, info.error_estimate, 0))
            assert _refused(info.error_estimate, info.best_estimate, 1e-13)
    assert len(seen) == 1
    assert abs(got - ref) <= pref * seen[0].error_estimate + 4.0 * _U * terms


@settings(max_examples=30, deadline=None)
@given(x=st.floats(0.0, math.pi), y=st.floats(0.0, math.pi),
       eps=st.floats(-3.0, -1.0).map(lambda e: 10.0 ** e),
       lo=st.floats(0.5, 2.0), width=st.floats(0.2, 2.0))
@example(x=1.0, y=2.0, eps=1e-3, lo=1.0, width=1.0)
@example(x=1.0, y=1.0, eps=1e-2, lo=1.0, width=1.0)      # the diagonal image
def test_schrodinger_interval_smear_is_its_signed_image_sum(x, y, eps, lo, width):
    """The interval smear is the line smear at each image distance, signed,
    added nearest first until the first image beyond |x| + |y| below tol."""
    phi = sc.make_bump(lo, lo + width)
    want = 0j
    for d, sign in _ref_smear_pairs(x, y):
        contribution = sign * sc.averaged_smear("schrodinger", "line", d, 0.0, phi, eps)
        want += contribution
        if abs(d) > x + y and abs(contribution) < 1e-12:
            break
    assert sc.averaged_smear("schrodinger", "interval", x, y, phi, eps) == want


@settings(max_examples=300, deadline=None)
@given(t=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
       x=st.floats(-5.0, 5.0), y=st.one_of(st.none(), st.floats(-5.0, 5.0)))
@example(t=1.46e-3, x=1.83, y=0.0)          # off by 445 times the old 5e-17 |v|
@example(t=1e-6, x=5.0, y=-5.0)             # exp(-2.5e7) is 0.0
def test_heat_line_closed_form_is_within_its_estimate(t, x, y):
    """The line closed form is the node-array form e^{-a} (4 pi t)^{-1/2} on
    numpy's exp and lies within its estimate, plus 4u of itself, of
    (4 pi t)^{-1/2} exp(-(x-y)^2/4t) at 40 digits."""
    y = x if y is None else y
    got = sc.heat_kernel("line", t, x, y)
    tau = np.array([t])
    assert got.value == (np.exp(-((x - y) ** 2 / (4.0 * tau)))
                         * (1.0 / np.sqrt(4.0 * math.pi * tau)))[0]
    with mpmath.workdps(40):
        t_, d = mpmath.mpf(t), mpmath.mpf(x) - mpmath.mpf(y)
        ref = mpmath.exp(-d * d / (4 * t_)) / mpmath.sqrt(4 * mpmath.pi * t_)
        assert abs(got.value - ref) <= got.error_estimate + 4 * _U * ref


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["heat", "cylinder"]),
       t=st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e),
       x=st.floats(-1e3, 1e3), y=st.one_of(st.none(), st.floats(-1e3, 1e3)))
@example(kind="cylinder", t=1e200, x=1.0, y=1.0)    # t * t overflows
@example(kind="heat", t=1e308, x=0.0, y=1.0)        # 4 pi t overflows
@example(kind="heat", t=1e-320, x=1.0, y=1.0)
def test_line_closed_forms_are_the_one_node_profile(kind, t, x, y):
    """The pointwise heat and cylinder line closed forms (under both of their
    method names) are the smears' closed form on the one-node array [t]:
    value and estimate bit for bit, or the same refusal, naming spectral_sum
    where the profile's t leaves the doubles."""
    y = x if y is None else y
    kernel = {"heat": sc.heat_kernel, "cylinder": sc.cylinder_kernel}[kind]
    try:
        with np.errstate(over="ignore"):
            g, bound = sc.kernels._smear_profile(kind, "line", x, y, np.array([t]))
    except ParameterError as info:
        for method in ("closed_form", "image_sum"):
            with pytest.raises(ParameterError, match="use method spectral_sum") as got:
                kernel("line", t, x, y, method)
            assert str(got.value).startswith(str(info))
        return
    for method in ("closed_form", "image_sum"):
        got = kernel("line", t, x, y, method)
        assert type(got.value) is float and got.method == "closed_form"
        assert got.value == g[0] and got.error_estimate == bound[0]


@settings(max_examples=300, deadline=None)
@given(t=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
       x=st.floats(-5.0, 5.0), y=st.one_of(st.none(), st.floats(-5.0, 5.0)))
def test_cylinder_line_closed_form_is_within_its_estimate(t, x, y):
    """The line closed form keeps its bits and lies within its estimate 10u|v|
    of t/(pi((x-y)^2 + t^2)) at 40 digits, with no slack; the old 5e-17 |v|
    was below the error in about two draws of three."""
    y = x if y is None else y
    got = sc.cylinder_kernel("line", t, x, y)
    assert got.value == t / (math.pi * ((x - y) ** 2 + t * t))
    with mpmath.workdps(40):
        t_, d = mpmath.mpf(t), mpmath.mpf(x) - mpmath.mpf(y)
        ref = t_ / (mpmath.pi * (d * d + t_ * t_))
        assert abs(got.value - ref) <= got.error_estimate


@pytest.mark.parametrize("t, x, y, match", [
    (1.0, 1e200, -1.0, "overflows"),        # (x - y) ** 2
    (1e308, 0.0, 1.0, "spectral_sum"),      # 4 pi t: the value read 0.0
    (1.44e307, 0.0, 1.0, "spectral_sum"),
], ids=["square", "modulus", "modulus-edge"])
def test_heat_line_closed_form_refuses_what_overflows(t, x, y, match):
    """(x - y) ** 2 overflows from |x - y| of about 1.34e154, 4 pi t from t of
    about 1.43e307: a ParameterError, where it used to be a bare OverflowError
    or a value 0.0 (the cylinder's is among test_cylinder_closed_form_refusals).
    The 4 pi t refusal names spectral_sum, whose value holds there."""
    for method in ("closed_form", "image_sum"):
        with pytest.raises(ParameterError, match=match):
            sc.heat_kernel("line", t, x, y, method)
    if match == "spectral_sum":
        got = sc.heat_kernel("line", t, x, y, "spectral_sum")
        ref = 1.0 / (2.0 * math.sqrt(math.pi) * math.sqrt(t))
        assert abs(got.value - ref) <= got.error_estimate + 4 * _U * ref


def test_heat_line_closed_form_keeps_its_bits_below_the_overflow():
    t = 1.4e307
    got = sc.heat_kernel("line", t, 0.0, 1.0)
    assert got.value == math.exp(-(1.0 ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    assert got.value > 0.0


@settings(max_examples=300, deadline=None)
@given(t=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e), sign=st.sampled_from([1.0, -1.0]),
       x=st.floats(-5.0, 5.0), y=st.one_of(st.none(), st.floats(-5.0, 5.0)))
@example(t=1e-6, sign=-1.0, x=5.0, y=-5.0)     # phase 2.5e7: about 4e-9 relative
@example(t=1e6, sign=1.0, x=0.0, y=None)
def test_schrodinger_line_closed_form_is_within_its_estimate(t, sign, x, y):
    """The line closed form keeps its bits and lies within its estimate of
    e^{-i sgn(t) pi/4} (4 pi |t|)^{-1/2} e^{i(x-y)^2/4t} at 40 digits."""
    t, y = sign * t, x if y is None else y
    got = sc.schrodinger_kernel("line", t, x, y)
    phase = cmath.exp(-1j * math.copysign(1.0, t) * math.pi / 4.0)
    pref = phase / math.sqrt(4.0 * math.pi * abs(t))
    assert got.value == pref * cmath.exp(1j * (x - y) ** 2 / (4.0 * t))
    with mpmath.workdps(40):
        t_, d = mpmath.mpf(t), mpmath.mpf(x) - mpmath.mpf(y)
        ref = (mpmath.expjpi(-mpmath.sign(t_) / 4) / mpmath.sqrt(4 * mpmath.pi * abs(t_))
               * mpmath.expj(d * d / (4 * t_)))
        assert abs(got.value - ref) <= got.error_estimate


@pytest.mark.parametrize("t, x, y", [
    (1.0, 1e200, -1.0),         # (x - y) ** 2 overflows
    (1e-320, 1.0, 0.0),         # the phase (x-y)^2/4t overflows
    (1.0, 1e308, -1e308),       # x - y is inf
    (1e308, 1.0, 0.0),          # 4 pi |t| overflows: the modulus would be 0
], ids=["square", "phase", "difference", "modulus"])
def test_schrodinger_line_closed_form_refuses_what_overflows(t, x, y):
    """Each was an OverflowError or ValueError traceback, or a value 0."""
    for s in (t, -t):
        with pytest.raises(ParameterError, match="overflows"):
            sc.schrodinger_kernel("line", s, x, y)


def test_schrodinger_line_closed_form_at_subnormal_t():
    """4 pi |t| rounds by up to 4% at t = 5e-324; the estimate says so."""
    got = sc.schrodinger_kernel("line", 5e-324, 1.0, 1.0)
    with mpmath.workdps(40):
        ref = mpmath.expjpi(mpmath.mpf(-1) / 4) / mpmath.sqrt(4 * mpmath.pi * mpmath.mpf(5e-324))
        assert 1e-3 * abs(ref) < abs(got.value - ref) <= got.error_estimate


def _mp_heat_interval(t, x, y):
    """The interval heat kernel at 60 digits: images for t < 1 (the nearest,
    up to exponent 200), the eigen-series e^{-k^2 t} up to k^2 t = 200 else."""
    with mpmath.workdps(60):
        t_, x_, y_ = mpmath.mpf(t), mpmath.mpf(x), mpmath.mpf(y)
        if t < 1.0:
            n = int(math.sqrt(800.0 * t) / (2.0 * math.pi)) + 2
            total = mpmath.fsum(
                mpmath.exp(-(x_ - y_ - 2 * j * mpmath.pi) ** 2 / (4 * t_))
                - mpmath.exp(-(x_ + y_ - 2 * j * mpmath.pi) ** 2 / (4 * t_))
                for j in range(-n, n + 1))
            return total / mpmath.sqrt(4 * mpmath.pi * t_)
        total = mpmath.fsum(mpmath.exp(-k * k * t_) * mpmath.sin(k * x_) * mpmath.sin(k * y_)
                            for k in range(1, int(math.sqrt(200.0 / t)) + 2))
        return 2 * total / mpmath.pi


@settings(max_examples=150, deadline=None)
@given(t=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
       x=st.floats(0.01, math.pi - 0.01), y=st.one_of(st.none(), st.floats(0.01, math.pi - 0.01)))
@example(t=2e-4, x=math.pi - 0.01, y=None)      # x + y - 2 pi cancels: 7x the u a_j form
@example(t=1e-6, x=0.01, y=math.pi - 0.01)      # every Gaussian underflows
@example(t=1e6, x=1.0, y=2.0)
def test_heat_interval_image_sum_is_within_its_estimate(t, x, y):
    """The image sum keeps its bits and lies within its estimate of the
    kernel at 60 digits. Below t = 1 it is the closed form; from t = 1 on the
    closed form is the eigen-series, within its estimate too."""
    y = x if y is None else y
    got = sc.heat_kernel("interval", t, x, y, "image_sum")
    ref = _mp_heat_interval(t, x, y)
    assert got.value == _ref_heat_images(t, x, y)
    assert abs(got.value - ref) <= got.error_estimate
    closed = sc.heat_kernel("interval", t, x, y)
    if t < 1.0:
        assert closed == got
    else:
        assert closed.method == "spectral_sum"
        assert abs(closed.value - ref) <= closed.error_estimate


@pytest.mark.parametrize("t", [20.0, 200.0])
def test_heat_interval_closed_form_is_the_series_at_large_t(t):
    """The image sum, which the closed form was at every t, returned
    1.0457e-9 at t = 20 (value 1.0040e-9) and 9.2e-9 at t = 200 (value
    6.7e-88); from t = 1 on the closed form is the 8-term eigen-series."""
    got = sc.heat_kernel("interval", t, 1.0, 2.0)
    assert (got.method, got.truncation) == ("spectral_sum", 8)
    ref = _mp_heat_interval(t, 1.0, 2.0)
    assert abs(got.value - ref) <= got.error_estimate <= 1e-13 * abs(ref)


@settings(max_examples=200, deadline=None)
@given(t=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
       x=st.floats(0.01, math.pi - 0.01), y=st.floats(0.01, math.pi - 0.01))
@example(t=1e-6, x=1.0, y=2.0)      # the series cancels to 0 from about 886
@example(t=1e6, x=1.0, y=2.0)       # every term and the tail underflow
def test_heat_interval_series_is_within_its_estimate(t, x, y):
    """The eigen-series keeps its bits and lies within its estimate of the
    kernel at 60 digits: the estimate adds the rounding of the terms and of
    the phases k x, k y to the tail, which alone reads 0.0 once it
    underflows and was beyond the error in most draws."""
    got = sc.heat_kernel("interval", t, x, y, "spectral_sum")
    assert got.value == _ref_heat_series(t, x, y)
    assert abs(got.value - _mp_heat_interval(t, x, y)) <= got.error_estimate


def _ulp_bound(terms, value):
    """4 units of rounding of the magnitudes involved, plus one smallest
    subnormal per term for products that underflow."""
    return (4.0 * 2.0**-53 * (float(np.sum(np.abs(terms))) + abs(value))
            + len(terms) * 2.0**-1074)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(-10.0, 10.0), x=st.floats(0.01, 3.13), y=st.floats(0.01, 3.13),
       n=st.integers(1, 2 * 10**4))
def test_wightman_series_is_the_cesaro_sum_to_rounding(t, x, y, n):
    assume(min(abs(math.cos(t) - math.cos(x - y)),
               abs(math.cos(t) - math.cos(x + y))) >= 1e-9)
    ks = np.arange(1, n + 1)
    terms = (np.sin(ks * x) * np.sin(ks * y) / ks) * np.exp(1j * ks * t) / math.pi
    terms = (1.0 - ks / (n + 1.0)) * terms
    want = complex(np.sum(terms))
    got = sc.wightman_interval(t, x, y, "spectral_sum", n_terms=n).value
    assert type(got) is complex
    assert abs(got - want) <= _ulp_bound(terms, want)
