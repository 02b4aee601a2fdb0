"""Green kernels: two-path agreement, boundary behavior, expansions, smears."""

import cmath
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import spectral_cesaro as sc
from spectral_cesaro.errors import (AccuracyError, BoundaryError, DomainError,
                                    ParameterError, SingularityError)
from spectral_cesaro.quadrature import _exact_sum, _refused


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
        phi = sc.make_gaussian(1.5, 0.3)
        eps = 0.05
        v = sc.averaged_smear("heat", "line", 0.0, 0.0, phi, eps)
        direct = sc.integrate(
            lambda t: phi(t) / math.sqrt(4 * math.pi * eps * t), 0.0, np.inf,
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
        The grid stops at 1e-4: below it the double-precision lobe sum loses
        the cancellation (8e-4 relative error at 6.3e-5, 5.1e-14 against
        2.29e-15 at 10**-4.5).
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

        On a 2-vCPU Xeon VM: about 0.4 s with the batched lobe rule, about
        6 s with one adaptive quadrature per lobe.
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


# The line Fourier integrands as written before the half-line fold, over the
# whole line; the kernels now integrate twice these over [0, inf).
_LINE_FOURIER = {
    "heat": (sc.heat_kernel, lambda t, x, y: lambda kk: math.exp(-kk * kk * t)
             * math.cos(kk * (x - y)) / (2.0 * math.pi)),
    "cylinder": (sc.cylinder_kernel, lambda t, x, y: lambda kk: math.exp(-abs(kk) * t)
                 * math.cos(kk * (x - y)) / (2.0 * math.pi)),
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
# the estimate 1.4e-12 meets only the relative bound epsrel * |value|, which a
# fold at tol/2 (so epsrel/2) would not meet
@example(kind="heat", t=0.018780117783027447, x=2.5799651661104637,
         y=2.5040674617684413)
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


# ------------------------------------------ one eigen-series, one image list
# Each interval series and image sum as it was written out by hand before
# every kernel went through spectral._sine_series and kernels._images. The
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

    def pair(u):
        return (1.0 / ((x - y - 2.0 * u * math.pi) ** 2 + t * t)
                - 1.0 / ((x + y - 2.0 * u * math.pi) ** 2 + t * t)
                + 1.0 / ((x - y + 2.0 * u * math.pi) ** 2 + t * t)
                - 1.0 / ((x + y + 2.0 * u * math.pi) ** 2 + t * t))
    corr = sc.integrate(pair, M + 0.5, math.inf, tol=1e-14).value
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


@settings(max_examples=100, deadline=None)
@given(x=_X, y=_X, n=st.integers(0, 400))
def test_images_list_the_dirichlet_reflections_in_order(x, y, n):
    want = []
    for j in range(-n, n + 1):
        want.append((x - y - 2.0 * j * math.pi, +1.0))
        want.append((x + y - 2.0 * j * math.pi, -1.0))
    assert sc.kernels._images(x, y, n) == want


@settings(max_examples=25, deadline=None)
@given(x=st.floats(0.1, 3.0), y=st.floats(0.1, 3.0), eps=st.floats(1e-3, 0.1))
def test_averaged_smear_visits_the_reference_pairs_in_order(x, y, eps):
    """The interval smear walks the sorted image list, nearest image first."""
    seen = []
    breakpoints = sc.kernels._schrodinger_breakpoints

    def recorded(r2, *args):
        seen.append(r2)
        return breakpoints(r2, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc.kernels, "_schrodinger_breakpoints", recorded)
        sc.averaged_smear("schrodinger", "interval", x, y, sc.make_bump(0.5, 1.5), eps)
    want = [d * d for d, _ in _ref_smear_pairs(x, y) if d != 0.0]
    assert seen and seen == want[:len(seen)]


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["heat", "cylinder"]),
       case=st.sampled_from(["line", "interval"]),
       x=st.floats(0.1, 3.0), y=st.floats(0.1, 3.0), eps=st.floats(1e-3, 0.1))
# both sides raise the same AccuracyError here
@example(kind="cylinder", case="interval", x=1.0, y=1.0, eps=1e-3)
def test_averaged_smear_decaying_profiles_bit_for_bit(kind, case, x, y, eps):
    kernel = {"heat": sc.heat_kernel, "cylinder": sc.cylinder_kernel}[kind]
    phi = sc.make_bump(0.5, 1.5)
    f = lambda t: kernel(case, eps * t, x, y).value * phi(t)
    want = _outcome(lambda: complex(sc.integrate(f, 0.5, 1.5, tol=1e-12).value))
    assert _outcome(sc.averaged_smear, kind, case, x, y, phi, eps) == want


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
