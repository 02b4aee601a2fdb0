"""Cesaro limits, order tests, finite parts, moment expansion, point values."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_cesaro as sc
from spectral_cesaro.errors import DataError, ParameterError
from spectral_cesaro.measures import SpectralMeasure

EULER_GAMMA = 0.5772156649015329


class TestCesaroLimit:
    def test_cosine_series_at_quarter_pi(self):
        """sum cos(2nx) = -1/2 (C) at x = pi/4."""
        x = math.pi / 4
        m = SpectralMeasure.from_generator(
            lambda n, B: (B.mpf(n), B.cos(2 * n * B.mpf(x))))
        val, rep = sc.cesaro_limit(m, max_order=4)
        assert rep.verdict == "holds"
        assert abs(val + 0.5) < 1e-3

    def test_alternating_series(self):
        m = SpectralMeasure.from_generator(lambda n, B: (B.mpf(n), B.mpf(-1) ** n))
        val, rep = sc.cesaro_limit(m, max_order=4)
        assert rep.verdict == "holds"
        assert abs(val + 0.5) < 1e-3

    def test_consistency_with_convergence(self):
        m = SpectralMeasure.from_generator(lambda n, B: (B.mpf(n), B.mpf(2) ** (-n)))
        val, rep = sc.cesaro_limit(m, max_order=4)
        assert rep.verdict == "holds"
        assert abs(val - 1.0) < 1e-3

    def test_too_few_atoms_rejected(self):
        m = SpectralMeasure.from_atoms([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(DataError):
            sc.cesaro_limit(m)


class TestCesaroOrderTest:
    def test_distributionally_small_weighted_atoms(self):
        """n^2 cos(2n) weights on integer atoms: O(x^-6) (C) holds."""
        m = SpectralMeasure.from_generator(
            lambda n, B: (B.mpf(n), B.mpf(n) ** 2 * B.cos(2 * B.mpf(n))))
        rep = sc.cesaro_order_test(m, -6.0, max_order=10,
                                   lambdas=np.geomspace(30, 3000, 24),
                                   dps=40, allow_excluded_beta=True)
        assert rep.verdict == "holds"
        assert rep.fitted_slope <= -6.0 + 0.25

    def test_sampled_sine_density(self):
        """f(x) = sin x is distributionally small: O(x^-4) proxy holds."""
        def exact_riesz(k, lam, B):
            # I_k = int_0^lam (1-u/lam)^k sin u du via the IBP recursion
            I, J = 1.0 - math.cos(lam), math.sin(lam)
            for j in range(1, k + 1):
                I, J = 1.0 - (j / lam) * J, (j / lam) * I
            return I

        m = SpectralMeasure.from_density(exact_riesz)
        rep = sc.cesaro_order_test(m, -4.0, max_order=8,
                                   lambdas=np.geomspace(10, 1e4, 24),
                                   allow_excluded_beta=True)
        assert rep.verdict == "holds"
        assert rep.order_used <= 5

    def test_counting_measure_fails(self):
        m = SpectralMeasure.from_generator(lambda n, B: (B.mpf(n), B.mpf(1)))
        rep = sc.cesaro_order_test(m, -0.5, max_order=6,
                                   lambdas=np.geomspace(10, 1e4, 24))
        assert rep.verdict == "fails"

    def test_excluded_beta_raises_without_optout(self):
        m = SpectralMeasure.from_generator(lambda n, B: (B.mpf(n), B.mpf(1)))
        with pytest.raises(ParameterError):
            sc.cesaro_order_test(m, -2.0, max_order=4)


class TestFinitePart:
    def test_exceptional_flag(self):
        assert sc.FinitePart(-1.0).is_exceptional
        assert sc.FinitePart(-3.0).is_exceptional
        assert not sc.FinitePart(0.5).is_exceptional
        assert not sc.FinitePart(-1.5).is_exceptional

    def test_halfpower_gamma_value(self):
        v = sc.finite_part_eval(sc.FinitePart(0.5), sc.make_exp_decay(1.0))
        assert abs(v - math.gamma(1.5)) < 1e-11

    def test_pf_inverse_power_euler_gamma(self):
        """<Pf(chi/x), e^-x> = -gamma, against the split-integral oracle."""
        v = sc.finite_part_eval(sc.FinitePart(-1.0), sc.make_exp_decay(1.0))
        assert abs(v + EULER_GAMMA) < 1e-11

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("lam", [2.0, 10.0])
    def test_homogeneous_scaling(self, alpha, lam):
        phi = sc.make_bump(-1.0, 1.0)
        g = sc.FinitePart(alpha)
        lhs = sc.finite_part_eval(g, phi, lam_scale=lam)
        rhs = lam**alpha * sc.finite_part_eval(g, phi)
        assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("lam", [2.0, 10.0])
    def test_exceptional_log_scaling(self, k, lam):
        phi = sc.make_bump(-1.0, 1.0)
        g = sc.FinitePart(-float(k))
        lhs = sc.finite_part_eval(g, phi, lam_scale=lam)
        rhs = (sc.finite_part_eval(g, phi) / lam**k
               + (-1.0) ** (k - 1) * math.log(lam)
               * phi.derivative(k - 1)(0.0) / (math.factorial(k - 1) * lam**k))
        assert abs(lhs - rhs) < 1e-9

    def test_k1_lam2_identity_spelled_out(self):
        phi = sc.make_bump(-1.0, 1.0)
        g = sc.FinitePart(-1.0)
        lhs = sc.finite_part_eval(g, phi, lam_scale=2.0)
        rhs = sc.finite_part_eval(g, phi) / 2.0 + math.log(2.0) * phi(0.0) / 2.0
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("N", [0, 2])
def test_moment_expansion_error_decay_slope(N):
    """Remainder of the moment expansion for sum cos(2n) delta(lam - n).

    The measure is distributionally small with moments (-1/2, 0, 0, ...);
    the remainder against a gaussian decays faster than any power, so the
    fitted slope clears N + 2 for every N. Needs mpmath: the remainder
    sits far below double rounding across the window.
    """
    slope_needed = N + 2
    xs, ys = [], []
    with mp.workdps(150):
        for eps in np.geomspace(1e-3, 1e-1, 10):
            em = mp.mpf(float(eps))
            nmax = int(mp.sqrt((150 + 4) * mp.log(10)) / em) + 2
            s = mp.fsum(mp.cos(2 * n) * mp.exp(-(em * n) ** 2)
                        for n in range(1, nmax + 1))
            # <f(lam x), phi(x)> at lam = 1/eps equals eps * s; the
            # N-truncated expansion is -phi(0) eps / 2 for every N >= 0
            d = abs(em * s + em / 2)
            xs.append(float(mp.log(em)))
            ys.append(float(mp.log(d)) if d > 0 else -500.0)
    slope = np.linalg.lstsq(np.vstack([xs, np.ones(len(xs))]).T, ys,
                            rcond=None)[0][0]
    assert slope >= slope_needed, f"slope {slope} < {slope_needed}"


class TestPointValue:
    def test_continuous_function(self):
        v = sc.point_value(lambda s: np.cos(s), 0.3)
        assert v is not None
        assert abs(v - math.cos(0.3)) < 1e-4

    def test_oscillatory_zero(self):
        v = sc.point_value(lambda s: np.sin(1.0 / s) if s != 0 else 0.0, 0.0)
        assert v is not None
        assert abs(v) < 1e-3

    def test_heaviside_has_no_value(self):
        assert sc.point_value(lambda s: 1.0 * (np.asarray(s) > 0), 0.0) is None


def _ref_finite_part_eval(g, phi, lam_scale=1.0):
    """finite_part_eval as written with separate exceptional and regular
    branches, before they shared one body."""
    from spectral_cesaro.summability import (_FINITE_PART_TOL,
                                             _taylor_poly_terms)
    alpha = g.exponent
    s = float(lam_scale)

    def phi_s(u):
        return phi(u / s)

    if not g.is_exceptional:
        m = 0 if alpha > -1 else int(math.ceil(-alpha)) - 1
        derivs = _taylor_poly_terms(phi, m, scale=s)

        def taylor(u):
            return sum(d * u**j / math.factorial(j) for j, d in enumerate(derivs))

        head = sc.integrate(lambda u: (phi_s(u) - taylor(u)) * u**alpha, 0.0, 1.0,
                            tol=_FINITE_PART_TOL, limit=800).value
        tail = sc.integrate(lambda u: phi_s(u) * u**alpha, 1.0, math.inf,
                            tol=_FINITE_PART_TOL, limit=800).value
        boundary = sum(d / (math.factorial(j) * (alpha + j + 1))
                       for j, d in enumerate(derivs))
    else:
        k = int(round(-alpha))
        derivs = _taylor_poly_terms(phi, k, scale=s)

        def taylor(u):
            return sum(d * u**j / math.factorial(j) for j, d in enumerate(derivs))

        head = sc.integrate(lambda u: (phi_s(u) - taylor(u)) / u**k, 0.0, 1.0,
                            tol=_FINITE_PART_TOL, limit=800).value
        tail = sc.integrate(lambda u: phi_s(u) / u**k, 1.0, math.inf,
                            tol=_FINITE_PART_TOL, limit=800).value
        boundary = sum(d / (math.factorial(j) * (j - k + 1))
                       for j, d in enumerate(derivs) if j != k - 1)
    out = (head + tail + boundary) / s
    return out.real if abs(out.imag) < 1e-300 or out.imag == 0 else out


def _outcome(f, *args):
    """The value f returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:    # both sides must fail alike
        return type(exc), str(exc)


@pytest.mark.parametrize("phi", [sc.make_bump(-1.0, 1.0), sc.make_bump(-0.5, 2.0),
                                 sc.make_gaussian(0.0, 1.0)],
                         ids=["bump", "shifted_bump", "gaussian"])
@pytest.mark.parametrize("alpha", [-3, -2, -1, -3.0, -2.5, -1.5, -0.5, 0.5, 1.5, 2,
                                   -2.0 + 1e-13])
def test_finite_part_eval_one_body_bit_for_bit(phi, alpha):
    """One body for both exponent classes gives each class's old doubles,
    errors included."""
    g = sc.FinitePart(alpha)
    for scale in (0.3, 1.0, 2.0, 10.0):
        assert _outcome(sc.finite_part_eval, g, phi, scale) == \
            _outcome(_ref_finite_part_eval, g, phi, scale)


def old_divided_difference_points(lambdas, F, N):
    """Reference: each window's own divided-difference triangle."""
    pts = []
    for i in range(len(lambdas) - N):
        xs = lambdas[i:i + N + 1]
        fs = list(F[i:i + N + 1])
        for order in range(1, N + 1):
            fs = [(fs[j + 1] - fs[j]) / (xs[j + order] - xs[j])
                  for j in range(len(fs) - 1)]
        W = 0.0
        for l in range(N + 1):
            prod = 1.0
            for j in range(N + 1):
                if j != l:
                    prod *= abs(float(xs[l] - xs[j]))
            W += 1.0 / prod
        lam_mid = float(np.exp(np.mean(np.log([float(x) for x in xs]))))
        pts.append((lam_mid, abs(fs[0]) / W))
    return pts


@settings(max_examples=150, deadline=None)
@given(data=st.data(), N=st.integers(1, 8), use_mp=st.booleans())
def test_newton_table_matches_the_sliding_windows(data, N, use_mp):
    """One Newton table gives every window's points bit for bit, float or 30-digit F."""
    lambdas = sorted(data.draw(st.lists(st.floats(1e-2, 1e7), min_size=N + 1,
                                        max_size=24, unique=True)))
    F = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(lambdas),
                           max_size=len(lambdas)))
    if use_mp:
        with mp.workdps(30):
            xs = [mp.mpf(x) for x in lambdas]
            fs = [mp.mpf(f) / 3 for f in F]
            new = sc.summability._divided_difference_points(xs, fs, N)
            old = old_divided_difference_points(xs, fs, N)
        assert all(type(t) is mp.mpf for _, t in new)
        new = [(x, t._mpf_) for x, t in new]
        old = [(x, t._mpf_) for x, t in old]
    else:
        new = sc.summability._divided_difference_points(lambdas, F, N)
        old = old_divided_difference_points(lambdas, F, N)
    assert len(new) == len(lambdas) - N
    assert new == old
