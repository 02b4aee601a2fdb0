"""Spectral densities, staircases, smears, and the Cesaro-averaged checks."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectral_cesaro as sc
from spectral_cesaro import cli
from spectral_cesaro.errors import DomainError, ParameterError, SingularityError
from spectral_cesaro.experiments import ExperimentConfig, run_experiment
from spectral_cesaro.quadrature import _exact_sum


class TestFreeLineDensity:
    def test_closed_form_substitution(self):
        # x - y = 1 at lam = pi^2: cos(pi)/(2 pi^2)
        v = sc.density_free_line(1.0, 0.0, math.pi**2)
        assert abs(v - (-1.0 / (2 * math.pi**2))) < 1e-15

    def test_heaviside_cutoff(self):
        assert sc.density_free_line(0.3, 0.9, -5.0) == 0.0

    def test_diagonal(self):
        assert abs(sc.density_free_line(0.4, 0.4, 4.0) - 1 / (4 * math.pi)) < 1e-16

    def test_singular_origin(self):
        with pytest.raises(SingularityError):
            sc.density_free_line(0.0, 1.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 4), log_lam=st.floats(0.0, 6.0),
       x=st.floats(0.0, 3.0), y=st.one_of(st.none(), st.floats(0.0, 3.0)))
@example(k=4, log_lam=6.0, x=0.0, y=None)
@example(k=4, log_lam=6.0, x=0.0, y=5e-324)
@example(k=0, log_lam=0.0, x=0.0, y=3.0)
def test_free_line_density_riesz_float_matches_mpmath(k, log_lam, x, y):
    """The float closed form (scipy beta/jv) agrees with mpmath's at 40 digits.

    ``y=None`` draws the diagonal y = x, where the Beta form applies.
    """
    lam = 10.0 ** log_lam
    m = sc.free_line_density_measure(x, x if y is None else y)
    f = sc.riesz_mean(m, k, lam)
    g = sc.riesz_mean(m, k, lam, dps=40)
    assert isinstance(g, mp.mpf)
    assert abs(f - float(g)) <= 1e-12 * math.sqrt(lam) / (2 * math.pi)


def test_free_line_density_riesz_float_beta_is_correctly_rounded():
    """The c = 0 float form takes B(1/2, k+1) rounded once from its exact
    rational value, checked against mpmath at 50 digits."""
    density_riesz = sc.weyl_density_measure().density_riesz
    for k in range(60):
        with mp.workdps(50):
            beta = float(mp.beta(mp.mpf(1) / 2, k + 1))
        assert density_riesz(k, 1.0, sc.measures._FloatBackend) == beta / (2.0 * math.pi)


def _besselj_density_riesz(c, k, lam):
    """The half-integer Bessel form of the free-line Riesz integral, 150 digits."""
    with mp.workdps(150):
        S = mp.sqrt(mp.mpf(lam))
        z = c * S
        I = (mp.sqrt(mp.pi) * mp.factorial(k) / 2
             * (2 / z) ** (k + mp.mpf('0.5')) * mp.besselj(k + mp.mpf('0.5'), z))
        return S * I / mp.pi


@settings(max_examples=150, deadline=None)
@given(c=st.floats(-12.0, math.log10(math.pi)).map(lambda e: 10.0 ** e),
       k=st.integers(0, 20), lam=st.floats(-2.0, 8.0).map(lambda e: 10.0 ** e))
@example(c=1.9e-10, k=17, lam=1.0)   # a k log2((2k+1)/z)-bit guard: 7e140 off
@example(c=0.52, k=20, lam=1.0)      # the same short guard: 4e-16 off
@example(c=5e-324, k=4, lam=1e8)     # z^2 under 2^-prec: the Beta form
def test_free_line_density_riesz_mpmath_matches_besselj(c, k, lam):
    """The elementary sin/cos form at 30 digits against J_{k+1/2} at 150.

    The bound is absolute (relative to sqrt(lam), the scale of the integral),
    so that it holds near the zeros of J as well.
    """
    with mp.workdps(30):
        got = sc.spectral._free_line_density_riesz(c)(k, mp.mpf(lam), mp)
        assert isinstance(got, mp.mpf) and mp.mp.prec == 103
        assert got == +got               # rounded to the working precision
    want = _besselj_density_riesz(c, k, lam)
    with mp.workdps(150):
        assert abs(got - want) <= mp.mpf('1e-27') * mp.sqrt(lam)


class TestFreeSpaceDensity:
    def test_d1_reduces_to_free_line(self):
        """20-point (r, lam) grid agreement to 1e-12."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = float(rng.uniform(0.1, 3.0))
            lam = float(rng.uniform(0.5, 60.0))
            a = sc.density_free_space(1, [0.0], [r], lam)
            b = sc.density_free_line(0.0, r, lam)
            assert abs(a - b) < 1e-12

    def test_d3_sine_form(self):
        r, lam = 1.0, 7.0
        v = sc.density_free_space(3, [0, 0, 0], [r, 0, 0], lam)
        assert abs(v - math.sin(math.sqrt(lam) * r) / (4 * math.pi**2 * r)) < 1e-14

    def test_d2_diagonal_limit(self):
        assert abs(sc.density_free_space(2, [0, 0], [0, 0], 9.0)
                   - 1 / (4 * math.pi)) < 1e-15

    def test_negative_lambda(self):
        assert sc.density_free_space(2, [0, 0], [1, 0], -1.0) == 0.0


class TestStaircase:
    def test_three_terms(self):
        v = sc.staircase_interval(math.pi / 2, math.pi / 2, 10.0)
        assert abs(v - 4.0 / math.pi) < 1e-14

    def test_below_first_eigenvalue(self):
        assert sc.staircase_interval(0.7, 2.1, 0.5) == 0.0

    def test_single_term(self):
        v = sc.staircase_interval(math.pi / 2, math.pi / 4, 2.0)
        assert abs(v - math.sqrt(2) / math.pi) < 1e-15

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            sc.staircase_interval(-0.1, 1.0, 5.0)

    def test_nondecreasing_with_jumps_at_squares(self):
        """Diagonal staircase is nondecreasing, jumping exactly at n^2."""
        x = 1.1
        lams = np.linspace(0.2, 30.0, 800)
        vals = [sc.staircase_interval(x, x, lam) for lam in lams]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        for i, d in enumerate(diffs):
            if d > 1e-12:
                a, b = lams[i], lams[i + 1]
                assert any(a < n * n <= b for n in range(1, 7)), (a, b)


class TestSmear:
    def test_theta_limit_diagonal(self):
        """x = y, exp profile: value -> 1/(2 sqrt(pi eps)) as eps -> 0."""
        phi = sc.make_exp_decay(1.0)
        eps = 1e-4
        v = sc.density_smear_interval(1.0, 1.0, phi, eps)
        want = 1.0 / (2.0 * math.sqrt(math.pi * eps))
        assert abs(v / want - 1.0) < 1e-2

    def test_off_diagonal_rapid_decay(self):
        """Off-diagonal smear decays faster than eps^3 (log-log slope test)."""
        phi = sc.make_exp_decay(1.0)
        eps = np.geomspace(3e-4, 3e-2, 8)
        vals = [abs(sc.density_smear_interval(1.0, 2.0, phi, float(e))) for e in eps]
        slope = np.linalg.lstsq(
            np.vstack([np.log(eps), np.ones(len(eps))]).T,
            np.log(np.maximum(vals, 1e-300)), rcond=None)[0][0]
        assert slope >= 3.0, slope

    def test_large_eps_first_term_dominates(self):
        phi = sc.make_exp_decay(1.0)
        x, y = 0.7, 1.9
        v = sc.density_smear_interval(x, y, phi, 10.0)
        direct = sum((2 / math.pi) * math.sin(n * x) * math.sin(n * y)
                     * math.exp(-10.0 * n * n) for n in range(1, 6))
        assert abs(v - direct) < 1e-15

    def test_bump_window_counts_eigenvalues(self):
        """A bump window weights exactly the eigenvalues inside its support."""
        phi = sc.make_bump(2.0, 30.0)
        x, y, eps = 0.9, 1.4, 1.0
        v = sc.density_smear_interval(x, y, phi, eps)
        ns = [n for n in range(1, 40) if 2.0 < n * n < 30.0]
        direct = math.fsum((2 / math.pi) * math.sin(n * x) * math.sin(n * y)
                           * phi(eps * n * n) for n in ns)
        assert abs(v - direct) < 1e-15

    def test_nondecaying_rejected(self):
        bad = sc.TestFunction("user", lambda u: 1.0, None, decays=False)
        with pytest.raises(ParameterError):
            sc.density_smear_interval(1.0, 1.0, bad, 0.1)


class TestDiagonalWeylCheck:
    def test_riesz2_matches_weyl(self):
        rep = sc.diagonal_weyl_check(1.0, 2, [1e4], tol=1e-2)
        assert rep.verdict == "holds"
        assert rep.residual < 1e-2

    def test_interior_x_independence(self):
        r1 = sc.diagonal_weyl_check(1.0, 2, [1e4])
        r2 = sc.diagonal_weyl_check(math.pi / 2, 2, [1e4])
        assert r1.verdict == r2.verdict == "holds"

    def test_no_averaging_fails(self):
        """k = 0: the raw staircase never settles to the smooth density."""
        rep = sc.diagonal_weyl_check(1.0, 0, list(np.geomspace(1e3, 1e4, 12)),
                                     tol=1e-2)
        assert rep.verdict == "fails"

    def test_weyl_law_riesz2_at_1e6(self):
        """staircase(x,x,lam) * pi / sqrt(lam) -> 1 in Riesz-2 mean, 1% at 1e6."""
        atomic = sc.interval_measure(1.0)
        smooth = sc.weyl_density_measure()
        a = sc.riesz_mean(atomic, 2, 1e6)
        s = sc.riesz_mean(smooth, 2, 1e6)
        assert abs(a / s - 1.0) < 1e-2


class TestOffdiagonalEquivalence:
    def test_interior_holds(self):
        rep = sc.offdiagonal_equivalence_check(
            1.0, 2.0, 2, np.geomspace(1e2, 1e6, 24))
        assert rep.verdict == "holds"
        assert rep.details["cancellation_ratio"] < 0.1

    def test_boundary_fails(self):
        rep = sc.offdiagonal_equivalence_check(
            1.0, 0.0, 2, np.geomspace(1e2, 1e6, 24))
        assert rep.verdict == "fails"
        assert abs(rep.details["cancellation_ratio"] - 1.0) < 1e-9

    def test_near_diagonal_inconclusive(self):
        rep = sc.offdiagonal_equivalence_check(
            1.0, 1.0 + 1e-9, 2, np.geomspace(1e2, 1e6, 24))
        assert rep.verdict == "inconclusive"

    @pytest.mark.parametrize("grid", [list(np.geomspace(1e2, 1e6, 24)), [1e2, 1e6]])
    def test_ratio_reuses_the_order_tests_means(self, monkeypatch, grid):
        """The ratio takes the order test's order-k means; the report is as before."""
        calls, alive = [], []       # measures kept alive keep their ids apart
        original = sc.spectral.riesz_mean

        def counted(measure, k, lam, dps=None):
            alive.append(measure)
            calls.append((id(measure), k, float(lam)))
            return original(measure, k, lam, dps=dps)

        monkeypatch.setattr(sc.spectral, "riesz_mean", counted)
        monkeypatch.setattr(sc.summability, "riesz_mean", counted)

        def run():
            calls.clear()
            reports = [sc.offdiagonal_equivalence_check(1.0, y, 2, grid)
                       for y in (2.0, 0.0)]
            return reports, len(calls), len(set(calls))

        reused, n_reused, distinct = run()
        order_test = sc.spectral.cesaro_order_test
        monkeypatch.setattr(sc.spectral, "cesaro_order_test",
                            lambda *a, _means=None, **kw: order_test(*a, **kw))
        fresh, n_fresh, _ = run()
        assert reused == fresh
        assert (n_fresh, n_reused, distinct) == (432, 384, 384)

    def test_registry_run_needs_no_besselj(self, monkeypatch):
        """The default experiment runs on sin/cos alone, with the old numbers."""
        def no_besselj(*args, **kwargs):
            raise AssertionError("mpmath.besselj called")

        monkeypatch.setattr(mp, "besselj", no_besselj)
        monkeypatch.setattr(mp.mp, "besselj", no_besselj)
        report, _ = run_experiment(ExperimentConfig(experiment="offdiag-equivalence"))
        interior, boundary = report.probes
        assert report.verdict == "pass"
        assert interior["fitted_slope"] == -3.966512071618764
        assert interior["order_used"] == 7
        assert interior["cancellation_ratio"] == 0.030507754323043635
        assert boundary["fitted_slope"] == -3.8954922014360287
        assert boundary["cancellation_ratio"] == 1.0

    def test_diagonal_redirects(self):
        with pytest.raises(ParameterError):
            sc.offdiagonal_equivalence_check(1.0, 1.0, 2, [1e3, 1e4])

    @pytest.mark.parametrize("k", [-1, 2.5, -0.5])
    def test_bad_order_is_rejected_before_any_riesz_mean(self, monkeypatch, capsys, k):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            raise AssertionError("riesz_mean called")

        monkeypatch.setattr(sc.spectral, "riesz_mean", counted)
        monkeypatch.setattr(sc.summability, "riesz_mean", counted)
        with pytest.raises(ParameterError, match="nonnegative integer"):
            sc.offdiagonal_equivalence_check(1.0, 2.0, k, np.geomspace(1e2, 1e6, 24))
        if k == int(k):
            assert cli.main(["verify", "offdiag-equivalence", "--order", str(k)]) == 64
            assert "nonnegative integer" in capsys.readouterr().err
        assert calls == []


@pytest.mark.parametrize("x, y", [(0.0, 1.0), (2.0, 0.0), (0.0, 0.0), (-0.0, 2.5),
                                  (1.0, -0.0)])
def test_interval_measure_at_zero_is_the_zero_measure(monkeypatch, x, y):
    """Riesz means as when every zero weight was enumerated and dropped, with no atom call."""
    def no_atoms(*args):
        raise AssertionError("atom_fn called")

    monkeypatch.setattr(sc.SpectralMeasure, "_scalar_atoms", no_atoms)
    monkeypatch.setattr(sc.SpectralMeasure, "_vector_atoms", no_atoms)
    atoms = sc.interval_measure(x, y)
    diff = sc.interval_minus_free_measure(x, y)
    for k, lam in [(0, 3.0), (2, 50.0), (5, 1e4)]:
        a = sc.riesz_mean(atoms, k, lam)
        assert type(a) is float and a == 0.0
        d = sc.riesz_mean(diff, k, lam)
        assert d == diff.density_riesz(k, lam, sc.measures._FloatBackend)
        with mp.workdps(30):
            free = mp.mpf(0) + diff.density_riesz(k, mp.mpf(lam), mp)
        a_mp = sc.riesz_mean(atoms, k, lam, dps=30)
        assert type(a_mp) is mp.mpf and a_mp._mpf_ == mp.mpf(0)._mpf_
        d_mp = sc.riesz_mean(diff, k, lam, dps=30)
        assert type(d_mp) is mp.mpf and d_mp._mpf_ == free._mpf_


@pytest.mark.parametrize("name", sc.spectral.NAMED_DENSITIES)
@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (1.0, math.inf), (-math.inf, 1.0)])
def test_named_density_rejects_non_finite_points(name, x, y):
    with pytest.raises(DomainError, match="finite"):
        sc.evaluate_named_density(name, x, y, 10.0)


@pytest.mark.parametrize("name", sc.spectral.NAMED_DENSITIES)
@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_named_density_rejects_non_finite_lambda(name, lam):
    with pytest.raises(DomainError, match="lam=.*finite"):
        sc.evaluate_named_density(name, 1.0, 2.0, lam)


def test_staircase_rejects_non_finite_lambda():
    with pytest.raises(DomainError, match="lam=inf"):
        sc.staircase_interval(1.0, 2.0, math.inf)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_free_densities_reject_non_finite_lambda(lam):
    with pytest.raises(DomainError, match="lam=.*finite"):
        sc.density_free_line(1.0, 0.0, lam)
    for d in (1, 2, 3):
        with pytest.raises(DomainError, match="lam=.*finite"):
            sc.density_free_space(d, [1.0] + [0.0] * (d - 1), [0.0] * d, lam)


def test_sine_series_complex_parts_are_fsums_bit_for_bit():
    """A complex profile: each part is the correctly rounded sum of its terms."""
    g = lambda k: np.exp(1j * k * 0.37) / (2 * k)
    for x, y, n in [(1.0, 2.0, 5000), (0.3, 0.31, 777), (math.pi / 2, 1.0, 40)]:
        ks = np.arange(1, n + 1)
        terms = (2.0 / math.pi) * np.sin(ks * x) * np.sin(ks * y) * g(ks)
        v = sc.spectral._sine_series(x, y, n, g)
        assert type(v) is complex
        assert (v.real, v.imag) == (math.fsum(terms.real.tolist()),
                                    math.fsum(terms.imag.tolist()))


# ------------------------------------------- the mpmath interval atom table

def _weight_ref(x, y, k):
    with mp.workdps(120):
        return 2 * mp.sin(k * mp.mpf(x)) * mp.sin(k * mp.mpf(y)) / mp.pi


_SINE_POINTS = st.one_of(st.sampled_from([1e-9, math.pi / 2, math.pi]),
                         st.floats(1e-9, math.pi))


@settings(max_examples=12, deadline=None)
@given(x=_SINE_POINTS, y=_SINE_POINTS, dps=st.sampled_from([15, 30, 50]),
       first=st.integers(1, 10**6), m=st.integers(1, 5000))
@example(x=math.pi, y=1e-9, dps=30, first=1, m=1024)
@example(x=math.pi / 2, y=1.0, dps=30, first=1, m=1024)
@example(x=2 * math.pi / 3, y=math.pi, dps=50, first=999_000, m=600)
@example(x=1.0, y=2.0, dps=15, first=300, m=100)
def test_mp_interval_chunk_weights_within_one_rounding(x, y, dps, first, m):
    """Each weight of an index-array chunk is within 2**-prec relative of a
    120-digit (2/pi) sin(kx) sin(ky), and the chunk-end check accepts it."""
    with mp.workdps(dps):
        prec = mp.mp.prec
        chunk = sc.interval_measure(x, y)._vector_atoms(first, m, mp)
    assert chunk is not None
    pos, wts = chunk
    with mp.workdps(120):
        tol = mp.ldexp(1, -prec)
        for k, p, w in zip(range(first, first + m), pos, wts):
            ref = _weight_ref(x, y, k)
            assert p == k * k
            assert abs(w - ref) <= tol * abs(ref), (k, w, ref)


@pytest.mark.parametrize("x, y", [(1.0, 2.0), (0.5, 2.5), (math.pi, 1.0), (1e-9, 2.0),
                                  (math.pi / 2, 1.0)])
def test_mp_interval_table_same_in_one_chunk_or_several(x, y):
    with mp.workdps(30):
        grown = sc.interval_measure(x, y)._table(mp.mpf(1024**2), mp)  # 256, 256, 512
        pos, wts = sc.interval_measure(x, y)._vector_atoms(1, 1024, mp)
    assert grown.n == 1024 and grown.vectorized
    assert [p._mpf_ for p in grown.pos] == [p._mpf_ for p in pos]
    assert [w._mpf_ for w in grown.wts] == [w._mpf_ for w in wts]


# ----------------------------------------- the sums _sine_series replaced
# The staircase and the density smear as they were written out by hand
# before both went through spectral._sine_series.

def _ref_staircase(x, y, lam):
    if lam < 1.0:
        return 0.0, np.zeros(0)
    nmax = int(math.isqrt(int(lam)))
    while (nmax + 1) ** 2 <= lam:
        nmax += 1
    while nmax**2 > lam:
        nmax -= 1
    n = np.arange(1, nmax + 1)
    terms = np.sin(n * x) * np.sin(n * y)
    return float((2.0 / math.pi) * _exact_sum(terms)), (2.0 / math.pi) * terms


def _ref_density_smear(x, y, phi, eps):
    sup_hi = phi.support[1] if phi.support else None
    terms = []
    n = 1
    prev_abs = None
    while True:
        u = eps * n * n
        if sup_hi is not None and u > sup_hi:
            break
        pv = float(phi(u))
        terms.append((2.0 / math.pi) * math.sin(n * x) * math.sin(n * y) * pv)
        a = abs(pv)
        if prev_abs is not None and 0.0 < a < prev_abs:
            ratio = a / prev_abs
            if (2.0 / math.pi) * a * ratio / (1.0 - ratio) < 1e-14:
                break
        prev_abs = a
        n += 1
    return math.fsum(terms)


_OPEN_X = st.floats(0.0, math.pi, exclude_min=True, exclude_max=True)


def _ulp_bound(terms, value):
    """4 units of rounding of the magnitudes involved, plus one smallest
    subnormal per term for products that underflow."""
    return (4.0 * 2.0**-53 * (float(np.sum(np.abs(terms))) + abs(value))
            + len(terms) * 2.0**-1074)


@settings(max_examples=150, deadline=None)
@given(x=_OPEN_X, y=_OPEN_X, lam=st.floats(0.0, 1e5))
def test_staircase_is_the_exact_sum_to_rounding(x, y, lam):
    want, terms = _ref_staircase(x, y, lam)
    got = sc.staircase_interval(x, y, lam)
    assert type(got) is float
    assert abs(got - want) <= _ulp_bound(terms, want)


@settings(max_examples=30, deadline=None)
@given(x=_OPEN_X, y=_OPEN_X, n=st.sampled_from([1, 2, 3, 10, 1000]))
def test_staircase_jumps_by_one_atom_at_each_square(x, y, n):
    """Right-continuous: E(n^2) - E(n^2-) is the atom (2/pi) sin nx sin ny."""
    lam = float(n * n)
    jump = sc.staircase_interval(x, y, lam) - sc.staircase_interval(
        x, y, math.nextafter(lam, 0.0))
    ks = np.arange(1, n + 1)
    terms = (2.0 / math.pi) * np.sin(ks * x) * np.sin(ks * y)
    atom = (2.0 / math.pi) * math.sin(n * x) * math.sin(n * y)
    assert abs(jump - atom) <= 4.0 * 2.0**-53 * (float(np.sum(np.abs(terms))) + 1.0)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["bump", "exp_decay", "gaussian"]),
       x=st.floats(0.0, math.pi), y=st.floats(0.0, math.pi),
       eps=st.floats(1e-4, 2.0))
def test_density_smear_bit_for_bit(kind, x, y, eps):
    phi = {"bump": sc.make_bump(-1.0, 1.0), "exp_decay": sc.make_exp_decay(1.0),
           "gaussian": sc.make_gaussian(0.0, 1.0)}[kind]
    got = sc.density_smear_interval(x, y, phi, eps)
    assert got == _ref_density_smear(x, y, phi, eps) and type(got) is float
