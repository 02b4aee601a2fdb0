"""Quadrature engine and lobe sums."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import spectral_cesaro as sc
from spectral_cesaro import quadrature
from spectral_cesaro.errors import AccuracyError, ParameterError
from spectral_cesaro.quadrature import QuadratureResult, _exact_sum

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


def _counted(f):
    """f with a count of its calls in ``.calls``."""
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


_COUNT_CASES = {
    "finite": (lambda x: math.exp(-x) * math.sin(3 * x), 0.0, 2.0, 1e-12, 400),
    "complex": (lambda t: np.exp(-t) * np.exp(1j * t), 0.0, math.inf, 1e-11, 400),
    "semi-infinite": (lambda u: u**-0.5 * math.exp(-u), 0.0, math.inf, 1e-10, 400),
    "doubly infinite": (lambda x: 1.0 / (1.0 + x * x), -math.inf, math.inf, 1e-10, 400),
    # the heat kernel's line Fourier integrand at a point where its error
    # estimate meets only the relative bound
    "line heat": (lambda k: math.exp(-k * k * 0.018780117783027447)
                  * math.cos(k * (2.5799651661104637 - 2.5040674617684413))
                  / (2.0 * math.pi),
                  -math.inf, math.inf, 1e-12, 400),
    # runs out of its 5 subintervals; the estimate is not refused
    "limit exhausted": (lambda x: math.sqrt(abs(x - 0.3)), 0.0, 1.0, 1e-4, 5),
}


@pytest.mark.parametrize("case", sorted(_COUNT_CASES))
def test_evaluations_count_the_calls(case):
    """``evaluations`` is the number of calls to f after the one probe call."""
    f, a, b, tol, limit = _COUNT_CASES[case]
    g = _counted(f)
    r = sc.integrate(g, a, b, tol=tol, limit=limit)
    assert r.evaluations == g.calls - 1
    if case == "limit exhausted":
        assert r.evaluations == 21 * (2 * limit - 1)
        assert r.error_estimate > tol


def test_empty_range_is_zero_from_no_evaluations():
    for f in (np.exp, lambda t: np.exp(1j * t)):
        for a in (0.5, math.inf, -math.inf):
            r = sc.integrate(f, a, a)
            assert (r.value, r.error_estimate, r.evaluations) == (0.0, 0.0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        QuadratureResult(value=0.0, error_estimate=0.0, evaluations=-1)


class _WrongSignature:
    """A stand-in extension loader whose ``_qagse``/``_qagie`` answer as quad
    does with ``full_output=0``."""

    def __init__(self, name, path):
        self.name = name

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        module._qagse = module._qagie = lambda *args: (0.5, 0.0, 0)


class _NoExtension(_WrongSignature):
    def create_module(self, spec):
        raise ImportError("cannot load the extension")


@pytest.fixture(params=["direct", "not loaded", "wrong signature"])
def quadpack_route(request, monkeypatch):
    """QUADPACK through the loaded extension, or through ``quad`` when the
    loader fails or the module it loads does not answer with quad's signature."""
    quadrature._quadpack.cache_clear()
    if request.param != "direct":
        loader = _NoExtension if request.param == "not loaded" else _WrongSignature
        monkeypatch.setattr(quadrature, "ExtensionFileLoader", loader)
    assert (quadrature._quadpack() is None) == (request.param != "direct")
    yield request.param
    quadrature._quadpack.cache_clear()


def _sharp_peak(t):
    return 1.0 / (1e-4 + (t - 0.37) ** 2)


def _bits(v):
    return type(v), np.asarray(v).tobytes()


# the shapes of integral the package makes: (f, a, b, tol, limit)
_QUAD_CASES = {
    "finite": (lambda x: math.exp(-x) * math.sin(3 * x), 0.0, 2.0, 1e-12, 400),
    "finite, epsrel above tol": (lambda x: 1.0 / (1.0 + x), 0.0, 50.0, 1e-15, 400),
    "[a, inf)": (lambda u: u**-0.5 * math.exp(-u), 0.0, math.inf, 1e-10, 400),
    "(-inf, b]": (lambda x: math.exp(x) / (1.0 + x * x), -math.inf, 0.5, 1e-12, 400),
    "(-inf, inf)": _COUNT_CASES["line heat"],
    "b < a": (lambda x: math.cos(x) ** 2, 3.0, -1.0, 1e-12, 400),
    "b < a, infinite": (lambda x: math.exp(-x * x), math.inf, 1.0, 1e-12, 400),
    "complex": (lambda t: np.exp(-t) * np.exp(1j * t), 0.0, math.inf, 1e-11, 400),
    "lobe fallback": (_sharp_peak, 0.25, 0.5, 1e-13, 200),
    "accuracy error": (lambda t: math.sin(1e5 * t), 0.0, 1.0, 1e-12, 200),
    "limit exhausted": _COUNT_CASES["limit exhausted"],
}


def _quad_reference(f, a, b, tol, limit):
    """(value, error, neval) of scipy's quad with integrate's arguments, both
    parts of a complex integrand summed as integrate sums them."""
    kw = dict(epsabs=tol, epsrel=max(tol, 1e-13), limit=limit, full_output=1)
    if not isinstance(f(quadrature._probe_point(a, b)), complex):
        val, err, info = quad(f, a, b, **kw)[:3]
        return val, err, info["neval"]
    vr, er, ir = quad(lambda x: np.real(f(x)), a, b, **kw)[:3]
    vi, ei, ii = quad(lambda x: np.imag(f(x)), a, b, **kw)[:3]
    return vr + 1j * vi, er + ei, ir["neval"] + ii["neval"]


@pytest.mark.parametrize("case", sorted(_QUAD_CASES))
def test_quadpack_routes_are_quad_bit_for_bit(case, quadpack_route):
    """Value, error estimate and count are quad's, on every route to QUADPACK."""
    f, a, b, tol, limit = _QUAD_CASES[case]
    value, err, neval = _quad_reference(f, a, b, tol, limit)
    if case == "accuracy error":
        with pytest.raises(AccuracyError) as info:
            sc.integrate(f, a, b, tol=tol, limit=limit)
        assert _bits(info.value.best_estimate) == _bits(value)
        assert _bits(info.value.error_estimate) == _bits(err)
        return
    r = sc.integrate(f, a, b, tol=tol, limit=limit)
    assert (_bits(r.value), _bits(r.error_estimate), r.evaluations) \
        == (_bits(value), _bits(err), neval)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, math.inf), (1.0, -math.inf)])
def test_quadpack_routes_pass_errors_on_unchanged(a, b, quadpack_route):
    """An exception from the integrand (after the probe call) propagates as
    it is; an invalid limit raises quad's ValueError."""
    failure = KeyError("integrand failed")

    def f(x):
        if x == quadrature._probe_point(a, b):
            return 1.0
        raise failure

    with pytest.raises(KeyError) as info:
        sc.integrate(f, a, b)
    assert info.value is failure
    with pytest.raises(ValueError) as ours:
        sc.integrate(math.exp, a, b, limit=0)
    with pytest.raises(ValueError) as scipys:
        quad(math.exp, a, b, limit=0, full_output=1)
    assert str(ours.value) == str(scipys.value)


def test_lobe_sum_count_with_fallbacks(monkeypatch):
    """21 per accepted lobe, plus each fallback's calls after its probe."""
    delta, c = 1e-2, 0.37
    pts = [0.0, 0.25, 0.5, 0.75, 1.0]
    scalar_calls, fallbacks = [], []

    def f(t):
        if np.ndim(t) == 0:
            scalar_calls.append(t)
        return 1.0 / (delta**2 + (t - c) ** 2)

    integrate = sc.quadrature.integrate

    def recorded(g, a, b, **kwargs):
        fallbacks.append((a, b))
        return integrate(g, a, b, **kwargs)

    monkeypatch.setattr(sc.quadrature, "integrate", recorded)
    r = sc.lobe_sum(f, pts, tol=1e-13)
    assert fallbacks == [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75)]
    assert r.evaluations == 21 * (len(pts) - 1 - len(fallbacks)) \
        + len(scalar_calls) - len(fallbacks)
    assert r.evaluations == 504     # as counted by a wrapper around f


def test_lobe_sum_matches_plain_quadrature():
    f = lambda t: np.sin(10 * t) * np.exp(-t)
    pts = [k * math.pi / 10 for k in range(0, 32)]
    direct = sc.integrate(f, pts[0], pts[-1], tol=1e-13).value
    lobed = sc.lobe_sum(f, pts, tol=1e-13).value
    assert abs(direct - lobed) < 1e-11


def _per_lobe(f, bps, tol):
    """The reference: one adaptive integrate per lobe, added left to right."""
    rs = [sc.integrate(f, a, b, tol=tol, limit=200) for a, b in zip(bps, bps[1:])]
    return np.cumsum([r.value for r in rs])[-1]


@settings(max_examples=40, deadline=None)
@given(
    w=st.floats(0.5, 60.0), phase=st.floats(0.0, 2 * math.pi),
    decay=st.floats(-0.3, 3.0), n_lobes=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1), tol_exp=st.integers(-13, -8),
    complex_out=st.booleans(),
)
def test_lobe_sum_matches_per_lobe_loop(w, phase, decay, n_lobes, seed, tol_exp,
                                        complex_out):
    """Batched first steps plus fallbacks give the per-lobe loop's sum."""
    bps = np.unique(np.random.default_rng(seed).uniform(0.0, 10.0, n_lobes + 1))
    tol = 10.0**tol_exp

    def f(t):
        v = np.sin(w * t + phase) * np.exp(-decay * t) / (1.0 + t * t)
        return v * np.exp(1j * t) if complex_out else v

    r = sc.lobe_sum(f, bps, tol=tol)
    assert abs(r.value - _per_lobe(f, bps, tol)) <= tol
    assert r.evaluations >= 21 * (2 if complex_out else 1) * (len(bps) - 1)


def test_accepted_lobes_bit_identical_to_quad():
    """A lobe the first step accepts has quad's value and error, bit for bit."""
    f = lambda t: np.sin(10 * t) * np.exp(-t) / (1.0 + t)
    pts = [k * math.pi / 10 for k in range(0, 42)]
    tol = 1e-12
    r = sc.lobe_sum(f, pts, tol=tol)
    assert r.evaluations == 21 * (len(pts) - 1)    # every lobe accepted
    vals, errs = [], []
    for a, b in zip(pts, pts[1:]):
        v, e, info = quad(f, a, b, epsabs=tol, epsrel=1e-12, limit=200,
                          full_output=1)[:3]
        assert info["neval"] == 21
        vals.append(v)
        errs.append(e)
    assert r.value == np.cumsum(vals)[-1]
    assert r.error_estimate == np.cumsum(errs)[-1]


def test_sharp_peak_lobe_takes_the_fallback():
    delta, c = 1e-2, 0.37
    f = lambda t: 1.0 / (delta**2 + (t - c) ** 2)
    pts = [0.0, 0.25, 0.5, 0.75, 1.0]
    r = sc.lobe_sum(f, pts, tol=1e-13)
    exact = (math.atan((1.0 - c) / delta) + math.atan(c / delta)) / delta
    assert r.evaluations > 21 * (len(pts) - 1)
    assert abs(r.value - exact) < 1e-12 * exact


def test_fallback_accuracy_error_propagates():
    f = lambda t: np.sin(1e5 * t)
    with pytest.raises(AccuracyError):
        sc.lobe_sum(f, [0.0, 1.0, 2.0], tol=1e-12)


@pytest.mark.parametrize("bps", [[0.0], [0.0, 0.0], [1.0, 0.0], [0.0, math.inf]])
def test_lobe_sum_rejects_bad_breakpoints(bps):
    with pytest.raises(ParameterError):
        sc.lobe_sum(np.sin, bps)


def _sum_outcome(fn, x):
    """The bits of fn(x) (sign of zero and NaN included), or the error it raises."""
    try:
        return fn(x).hex()
    except (OverflowError, ValueError) as err:
        return type(err)


@st.composite
def _float_arrays(draw):
    """n entries u * 2**e, u uniform in (-1, 1), e drawn from [lo, hi].

    lo and hi range over [-1100, 1024]: exponents below -1022 give
    subnormals, below -1075 zeros, and entries of 2**995 or more take the
    math.fsum fallback. Optionally the negatives of a prefix are mixed in,
    so that most of the sum cancels.
    """
    n = draw(st.one_of(st.integers(0, 200), st.integers(2**14 - 70, 2**14 + 70),
                       st.integers(200, 3 * 2**14)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-1100, 1024))
    hi = draw(st.integers(lo, 1024))
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, hi, n, endpoint=True))
    if draw(st.booleans()):
        x = np.concatenate([x, -x[:draw(st.integers(0, n))]])
        rng.shuffle(x)
    return x


@settings(max_examples=150, deadline=None)
@given(x=st.one_of(
    _float_arrays(),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=40,
             max_size=200).map(np.array)))
@example(x=np.full(100, -0.0))
@example(x=np.array([1.0, -1.0] * 50))
@example(x=np.array([2.0**-1074, -(2.0**-1022)] * 2**13 + [1.0] * 200))
def test_exact_sum_is_fsum_bit_for_bit(x):
    assert _sum_outcome(_exact_sum, x) == _sum_outcome(math.fsum, x)


@pytest.mark.parametrize("values, expected", [
    ([math.nan] + [1.0] * 99, "nan"),
    ([math.inf, -math.inf], ValueError),
    ([math.inf, -math.inf] + [1.0] * 98, ValueError),
    ([math.inf] + [1.0] * 99, "inf"),
    ([1e308] * 70 + [-1e308] * 70, OverflowError),
], ids=["nan", "inf_minus_inf", "inf_minus_inf_long", "inf", "overflow"])
def test_exact_sum_fallbacks_raise_as_fsum(values, expected):
    x = np.array(values)
    assert _sum_outcome(math.fsum, x) == expected
    assert _sum_outcome(_exact_sum, x) == expected


@pytest.mark.parametrize("err, value", [
    (1.0, math.nan), (1e-12, math.nan), (math.nan, 1.0), (1.0, math.inf),
    (1e-5, -3.0 + 4.0j), (1e-5, 1e9), (2e-4, 1e9), (1e-9, 0.5), (1e-8, 0.5),
    (1.0, complex(math.nan, 1.0)),
])
def test_refused_scalar_branch_matches_the_array_branch(err, value):
    """Python's max and abs give numpy's verdict, NaN value included."""
    from spectral_cesaro.quadrature import _refused
    tol = 1e-10
    scalar = _refused(err, value, tol)
    assert type(scalar) is bool
    assert scalar == bool(_refused(np.array([err]), np.array([value]), tol)[0])
    if math.isnan(abs(value)):
        assert scalar is False      # a NaN threshold refuses nothing
