"""Test functions, analytic derivatives, and the finite-difference fallback."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_cesaro as sc
from spectral_cesaro.errors import ParameterError, UnsupportedOrderError
from spectral_cesaro.testfn import _bump_step, finite_difference_derivative


class TestGaussian:
    def test_peak_value(self):
        assert sc.make_gaussian(0.0, 1.0)(0.0) == 1.0

    def test_integral_over_line(self):
        g = sc.make_gaussian(0.0, 1.0)
        r = sc.integrate(g, -np.inf, np.inf, tol=1e-12)
        assert abs(r.value - math.sqrt(math.pi)) < 1e-11

    def test_first_derivative_vanishes_at_center(self):
        g = sc.make_gaussian(0.7, 2.0)
        assert abs(g.derivative(1)(0.7)) < 1e-15

    def test_second_derivative_at_center(self):
        g = sc.make_gaussian(0.0, 1.0)
        assert abs(g.derivative(2)(0.0) - (-2.0)) < 1e-14

    def test_positive_everywhere(self):
        g = sc.make_gaussian(1.0, 0.5)
        xs = np.linspace(-30, 30, 101)
        assert np.all(g(xs) >= 0.0)

    def test_invalid_width(self):
        with pytest.raises(ParameterError):
            sc.make_gaussian(0.0, -1.0)


class TestBump:
    def test_center_value(self):
        assert abs(sc.make_bump(-1.0, 1.0)(0.0) - math.exp(-1.0)) < 1e-15

    def test_exactly_zero_outside_support(self):
        b = sc.make_bump(-1.0, 1.0)
        assert b(1.0) == 0.0
        assert b(-1.0) == 0.0
        assert b(1.5) == 0.0
        xs = np.array([-5.0, -1.0, 1.0, 2.0, 100.0])
        assert np.all(b(xs) == 0.0)

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_all_derivatives_flat_at_edges(self, order):
        b = sc.make_bump(0.0, 2.0)
        assert b.derivative(order)(0.0) == 0.0
        assert b.derivative(order)(2.0) == 0.0

    def test_invalid_interval(self):
        with pytest.raises(ParameterError):
            sc.make_bump(1.0, 1.0)


class TestExpDecay:
    def test_derivative_at_zero(self):
        e = sc.make_exp_decay(1.0)
        assert e.derivative(1)(0.0) == -1.0
        assert e.derivative(3)(0.0) == -1.0
        assert e.derivative(2)(0.0) == 1.0

    def test_positive(self):
        e = sc.make_exp_decay(2.0)
        assert all(e(x) > 0 for x in (-3.0, 0.0, 5.0, 40.0))


class TestUserFunctions:
    """Plain callables: the explicit finite-difference path, and the error
    that points to it when a built-in runs out of analytic derivatives."""

    def test_order_beyond_supplied_raises(self):
        bump = sc.make_bump(-1.0, 1.0)
        with pytest.raises(UnsupportedOrderError):
            bump.derivative(65)

    def test_explicit_fd_fallback(self):
        val = finite_difference_derivative(np.sin, 2, 0.3)
        assert abs(val - (-math.sin(0.3))) < 1e-6


# (phi, cross-check step, sampling window); steps are tuned per kind so the
# difference oracle stays truncation- and roundoff-clean through order 6
_FD_CASES = [
    (sc.make_gaussian(0.0, 1.0), 0.05, (-1.5, 1.5)),
    (sc.make_gaussian(-0.5, 2.0), 0.10, (-2.5, 1.5)),
    (sc.make_bump(-1.0, 1.0), 0.02, None),
    (sc.make_bump(0.5, 3.0), 0.025, None),
    (sc.make_exp_decay(1.5), 0.0667, (-1.5, 1.5)),
]


@pytest.mark.parametrize("phi,h,window", _FD_CASES)
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_analytic_derivative_matches_finite_differences(phi, h, window, order):
    """Analytic vs high-order central finite differences: 1e-6 relative."""
    rng = np.random.default_rng(1234 + order)
    if window is None:
        a, b = phi.support
        xs = rng.uniform(a + 0.25 * (b - a), b - 0.25 * (b - a), 20)
    else:
        xs = rng.uniform(window[0], window[1], 20)
    d = phi.derivative(order)
    scale = max(abs(d(x)) for x in xs)
    for x in xs:
        fd = finite_difference_derivative(phi, order, float(x), h=h,
                                          extra_accuracy=8)
        assert abs(d(float(x)) - fd) <= 1e-6 * max(scale, 1.0), \
            f"order {order} mismatch at x={x}: {d(float(x))} vs {fd}"


def test_derivative_of_derivative_composes():
    g = sc.make_gaussian(0.0, 1.0)
    d3 = g.derivative(1).derivative(2)
    assert abs(d3(0.4) - g.derivative(3)(0.4)) < 1e-12


def _ndim_call(phi, x):
    """``TestFunction.__call__`` as it was before its Python-float fast path."""
    return phi._evaluate(np.asarray(x, dtype=float)) if np.ndim(x) else phi._evaluate(float(x))


_SCALAR_KINDS = {
    "gaussian": sc.make_gaussian(0.3, 0.8),
    "bump": sc.make_bump(-0.7, 1.3),
    "exp_decay": sc.make_exp_decay(1.5),
}
_SCALAR_INPUTS = {
    "float": float,
    "float64": np.float64,
    "int": lambda v: int(round(v)),
    "0-d array": np.array,
}


def _bits(v):
    return type(v), np.asarray(v).tobytes()


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_SCALAR_KINDS)), order=st.integers(0, 6),
       x=st.floats(-3.0, 3.0), make=st.sampled_from(sorted(_SCALAR_INPUTS)))
def test_scalar_call_is_the_ndim_path_bit_for_bit(kind, order, x, make):
    """A scalar of any kind gives the value and type the ``np.ndim`` path gives."""
    phi = _SCALAR_KINDS[kind].derivative(order)
    arg = _SCALAR_INPUTS[make](x)
    assert _bits(phi(arg)) == _bits(_ndim_call(phi, arg))
    # the float fast path inside the evaluator agrees with its np.ndim path
    v = float(arg)
    assert _bits(phi._evaluate(v)) == _bits(phi._evaluate(np.float64(v)))


def _bump_reference(a, b, order, x):
    """The bump's scalar value with every factor formed per call, in the
    evaluator's order of operations."""
    poly, o = np.array([1.0]), 0
    while o < order:
        poly, o = _bump_step(poly, o)
    u = (2.0 * float(x) - a - b) / (b - a)
    if not -1.0 < u < 1.0:
        return 0.0
    q = 1.0 - u * u
    acc = 0.0
    for c in reversed(tuple(float(c) for c in poly)):
        acc = acc * u + c
    return acc / q ** (2 * order) * math.exp(-1.0 / q) * (2.0 / (b - a)) ** order


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-3.0, 3.0), width=st.floats(1e-3, 5.0), order=st.integers(0, 8),
       t=st.floats(-0.1, 1.1))
def test_bump_scalar_value_is_the_per_call_formula_bit_for_bit(a, width, order, t):
    b = a + width
    x = a + t * width
    value = sc.make_bump(a, b).derivative(order)(x)
    assert type(value) is float
    assert np.float64(value).tobytes() == np.float64(_bump_reference(a, b, order, x)).tobytes()
