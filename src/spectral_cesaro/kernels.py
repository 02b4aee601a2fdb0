"""Green kernels of -d2/dx2 on the line and the Dirichlet interval (0, pi).

Four kernels: heat exp(-tH), Schrodinger exp(-itH), cylinder exp(-t sqrt(H)),
and the interval Wightman function (2 sqrt(H))^{-1} exp(it sqrt(H)). Each has
at least two independent evaluation paths (eigen-series / image sum / closed
form), plus small-t expansion extraction and smeared ("averaged") evaluation.

Every interval eigen-series is ``spectral._sine_series`` with the kernel's
profile g(k), every interval image sum runs over :func:`_image_array`,
and the heat and cylinder line closed forms are :func:`_smear_profile` on
a point or on a smear's nodes. The line heat kernel's Fourier integral and
every smear with a compactly supported test function are trapezoidal rules
with estimated Poisson aliases (:func:`_heat_line_trapezoid`,
:func:`averaged_smear`: one rule in s = 1/t for the heat, cylinder and
Schrodinger kernels); the line cylinder kernel's is QUADPACK in u = k t.
A route whose error estimate misses its tolerance raises AccuracyError; one
that would need more than 10^7 terms, nodes or images, or whose closed form
cannot be evaluated in doubles, raises ParameterError naming one that can.

Sign convention for the Wightman kernel: the phase exp(+i k t) is used so
that the closed form's real part matches the Cesaro-summed series AND its
imaginary part equals P/4 with the piecewise d'Alembert function P below;
with exp(-i k t) the two requirements are incompatible (the two published
forms differ by exactly this conjugation).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BoundaryError, DomainError, ParameterError,
                     SingularityError)
from .quadrature import QuadratureResult, _check_accuracy, _exact_sum, integrate
from .spectral import _MAX_SERIES_TERMS, _sine_series
from .testfn import TestFunction

__all__ = [
    "KernelEval",
    "ExpansionCoefficients",
    "heat_kernel",
    "schrodinger_kernel",
    "cylinder_kernel",
    "wightman_P",
    "wightman_interval",
    "small_t_coefficients",
    "averaged_smear",
]

CASES = ("line", "interval")
METHODS = ("closed_form", "spectral_sum", "image_sum")
# distance to a jump of P in t, and to the light cone in cos t, that raises
_WIGHTMAN_TOL = 1e-9
_SCHRODINGER_IMAGES = 8     # image pairs on each side of the interval sum
_LINE_TOL = 1e-12           # tolerance of the line kernels' Fourier routes
_U = 2.0 ** -53             # unit roundoff of a double
_HEAT_ALIAS = 2.1 * math.exp(-40.0)     # all Poisson aliases, relative to T_h
_SMEAR_W = 2000.0           # the Schrodinger smear's alias frequency times (b-a)/b^2


@dataclass(frozen=True)
class KernelEval:
    value: complex
    method: str
    truncation: Optional[int]
    error_estimate: float

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}")


def _check_finite(t, x, y):
    # math.isfinite only: the smears call the kernels thousands of times
    if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"t={t}, x={x}, y={y} must be finite")


def _image_array(x, y, n):
    """Dirichlet images as two arrays, the distances d and the signs:
    x - y - 2 pi j (+1.0) and x + y - 2 pi j (-1.0) for j = -n..n, in that
    order, with 2 pi j formed as (2.0 * j) * pi."""
    c = 2.0 * np.arange(-n, n + 1.0) * math.pi
    d = np.empty(2 * len(c))
    d[0::2], d[1::2] = (x - y) - c, (x + y) - c
    return d, np.tile((1.0, -1.0), len(c))


def _heat_images(x, y, t, hint=""):
    """The heat interval images at t: n = max(2, int(sqrt(40 t)/(2 pi)) + 2)
    and ``_image_array(x, y, n)``; past the budget a ParameterError + ``hint``."""
    n = max(2, int(min(math.sqrt(40.0 * t) / (2.0 * math.pi), _MAX_SERIES_TERMS)) + 2)
    if 2 * n + 1 > _MAX_SERIES_TERMS:
        raise ParameterError(f"the heat interval image sum would need {2 * n + 1:.3g} images "
                             f"at t={t!r}, more than the budget of {_MAX_SERIES_TERMS}{hint}")
    return (n, *_image_array(x, y, n))


def _check_case(case, x, y):
    if case not in CASES:
        raise ParameterError(f"case must be one of {CASES}")
    if case == "interval" and not (0.0 <= x <= math.pi and 0.0 <= y <= math.pi):
        raise DomainError("interval case needs x, y in [0, pi]")


def _series_length(u: float, alternative: str) -> int:
    """int(u) + 1, the length of an interval eigen-series, within the budget.

    Above ``_MAX_SERIES_TERMS`` terms (or for u = inf) raises ParameterError
    naming the ``alternative`` methods, before any array is allocated.
    """
    if not u < _MAX_SERIES_TERMS:
        raise ParameterError(
            f"spectral_sum would need {u + 1:.3g} terms, more than the budget "
            f"of {_MAX_SERIES_TERMS}; use method {alternative}")
    return int(u) + 1


# ------------------------------------------------------------------- heat

def _heat_line_trapezoid(t: float, d: float) -> KernelEval:
    """(1/pi) int_0^inf exp(-k^2 t) cos(k d) dk, d >= 0, by the trapezoidal rule.

    The value is T_N = (h/pi)(1/2 + sum_{n=1}^{N} w_n cos(n h d)) with
    w_n = exp(-a_n), a_n = (n h sqrt t)^2, h = 2 pi/(2d + 4 sqrt(10 t)) and
    N = int(sqrt(41)/(h sqrt t)) + 1 nodes, the terms summed correctly
    rounded (Trefethen & Weideman, SIAM Review 56, 2014). Its error estimate
    adds three bounds:

    - alias: by Poisson summation the whole trapezoid sum T_h is K(d) plus
      the kernel at m P -+ d for m >= 1, P = 2 pi/h. Each is at least
      4 sqrt(10 t) m beyond d, so together they add at most 2.1 e^{-40} K(d),
      and K(d) <= T_h <= |T_N| + tail + rounding.
    - tail: the nodes past N add at most (h/pi) e^{-q^2}/(1 - e^{-2(N+1)h^2 t}),
      q = (N+1) h sqrt t > sqrt 41.
    - rounding: a_n is formed within 7u of itself and n h d within 2u
      (u = 2^-53), exp and cos are taken within 4 ulp, and the sum, 1/2 + sum
      and h/pi with three more roundings; that gives
      u (h/pi)(12 + sum w_n (24 + 24 a_n + 3 n h d)), which holds the second
      order terms too.

    ``truncation`` is N. More than ``_MAX_SERIES_TERMS`` nodes (d/sqrt t
    above about 5e6) is a ParameterError naming closed_form; an estimate
    that ``integrate`` would refuse at tol 1e-12, mostly where the value
    cancels to far below the n h d rounding (d^2/t large), an AccuracyError
    with integrate's message and the value as best estimate.
    """
    rt = math.sqrt(t)
    h = 2.0 * math.pi / (2.0 * d + 4.0 * math.sqrt(10.0) * rt)
    s = h * rt                     # node spacing in units of 1/sqrt(t)
    nodes = _series_length(math.sqrt(41.0) / s if s > 0.0 else math.inf,
                           "closed_form")
    n = np.arange(1.0, nodes + 1.0)
    a, theta = (n * s) ** 2, n * (h * d)
    w = np.exp(-a)
    hp = h / math.pi
    value = hp * (0.5 + _exact_sum(w * np.cos(theta)))
    q = (nodes + 1) * s
    err = (hp * math.exp(-q * q) / -math.expm1(-2.0 * q * s)
           + _U * hp * (12.0 + float(np.dot(w, 24.0 + 24.0 * a + 3.0 * theta))))
    err += _HEAT_ALIAS * (abs(value) + err)
    _check_accuracy(value, err, _LINE_TOL)
    return KernelEval(value, "spectral_sum", nodes, err)


def _line_closed_form(kind: str, t: float, x: float, y: float) -> KernelEval:
    """The heat or cylinder line closed form at one t: :func:`_smear_profile`
    on [t], whose overflows it refuses, naming spectral_sum, not warns of."""
    with np.errstate(over="ignore"):
        g, bound = _smear_profile(kind, "line", x, y, np.array([t]),
                                  "; use method spectral_sum")
    return KernelEval(float(g[0]), "closed_form", None, float(bound[0]))


def heat_kernel(case: str, t: float, x: float, y: float,
                method: str = "closed_form") -> KernelEval:
    """Heat kernel K(t,x,y) on the line or the Dirichlet interval.

    line: closed form (4 pi t)^{-1/2} exp(-(x-y)^2/4t), the one-node
    :func:`_smear_profile` with its estimate, refusing an (x-y)^2 that
    overflows, and 4 pi t (t above about 1.43e307) naming spectral_sum.
    spectral_sum is the Fourier integral (1/2pi) int exp(-k^2 t)
    cos(k(x-y)) dk by the trapezoidal rule of :func:`_heat_line_trapezoid`:
    nodes n h, with h = 2 pi/(2|x-y| + 4 sqrt(10 t)) so that the Poisson
    aliases add at most 2.1 e^{-40} of the value. Its ``truncation`` is the
    node count N, about 13 where |x-y| << sqrt t, and its ``error_estimate``
    bounds the aliases, the nodes past N and the rounding. It raises
    AccuracyError (with the value as best estimate) where that bound misses
    tol 1e-12, as for t << (x-y)^2 at t below about 1e-5, and ParameterError
    naming closed_form where it would need more than 10^7 nodes.

    interval: spectral_sum is ``_sine_series`` with profile g(k) = exp(-k^2 t)
    over k <= K = max(8, int(sqrt(40/t)) + 1), image_sum the reflected-Gaussian
    sum over ``_image_array``, and closed_form the image sum below t = 1 and
    the 8-term series from t = 1 on, where the signed images cancel. Each
    adds its rounding to a tail bound. The series' is u ((2/pi) B + |v|) +
    4K 2^-1074, B = sum_{k>=1} e^{-a_k}(30 + a_k + k (x+y)), a_k = k^2 t, in
    closed form (each unimodal sum is at most its integral over [1, inf) plus
    its largest term): k x and k y are within u k x and u k y, which moves
    each sine by as much; 2/pi, the sines and exp (4 ulp each), a_k (u a_k)
    and three products add (28 + a_k)u, with |sin| <= 1; the sum u|v|; a
    subnormal operation 2^-1074. The image sum pref sum_j s_j e^{-a_j}, a_j = d_j^2/4t, adds
    u pref sum_j e^{-a_j}(7 + 8 a_j + 1.5 (x+y)|d_j|/t) and 2^-1074 (1 + pref
    (n + 4)) for subnormals: d_j is within u (3(x+y) + 3|d_j|), far above
    u|d_j| where x + y - 2 pi cancels, the square and quotient add 2u a_j,
    exp 2u, and fsum, pref and the product 5u. spectral_sum raises
    ParameterError where it would need more than 10^7 terms (t below about
    4e-13), and image_sum where it would need more than 10^7 images (t above
    about 2.5e13), naming the other.
    """
    _check_finite(t, x, y)
    if t <= 0:
        raise DomainError("heat kernel needs t > 0")
    _check_case(case, x, y)
    if case == "line":
        if method in ("closed_form", "image_sum"):
            return _line_closed_form("heat", t, x, y)
        return _heat_line_trapezoid(t, abs(x - y))
    if method == "spectral_sum" or (method == "closed_form" and t >= 1.0):
        kmax = max(8, _series_length(math.sqrt(40.0 / t), "closed_form or image_sum"))
        v = _sine_series(x, y, kmax, lambda k: np.exp(-k**2 * t))
        # tail: sum_{k>K} e^{-k^2 t} < e^{-K^2 t} e^{-2Kt} / (1 - e^{-2Kt})
        q = math.exp(-2.0 * kmax * t)
        tail = (2.0 / math.pi) * math.exp(-kmax * kmax * t) * q / (1.0 - q)
        # B's sums over k >= 1: e^{-a_k} is e1 + i0, k e^{-a_k} s1 and a_k e^{-a_k} s2
        e1, i0 = math.exp(-t), math.sqrt(math.pi / t) / 2.0 * math.erfc(math.sqrt(t))
        s1 = e1 / (2.0 * t) + (e1 if t >= 0.5 else (2.0 * math.e * t) ** -0.5)
        s2 = (e1 + i0) / 2.0 + (t * e1 if t >= 1.0 else 1.0 / math.e)
        err = (tail + _U * ((2.0 / math.pi) * (30.0 * (e1 + i0) + s2 + (x + y) * s1) + abs(v))
               + 4.0 * kmax * 2.0**-1074)
        return KernelEval(v, "spectral_sum", kmax, err)
    if method in ("image_sum", "closed_form"):
        nimg, d, signs = _heat_images(x, y, t, "; use method spectral_sum")
        pref = 1.0 / math.sqrt(4.0 * math.pi * t)
        vals, weight, k = [], 0.0, 1.5 * (x + y) / t
        for dj, s in zip(d.tolist(), signs.tolist()):
            a = dj ** 2 / (4.0 * t)
            vals.append(s * math.exp(-a))
            weight += abs(vals[-1]) * (7.0 + 8.0 * a + k * abs(dj))
        # first omitted Gaussian dominates the tail
        far = 2.0 * (nimg + 1) * math.pi - 2.0 * math.pi
        tail = 4.0 * pref * math.exp(-(far ** 2) / (4.0 * t))
        err = tail + _U * pref * weight + 2.0**-1074 * (1.0 + pref * (len(vals) + 4))
        return KernelEval(pref * math.fsum(vals), "image_sum", 2 * nimg + 1, err)
    raise ParameterError(f"unsupported method {method!r} for heat {case}")


# ------------------------------------------------------------ schrodinger

def schrodinger_kernel(case: str, t: float, x: float, y: float,
                       method: str = "closed_form") -> KernelEval:
    """Schrodinger propagator U(t,x,y); t may be negative, never zero.

    The line closed form carries the phase exp(-i sgn(t) pi/4) and modulus
    (4 pi |t|)^{-1/2}. Its estimate u (12 + 4|a|)|v| + 2^-1074 |v|/(4 pi |t|)
    (u = 2^-53): the phase a = (x-y)^2/4t is within 4u|a|, and so is e^{ia};
    cos and sin, e^{-i sgn(t) pi/4}, the modulus and the product add 9.7u,
    and a subnormal 4 pi |t| the last term. Where (x-y)^2, a or 4 pi |t|
    overflows (tiny or huge |t|), ParameterError. A pointwise spectral sum
    is unsupported: the raw series/integral does not converge pointwise,
    which is the reason this kernel's small-t expansion is only an averaged
    one. The interval image sum is returned truncated with an infinite error
    estimate (every image has the same modulus as the main term); it is
    meaningful only inside smeared quantities.
    """
    _check_finite(t, x, y)
    if t == 0:
        raise DomainError("schrodinger kernel needs t != 0")
    _check_case(case, x, y)
    if method == "spectral_sum":
        raise ParameterError(
            "pointwise spectral_sum is unsupported for the schrodinger kernel; "
            "the expansion is averaged only -- use averaged_smear")
    phase = cmath.exp(-1j * math.copysign(1.0, t) * math.pi / 4.0)
    pref = phase / math.sqrt(4.0 * math.pi * abs(t))
    if case == "line":
        try:        # not d * d, which rounds differently from ** 2 at times
            a = (x - y) ** 2 / (4.0 * t)
        except OverflowError:
            a = math.inf
        if not (math.isfinite(a) and pref):
            raise ParameterError(f"the schrodinger line closed form overflows at "
                                 f"t={t!r}, x-y={x - y!r}")
        v = pref * cmath.exp(1j * a)
        err = (_U * (12.0 + 4.0 * abs(a)) + 2.0**-1074 / (4.0 * math.pi * abs(t))) * abs(v)
        return KernelEval(v, "closed_form", None, err)
    if method != "image_sum":
        raise ParameterError("interval schrodinger kernel has no closed form; "
                             "use image_sum or averaged_smear")
    total = 0j      # not sum(): it compensates complex addends on newer Pythons
    d, signs = _image_array(x, y, _SCHRODINGER_IMAGES)
    for dj, s in zip(d.tolist(), signs.tolist()):
        total += s * cmath.exp(1j * dj ** 2 / (4.0 * t))
    return KernelEval(pref * total, "image_sum", 2 * _SCHRODINGER_IMAGES + 1, math.inf)


# --------------------------------------------------------------- cylinder

def cylinder_kernel(case: str, t: float, x: float, y: float,
                    method: str = "closed_form") -> KernelEval:
    """Cylinder kernel T(t,x,y) = kernel of exp(-t sqrt(H)).

    line closed form t/(pi((x-y)^2+t^2)), the one-node :func:`_smear_profile`
    with estimate 10u|v| (u = 2^-53), a ParameterError naming spectral_sum
    where (x-y)^2 + t^2 falls below the normal doubles (both below about
    1.5e-154) or overflows (|x-y| or t above about 1.3e154). Its
    spectral_sum is the Fourier integral (1/2pi) int exp(-|k| t) cos(k(x-y)) dk
    in u = k t, i.e. (1/(2pi t)) int exp(-|u|) cos(u (x-y)/t) du, whose
    integrand decays on the scale 1 at every t. It is taken as a cosine
    transform, twice the integrand over [0, inf) at tol 1e-12: ``dqagie``
    adds f(u) + f(-u) = 2 f(u) at every node of (-inf, inf), so this gives
    the full line's value, estimate and any AccuracyError bit for bit from
    half the calls. The heat kernel's trapezoidal rule does not serve here:
    exp(-|k| t) has a kink at k = 0, which makes it only O(h^2).

    interval closed form in terms of sinh/cosh, with an error estimate from
    the cancellation in cosh t - cos(x -+ y); a ParameterError naming
    image_sum where that difference rounds to 0 (on the diagonal below
    t of about 1.5e-8), and naming spectral_sum above t = 710, where cosh t
    overflows. spectral_sum is ``_sine_series`` with profile g(k) = exp(-k t)
    and a geometric tail bound (ParameterError where it would need more than
    10^7 terms, t below about 4e-6).

    image_sum is (t/pi) sum_j s_j/(d_j^2 + t^2) over the 1,602 images of
    ``_image_array`` (|j| <= M = 400), formed as one array with the list
    form's operations and summed correctly rounded, plus the integral of the
    images past M over u >= M + 1/2, whose four arctangents fold into
    -atan(z)/(2 pi t), z = 8 w x y t/(D_- D_+ + 4 y^2 t^2),
    D_-+ = (w -+ x + y)(w -+ x - y) + t^2, w = 2 pi (M + 1/2). Where some
    d_j^2 + t^2 falls below the normal doubles (on the diagonal below t of
    about 1.5e-154) it raises ParameterError. The estimate adds:

    - rounding: d_j is within u (3(x+y) + 3|d_j|), so a term T_j is within
      u|T_j|(4 + 6|d_j|(x+y+|d_j|)|T_j|); the sum, the arctangent form
      (40u of itself) and the factor t/pi add u (t/pi)|sum| + 4u|v|, and
      2^-1074 (1 + |sum|) holds a subnormal t or value.
    - tail: the images past M against their integral, by the midpoint rule
      on each cell [j - 1/2, j + 1/2] of P(u) = F(|x-y|, u) - F(x+y, u),
      F(c, u) = L(c - 2 pi u) + L(c + 2 pi u), L(z) = 1/(z^2 + t^2). As
      |L^(4)(z)| <= 120/(z^2 + t^2)^3 and P_uu = -int F_uuc dc over
      [|x-y|, x+y], |P_uu(u)| <= 1920 pi^2 x y/R(u)^3 with
      R(u) = (2 pi (u - 1))^2 + t^2; the cells past M then add at most
      10 t x y/(w0 (w0^2 + t^2)^2), w0 = 2 pi (M - 3/2).
    """
    _check_finite(t, x, y)
    if t <= 0:
        raise DomainError("cylinder kernel needs t > 0")
    _check_case(case, x, y)
    if case == "line":
        if method in ("closed_form", "image_sum"):
            return _line_closed_form("cylinder", t, x, y)
        r, two_pi_t, exp, cos = (x - y) / t, 2.0 * math.pi * t, math.exp, math.cos
        res = integrate(lambda u: exp(-u) * cos(u * r) / two_pi_t * 2.0,
                        0.0, math.inf, tol=_LINE_TOL)
        return KernelEval(res.value, "spectral_sum", None, res.error_estimate)
    if method == "closed_form":
        if t > 710.0:
            raise ParameterError(f"cosh t overflows at t={t!r}; use method "
                                 "spectral_sum")
        c, s = math.cosh(t), math.sinh(t)
        d_minus, d_plus = c - math.cos(x - y), c - math.cos(x + y)
        if not min(d_minus, d_plus) > 0.0:
            raise ParameterError(
                f"cosh t - cos(x -+ y) rounds to 0 at t={t!r}, x={x!r}, y={y!r}; "
                "use method image_sum")
        a, b = s / d_minus, s / d_plus
        v = (a - b) / (2.0 * math.pi)

        def rel(dd, z):
            # cosh t is within 2u cosh t, cos(x -+ y) within u|x -+ y| + 2u (the
            # rounded argument, then cos) and their difference dd within u dd;
            # twice that bounds |dd - D|, and s/dd is then within r/(1-r) of s/D
            r = 2.0 * _U * (2.0 * c + 2.0 + abs(z) + dd) / dd
            return r / (1.0 - r) + 3.0 * _U if r < 1.0 else math.inf

        err = ((abs(a) * rel(d_minus, x - y) + abs(b) * rel(d_plus, x + y)
                + _U * (abs(a) + abs(b))) / (2.0 * math.pi) + 2.0 * _U * abs(v))
        return KernelEval(v, "closed_form", None, err)
    if method == "spectral_sum":
        kmax = max(8, _series_length(40.0 / t, "closed_form or image_sum"))
        v = _sine_series(x, y, kmax, lambda k: np.exp(-k * t))
        q = math.exp(-t)
        tail = (2.0 / math.pi) * math.exp(-(kmax + 1) * t) / (1.0 - q)
        return KernelEval(v, "spectral_sum", kmax, tail)
    if method == "image_sum":
        M = 400
        d, s = _image_array(x, y, M)
        q = np.float_power(d, 2.0) + t * t      # libm pow, as d ** 2 on a float
        if not q.min() >= sys.float_info.min:
            raise ParameterError(
                f"(x -+ y - 2 pi j)^2 + t^2 = {float(q.min())!r} in the cylinder interval "
                f"image sum falls below the normal doubles at t={t!r}, x={x!r}, y={y!r}")
        terms = s / q
        total = _exact_sum(terms)
        # the images past M: int_{M+1/2}^inf of the pair u -> +-(x -+ y -+ 2 pi u),
        # four arctangents folded into one, -atan(z)/(2 pi t) with z = g t
        w = 2.0 * math.pi * (M + 0.5)
        g = 8.0 * w * x * y / (((w - x + y) * (w - x - y) + t * t)
                               * ((w + x - y) * (w + x + y) + t * t) + 4.0 * (y * t) * (y * t))
        z = g * t
        corr = -(math.atan(z) / z if z else 1.0) * g / (2.0 * math.pi)
        v = t / math.pi * (total + corr)
        a, ad = np.abs(terms), np.abs(d)
        w0 = 2.0 * math.pi * (M - 1.5)
        r0 = w0 * w0 + t * t
        err = (_U * (t / math.pi * (float(np.dot(a, 4.0 + 6.0 * ad * (x + y + ad) * a))
                                    + abs(total) + 40.0 * abs(corr)) + 4.0 * abs(v))
               + 10.0 * x * y * (t / r0) / (w0 * r0)
               + 2.0**-1074 * (1.0 + abs(total)))
        return KernelEval(v, "image_sum", 2 * M + 1, err)
    raise ParameterError(f"unsupported method {method!r} for cylinder {case}")


# --------------------------------------------------------------- wightman

def wightman_P(t: float, x: float, y: float) -> int:
    """Piecewise d'Alembert factor P(t,x,y) in {-1, 0, 1}, odd in t.

    With r = |x-y| and f = x+y folded into [0, pi], and t reduced mod 2 pi
    into (-pi, pi]: P = -1 on (-f, -r), 0 on (-r, r), +1 on (r, f), 0 on the
    outer band. Evaluation within 1e-9 of a region boundary raises.
    """
    if not (0.0 < x < math.pi and 0.0 < y < math.pi):
        raise DomainError("x and y must lie in (0, pi)")
    r = abs(x - y)
    z = x + y
    f = z if z <= math.pi else 2.0 * math.pi - z
    tt = math.remainder(t, 2.0 * math.pi)   # in (-pi, pi]
    for b in (-f, -r, r, f):
        if abs(tt - b) < _WIGHTMAN_TOL:
            raise BoundaryError(f"t={t} is within {_WIGHTMAN_TOL} of a region "
                                f"boundary (reduced t={tt})")
    if -f < tt < -r:
        return -1
    if -r < tt < r:
        return 0
    if r < tt < f:
        return 1
    return 0


def wightman_interval(t: float, x: float, y: float,
                      method: str = "closed_form",
                      n_terms: int = 10**4) -> KernelEval:
    """Interval Wightman function W(t,x,y).

    closed_form: (1/4pi) ln|(cos t - cos(x+y))/(cos t - cos(x-y))| + (i/4) P.
    spectral_sum: the Cesaro-1 mean of the eigen-series at truncation
    N = ``n_terms``, i.e. ``_sine_series`` with profile
    g(k) = exp(+ikt)/(2k) (1 - k/(N+1)), correctly rounded in its real and
    imaginary parts; the series is only conditionally convergent near the
    singular lines, so plain partial sums are not offered, and N above
    10^7 raises ParameterError. Points with
    |cos t - cos(x+-y)| below 1e-9 raise SingularityError.
    """
    _check_finite(t, x, y)
    if not (0.0 < x < math.pi and 0.0 < y < math.pi):
        raise DomainError("x and y must lie in (0, pi)")
    if n_terms < 1:
        raise ParameterError("n_terms must be >= 1")
    d_minus = abs(math.cos(t) - math.cos(x - y))
    d_plus = abs(math.cos(t) - math.cos(x + y))
    if min(d_minus, d_plus) < _WIGHTMAN_TOL:
        raise SingularityError(
            "evaluation on the light cone: |cos t - cos(x+-y)| below tolerance",
            distance=min(d_minus, d_plus))
    if method == "closed_form":
        re = math.log(d_plus / d_minus) / (4.0 * math.pi)
        im = 0.25 * wightman_P(t, x, y)
        v = complex(re, im)
        return KernelEval(v, "closed_form", None, 1e-14 * max(1.0, abs(v)))
    if method == "spectral_sum":
        _series_length(n_terms - 1, "closed_form")
        v = _sine_series(x, y, n_terms, lambda k: np.exp(1j * k * t) / (2 * k)
                         * (1.0 - k / (n_terms + 1.0)))
        err = 10.0 / (n_terms * min(d_minus, d_plus))
        return KernelEval(v, "spectral_sum", n_terms, err)
    raise ParameterError(f"unsupported method {method!r} for wightman")


# ------------------------------------------------- small-t expansions

@dataclass(frozen=True)
class ExpansionCoefficients:
    """Small-t expansion: value ~ sum_j c_j t^(alpha_j).

    ``validity`` is 'pointwise' when the profile decays at infinity (heat,
    cylinder) and 'averaged' otherwise; ``locality`` is 'local' when the
    profile has an integer Taylor expansion at 0 (heat, schrodinger) and
    'global' when fractional/odd structure enters (cylinder, wightman).
    """
    terms: tuple               # ((exponent, coefficient), ...) ascending
    validity: str              # pointwise | averaged
    locality: str              # local | global

    def __post_init__(self):
        exps = [e for e, _ in self.terms]
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ParameterError("exponents must be strictly increasing")
        if self.validity not in ("pointwise", "averaged"):
            raise ParameterError("validity must be pointwise|averaged")
        if self.locality not in ("local", "global"):
            raise ParameterError("locality must be local|global")

    def coefficient(self, exponent: float) -> complex:
        for e, c in self.terms:
            if abs(e - exponent) < 1e-12:
                return c
        return 0.0

    def to_json_record(self, kind: str, case: str, x: float, y: float) -> dict:
        return {
            "kind": kind, "case": case, "x": x, "y": y,
            "terms": [{"exponent": e, "re": complex(c).real, "im": complex(c).imag}
                      for e, c in self.terms],
            "validity": self.validity, "locality": self.locality,
        }


def _fit_power_coefficients(ts, values, powers):
    """Least-squares fit values(t) = sum_p c_p t**p on a (geometric) ladder.

    Columns are norm-scaled before solving, which keeps the Vandermonde
    system well conditioned for the short ladders used here. Returns the
    coefficient array in the order of ``powers``.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values)
    A = np.array([ts**p for p in powers]).T
    cn = np.linalg.norm(A, axis=0)
    cn[cn == 0] = 1.0
    coef, *_ = np.linalg.lstsq(A / cn, vals, rcond=None)
    return coef / cn


def _heat_coeffs(case: str, x: float, y: float, N: int) -> ExpansionCoefficients:
    # K(t) = (4 pi t)^{-1/2} h(t); extract h(t) = a0 + a1 t + ... on a ladder
    # chosen so the flat exp(-rho^2/4t) image terms of the interval, rho the
    # distance to the nearest image, stay below 1e-14 of the lead
    t_top = 0.03
    if case == "interval":
        rho = min(x + y, 2.0 * math.pi - x - y)
        t_top = min(t_top, rho * rho / (4.0 * math.log(1e14)))
    ts = np.geomspace(t_top / 15.0, t_top, 12)
    h = np.array([heat_kernel(case, t, x, y).value.real
                  * math.sqrt(4.0 * math.pi * t) for t in ts])
    coef = _fit_power_coefficients(ts, h, list(range(N + 1)))
    pref = 1.0 / math.sqrt(4.0 * math.pi)
    terms = tuple((j - 0.5, pref * coef[j]) for j in range(N + 1))
    return ExpansionCoefficients(terms, "pointwise", "local")


def _schrodinger_coeffs(case: str, x: float, y: float, N: int) -> ExpansionCoefficients:
    # averaged expansion: off-diagonal all terms vanish; on the diagonal a
    # single leading term survives. Assembled from the closed form, whose
    # t-structure is exact (the whole point is that pointwise extraction in t
    # is meaningless for an oscillatory profile).
    if x == y:
        lead = cmath.exp(-1j * math.pi / 4.0) / math.sqrt(4.0 * math.pi)
        terms = tuple([(-0.5, lead)] + [(j - 0.5, 0.0) for j in range(1, N + 1)])
    else:
        terms = tuple((j - 0.5, 0.0) for j in range(N + 1))
    return ExpansionCoefficients(terms, "averaged", "local")


def _cylinder_coeffs(case: str, x: float, y: float, N: int) -> ExpansionCoefficients:
    diag = (x == y)
    powers = [2 * j + 1 for j in range(max(4, (N + 3) // 2))]
    ts = np.geomspace(0.02, 0.2, 14)
    if diag:
        g = np.array([cylinder_kernel(case, t, x, y).value.real
                      - 1.0 / (math.pi * t) for t in ts])
        coef = _fit_power_coefficients(ts, g, powers)
        terms = [(-1.0, 1.0 / math.pi)]
    else:
        g = np.array([cylinder_kernel(case, t, x, y).value.real for t in ts])
        coef = _fit_power_coefficients(ts, g, powers)
        terms = []
    terms += [(float(p), float(c)) for p, c in zip(powers, coef)]
    terms = [(e, c) for e, c in terms if e <= N + 1e-9]
    return ExpansionCoefficients(tuple(terms), "pointwise", "global")


def small_t_coefficients(kind: str, case: str, x: float, y: float,
                         N: int = 2) -> ExpansionCoefficients:
    """Small-t expansion coefficients of a model kernel at fixed (x, y).

    Coefficients of the decaying-profile kernels (heat, cylinder) are
    extracted numerically from the closed forms on a descending t-ladder,
    independent of any series representation. Heat terms are reported at
    exponents j - 1/2 (the (4 pi t)^{-1/2} normalization); cylinder terms are
    a Laurent list with the 1/(pi t) pole first on the diagonal.
    """
    _check_case(case, x, y)
    if case == "interval" and not (0.0 < x < math.pi and 0.0 < y < math.pi):
        raise ParameterError("interior points only")
    if N < 0:
        raise ParameterError("N must be >= 0")
    if kind == "heat":
        return _heat_coeffs(case, x, y, N)
    if kind == "schrodinger":
        return _schrodinger_coeffs(case, x, y, N)
    if kind == "cylinder":
        return _cylinder_coeffs(case, x, y, N)
    raise ParameterError(f"small_t_coefficients unsupported for kind {kind!r}")


# -------------------------------------------------------- averaged smears

def _smear_nodes(phi, lo: float, hi: float, eps: float, delta: float):
    """Nodes s = 1/hi + n delta over [1/hi, 1/lo] and h(s) = phi(1/s) s^{-3/2};
    past ``_MAX_SERIES_TERMS`` nodes a ParameterError before any array."""
    u = (1.0 / lo - 1.0 / hi) / delta + 1.0
    if not u < _MAX_SERIES_TERMS:
        raise ParameterError(
            f"smear over the support [{lo!r}, {hi!r}] at eps={eps!r} would need "
            f"{u + 1:.3g} nodes, more than the budget of {_MAX_SERIES_TERMS}")
    s = 1.0 / hi + delta * np.arange(int(u) + 1)
    t = 1.0 / s
    return s, phi(t) * (t * np.sqrt(t))


def _smear_alias(f, step: float) -> float:
    """2 max |f^(xi)| over [W, 2W] from one FFT of the samples ``f`` at
    spacing ``step`` = pi/(2W): the rfft's frequencies are 4 W k/m."""
    m = max(len(f), 64)
    return 2.0 * step * float(np.abs(np.fft.rfft(f, m))[(m + 3) // 4:].max())


def _smear_profile(kind: str, case: str, x: float, y: float, tau, hint: str = ""):
    """The heat or cylinder kernel G(tau, x, y) on the array ``tau`` > 0, by
    its closed form, and a bound on each entry's error (rounding, and for
    the heat interval images also the truncation); u = 2^-53. ``tau`` is
    a smear's node array, or [t] for a pointwise line closed form.

    - heat line: (4 pi tau)^{-1/2} e^{-a}, a = (x-y)^2/(4 tau), within
      u (7 + 6a)|G|: (x-y)^2 within 4u, tau within u, a within 6u, exp 4u,
      the root and the quotient 3u; and 2^-1074 (1 + (4 pi tau)^{-1/2}) for
      a subnormal exp(-a).
    - heat interval: pref sum_j s_j e^{-a_j} over the images of
      :func:`_heat_images` at the largest tau, added in order, and
      the same tail, four times the first omitted Gaussian; rounding
      u pref (sum_j e^{-a_j}(7 + 9 a_j + 6 (x+y) a_j/|d_j|) + sum_k |S_k|):
      the pointwise terms (6 (x+y) a_j/|d_j| = 1.5 (x+y)|d_j|/tau), tau's
      rounding, and the partial sums S_k of the running sum.
    - cylinder line: tau/(pi((x-y)^2 + tau^2)), within 10u |G|.
    - cylinder interval: (2/pi) q(1-q)(1+q) sin x sin y/(D_- D_+) with
      q = e^{-tau}, 1 - q = -expm1(-tau), D_-+ = (1-q)^2 + 4q sin^2((x-+y)/2),
      the sinh/cosh form with cosh tau - cos(x-+y) = D_-+/(2q): no
      difference of close numbers but x + y, which moves sin((x+y)/2) by
      u|z cot z|, z = (x+y)/2. Within u (40 + 4 tau + 2|z cot z|)|G|, and
      5 2^-1074/(D_- D_+) for a subnormal numerator.

    Where e^{-a} is 0 the heat bounds take a as 1e3, which keeps them
    finite. A square or a denominator that leaves the normal doubles is a
    ParameterError, whose message ends in ``hint`` but for the heat kernel's
    overflowing (x-y)^2; t in its message is eps t in a smear.
    """
    if case == "line":
        try:        # not d * d, which rounds differently from ** 2 at times
            r2 = (x - y) ** 2
        except OverflowError:
            raise ParameterError(f"(x-y)^2 overflows at x-y={x - y!r}"
                                 + (hint if kind == "cylinder" else "")) from None
    if kind == "heat":
        root = np.sqrt(4.0 * math.pi * tau)
        if not root[0] < math.inf:      # tau[0] = eps/s[0] is the largest
            raise ParameterError(f"4 pi t overflows at t={float(tau[0])!r}{hint}")
        pref = 1.0 / root
        floor = 2.0**-1074 * (1.0 + pref)
        if case == "line":
            a = r2 / (4.0 * tau)
            g = np.exp(-a) * pref
            return g, _U * (7.0 + 6.0 * np.minimum(a, 1e3)) * g + floor
        nimg, d, signs = _heat_images(x, y, float(tau[0]))
        total, weight = np.zeros_like(tau), np.zeros_like(tau)
        for dj, sj in zip(d.tolist(), signs.tolist()):
            a = dj * dj / (4.0 * tau)
            e = np.exp(-a)
            total += sj * e
            weight += e * (7.0 + np.minimum(a, 1e3)
                           * (9.0 + (6.0 * (x + y) / abs(dj) if dj else 0.0)))
            weight += np.abs(total)
        far = 2.0 * math.pi * nimg          # the first omitted image
        tail = 4.0 * pref * np.exp(-(far * far) / (4.0 * tau))
        return pref * total, _U * pref * weight + tail + floor * (len(d) + 4)
    if case == "line":
        q = r2 + tau * tau
        if not (q.min() >= sys.float_info.min and q.max() < math.inf):
            raise ParameterError(
                f"(x-y)^2 + t^2 leaves the normal doubles in the cylinder line closed "
                f"form at x-y={x - y!r}, t in [{float(tau[-1])!r}, {float(tau[0])!r}]{hint}")
        g = tau / (math.pi * q)
        return g, 10.0 * _U * g
    q, one_minus_q = np.exp(-tau), -np.expm1(-tau)
    sin_minus, sin_plus = math.sin((x - y) / 2.0), math.sin((x + y) / 2.0)
    d_minus = one_minus_q * one_minus_q + 4.0 * q * (sin_minus * sin_minus)
    d_plus = one_minus_q * one_minus_q + 4.0 * q * (sin_plus * sin_plus)
    if not d_minus.min() >= sys.float_info.min:     # d_plus >= d_minus on [0, pi]
        raise ParameterError(
            f"(1-q)^2 + 4q sin^2((x-y)/2) falls below the normal doubles in the "
            f"cylinder interval smear at x={x!r}, y={y!r}, eps t={float(tau[-1])!r}")
    g = ((2.0 / math.pi) * math.sin(x) * math.sin(y)) * (q * one_minus_q * (1.0 + q)) \
        / d_minus / d_plus
    z = 0.5 * (x + y)
    zc = abs(z * math.cos(z) / math.sin(z)) if z else 1.0
    return g, _U * (40.0 + 4.0 * tau + 2.0 * zc) * np.abs(g) + 5.0 * 2.0**-1074 / d_minus / d_plus


def _decaying_smear(kind: str, case: str, x: float, y: float, phi, lo: float,
                    hi: float, eps: float, tol: float) -> QuadratureResult:
    """int G(eps t, x, y) phi(t) dt for phi supported in [lo, hi], 0 < lo, by
    the trapezoidal rule in s = 1/t of :func:`averaged_smear`;
    ``evaluations`` is its node count, one kernel value each."""
    _check_finite(eps, x, y)
    w = _SMEAR_W * hi * hi / (hi - lo)
    step = math.pi / (2.0 * w)          # the FFT's spacing: aliases from 4W on
    s, h = _smear_nodes(phi, lo, hi, eps, step)
    tau = eps / s
    if not tau[-1] >= sys.float_info.min:
        raise ParameterError(f"eps t = {float(tau[-1])!r} falls below the normal doubles "
                             f"in the {kind} smear")
    g, bound = _smear_profile(kind, case, x, y, tau)
    hs = h / np.sqrt(s)
    f = hs * g
    value = step * _exact_sum(f)
    err = _smear_alias(f, step) + step * float(np.dot(np.abs(hs), 24.0 * _U * np.abs(g) + bound))
    _check_accuracy(value, err, tol)
    return QuadratureResult(value, err, len(s))


def _smear_term(phi, lo: float, hi: float, eps: float, r2: float, w: float,
                alias: float, tol: float) -> QuadratureResult:
    """int h(s) e^{i omega s} ds, omega = r2/(4 eps), by the trapezoidal rule
    of :func:`averaged_smear`; ``evaluations`` is its node count."""
    omega = r2 / (4.0 * eps)
    delta = 2.0 * math.pi / (omega + w)
    s, h = _smear_nodes(phi, lo, hi, eps, delta)
    theta = omega * s
    value = delta * complex(_exact_sum(h * np.cos(theta)), _exact_sum(h * np.sin(theta)))
    err = alias + _U * delta * float(np.dot(np.abs(h), 24.0 + 5.0 * theta))
    _check_accuracy(value, err, tol)
    return QuadratureResult(value, err, len(s))


def averaged_smear(kind: str, case: str, x: float, y: float,
                   phi: TestFunction, eps: float, tol: float = 1e-12) -> complex:
    """Smeared kernel value <G(eps t, x, y), phi(t)> over t in (0, inf).

    For phi supported in a compact [a, b], a > 0, every kind is one rule: in
    s = 1/t the smear is an integral over [1/b, 1/a] of a smooth function
    with compact support, and the trapezoidal rule, summed correctly
    rounded, is exact up to its Poisson aliases (Trefethen & Weideman, SIAM
    Review 56, 2014). With h(s) = phi(1/s) s^{-3/2}, the nodes are those of
    :func:`_smear_nodes` and W = 2000 b^2/(b-a). A bump's |h^(xi)| decays
    like exp(-sqrt(xi (b-a)/(2 b^2))), set by h at s = 1/b, so this W makes
    the rule commute with t -> c t; on [1, 2] (W = 8000) |h^| is 3.2e-15 at
    6000 and below 1e-16, the sums' rounding, from 8000. The alias estimate
    is 2 max |f^| over [W, 2W] for the integrand f, by one FFT of f at
    spacing pi/(2W) per call. There are no lobes, and no quadrature call
    but that of a Schrodinger diagonal term. An estimate ``integrate``
    would refuse at ``tol`` raises AccuracyError with the value as best
    estimate, as for a phi with a kink (|h^| ~ 1/xi^2).

    Decaying profiles (heat, cylinder): f(s) = h(s) s^{-1/2} G(eps/s, x, y)
    with G by its closed form on the node array (:func:`_smear_profile`;
    the cylinder interval kernel in q = e^{-eps t}, which does not cancel
    near the diagonal), summed at the FFT's own spacing pi/(2W). Its
    aliases sit at |xi| >= 4W, which the estimate over [W, 2W] bounds
    wherever |f^| decays past W; at spacing 2 pi/W that estimate was missed
    by 1.2% where the integrand peaks sharply (heat line, (1.25, 2.5),
    eps = 1e-3, the bump on [0.5, 1.5], value 1.9e-120). The rounding adds
    (pi/(2W)) sum |h_n s_n^{-1/2}|(24u|G_n| + e_n), e_n the closed form's
    bound. A phi whose support reaches 0 or infinity (``exp_decay``) is
    adaptive quadrature over the pointwise kernel instead.

    Schrodinger: the sum of (4 pi eps t)^{-1/2} e^{-i pi/4} e^{i r^2/(4 eps t)}
    over r = x - y (line) or the images ``_image_array(x, y, 6)`` nearest first,
    up to the first beyond |x| + |y| whose term is below ``tol`` (interval).
    A diagonal term (r = 0) is adaptive quadrature in t = s^2 and takes any
    decaying ``phi``. Every other term is int h(s) e^{i omega s} ds,
    omega = r^2/(4 eps), at spacing Delta = 2 pi/(omega + W): its aliases
    are those of h at |xi| >= W, estimated by the FFT of h. Each term adds
    the rounding u Delta sum |h_n| (24 + 5 omega s_n): the phase is within
    5u omega s_n, and h_n, cos, sin and the sums add 24u.

    ``phi`` must accept arrays. Off the diagonal a Schrodinger smear needs
    it supported in a compact subset of t > 0; a sum or FFT past
    ``_MAX_SERIES_TERMS`` nodes (a support reaching toward 0, a tiny eps) is
    refused, by ParameterError before any array is built; so is an eps that
    is not a positive finite number, before any quadrature.
    """
    if not 0 < eps < math.inf:
        raise ParameterError(f"eps must be a positive finite number, got {eps!r}")
    if not phi.decays:
        raise ParameterError("phi must decay")
    _check_case(case, x, y)
    lo, hi = phi.support if phi.support else (0.0, math.inf)
    lo = max(lo, 0.0)

    if kind in ("heat", "cylinder"):
        if 0.0 < lo and hi < math.inf:
            return complex(_decaying_smear(kind, case, x, y, phi, lo, hi, eps, tol).value)
        kernel = heat_kernel if kind == "heat" else cylinder_kernel
        f = lambda t: kernel(case, eps * t, x, y).value * phi(t)
        return complex(integrate(f, lo, hi, tol=tol).value)
    if kind != "schrodinger":
        raise ParameterError(f"averaged_smear unsupported for kind {kind!r}")

    if case == "interval" or (x - y) * (x - y) != 0.0:
        # the phase r2/(4 eps t) of an off-diagonal term has no value at t = 0;
        # every interval smear has images off the diagonal
        if not math.isfinite(hi):
            raise ParameterError(
                "off-diagonal schrodinger smear needs compactly supported phi")
        if lo <= 0.0:
            raise ParameterError(
                "off-diagonal schrodinger smear needs phi supported in t > 0, "
                f"got support {phi.support}")
        w = _SMEAR_W * hi * hi / (hi - lo)
        step = math.pi / (2.0 * w)      # the FFT's frequencies: 4 w k/m
        alias = _smear_alias(_smear_nodes(phi, lo, hi, eps, step)[1], step)
    pairs = [(x - y, +1.0)]
    if case == "interval":   # nearest images dominate
        d, signs = _image_array(x, y, 6)
        pairs = sorted(zip(d.tolist(), signs.tolist()), key=lambda p: abs(p[0]))

    pref = cmath.exp(-1j * math.pi / 4.0) / math.sqrt(4.0 * math.pi * eps)
    total = 0.0 + 0.0j
    for d, sign in pairs:
        r2 = d * d
        if r2 == 0.0:
            # substitute t = s^2: int phi(t)/sqrt(t) dt = 2 int phi(s^2) ds
            s_lo, s_hi = math.sqrt(lo), math.sqrt(hi) if math.isfinite(hi) else math.inf
            value = complex(2.0 * integrate(lambda s: phi(s * s), s_lo, s_hi, tol=tol).value)
        else:
            value = _smear_term(phi, lo, hi, eps, r2, w, alias, tol).value
        contribution = sign * pref * value
        total += contribution
        if case == "interval" and abs(d) > abs(x) + abs(y) and abs(contribution) < tol:
            break
    return complex(total)
