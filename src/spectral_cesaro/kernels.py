"""Green kernels of -d2/dx2 on the line and the Dirichlet interval (0, pi).

Four kernels: heat exp(-tH), Schrodinger exp(-itH), cylinder exp(-t sqrt(H)),
and the interval Wightman function (2 sqrt(H))^{-1} exp(it sqrt(H)). Each has
at least two independent evaluation paths (eigen-series / image sum / closed
form), plus small-t expansion extraction and smeared ("averaged") evaluation.

Sign convention for the Wightman kernel: the phase exp(+i k t) is used so
that the closed form's real part matches the Cesaro-summed series AND its
imaginary part equals P/4 with the piecewise d'Alembert function P below;
with exp(-i k t) the two requirements are incompatible (the two published
forms differ by exactly this conjugation).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BoundaryError, DomainError, ParameterError,
                     SingularityError)
from .quadrature import _exact_sum, integrate, lobe_sum
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


def _check_case(case, x, y):
    if case not in CASES:
        raise ParameterError(f"case must be one of {CASES}")
    if case == "interval" and not (0.0 <= x <= math.pi and 0.0 <= y <= math.pi):
        raise DomainError("interval case needs x, y in [0, pi]")


# ------------------------------------------------------------------- heat

def heat_kernel(case: str, t: float, x: float, y: float,
                method: str = "closed_form") -> KernelEval:
    """Heat kernel K(t,x,y) on the line or the Dirichlet interval.

    line: closed form (4 pi t)^{-1/2} exp(-(x-y)^2/4t); spectral_sum is the
    Fourier integral (1/2pi) int exp(-k^2 t) cos(k(x-y)) dk over the line,
    taken as a cosine transform: twice the integrand, integrated over
    [0, inf) at tol 1e-12. QUADPACK's ``dqagie`` adds f(k) + f(-k) at every
    node of (-inf, inf), which for this exactly even integrand is 2 f(k),
    so the half line gives the full-line value, error estimate and any
    AccuracyError bit for bit, from half the integrand calls. interval:
    spectral_sum is the sine eigen-series, image_sum the reflected-Gaussian
    lattice sum; both are truncated with explicit tail bounds.
    """
    _check_finite(t, x, y)
    if t <= 0:
        raise DomainError("heat kernel needs t > 0")
    _check_case(case, x, y)
    if case == "line":
        if method in ("closed_form", "image_sum"):
            v = math.exp(-((x - y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
            return KernelEval(v, "closed_form", None, 5e-17 * abs(v))
        d, mt, two_pi, exp, cos = x - y, -t, 2.0 * math.pi, math.exp, math.cos
        r = integrate(lambda k: exp(k * k * mt) * cos(k * d) / two_pi * 2.0,
                      0.0, math.inf, tol=1e-12)
        return KernelEval(r.value, "spectral_sum", None, r.error_estimate)
    if method == "spectral_sum":
        kmax = max(8, int(math.sqrt(40.0 / t)) + 1)
        ks = np.arange(1, kmax + 1)
        terms = (2.0 / math.pi) * np.sin(ks * x) * np.sin(ks * y) * np.exp(-ks**2 * t)
        # tail: sum_{k>K} e^{-k^2 t} < e^{-K^2 t} e^{-2Kt} / (1 - e^{-2Kt})
        q = math.exp(-2.0 * kmax * t)
        tail = (2.0 / math.pi) * math.exp(-kmax * kmax * t) * q / (1.0 - q)
        return KernelEval(_exact_sum(terms), "spectral_sum", kmax, tail)
    if method in ("image_sum", "closed_form"):
        nimg = max(2, int(math.sqrt(40.0 * t) / (2.0 * math.pi)) + 2)
        vals = []
        for n in range(-nimg, nimg + 1):
            vals.append(math.exp(-((x - y - 2.0 * n * math.pi) ** 2) / (4.0 * t)))
            vals.append(-math.exp(-((x + y - 2.0 * n * math.pi) ** 2) / (4.0 * t)))
        pref = 1.0 / math.sqrt(4.0 * math.pi * t)
        # first omitted Gaussian dominates the tail
        d = 2.0 * (nimg + 1) * math.pi - 2.0 * math.pi
        tail = 4.0 * pref * math.exp(-(d ** 2) / (4.0 * t))
        return KernelEval(pref * math.fsum(vals), "image_sum", 2 * nimg + 1, tail)
    raise ParameterError(f"unsupported method {method!r} for heat {case}")


# ------------------------------------------------------------ schrodinger

def schrodinger_kernel(case: str, t: float, x: float, y: float,
                       method: str = "closed_form") -> KernelEval:
    """Schrodinger propagator U(t,x,y); t may be negative, never zero.

    The line closed form carries the phase exp(-i sgn(t) pi/4) and modulus
    (4 pi |t|)^{-1/2}. A pointwise spectral sum is unsupported: the raw
    series/integral does not converge pointwise, which is the reason this
    kernel's small-t expansion is only an averaged one. The interval image
    sum is returned truncated with an infinite error estimate (every image
    has the same modulus as the main term); it is meaningful only inside
    smeared quantities.
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
        v = pref * cmath.exp(1j * (x - y) ** 2 / (4.0 * t))
        return KernelEval(v, "closed_form", None, 5e-17 * abs(v))
    if method != "image_sum":
        raise ParameterError("interval schrodinger kernel has no closed form; "
                             "use image_sum or averaged_smear")
    total = 0.0 + 0.0j
    for n in range(-_SCHRODINGER_IMAGES, _SCHRODINGER_IMAGES + 1):
        total += cmath.exp(1j * (x - y - 2.0 * n * math.pi) ** 2 / (4.0 * t))
        total -= cmath.exp(1j * (x + y - 2.0 * n * math.pi) ** 2 / (4.0 * t))
    return KernelEval(pref * total, "image_sum", 2 * _SCHRODINGER_IMAGES + 1, math.inf)


# --------------------------------------------------------------- cylinder

def cylinder_kernel(case: str, t: float, x: float, y: float,
                    method: str = "closed_form") -> KernelEval:
    """Cylinder kernel T(t,x,y) = kernel of exp(-t sqrt(H)).

    line closed form t/(pi((x-y)^2+t^2)); its spectral_sum is the Fourier
    integral (1/2pi) int exp(-|k| t) cos(k(x-y)) dk, taken as the heat
    kernel's is: a cosine transform over [0, inf) of twice the integrand at
    tol 1e-12, equal bit for bit to the full-line integral. interval closed
    form in terms of sinh/cosh, eigen-series with a geometric tail bound,
    and a Lorentzian image sum with an integral tail correction.
    """
    _check_finite(t, x, y)
    if t <= 0:
        raise DomainError("cylinder kernel needs t > 0")
    _check_case(case, x, y)
    if case == "line":
        if method in ("closed_form", "image_sum"):
            v = t / (math.pi * ((x - y) ** 2 + t * t))
            return KernelEval(v, "closed_form", None, 5e-17 * abs(v))
        d, mt, two_pi, exp, cos = x - y, -t, 2.0 * math.pi, math.exp, math.cos
        r = integrate(lambda k: exp(k * mt) * cos(k * d) / two_pi * 2.0,
                      0.0, math.inf, tol=1e-12)
        return KernelEval(r.value, "spectral_sum", None, r.error_estimate)
    if method == "closed_form":
        v = (math.sinh(t) / (math.cosh(t) - math.cos(x - y))
             - math.sinh(t) / (math.cosh(t) - math.cos(x + y))) / (2.0 * math.pi)
        return KernelEval(v, "closed_form", None, 1e-15 * max(abs(v), 1.0))
    if method == "spectral_sum":
        kmax = max(8, int(40.0 / t) + 1)
        ks = np.arange(1, kmax + 1)
        terms = (2.0 / math.pi) * np.sin(ks * x) * np.sin(ks * y) * np.exp(-ks * t)
        q = math.exp(-t)
        tail = (2.0 / math.pi) * math.exp(-(kmax + 1) * t) / (1.0 - q)
        return KernelEval(_exact_sum(terms), "spectral_sum", kmax, tail)
    if method == "image_sum":
        M = 400
        vals = []
        for n in range(-M, M + 1):
            vals.append(1.0 / ((x - y - 2.0 * n * math.pi) ** 2 + t * t))
            vals.append(-1.0 / ((x + y - 2.0 * n * math.pi) ** 2 + t * t))
        total = math.fsum(vals)
        # integral correction for the paired lattice tail (~ xy/(pi^3 n^3))
        def pair(u):
            return (1.0 / ((x - y - 2.0 * u * math.pi) ** 2 + t * t)
                    - 1.0 / ((x + y - 2.0 * u * math.pi) ** 2 + t * t)
                    + 1.0 / ((x - y + 2.0 * u * math.pi) ** 2 + t * t)
                    - 1.0 / ((x + y + 2.0 * u * math.pi) ** 2 + t * t))
        corr = integrate(pair, M + 0.5, math.inf, tol=1e-14).value
        err = abs(pair(M + 0.5)) / 12.0   # Euler-Maclaurin first correction scale
        return KernelEval(t / math.pi * (total + corr), "image_sum",
                          2 * M + 1, t / math.pi * err)
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
    spectral_sum: Cesaro-1 means of
    (1/pi) sum_k sin(kx) sin(ky) exp(+ikt)/k at truncation N = ``n_terms``,
    with weights 1 - k/(N+1); the series is only conditionally convergent
    near the singular lines, so plain partial sums are not offered. Points
    with |cos t - cos(x+-y)| below 1e-9 raise SingularityError.
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
        ks = np.arange(1, n_terms + 1)
        terms = (np.sin(ks * x) * np.sin(ks * y) / ks) * np.exp(1j * ks * t) / math.pi
        weights = 1.0 - ks / (n_terms + 1.0)
        v = complex(np.sum(weights * terms))
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

def _schrodinger_breakpoints(r2: float, eps: float, a: float, b: float):
    """Zeros of cos/sin of the phase r2/(4 eps t) inside [a, b], ascending."""
    theta = lambda t: r2 / (4.0 * eps * t)
    hi, lo = theta(a), theta(b)     # theta decreases in t
    k0, k1 = int(math.ceil(lo / math.pi)), int(math.floor(hi / math.pi))
    pts = [r2 / (4.0 * eps * k * math.pi) for k in range(k0, k1 + 1) if k > 0]
    return sorted(p for p in pts if a < p < b)


def averaged_smear(kind: str, case: str, x: float, y: float,
                   phi: TestFunction, eps: float, tol: float = 1e-12) -> complex:
    """Smeared kernel value <G(eps t, x, y), phi(t)> over t in (0, inf).

    For the oscillatory Schrodinger profile every off-diagonal term (each
    image, on the interval) is split at its phase lobes and the lobes are
    added in order by :func:`lobe_sum`: one Gauss-Kronrod-21 pass over up to
    256 lobes at a time, with adaptive quadrature only for the lobes that
    pass rejects. Its integrands are numpy expressions in ``t``, so ``phi``
    must accept arrays. Decaying profiles use plain adaptive quadrature.
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    if not phi.decays:
        raise ParameterError("phi must decay")
    _check_case(case, x, y)
    lo, hi = phi.support if phi.support else (0.0, math.inf)
    lo = max(lo, 0.0)

    if kind == "heat":
        f = lambda t: heat_kernel(case, eps * t, x, y).value * phi(t)
        return complex(integrate(f, lo, hi, tol=tol).value)
    if kind == "cylinder":
        f = lambda t: cylinder_kernel(case, eps * t, x, y).value * phi(t)
        return complex(integrate(f, lo, hi, tol=tol).value)
    if kind != "schrodinger":
        raise ParameterError(f"averaged_smear unsupported for kind {kind!r}")

    pairs = [(x - y, +1.0)]
    if case == "interval":
        n_images = 6
        pairs = []
        for n in range(-n_images, n_images + 1):
            pairs.append((x - y - 2.0 * n * math.pi, +1.0))
            pairs.append((x + y - 2.0 * n * math.pi, -1.0))
        pairs.sort(key=lambda p: abs(p[0]))  # nearest images dominate

    pref = cmath.exp(-1j * math.pi / 4.0) / math.sqrt(4.0 * math.pi * eps)
    total = 0.0 + 0.0j
    for d, sign in pairs:
        r2 = d * d

        def f_re(t, r2=r2):
            return phi(t) / np.sqrt(t) * np.cos(r2 / (4.0 * eps * t))

        def f_im(t, r2=r2):
            return phi(t) / np.sqrt(t) * np.sin(r2 / (4.0 * eps * t))

        if r2 == 0.0:
            # substitute t = s^2: int phi(t)/sqrt(t) dt = 2 int phi(s^2) ds
            s_lo, s_hi = math.sqrt(lo), math.sqrt(hi) if math.isfinite(hi) else math.inf
            re = 2.0 * integrate(lambda s: phi(s * s), s_lo, s_hi, tol=tol).value
            im = 0.0
        else:
            if not math.isfinite(hi):
                raise ParameterError(
                    "off-diagonal schrodinger smear needs compactly supported phi")
            pts = [lo] + _schrodinger_breakpoints(r2, eps, lo, hi) + [hi]
            re = lobe_sum(f_re, pts, tol=tol).value
            im = lobe_sum(f_im, pts, tol=tol).value
        contribution = sign * pref * complex(re, im)
        total += contribution
        if case == "interval" and abs(d) > abs(x) + abs(y) and abs(contribution) < tol:
            break
    return complex(total)
