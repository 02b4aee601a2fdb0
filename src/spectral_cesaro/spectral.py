"""Spectral densities and staircases of the model operators.

Closed forms: the free-line density cos(sqrt(lam) (x-y)) / (2 pi sqrt(lam)),
its d-dimensional Bessel generalization, and the Dirichlet-interval
sine-series density. The Cesaro-averaged free-line equivalence off the
diagonal is a report-producing check; the Weyl law on the diagonal is
checked by the ``weyl-diagonal`` experiment, from the Riesz means of
:func:`interval_measure` and :func:`free_line_density_measure` at (x, x),
whose density is the smooth Weyl density 1/(2 pi sqrt(lam)). The WKB table
(:func:`wkb_coefficients`) holds the high-frequency expansion of the
density of -d2/dx2 + V, read from V, V', V'' and V''' at one point.

:func:`_sine_series` is the only float eigen-series of the interval; the
staircase, the density smear and every interval kernel pair its atoms with
their profile g through it. It keeps one read-only table of the atoms at
the most recent (x, y), at most 2**16 of them (512 KB), so the calls of a
smear, which move only t, take their sines from it; each entry is the
product formed without the table, so no sum moves by a bit.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import (from_float, from_int, from_man_exp, from_rational, mpf_cos_sin,
                          mpf_div, mpf_mul, mpf_pi, round_nearest, to_fixed)

from .errors import DataError, DomainError, ParameterError, SingularityError
from .measures import SpectralMeasure, riesz_mean
from .quadrature import _exact_sum
from .summability import CesaroReport, cesaro_order_test
from .testfn import TestFunction

__all__ = [
    "DensityEval",
    "density_free_line",
    "density_free_space",
    "staircase_interval",
    "density_smear_interval",
    "offdiagonal_equivalence_check",
    "evaluate_named_density",
    "interval_measure",
    "free_line_density_measure",
    "interval_minus_free_measure",
    "WkbTable",
    "wkb_coefficients",
]


@dataclass(frozen=True)
class DensityEval:
    """One point evaluation of a spectral density or staircase."""
    value: float
    lam: float
    x: float
    y: float
    truncation: Optional[int] = None

    def __post_init__(self):
        if self.lam < 0 and self.value != 0.0:
            raise ParameterError("densities vanish for negative lam")


NAMED_DENSITIES = ("free_line", "free_space", "interval_staircase", "weyl")

_SMEAR_TAIL_TOL = 1e-14
# the most terms of one interval eigen-series: the smear's and the kernels'
_MAX_SERIES_TERMS = 10**7
# the most atoms _sine_series keeps (512 KB), and the key and table it keeps
_SINE_TABLE_CAP = 1 << 16
_sine_cache = (None, None)
_OFFDIAG_BETA = -4.0
_OFFDIAG_MAX_ORDER = 8
_OFFDIAG_DPS = 30
_OFFDIAG_RATIO_THRESHOLD = 0.1
# the (lam, precision) pairs one free-line density closure keeps: a probe
# grid of 24 at the few guards its orders take (30 pairs at the default check)
_DENSITY_MEMO_CAP = 64


def evaluate_named_density(name: str, x: float, y: float, lam: float,
                           dimension: int = 1) -> DensityEval:
    """Evaluate a density addressable by name (the CLI entry point).

    Names: free_line, free_space (with ``dimension``), interval_staircase,
    weyl (the smooth diagonal density).
    """
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(lam)):
        raise DomainError(f"x={x}, y={y}, lam={lam} must be finite")
    if name == "free_line":
        v = density_free_line(x, y, lam)
        trunc = None
    elif name == "free_space":
        v = density_free_space(dimension, [x] + [0.0] * (dimension - 1),
                               [y] + [0.0] * (dimension - 1), lam)
        trunc = None
    elif name == "interval_staircase":
        v = staircase_interval(x, y, lam)
        trunc = int(math.isqrt(max(int(lam), 0)))
    elif name == "weyl":
        v = 1.0 / (2.0 * math.pi * math.sqrt(lam)) if lam > 0 else 0.0
        trunc = None
    else:
        raise ParameterError(
            f"unknown density {name!r}; known: {', '.join(NAMED_DENSITIES)}")
    return DensityEval(value=float(v), lam=lam, x=x, y=y, truncation=trunc)


def density_free_line(x: float, y: float, lam: float) -> float:
    """Free-line spectral density: cos(sqrt(lam)(x-y)) / (2 pi sqrt(lam)).

    Vanishes for lam < 0 (Heaviside factor); lam = 0 is the inverse-sqrt
    singularity.
    """
    if not math.isfinite(lam):
        raise DomainError(f"lam={lam} must be finite")
    if lam == 0:
        raise SingularityError("free-line density is singular at lam = 0")
    if lam < 0:
        return 0.0
    s = math.sqrt(lam)
    return math.cos(s * (x - y)) / (2.0 * math.pi * s)


def density_free_space(d: int, x, y, lam: float) -> float:
    """Free spectral density of -Laplace on R^d at points x, y.

    lam^{d/4-1/2} J_{d/2-1}(sqrt(lam) r) / (2^{d/2+1} pi^{d/2} r^{d/2-1}),
    r = |x-y|; on the diagonal the small-argument Bessel limit
    lam^{d/2-1} / (2^d pi^{d/2} Gamma(d/2)) is used.
    """
    if not math.isfinite(lam):
        raise DomainError(f"lam={lam} must be finite")
    if d < 1 or int(d) != d:
        raise ParameterError("dimension d must be an integer >= 1")
    if lam <= 0:
        return 0.0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    if xa.shape != ya.shape or xa.size != d:
        raise ParameterError(f"points must have dimension {d}")
    r = float(np.linalg.norm(xa - ya))
    if r == 0.0:
        return lam ** (d / 2.0 - 1.0) / (2.0**d * math.pi ** (d / 2.0)
                                         * math.gamma(d / 2.0))
    z = math.sqrt(lam) * r
    order = d / 2.0 - 1.0
    # J_{-1/2} and J_{1/2} by their closed forms (d = 1, 3), others by scipy's
    # jv, imported on first use so that importing the package skips scipy
    if order == -0.5:
        bessel = np.sqrt(2.0 / (np.pi * z)) * np.cos(z)
    elif order == 0.5 and z < 1e-4:
        # series sqrt(2z/pi)*(1 - z^2/6 + ...) avoids 0/0 at the origin
        bessel = np.sqrt(2.0 * z / np.pi) * (1.0 - z * z / 6.0 + z**4 / 120.0)
    elif order == 0.5:
        bessel = np.sqrt(2.0 / (np.pi * z)) * np.sin(z)
    else:
        from scipy.special import jv
        bessel = jv(order, z)
    return (lam ** (d / 4.0 - 0.5) * float(bessel)
            / (2.0 ** (d / 2.0 + 1.0) * math.pi ** (d / 2.0) * r ** (d / 2.0 - 1.0)))


def staircase_interval(x: float, y: float, lam: float) -> float:
    """Spectral function E(x,y;lam) = sum_{n^2<=lam} (2/pi) sin(nx) sin(ny)."""
    if not math.isfinite(lam):
        raise DomainError(f"lam={lam} must be finite")
    if not (0.0 < x < math.pi and 0.0 < y < math.pi):
        raise DomainError("x and y must lie in the open interval (0, pi)")
    if lam < 1.0:
        return 0.0
    # n^2 <= lam exactly when n^2 <= floor(lam)
    return _sine_series(x, y, math.isqrt(int(lam)), lambda k: 1.0)


def _sine_table(x: float, y: float, size: int):
    """(2/pi) sin(kx) sin(ky) for k = 1..size, read-only."""
    ks = np.arange(1, size + 1)
    table = (2.0 / math.pi) * np.sin(ks * x) * np.sin(ks * y)
    table.flags.writeable = False
    return table


def _sine_series(x: float, y: float, n: int, g):
    """sum_{k=1}^{n} (2/pi) sin(kx) sin(ky) g(k), each part correctly rounded.

    The atoms of ``interval_measure`` paired with a profile ``g``, which maps
    the array ``np.arange(1, n + 1)`` to its values; real and imaginary parts
    are each added by ``_exact_sum``.

    The atoms (2/pi) sin(kx) sin(ky) of the most recent float (x, y) are
    kept in one read-only table, keyed on the bits of x and y (so -0.0 and
    0.0 differ), which grows by doubling while the key stays and is
    replaced when it changes; only t moves between the calls of a smear.
    Above ``_SINE_TABLE_CAP`` terms, or for a non-float x or y, the atoms
    are computed for the call alone. A table entry is the product
    (2/pi) * sin(kx) * sin(ky) formed in that order, as without the table,
    and numpy's sine of an entry does not depend on the array's length, so
    every sum is bit for bit the uncached one. The key and the table are
    read as one immutable pair, so threads may share the table.
    """
    global _sine_cache
    ks = np.arange(1, n + 1)
    if n > _SINE_TABLE_CAP or not (isinstance(x, float) and isinstance(y, float)):
        return _exact_sum(_sine_table(x, y, n) * g(ks))
    key = struct.pack("<2d", x, y)
    held, table = _sine_cache
    if held != key or len(table) < n:
        size = n if held != key else min(max(n, 2 * len(table)), _SINE_TABLE_CAP)
        table = _sine_table(x, y, size)
        _sine_cache = (key, table)
    return _exact_sum(table[:n] * g(ks))


def density_smear_interval(x: float, y: float, phi: TestFunction,
                           eps: float) -> float:
    """Smeared interval density: sum_n (2/pi) sin(nx) sin(ny) phi(eps n^2).

    Truncates when a geometric bound on the remaining tail falls below
    1e-14, and gives up after 1e7 terms. phi must decay (the bump and
    exp_decay kinds).
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    if not phi.decays:
        raise ParameterError("phi must decay at infinity for the smear to converge")
    sup_hi = phi.support[1] if phi.support else None
    pv = []
    n = 1
    prev_abs = None
    while n <= _MAX_SERIES_TERMS:
        u = eps * n * n
        if sup_hi is not None and u > sup_hi:
            break
        pv.append(float(phi(u)))
        a = abs(pv[-1])
        if prev_abs is not None and 0.0 < a < prev_abs:
            ratio = a / prev_abs
            tail = (2.0 / math.pi) * a * ratio / (1.0 - ratio)
            if tail < _SMEAR_TAIL_TOL:
                break
        prev_abs = a
        n += 1
    else:
        raise DataError("smear did not converge within the term budget")
    return _sine_series(x, y, len(pv), lambda k: np.array(pv))


# -------------------------------------------------------------- WKB table

@dataclass(frozen=True)
class WkbTable:
    """Spectral-density coefficients rho_n^{jk}, j,k in {0,1}, n in {0,1,2}.

    dmu^{jk} ~ (1/pi) sum_n rho_n^{jk} omega^{2 dj1 dk1 - 2n} domega with
    lambda = omega^2. Truncated at n = 2; higher orders are out of scope.
    """
    entries: dict

    def density_series(self, j: int, k: int, omega: float) -> float:
        """(1/pi) sum_{n<=2} rho_n^{jk} omega^{2 dj1 dk1 - 2n}."""
        lead = 2 if (j == 1 and k == 1) else 0
        return sum(self.entries[(n, j, k)] * omega ** (lead - 2 * n)
                   for n in range(3)) / math.pi


def wkb_coefficients(v: float, v1: float, v2: float, v3: float) -> WkbTable:
    """The WKB table of -d2/dx2 + V through n = 2 at a point x0.

    The arguments are V, V', V'' and V''' at x0: the coefficients are local,
    and V''' enters only the mixed n = 2 entry.
    """
    v, v1, v2, v3 = float(v), float(v1), float(v2), float(v3)
    rho00 = {0: 1.0, 1: 0.5 * v, 2: 0.125 * (-v2 + 3.0 * v * v)}
    rho11 = {0: 1.0, 1: -0.5 * v, 2: 0.125 * (v2 - 3.0 * v * v)}
    # rho_n^{10} = rho_n^{01} = (1/2) d/dx0 rho_n^{00}
    rho01 = {0: 0.0, 1: 0.25 * v1, 2: 0.0625 * (-v3 + 6.0 * v * v1)}

    entries = {}
    for n in range(3):
        entries[(n, 0, 0)] = rho00[n]
        entries[(n, 1, 1)] = rho11[n]
        entries[(n, 0, 1)] = rho01[n]
        entries[(n, 1, 0)] = rho01[n]
    return WkbTable(entries=entries)


# ------------------------------------------------------- measure builders

def interval_measure(x: float, y: Optional[float] = None) -> SpectralMeasure:
    """Atomic sine-series density of the Dirichlet interval at (x, y).

    Atoms (2/pi) sin(nx) sin(ny) at lam = n^2; y defaults to x (diagonal).
    Boundary values of x, y are accepted. At x or y exactly 0 this is the
    zero measure; at the double nearest pi the weights are about n 1e-16.
    On the mpmath backend each weight is the exact (2/pi) sin(nx) sin(ny)
    of the doubles x and y to within 2**-(prec + 18) relative, rounded once
    at the working precision, so at most (1 + 2**-17) 2**-prec relative
    from the exact value (for an index array by :func:`_sine_atoms_mp`, for
    one index by :func:`_sine_weight_mp`).
    """
    yv = x if y is None else y
    if x == 0 or yv == 0:
        return SpectralMeasure()

    def atom_fn(n, B):
        if B is mp and isinstance(n, np.ndarray):
            return _sine_atoms_mp(x, yv, n)
        if B is mp:
            return mp.mpf(n) * n, _sine_weight_mp(x, yv, n)
        xn = B.mpf(n) * B.mpf(n)
        w = 2 * B.sin(n * B.mpf(x)) * B.sin(n * B.mpf(yv)) / B.pi
        return xn, w

    return SpectralMeasure.from_generator(atom_fn)


# A sine from the recurrence is used when its error bound is at most
# 2**-(prec + _SINE_GUARD) of it; 2/pi is taken to prec + _SINE_GUARD + 4 bits.
_SINE_GUARD = 20


def _sine_weight_mp(x, y, n):
    """(2/pi) sin(nx) sin(ny) on mpmath: n x and n y exact, one rounding at the end."""
    prec = mp.mp.prec
    with mp.workprec(prec + 64 + int(n).bit_length()):
        w = 2 * mp.sin(n * mp.mpf(x)) * mp.sin(n * mp.mpf(y)) / mp.pi
    return +w


def _fixed_sines(v, first, m, prec):
    """sin(n v) for n = first .. first+m-1 as integers S_n ~ sin(n v) 2**frac.

    Returns (S, frac, bound), where |S_n - sin(n v) 2**frac| < bound for
    every n. The sines come from the Chebyshev recurrence
    s_{n+1} = 2 cos(v) s_n - s_{n-1} in fixed point, seeded with
    sin((first-1) v) and sin(first v) of the exact products. Each seed is
    off by under 2 units and each step adds under 4 (a truncation and the
    rounding of cos v), and an error e made at one step reaches a later one
    as e U_j(cos v), with |U_j| <= min(j + 1, 1/|sin v|); so
    bound = 4 (m + 1) min(m, 2/|sin v|) covers m - 1 steps. ``frac`` leaves
    prec + _SINE_GUARD bits above that bound for every sine of at least
    2**-(8 + bitlen(n_max)) |sin v|: near v = 0 or pi, where |sin nv| is
    about n |sin v|, every sine.
    """
    n_max = first + m - 1
    sin_v = abs(math.sin(v))
    bound = 4 * (m + 1) * int(min(m, 2.0 / sin_v))
    frac = (prec + _SINE_GUARD + bound.bit_length() + n_max.bit_length() + 8
            + max(0, math.ceil(-math.log2(sin_v))))
    wp = frac + 10
    fv = from_float(v)
    cos_v = mpf_cos_sin(fv, wp, round_nearest)[0]
    s_prev, s = (to_fixed(mpf_cos_sin(mpf_mul(from_int(k), fv), wp, round_nearest)[1],
                          frac) for k in (first - 1, first))
    c2 = to_fixed(cos_v, frac + 1)                 # 2 cos v
    out = [s]
    for _ in range(m - 1):
        s_prev, s = s, ((c2 * s) >> frac) - s_prev
        out.append(s)
    return out, frac, bound


def _sine_atoms_mp(x, y, n):
    """Positions n**2 and weights (2/pi) sin(nx) sin(ny) of n = first, first+1, ...

    Object arrays of mpfs, each rounded once at the working precision. A
    weight is the exact integer product of the fixed-point sines of
    :func:`_fixed_sines` and 2/pi; one whose sine at x or y is too small
    for its error bound to leave prec + _SINE_GUARD bits (near a zero of
    sin nx) is recomputed by :func:`_sine_weight_mp` instead.
    """
    prec, rnd = mp.mp._prec_rounding
    first, m = int(n[0]), len(n)
    sx, fx, bx = _fixed_sines(x, first, m, prec)
    sy, fy, by = _fixed_sines(y, first, m, prec)
    ft = prec + _SINE_GUARD + 4
    two_over_pi = to_fixed(mpf_div(from_int(2), mpf_pi(ft + 10), ft + 10), ft)
    exp = -(fx + fy + ft)
    min_x, min_y = bx << (prec + _SINE_GUARD), by << (prec + _SINE_GUARD)
    make = mp.mp.make_mpf
    ks = range(first, first + m)
    pos = [make(from_int(k * k, prec, rnd)) for k in ks]
    wts = [make(from_man_exp(two_over_pi * a * b, exp, prec, rnd))
           if abs(a) > min_x and abs(b) > min_y else _sine_weight_mp(x, y, k)
           for k, a, b in zip(ks, sx, sy)]
    return np.array(pos, dtype=object), np.array(wts, dtype=object)


def _free_line_density_riesz(c: float):
    """Closed form for int_0^lam (1-mu/lam)^k cos(c sqrt(mu))/(2 pi sqrt(mu)) dmu.

    Substituting mu = s^2 gives (1/pi) S I_k(z) with S = sqrt(lam), z = c S
    and I_k(z) = int_0^1 (1-v^2)^k cos(z v) dv, a half-integer Bessel
    function: (sqrt(pi) k!/2) (2/z)^{k+1/2} J_{k+1/2}(z) = k! 2^k z^{-k} j_k(z),
    with j_k the spherical Bessel function. The c = 0 case reduces to the
    Beta function.

    One body serves both backends: it runs in mpmath at the working
    precision, and the float backend runs it at 53 bits and returns the
    double of the once-rounded result. The body is elementary (DLMF 10.49):
    j_k comes from sin z and cos z, one ``mp.cos_sin`` call, by the upward
    recurrence j_{m+1} = (2m+1)/z j_m - j_{m-1} from j_0 = sin z/z and
    j_1 = (sin z/z - cos z)/z. Below z ~ k the recurrence loses about
    log2((2k-1)!! (2k+1)!! / z^{2k+1}) bits, so it runs at the working
    precision plus 20 + max(0, (2k+2) log2(2k+1) - (2k+1) log2 z) guard bits
    and the result is rounded once to the working precision. Once z^2 is
    below 2^-prec the relative correction z^2/(4k+6) to the Beta form is
    under rounding, and the Beta form is used; this also bounds the guard.
    There B(1/2, k+1) = 2^{2k+1} (k!)^2 / (2k+1)! is rounded once from the
    exact ratio of integers, so the float c = 0 values are the float
    expression S * B / (2 pi) with a correctly rounded B.

    The closure keeps, for each (lam, precision with guard), S, z, cos z and
    the j_0 .. j_m found so far, so that the orders of one lam extend one
    recurrence rather than restart it; an order is then the same operations
    at the same precision as a fresh call, and no bit moves. It holds the
    ``_DENSITY_MEMO_CAP`` pairs first seen most recently and lives as long
    as the closure (its measure). An entry is replaced, never changed in
    place, so a reader never sees one half extended.
    """
    log2_c = math.log2(c) if c > 0.0 else -math.inf
    memo = OrderedDict()    # (lam, wp) -> (S, z, cos z, (j_0, ..., j_m))

    def density_riesz(k, lam, B):
        if B is not mp:
            with mp.workprec(53):
                return float(density_riesz(k, lam, mp))
        prec, rnd = mp.mp._prec_rounding
        log2_z = log2_c + 0.5 * math.log2(float(lam))
        if 2.0 * log2_z < -prec:
            f = math.factorial(k)
            beta = mp.mp.make_mpf(from_rational(f * f << (2 * k + 1),
                                                math.factorial(2 * k + 1), prec, rnd))
            return mp.sqrt(lam) * beta / (2 * mp.pi)
        guard = 20 + math.ceil(max(0.0, (2 * k + 2) * math.log2(2 * k + 1)
                                   - (2 * k + 1) * log2_z))
        key = (getattr(lam, "_mpf_", lam), prec + guard)
        with mp.workprec(prec + guard):
            held = memo.get(key)
            if held is None:
                S = mp.sqrt(lam)
                z = c * S
                cos_z, sin_z = mp.cos_sin(z)
                js = [sin_z / z]                        # j_0
            else:
                S, z, cos_z, js = held
            if len(js) <= k:
                js = list(js)
                if len(js) == 1:
                    js.append((js[0] - cos_z) / z)      # j_1
                for m in range(len(js) - 1, k):
                    js.append((2 * m + 1) * js[m] / z - js[m - 1])
            if held is None or len(js) > len(held[3]):
                memo[key] = (S, z, cos_z, tuple(js))
                if len(memo) > _DENSITY_MEMO_CAP:
                    memo.popitem(last=False)
            I = mp.ldexp(mp.factorial(k) * js[k], k) / z ** k
            value = S * I / mp.pi
        return +value

    return density_riesz


def free_line_density_measure(x: float, y: float) -> SpectralMeasure:
    """Continuous measure with the free-line density at separation |x-y|;
    at x = y, the smooth diagonal Weyl density (1/2pi) lam^{-1/2}."""
    return SpectralMeasure.from_density(_free_line_density_riesz(abs(x - y)))


def interval_minus_free_measure(x: float, y: float) -> SpectralMeasure:
    """Difference measure: interval sine-series atoms minus free-line density."""
    return _interval_minus(x, y, _free_line_density_riesz(abs(x - y)))


def _interval_minus(x, y, density_riesz):
    """The interval atoms at (x, y) minus the density of ``density_riesz``."""
    def neg_density_riesz(k, lam, B):
        return -density_riesz(k, lam, B)

    return SpectralMeasure(
        atom_fn=interval_measure(x, y).atom_fn, density_riesz=neg_density_riesz)


# ------------------------------------------------------------- the checks

def offdiagonal_equivalence_check(x: float, y: float, k: int,
                                  lam_probes: Sequence[float]) -> CesaroReport:
    """Test the off-diagonal equivalence of sine-series and free-line densities.

    The difference measure is run through the Cesaro order test at the fixed
    exponent beta = -4 (proxy for rapid decay at desk scale), up to order 8,
    with Riesz means at 30 digits. Because both sides are individually of
    rapid Cesaro decay at fixed interior points, the slope test alone cannot
    see a vanishing left side; the verdict therefore also requires genuine
    cancellation: the rms Riesz mean of the difference at order ``k`` must be
    below 0.1 times that of the free-line side. At the boundary (y = 0 or
    pi) the sine series vanishes identically, the ratio is 1, and the check
    fails. Within 1e-6 of the diagonal (|x - y| < 1e-6) no test runs: the
    verdict is "inconclusive", with NaN slope and residual. A negative or
    non-integer ``k``, or fewer than ``_OFFDIAG_MAX_ORDER + 4`` probes, raises
    :class:`ParameterError` before any Riesz mean, whatever the point.
    Precision: cancellation loses what the 30-digit weights and density carry,
    not the summation. At (1, 2), order 8 and lam = 1e6 the mean, -1.84e-23,
    is within 3.4e-9 relative of a 90-digit run (1.1e-13 at lam = 1e5).

    One free-line density closure serves the difference measure and the
    free-line measure, so the ratio's free-line means reuse the order test's
    per-lam work (S, z, cos z and the j_k; at most ``_DENSITY_MEMO_CAP``
    (lam, precision) pairs), and the difference measure's mpmath table keeps
    lam - mu of its most recent few dozen lam. All of it is freed with the
    check's measures when the check returns; none changes a bit. The 30-digit
    means set mpmath's process-global precision (``mp.workdps``,
    ``mp.workprec``), so two checks must not run in threads at once.
    """
    if not (0.0 < x < math.pi):
        raise ParameterError("x must lie in (0, pi)")
    if not (0.0 <= y <= math.pi):
        raise ParameterError("y must lie in [0, pi]")
    if k < 0 or int(k) != k:
        raise ParameterError("Riesz order k must be a nonnegative integer")
    if x == y:
        raise ParameterError("diagonal point: run the weyl-diagonal experiment instead")
    probes = sorted(float(p) for p in lam_probes)
    if len(probes) < _OFFDIAG_MAX_ORDER + 4:
        raise ParameterError(f"need at least {_OFFDIAG_MAX_ORDER + 4} lam probes, "
                             f"got {len(probes)}")
    if abs(x - y) < 1e-6:
        return CesaroReport(claimed_exponent=_OFFDIAG_BETA, order_used=0,
                            verdict="inconclusive", fitted_slope=float("nan"),
                            residual=float("nan"),
                            details={"reason": "near-diagonal degradation"})

    free = free_line_density_measure(x, y)
    diff = _interval_minus(x, y, free.density_riesz)
    report = cesaro_order_test(diff, _OFFDIAG_BETA, _OFFDIAG_MAX_ORDER,
                               lambdas=probes, dps=_OFFDIAG_DPS,
                               allow_excluded_beta=True)
    means = report.details.pop("riesz_means")

    if k not in means:      # the order test stopped below order k
        means[k] = [riesz_mean(diff, k, lam, dps=_OFFDIAG_DPS) for lam in probes]
    num = [float(abs(v)) for v in means[k]]
    den = [float(abs(riesz_mean(free, k, lam, dps=_OFFDIAG_DPS))) for lam in probes]
    rms_diff = math.sqrt(math.fsum(v * v for v in num) / len(num))
    rms_free = math.sqrt(math.fsum(v * v for v in den) / len(den))
    ratio = rms_diff / rms_free if rms_free > 0 else math.inf

    verdict = report.verdict
    if verdict == "holds" and ratio > _OFFDIAG_RATIO_THRESHOLD:
        verdict = "fails"
    details = {**report.details, "cancellation_ratio": ratio,
               "ratio_threshold": _OFFDIAG_RATIO_THRESHOLD, "riesz_order": k}
    return CesaroReport(
        claimed_exponent=_OFFDIAG_BETA, order_used=report.order_used,
        verdict=verdict, fitted_slope=report.fitted_slope, residual=ratio, details=details)
