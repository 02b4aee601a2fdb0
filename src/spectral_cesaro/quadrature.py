"""Adaptive quadrature, and lobe-by-lobe sums for oscillatory integrands.

The engine is QUADPACK (Piessens et al., 1983): its ``dqagse`` over finite
ranges and ``dqagie`` over infinite ones, called in scipy's compiled
extension ``scipy/integrate/_quadpack``. That extension is loaded on first
use, from its file, by :func:`_quadpack`: importing ``scipy.integrate``
would also load ``scipy.special``, ``linalg``, ``sparse``, ``spatial`` and
``optimize``, which take most of a fresh process's time and memory and
which no caller uses. It is called with the arguments
:func:`scipy.integrate.quad` passes, so every value, error estimate and
count is quad's; where the extension cannot be found or does not answer
with that signature, ``quad`` itself is called.

For an oscillatory integrand the caller supplies breakpoints at
consecutive zeros of the oscillatory factor, and :func:`lobe_sum` adds the
lobes in order. It takes the first step of ``dqagse`` (the 21-point
Gauss-Kronrod rule ``dqk21``) for up to 256 lobes at a time in one
vectorised evaluation of the integrand. Lobes that step does not accept
fall back to :func:`integrate`, which subdivides them adaptively.

The module also holds :func:`_exact_sum`, the correctly rounded sum of a
float array that the Riesz means and the eigen-series share.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .errors import AccuracyError, ParameterError

__all__ = ["QuadratureResult", "integrate", "lobe_sum"]


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not np.isfinite(self.error_estimate):
            raise ValueError("error_estimate must be finite")
        if self.evaluations < 0:
            raise ValueError("evaluations must be non-negative")


@functools.cache
def _quadpack():
    """scipy's compiled QUADPACK module, or None where it cannot be used.

    The file ``scipy/integrate/_quadpack<suffix>`` is found from where
    ``scipy`` is installed and loaded on its own, without importing the
    ``scipy.integrate`` package (nor its siblings). It is used only if its
    ``_qagse`` and ``_qagie`` answer two probe integrals with quad's
    signature: (value, error, info dict with ``neval``, ier).
    """
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, "integrate", "_quadpack" + suffix)
            if not os.path.isfile(path):
                continue
            try:
                loader = ExtensionFileLoader("scipy.integrate._quadpack", path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(module)
                # |x| over [0, 1]: one dqk21 step, exact; e^x over (-inf, 0]
                v, _, info, ier = module._qagse(abs, 0.0, 1.0, (), 1, 1e-10, 1e-10, 50)
                w, _, info_inf, _ = module._qagie(math.exp, 0.0, -1, (), 1, 1e-10, 1e-10, 50)
                if (v, info["neval"], ier) == (0.5, 21, 0) and abs(w - 1.0) < 1e-9 \
                        and info_inf["neval"] > 0:
                    return module
            except (ImportError, OSError, AttributeError, TypeError, ValueError,
                    LookupError):
                pass
    return None


def _quad_counted(f, a, b, tol, limit=400):
    """QUADPACK over [a, b]: (value, error estimate, calls made to ``f``).

    Calls ``_qagse`` (both ends finite) or ``_qagie`` (an infinite end) of
    :func:`_quadpack` as :func:`scipy.integrate.quad` does with
    ``full_output=1``: the same ``bound``/``inf`` mapping for [a, inf),
    (-inf, b] and (-inf, inf), the same sign flip for b < a, the same
    value 0 with no calls for a == b, and quad's ``ValueError`` for
    ``ier`` 6 (invalid input). QUADPACK's other codes are left to the
    caller's test of the error estimate, as quad leaves them with
    ``full_output=1``; an exception raised by ``f`` propagates unchanged.
    Without the extension, ``quad`` is called with these arguments.

    The count is QUADPACK's own ``neval``, which is the number of times
    ``f`` was called (twice per node on a doubly infinite range), so ``f``
    is passed unwrapped.
    """
    if a == b:
        return 0.0, 0.0, 0
    epsrel = max(tol, 1e-13)
    qp = _quadpack()
    if qp is None:
        from scipy.integrate import quad
        val, err, info = quad(f, a, b, epsabs=tol, epsrel=epsrel, limit=limit,
                              full_output=1)[:3]
        return val, err, info["neval"]
    flip, a, b = b < a, min(a, b), max(a, b)
    opts = ((), 1, tol, epsrel, limit)      # args, full_output, epsabs, epsrel, limit
    if b != math.inf and a != -math.inf:
        out = qp._qagse(f, a, b, *opts)
    elif a != -math.inf:                    # [a, inf)
        out = qp._qagie(f, a, 1, *opts)
    elif b == math.inf:                     # (-inf, inf): the bound is not read
        out = qp._qagie(f, 0.0, 2, *opts)
    else:                                   # (-inf, b]
        out = qp._qagie(f, b, -1, *opts)
    if out[-1] == 6:        # invalid input, answered without an info dict
        raise ValueError("Invalid 'limit' argument. There must be at least one subinterval")
    val, err, info = out[:3]
    return -val if flip else val, err, info["neval"]


def _probe_point(a, b):
    if np.isfinite(a) and np.isfinite(b):
        return 0.5 * (a + b)
    if np.isfinite(a):
        return a + 1.0
    if np.isfinite(b):
        return b - 1.0
    return 0.0


def _refused(err, value, tol):
    """Whether an error estimate exceeds ``tol`` by a wide margin.

    Elementwise on arrays; with Python's ``max`` and ``abs`` for a float
    ``err``, where numpy's ufuncs cost microseconds a call. The NaN-carrying
    term comes first, so that ``max`` returns a NaN as ``np.maximum`` does.
    """
    mx, ab = (max, abs) if isinstance(err, float) else (np.maximum, np.abs)
    return (err > mx(1e-13 * mx(ab(value), 1.0), tol * 50)) & (err > tol)


def integrate(f, a, b, tol=1e-10, limit=400):
    """Adaptive quadrature of ``f`` over ``[a, b]`` (either end may be inf).

    Complex-valued integrands, as told by ``f`` at one interior point, are
    split into real and imaginary parts. Raises :class:`AccuracyError`
    (carrying the best estimate) when the reported error exceeds ``tol`` by
    a wide margin. ``evaluations`` is QUADPACK's count of calls to ``f``
    (summed over both parts of a complex integrand); the probe call that
    tells real from complex is not counted. An empty range (a == b) gives
    value 0 and error 0 from no evaluations.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    probe = f(_probe_point(a, b))
    if np.iscomplexobj(probe) or isinstance(probe, complex):
        vr, er, nr = _quad_counted(lambda x: np.real(f(x)), a, b, tol, limit)
        vi, ei, ni = _quad_counted(lambda x: np.imag(f(x)), a, b, tol, limit)
        value, err, n = vr + 1j * vi, er + ei, nr + ni
    else:
        value, err, n = _quad_counted(f, a, b, tol, limit)
    if _refused(err, value, tol):
        raise AccuracyError(
            f"quadrature error estimate {err:.2e} exceeds tol {tol:.2e}",
            best_estimate=value,
            error_estimate=err,
        )
    return QuadratureResult(value=value, error_estimate=float(err), evaluations=n)


# dqk21's abscissae (descending, centre omitted), Kronrod weights (centre
# last) and the Gauss weights of abscissae 1, 3, ..., 9 (Piessens et al.,
# QUADPACK, 1983)
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980765524, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
_LOBE_CHUNK = 256       # lobes per integrand call; bounds the node array


def _dqk21(fv, hlgth):
    """QUADPACK's ``dqk21`` on each row of ``fv``, in its operation order.

    ``fv`` holds f at centre - hlgth*_XGK (columns 0-9), centre + hlgth*_XGK
    (10-19) and the centre (20). Returns (result, abserr, resasc).
    """
    fv1, fv2, fc = fv[:, :10], fv[:, 10:20], fv[:, 20]
    resg = np.zeros_like(fc)
    resk = _WGK[10] * fc
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):    # Gauss abscissae first
        fsum = fv1[:, j] + fv2[:, j]
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (np.abs(fv1[:, j]) + np.abs(fv2[:, j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (np.abs(fv1[:, j] - reskh)
                                     + np.abs(fv2[:, j] - reskh))
    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    # min(1, z**1.5) with libm's pow, as QUADPACK has it: numpy's SIMD power
    # is off by an ulp often enough to flip a borderline lobe's acceptance.
    # Clipping z first gives the same bits and keeps pow from overflowing.
    z = np.minimum(200.0 * abserr[scaled] / resasc[scaled], 1.0).tolist()
    p = np.fromiter(map(math.pow, z, itertools.repeat(1.5)), float, len(z))
    abserr[scaled] = resasc[scaled] * p
    big = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr[big] = np.maximum((_EPMACH * 50.0) * resabs[big], abserr[big])
    return result, abserr, resasc


def _first_step(fv, hlgth, tol):
    """``dqagse``'s first step on each row: (value, error, accepted)."""
    result, abserr, resasc = _dqk21(fv, hlgth)
    errbnd = np.maximum(tol, max(tol, 1e-13) * np.abs(result))
    accepted = ((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
    return result, abserr, accepted


def lobe_sum(f, breakpoints, tol=1e-12):
    """Integrate ``f`` over consecutive intervals and add them left to right.

    ``breakpoints`` is a finite, increasing sequence delimiting the lobes
    (typically zeros of the oscillatory factor). Integrating lobe by lobe
    resolves a near-total cancellation between lobes that one adaptive pass
    over the whole range cannot.

    ``f`` takes and returns numpy arrays: it is called once per chunk of up
    to 256 lobes on a (lobes x 21) array of Gauss-Kronrod nodes, and each
    lobe gets the first step of QUADPACK's ``dqagse`` (the ``dqk21`` rule
    and its acceptance test). A lobe that step accepts gets, bit for bit,
    the value and error estimate ``dqagse`` (and so
    ``scipy.integrate.quad``) returns from the same integrand values. Every other lobe, or one whose estimate
    :func:`integrate` would refuse, is integrated by :func:`integrate`
    (``limit=200``), which calls ``f`` at scalar points, subdivides
    adaptively and raises :class:`AccuracyError` as before. A complex
    ``f`` is treated as :func:`integrate` treats it: real and imaginary
    parts separately, the lobe accepted only if both are.

    Returns a :class:`QuadratureResult` whose error estimate is the sum of
    the lobes' estimates; ``evaluations`` counts 21 nodes per part of each
    batched lobe plus the evaluations of each fallback.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or len(bp) < 2:
        raise ParameterError("need at least two breakpoints")
    if not np.all(np.isfinite(bp)):
        raise ParameterError("breakpoints must be finite")
    if np.any(bp[1:] <= bp[:-1]):
        raise ParameterError("breakpoints must be strictly increasing")
    values, errors = [], []
    calls = 0
    for start in range(0, len(bp) - 1, _LOBE_CHUNK):
        a = bp[:-1][start:start + _LOBE_CHUNK]
        b = bp[1:][start:start + _LOBE_CHUNK]
        centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
        absc = hlgth[:, None] * _XGK
        nodes = np.concatenate([centr[:, None] - absc, centr[:, None] + absc,
                                centr[:, None]], axis=1)
        fv = np.asarray(f(nodes))
        parts = (fv.real, fv.imag) if np.iscomplexobj(fv) else (fv,)
        steps = [_first_step(part, hlgth, tol) for part in parts]
        value = steps[0][0] if len(steps) == 1 else steps[0][0] + 1j * steps[1][0]
        err = sum(s[1] for s in steps)
        accepted = np.logical_and.reduce([s[2] for s in steps])
        accepted &= ~_refused(err, value, tol)     # so that integrate raises
        calls += 21 * len(parts) * int(np.count_nonzero(accepted))
        for i in np.flatnonzero(~accepted):
            r = integrate(f, float(a[i]), float(b[i]), tol=tol, limit=200)
            value[i], err[i] = r.value, r.error_estimate
            calls += r.evaluations
        values.append(value)
        errors.append(err)
    # left to right; a pairwise np.sum or math.fsum moves smears by an ulp
    value = np.cumsum(np.concatenate(values))[-1]
    total_err = np.cumsum(np.concatenate(errors))[-1]
    return QuadratureResult(value=value, error_estimate=float(total_err),
                            evaluations=calls)


_SUM_BLOCK = 1 << 14        # entries split at a time; bounds the temporaries
_SUM_RUN = 1 << 25          # entries per pair of bucket accumulators
_SPLIT = 2.0**27 + 1.0      # Veltkamp's splitter for 53-bit doubles
_SPLIT_MAX = 2.0**995       # x * _SPLIT overflows from about 2**996
_BUCKETS = 2100             # frexp exponents -1073 .. 1024, shifted by 1075


def _exact_sum(x):
    """The correctly rounded sum of the 1-D float array ``x``.

    Returns the double ``math.fsum(x)`` returns, without walking the array
    one element at a time. Each entry is split exactly into two halves of at
    most 26 significant bits (Veltkamp), and each half is added into a bucket
    for the binary exponent of its entry. Every partial sum in a bucket is
    then a multiple of the bucket's unit with at most 27 + log2(n) bits, so
    the bucket totals are exact while n < 2**25 entries share an
    accumulator; ``math.fsum`` over the nonzero totals (at most 4200 per
    2**25 entries) rounds their exact sum once.

    Falls back to ``math.fsum`` over the whole array, in order, when it has
    fewer than 64 entries, an entry is not finite or has magnitude 2**995 or
    more (where the split overflows), or every entry is zero: NaN, inf,
    ``ValueError`` for inf - inf, ``OverflowError`` and the sign of a zero
    sum are then exactly as ``math.fsum`` gives them.
    """
    if len(x) < 64 or not (-_SPLIT_MAX < x.min() and x.max() < _SPLIT_MAX):
        return math.fsum(x.tolist())
    totals = []
    for run in range(0, len(x), _SUM_RUN):
        hi_tot, lo_tot = np.zeros(_BUCKETS), np.zeros(_BUCKETS)
        for start in range(run, min(run + _SUM_RUN, len(x)), _SUM_BLOCK):
            b = x[start:start + _SUM_BLOCK]
            bucket = np.frexp(b)[1]
            bucket += 1075
            hi = b * _SPLIT
            lo = hi - b
            np.subtract(hi, lo, out=hi)
            np.subtract(b, hi, out=lo)
            hi_tot += np.bincount(bucket, weights=hi, minlength=_BUCKETS)
            lo_tot += np.bincount(bucket, weights=lo, minlength=_BUCKETS)
        totals += [hi_tot[hi_tot != 0], lo_tot[lo_tot != 0]]
    totals = np.concatenate(totals)
    if not len(totals) and not x.any():
        return math.fsum(x.tolist())
    return math.fsum(totals.tolist())
