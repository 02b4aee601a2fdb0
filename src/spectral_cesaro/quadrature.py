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

:func:`lobe_sum`, a loop of one :func:`integrate` call per lobe, stays only
while the benchmark's tracer (``bench/tracing.py``) names it. Both refuse a
``tol`` that is not a positive finite number.

The module also holds :func:`_exact_sum`, the correctly rounded sum of a
float array that the Riesz means and the eigen-series share, by error-free
extraction (Rump, Ogita & Oishi, 2008).
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

__all__ = ["QuadratureResult", "integrate"]


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
    """Whether the float estimate ``err`` of the scalar ``value`` exceeds
    ``tol`` by a wide margin. The NaN-carrying term comes first, so that
    ``max`` returns a NaN ``abs(value)`` and refuses nothing."""
    return err > max(1e-13 * max(abs(value), 1.0), tol * 50) and err > tol


def _check_accuracy(value, err, tol):
    """Raise :class:`AccuracyError`, carrying ``value`` and ``err``, where
    :func:`_refused` refuses the float estimate ``err`` of the scalar
    ``value``."""
    if _refused(err, value, tol):
        raise AccuracyError(
            f"quadrature error estimate {err:.2e} exceeds tol {tol:.2e}",
            best_estimate=value,
            error_estimate=err,
        )


def integrate(f, a, b, tol=1e-10, limit=400):
    """Adaptive quadrature of ``f`` over ``[a, b]`` (either end may be inf).

    Complex-valued integrands, as told by ``f`` at one interior point, are
    split into real and imaginary parts. Raises :class:`AccuracyError`
    (carrying the best estimate) when the reported error exceeds ``tol`` by
    a wide margin. ``evaluations`` is QUADPACK's count of calls to ``f``
    (summed over both parts of a complex integrand); the probe call that
    tells real from complex is not counted. An empty range (a == b) gives
    value 0 and error 0 from no evaluations; a NaN limit, or a ``tol`` that
    is not a positive finite number, ParameterError before ``f`` is called.
    """
    if not 0 < tol < math.inf:
        raise ParameterError("tol must be a positive finite number")
    if math.isnan(a) or math.isnan(b):
        raise ParameterError("integration limits must not be NaN")
    probe = f(_probe_point(a, b))
    if np.iscomplexobj(probe) or isinstance(probe, complex):
        vr, er, nr = _quad_counted(lambda x: np.real(f(x)), a, b, tol, limit)
        vi, ei, ni = _quad_counted(lambda x: np.imag(f(x)), a, b, tol, limit)
        value, err, n = vr + 1j * vi, er + ei, nr + ni
    else:
        value, err, n = _quad_counted(f, a, b, tol, limit)
    _check_accuracy(value, err, tol)
    return QuadratureResult(value=value, error_estimate=float(err), evaluations=n)


def lobe_sum(f, breakpoints, tol=1e-12):
    """Integrate ``f`` over consecutive intervals and add them left to right.

    Not exported, and kept only while ``bench/tracing.py`` names it. Each
    lobe is one :func:`integrate` call (``limit=200``). A complex ``f``, as
    told by an uncounted call at the first lobe's midpoint, gives the result
    of two real calls, Re f over every lobe, then Im f. Each part's values,
    the estimates and the ``evaluations`` add left to right.
    """
    if not 0 < tol < math.inf:
        raise ParameterError("tol must be a positive finite number")
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or len(bp) < 2:
        raise ParameterError("need at least two breakpoints")
    if not np.all(np.isfinite(bp)):
        raise ParameterError("breakpoints must be finite")
    if np.any(bp[1:] <= bp[:-1]):
        raise ParameterError("breakpoints must be strictly increasing")
    parts = (f,)
    if np.iscomplexobj(f(0.5 * (bp[0] + bp[1]))):
        parts = (lambda t: np.real(f(t)), lambda t: np.imag(f(t)))
    lobes = list(zip(bp[:-1].tolist(), bp[1:].tolist()))
    rs = [integrate(part, a, b, tol=tol, limit=200) for part in parts for a, b in lobes]
    # each part left to right; a pairwise np.sum or math.fsum moves sums by an ulp
    value, error = (np.cumsum(np.reshape(v, (len(parts), -1)), axis=1)[:, -1]
                    for v in ([r.value for r in rs], [r.error_estimate for r in rs]))
    return QuadratureResult(value=value[0] if len(parts) == 1 else complex(*value),
                            error_estimate=float(sum(error)),
                            evaluations=sum(r.evaluations for r in rs))


_SUM_BLOCK = 1 << 10        # entries per block; each block of q sums exactly


def _exact_sum(x):
    """The correctly rounded sum of the 1-D array ``x``: the double (for a
    complex x, the pair of doubles) ``math.fsum`` returns, by error-free
    extraction (Rump, Ogita & Oishi, "Accurate floating-point summation,
    Part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008).

    With |p| <= 2**e for the residual p (x at first), blocks of m <= 1024
    entries and 2**k >= m + 2, a pass sets sigma = 2**(e + k) and forms
    q = (sigma + p) - sigma, the block sums tau of q and p <- p - q, all
    exactly: q is a multiple of u*sigma (u = 2**-53) of size at most 2**e,
    so a block's partial sums are multiples of u*sigma below sigma, and the
    new |p| <= u*sigma. The rounded block sums of the new p are each within
    2(m - 1)u * m*u*sigma of exact, so sum(x) is within B = blocks * m**2 *
    2**-52 * u*sigma of S, the taus plus these sums. Rounding is monotone:
    once ``math.fsum`` rounds S - B and S + B alike, that is the answer,
    mostly after one pass. Every second pass resets the bound to max|p|, so
    that an exactly zero or tied sum, never certified, ends when p is 0.

    Falls back to ``math.fsum`` over the whole array, in order, when it has
    fewer than 64 entries, an entry is not finite or has magnitude 2**995 or
    more, or every entry is zero: NaN, inf, ``ValueError`` for inf - inf,
    ``OverflowError`` and the sign of a zero sum are then exactly as
    ``math.fsum`` gives them.
    """
    if x.dtype.kind == "c":     # contiguous copies: strided views sum slower
        return complex(_exact_sum(x.real.copy()), _exact_sum(x.imag.copy()))
    lo, hi = (x.min(), x.max()) if len(x) >= 64 else (0.0, 0.0)   # short: fsum
    if not (-2.0**995 < lo and hi < 2.0**995) or lo == hi == 0.0:
        return math.fsum(x.tolist())
    n, m = len(x), min(len(x), _SUM_BLOCK)
    k = (m + 1).bit_length()                # 2**k >= m + 2
    starts = np.arange(0, n, m)
    e = math.frexp(max(hi, -lo))[1]         # |x| < 2**e
    p, q, residual = x, np.empty(n), np.empty(n)
    taus = []
    for npass in itertools.count(1):
        sigma = math.ldexp(1.0, e + k)
        np.add(p, sigma, out=q)
        q -= sigma
        taus += np.add.reduceat(q, starts).tolist()
        p = np.subtract(p, q, out=residual)
        e += k - 53                         # |p| <= u*sigma
        parts = taus + np.add.reduceat(p, starts).tolist()
        slack = math.ldexp(len(starts) * m * m, e - 52)
        if math.fsum(parts + [-slack]) == math.fsum(parts + [slack]):
            return math.fsum(parts)
        if npass % 2 == 0:
            top = np.abs(p, out=q).max()
            if top == 0.0:
                return math.fsum(taus)
            e = math.frexp(top)[1]
