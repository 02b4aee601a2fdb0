"""Spectral (Stieltjes) measures: atoms, continuous parts, Riesz sums.

A :class:`SpectralMeasure` may hold explicit atoms, an atom generator
(deterministic in the index, so the atom list can be extended to any
spectral cutoff), and/or a continuous part given by the closed form of its
Riesz integral. Riesz-mean evaluation has a float backend (correctly
rounded sums by ``quadrature._exact_sum``, which returns what ``math.fsum``
returns but works on whole arrays) and an mpmath backend for the
cancellation-dominated regimes where doubles are not enough. Both read
their atoms through :meth:`SpectralMeasure.atom_arrays`, from tables that
one loop grows with the cutoff, one table per backend. On both backends a
table is filled with one generator call per chunk where the generator
works on index arrays, and one call per atom where it does not. The mpmath
table also keeps its atoms as integer mantissas, so the atom part of an
mpmath Riesz mean is one exact integer sum rounded once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp, fzero, mpf_div

from .errors import DataError, DomainError, ParameterError
from .quadrature import _exact_sum

__all__ = ["SpectralMeasure", "riesz_mean"]


class _FloatBackend:
    """math-like namespace used by atom functions on the float path."""
    pi = math.pi
    sin = staticmethod(math.sin)
    cos = staticmethod(math.cos)
    exp = staticmethod(math.exp)
    sqrt = staticmethod(math.sqrt)

    @staticmethod
    def mpf(x):
        return float(x)


class _NumpyBackend(_FloatBackend):
    """Array namespace for atom functions called with an index array."""
    sin = staticmethod(np.sin)
    cos = staticmethod(np.cos)
    exp = staticmethod(np.exp)
    sqrt = staticmethod(np.sqrt)

    @staticmethod
    def mpf(x):
        return np.asarray(x, dtype=float)


# Enumeration gives up after this many atoms without a position reaching the
# cutoff, as happens when the positions converge below it.
_MAX_ATOMS = 10**9
_FIRST_CHUNK, _MAX_CHUNK = 256, 1 << 18
# An index-array call agrees with the scalar call within this relative
# distance: far above the last-ulp differences between numpy's and libm's
# elementary functions, far below a formula that means something else on
# arrays (int64 overflow, a branch on n). On mpmath the distance is a few
# ulps at the working precision, 2**(3 - prec).
_AGREE_RTOL = 1e-12


def _agree(a, b, rtol):
    return a == b or abs(a - b) <= rtol * abs(b)


class _AtomTable:
    """Atoms n = 1, 2, ... of one generator on one backend, grown on demand.

    After ``n`` atoms, ``last`` is the position of atom n, so the table holds
    every atom below ``last`` (every atom, once n reaches ``n_atoms``).
    Atoms of zero weight are counted but not kept: they add exactly nothing
    to a Riesz mean, and a weight like 2**-n is 0.0 in double precision past
    n = 1074, so a table can cover 1e8 atoms and hold a thousand. The float
    table holds float (or complex) arrays, the mpmath table object arrays
    of mpmath numbers; both are read-only. The mpmath table also keeps them
    exactly, for :meth:`riesz_sum`: ``exact`` and ``first_complex``.
    """

    def __init__(self, backend):
        self.n = 0
        self.last = -math.inf
        dtype = float if backend is None else object
        self.pos, self.wts = np.empty(0, dtype), np.empty(0, dtype)
        self.vectorized = True      # index-array calls, until a chunk falls back
        if backend is not None:
            self.exact = [np.empty(0, object), np.empty(0, np.int64)] * 3
            self.first_complex = math.inf

    def covers(self, lam, n_atoms):
        """Whether every atom below lam is in the table; DataError past _MAX_ATOMS."""
        if self.last >= lam or (n_atoms is not None and self.n >= n_atoms):
            return True
        if self.n >= _MAX_ATOMS:
            raise DataError(f"atom enumeration passed {_MAX_ATOMS:.0e} atoms "
                            f"without a position reaching lam={lam}")
        return False

    def extend_exact(self, pos, wts):
        """Append new atoms to ``exact``: positions, real and imaginary weight parts."""
        re_im = [w._mpc_ if isinstance(w, mp.mpc) else (w._mpf_, None) for w in wts]
        if self.first_complex == math.inf:
            self.first_complex = next((len(self.exact[0]) + i for i, (_, im)
                                       in enumerate(re_im) if im), math.inf)
        columns = ([p._mpf_ for p in pos], [re for re, _ in re_im],
                   [im or fzero for _, im in re_im])
        new = [a for raw in columns for a in _mantissas(raw)]
        self.exact = [np.concatenate(pair) for pair in zip(self.exact, new)]

    def riesz_sum(self, j, lam, k):
        """Sum of w (1 - mu/lam)**k over the first j atoms: the exact sum, rounded once."""
        prec, rnd = mp.mp._prec_rounding
        sign, man, lam_exp, _ = lam._mpf_
        lam_man = -man if sign else man
        pos_man, pos_exp, re_man, re_exp, im_man, im_exp = (a[:j] for a in self.exact)
        lo = np.minimum(pos_exp, lam_exp)         # the exponent of each lam - mu
        powers = ((lam_man << (lam_exp - lo).astype(object))
                  - (pos_man << (pos_exp - lo).astype(object))) ** k
        den = from_man_exp(lam_man ** k, k * lam_exp)
        parts = [(re_man, re_exp), (im_man, im_exp)][:1 + (self.first_complex < j)]
        raw = [mpf_div(from_man_exp(*_shifted_sum(m * powers, e + k * lo)), den,
                       prec, rnd) for m, e in parts]
        return mp.mp.make_mpc(tuple(raw)) if len(raw) == 2 else mp.mp.make_mpf(raw[0])


def _mantissas(raw):
    """Integer mantissas (object array) and int64 exponents of raw mpfs."""
    if not _finite([raw]):
        raise DataError("atom positions and weights must be finite on the mpmath table")
    return (np.array([-man if sign else man for sign, man, _, _ in raw], dtype=object),
            np.array([exp for _, _, exp, _ in raw], dtype=np.int64))


def _raw_parts(values):
    """Raw mpf tuples of mpmath numbers, one list per part: [reals], or
    [reals, imaginary parts] (fzero for an mpf's) once one is an mpc."""
    try:
        return [[v._mpf_ for v in values]]
    except AttributeError:
        pairs = [v._mpc_ if isinstance(v, mp.mpc) else (v._mpf_, fzero) for v in values]
        return [list(part) for part in zip(*pairs)]


def _finite(parts):
    """Whether no raw mpf in ``parts`` (lists, as ``_raw_parts`` makes) is inf
    or nan, the raw mpfs with a zero mantissa and a nonzero exponent."""
    return not any(not man and exp for part in parts for _, man, exp, _ in part)


def _nonzero(parts):
    """Per number of ``_raw_parts`` output, whether it is not zero. inf and nan
    count as nonzero, so that a table keeps them and ``_mantissas`` refuses them."""
    return np.array([[man != 0 or exp != 0 for _, man, exp, _ in part]
                     for part in parts]).any(axis=0)


def _shifted_sum(mans, exps):
    """Exact sum of mans * 2**exps as (mantissa, exponent): equal exponents added
    as integers, then these sums from the largest exponent down, as ``mpf_sum``
    does, in O(terms + exponent span) memory.
    """
    xs, group = np.unique(exps, return_inverse=True)
    sums = np.zeros(len(xs), dtype=object)
    np.add.at(sums, group, mans)
    total, top = 0, int(xs[-1])
    for s, x in zip(sums[::-1], xs[::-1].tolist()):
        total = (total << (top - x)) + s
        top = x
    return total, top


@dataclass
class SpectralMeasure:
    """Atomic and/or continuous measure in the spectral variable.

    atom_fn(n, B) -> (position, weight) defines atom n >= 1 using the numeric
    backend B (float shim or mpmath); positions must be strictly increasing
    in n. A table is grown in chunks, and atom_fn is first called once per
    chunk with an int64 index array: on the float path with a numpy backend
    (``B.mpf`` makes float arrays, ``B.sin`` is ``np.sin``, ...), answered
    by float or complex arrays; on the mpmath path with ``B = mp``, answered
    by arrays (object arrays of mpmath numbers, or anything ``mp.mpmathify``
    takes elementwise). From the first chunk where that call raises or its
    arrays disagree with the scalar calls (see ``_vector_atoms``), atom_fn
    is called once per atom. The continuous part is given by the closed form
    of its Riesz integral, density_riesz(k, lam, B) = int (1 - mu/lam)**k
    dm(mu) over the continuous part below lam, on either backend.
    """

    atom_fn: Optional[Callable] = None
    n_atoms: Optional[int] = None           # None = extendable to any cutoff
    density_riesz: Optional[Callable] = None
    support_lower_bound: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------- builders
    @classmethod
    def from_atoms(cls, positions, weights):
        pos = [float(p) for p in positions]
        wts = list(weights)
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ParameterError("atom positions must be strictly increasing")
        if not pos:
            raise DataError("measure needs at least one atom")

        # arrays for an index-array call; the given weights for the mpmath backend
        P, W = np.array(pos), np.array(wts)

        def atom_fn(n, B):
            if not isinstance(n, np.ndarray):
                return pos[n - 1], wts[n - 1]
            if B is mp:
                return P[n - 1], [wts[i] for i in (n - 1).tolist()]
            return P[n - 1], W[n - 1]

        # zero-weight atoms are not in the support (nor in a saved CSV)
        first = next((p for p, w in zip(pos, wts) if w != 0), 0.0)
        return cls(atom_fn=atom_fn, n_atoms=len(pos),
                   support_lower_bound=min(0.0, first))

    @classmethod
    def from_generator(cls, atom_fn):
        return cls(atom_fn=atom_fn)

    @classmethod
    def from_density(cls, density_riesz):
        return cls(density_riesz=density_riesz)

    # ------------------------------------------------------------ accessors
    def atom_arrays(self, lam, backend=None):
        """Arrays (positions, weights) of the atoms of nonzero weight below lam.

        Float arrays by default; for ``backend=mp``, object arrays of mpmath
        numbers at the current working precision. Complex float weights come
        back real only when every imaginary part is exactly zero. The arrays
        are read-only views of a table kept per backend (and per mpmath
        precision) that only grows, so a later call at the same or a lower
        lam enumerates nothing. Raises :class:`DataError` once 1e9 atoms
        have been enumerated without a position reaching lam, as for
        positions that converge below it, and on the mpmath backend for an
        atom that is not finite.
        """
        if self.atom_fn is None:
            return np.empty(0), np.empty(0)
        if backend is None:
            lam = float(lam)
        t = self._table(lam, backend)
        j = int(np.searchsorted(t.pos, lam))
        pos, wts = t.pos[:j], t.wts[:j]
        if np.iscomplexobj(wts) and not wts.imag.any():
            wts = wts.real
        return pos, wts

    def _table(self, lam, backend):
        """The table of ``backend`` (None for floats), grown past lam in chunks."""
        key = "float" if backend is None else ("mp", mp.mp.prec)
        t = self._cache.get(key)
        if t is None:
            t = self._cache[key] = _AtomTable(backend)
        pos_parts, wts_parts = [t.pos], [t.wts]
        while not t.covers(lam, self.n_atoms):
            m = min(max(t.n, _FIRST_CHUNK), _MAX_CHUNK)
            if self.n_atoms is not None:
                m = min(m, self.n_atoms - t.n)
            chunk = self._vector_atoms(t.n + 1, m, backend) if t.vectorized else None
            if chunk is None:
                t.vectorized = False
                chunk = self._scalar_atoms(t.n + 1, m, lam, backend)
            pos, wts = chunk
            t.n += len(pos)
            t.last = pos[-1]
            keep = wts != 0 if backend is None else _nonzero(_raw_parts(wts))
            pos_parts.append(pos[keep])
            wts_parts.append(wts[keep])
        if len(pos_parts) > 1:
            if backend is not None:
                t.extend_exact(*(np.concatenate(a[1:]) for a in (pos_parts, wts_parts)))
            t.pos, t.wts = np.concatenate(pos_parts), np.concatenate(wts_parts)
            t.pos.flags.writeable = t.wts.flags.writeable = False
        return t

    def _vector_atoms(self, first, m, backend):
        """Atoms first .. first+m-1 from one call with an index array.

        On the float path the call gets ``_NumpyBackend`` and its arrays are
        made float (or complex); on the mpmath path it gets ``mp`` and each
        entry is made an mpmath number by ``mp.mpmathify``, as the scalar
        loop does. Returns None, and the caller runs the scalar loop, when
        the atom function raises, returns arrays that do not broadcast to
        the index array or are not finite, or disagrees with its scalar
        output at either end of the chunk: by more than ``_AGREE_RTOL``
        relative on floats, by more than 2**(3 - prec) (a few ulps) on mpmath.
        """
        idx = np.arange(first, first + m)
        try:
            if backend is None:
                with np.errstate(all="ignore"):  # a non-finite chunk is rejected below
                    p, w = self.atom_fn(idx, _NumpyBackend)
                pos = np.broadcast_to(np.asarray(p, dtype=float), idx.shape)
                w = np.asarray(w)
                wts = np.broadcast_to(w.astype(complex if w.dtype.kind == "c" else float),
                                      idx.shape)
                finite = np.isfinite(pos).all() and np.isfinite(wts).all()
                to_pos, to_wt, rtol = float, complex, _AGREE_RTOL
            else:
                pos, wts = (np.array([mp.mpmathify(v) for v in
                                      np.broadcast_to(np.asarray(a, dtype=object),
                                                      idx.shape)], dtype=object)
                            for a in self.atom_fn(idx, mp))
                finite = _finite(_raw_parts(pos)) and _finite(_raw_parts(wts))
                to_pos = to_wt = mp.mpmathify
                rtol = mp.ldexp(1, 3 - mp.mp.prec)
            if not finite:
                return None
            ends = [(j, *self.atom_fn(first + j, backend or _FloatBackend))
                    for j in (0, m - 1)]
            if not all(_agree(pos[j], to_pos(sp), rtol) and _agree(wts[j], to_wt(sw), rtol)
                       for j, sp, sw in ends):
                return None
        except Exception:  # whatever fails on arrays is left to the scalar loop
            return None
        return pos, wts

    def _scalar_atoms(self, first, m, lam, backend):
        """Atoms first, first+1, ..., one call each, up to the first at or above lam."""
        to_pos, to_wt = (float, complex) if backend is None else (mp.mpmathify,) * 2
        pos, wts = [], []
        for n in range(first, first + m):
            p, w = self.atom_fn(n, backend or _FloatBackend)
            pos.append(to_pos(p))
            wts.append(to_wt(w))
            if pos[-1] >= lam:
                break
        if backend is not None:
            return np.array(pos, dtype=object), np.array(wts, dtype=object)
        wts = np.array(wts)
        return np.array(pos), (wts if wts.imag.any() else wts.real.copy())

    # ------------------------------------------------------------------ CSV
    def save_csv(self, path, lam_max):
        """Write nonzero-weight atoms below lam_max as lambda,weight_re,weight_im rows."""
        pos, wts = self.atom_arrays(lam_max)
        wts = np.asarray(wts, dtype=complex)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lambda", "weight_re", "weight_im"])
            for p, wt in zip(pos, wts):
                w.writerow([repr(float(p)), repr(float(wt.real)), repr(float(wt.imag))])

    @classmethod
    def load_csv(cls, path):
        """Read a CSV written by :meth:`save_csv`; a header alone is the zero measure.

        Raises :class:`DataError`, naming the file (and the line), for an
        empty file, a wrong header, a row with fewer than three fields or a
        field that is not a number.
        """
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r, None)
            if header is None:
                raise DataError(f"{path}: empty file, expected a CSV header")
            if [h.strip() for h in header] != ["lambda", "weight_re", "weight_im"]:
                raise DataError(f"{path}: unexpected CSV header {header!r}")
            pos, wts = [], []
            for row in r:
                if len(row) < 3:
                    raise DataError(f"{path}: line {r.line_num} has {len(row)} "
                                    f"fields, expected 3")
                try:
                    pos.append(float(row[0]))
                    wts.append(float(row[1]) + 1j * float(row[2]))
                except ValueError as err:
                    raise DataError(f"{path}: line {r.line_num}: {err}") from None
        if not pos:
            return cls()
        wts = [w.real if w.imag == 0 else w for w in wts]
        return cls.from_atoms(pos, wts)


def riesz_mean(measure: SpectralMeasure, k: int, lam: float, dps: Optional[int] = None):
    """Riesz mean of order k at lam: sum/integral of (1 - mu/lam)**k dm(mu).

    Atoms exactly at lam are excluded (strict inequality). ``dps`` selects the
    mpmath backend with that many digits; default is the float backend,
    whose atom terms are added by ``quadrature._exact_sum``: an exact sum of
    exponent buckets rounded once, so the result is the correctly rounded
    sum of the terms, the double ``math.fsum`` returns, whatever their order
    and cancellation. The mpmath backend's atom part is the exact sum over
    the atoms rounded once at the working precision, an mpc when one of their
    weights is (:meth:`_AtomTable.riesz_sum`). Both backends read their
    atoms from the measure's table for the backend (the float one through
    :meth:`SpectralMeasure.atom_arrays`, the mpmath one by one lookup of its
    exact copy) and the continuous part from ``density_riesz``. Raises
    :class:`DomainError` for a lam that is zero, not finite or not above
    the support, before any atom is enumerated.
    """
    if k < 0 or int(k) != k:
        raise ParameterError("Riesz order k must be a nonnegative integer")
    if not math.isfinite(lam):
        raise DomainError(f"lam={lam} must be finite")
    if lam <= measure.support_lower_bound:
        raise DomainError(
            f"lam={lam} must exceed the support lower bound "
            f"{measure.support_lower_bound}")
    if lam == 0:
        # reachable below a negative support bound; 1 - mu/lam has no value
        raise DomainError("lam=0: the Riesz weights (1 - mu/lam)**k need lam != 0")

    if dps is None:
        total = 0.0 + 0.0j
        is_complex = False
        pos, wts = measure.atom_arrays(lam)
        if len(pos):
            terms = wts * (1.0 - pos / lam) ** k
            if np.iscomplexobj(terms):
                is_complex = True
                total += complex(_exact_sum(terms.real), _exact_sum(terms.imag))
            else:
                total += _exact_sum(terms)
        if measure.density_riesz is not None:
            total += measure.density_riesz(k, lam, _FloatBackend)
        return complex(total) if is_complex or total.imag != 0 else total.real

    with mp.workdps(dps):
        lam_mp = mp.mpf(lam)
        total = mp.mpf(0)
        if measure.atom_fn is not None:
            t = measure._table(lam_mp, mp)
            j = int(np.searchsorted(t.pos, lam_mp))
            if j:
                total += t.riesz_sum(j, lam_mp, int(k))
        if measure.density_riesz is not None:
            total += measure.density_riesz(k, lam_mp, mp)
        return total
