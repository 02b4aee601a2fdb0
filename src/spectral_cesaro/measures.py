"""Spectral (Stieltjes) measures: atoms, continuous densities, Riesz sums.

A :class:`SpectralMeasure` may hold explicit atoms, an atom generator
(deterministic in the index, so the atom list can be extended to any
spectral cutoff), and/or a continuous density. Riesz-mean evaluation has a
float backend (correctly rounded sums by ``quadrature._exact_sum``, which
returns what ``math.fsum`` returns but works on whole arrays) and an mpmath
backend for the cancellation-dominated regimes where doubles are not enough.
Atoms are enumerated once per backend into tables that grow with the cutoff;
the float table is filled in chunks, one generator call per chunk where the
generator works on index arrays.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from .errors import DataError, DomainError, ParameterError
from .quadrature import _exact_sum, integrate

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
# arrays (int64 overflow, a branch on n).
_AGREE_RTOL = 1e-12


def _agree(a, b):
    return a == b or abs(a - b) <= _AGREE_RTOL * abs(b)


class _AtomTable:
    """Atoms n = 1, 2, ... of one generator on one backend, grown on demand.

    After ``n`` atoms, ``last`` is the position of atom n, so the table holds
    every atom below ``last`` (every atom, once n reaches ``n_atoms``).
    Atoms of zero weight are counted but not kept: they add exactly nothing
    to a Riesz mean, and a weight like 2**-n is 0.0 in double precision past
    n = 1074, so a table can cover 1e8 atoms and hold a thousand.
    """

    def __init__(self, pos, wts):
        self.n = 0
        self.last = -math.inf
        self.pos, self.wts = pos, wts
        self.vectorized = True      # float table: until a chunk falls back

    def covers(self, lam, n_atoms):
        """Whether every atom below lam is in the table; DataError past _MAX_ATOMS."""
        if self.last >= lam or (n_atoms is not None and self.n >= n_atoms):
            return True
        if self.n >= _MAX_ATOMS:
            raise DataError(f"atom enumeration passed {_MAX_ATOMS:.0e} atoms "
                            f"without a position reaching lam={lam}")
        return False


@dataclass
class SpectralMeasure:
    """Atomic and/or continuous measure in the spectral variable.

    atom_fn(n, B) -> (position, weight) defines atom n >= 1 using the numeric
    backend B (float shim or mpmath); positions must be strictly increasing
    in n. On the float path atom_fn is first called with an int64 index
    array and a numpy backend (``B.mpf`` makes float arrays, ``B.sin`` is
    ``np.sin``, ...); from the first chunk where that call raises or its
    arrays disagree with the scalar calls (see ``_vector_atoms``), it is
    called once per atom. ``density`` is dm/dlambda for the continuous part.
    ``density_riesz`` optionally supplies a closed form for the continuous
    Riesz integral, called as density_riesz(k, lam, B).
    """

    atom_fn: Optional[Callable] = None
    n_atoms: Optional[int] = None           # None = extendable to any cutoff
    density: Optional[Callable] = None
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

        # arrays for an index-array call; Python numbers for the mpmath backend
        P, W = np.array(pos), np.array(wts)

        def atom_fn(n, B):
            if isinstance(n, np.ndarray):
                return P[n - 1], W[n - 1]
            return pos[n - 1], wts[n - 1]

        # zero-weight atoms are not in the support (nor in a saved CSV)
        first = next((p for p, w in zip(pos, wts) if w != 0), 0.0)
        return cls(atom_fn=atom_fn, n_atoms=len(pos),
                   support_lower_bound=min(0.0, first))

    @classmethod
    def from_generator(cls, atom_fn, support_lower_bound=0.0):
        return cls(atom_fn=atom_fn, support_lower_bound=support_lower_bound)

    @classmethod
    def from_density(cls, density, support_lower_bound=0.0, density_riesz=None):
        return cls(density=density, density_riesz=density_riesz,
                   support_lower_bound=support_lower_bound)

    # ------------------------------------------------------------ accessors
    def atoms_below(self, lam, backend=None):
        """Atoms of nonzero weight with position strictly below lam, ascending.

        Returns (position, weight) pairs on ``backend``: the float shim by
        default, or mpmath at the current working precision. Each backend
        (and each mpmath precision) has its own table that only grows, so a
        later call at the same or a lower lam enumerates nothing. Raises
        :class:`DataError` once 1e9 atoms have been enumerated without a
        position reaching lam, as for positions that converge below it.
        """
        if self.atom_fn is None:
            return []
        if backend is mp:
            t = self._mp_table(lam)
            j = bisect.bisect_left(t.pos, lam)
            return list(zip(t.pos[:j], t.wts[:j]))
        pos, wts = self.atom_arrays(lam)
        return list(zip(pos.tolist(), wts.tolist()))

    def atom_arrays(self, lam):
        """Float arrays (positions, weights) of the atoms of nonzero weight below lam.

        The arrays are read-only views of the float table (see
        :meth:`atoms_below`). Complex weights come back real only when every
        imaginary part is exactly zero.
        """
        lam = float(lam)
        if self.atom_fn is None:
            return np.empty(0), np.empty(0)
        t = self._float_table(lam)
        j = int(np.searchsorted(t.pos, lam))
        pos, wts = t.pos[:j], t.wts[:j]
        if np.iscomplexobj(wts) and not wts.imag.any():
            wts = wts.real
        return pos, wts

    def _mp_table(self, lam):
        """The mpmath table at the working precision, grown past lam."""
        key = ("mp", mp.mp.prec)
        t = self._cache.get(key)
        if t is None:
            t = self._cache[key] = _AtomTable([], [])
        while not t.covers(lam, self.n_atoms):
            pos, w = self.atom_fn(t.n + 1, mp)
            t.n += 1
            t.last = pos
            if w != 0:
                t.pos.append(pos)
                t.wts.append(w)
        return t

    def _float_table(self, lam):
        """The float table, grown past lam in chunks of atoms."""
        t = self._cache.get("float")
        if t is None:
            t = self._cache["float"] = _AtomTable(np.empty(0), np.empty(0))
        pos_parts, wts_parts = [t.pos], [t.wts]
        while not t.covers(lam, self.n_atoms):
            m = min(max(t.n, _FIRST_CHUNK), _MAX_CHUNK)
            if self.n_atoms is not None:
                m = min(m, self.n_atoms - t.n)
            chunk = self._vector_atoms(t.n + 1, m) if t.vectorized else None
            if chunk is None:
                t.vectorized = False
                chunk = self._scalar_atoms(t.n + 1, m, lam)
            pos, wts = chunk
            t.n += len(pos)
            t.last = float(pos[-1])
            keep = wts != 0
            pos_parts.append(pos[keep])
            wts_parts.append(wts[keep])
        if len(pos_parts) > 1:
            t.pos, t.wts = np.concatenate(pos_parts), np.concatenate(wts_parts)
            t.pos.flags.writeable = t.wts.flags.writeable = False
        return t

    def _vector_atoms(self, first, m):
        """Atoms first .. first+m-1 from one call with an index array.

        Returns None, and the caller runs the scalar loop, when the atom
        function raises, returns arrays that do not broadcast to the index
        array or are not finite, or disagrees with its scalar output at
        either end of the chunk.
        """
        idx = np.arange(first, first + m)
        try:
            with np.errstate(all="ignore"):  # a non-finite chunk is rejected below
                p, w = self.atom_fn(idx, _NumpyBackend)
            pos = np.broadcast_to(np.asarray(p, dtype=float), idx.shape)
            w = np.asarray(w)
            wts = np.broadcast_to(w.astype(complex if w.dtype.kind == "c" else float),
                                  idx.shape)
            ends = [(j, *self.atom_fn(first + j, _FloatBackend)) for j in (0, m - 1)]
            if not all(_agree(pos[j], float(sp)) and _agree(wts[j], complex(sw))
                       for j, sp, sw in ends):
                return None
        except Exception:  # whatever fails on arrays is left to the scalar loop
            return None
        if not (np.isfinite(pos).all() and np.isfinite(wts).all()):
            return None
        return pos, wts

    def _scalar_atoms(self, first, m, lam):
        """Atoms first, first+1, ..., one call each, up to the first at or above lam."""
        pos, wts = [], []
        for n in range(first, first + m):
            p, w = self.atom_fn(n, _FloatBackend)
            pos.append(float(p))
            wts.append(complex(w))
            if pos[-1] >= lam:
                break
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
    and cancellation. On the mpmath backend a continuous part
    needs ``density_riesz``: a double-precision quadrature would not carry
    the requested digits.
    """
    if k < 0 or int(k) != k:
        raise ParameterError("Riesz order k must be a nonnegative integer")
    if lam <= measure.support_lower_bound:
        raise DomainError(
            f"lam={lam} must exceed the support lower bound "
            f"{measure.support_lower_bound}")

    if dps is None:
        total = 0.0 + 0.0j
        is_complex = False
        if measure.atom_fn is not None:
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
        elif measure.density is not None:
            total += _density_riesz_quadrature(measure, k, lam)
        return complex(total) if is_complex or total.imag != 0 else total.real

    # mp backend
    if measure.density is not None and measure.density_riesz is None:
        raise ParameterError("mpmath backend needs density_riesz")
    with mp.workdps(dps):
        lam_mp = mp.mpf(lam)
        total = mp.mpf(0)
        terms = [w * (1 - pos / lam_mp) ** k
                 for pos, w in measure.atoms_below(lam_mp, mp)]
        if terms:
            total += mp.fsum(terms)
        if measure.density_riesz is not None:
            total += measure.density_riesz(k, lam_mp, mp)
        return total


def _density_riesz_quadrature(measure, k, lam):
    """Continuous part of the Riesz mean by quadrature.

    Substituting mu = lb + (lam-lb) v^2 keeps integrable mu^{-1/2}-type edge
    singularities smooth, at the cost of doubling the oscillation count for
    oscillatory densities (callers with hard oscillatory densities should
    supply ``density_riesz``).
    """
    lb = measure.support_lower_bound
    span = lam - lb

    def g(v):
        mu = lb + span * v * v
        return measure.density(mu) * (1.0 - mu / lam) ** k * 2.0 * span * v

    r = integrate(g, 0.0, 1.0, tol=1e-12, limit=800)
    return r.value
