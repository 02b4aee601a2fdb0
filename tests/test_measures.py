"""Spectral measures: construction, CSV round trip, Riesz means."""

import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, from_rational, mpf_div

import spectral_cesaro as sc
from spectral_cesaro import measures
from spectral_cesaro.errors import DataError, DomainError, ParameterError
from spectral_cesaro.measures import SpectralMeasure

FLOAT = SimpleNamespace(mpf=float, sin=math.sin, cos=math.cos, pi=math.pi)


def counting_measure():
    return SpectralMeasure.from_generator(lambda n, B: (B.mpf(n) * B.mpf(n), B.mpf(1)))


class TestConstruction:
    def test_positions_must_increase(self):
        with pytest.raises(ParameterError):
            SpectralMeasure.from_atoms([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ParameterError):
            SpectralMeasure.from_atoms([2.0, 1.0], [1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            SpectralMeasure.from_atoms([], [])


class TestRieszMean:
    def test_counting_k0_is_staircase(self):
        assert sc.riesz_mean(counting_measure(), 0, 10.0) == 3.0

    def test_counting_k1_example(self):
        # (1-1/10) + (1-4/10) + (1-9/10) = 1.6
        assert abs(sc.riesz_mean(counting_measure(), 1, 10.0) - 1.6) < 1e-15

    def test_first_atom_weight(self):
        m = SpectralMeasure.from_atoms([2.0, 5.0], [0.7, 1.3])
        assert sc.riesz_mean(m, 0, 2.5) == 0.7

    def test_atom_exactly_at_lambda_excluded(self):
        m = SpectralMeasure.from_atoms([2.0, 5.0], [0.7, 1.3])
        assert sc.riesz_mean(m, 0, 5.0) == 0.7

    def test_domain_error_below_support(self):
        with pytest.raises(DomainError):
            sc.riesz_mean(counting_measure(), 0, -1.0)

    def test_mp_backend_matches_float(self):
        m = counting_measure()
        a = sc.riesz_mean(m, 3, 123.4)
        b = float(sc.riesz_mean(m, 3, 123.4, dps=30))
        assert abs(a - b) < 1e-12

    def test_density_part_by_quadrature(self):
        # density 1 on (0, lam): riesz k = int_0^lam (1-mu/lam)^k dmu = lam/(k+1);
        # the float backend takes the continuous part from density_riesz exactly
        backends = []

        def riesz(k, lam, B):
            backends.append(B)
            return lam / (k + 1)

        m = SpectralMeasure.from_density(riesz)
        for k in (0, 1, 3):
            assert sc.riesz_mean(m, k, 7.0) == 7.0 / (k + 1)
        assert all(B is measures._FloatBackend for B in backends)

    def test_mp_backend_needs_density_riesz(self):
        # the mpmath backend takes the same closed form, called with B = mpmath
        backends = []

        def riesz(k, lam, B):
            backends.append(B)
            return lam / (k + 1)

        m = SpectralMeasure.from_density(riesz)
        for k in (0, 1, 3):
            v = sc.riesz_mean(m, k, 7.0, dps=30)
            assert isinstance(v, mpmath.mpf) and v == mpmath.mpf(7) / (k + 1)
        assert backends and all(B is mpmath for B in backends)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dps", [None, 30])
    def test_non_finite_lambda_rejected_before_enumeration(self, monkeypatch, lam, dps):
        # no position reaches a non-finite lam: a low guard keeps a regression short
        monkeypatch.setattr(measures, "_MAX_ATOMS", 5000)
        m = counting_measure()
        with pytest.raises(DomainError, match="finite"):
            sc.riesz_mean(m, 1, lam, dps=dps)
        assert m._cache == {}

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("dps", [None, 30])
    def test_zero_lambda_rejected_before_enumeration(self, k, dps):
        # a negative atom puts the support bound below 0, so lam = 0 is above it
        m = SpectralMeasure.from_atoms([-1.1, 2.0], [1j, 1.0])
        with pytest.raises(DomainError, match="lam=0"):
            sc.riesz_mean(m, k, 0.0, dps=dps)
        assert m._cache == {}


def test_absolutely_convergent_consistency():
    """Riesz means of a summable measure tend to the total mass, any order.

    The leading deviation is k <position> / lam, so the 1e-6 relative check
    at lam = 1e6 needs a measure whose mass sits near the origin.
    """
    m = SpectralMeasure.from_generator(
        lambda n, B: (B.mpf(n) / 100, B.mpf(2) ** (-n)))
    for k in range(5):
        val = sc.riesz_mean(m, k, 1e6)
        assert abs(val - 1.0) < 1e-6, f"k={k}: {val}"


def fsum_riesz(pos, wts, k, lam):
    """Reference: math.fsum of the Riesz terms, one element at a time."""
    terms = np.array(wts) * (1.0 - np.array(pos) / lam) ** k
    if np.iscomplexobj(terms):
        return complex(math.fsum(terms.real), math.fsum(terms.imag))
    return math.fsum(terms)


def per_atom_riesz(atom_fn, k, lam, n_atoms=None):
    """Reference: one scalar call per atom up to the first at or above lam."""
    pos, wts = [], []
    n = 1
    while n_atoms is None or n <= n_atoms:
        p, w = atom_fn(n, FLOAT)
        if p >= lam:
            break
        pos.append(p)
        wts.append(w)
        n += 1
    return fsum_riesz(pos, wts, k, lam)


ATOMS = ([1.0, 4.0, 9.0, 16.0, 25.0], [0.5, -0.25, 0.0, 2.0, 1e-3])


def branching_atom(n, B):
    # ``if`` on an index array raises, so this runs one call per atom
    return B.mpf(n), (B.mpf(1) if n % 3 else B.mpf(-2))


def overflowing_atom(n, B):
    # n**7 wraps in int64 past n = 512: the array output is wrong from there
    return B.mpf(n), B.mpf(1) / n ** 7


@pytest.mark.parametrize("make, fn, n_atoms", [
    (lambda: SpectralMeasure.from_atoms(*ATOMS),
     lambda n, B: (ATOMS[0][n - 1], ATOMS[1][n - 1]), len(ATOMS[0])),
    (lambda: SpectralMeasure.from_generator(branching_atom), branching_atom, None),
    (lambda: SpectralMeasure.from_generator(overflowing_atom), overflowing_atom, None),
], ids=["from_atoms", "branching", "overflowing"])
def test_float_table_matches_per_atom_loop(make, fn, n_atoms):
    m = make()
    for lam in (2.5, 10.0, 3000.0, 700.0, 2.5, 5000.0):
        for k in range(4):
            assert sc.riesz_mean(m, k, lam) == per_atom_riesz(fn, k, lam, n_atoms)


@pytest.mark.parametrize("weight", [
    lambda n: math.sin(n) / n,
    lambda n: complex(math.cos(n), math.sin(3 * n)) / n,
], ids=["real", "complex"])
def test_from_atoms_fills_the_table_from_index_arrays(weight):
    pos = [float(n * n) for n in range(1, 3001)]
    wts = [weight(n) for n in range(1, 3001)]
    m = SpectralMeasure.from_atoms(pos, wts)
    fn = lambda n, B: (pos[n - 1], wts[n - 1])
    for lam in (2.5, 1e4, 9e6, 5e5, 1e7):
        for k in range(4):
            assert sc.riesz_mean(m, k, lam) == per_atom_riesz(fn, k, lam, len(pos))
    assert m._cache["float"].vectorized


def test_float_riesz_sweep_runtime_budget():
    """Orders 0-3 on 17 lam up to 1e10 (1e5 atoms), up and down, in 0.1 s.

    The table is built beforehand and the sums it keeps are dropped before
    each way, off the clock, so this times the summation alone: all 136
    calls form and sum their terms. On a 2-vCPU Xeon VM: about 0.025 s with
    the extracting exact sum (0.04 s with the exponent buckets before it),
    about 0.22 s with math.fsum walking each array.
    """
    m = sc.interval_measure(1.0, 2.0)
    grid = [float(v) for v in np.geomspace(1e2, 1e10, 17)]
    pos, wts = m.atom_arrays(grid[-1])
    ways = [[(k, lam) for lam in lams for k in range(4)] for lams in (grid, grid[::-1])]
    elapsed = math.inf
    for _ in range(3):      # the best of three, against a host's slow spells
        total, vals = 0.0, []
        for way in ways:
            m._cache["float"].sums.clear()
            t0 = time.perf_counter()
            vals += [sc.riesz_mean(m, k, lam) for k, lam in way]
            total += time.perf_counter() - t0
        elapsed = min(elapsed, total)
    for (k, lam), v in zip(ways[0] + ways[1], vals):
        j = int(np.searchsorted(pos, lam))
        assert v == fsum_riesz(pos[:j], wts[:j], k, lam), (k, lam)
    assert elapsed < 0.1, elapsed


def test_interval_riesz_columns_are_fsum_bit_for_bit():
    """Orders 0..5 of interval_measure(1, 2) on a lam grid to 1e8 (up to 9,999
    atoms, lam at squares and just off them): each the double math.fsum gives."""
    m = sc.interval_measure(1.0, 2.0)
    grid = sorted({float(v) for v in np.geomspace(2.0, 1e8, 41)}
                  | {float(n * n) + d for n in (8, 100, 1000, 9999) for d in (-0.5, 0.0, 0.5)}
                  | {1e8})
    pos, wts = m.atom_arrays(grid[-1])
    for lam in grid:
        j = int(np.searchsorted(pos, lam))
        for k in range(6):
            assert sc.riesz_mean(m, k, lam).hex() == \
                fsum_riesz(pos[:j], wts[:j], k, lam).hex(), (k, lam)


def bits(v):
    """The type of a value and the hex of each part, so the sign of a zero counts."""
    parts = (v.real, v.imag) if isinstance(v, complex) else (v,)
    return (type(v), *(x.hex() for x in parts))


def _complex_atoms():
    # real weights below lam = 36/7, complex ones above: the type changes with lam
    n = range(1, 301)
    return SpectralMeasure.from_atoms(
        [i * i / 7.0 for i in n],
        [1.0 / i if i < 6 else complex(math.cos(i), math.sin(3 * i)) / i for i in n])


def _atoms_and_density():
    return SpectralMeasure(atom_fn=lambda n, B: (B.mpf(n) * B.mpf(n), B.sin(B.mpf(n)) / n),
                           density_riesz=lambda k, lam, B: lam / (k + 1))


_KEPT_SUM_MEASURES = {"interval": lambda: sc.interval_measure(1.0, 2.0),
                      "complex_atoms": _complex_atoms,
                      "atoms_and_density": _atoms_and_density}
# more lams than a float table keeps, and a few at atoms
_KEPT_SUM_LAMS = sorted({float(v) for v in np.geomspace(0.5, 3e4, measures._TERMS_CAP + 12)}
                        | {4.0, 100.0, 2500.0})
_LONG = len(_KEPT_SUM_LAMS)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_KEPT_SUM_MEASURES)),
       runs=st.lists(st.tuples(st.sampled_from(["asc", "desc", "repeat"]),
                               st.integers(0, _LONG - 1), st.integers(1, 30),
                               st.lists(st.integers(0, 5), min_size=1, max_size=4)),
                     min_size=1, max_size=6))
@example(name="interval", runs=[("asc", 0, _LONG, [0, 1]), ("desc", 0, _LONG, [1, 0, 2])])
@example(name="complex_atoms", runs=[("desc", 0, _LONG, [3, 0]), ("repeat", 0, _LONG, [0])])
@example(name="atoms_and_density",
         runs=[("asc", 0, _LONG, [2]), ("asc", 0, 5, [2, 1]), ("desc", 0, _LONG, [2])])
def test_kept_float_sums_are_the_fresh_sums(name, runs):
    """Float Riesz means in any sequence (ascending, descending, repeated,
    orders interleaved, more lams than the table keeps) have the bits, type
    and sign of zero of the same call on a fresh measure."""
    make = _KEPT_SUM_MEASURES[name]
    m = make()
    for kind, start, length, orders in runs:
        lams = _KEPT_SUM_LAMS[start:start + length]
        for lam in (lams[::-1] if kind == "desc" else lams):
            for k in orders:
                for _ in range(1 + (kind == "repeat")):
                    got = sc.riesz_mean(m, k, lam)
                    assert bits(got) == bits(sc.riesz_mean(make(), k, lam)), (k, lam)
    assert len(m._cache["float"].sums) <= measures._TERMS_CAP


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_float_sum_that_raises_is_not_kept():
    """A power that overflows (an error under error::RuntimeWarning) and a sum
    past the largest double raise again on the same call, also after an inf
    sum under over='ignore'; a lam out of the domain raises before the
    table's record is read."""
    m = SpectralMeasure.from_atoms([-1e200, 1.0], [1.0, 1.0])
    assert sc.riesz_mean(m, 1, 2.0) == 5e199
    for _ in range(2):      # (1 + 5e199)**2 overflows
        with pytest.raises(RuntimeWarning, match="overflow"):
            sc.riesz_mean(m, 2, 2.0)
    sums = m._cache["float"].sums
    assert list(sums) == [2.0] and list(sums[2.0]) == [1]
    for lam in (-2e200, 0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            sc.riesz_mean(m, 1, lam)
    assert list(sums) == [2.0]

    with np.errstate(over="ignore"):    # an inf sum is returned, and not kept
        assert sc.riesz_mean(m, 2, 2.0) == math.inf
    with pytest.raises(RuntimeWarning, match="overflow"):
        sc.riesz_mean(m, 2, 2.0)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        sc.riesz_mean(m, 2, 2.0)
    assert list(sums[2.0]) == [1]

    big = SpectralMeasure.from_atoms([1.0, 2.0], [1e308, 1e308])
    for _ in range(2):
        with pytest.raises(OverflowError, match="overflow"):
            sc.riesz_mean(big, 0, 10.0)
    assert not big._cache["float"].sums


def test_threads_sharing_a_grown_table_read_the_serial_bits():
    """Four threads sweep orders 0-3 on 17 lam up to 1e10, each in its own
    order, over one measure whose table is grown beforehand, switching every
    microsecond: every value has the bits of a serial sweep."""
    grid = [float(v) for v in np.geomspace(1e2, 1e10, 17)]
    calls = [(lam, k) for lam in grid for k in range(4)]
    ref = sc.interval_measure(1.0, 2.0)
    serial = {(lam, k): bits(sc.riesz_mean(ref, k, lam)) for lam, k in calls}
    m = sc.interval_measure(1.0, 2.0)
    m.atom_arrays(grid[-1])
    shuffled = [calls[i] for i in np.random.default_rng(0).permutation(len(calls))]
    sequences = [calls, calls[::-1], sorted(calls, key=lambda c: (c[1], -c[0])), shuffled]
    barrier = threading.Barrier(len(sequences))
    got = [None] * len(sequences)

    def sweep(i):
        barrier.wait(timeout=60)
        got[i] = {(lam, k): bits(sc.riesz_mean(m, k, lam)) for lam, k in sequences[i]}

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(sequences))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [serial] * len(sequences)


def test_disagreeing_array_output_is_not_used():
    with np.errstate(all="ignore"):
        w = overflowing_atom(np.arange(1, 1025), measures._FloatBackend)[1]
    assert not np.allclose(w, [1.0 / n**7 for n in range(1, 1025)])
    m = SpectralMeasure.from_generator(overflowing_atom)
    pos, wts = m.atom_arrays(1024.5)
    assert wts.tolist() == [1.0 / n**7 for n in range(1, 1025)]


def test_tables_grow_once_per_backend():
    """Each atom is enumerated by one index-array call on each backend's table;
    the only other calls are the scalar checks at the two ends of each chunk."""
    calls = []

    def atom(n, B):
        calls.append((B is mpmath, n))
        return n * B.mpf(1), B.mpf(2) ** (-n)

    def arrays(on_mp):
        return [n for is_mp, n in calls if is_mp == on_mp and np.ndim(n)]

    m = SpectralMeasure.from_generator(atom)
    sc.riesz_mean(m, 0, 1e4)
    assert len(calls) < 100 < sum(np.size(n) for _, n in calls)
    for k in range(1, 5):
        sc.riesz_mean(m, k, 1e4)
    sc.riesz_mean(m, 2, 30.0)
    n_float = len(calls)
    float_idx = np.concatenate(arrays(False)).tolist()
    assert float_idx == list(range(1, len(float_idx) + 1))
    sc.riesz_mean(m, 0, 500.0, dps=30)
    assert np.concatenate(arrays(True)).tolist() == list(range(1, 513))
    scalar_mp = [n for is_mp, n in calls[n_float:] if not np.ndim(n)]
    assert scalar_mp == [1, 256, 257, 512]      # the ends of the two chunks
    n_all = len(calls)
    for k in range(4):
        sc.riesz_mean(m, k, 400.0, dps=30)
    assert len(calls) == n_all


def _scalar_only(atom):
    def scalar_atom(n, B):
        if np.ndim(n):
            raise TypeError("one index at a time")
        return atom(n, B)
    return scalar_atom


@pytest.mark.parametrize("atom, end_checks", [
    (lambda n, B: (B.mpf(n) * n, B.mpf(1) / n), 0),
    (lambda n, B: (n * n * B.mpf(1), 1.0 / (n * n + 1) if np.ndim(n)
                   else B.mpf(1) / (n * n + 1)), 2),
    (lambda n, B: (n * n * B.mpf(1), (B.mpf(1) / n)[:-1] if np.ndim(n)
                   else B.mpf(1) / n), 0),
    (lambda n, B: (B.mpf(n) * n, [mpmath.inf if j == 5 else B.mpf(1) / j
                                  for j in n.tolist()] if np.ndim(n)
                   else B.mpf(1) / n), 0),
    (lambda n, B: (B.mpf(n) * n, [mpmath.mpc(1, mpmath.nan) if j == 9 else B.mpf(1) / j
                                  for j in n.tolist()] if np.ndim(n)
                   else B.mpf(1) / n), 0),
], ids=["raises", "disagrees_at_last", "one_short", "returns_inf", "returns_complex_nan"])
def test_mp_chunk_falls_back_to_the_scalar_loop(atom, end_checks):
    """A rejected index-array call leaves the table to one call per atom,
    each atom enumerated once, with the means of a scalar-only generator."""
    calls = []

    def counted(n, B):
        calls.append((B is mpmath, n))
        return atom(n, B)

    m = SpectralMeasure.from_generator(counted)
    ref = SpectralMeasure.from_generator(_scalar_only(atom))
    for k, lam in [(0, 500.0), (3, 500.0), (2, 90.5), (1, 2000.0)]:
        assert sc.riesz_mean(m, k, lam, dps=30) == sc.riesz_mean(ref, k, lam, dps=30)
    assert not m._cache[("mp", 103)].vectorized
    mp_calls = [n for on_mp, n in calls if on_mp]
    assert sum(np.ndim(n) for n in mp_calls) == 1           # the rejected chunk
    assert mp_calls[1 + end_checks:] == list(range(1, 46))  # 45**2 >= 2000


@pytest.mark.parametrize("make", [_scalar_only, lambda atom: atom],
                         ids=["scalar_only", "index_arrays"])
def test_float_overflow_with_one_index_raises(make):
    """exp(100 n) overflows from n = 8: the one-index calls raise an
    ArithmeticError out of riesz_mean, as math.exp did, rather than sum an inf."""
    m = SpectralMeasure.from_generator(make(lambda n, B: (B.mpf(n), B.exp(100 * B.mpf(n)))))
    with pytest.raises(ArithmeticError):
        sc.riesz_mean(m, 1, 20.0)


def test_from_atoms_mp_chunk_keeps_the_given_weights():
    """The index-array call on mpmath reads the weights as given, not as the
    float array numpy makes of them: 2**60 + 1 between two floats stays exact,
    where no chunk-end check would see it."""
    m = SpectralMeasure.from_atoms([1.0, 2.0, 3.0], [0.5, 2**60 + 1, 0.25])
    with mpmath.workdps(30):
        expected = mpmath.mpf(2**60 + 1) + 0.75
    assert sc.riesz_mean(m, 0, 3.5, dps=30) == expected
    assert m._cache[("mp", 103)].vectorized


def test_positions_that_never_reach_lambda(monkeypatch):
    monkeypatch.setattr(measures, "_MAX_ATOMS", 5000)
    m = SpectralMeasure.from_generator(lambda n, B: (1 - B.mpf(1) / n, B.mpf(1)))
    with pytest.raises(DataError):
        sc.riesz_mean(m, 0, 2.0)
    with pytest.raises(DataError):
        sc.riesz_mean(m, 0, 2.0, dps=20)


@settings(max_examples=25, deadline=None)
@given(
    weights1=st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=6),
    weights2=st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=6),
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    k=st.integers(0, 3),
)
def test_riesz_linearity(weights1, weights2, a, b, k):
    n = min(len(weights1), len(weights2))
    pos = [float(j) for j in range(1, n + 1)]
    w1, w2 = weights1[:n], weights2[:n]
    m1 = SpectralMeasure.from_atoms(pos, w1)
    m2 = SpectralMeasure.from_atoms(pos, w2)
    mc = SpectralMeasure.from_atoms(pos, [a * u + b * v for u, v in zip(w1, w2)])
    lam = n + 0.5
    lhs = sc.riesz_mean(mc, k, lam)
    rhs = a * sc.riesz_mean(m1, k, lam) + b * sc.riesz_mean(m2, k, lam)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


@settings(max_examples=60, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(st.floats(0.1, 10), st.floats(1, 10), st.integers(-12, 0)),
        min_size=1, max_size=6),
    k=st.integers(0, 4),
)
@example(atoms=[(1.0, 1.0, -9)], k=0)
def test_small_imaginary_weights_float_vs_mp(atoms, k):
    """Float and 30-digit Riesz means agree in both parts, down to Im w = 1e-12."""
    weights = [re + 1j * mant * 10.0**e for re, mant, e in atoms]
    pos = [float(j) for j in range(1, len(atoms) + 1)]
    m = SpectralMeasure.from_atoms(pos, weights)
    lam = len(atoms) + 0.5
    f = complex(sc.riesz_mean(m, k, lam))
    g = complex(sc.riesz_mean(m, k, lam, dps=30))
    assert abs(f.real - g.real) <= 1e-12 * abs(g.real)
    assert abs(f.imag - g.imag) <= 1e-12 * abs(g.imag)


def thirds_atom(n, B):
    # exact on both backends; every third weight is zero
    return B.mpf(n) * n / 4, B.mpf(n % 3 - 1) / n


_TABLE_WEIGHTS = st.one_of(st.just(0.0), st.floats(-5, 5),
                           st.complex_numbers(max_magnitude=5))


@settings(max_examples=60, deadline=None)
@given(
    atoms=st.one_of(
        st.none(),
        st.lists(st.tuples(st.floats(-100, 100), _TABLE_WEIGHTS), min_size=1,
                 max_size=12, unique_by=lambda a: a[0])),
    lams=st.lists(st.floats(-99, 3000), min_size=1, max_size=5),
)
@example(atoms=[(-1.0, 0.0), (2.0, 0j), (3.0, 1.0)], lams=[0.0, 5.0])
def test_float_and_mp_tables_agree(atoms, lams):
    """The float and mpmath tables: the same atoms, ascending then descending lam."""
    if atoms is None:
        m = SpectralMeasure.from_generator(thirds_atom)
    else:
        atoms = sorted(atoms)
        m = SpectralMeasure.from_atoms(*zip(*atoms))
    lams = sorted(lams)
    for lam in lams + lams[::-1]:
        pos, wts = m.atom_arrays(lam)
        with mpmath.workdps(30):
            pos_mp, wts_mp = mp_table_atoms(m, mpmath.mpf(lam))
        assert len(pos) == len(wts) == len(pos_mp) == len(wts_mp)
        assert [float(p) for p in pos_mp] == pos.tolist()
        assert [complex(w) for w in wts_mp] == [complex(w) for w in wts]
        assert not (wts == 0).any() and not any(w == 0 for w in wts_mp)
        assert pos_mp.dtype == wts_mp.dtype == object
        assert all(isinstance(p, mpmath.mpf) for p in pos_mp)
        assert all(isinstance(w, (mpmath.mpf, mpmath.mpc)) for w in wts_mp)
        assert not pos_mp.flags.writeable
    if m.n_atoms is not None:
        assert all(t.n <= m.n_atoms for t in m._cache.values())


class TestCsvRoundTrip:
    def test_real_weights(self, tmp_path):
        m = SpectralMeasure.from_atoms([1.0, 4.0, 9.0], [0.5, -0.25, 2.0])
        path = tmp_path / "m.csv"
        m.save_csv(path, lam_max=100.0)
        header = path.read_text().splitlines()[0]
        assert header == "lambda,weight_re,weight_im"
        m2 = SpectralMeasure.load_csv(path)
        for k in (0, 2):
            assert sc.riesz_mean(m, k, 50.0) == sc.riesz_mean(m2, k, 50.0)

    def test_complex_weights(self, tmp_path):
        m = SpectralMeasure.from_atoms([1.0, 2.0], [1 + 2j, -0.5j])
        path = tmp_path / "m.csv"
        m.save_csv(path, lam_max=10.0)
        m2 = SpectralMeasure.load_csv(path)
        v = sc.riesz_mean(m2, 1, 5.0)
        assert abs(v - sc.riesz_mean(m, 1, 5.0)) < 1e-15

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            SpectralMeasure.load_csv(path)

    @pytest.mark.parametrize("text, where", [
        ("", "empty file"),
        ("lambda,weight_re,weight_im\n1.0,2.0,0.0\n1.0,2.0\n", "line 3"),
        ("lambda,weight_re,weight_im\n1.0,abc,0\n", "line 2"),
        ("lambda,weight_re,weight_im\n1.0,2.0,0.0\n\n4.0,1.0,0.0\n", "line 3"),
        ("lambda,weight_re,weight_im\n1.0,2.0,0.0\ninf,1.0,0.0\n", "line 3"),
        ("lambda,weight_re,weight_im\n1.0,-inf,0.0\n4.0,1.0,0.0\n", "line 2"),
        ("lambda,weight_re,weight_im\n1.0,2.0,0.0\n4.0,1.0,inf\n", "line 3"),
        ("lambda,weight_re,weight_im\n1.0,2.0,nan\n4.0,1.0\n", "line 2"),
    ], ids=["empty_file", "short_row", "non_numeric_weight", "blank_line",
            "inf_position", "inf_weight_re", "inf_weight_im", "nan_weight_im"])
    def test_malformed_file_names_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            SpectralMeasure.load_csv(path)
        assert str(path) in str(info.value)
        assert where in str(info.value)

    def test_header_only_file_is_the_zero_measure(self, tmp_path):
        path = tmp_path / "m.csv"
        sc.interval_measure(1.0, 0.0).save_csv(path, 100.0)
        assert path.read_text() == "lambda,weight_re,weight_im\n"
        m2 = SpectralMeasure.load_csv(path)
        assert sc.riesz_mean(m2, 1, 50.0) == 0.0
        assert sc.riesz_mean(m2, 1, 50.0, dps=20) == 0

    def test_zero_weight_atom_does_not_set_the_support_bound(self, tmp_path):
        m = SpectralMeasure.from_atoms([-2.0, 1.0], [0.0, 1.0])
        path = tmp_path / "m.csv"
        m.save_csv(path, 10.0)
        m2 = SpectralMeasure.load_csv(path)
        assert m.support_lower_bound == m2.support_lower_bound == 0.0
        for measure in (m, m2):
            with pytest.raises(DomainError):
                sc.riesz_mean(measure, 1, -1.0)


_CSV_WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(-5, 5),
    st.complex_numbers(max_magnitude=5),
    st.builds(lambda re, e: complex(re, 10.0**e), st.floats(-5, 5),
              st.integers(-300, -8)),
)


@settings(max_examples=150, deadline=None)
@given(
    atoms=st.lists(st.tuples(st.floats(-1e3, 1e3), _CSV_WEIGHTS), min_size=1,
                   max_size=8, unique_by=lambda a: a[0]),
    k=st.integers(0, 3),
    offsets=st.lists(st.floats(1e-3, 3e3), min_size=1, max_size=4),
)
@example(atoms=[(-2.0, 0.0), (1.0, 1.0)], k=1, offsets=[1.0])
@example(atoms=[(1.0, 0.0), (4.0, 0j)], k=0, offsets=[5.0])
@example(atoms=[(-1.1, 1j)], k=1, offsets=[1.1])
def test_csv_round_trip_is_lossless(tmp_path_factory, atoms, k, offsets):
    """Riesz means of the reloaded measure equal the original's, type included.

    Where the original raises (lam = 0 above a negative support bound), the
    reloaded measure raises the same exception type.
    """
    atoms = sorted(atoms)
    m = SpectralMeasure.from_atoms([p for p, _ in atoms], [w for _, w in atoms])
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    m.save_csv(path, atoms[-1][0] + 1.0)
    m2 = SpectralMeasure.load_csv(path)
    assert m2.support_lower_bound == m.support_lower_bound
    for off in offsets:
        lam = m.support_lower_bound + off
        a, b = _value_or_error(m, k, lam), _value_or_error(m2, k, lam)
        assert type(a) is type(b) and a == b, (lam, a, b)


def _value_or_error(measure, k, lam):
    """The float Riesz mean, or the type of the exception it raises."""
    try:
        return sc.riesz_mean(measure, k, lam)
    except ValueError as err:
        return type(err)


# ------------------------------------------------- mpmath Riesz means

def mp_table_atoms(measure, lam_mp, side="left"):
    """The mpmath table's atoms below lam_mp (at or below, for side="right"):
    its mpf positions, and its weights rebuilt from the exact mantissas it
    sums, an mpc from its first complex weight on."""
    if measure.atom_fn is None:
        return np.empty(0, object), np.empty(0, object)
    t = measure._table(lam_mp, mpmath)
    j = int(np.searchsorted(t.pos, lam_mp, side=side))
    _, _, re_man, re_exp, im_man, im_exp = (a[:j].tolist() for a in t.exact)
    raw_re = [from_man_exp(m, e) for m, e in zip(re_man, re_exp)]
    wts = [mpmath.mp.make_mpc((re, from_man_exp(im_m, im_e))) if i >= t.first_complex
           else mpmath.mp.make_mpf(re)
           for i, (re, im_m, im_e) in enumerate(zip(raw_re, im_man, im_exp))]
    return t.pos[:j], np.array(wts, dtype=object)


def old_riesz_mean_mp(measure, k, lam, dps):
    """The mpmath Riesz mean as one expression over the object arrays."""
    with mpmath.workdps(dps):
        lam_mp = mpmath.mpf(lam)
        total = mpmath.mpf(0)
        pos, wts = mp_table_atoms(measure, lam_mp)
        if len(pos):
            total += mpmath.fsum(wts * (1 - pos / lam_mp) ** k)
        if measure.density_riesz is not None:
            total += measure.density_riesz(k, lam_mp, mpmath)
        return total


def fraction(x):
    """The exact value of a raw mpf."""
    sign, man, exp, _ = x
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def exact_atom_sum(measure, k, lam_mp):
    """Exact sums of w (1 - mu/lam)**k over the mpmath table: (re, im, is_complex)."""
    pos, wts = mp_table_atoms(measure, lam_mp)
    lam_q = fraction(lam_mp._mpf_)
    re = im = Fraction(0)
    for p, w in zip(pos, wts):
        c = (1 - fraction(p._mpf_) / lam_q) ** k
        w_re, w_im = w._mpc_ if isinstance(w, mpmath.mpc) else (w._mpf_, None)
        re += fraction(w_re) * c
        im += fraction(w_im) * c if w_im else 0
    return re, im, any(isinstance(w, mpmath.mpc) for w in wts)


def rounded_riesz_mean_mp(measure, k, lam, dps):
    """Reference: the exact atom sum rounded once at the working precision, plus the density."""
    with mpmath.workdps(dps):
        prec, rnd = mpmath.mp._prec_rounding
        lam_mp = mpmath.mpf(lam)
        total = mpmath.mpf(0)
        if len(mp_table_atoms(measure, lam_mp)[0]):
            re, im, is_complex = exact_atom_sum(measure, k, lam_mp)
            parts = [from_rational(q.numerator, q.denominator, prec, rnd) for q in (re, im)]
            total += (mpmath.mp.make_mpc(tuple(parts)) if is_complex
                      else mpmath.mp.make_mpf(parts[0]))
        if measure.density_riesz is not None:
            total += measure.density_riesz(k, lam_mp, mpmath)
        return total


def raw(v):
    return v._mpf_ if isinstance(v, mpmath.mpf) else v._mpc_


_MP_WEIGHTS = st.one_of(st.just(0.0), st.floats(-5, 5),
                        st.complex_numbers(max_magnitude=5))
_MP_MEASURES = st.one_of(
    st.builds(sc.interval_measure, st.floats(0.1, 3.0), st.floats(0.0, 3.0)),
    st.builds(sc.interval_minus_free_measure, st.floats(0.1, 3.0),
              st.floats(0.0, 3.0)),
    st.lists(st.tuples(st.floats(-50, 50), _MP_WEIGHTS), min_size=1, max_size=10,
             unique_by=lambda a: a[0]).map(
        lambda atoms: SpectralMeasure.from_atoms(*zip(*sorted(atoms)))),
    st.builds(SpectralMeasure.from_generator, st.just(thirds_atom)),
)
_MP_STEPS = st.lists(st.tuples(st.sampled_from([0.7, 3.0, 40.0, 250.0])
                               | st.floats(1e-3, 400), st.integers(0, 9)),
                     min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(measure=_MP_MEASURES, dps=st.sampled_from([15, 30, 50]), steps=_MP_STEPS)
@example(measure=SpectralMeasure.from_atoms([-3.0, 0.0, 2.0], [1 + 2j, 0.5, -1j]),
         dps=30, steps=[(2.5, 2), (2.5, 3), (1.0, 0), (3.5, 9)])
def test_mp_riesz_mean_is_the_correctly_rounded_atom_sum(measure, dps, steps):
    """Type and raw value equal the exact atom sum rounded once, lam repeated and descending."""
    for off, k in steps + steps[::-1]:
        lam = measure.support_lower_bound + off
        if lam == 0:
            continue
        a = sc.riesz_mean(measure, k, lam, dps=dps)
        b = rounded_riesz_mean_mp(measure, k, lam, dps)
        assert type(a) is type(b) and raw(a) == raw(b), (k, lam, a, b)


def old_rounding_bound(measure, k, lam, dps):
    """A bound on the rounding error of old_riesz_mean_mp's atom sum.

    Each factor 1 - mu/lam is a division and a subtraction, each rounded;
    its power, its product with the weight and the sum add a rounding each.
    With u = 2**(1 - prec), a factor is off by at most 2u (|c| + |mu/lam|),
    so each term by at most |w| ((|c| + e)**k (1 + u)**3 - |c|**k).
    """
    with mpmath.workdps(dps):
        u = mpmath.mpf(2) ** (1 - mpmath.mp.prec)
        lam_mp = mpmath.mpf(lam)
        pos, wts = mp_table_atoms(measure, lam_mp)
        with mpmath.workdps(2 * dps + 20):
            bound = mpmath.mpf(0)
            for p, w in zip(pos, wts):
                c = abs(1 - p / lam_mp)
                e = 2 * u * (c + abs(p / lam_mp))
                bound += abs(w) * ((c + e) ** k * (1 + u) ** 3 - c ** k)
            return bound, u


def measure_density(measure, k, lam, dps):
    with mpmath.workdps(dps):
        if measure.density_riesz is None:
            return mpmath.mpf(0)
        return measure.density_riesz(k, mpmath.mpf(lam), mpmath)


@settings(max_examples=60, deadline=None)
@given(measure=_MP_MEASURES, dps=st.sampled_from([15, 30, 50]), steps=_MP_STEPS)
def test_mp_riesz_mean_is_within_the_old_sums_rounding_error(measure, dps, steps):
    """The old array expression misses the rounded exact sum by its own rounding alone."""
    for off, k in steps:
        lam = measure.support_lower_bound + off
        if lam == 0:
            continue
        new = sc.riesz_mean(measure, k, lam, dps=dps)
        old = old_riesz_mean_mp(measure, k, lam, dps)
        bound, u = old_rounding_bound(measure, k, lam, dps)
        # the rounded atom sums (half an ulp for the new one), then the density's sum
        slack = u * (abs(new) + abs(old) + abs(new - measure_density(measure, k, lam, dps)))
        assert abs(new - old) <= 2 * (bound + slack), (k, lam, new, old, bound)


def test_second_order_at_a_lambda_calls_no_atom_fn():
    calls = []

    def atom_fn(n, B):
        calls.append(n)
        return B.mpf(n) * B.mpf(n), B.mpf(1)

    m = SpectralMeasure.from_generator(atom_fn)
    sc.riesz_mean(m, 0, 50.0, dps=30)
    enumerated = len(calls)
    for k in range(1, 8):
        sc.riesz_mean(m, k, 50.0, dps=30)
    assert len(calls) == enumerated


def fresh_riesz_sum(t, j, lam, k):
    """Reference: _AtomTable.riesz_sum with nothing kept, lam - mu rebuilt
    and raised ** k at every call."""
    prec, rnd = mpmath.mp._prec_rounding
    sign, man, lam_exp, _ = lam._mpf_
    lam_man = -man if sign else man
    pos_man, pos_exp, re_man, re_exp, im_man, im_exp = (a[:j] for a in t.exact)
    lo = np.minimum(pos_exp, lam_exp)
    powers = ((lam_man << (lam_exp - lo).astype(object))
              - (pos_man << (pos_exp - lo).astype(object))) ** k
    den = from_man_exp(lam_man ** k, k * lam_exp)
    parts = [(re_man, re_exp), (im_man, im_exp)][:1 + (t.first_complex < j)]
    got = tuple(mpf_div(from_man_exp(*measures._shifted_sum(m * powers, e + k * lo)),
                        den, prec, rnd) for m, e in parts)
    return got if len(got) == 2 else got[0]


@settings(max_examples=100, deadline=None)
@given(measure=_MP_MEASURES, dps=st.sampled_from([15, 30, 50]),
       offs=st.lists(st.sampled_from([0.7, 3.0, 40.0, 250.0]) | st.floats(1e-3, 400),
                     min_size=1, max_size=3),
       steps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9)), min_size=1,
                      max_size=16))
@example(measure=SpectralMeasure.from_atoms([-3.0, 0.0, 2.0], [1 + 2j, 0.5, -1j]),
         dps=30, offs=[5.5, 8.0], steps=[(0, 2), (0, 3), (1, 0), (0, 9), (0, 9), (0, 1),
                                        (1, 1), (1, 2), (1, 4)])
def test_riesz_sum_is_the_fresh_power_sum(measure, dps, offs, steps):
    """Orders in any sequence at a few lam (ascending, descending, repeated,
    skipped) give the raw value of a sum that raises lam - mu ** k afresh."""
    with mpmath.workdps(dps):
        for i, k in steps:
            lam = mpmath.mpf(measure.support_lower_bound + offs[i % len(offs)])
            if lam == 0 or measure.atom_fn is None:
                continue
            t = measure._table(lam, mpmath)
            j = int(np.searchsorted(t.pos, lam))
            if j:
                assert raw(t.riesz_sum(j, lam, k)) == fresh_riesz_sum(t, j, lam, k), (k, lam)


def test_riesz_sum_memo_is_bounded():
    """A long lam sweep keeps at most _TERMS_CAP entries on the table."""
    m = sc.interval_measure(1.0, 2.0)
    lams = np.geomspace(2.0, 1e4, 3 * measures._TERMS_CAP)
    for lam in lams:
        sc.riesz_mean(m, 1, lam, dps=30)
    t = m._cache["mp", 103]
    assert len(t.terms) == measures._TERMS_CAP
    with mpmath.workdps(30):
        lam = mpmath.mpf(lams[0])
        j = int(np.searchsorted(t.pos, lam))
        assert raw(t.riesz_sum(j, lam, 3)) == fresh_riesz_sum(t, j, lam, 3)


@settings(max_examples=100, deadline=None)
@given(atoms=st.lists(st.tuples(st.integers(1, 1000), st.integers(0, 2**20)),
                      min_size=1, max_size=30, unique=True),
       dps=st.sampled_from([30, 50]))
@example(atoms=[(5, 0), (5, 1), (5, 2), (6, 0)], dps=30)
def test_position_search_matches_searchsorted_over_the_mpfs(atoms, dps):
    """Positions base + off 2**-80 tie in double precision for one base; the
    count below lam equals np.searchsorted over the mpf positions for lam at
    an atom, between two tied atoms and between the bases."""
    atoms = sorted(atoms)
    tiny = mpmath.mpf(2) ** -80

    def atom_fn(n, B):
        base, off = atoms[int(n) - 1]
        return B.mpf(base) + off * tiny, B.mpf(1)

    m = SpectralMeasure(atom_fn=atom_fn, n_atoms=len(atoms))
    with mpmath.workdps(dps):
        t = m._table(mpmath.mpf(2000), mpmath)
        assert len(t.pos) == len(atoms)
        probes = [p + d for p in t.pos for d in (0, tiny / 2, -tiny / 2)]
        probes += [mpmath.mpf(b + d) for b, _ in atoms for d in (-0.5, 0.0, 0.5)]
        for lam in probes:
            assert t.count_below(lam) == int(np.searchsorted(t.pos, lam)), lam


def test_position_search_excludes_an_atom_at_lam():
    """At lam = n**2, an atom of the interval measure, the strict inequality
    leaves it out, as np.searchsorted over the mpf positions does."""
    m = sc.interval_measure(1.0, 2.0)
    with mpmath.workdps(30):
        t = m._table(mpmath.mpf(1e4), mpmath)
        for n in range(1, 100):
            for lam in (n * n - 0.5, n * n, n * n + 0.5):
                lam = mpmath.mpf(lam)
                assert t.count_below(lam) == int(np.searchsorted(t.pos, lam)) \
                    == n - 1 + (lam > n * n)


def test_each_precision_rounds_its_own_sum():
    m = SpectralMeasure.from_atoms([1.0, 3.0], [1.0, 1.0])
    a = sc.riesz_mean(m, 1, 7.0, dps=20)
    b = sc.riesz_mean(m, 1, 7.0, dps=40)
    assert raw(a) == raw(rounded_riesz_mean_mp(m, 1, 7.0, 20))
    assert raw(b) == raw(rounded_riesz_mean_mp(m, 1, 7.0, 40))
    assert raw(a) != raw(b)


def dense_atom(n, B):
    return B.mpf(n) / 100, B.mpf(2) ** (-n)


def test_exponent_span_is_summed_exactly_in_bounded_memory():
    """Weights 2**-n over 1e4 atoms span 1e4 bits of exponent.

    Aligning every term to the smallest exponent takes about 10 MB here;
    adding equal-exponent groups and shifting the partial sums keeps the
    peak allocation of the eight means near 3.4 MB.
    """
    m = SpectralMeasure.from_generator(dense_atom)
    sc.riesz_mean(m, 0, 1e2, dps=30)
    tracemalloc.start()
    try:
        means = [sc.riesz_mean(m, k, 1e2, dps=30) for k in range(8)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    for k in (0, 7):
        assert raw(means[k]) == raw(rounded_riesz_mean_mp(m, k, 1e2, 30))


def test_mp_raw_parts_tell_finite_and_nonzero_as_mpmath_does():
    with mpmath.workdps(30):
        values = [mpmath.mpf(0), mpmath.mpf(-2.5), mpmath.mpf(2) ** -2000, mpmath.inf,
                  -mpmath.inf, mpmath.nan, mpmath.mpc(0, 0), mpmath.mpc(0, -1),
                  mpmath.mpc(3, 0), mpmath.mpc(mpmath.nan, 0), mpmath.mpc(0, mpmath.inf)]
        for chunk in (values[:3], values[:6], values[6:], values):
            arr = np.array(chunk, dtype=object)
            parts = measures._raw_parts(arr)
            assert measures._finite(parts) == all(map(mpmath.isfinite, chunk))
            assert measures._nonzero(parts).tolist() == (arr != 0).tolist()


@pytest.mark.parametrize("pos, wt", [(1.0, math.inf), (1.0, complex(1, math.nan)),
                                     (math.inf, 1.0)])
def test_mp_table_rejects_a_non_finite_atom(pos, wt):
    m = SpectralMeasure.from_generator(lambda n, B: (B.mpf(n) * pos, wt))
    with pytest.raises(DataError, match="finite"):
        sc.riesz_mean(m, 1, 5.0, dps=30)
