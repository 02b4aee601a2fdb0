"""Spectral measures: construction, CSV round trip, Riesz means."""

import math
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational

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

    The table is built beforehand, so this times the summation alone. On a
    2-vCPU Xeon VM: about 0.04 s with the bucketed exact sum, about 0.22 s
    with math.fsum walking each array.
    """
    m = sc.interval_measure(1.0, 2.0)
    grid = [float(v) for v in np.geomspace(1e2, 1e10, 17)]
    pos, wts = m.atom_arrays(grid[-1])
    sweep = [(k, lam) for lam in grid + grid[::-1] for k in range(4)]
    elapsed = math.inf
    for _ in range(3):      # the best of three, against a host's slow spells
        t0 = time.perf_counter()
        vals = [sc.riesz_mean(m, k, lam) for k, lam in sweep]
        elapsed = min(elapsed, time.perf_counter() - t0)
    for (k, lam), v in zip(sweep, vals):
        j = int(np.searchsorted(pos, lam))
        assert v == fsum_riesz(pos[:j], wts[:j], k, lam), (k, lam)
    assert elapsed < 0.1, elapsed


def test_disagreeing_array_output_is_not_used():
    with np.errstate(all="ignore"):
        w = overflowing_atom(np.arange(1, 1025), measures._NumpyBackend)[1]
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
    """atom_arrays on both backends: the same atoms, ascending then descending lam."""
    if atoms is None:
        m = SpectralMeasure.from_generator(thirds_atom)
    else:
        atoms = sorted(atoms)
        m = SpectralMeasure.from_atoms(*zip(*atoms))
    lams = sorted(lams)
    for lam in lams + lams[::-1]:
        pos, wts = m.atom_arrays(lam)
        with mpmath.workdps(30):
            pos_mp, wts_mp = m.atom_arrays(mpmath.mpf(lam), mpmath)
        assert len(pos) == len(wts) == len(pos_mp) == len(wts_mp)
        assert [float(p) for p in pos_mp] == pos.tolist()
        assert [complex(w) for w in wts_mp] == [complex(w) for w in wts]
        assert not (wts == 0).any() and not any(w == 0 for w in wts_mp)
        assert pos_mp.dtype == wts_mp.dtype == object
        assert all(isinstance(p, mpmath.mpf) for p in pos_mp)
        assert all(isinstance(w, (mpmath.mpf, mpmath.mpc)) for w in wts_mp)
        assert not (pos_mp.flags.writeable or wts_mp.flags.writeable)
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
    ], ids=["empty_file", "short_row", "non_numeric_weight"])
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

def old_riesz_mean_mp(measure, k, lam, dps):
    """The mpmath Riesz mean as one expression over the object arrays."""
    with mpmath.workdps(dps):
        lam_mp = mpmath.mpf(lam)
        total = mpmath.mpf(0)
        pos, wts = measure.atom_arrays(lam_mp, mpmath)
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
    """Exact sums of w (1 - mu/lam)**k over atom_arrays(lam, mp): (re, im, is_complex)."""
    pos, wts = measure.atom_arrays(lam_mp, mpmath)
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
        if len(measure.atom_arrays(lam_mp, mpmath)[0]):
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
        pos, wts = measure.atom_arrays(lam_mp, mpmath)
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
