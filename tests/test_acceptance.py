"""Acceptance suite: every verifiable claim at its stated tolerance.

Each criterion reads the report of one registry experiment, the run that
``spectral-cesaro verify`` makes, and asserts its verdict, the stated
tolerances on its probes and fitted slopes, and the runtime budget on its
wall time. Each experiment runs once per session; criteria 7a and 7b share
one report. Each criterion prints one PASS/FAIL line (run with ``pytest -s``
to see them all).

Criterion 7a checks the paper's claim that the off-diagonal Schrodinger
kernel is small after averaging: O(eps^N) for every N as eps -> 0. PAPER.md
states only the limit, not a window. Over eps in [1e-3, 1e-1] the
bump-smeared propagator decays like exp(-c/sqrt(eps)) with
c = 1/sqrt(32) ~ 0.177 (set by the bump's edge at t = 2), and its fitted
power-law slope there is ~1.13, not >= 4: the phase sweeps only 1/(8 eps)
radians across the bump support, so no faster decay is possible on that
window for any smooth test function. ``schrodinger-averaged`` evaluates that
window and stays ``fail``; the test prints its slope and checks the smear
against an independent mpmath quadrature, then asserts slope >= 4 on eps in
[1e-4, 1e-3]. The local slope passes 4 near eps = 5e-4, and the
double-precision trapezoidal sum stays accurate down to about eps = 1e-4
(4e-6 relative there, against an error estimate of 1.7e-3 relative).
"""

import functools
import json
import math
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import spectral_cesaro as sc
from spectral_cesaro.experiments import (ExperimentConfig, experiment_names,
                                         run_experiment)


@functools.cache
def _run(name):
    return run_experiment(ExperimentConfig(name))


def reads(name):
    """Mark a criterion as asserting on the registry experiment ``name``."""
    def mark(test):
        test.experiment = name
        return test
    return mark


@pytest.fixture
def report(request):
    return _run(request.function.experiment)[0]


def _probe(report, key):
    """The one probe of ``report`` that carries ``key``."""
    (probe,) = [p for p in report.probes if key in p]
    return probe


def _line(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    return ok


def _slope(xs, ys):
    X = np.vstack([np.log(xs), np.ones(len(xs))]).T
    return float(np.linalg.lstsq(X, np.log(np.maximum(ys, 1e-300)),
                                 rcond=None)[0][0])


@reads("theta-sum")
def test_criterion_01_theta_sum_identity(report):
    """Half-line Gaussian-argument sum vs closed form: slope >= 3, 1e-10 at 1e-2."""
    slope = report.fitted_slopes["remainder_vs_eps"]
    at_01 = _probe(report, "tol")
    rem01 = at_01["remainder"]
    ok = (report.verdict == "pass" and at_01["eps"] == 0.01 and slope >= 3.0
          and rem01 < 1e-10 and report.wall_time_s < 1.0)
    assert _line(1, ok, f"slope={slope:.1f} rem(1e-2)={rem01:.1e} "
                        f"t={report.wall_time_s:.2f}s")


@reads("weyl-diagonal")
def test_criterion_02_weyl_diagonal_law(report):
    """Riesz-2 diagonal measure vs (1/2pi)lam^(-1/2): <1% at 1e4, <0.3% at 1e6."""
    rels = {p["lambda"]: p["relative_difference"] for p in report.probes}
    ok = (report.verdict == "pass" and rels[1e4] < 1e-2 and rels[1e6] < 3e-3
          and report.wall_time_s < 5.0)
    assert _line(2, ok, f"rel(1e4)={rels[1e4]:.2e} rel(1e6)={rels[1e6]:.2e} "
                        f"t={report.wall_time_s:.2f}s")


@reads("offdiag-equivalence")
def test_criterion_03_offdiagonal_cesaro_equivalence(report):
    """Difference measure at (1,2) holds at beta=-4; y=0 boundary fails."""
    interior, boundary = report.probes
    ok = (report.verdict == "pass" and interior["point"] == [1.0, 2.0]
          and interior["verdict"] == "holds"
          and boundary["point"] == [1.0, 0.0] and boundary["verdict"] == "fails"
          and report.fitted_slopes["interior"] == interior["fitted_slope"]
          and report.wall_time_s < 5.0)
    assert _line(3, ok, f"interior={interior['verdict']}(slope "
                        f"{interior['fitted_slope']:.2f}, ratio "
                        f"{interior['cancellation_ratio']:.1e}) "
                        f"boundary={boundary['verdict']} "
                        f"t={report.wall_time_s:.2f}s")


@reads("heat-two-path")
def test_criterion_04_heat_two_path(report):
    """Eigen-series vs image sum within 1e-10 at 50 random interior points."""
    probe = _probe(report, "worst_abs_difference")
    worst = probe["worst_abs_difference"]
    ok = (report.verdict == "pass" and probe["points"] == 50 and worst < 1e-10
          and report.wall_time_s < 2.0)
    assert _line(4, ok, f"worst={worst:.1e} t={report.wall_time_s:.2f}s")


@reads("cylinder-two-path")
def test_criterion_05_cylinder_two_path(report):
    """Series vs closed form within 1e-10 at 50 points; line diag = 1/pi."""
    probe = _probe(report, "worst_abs_difference")
    worst = probe["worst_abs_difference"]
    diag_err = abs(_probe(report, "line_diagonal_t1")["line_diagonal_t1"]
                   - 1 / math.pi)
    ok = (report.verdict == "pass" and probe["points"] == 50 and worst < 1e-10
          and diag_err < 1e-15 and report.wall_time_s < 2.0)
    assert _line(5, ok, f"worst={worst:.1e} diag-1/pi={diag_err:.1e} "
                        f"t={report.wall_time_s:.2f}s")


@reads("cylinder-locality")
def test_criterion_06_locality_dichotomy(report):
    """Heat coefficients agree line/interval; cylinder t^1 coefficients differ."""
    heat_ok = _probe(report, "heat_terms_agree")["heat_terms_agree"]
    cyl = _probe(report, "cylinder_line_t1")
    want = (1 / math.pi) * (1.0 / 12.0 - 1.0 / (2 * (1 - math.cos(2.0))))
    v_line, v_int = cyl["cylinder_line_t1"], cyl["cylinder_interval_t1"]
    cyl_ok = abs(v_line) < 1e-6 and abs(v_int - want) < 1e-6
    ok = (report.verdict == "pass" and heat_ok and cyl_ok
          and report.wall_time_s < 2.0)
    assert _line(6, ok, f"heat_agree={heat_ok} cyl_line={v_line:.1e} "
                        f"cyl_int_err={abs(v_int - want):.1e} "
                        f"t={report.wall_time_s:.2f}s")


def _mp_offdiagonal_smear(eps, d=1.0, support=(1.0, 2.0), dps=30,
                          method="tanh-sinh"):
    """Independent reference for 7a: <U(eps t, x, y), bump[a,b]> by mpmath.

    (4 pi eps)^(-1/2) e^(-i pi/4) int_a^b phi(t) t^(-1/2) e^(i d^2/(4 eps t)) dt
    for x - y = d, by mpmath's quadrature (tanh-sinh, or ``method``) split
    where the phase crosses multiples of pi.
    """
    with mp.workdps(dps):
        e, r2 = mp.mpf(eps), mp.mpf(d) ** 2
        a, b = (mp.mpf(v) for v in support)

        def f(t):
            u = (2 * t - a - b) / (b - a)
            q = 1 - u * u       # a node may round onto an end of the support
            return mp.exp(-1 / q) / mp.sqrt(t) * mp.expj(r2 / (4 * e * t)) if q > 0 else 0

        k0 = int(mp.ceil(r2 / (4 * e * b * mp.pi)))
        k1 = int(mp.floor(r2 / (4 * e * a * mp.pi)))
        zeros = [r2 / (4 * e * k * mp.pi) for k in range(max(k0, 1), k1 + 1)]
        pts = [a] + sorted(z for z in zeros if a < z < b) + [b]
        value = (mp.expj(-mp.pi / 4) / mp.sqrt(4 * mp.pi * e)
                 * mp.quad(f, pts, method=method))
        return complex(value)


@reads("schrodinger-averaged")
def test_criterion_07a_schrodinger_offdiagonal_slope(report):
    """Off-diagonal smear is O(eps^N) as eps -> 0: slope >= 4 once decay sets in.

    The slope over the stated window eps in [1e-3, 1e-1] comes from
    ``schrodinger-averaged`` and is printed (~1.13, pre-asymptotic; see the
    module docstring). The smear is checked against the mpmath reference at
    1e-3, 1e-2 and 1e-1. The limit claim is asserted on eps in [1e-4, 1e-3],
    where the fitted slope must reach 4 and exceed the window's.
    """
    phi = sc.make_bump(1.0, 2.0)

    def smear(eps):
        return sc.averaged_smear("schrodinger", "line", 1.0, 2.0, phi,
                                 float(eps), tol=1e-13)

    window_slope = report.fitted_slopes["offdiag"]
    t0 = time.perf_counter()
    onset_grid = np.geomspace(1e-4, 1e-3, 6)
    onset_slope = _slope(onset_grid, [abs(smear(e)) for e in onset_grid])
    checked = {e: smear(e) for e in (1e-3, 1e-2, 1e-1)}
    elapsed = report.wall_time_s + time.perf_counter() - t0
    refs = {e: _mp_offdiagonal_smear(e) for e in checked}
    ref_rel = max(abs(checked[e] - refs[e]) / abs(refs[e]) for e in checked)
    ok = (onset_slope >= 4.0 and onset_slope > window_slope and ref_rel < 1e-9
          and elapsed < 20.0)
    assert _line("7a", ok, f"window slope={window_slope:.2f} (eps in [1e-3, 1e-1],"
                           f" pre-asymptotic) onset slope={onset_slope:.2f} (eps in"
                           f" [1e-4, 1e-3], needs >= 4) ref_rel={ref_rel:.1e}"
                           f" t={elapsed:.2f}s")


@reads("schrodinger-averaged")
def test_criterion_07b_schrodinger_diagonal_smear(report):
    """Diagonal smear equals (4 pi eps)^(-1/2) e^(-i pi/4) int phi/sqrt(t).

    The experiment's verdict stays ``fail``: its off-diagonal slope is taken
    on the pre-asymptotic window (criterion 7a asserts the limit).
    """
    rel = _probe(report, "diagonal_relative_error")["diagonal_relative_error"]
    ok = report.verdict == "fail" and rel < 1e-4 and report.wall_time_s < 20.0
    assert _line("7b", ok, f"rel={rel:.1e} verdict={report.verdict} "
                           f"t={report.wall_time_s:.2f}s")


@reads("wightman-closed-form")
def test_criterion_08_wightman_closed_form(report):
    """Cesaro-1 series vs closed form at 20 points; Im = P/4; P odd in t.

    The experiment sets the worst difference to inf at any point whose
    imaginary part is not exactly P/4.
    """
    worst = _probe(report, "worst_series_vs_closed")["worst_series_vs_closed"]
    odd_ok = _probe(report, "P_odd_in_t")["P_odd_in_t"]
    ok = (report.verdict == "pass" and worst < 1e-3 and odd_ok
          and report.wall_time_s < 5.0)
    assert _line(8, ok, f"worst={worst:.1e} odd={odd_ok} "
                        f"t={report.wall_time_s:.2f}s")


@reads("wkb-constant")
def test_criterion_09_wkb_constant_potential(report):
    """WKB series = Taylor of (1/pi)(1-c/w^2)^(-1/2) through w^-4, 1e-12."""
    worst = max(p["worst_taylor_mismatch"] for p in report.probes)
    ok = (report.verdict == "pass" and [p["c"] for p in report.probes] == [1.0, 2.5]
          and worst < 1e-12 and report.wall_time_s < 1.0)
    assert _line(9, ok, f"worst={worst:.1e} t={report.wall_time_s:.2f}s")


@reads("finite-part-scaling")
def test_criterion_10_finite_part_scaling(report):
    """Exceptional log-scaling (k=1,2) and homogeneous scaling, 1e-9."""
    worst = max(p["abs_difference"] for p in report.probes)
    ok = (report.verdict == "pass" and len(report.probes) == 8 and worst < 1e-9
          and report.wall_time_s < 2.0)
    assert _line(10, ok, f"worst={worst:.1e} t={report.wall_time_s:.2f}s")


@reads("poisson-tail")
def test_criterion_11_poisson_tail(report):
    """sum_Z g(nx) - int(g)/x for gaussian g: fitted slope >= 6 in x."""
    slope = report.fitted_slopes["remainder_vs_x"]
    ok = (report.verdict == "pass" and _probe(report, "slope")["slope"] == slope
          and slope >= 6.0 and report.wall_time_s < 1.0)
    assert _line(11, ok, f"slope={slope:.1f} t={report.wall_time_s:.2f}s")


@reads("bessel-reduction")
def test_criterion_12_bessel_reduction(report):
    """d=1 density equals the free-line form; d=3 equals sin(.)/(4 pi^2 r)."""
    probe = _probe(report, "worst_d1")
    worst1, worst3 = probe["worst_d1"], probe["worst_d3"]
    ok = (report.verdict == "pass" and worst1 < 1e-12 and worst3 < 1e-12
          and report.wall_time_s < 1.0)
    assert _line(12, ok, f"worst_d1={worst1:.1e} worst_d3={worst3:.1e} "
                         f"t={report.wall_time_s:.2f}s")


def test_criteria_cover_every_registry_experiment():
    """A registry experiment cannot land without an acceptance criterion."""
    covered = {getattr(test, "experiment", None)
               for name, test in globals().items()
               if name.startswith("test_criterion_")}
    assert covered == set(experiment_names())


def test_registry_run_makes_few_atom_calls(monkeypatch):
    """Every atom table of a default registry run is filled by index-array
    calls: a few dozen atom_fn calls in all, not one per atom."""
    calls = []
    init = sc.SpectralMeasure.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        fn = self.atom_fn
        if fn is not None and fn not in counted:    # a measure may share another's

            def atom_fn(n, B):
                calls.append(np.size(n))
                return fn(n, B)

            counted.add(atom_fn)
            self.atom_fn = atom_fn

    counted = set()
    monkeypatch.setattr(sc.SpectralMeasure, "__init__", counting_init)
    for name in experiment_names():
        run_experiment(ExperimentConfig(name))
    assert sum(calls) >= 1024       # the 30-digit table at (1, 2) reaches n = 1000
    assert len(calls) <= 30, calls


def test_every_registry_probe_has_a_bench_reference():
    """Each fitted slope and numeric probe field of a default-config report
    has a seed reference in ``bench/reference/seed_refs.json``.

    The benchmark counts a field without one as a failed operation, so a
    new experiment or probe field needs its references recorded with it.
    """
    path = Path(__file__).resolve().parents[1] / "bench/reference/seed_refs.json"
    refs = json.loads(path.read_text())["values"]
    missing = []
    for name in experiment_names():
        report = _run(name)[0]
        key = f"verify/{name}/seed={ExperimentConfig(name).seed}"
        fields = [f"{key}/slope/{slope}" for slope in report.fitted_slopes]
        fields += [f"{key}/probe{i}/{field}"
                   for i, probe in enumerate(report.probes)
                   for field, v in probe.items()
                   if field != "tol" and isinstance(v, (int, float))
                   and not isinstance(v, bool)]
        missing += [f for f in fields if f not in refs]
    assert missing == []


_CSV_HEADERS = {
    "theta_sum.csv": "eps,value",
    "weyl_diagonal.csv": "lambda,value",
    "heat_two_path.csv": "t,x,y,re,im,method,truncation",
    "cylinder_two_path.csv": "t,x,y,re,im,method,truncation",
    "schrodinger_averaged.csv": "eps,value",
    "wightman.csv": "t,x,y,re,im,method,truncation",
    "poisson_tail.csv": "x,value",
}


def test_csv_headers_name_their_columns():
    """Each CSV artifact's first column is headed by the variable it holds."""
    headers = {art: text.splitlines()[0]
               for name in experiment_names()
               for art, text in _run(name)[1].items() if art.endswith(".csv")}
    assert headers == _CSV_HEADERS
