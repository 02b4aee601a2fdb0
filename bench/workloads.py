"""The benchmark's three workloads and their output checks.

Each workload has ``build(seed, workdir, full=False)``, which picks the
pass's inputs from fixed pools (``full=True`` takes every pool member, which
is how the seed references are recorded), ``run(inputs)``, the timed pass
that calls into ``spectral_cesaro`` and returns raw results, and
``check(inputs, results, checker)``, which runs after the timer has stopped.
Every call into the package during a pass, including the second route of a
two-route comparison, is part of the timed work; references computed by the
benchmark's own numpy code are evaluated in ``check``.

Pools are fixed, so every input any seed can select has a recorded reference
in ``reference/seed_refs.json``; the seed decides which members a pass uses
and in which order. The expensive core of each pass does not depend on the
seed, so pass times are comparable across seeds.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math

import numpy as np

from spectral_cesaro import (cli, experiments, kernels, measures, quadrature,
                             spectral, summability)
from spectral_cesaro.experiments import ExperimentConfig
from spectral_cesaro.testfn import make_bump, make_exp_decay

SLOPE_TOLERANCE = summability.SLOPE_TOLERANCE


class Raised:
    """An exception raised by an operation during a pass."""

    def __init__(self, err):
        self.message = f"{type(err).__name__}: {err}"


def attempt(fn, *args, **kwargs):
    # The pass must go on after one operation raises: the failure is counted
    # by the check, not propagated.
    try:
        return fn(*args, **kwargs)
    except Exception as err:
        return Raised(err)


def cli_json(argv):
    """Run ``cli.main(argv)``; return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Checker:
    """Counts checked operations and failures and tracks drift from references.

    ``refs`` maps a stable key to the value the seed commit produced. With
    ``record=True`` the values are collected into ``recorded`` instead.
    """

    def __init__(self, refs=None, record=False):
        self.refs = refs or {}
        self.record = record
        self.recorded = {}
        self.attempted = 0
        self.failed = 0
        self.max_rel_drift = 0.0
        self.failures = []
        self.memo = {}

    def _fail(self, key, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {why}")

    def raised(self, key, value):
        """Count an operation that raised; True when ``value`` is an error."""
        if isinstance(value, Raised):
            self.attempted += 1
            self._fail(key, value.message)
            return True
        return False

    def verdict(self, key, got, expected):
        self.attempted += 1
        if isinstance(got, Raised):
            self._fail(key, got.message)
        elif got != expected:
            self._fail(key, f"verdict {got!r}, expected {expected!r}")

    def close(self, key, got, expected, tol):
        """An independent-route check: |got - expected| <= tol."""
        self.attempted += 1
        if isinstance(got, Raised):
            self._fail(key, got.message)
        elif isinstance(expected, Raised):
            self._fail(key, "reference route: " + expected.message)
        elif not abs(complex(got) - complex(expected)) <= tol:
            self._fail(key, f"{got!r} vs {expected!r} beyond {tol:.3g}")

    def drift(self, key, got, tol):
        """Deviation from the seed reference, scaled by max(|ref|, tol)."""
        if isinstance(got, Raised):
            return
        got = complex(got)
        if self.record:
            self.recorded[key] = [got.real, got.imag]
            return
        ref = self.refs.get(key)
        if ref is None:
            self.attempted += 1
            self._fail(key, "no seed reference recorded")
            return
        ref = complex(ref[0], ref[1])
        if got == ref:
            return
        rel = abs(got - ref) / max(abs(ref), tol)
        self.max_rel_drift = max(self.max_rel_drift, rel
                                 if math.isfinite(rel) else math.inf)


def _pick(rng, pool, count, full):
    if full:
        return list(pool)
    idx = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in idx]


# ============================================================ verify-registry
# ExperimentConfig.seed feeds the experiments that draw random points; the
# first entry is the CLI default.
VERIFY_CONFIG_SEEDS = (20260808, 1, 2, 3)
# criterion 7a is a faithful reproduction of a claim that fails on its window
EXPECTED_VERDICTS = {"schrodinger-averaged": "fail"}


class VerifyRegistry:
    """All 12 registry experiments per pass, as ``spectral-cesaro verify``."""

    name = "verify-registry"

    @staticmethod
    def build(seed, workdir, full=False):
        rng = np.random.default_rng(seed)
        names = experiments.experiment_names()
        order = [names[i] for i in rng.permutation(len(names))]
        seeds = _pick(rng, VERIFY_CONFIG_SEEDS, 1, full)
        return {"configs": [ExperimentConfig(n, seed=s)
                            for s in seeds for n in order]}

    @staticmethod
    def run(inputs):
        return [attempt(experiments.run_experiment, cfg)
                for cfg in inputs["configs"]]

    @staticmethod
    def check(inputs, results, chk):
        for cfg, res in zip(inputs["configs"], results):
            key = f"verify/{cfg.experiment}/seed={cfg.seed}"
            if chk.raised(key, res):
                continue
            report, _ = res
            chk.verdict(key, report.verdict,
                        EXPECTED_VERDICTS.get(cfg.experiment, "pass"))
            for name, v in report.fitted_slopes.items():
                chk.drift(f"{key}/slope/{name}", v, SLOPE_TOLERANCE)
            for i, probe in enumerate(report.probes):
                tol = probe.get("tol", 1e-12)
                for field, v in probe.items():
                    if field == "tol" or isinstance(v, bool) \
                            or not isinstance(v, (int, float)):
                        continue
                    chk.drift(f"{key}/probe{i}/{field}", v,
                              SLOPE_TOLERANCE if "slope" in field else tol)


# =============================================================== atoms-float
ATOM_GRID = [float(v) for v in np.geomspace(1e2, 1e10, 17)]   # to 1e5 atoms
ATOM_ORDERS = range(4)
ATOM_OFFDIAG = ((1.0, 2.0), (0.5, 2.5), (0.3, 1.1), (1.7, 2.9),
                (0.9, 1.4), (2.2, 0.6), (1.3, 2.2), (0.7, 3.0))
ATOM_DIAG = (0.7, 1.2, 1.9, 2.6)
ORDER_BETA, ORDER_MAX = -0.5, 4      # Weyl law: O(lam^-1/2) (C) on the diagonal
# dense generator: atoms at n/100, weights 2^-n; 1e5 atoms below lam = 1e3
DENSE_GRID = [float(v) for v in np.geomspace(1.0, 1e3, 7)]
# sum_n n^j 2^-n for j = 0..3, for the closed-form Riesz means of the dense
# measure (its atoms above lam carry weights below 2^-99)
DENSE_MOMENTS = (1.0, 2.0, 6.0, 26.0)
CSV_LAMBDA = 1e8                     # 9999 atoms in the CSV round trip
CSV_PROBES = (1e6, 1e8)


def _dense_atom(n, B):
    return B.mpf(n) / 100, B.mpf(2) ** (-n)


def interval_riesz_direct(x, y, k, lam):
    """Vectorized sum of (2/pi) sin(nx) sin(ny) (1 - n^2/lam)^k over n^2 < lam.

    Returns (value, sum of |terms|), the latter to scale the tolerance.
    """
    nmax = math.isqrt(int(lam))
    while nmax * nmax >= lam:
        nmax -= 1
    n = np.arange(1, nmax + 1, dtype=float)
    terms = 2.0 * np.sin(n * x) * np.sin(n * y) / math.pi * (1.0 - n * n / lam) ** k
    return math.fsum(terms), math.fsum(np.abs(terms))


def dense_riesz_closed(k, lam):
    a = 1.0 / (100.0 * lam)
    return math.fsum(math.comb(k, j) * (-a) ** j * DENSE_MOMENTS[j]
                     for j in range(k + 1))


def _sweep(measure, grid):
    """Orders 0..3 of the float Riesz mean, ascending then descending lam."""
    out = {}
    for direction, lams in (("asc", grid), ("desc", grid[::-1])):
        for lam in lams:
            for k in ATOM_ORDERS:
                out[(direction, lam, k)] = attempt(measures.riesz_mean,
                                                   measure, k, lam)
    return out


class AtomsFloat:
    """Float atom tables: growth, reuse and memory; no mpmath, no quadrature."""

    name = "atoms-float"

    @staticmethod
    def build(seed, workdir, full=False):
        rng = np.random.default_rng(seed)
        points = _pick(rng, ATOM_OFFDIAG, 2, full) \
            + [(x, x) for x in _pick(rng, ATOM_DIAG, 1, full)]
        return {"points": points, "csv": workdir / "atoms.csv"}

    @staticmethod
    def run(inputs):
        res = {"points": []}
        for x, y in inputs["points"]:
            m = spectral.interval_measure(x, y)
            entry = {"sweep": _sweep(m, ATOM_GRID),
                     "order": attempt(summability.cesaro_order_test, m,
                                      ORDER_BETA, ORDER_MAX, lambdas=ATOM_GRID),
                     "limit": None}
            if x != y:
                entry["limit"] = attempt(summability.cesaro_limit, m, 4,
                                         lambdas=ATOM_GRID)
            res["points"].append(entry)
            if "csv" not in res:
                res["csv"] = AtomsFloat._csv_round_trip(m, inputs["csv"])
        dense = measures.SpectralMeasure.from_generator(_dense_atom)
        res["dense"] = _sweep(dense, DENSE_GRID)
        return res

    @staticmethod
    def _csv_round_trip(measure, path):
        out = {"save": attempt(measure.save_csv, path, CSV_LAMBDA)}
        loaded = attempt(measures.SpectralMeasure.load_csv, path)
        for lam in CSV_PROBES:
            for k in ATOM_ORDERS:
                out[("orig", lam, k)] = attempt(measures.riesz_mean, measure, k, lam)
                out[("loaded", lam, k)] = (
                    loaded if isinstance(loaded, Raised)
                    else attempt(measures.riesz_mean, loaded, k, lam))
        out["cli"] = attempt(cli_json, ["riesz", "--measure", str(path),
                                        "--order", "2",
                                        "--lambda", repr(CSV_LAMBDA)])
        path.unlink(missing_ok=True)
        return out

    @staticmethod
    def check(inputs, results, chk):
        for (x, y), entry in zip(inputs["points"], results["points"]):
            key = f"atoms/{x!r},{y!r}"
            for (direction, lam, k), v in entry["sweep"].items():
                direct = chk.memo.get((x, y, k, lam))
                if direct is None:
                    direct = chk.memo[(x, y, k, lam)] = \
                        interval_riesz_direct(x, y, k, lam)
                vkey = f"{key}/riesz/k={k}/lam={lam!r}"
                chk.close(f"{vkey}/{direction}", v, direct[0],
                          1e-12 * max(direct[1], 1.0))
                chk.drift(vkey, v, 1e-12 * max(direct[1], 1.0))
            order = entry["order"]
            if not chk.raised(f"{key}/order", order):
                chk.verdict(f"{key}/order", order.verdict, "holds")
                chk.drift(f"{key}/order/slope", order.fitted_slope,
                          SLOPE_TOLERANCE)
            if entry["limit"] is not None and \
                    not chk.raised(f"{key}/limit", entry["limit"]):
                value, report = entry["limit"]
                chk.verdict(f"{key}/limit", report.verdict, "holds")
                # the sine series is Cesaro summable to delta(x - y) = 0
                chk.close(f"{key}/limit/value",
                          math.nan if value is None else value, 0.0, 1e-6)
                if value is not None:
                    chk.drift(f"{key}/limit/value", value, 1e-6)
        for (direction, lam, k), v in results["dense"].items():
            vkey = f"dense/riesz/k={k}/lam={lam!r}"
            chk.close(f"{vkey}/{direction}", v, dense_riesz_closed(k, lam), 1e-13)
            chk.drift(vkey, v, 1e-13)

        csv = results["csv"]
        chk.raised("csv/save", csv["save"])
        x, y = inputs["points"][0]
        for lam in CSV_PROBES:
            for k in ATOM_ORDERS:
                mass = interval_riesz_direct(x, y, 0, lam)[1]
                chk.close(f"csv/loaded/k={k}/lam={lam!r}", csv[("loaded", lam, k)],
                          csv[("orig", lam, k)], 1e-13 * mass)
        cli_out = csv["cli"]
        if not chk.raised("csv/cli", cli_out):
            code, text = cli_out
            chk.verdict("csv/cli/exit", code, 0)
            got = json.loads(text)["re"] if code == 0 else math.nan
            chk.close("csv/cli/value", got, csv[("orig", CSV_LAMBDA, 2)],
                      1e-13 * interval_riesz_direct(x, y, 0, CSV_LAMBDA)[1])


# ============================================================= kernels-smear
BUMP = make_bump(1.0, 2.0)
# criterion 7a geometry: off-diagonal (1, 2) smeared with a bump on [1, 2]
SMEAR_POINT = (1.0, 2.0)
SMEAR_EPS = [float(v) for v in np.geomspace(1e-3, 1e-1, 6)]
LINE_EPS = [float(v) for v in np.geomspace(1e-3, 1e-1, 12)]
DECAYING_EPS = (0.01, 0.03, 0.1)
# small-t ladders assume images of the heat kernel are below 1e-12, which
# holds at distance >= 1 from both ends of (0, pi)
COEFF_X = (1.0, 1.25, 1.5, 1.75, 2.0)
FINITE_PART_SCALES = (0.5, 2.0, 3.5, 10.0)
FINITE_PART_EXPONENTS = (-1.0, -2.0, 0.5, 1.5)
POINT_VALUE_X = (0.2, 0.9, 1.7, 2.5)
DENSITY_EPS = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
DENSITY_NAMES = ("free_line", "free_space", "interval_staircase", "weyl")
DENSITY_GRID = "1:1e4:40"

# every (kind, case, method) that ``spectral-cesaro kernel`` accepts
KERNEL_COMBOS = (
    [(kind, case, m) for kind in ("heat", "cylinder")
     for case in ("line", "interval")
     for m in ("closed_form", "spectral_sum", "image_sum")]
    + [("schrodinger", "line", "closed_form"), ("schrodinger", "line", "image_sum"),
       ("schrodinger", "interval", "image_sum"),
       ("wightman", "interval", "closed_form"),
       ("wightman", "interval", "spectral_sum")])
# each route of these kinds is compared with the closed form
TWO_ROUTE_TOL = {"heat": 1e-10, "cylinder": 1e-10, "wightman": 1e-3}


def _kernel_pool(count=32, seed=20260808):
    """(t, x, y) points in the interior, off the Wightman jump lines and cone."""
    rng = np.random.default_rng(seed)
    pool = []
    while len(pool) < count:
        t = float(rng.uniform(0.05, 1.0))
        x = float(rng.uniform(0.3, math.pi - 0.3))
        y = float(rng.uniform(0.3, math.pi - 0.3))
        r, z = abs(x - y), x + y
        f = z if z <= math.pi else 2.0 * math.pi - z
        if min(abs(t - r), abs(t - f)) < 0.05 or r < 0.05:
            continue
        pool.append((t, x, y))
    return tuple(pool)


KERNEL_POINTS = _kernel_pool()


def kernel_eval(kind, case, t, x, y, method):
    if kind == "heat":
        return kernels.heat_kernel(case, t, x, y, method)
    if kind == "cylinder":
        return kernels.cylinder_kernel(case, t, x, y, method)
    if kind == "schrodinger":
        return kernels.schrodinger_kernel(case, t, x, y, method)
    return kernels.wightman_interval(t, x, y, method)


def _smear_by_route(kind, case, method, x, y, eps):
    """Bump smear of one kernel route by plain adaptive quadrature."""
    return quadrature.integrate(
        lambda s: kernel_eval(kind, case, eps * s, x, y, method).value * BUMP(s),
        1.0, 2.0, tol=1e-12).value


class KernelsSmear:
    """Quadrature, kernels and CLI: averaged smears and two-route kernels."""

    name = "kernels-smear"

    @staticmethod
    def build(seed, workdir, full=False):
        rng = np.random.default_rng(seed)
        points = _pick(rng, KERNEL_POINTS, 6, full)
        return {
            "points": points,
            "cli_point": points[0],
            "decaying": [(p[1], p[2], e) for p in _pick(rng, KERNEL_POINTS, 2, full)
                         for e in _pick(rng, DECAYING_EPS, 1, full)],
            "coeff_x": _pick(rng, COEFF_X, 2, full),
            "scales": _pick(rng, FINITE_PART_SCALES, 2, full),
            "x0": _pick(rng, POINT_VALUE_X, 2, full),
            "density": [(p[1], p[2], e) for p in _pick(rng, KERNEL_POINTS, 2, full)
                        for e in _pick(rng, DENSITY_EPS, 1, full)],
        }

    @staticmethod
    def run(inputs):
        sx, sy = SMEAR_POINT
        res = {
            "interval": [attempt(kernels.averaged_smear, "schrodinger", "interval",
                                 sx, sy, BUMP, e) for e in SMEAR_EPS],
            "line": [attempt(kernels.averaged_smear, "schrodinger", "line",
                             sx, sy, BUMP, e, tol=1e-13) for e in LINE_EPS],
            "diag": attempt(kernels.averaged_smear, "schrodinger", "line",
                            sx, sx, BUMP, LINE_EPS[0]),
            "diag_ref": attempt(quadrature.integrate,
                                lambda t: BUMP(t) / math.sqrt(t), 1.0, 2.0,
                                tol=1e-13),
        }
        decaying = {}
        for x, y, e in inputs["decaying"]:
            for kind in ("heat", "cylinder"):
                for case in ("line", "interval"):
                    decaying[(kind, case, x, y, e)] = attempt(
                        kernels.averaged_smear, kind, case, x, y, BUMP, e)
                # eigen-series route of the interval kernel
                decaying[(kind, "series", x, y, e)] = attempt(
                    _smear_by_route, kind, "interval", "spectral_sum", x, y, e)
            # Fourier-integral route of the line heat kernel
            decaying[("heat", "fourier", x, y, e)] = attempt(
                _smear_by_route, "heat", "line", "spectral_sum", x, y, e)
        res["decaying"] = decaying

        points = {}
        for t, x, y in inputs["points"]:
            for kind, case, m in KERNEL_COMBOS:
                points[(kind, case, m, t, x, y)] = attempt(
                    kernel_eval, kind, case, t, x, y, m)
                if kind == "schrodinger":
                    points[(kind, case, m, -t, x, y)] = attempt(
                        kernel_eval, kind, case, -t, x, y, m)
        res["points"] = points

        t, x, y = inputs["cli_point"]
        res["cli_kernel"] = {
            (kind, case, m): attempt(cli_json, [
                "kernel", kind, case, "--t", repr(t), "--x", repr(x),
                "--y", repr(y), "--method", m])
            for kind, case, m in KERNEL_COMBOS}

        coeffs = {}
        for x in inputs["coeff_x"]:
            for kind in ("heat", "cylinder"):
                for case in ("line", "interval"):
                    coeffs[(kind, case, x)] = attempt(
                        kernels.small_t_coefficients, kind, case, x, x,
                        N=2 if kind == "heat" else 3)
            coeffs[("schrodinger", "diag", x)] = attempt(
                kernels.small_t_coefficients, "schrodinger", "line", x, x)
            coeffs[("schrodinger", "off", x)] = attempt(
                kernels.small_t_coefficients, "schrodinger", "line", x, x + 0.5)
        res["coeffs"] = coeffs

        phi = make_bump(-1.0, 1.0)
        fparts = {}
        for alpha in FINITE_PART_EXPONENTS:
            g = summability.FinitePart(alpha)
            fparts[(alpha, 1.0)] = attempt(summability.finite_part_eval, g, phi)
            for lam in inputs["scales"]:
                fparts[(alpha, lam)] = attempt(summability.finite_part_eval,
                                               g, phi, lam_scale=lam)
        res["finite_part"] = fparts
        res["d0"] = {kk: phi.derivative(kk - 1)(0.0) for kk in (1, 2)}

        res["point_value"] = {x0: attempt(summability.point_value,
                                          lambda u: math.exp(math.sin(u)), x0)
                              for x0 in inputs["x0"]}

        exp_decay = make_exp_decay(1.0)
        res["density_smear"] = {
            (x, y, e): (attempt(spectral.density_smear_interval, x, y, exp_decay, e),
                        attempt(kernels.heat_kernel, "interval", e, x, y,
                                "spectral_sum"))
            for x, y, e in inputs["density"]}
        x, y, _ = inputs["density"][0]
        res["density_cli"] = {
            name: attempt(cli_json, ["density", name, "--x", repr(x), "--y", repr(y),
                                     "--lambda-grid", DENSITY_GRID])
            for name in DENSITY_NAMES}
        res["density_direct"] = {
            name: [attempt(spectral.evaluate_named_density, name, x, y, lam)
                   for lam in _density_grid()]
            for name in DENSITY_NAMES}
        return res

    @staticmethod
    def check(inputs, results, chk):
        sx, sy = SMEAR_POINT
        for e, v in zip(SMEAR_EPS, results["interval"]):
            key = f"smear/schrodinger/interval/eps={e!r}"
            chk.raised(key, v)
            chk.drift(key, v, 1e-12)
        line = results["line"]
        for e, v in zip(LINE_EPS, line):
            chk.drift(f"smear/schrodinger/line/eps={e!r}", v, 1e-13)
        # images are below any power at the smallest eps: interval ~ line
        chk.close("smear/schrodinger/interval-vs-line", results["interval"][0],
                  line[0], 1e-6)
        if not any(isinstance(v, Raised) for v in line):
            slope = _fit_slope(LINE_EPS, [abs(v) for v in line])
            # criterion 7a is red on its stated window; it must stay red
            chk.verdict("smear/7a", "pass" if slope >= 4.0 else "fail", "fail")
            chk.drift("smear/7a/slope", slope, SLOPE_TOLERANCE)
        else:
            chk.raised("smear/7a", next(v for v in line if isinstance(v, Raised)))
        diag, ref = results["diag"], results["diag_ref"]
        if not chk.raised("smear/diag", diag) and not chk.raised("smear/diag", ref):
            closed = (cmath.exp(-1j * math.pi / 4.0)
                      / math.sqrt(4.0 * math.pi * LINE_EPS[0]) * ref.value)
            chk.close("smear/diag", diag, closed, 1e-4 * abs(closed))
            chk.drift("smear/diag", diag, 1e-12)

        dec = results["decaying"]
        for x, y, e in inputs["decaying"]:
            for kind in ("heat", "cylinder"):
                for case in ("line", "interval"):
                    v = dec[(kind, case, x, y, e)]
                    key = f"smear/{kind}/{case}/{x!r},{y!r}/eps={e!r}"
                    chk.raised(key, v)
                    chk.drift(key, v, 1e-12)
                chk.close(f"smear/{kind}/interval-vs-series/{x!r},{y!r}/eps={e!r}",
                          dec[(kind, "interval", x, y, e)],
                          dec[(kind, "series", x, y, e)], 1e-10)
            chk.close(f"smear/heat/line-vs-fourier/{x!r},{y!r}/eps={e!r}",
                      dec[("heat", "line", x, y, e)],
                      dec[("heat", "fourier", x, y, e)], 1e-10)

        pts = results["points"]
        for t, x, y in inputs["points"]:
            where = f"{t!r},{x!r},{y!r}"
            for kind, case, m in KERNEL_COMBOS:
                v = pts[(kind, case, m, t, x, y)]
                key = f"kernel/{kind}/{case}/{m}/{where}"
                if chk.raised(key, v):
                    continue
                chk.drift(key, v.value, 1e-12)
                if kind in TWO_ROUTE_TOL:
                    if m != "closed_form":
                        closed = pts[(kind, case, "closed_form", t, x, y)]
                        chk.close(key, v.value, _value(closed), TWO_ROUTE_TOL[kind])
                else:
                    # time reversal: U(-t, x, y) = conj U(t, x, y)
                    back = pts[(kind, case, m, -t, x, y)]
                    chk.close(key, v.value, _value(back).conjugate()
                              if not isinstance(back, Raised) else back,
                              1e-12 * abs(v.value))

        t, x, y = inputs["cli_point"]
        for combo, out in results["cli_kernel"].items():
            key = "cli/kernel/" + "/".join(combo)
            if chk.raised(key, out):
                continue
            code, text = out
            chk.verdict(key + "/exit", code, 0)
            direct = pts[combo + (t, x, y)]
            if code == 0 and not isinstance(direct, Raised):
                rec = json.loads(text)
                chk.close(key, complex(rec["re"], rec["im"]), direct.value,
                          1e-15 * max(1.0, abs(direct.value)))

        co = results["coeffs"]
        lead = 1.0 / math.sqrt(4.0 * math.pi)
        for x in inputs["coeff_x"]:
            key = f"coeff/{x!r}"
            got = {k: v for k, v in co.items() if k[2] == x}
            if any(chk.raised(f"{key}/{k[0]}/{k[1]}", v) for k, v in got.items()):
                continue
            hl, hi = got[("heat", "line", x)], got[("heat", "interval", x)]
            for j in range(3):
                chk.close(f"{key}/heat/{j}", hi.coefficient(j - 0.5),
                          hl.coefficient(j - 0.5), 1e-8 * lead)
                chk.drift(f"{key}/heat/{j}", hi.coefficient(j - 0.5), 1e-12)
            target = (1.0 / math.pi) * (1.0 / 12.0
                                        - 1.0 / (2.0 * (1.0 - math.cos(2.0 * x))))
            c_int = got[("cylinder", "interval", x)].coefficient(1.0)
            c_line = got[("cylinder", "line", x)].coefficient(1.0)
            chk.close(f"{key}/cylinder/interval", c_int, target, 1e-6)
            chk.close(f"{key}/cylinder/line", c_line, 0.0, 1e-6)
            chk.drift(f"{key}/cylinder/interval", c_int, 1e-12)
            s_lead = cmath.exp(-1j * math.pi / 4.0) * lead
            chk.close(f"{key}/schrodinger/diag",
                      got[("schrodinger", "diag", x)].coefficient(-0.5), s_lead, 1e-15)
            chk.close(f"{key}/schrodinger/off",
                      got[("schrodinger", "off", x)].coefficient(-0.5), 0.0, 0.0)

        fp, d0 = results["finite_part"], results["d0"]
        for alpha in FINITE_PART_EXPONENTS:
            base = fp[(alpha, 1.0)]
            key = f"finite_part/{alpha!r}"
            if chk.raised(key, base):
                continue
            chk.drift(key, base, 1e-12)
            for lam in inputs["scales"]:
                if alpha < 0:        # exceptional exponent -k: log scaling law
                    kk = int(round(-alpha))
                    law = (base / lam ** kk + (-1.0) ** (kk - 1) * math.log(lam)
                           * d0[kk] / (math.factorial(kk - 1) * lam ** kk))
                else:
                    law = lam ** alpha * base
                chk.close(f"{key}/lam={lam!r}", fp[(alpha, lam)], law, 1e-9)
                chk.drift(f"{key}/lam={lam!r}", fp[(alpha, lam)], 1e-12)

        for x0, v in results["point_value"].items():
            key = f"point_value/{x0!r}"
            if v is None:
                chk.verdict(key, "no value", "value")
                continue
            chk.close(key, v, math.exp(math.sin(x0)), 1e-4)
            chk.drift(key, v, 1e-12)

        for (x, y, e), (smear, heat) in results["density_smear"].items():
            key = f"density_smear/{x!r},{y!r}/eps={e!r}"
            chk.close(key, smear, _value(heat), 1e-10)
            chk.drift(key, smear, 1e-12)

        x, y, _ = inputs["density"][0]
        grid = _density_grid()
        for name in DENSITY_NAMES:
            direct = results["density_direct"][name]
            for lam, ev in zip(grid, direct):
                key = f"density/{name}/{x!r},{y!r}/lam={lam!r}"
                if chk.raised(key, ev):
                    continue
                chk.close(key, ev.value, _density_reference(name, x, y, lam),
                          1e-12 * max(1.0, abs(ev.value)))
            out = results["density_cli"][name]
            key = f"cli/density/{name}"
            if chk.raised(key, out):
                continue
            code, text = out
            chk.verdict(key + "/exit", code, 0)
            rows = [line.split(",") for line in text.strip().splitlines()[1:]]
            chk.verdict(key + "/rows", len(rows), len(grid))
            for (lam_s, val_s), ev in zip(rows, direct):
                if not isinstance(ev, Raised):
                    chk.close(f"{key}/lam={lam_s}", float(val_s), ev.value, 0.0)


def _value(ev):
    return ev if isinstance(ev, Raised) else complex(ev.value)


def _fit_slope(xs, ys):
    X = np.vstack([np.log(xs), np.ones(len(xs))]).T
    return float(np.linalg.lstsq(X, np.log(ys), rcond=None)[0][0])


def _density_grid():
    start, stop, count = DENSITY_GRID.split(":")
    return [float(v) for v in np.geomspace(float(start), float(stop), int(count))]


def _density_reference(name, x, y, lam):
    """Closed forms and direct sums, independent of ``spectral``."""
    if name in ("free_line", "free_space"):
        s = math.sqrt(lam)
        return math.cos(s * (x - y)) / (2.0 * math.pi * s)
    if name == "weyl":
        return 1.0 / (2.0 * math.pi * math.sqrt(lam))
    n = np.arange(1, math.isqrt(int(lam)) + 1, dtype=float)
    n = n[n * n <= lam]
    return 2.0 / math.pi * math.fsum(np.sin(n * x) * np.sin(n * y))


WORKLOADS = {w.name: w for w in (VerifyRegistry, AtomsFloat, KernelsSmear)}
