"""Named verification experiments with machine-readable reports.

Each experiment reproduces one verifiable asymptotic or identity claim at
desk scale, writes deterministic CSV data (fixed summation order, no
wall-clock contamination) plus a JSON summary, and reports a verdict:
pass / fail / inconclusive.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from . import kernels, spectral
from .errors import BoundaryError, ParameterError, SingularityError
from .quadrature import integrate
from .summability import FinitePart, finite_part_eval
from .testfn import make_bump

__all__ = ["ExperimentConfig", "ExperimentReport", "run_experiment",
           "experiment_names", "parse_grid", "EXIT_CODES"]

EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 2}


def parse_grid(spec):
    """Geometric grid from 'start:stop:count'."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParameterError(f"grid must be start:stop:count, got {spec!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    for end, value in (("start", start), ("stop", stop)):
        if not math.isfinite(value):
            raise ParameterError(f"grid {spec!r}: {end} {value} is not finite")
    if count < 2:
        raise ParameterError("grid count must be >= 2")
    if not 0 < start < stop:
        raise ParameterError("grid needs 0 < start < stop")
    return np.geomspace(start, stop, count)


@dataclass
class ExperimentConfig:
    experiment: str
    x: float = 1.0
    y: float = 2.0
    k: int = 2
    tol: Optional[float] = None
    eps_grid: str = "1e-3:1e-1:12"
    lambda_grid: str = "1e2:1e6:24"
    dps: int = 80
    seed: int = 20260808

    def __post_init__(self):
        if self.tol is not None and self.tol <= 0:
            raise ParameterError("tol must be positive")
        # the remainders are reported as doubles, so never below double precision
        if self.dps < 15:
            raise ParameterError(f"dps must be at least 15, got {self.dps}")
        # every experiment rejects a malformed grid, not only those that read one
        parse_grid(self.eps_grid)
        parse_grid(self.lambda_grid)

    @classmethod
    def from_file(cls, experiment, path, overrides=None):
        kv = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                kv[key.strip()] = val.strip()
        kv.update(overrides or {})
        return cls.from_mapping(experiment, kv)

    @classmethod
    def from_mapping(cls, experiment, kv):
        casts = {"x": float, "y": float, "k": int, "tol": float, "dps": int,
                 "seed": int, "eps_grid": str, "lambda_grid": str}
        kwargs = {}
        for key, val in kv.items():
            if key not in casts:
                raise ParameterError(f"unknown config key {key!r}")
            kwargs[key] = casts[key](val)
        return cls(experiment=experiment, **kwargs)


@dataclass
class ExperimentReport:
    experiment: str
    verdict: str
    probes: list = field(default_factory=list)
    fitted_slopes: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    notes: str = ""

    def __post_init__(self):
        if self.verdict not in EXIT_CODES:
            raise ParameterError(f"bad verdict {self.verdict!r}")

    @property
    def exit_code(self):
        return EXIT_CODES[self.verdict]

    def summary_dict(self, with_timing=False):
        """The JSON summary; every non-finite float is None (JSON null)."""
        out = {"experiment": self.experiment, "verdict": self.verdict,
               "probes": self.probes, "fitted_slopes": self.fitted_slopes,
               "notes": self.notes}
        if with_timing:
            out["wall_time_s"] = self.wall_time_s
        return _finite_or_none(out)


def _finite_or_none(obj):
    """``obj`` with every NaN or infinite float, however nested, as None."""
    if isinstance(obj, dict):
        return {key: _finite_or_none(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(val) for val in obj]
    if isinstance(obj, (float, np.floating, mp.mpf)) and not math.isfinite(obj):
        return None
    return obj


def _fit_slope(xs, ys):
    X = np.vstack([np.log(xs), np.ones(len(xs))]).T
    return float(np.linalg.lstsq(X, np.log(ys), rcond=None)[0][0])


def _csv_rows(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- experiments

def _exp_theta_sum(cfg):
    """Remainder of the half-line Gaussian-argument sum against its closed form.

    sum_{n>=1} exp(-eps n^2) = sqrt(pi)/(2 sqrt(eps)) - 1/2 + (remainder that
    decays faster than any power of eps). Computed in mpmath: the remainder
    sits far below double rounding for the whole grid.
    """
    eps_grid = parse_grid(cfg.eps_grid)
    slope_min = 3.0
    abs_tol = cfg.tol if cfg.tol is not None else 1e-10

    def remainder(em):
        nmax = int(mp.sqrt((cfg.dps + 4) * mp.log(10) / em)) + 2
        s = mp.fsum(mp.exp(-em * n * n) for n in range(1, nmax + 1))
        return float(abs(s - (mp.sqrt(mp.pi) / (2 * mp.sqrt(em)) - mp.mpf("0.5"))))

    with mp.workdps(cfg.dps):
        rows = [(float(eps), remainder(mp.mpf(float(eps)))) for eps in eps_grid]
        rem_01 = remainder(mp.mpf("0.01"))
    slope = _fit_slope([r[0] for r in rows], [max(r[1], 1e-300) for r in rows])
    verdict = "pass" if (slope >= slope_min and rem_01 < abs_tol) else "fail"
    probes = [{"eps": e, "remainder": r} for e, r in rows]
    probes.append({"eps": 0.01, "remainder": rem_01, "tol": abs_tol})
    report = ExperimentReport("theta-sum", verdict, probes,
                              {"remainder_vs_eps": slope})
    return report, {"theta_sum.csv": _csv_rows(["eps", "value"], rows)}


def _exp_weyl_diagonal(cfg):
    """Riesz-2 mean of the diagonal sine series against the smooth Weyl density."""
    checks = [(1e4, 1e-2), (1e6, 3e-3)]
    rep = spectral.diagonal_weyl_check(cfg.x, cfg.k, [lam for lam, _ in checks])
    rels = rep.details["relative_differences"]
    ok = all(rel < tol for rel, (_, tol) in zip(rels, checks))
    probes = [{"lambda": lam, "relative_difference": rel, "tol": tol}
              for rel, (lam, tol) in zip(rels, checks)]
    rows = [(lam, rel) for rel, (lam, _) in zip(rels, checks)]
    report = ExperimentReport("weyl-diagonal", "pass" if ok else "fail", probes)
    return report, {"weyl_diagonal.csv": _csv_rows(["lambda", "value"], rows)}


def _exp_offdiag_equivalence(cfg):
    """Cesaro-order equivalence of sine-series and free-line densities.

    Passes when the check holds at (x, y) and fails at the boundary (x, 0);
    inconclusive when either check is (x near y, or x near 0).
    """
    lams = parse_grid(cfg.lambda_grid)
    rep_in = spectral.offdiagonal_equivalence_check(cfg.x, cfg.y, cfg.k, lams)
    rep_bd = spectral.offdiagonal_equivalence_check(cfg.x, 0.0, cfg.k, lams)
    if "inconclusive" in (rep_in.verdict, rep_bd.verdict):
        verdict = "inconclusive"
    elif rep_in.verdict == "holds" and rep_bd.verdict == "fails":
        verdict = "pass"
    else:
        verdict = "fail"
    probes = [
        {"point": [cfg.x, cfg.y], "verdict": rep_in.verdict,
         "fitted_slope": rep_in.fitted_slope, "order_used": rep_in.order_used,
         "cancellation_ratio": rep_in.details.get("cancellation_ratio")},
        {"point": [cfg.x, 0.0], "verdict": rep_bd.verdict,
         "fitted_slope": rep_bd.fitted_slope,
         "cancellation_ratio": rep_bd.details.get("cancellation_ratio")},
    ]
    report = ExperimentReport("offdiag-equivalence", verdict, probes,
                              {"interior": rep_in.fitted_slope})
    return report, {}


def _two_path_kernel(cfg, kind):
    rng = np.random.default_rng(cfg.seed)
    t_lo, t_hi = (0.01, 1.0) if kind == "heat" else (0.05, 1.0)
    tol = cfg.tol if cfg.tol is not None else 1e-10
    rows = []
    worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(t_lo, t_hi))
        x = float(rng.uniform(0.2, math.pi - 0.2))
        y = float(rng.uniform(0.2, math.pi - 0.2))
        if kind == "heat":
            a = kernels.heat_kernel("interval", t, x, y, "spectral_sum")
            b = kernels.heat_kernel("interval", t, x, y, "image_sum")
        else:
            a = kernels.cylinder_kernel("interval", t, x, y, "spectral_sum")
            b = kernels.cylinder_kernel("interval", t, x, y, "closed_form")
        d = abs(complex(a.value) - complex(b.value))
        worst = max(worst, d)
        rows.append((t, x, y, complex(a.value).real, complex(a.value).imag,
                     a.method, a.truncation or 0))
    ok = worst < tol
    probes = [{"worst_abs_difference": worst, "tol": tol, "points": 50}]
    if kind == "cylinder":
        line_diag = kernels.cylinder_kernel("line", 1.0, cfg.x, cfg.x).value
        ok &= abs(line_diag - 1.0 / math.pi) < 1e-14
        probes.append({"line_diagonal_t1": float(line_diag),
                       "expected": 1.0 / math.pi})
    name = f"{kind}-two-path"
    report = ExperimentReport(name, "pass" if ok else "fail", probes)
    return report, {f"{kind}_two_path.csv": _csv_rows(
        ["t", "x", "y", "re", "im", "method", "truncation"], rows)}


def _exp_heat_two_path(cfg):
    return _two_path_kernel(cfg, "heat")


def _exp_cylinder_two_path(cfg):
    return _two_path_kernel(cfg, "cylinder")


def _exp_cylinder_locality(cfg):
    """Locality dichotomy: heat coefficients agree line/interval; cylinder differ."""
    x = cfg.x
    heat_line = kernels.small_t_coefficients("heat", "line", x, x, N=2)
    heat_int = kernels.small_t_coefficients("heat", "interval", x, x, N=2)
    lead = 1.0 / math.sqrt(4.0 * math.pi)
    heat_ok = all(
        abs(heat_line.coefficient(j - 0.5) - heat_int.coefficient(j - 0.5))
        < 1e-8 * lead for j in range(3))
    cyl_line = kernels.small_t_coefficients("cylinder", "line", x, x, N=3)
    cyl_int = kernels.small_t_coefficients("cylinder", "interval", x, x, N=3)
    target = (1.0 / math.pi) * (1.0 / 12.0 - 1.0 / (2.0 * (1.0 - math.cos(2.0 * x))))
    c_line = complex(cyl_line.coefficient(1.0)).real
    c_int = complex(cyl_int.coefficient(1.0)).real
    cyl_ok = abs(c_line) < 1e-6 and abs(c_int - target) < 1e-6
    verdict = "pass" if (heat_ok and cyl_ok) else "fail"
    probes = [
        {"heat_terms_agree": heat_ok},
        {"cylinder_line_t1": c_line, "cylinder_interval_t1": c_int,
         "expected_interval": target},
    ]
    art = {"cylinder_locality.json": json.dumps({
        "heat_line": heat_line.to_json_record("heat", "line", x, x),
        "heat_interval": heat_int.to_json_record("heat", "interval", x, x),
        "cylinder_line": cyl_line.to_json_record("cylinder", "line", x, x),
        "cylinder_interval": cyl_int.to_json_record("cylinder", "interval", x, x),
    }, indent=2, sort_keys=True) + "\n"}
    return ExperimentReport("cylinder-locality", verdict, probes), art


def _exp_schrodinger_averaged(cfg):
    """Averaged smallness of the oscillatory propagator.

    Off-diagonal smear slope over the configured eps window, plus the exact
    diagonal identity <U(eps t, x, x), phi> = (4 pi eps)^{-1/2} e^{-i pi/4}
    int t^{-1/2} phi(t) dt. Over the default window [1e-3, 1e-1] the
    off-diagonal decay is still pre-asymptotic (the phase sweeps only
    1/(8 eps) radians across the support), so the slope criterion of 4 is
    not met there; see the notes field.
    """
    eps_grid = parse_grid(cfg.eps_grid)
    phi = make_bump(1.0, 2.0)
    rows = []
    for eps in eps_grid:
        v = kernels.averaged_smear("schrodinger", "line", cfg.x, cfg.y, phi,
                                   float(eps), tol=1e-13)
        rows.append((float(eps), abs(v)))
    slope = _fit_slope([r[0] for r in rows], [r[1] for r in rows])

    diag = kernels.averaged_smear("schrodinger", "line", cfg.x, cfg.x, phi, 1e-3)
    ref = (cmath.exp(-1j * math.pi / 4.0) / math.sqrt(4.0 * math.pi * 1e-3)
           * integrate(lambda t: phi(t) / math.sqrt(t), 1.0, 2.0, tol=1e-13).value)
    diag_rel = abs(diag - ref) / abs(ref)
    ok = slope >= 4.0 and diag_rel < 1e-4
    notes = ""
    if slope < 4.0:
        notes = ("off-diagonal slope is pre-asymptotic on this window; "
                 "the local slope passes 4 near eps ~ 5e-4 and the fit "
                 "over [1e-4, 1e-3] gives 5.4 "
                 "(exp(-c/sqrt(eps)) with c ~ 0.18 for this geometry)")
    probes = [{"offdiag_slope": slope, "required": 4.0},
              {"diagonal_relative_error": diag_rel, "tol": 1e-4}]
    report = ExperimentReport("schrodinger-averaged", "pass" if ok else "fail",
                              probes, {"offdiag": slope}, notes=notes)
    return report, {"schrodinger_averaged.csv": _csv_rows(["eps", "value"], rows)}


def _exp_wightman_closed_form(cfg):
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.tol if cfg.tol is not None else 1e-3
    worst = 0.0
    rows = []
    count = 0
    while count < 20:
        x = float(rng.uniform(0.3, math.pi - 0.3))
        y = float(rng.uniform(0.3, math.pi - 0.3))
        t = float(rng.uniform(0.2, 2.0 * math.pi - 0.2))
        try:
            closed = kernels.wightman_interval(t, x, y, "closed_form")
        except (SingularityError, BoundaryError):
            continue
        r = abs(x - y)
        z = x + y
        f = z if z <= math.pi else 2.0 * math.pi - z
        tt = math.remainder(t, 2.0 * math.pi)
        if min(abs(abs(tt) - r), abs(abs(tt) - f)) < 0.05:
            continue   # stay off the P jump lines so Cesaro-1 can converge
        series = kernels.wightman_interval(t, x, y, "spectral_sum", n_terms=10**4)
        d = abs(series.value - closed.value)
        worst = max(worst, d)
        im_ok = abs(closed.value.imag - 0.25 * kernels.wightman_P(t, x, y)) == 0.0
        if not im_ok:
            worst = math.inf
        rows.append((t, x, y, closed.value.real, closed.value.imag,
                     "closed_form", 0))
        count += 1
    odd_ok = True
    for _ in range(100):
        x = float(rng.uniform(0.2, math.pi - 0.2))
        y = float(rng.uniform(0.2, math.pi - 0.2))
        t = float(rng.uniform(0.05, 3.0))
        try:
            odd_ok &= kernels.wightman_P(-t, x, y) == -kernels.wightman_P(t, x, y)
        except (SingularityError, BoundaryError):
            continue
    ok = worst < tol and odd_ok
    probes = [{"worst_series_vs_closed": worst, "tol": tol},
              {"P_odd_in_t": odd_ok}]
    report = ExperimentReport("wightman-closed-form", "pass" if ok else "fail", probes)
    return report, {"wightman.csv": _csv_rows(
        ["t", "x", "y", "re", "im", "method", "truncation"], rows)}


def _exp_wkb_constant(cfg):
    """Order-<=2 WKB series against the exact shifted free density, V = const."""
    ok = True
    probes = []
    for c in (1.0, 2.5):
        tab = spectral.wkb_coefficients(c, 0.0, 0.0, 0.0)
        worst = 0.0
        for omega in (3.0, 5.0, 10.0):
            series = tab.density_series(0, 0, omega)
            u = c / (omega * omega)
            exact_taylor = (1.0 + 0.5 * u + 0.375 * u * u) / math.pi
            worst = max(worst, abs(series - exact_taylor))
        ok &= worst < 1e-12
        probes.append({"c": c, "worst_taylor_mismatch": worst, "tol": 1e-12})
    report = ExperimentReport("wkb-constant", "pass" if ok else "fail", probes)
    return report, {}


def _exp_finite_part_scaling(cfg):
    """Both finite-part scaling laws on bump test functions."""
    phi = make_bump(-1.0, 1.0)
    tol = cfg.tol if cfg.tol is not None else 1e-9
    ok = True
    probes = []
    for kk in (1, 2):
        g = FinitePart(-float(kk))
        base = finite_part_eval(g, phi)
        dk = phi.derivative(kk - 1)(0.0)
        for lam in (2.0, 10.0):
            lhs = finite_part_eval(g, phi, lam_scale=lam)
            rhs = base / lam**kk + (-1.0) ** (kk - 1) * math.log(lam) * dk \
                / (math.factorial(kk - 1) * lam**kk)
            ok &= abs(lhs - rhs) < tol
            probes.append({"k": kk, "lam": lam, "abs_difference": abs(lhs - rhs)})
    for alpha in (0.5, 1.5):
        g = FinitePart(alpha)
        base = finite_part_eval(g, phi)
        for lam in (2.0, 10.0):
            lhs = finite_part_eval(g, phi, lam_scale=lam)
            rhs = lam**alpha * base
            ok &= abs(lhs - rhs) < tol
            probes.append({"alpha": alpha, "lam": lam,
                           "abs_difference": abs(lhs - rhs)})
    report = ExperimentReport("finite-part-scaling", "pass" if ok else "fail", probes)
    return report, {}


def _exp_poisson_tail(cfg):
    """Whole-line Gaussian lattice sum against its integral leading term."""
    xs = np.geomspace(0.05, 0.5, 12)
    rows = []
    with mp.workdps(cfg.dps):
        for xv in xs:
            xm = mp.mpf(float(xv))
            nmax = int(mp.sqrt((cfg.dps + 4) * mp.log(10)) / xm) + 2
            s = 1 + 2 * mp.fsum(mp.exp(-(n * xm) ** 2) for n in range(1, nmax + 1))
            d = abs(s - mp.sqrt(mp.pi) / xm)
            rows.append((float(xv), float(d)))
    slope = _fit_slope([r[0] for r in rows], [max(r[1], 1e-300) for r in rows])
    ok = slope >= 6.0
    probes = [{"slope": slope, "required": 6.0}]
    report = ExperimentReport("poisson-tail", "pass" if ok else "fail", probes,
                              {"remainder_vs_x": slope})
    return report, {"poisson_tail.csv": _csv_rows(["x", "value"], rows)}


def _exp_bessel_reduction(cfg):
    """d = 1 and d = 3 reductions of the Bessel free-space density."""
    rng = np.random.default_rng(cfg.seed)
    worst1 = worst3 = 0.0
    for _ in range(20):
        r = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.5, 50.0))
        d1 = spectral.density_free_space(1, [0.0], [r], lam)
        ref1 = spectral.density_free_line(0.0, r, lam)
        worst1 = max(worst1, abs(d1 - ref1))
        d3 = spectral.density_free_space(3, [0.0, 0.0, 0.0], [r, 0.0, 0.0], lam)
        ref3 = math.sin(math.sqrt(lam) * r) / (4.0 * math.pi**2 * r)
        worst3 = max(worst3, abs(d3 - ref3))
    ok = worst1 < 1e-12 and worst3 < 1e-12
    probes = [{"worst_d1": worst1, "worst_d3": worst3, "tol": 1e-12}]
    report = ExperimentReport("bessel-reduction", "pass" if ok else "fail", probes)
    return report, {}


_REGISTRY: dict[str, Callable] = {
    "weyl-diagonal": _exp_weyl_diagonal,
    "offdiag-equivalence": _exp_offdiag_equivalence,
    "theta-sum": _exp_theta_sum,
    "heat-two-path": _exp_heat_two_path,
    "cylinder-two-path": _exp_cylinder_two_path,
    "cylinder-locality": _exp_cylinder_locality,
    "schrodinger-averaged": _exp_schrodinger_averaged,
    "wightman-closed-form": _exp_wightman_closed_form,
    "wkb-constant": _exp_wkb_constant,
    "finite-part-scaling": _exp_finite_part_scaling,
    "poisson-tail": _exp_poisson_tail,
    "bessel-reduction": _exp_bessel_reduction,
}


def experiment_names():
    return sorted(_REGISTRY)


def run_experiment(cfg: ExperimentConfig):
    """Run a registry experiment; returns (report, artifacts dict name->text)."""
    if cfg.experiment not in _REGISTRY:
        raise ParameterError(f"unknown experiment {cfg.experiment!r}; "
                             f"known: {', '.join(experiment_names())}")
    t0 = time.perf_counter()
    report, artifacts = _REGISTRY[cfg.experiment](cfg)
    report.wall_time_s = time.perf_counter() - t0
    artifacts = dict(artifacts)
    artifacts[f"{cfg.experiment}.summary.json"] = json.dumps(
        report.summary_dict(), indent=2, sort_keys=True, default=float) + "\n"
    return report, artifacts
