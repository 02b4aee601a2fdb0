"""Span tracer that wraps the public functions of ``spectral_cesaro`` from outside.

``Tracer.install()`` replaces each traced function in every module namespace
that holds it (``riesz_mean`` lives in ``measures``, ``summability``,
``spectral``, ``experiments``, ``cli`` and the package itself), plus a few
``SpectralMeasure`` methods, with a wrapper that records a span
``(name, start, end, parent)``. ``Tracer.uninstall()`` puts every original
object back. Spans and counters stay in memory; ``write_spans`` dumps them.

Self time of a span is its duration minus the durations of its direct
children. The atom generators of measures are counted (not spanned) by
wrapping ``measure.atom_fn`` the first time a measure reaches ``riesz_mean``
or ``atom_arrays``; the original generator is restored on uninstall.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict

import mpmath as mp

from spectral_cesaro import (cli, experiments, kernels, measures, quadrature,
                             spectral, summability)
from spectral_cesaro.errors import AccuracyError

from hostspeed import package_modules

# (defining module, function name); the span name is "<module>.<function>"
# unless the wrapper derives a finer one from the arguments.
FUNCTIONS = [
    (measures, "riesz_mean"),
    (summability, "cesaro_order_test"),
    (summability, "cesaro_limit"),
    (summability, "finite_part_eval"),
    (summability, "point_value"),
    (spectral, "offdiagonal_equivalence_check"),
    (spectral, "density_smear_interval"),
    (spectral, "evaluate_named_density"),
    (quadrature, "integrate"),
    (quadrature, "lobe_sum"),
    (kernels, "heat_kernel"),
    (kernels, "cylinder_kernel"),
    (kernels, "schrodinger_kernel"),
    (kernels, "wightman_interval"),
    (kernels, "averaged_smear"),
    (kernels, "small_t_coefficients"),
    (experiments, "run_experiment"),
    (cli, "main"),
]

# SpectralMeasure methods, spanned under the given names
METHODS = [
    ("atom_arrays", "measures.atom_arrays"),
    ("save_csv", "measures.csv.save"),
    ("load_csv", "measures.csv.load"),
]

KERNEL_EVALUATORS = ("heat_kernel", "cylinder_kernel", "schrodinger_kernel",
                     "wightman_interval")


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []         # (namespace, attribute, original)
        self._measures = []        # (weakref to measure, original atom_fn)
        self.installed = False

    # ------------------------------------------------------------ spans
    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_of, on_result=None, on_error=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._enter(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if on_error is not None:
                    on_error(err)
                raise
            finally:
                tracer._exit(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # ------------------------------------------------- atom generators
    def _count_atoms(self, measure):
        fn = measure.atom_fn
        if fn is None or getattr(fn, "_bench_counted", False):
            return
        counts = self.counts

        def atom_fn(n, B):
            counts["atom_fn.mp" if B is mp else "atom_fn.float"] += 1
            return fn(n, B)

        atom_fn._bench_counted = True
        self._measures.append((weakref.ref(measure), fn))
        measure.atom_fn = atom_fn

    # ------------------------------------------------- per-target hooks
    def _name_and_hooks(self, module, fname):
        base = f"{_short(module)}.{fname}"
        counts = self.counts

        def fixed(args, kwargs):
            return base

        if fname == "riesz_mean":
            def name_of(args, kwargs):
                self._count_atoms(args[0])
                dps = args[3] if len(args) > 3 else kwargs.get("dps")
                return base + (".float" if dps is None else ".mp")
            return name_of, None, None
        if fname == "run_experiment":
            def name_of(args, kwargs):
                cfg = args[0] if args else kwargs["cfg"]
                return f"experiments.{cfg.experiment}"
            return name_of, None, None
        if fname == "integrate":
            def on_result(args, kwargs, result):
                counts["integrate.evaluations"] += result.evaluations
                parent = self._stack[-1] if self._stack else -1
                if parent >= 0 and self.spans[parent][0] == "quadrature.lobe_sum":
                    counts["integrate.evaluations_in_lobes"] += result.evaluations

            def on_error(err):
                if isinstance(err, AccuracyError):
                    counts["integrate.accuracy_errors"] += 1
            return fixed, on_result, on_error
        if fname == "lobe_sum":
            def on_result(args, kwargs, result):
                bps = args[1] if len(args) > 1 else kwargs["breakpoints"]
                counts["lobe_sum.lobes"] += len(bps) - 1
            return fixed, on_result, None
        if fname in KERNEL_EVALUATORS:
            def on_result(args, kwargs, result):
                counts["kernels.truncation_terms"] += result.truncation or 0
            return fixed, on_result, None
        return fixed, None, None

    # ---------------------------------------------------- install/undo
    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for module, fname in FUNCTIONS:
            original = getattr(module, fname)
            name_of, on_result, on_error = self._name_and_hooks(module, fname)
            wrapper = self._wrap(original, name_of, on_result, on_error)
            for ns in modules:
                if ns.__dict__.get(fname) is original:
                    self._patched.append((ns, fname, original))
                    setattr(ns, fname, wrapper)

        cls = measures.SpectralMeasure
        counts = self.counts

        def count_arrays(args, kwargs, result):
            counts["atom_arrays.atoms"] += len(result[0])

        for attr, span_name in METHODS:
            descriptor = cls.__dict__[attr]
            if isinstance(descriptor, classmethod):
                inner = self._wrap(descriptor.__func__, lambda a, k, n=span_name: n)
                replacement = classmethod(inner)
            elif attr == "atom_arrays":
                def name_of(args, kwargs, n=span_name):
                    self._count_atoms(args[0])
                    return n
                replacement = self._wrap(descriptor, name_of, count_arrays)
            else:
                replacement = self._wrap(descriptor, lambda a, k, n=span_name: n)
            self._patched.append((cls, attr, descriptor))
            setattr(cls, attr, replacement)
        self.installed = True

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        for ref, original in self._measures:
            measure = ref()
            if measure is not None:
                measure.atom_fn = original
        self._measures.clear()
        self.installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------ reduction
    def self_times(self):
        """Per-name (calls, total inclusive seconds, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - child[i]
        return dict(out)

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def per_layer_names():
    """(metric name, unit) of every per-layer metric, in report order."""
    names = [
        ("measures.riesz_mean.mp.calls", "count"),
        ("measures.riesz_mean.mp.self_s", "s"),
        ("measures.riesz_mean.float.calls", "count"),
        ("measures.riesz_mean.float.self_s", "s"),
        ("measures.atom_fn.calls", "count"),
        ("measures.atom_arrays.calls", "count"),
        ("measures.atom_arrays.self_s", "s"),
        ("measures.atom_arrays.reuse_ratio", "ratio"),
        ("measures.csv.save_s", "s"),
        ("measures.csv.load_s", "s"),
        ("summability.cesaro_order_test.calls", "count"),
        ("summability.cesaro_order_test.self_s", "s"),
        ("summability.cesaro_limit.self_s", "s"),
        ("spectral.offdiagonal_equivalence_check.self_s", "s"),
        ("quadrature.integrate.calls", "count"),
        ("quadrature.integrate.self_s", "s"),
        ("quadrature.integrate.evaluations", "count"),
        ("quadrature.integrate.accuracy_errors", "count"),
        ("quadrature.lobe_sum.calls", "count"),
        ("quadrature.lobe_sum.lobes", "count"),
        ("quadrature.lobe_sum.self_s", "s"),
        ("quadrature.lobe_sum.evals_per_lobe", "ratio"),
    ]
    for fname in KERNEL_EVALUATORS + ("averaged_smear", "small_t_coefficients"):
        names += [(f"kernels.{fname}.calls", "count"),
                  (f"kernels.{fname}.self_s", "s")]
    names += [
        ("kernels.truncation_terms", "count"),
        ("summability.finite_part_eval.calls", "count"),
        ("summability.finite_part_eval.self_s", "s"),
        ("summability.point_value.calls", "count"),
        ("summability.point_value.self_s", "s"),
        ("spectral.density_smear_interval.self_s", "s"),
        ("spectral.evaluate_named_density.self_s", "s"),
    ]
    names += [(f"experiments.{e}.s", "s") for e in experiments.experiment_names()]
    names += [
        ("cli.main.calls", "count"),
        ("cli.main.self_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
    return names


def layer_metrics(tracer, passes, overhead_s):
    """Per-layer metrics averaged per traced pass, keyed as in per_layer_names."""
    st = tracer.self_times()
    c = tracer.counts

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0] / passes

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[2] / passes

    def inclusive_s(name):
        return st.get(name, (0, 0.0, 0.0))[1] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    atom_calls = c["atom_fn.float"] + c["atom_fn.mp"]
    values = {
        "measures.riesz_mean.mp.calls": calls("measures.riesz_mean.mp"),
        "measures.riesz_mean.mp.self_s": self_s("measures.riesz_mean.mp"),
        "measures.riesz_mean.float.calls": calls("measures.riesz_mean.float"),
        "measures.riesz_mean.float.self_s": self_s("measures.riesz_mean.float"),
        "measures.atom_fn.calls": atom_calls / passes,
        "measures.atom_arrays.calls": calls("measures.atom_arrays"),
        "measures.atom_arrays.self_s": self_s("measures.atom_arrays"),
        # atoms handed out by the float table per float generator call
        "measures.atom_arrays.reuse_ratio": ratio(c["atom_arrays.atoms"],
                                                  c["atom_fn.float"]),
        "measures.csv.save_s": inclusive_s("measures.csv.save"),
        "measures.csv.load_s": inclusive_s("measures.csv.load"),
        "quadrature.integrate.evaluations": c["integrate.evaluations"] / passes,
        "quadrature.integrate.accuracy_errors":
            c["integrate.accuracy_errors"] / passes,
        "quadrature.lobe_sum.lobes": c["lobe_sum.lobes"] / passes,
        "quadrature.lobe_sum.evals_per_lobe": ratio(
            c["integrate.evaluations_in_lobes"], c["lobe_sum.lobes"]),
        "kernels.truncation_terms": c["kernels.truncation_terms"] / passes,
        "trace.spans": len(tracer.spans) / passes,
        "trace.overhead_s": overhead_s,
    }
    for name, unit in per_layer_names():
        if name in values:
            continue
        if name.startswith("experiments."):
            values[name] = inclusive_s(name[:-2])
        elif name.endswith(".calls"):
            values[name] = calls(name[:-6])
        elif name.endswith(".self_s"):
            values[name] = self_s(name[:-7])
        else:
            raise KeyError(name)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_names()}
