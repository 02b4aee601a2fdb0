"""Command-line interface.

Subcommands:
  spectral-cesaro verify <experiment> [--flags]   run a registry experiment
  spectral-cesaro kernel <kind> <case> --t --x --y [--method]
  spectral-cesaro riesz --measure file.csv --order k --lambda lam
  spectral-cesaro density <name> --x --y [--dimension] [--lambda-grid] [--out]

Exit codes: 0 pass, 1 fail, 2 inconclusive, 64 usage error, 74 I/O error.
A kernel whose quadrature misses its tolerance is inconclusive: ``kernel``
writes the best estimate to stderr, nothing to stdout, and exits 2.
``kernel`` and ``riesz`` print strict JSON, with a non-finite number as null.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import kernels
from .errors import AccuracyError
from .experiments import (EXIT_CODES, ExperimentConfig, _csv_rows, _finite_or_none,
                          parse_grid, run_experiment)
from .measures import SpectralMeasure, riesz_mean
from .spectral import NAMED_DENSITIES, evaluate_named_density

EX_USAGE = 64
EX_IOERR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EX_USAGE)


@functools.cache
def _build_parser():
    """The argument parser, built once per process and reused by every
    :func:`main` call; parsing leaves it unchanged."""
    p = _Parser(prog="spectral-cesaro",
                description="Summability and Green-kernel verification toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    # no abbreviations: a stale "--t" must not be read as "--tol"
    v = sub.add_parser("verify", help="run a named verification experiment",
                       allow_abbrev=False)
    v.add_argument("experiment")
    v.add_argument("--config", help="flat key=value config file")
    v.add_argument("--out", help="directory for CSV/JSON artifacts")
    v.add_argument("--x", type=float)
    v.add_argument("--y", type=float)
    v.add_argument("--order", "--k", dest="k", type=int)
    v.add_argument("--tol", type=float)
    v.add_argument("--eps-grid", dest="eps_grid",
                   help="geometric grid start:stop:count")
    v.add_argument("--lambda-grid", dest="lambda_grid")
    v.add_argument("--dps", type=int, help="mpmath digits for tail experiments")
    v.add_argument("--seed", type=int)

    k = sub.add_parser("kernel", help="evaluate a Green kernel at a point")
    k.add_argument("kind", choices=["heat", "schrodinger", "cylinder", "wightman"])
    k.add_argument("case", choices=kernels.CASES)
    k.add_argument("--t", type=float, required=True)
    k.add_argument("--x", type=float, required=True)
    k.add_argument("--y", type=float, required=True)
    k.add_argument("--method", default="closed_form", choices=kernels.METHODS)
    k.add_argument("--n-terms", type=int, default=10**4)

    r = sub.add_parser("riesz", help="Riesz mean of a CSV measure")
    r.add_argument("--measure", required=True, help="CSV lambda,weight_re,weight_im")
    r.add_argument("--order", type=int, required=True)
    r.add_argument("--lambda", dest="lam", type=float, required=True)

    d = sub.add_parser("density", help="sweep a named spectral density")
    d.add_argument("name", choices=NAMED_DENSITIES)
    d.add_argument("--x", type=float, required=True)
    d.add_argument("--y", type=float, required=True)
    d.add_argument("--dimension", type=int, default=1)
    d.add_argument("--lambda-grid", dest="lambda_grid", default="1:1e4:40",
                   help="geometric grid start:stop:count")
    d.add_argument("--out", help="CSV file (default: stdout)")
    return p


def _cmd_verify(args) -> int:
    overrides = {key: getattr(args, key) for key in
                 ("x", "y", "k", "tol", "eps_grid", "lambda_grid", "dps", "seed")
                 if getattr(args, key) is not None}
    try:
        if args.config:
            cfg = ExperimentConfig.from_file(args.experiment, args.config,
                                             {k: str(v) for k, v in overrides.items()})
        else:
            cfg = ExperimentConfig.from_mapping(
                args.experiment, {k: str(v) for k, v in overrides.items()})
    except OSError as err:
        sys.stderr.write(f"i/o error: {err}\n")
        return EX_IOERR
    except ValueError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return EX_USAGE
    try:
        report, artifacts = run_experiment(cfg)
    except ValueError as err:   # an unknown name or a point outside the domain
        sys.stderr.write(f"usage error: {err}\n")
        return EX_USAGE
    if args.out:
        try:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            for name, text in artifacts.items():
                (outdir / name).write_text(text)
        except OSError as err:
            sys.stderr.write(f"i/o error: {err}\n")
            return EX_IOERR
    print(json.dumps(report.summary_dict(with_timing=True), indent=2,
                     sort_keys=True, default=float))
    return report.exit_code


def _cmd_kernel(args) -> int:
    try:
        if args.kind != "wightman":
            kernel = {"heat": kernels.heat_kernel, "schrodinger": kernels.schrodinger_kernel,
                      "cylinder": kernels.cylinder_kernel}[args.kind]
            ev = kernel(args.case, args.t, args.x, args.y, args.method)
        else:
            if args.case != "interval":
                sys.stderr.write("usage error: wightman kernel is interval-only\n")
                return EX_USAGE
            ev = kernels.wightman_interval(args.t, args.x, args.y, args.method,
                                           n_terms=args.n_terms)
    except ValueError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return EX_USAGE
    except AccuracyError as err:
        sys.stderr.write(f"inconclusive: {err} (best estimate {err.best_estimate})\n")
        return EXIT_CODES["inconclusive"]
    value = complex(ev.value)
    print(json.dumps(_finite_or_none({
        "t": args.t, "x": args.x, "y": args.y,
        "re": value.real, "im": value.imag,
        "method": ev.method, "truncation": ev.truncation,
        "error_estimate": ev.error_estimate,
    }), indent=2, sort_keys=True, default=float, allow_nan=False))
    return 0


def _cmd_riesz(args) -> int:
    try:
        measure = SpectralMeasure.load_csv(args.measure)
        value = riesz_mean(measure, args.order, args.lam)
    except OSError as err:
        sys.stderr.write(f"i/o error: {err}\n")
        return EX_IOERR
    except ValueError as err:   # a bad header or entry, or a bad order or lambda
        sys.stderr.write(f"usage error: {err}\n")
        return EX_USAGE
    except OverflowError as err:    # weights whose sum is past the largest double
        sys.stderr.write(f"usage error: the Riesz sum overflows: {err}\n")
        return EX_USAGE
    value = complex(value)
    print(json.dumps(_finite_or_none({"order": args.order, "lambda": args.lam,
                                      "re": value.real, "im": value.imag}),
                     sort_keys=True, allow_nan=False))
    return 0


def _cmd_density(args) -> int:
    try:
        grid = parse_grid(args.lambda_grid)
        rows = [(lam, evaluate_named_density(args.name, args.x, args.y, float(lam),
                                             dimension=args.dimension).value)
                for lam in grid]
    except ValueError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return EX_USAGE
    text = _csv_rows(["lambda", "value"], rows)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as err:
            sys.stderr.write(f"i/o error: {err}\n")
            return EX_IOERR
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "kernel":
        return _cmd_kernel(args)
    if args.command == "density":
        return _cmd_density(args)
    return _cmd_riesz(args)


if __name__ == "__main__":
    sys.exit(main())
