"""Experiment registry, report plumbing, and the command-line interface."""

import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectral_cesaro
from spectral_cesaro import cli, experiments, kernels
from spectral_cesaro.errors import ParameterError
from spectral_cesaro.experiments import (ExperimentConfig, experiment_names,
                                         run_experiment)

REQUIRED_EXPERIMENTS = [
    "weyl-diagonal", "offdiag-equivalence", "theta-sum", "heat-two-path",
    "cylinder-two-path", "cylinder-locality", "schrodinger-averaged",
    "wightman-closed-form", "wkb-constant", "finite-part-scaling",
    "poisson-tail",
]


def test_registry_contains_required_experiments():
    names = experiment_names()
    for name in REQUIRED_EXPERIMENTS:
        assert name in names


def test_unknown_experiment_raises():
    with pytest.raises(ParameterError):
        run_experiment(ExperimentConfig(experiment="no-such-thing"))


def test_csv_output_is_deterministic():
    """Same config twice gives byte-identical artifacts."""
    cfg = ExperimentConfig(experiment="heat-two-path")
    _, art1 = run_experiment(cfg)
    _, art2 = run_experiment(ExperimentConfig(experiment="heat-two-path"))
    assert art1["heat_two_path.csv"] == art2["heat_two_path.csv"]
    assert art1["heat-two-path.summary.json"] == art2["heat-two-path.summary.json"]


def test_grid_parsing():
    cfg = ExperimentConfig.from_mapping("theta-sum", {"eps_grid": "1e-2:1e-1:5"})
    assert cfg.eps_grid == "1e-2:1e-1:5"
    with pytest.raises(ParameterError):
        ExperimentConfig.from_mapping("theta-sum", {"bogus": "1"})


@pytest.mark.parametrize("spec, end", [("nan:1e2:5", "start nan"),
                                       ("1:inf:5", "stop inf"),
                                       ("-inf:1:5", "start -inf")])
def test_grid_with_a_non_finite_end_is_rejected(spec, end, recwarn):
    with pytest.raises(ParameterError, match=f"grid '{spec}': {end} is not finite"):
        experiments.parse_grid(spec)
    assert len(recwarn) == 0


def test_config_file_with_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\nx = 0.9\nk = 3\n")
    cfg = ExperimentConfig.from_file("weyl-diagonal", path, {"k": "2"})
    assert cfg.x == 0.9
    assert cfg.k == 2


def test_wightman_experiment_propagates_unexpected_errors(monkeypatch):
    """Only the documented boundary errors skip a point; a bug surfaces."""
    real_P = kernels.wightman_P

    def broken_P(t, x, y):
        if t < 0:
            raise TypeError("broken for negative t")
        return real_P(t, x, y)

    monkeypatch.setattr(kernels, "wightman_P", broken_P)
    with pytest.raises(TypeError):
        run_experiment(ExperimentConfig(experiment="wightman-closed-form"))


def test_every_config_field_is_read_by_an_experiment():
    """A config key that no experiment reads would be accepted and ignored."""
    source = inspect.getsource(experiments)
    for f in dataclasses.fields(ExperimentConfig):
        if f.name != "experiment":
            assert re.search(rf"\bcfg\.{f.name}\b", source), f.name


class TestCliVerify:
    def test_pass_exit_code_and_artifacts(self, tmp_path, capsys):
        rc = cli.main(["verify", "wkb-constant", "--out", str(tmp_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "pass"
        assert (tmp_path / "wkb-constant.summary.json").exists()

    def test_unknown_experiment_exit_64(self, capsys):
        assert cli.main(["verify", "unknown-name"]) == 64

    def test_heat_two_path_flags(self, capsys):
        rc = cli.main(["verify", "heat-two-path", "--tol", "1e-10"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_theta_sum_eps_grid_reports_slope(self, capsys):
        rc = cli.main(["verify", "theta-sum", "--eps-grid", "1e-4:1e-1:12"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fitted_slopes"]["remainder_vs_eps"] >= 3.0

    def test_non_finite_lambda_grid_is_usage_error(self, capsys, recwarn):
        rc = cli.main(["verify", "offdiag-equivalence",
                       "--lambda-grid", "1e2:inf:24"])
        assert rc == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'1e2:inf:24'" in captured.err
        assert "stop inf is not finite" in captured.err
        assert len(recwarn) == 0

    @pytest.mark.parametrize("x, y, inconclusive", [("1", "1.0000001", 0),
                                                    ("1e-7", "1", 1)])
    def test_inconclusive_check_is_inconclusive(self, tmp_path, capsys, x, y,
                                                inconclusive):
        """Either check inconclusive (x near y, x near 0): exit 2, JSON null."""
        def strict(const):
            raise ValueError(f"{const} is not JSON")

        rc = cli.main(["verify", "offdiag-equivalence", "--x", x, "--y", y,
                       "--out", str(tmp_path)])
        assert rc == 2
        out = capsys.readouterr().out
        summary = (tmp_path / "offdiag-equivalence.summary.json").read_text()
        for text in (out, summary):
            report = json.loads(text, parse_constant=strict)
            assert report["verdict"] == "inconclusive"
            probe = report["probes"][inconclusive]
            assert probe["verdict"] == "inconclusive"
            assert probe["fitted_slope"] is None
            assert probe["cancellation_ratio"] is None
        if inconclusive == 0:
            assert report["fitted_slopes"]["interior"] is None

    def test_summary_writes_non_finite_floats_as_null(self):
        report = experiments.ExperimentReport(
            "theta-sum", "pass", [{"a": math.inf, "b": [np.float32("nan"), 1.5]}],
            {"s": -math.inf, "t": 2.0})
        assert report.summary_dict() == {
            "experiment": "theta-sum", "verdict": "pass", "notes": "",
            "probes": [{"a": None, "b": [None, 1.5]}],
            "fitted_slopes": {"s": None, "t": 2.0}}

    @pytest.mark.parametrize("name", experiment_names())
    @pytest.mark.parametrize("key, spec", [("lambda_grid", "1:1:1"),
                                           ("eps_grid", "1e-3:1e-1")])
    def test_malformed_grid_is_usage_error(self, tmp_path, capsys, name, key, spec):
        """Every experiment rejects a bad grid, whether or not it reads one."""
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} = {spec}\n")
        flag = "--" + key.replace("_", "-")
        for argv in (["verify", name, flag, spec],
                     ["verify", name, "--config", str(path)]):
            assert cli.main(argv) == 64
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage error: grid")

    def test_missing_config_file_exit_74(self, capsys):
        rc = cli.main(["verify", "theta-sum", "--config", "/nonexistent/path.cfg"])
        assert rc == 74

    @pytest.mark.parametrize("line", ["x = abc", "outdir = results",
                                      "t_grid = 0.01:1:50", "t = 0.1"])
    def test_bad_config_line_exit_64(self, tmp_path, capsys, line):
        path = tmp_path / "exp.cfg"
        path.write_text(line + "\n")
        assert cli.main(["verify", "theta-sum", "--config", str(path)]) == 64
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("dps", ["0", "-5", "14"])
    def test_dps_below_double_precision_is_usage_error(self, tmp_path, capsys, dps):
        path = tmp_path / "exp.cfg"
        path.write_text(f"dps = {dps}\n")
        for argv in (["verify", "poisson-tail", f"--dps={dps}"],
                     ["verify", "poisson-tail", "--config", str(path)]):
            assert cli.main(argv) == 64
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"usage error: dps must be at least 15, got {dps}\n"

    @pytest.mark.parametrize("argv", [["offdiag-equivalence", "--x", "5"],
                                      ["cylinder-locality", "--x", "4"]])
    def test_point_outside_domain_exit_64(self, capsys, argv):
        assert cli.main(["verify", *argv]) == 64
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_time_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "heat-two-path", "--t", "0.1"])
        assert exc.value.code == 64


class TestCliKernel:
    def test_heat_point(self, capsys):
        rc = cli.main(["kernel", "heat", "line", "--t", "0.25", "--x", "1",
                       "--y", "0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["re"] - math.exp(-1) / math.sqrt(math.pi)) < 1e-12

    def test_wightman_line_rejected(self, capsys):
        rc = cli.main(["kernel", "wightman", "line", "--t", "1", "--x", "0.5",
                       "--y", "1.0"])
        assert rc == 64

    def test_bad_time_is_usage_error(self, capsys):
        rc = cli.main(["kernel", "heat", "line", "--t", "-1", "--x", "0",
                       "--y", "0"])
        assert rc == 64

    @pytest.mark.parametrize("n_terms", ["0", "-5"])
    def test_wightman_truncation_below_one_is_usage_error(self, capsys, n_terms):
        rc = cli.main(["kernel", "wightman", "interval", "--t", "1", "--x",
                       "0.5", "--y", "1.0", "--method", "spectral_sum",
                       "--n-terms", n_terms])
        assert rc == 64
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("argv", [
        ["heat", "line", "--t", "nan", "--x", "0", "--y", "0"],
        ["heat", "line", "--t", "inf", "--x", "0", "--y", "0"],
        ["cylinder", "line", "--t", "inf", "--x", "0", "--y", "1"],
        ["cylinder", "line", "--t", "nan", "--x", "0", "--y", "1"],
        ["schrodinger", "line", "--t", "nan", "--x", "0", "--y", "1"],
        ["schrodinger", "line", "--t=-inf", "--x", "0", "--y", "1"],
        ["wightman", "interval", "--t", "nan", "--x", "0.5", "--y", "1.0"],
        ["heat", "line", "--t", "1", "--x", "nan", "--y", "0"],
        ["cylinder", "line", "--t", "1", "--x", "0", "--y", "inf"],
        ["schrodinger", "line", "--t", "1", "--x", "nan", "--y", "0"],
    ], ids=lambda argv: "-".join(argv).replace("--", ""))
    def test_non_finite_argument_is_usage_error(self, capsys, argv):
        rc = cli.main(["kernel", *argv])
        assert rc == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")

    @pytest.mark.parametrize("argv", [
        ["heat", "line", "--t", "1e-9", "--x", "0", "--y", "1",
         "--method", "spectral_sum"],
        ["cylinder", "line", "--t", "1e-6", "--x", "0", "--y", "1",
         "--method", "spectral_sum"],
    ], ids=["heat", "cylinder"])
    def test_quadrature_shortfall_is_inconclusive(self, capsys, argv):
        rc = cli.main(["kernel", *argv])
        assert rc == experiments.EXIT_CODES["inconclusive"] == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"inconclusive: quadrature error estimate .* exceeds "
                            r"tol .* \(best estimate \S+\)\n", captured.err)


class TestCliDensity:
    def test_named_density_csv(self, capsys):
        rc = cli.main(["density", "free_line", "--x", "1", "--y", "0",
                       "--lambda-grid", "1:100:5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lambda,value"
        assert len(lines) == 6

    @pytest.mark.parametrize("x, y", [("nan", "0"), ("1", "inf")])
    def test_non_finite_point_is_usage_error(self, capsys, x, y):
        rc = cli.main(["density", "free_line", "--x", x, "--y", y,
                       "--lambda-grid", "1:100:5"])
        assert rc == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")

    def test_non_finite_grid_end_is_usage_error(self, capsys, recwarn):
        rc = cli.main(["density", "free_line", "--x", "1", "--y", "0",
                       "--lambda-grid", "1:inf:3"])
        assert rc == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: grid '1:inf:3': stop inf is not finite\n"
        assert len(recwarn) == 0

    def test_staircase_density_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["density", "interval_staircase", "--x", "1.0",
                       "--y", "1.0", "--lambda-grid", "1:50:4",
                       "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("lambda,value\n")


class TestCliRiesz:
    def test_from_csv(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("lambda,weight_re,weight_im\n"
                        "1.0,1.0,0.0\n4.0,1.0,0.0\n9.0,1.0,0.0\n16.0,1.0,0.0\n")
        rc = cli.main(["riesz", "--measure", str(path), "--order", "1",
                       "--lambda", "10"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["re"] - 1.6) < 1e-12

    def test_missing_file_exit_74(self, capsys):
        rc = cli.main(["riesz", "--measure", "/nope.csv", "--order", "0",
                       "--lambda", "5"])
        assert rc == 74

    @pytest.mark.parametrize("text", ["a,b,c\n1,2,3\n",
                                      "lambda,weight_re,weight_im\n1.0,abc,0\n",
                                      "",
                                      "lambda,weight_re,weight_im\n1.0,2.0\n"],
                             ids=["bad_header", "non_numeric_weight",
                                  "empty_file", "short_row"])
    def test_malformed_csv_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        rc = cli.main(["riesz", "--measure", str(path), "--order", "1",
                       "--lambda", "5"])
        assert rc == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert str(path) in err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_is_usage_error(self, tmp_path, capsys, lam):
        path = tmp_path / "m.csv"
        path.write_text("lambda,weight_re,weight_im\n1.0,1.0,0.0\n")
        rc = cli.main(["riesz", "--measure", str(path), "--order", "2",
                       "--lambda", lam])
        assert rc == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")

    def test_zero_lambda_is_usage_error(self, tmp_path, capsys):
        # the negative atom puts the support bound below lam = 0
        path = tmp_path / "m.csv"
        path.write_text("lambda,weight_re,weight_im\n-1.1,0.0,1.0\n")
        rc = cli.main(["riesz", "--measure", str(path), "--order", "1",
                       "--lambda", "0"])
        assert rc == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")


_IMPORT_GUARD = """
import contextlib, io, sys
scipy_loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
heavy = lambda: sorted(m for m in ("scipy.integrate", "scipy.special", "scipy.linalg")
                       if m in sys.modules)
import spectral_cesaro
from spectral_cesaro import cli
print(scipy_loaded())
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["verify", "wkb-constant"])
print(rc, scipy_loaded())
for args in (["verify", "finite-part-scaling"], ["verify", "weyl-diagonal"],
             ["kernel", "heat", "line", "--t", "0.5", "--x", "0", "--y", "0.3",
              "--method", "spectral_sum"]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(args)
    print(rc, heavy())
print("scipy.integrate._quadpack" in sys.modules)
"""


def test_package_import_leaves_scipy_unloaded(tmp_path):
    """scipy, most of the package's import time, loads where it is called.

    ``wkb-constant``, like most registry experiments, never calls it. The
    experiments and kernels that integrate reach QUADPACK's compiled
    extension without importing ``scipy.integrate``, and the Weyl density
    takes its Beta function without ``scipy.special``.
    """
    src = str(Path(spectral_cesaro.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0 []", "0 []", "0 []", "0 []", "True"]


def test_console_script_usage_error_subprocess():
    """argparse-level failures exit 64 through the real entry point."""
    proc = subprocess.run([sys.executable, "-m", "spectral_cesaro.cli",
                           "verify"], capture_output=True)
    assert proc.returncode == 64
