import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tasproc
from tasproc.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    parse_mu0,
    parse_range,
    parse_window,
)
from tasproc.model import IsotropicGaussian, UniformInterval, Window


def simulate_gauss(tmp_path):
    pat = tmp_path / "pat.csv"
    assert main(["simulate", "--alpha", "0.7", "--lambda", "0.1", "--mu0",
                 "gauss:2:1", "--window=-10:10,-10:10", "--seed", "3",
                 "--out", str(pat)]) == EXIT_OK
    return pat


def run_simulate(tmp_path, name="pat.csv", seed=5, extra=()):
    out = tmp_path / name
    code = main(["simulate", "--alpha", "0.6", "--lambda", "0.4",
                 "--mu0", "uniform:1", "--window=-50:50",
                 "--seed", str(seed), "--out", str(out), *extra])
    assert code == EXIT_OK
    return out


class TestParsers:
    def test_parse_window(self):
        w = parse_window("-1:2,0:5")
        assert w == Window([-1, 0], [2, 5])

    def test_parse_mu0(self):
        assert parse_mu0("uniform:1.5") == UniformInterval(1.5)
        assert parse_mu0("gauss:2:0.7") == IsotropicGaussian(2, 0.7)

    def test_parse_range_inclusive(self):
        grid = parse_range("0.3:1.0:0.1")
        assert len(grid) == 8
        assert grid[0] == 0.3
        assert grid[-1] == 1.0

    def test_help_for_each_subcommand(self, capsys):
        parser = build_parser()
        for cmd in ("simulate", "fit", "gcurve", "replicate"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([cmd, "--help"])
            assert exc.value.code == 0
            assert cmd in capsys.readouterr().out


class TestSimulate:
    def test_deterministic_byte_identical(self, tmp_path):
        a = run_simulate(tmp_path, "a.csv")
        b = run_simulate(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = run_simulate(tmp_path, "a.csv", seed=5)
        b = run_simulate(tmp_path, "b.csv", seed=6)
        assert a.read_bytes() != b.read_bytes()

    def test_sidecar_written_with_metadata(self, tmp_path):
        out = run_simulate(tmp_path)
        side = json.loads((tmp_path / "pat.csv.json").read_text())
        assert side["lower"] == [-50.0]
        assert side["metadata"]["seed"] == 5

    def test_invalid_alpha_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--alpha", "1.2", "--lambda", "0.4",
                     "--mu0", "uniform:1", "--window=-50:50",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_labels_column(self, tmp_path):
        out = run_simulate(tmp_path, extra=("--labels",))
        header = out.read_text().splitlines()[0]
        assert header == "x,cluster"


class TestFit:
    def test_void_json_contract(self, tmp_path):
        pat = run_simulate(tmp_path)
        out = tmp_path / "fit.json"
        code = main(["fit", "--in", str(pat), "--method", "void",
                     "--mu0", "uniform:1", "--out", str(out)])
        assert code in (EXIT_OK, EXIT_NUMERIC)
        blob = json.loads(out.read_text())
        for key in ("alpha_hat", "lambda_hat", "objective_value", "method",
                    "n_iterations", "converged"):
            assert key in blob
        assert 0 < blob["alpha_hat"] < 1

    def test_void_thinned_uses_sidecar_window(self, tmp_path):
        pat = run_simulate(tmp_path)
        code = main(["fit", "--in", str(pat), "--method", "void-thinned",
                     "--mu0", "uniform:1", "--p", "0.5:1.0:0.25"])
        assert code in (EXIT_OK, EXIT_NUMERIC)

    def test_cluster_sizes_singletons(self, tmp_path, capsys):
        pat = tmp_path / "singles.csv"
        pat.write_text("x,cluster\n" +
                       "".join("%d,c%d\n" % (i, i) for i in range(20)))
        out = tmp_path / "cs.json"
        code = main(["fit", "--in", str(pat), "--window=-5:30",
                     "--method", "cluster-sizes", "--out", str(out)])
        assert code == EXIT_OK
        blob = json.loads(out.read_text())
        assert blob["alpha_hat"] == 1.0
        assert blob["n_clusters"] == 20

    def test_missing_window_and_sidecar(self, tmp_path):
        pat = tmp_path / "orphan.csv"
        pat.write_text("x\n0\n1\n")
        code = main(["fit", "--in", str(pat), "--method", "void",
                     "--mu0", "uniform:1"])
        assert code == EXIT_USAGE

    def test_missing_mu0(self, tmp_path):
        pat = run_simulate(tmp_path)
        code = main(["fit", "--in", str(pat), "--method", "void"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("method, option, text", [
        ("pgf", "--z", "0.1:0.9:0"),
        ("void-thinned", "--p", "0.3:1.0:0"),
        ("pgf", "--z", "0.9:0.1:0.1"),
        ("pgf", "--z", "0.1:0.9:-0.1"),
        ("pgf", "--z", "0:inf:1"),
        ("pgf", "--z", "0.1:0.9:inf"),
        ("void-thinned", "--p", "nan:1.0:0.1"),
    ])
    def test_bad_range_is_usage_error(self, tmp_path, capsys, method, option,
                                      text):
        pat = run_simulate(tmp_path)
        code = main(["fit", "--in", str(pat), "--method", method,
                     "--mu0", "uniform:1", "%s=%s" % (option, text)])
        assert code == EXIT_USAGE
        assert "step > 0 and hi >= lo" in capsys.readouterr().err

    def test_degenerate_data_numeric_exit(self, tmp_path, capsys):
        # One test point on the only pattern point: no positive radius left.
        pat = tmp_path / "single.csv"
        pat.write_text("x\n0\n")
        code = main(["fit", "--in", str(pat), "--window=-5:5",
                     "--method", "void", "--mu0", "uniform:1",
                     "--test-points", "grid:1"])
        assert code == EXIT_NUMERIC
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("x,cluster\n0,a\n1,%s\n" % ("a" * 200_000), 3),
        ("x,%s\n0\n" % ("c" * 200_000), 1),
    ])
    def test_field_over_csv_limit_is_parse_error(self, tmp_path, capsys, text,
                                                 line):
        # csv's field size limit is 131,072 characters.
        pat = tmp_path / "long.csv"
        pat.write_text(text)
        code = main(["fit", "--in", str(pat), "--window=-5:5",
                     "--method", "cluster-sizes"])
        assert code == EXIT_USAGE
        assert "error: line %d: field larger than field limit" % line \
            in capsys.readouterr().err

    def test_pgf_with_every_ball_empty_numeric_exit(self, tmp_path, capsys):
        # One point in a corner leaves all 400 unit balls empty: g(z) = 1.
        pat = tmp_path / "corner.csv"
        pat.write_text("x,y\n-24,-24\n")
        code = main(["fit", "--in", str(pat), "--window=-25:25,-25:25",
                     "--method", "pgf", "--mu0", "gauss:2:1"])
        assert code == EXIT_NUMERIC
        assert "numerical error" in capsys.readouterr().err

    def test_pgf_on_empty_pattern_numeric_exit(self, tmp_path, capsys):
        pat = tmp_path / "empty.csv"
        pat.write_text("x,y\n")
        code = main(["fit", "--in", str(pat), "--window=-25:25,-25:25",
                     "--method", "pgf", "--mu0", "gauss:2:1"])
        assert code == EXIT_NUMERIC
        assert "need at least 2 points" in capsys.readouterr().err


class TestGcurve:
    def test_writes_empirical_and_analytic_csv(self, tmp_path):
        pat = run_simulate(tmp_path)
        out = tmp_path / "g.csv"
        code = main(["gcurve", "--in", str(pat), "--out", str(out),
                     "--mu0", "uniform:1", "--alpha", "0.6",
                     "--lambda", "0.4"])
        assert code == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[0] == "r,G"
        vals = np.array([row.split(",") for row in rows[1:]], dtype=float)
        assert np.all(np.diff(vals[:, 0]) > 0)
        assert np.all((vals[:, 1] >= 0) & (vals[:, 1] <= 1))
        analytic = (tmp_path / "g.csv.analytic.csv").read_text().splitlines()
        assert analytic[0] == "r,G"
        assert len(analytic) == len(rows)


@pytest.mark.parametrize("command", ["fit", "gcurve"])
@pytest.mark.parametrize("spec", ["grid:0", "random:0", "grid:-3"])
def test_fewer_than_one_test_point_is_usage_error(tmp_path, capsys, command,
                                                  spec):
    pat = run_simulate(tmp_path)
    out = tmp_path / "out"
    extra = ["--method", "void"] if command == "fit" else []
    code = main([command, "--in", str(pat), "--mu0", "uniform:1",
                 "--test-points", spec, "--out", str(out), *extra])
    assert code == EXIT_USAGE
    assert "needs N >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, mu0", [
    (["fit", "--method", "pgf"], "gauss:3:1"),
    (["fit", "--method", "pgf"], "uniform:1"),
    (["fit", "--method", "void"], "uniform:1"),
    (["gcurve", "--alpha", "0.6", "--lambda", "0.4"], "gauss:3:1"),
])
def test_mu0_of_other_dimension_is_usage_error(tmp_path, capsys, command,
                                                mu0):
    pat = simulate_gauss(tmp_path)
    out = tmp_path / "out"
    code = main([command[0], "--in", str(pat), "--mu0", mu0,
                 "--out", str(out), *command[1:]])
    assert code == EXIT_USAGE
    assert "mu0 dimension does not match" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["fit", "--method", "pgf", "--mu0", "gauss:2:nan"],
    ["fit", "--method", "pgf", "--mu0", "gauss:2:inf"],
    ["simulate", "--alpha", "0.5", "--lambda", "0.1", "--mu0", "uniform:nan",
     "--window=-10:10"],
    ["simulate", "--alpha", "0.5", "--lambda", "inf", "--mu0", "uniform:1",
     "--window=-10:10"],
])
def test_non_finite_parameter_is_usage_error(tmp_path, capsys, command):
    pat = simulate_gauss(tmp_path)
    out = tmp_path / "out"
    source = ["--in", str(pat)] if command[0] == "fit" else []
    code = main([*command, *source, "--out", str(out)])
    assert code == EXIT_USAGE
    assert "must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_coverage_is_numeric_error(tmp_path, capsys):
    # A halfwidth near the float maximum overflows the uniform closed form:
    # the fit stops before it writes anything, and with no RuntimeWarning.
    pat = run_simulate(tmp_path)
    out = tmp_path / "fit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--in", str(pat), "--method", "pgf", "--mu0",
                     "uniform:1e308", "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert "coverage integral is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_large_radius_ratio_fit(tmp_path):
    # r/sigma = 5e4 takes the far-field ball mass; scipy's chndtr, which it
    # replaced, gave a NaN objective here.
    pat = simulate_gauss(tmp_path)
    out = tmp_path / "fit.json"
    code = main(["fit", "--in", str(pat), "--method", "pgf", "--mu0",
                 "gauss:2:1e-4", "--radius", "5", "--out", str(out)])
    assert code == EXIT_OK

    def reject(token):
        raise ValueError("non-finite number %s" % token)
    fit = json.loads(out.read_text(), parse_constant=reject)
    assert fit["converged"]


class TestReplicate:
    def test_fig3_small_run(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        code = main(["replicate", "fig3", "--reps", "2", "--seed", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[0] == "p,relative_error"
        assert len(rows) > 5
        assert "relative_error" in capsys.readouterr().out

    @pytest.mark.parametrize("which", ["table1", "fig3"])
    def test_zero_replicates_is_usage_error(self, tmp_path, capsys, which):
        out = tmp_path / "out"
        code = main(["replicate", which, "--reps", "0", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "replicates must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_table1_small_run(self, tmp_path, capsys):
        code = main(["replicate", "table1", "--reps", "1", "--seed", "0",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        # One replicate has no standard error: null in strict JSON, an empty
        # CSV cell and "n/a" in the summary.
        assert "se=(n/a, n/a)" in capsys.readouterr().out

        def reject(name):
            raise ValueError("non-finite JSON constant %s" % name)

        report = json.loads((tmp_path / "report.json").read_text(),
                            parse_constant=reject)
        assert len(report["rows"]) == 4
        for row in report["rows"]:
            assert row["alpha_se"] is None and row["lambda_se"] is None
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["alpha_se"], r["lambda_se"]) for r in rows] == [("", "")] * 4


def _run_fresh(script, *args):
    """Run `script` in a fresh interpreter with tasproc on its path; return
    the JSON values it prints one per line, skipping the CLI's own lines."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tasproc.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()
            if not line.startswith(("wrote", "alpha_hat"))]


_LOADED = "\n".join([
    "import json, sys",
    "def loaded():",
    "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'",
    "                  and m.count('.') < 2)",
])


def test_gaussian_pgf_fit_loads_no_scipy(tmp_path):
    # Nor any numpy.ma or numpy.random module beyond those a bare
    # `import numpy` loads (numpy 1.x loads both eagerly).
    pat = simulate_gauss(tmp_path)
    script = "\n".join([
        _LOADED,
        "import numpy",
        "base = set(sys.modules)",
        "import tasproc.cli",
        "code = tasproc.cli.main(['fit', '--in', sys.argv[1], '--method', "
        "'pgf', '--mu0', 'gauss:2:1', '--out', sys.argv[1] + '.fit.json'])",
        "extra = sorted(m for m in set(sys.modules) - base",
        "               if m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'random']))",
        "print(json.dumps([code, loaded(), extra]))",
    ])
    assert _run_fresh(script, pat) == [[EXIT_OK, [], []]]


def test_simulate_and_void_fit_load_only_the_scipy_they_use(tmp_path):
    # A cold import loads no scipy module at all.  A simulation loads neither
    # scipy.stats, scipy.integrate, scipy.optimize, scipy.spatial nor
    # scipy.linalg; a direct-ls void-thinned fit loads scipy.spatial for its
    # k-NN profile.
    script = "\n".join([
        _LOADED,
        "import tasproc, tasproc.cli",
        "print(json.dumps(loaded()))",
        "code = tasproc.cli.main(['simulate', '--alpha', '0.7', '--lambda', "
        "'0.1', '--mu0', 'gauss:2:1', '--window=-10:10,-10:10', '--seed', "
        "'3', '--out', sys.argv[1]])",
        "print(json.dumps([code, loaded()]))",
        "code = tasproc.cli.main(['fit', '--in', sys.argv[1], '--method', "
        "'void-thinned', '--mu0', 'gauss:2:1', '--p', '0.5:1.0:0.5', "
        "'--test-points', 'grid:50'])",
        "print(json.dumps([code, loaded()]))",
    ])
    imported, (code, simulated), (fit_code, fitted) = _run_fresh(
        script, tmp_path / "pat.csv")
    assert imported == []
    # Older scipy releases import scipy.linalg with scipy.special, which the
    # Sibuya tail of a simulation uses.
    special = subprocess.run(
        [sys.executable, "-c",
         "import sys, scipy.special; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True, check=True).stdout.strip() == "True"
    never = {"scipy.stats", "scipy.integrate", "scipy.optimize"}
    refused = never | {"scipy.spatial"}
    if not (special and "scipy.special" in simulated):
        refused.add("scipy.linalg")
    assert code == EXIT_OK and not refused & set(simulated), simulated
    assert fit_code == EXIT_OK
    assert "scipy.spatial" in fitted and not never & set(fitted), fitted


def test_em_over_work_budget_is_usage_error(tmp_path, capsys):
    pat = tmp_path / "pat.csv"
    pattern = tasproc.PointPattern(
        np.random.default_rng(0).uniform(-10, 10, (1765, 2)),
        Window([-10, -10], [10, 10]))
    with open(pat, "w") as fh:
        tasproc.write_pattern(pattern, fh)
    code = main(["fit", "--in", str(pat), "--window=-10:10,-10:10",
                 "--method", "em-mu0", "--k", "1:50"])
    assert code == EXIT_USAGE
    assert "budget of 4500000" in capsys.readouterr().err
