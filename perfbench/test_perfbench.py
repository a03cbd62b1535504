"""Tests of the benchmark's output checks, its tracing and its quick mode.

    python3 -m pytest perfbench -q
"""

import copy
import dataclasses
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.bootstrap()

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


def run_once(cls, workdir):
    work = cls(1, workdir)
    inp = work.inputs(0)
    return work, inp, work.op(inp)


# ---------------------------------------------------------------------------
# Checkers reject corrupted results

@pytest.fixture(scope="module")
def table1(workdir):
    return run_once(workloads.Table1, workdir)


def test_table1_check_passes(table1):
    work, inp, out = table1
    assert work.check(inp, out) is None


@pytest.mark.parametrize("field, value", [
    ("alpha_hat", float("nan")),
    ("lambda_hat", float("inf")),
    ("alpha_hat", 1.5),
    ("converged", False),
])
def test_table1_check_rejects(table1, field, value):
    work, inp, out = table1
    bad = copy.deepcopy(out)
    bad.rows[0]["replicates"][0][field] = value
    assert work.check(inp, bad) is not None


def test_table1_check_rejects_worse_than_truth(table1):
    work, inp, out = table1
    bad = copy.deepcopy(out)
    rep = bad.rows[0]["replicates"][0]
    rep["lambda_hat"] *= 3.0
    assert "true parameters" in work.check(inp, bad)


@pytest.fixture(scope="module")
def gauss_void(workdir):
    return run_once(workloads.GaussVoid, workdir)


def test_gauss_void_check(gauss_void):
    work, inp, (profile, fit) = gauss_void
    assert work.check(inp, (profile, fit)) is None
    nan_fit = dataclasses.replace(fit, alpha_hat=float("nan"))
    assert work.check(inp, (profile, nan_fit)) is not None
    off_fit = dataclasses.replace(fit, lambda_hat=3.0 * fit.lambda_hat)
    assert "true parameters" in work.check(inp, (profile, off_fit))


@pytest.fixture(scope="module")
def fig3(workdir):
    return run_once(workloads.Fig3, workdir)


def test_fig3_check(fig3):
    work, inp, out = fig3
    assert work.check(inp, out) is None
    perturbed = list(out)
    perturbed[-1] += 2.0 / work.n_test          # the p = 1 value
    assert "p=1" in work.check(inp, perturbed)
    above_one = list(out)
    above_one[0] = 1.5
    assert "[0, 1]" in work.check(inp, above_one)


@pytest.fixture(scope="module")
def cli_pgf(workdir):
    return run_once(workloads.CliPgf, workdir)


def test_cli_pgf_check(cli_pgf):
    work, inp, (code, stdout, output) = cli_pgf
    assert work.check(inp, (code, stdout, output)) is None
    assert "exit code" in work.check(inp, (4, stdout, output))
    payload = json.loads(output)
    payload["alpha_hat"] = float("nan")
    assert "strict JSON" in work.check(inp, (0, stdout, json.dumps(payload)))
    payload["alpha_hat"] = json.loads(output)["alpha_hat"] + 1e-9
    assert "differs" in work.check(inp, (0, stdout, json.dumps(payload)))


class CorruptFig3(workloads.Fig3):
    def op(self, inp):
        out = super().op(inp)
        out[-1] = 2.0
        return out


class RaisingFig3(workloads.Fig3):
    def op(self, inp):
        raise ArithmeticError("no convergence")


@pytest.mark.parametrize("cls", [CorruptFig3, RaisingFig3])
def test_failed_checks_count_as_failed_ops(cls):
    result = run.timed_run(cls(1, None), seconds=0.05)
    assert result["failed"] == result["attempted"] >= 1
    assert result["throughput_ops_s"] == 0.0
    assert run.traced_run(cls(1, None), 2)["failed"] == 2


# ---------------------------------------------------------------------------
# Tracing

def test_traced_outputs_equal_untraced_and_counts_repeat():
    first = run.traced_run(workloads.Fig3(3, None), 4)
    second = run.traced_run(workloads.Fig3(3, None), 4)
    assert first["failed"] == 0 and first["unhooked"] == []
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        if unit == "count":
            assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["sampling.points"]["value"] > 0


def test_missing_hook_is_unhooked_not_zero(monkeypatch):
    import tasproc.estimation
    monkeypatch.delattr(tasproc.estimation, "thinned_contact_estimate")
    tracer = tracing.Tracer()
    tracing.install(tracer)()
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert metrics["estimation.curves.calls"]["value"] == "unhooked"
    assert metrics["estimation.curves.busy_s"]["value"] == "unhooked"
    assert metrics["analytics.coverage.calls"]["value"] == 0


def test_layer_times_self_and_busy():
    spans = [
        ["fit", 0.0, 10.0, None],
        ["coverage", 1.0, 4.0, 0],
        ["fit", 5.0, 9.0, 0],        # nested fit: counted once in busy
        ["coverage", 6.0, 8.0, 2],
    ]
    busy, self_time = tracing.layer_times(spans)
    assert busy["fit"] == 10.0 and busy["coverage"] == 5.0
    assert self_time["fit"] == (10.0 - 3.0 - 4.0) + (4.0 - 2.0)
    assert self_time["coverage"] == 5.0


def test_tail_quantile_keeps_ten_ops_beyond():
    assert run.tail_quantile(100) == pytest.approx(0.9)
    assert run.tail_quantile(40) == pytest.approx(0.75)
    assert run.tail_quantile(12) == 0.5


def test_strict_json_rejects_non_finite():
    with pytest.raises(ValueError):
        workloads._strict_json('{"a": NaN}')
    assert workloads._strict_json('{"a": 1.5}') == {"a": 1.5}
    assert math.isfinite(workloads._strict_json("2.0"))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    gated = set(run.UNITS) - set(run.UNGATED)
    assert gated == {m["name"] for m in declared["end_to_end"]}
    traced = set(tracing.LAYER_METRICS) | {"process.peak_rss_mb"}
    assert traced == {m["name"] for m in declared["per_layer"]}


def test_quick_mode_passes():
    assert run.main(["--quick"]) == 0
