"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v`; the per-criterion lines are
written straight to the terminal so they appear even under output capture.
The suite is deterministic (fixed seeds throughout) but the replication
criteria simulate thousands of patterns, so the full gate takes a few
minutes on one core.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare, poisson

from tasproc import (
    RandomSource,
    TasParameters,
    UniformInterval,
    Window,
    analytic_contact,
    count_pgf,
    empirical_contact,
    estimate_alpha_from_cluster_sizes,
    fit_pgf_curve,
    fit_void,
    sibuya_pgf,
    sibuya_pmf,
    sibuya_variates,
    simulate_tas,
    thin,
    thinned_contact_analytic,
    thinned_contact_estimate,
)
from tasproc.experiments import (
    FIG3_PARAMS,
    TABLE1_CELLS,
    _fig3_replicate,
    replicate_fig3,
    replicate_table1,
)
from tasproc.model import DistanceProfile


def closed_form_contact(profile, p, radii):
    """(1/n) sum_i (1-p)^{N_i(r)}, with N_i(r) counted directly: the oracle
    of the count histogram behind thinned_contact_estimate."""
    counts = np.sum(profile.distances[:, :, None] <= np.asarray(radii), axis=1)
    return np.mean((1.0 - p) ** counts, axis=0)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    # Let the per-criterion lines through even when pytest captures output.
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num, ok, detail):
    line = "criterion %02d: %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def test_criterion_01_table1_accuracy():
    report = replicate_table1(replicates=50, seed=0)
    details, ok = [], True
    for row in report.rows:
        da = abs(row["alpha_mean"] - row["alpha_true"])
        dl = abs(row["lambda_mean"] / row["lambda_true"] - 1.0)
        ok = ok and da < 0.05 and dl < 0.20
        details.append("%s d_alpha=%.3f d_lambda=%.1f%%"
                       % (row["scenario"], da, 100 * dl))
    assert len(report.rows) == len(TABLE1_CELLS)
    _report(1, ok, "; ".join(details))


def test_criterion_02_estimator_unbiasedness():
    p_grid = (0.3, 0.5, 0.8, 1.0)
    estimates = np.asarray([_fig3_replicate((7, rep, 1.0, p_grid, 400))
                            for rep in range(1000)])
    g_true = float(analytic_contact(FIG3_PARAMS, [1.0]).values[0])
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(estimates.shape[0])
    dev = np.abs(mean - g_true) / se
    ok = bool(np.all(dev < 3.0))
    _report(2, ok, "max |dev|/se = %.2f over p=%s" % (dev.max(), list(p_grid)))


@pytest.mark.filterwarnings("ignore:profile depth")
def test_criterion_03_exact_collapse():
    gen = np.random.default_rng(0)
    identical = True
    max_gap = 0.0
    for _ in range(100):
        dist = np.sort(gen.uniform(0.1, 5.0, (20, 8)), axis=1)
        profile = DistanceProfile(gen.uniform(-1, 1, (20, 2)), dist)
        radii = np.sort(gen.uniform(0.2, 4.5, 9))
        a = empirical_contact(profile, radii)
        b = thinned_contact_estimate(profile, 1.0, radii)
        identical = identical and np.array_equal(a.values, b.values)
        p = gen.uniform(0.4, 1.0)
        c = thinned_contact_estimate(profile, p, radii)
        d = closed_form_contact(profile, p, radii)
        max_gap = max(max_gap, float(np.max(np.abs(c.values - d))))
    ok = identical and max_gap < 1e-12
    _report(3, ok, "p=1 bit-identical=%s, closed-form gap=%.2g"
            % (identical, max_gap))


def test_criterion_04_sibuya_correctness():
    details, ok = [], True
    for i, alpha in enumerate((0.3, 0.6, 0.9)):
        draws = sibuya_variates(alpha, 10 ** 5, RandomSource(40, i))
        counts = np.array([np.sum(draws == n) for n in range(1, 21)]
                          + [np.sum(draws > 20)])
        probs = np.append(sibuya_pmf(alpha, np.arange(1, 21)), 0.0)
        probs[-1] = 1.0 - probs.sum()
        pval = chisquare(counts, probs * draws.size).pvalue
        ok = ok and pval > 0.01
        details.append("alpha=%.1f p=%.3f" % (alpha, pval))
    n = np.arange(1, 2001)
    t = np.linspace(0.05, 0.9, 18)
    series_gap = 0.0
    for alpha in (0.3, 0.6, 0.9):
        series = np.power.outer(t, n) @ sibuya_pmf(alpha, n)
        series_gap = max(series_gap,
                         float(np.max(np.abs(series - sibuya_pgf(alpha, t)))))
    ok = ok and series_gap < 1e-8
    _report(4, ok, "chi2 %s; pgf-series gap=%.2g" % (", ".join(details),
                                                     series_gap))


def _ball_count(pattern, r=3.0):
    return int(np.sum(np.abs(pattern.points[:, 0]) <= r))


def _pooled_two_sample(a, b, min_count=16):
    m = int(max(a.max(), b.max()))
    ca = np.bincount(a, minlength=m + 1)
    cb = np.bincount(b, minlength=m + 1)
    rows_a, rows_b = [], []
    acc_a = acc_b = 0
    for i in range(m + 1):
        acc_a += ca[i]
        acc_b += cb[i]
        if acc_a + acc_b >= min_count:
            rows_a.append(acc_a)
            rows_b.append(acc_b)
            acc_a = acc_b = 0
    if acc_a + acc_b:
        rows_a[-1] += acc_a
        rows_b[-1] += acc_b
    return np.array([rows_a, rows_b])


def test_criterion_05_stability_identity():
    window = Window([-10.0], [10.0])
    details, ok = [], True
    for alpha in (0.6, 0.8):
        for p in (0.3, 0.7):
            params = TasParameters(alpha, 0.5, UniformInterval(1.0))
            q1, q2 = p ** (1 / alpha), (1 - p) ** (1 / alpha)
            direct, mixed = [], []
            for rep in range(1000):
                r0 = RandomSource(100, 3 * rep)
                r1 = RandomSource(101, 3 * rep + 1)
                r2 = RandomSource(102, 3 * rep + 2)
                direct.append(_ball_count(
                    simulate_tas(params, window, r0, n_max=10 ** 6)))
                t1 = thin(simulate_tas(params, window, r1, n_max=10 ** 6),
                          q1, r1)
                t2 = thin(simulate_tas(params, window, r2, n_max=10 ** 6),
                          q2, r2)
                mixed.append(_ball_count(t1) + _ball_count(t2))
            table = _pooled_two_sample(np.array(direct), np.array(mixed))
            pval = chi2_contingency(table).pvalue
            ok = ok and pval > 0.01
            details.append("(%.1f, %.1f) p=%.3f" % (alpha, p, pval))
    _report(5, ok, "; ".join(details))


def test_criterion_06_alpha_one_poisson():
    params = TasParameters(1.0, 0.2, UniformInterval(1.0))
    window = Window([-500.0], [500.0])
    counts = []
    for rep in range(5):
        pattern = simulate_tas(params, window, RandomSource(60, rep))
        h, _ = np.histogram(pattern.points[:, 0], np.arange(-495, 496, 5.0))
        counts.extend(h.tolist())
    counts = np.array(counts)
    obs = np.bincount(counts)
    exp = poisson.pmf(np.arange(obs.size), 0.2 * 5) * counts.size
    while exp[-1] < 5:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    exp *= obs.sum() / exp.sum()
    pval = chisquare(obs, exp).pvalue
    _report(6, pval > 0.01, "Poisson count-law chi2 p=%.3f (n=%d)"
            % (pval, counts.size))


def test_criterion_07_noise_free_inversion():
    mu0 = UniformInterval(1.0)
    params = TasParameters(0.6, 0.02, mu0)
    radii = np.linspace(0.2, 30, 40)
    curves = {p: thinned_contact_analytic(params, p, radii)
              for p in (0.3, 0.5, 1.0)}
    errs = []
    for objective in ("direct-ls", "log-profiled-ls"):
        fit = fit_void(curves, mu0, objective=objective)
        errs.append(abs(fit.alpha_hat - 0.6))
        errs.append(abs(fit.lambda_hat - 0.02))
    z = np.arange(0.1, 0.95, 0.1)
    params2 = TasParameters(0.7, 0.1, mu0)
    fit = fit_pgf_curve(z, count_pgf(params2, 1.0, z), mu0, 1.0)
    errs.append(abs(fit.alpha_hat - 0.7))
    errs.append(abs(fit.lambda_hat - 0.1))
    ok = max(errs) < 1e-6
    _report(7, ok, "max parameter error %.2g" % max(errs))


def test_criterion_08_cluster_size_estimator():
    exact = estimate_alpha_from_cluster_sizes([1] * 50).alpha == 1.0
    draws = sibuya_variates(0.6, 10 ** 4, RandomSource(30))
    est = estimate_alpha_from_cluster_sizes(draws).raw
    gen = np.random.default_rng(0)
    boot = np.array([estimate_alpha_from_cluster_sizes(
        gen.choice(draws, draws.size)).raw for _ in range(200)])
    band = 3.0 * boot.std(ddof=1)
    err = abs(est - 0.6)
    ok = exact and err < 0.02 and err < band
    _report(8, ok, "singleton exact=%s, |err|=%.4f (0.02 cap, 3-sigma "
            "band %.4f)" % (exact, err, band))


def test_criterion_09_error_grows_under_heavy_thinning():
    p_grid, rel_err = replicate_fig3(replicates=100, seed=11)
    low = p_grid <= 0.2
    trend = np.diff(rel_err[low])
    ok = bool(np.all(trend < 0)) and rel_err[low][0] > rel_err[~low].min()
    _report(9, ok, "error at p=%s is %s"
            % (np.round(p_grid[low], 2).tolist(),
               np.round(rel_err[low], 3).tolist()))


def test_criterion_10_cli_determinism(tmp_path):
    def run(args):
        return subprocess.run([sys.executable, "-m", "tasproc.cli"] + args,
                              capture_output=True, text=True, check=True)

    outputs = []
    for tag in ("a", "b"):
        pat = tmp_path / ("pat_%s.csv" % tag)
        fit = tmp_path / ("fit_%s.json" % tag)
        curve = tmp_path / ("g_%s.csv" % tag)
        fig3 = tmp_path / ("fig3_%s.csv" % tag)
        run(["simulate", "--alpha", "0.6", "--lambda", "0.4",
             "--mu0", "uniform:1", "--window=-50:50", "--seed", "5",
             "--out", str(pat)])
        run(["fit", "--in", str(pat), "--method", "void-thinned",
             "--mu0", "uniform:1", "--p", "0.5:1.0:0.25",
             "--out", str(fit)])
        run(["gcurve", "--in", str(pat), "--out", str(curve)])
        run(["replicate", "fig3", "--reps", "2", "--seed", "1",
             "--out", str(fig3)])
        outputs.append(tuple(f.read_bytes()
                             for f in (pat, fit, curve, fig3)))
    ok = outputs[0] == outputs[1]
    _report(10, ok, "simulate/fit/gcurve/replicate reruns byte-identical")
