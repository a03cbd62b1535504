"""Replication harnesses: the 2x2 accuracy table for the 1-D uniform model
and the error-vs-thinning curve for the 2-D Gaussian model.

Every replicate owns RandomSource(seed + scenario index, replicate index),
so any single replicate can be re-run in isolation and whole runs are
byte-reproducible from the master seed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .analytics import analytic_contact
# cKDTree is unused here but stays importable: perfbench/tracing.py hooks
# tasproc.experiments.cKDTree, and its --quick check fails on a missing hook.
from .estimation import (_ball_counts, ball_count_pgf, cKDTree,  # noqa: F401
                         distance_profile, fit_void, grid_test_points)
from .model import (IsotropicGaussian, TasParameters, UniformInterval,
                    ValidationError, Window)
from .sampling import RandomSource, simulate_tas

__all__ = [
    "ReplicationReport",
    "replicate_table1",
    "replicate_fig3",
    "TABLE1_CELLS",
]

TABLE1_CELLS = [(0.6, 0.02), (0.6, 0.4), (0.8, 0.02), (0.8, 0.4)]
TABLE1_WINDOW = Window([-500.0], [500.0])
DEFAULT_P_VALUES = np.round(np.arange(0.3, 1.01, 0.1), 10)
HARNESS_N_MAX = 10_000_000
_TABLE1_ESTIMATOR = "void-thinned"
_TABLE1_N_TEST = 400
_TABLE1_DEPTH = 60


@dataclass
class ReplicationReport:
    rows: list
    metadata: dict

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump({"rows": self.rows, "metadata": self.metadata}, fh, indent=2)
            fh.write("\n")
        with open(os.path.join(out_dir, "report.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scenario", "estimator", "alpha_true", "lambda_true",
                             "alpha_mean", "alpha_se", "lambda_mean", "lambda_se"])
            for row in self.rows:
                writer.writerow([row["scenario"], row["estimator"],
                                 row["alpha_true"], row["lambda_true"],
                                 row["alpha_mean"], row["alpha_se"],
                                 row["lambda_mean"], row["lambda_se"]])

    def summary(self):
        lines = []
        for row in self.rows:
            se = ["n/a" if row[key] is None else "%.4f" % row[key]
                  for key in ("alpha_se", "lambda_se")]
            lines.append(
                "%-16s true=(%.3g, %.3g)  mean=(%.4f, %.4f)  se=(%s, %s)"
                % (row["scenario"], row["alpha_true"], row["lambda_true"],
                   row["alpha_mean"], row["lambda_mean"], *se)
            )
        return "\n".join(lines)


def _void_replicate(args):
    """One simulate-and-fit replicate; top-level so it can cross processes."""
    alpha, lam, seed, stream = args
    params = TasParameters(alpha, lam, UniformInterval(1.0))
    rng = RandomSource(seed, stream)
    pattern = simulate_tas(params, TABLE1_WINDOW, rng, n_max=HARNESS_N_MAX)
    test_points = grid_test_points(TABLE1_WINDOW, _TABLE1_N_TEST)
    profile = distance_profile(pattern, test_points, depth=_TABLE1_DEPTH)
    fit = fit_void(profile, params.mu0, p_values=list(DEFAULT_P_VALUES))
    return {
        "stream": stream,
        "alpha_hat": fit.alpha_hat,
        "lambda_hat": fit.lambda_hat,
        "objective_value": fit.objective_value,
        "converged": fit.converged,
        "n_points": len(pattern),
    }


def _run_map(worker, jobs_args, jobs):
    """[worker(a) for a in jobs_args] on up to `jobs` processes.  A pool
    starts all its workers at once, so it gets no more than there are
    replicates or CPUs; every replicate owns its stream, so the output does
    not depend on the count."""
    if jobs < 1:
        raise ValidationError("jobs must be >= 1")
    workers = min(jobs, len(jobs_args), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, jobs_args))
    return [worker(a) for a in jobs_args]


def _check_replicates(replicates):
    if replicates < 1:
        raise ValidationError("replicates must be >= 1")


def _standard_error(values):
    """Standard error of the mean; None (JSON null) below 2 replicates."""
    if len(values) < 2:
        return None
    return float(values.std(ddof=1) / np.sqrt(len(values)))


def replicate_table1(replicates=50, seed=0, jobs=1, out_dir=None,
                     cells=TABLE1_CELLS):
    """Mean (alpha_hat, lambda_hat) over replicates for each (alpha, lambda)
    cell of the 1-D uniform-cluster model on W = [-500, 500], each fitted by
    direct least squares to thinned void curves on DEFAULT_P_VALUES."""
    _check_replicates(replicates)
    rows = []
    for scenario_index, (alpha, lam) in enumerate(cells):
        scenario = "a%g_l%g" % (alpha, lam)
        args = [(alpha, lam, seed + scenario_index, rep)
                for rep in range(replicates)]
        fits = _run_map(_void_replicate, args, jobs)
        a = np.array([f["alpha_hat"] for f in fits])
        l = np.array([f["lambda_hat"] for f in fits])
        row = {
            "scenario": scenario,
            "estimator": _TABLE1_ESTIMATOR,
            "alpha_true": alpha,
            "lambda_true": lam,
            "alpha_mean": float(a.mean()),
            "alpha_se": _standard_error(a),
            "alpha_median": float(np.median(a)),
            "lambda_mean": float(l.mean()),
            "lambda_se": _standard_error(l),
            "lambda_median": float(np.median(l)),
            "replicates": fits,
        }
        rows.append(row)
        if out_dir is not None:
            scen_dir = os.path.join(out_dir, scenario)
            os.makedirs(scen_dir, exist_ok=True)
            for f in fits:
                path = os.path.join(scen_dir, "fit_%04d.json" % f["stream"])
                with open(path, "w") as fh:
                    json.dump(f, fh, indent=2)
                    fh.write("\n")
    report = ReplicationReport(rows, {
        "seed": seed, "replicates": replicates, "estimator": _TABLE1_ESTIMATOR,
        "p_values": list(DEFAULT_P_VALUES),
        "window": TABLE1_WINDOW.to_json_dict(),
    })
    if out_dir is not None:
        report.write(out_dir)
    return report


FIG3_PARAMS = TasParameters(0.7, 0.1, IsotropicGaussian(2, 1.0))
FIG3_WINDOW = Window([-25.0, -25.0], [25.0, 25.0])
FIG3_P_GRID = np.round(np.concatenate([[0.02, 0.05, 0.1, 0.15],
                                       np.arange(0.2, 1.01, 0.1)]), 10)
_FIG3_RADIUS = 1.0
_FIG3_N_TEST = 400


def _fig3_replicate(args):
    seed, stream, radius, p_grid, n_test = args
    rng = RandomSource(seed, stream)
    pattern = simulate_tas(FIG3_PARAMS, FIG3_WINDOW, rng, n_max=HARNESS_N_MAX)
    # Exact counts in balls around a grid on the window eroded by the radius,
    # so every ball is fully observed, give the depth-free closed form
    # (1/n) sum (1-p)^N_i.
    counts = _ball_counts(pattern.points, FIG3_WINDOW.erode(radius), n_test,
                          radius)
    alpha = FIG3_PARAMS.alpha
    g_thinned = ball_count_pgf(counts, [1.0 - p for p in p_grid])
    return [float(g ** (p ** -alpha)) for g, p in zip(g_thinned, p_grid)]


def replicate_fig3(replicates=200, seed=0, jobs=1, out_path=None):
    """Mean relative error of the thinning-based estimate of G(1) as a
    function of the retention probability p on FIG3_P_GRID.

    Each replicate converts the thinned void estimate back to the unthinned
    tail via G = G_p^(p^-alpha) at the true alpha; p=1 is the plain empirical
    contact estimator.  Returns (p_grid, relative_errors).
    """
    _check_replicates(replicates)
    g_true = float(analytic_contact(FIG3_PARAMS, [_FIG3_RADIUS]).values[0])
    args = [(seed, rep, _FIG3_RADIUS, tuple(FIG3_P_GRID), _FIG3_N_TEST)
            for rep in range(replicates)]
    estimates = np.asarray(_run_map(_fig3_replicate, args, jobs))
    rel_err = np.mean(np.abs(estimates - g_true) / g_true, axis=0)
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p", "relative_error"])
            for p, e in zip(FIG3_P_GRID, rel_err):
                writer.writerow(["%.12g" % p, "%.12g" % e])
    return FIG3_P_GRID, rel_err
