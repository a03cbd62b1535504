"""The benchmark's workloads: inputs from a seed, the op, and its check.

Each workload is a closed loop with one client: one process, one op at a
time.  `inputs(i)` gives op i's input, derived only from the workload seed and
the op index; `op` calls into tasproc; `check` verifies the op's output
outside the timed region and returns None when it passes or the reason it
failed; `fingerprint` reduces the output to bytes that must not change when
the run is traced.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

import tasproc.cli
import tasproc.estimation
import tasproc.experiments
from tasproc.analytics import thinned_contact_analytic
from tasproc.model import (IsotropicGaussian, TasParameters, UniformInterval,
                           read_pattern, read_window_json, write_pattern,
                           write_window_json)
from tasproc.sampling import RandomSource, simulate_tas

HERE = os.path.dirname(os.path.abspath(__file__))
ALPHA_BOUNDS = (0.01, 0.999)   # fit_void's and fit_count_pgf's default search box
SLACK = 1e-9                   # relative slack of the objective comparison


def derive_seed(seed, index):
    """A 32-bit seed for op `index` of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _json_bytes(obj):
    return json.dumps(obj, sort_keys=True).encode()


def _estimates_problem(alpha, lam, converged):
    if not converged:
        return "fit did not converge"
    if not (math.isfinite(alpha) and math.isfinite(lam)):
        return "non-finite estimate (%r, %r)" % (alpha, lam)
    if not ALPHA_BOUNDS[0] <= alpha <= ALPHA_BOUNDS[1] or lam < 0.0:
        return "estimate (%r, %r) outside the search bounds" % (alpha, lam)
    return None


def _sse(resid):
    return float(resid @ resid)


class Workload:
    trace_ops = 8   # ops in a traced run; fixed, so counts repeat per seed

    def traced_op(self, inp, tracer):
        """The op, run while `tracer`'s hooks are installed."""
        return self.op(inp)


# ---------------------------------------------------------------------------

class Table1(Workload):
    """One Table-1 replicate per op; cells rotate round-robin."""

    name = "table1"

    def __init__(self, seed, workdir):
        self.seed = seed

    def inputs(self, i):
        cells = tasproc.experiments.TABLE1_CELLS
        return derive_seed(self.seed, i), cells[i % len(cells)]

    def op(self, inp):
        seed, cell = inp
        return tasproc.experiments.replicate_table1(replicates=1, seed=seed,
                                                    cells=[cell])

    def fingerprint(self, out):
        return _json_bytes([out.rows, out.metadata])

    def check(self, inp, out):
        seed, (alpha, lam) = inp
        rep = out.rows[0]["replicates"][0]
        problem = _estimates_problem(rep["alpha_hat"], rep["lambda_hat"],
                                     rep["converged"])
        if problem:
            return problem
        # Rebuild the replicate's curves (cell index 0, stream 0) and compare
        # the direct-ls objective at the estimate and at the truth.
        ex = tasproc.experiments
        mu0 = UniformInterval(1.0)
        pattern = simulate_tas(TasParameters(alpha, lam, mu0), ex.TABLE1_WINDOW,
                               RandomSource(seed, 0), n_max=ex.HARNESS_N_MAX)
        profile = tasproc.estimation.distance_profile(
            pattern, tasproc.estimation.grid_test_points(ex.TABLE1_WINDOW, 400),
            depth=60)
        radii = np.unique(profile.nearest)
        radii = radii[radii > 0]
        fitted = TasParameters(rep["alpha_hat"], rep["lambda_hat"], mu0)
        truth = TasParameters(alpha, lam, mu0)
        sse_fit = sse_true = 0.0
        for p in ex.DEFAULT_P_VALUES:
            g = tasproc.estimation.thinned_contact_estimate(profile, p, radii).values
            sse_fit += _sse(g - thinned_contact_analytic(fitted, p, radii).values)
            sse_true += _sse(g - thinned_contact_analytic(truth, p, radii).values)
        if not sse_fit <= sse_true * (1.0 + SLACK):
            return "fit SSE %r exceeds SSE %r at the true parameters" % (
                sse_fit, sse_true)
        return None


class Fig3(Workload):
    """One Fig-3 replicate per op: replicate i of the harness at seed s."""

    name = "fig3"
    trace_ops = 50
    radius = 1.0
    n_test = 400

    def __init__(self, seed, workdir):
        self.seed = seed

    def inputs(self, i):
        return (self.seed, i, self.radius, tasproc.experiments.FIG3_P_GRID,
                self.n_test)

    def op(self, inp):
        return tasproc.experiments._fig3_replicate(inp)

    def fingerprint(self, out):
        return _json_bytes(out)

    def check(self, inp, out):
        seed, stream, radius, p_grid, n_test = inp
        if len(out) != len(p_grid):
            return "expected %d values, got %d" % (len(p_grid), len(out))
        if not all(0.0 <= v <= 1.0 for v in out):
            return "value outside [0, 1]: %r" % (out,)
        ex = tasproc.experiments
        pattern = simulate_tas(ex.FIG3_PARAMS, ex.FIG3_WINDOW,
                               RandomSource(seed, stream), n_max=ex.HARNESS_N_MAX)
        test_points = tasproc.estimation.grid_test_points(
            ex.FIG3_WINDOW.erode(radius), n_test)
        profile = tasproc.estimation.distance_profile(pattern, test_points,
                                                      depth=1)
        g1 = tasproc.estimation.empirical_contact(profile, [radius]).values[0]
        p_one = list(p_grid).index(1.0)
        if not abs(out[p_one] - g1) <= 1.0 / n_test:
            return "p=1 value %r differs from empirical_contact %r" % (
                out[p_one], g1)
        return None


class GaussVoid(Workload):
    """Profile plus profiled least-squares fit on a cycle of 2-D Gaussian
    patterns simulated in set-up."""

    name = "gauss_void"
    n_patterns = 8
    mu0 = IsotropicGaussian(2, 1.0)
    p_values = (0.5, 0.75, 1.0)
    radii = (0.5, 1.0, 1.5, 2.0)

    def __init__(self, seed, workdir):
        ex = tasproc.experiments
        self.patterns = [simulate_tas(ex.FIG3_PARAMS, ex.FIG3_WINDOW,
                                      RandomSource(seed, k),
                                      n_max=ex.HARNESS_N_MAX)
                         for k in range(self.n_patterns)]

    def inputs(self, i):
        return self.patterns[i % self.n_patterns]

    def op(self, pattern):
        est = tasproc.estimation
        window = tasproc.experiments.FIG3_WINDOW
        profile = est.distance_profile(
            pattern, est.grid_test_points(window.erode(2.0), 400), depth=60)
        fit = est.fit_void(profile, self.mu0, p_values=self.p_values,
                           radii=self.radii, objective="log-profiled-ls")
        return profile, fit

    def fingerprint(self, out):
        profile, fit = out
        return _json_bytes(fit.to_json_dict()) + profile.distances.tobytes()

    def check(self, pattern, out):
        profile, fit = out
        problem = _estimates_problem(fit.alpha_hat, fit.lambda_hat,
                                     fit.converged)
        if problem:
            return problem
        # log-profiled-ls objective: squared log residuals where G_hat > 0.
        fitted = TasParameters(fit.alpha_hat, fit.lambda_hat, self.mu0)
        truth = tasproc.experiments.FIG3_PARAMS
        sse_fit = sse_true = 0.0
        for p in self.p_values:
            g = tasproc.estimation.thinned_contact_estimate(profile, p,
                                                            self.radii).values
            pos = g > 0.0
            log_g = np.log(g[pos])
            sse_fit += _sse(log_g - np.log(thinned_contact_analytic(
                fitted, p, self.radii).values[pos]))
            sse_true += _sse(log_g - np.log(thinned_contact_analytic(
                truth, p, self.radii).values[pos]))
        if not sse_fit <= sse_true * (1.0 + SLACK):
            return "fit objective %r exceeds %r at the true parameters" % (
                sse_fit, sse_true)
        return None


def _strict_json(text):
    def reject(token):
        raise ValueError("non-finite number %s" % token)
    return json.loads(text, parse_constant=reject)


class CliPgf(Workload):
    """A cold `tasproc fit --method pgf` subprocess per op, cycling over
    pattern files written in set-up."""

    name = "cli_pgf"
    trace_ops = 4
    n_files = 16    # a run cycles through them about twice
    # The CLI reads about 170k rows/s, so one of the rare multi-million-row
    # patterns would make a single op outlast the run.  Patterns over a
    # million rows (0.8% of draws) are skipped.
    max_rows = 1_000_000
    mu0 = IsotropicGaussian(2, 1.0)
    radius = 1.0
    fields = ("alpha_hat", "lambda_hat", "objective_value")

    def __init__(self, seed, workdir):
        ex = tasproc.experiments
        self.workdir = workdir
        self.out_path = os.path.join(workdir, "fit.json")
        self.files = []
        stream = 0
        while len(self.files) < self.n_files:
            pattern = simulate_tas(ex.FIG3_PARAMS, ex.FIG3_WINDOW,
                                   RandomSource(seed, stream),
                                   n_max=ex.HARNESS_N_MAX)
            stream += 1
            if len(pattern) > self.max_rows:
                continue
            path = os.path.join(workdir, "pattern_%d.csv" % len(self.files))
            with open(path, "w") as fh:
                write_pattern(pattern, fh)
            with open(path + ".json", "w") as fh:
                write_window_json(ex.FIG3_WINDOW, fh, metadata=pattern.metadata)
            self.files.append(path)
        # The in-process reference fits are made here, so that checks in the
        # run are lookups and the run's wall time goes to ops.
        self._reference = {}
        for path in self.files:
            self.reference(path)

    def inputs(self, i):
        return self.files[i % self.n_files]

    def argv(self, path):
        return ["fit", "--in", path, "--method", "pgf", "--mu0", "gauss:2:1",
                "--radius", "1", "--out", self.out_path]

    def op(self, path, driver=None):
        """Run the CLI in a fresh interpreter.  With `driver` (a list of
        leading arguments), run that driver instead of ``-m tasproc.cli``."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        lead = driver if driver is not None else ["-m", "tasproc.cli"]
        proc = subprocess.run([sys.executable] + lead + self.argv(path),
                              capture_output=True, text=True)
        output = None
        if os.path.exists(self.out_path):
            with open(self.out_path) as fh:
                output = fh.read()
        return proc.returncode, proc.stdout, output

    def traced_op(self, path, tracer):
        """Run the CLI through cli_driver.py and graft its spans under the
        current span."""
        spans_path = os.path.join(self.workdir, "spans.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        out = self.op(path, driver=[os.path.join(HERE, "cli_driver.py"),
                                    spans_path])
        with open(spans_path) as fh:
            child = json.load(fh)
        tracer.add_spans(child["spans"], parent=tracer.current())
        for name, value in child["counts"].items():
            tracer.counts[name] += value
        tracer.missing.update(child["missing"])
        return out

    def fingerprint(self, out):
        return _json_bytes(list(out))

    def reference(self, path):
        """In-process fit_count_pgf on read_pattern of the same file."""
        if path not in self._reference:
            with open(path + ".json") as fh:
                window, _ = read_window_json(fh)
            with open(path) as fh:
                pattern = read_pattern(fh, window)
            self._reference[path] = tasproc.estimation.fit_count_pgf(
                pattern, self.radius, tasproc.cli.parse_range("0.1:0.9:0.1"),
                self.mu0)
        return self._reference[path]

    def check(self, path, out):
        code, _, output = out
        if code != 0:
            return "exit code %d" % code
        if output is None:
            return "no output file"
        try:
            payload = _strict_json(output)
        except ValueError as exc:
            return "output is not strict JSON: %s" % exc
        ref = self.reference(path).to_json_dict()
        for key in self.fields:
            value = payload.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                return "%s is %r" % (key, value)
            if not abs(value - ref[key]) <= 1e-12 * max(1.0, abs(ref[key])):
                return "%s %r differs from in-process %r" % (key, value, ref[key])
        return None


WORKLOADS = {w.name: w for w in (Table1, Fig3, GaussVoid, CliPgf)}
