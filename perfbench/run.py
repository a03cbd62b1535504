#!/usr/bin/env python3
"""Run one tasproc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload table1 --seed 1 --trace 1
    python3 perfbench/run.py --quick

Run from anywhere; the benchmark imports tasproc from the ``src`` directory
next to ``perfbench``.  With ``--trace 0`` it runs ops for ``--seconds``
seconds, timing each op alone, and reports the end-to-end metrics; with
``--trace 1`` it runs a fixed number of ops untraced, then again under the
tracing hooks, and reports the per-layer metrics.  ``--quick`` runs a few
ops of every workload with all checks.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 5
QUICK_OPS = 2
ROUND = 4          # ops per round: one per Table-1 cell
TAIL_BEYOND = 10   # ops that must lie beyond the tail percentile


def bootstrap():
    """Make the checkout's tasproc importable here and in child processes.

    BLAS/OpenMP pools default to one thread: the benchmark is one client on
    a small shared machine, and a second pool thread would measure the
    scheduler.  The settings in force are recorded in the provenance.
    """
    if not os.path.isfile(os.path.join(SRC, "tasproc", "__init__.py")):
        sys.exit("perfbench: no tasproc sources under %s" % SRC)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# Measurement

def run_op(work, inp, tracer=None):
    """(output, seconds, problem) for one op; problem is None when it ran."""
    start = time.perf_counter()
    try:
        out = work.op(inp) if tracer is None else work.traced_op(inp, tracer)
        problem = None
    except Exception as exc:  # a failed op is counted, not fatal
        out, problem = None, "%s: %s" % (type(exc).__name__, exc)
    return out, time.perf_counter() - start, problem


def check(work, inp, out, problem):
    if problem is not None:
        return problem
    try:
        return work.check(inp, out)
    except Exception as exc:  # a check that cannot run fails the op
        return "check raised %s: %s" % (type(exc).__name__, exc)


def import_seconds(modules, samples=IMPORT_SAMPLES):
    """Median wall time of ``import <modules>`` over fresh interpreters."""
    probe = ("import time; t = time.perf_counter(); import %s; "
             "print(time.perf_counter() - t)" % ", ".join(modules))
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def tail_quantile(n):
    """Highest quantile with TAIL_BEYOND ops beyond it, never below the
    median (runs of fewer than 2 * TAIL_BEYOND ops report their median)."""
    return max(0.5, 1.0 - TAIL_BEYOND / n)


def timed_run(work, seconds):
    """Closed loop, one op at a time, in rounds of ROUND ops, for `seconds`
    of wall time (ops and their checks) and until the last round is complete.

    Only the ops are timed.  A run spans the same wall time whatever its
    checks cost, so a workload with cheap checks runs more ops and averages
    over more of the machine's speed drift (see README.md).  Throughput is
    the median over rounds of completed ops per second: a round that meets
    one of the rare multi-million-point patterns does not decide the run.
    """
    import numpy as np

    run_op(work, work.inputs(0))   # warm-up: lazy imports and caches
    latencies, problems, ok = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) % ROUND:
        i = len(latencies)
        inp = work.inputs(i)
        out, dt, problem = run_op(work, inp)
        latencies.append(dt)
        problem = check(work, inp, out, problem)
        ok.append(problem is None)
        if problem is not None:
            problems.append("op %d: %s" % (i, problem))
    n = len(latencies)
    rates = [sum(ok[k:k + ROUND]) / sum(latencies[k:k + ROUND])
             for k in range(0, n, ROUND)]
    q = tail_quantile(n)
    return {
        "attempted": n,
        "failed": len(problems),
        "problems": problems,
        "rounds": len(rates),
        "throughput_ops_s": float(np.median(rates)),
        "latency_p50_s": float(np.median(latencies)),
        "latency_tail_s": float(np.quantile(latencies, q)),
        "tail_quantile": q,
    }


def traced_run(work, n_ops):
    """Run ops 0..n_ops-1 untraced (checked) and traced; the traced outputs
    must equal the untraced ones bit for bit.

    Each op runs once each way, back to back, in alternating order, so drift
    in the machine's speed cancels out of trace.overhead_ratio.
    """
    tracer = tracing.Tracer()
    run_op(work, work.inputs(0))   # warm-up
    problems, failed = [], set()
    untraced_s = traced_s = 0.0
    for i in range(n_ops):
        inp = work.inputs(i)
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                runs[traced] = run_op(work, inp)
                continue
            restore = tracing.install(tracer)
            try:
                tracer.op = i
                with tracer.span("op"):
                    runs[traced] = run_op(work, inp, tracer)
            finally:
                restore()
        (out, dt, problem), (t_out, t_dt, t_problem) = runs[False], runs[True]
        untraced_s += dt
        traced_s += t_dt
        problem = check(work, inp, out, problem)
        if problem is None and (t_problem or work.fingerprint(t_out)
                                != work.fingerprint(out)):
            problem = "traced output differs from untraced"
        if problem is not None:
            problems.append("op %d: %s" % (i, problem))
            failed.add(i)
    return {
        "attempted": n_ops,
        "failed": len(failed),
        "problems": problems,
        "metrics": tracing.layer_metrics(tracer, untraced_s, traced_s),
        "unhooked": sorted(tracer.missing),
    }


def peak_rss_mb(children):
    """Peak RSS of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


# ---------------------------------------------------------------------------
# Provenance

def provenance(seed):
    import numpy
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        lines = git.stdout.split()
        commit = (lines[1] if git.returncode == 0
                  and os.path.realpath(lines[0]) == os.path.realpath(ROOT)
                  else None)
    except OSError:
        commit = None
    src_hash = hashlib.sha256()
    package = os.path.join(SRC, "tasproc")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


# ---------------------------------------------------------------------------

UNITS = {"throughput_ops_s": "ops/s", "latency_p50_s": "s",
         "latency_tail_s": "s", "error_rate": "ratio", "setup_s": "s",
         "peak_rss_mb": "MiB"}
# Printed but left out of the final line, which carries only the metrics
# BENCHMARK.json gates.  error_rate is zero on a healthy run (the final line
# carries it as failed/attempted); peak_rss_mb is the maximum over a run, set
# by the largest pattern the seed happens to draw (README.md).
UNGATED = ("error_rate", "peak_rss_mb")


def measure(name, seed, seconds, trace, workdir):
    """Set up workload `name` and measure it; returns the full result."""
    import workloads

    cls = workloads.WORKLOADS[name]
    in_children = name == "cli_pgf"
    if trace:
        result = traced_run(cls(seed, workdir), cls.trace_ops)
        result["metrics"]["process.peak_rss_mb"] = {
            "value": peak_rss_mb(in_children), "unit": "MiB"}
    else:
        modules = ["tasproc", "tasproc.cli"] if in_children else ["tasproc"]
        setup_s = import_seconds(modules)
        result = timed_run(cls(seed, workdir), seconds)
        result["metrics"] = {
            key: {"value": value, "unit": UNITS[key]} for key, value in (
                ("throughput_ops_s", result.pop("throughput_ops_s")),
                ("latency_p50_s", result.pop("latency_p50_s")),
                ("latency_tail_s", result.pop("latency_tail_s")),
                ("error_rate", result["failed"] / result["attempted"]),
                ("setup_s", setup_s),
                ("peak_rss_mb", peak_rss_mb(in_children)),
            )}
    result["workload"] = name
    return result


def report(result, seed):
    """Print the metrics table and the provenance; return the final line."""
    for problem in result["problems"]:
        print("FAILED %s" % problem, file=sys.stderr)
    print("workload %s  seed %d  ops %d  failed %d" % (
        result["workload"], seed, result["attempted"], result["failed"]))
    for key, m in result["metrics"].items():
        value = m["value"]
        shown = "%.6g" % value if isinstance(value, (int, float)) else value
        note = ""
        if key == "latency_tail_s":
            note = "  (p%.1f of %d ops)" % (100 * result["tail_quantile"],
                                            result["attempted"])
        print("  %-34s %14s %s%s" % (key, shown, m["unit"], note))
    detail = {k: v for k, v in result.items() if k != "metrics"}
    detail["provenance"] = provenance(seed)
    print("detail " + json.dumps(detail, sort_keys=True))
    metrics = {k: v for k, v in result["metrics"].items() if k not in UNGATED}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def quick(seed):
    """A few traced ops of every workload, every check enabled."""
    import workloads

    ok = True
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
            start = time.perf_counter()
            result = traced_run(cls(seed, workdir), QUICK_OPS)
        for problem in result["problems"]:
            print("FAILED %s %s" % (name, problem), file=sys.stderr)
        print("%-10s %d ops, %d failed, unhooked %s, %.1f s" % (
            name, result["attempted"], result["failed"],
            result["unhooked"] or "none", time.perf_counter() - start))
        ok = ok and result["failed"] == 0 and not result["unhooked"]
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["table1", "fig3", "gauss_void",
                                               "cli_pgf"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload for a few ops and exit")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")

    bootstrap()
    if args.quick:
        return 0 if quick(args.seed) else 1
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir)
    print(json.dumps(report(result, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
