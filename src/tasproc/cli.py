"""Command-line interface: simulate patterns, fit parameters, emit contact
curves, and run the replication harnesses.

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numerical
non-convergence (partial results written and flagged).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import estimation, experiments, mixture
from .analytics import analytic_contact
from .model import (
    EmpiricalCloud,
    IsotropicGaussian,
    TasParameters,
    UniformInterval,
    ValidationError,
    Window,
    read_pattern,
    read_window_json,
    write_pattern,
    write_window_json,
)
from .sampling import RandomSource, simulate_tas

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def parse_window(text):
    axes = []
    for part in text.split(","):
        lo, hi = part.split(":")
        axes.append((float(lo), float(hi)))
    return Window([a[0] for a in axes], [a[1] for a in axes])


def parse_mu0(text):
    kind, _, rest = text.partition(":")
    if kind == "uniform":
        return UniformInterval(float(rest))
    if kind == "gauss":
        d, sigma = rest.split(":")
        return IsotropicGaussian(int(d), float(sigma))
    if kind == "cloud":
        pts = np.loadtxt(rest, delimiter=",", skiprows=1, ndmin=2)
        return EmpiricalCloud(pts)
    raise ValidationError("unknown mu0 spec %r" % (text,))


def parse_range(text):
    """lo:hi:step -> inclusive grid; needs finite bounds, step > 0, hi >= lo
    and at most 10^6 points."""
    lo, hi, step = (float(v) for v in text.split(":"))
    if not (0.0 < step < np.inf and -np.inf < lo <= hi < np.inf):
        raise ValidationError("range %r needs finite bounds, step > 0 and "
                              "hi >= lo" % (text,))
    # An infinite span fails too, before anything is allocated.
    span = (hi - lo) / step
    if not span < 10 ** 6 - 0.5:
        raise ValidationError("range %r has more than 1000000 points"
                              % (text,))
    return np.round(lo + step * np.arange(int(round(span)) + 1), 10)


def parse_test_points(text, window, rng):
    kind, _, n = text.partition(":")
    if kind not in ("grid", "random"):
        raise ValidationError("unknown test-point spec %r" % (text,))
    n = int(n)
    if n < 1:
        raise ValidationError("test-point spec %r needs N >= 1" % (text,))
    if kind == "grid":
        return estimation.grid_test_points(window, n)
    return estimation.random_test_points(window, n, rng)


def _load_pattern(args):
    if getattr(args, "window", None):
        window = parse_window(args.window)
    else:
        try:
            with open(args.infile + ".json") as fh:
                window, _ = read_window_json(fh)
        except FileNotFoundError:
            raise ValidationError(
                "no --window given and no sidecar %s.json found" % args.infile)
    with open(args.infile) as fh:
        return read_pattern(fh, window)


def cmd_simulate(args):
    mu0 = parse_mu0(args.mu0)
    params = TasParameters(args.alpha, args.lam, mu0)
    window = parse_window(args.window)
    rng = RandomSource(args.seed, args.stream)
    pattern = simulate_tas(params, window, rng, buffer=args.buffer,
                           keep_labels=args.labels,
                           n_max=experiments.HARNESS_N_MAX)
    with open(args.out, "w") as fh:
        write_pattern(pattern, fh)
    with open(args.out + ".json", "w") as fh:
        write_window_json(window, fh, metadata=pattern.metadata)
    print("wrote %d points to %s" % (len(pattern), args.out))
    return EXIT_OK


def cmd_fit(args):
    pattern = _load_pattern(args)
    result = None

    if args.method in ("void", "void-thinned"):
        mu0 = parse_mu0(args.mu0) if args.mu0 else None
        if mu0 is None:
            raise ValidationError("--mu0 is required for the void methods")
        test_points = parse_test_points(args.test_points, pattern.window,
                                        RandomSource(args.seed, args.stream))
        profile = estimation.distance_profile(pattern, test_points,
                                              depth=args.depth)
        p_values = [1.0] if args.method == "void" else list(parse_range(args.p))
        result = estimation.fit_void(profile, mu0, p_values=p_values,
                                     objective=args.objective)
    elif args.method == "pgf":
        mu0 = parse_mu0(args.mu0) if args.mu0 else None
        if mu0 is None:
            raise ValidationError("--mu0 is required for the pgf method")
        z_grid = parse_range(args.z)
        result = estimation.fit_count_pgf(pattern, args.radius, z_grid, mu0)
    elif args.method == "cluster-sizes":
        if pattern.labels is None:
            raise ValidationError("cluster-sizes needs a labelled pattern")
        sizes = list(pattern.cluster_sizes().values())
        est = estimation.estimate_alpha_from_cluster_sizes(sizes)
        payload = {"alpha_hat": est.alpha, "raw": est.raw,
                   "method": "cluster-sizes", "n_clusters": len(sizes)}
        print("alpha_hat = %.6g" % est.alpha)
    elif args.method == "em-mu0":
        lo, hi = (int(v) for v in args.k.split(":"))
        model = mixture.em_estimate_mu0(
            pattern, range(lo, hi + 1), noise=args.noise,
            rng=RandomSource(args.seed, args.stream))
        payload = model.to_json_dict()
        print("selected %d components (BIC %.4g)" % (model.n_components,
                                                     model.bic))
    else:
        raise ValidationError("unknown method %r" % (args.method,))

    if result is not None:
        payload = result.to_json_dict()
        print("alpha_hat = %.6g, lambda_hat = %.6g" % (result.alpha_hat,
                                                       result.lambda_hat))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if result is not None and not result.converged:
        print("warning: fit did not converge within the iteration budget",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_gcurve(args):
    pattern = _load_pattern(args)
    params = None
    if args.mu0 and args.alpha is not None and args.lam is not None:
        params = TasParameters(args.alpha, args.lam, parse_mu0(args.mu0))
        if params.mu0.dimension != pattern.dimension:
            raise ValidationError("mu0 dimension does not match the pattern")
    rng = RandomSource(args.seed, args.stream)
    test_points = parse_test_points(args.test_points, pattern.window, rng)
    profile = estimation.distance_profile(pattern, test_points, depth=1)
    radii = estimation.nearest_radii(profile)
    empirical = estimation.empirical_contact(profile, radii)
    with open(args.out, "w") as fh:
        empirical.to_csv(fh)
    print("wrote empirical curve (%d radii) to %s" % (len(radii), args.out))
    if params is not None:
        analytic = analytic_contact(params, radii)
        path = args.out + ".analytic.csv"
        with open(path, "w") as fh:
            analytic.to_csv(fh)
        print("wrote analytic curve to %s" % path)
    return EXIT_OK


def cmd_replicate(args):
    if args.which == "table1":
        report = experiments.replicate_table1(
            replicates=args.reps, seed=args.seed, jobs=args.jobs,
            out_dir=args.out)
        print(report.summary())
    else:
        p_grid, rel_err = experiments.replicate_fig3(
            replicates=args.reps, seed=args.seed, jobs=args.jobs,
            out_path=args.out)
        for p, e in zip(p_grid, rel_err):
            print("p=%.3g  relative_error=%.4g" % (p, e))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tasproc",
        description="Simulation and inference for thinning-stable point "
                    "processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_rng(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stream", type=int, default=0)

    p = sub.add_parser("simulate", help="simulate a pattern to CSV + sidecar")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu0", required=True,
                   help="uniform:h | gauss:d:sigma | cloud:file")
    p.add_argument("--window", required=True, help="lo:hi[,lo:hi...]")
    p.add_argument("--buffer", type=float, default=None)
    p.add_argument("--labels", action="store_true",
                   help="keep parent-cluster labels")
    p.add_argument("--out", required=True)
    common_rng(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit parameters from a pattern file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", help="lo:hi[,lo:hi...]; default: sidecar JSON")
    p.add_argument("--method", required=True,
                   choices=["void", "void-thinned", "pgf", "cluster-sizes",
                            "em-mu0"])
    p.add_argument("--mu0", help="uniform:h | gauss:d:sigma | cloud:file")
    p.add_argument("--p", default="0.3:1.0:0.1", help="thinning grid lo:hi:step")
    p.add_argument("--z", default="0.1:0.9:0.1", help="p.g.f. grid lo:hi:step")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--depth", type=int, default=60)
    p.add_argument("--test-points", dest="test_points", default="grid:400",
                   help="grid:N | random:N")
    p.add_argument("--objective", default="direct-ls",
                   choices=["direct-ls", "log-profiled-ls"])
    p.add_argument("--k", default="1:5", help="component range lo:hi for em-mu0")
    p.add_argument("--noise", action="store_true",
                   help="add a uniform noise component to the EM fit")
    p.add_argument("--out")
    common_rng(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("gcurve", help="emit empirical (and analytic) G curves")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window")
    p.add_argument("--test-points", dest="test_points", default="grid:400")
    p.add_argument("--mu0")
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--out", required=True)
    common_rng(p)
    p.set_defaults(func=cmd_gcurve)

    p = sub.add_parser("replicate", help="run a replication harness")
    p.add_argument("which", choices=["table1", "fig3"])
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="output directory (table1) or CSV (fig3)")
    p.set_defaults(func=cmd_replicate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # DegenerateDataError is a ValueError, so it must be caught first.
    except (estimation.DegenerateDataError, ArithmeticError) as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except (ValidationError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
