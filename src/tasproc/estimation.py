"""Inference for the cluster model: distance profiles, the two
void-probability estimators, least-squares parameter fitting, count-p.g.f.
fitting, the cluster-size alpha estimator, and empirical mu0 recovery.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.spatial import cKDTree

# coverage_integral and coverage_values stay importable from this module:
# perfbench/tracing.py hooks the coverage layer under these names.
from .analytics import (  # noqa: F401
    coverage_integral,
    coverage_values,
    prepare_coverage,
)
from .model import (
    ContactCurve,
    DistanceProfile,
    EmpiricalCloud,
    ValidationError,
)

__all__ = [
    "FitResult",
    "DegenerateDataError",
    "grid_test_points",
    "random_test_points",
    "distance_profile",
    "empirical_contact",
    "thinned_contact_estimate",
    "thinned_contact_closed_form",
    "ball_count_pgf",
    "g_estimate_from_thinned",
    "fit_void",
    "fit_count_pgf",
    "fit_pgf_curve",
    "estimate_alpha_from_cluster_sizes",
    "estimate_mu0_empirical",
]


class DegenerateDataError(ValueError):
    """Raised when the data carry no usable signal for a fit."""


@dataclass
class FitResult:
    alpha_hat: float
    lambda_hat: float
    objective_value: float
    method: str
    n_iterations: int = 0
    converged: bool = False
    extras: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "alpha_hat": self.alpha_hat,
            "lambda_hat": self.lambda_hat,
            "objective_value": self.objective_value,
            "method": self.method,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
            "extras": self.extras,
        }


# ---------------------------------------------------------------------------
# Distance profiles

def grid_test_points(window, n_target):
    """Cell-centre grid of roughly n_target points; grids beat random scatter
    for the variance of the contact estimator."""
    return window.grid_points(n_target)


def random_test_points(window, n, rng):
    lo = np.asarray(window.lower)
    hi = np.asarray(window.upper)
    return rng.generator.uniform(lo, hi, size=(n, window.dimension))


def _brute_force_distances(points, test_points, depth):
    n_test = test_points.shape[0]
    out = np.empty((n_test, depth))
    chunk = max(1, 20_000_000 // max(1, points.shape[0]))
    for start in range(0, n_test, chunk):
        tp = test_points[start:start + chunk]
        d2 = np.sum((tp[:, None, :] - points[None, :, :]) ** 2, axis=2)
        if depth < d2.shape[1]:
            part = np.partition(d2, depth - 1, axis=1)[:, :depth]
        else:
            part = d2
        part.sort(axis=1)
        out[start:start + chunk] = np.sqrt(part)
    return out


def distance_profile(pattern, test_points, depth=1, method="kdtree"):
    """Ascending distances from each test point to its `depth` nearest
    pattern points.

    `method="brute"` is the exact O(n*m) reference; the k-d tree path must
    agree with it bit-for-bit (checked in the test suite).  A depth larger
    than the pattern is clamped and flagged on the profile.
    """
    if len(pattern) == 0:
        raise ValidationError("pattern must be non-empty")
    test_points = np.asarray(test_points, dtype=float)
    if test_points.ndim == 1:
        test_points = test_points.reshape(-1, 1)
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    clamped = depth > len(pattern)
    k = min(depth, len(pattern))
    if method == "brute":
        dist = _brute_force_distances(pattern.points, test_points, k)
    elif method == "kdtree":
        tree = cKDTree(pattern.points)
        dist, _ = tree.query(test_points, k=k)
        dist = dist.reshape(test_points.shape[0], k)
    else:
        raise ValidationError("unknown method %r" % (method,))
    return DistanceProfile(test_points, dist, depth_clamped=clamped)


# ---------------------------------------------------------------------------
# Contact-curve estimators

def empirical_contact(profile, radii):
    """G_hat(r) = fraction of test points whose nearest distance exceeds r."""
    radii = np.asarray(radii, dtype=float)
    values = np.mean(profile.nearest[:, None] > radii[None, :], axis=0)
    return ContactCurve(radii, values)


def thinned_contact_estimate(profile, p, radii):
    """Thinned-void estimator of the retained process' contact tail.

    Returns mean_i (1-p)^{N_i(r)}, the conditional void probability given the
    pattern, where N_i(r) = #{k : r_{i,k} <= r} counts the recorded neighbours
    of test point i within r, capped at the depth K; N = K leaves the tail
    (1-p)^K that every recorded point is thinned away.  The counts come from
    a searchsorted of the profile into the (strictly increasing) radii and a
    per-row bincount and cumsum; their histogram per radius is then weighted
    by (1-p)^N.  Cost O(nK log R + nR) for n test points and R radii.
    """
    if not 0.0 < p <= 1.0:
        raise ValidationError("retention probability must lie in (0, 1]")
    radii = np.asarray(radii, dtype=float)
    k = profile.depth
    if p < 1.0 and (1.0 - p) ** k > 1e-3:
        warnings.warn(
            "profile depth %d leaves a geometric tail bound of %.3g at p=%.3g"
            % (k, (1.0 - p) ** k, p),
            stacklevel=2,
        )
    # Row i of the cumsum is N_i(r_j); hist[j, N] = #{i : N_i(r_j) = N}.
    n, m = profile.distances.shape[0], radii.size
    steps = np.searchsorted(radii, profile.distances, side="left")
    steps += np.arange(n)[:, None] * (m + 1)
    counts = np.bincount(steps.ravel(), minlength=n * (m + 1))
    counts = counts.reshape(n, m + 1)[:, :m].cumsum(axis=1)
    counts += np.arange(m) * (k + 1)
    hist = np.bincount(counts.ravel(), minlength=m * (k + 1)).reshape(m, k + 1)
    # Frequencies times weights keep p = 1 and N = K exact, and the tail
    # weight is the bound (1-p)^K bit for bit.
    return ContactCurve(radii, (hist / n) @ _powers(1.0 - p, range(k + 1)))


def thinned_contact_closed_form(profile, p, radii):
    """Equivalent closed form (1/n) sum_i (1-p)^{N_i(r)}; independent check."""
    if not 0.0 < p <= 1.0:
        raise ValidationError("retention probability must lie in (0, 1]")
    radii = np.asarray(radii, dtype=float)
    counts = np.sum(profile.distances[:, :, None] <= radii[None, None, :], axis=1)
    return ContactCurve(radii, np.mean((1.0 - p) ** counts, axis=0))


def _powers(z, exponents):
    """[z ** k for k in exponents] by Python's scalar pow: exact at z = 0 and
    1, and free of numpy's SIMD power routine, which on some hosts differs
    from libm pow in the last place."""
    z = float(z)
    return np.array([z ** int(k) for k in exponents])


def ball_count_pgf(counts, z):
    """Empirical p.g.f. mean_i z^{N_i} of integer ball counts N_i, per z.

    The frequencies of the distinct counts are weighted by `_powers` and
    summed before the division, so z = 0 gives exactly the share of empty
    balls and z = 1 gives 1.
    """
    values, freq = np.unique(np.asarray(counts), return_counts=True)
    return np.array([freq @ _powers(zj, values) for zj in np.atleast_1d(z)]
                    ) / freq.sum()


def g_estimate_from_thinned(profile, p, alpha, radii):
    """Estimate of the *unthinned* contact tail from the thinned curve.

    The thinned process has cluster density lambda p^alpha, so
    G(r) = G_p(r)^(p^-alpha) when alpha is known.
    """
    curve = thinned_contact_estimate(profile, p, radii)
    return ContactCurve(curve.radii, curve.values ** (p ** -alpha))


# ---------------------------------------------------------------------------
# Void-probability least squares

def _collect_curves(data, p_values, radii):
    """Normalize fit input to a list of (p, radii, values) triples."""
    if isinstance(data, DistanceProfile):
        if radii is None:
            radii = np.unique(data.nearest)
            radii = radii[radii > 0]
        if p_values is None:
            p_values = [1.0]
        return [(p, radii, thinned_contact_estimate(data, p, radii).values)
                for p in p_values]
    if hasattr(data, "items"):
        return [(float(p), curve.radii, curve.values) for p, curve in data.items()]
    raise ValidationError("expected a DistanceProfile or a {p: ContactCurve} map")


def fit_void(data, mu0, p_values=None, objective="direct-ls", window=None,
             radii=None, alpha_bounds=(0.01, 0.999), max_iter=500, tol=1e-8):
    """Least-squares fit of (alpha, lambda) to void-probability curves.

    `data` is either a DistanceProfile (curves are built internally, one per
    entry of `p_values`, default p=1 only) or a mapping p -> ContactCurve.
    The model value at (r, p) is exp(-lambda p^alpha I(r; alpha)).

    direct-ls runs a bounded Nelder-Mead over (alpha, lambda); log-profiled-ls
    substitutes the closed-form lambda(alpha) = -sum(x*y)/sum(x^2) for
    y = log G_hat, x = p^alpha I(r; alpha), and searches over alpha only
    (radii with G_hat = 0 are dropped there).
    """
    curves = _collect_curves(data, p_values, radii)
    n_pts = sum(len(r) for _, r, _ in curves)
    if n_pts < 2:
        raise DegenerateDataError("need at least 2 usable radii")
    all_vals = np.concatenate([v for _, _, v in curves])
    if np.all((all_vals == 0.0) | (all_vals == 1.0)):
        raise DegenerateDataError("all empirical G values are 0 or 1")

    unique_r = np.unique(np.concatenate([r for _, r, _ in curves]))
    index = [np.searchsorted(unique_r, r) for _, r, _ in curves]
    p_arr = np.concatenate([np.full(len(r), p) for p, r, _ in curves])
    idx_arr = np.concatenate(index)
    ghat = all_vals

    coverage = prepare_coverage(mu0, unique_r, window=window,
                                alpha_min=alpha_bounds[0])

    def model_values(alpha, lam):
        cov = coverage.values(alpha)
        return np.exp(-lam * p_arr ** alpha * cov[idx_arr])

    pos = ghat > 0.0
    if not pos.any():
        raise DegenerateDataError("all empirical G values are 0")
    log_ghat = np.log(ghat[pos])

    def profiled_lambda(alpha):
        cov = coverage.values(alpha)
        x = (p_arr ** alpha * cov[idx_arr])[pos]
        denom = float(x @ x)
        if denom == 0.0:
            return 0.0
        return max(0.0, float(-(x @ log_ghat) / denom))

    if objective == "log-profiled-ls":
        def scalar_obj(alpha):
            cov = coverage.values(alpha)
            x = (p_arr ** alpha * cov[idx_arr])[pos]
            lam = max(0.0, float(-(x @ log_ghat) / max(float(x @ x), 1e-300)))
            resid = log_ghat + lam * x
            return float(resid @ resid)

        res = optimize.minimize_scalar(
            scalar_obj, bounds=alpha_bounds, method="bounded",
            options={"xatol": 1e-10, "maxiter": max_iter},
        )
        alpha_hat = float(res.x)
        lambda_hat = profiled_lambda(alpha_hat)
        return FitResult(alpha_hat, lambda_hat, float(res.fun),
                         "void-log-profiled-ls",
                         n_iterations=int(res.nfev), converged=bool(res.success))

    if objective != "direct-ls":
        raise ValidationError("unknown objective %r" % (objective,))

    def sse(x):
        alpha, lam = x
        resid = ghat - model_values(alpha, lam)
        return float(resid @ resid)

    alpha0 = 0.5 * (alpha_bounds[0] + alpha_bounds[1])
    lam0 = profiled_lambda(alpha0) or 1.0
    res = optimize.minimize(
        sse, x0=[alpha0, lam0], method="Nelder-Mead",
        bounds=[(alpha_bounds[0], alpha_bounds[1]), (0.0, np.inf)],
        options={"maxiter": max_iter, "fatol": tol, "xatol": 1e-8},
    )
    return FitResult(float(res.x[0]), float(res.x[1]), float(res.fun),
                     "void-direct-ls",
                     n_iterations=int(res.nit), converged=bool(res.success))


# ---------------------------------------------------------------------------
# Count p.g.f. fitting

def fit_pgf_curve(z_grid, g_values, mu0, radius, window=None,
                  alpha_bounds=(0.01, 0.999), max_iter=500):
    """Fit (alpha, lambda) to p.g.f. values via log g(z) = -lambda (1-z)^alpha I.

    log g is linear in lambda, so lambda is profiled in closed form and the
    search runs over alpha only.
    """
    z = np.asarray(z_grid, dtype=float)
    g = np.asarray(g_values, dtype=float)
    keep = g > 0.0
    z, g = z[keep], g[keep]
    if z.size < 2:
        raise DegenerateDataError("fewer than 2 usable z values")
    y = np.log(g)
    coverage = prepare_coverage(mu0, [radius], window=window,
                                alpha_min=alpha_bounds[0])

    def profiled(alpha):
        x = (1.0 - z) ** alpha * coverage.values(alpha)[0]
        lam = max(0.0, float(-(x @ y) / max(float(x @ x), 1e-300)))
        resid = y + lam * x
        return lam, float(resid @ resid)

    res = optimize.minimize_scalar(
        lambda a: profiled(a)[1], bounds=alpha_bounds, method="bounded",
        options={"xatol": 1e-10, "maxiter": max_iter},
    )
    alpha_hat = float(res.x)
    lambda_hat, obj = profiled(alpha_hat)
    return FitResult(alpha_hat, lambda_hat, obj, "count-pgf",
                     n_iterations=int(res.nfev), converged=bool(res.success))


def fit_count_pgf(pattern, radius, z_grid, mu0, window_correction=False,
                  n_test_points=400, alpha_bounds=(0.01, 0.999), max_iter=500):
    """Fit (alpha, lambda) from counts in balls around grid test points.

    Test points live on a grid inside the window eroded by the ball radius;
    the empirical p.g.f. g_hat(z) = mean_j z^{N_j} is fitted on `z_grid`.
    With `window_correction` the coverage integral runs over the window
    instead of the whole space.
    """
    z = np.asarray(z_grid, dtype=float)
    if np.any((z <= 0) | (z >= 1)):
        raise ValidationError("z grid must lie strictly inside (0, 1)")
    test_points = pattern.window.erode(radius).grid_points(n_test_points)
    tree = cKDTree(pattern.points)
    counts = tree.query_ball_point(test_points, r=radius, return_length=True)
    ghat = ball_count_pgf(counts, z)
    window = pattern.window if window_correction else None
    result = fit_pgf_curve(z, ghat, mu0, radius, window=window,
                           alpha_bounds=alpha_bounds, max_iter=max_iter)
    result.extras["n_test_points"] = int(test_points.shape[0])
    result.extras["mean_count"] = float(np.mean(counts))
    return result


# ---------------------------------------------------------------------------
# Cluster-size estimator of alpha

ClusterSizeAlpha = namedtuple("ClusterSizeAlpha", ["alpha", "raw"])

DEFAULT_T_GRID = np.arange(0.1, 0.91, 0.1)


def estimate_alpha_from_cluster_sizes(sizes, t_grid=None):
    """Estimate alpha from observed cluster sizes via the empirical p.g.f.

    Regresses log(1 - g_K(t_j)) on l_j = log(1 - t_j); all-singleton input
    yields exactly 1.  Returns (clamped value in (0, 1], raw regression value).
    """
    sizes = np.asarray(sizes)
    if sizes.size == 0:
        raise ValidationError("sizes must be non-empty")
    if np.any(sizes < 1):
        raise ValidationError("cluster sizes must be >= 1")
    t = np.asarray(DEFAULT_T_GRID if t_grid is None else t_grid, dtype=float)
    if t.size < 2 or np.any((t < 0) | (t >= 1)) or np.any(np.diff(t) <= 0):
        raise ValidationError("t grid must be ascending in [0, 1)")

    # Empirical p.g.f. through distinct sizes: exact and fast for large K.
    values, counts = np.unique(sizes, return_counts=True)
    if values.size == 1:
        g = t ** values[0]
    else:
        g = np.power.outer(t * 1.0, values) @ (counts / sizes.size)
    keep = g < 1.0
    t, g = t[keep], g[keep]
    if t.size < 2:
        raise DegenerateDataError("empirical p.g.f. degenerate on the t grid")

    y = np.log(1.0 - g)
    l = np.log(1.0 - t)
    lc = l - l.mean()
    # sum(y * b_j) with b_j = lc_j / sum(l_j * lc_j); the denominator equals
    # sum(lc^2) algebraically, and this form makes y == l give exactly 1.
    raw = float((y @ lc) / (l @ lc))
    return ClusterSizeAlpha(alpha=float(np.clip(raw, 1e-9, 1.0)), raw=raw)


# ---------------------------------------------------------------------------
# Empirical mu0 from labelled clusters

def estimate_mu0_empirical(pattern, selection="labeled", k=None):
    """Pool recentred labelled clusters into an EmpiricalCloud estimate of mu0.

    Each selected cluster is shifted by its centre of mass (coordinate-wise
    mean); `selection="largest-k"` keeps only the k largest clusters.
    Clusters with fewer than 2 points are skipped.
    """
    if pattern.labels is None:
        raise ValidationError(
            "pattern has no cluster labels; run a clustering step (e.g. the "
            "EM mixture fit) first"
        )
    groups = pattern.clusters()
    usable = {lab: pts for lab, pts in groups.items() if pts.shape[0] >= 2}
    if not usable:
        raise DegenerateDataError("no cluster with at least 2 points")
    if selection == "largest-k":
        if k is None or k < 1:
            raise ValidationError("largest-k selection needs k >= 1")
        order = sorted(usable, key=lambda lab: usable[lab].shape[0], reverse=True)
        usable = {lab: usable[lab] for lab in order[:k]}
    elif selection != "labeled":
        raise ValidationError("unknown selection %r" % (selection,))
    recentred = [pts - pts.mean(axis=0) for pts in usable.values()]
    return EmpiricalCloud(np.vstack(recentred))
