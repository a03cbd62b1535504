"""Inference for the cluster model: distance profiles, the two
void-probability estimators, least-squares parameter fitting, count-p.g.f.
fitting, the cluster-size alpha estimator, and empirical mu0 recovery.
"""

from __future__ import annotations

import itertools
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

# The solvers stay reachable as the module attribute `optimize`:
# perfbench/tracing.py counts objective evaluations through it.
from . import _optimize as optimize

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
    "ball_count_pgf",
    "fit_void",
    "fit_count_pgf",
    "fit_pgf_curve",
    "estimate_alpha_from_cluster_sizes",
    "estimate_mu0_empirical",
]


# Every fit searches alpha in this box; the coverage operator is prepared down
# to its lower end.
_ALPHA_BOUNDS = (0.01, 0.999)
_MAX_ITER = 500
_N_TEST_POINTS = 400
# Candidate (point, centre) pairs `_ball_counts` tests at once: about 30 MB.
_BALL_BLOCK = 1 << 20


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
        return asdict(self)


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


def cKDTree(points):
    """scipy's k-d tree over `points`, imported on first use: only k-NN
    distance profiles need it, so a cold p.g.f. fit never loads
    scipy.spatial."""
    from scipy.spatial import cKDTree as tree
    return tree(points)


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


def _ball_counts(points, centres, radius):
    """#{j : sum((points[j] - centres[i])**2) <= radius**2} for each centre i.

    A fixed-radius cell list (Bentley, Stanat & Williams, Inf. Process.
    Lett. 6(6), 1977): the points are binned into cells at least `radius`
    wide and sorted by row-major cell key, so the 3 cells of one row along
    the last axis are one slice.  Each centre tests the points in the
    3^(d-1) rows around its cell, in blocks of `_BALL_BLOCK` pairs.  The
    grid is coarsened to at most 2^min(20, 60 // d) cells per axis, which
    keeps keys and cell coordinates exact; coarser cells only test more
    candidates.
    """
    m, d = centres.shape
    counts = np.zeros(m, dtype=np.int64)
    if points.shape[0] == 0 or m == 0:
        return counts
    lo = points.min(axis=0)
    extent = float(np.max(points.max(axis=0) - lo))
    # The 2^-20 margin keeps any pair the distance test accepts within one
    # cell per axis despite rounding in the cell coordinates.  The floor of
    # 2^-500 (about 3e-151) covers squares that underflow: whatever the
    # radius, the test accepts offsets up to about 1.5e-154.
    side = max(radius * (1.0 + 2.0 ** -20),
               extent / 2.0 ** min(20, 60 // d), 2.0 ** -500)
    key = np.zeros(points.shape[0], dtype=np.int64)
    shape, centre_cells = [], []
    for k in range(d):
        cell = ((points[:, k] - lo[k]) / side).astype(np.int64)
        shape.append(int(cell.max()) + 1)
        key *= shape[k]
        key += cell
        centre_cells.append(np.clip((centres[:, k] - lo[k]) / side, 0,
                                    shape[k] - 1).astype(np.int64))
    order = np.argsort(key)
    key = key[order]
    cols = [points[order, k] for k in range(d)]
    del order

    # One segment of sorted points per (row offset, centre).
    last = centre_cells[-1]
    first_cell = np.maximum(last - 1, 0)
    last_cell = np.minimum(last + 1, shape[-1] - 1)
    starts, stops = [], []
    for offset in itertools.product((-1, 0, 1), repeat=d - 1):
        row = np.zeros(m, dtype=np.int64)
        inside = np.ones(m, dtype=bool)
        for k, step in enumerate(offset):
            cell = centre_cells[k] + step
            inside &= (cell >= 0) & (cell < shape[k])
            row = row * shape[k] + cell
        row *= shape[-1]
        start = np.searchsorted(key, row + first_cell, side="left")
        stop = np.searchsorted(key, row + last_cell, side="right")
        starts.append(start)
        stops.append(np.where(inside, stop, start))
    del key
    starts, stops = np.concatenate(starts), np.concatenate(stops)
    owner = np.tile(np.arange(m), 3 ** (d - 1))
    lengths = stops - starts
    ends = np.cumsum(lengths)
    # Candidate c of the concatenated segments is point c + shift[segment].
    shift = starts - (ends - lengths)
    r2 = radius * radius
    for b0 in range(0, int(ends[-1]), _BALL_BLOCK):
        b1 = min(b0 + _BALL_BLOCK, int(ends[-1]))
        s0 = int(np.searchsorted(ends, b0, side="right"))
        s1 = int(np.searchsorted(ends, b1 - 1, side="right")) + 1
        span = (np.minimum(ends[s0:s1], b1)
                - np.maximum(ends[s0:s1] - lengths[s0:s1], b0))
        idx = np.arange(b0, b1) + np.repeat(shift[s0:s1], span)
        own = np.repeat(owner[s0:s1], span)
        d2 = (cols[0][idx] - centres[own, 0]) ** 2
        for k in range(1, d):
            d2 += (cols[k][idx] - centres[own, k]) ** 2
        counts += np.bincount(own[d2 <= r2], minlength=m)
    return counts


# ---------------------------------------------------------------------------
# Contact-curve estimators

def empirical_contact(profile, radii):
    """G_hat(r) = fraction of test points whose nearest distance exceeds r:
    the p = 1 slice of `thinned_contact_estimate`."""
    return thinned_contact_estimate(profile, 1.0, radii)


def thinned_contact_estimate(profile, p, radii):
    """Thinned-void estimator of the retained process' contact tail.

    Returns mean_i (1-p)^{N_i(r)}, the conditional void probability given the
    pattern, where N_i(r) = #{k : r_{i,k} <= r} counts the recorded neighbours
    of test point i within r, capped at the depth K; N = K leaves the tail
    (1-p)^K that every recorded point is thinned away, unless the profile
    records every pattern point (`depth_clamped`) and N_i(r) is exact.
    """
    radii = np.asarray(radii, dtype=float)
    return ContactCurve(radii, _thinned_values(_count_freq(profile, radii), p,
                                               profile.depth_clamped))


def _count_freq(profile, radii):
    """freq[j, N] = #{i : N_i(r_j) = N} / n over the n test points, for
    strictly increasing radii, in O(nK log R + KR).  Profile rows are sorted,
    so N_i(r_j) > c exactly when r_{i,c} <= r_j: a bincount of the
    searchsorted steps per depth column c, cumsummed over the radii, counts
    these test points, and the histogram is the difference of its rows."""
    k = profile.depth
    n, m = profile.distances.shape[0], radii.size
    steps = np.searchsorted(radii, profile.distances, side="left")
    steps += np.arange(k) * (m + 1)
    above = np.bincount(steps.ravel(), minlength=k * (m + 1)).reshape(
        k, m + 1)[:, :m].cumsum(axis=1)
    hist = -np.diff(above, axis=0, prepend=n, append=0)
    # C order: a transposed view would change the rounding of the matvecs.
    return np.ascontiguousarray(hist.T) / n


def _thinned_values(freq, p, exact):
    """mean_i (1-p)^{N_i(r)} per radius, from `_count_freq`; `exact` marks
    counts without a depth tail, which need no tail-bound warning; the
    warning names the line that called its caller."""
    if not 0.0 < p <= 1.0:
        raise ValidationError("retention probability must lie in (0, 1]")
    k = freq.shape[1] - 1
    if p < 1.0 and not exact and (1.0 - p) ** k > 1e-3:
        warnings.warn(
            "profile depth %d leaves a geometric tail bound of %.3g at p=%.3g"
            % (k, (1.0 - p) ** k, p),
            stacklevel=3,
        )
    # Frequencies times weights keep p = 1 and N = K exact, and the tail
    # weight is the bound (1-p)^K bit for bit.  The rounded frequencies of a
    # row can sum an ulp past 1, which weights near 1 (tiny p) carry through.
    return np.minimum(freq @ _powers(1.0 - p, range(k + 1)), 1.0)


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


# ---------------------------------------------------------------------------
# Void-probability least squares

def _fit_ls(radii, retentions, idx, ghat, mu0, objective, method):
    """Least-squares fit of (alpha, lambda) to G_hat at the points
    (r, s) = (radii[idx[0]], retentions[idx[1]]) under the model
    G = exp(-lambda s^alpha I(r; alpha)), where s is the retention: p for a
    thinned void curve, 1 - z for a count p.g.f.

    One bounded Levenberg-Marquardt over (alpha, lambda) with the exact
    Jacobian runs every fit; the objective picks its residuals.  direct-ls
    fits G_hat - exp(-lambda x), for x = s^alpha I; log-profiled-ls fits
    log G_hat + lambda x over the points with G_hat > 0.  Both start at
    alpha mid-box and at the lambda that minimizes the log residuals there,
    max(0, -sum(x*y)/sum(x^2)) for y = log G_hat.
    """
    if not np.all((retentions > 0.0) & (retentions <= 1.0)):
        raise ValidationError("retention probability must lie in (0, 1], "
                              "i.e. z in [0, 1)")
    if ghat.shape != idx.shape[1:]:
        raise ValidationError("need one G_hat value per (r, s) point")
    if not np.all((ghat >= 0.0) & (ghat <= 1.0)):
        raise ValidationError("G_hat values must lie in [0, 1]")
    # -log G_hat estimates lambda s^alpha I(r; alpha), finite and positive
    # only for 0 < G_hat < 1; two unknowns need two such points.
    if np.count_nonzero((ghat > 0.0) & (ghat < 1.0)) < 2:
        raise DegenerateDataError("need at least 2 points with 0 < G_hat < 1")
    if objective not in ("direct-ls", "log-profiled-ls"):
        raise ValidationError("unknown objective %r" % (objective,))
    coverage = prepare_coverage(mu0, radii, alpha_min=_ALPHA_BOUNDS[0])
    pos = ghat > 0.0
    y = np.log(ghat[pos])
    log_s = np.log(retentions)
    r_pos, s_pos = idx[:, pos]
    r_idx, s_idx = (r_pos, s_pos) if objective == "log-profiled-ls" else idx

    def residuals(theta):
        # x = s^alpha I(r; alpha), dx/dalpha = s^alpha (I log s + dI/dalpha).
        alpha, lam = theta
        cov, dcov = coverage.values_and_derivatives(alpha)
        s_alpha = (retentions ** alpha)[s_idx]
        cov = cov[r_idx]
        x = s_alpha * cov
        dx = s_alpha * (cov * log_s[s_idx] + dcov[r_idx])
        if objective == "log-profiled-ls":
            return y + lam * x, np.array([lam * dx, x])
        model = np.exp(-lam * x)
        return ghat - model, np.array([lam * model * dx, model * x])

    alpha0 = 0.5 * (_ALPHA_BOUNDS[0] + _ALPHA_BOUNDS[1])
    x0 = (retentions ** alpha0)[s_pos] * coverage.values(alpha0)[r_pos]
    lam0 = max(0.0, float(-(x0 @ y) / max(float(x0 @ x0), 1e-300))) or 1.0
    res = optimize.minimize(residuals, [alpha0, lam0],
                            bounds=[_ALPHA_BOUNDS, (0.0, np.inf)],
                            maxiter=_MAX_ITER)
    return FitResult(float(res.x[0]), float(res.x[1]), float(res.fun), method,
                     n_iterations=int(res.nit), converged=bool(res.success))


def fit_void(data, mu0, p_values=None, objective="direct-ls", radii=None):
    """Least-squares fit of (alpha, lambda) to void-probability curves.

    `data` is either a DistanceProfile, whose curves at `p_values` (default
    p=1 only) on `radii` (default: its distinct positive nearest distances)
    share one count histogram, or a mapping p -> ContactCurve.  The model
    value at (r, p) is exp(-lambda p^alpha I(r; alpha)), fitted with
    `objective` "direct-ls" or "log-profiled-ls" as in `_fit_ls`.  Fewer than
    2 points with 0 < G_hat < 1 raise DegenerateDataError; a profile whose
    test points are not of mu0's dimension, or radii that are not finite,
    positive and strictly increasing, raise ValidationError.
    """
    if isinstance(data, DistanceProfile):
        if mu0.dimension != data.test_points.shape[1]:
            raise ValidationError("mu0 dimension does not match the profile")
        if radii is None:
            # Distinct positive distances; np.unique would import numpy.ma.
            radii = np.sort(data.nearest)
            radii = radii[(radii > 0) & (radii != np.append(radii[1:], np.inf))]
        radii = np.asarray(radii, dtype=float)
        # NaN fails both tests; the first difference is r_0 - 0.
        if radii.ndim != 1 or not np.all((np.diff(radii, prepend=0.0) > 0)
                                         & (radii < np.inf)):
            raise ValidationError("radii must be finite, positive and "
                                  "strictly increasing")
        p = np.array([1.0] if p_values is None else p_values, dtype=float)
        freq = _count_freq(data, radii)
        ghat = np.empty((p.size, radii.size))
        for j in range(p.size):  # a comprehension frame moves the warning
            ghat[j] = _thinned_values(freq, p[j], data.depth_clamped)
        # Point j R + i is (radii[i], p[j]).
        idx = np.indices(ghat.shape).reshape(2, -1)[::-1]
        ghat = ghat.ravel()
    elif hasattr(data, "items"):
        p = np.array(list(data), dtype=float)
        curves = list(data.values())
        # The leading empty arrays let a map without curves reach the
        # degenerate-data rule.
        radii, r_idx = np.unique(np.concatenate(
            [np.zeros(0)] + [c.radii for c in curves]), return_inverse=True)
        s_idx = np.repeat(np.arange(p.size), [c.radii.size for c in curves])
        idx = np.array([r_idx, s_idx])
        ghat = np.concatenate([np.zeros(0)] + [c.values for c in curves])
    else:
        raise ValidationError("expected a DistanceProfile or a "
                              "{p: ContactCurve} map")
    return _fit_ls(radii, p, idx, ghat, mu0, objective, "void-" + objective)


# ---------------------------------------------------------------------------
# Count p.g.f. fitting

def fit_pgf_curve(z_grid, g_values, mu0, radius):
    """Fit (alpha, lambda) to p.g.f. values via log g(z) = -lambda (1-z)^alpha I.

    This is the void fit's log-profiled least squares at one radius, with
    retention s = 1 - z.  Values g = 0 are dropped, fewer than 2 values
    with 0 < g < 1 raise DegenerateDataError, and values outside [0, 1] or
    not one per z raise ValidationError.
    """
    z = np.asarray(z_grid, dtype=float)
    return _fit_ls([radius], 1.0 - z, np.indices((1, z.size)).reshape(2, -1),
                   np.asarray(g_values, dtype=float), mu0, "log-profiled-ls",
                   "count-pgf")


def fit_count_pgf(pattern, radius, z_grid, mu0):
    """Fit (alpha, lambda) from counts in balls around grid test points.

    About 400 test points live on a grid inside the window eroded by the ball
    radius; the empirical p.g.f. g_hat(z) = mean_j z^{N_j} is fitted on
    `z_grid`.
    """
    z = np.asarray(z_grid, dtype=float)
    if np.any((z <= 0) | (z >= 1)):
        raise ValidationError("z grid must lie strictly inside (0, 1)")
    if not radius > 0:
        raise ValidationError("radius must be > 0")
    if mu0.dimension != pattern.dimension:
        raise ValidationError("mu0 dimension does not match the pattern")
    test_points = pattern.window.erode(radius).grid_points(_N_TEST_POINTS)
    counts = _ball_counts(pattern.points, test_points, radius)
    ghat = ball_count_pgf(counts, z)
    result = fit_pgf_curve(z, ghat, mu0, radius)
    result.extras["n_test_points"] = int(test_points.shape[0])
    result.extras["mean_count"] = float(np.mean(counts))
    return result


# ---------------------------------------------------------------------------
# Cluster-size estimator of alpha

ClusterSizeAlpha = namedtuple("ClusterSizeAlpha", ["alpha", "raw"])

_T_GRID = np.arange(0.1, 0.91, 0.1)


def estimate_alpha_from_cluster_sizes(sizes):
    """Estimate alpha from observed cluster sizes via the empirical p.g.f.

    Regresses log(1 - g_K(t_j)) on l_j = log(1 - t_j) over t = 0.1, ..., 0.9;
    all-singleton input yields exactly 1.  Returns (clamped value in (0, 1],
    raw regression value).
    """
    sizes = np.asarray(sizes)
    if sizes.size == 0:
        raise ValidationError("sizes must be non-empty")
    if np.any(sizes < 1):
        raise ValidationError("cluster sizes must be >= 1")
    t = _T_GRID

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

def estimate_mu0_empirical(pattern):
    """Pool recentred labelled clusters into an EmpiricalCloud estimate of mu0.

    Each cluster is shifted by its centre of mass (coordinate-wise mean).
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
    recentred = [pts - pts.mean(axis=0) for pts in usable.values()]
    return EmpiricalCloud(np.vstack(recentred))
