"""Seeded random generation: Sibuya variates, Poisson centres, full
cluster-process patterns, and independent thinning.

The Sibuya variable with parameter alpha is the index of the first success
in a sequence of Bernoulli trials where trial k succeeds with probability
alpha/k.  Sampling is by inversion of the survival product
prod_{k<=n}(1 - alpha/k): one uniform per draw, identical in law to running
the trials, with an O(log n) tail search instead of the O(n) walk (the walk
is hopeless for small alpha, where draws beyond 10^6 are routine).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .analytics import _log_survival
from .model import PointPattern, ValidationError

__all__ = [
    "RandomSource",
    "sibuya_variates",
    "sample_poisson_centres",
    "simulate_tas",
    "thin",
]

_MASK64 = (1 << 64) - 1
# Total points one simulation may draw, buffer included: far above the
# largest harness pattern (about 3e6 points) and far below what a heavy
# Sibuya tail can ask for without `n_max`.
_MAX_TOTAL_POINTS = 10 ** 8


class RandomSource:
    """A seeded, streamable RNG; (seed, stream) fully determines the output.

    Also carries the truncation counter for capped Sibuya draws.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence((self.seed & _MASK64, self.stream & _MASK64))
        self.generator = np.random.Generator(np.random.PCG64(ss))
        self.truncation_count = 0

    def __repr__(self):
        return "RandomSource(seed=%d, stream=%d)" % (self.seed, self.stream)


_TABLE_SIZE = 4096


@lru_cache(maxsize=64)
def _survival_table(alpha):
    """s[n] = prod_{k=1}^{n} (1 - alpha/k) for n = 0..TABLE_SIZE."""
    k = np.arange(1, _TABLE_SIZE + 1, dtype=float)
    return np.concatenate([[1.0], np.cumprod(1.0 - alpha / k)])


# A draw beyond the float range brackets at inf, where the log survival is
# -inf, and comes back as inf.
@np.errstate(over="ignore", divide="ignore")
def _invert_tail(alpha, u, n0):
    """Smallest n > n0 with survival(n) < u, for u <= survival(n0)."""
    from scipy.special import gammaln
    logu = np.log(u)
    # survival(n) < n^-alpha / Gamma(1-alpha) by Gautschi's inequality, so
    # survival(8 approx) < 8^-alpha u < u: hi is an upper bracket.
    approx = np.exp(-(logu + gammaln(1.0 - alpha)) / alpha)
    hi = np.maximum(8.0 * approx, 2.0 * n0)
    lo = np.full_like(hi, float(n0))
    # 128 halvings cover any bracket; above ~2^53 float spacing caps the
    # resolution anyway, which is immaterial that deep in the tail.
    for _ in range(128):
        if not np.any(hi - lo > 1.0):
            break
        mid = np.floor((lo + hi) / 2.0)
        mid = np.clip(mid, lo + 1.0, hi)
        below = _log_survival(mid, alpha) < logu
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return hi


def sibuya_variates(alpha, size, rng, n_max=None):
    """Draw `size` independent Sibuya(alpha) variates.

    With `n_max` set, draws that would exceed it are clipped to n_max and
    counted on ``rng.truncation_count``.  Returns an int64 array (float64
    for astronomically large uncapped draws beyond 2^63).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValidationError("alpha must lie in (0, 1]")
    u = 1.0 - rng.generator.random(size)  # uniform on (0, 1]
    s = _survival_table(alpha)
    n0 = len(s) - 1
    # nu = min{n >= 1 : s[n] < u}; count the table entries >= u.
    idx = np.searchsorted(s[::-1], u, side="left")
    nu = (n0 + 1 - idx).astype(float)
    tail = u <= s[n0]
    if tail.any():
        nu[tail] = _invert_tail(alpha, u[tail], n0)
    if n_max is not None:
        clipped = nu > n_max
        if clipped.any():
            rng.truncation_count += int(clipped.sum())
            nu = np.minimum(nu, float(n_max))
    if np.all(nu < 2 ** 62):
        return nu.astype(np.int64)
    return nu


# A volume or mean past the float range is inf, and refused as such.
@np.errstate(over="ignore")
def sample_poisson_centres(lam, region, rng):
    """Homogeneous Poisson sample on a window: Poisson count, uniform positions.

    A count over the simulation budget of 10^8 points is refused before any
    position is drawn, and a mean lam * volume over twice the budget (inf
    included) before the count is drawn: its count is below the budget with
    probability under exp(-3e7).
    """
    if lam <= 0:
        raise ValidationError("lambda must be > 0")
    mean = lam * region.volume
    if not mean <= 2 * _MAX_TOTAL_POINTS:
        raise ValidationError("centre mean lambda * volume = %g is over twice "
                              "the budget of %d points" % (mean,
                                                           _MAX_TOTAL_POINTS))
    n = rng.generator.poisson(mean)
    if n > _MAX_TOTAL_POINTS:
        raise ValidationError("simulation would draw %d centres, over the "
                              "budget of %d points" % (n, _MAX_TOTAL_POINTS))
    lo = np.asarray(region.lower)
    hi = np.asarray(region.upper)
    return rng.generator.uniform(lo, hi, size=(n, region.dimension))


def simulate_tas(params, window, rng, buffer=None, keep_labels=False, n_max=None):
    """Simulate a stationary TaS pattern on `window`.

    Cluster centres are drawn on the window dilated by `buffer` (clusters
    centred outside the window still drop points inside it); each centre gets
    an independent Sibuya(alpha) cluster of mu0 offsets; points outside the
    window are discarded.  With `keep_labels` each surviving point carries its
    parent centre's index.  A draw of more than 10^8 points in all is refused
    before any offset is sampled; `n_max` caps each cluster.
    """
    mu0 = params.mu0
    if mu0.dimension != window.dimension:
        raise ValidationError("mu0 dimension does not match the window")
    recommended = mu0.effective_radius
    if buffer is None:
        buffer = recommended
    if not 0 <= buffer < np.inf:
        raise ValidationError("buffer must be finite and >= 0")
    trunc_before = rng.truncation_count

    centres = sample_poisson_centres(params.lam, window.dilate(buffer), rng)
    n_centres = centres.shape[0]
    if n_centres:
        sizes = sibuya_variates(params.alpha, n_centres, rng, n_max=n_max)
        # Checked in float: a size beyond 2^63 would wrap in the int64 cast.
        total = float(np.sum(sizes, dtype=float))
        if total > _MAX_TOTAL_POINTS:
            raise ValidationError(
                "simulation would draw %.3g points, over the budget of %d; "
                "set n_max to cap the cluster size" % (total, _MAX_TOTAL_POINTS))
        sizes = np.asarray(sizes, dtype=np.int64)
        offsets = mu0.sample(int(sizes.sum()), rng.generator)
        points = np.repeat(centres, sizes, axis=0) + offsets
        parents = np.repeat(np.arange(n_centres), sizes)
    else:
        points = np.empty((0, window.dimension))
        parents = np.empty(0, dtype=np.int64)

    inside = window.contains(points)
    points = points[inside]
    labels = [str(i) for i in parents[inside]] if keep_labels else None

    metadata = {
        "seed": rng.seed,
        "stream": rng.stream,
        "buffer": float(buffer),
        "n_centres": int(n_centres),
        "truncation_count": rng.truncation_count - trunc_before,
    }
    if buffer < recommended:
        metadata["warning"] = (
            "buffer %g below recommended %g; edge clusters may be under-sampled"
            % (buffer, recommended)
        )
    return PointPattern(points, window, labels=labels, metadata=metadata)


def thin(pattern, p, rng):
    """Independent thinning: keep each point with probability p."""
    if not 0.0 < p <= 1.0:
        raise ValidationError("retention probability must lie in (0, 1]")
    keep = rng.generator.random(len(pattern)) < p
    labels = None
    if pattern.labels is not None:
        labels = [lab for lab, k in zip(pattern.labels, keep) if k]
    return PointPattern(pattern.points[keep], pattern.window, labels=labels,
                        metadata=dict(pattern.metadata))
