"""Gaussian-mixture EM for recovering the cluster shape from an unlabelled
pattern, with an optional uniform noise component and BIC model selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .model import ValidationError

__all__ = ["MixtureComponent", "MixtureModel", "em_estimate_mu0", "fit_gaussian_mixture"]

_MAX_ITER = 200
# EM stops once the log-likelihood gains less than _TOL per point.
_TOL = 1e-6
# Largest n points x summed component counts x d dimensions em_estimate_mu0
# accepts; EM's cost grows with that product.  It admits demo 03 (349,527
# points, k = 1..3: 4.19e6).  At the bound, on a 2-core machine, 150,000
# points of a Gaussian-cluster pattern with k = 1..5 take 15 s, and
# structureless uniform points, which run every k to _MAX_ITER, 76 s.
_MAX_EM_WORK = 4_500_000


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    mean: np.ndarray
    covariance: np.ndarray


@dataclass
class MixtureModel:
    components: list
    noise_weight: float
    log_likelihood: float
    bic: float
    n_iterations: int
    converged: bool
    loglik_trace: list = field(default_factory=list)

    @property
    def n_components(self):
        return len(self.components)

    def to_json_dict(self):
        return {
            "components": [
                {
                    "weight": c.weight,
                    "mean": c.mean.tolist(),
                    "covariance": c.covariance.tolist(),
                }
                for c in self.components
            ],
            "noise_weight": self.noise_weight,
            "log_likelihood": self.log_likelihood,
            "bic": self.bic,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
        }


def _farthest_point_seeds(points, k, rng):
    """k seed locations: a random start, then successive farthest points."""
    n = points.shape[0]
    seeds = [points[rng.generator.integers(n)]]
    d2 = np.sum((points - seeds[0]) ** 2, axis=1)
    for _ in range(1, k):
        seeds.append(points[int(np.argmax(d2))])
        d2 = np.minimum(d2, np.sum((points - seeds[-1]) ** 2, axis=1))
    return np.asarray(seeds)


def _log_gaussian_pdf(points, mean, cov):
    d = points.shape[1]
    chol = np.linalg.cholesky(cov)
    sol = np.linalg.solve(chol, (points - mean).T)
    maha = np.sum(sol ** 2, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)


def fit_gaussian_mixture(points, k, rng, window=None, noise=False):
    """EM fit of a k-component Gaussian mixture (optional uniform noise).

    Covariances are ridge-regularized with eps = 1e-6 * window scale^2;
    the per-iteration log-likelihood is nondecreasing by construction and is
    recorded on the returned model.  A component that empties is reseeded
    once at the farthest point from the surviving means, then dropped.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if k < 1:
        raise ValidationError("k must be >= 1, got %d" % k)
    if n < 2 * k:
        raise ValidationError("need at least %d points for %d components, got %d"
                              % (2 * k, k, n))
    scale = float(np.mean(window.side_lengths)) if window is not None else \
        float(np.mean(points.max(axis=0) - points.min(axis=0)) or 1.0)
    ridge = 1e-6 * scale ** 2 * np.eye(d)
    log_noise_density = -np.log(window.volume) if (noise and window is not None) \
        else None
    if noise and window is None:
        raise ValidationError("noise component requires a window")

    means = _farthest_point_seeds(points, k, rng)
    base_cov = np.cov(points.T).reshape(d, d) / max(1.0, k ** (2.0 / d)) + ridge
    covs = np.array([base_cov.copy() for _ in range(k)])
    noise_weight = 0.1 if noise else 0.0
    weights = np.full(k, (1.0 - noise_weight) / k)

    trace = []
    reseeded = False
    it = 0
    converged = False
    prev_ll = -np.inf
    while it < _MAX_ITER and k > 0:
        it += 1
        # E-step
        log_resp = np.empty((n, k + (1 if noise else 0)))
        for j in range(k):
            log_resp[:, j] = np.log(weights[j]) + _log_gaussian_pdf(
                points, means[j], covs[j])
        if noise:
            log_resp[:, k] = np.log(max(noise_weight, 1e-300)) + log_noise_density
        log_total = logsumexp(log_resp, axis=1)
        ll = float(np.sum(log_total))
        trace.append(ll)
        resp = np.exp(log_resp - log_total[:, None])

        # M-step
        mass = resp[:, :k].sum(axis=0)
        empty = mass < 1e-8
        if empty.any():
            if not reseeded:
                reseeded = True
                d2 = np.min(
                    np.sum((points[:, None, :] - means[None, :, :]) ** 2, axis=2),
                    axis=1,
                )
                for j in np.flatnonzero(empty):
                    means[j] = points[int(np.argmax(d2))]
                    covs[j] = base_cov.copy()
                    mass[j] = 1.0
                weights = mass / mass.sum() * (1.0 - noise_weight)
                prev_ll = -np.inf
                continue
            keep = ~empty
            means, covs, weights, mass = (means[keep], covs[keep], weights[keep],
                                          mass[keep])
            k = int(keep.sum())
            prev_ll = -np.inf
            continue
        for j in range(k):
            r = resp[:, j]
            means[j] = r @ points / mass[j]
            diff = points - means[j]
            covs[j] = (r[:, None] * diff).T @ diff / mass[j] + ridge
        if noise:
            noise_weight = float(resp[:, k].mean())
        weights = mass / n

        if ll - prev_ll < _TOL * n and np.isfinite(prev_ll):
            converged = True
            break
        prev_ll = ll

    n_params = k * (d + d * (d + 1) // 2) + (k - 1) + (1 if noise else 0)
    bic = -2.0 * trace[-1] + n_params * np.log(n)
    components = [MixtureComponent(float(w), m.copy(), c.copy())
                  for w, m, c in zip(weights, means, covs)]
    return MixtureModel(components, float(noise_weight), trace[-1], float(bic),
                        it, converged, loglik_trace=trace)


def em_estimate_mu0(pattern, k_range, noise=False, rng=None):
    """Fit mixtures for each component count in k_range and pick by BIC.

    Inputs whose n points x sum(k_range) x d dimensions exceed the work
    budget of 4.5e6 are refused before any EM step.
    """
    if rng is None:
        raise ValidationError("an explicit RandomSource is required")
    n, d = pattern.points.shape
    work = n * sum(int(k) for k in k_range) * d
    if work > _MAX_EM_WORK:
        raise ValidationError(
            "EM work n * sum(k) * d = %d exceeds the budget of %d; fit fewer "
            "points or fewer components" % (work, _MAX_EM_WORK))
    best = None
    for k in k_range:
        model = fit_gaussian_mixture(pattern.points, int(k), rng,
                                     window=pattern.window, noise=noise)
        if best is None or model.bic < best.bic:
            best = model
    return best
