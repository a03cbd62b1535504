"""Analytic quantities of the model: Sibuya pmf/p.g.f., the coverage
integral, void probabilities, contact curves, and the count p.g.f.

The coverage integral I(r; alpha) = int mu0(B_r - x)^alpha dx is the
geometry term of the void probability G(r) = exp(-lambda I(r; alpha)).
For the uniform-interval mu0 it has a closed form; the Gaussian case is
done by radial quadrature; empirical clouds use exact event-point
decomposition in 1-D and plain Monte Carlo above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gammaln
from scipy.stats import chi2, ncx2

from .model import (
    ContactCurve,
    EmpiricalCloud,
    IsotropicGaussian,
    UniformInterval,
    ValidationError,
)

__all__ = [
    "CoverageIntegral",
    "sibuya_pmf",
    "sibuya_survival",
    "sibuya_pgf",
    "coverage_integral",
    "coverage_values",
    "analytic_contact",
    "count_pgf",
    "thinned_contact_analytic",
]

QUAD_TOL = 1e-10


# ---------------------------------------------------------------------------
# Sibuya distribution

def sibuya_pmf(alpha, n):
    """P{nu = n} = prod_{k=1}^{n-1} (1 - alpha/k) * alpha/n, n = 1, 2, ...

    n may be a scalar or an array; the return type matches.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValidationError("alpha must lie in (0, 1]")
    n_arr = np.asarray(n)
    if np.any(n_arr < 1):
        raise ValidationError("Sibuya support starts at n = 1")
    if alpha == 1.0:
        out = np.where(n_arr == 1, 1.0, 0.0)
    else:
        # alpha * Gamma(n - alpha) / (Gamma(1 - alpha) * Gamma(n + 1)), in log
        out = alpha * np.exp(gammaln(n_arr - alpha) - gammaln(1.0 - alpha)
                             - gammaln(n_arr + 1.0))
    return float(out) if np.isscalar(n) else out


def sibuya_survival(alpha, n):
    """P{nu > n} = prod_{k=1}^{n} (1 - alpha/k)."""
    if not 0.0 < alpha <= 1.0:
        raise ValidationError("alpha must lie in (0, 1]")
    n = int(n)
    if n < 0:
        raise ValidationError("n must be >= 0")
    if n == 0:
        return 1.0
    if alpha == 1.0:
        return 0.0
    return float(np.exp(gammaln(n + 1.0 - alpha) - gammaln(1.0 - alpha)
                        - gammaln(n + 1.0)))


def sibuya_pgf(alpha, t):
    """E t^nu = 1 - (1 - t)^alpha for t in [0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise ValidationError("alpha must lie in (0, 1]")
    t = np.asarray(t, dtype=float)
    if np.any((t < 0) | (t > 1)):
        raise ValidationError("t must lie in [0, 1]")
    out = 1.0 - (1.0 - t) ** alpha
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Coverage integral

@dataclass(frozen=True)
class CoverageIntegral:
    value: float
    method: str  # "closed-form" or "quadrature"
    abs_error_bound: float = 0.0


def _uniform_coverage(h, r, alpha):
    """Closed form of int (|[x-r, x+r] cap [-h, h]| / 2h)^alpha dx, vectorized in r.

    The overlap is 2*min(r, h) on the inner plateau and decays linearly to 0
    over the two ramps of length 2*min(r, h); each ramp integrates to
    2*min(r,h)/( (alpha+1) * (2h)^alpha ) * (2*min(r,h))^alpha.
    """
    r = np.asarray(r, dtype=float)
    m = np.minimum(r, h)
    plateau = 2.0 * np.abs(h - r) * np.where(r <= h, (r / h) ** alpha, 1.0)
    ramps = 2.0 * (2.0 * m) * (m / h) ** alpha / (alpha + 1.0)
    return plateau + ramps


def _gaussian_ball_mass(s, r, sigma, d):
    """mu0(B_r(x)) for |x| = s under an isotropic N(0, sigma^2 I_d)."""
    s = np.asarray(s, dtype=float)
    q = (r / sigma) ** 2
    nc = (s / sigma) ** 2
    out = np.where(nc == 0.0, chi2.cdf(q, d), ncx2.cdf(q, d, np.maximum(nc, 1e-300)))
    return out


def _sphere_surface(d):
    return 2.0 * np.pi ** (d / 2.0) / np.exp(gammaln(d / 2.0))


def _gaussian_coverage_fullspace(mu0, radius, alpha):
    d, sigma = mu0.dim, mu0.sigma
    s_max = radius + sigma * max(12.0, np.sqrt(80.0 / alpha) + np.sqrt(2.0 * d))

    def integrand(s):
        return _gaussian_ball_mass(s, radius, sigma, d) ** alpha * s ** (d - 1)

    val, err = integrate.quad(integrand, 0.0, s_max, epsabs=QUAD_TOL,
                              epsrel=1e-12, limit=300, points=[radius])
    surf = _sphere_surface(d)
    return surf * val, surf * err


def _gaussian_coverage_window(mu0, radius, alpha, window):
    d, sigma = mu0.dim, mu0.sigma
    reach = radius + 12.0 * sigma
    if d == 1:
        lo = max(window.lower[0], -reach)
        hi = min(window.upper[0], reach)
        if hi <= lo:
            return 0.0, 0.0

        def integrand(x):
            return _gaussian_ball_mass(abs(x), radius, sigma, d) ** alpha

        return integrate.quad(integrand, lo, hi, epsabs=QUAD_TOL, limit=300)
    if d == 2:
        xlo = max(window.lower[0], -reach)
        xhi = min(window.upper[0], reach)
        ylo = max(window.lower[1], -reach)
        yhi = min(window.upper[1], reach)
        if xhi <= xlo or yhi <= ylo:
            return 0.0, 0.0

        def integrand(y, x):
            return _gaussian_ball_mass(np.hypot(x, y), radius, sigma, d) ** alpha

        return integrate.dblquad(integrand, xlo, xhi, ylo, yhi, epsabs=1e-8)
    raise ValidationError("window-domain Gaussian coverage supports d <= 2")


def _empirical_coverage_1d(mu0, radius, alpha, window):
    """Exact 1-D integral: mu0(B_r - x) is piecewise constant in x."""
    y = mu0.points[:, 0]
    n = y.size
    events = np.concatenate([-y - radius, -y + radius])
    if window is not None:
        events = np.clip(events, window.lower[0], window.upper[0])
        events = np.concatenate([events, [window.lower[0], window.upper[0]]])
    events = np.unique(events)
    if events.size < 2:
        return 0.0
    mids = 0.5 * (events[:-1] + events[1:])
    # mass at x: fraction of cloud points with |y + x| <= r
    mass = (np.abs(y[None, :] + mids[:, None]) <= radius).sum(axis=1) / n
    lengths = np.diff(events)
    return float(np.sum(lengths * np.where(mass > 0, mass, 0.0) ** alpha))


def _empirical_coverage_mc(mu0, radius, alpha, window, n_samples=200_000):
    d = mu0.dimension
    reach = radius + mu0.effective_radius
    lo = np.full(d, -reach)
    hi = np.full(d, reach)
    if window is not None:
        lo = np.maximum(lo, window.lower)
        hi = np.minimum(hi, window.upper)
        if np.any(hi <= lo):
            return 0.0, 0.0
    vol = float(np.prod(hi - lo))
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0)))
    x = gen.uniform(lo, hi, size=(n_samples, d))
    # mass at x: fraction of cloud points y with ||y + x|| <= r
    vals = np.empty(n_samples)
    pts = mu0.points
    chunk = max(1, 10_000_000 // max(1, pts.shape[0]))
    for start in range(0, n_samples, chunk):
        block = x[start:start + chunk]
        d2 = np.sum((pts[None, :, :] + block[:, None, :]) ** 2, axis=2)
        vals[start:start + chunk] = (d2 <= radius ** 2).mean(axis=1)
    f = vals ** alpha
    mean = float(f.mean())
    se = float(f.std(ddof=1) / np.sqrt(n_samples))
    return vol * mean, 3.0 * vol * se


def coverage_integral(mu0, radius, alpha, window=None):
    """I(r; alpha) = int mu0(B_r - x)^alpha dx over R^d, or over `window`."""
    if radius <= 0:
        raise ValidationError("radius must be > 0")
    if not 0.0 < alpha <= 1.0:
        raise ValidationError("alpha must lie in (0, 1]")

    if isinstance(mu0, UniformInterval):
        if window is None:
            return CoverageIntegral(float(_uniform_coverage(mu0.halfwidth, radius,
                                                            alpha)),
                                    "closed-form")
        h = mu0.halfwidth
        lo = max(window.lower[0], -(h + radius))
        hi = min(window.upper[0], h + radius)
        if hi <= lo:
            return CoverageIntegral(0.0, "closed-form")

        def integrand(x):
            overlap = max(0.0, min(h, x + radius) - max(-h, x - radius))
            return (overlap / (2.0 * h)) ** alpha

        pts = [p for p in (-h - radius, -abs(h - radius), abs(h - radius), h + radius)
               if lo < p < hi]
        val, err = integrate.quad(integrand, lo, hi, epsabs=QUAD_TOL,
                                  limit=200, points=pts or None)
        return CoverageIntegral(val, "quadrature", err)

    if isinstance(mu0, IsotropicGaussian):
        if window is None:
            val, err = _gaussian_coverage_fullspace(mu0, radius, alpha)
        else:
            val, err = _gaussian_coverage_window(mu0, radius, alpha, window)
        if err > max(1e-6, 1e-6 * abs(val)):
            raise ArithmeticError(
                "quadrature failed its tolerance: achieved bound %g" % err
            )
        return CoverageIntegral(val, "quadrature", err)

    if isinstance(mu0, EmpiricalCloud):
        if mu0.dimension == 1:
            return CoverageIntegral(
                _empirical_coverage_1d(mu0, radius, alpha, window), "closed-form"
            )
        val, bound = _empirical_coverage_mc(mu0, radius, alpha, window)
        return CoverageIntegral(val, "quadrature", bound)

    raise ValidationError("unsupported cluster distribution %r" % (mu0,))


def coverage_values(mu0, radii, alpha, window=None):
    """Vectorized I(r; alpha) over a radius array (fast path for fitting)."""
    radii = np.asarray(radii, dtype=float)
    if isinstance(mu0, UniformInterval) and window is None:
        return _uniform_coverage(mu0.halfwidth, radii, alpha)
    return np.array([coverage_integral(mu0, r, alpha, window=window).value
                     for r in radii])


# ---------------------------------------------------------------------------
# Contact curves and count p.g.f.

def analytic_contact(params, radii, window=None):
    """G(r) = exp(-lambda * I(r; alpha)) on an ascending radius grid."""
    radii = np.asarray(radii, dtype=float)
    values = np.exp(-params.lam * coverage_values(params.mu0, radii, params.alpha,
                                                  window=window))
    return ContactCurve(radii, values)


def count_pgf(params, radius, z, window=None):
    """E z^{Phi(B_r)} = exp(-lambda (1-z)^alpha I(r; alpha))."""
    z = np.asarray(z, dtype=float)
    if np.any((z < 0) | (z > 1)):
        raise ValidationError("z must lie in [0, 1]")
    cov = coverage_integral(params.mu0, radius, params.alpha, window=window).value
    out = np.exp(-params.lam * (1.0 - z) ** params.alpha * cov)
    return float(out) if out.ndim == 0 else out


def thinned_contact_analytic(params, p, radii, window=None):
    """Contact curve of the p-thinned process: lambda becomes lambda * p^alpha."""
    if not 0.0 < p <= 1.0:
        raise ValidationError("retention probability must lie in (0, 1]")
    radii = np.asarray(radii, dtype=float)
    cov = coverage_values(params.mu0, radii, params.alpha, window=window)
    return ContactCurve(radii, np.exp(-params.lam * p ** params.alpha * cov))
