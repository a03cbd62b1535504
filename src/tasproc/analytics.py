"""Analytic quantities of the model: Sibuya pmf/p.g.f., the coverage
integral, void probabilities, contact curves, and the count p.g.f.

The coverage integral I(r; alpha) = int mu0(B_r - x)^alpha dx is the
geometry term of the void probability G(r) = exp(-lambda I(r; alpha)).
`prepare_coverage` does its alpha-independent work once per mu0 and set of
radii: the uniform-interval mu0 has a closed form; the Gaussian case is done
by radial quadrature over ball masses tabulated once; empirical clouds use
exact event-point decomposition in 1-D and Monte Carlo over in-ball counts
drawn once above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, gammaln, ive, poch, roots_legendre

from .model import (
    ContactCurve,
    EmpiricalCloud,
    IsotropicGaussian,
    UniformInterval,
    ValidationError,
)

__all__ = [
    "CoverageIntegral",
    "PreparedCoverage",
    "prepare_coverage",
    "sibuya_pmf",
    "sibuya_survival",
    "sibuya_pgf",
    "coverage_integral",
    "coverage_values",
    "analytic_contact",
    "count_pgf",
    "thinned_contact_analytic",
]

# ---------------------------------------------------------------------------
# Sibuya distribution

def _log_survival(n, alpha):
    """log P{nu > n} = log prod_{k<=n} (1 - alpha/k)
    = log(Gamma(n+1-alpha) / Gamma(n+1)) - log Gamma(1-alpha), alpha < 1.

    The Pochhammer ratio keeps -alpha log n exact for large n, where a
    difference of two gammaln values of order n log n cancels.
    """
    return np.log(poch(n + 1.0, -alpha)) - gammaln(1.0 - alpha)


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
        out = alpha / n_arr * np.exp(_log_survival(n_arr - 1.0, alpha))
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
    return float(np.exp(_log_survival(float(n), alpha)))


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
    method: str  # "closed-form", "quadrature" or "monte-carlo"
    abs_error_bound: float = 0.0


class PreparedCoverage:
    """The coverage integrals I(r_i; alpha) of one mu0 on fixed radii.

    Made by `prepare_coverage`, which does the alpha-independent work once.
    `integrals(alpha)` returns the values and their absolute error bounds,
    `values(alpha)` the values alone, and `values_and_derivatives(alpha)` the
    values with their exact alpha-derivatives dI/dalpha, from the same
    tables (computed only when asked); alpha must lie in [alpha_min, 1].  A
    quadrature whose bound exceeds max(1e-6, 1e-6 |I|) raises ArithmeticError.
    """

    def __init__(self, method, alpha_min, evaluate):
        self.method = method
        self.alpha_min = alpha_min
        self._evaluate = evaluate

    def _checked(self, alpha):
        """(values, bounds, derivatives) at alpha; `derivatives` is a
        function of no arguments."""
        if not self.alpha_min <= alpha <= 1.0:
            raise ValidationError("alpha must lie in [%g, 1], the range the "
                                  "coverage was prepared for" % self.alpha_min)
        values, bounds, derivatives = self._evaluate(alpha)
        if self.method == "quadrature" and np.any(
                bounds > np.maximum(1e-6, 1e-6 * np.abs(values))):
            raise ArithmeticError(
                "quadrature failed its tolerance: achieved bound %g"
                % np.max(bounds))
        return values, bounds, derivatives

    def integrals(self, alpha):
        return self._checked(alpha)[:2]

    def values(self, alpha):
        return self._checked(alpha)[0]

    def values_and_derivatives(self, alpha):
        values, _, derivatives = self._checked(alpha)
        return values, derivatives()


def prepare_coverage(mu0, radii, alpha_min=0.01):
    """Prepare I(r; alpha) = int mu0(B_r - x)^alpha dx over R^d for each
    radius in `radii` and any alpha in [alpha_min, 1].

    Methods by mu0: a uniform interval has a closed form; a Gaussian is
    integrated radially by Gauss-Legendre quadrature over ball masses
    tabulated once; a 1-D empirical cloud is exact by event decomposition, a
    higher-dimensional one is Monte Carlo over in-ball counts drawn once.
    Each method differentiates its own sum in alpha, term by term.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if not np.all(radii > 0):
        raise ValidationError("radius must be > 0")
    if not 0.0 < alpha_min <= 1.0:
        raise ValidationError("alpha must lie in (0, 1]")
    prepare = _PREPARERS.get(type(mu0))
    if prepare is None:
        raise ValidationError("unsupported cluster distribution %r" % (mu0,))
    method, evaluate = prepare(mu0, radii, alpha_min)
    return PreparedCoverage(method, alpha_min, evaluate)


def coverage_integral(mu0, radius, alpha):
    """I(r; alpha) = int mu0(B_r - x)^alpha dx over R^d."""
    coverage = prepare_coverage(mu0, [radius], alpha_min=alpha)
    values, bounds = coverage.integrals(alpha)
    return CoverageIntegral(float(values[0]), coverage.method, float(bounds[0]))


def coverage_values(mu0, radii, alpha):
    """I(r; alpha) over a radius array."""
    return prepare_coverage(mu0, radii, alpha_min=alpha).values(alpha)


def _gauss_legendre(n, lo, hi):
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel
    [lo, hi]; a new last axis runs over the nodes."""
    x, w = roots_legendre(n)
    half = 0.5 * (hi - lo)[..., None]
    return lo[..., None] + half * (1.0 + x), half * w


# Uniform interval

def _prepare_uniform(mu0, radii, alpha_min):
    """Closed form of int (|[x-r, x+r] cap [-h, h]| / 2h)^alpha dx.

    The overlap is 2*min(r, h) on the inner plateau and decays linearly to 0
    over the two ramps of length 2*min(r, h); each ramp integrates to
    2*min(r,h)/( (alpha+1) * (2h)^alpha ) * (2*min(r,h))^alpha.  Both terms
    carry (m/h)^alpha with m = min(r, h) (the plateau only where r <= h, so
    m = r) and the ramps also 1/(alpha+1), which gives dI/dalpha.
    """
    h = mu0.halfwidth
    m = np.minimum(radii, h)
    log_m = np.log(m / h)

    def closed_form(alpha):
        plateau = 2.0 * np.abs(h - radii) * np.where(radii <= h,
                                                     (radii / h) ** alpha, 1.0)
        ramps = 2.0 * (2.0 * m) * (m / h) ** alpha / (alpha + 1.0)
        values = plateau + ramps
        return (values, np.zeros(radii.size),
                lambda: values * log_m - ramps / (alpha + 1.0))
    return "closed-form", closed_form


# Isotropic Gaussian

# Gauss-Legendre nodes per panel of the radial rule; the error bound compares
# it with the rule of twice as many nodes on the same panels.
_RADIAL_NODES = 8
# Panels in y of the Bessel-form mass, as fractions of the y range.
_BESSEL_PANELS = np.array([0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])


def _gaussian_log_mass(u, rho, d):
    """log M(u) for M(u) = P(|X - u e| <= rho), X ~ N(0, I_d), elementwise.

    chndtr matches the exact mass to 1e-13 relative down to about 1e-45, then
    drifts (relative error 1e-5 at 4e-48 for d = 3) and underflows to 0, so
    masses under 1e-30 come from the Bessel form instead.
    """
    u, rho = np.broadcast_arrays(u, rho)
    mass = chndtr(rho * rho, d, u * u)
    far = mass < 1e-30
    out = np.log(np.where(far, 1.0, mass))
    out[far] = _gaussian_log_mass_bessel(u[far], rho[far], d)
    return out


def _gaussian_log_mass_bessel(u, rho, d):
    """log M(u) from M(u) = int_0^rho t (t/u)^nu ive(nu, t u) e^{-(u-t)^2/2} dt,
    nu = d/2 - 1, with e^{-(u-rho)^2/2} taken out so that M may lie far below
    the smallest double.

    With y = rho - t the rest of the integrand carries e^{-y (u-rho) - y^2/2};
    y runs to where that exponent reaches -50, on panels graded towards 0.
    """
    nu = 0.5 * d - 1.0
    gap = u - rho
    y_max = np.minimum(rho, 100.0 / (np.sqrt(gap * gap + 100.0) + gap))
    y, w = _gauss_legendre(10, y_max[:, None] * _BESSEL_PANELS[:-1],
                           y_max[:, None] * _BESSEL_PANELS[1:])
    t = rho[:, None, None] - y
    uu = u[:, None, None]
    f = t * np.exp(nu * np.log(t / uu) - y * gap[:, None, None] - 0.5 * y * y)
    f *= ive(nu, t * uu)
    return -0.5 * gap * gap + np.log(np.sum(w * f, axis=(1, 2)))


def _sphere_surface(d):
    return 2.0 * np.pi ** (d / 2.0) / np.exp(gammaln(d / 2.0))


def _prepare_gaussian(mu0, radii, alpha_min):
    """I = surf sigma^d int_0^inf M(u)^alpha u^(d-1) du in units of sigma,
    with M(u) the mass of the ball of radius rho = r / sigma at distance u.

    The panels break at rho, are graded towards it from both sides (widths 1,
    2, 4, ... in sigma) and end at the reach where M^alpha_min has fallen
    below e^-40.  log M is tabulated once on the nodes of both rules, so an
    alpha costs two exponentials per node.
    """
    d, sigma = mu0.dim, mu0.sigma
    rho = (radii / sigma)[:, None]
    k = np.arange(4.0)
    inner = np.maximum(rho - 2.0 ** k, rho / 2.0 ** (k + 1.0))[:, ::-1]
    reach = max(12.0, np.sqrt(80.0 / alpha_min) + np.sqrt(2.0 * d))
    outer = np.append(2.0 ** np.arange(np.ceil(np.log2(reach))), reach)
    breaks = np.hstack([np.zeros_like(rho), inner, rho, rho + outer])
    scale = _sphere_surface(d) * sigma ** d
    rules = []
    for n in (_RADIAL_NODES, 2 * _RADIAL_NODES):
        u, w = _gauss_legendre(n, breaks[:, :-1], breaks[:, 1:])
        u, w = u.reshape(rho.size, -1), w.reshape(rho.size, -1)
        rules.append((_gaussian_log_mass(u, rho, d), scale * w * u ** (d - 1)))
    (log_coarse, w_coarse), (log_fine, w_fine) = rules
    # Rounding allowance: one ulp of the value per node summed.
    ulps = w_fine.shape[1] * np.finfo(float).eps

    def quadrature(alpha):
        coarse = np.sum(w_coarse * np.exp(alpha * log_coarse), axis=1)
        powers = np.exp(alpha * log_fine)
        fine = np.sum(w_fine * powers, axis=1)
        return (fine, np.abs(fine - coarse) + ulps * fine,
                lambda: np.sum(w_fine * log_fine * powers, axis=1))
    return "quadrature", quadrature


# Empirical cloud

_MC_SAMPLES = 200_000


def _empirical_pieces_1d(mu0, radius):
    """Lengths and masses of the pieces on which mu0(B_r - x) is constant."""
    y = np.sort(mu0.points[:, 0])
    events = np.unique(np.concatenate([-y - radius, -y + radius]))
    mids = 0.5 * (events[:-1] + events[1:])
    # mass at x: fraction of cloud points y in [-x - r, -x + r]
    inside = (np.searchsorted(y, radius - mids, side="right")
              - np.searchsorted(y, -radius - mids, side="left"))
    return np.diff(events), inside / y.size


def _empirical_counts_mc(mu0, radius):
    """Volume of the sampled box and the histogram, over uniform samples x,
    of the number of cloud points y with ||y + x|| <= r."""
    d = mu0.dimension
    pts = mu0.points
    reach = radius + mu0.effective_radius
    lo = np.full(d, -reach)
    hi = np.full(d, reach)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0)))
    x = gen.uniform(lo, hi, size=(_MC_SAMPLES, d))
    counts = np.empty(_MC_SAMPLES, dtype=np.int64)
    chunk = max(1, 10_000_000 // max(1, pts.shape[0]))
    for start in range(0, _MC_SAMPLES, chunk):
        block = x[start:start + chunk]
        d2 = np.sum((pts[None, :, :] + block[:, None, :]) ** 2, axis=2)
        counts[start:start + chunk] = (d2 <= radius ** 2).sum(axis=1)
    return float(np.prod(hi - lo)), np.bincount(counts,
                                                minlength=pts.shape[0] + 1)


def _log_or_zero(mass):
    """log mass, with 0 where mass = 0: there mass^alpha and its
    alpha-derivative mass^alpha log mass are both 0."""
    return np.log(np.where(mass > 0.0, mass, 1.0))


def _prepare_empirical(mu0, radii, alpha_min):
    if mu0.dimension == 1:
        pieces = [(lengths, mass, _log_or_zero(mass)) for lengths, mass in
                  (_empirical_pieces_1d(mu0, r) for r in radii)]

        def exact(alpha):
            terms = [(lengths * mass ** alpha, log_mass)
                     for lengths, mass, log_mass in pieces]
            return (np.array([np.sum(t) for t, _ in terms]),
                    np.zeros(radii.size),
                    lambda: np.array([np.sum(t * log_mass)
                                      for t, log_mass in terms]))
        return "closed-form", exact

    n = mu0.points.shape[0]
    vols, hists = (np.array(a) for a in zip(
        *(_empirical_counts_mc(mu0, r) for r in radii)))
    mass = np.arange(n + 1) / n
    log_mass = _log_or_zero(mass)

    def monte_carlo(alpha):
        # Plain Monte Carlo mean of mass^alpha, with three standard errors.
        f = mass ** alpha
        mean = hists @ f / _MC_SAMPLES
        var = np.sum(hists * (f - mean[:, None]) ** 2, axis=1) / (_MC_SAMPLES - 1)
        return (vols * mean, 3.0 * vols * np.sqrt(var / _MC_SAMPLES),
                lambda: vols * (hists @ (f * log_mass)) / _MC_SAMPLES)
    return "monte-carlo", monte_carlo


_PREPARERS = {
    UniformInterval: _prepare_uniform,
    IsotropicGaussian: _prepare_gaussian,
    EmpiricalCloud: _prepare_empirical,
}


# ---------------------------------------------------------------------------
# Contact curves and count p.g.f.

def analytic_contact(params, radii):
    """G(r) = exp(-lambda * I(r; alpha)) on an ascending radius grid: the
    p = 1 slice of `thinned_contact_analytic`."""
    return thinned_contact_analytic(params, 1.0, radii)


def count_pgf(params, radius, z):
    """E z^{Phi(B_r)} = exp(-lambda (1-z)^alpha I(r; alpha))."""
    z = np.asarray(z, dtype=float)
    if np.any((z < 0) | (z > 1)):
        raise ValidationError("z must lie in [0, 1]")
    cov = coverage_integral(params.mu0, radius, params.alpha).value
    out = np.exp(-params.lam * (1.0 - z) ** params.alpha * cov)
    return float(out) if out.ndim == 0 else out


def thinned_contact_analytic(params, p, radii):
    """Contact curve of the p-thinned process: lambda becomes lambda * p^alpha."""
    if not 0.0 < p <= 1.0:
        raise ValidationError("retention probability must lie in (0, 1]")
    radii = np.asarray(radii, dtype=float)
    cov = coverage_values(params.mu0, radii, params.alpha)
    return ContactCurve(radii, np.exp(-params.lam * p ** params.alpha * cov))
