"""Analytic quantities of the model: Sibuya pmf/p.g.f., the coverage
integral, void probabilities, contact curves, and the count p.g.f.

The coverage integral I(r; alpha) = int mu0(B_r - x)^alpha dx is the
geometry term of the void probability G(r) = exp(-lambda I(r; alpha)).
`prepare_coverage` does its alpha-independent work once per mu0 and set of
radii: the uniform-interval mu0 has a closed form; the Gaussian case is done
by radial quadrature over ball masses tabulated once, in numpy, from a
Poisson-mixture series near the centre and an integral of the noncentral chi
density away from it; empirical clouds use exact event-point decomposition
in 1-D and Monte Carlo over in-ball counts drawn once above.

scipy.special serves only the Sibuya tail (`_log_survival`) and is imported
inside it, so that `import tasproc` and the coverage integrals load no scipy
module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
    from scipy.special import gammaln, poch
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
    `integrals(alpha)` returns the values, their absolute error bounds and
    their exact alpha-derivatives dI/dalpha, all from the same tables, and
    `values(alpha)` the values alone; alpha must lie in [alpha_min, 1].  A
    value or bound that is not finite, or a quadrature whose bound exceeds
    max(1e-6, 1e-6 |I|), raises ArithmeticError.
    """

    def __init__(self, method, alpha_min, evaluate):
        self.method = method
        self.alpha_min = alpha_min
        self._evaluate = evaluate

    def integrals(self, alpha):
        if not self.alpha_min <= alpha <= 1.0:
            raise ValidationError("alpha must lie in [%g, 1], the range the "
                                  "coverage was prepared for" % self.alpha_min)
        values, bounds, derivatives = self._evaluate(alpha)
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(bounds))):
            raise ArithmeticError("coverage integral is not finite: %s"
                                  % values)
        if self.method == "quadrature" and np.any(
                bounds > np.maximum(1e-6, 1e-6 * np.abs(values))):
            raise ArithmeticError(
                "quadrature failed its tolerance: achieved bound %g"
                % np.max(bounds))
        return values, bounds, derivatives

    def values(self, alpha):
        return self.integrals(alpha)[0]


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
    values, bounds, _ = coverage.integrals(alpha)
    return CoverageIntegral(float(values[0]), coverage.method, float(bounds[0]))


def coverage_values(mu0, radii, alpha):
    """I(r; alpha) over a radius array."""
    return prepare_coverage(mu0, radii, alpha_min=alpha).values(alpha)


@functools.lru_cache(maxsize=None)
def _legendre_rule(n):
    from numpy.polynomial.legendre import leggauss
    return leggauss(n)


def _gauss_legendre(n, lo, hi):
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel
    [lo, hi]; a new last axis runs over the nodes."""
    x, w = _legendre_rule(n)
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
        # A halfwidth near the float maximum overflows to inf (and the
        # derivative to inf or NaN), which PreparedCoverage rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            plateau = 2.0 * np.abs(h - radii) * np.where(
                radii <= h, (radii / h) ** alpha, 1.0)
            ramps = 2.0 * (2.0 * m) * (m / h) ** alpha / (alpha + 1.0)
            values = plateau + ramps
            derivatives = values * log_m - ramps / (alpha + 1.0)
        return values, np.zeros(radii.size), derivatives
    return "closed-form", closed_form


# Isotropic Gaussian

# Gauss-Legendre nodes per panel of the radial rule; the error bound compares
# it with the rule of twice as many nodes on the same panels.
_RADIAL_NODES = 8
# Bound on the elements of one term array of the ball-mass series.
_MAX_TERMS = 2 ** 20
# Panels in y of the far-field mass integral, as fractions of the y range,
# and the least t u (above 8 nu^2) at which it sums Hankel's series for I_nu.
_FAR_PANELS = np.array([0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])
_HANKEL_MIN = 50.0
# stirlerr(k) = log Gamma(k+1) - (k + 1/2) log k + k - log(2 pi)/2 at
# k = 0, 1/2, 1, ..., 15 (0 at k = 0), from mpmath at 40 digits:
#   [mp.loggamma(k + 1) - (k + 0.5) * mp.log(k) + k - mp.log(2 * mp.pi) / 2
#    for k in (mp.mpf(i) / 2 for i in range(1, 31))]
_STIRLERR_HALVES = np.array([
    0.0, 0.15342640972002736, 0.08106146679532726,
    0.05481412105191765, 0.0413406959554093, 0.03316287351993629,
    0.02767792568499834, 0.023746163656297496, 0.020790672103765093,
    0.018488450532673187, 0.016644691189821193, 0.015134973221917378,
    0.013876128823070748, 0.012810465242920227, 0.01189670994589177,
    0.011104559758206917, 0.010411265261972096, 0.009799416126158804,
    0.009255462182712733, 0.008768700134139386, 0.00833056343336287,
    0.00793411456431402, 0.007573675487951841, 0.007244554301320383,
    0.00694284010720953, 0.006665247032707682, 0.006408994188004207,
    0.006171712263039458, 0.0059513701127588475, 0.0057462165130101155,
    0.005554733551962801,
])


def _stirling(k):
    """log Gamma(k+1) - k log k + k = stirlerr(k) + log(2 pi k)/2, and 0 at
    k = 0; stirlerr comes from its asymptotic series above 15 and from the
    table for the multiples of 1/2 up to 15."""
    big = np.maximum(k, 15.5)
    w = 1.0 / (big * big)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - w / 1188) * w)
                        * w) * w) / big
    table = _STIRLERR_HALVES[np.minimum(np.rint(2.0 * k), 30).astype(int)]
    return np.where(k > 0.0, np.where(k > 15.0, series, table) + 0.5 * np.log(
        2.0 * np.pi * np.maximum(k, 0.5)), 0.0)


def _bd0(k, m):
    """k log(k/m) + m - k, k >= 0, m > 0, elementwise over broadcast arrays.

    Where |v| < 0.1, v = (k-m)/(k+m), it is summed as the series
    (k-m) v + 2k sum_i v^(2i+1)/(2i+1), which keeps full relative precision
    near k = m.
    """
    v = (k - m) / (k + m)
    w = v * v
    poly = 1.0 / 19.0
    for i in range(8, 0, -1):
        poly = poly * w + 1.0 / (2 * i + 1)
    out = (k - m) * v + 2.0 * k * v * w * poly
    far = np.abs(v) >= 0.1
    if np.any(far):
        k, m = (np.broadcast_to(x, out.shape)[far] for x in (k, m))
        out[far] = k * np.log(np.maximum(k, 1e-300) / m) + (m - k)
    return out


def _log_pois(k, m):
    """log(m^k e^-m / k!) in Loader's saddle-point form."""
    return -_stirling(k) - _bd0(k, m)


def _window(peak):
    """Half-width in j of the terms of the mass series kept around a peak."""
    return np.ceil(12.0 * np.sqrt(peak + 1.0) + 12.0)


def _gaussian_log_mass(u, rho, d):
    """log M(u) for M(u) = P(|X - u e| <= rho), X ~ N(0, I_d), elementwise
    over centre distances u >= 0 and radii rho > 0 that broadcast together.

    Centres deeper than sqrt(d) + 40 inside the ball have 1 - M < e^-800 and
    get log M = 0.  Where rho (u + sqrt(d)) < 1e-20, M = V_d rho^d phi_d(u)
    to double precision.  Otherwise a centre takes the far-field integral
    where its products t u stay above `_HANKEL_MIN` and the Poisson-mixture
    series elsewhere.
    """
    u, rho = np.broadcast_arrays(np.asarray(u, dtype=float),
                                 np.asarray(rho, dtype=float))
    out = np.zeros(u.shape)
    tiny = rho * (u + np.sqrt(d)) < 1e-20
    out[tiny] = (d * np.log(rho[tiny]) - 0.5 * d * np.log(2.0)
                 - math.lgamma(0.5 * d + 1.0) - 0.5 * u[tiny] ** 2)
    gap = u - rho
    t_min = rho - np.where(gap < 0.0, 0.0, _far_span(gap))
    active = ~tiny & (u > rho - np.sqrt(d) - 40.0)
    far = active & (t_min * u >= _HANKEL_MIN + 2.0 * (d - 2.0) ** 2)
    near = active & ~far
    if np.any(far):
        out[far] = _gaussian_log_mass_far(u[far], rho[far], d)
    if np.any(near):
        out[near] = _gaussian_log_mass_series(u[near], rho[near], d)
    return out


def _gaussian_log_mass_series(u, rho, d):
    """log M(u) from M = sum_j pois(j; lam) P(a + j, y), lam = u^2/2,
    y = rho^2/2, a = d/2, the Poisson mixture of central chi-square CDFs,
    with P(a + j, y) = sum_{n >= j} pois(a + n; y), over 1-D u and rho.

    Every term is positive and is summed in logs, so M may lie far below the
    smallest double.  log P is built once per radius on a j grid.  The terms
    are log-concave in j; each u sums those within its `_window` (rounded up
    to a multiple of 8) of its peak, which lies at or below
    min(lam, sqrt(lam y)), walking out from the peak by the ratios
    pois(j+1; lam) / pois(j; lam) = lam / (j+1).
    """
    u, rho = np.broadcast_arrays(u, rho)
    # At u = 0 only the j = 0 term is left; the floor keeps its logs finite.
    lam = np.maximum(0.5 * u * u, 1e-300)
    radii, row = np.unique(rho, return_inverse=True)
    y, a = 0.5 * radii * radii, 0.5 * d
    peak_hi = np.zeros(radii.size)
    np.maximum.at(peak_hi, row, np.minimum(lam, np.sqrt(lam * y[row])))
    # The computed peaks may pass the bound by one.
    top = np.max(np.maximum(peak_hi + _window(peak_hi + 1.0) + 19.0,
                            np.ceil(y)) + np.ceil(40.0 * np.sqrt(y + 1.0)))
    n = np.arange(top + 60.0)
    log_p = np.empty((radii.size, n.size))
    step = max(1, _MAX_TERMS // n.size)
    for start in range(0, radii.size, step):
        log_p[start:start + step] = np.logaddexp.accumulate(_log_pois(
            a + n, y[start:start + step, None])[:, ::-1], axis=1)[:, ::-1]
    order = np.argsort(row, kind="stable")
    ends = np.searchsorted(row[order], np.arange(radii.size + 1))
    peaks = np.empty(u.size, dtype=int)
    log_n = np.log(n[1:])
    for r in range(radii.size):
        nodes = order[ends[r]:ends[r + 1]]
        peaks[nodes] = np.searchsorted(log_n - np.diff(log_p[r]),
                                       np.log(lam[nodes]))

    def side_sum(sign, reach):
        """Sum over k = 1..reach, rounded up to a multiple of 8, of the terms
        at j = peak + sign k, relative to the term at the peak."""
        widths = 8 * np.ceil(reach / 8.0).astype(int)
        total = np.zeros(u.size)
        # A plain np.unique would import numpy.ma.
        for width in sorted(set(widths[widths > 0].tolist())):
            steps = np.arange(1, width + 1)
            same = np.flatnonzero(widths == width)
            chunk = max(1, _MAX_TERMS // width)
            for start in range(0, same.size, chunk):
                i = same[start:start + chunk, None]
                p, m, r = peaks[i], lam[i], row[i]
                j = p + sign * steps
                # log pois(j; lam) - log pois(p; lam), one ratio at a time.
                with np.errstate(divide="ignore"):
                    ratios = np.log(m / (p + steps) if sign > 0
                                    else np.maximum(j + 1, 0) / m)
                terms = (np.cumsum(ratios, axis=1) + log_p[r, np.maximum(j, 0)]
                         - log_p[r, p])
                total[i[:, 0]] = np.sum(np.exp(terms), axis=1)
        return total

    window = _window(peaks)
    rest = side_sum(1, window) + side_sum(-1, np.minimum(window, peaks))
    return _log_pois(peaks, lam) + log_p[row, peaks] + np.log1p(rest)


def _far_span(gap):
    """The y range of the far-field integral: where y |gap| + y^2/2 = 50."""
    g = np.abs(gap)
    return 100.0 / (np.sqrt(g * g + 100.0) + g)


def _gaussian_log_mass_far(u, rho, d):
    """log M(u) where every t u below is at least 8 nu^2 + `_HANKEL_MIN`.

    The density of |X - u e| is f(t) = (t/u)^(nu+1/2) S(t u) phi(t - u),
    nu = d/2 - 1, with S(z) = sqrt(2 pi z) e^-z I_nu(z).  A centre outside
    the ball integrates f inward from the boundary, t = rho - y; one inside
    integrates the mass outside, t = rho + y, and takes log1p(-it).  Either
    way f carries exp(-gap^2/2 - y |gap| - y^2/2), gap = u - rho, and y runs
    to where that exponent has fallen by 50.  There Hankel's asymptotic
    series gives S to double precision.
    """
    u, rho = np.broadcast_arrays(u, rho)
    nu = 0.5 * d - 1.0
    gap = u - rho
    g = np.abs(gap)
    y_max = _far_span(gap)
    y, w = _gauss_legendre(16, y_max[:, None] * _FAR_PANELS[:-1],
                           y_max[:, None] * _FAR_PANELS[1:])
    # Axes of y: centre, panel, node.
    side = np.where(gap < 0.0, 1.0, -1.0)
    uu, rr, gg, side = (x[:, None, None] for x in (u, rho, g, side))
    t = rr + side * y
    term = series = np.ones_like(t)
    for k in range(1, 60):
        term = term * ((2 * k - 1) ** 2 - 4.0 * nu * nu) / (8.0 * k * t * uu)
        series = series + term
        if np.max(np.abs(term)) < 1e-17:
            break
    f = series * np.exp((nu + 0.5) * np.log(t / uu) - y * gg - 0.5 * y * y)
    tail = np.sum(w * f, axis=(1, 2)) / np.sqrt(2.0 * np.pi)
    return np.where(gap < 0.0, np.log1p(-np.exp(-0.5 * g * g) * tail),
                    -0.5 * g * g + np.log(tail))


def _sphere_surface(d):
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


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
                np.sum(w_fine * log_fine * powers, axis=1))
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
                    np.array([np.sum(t * log_mass) for t, log_mass in terms]))
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
                vols * (hists @ (f * log_mass)) / _MC_SAMPLES)
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
