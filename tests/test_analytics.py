import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import chdtr, chndtr

from tasproc import (
    EmpiricalCloud,
    IsotropicGaussian,
    TasParameters,
    UniformInterval,
    ValidationError,
    analytic_contact,
    count_pgf,
    coverage_integral,
    coverage_values,
    prepare_coverage,
    sibuya_pgf,
    sibuya_pmf,
    sibuya_survival,
    thinned_contact_analytic,
)
from tasproc.analytics import _empirical_pieces_1d, _gauss_legendre


def _gaussian_ball_mass(s, r, sigma, d):
    """mu0(B_r(x)) for |x| = s under an isotropic N(0, sigma^2 I_d)."""
    s = np.asarray(s, dtype=float)
    q = (r / sigma) ** 2
    nc = (s / sigma) ** 2
    return np.where(nc == 0.0, chdtr(d, q), chndtr(q, d, nc))


class TestSibuyaPmf:
    def test_first_cell_is_alpha(self):
        assert sibuya_pmf(0.5, 1) == pytest.approx(0.5, abs=1e-12)

    def test_alpha_one_degenerate(self):
        assert sibuya_pmf(1.0, 1) == 1.0
        assert sibuya_pmf(1.0, 2) == 0.0

    def test_product_evaluation(self):
        # (1 - 0.5/1) * 0.5/2
        assert sibuya_pmf(0.5, 2) == pytest.approx(0.125, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            sibuya_pmf(0.5, 0)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
    def test_partial_sum_identity(self, alpha):
        # 1 - sum_{n<=N} pmf(n) = prod_{k<=N} (1 - alpha/k)
        pmf = np.array([sibuya_pmf(alpha, n) for n in range(1, 1001)])
        partial = np.cumsum(pmf)
        prods = np.cumprod(1.0 - alpha / np.arange(1, 1001))
        assert np.max(np.abs((1.0 - partial) - prods)) < 1e-12

    def test_survival_matches_product(self):
        for alpha in (0.3, 0.9):
            prod = np.prod(1.0 - alpha / np.arange(1, 51))
            assert sibuya_survival(alpha, 50) == pytest.approx(prod, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 0.9])
    def test_survival_far_tail_is_power_law(self, alpha):
        # Gamma(n+1-alpha)/Gamma(n+1) = n^-alpha (1 + O(1/n)).
        n = 10 ** 15
        law = n ** -alpha / math.gamma(1.0 - alpha)
        assert sibuya_survival(alpha, n) == pytest.approx(law, rel=1e-12)
        assert sibuya_pmf(alpha, n) == pytest.approx(alpha / n * law, rel=1e-12)


class TestSibuyaPgf:
    def test_endpoints(self):
        for alpha in (0.2, 0.7, 1.0):
            assert sibuya_pgf(alpha, 0.0) == 0.0
            assert sibuya_pgf(alpha, 1.0) == 1.0

    def test_direct_value(self):
        assert sibuya_pgf(0.5, 0.5) == pytest.approx(1 - 0.5 ** 0.5, abs=1e-12)

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
    def test_matches_pmf_series(self, alpha, t):
        n_max = 5000
        series = sum(sibuya_pmf(alpha, n) * t ** n for n in range(1, n_max + 1))
        tail = sibuya_survival(alpha, n_max) * t ** n_max
        assert abs(sibuya_pgf(alpha, t) - series) < 1e-8 + tail


class TestCoverageIntegral:
    def test_uniform_alpha_one_is_ball_volume(self):
        # alpha = 1 gives int mu0(B - x) dx = |B| by Fubini
        res = coverage_integral(UniformInterval(1.0), 1.0, 1.0)
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.method == "closed-form"
        assert res.abs_error_bound == 0.0

    def test_uniform_half_alpha_exact(self):
        res = coverage_integral(UniformInterval(1.0), 1.0, 0.5)
        assert res.value == pytest.approx(8.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("radius", [0.4, 1.0, 2.5])
    def test_uniform_closed_form_vs_quadrature_oracle(self, alpha, radius):
        h = 1.0

        def integrand(x):
            overlap = max(0.0, min(h, x + radius) - max(-h, x - radius))
            return (overlap / (2 * h)) ** alpha

        oracle, _ = integrate.quad(integrand, -(h + radius), h + radius,
                                   limit=400,
                                   points=[-abs(h - radius), abs(h - radius)])
        value = coverage_integral(UniformInterval(h), radius, alpha).value
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_gaussian_quadrature_self_consistency(self):
        mu0 = IsotropicGaussian(2, 1.0)
        a = coverage_integral(mu0, 1.0, 0.7).value

        def integrand(s):
            return _gaussian_ball_mass(s, 1.0, 1.0, 2) ** 0.7 * s

        b, _ = integrate.quad(integrand, 0.0, 40.0, epsabs=1e-13, limit=500)
        assert a == pytest.approx(2 * np.pi * b, abs=1e-6)

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_gauss_legendre_rule_exact_on_polynomials(self, n):
        # The n-point rule integrates x^k, k <= 2n - 1, exactly: the error
        # stays within a few ulps per power of the sum of |w x^k|.
        eps = np.finfo(float).eps
        for lo, hi in [(-1.0, 1.0), (0.5, 2.25), (-3.0, -0.25)]:
            x, w = _gauss_legendre(n, np.array(lo), np.array(hi))
            for k in range(2 * n):
                exact = float((Fraction(hi) ** (k + 1) - Fraction(lo) ** (k + 1))
                              / (k + 1))
                terms = w * x ** k
                assert (abs(np.sum(terms) - exact)
                        <= 6 * (k + 1) * eps * np.sum(np.abs(terms)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_gaussian_matches_adaptive_quadrature(self, alpha, d):
        # Scalar adaptive quadrature of the radial integral, as the library
        # computed it before the prepared operator.
        s_max = 1.0 + max(12.0, np.sqrt(80.0 / alpha) + np.sqrt(2.0 * d))

        def integrand(s):
            return _gaussian_ball_mass(s, 1.0, 1.0, d) ** alpha * s ** (d - 1)

        val, _ = integrate.quad(integrand, 0.0, s_max, epsabs=1e-10,
                                epsrel=1e-12, limit=300, points=[1.0])
        reference = 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0) * val
        res = coverage_integral(IsotropicGaussian(d, 1.0), 1.0, alpha)
        assert res.method == "quadrature"
        assert abs(res.value - reference) <= 1e-12 * reference
        assert res.abs_error_bound >= abs(res.value - reference)

    # mpmath at 30 digits, with the mass of the unit ball of N(0, I_2) at
    # distance u as the Marcum-Q series exp(-(u^2+1)/2) sum_k u^-k I_k(u):
    #
    #   import mpmath as mp
    #   mp.mp.dps = 30
    #   def mass(u):
    #       return mp.exp(-(u * u + 1) / 2) * mp.nsum(
    #           lambda k: u ** -k * mp.besseli(k, u), [1, mp.inf])
    #   for a in ("0.01", "0.05", "0.1"):
    #       a = mp.mpf(a)
    #       print(2 * mp.pi * mp.quad(lambda u: mass(u) ** a * u,
    #             [0, 0.5, 1, 1.5, 2, 3, 5, 9, 17, 33, 65, 129, 200]))
    #
    # The integrand beyond u = 200 is below exp(-190) for these alpha.
    @pytest.mark.parametrize("alpha, reference", [
        (0.01, 679.10339498418165227),
        (0.05, 138.77361408429797374),
        (0.1, 68.058251916203163125),
    ])
    def test_gaussian_small_alpha_against_high_precision(self, alpha,
                                                         reference):
        # Most of I(r; 0.01) comes from centres tens of sigma away, where the
        # ball mass lies below the smallest double.
        res = coverage_integral(IsotropicGaussian(2, 1.0), 1.0, alpha)
        assert abs(res.value - reference) <= 1e-12 * reference
        assert res.abs_error_bound >= abs(res.value - reference)

    def test_uniform_monotone_in_radius_and_alpha(self):
        radii = np.linspace(0.05, 1.0, 20)
        alphas = np.linspace(0.2, 1.0, 9)
        by_alpha = [coverage_values(UniformInterval(1.0), radii, a)
                    for a in alphas]
        for vals in by_alpha:
            assert np.all(np.diff(vals) > -1e-14)  # nondecreasing in r
        stacked = np.array(by_alpha)
        assert np.all(np.diff(stacked, axis=0) <= 1e-14)  # nonincreasing in alpha

    def test_empirical_cloud_1d_matches_quadrature(self):
        cloud = EmpiricalCloud([[-0.5], [0.2], [0.9]])
        alpha, radius = 0.6, 0.7

        def mass(x):
            return np.mean(np.abs(cloud.points[:, 0] + x) <= radius)

        oracle, _ = integrate.quad(lambda x: mass(x) ** alpha, -3, 3, limit=1000)
        res = coverage_integral(cloud, radius, alpha)
        assert res.method == "closed-form"
        assert res.value == pytest.approx(oracle, abs=1e-6)

    def test_empirical_cloud_1d_pieces_match_dense_count(self):
        def dense(y, radius):
            events = np.unique(np.concatenate([-y - radius, -y + radius]))
            mids = 0.5 * (events[:-1] + events[1:])
            inside = np.abs(y[None, :] + mids[:, None]) <= radius
            return np.diff(events), inside.sum(axis=1) / y.size

        gen = np.random.default_rng(8)
        for _ in range(100):
            y = gen.normal(0, 1, gen.integers(1, 120))
            radius = gen.uniform(0.01, 3.0)
            lengths, mass = _empirical_pieces_1d(EmpiricalCloud(y[:, None]),
                                                 radius)
            want_lengths, want_mass = dense(y, radius)
            assert np.array_equal(lengths, want_lengths)
            assert np.array_equal(mass, want_mass)

    def test_empirical_cloud_1d_large_cloud_is_fast(self):
        # A dense piece-by-point matrix would take 5 GB here.
        cloud = EmpiricalCloud(np.random.default_rng(9).normal(0, 1, (50_000, 1)))
        start = time.perf_counter()
        values = prepare_coverage(cloud, [0.5, 1.0, 2.0]).values(0.6)
        assert time.perf_counter() - start < 1.0
        assert np.all(np.diff(values) > 0)

    def test_empirical_cloud_2d_monte_carlo(self):
        gen = np.random.default_rng(3)
        cloud = EmpiricalCloud(gen.normal(0, 0.5, (40, 2)))
        res = coverage_integral(cloud, 0.8, 0.7)
        # oracle: dense-grid Riemann sum
        reach = 0.8 + cloud.effective_radius
        grid = np.linspace(-reach, reach, 301)
        xx, yy = np.meshgrid(grid, grid)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        d2 = np.sum((cloud.points[None] + pts[:, None]) ** 2, axis=2)
        mass = (d2 <= 0.8 ** 2).mean(axis=1)
        cell = (grid[1] - grid[0]) ** 2
        oracle = np.sum(mass ** 0.7) * cell
        assert res.method == "monte-carlo"
        assert abs(res.value - oracle) < max(3 * res.abs_error_bound, 0.02)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            coverage_integral(UniformInterval(1.0), -1.0, 0.5)
        with pytest.raises(ValidationError):
            coverage_integral(UniformInterval(1.0), 1.0, 1.5)


class TestPreparedCoverage:
    radii = [0.3, 1.0, 2.5]

    @pytest.mark.parametrize("mu0", [
        UniformInterval(1.0),
        IsotropicGaussian(2, 0.8),
        EmpiricalCloud([[-0.5], [0.2], [0.9]]),
        EmpiricalCloud(np.random.default_rng(3).normal(0, 0.5, (20, 2))),
    ])
    def test_values_match_coverage_integral(self, mu0):
        coverage = prepare_coverage(mu0, self.radii, alpha_min=0.2)
        for alpha in (0.2, 0.65, 1.0):
            for r, value in zip(self.radii, coverage.values(alpha)):
                single = coverage_integral(mu0, r, alpha)
                assert value == pytest.approx(single.value, rel=1e-13)
                assert coverage.method == single.method

    @pytest.mark.parametrize("mu0", [
        UniformInterval(1.0),
        IsotropicGaussian(1, 0.8),
        IsotropicGaussian(2, 1.0),
        IsotropicGaussian(3, 1.3),
        # Far-apart points leave zero-mass pieces between them at r = 0.3.
        EmpiricalCloud([[-2.0], [-0.5], [0.2], [0.9], [3.0]]),
        EmpiricalCloud(np.random.default_rng(3).normal(0, 0.5, (20, 2))),
    ])
    def test_derivative_matches_central_differences(self, mu0):
        radii = [0.3, 1.0, 2.5, 6.0]
        coverage = prepare_coverage(mu0, radii, alpha_min=0.005)
        for alpha in np.random.default_rng(7).uniform(0.01, 0.999, 5):
            values, derivatives = coverage.values_and_derivatives(alpha)
            assert np.array_equal(values, coverage.values(alpha))
            h = 1e-4 * alpha
            central = (coverage.values(alpha + h)
                       - coverage.values(alpha - h)) / (2.0 * h)
            assert np.all(np.isfinite(derivatives))
            assert derivatives == pytest.approx(central, rel=1e-6)

    def test_alpha_outside_prepared_range_rejected(self):
        coverage = prepare_coverage(IsotropicGaussian(2, 1.0), [1.0],
                                    alpha_min=0.2)
        with pytest.raises(ValidationError):
            coverage.values(0.1)
        with pytest.raises(ValidationError):
            coverage.values(1.5)
        with pytest.raises(ValidationError):
            prepare_coverage(UniformInterval(1.0), [1.0], alpha_min=0.0)
        with pytest.raises(ValidationError):
            prepare_coverage(UniformInterval(1.0), [0.0, 1.0])


class TestContactAndPgf:
    params = TasParameters(0.5, 0.1, UniformInterval(1.0))

    def test_vanishing_ball(self):
        curve = analytic_contact(self.params, [1e-9])
        assert curve.values[0] == pytest.approx(1.0, abs=1e-5)

    def test_uniform_value(self):
        curve = analytic_contact(self.params, [1.0])
        assert curve.values[0] == pytest.approx(np.exp(-0.1 * 8 / 3), abs=1e-10)

    def test_alpha_one_poisson_void(self):
        params = TasParameters(1.0, 0.1, UniformInterval(1.0))
        curve = analytic_contact(params, [1.0])
        assert curve.values[0] == pytest.approx(np.exp(-0.2), abs=1e-12)

    def test_strictly_decreasing_in_r_and_lambda(self):
        radii = np.linspace(0.1, 3.0, 15)
        curve = analytic_contact(self.params, radii)
        assert np.all(np.diff(curve.values) < 0)
        denser = TasParameters(0.5, 0.2, UniformInterval(1.0))
        assert np.all(analytic_contact(denser, radii).values < curve.values)

    def test_pgf_endpoints(self):
        assert count_pgf(self.params, 1.0, 1.0) == pytest.approx(1.0)
        contact = analytic_contact(self.params, [1.0]).values[0]
        assert count_pgf(self.params, 1.0, 0.0) == pytest.approx(contact,
                                                                 abs=1e-12)

    def test_pgf_direct_value(self):
        expected = np.exp(-0.1 * 0.5 ** 0.5 * 8 / 3)
        assert count_pgf(self.params, 1.0, 0.5) == pytest.approx(expected,
                                                                 abs=1e-10)

    def test_thinned_p_one_identity(self):
        radii = np.linspace(0.2, 2.0, 8)
        a = analytic_contact(self.params, radii)
        b = thinned_contact_analytic(self.params, 1.0, radii)
        assert np.array_equal(a.values, b.values)

    def test_thinned_equals_pgf_at_one_minus_p(self):
        for p in (0.3, 0.5, 0.8):
            thinned = thinned_contact_analytic(self.params, p, [1.0]).values[0]
            assert count_pgf(self.params, 1.0, 1.0 - p) == pytest.approx(
                thinned, abs=1e-14)
