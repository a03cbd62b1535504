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
    PreparedCoverage,
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
from tasproc import analytics
from tasproc.analytics import (
    _empirical_pieces_1d,
    _gauss_legendre,
    _gaussian_log_mass,
    _gaussian_log_mass_far,
    _gaussian_log_mass_series,
)


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


class TestGaussianLogMass:
    """log M(u), M(u) = P(|X - u e| <= rho) for X ~ N(0, I_d)."""

    # mpmath at 40 digits, by quadrature of the noncentral chi density with
    # the factor exp(-(u - rho)^2/2) taken out, so that M may underflow:
    #
    #   import mpmath as mp
    #   mp.mp.dps = 40
    #   def log_mass(u, rho, d):
    #       u, rho = mp.mpf(u), mp.mpf(rho)
    #       if u == 0:
    #           return mp.log(mp.gammainc(mp.mpf(d) / 2, 0, rho * rho / 2,
    #                                     regularized=True))
    #       nu = mp.mpf(d) / 2 - 1
    #       def f(t):
    #           return (t * (t / u) ** nu * mp.besseli(nu, t * u)
    #                   * mp.exp((u - rho) ** 2 / 2 - (t * t + u * u) / 2))
    #       pts = ([0] + [rho * (1 - mp.mpf(2) ** -k) for k in range(1, 40)]
    #              + [rho])
    #       return mp.log(mp.quad(f, pts)) - (u - rho) ** 2 / 2
    #
    # At d = 1 it matches log(Phi(u + rho) - Phi(u - rho)) to 40 digits.
    @pytest.mark.parametrize("d, rho, u, reference", [
        (1, 0.05, 0.0, -3.2219402234264527451),
        (1, 0.05, 0.025, -3.2222524630965948488),
        (1, 0.25, 0.25, -1.6530635142555676288),
        (1, 0.25, 0.75, -1.897905061013982056),
        (1, 1.0, 3.0, -3.7845774380253265525),
        (1, 1.0, 9.0, -35.013437172163225932),
        (1, 4.0, 34.0, -454.32124395634319711),
        (1, 4.0, 99.0, -4517.9729261974526364),
        (1, 16.0, 0.0, 0.0),
        (1, 16.0, 8.0, -6.2209605742717860585e-16),
        (2, 0.05, 0.05, -6.6864858814766234406),
        (2, 0.05, 0.55, -6.8363921524961532561),
        (2, 0.25, 2.25, -5.9734787760047547442),
        (2, 0.25, 8.25, -37.023247057587910023),
        (2, 1.0, 31.0, -456.05105754142731416),
        (2, 1.0, 96.0, -4520.2590814484902791),
        (2, 4.0, 0.0, -0.00033551890807682017394),
        (2, 4.0, 2.0, -0.03473104553969277156),
        (2, 16.0, 16.0, -0.71840970200894398087),
        (2, 16.0, 16.5, -1.2113944779746061755),
        (3, 0.05, 2.05, -12.412550091067461832),
        (3, 0.05, 8.05, -42.697439396756456204),
        (3, 0.25, 30.25, -459.25979506053278968),
        (3, 0.25, 95.25, -4523.958733222151078),
        (3, 1.0, 0.0, -1.6157173715399460002),
        (3, 1.0, 0.5, -1.7172469911085833422),
        (3, 4.0, 4.0, -0.91562987553870763723),
        (3, 4.0, 4.5, -1.4683690008413685598),
        (3, 16.0, 18.0, -3.9245696965773904966),
        (3, 16.0, 24.0, -35.426516691318385974),
        (5, 0.05, 30.05, -469.25618874143296011),
        (5, 0.05, 95.05, -4533.7635965671433624),
        (5, 0.25, 0.0, -9.8876126077151180803),
        (5, 0.25, 0.125, -9.8953554925264202848),
        (5, 1.0, 1.0, -3.7165951650396108642),
        (5, 1.0, 1.5, -4.257232731111814582),
        (5, 4.0, 6.0, -4.8279888615334975205),
        (5, 4.0, 12.0, -37.293032248809014015),
        (5, 16.0, 46.0, -456.43886920851587102),
        (5, 16.0, 111.0, -4521.8486882455664859),
    ])
    def test_against_high_precision(self, d, rho, u, reference):
        value = _gaussian_log_mass(np.array([u]), rho, d)[0]
        assert abs(value - reference) <= 1e-14 * max(1.0, abs(reference))

    # log(Phi(u + rho) - Phi(u - rho)) from mpmath at 50 digits, as
    #   mp.log((mp.erfc((u - rho) / mp.sqrt(2))
    #           - mp.erfc((u + rho) / mp.sqrt(2))) / 2).
    # scipy's chndtr is no oracle at these radii: at rho = 1000, u = 1009 it
    # is off by 5e-11 in log M.
    @pytest.mark.parametrize("rho, u, reference", [
        (64.0, 32.0, 0.0),
        (64.0, 59.0, -2.8665161296376359338e-7),
        (64.0, 64.0, -0.69314718055994530942),
        (64.0, 65.0, -1.8410216450092635058),
        (64.0, 73.0, -43.628149113332115497),
        (64.0, 104.0, -804.60844201375378817),
        (256.0, 128.0, 0.0),
        (256.0, 251.0, -2.8665161296376359338e-7),
        (256.0, 256.0, -0.69314718055994530942),
        (256.0, 257.0, -1.8410216450092635058),
        (256.0, 265.0, -43.628149113332115497),
        (256.0, 296.0, -804.60844201375378817),
        (1000.0, 500.0, 0.0),
        (1000.0, 995.0, -2.8665161296376359338e-7),
        (1000.0, 1000.0, -0.69314718055994530942),
        (1000.0, 1001.0, -1.8410216450092635058),
        (1000.0, 1009.0, -43.628149113332115497),
        (1000.0, 1040.0, -804.60844201375378817),
    ])
    def test_large_radius_against_high_precision(self, rho, u, reference):
        value = _gaussian_log_mass(np.array([u]), rho, 1)[0]
        assert abs(value - reference) <= 1e-14 * max(1.0, abs(reference))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_chndtr(self, d):
        # chndtr's own error in M reaches 2.7e-13 near M = 1e-20 (against
        # mpmath), so the bound is relative to log M.
        for rho in np.linspace(0.01, 16.0, 40):
            u = np.linspace(0.0, rho + 15.0, 400)
            with np.errstate(divide="ignore"):
                reference = np.log(chndtr(rho * rho, d, u * u))
            kept = reference >= np.log(1e-30)
            value = _gaussian_log_mass(u, rho, d)[kept]
            assert np.all(np.abs(value - reference[kept])
                          <= 1e-13 * np.maximum(1.0, -reference[kept]))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_centre_is_central_chi_square(self, d):
        for rho in (0.05, 1.0, 4.0, 30.0):
            value = _gaussian_log_mass(np.zeros(1), rho, d)[0]
            reference = np.log(chdtr(d, rho * rho))
            assert abs(value - reference) <= 1e-14 * max(1.0, abs(reference))

    def test_chunks_give_the_same_sums(self, monkeypatch):
        u = np.linspace(0.0, 80.0, 300)
        whole = _gaussian_log_mass_series(u, 30.0, 2)
        monkeypatch.setattr(analytics, "_MAX_TERMS", 1000)
        assert np.array_equal(_gaussian_log_mass_series(u, 30.0, 2), whole)

    # log M at 40 digits by mpmath, with y = |t - rho| and the factor
    # exp(-(u - rho)^2/2) taken out of the noncentral chi density; y runs
    # inward from rho when u >= rho and outward when u < rho, where
    # M = 1 - Q.  At d = 1 it matches the erfc form above to 40 digits.
    #
    #   def log_mass(u, rho, d):
    #       u, rho = mp.mpf(u), mp.mpf(rho)
    #       nu, g = mp.mpf(d) / 2 - 1, abs(u - rho)
    #       s = -1 if u >= rho else 1
    #       def f(y):
    #           t = rho + s * y
    #           return (t * (t / u) ** nu * mp.besseli(nu, t * u)
    #                   * mp.exp(-(t * t + u * u) / 2 + g * g / 2))
    #       top = min(rho, 60 / (g + 1) + 12)
    #       pts = [0] + [mp.mpf(2) ** -k * top for k in range(30, -1, -1)]
    #       q = mp.quad(f, pts, maxdegree=12)
    #       if s < 0:
    #           return mp.log(q) - g * g / 2
    #       return mp.log(1 - q * mp.exp(-g * g / 2))
    @pytest.mark.parametrize("d, rho, u, reference", [
        (2, 3.0, 45.0, -888.01425007730053838),
        (2, 8.0, 20.0, -75.873204863859338549),
        (2, 8.0, 50.0, -887.57464088844759174),
        (2, 80.0, 75.0, -2.9640338010477388142e-7),
        (2, 80.0, 80.3, -0.96834341733975152498),
        (2, 80.0, 105.0, -316.77560927595051882),
        (2, 100000.0, 99999.75, -0.51298730461755420024),
        (2, 100000.0, 100007.0, -27.384343185302400642),
        (2, 100000.0, 100090.0, -4055.4193214753950811),
        (3, 80.0, 79.0, -0.17640092775345899115),
        (3, 80.0, 82.0, -3.8125530564143129548),
        (3, 80.0, 170.0, -4056.1727822888783611),
        (3, 10000.0, 10000.0, -0.69322697219929378429),
        (3, 10000.0, 10025.0, -316.6419088755280012),
        (5, 3.0, 50.0, -1114.9172674414307022),
        (5, 16.0, 30.0, -102.83118624063752181),
        (5, 80.0, 75.0, -3.2761548365304337493e-7),
        (5, 80.0, 80.3, -0.98722839121443581929),
        (5, 80.0, 87.0, -27.555653138862024258),
        (5, 100000.0, 99999.0, -0.17275953112569283557),
        (5, 100000.0, 100002.0, -3.7832317976951931349),
        (5, 100000.0, 100025.0, -316.63990874309089035),
    ])
    def test_far_field_against_high_precision(self, d, rho, u, reference):
        value = _gaussian_log_mass(np.array([u]), rho, d)[0]
        assert abs(value - reference) <= 1e-14 * max(1.0, abs(reference))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_far_field_matches_series(self, d):
        # Both forms hold on these centres; each takes its own share of
        # them in _gaussian_log_mass.
        for rho in (8.0, 16.0, 30.0, 70.0, 140.0):
            u = np.linspace(max(rho - 40.0, rho / 2.0, 12.0), rho + 95.0, 300)
            series = _gaussian_log_mass_series(u, rho, d)
            far = _gaussian_log_mass_far(u, rho, d)
            assert np.all(np.abs(far - series)
                          <= 1e-13 * np.maximum(1.0, np.abs(series)))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_tiny_radius_is_leading_term(self, d):
        # M = V_d rho^d phi_d(u) (1 + O(rho^2 (u^2 + d))): the series gives
        # it at rho = 1e-19, and the leading term is used below 1e-20.
        u = np.linspace(0.0, 12.0, 50)
        for rho in (1e-19, 1e-160):
            leading = (d * np.log(rho) - 0.5 * d * np.log(2.0)
                       - math.lgamma(0.5 * d + 1.0) - 0.5 * u * u)
            assert np.allclose(_gaussian_log_mass(u, rho, d), leading,
                               rtol=1e-14, atol=0.0)

    def test_large_radius_coverage(self):
        # The value of the chndtr and Bessel-form mass that the numpy one
        # replaced.
        res = coverage_integral(IsotropicGaussian(2, 1.0), 1e4, 0.5)
        assert abs(res.value - 314203521.595606) <= res.abs_error_bound

    @pytest.mark.parametrize("d, sigma, radius", [
        (2, 1e-5, 1.0), (2, 1e-8, 1.0), (3, 1e-5, 2.0),
        (1, 1.0, 1e-160), (2, 1.0, 1e-100),
    ])
    def test_ball_volume_at_extreme_radius_ratios(self, d, sigma, radius):
        # At alpha = 1 the coverage is the ball volume for any mu0.  scipy's
        # chndtr, which the numpy mass replaced, gave NaN from r/sigma ~ 1e5.
        res = coverage_integral(IsotropicGaussian(d, sigma), radius, 1.0)
        volume = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * radius ** d
        assert res.value == pytest.approx(volume, rel=1e-13)


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

    def test_non_finite_value_raises(self):
        # A NaN value passes every comparison with the tolerance.
        coverage = PreparedCoverage("quadrature", 0.1, lambda alpha: (
            np.array([np.nan]), np.array([np.nan]), None))
        with pytest.raises(ArithmeticError, match="not finite"):
            coverage.values(0.5)
        # The closed form overflows to inf, with no RuntimeWarning.
        with pytest.raises(ArithmeticError, match="not finite"):
            coverage_integral(UniformInterval(1e308), 1.0, 0.5)

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
