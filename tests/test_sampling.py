import numpy as np
import pytest
from scipy import stats

from tasproc import (
    IsotropicGaussian,
    PointPattern,
    RandomSource,
    TasParameters,
    UniformInterval,
    ValidationError,
    Window,
    sample_poisson_centres,
    sibuya_pmf,
    sibuya_survival,
    sibuya_variates,
    simulate_tas,
    thin,
    write_pattern,
)
from tasproc.sampling import _survival_table


def pooled_chisquare(observed_values, alpha, n_cells=20):
    """Goodness of fit of Sibuya draws against the product-formula pmf,
    cells 1..n_cells with the tail pooled."""
    obs = np.array([np.sum(observed_values == n) for n in range(1, n_cells + 1)]
                   + [np.sum(observed_values > n_cells)])
    probs = np.array([sibuya_pmf(alpha, n) for n in range(1, n_cells + 1)]
                     + [sibuya_survival(alpha, n_cells)])
    stat, pval = stats.chisquare(obs, probs * obs.sum())
    return pval


class TestSibuyaSampler:
    def test_alpha_one_is_always_one(self):
        rng = RandomSource(0)
        assert np.all(sibuya_variates(1.0, 1000, rng) == 1)

    def test_prob_of_one_is_alpha(self):
        rng = RandomSource(1)
        draws = sibuya_variates(0.5, 10 ** 5, rng)
        freq = np.mean(draws == 1)
        se = np.sqrt(0.5 * 0.5 / 10 ** 5)
        assert abs(freq - 0.5) < 3 * se

    def test_prob_of_two_matches_product_formula(self):
        # (1 - 0.5/1) * 0.5/2 = 0.125
        rng = RandomSource(2)
        draws = sibuya_variates(0.5, 10 ** 5, rng)
        freq = np.mean(draws == 2)
        se = np.sqrt(0.125 * 0.875 / 10 ** 5)
        assert abs(freq - 0.125) < 3 * se

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
    def test_empirical_pmf_within_4_se(self, alpha):
        rng = RandomSource(3)
        draws = sibuya_variates(alpha, 10 ** 5, rng)
        n_draws = draws.size
        for n in range(1, 21):
            pmf = sibuya_pmf(alpha, n)
            se = np.sqrt(pmf * (1 - pmf) / n_draws)
            assert abs(np.mean(draws == n) - pmf) < 4 * se, "cell n=%d" % n

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
    def test_chisquare_at_1_percent(self, alpha):
        rng = RandomSource(4)
        draws = sibuya_variates(alpha, 10 ** 5, rng)
        assert pooled_chisquare(draws, alpha) > 0.01

    def test_domain_error(self):
        rng = RandomSource(0)
        with pytest.raises(ValidationError):
            sibuya_variates(1.5, 1, rng)
        with pytest.raises(ValidationError):
            sibuya_variates(0.0, 1, rng)

    def test_truncation_counted_never_silent(self):
        rng = RandomSource(5)
        draws = sibuya_variates(0.3, 10 ** 4, rng, n_max=3)
        assert rng.truncation_count > 0
        assert rng.truncation_count <= np.sum(draws == 3)  # clipped land on cap
        assert draws.max() == 3

    def test_determinism_across_runs(self):
        a = sibuya_variates(0.6, 1000, RandomSource(7, 9))
        b = sibuya_variates(0.6, 1000, RandomSource(7, 9))
        assert np.array_equal(a, b)

    def test_streams_are_independent_sequences(self):
        a = sibuya_variates(0.6, 1000, RandomSource(7, 0))
        b = sibuya_variates(0.6, 1000, RandomSource(7, 1))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("n_boundary", [4095, 4096])
    def test_table_tail_boundary(self, alpha, n_boundary):
        # The sampler inverts a table of s[n] = prod_{k<=n}(1 - alpha/k) up to
        # n = 4096 and a log-gamma bisection beyond it.  Uniforms at and on
        # either side of s[4095] and s[4096] must give the smallest n with
        # prod_{k<=n}(1 - alpha/k) < u, on whichever side they fall.
        class FixedUniform:
            def __init__(self, r):
                self.generator = self
                self.r = r

            def random(self, size):
                return np.full(size, self.r)

        prod = np.cumprod(np.concatenate(
            [[1.0], 1.0 - alpha / np.arange(1.0, 4200.0)]))
        s_b = _survival_table(alpha)[n_boundary]
        r_at = 1.0 - s_b
        seen = []
        for r in (np.nextafter(r_at, 0.0), r_at, np.nextafter(r_at, 1.0)):
            u = 1.0 - r  # what the sampler sees; need not equal s_b
            seen.append(u)
            expected = int(np.argmax(prod < u))
            draw = sibuya_variates(alpha, 1, FixedUniform(r))
            assert draw.tolist() == [expected], "u=%r" % u
        assert seen[0] > s_b >= seen[2]


class TestSibuyaCluster:
    @staticmethod
    def with_parents(params, window, seed):
        """A labelled simulated pattern and each point's parent centre.

        simulate_tas draws the centres first, on the window dilated by the
        default buffer, so the same seed draws them again."""
        pattern = simulate_tas(params, window, RandomSource(seed),
                               keep_labels=True, n_max=10 ** 6)
        centres = sample_poisson_centres(
            params.lam, window.dilate(params.mu0.effective_radius),
            RandomSource(seed))
        labels = np.array(pattern.labels, dtype=np.int64)
        return pattern, labels, centres[labels]

    def test_alpha_one_single_point_in_interval(self):
        params = TasParameters(1.0, 0.5, UniformInterval(1.0))
        for i in range(50):
            pattern, labels, parents = self.with_parents(
                params, Window([0.0], [20.0]), i)
            assert np.unique(labels).size == labels.size
            assert np.all(np.abs(pattern.points - parents) <= 1.0)

    def test_gaussian_cluster_mean_is_center(self):
        params = TasParameters(0.7, 0.5, IsotropicGaussian(2, 0.5))
        pattern, _, parents = self.with_parents(
            params, Window([-50.0, -50.0], [50.0, 50.0]), 8)
        # Clusters centred 12 sigma inside the window lose no point to it.
        interior = np.all(np.abs(parents) < 44.0, axis=1)
        offsets = pattern.points[interior] - parents[interior]
        assert offsets.shape[0] > 10 ** 4
        se = 0.5 / np.sqrt(offsets.shape[0])
        assert np.all(np.abs(offsets.mean(axis=0)) < 4 * se)

    def test_cluster_size_histogram_chisquare(self):
        rng = RandomSource(9)
        sizes = sibuya_variates(0.6, 10 ** 5, rng)
        assert pooled_chisquare(sizes, 0.6) > 0.01

    def test_dimension_mismatch(self):
        params = TasParameters(0.5, 0.1, IsotropicGaussian(2, 1.0))
        with pytest.raises(ValidationError):
            simulate_tas(params, Window([0.0], [10.0]), RandomSource(0))


class TestPoissonCentres:
    def test_mean_count(self):
        region = Window([-500], [500])
        rng = RandomSource(10)
        counts = np.array([len(sample_poisson_centres(0.02, region, rng))
                           for _ in range(1000)])
        se = np.sqrt(20.0 / 1000)
        assert abs(counts.mean() - 20.0) < 3 * se

    def test_equidispersion(self):
        region = Window([-500], [500])
        rng = RandomSource(11)
        counts = np.array([len(sample_poisson_centres(0.02, region, rng))
                           for _ in range(1000)])
        # Poisson variance equals its mean; var of sample variance ~ 2m^2/n
        assert abs(counts.var(ddof=1) - counts.mean()) < 4 * np.sqrt(2.0 / 1000) * 20

    def test_positions_inside_region(self):
        region = Window([0, 0], [2, 3])
        pts = sample_poisson_centres(5.0, region, RandomSource(12))
        assert np.all(region.contains(pts))


class TestSimulateTas:
    def test_alpha_one_poisson_count_law(self):
        # every cluster is a single displaced point: counts ~ Poisson(lam |W|)
        params = TasParameters(1.0, 0.1, UniformInterval(1.0))
        window = Window([-50], [50])
        counts = np.array([
            len(simulate_tas(params, window, RandomSource(13, i)))
            for i in range(1000)
        ])
        mean = 0.1 * 100
        cells = np.arange(2, 19)
        obs = np.array([np.sum(counts == c) for c in cells])
        obs = np.concatenate([[np.sum(counts < cells[0])], obs,
                              [np.sum(counts > cells[-1])]])
        probs = stats.poisson.pmf(cells, mean)
        probs = np.concatenate([[stats.poisson.cdf(cells[0] - 1, mean)], probs,
                                [stats.poisson.sf(cells[-1], mean)]])
        _, pval = stats.chisquare(obs, probs * counts.size)
        assert pval > 0.01

    def test_fixed_seed_bit_identical(self):
        params = TasParameters(0.6, 0.4, UniformInterval(1.0))
        window = Window([-50], [50])
        a = simulate_tas(params, window, RandomSource(14), keep_labels=True,
                         n_max=10 ** 6)
        b = simulate_tas(params, window, RandomSource(14), keep_labels=True,
                         n_max=10 ** 6)
        assert write_pattern(a) == write_pattern(b)

    @pytest.mark.parametrize("alpha, total", [(0.2, "1.65e+11"),
                                              (0.1, "2.13e+204")])
    def test_total_point_budget_refused_before_sampling(self, alpha, total):
        # Without n_max one Sibuya draw can ask for terabytes of offsets, or
        # exceed 2^63 and wrap in an int64 cast.
        class NeverSampled(UniformInterval):
            def sample(self, n, generator):
                raise AssertionError("sampled %d offsets" % n)

        params = TasParameters(alpha, 0.4, NeverSampled(1.0))
        with pytest.raises(ValidationError, match="n_max") as exc:
            simulate_tas(params, Window([-50], [50]), RandomSource(0))
        assert total in str(exc.value)

    def test_labels_partition_points(self):
        params = TasParameters(0.6, 0.4, UniformInterval(1.0))
        pattern = simulate_tas(params, Window([-50], [50]), RandomSource(15),
                               keep_labels=True, n_max=10 ** 6)
        assert pattern.labels is not None
        assert len(pattern.labels) == len(pattern)
        assert sum(pattern.cluster_sizes().values()) == len(pattern)

    def test_small_buffer_warns_in_metadata(self):
        params = TasParameters(0.6, 0.4, UniformInterval(1.0))
        pattern = simulate_tas(params, Window([-50], [50]), RandomSource(16),
                               buffer=0.1, n_max=10 ** 6)
        assert "warning" in pattern.metadata

    def test_interior_cluster_sizes_follow_sibuya(self):
        # clusters centred well inside the window keep their full size
        params = TasParameters(0.6, 0.4, UniformInterval(1.0))
        interior_sizes = []
        for i in range(200):
            pattern = simulate_tas(params, Window([-50], [50]),
                                   RandomSource(17, i), keep_labels=True,
                                   n_max=10 ** 6)
            for pts in pattern.clusters().values():
                if np.all(np.abs(pts) < 45):
                    interior_sizes.append(len(pts))
        interior = np.asarray(interior_sizes)
        assert pooled_chisquare(interior, 0.6, n_cells=10) > 0.01


class TestThin:
    def make_pattern(self, n=1000):
        gen = np.random.default_rng(0)
        w = Window([-1, -1], [1, 1])
        return PointPattern(gen.uniform(-1, 1, (n, 2)), w,
                            labels=[str(i) for i in range(n)])

    def test_p_one_identity(self):
        pattern = self.make_pattern()
        out = thin(pattern, 1.0, RandomSource(18))
        assert np.array_equal(out.points, pattern.points)
        assert out.labels == pattern.labels

    def test_invalid_p(self):
        pattern = self.make_pattern(10)
        for p in (0.0, -0.1, 1.1):
            with pytest.raises(ValidationError):
                thin(pattern, p, RandomSource(0))

    def test_retained_count_binomial(self):
        pattern = self.make_pattern(1000)
        counts = np.array([len(thin(pattern, 0.3, RandomSource(19, i)))
                           for i in range(1000)])
        lo, hi = stats.binom.ppf([0.001, 0.999], 1000, 0.3).astype(int)
        edges = np.arange(lo, hi + 1)
        obs = np.array([np.sum(counts == c) for c in edges])
        obs = np.concatenate([[np.sum(counts < lo)], obs, [np.sum(counts > hi)]])
        probs = stats.binom.pmf(edges, 1000, 0.3)
        probs = np.concatenate([[stats.binom.cdf(lo - 1, 1000, 0.3)], probs,
                                [stats.binom.sf(hi, 1000, 0.3)]])
        _, pval = stats.chisquare(obs, probs * counts.size)
        assert pval > 0.01

    def test_composition_matches_product(self):
        # thin(thin(., p), q) has the same retained-count law as thin(., pq)
        pattern = self.make_pattern(1000)
        double = np.array([
            len(thin(thin(pattern, 0.6, RandomSource(20, i)), 0.5,
                     RandomSource(21, i)))
            for i in range(1000)
        ])
        single = np.array([len(thin(pattern, 0.3, RandomSource(22, i)))
                           for i in range(1000)])
        edges = np.quantile(single, np.linspace(0, 1, 11)).astype(int)
        edges = np.unique(edges)
        table = np.array([
            np.histogram(double, bins=np.concatenate([[-1], edges, [2000]]))[0],
            np.histogram(single, bins=np.concatenate([[-1], edges, [2000]]))[0],
        ])
        table = table[:, table.sum(axis=0) > 0]
        _, pval, _, _ = stats.chi2_contingency(table)
        assert pval > 0.01

    def test_composition_keeps_each_point_with_product_frequency(self):
        pattern = self.make_pattern(50)
        reps = 2000
        double = np.zeros(len(pattern))
        single = np.zeros(len(pattern))
        for i in range(reps):
            once = thin(pattern, 0.6, RandomSource(24, i))
            twice = thin(once, 0.5, RandomSource(25, i))
            direct = thin(pattern, 0.3, RandomSource(26, i))
            for out, kept in ((twice, double), (direct, single)):
                idx = np.array([int(lab) for lab in out.labels], dtype=int)
                assert np.array_equal(out.points, pattern.points[idx])
                kept[idx] += 1
        se = np.sqrt(0.3 * 0.7 / reps)
        assert np.all(np.abs(double / reps - 0.3) < 4 * se)
        assert np.all(np.abs(single / reps - 0.3) < 4 * se)

    def test_labels_preserved_on_survivors(self):
        pattern = self.make_pattern(200)
        out = thin(pattern, 0.5, RandomSource(23))
        kept = {tuple(pt) for pt in out.points}
        for pt, lab in zip(out.points, out.labels):
            i = int(lab)
            assert np.array_equal(pattern.points[i], pt)
        assert len(kept) == len(out)
