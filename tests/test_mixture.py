import numpy as np
import pytest

from tasproc import (
    PointPattern,
    RandomSource,
    ValidationError,
    Window,
    em_estimate_mu0,
    fit_gaussian_mixture,
    mixture,
)


def two_blob_points(gen, n=300, sep=8.0):
    a = gen.normal([-sep / 2, 0.0], 1.0, (n, 2))
    b = gen.normal([sep / 2, 0.0], 1.0, (n, 2))
    return np.vstack([a, b])


class TestFitGaussianMixture:
    def test_two_blobs_means_recovered(self):
        gen = np.random.default_rng(0)
        pts = two_blob_points(gen)
        model = fit_gaussian_mixture(pts, 2, RandomSource(1))
        means = sorted(c.mean[0] for c in model.components)
        assert means[0] == pytest.approx(-4.0, abs=0.3)
        assert means[1] == pytest.approx(4.0, abs=0.3)
        for c in model.components:
            assert c.weight == pytest.approx(0.5, abs=0.1)

    def test_loglik_nondecreasing(self):
        gen = np.random.default_rng(3)
        for rep in range(10):
            pts = gen.normal(0, 1, (120, 2)) + gen.integers(-3, 4, 2)
            model = fit_gaussian_mixture(pts, 3, RandomSource(rep))
            trace = np.asarray(model.loglik_trace)
            assert np.all(np.diff(trace) >= -1e-8)

    def test_weights_sum_to_one(self):
        gen = np.random.default_rng(4)
        model = fit_gaussian_mixture(two_blob_points(gen), 3, RandomSource(2))
        total = sum(c.weight for c in model.components) + model.noise_weight
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_noise_component_included(self):
        gen = np.random.default_rng(5)
        pts = np.vstack([two_blob_points(gen, n=200),
                         gen.uniform(-20, 20, (40, 2))])
        w = Window([-20, -20], [20, 20])
        model = fit_gaussian_mixture(pts, 2, RandomSource(3), window=w,
                                     noise=True)
        assert 0.0 < model.noise_weight < 0.5
        total = sum(c.weight for c in model.components) + model.noise_weight
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_covariances_positive_definite(self):
        gen = np.random.default_rng(6)
        model = fit_gaussian_mixture(two_blob_points(gen), 2, RandomSource(4))
        for c in model.components:
            eigvals = np.linalg.eigvalsh(c.covariance)
            assert np.all(eigvals > 0)

    def test_validation(self):
        gen = np.random.default_rng(7)
        with pytest.raises(ValidationError):
            fit_gaussian_mixture(gen.normal(0, 1, (2, 2)), 3, RandomSource(0))
        with pytest.raises(ValidationError):
            fit_gaussian_mixture(gen.normal(0, 1, (50, 2)), 0, RandomSource(0))


class TestEmEstimateMu0:
    def test_bic_picks_two_components(self):
        gen = np.random.default_rng(10)
        pts = two_blob_points(gen, n=400)
        w = Window([-15, -15], [15, 15])
        pattern = PointPattern(np.clip(pts, -15, 15), w)
        model = em_estimate_mu0(pattern, k_range=(1, 2, 3, 4),
                                rng=RandomSource(5))
        assert len(model.components) == 2

    def test_bic_picks_single_component(self):
        gen = np.random.default_rng(11)
        pts = gen.normal(0, 1.0, (500, 2))
        w = Window([-10, -10], [10, 10])
        pattern = PointPattern(pts, w)
        model = em_estimate_mu0(pattern, k_range=(1, 2, 3),
                                rng=RandomSource(6))
        assert len(model.components) == 1
        assert np.allclose(model.components[0].mean, 0.0, atol=0.2)

    def test_work_budget_refused_before_any_em_step(self, monkeypatch):
        def e_step(*args):
            raise AssertionError("E-step ran")

        monkeypatch.setattr(mixture, "_log_gaussian_pdf", e_step)
        pts = np.random.default_rng(0).uniform(-10, 10, (1765, 2))
        w = Window([-10, -10], [10, 10])
        # n * sum(k) * d: 1765 * 1275 * 2 = 4500750 is over the budget of
        # 4.5e6, 1764 * 1275 * 2 = 4498200 is not.
        with pytest.raises(ValidationError, match="budget of 4500000"):
            em_estimate_mu0(PointPattern(pts, w), range(1, 51),
                            rng=RandomSource(0))
        with pytest.raises(AssertionError, match="E-step ran"):
            em_estimate_mu0(PointPattern(pts[:1764], w), range(1, 51),
                            rng=RandomSource(0))

    def test_json_dict_roundtrips_through_json(self):
        import json

        gen = np.random.default_rng(12)
        model = fit_gaussian_mixture(two_blob_points(gen), 2, RandomSource(7))
        blob = json.dumps(model.to_json_dict())
        back = json.loads(blob)
        assert len(back["components"]) == 2
        assert back["converged"] == model.converged
