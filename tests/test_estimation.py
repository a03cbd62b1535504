import functools
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.spatial import cKDTree

from tasproc import (
    DegenerateDataError,
    EmpiricalCloud,
    FitResult,
    IsotropicGaussian,
    PointPattern,
    RandomSource,
    TasParameters,
    UniformInterval,
    ValidationError,
    Window,
    ball_count_pgf,
    count_pgf,
    distance_profile,
    empirical_contact,
    estimate_alpha_from_cluster_sizes,
    estimate_mu0_empirical,
    fit_count_pgf,
    fit_pgf_curve,
    fit_void,
    grid_test_points,
    prepare_coverage,
    sibuya_variates,
    simulate_tas,
    thinned_contact_analytic,
    thinned_contact_estimate,
)
from tasproc import estimation
from tasproc.estimation import _ball_counts
from tasproc.experiments import (
    DEFAULT_P_VALUES,
    FIG3_PARAMS,
    FIG3_WINDOW,
    HARNESS_N_MAX,
    TABLE1_CELLS,
    TABLE1_WINDOW,
)
from tasproc.model import DistanceProfile


def closed_form_contact(profile, p, radii):
    """(1/n) sum_i (1-p)^{N_i(r)}, with N_i(r) counted directly: the oracle
    of the count histogram behind thinned_contact_estimate."""
    counts = np.sum(profile.distances[:, :, None] <= np.asarray(radii), axis=1)
    return np.mean((1.0 - p) ** counts, axis=0)


def pattern_1d(coords, lo=-100, hi=100):
    return PointPattern(np.asarray(coords, dtype=float).reshape(-1, 1),
                        Window([lo], [hi]))


def random_profile(gen, n_test=20, depth=8):
    dist = np.sort(gen.uniform(0.1, 5.0, (n_test, depth)), axis=1)
    return DistanceProfile(gen.uniform(-1, 1, (n_test, 2)), dist)


class TestDistanceProfile:
    def test_single_point(self):
        profile = distance_profile(pattern_1d([2.0]), [[0.0]], depth=1)
        assert profile.distances[0, 0] == 2.0

    def test_two_points_sorted(self):
        profile = distance_profile(pattern_1d([1.0, -3.0]), [[0.0]], depth=2)
        assert profile.distances[0].tolist() == [1.0, 3.0]

    def test_kdtree_matches_brute_force_exactly(self):
        gen = np.random.default_rng(42)
        for d in (1, 2, 3):
            w = Window([-1.0] * d, [1.0] * d)
            pattern = PointPattern(gen.uniform(-1, 1, (1000, d)), w)
            tp = grid_test_points(w, 100)
            fast = distance_profile(pattern, tp, depth=20, method="kdtree")
            slow = distance_profile(pattern, tp, depth=20, method="brute")
            assert np.array_equal(fast.distances, slow.distances)

    def test_depth_clamped_with_flag(self):
        profile = distance_profile(pattern_1d([1.0, 2.0]), [[0.0]], depth=5)
        assert profile.depth == 2
        assert profile.depth_clamped

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValidationError):
            distance_profile(pattern_1d([]), [[0.0]])


class TestEmpiricalContact:
    def test_single_test_point(self):
        profile = distance_profile(pattern_1d([2.0]), [[0.0]], depth=1)
        curve = empirical_contact(profile, [1.0, 3.0])
        assert curve.values.tolist() == [1.0, 0.0]

    def test_two_test_points(self):
        profile = DistanceProfile([[0.0], [10.0]], [[1.0], [3.0]])
        curve = empirical_contact(profile, [2.0])
        assert curve.values[0] == 0.5


class TestThinnedContact:
    def test_p_one_bit_identical_to_empirical(self):
        gen = np.random.default_rng(0)
        for _ in range(100):
            profile = random_profile(gen)
            radii = np.sort(gen.uniform(0.2, 4.5, 9))
            a = empirical_contact(profile, radii)
            b = thinned_contact_estimate(profile, 1.0, radii)
            assert np.array_equal(a.values, b.values)

    def test_enumeration_example(self):
        # distances (1, 3), p = 1/2, r = 2: k=1 term 0, k=2 term 1/4, tail 1/4
        profile = DistanceProfile([[0.0]], [[1.0, 3.0]])
        curve = thinned_contact_estimate(profile, 0.5, [2.0])
        assert curve.values[0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.filterwarnings("ignore:profile depth")
    def test_weighted_sum_equals_closed_form(self):
        gen = np.random.default_rng(1)
        for _ in range(50):
            profile = random_profile(gen)
            radii = np.sort(gen.uniform(0.2, 4.5, 7))
            p = gen.uniform(0.05, 1.0)
            a = thinned_contact_estimate(profile, p, radii)
            b = closed_form_contact(profile, p, radii)
            assert np.max(np.abs(a.values - b)) < 1e-12

    def test_shallow_depth_warns(self):
        profile = DistanceProfile([[0.0]], [[1.0, 3.0]])
        with pytest.warns(UserWarning, match="tail bound"):
            thinned_contact_estimate(profile, 0.1, [2.0])

    def test_clamped_profile_is_exact_without_warning(self):
        # Depth 60 on 18 points records every point, so (1-p)^18 = 0.0016 at
        # p = 0.3 is no tail bound: N_i(r) is exact.
        pattern = pattern_1d(np.random.default_rng(2).uniform(-90, 90, 18))
        profile = distance_profile(
            pattern, grid_test_points(pattern.window, 50), depth=60)
        assert profile.depth_clamped
        radii = np.linspace(1.0, 60.0, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = thinned_contact_estimate(profile, 0.3, radii)
            fit_void(profile, UniformInterval(1.0), p_values=[0.3, 1.0])
        brute = closed_form_contact(profile, 0.3, radii)
        assert np.max(np.abs(curve.values - brute)) < 1e-15


@st.composite
def tied_profiles_and_radii(draw):
    """A profile with sorted rows on a coarse lattice (so distances tie
    within and across rows), and strictly increasing radii drawn partly from
    the profile's own distances, as fit_void draws them from its nearest
    distances."""
    n_test = draw(st.integers(1, 12))
    depth = draw(st.integers(1, 9))
    ticks = draw(st.lists(st.integers(0, 12), min_size=n_test * depth,
                          max_size=n_test * depth))
    dist = np.sort(np.reshape(ticks, (n_test, depth)) * 0.25, axis=1)
    own = draw(st.lists(st.sampled_from(sorted(set(dist.ravel()))),
                        max_size=6))
    free = draw(st.lists(st.floats(0.0, 3.5), max_size=6))
    radii = np.unique(np.array(own + free, dtype=float))
    if radii.size == 0:
        radii = dist[:1, 0]
    return DistanceProfile(np.zeros((n_test, 1)), dist), radii


retention = st.floats(0.0, 1.0, exclude_min=True)


@pytest.mark.filterwarnings("ignore:profile depth")
class TestCountTransformProperties:
    @settings(max_examples=200, deadline=None)
    @given(tied_profiles_and_radii(), retention)
    def test_matches_closed_form(self, case, p):
        profile, radii = case
        a = thinned_contact_estimate(profile, p, radii)
        b = closed_form_contact(profile, p, radii)
        assert np.max(np.abs(a.values - b)) <= 1e-12

    def test_tiny_retention_stays_in_unit_interval(self):
        # Count frequencies 0.1 + 0.2 + 0.4 + 0.3 round to one ulp above 1,
        # and at p = 5e-324 every weight (1-p)^N is 1.
        zeros = [6, 6, 6, 5, 5, 5, 5, 4, 4, 3]
        dist = np.array([[0.0] * z + [0.25] * (6 - z) for z in zeros])
        profile = DistanceProfile(np.zeros((10, 1)), dist)
        curve = thinned_contact_estimate(profile, 5e-324, [0.0, 1.0])
        assert np.array_equal(curve.values, [1.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(tied_profiles_and_radii())
    def test_p_one_bit_identical_to_empirical(self, case):
        profile, radii = case
        a = empirical_contact(profile, radii)
        b = thinned_contact_estimate(profile, 1.0, radii)
        assert np.array_equal(a.values, b.values)

    @settings(max_examples=200, deadline=None)
    @given(tied_profiles_and_radii(), retention,
           st.sets(st.integers(1, 40), min_size=1, max_size=5))
    def test_beyond_depth_is_tail_bound(self, case, p, steps):
        profile, _ = case
        radii = profile.distances.max() + 0.25 * np.array(sorted(steps))
        curve = thinned_contact_estimate(profile, p, radii)
        assert np.all(curve.values == (1.0 - p) ** profile.depth)

    @settings(max_examples=200, deadline=None)
    @given(tied_profiles_and_radii(), st.booleans())
    def test_count_histogram_is_brute_force(self, case, clamped):
        profile, radii = case
        profile = DistanceProfile(profile.test_points, profile.distances,
                                  depth_clamped=clamped)
        n = profile.distances.shape[0]
        counts = np.sum(profile.distances[:, :, None] <= radii, axis=1)
        brute = np.array([np.bincount(c, minlength=profile.depth + 1)
                          for c in counts.T])
        freq = estimation._count_freq(profile, radii)
        # Equal to the integer counts over n bit for bit; (k / n) * n itself
        # need not round back to k (1 / 49 * 49 < 1).
        assert freq.flags.c_contiguous
        assert np.array_equal(freq, brute / n)
        assert np.array_equal(np.rint(freq * n), brute)

    @settings(max_examples=100, deadline=None)
    @given(tied_profiles_and_radii(), st.booleans(),
           st.lists(retention, min_size=1, max_size=4, unique=True),
           st.sampled_from(["direct-ls", "log-profiled-ls"]))
    def test_profile_fit_is_curve_map_fit(self, case, clamped, p_values,
                                          objective):
        profile, radii = case
        profile = DistanceProfile(profile.test_points, profile.distances,
                                  depth_clamped=clamped)
        radii = radii[radii > 0]
        curves = {p: thinned_contact_estimate(profile, p, radii)
                  for p in p_values}
        outcomes = []
        for data in (profile, curves):
            try:
                outcomes.append(repr(fit_void(
                    data, UniformInterval(1.0), p_values=p_values,
                    objective=objective, radii=radii)))
            except DegenerateDataError as exc:
                outcomes.append(repr(exc))
        assert outcomes[0] == outcomes[1]


def _reject_constant(name):
    raise ValueError("non-finite JSON constant %s" % name)


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestFitResultJson:
    @settings(max_examples=200, deadline=None)
    @given(finite, finite, finite, st.text(), st.integers(0, 2 ** 31),
           st.booleans(),
           st.dictionaries(st.text(), st.one_of(finite, st.integers(),
                                                st.booleans(), st.text())))
    def test_round_trip_through_strict_json(self, alpha, lam, objective,
                                            method, n_iterations, converged,
                                            extras):
        fit = FitResult(alpha, lam, objective, method, n_iterations,
                        converged, extras)
        text = json.dumps(fit.to_json_dict(), allow_nan=False)
        assert FitResult(**json.loads(text,
                                      parse_constant=_reject_constant)) == fit


class TestFitVoid:
    mu0 = UniformInterval(1.0)

    def test_noise_free_single_curve(self):
        params = TasParameters(0.6, 0.02, self.mu0)
        radii = np.linspace(0.2, 30, 40)
        curves = {1.0: thinned_contact_analytic(params, 1.0, radii)}
        for objective in ("direct-ls", "log-profiled-ls"):
            fit = fit_void(curves, self.mu0, objective=objective)
            assert fit.alpha_hat == pytest.approx(0.6, abs=1e-6)
            assert fit.lambda_hat == pytest.approx(0.02, abs=1e-6)

    def test_noise_free_multi_p(self):
        params = TasParameters(0.8, 0.4, self.mu0)
        radii = np.linspace(0.05, 3.0, 30)
        curves = {p: thinned_contact_analytic(params, p, radii)
                  for p in (0.3, 0.5, 0.8, 1.0)}
        fit = fit_void(curves, self.mu0)
        assert fit.alpha_hat == pytest.approx(0.8, abs=1e-6)
        assert fit.lambda_hat == pytest.approx(0.4, abs=1e-6)

    @pytest.mark.parametrize("mu0", [UniformInterval(1.0),
                                     IsotropicGaussian(3, 1.0)])
    def test_mu0_dimension_must_match_profile(self, mu0):
        window = Window([-5, -5], [5, 5])
        pattern = PointPattern(
            np.random.default_rng(2).uniform(-5, 5, (50, 2)), window)
        profile = distance_profile(pattern, grid_test_points(window, 50))
        with pytest.raises(ValidationError, match="mu0 dimension"):
            fit_void(profile, mu0)

    @pytest.mark.parametrize("mu0, radii", [
        (IsotropicGaussian(2, 1.0), np.linspace(0.3, 4.0, 10)),
        (EmpiricalCloud(np.random.default_rng(4).uniform(-1, 1, (30, 1))),
         np.linspace(0.05, 3.0, 25)),
    ])
    def test_noise_free_non_uniform_mu0(self, mu0, radii):
        params = TasParameters(0.7, 0.3, mu0)
        curves = {p: thinned_contact_analytic(params, p, radii)
                  for p in (0.4, 0.7, 1.0)}
        fit = fit_void(curves, mu0)
        assert fit.converged
        assert fit.alpha_hat == pytest.approx(0.7, abs=1e-6)
        assert fit.lambda_hat == pytest.approx(0.3, abs=1e-6)

    def test_profile_input_runs(self):
        params = TasParameters(0.6, 0.4, self.mu0)
        pattern = simulate_tas(params, Window([-200], [200]), RandomSource(3),
                               n_max=10 ** 6)
        profile = distance_profile(pattern,
                                   grid_test_points(pattern.window, 200),
                                   depth=40)
        fit = fit_void(profile, self.mu0, p_values=[0.5, 0.8, 1.0])
        assert 0 < fit.alpha_hat < 1
        assert fit.lambda_hat >= 0

    @staticmethod
    def thinned_profile():
        params = TasParameters(0.6, 0.4, UniformInterval(1.0))
        pattern = simulate_tas(params, Window([-200], [200]), RandomSource(3),
                               n_max=10 ** 6)
        return distance_profile(pattern, grid_test_points(pattern.window, 200),
                                depth=40)

    @pytest.mark.parametrize("objective", ["direct-ls", "log-profiled-ls"])
    def test_profile_input_equals_public_curves(self, objective):
        # The shared count histogram gives the public estimator's curves.
        profile = self.thinned_profile()
        p_values = np.round(np.arange(0.3, 1.01, 0.1), 10)
        radii = np.unique(profile.nearest)
        radii = radii[radii > 0]
        curves = {p: thinned_contact_estimate(profile, p, radii)
                  for p in p_values}
        a = fit_void(profile, self.mu0, p_values=p_values, objective=objective)
        b = fit_void(curves, self.mu0, objective=objective)
        assert repr(a) == repr(b)

    def test_one_radius_profiled_fit_is_pgf_fit(self):
        profile = self.thinned_profile()
        p_values = np.round(np.arange(0.3, 1.01, 0.1), 10)
        radius = [float(np.median(profile.nearest))]
        curves = {p: thinned_contact_estimate(profile, p, radius)
                  for p in p_values}
        a = fit_void(curves, self.mu0, objective="log-profiled-ls")
        b = fit_pgf_curve(1.0 - p_values,
                          [curves[p].values[0] for p in p_values],
                          self.mu0, radius[0])
        for field in ("alpha_hat", "lambda_hat", "objective_value"):
            assert getattr(a, field) == pytest.approx(getattr(b, field),
                                                      rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("radii", [
        [2.0, 1.0], [1.0, 1.0, 2.0], [np.nan, 1.0], [1.0, np.nan], [np.nan],
        [0.0, 0.5, 1.0, 2.0], [-1.0, 1.0, 2.0], [1.0, np.inf],
        [[0.5, 1.0]]])
    def test_profile_radii_validated(self, radii):
        with pytest.raises(ValidationError):
            fit_void(self.thinned_profile(), self.mu0, p_values=[0.5, 1.0],
                     radii=radii)

    def test_depth_tail_warning_names_the_call(self):
        profile = self.thinned_profile()
        radii = np.unique(profile.nearest)[1:]
        with pytest.warns(UserWarning, match="profile depth") as record:
            thinned_contact_estimate(profile, 0.05, radii)
        with pytest.warns(UserWarning, match="profile depth") as fit_record:
            fit_void(profile, self.mu0, p_values=[0.05, 1.0])
        assert [w.filename for w in list(record) + list(fit_record)] == [
            __file__, __file__]

    def test_zero_jacobian_row_is_held(self):
        # The LM reaches lambda = 0, where the alpha row of the Jacobian is
        # zero and the damped system is singular; alpha is held there.
        from tasproc.model import ContactCurve
        fit = fit_void({0.5: ContactCurve([2.0, 2.25], [0.75, 0.5])},
                       self.mu0)
        assert 0.01 <= fit.alpha_hat <= 0.999
        assert 0.0 <= fit.lambda_hat < np.inf

    def test_subnormal_retention_fit_stays_in_range(self):
        # At p = 5e-324 the log-profiled Jacobian spans hundreds of decades,
        # where Cramer's rule for the step overflows.
        dist = np.array([[0.0] * 9] * 2 + [[0.0] * 6 + [2.25] * 3] * 2
                        + [[0.0] * 7 + [2.25] * 2] * 8)
        profile = DistanceProfile(np.zeros((12, 1)), dist)
        with pytest.warns(UserWarning, match="profile depth"):
            fit = fit_void(profile, self.mu0, p_values=[5e-324],
                           radii=[1.0, 2.0], objective="log-profiled-ls")
        assert fit.converged
        assert fit.alpha_hat == 0.01
        assert fit.lambda_hat == pytest.approx(3.678366383365465e-14,
                                               rel=1e-6)

    def test_degenerate_data_rejected(self):
        from tasproc.model import ContactCurve
        flat = {1.0: ContactCurve([1.0, 2.0], [1.0, 1.0])}
        with pytest.raises(DegenerateDataError):
            fit_void(flat, self.mu0)

    @pytest.mark.parametrize("objective", ["direct-ls", "log-profiled-ls"])
    def test_one_point_strictly_inside_unit_interval_rejected(self, objective):
        from tasproc.model import ContactCurve
        curves = {1.0: ContactCurve([1.0, 2.0], [0.5, 0.0])}
        with pytest.raises(DegenerateDataError):
            fit_void(curves, self.mu0, objective=objective)

    def test_empty_curve_map_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_void({}, self.mu0)

    @pytest.mark.parametrize("objective", ["direct-ls", "log-profiled-ls"])
    @pytest.mark.parametrize("p", [1.5, 0.0, -0.2, np.nan])
    def test_retention_outside_unit_interval_rejected(self, objective, p):
        from tasproc.model import ContactCurve
        curves = {0.5: ContactCurve([1.0, 2.0], [0.95, 0.9]),
                  p: ContactCurve([1.0, 2.0], [0.9, 0.8])}
        with pytest.raises(ValidationError):
            fit_void(curves, self.mu0, objective=objective)


@functools.lru_cache(maxsize=None)
def _table1_curves(seed, op):
    """The thinned curves of the Table-1 replicate that perfbench's table1
    workload runs as op `op` of a run with seed `seed`."""
    replicate_seed = int(
        np.random.SeedSequence([seed, op]).generate_state(1)[0])
    alpha, lam = TABLE1_CELLS[op % len(TABLE1_CELLS)]
    pattern = simulate_tas(TasParameters(alpha, lam, UniformInterval(1.0)),
                           TABLE1_WINDOW, RandomSource(replicate_seed, 0),
                           n_max=HARNESS_N_MAX)
    profile = distance_profile(pattern, grid_test_points(TABLE1_WINDOW, 400),
                               depth=60)
    radii = np.unique(profile.nearest)
    radii = radii[radii > 0]
    return {p: thinned_contact_estimate(profile, p, radii)
            for p in DEFAULT_P_VALUES}


_TABLE1_CASES = ([(1, op) for op in range(20, 36)]
                 + [(7919, 42), (3, 6), (3, 18)])


def _fit_points(curves):
    """The (radii, idx, s, G_hat) points that fit_void builds from curves."""
    radii, idx = np.unique(np.concatenate([c.radii for c in curves.values()]),
                           return_inverse=True)
    s = np.concatenate([np.full(c.radii.size, p) for p, c in curves.items()])
    ghat = np.concatenate([c.values for c in curves.values()])
    return radii, idx, s, ghat


def _nelder_mead_sse(curves, mu0):
    """The sum of squares a bounded Nelder-Mead reaches from direct-ls's
    start: alpha mid-box, lambda profiled from the log residuals."""
    radii, idx, s, ghat = _fit_points(curves)
    coverage = prepare_coverage(mu0, radii, alpha_min=0.01)

    def sse(v):
        alpha, lam = v
        resid = ghat - np.exp(-lam * s ** alpha * coverage.values(alpha)[idx])
        return float(resid @ resid)

    alpha0 = 0.5 * (0.01 + 0.999)
    pos = ghat > 0
    x = (s ** alpha0 * coverage.values(alpha0)[idx])[pos]
    lam0 = max(0.0, -(x @ np.log(ghat[pos])) / (x @ x)) or 1.0
    res = optimize.minimize(
        sse, x0=[alpha0, lam0], method="Nelder-Mead",
        bounds=[(0.01, 0.999), (0.0, np.inf)],
        options={"maxiter": 500, "fatol": 1e-8, "xatol": 1e-8})
    return float(res.fun)


def _brent_profiled_sse(radii, idx, s, ghat, mu0):
    """The log sum of squares that scipy's bounded Brent search reaches over
    alpha alone, with lambda profiled out in closed form at each alpha."""
    coverage = prepare_coverage(mu0, radii, alpha_min=0.01)
    pos = ghat > 0
    y = np.log(ghat[pos])

    def sse(alpha):
        x = (s ** alpha * coverage.values(alpha)[idx])[pos]
        resid = y + max(0.0, -(x @ y) / (x @ x)) * x
        return float(resid @ resid)

    res = optimize.minimize_scalar(sse, bounds=(0.01, 0.999),
                                   method="bounded",
                                   options={"xatol": 1e-10, "maxiter": 500})
    return float(res.fun)


@pytest.mark.filterwarnings("ignore:profile depth")
@pytest.mark.parametrize("seed, op", _TABLE1_CASES)
def test_direct_ls_never_worse_than_nelder_mead(seed, op):
    mu0 = UniformInterval(1.0)
    curves = _table1_curves(seed, op)
    fit = fit_void(curves, mu0)
    nm = _nelder_mead_sse(curves, mu0)
    assert fit.converged
    assert fit.objective_value <= nm * (1.0 + 1e-12)
    if (seed, op) == (1, 30):
        # Nelder-Mead stalls on the bound alpha = 0.999 here.
        assert fit.alpha_hat < 0.995
        assert fit.objective_value < nm * (1.0 - 1e-3)


@pytest.mark.filterwarnings("ignore:profile depth")
@pytest.mark.parametrize("seed, op", _TABLE1_CASES)
def test_log_profiled_ls_never_worse_than_brent(seed, op):
    mu0 = UniformInterval(1.0)
    curves = _table1_curves(seed, op)
    fit = fit_void(curves, mu0, objective="log-profiled-ls")
    assert fit.converged
    assert fit.objective_value <= (
        _brent_profiled_sse(*_fit_points(curves), mu0) * (1.0 + 1e-12))


@pytest.mark.parametrize("stream", range(12))
def test_pgf_fit_never_worse_than_brent(stream):
    # A Fig-3 pattern's ball-count p.g.f. at r = 1, fitted at s = 1 - z.
    mu0 = FIG3_PARAMS.mu0
    z = np.round(np.arange(0.1, 0.95, 0.1), 10)
    pattern = simulate_tas(FIG3_PARAMS, FIG3_WINDOW, RandomSource(11, stream),
                           n_max=HARNESS_N_MAX)
    counts = _ball_counts(pattern.points, FIG3_WINDOW.erode(1.0), 400, 1.0)
    g = ball_count_pgf(counts, z)
    fit = fit_pgf_curve(z, g, mu0, 1.0)
    brent = _brent_profiled_sse(np.array([1.0]), np.zeros(z.size, dtype=int),
                                1.0 - z, g, mu0)
    assert fit.converged
    assert fit.objective_value <= brent * (1.0 + 1e-12)


class TestBallCountPgf:
    def test_matches_direct_mean(self):
        gen = np.random.default_rng(11)
        counts = np.concatenate([gen.poisson(3.0, 300),
                                 gen.zipf(1.6, 100) % 5000])
        z = np.concatenate([np.arange(0.1, 0.95, 0.1), gen.uniform(0, 1, 20)])
        direct = np.mean(np.power(z[:, None], counts[None, :]), axis=1)
        assert np.max(np.abs(ball_count_pgf(counts, z) - direct)) <= 1e-15

    def test_exact_at_zero_and_one(self):
        counts = np.array([0, 3, 0, 1, 7, 0, 2])
        assert ball_count_pgf(counts, [0.0])[0] == np.mean(counts == 0)
        assert ball_count_pgf(counts, [1.0])[0] == 1.0


@st.composite
def ball_count_cases(draw):
    """A grid window of up to 12 centres per axis, points on a coarse lattice
    (ties at distance exactly r, points on centres, duplicates) or anywhere,
    reaching far outside the window, and radii from 0 to far below and far
    above the extent."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 40))
    lower = np.array(draw(st.lists(st.integers(-9, 9), min_size=d,
                                   max_size=d)), dtype=float)
    sides = np.array(draw(st.lists(st.integers(1, 12), min_size=d,
                                   max_size=d)), dtype=float)
    n_target = draw(st.integers(1, 12 ** d))
    coord = st.one_of(st.integers(-24, 24).map(lambda v: v / 2.0),
                      st.floats(-30.0, 30.0, allow_subnormal=False))
    points = np.reshape(draw(st.lists(coord, min_size=n * d,
                                      max_size=n * d)), (n, d))
    scale = 2.0 ** draw(st.integers(-3, 3))
    radius = draw(st.one_of(st.integers(0, 6).map(lambda v: v / 2.0),
                            st.floats(0.0, 20.0),
                            st.sampled_from([1e-12, 1e-7, 1e7, 1e12])))
    window = Window(lower * scale, (lower + sides) * scale)
    return points * scale, window, n_target, radius * scale


def brute_ball_counts(points, centres, radius):
    d2 = np.sum((points[None, :, :] - centres[:, None, :]) ** 2, axis=2)
    return np.count_nonzero(d2 <= radius * radius, axis=1)


class TestBallCounts:
    @settings(max_examples=300, deadline=None)
    @given(ball_count_cases(), st.sampled_from([1, 5, 64, 1 << 20]))
    # Squares that underflow to 0 put a point at distance 2e-256 inside the
    # ball of radius 0, and one at 3e-170 inside the ball of radius 1e-180.
    @example((np.array([[0.0], [1.98676368e-256]]), Window([-1.0], [1.0]), 1,
              0.0), 1 << 20)
    @example((np.array([[0.0, 0.0], [1e-200, 0.0], [3e-170, 0.0]]),
              Window([-1.0, -1.0], [1.0, 1.0]), 1, 1e-180), 1 << 20)
    def test_matches_brute_force(self, case, block):
        # Small blocks split the points into blocks of one or a few.
        points, window, n_target, radius = case
        brute = brute_ball_counts(points, window.grid_points(n_target), radius)
        with mock.patch.object(estimation, "_BALL_BLOCK", block):
            counts = _ball_counts(points, window, n_target, radius)
        assert np.array_equal(counts, brute)

    def test_lattice_ties_and_duplicates(self):
        # Every lattice neighbour at distance exactly 1 counts, twice over;
        # the grid centres are the integers -5..5 per axis.
        lattice = np.stack(np.meshgrid(*[np.arange(-3.0, 4.0)] * 2), -1)
        points = np.concatenate([lattice.reshape(-1, 2)] * 2)
        window = Window([-5.5, -5.5], [5.5, 5.5])
        counts = _ball_counts(points, window, 121, 1.0).reshape(11, 11)
        # Centres (0, 0), (-3, 3), (4, 0) and (5, 0).
        assert [counts[5, 5], counts[2, 8], counts[9, 5], counts[10, 5]] == [
            10, 6, 2, 0]
        assert np.array_equal(counts.ravel(), brute_ball_counts(
            points, window.grid_points(121), 1.0))

    def test_radius_within_rounding_of_a_run_edge(self):
        # At r = (K - 1/2) steps, give or take an ulp, a point that the
        # distance test puts in a centre's ball can round to an index K away
        # from that centre.
        gen = np.random.default_rng(7)
        for _ in range(500):
            lo = gen.uniform(-1e3, 1e3)
            window = Window([lo], [lo + gen.uniform(0.1, 50.0)])
            n_target = int(gen.integers(2, 30))
            (_, step, centres), = window.grid_axes(n_target)
            radius = ((gen.integers(1, 5) - 0.5) * step
                      * (1.0 + gen.integers(-4, 5) * 2.0 ** -52))
            x = (centres[gen.integers(0, centres.size, 50)]
                 + gen.choice([-1.0, 1.0], 50) * radius)
            points = (x + gen.integers(-3, 4, 50) * np.spacing(x))[:, None]
            assert np.array_equal(
                _ball_counts(points, window, n_target, radius),
                brute_ball_counts(points, centres[:, None], radius))

    def test_empty_pattern_counts_zero(self):
        window = Window([-1.0, -1.0], [1.0, 1.0])
        assert _ball_counts(np.zeros((0, 2)), window, 9, 1.0).tolist() == [0] * 9

    def test_matches_kdtree_on_fig3_patterns(self):
        window = FIG3_WINDOW.erode(1.0)
        test_points = grid_test_points(window, 400)
        for stream in range(12):
            pattern = simulate_tas(FIG3_PARAMS, FIG3_WINDOW,
                                   RandomSource(5, stream), n_max=HARNESS_N_MAX)
            kd = cKDTree(pattern.points).query_ball_point(
                test_points, r=1.0, return_length=True)
            assert np.array_equal(
                _ball_counts(pattern.points, window, 400, 1.0), kd)

    @pytest.mark.parametrize("n_target", [1, 400])
    @pytest.mark.parametrize("params, window, radius", [
        # 1-D, 400 centres: r just over step/2, then 46 steps.
        (TasParameters(0.6, 0.4, UniformInterval(1.0)), Window([-200], [200]),
         0.5),
        (TasParameters(0.6, 0.4, UniformInterval(1.0)), Window([-200], [200]),
         37.5),
        # 3-D, 7 centres per axis: r = step/2 exactly, then 5.8 steps.
        (TasParameters(0.7, 0.1, IsotropicGaussian(3, 1.0)),
         Window([-8, -8, -8], [8, 8, 8]), 1.0),
        (TasParameters(0.7, 0.1, IsotropicGaussian(3, 1.0)),
         Window([-8, -8, -8], [8, 8, 8]), 5.0),
    ])
    def test_matches_kdtree_on_pgf_grids(self, params, window, radius,
                                         n_target):
        # fit_count_pgf's grid on the eroded window, and a single centre.
        eroded = window.erode(radius)
        for stream in range(3):
            pattern = simulate_tas(params, window, RandomSource(23, stream),
                                   n_max=HARNESS_N_MAX)
            kd = cKDTree(pattern.points).query_ball_point(
                eroded.grid_points(n_target), r=radius, return_length=True)
            assert np.array_equal(
                _ball_counts(pattern.points, eroded, n_target, radius), kd)


class TestFitCountPgf:
    mu0 = UniformInterval(1.0)

    def test_noise_free_pgf_values(self):
        params = TasParameters(0.7, 0.1, self.mu0)
        z = np.arange(0.1, 0.95, 0.1)
        g = count_pgf(params, 1.0, z)
        fit = fit_pgf_curve(z, g, self.mu0, 1.0)
        assert fit.alpha_hat == pytest.approx(0.7, abs=1e-6)
        assert fit.lambda_hat == pytest.approx(0.1, abs=1e-6)

    @pytest.mark.parametrize("bad", [1.5, np.nan, -0.1, "short"])
    def test_pgf_values_outside_unit_interval_or_misaligned_rejected(self,
                                                                      bad):
        z = np.arange(0.1, 0.95, 0.1)
        g = count_pgf(TasParameters(0.7, 0.1, self.mu0), 1.0, z)
        if bad == "short":
            g = g[:2]
        else:
            g[4] = bad
        with pytest.raises(ValidationError):
            fit_pgf_curve(z, g, self.mu0, 1.0)

    def test_pgf_curve_one_value_below_one_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_pgf_curve([0.2, 0.5], [1.0, 0.9], self.mu0, 1.0)

    @pytest.mark.parametrize("z", [1.5, 1.0, -0.1, np.nan])
    def test_pgf_curve_z_outside_unit_interval_rejected(self, z):
        with pytest.raises(ValidationError):
            fit_pgf_curve([0.2, 0.5, z], [0.9, 0.8, 0.7], self.mu0, 1.0)

    def test_poisson_pattern_hits_alpha_boundary(self):
        params = TasParameters(1.0, 0.2, self.mu0)
        pattern = simulate_tas(params, Window([-500], [500]), RandomSource(7))
        fit = fit_count_pgf(pattern, 2.0, np.arange(0.1, 0.95, 0.1), self.mu0)
        assert fit.alpha_hat > 0.9
        assert fit.lambda_hat == pytest.approx(0.2, rel=0.25)

    def test_empty_pattern_is_degenerate(self):
        pattern = PointPattern(np.zeros((0, 2)), Window([-5, -5], [5, 5]))
        with pytest.raises(DegenerateDataError):
            fit_count_pgf(pattern, 1.0, np.arange(0.1, 0.95, 0.1),
                          IsotropicGaussian(2, 1.0))

    @pytest.mark.parametrize("mu0", [UniformInterval(1.0),
                                     IsotropicGaussian(3, 1.0)])
    def test_mu0_dimension_must_match_pattern(self, mu0):
        pattern = PointPattern(
            np.random.default_rng(2).uniform(-5, 5, (50, 2)),
            Window([-5, -5], [5, 5]))
        with pytest.raises(ValidationError, match="mu0 dimension"):
            fit_count_pgf(pattern, 1.0, [0.2, 0.5], mu0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan])
    def test_radius_must_be_positive(self, radius):
        # Refused before any ball is counted.
        with pytest.raises(ValidationError, match="radius must be > 0"):
            fit_count_pgf(pattern_1d([0.0, 1.0]), radius, [0.2, 0.5],
                          self.mu0)

    def test_z_grid_validation(self):
        pattern = pattern_1d([0.0, 1.0])
        with pytest.raises(ValidationError):
            fit_count_pgf(pattern, 1.0, [0.0, 0.5], self.mu0)


class TestClusterSizeAlpha:
    def test_all_singletons_exactly_one(self):
        result = estimate_alpha_from_cluster_sizes([1] * 50)
        assert result.alpha == 1.0
        assert result.raw == 1.0

    def test_permutation_invariant(self):
        gen = np.random.default_rng(2)
        sizes = gen.integers(1, 30, 200)
        a = estimate_alpha_from_cluster_sizes(sizes)
        b = estimate_alpha_from_cluster_sizes(gen.permutation(sizes))
        assert a.raw == b.raw

    def test_sibuya_draws_recover_alpha(self):
        rng = RandomSource(30)
        sizes = sibuya_variates(0.6, 10 ** 4, rng)
        result = estimate_alpha_from_cluster_sizes(sizes)
        assert abs(result.alpha - 0.6) < 0.02

    def test_consistency_error_shrinks(self):
        errors = []
        for k in (10 ** 3, 4 * 10 ** 3, 16 * 10 ** 3):
            errs = []
            for rep in range(20):
                rng = RandomSource(31, rep)
                sizes = sibuya_variates(0.6, k, rng)
                errs.append(abs(estimate_alpha_from_cluster_sizes(sizes).raw
                                - 0.6))
            errors.append(np.mean(errs))
        assert errors[2] < errors[0]
        # roughly root-K: quadrupling K should about halve the error
        assert errors[2] < 0.6 * errors[0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            estimate_alpha_from_cluster_sizes([])
        with pytest.raises(ValidationError):
            estimate_alpha_from_cluster_sizes([0, 2])


class TestEstimateMu0Empirical:
    def test_single_cluster_mean_centred(self):
        pattern = PointPattern([[0.0], [2.0]], Window([-10], [10]),
                               labels=["a", "a"])
        cloud = estimate_mu0_empirical(pattern)
        assert sorted(cloud.points[:, 0].tolist()) == [-1.0, 1.0]

    def test_two_clusters_pooled(self):
        pattern = PointPattern([[0.0], [2.0], [10.0], [12.0]],
                               Window([-20], [20]),
                               labels=["a", "a", "b", "b"])
        cloud = estimate_mu0_empirical(pattern)
        assert sorted(cloud.points[:, 0].tolist()) == [-1.0, -1.0, 1.0, 1.0]

    def test_uniform_cluster_recovered_within_kolmogorov_distance(self):
        gen = np.random.default_rng(9)
        offsets = gen.uniform(-1, 1, (10 ** 4, 1))
        pattern = PointPattern(offsets + 3.0, Window([0], [6]),
                               labels=["c"] * 10 ** 4)
        cloud = estimate_mu0_empirical(pattern)
        xs = np.sort(cloud.points[:, 0])
        ecdf = np.arange(1, xs.size + 1) / xs.size
        true_cdf = np.clip((xs + 1) / 2.0, 0, 1)
        assert np.max(np.abs(ecdf - true_cdf)) < 0.02

    def test_requires_labels(self):
        pattern = pattern_1d([0.0, 1.0])
        with pytest.raises(ValidationError):
            estimate_mu0_empirical(pattern)

    def test_no_usable_cluster(self):
        pattern = PointPattern([[0.0], [1.0]], Window([-5], [5]),
                               labels=["a", "b"])
        with pytest.raises(DegenerateDataError):
            estimate_mu0_empirical(pattern)
