"""Minimum-contrast estimators: algebra, degeneracy, asymptotic sigmas."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_close, custom
from fracdrift.covariance import s_infty_star
from fracdrift.estimators import (
    CONTINUOUS_NORM,
    CONTINUOUS_PROJ,
    DISCRETE_NORM,
    DISCRETE_PROJ,
    DegenerateModelError,
    Normalizer,
    alpha_from_moment,
    asymptotic_sigma,
    drift_scales,
    estimate,
    finish_report,
    qww1,
    trace_q1,
)
from fracdrift.models import (
    build_pointwise_model,
    projection_indicator,
    projection_sine,
)
from fracdrift.simulate import StationaryModeSampler, attach_projection, sample_stationary_sequence
from fracdrift._rng import substream


class TestInversionAlgebra:
    def test_unit_ratio(self, heat3):
        nz = trace_q1(heat3)
        rep = estimate(DISCRETE_NORM, np.full(50, nz.value), None, nz, heat3.hurst)
        assert rep.alpha_hat == pytest.approx(1.0, rel=1e-14)
        assert rep.sample_size == 50

    def test_power_transform_h_half(self):
        nz = Normalizer(value=2.0, degenerate=False)
        rep = estimate(DISCRETE_NORM, np.full(10, 8.0), None, nz, 0.5)
        # ratio 4 at H = 1/2: alpha = 4^{-1} = 0.25
        assert rep.alpha_hat == pytest.approx(0.25, rel=1e-14)

    @given(
        st.floats(0.05, 0.95),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_homogeneity(self, h, moment, c):
        nz = Normalizer(value=1.7, degenerate=False)
        base = estimate(DISCRETE_NORM, np.full(4, moment), None, nz, h).alpha_hat
        scaled = estimate(DISCRETE_NORM, np.full(4, c * moment), None, nz, h).alpha_hat
        assert scaled == pytest.approx(c ** (-1.0 / (2 * h)) * base, rel=1e-11)

    @given(st.floats(0.05, 0.95), st.floats(0.1, 10), st.floats(1.01, 5))
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing_in_moment(self, h, moment, factor):
        nz = Normalizer(value=1.0, degenerate=False)
        lo = estimate(DISCRETE_NORM, np.full(3, moment), None, nz, h).alpha_hat
        hi = estimate(DISCRETE_NORM, np.full(3, moment * factor), None, nz, h).alpha_hat
        assert hi < lo

    def test_continuous_trapezoid_exact_on_constant(self, heat3):
        nz = trace_q1(heat3)
        traj = sample_stationary_sequence(heat3, 16, 0.5, seed=1)
        const = np.full_like(traj.sq_norms, nz.value)
        rep = estimate(CONTINUOUS_NORM, const, traj.t, nz, heat3.hurst)
        assert rep.alpha_hat == pytest.approx(1.0, rel=1e-13)
        assert rep.sample_size == pytest.approx(traj.t[-1] - traj.t[0])

    def test_projection_variants(self, heat3):
        w = projection_indicator(0.0, 0.5, 3)
        qn = qww1(heat3, w)
        rep = estimate(DISCRETE_PROJ, np.full(32, np.sqrt(qn.value)) ** 2, None, qn,
                       heat3.hurst)
        assert rep.alpha_hat == pytest.approx(1.0, rel=1e-13)
        traj = attach_projection(sample_stationary_sequence(heat3, 16, 1.0, seed=2), w)
        rep2 = estimate(CONTINUOUS_PROJ, traj.projections**2, traj.t, qn, heat3.hurst)
        assert rep2.kind == "continuous_projection"
        assert rep2.alpha_hat > 0

    def test_rejects_bad_moments(self, heat3):
        nz = trace_q1(heat3)
        with pytest.raises(ValueError):
            estimate(DISCRETE_NORM, np.full(5, -1.0), None, nz, heat3.hurst)
        with pytest.raises(ValueError):
            estimate(DISCRETE_NORM, np.empty(0), None, nz, heat3.hurst)
        for bad in (np.nan, np.inf, np.array([1.0, np.nan]), np.array([1.0, -np.inf])):
            with pytest.raises(ValueError, match="finite and positive"):
                alpha_from_moment(bad, nz, heat3.hurst, DISCRETE_NORM)
        values = np.full(5, nz.value)
        values[2] = np.nan
        for kind in (DISCRETE_NORM, CONTINUOUS_NORM):
            with pytest.raises(ValueError, match="finite and positive"):
                estimate(kind, values, np.arange(5.0), nz, heat3.hurst)
        with pytest.raises(ValueError, match="unknown estimator kind"):
            estimate("discrete_nrm", np.ones(4), None, nz, heat3.hurst)
        with pytest.raises(ValueError, match="positive horizon"):
            estimate(CONTINUOUS_PROJ, np.ones(1), np.zeros(1), nz, heat3.hurst)

    def test_moment_per_kind(self, heat3):
        # Discrete kinds invert the sample mean, continuous kinds the
        # trapezoidal time average; both report the matching sample size.
        nz = trace_q1(heat3)
        traj = sample_stationary_sequence(heat3, 32, 0.5, seed=3)
        horizon = traj.t[-1] - traj.t[0]
        for kind, moment, size in [
            (DISCRETE_NORM, np.mean(traj.sq_norms), len(traj.sq_norms)),
            (DISCRETE_PROJ, np.mean(traj.sq_norms), len(traj.sq_norms)),
            (CONTINUOUS_NORM, np.trapezoid(traj.sq_norms, traj.t) / horizon, horizon),
            (CONTINUOUS_PROJ, np.trapezoid(traj.sq_norms, traj.t) / horizon, horizon),
        ]:
            rep = estimate(kind, traj.sq_norms, traj.t, nz, heat3.hurst)
            assert rep.kind == kind and rep.sample_size == size
            assert rep.alpha_hat == alpha_from_moment(float(moment), nz, heat3.hurst, kind)


class TestDegeneracy:
    def test_midpoint_sine4_flagged(self):
        model = build_pointwise_model(0.5, 8, 1.0, 0.55)
        nz = qww1(model, projection_sine(4, 8))
        assert nz.degenerate and nz.value < 1e-12

    def test_estimator_refuses(self):
        model = build_pointwise_model(0.5, 8, 1.0, 0.55)
        nz = qww1(model, projection_sine(4, 8))
        with pytest.raises(DegenerateModelError):
            estimate(DISCRETE_PROJ, np.ones(10), None, nz, model.hurst)

    def test_window_not_degenerate(self):
        model = build_pointwise_model(0.5, 8, 1.0, 0.55)
        nz = qww1(model, projection_indicator(0.0, 0.5, 8))
        assert not nz.degenerate and nz.value > 1e-12

    def test_constants_refuse_degenerate_projection(self):
        model = build_pointwise_model(0.5, 8, 1.0, 0.55)
        for kind in (DISCRETE_PROJ, CONTINUOUS_PROJ):
            with pytest.raises(DegenerateModelError):
                asymptotic_sigma(model, kind, projection_sine(4, 8))
        with pytest.raises(DegenerateModelError):
            drift_scales(model, projection_sine(4, 8))


class TestNormalizers:
    def test_trace_is_at_drift_one(self, heat3):
        # trace_q1 must not depend on the model's own alpha.
        assert trace_q1(heat3).value == pytest.approx(
            trace_q1(heat3.with_alpha(3.0)).value, rel=1e-14
        )

    def test_alpha_scaling_of_trace(self, heat3):
        from fracdrift.covariance import trace_q

        t1 = trace_q1(heat3).value
        for alpha in (0.5, 1.0, 2.0):
            assert_close(
                trace_q(heat3.with_alpha(alpha)),
                alpha ** (-2 * heat3.hurst) * t1,
                1e-10,
                "trace alpha-scaling",
            )


class TestAsymptoticSigma:
    def test_sigma1_composition(self, heat3):
        # Two code paths for the same formula must agree to 1e-10.
        sigma1 = asymptotic_sigma(heat3, DISCRETE_NORM)
        manual = (
            heat3.alpha ** (1 + 2 * heat3.hurst)
            / (2 * heat3.hurst * trace_q1(heat3).value)
            * np.sqrt(s_infty_star(heat3).value)
        )
        assert_close(sigma1, manual, 1e-10, "sigma1 two routes")
        gamma, delta = drift_scales(heat3)
        assert delta is None
        assert gamma == pytest.approx(
            heat3.alpha ** (1 + 2 * heat3.hurst) / (2 * heat3.hurst * trace_q1(heat3).value)
        )

    @pytest.mark.parametrize("alpha,lam", [(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)])
    def test_markov_closed_forms(self, alpha, lam):
        # H = 1/2 single mode: sigma2 = sqrt(2 alpha / lambda) and
        # sigma1 = sqrt(2) alpha sqrt(coth(alpha lambda)).
        model = custom([lam], alpha, 0.5)
        assert_close(asymptotic_sigma(model, CONTINUOUS_NORM), np.sqrt(2.0 * alpha / lam),
                     1e-6, "sigma2 Markov")
        assert_close(asymptotic_sigma(model, DISCRETE_NORM),
                     np.sqrt(2.0) * alpha * np.sqrt(1.0 / np.tanh(alpha * lam)),
                     1e-6, "sigma1 Markov")

    def test_alpha_dependence_smooth_positive(self, single_mode):
        # sigma1(alpha) composed from the drift-power factor and the series
        # limit; smooth and positive over the drift range of interest.
        values = []
        for alpha in np.linspace(0.5, 2.0, 7):
            model = single_mode(a=1.0, alpha=alpha, hurst=0.55)
            gamma = alpha ** 2.1 / (2 * 0.55 * trace_q1(model).value)
            sigma1 = gamma * np.sqrt(s_infty_star(model).value)
            assert np.isfinite(sigma1) and sigma1 > 0
            values.append(sigma1)
        ratios = np.diff(np.log(values))
        assert np.all(np.abs(ratios) < 1.0)

    def test_projection_constants(self, heat3):
        w = projection_indicator(0.0, 0.5, 3)
        gamma, delta = drift_scales(heat3, w)
        assert gamma == drift_scales(heat3)[0]
        assert delta == pytest.approx(
            heat3.alpha ** (1 + 2 * heat3.hurst) / (2 * heat3.hurst * qww1(heat3, w).value)
        )
        assert asymptotic_sigma(heat3, DISCRETE_PROJ, w) > 0
        assert asymptotic_sigma(heat3, CONTINUOUS_PROJ, w) > 0
        # A projection leaves the norm kinds' sigmas unchanged.
        for kind in (DISCRETE_NORM, CONTINUOUS_NORM):
            assert asymptotic_sigma(heat3, kind, w) == asymptotic_sigma(heat3, kind)
        with pytest.raises(ValueError):
            asymptotic_sigma(heat3, "discrete_projection")
        with pytest.raises(ValueError):
            asymptotic_sigma(heat3, "discrete_nrm", w)

    def test_rejects_nonsummable(self):
        model = custom([1.0], 1.0, 0.8)
        with pytest.raises(ValueError):
            asymptotic_sigma(model, DISCRETE_NORM)
        with pytest.raises(ValueError):
            drift_scales(model)


class TestStandardize:
    def test_uses_report_sigma(self, heat3):
        nz = trace_q1(heat3)
        rep = estimate(DISCRETE_NORM, np.full(100, 2 * nz.value), None, nz, heat3.hurst)
        filled = finish_report(rep, heat3, sigma=0.7, true_alpha=1.0)
        assert filled.sigma_asymptotic == 0.7
        z = np.sqrt(filled.sample_size) * (filled.alpha_hat - 1.0) / 0.7
        assert filled.standardized_error == pytest.approx(z)
        assert filled.truncation_tail_ratio > 0

    def test_report_json_stable(self, heat3):
        nz = trace_q1(heat3)
        rep = estimate(DISCRETE_NORM, np.full(10, nz.value), None, nz, heat3.hurst)
        payload = json.loads(rep.to_json())
        assert payload["kind"] == "discrete_norm"
        assert payload["schema_version"] == 1
        again = estimate(DISCRETE_NORM, np.full(10, nz.value), None, nz, heat3.hurst)
        assert rep.to_json() == again.to_json()


class TestEmpiricalConsistency:
    def test_median_error_shrinks_single_mode(self):
        # Small-scale version of the consistency experiment: exact stationary
        # samples, median |estimate - alpha| decreasing over the grid.
        model = custom([1.0], 1.0, 0.55)
        nz = trace_q1(model)
        reps, n_max = 150, 800
        sampler = StationaryModeSampler(model, n_max, 1.0)
        draws = sampler.draw(0, substream(33, 0), reps)[:, 0].T ** 2
        cums = np.cumsum(draws, axis=0)
        medians = []
        for n in (100, 400, 800):
            alphas = (cums[n - 1] / n / nz.value) ** (-1 / (2 * model.hurst))
            medians.append(np.median(np.abs(alphas - 1.0)))
        assert medians[0] > medians[1] > medians[2]

    def test_discrete_continuous_agreement_under_refinement(self, heat3):
        # alpha_hat on nested refinements of one path is Cauchy within 1e-3.
        from fracdrift.simulate import TrajectoryGrid, integrate_path

        nz = trace_q1(heat3)
        grid = TrajectoryGrid(0.002, 50_000, burn_in_steps=1500)
        fine = integrate_path(heat3, grid, "burn_in", seed=77)
        estimates = []
        for stride in (4, 2, 1):
            estimates.append(
                estimate(CONTINUOUS_NORM, fine.sq_norms[::stride], fine.t[::stride], nz,
                         heat3.hurst).alpha_hat
            )
        diffs = np.abs(np.diff(estimates))
        assert np.all(diffs < 1e-3)
