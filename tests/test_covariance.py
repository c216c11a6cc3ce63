"""Autocovariance evaluators, dual-route agreement, series/integral limits."""

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from conftest import assert_close
from fracdrift.covariance import (
    AutoCovMatrix,
    QuadratureError,
    _c_spectral,
    _unit_autocov,
    _unit_autocov_grid,
    _unit_spectral,
    _unit_spectral_direct,
    autocov_matrix,
    block_covariance,
    hs_norm,
    hs_norm_lags,
    kernel_autocov,
    mode_lag_table,
    qww,
    r_z,
    r_z_integral,
    r_z_sum,
    s_infty_star,
    s_n,
    spectral_cross_autocov,
    stationary_variance_mode,
    trace_q,
    u_infty_star,
)
from fracdrift.models import (
    build_distributed_model,
    build_pointwise_model,
    custom_model,
    projection_indicator,
    projection_sine,
)

PI2 = np.pi**2


def lag0_scale(ak, al, h):
    """Pole-term magnitude at lag 0: the scale of the floor ``_unit_spectral`` certifies."""
    return _c_spectral(h) * 2.0 * np.pi * ak ** (1.0 - 2.0 * h) / (ak + al)


def assert_close_floored(actual, expected, scale, what=""):
    """rtol 1e-8 with an absolute floor at 1e-12 of ``scale``."""
    err = abs(actual - expected)
    assert err <= max(1e-8 * abs(expected), 1e-12 * scale), \
        f"{what}: {actual!r} vs {expected!r} (abs err {err:.3g})"


class TestStationaryVariance:
    def test_classical_ou_values(self):
        assert stationary_variance_mode(1.0, 1.0, 0.5) == pytest.approx(0.5, rel=1e-15)
        assert stationary_variance_mode(2.0, 1.0, 0.5) == pytest.approx(0.25, rel=1e-15)

    def test_h07_value_vs_quadrature(self):
        # H Gamma(2H) a^{-2H} against the independent frequency-domain oracle.
        closed = stationary_variance_mode(1.0, 1.0, 0.7)
        assert closed == pytest.approx(0.7 * gamma_fn(1.4), rel=1e-14)
        assert_close(_unit_spectral_direct(1.0, 1.0, 0.7, 0.0), closed, 1e-6,
                     "quadrature vs closed form at lag 0")

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.45, 0.55, 0.7, 0.9])
    @pytest.mark.parametrize("a", [0.25, 1.0, PI2])
    def test_spectral_lag0_matches_closed_form(self, h, a):
        assert_close(
            spectral_cross_autocov(a, a, 1.0, 1.0, h, 0.0),
            stationary_variance_mode(a, 1.0, h),
            1e-6,
            f"spectral t=0 at H={h}, a={a}",
        )

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            stationary_variance_mode(0.0, 1.0, 0.5)


class TestDualRoutes:
    @pytest.mark.parametrize("a,t", [(1.0, 0.3), (2.0, 1.0), (PI2, 0.5), (0.5, 4.0)])
    def test_markov_ou_exponential(self, a, t):
        # H = 1/2: r(t) = phi^2 e^{-a t} / (2a).
        assert_close(
            spectral_cross_autocov(a, a, 1.0, 1.0, 0.5, t),
            np.exp(-a * t) / (2.0 * a),
            1e-12,
            "Markov OU autocovariance",
        )

    @pytest.mark.parametrize("h", [0.55, 0.65, 0.7])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 5.0, 20.0])
    def test_kernel_vs_spectral_on_declared_grid(self, h, t):
        for (ak, al) in [(1.0, 1.0), (PI2, 4 * PI2), (4 * PI2, PI2)]:
            kv = kernel_autocov(ak, al, 1.3, -0.7, h, t)
            sv = spectral_cross_autocov(ak, al, 1.3, -0.7, h, t)
            assert_close(kv, sv, 1e-6, f"kernel vs spectral H={h} t={t}")

    @pytest.mark.filterwarnings("ignore::UserWarning", "ignore:Bad integrand behavior")
    @pytest.mark.parametrize("h", [0.3, 0.55, 0.7])
    def test_contour_vs_direct_oscillatory(self, h):
        # The rotated evaluator equals the raw oscillatory integral (the
        # reference route may emit QUADPACK grumbling; the 1e-8 agreement
        # assertion below is the actual accuracy check).
        for (ak, al, t) in [(1.0, 1.0, 0.7), (PI2, 4 * PI2, 1.0), (4 * PI2, PI2, 3.0)]:
            assert_close(
                _unit_spectral(ak, al, h, t),
                _unit_spectral_direct(ak, al, h, t),
                1e-8,
                f"contour vs direct at H={h}",
            )

    def test_kernel_rejects_singular_hurst(self):
        with pytest.raises(ValueError):
            kernel_autocov(1.0, 1.0, 1.0, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            kernel_autocov(1.0, 1.0, 1.0, 1.0, 0.3, 1.0)

    def test_negative_lag_transposes(self):
        ak, al, h = 2.0, 5.0, 0.62
        assert spectral_cross_autocov(ak, al, 1.0, 1.0, h, -1.5) == pytest.approx(
            spectral_cross_autocov(al, ak, 1.0, 1.0, h, 1.5), rel=1e-12
        )

    def test_lag0_symmetric_in_modes(self):
        for h in (0.3, 0.7):
            assert spectral_cross_autocov(2.0, 7.0, 1.0, 1.0, h, 0.0) == pytest.approx(
                spectral_cross_autocov(7.0, 2.0, 1.0, 1.0, h, 0.0), rel=1e-10
            )

    def test_quadrature_error_reports_subinterval(self, monkeypatch):
        import fracdrift.covariance as cov

        monkeypatch.setattr(cov, "_quad_with_error",
                            lambda *a, **k: (0.1, 1.0, "worst subinterval [0, 1]"))
        with pytest.raises(QuadratureError, match="worst subinterval"):
            cov._unit_spectral(1.0, 1.0, 0.6, 1.0)

    def test_vectorized_grid_matches_scalar(self):
        rng = np.random.default_rng(3)
        for h in (0.3, 0.55, 0.7, 0.85):
            for (ak, al) in [(1.0, 1.0), (0.25, 4.0), (PI2, 4 * PI2)]:
                ts = np.sort(rng.uniform(0.0, 400.0 / ak, 12))
                grid = _unit_autocov_grid(ak, al, h, ts)
                for t, g in zip(ts, grid):
                    assert_close(g, _unit_autocov(ak, al, h, float(t)), 1e-8,
                                 f"grid vs scalar H={h}")


class TestClosedForm:
    @pytest.mark.parametrize("h", [0.3, 0.45, 0.5 - 1e-6, 0.5 + 1e-6, 0.55, 0.7, 0.9])
    def test_grid_matches_spectral_oracle(self, h):
        ts = np.array([1e-6, 1e-3, 1.0, 50.0, 1e3, 1e5])
        for (ak, al) in [(1.0, 1.0), (0.25, 4.0), (4.0, 0.25), (PI2, 4 * PI2)]:
            grid = _unit_autocov_grid(ak, al, h, ts)
            for t, g in zip(ts, grid):
                assert_close_floored(g, _unit_spectral(ak, al, h, float(t)),
                                     lag0_scale(ak, al, h),
                                     f"closed form vs spectral H={h} a=({ak},{al}) t={t}")

    def test_rank_one_table_matches_pairwise_spectral(self, pointwise8):
        table = mode_lag_table(pointwise8, 0.5, 64)
        a, phi, h = pointwise8.rates, pointwise8.noise.loadings, pointwise8.hurst
        for i in (0, 1, 7, 63):
            for k in range(pointwise8.n_modes):
                for l in range(pointwise8.n_modes):
                    expected = spectral_cross_autocov(a[k], a[l], phi[k], phi[l], h, 0.5 * i)
                    assert_close_floored(table[k, l, i], expected,
                                         abs(phi[k] * phi[l]) * lag0_scale(a[k], a[l], h),
                                         f"table[{k},{l},{i}]")

    def test_negative_lag_matrix_is_transpose(self):
        model = build_pointwise_model(0.3, 6, 1.0, 0.55)
        for t in (0.7, 3.0):
            forward = autocov_matrix(model, t).entries
            assert not np.allclose(forward, forward.T)
            np.testing.assert_allclose(autocov_matrix(model, -t).entries, forward.T,
                                       rtol=1e-13, atol=0.0)


class TestDecay:
    @pytest.mark.parametrize("h", [0.55, 0.7])
    def test_single_mode_power_law_constant(self, h):
        # t^{2-2H} r(t) -> phi^2 H(2H-1)/a^2 (regular case).
        a = 1.0
        seq = [t ** (2 - 2 * h) * spectral_cross_autocov(a, a, 1.0, 1.0, h, t)
               for t in (64.0, 256.0, 1024.0)]
        limit = h * (2 * h - 1) / a**2
        assert abs(seq[-1] - limit) < 1e-4 * limit
        assert abs(seq[-1] - limit) < abs(seq[0] - limit)

    @pytest.mark.parametrize("h", [0.55, 0.7])
    def test_hs_norm_rescaled_bounded(self, h):
        model = build_distributed_model(1, 1, 5, 1.0, h)
        ts = 2.0 ** np.arange(1, 11)
        vals = [t ** (2 - 2 * h) * hs_norm(autocov_matrix(model, t)) for t in ts]
        assert max(vals) / min(vals) < 3.0
        last4 = vals[-4:]
        assert max(last4) / min(last4) < 1.5

    def test_hs_norm_below_trace(self, heat3, pointwise8):
        for model in (heat3, pointwise8):
            trace = trace_q(model)
            for t in (0.0, 0.5, 1.0, 4.0, 16.0):
                assert hs_norm(autocov_matrix(model, t)) <= trace * (1 + 1e-12)

    def test_single_mode_positive_below_r0(self):
        # H = 3/4 sits outside the CLT regime but inside the kernel's domain.
        r0 = kernel_autocov(1.0, 1.0, 1.0, 1.0, 0.75, 0.0)
        r10 = kernel_autocov(1.0, 1.0, 1.0, 1.0, 0.75, 10.0)
        assert 0.0 < r10 < r0


class TestScaling:
    def test_mode_scaling_law(self):
        # variance(alpha*lam) = alpha^{-2H} variance(lam), exactly.
        for h in (0.3, 0.55, 0.7):
            for alpha in (0.5, 1.0, 2.0):
                lhs = stationary_variance_mode(alpha * 3.7, 1.3, h)
                rhs = alpha ** (-2 * h) * stationary_variance_mode(3.7, 1.3, h)
                assert_close(lhs, rhs, 1e-13, "mode scaling")

    def test_trace_scaling_law(self, heat3):
        trace1 = trace_q(heat3.with_alpha(1.0))
        for alpha in (0.5, 1.0, 2.0):
            assert_close(
                trace_q(heat3.with_alpha(alpha)),
                alpha ** (-2 * heat3.hurst) * trace1,
                1e-10,
                "trace scaling",
            )


class TestMatrixAssembly:
    def test_diagonal_model_stores_diagonal(self, heat3):
        acm = autocov_matrix(heat3, 0.7)
        assert acm.is_diagonal and acm.entries.shape == (3,)
        assert acm.matrix().shape == (3, 3)

    def test_rank_one_lag0_symmetric_psd(self, pointwise8):
        acm = autocov_matrix(pointwise8, 0.0)
        mat = acm.matrix()
        assert np.allclose(mat, mat.T, atol=1e-12)
        eig = np.linalg.eigvalsh(mat)
        assert eig.min() >= -1e-10 * eig.max()

    def test_hs_norm_examples(self):
        zero = AutoCovMatrix(0.0, np.zeros((2, 2)), is_diagonal=False)
        assert hs_norm(zero) == 0.0
        diag = AutoCovMatrix(0.0, np.array([3.0, 4.0]), is_diagonal=True)
        assert hs_norm(diag) == pytest.approx(5.0, rel=1e-15)
        v = np.array([1.0, 2.0, 2.0])
        rank_one = AutoCovMatrix(0.0, np.outer(v, v), is_diagonal=False)
        assert hs_norm(rank_one) == pytest.approx(float(v @ v), rel=1e-14)

    @pytest.mark.parametrize("h", [0.3, 0.55, 0.7])
    def test_block_covariance_psd(self, h):
        heat = build_distributed_model(1, 1, 3, 1.0, h)
        for block in block_covariance(heat, 24):
            eig = np.linalg.eigvalsh(block)
            assert eig.min() >= -1e-8 * np.abs(eig).max()
        point = build_pointwise_model(0.3, 3, 1.0, h)
        full = block_covariance(point, 16)
        assert np.allclose(full, full.T, atol=1e-11 * np.abs(full).max())
        eig = np.linalg.eigvalsh(0.5 * (full + full.T))
        assert eig.min() >= -1e-8 * np.abs(eig).max()

    @pytest.mark.parametrize("n", [1, 5, 33])
    def test_rank_one_block_matches_loop_reference(self, pointwise8, n):
        # Reference: assemble block (k, l) of the stacked matrix one at a time.
        table = mode_lag_table(pointwise8, 1.0, n)
        nm = pointwise8.n_modes
        ref = np.empty((nm * n, nm * n))
        diff = np.subtract.outer(np.arange(n), np.arange(n))
        pos = np.abs(diff)
        for k in range(nm):
            for l in range(nm):
                ref[k * n:(k + 1) * n, l * n:(l + 1) * n] = np.where(
                    diff >= 0, table[k, l, pos], table[l, k, pos])
        assert np.array_equal(block_covariance(pointwise8, n), ref)


class TestSeriesLimits:
    def test_s_n_single_surviving_term(self):
        # Near-white model: only the lag-0 term contributes measurably.
        model = custom_model([40.0], 1.0, 0.5)
        q0 = stationary_variance_mode(40.0, 1.0, 0.5)
        assert_close(s_n(model, 64), 2.0 * q0**2, 1e-10, "white s_n")

    def test_s_1_is_twice_hs0_squared(self, heat3):
        g0 = hs_norm(autocov_matrix(heat3, 0.0))
        assert_close(s_n(heat3, 1), 2.0 * g0**2, 1e-12, "s_1")

    def test_s_n_monotone_to_limit(self):
        model = build_distributed_model(1, 1, 3, 1.0, hurst=0.6)
        limit = s_infty_star(model).value
        values = [s_n(model, n) for n in (100, 1000, 10_000)]
        assert values[0] < values[1] < values[2] <= limit * (1 + 1e-9)
        gaps = [limit - v for v in values]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_s_star_dominates_s_n_markov(self):
        model = custom_model([1.0], 1.0, 0.5)
        limit = s_infty_star(model).value
        # All summands are positive at H = 1/2, so s_n increases to s*.
        assert_close(limit, 0.5 / np.tanh(1.0), 1e-8, "s* closed form")
        for n in (1, 10, 100, 1000):
            assert s_n(model, n) <= limit * (1 + 1e-9)

    @pytest.mark.parametrize("h", [0.3, 0.55])
    def test_u_star_matches_time_domain_oracle(self, h):
        # Independent oracle: adaptive time-domain quadrature of ||Q(t)||^2
        # with a crude power-law tail, against the frequency-domain value.
        from scipy.integrate import quad as _quad

        model = custom_model([1.0], 1.0, h)

        def g(t):
            return hs_norm(autocov_matrix(model, t)) ** 2

        upper = 512.0
        partial = sum(
            _quad(g, lo, hi, epsabs=1e-13, epsrel=1e-9, limit=200)[0]
            for lo, hi in zip([0.0, 1.0, 8.0, 64.0], [1.0, 8.0, 64.0, upper])
        )
        c_tail = np.sqrt(g(upper)) * upper ** (2 - 2 * h)
        tail = c_tail**2 * upper ** (4 * h - 3) / (3 - 4 * h)
        oracle = 4.0 * (partial + tail)
        assert_close(u_infty_star(model).value, oracle, 1e-5, "u* dual routes")

    def test_u_star_markov_closed_form(self):
        # r(t) = e^{-|t|}/2 so  2 int_R r^2 = 2 * (1/4) * int e^{-2|t|} = 1/2.
        model = custom_model([1.0], 1.0, 0.5)
        lim = u_infty_star(model)
        assert_close(lim.value, 0.5, 1e-7, "u* Markov")
        assert lim.tail_estimate < 1e-6

    def test_limits_reject_nonsummable(self):
        model = custom_model([1.0], 1.0, 0.8)
        with pytest.raises(ValueError, match="non-summable"):
            s_infty_star(model)
        with pytest.raises(ValueError, match="non-summable"):
            u_infty_star(model)


class TestProjectionCovariance:
    def test_degenerate_projection_vanishes_at_all_lags(self):
        model = build_pointwise_model(0.5, 8, 1.0, 0.55)
        w = projection_sine(4, 8)
        for t in (0.0, 0.5, 1.0, 7.0):
            assert abs(r_z(model, w, t)) < 1e-30

    def test_single_mode_alignment(self, heat3):
        w = projection_sine(2, 3)
        r = r_z(heat3, w, 0.9)
        mode = autocov_matrix(heat3, 0.9).entries[1]
        assert_close(r, 0.5 * mode, 1e-12, "aligned projection")

    def test_window_positive_on_pointwise_model(self):
        model = build_pointwise_model(0.5, 8, 1.0, 0.55)
        w = projection_indicator(0.0, 0.5, 8)
        assert r_z(model, w, 0.0) > 0
        assert qww(model, w) > 0

    def test_projected_series_and_integral(self, heat3):
        w = projection_indicator(0.0, 0.5, 3)
        s_lim = r_z_sum(heat3, w)
        u_lim = r_z_integral(heat3, w)
        assert s_lim.value > 0 and u_lim.value > 0
        # Both bounded by the norm versions times ||w||^4 scaling sanity.
        assert s_lim.value <= s_infty_star(heat3).value * float(w.coefficients @ w.coefficients) ** 2 * 4


class TestLagTables:
    def test_hs_norm_lags_match_matrix_route(self, heat3, pointwise8):
        for model in (heat3, pointwise8):
            table = hs_norm_lags(model, 1.0, 6)
            direct = [hs_norm(autocov_matrix(model, float(t))) for t in range(6)]
            assert np.allclose(table, direct, rtol=1e-9)
