"""Autocovariance evaluators, dual-route agreement, series/integral limits."""

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from conftest import assert_close, custom
from oracles import (
    _frequency_square_integral,
    norm_density_sq,
    projection_density_sq,
    stationary_variance_mode,
)
from fracdrift.covariance import (
    QuadratureError,
    _c_spectral,
    _hurwitz_zeta,
    _incgamma_scaled,
    _kummer_m1,
    _lag_table,
    _power_tail,
    _project,
    _r_z_lags,
    _tail_coefficients,
    _unit_spectral,
    _unit_spectral_direct,
    block_covariance,
    hs_norm_lags,
    mode_lag_table,
    qww,
    r_z_integral,
    r_z_sum,
    s_infty_star,
    s_n,
    spectral_cross_autocov,
    stationary_covariance,
    trace_q,
    u_infty_star,
)
from fracdrift.models import (
    DIAGONAL,
    build_distributed_model,
    build_pointwise_model,
    projection_indicator,
    projection_sine,
)

PI2 = np.pi**2


def closed_form(ak, al, h, ts, phi_k=1.0, phi_l=1.0):
    """Production ``r_kl`` on lags ``ts >= 0``: row (0, 1) of a two-mode rank-one lag table."""
    return _lag_table(np.array([ak, al]), np.array([phi_k, phi_l]), h, False,
                      np.atleast_1d(ts))[0, 1]


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

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.45, 0.5, 0.55, 0.7, 0.9])
    def test_production_lag0_matches_textbook_variance(self, h):
        for model in (build_distributed_model(1, 1, 5, 2.0, h),
                      build_pointwise_model(0.3, 6, 1.0, h)):
            r0 = stationary_covariance(model)
            variances = r0 if r0.ndim == 1 else np.diagonal(r0)
            for a, phi, v in zip(model.rates, model.noise.loadings, variances):
                assert_close(v, stationary_variance_mode(a, phi, h), 1e-13,
                             f"lag-0 closed form vs textbook at H={h}")


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
            kv = closed_form(ak, al, h, t, 1.3, -0.7)[0]
            sv = spectral_cross_autocov(ak, al, 1.3, -0.7, h, t)
            assert_close(kv, sv, 1e-6, f"closed form vs spectral H={h} t={t}")

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


class TestClosedForm:
    @pytest.mark.parametrize("h", [0.3, 0.45, 0.5 - 1e-6, 0.5 + 1e-6, 0.55, 0.7, 0.9])
    def test_grid_matches_spectral_oracle(self, h):
        ts = np.array([1e-6, 1e-3, 1.0, 50.0, 1e3, 1e5])
        for (ak, al) in [(1.0, 1.0), (0.25, 4.0), (4.0, 0.25), (PI2, 4 * PI2)]:
            grid = closed_form(ak, al, h, ts)
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
        vals = [t ** (2 - 2 * h) * hs_norm_lags(model, t, 2)[1] for t in ts]
        assert max(vals) / min(vals) < 3.0
        last4 = vals[-4:]
        assert max(last4) / min(last4) < 1.5

    def test_hs_norm_below_trace(self, heat3, pointwise8):
        for model in (heat3, pointwise8):
            trace = trace_q(model)
            for t in (0.0, 0.5, 1.0, 4.0, 16.0):
                assert hs_norm_lags(model, t, 2)[1] <= trace * (1 + 1e-12)

    def test_single_mode_positive_below_r0(self):
        # H = 3/4 sits outside the CLT regime but inside the closed form's domain.
        r0, r10 = closed_form(1.0, 1.0, 0.75, [0.0, 10.0])
        assert 0.0 < r10 < r0


class TestScaling:
    def test_mode_scaling_law(self):
        # variance(alpha*lam) = alpha^{-2H} variance(lam), exactly.
        for h in (0.3, 0.55, 0.7):
            for alpha in (0.5, 1.0, 2.0):
                lhs = stationary_covariance(custom([3.7], alpha, h, loadings=1.3))[0]
                rhs = alpha ** (-2 * h) * stationary_covariance(
                    custom([3.7], 1.0, h, loadings=1.3))[0]
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
        assert stationary_covariance(heat3).shape == (3,)
        assert mode_lag_table(heat3, 0.7, 2).shape == (3, 2)

    def test_rank_one_lag0_symmetric_psd(self, pointwise8):
        mat = stationary_covariance(pointwise8)
        assert mat.shape == (8, 8)
        assert np.allclose(mat, mat.T, atol=1e-12)
        eig = np.linalg.eigvalsh(mat)
        assert eig.min() >= -1e-10 * eig.max()

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


LIMIT_HURST = [0.05, 0.1, 0.25, 0.3, 0.45, 0.5, 0.55, 0.7, 0.74]
LIMIT_MODELS = [
    pytest.param(lambda h: build_distributed_model(1, 1, 20, 1.0, h), id="heat20"),
    pytest.param(lambda h: build_pointwise_model(0.3, 12, 1.0, h), id="pointwise12"),
    # Rates repeat on the unit square (L = 0 pairs off the diagonal).
    pytest.param(lambda h: build_distributed_model(2, 1, 6, 1.0, h), id="heat2d_repeated"),
]


class TestSeriesLimits:
    def test_s_n_single_surviving_term(self):
        # Near-white model: only the lag-0 term contributes measurably.
        model = custom([40.0], 1.0, 0.5)
        q0 = stationary_variance_mode(40.0, 1.0, 0.5)
        assert_close(s_n(model, 64), 2.0 * q0**2, 1e-10, "white s_n")

    def test_s_1_is_twice_hs0_squared(self, heat3):
        g0 = np.linalg.norm(stationary_covariance(heat3))
        assert_close(s_n(heat3, 1), 2.0 * g0**2, 1e-12, "s_1")

    def test_s_n_monotone_to_limit(self):
        model = build_distributed_model(1, 1, 3, 1.0, hurst=0.6)
        limit = s_infty_star(model).value
        values = [s_n(model, n) for n in (100, 1000, 10_000)]
        assert values[0] < values[1] < values[2] <= limit * (1 + 1e-9)
        gaps = [limit - v for v in values]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    @pytest.mark.parametrize("model,dt", [
        pytest.param(custom([1.0], 1.0, 0.5), 1.0, id="one_mode"),
        # 12970 lags: the longest table of the series limits' test grid.
        pytest.param(build_distributed_model(1, 1, 3, 0.05, 0.5), 0.01, id="heat3_slow"),
    ])
    def test_s_star_dominates_s_n_markov(self, model, dt):
        limit = s_infty_star(model, dt).value
        # r_kk(t) = phi_k^2 e^{-a_k |t|} / (2 a_k) at H = 1/2, and the lag sum
        # is geometric; all summands are positive, so s_n increases to s*.
        a, phi = model.rates, model.noise.loadings
        exact = np.sum(phi**4 / (2.0 * a**2 * np.tanh(a * dt)))
        assert_close(limit, exact, 1e-13, "s* closed form")
        for n in (1, 10, 100, 1000):
            assert s_n(model, n, dt) <= limit * (1 + 1e-9)

    @pytest.mark.parametrize("h", [0.3, 0.55])
    def test_u_star_matches_time_domain_oracle(self, h):
        # Independent oracle: adaptive time-domain quadrature of ||Q(t)||^2
        # with a crude power-law tail, against the frequency-domain value.
        from scipy.integrate import quad as _quad

        model = custom([1.0], 1.0, h)

        def g(t):
            return closed_form(1.0, 1.0, h, t)[0] ** 2

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
        model = custom([1.0], 1.0, 0.5)
        lim = u_infty_star(model)
        assert_close(lim.value, 0.5, 1e-7, "u* Markov")
        assert lim.tail_estimate < 1e-6

    def test_limits_reject_nonsummable(self):
        model = custom([1.0], 1.0, 0.8)
        with pytest.raises(ValueError, match="non-summable"):
            s_infty_star(model)
        with pytest.raises(ValueError, match="non-summable"):
            u_infty_star(model)

    @pytest.mark.parametrize("h", LIMIT_HURST)
    @pytest.mark.parametrize("build", LIMIT_MODELS)
    def test_integral_limits_match_quadrature_oracle(self, build, h):
        # Independent route: adaptive quadrature of the squared spectral
        # densities, against the closed-form Lorentzian pair integrals.
        model = build(h)
        window = projection_indicator(0.0, 0.5, model.n_modes)
        assert_close(u_infty_star(model).value,
                     _frequency_square_integral(model, norm_density_sq(model), "u").value,
                     1e-10, "u* closed form vs quadrature")
        assert_close(r_z_integral(model, window).value,
                     _frequency_square_integral(model, projection_density_sq(model, window),
                                                "r_z").value,
                     1e-10, "r_z integral closed form vs quadrature")

    @pytest.mark.parametrize("h", LIMIT_HURST)
    @pytest.mark.parametrize("build", LIMIT_MODELS)
    def test_tail_coefficients_match_lag_table(self, build, h):
        # The truncated large-lag expansion against the closed form, from the
        # onset a_1 t = 64 of the series tail out to a_1 t = 1e4.
        model = build(h)
        coef = _tail_coefficients(model)
        if h == 0.5:
            assert np.all(coef == 0.0)
            return
        ts = np.geomspace(64.0, 1e4, 40) / model.rates.min()
        table = _lag_table(model.rates, model.noise.loadings, h,
                           model.noise.kind == DIAGONAL, ts)
        expansion = ts ** (2.0 * h - 2.0) * (coef @ ts ** -np.arange(coef.shape[-1])[:, None])
        assert np.all(np.abs(expansion - table) <= 1e-12 * np.abs(table))

    @pytest.mark.parametrize("h", LIMIT_HURST)
    @pytest.mark.parametrize("build", LIMIT_MODELS)
    def test_series_limits_do_not_depend_on_the_cutoff(self, build, h):
        # The lag sum to 16 L plus the closed-form tail from 16 L reproduces
        # the limit at the production cutoff L, at dt where L = ceil(64/(a_1 dt)).
        model = build(h)
        dt = 0.01
        window = projection_indicator(0.0, 0.5, model.n_modes)
        coef = _tail_coefficients(model)
        for limit, lags, tail_coef in (
            (s_infty_star(model, dt), lambda n: hs_norm_lags(model, dt, n), coef),
            (r_z_sum(model, window, dt), lambda n: _r_z_lags(model, window, dt, n),
             _project(coef, window.coefficients)),
        ):
            far = 16 * (round(limit.cutoff / dt) + 1)
            squares = lags(far) ** 2
            value = 2.0 * (squares[0] + 2.0 * np.sum(squares[1:])) \
                + _power_tail(tail_coef, h, dt, far)
            assert_close(value, limit.value, 1e-12, "limit at cutoffs L and 16 L")

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_lag_table_refused_beyond_memory(self, monkeypatch, heat3, pointwise8, diagonal):
        import fracdrift.fgn as fgn

        # 256 lags of the table and 16 (N, lags) temporaries, 8 bytes each.
        model = heat3 if diagonal else pointwise8
        n = model.n_modes
        need = 8 * 256 * ((n if diagonal else n * n) + 16 * n)
        monkeypatch.setattr(fgn, "_physical_memory", lambda: need)
        assert mode_lag_table(model, 0.5, 256).shape[-1] == 256
        monkeypatch.setattr(fgn, "_physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match="lag table of 256 lags .* GiB"):
            mode_lag_table(model, 0.5, 256)


class TestProjectionCovariance:
    def test_degenerate_projection_vanishes_at_all_lags(self):
        model = build_pointwise_model(0.5, 8, 1.0, 0.55)
        w = projection_sine(4, 8)
        for t in (0.0, 0.5, 1.0, 7.0):
            assert abs(_r_z_lags(model, w, t, 2)[1]) < 1e-30

    def test_single_mode_alignment(self, heat3):
        w = projection_sine(2, 3)
        r = _r_z_lags(heat3, w, 0.9, 2)[1]
        mode = mode_lag_table(heat3, 0.9, 2)[1, 1]
        assert_close(r, 0.5 * mode, 1e-12, "aligned projection")

    def test_window_positive_on_pointwise_model(self):
        model = build_pointwise_model(0.5, 8, 1.0, 0.55)
        w = projection_indicator(0.0, 0.5, 8)
        assert _r_z_lags(model, w, 1.0, 1)[0] > 0
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
            diagonal = model.noise.kind == DIAGONAL
            direct = [np.linalg.norm(_lag_table(model.rates, model.noise.loadings, model.hurst,
                                                diagonal, np.array([float(t)])))
                      for t in range(6)]
            assert np.allclose(table, direct, rtol=1e-9)


class TestSingleEvaluator:
    """The normalizers read the same lag-0 values as the samplers' lag table."""

    @pytest.mark.parametrize("h", [0.3, 0.55, 0.7])
    def test_trace_and_qww_equal_lag_table_lag0(self, h):
        models = [build_distributed_model(1, 1, 20, 2.0, h),
                  build_distributed_model(1, 1, 3, 2.0, h),
                  build_pointwise_model(0.3, 12, 1.0, h)]
        for model in models:
            # Contiguous, as R(0) is: matmul may round differently on a strided view.
            r0 = np.ascontiguousarray(mode_lag_table(model, 1.0, 1)[..., 0])
            w = projection_indicator(0.0, 0.5, model.n_modes).coefficients
            if r0.ndim == 1:
                trace, form = np.sum(r0), np.sum(w**2 * r0)
            else:
                trace, form = np.sum(np.diagonal(r0)), w @ r0 @ w
            assert trace_q(model) == float(trace)
            assert qww(model, projection_indicator(0.0, 0.5, model.n_modes)) == float(form)


# The grids of the special-function checks: H in [0.05, 0.95] and lags
# x = a t in [1e-6, 1e8], across every regime switch (1, 40, 256).
SPECIAL_HURST = np.linspace(0.05, 0.95, 10)
SPECIAL_X = np.logspace(-6, 8, 281)


def scipy_incgamma_scaled(q, x):
    """``e^x Gamma(q, x)`` for ``q > 0`` from scipy: ``gammaincc`` up to x = 100,
    ``hyperu(1-q, 1-q, x)`` beyond, where ``gammaincc`` underflows."""
    from scipy.special import gamma, gammaincc, hyperu

    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x <= 100.0, np.exp(x) * gammaincc(q, x) * gamma(q),
                        hyperu(1.0 - q, 1.0 - q, x))


def max_rel(actual, expected):
    return float(np.max(np.abs(actual / expected - 1.0)))


class TestSpecialFunctions:
    @pytest.mark.parametrize("h", SPECIAL_HURST)
    def test_incgamma_scaled_matches_scipy(self, h):
        p = 2.0 * h - 1.0
        x = SPECIAL_X
        g = _incgamma_scaled(p, x)
        if p > 0:
            assert max_rel(g, scipy_incgamma_scaled(p, x)) <= 1e-13
            return
        # scipy needs q > 0: Gamma(p+1, x) = p Gamma(p, x) + x^p e^{-x}, read
        # downwards below x = 1 and upwards above, where each side is well
        # conditioned.
        lo = x < 1.0
        down = (scipy_incgamma_scaled(p + 1.0, x[lo]) - x[lo] ** p) / p
        assert max_rel(g[lo], down) <= 1e-13
        up = p * g[~lo] + x[~lo] ** p
        assert max_rel(up, scipy_incgamma_scaled(p + 1.0, x[~lo])) <= 1e-13

    @pytest.mark.parametrize("h", SPECIAL_HURST)
    def test_kummer_matches_scipy(self, h):
        from scipy.special import hyp1f1

        p = 2.0 * h - 1.0
        # scipy's hyp1f1 is itself up to 1.9e-13 off 40-digit mpmath on this
        # grid (near x = 40, and near the zero of M for H < 1/2), so its
        # comparison allows 3e-13; the mpmath check below holds 1e-13.
        assert max_rel(_kummer_m1(p, SPECIAL_X), hyp1f1(1.0, p + 1.0, -SPECIAL_X)) <= 3e-13

    @pytest.mark.parametrize("h", [0.05, 0.3, 0.45, 0.499, 0.5 - 1e-7, 0.5 + 1e-7, 0.501,
                                   0.55, 0.7, 0.95])
    def test_lag_functions_match_mpmath(self, h):
        mpmath = pytest.importorskip("mpmath")
        p = 2.0 * h - 1.0
        x = SPECIAL_X[::4]
        with mpmath.workdps(40):
            mp_p = 2 * mpmath.mpf(h) - 1
            ref_g = [mpmath.exp(v) * mpmath.gammainc(mp_p, v) for v in map(mpmath.mpf, x)]
            ref_m = [mpmath.hyp1f1(1, mp_p + 1, -v) for v in map(mpmath.mpf, x)]
        assert max_rel(_incgamma_scaled(p, x), np.array(ref_g, dtype=float)) <= 1e-13
        assert max_rel(_kummer_m1(p, x), np.array(ref_m, dtype=float)) <= 1e-13

    # Up to s = 4 - 4H + 15 < 19, the highest order of the series tails.
    @pytest.mark.parametrize("s", [1.0 + 1e-6, 1.01, 1.5, 2.2, 3.0, 4.0 - 1e-6, 8.0, 14.0,
                                   19.0 - 1e-6])
    def test_hurwitz_zeta_matches_scipy(self, s):
        from scipy.special import zeta

        for a in (256, 257, 1000, 4096, 1 << 20):
            assert_close(_hurwitz_zeta(s, a), zeta(s, a), 1e-13, f"zeta({s}, {a})")
