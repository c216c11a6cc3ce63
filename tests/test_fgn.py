"""Fractional Gaussian noise sampling: exactness, determinism, statistics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fracdrift.fgn as fgn
from fracdrift.covariance import mode_lag_table
from fracdrift.fgn import (
    block_toeplitz,
    circulant_embedding_eigs,
    jittered_cholesky,
    stationary_draw,
    stationary_factor,
    validate_hurst,
)
from fracdrift.models import build_distributed_model, build_pointwise_model
from fracdrift.simulate import (
    _FGN_STREAM,
    StationaryModeSampler,
    TrajectoryGrid,
    check_integration,
    integrate_path,
)
from fracdrift._rng import substream
from oracles import fgn_autocov, full_buffer_scalar_draw, sample_fgn


def fgn_rng(seed):
    """The fGN stream of ``seed``: the tag of ``integrate_path``, no mode index."""
    return substream(seed, _FGN_STREAM)


def scalar_recipe_eigs(autocov):
    """Circulant eigenvalues of a scalar autocovariance on lags 0..m, as the
    scalar samplers computed them before the block engine."""
    m = len(autocov) - 1
    return np.fft.rfft(np.concatenate([autocov, autocov[m - 1:0:-1]])).real


def scalar_recipe_fgn(h, m, n, rng):
    """The former scalar fGN circulant route on lags 0..m, kept as a bit-level oracle."""
    eigs = scalar_recipe_eigs(fgn_autocov(h, np.arange(m + 1)))
    g_re = rng.standard_normal(m + 1)
    g_im = rng.standard_normal(m + 1)
    amp = np.sqrt(np.maximum(eigs, 0.0) * 2 * m)
    spec = amp * (g_re + 1j * g_im) / np.sqrt(2.0)
    spec[0] = amp[0] * g_re[0]
    spec[m] = amp[m] * g_re[m]
    return np.fft.irfft(spec, n=2 * m)[:n]


def scalar_recipe_modes(autocov, n, rng, n_reps):
    """The former per-mode ``StationaryModeSampler.draw``, shape (n, n_reps)."""
    m = len(autocov) - 1
    eigs = np.maximum(scalar_recipe_eigs(autocov), 0.0)
    g = rng.standard_normal((2, n_reps, m + 1))
    amp = np.sqrt(eigs * 2 * m)
    spec = amp * (g[0] + 1j * g[1]) / np.sqrt(2.0)
    spec[:, 0] = amp[0] * g[0, :, 0]
    spec[:, m] = amp[m] * g[0, :, m]
    return np.fft.irfft(spec, n=2 * m, axis=1)[:, :n].T


def assert_covariance_matches(draws, target, multiple):
    """Entrywise |empirical - target| <= multiple * SE over columns of draws;
    Var of a Gaussian covariance entry estimate is (C_ii C_jj + C_ij^2)/reps."""
    reps = draws.shape[1]
    emp = draws @ draws.T / reps
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / reps)
    assert np.all(np.abs(emp - target) <= multiple * se)


class TestAutocov:
    def test_brownian_lag0_is_one(self):
        assert fgn_autocov(0.5, 0) == 1.0

    def test_brownian_increments_independent(self):
        assert fgn_autocov(0.5, 3) == 0.0

    def test_h075_lag1(self):
        # 0.5 * (2^1.5 - 2) = sqrt(2) - 1
        assert fgn_autocov(0.75, 1) == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-14)

    @given(st.floats(0.01, 0.99), st.integers(-50, 50))
    def test_symmetric_in_lag(self, h, k):
        assert fgn_autocov(h, k) == fgn_autocov(h, -k)

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("K", [0, 1, 2, 5, 17, 64, 257])
    def test_partial_sums_nonnegative(self, h, K):
        # sum_{|k|<=K} gamma(k) telescopes to (K+1)^{2H} - K^{2H} > 0.
        ks = np.arange(-K, K + 1)
        assert np.sum(fgn_autocov(h, ks)) >= 0.0

    def test_rejects_boundary_hurst(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                validate_hurst(bad)


class TestSampling:
    def test_deterministic(self):
        a = sample_fgn(0.7, 257, fgn_rng(42))
        b = sample_fgn(0.7, 257, fgn_rng(42))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_fgn(0.7, 257, fgn_rng(43)))

    def test_h_half_is_white(self):
        # At H = 1/2 the embedding eigenvalues are identically 1, so the
        # output is exactly the iid draw of the synthesis step.
        eigs, _ = circulant_embedding_eigs(fgn_autocov(0.5, np.arange(9))[:, None, None])
        assert np.allclose(eigs, 1.0, atol=1e-12)
        x = sample_fgn(0.5, 4, fgn_rng(7))
        assert x.shape == (4,)

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_empirical_covariance_matches_toeplitz(self, h):
        n, m = 32, 10_000
        rng = substream(1234, 99)
        draws = np.stack([sample_fgn(h, n, rng) for _ in range(m)])
        emp = draws.T @ draws / m
        target = np.array([[fgn_autocov(h, i - j) for j in range(n)] for i in range(n)])
        # Var of a Gaussian covariance entry estimate: (C_ii C_jj + C_ij^2)/m.
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / m)
        assert np.all(np.abs(emp - target) <= 4.0 * se)

    def test_lag1_autocovariance_statistical(self):
        h, n, seeds = 0.3, 2**14, 200
        estimates = []
        for s in range(seeds):
            x = sample_fgn(h, n, fgn_rng(s))
            estimates.append(np.mean(x[:-1] * x[1:]))
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / np.sqrt(seeds)
        assert abs(estimates.mean() - fgn_autocov(h, 1)) <= 3.0 * se

    def test_unit_variance_statistical(self):
        # The sequence is centered, so use the raw second moment: demeaning
        # would bias the estimate low by Var(sample mean) ~ n^{2H-2}.
        h, n, seeds = 0.7, 2**14, 60
        estimates = np.array([np.mean(sample_fgn(h, n, fgn_rng(s)) ** 2) for s in range(seeds)])
        se = estimates.std(ddof=1) / np.sqrt(seeds)
        assert abs(estimates.mean() - 1.0) <= 3.0 * se

    def test_cholesky_fallback_agrees_in_law(self, monkeypatch):
        # The dense fallback must target the same Toeplitz covariance; a
        # negative TOL_EIG makes every embedding count as negative.
        monkeypatch.setattr(fgn, "TOL_EIG", -1.0)
        h, n, m = 0.7, 24, 4000
        method, lower = stationary_factor(fgn_autocov(h, np.arange(32))[:, None, None], n)
        assert method == "cholesky"
        draws = stationary_draw(method, lower, n, substream(5, 6), m).reshape(m, n).T
        target = np.array([[fgn_autocov(h, i - j) for j in range(n)] for i in range(n)])
        assert_covariance_matches(draws, target, 4.5)


    def test_rejects_bad_n(self):
        model = build_distributed_model(1, 1, 2, 1.0, 0.5)
        for every in (0, 1):
            with pytest.raises(ValueError, match="n must be"):
                StationaryModeSampler(model, 0, 1.0, every)


class TestEngine:
    @pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 257, 4097])
    def test_fgn_bit_identical_to_scalar_recipe(self, h, n):
        # On the scalar recipe's circle: the power of two at or above n - 1.
        m = 1 << max(n - 2, 1).bit_length() if n > 2 else 1
        method, factor = stationary_factor(fgn_autocov(h, np.arange(m + 1))[:, None, None], n)
        assert method == "circulant"
        ours = stationary_draw(method, factor, n, substream(3, n), 1)[0, 0]
        assert np.array_equal(ours, scalar_recipe_fgn(h, m, n, substream(3, n)))

    @pytest.mark.parametrize("n", [1, 4, 64, 100])
    def test_diagonal_draw_bit_identical_to_scalar_recipe(self, n):
        model = build_distributed_model(1, 1, 20, 1.0, 0.55)
        sampler = StationaryModeSampler(model, n, 1.0)
        m = 1 << max(n - 1, 1).bit_length()
        table = mode_lag_table(model, 1.0, m + 1)
        for k in (0, 7, 19):
            ours = sampler.draw(k, substream(11, k), 6)[:, 0].T
            oracle = scalar_recipe_modes(table[k], n, substream(11, k), 6)
            assert np.array_equal(ours, oracle)

    def test_negative_embedding_takes_cholesky_route(self):
        # A Gaussian-kernel lag sequence on a short circle: the embedding has
        # eigenvalues near -0.4% of the largest, the 10 x 10 covariance is
        # positive definite, and the fallback draws it exactly.
        n, reps = 5, 20_000
        mix = np.array([[1.0, 0.5], [0.5, 1.0]])
        lags = np.exp(-(np.arange(5.0) / 2.0) ** 2)[:, None, None] * mix
        eigs, _ = circulant_embedding_eigs(lags)
        assert eigs.min() < -1e-3 * eigs.max()
        method, lower = stationary_factor(lags, n)
        assert method == "cholesky"
        draws = stationary_draw(method, lower, n, substream(8, 1), reps)
        assert draws.shape == (reps, 2, n)
        assert_covariance_matches(draws.reshape(reps, -1).T, block_toeplitz(lags, n), 4.0)

    def test_dense_guard_applies_to_fallback_only(self, monkeypatch):
        monkeypatch.setattr(fgn, "DENSE_GUARD", 8)
        lags = fgn_autocov(0.7, np.arange(17))[:, None, None]
        assert stationary_factor(lags, 16)[0] == "circulant"
        monkeypatch.setattr(fgn, "TOL_EIG", -1.0)
        with pytest.raises(ValueError, match="guard"):
            stationary_factor(lags, 16)

    def test_dense_guard_counts_bytes_against_memory(self, monkeypatch):
        # The fallback may hold 40 (n p)^2 bytes: matrix, cholesky's working
        # copy, factor, jittered copy, and 8 B per entry of headroom (up to
        # 36.7 were measured).
        monkeypatch.setattr(fgn, "TOL_EIG", -1.0)
        lags = fgn_autocov(0.7, np.arange(17))[:, None, None]
        monkeypatch.setattr(fgn, "_physical_memory", lambda: 40 * 16**2)
        assert stationary_factor(lags, 16)[0] == "cholesky"
        monkeypatch.setattr(fgn, "_physical_memory", lambda: 40 * 16**2 - 1)
        with pytest.raises(ValueError, match="guard"):
            stationary_factor(lags, 16)

    @pytest.mark.parametrize("route", ["circulant", "cholesky"])
    def test_workspace_draws_equal_fresh_draws(self, monkeypatch, route):
        # One workspace carried over the sequences of a diagonal and a
        # rank-one sampler and two batch sizes gives the fresh draws bit for
        # bit; the fresh draws, made without it, are never overwritten.
        if route == "cholesky":
            monkeypatch.setattr(fgn, "TOL_EIG", -1.0)
        n = 24
        samplers = [StationaryModeSampler(build_distributed_model(1, 1, 4, 1.0, 0.55), n, 1.0),
                    StationaryModeSampler(build_pointwise_model(0.3, 3, 1.0, 0.55), n, 1.0)]
        calls = [(sampler, s, reps) for reps in (5, 3) for sampler in samplers
                 for s in range(sampler.n_sequences)]
        assert {sampler.factor(s)[0] for sampler, s, _ in calls} == {route}
        fresh = [sampler.draw(s, substream(13, s, reps), reps) for sampler, s, reps in calls]
        kept = [x.copy() for x in fresh]
        work, previous = {}, None
        for (sampler, s, reps), x in zip(calls, fresh):
            reused = sampler.draw(s, substream(13, s, reps), reps, work)
            assert np.array_equal(reused, x)
            if route == "circulant" and previous is not None and previous.shape == x.shape:
                assert np.shares_memory(reused, previous)
            previous = reused
        for x, k in zip(fresh, kept):
            assert np.array_equal(x, k)

    def test_fgn_workspace_draws_equal_fresh_draws(self):
        # One workspace carried over seeds and two lengths, as integrate_path
        # carries it over sequences: the fresh draws bit for bit, each length's
        # draws in one buffer, and the fresh draws never overwritten.
        calls = [(n, s) for n in (300, 1000) for s in range(3)]
        fresh = [sample_fgn(0.3, n, fgn_rng(s)) for n, s in calls]
        kept = [x.copy() for x in fresh]
        work, previous = {}, None
        for (n, s), x in zip(calls, fresh):
            reused = sample_fgn(0.3, n, fgn_rng(s), work=work)
            assert np.array_equal(reused, x)
            assert np.shares_memory(reused, work["x"])
            if previous is not None and len(previous) == n:
                assert np.shares_memory(reused, previous)
            previous = reused
        for x, k in zip(fresh, kept):
            assert np.array_equal(x, k)

    @pytest.mark.parametrize("m,n_reps", [
        pytest.param(64, 2 * (fgn.NORMALS_CHUNK // 65) + 3, id="rows_per_chunk_plus_3"),
        pytest.param(fgn.NORMALS_CHUNK - 1, 3, id="one_row_per_chunk"),
        pytest.param(fgn.NORMALS_CHUNK + 5, 2, id="row_past_one_chunk"),
        pytest.param(3 * fgn.NORMALS_CHUNK + 7, 1, id="row_past_three_chunks"),
    ])
    def test_chunked_normals_equal_full_buffer_draw(self, m, n_reps):
        # Streaming the normals into the spectrum chunk by chunk draws the
        # former single buffer's normals in its order, with its roundings.
        lags = fgn_autocov(0.3, np.arange(m + 1))[:, None, None]
        method, factor = stationary_factor(lags, m + 1)
        assert method == "circulant"
        oracle = full_buffer_scalar_draw(factor, m + 1, substream(31, m), n_reps)
        work = {}
        for _ in range(2):  # fresh, then through a warm workspace
            ours = fgn.sample_circulant(factor, m + 1, substream(31, m), n_reps, work)
            assert np.array_equal(ours, oracle)

    def test_chunked_fgn_equals_full_buffer_draw_at_integrator_length(self):
        n = 104427  # steps per path at the integrator_paths benchmark's scale, unfolded
        m = 1 << (n - 1).bit_length()
        method, factor = stationary_factor(fgn_autocov(0.3, np.arange(m + 1))[:, None, None], n)
        ours = stationary_draw(method, factor, n, substream(5, 1), 1)
        oracle = full_buffer_scalar_draw(factor, n, substream(5, 1), 1)
        assert np.array_equal(ours, oracle)


class TestJitteredCholesky:
    def test_positive_definite_factor_is_plain_cholesky(self):
        from scipy.linalg import cholesky, toeplitz

        cov = toeplitz(fgn_autocov(0.7, np.arange(16)))
        np.testing.assert_array_equal(jittered_cholesky(cov, 1e-14, 1e-8),
                                      cholesky(cov, lower=True))

    def test_jitter_rescues_singular_matrix_and_leaves_input(self):
        v = np.arange(1.0, 5.0)
        cov = np.outer(v, v)
        before = cov.copy()
        lower = jittered_cholesky(cov, 1e-14, 1e-2)
        np.testing.assert_array_equal(cov, before)
        added = lower @ lower.T - cov
        assert 0.0 < added[0, 0] <= 1e-2
        assert np.allclose(added, added[0, 0] * np.eye(4), rtol=0.0, atol=1e-12)

    def test_gives_up_beyond_limit(self):
        assert jittered_cholesky(np.diag([1.0, -1.0]), 1e-14, 1e-8) is None


class TestFbm:
    def test_brownian_increments_iid_unit(self):
        inc = sample_fgn(0.5, 20_000, fgn_rng(11))
        assert abs(np.var(inc) - 1.0) < 0.03
        lag1 = np.mean(inc[:-1] * inc[1:])
        assert abs(lag1) < 3.0 / np.sqrt(len(inc))

    def test_self_similar_variance_growth(self):
        # Var B(t) = t^{2H}: check at a few grid times across replications;
        # column j of the partial sums is B((j+1) dt).
        h, dt, n, reps = 0.6, 0.25, 64, 4000
        paths = np.stack([np.cumsum(sample_fgn(h, n, fgn_rng(s)) * dt**h) for s in range(reps)])
        for idx in (16, 32, 64):
            t = idx * dt
            sample_var = paths[:, idx - 1].var()
            se = sample_var * np.sqrt(2.0 / reps)
            assert abs(sample_var - t ** (2 * h)) <= 4.0 * se


class TestFactorCache:
    def test_euler_sampler_factors_once_per_hurst_and_length(self, embedding_calls):
        # One Euler sampler per Hurst index and drawn length factors each
        # mode filter once, whatever the number of batches it draws; a path
        # builds its own sampler.
        model = build_distributed_model(1, 1, 4, 1.0, 0.3)
        grid = TrajectoryGrid(0.1, 300)
        _, n = check_integration(model, grid, "zero", 1)
        sampler = StationaryModeSampler(model, n, grid.dt, 1)
        for seed in (1, 2, 3):
            for b in range(sampler.n_sequences):
                sampler.draw(b, substream(seed, b), 5)
        assert len(embedding_calls) == model.n_modes
        integrate_path(model, grid, "zero", seed=1)
        assert len(embedding_calls) == 2 * model.n_modes

    def test_cached_factor_is_read_only(self):
        model = build_distributed_model(1, 1, 2, 1.0, 0.7)
        for every in (0, 1):
            method, factor = StationaryModeSampler(model, 100, 0.5, every).factor(0)
            assert method == "circulant"
            with pytest.raises(ValueError):
                factor[0] = 1.0
