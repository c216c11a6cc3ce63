"""Path integration, exact stationary sampling, projections, export formats."""

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.stats import ks_2samp

from fracdrift._rng import substream
from fracdrift.covariance import (
    block_covariance,
    mode_lag_table,
    qww,
    stationary_covariance,
    trace_q,
)
from fracdrift.fgn import fgn_autocov
from fracdrift.models import (
    build_distributed_model,
    build_pointwise_model,
    custom_model,
    projection_from_coefficients,
    projection_indicator,
    projection_sine,
)
from fracdrift.simulate import (
    SCAN_BLOCK,
    StationaryModeSampler,
    Trajectory,
    TrajectoryGrid,
    attach_projection,
    default_burn_in_steps,
    integrate_path,
    sample_stationary_sequence,
    trajectory_from_csv,
    trajectory_from_npz,
    trajectory_to_csv,
    trajectory_to_npz,
)
from fracdrift.simulate import _ar1_scan
from oracles import stationary_variance_mode


def euler_chain_variance(a: float, phi: float, h: float, dt: float, n_terms: int = 20_000) -> float:
    """Exact stationary variance of x_{j+1} = e^{-a dt} x_j + phi dB_j.

    Var = phi^2 dt^{2H} [gamma(0) + 2 sum_d gamma(d) rho^d] / (1 - rho^2); the
    oracle for the integrator's O(dt) weak bias.
    """
    rho = np.exp(-a * dt)
    d = np.arange(1, n_terms)
    series = 1.0 + 2.0 * float(np.sum(fgn_autocov(h, d) * rho**d))
    return phi**2 * dt ** (2 * h) * series / (1.0 - rho**2)


class TestIntegratePath:
    def test_deterministic_decay_with_negligible_noise(self):
        model = custom_model([1.0, 4.0, 9.0], 1.0, 0.55, loadings=1e-160)
        grid = TrajectoryGrid(0.01, 200)
        x0 = np.array([1.0, -2.0, 3.0])
        traj = integrate_path(model, grid, x0, seed=1)
        exact = x0[:, None] * np.exp(-model.rates[:, None] * traj.t[None, :])
        assert np.allclose(traj.modes, exact, rtol=1e-12, atol=1e-150)

    def test_init_difference_decays_exactly(self, heat3):
        # Linearity: paths with shared noise and different inits differ by
        # the deterministic semigroup action e^{-a_k t} (x0 - y0).
        grid = TrajectoryGrid(0.05, 80)
        x0 = np.array([1.0, 0.5, -0.25])
        a = integrate_path(heat3, grid, x0, seed=7)
        b = integrate_path(heat3, grid, "zero", seed=7)
        diff = a.modes - b.modes
        exact = x0[:, None] * np.exp(-heat3.rates[:, None] * a.t[None, :])
        assert np.allclose(diff, exact, rtol=1e-10, atol=1e-13)

    def test_norm_difference_decay_rate(self, heat3):
        # |X - Y|^2 decays like e^{-2 a_1 t}; fit the slope on a late window.
        grid = TrajectoryGrid(0.02, 120)
        a = integrate_path(heat3, grid, np.array([1.0, 1.0, 1.0]), seed=3)
        b = integrate_path(heat3, grid, "zero", seed=3)
        sq = np.sum((a.modes - b.modes) ** 2, axis=0)
        window = slice(40, 100)
        slope = np.polyfit(a.t[window], np.log(sq[window]), 1)[0]
        assert abs(slope - (-2.0 * heat3.rates[0])) < 0.1 * 2.0 * heat3.rates[0]

    def test_determinism_and_seed_sensitivity(self, heat3):
        grid = TrajectoryGrid(0.1, 50)
        t1 = integrate_path(heat3, grid, "zero", seed=5)
        t2 = integrate_path(heat3, grid, "zero", seed=5)
        assert np.array_equal(t1.sq_norms, t2.sq_norms)
        assert not np.array_equal(
            t1.sq_norms, integrate_path(heat3, grid, "zero", seed=6).sq_norms
        )

    def test_mode_streams_stable_under_truncation(self):
        # Mode k's driving noise depends only on (seed, k): enlarging the
        # truncation must not change existing mode paths.
        small = build_distributed_model(1, 1, 2, 1.0, 0.55)
        large = build_distributed_model(1, 1, 4, 1.0, 0.55)
        grid = TrajectoryGrid(0.05, 40)
        a = integrate_path(small, grid, "zero", seed=9)
        b = integrate_path(large, grid, "zero", seed=9)
        assert np.array_equal(a.modes, b.modes[:2])
        assert np.allclose(b.sq_norms, np.sum(b.modes**2, axis=0), rtol=1e-10)

    def test_rank_one_shares_one_stream(self):
        model = build_pointwise_model(0.3, 3, 1.0, 0.55)
        grid = TrajectoryGrid(0.05, 30)
        traj = integrate_path(model, grid, "zero", seed=11)
        # With a shared driver, rescaled first steps agree across modes.
        first = traj.modes[:, 1] / model.noise.loadings
        assert np.allclose(first, first[0], rtol=1e-12)

    def test_markov_long_run_variance(self):
        # H = 1/2, single mode: chain variance within 3 SE of the Euler-chain
        # oracle, which itself converges to phi^2/(2a) as dt -> 0.
        a, dt = 1.0, 0.05
        model = custom_model([a], 1.0, 0.5)
        grid = TrajectoryGrid(dt, 60_000, burn_in_steps=400)
        traj = integrate_path(model, grid, "burn_in", seed=13, store_modes=False)
        est = float(np.mean(traj.sq_norms))
        target = euler_chain_variance(a, 1.0, 0.5, dt)
        n_eff = grid.n_steps * dt / 2.0  # ~2/(2a) decorrelation time
        se = target * np.sqrt(2.0 / n_eff)
        assert abs(est - target) <= 3.0 * se
        assert abs(target - 0.5) < 0.06  # small O(dt) bias at a dt = 0.05

    def test_euler_bias_vanishes_under_refinement(self):
        # Deterministic statement about the scheme, via the exact formula.
        truth = stationary_variance_mode(1.0, 1.0, 0.55)
        errors = [abs(euler_chain_variance(1.0, 1.0, 0.55, dt) - truth)
                  for dt in (0.08, 0.04, 0.02, 0.01)]
        assert errors[0] > errors[1] > errors[2] > errors[3]

    def test_burn_in_reaches_stationary_level(self):
        # Post-burn-in ensemble mean of |X|^2 within 3 SE of the trace.
        model = build_distributed_model(1, 1, 3, 1.0, 0.55)
        dt = 1e-3
        reps = 500
        grid = TrajectoryGrid(dt, 1, burn_in_steps=default_burn_in_steps(model, dt))
        values = np.array([
            integrate_path(model, grid, "burn_in", seed=s, store_modes=False).sq_norms[0]
            for s in range(reps)
        ])
        target = trace_q(model)
        se = values.std(ddof=1) / np.sqrt(reps)
        # Allow the O(dt) scheme bias on top of the Monte Carlo band.
        bias_allowance = 0.02 * target
        assert abs(values.mean() - target) <= 3.0 * se + bias_allowance

    def test_stationary_start_keeps_cross_mode_covariance(self):
        # Point-source modes are correlated at t = 0: Var <X(0), w> = <Qw, w>,
        # which independent coordinates with the right variances miss by 40%.
        model = build_pointwise_model(0.3, 12, 1.0, 0.55)
        w = projection_indicator(0.0, 0.5, 12)
        grid = TrajectoryGrid(0.01, 1)
        reps = 1000
        x = np.array([w.coefficients @ integrate_path(model, grid, "stationary", s).modes[:, 0]
                      for s in range(reps)])
        var = x.var(ddof=1)
        assert abs(var - qww(model, w)) <= 4.0 * var * np.sqrt(2.0 / (reps - 1))

    def test_observe_every_subsamples(self, heat3):
        grid = TrajectoryGrid(0.01, 100)
        fine = integrate_path(heat3, grid, "zero", seed=2)
        coarse = integrate_path(heat3, grid, "zero", seed=2, observe_every=10)
        assert np.array_equal(coarse.sq_norms, fine.sq_norms[::10])
        assert coarse.grid.dt == pytest.approx(0.1)
        with pytest.raises(ValueError):
            integrate_path(heat3, grid, "zero", seed=2, observe_every=7)

    def test_bad_init_rejected(self, heat3):
        grid = TrajectoryGrid(0.1, 10)
        with pytest.raises(ValueError):
            integrate_path(heat3, grid, "warm", seed=1)
        with pytest.raises(ValueError):
            integrate_path(heat3, grid, np.ones(5), seed=1)


class TestAr1Scan:
    # One row per coefficient: rho = 1e-3, 1/2, the slowest integrator_paths
    # mode (a dt = 0.00987) and the random walk rho = 1.
    RHO = np.array([1e-3, 0.5, np.exp(-0.00987), 1.0])

    @pytest.mark.parametrize("n", [1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1,
                                   SCAN_BLOCK**2 + 1, 104427])
    def test_matches_lfilter_and_loop(self, n):
        rng = substream(12, n)
        u = rng.standard_normal((4, n))
        x0 = rng.standard_normal(4)
        y = _ar1_scan(u, self.RHO, x0)
        assert y.shape == (4, n)
        for k, rho in enumerate(self.RHO):
            filtered = lfilter([1.0], [1.0, -rho], u[k], zi=np.array([rho * x0[k]]))[0]
            loop, state = np.empty(n), float(x0[k])
            for j, step in enumerate(u[k].tolist()):
                state = rho * state + step
                loop[j] = state
            for ref in (filtered, loop):
                assert np.linalg.norm(y[k] - ref) <= 1e-13 * np.linalg.norm(ref), (n, rho)


class TestStationarySampling:
    def test_marginal_variances(self, heat3):
        n, reps = 16, 10_000
        sampler = StationaryModeSampler(heat3, n, 1.0)
        for k in range(3):
            draws = sampler.draw(k, substream(17, k), reps)
            target = stationary_variance_mode(heat3.rates[k], 1.0, heat3.hurst)
            est = float(np.mean(draws**2))
            se = target * np.sqrt(2.0 / (n * reps)) * 2.0
            assert abs(est - target) <= 3.0 * se

    def test_lag1_autocovariance_entrywise(self, heat3):
        n, reps = 8, 20_000
        traj_cov = mode_lag_table(heat3, 1.0, 2)[:, 1]
        sampler = StationaryModeSampler(heat3, n, 1.0)
        for k in range(3):
            draws = sampler.draw(k, substream(23, k), reps)
            est = float(np.mean(draws[:-1] * draws[1:]))
            spread = np.std(draws[:-1] * draws[1:]) / np.sqrt((n - 1) * reps) * 3.0
            assert abs(est - traj_cov[k]) <= 4.0 * spread + 1e-12

    def test_markov_sequence_equals_ar1_in_law(self):
        # H = 1/2: the exact sampler and the AR(1) recursion draw the same law;
        # compare |Z|^2 samples with a two-sample KS test.
        a, n, reps = 1.0, 64, 60
        model = custom_model([a], 1.0, 0.5)
        ours = np.concatenate([
            sample_stationary_sequence(model, n, 1.0, seed=s).sq_norms for s in range(reps)
        ])
        rng = np.random.default_rng(99)
        rho = np.exp(-a)
        q = 0.5
        ar = np.empty((reps, n))
        for r in range(reps):
            x = rng.normal(scale=np.sqrt(q))
            for i in range(n):
                x = rho * x + rng.normal(scale=np.sqrt(q * (1 - rho**2)))
                ar[r, i] = x
        assert ks_2samp(ours, (ar**2).ravel()).pvalue > 0.01

    @pytest.mark.parametrize("h", [0.3, 0.6])
    def test_rank_one_block_sampling_moments(self, h):
        # For H < 1/2 the cross-mode covariance has no kernel-form oracle;
        # Monte Carlo agreement is the designated validation there.
        model = build_pointwise_model(0.3, 3, 1.0, h)
        reps = 4000
        sq0 = []
        cross = []
        for s in range(reps):
            traj = sample_stationary_sequence(model, 4, 1.0, seed=s)
            sq0.append(traj.modes[:, 0])
            cross.append(traj.modes[0, 0] * traj.modes[1, 0])
        sq0 = np.asarray(sq0)
        target = stationary_covariance(model)
        for k in range(3):
            se = target[k, k] * np.sqrt(2.0 / reps)
            assert abs(np.mean(sq0[:, k] ** 2) - target[k, k]) <= 4 * se
        se_cross = np.std(cross) / np.sqrt(reps)
        assert abs(np.mean(cross) - target[0, 1]) <= 4 * se_cross

    def test_square_domain_model_pipeline(self):
        # d = 2 truncation has eigenvalue ties; sampling and moments survive.
        model = build_distributed_model(2, 1, 5, 1.0, 0.55)
        traj = sample_stationary_sequence(model, 64, 1.0, seed=21)
        assert traj.modes.shape == (5, 64)
        assert np.all(np.isfinite(traj.sq_norms))
        target = trace_q(model)
        est = float(np.mean(traj.sq_norms))
        assert 0.2 * target < est < 5.0 * target

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_rank_one_draws_match_block_covariance(self, h):
        # The block circulant route draws the stacked mode-major coordinates
        # with exactly the nN x nN covariance; 4 SE entrywise.  A step near
        # 1/a_1 = 1/pi^2 keeps r_kl(t) != r_lk(t) visible at every lag, so a
        # transposition error in the embedding shows.
        model = build_pointwise_model(0.3, 3, 1.0, h)
        n, reps, dt = 5, 20_000, 0.1
        sampler = StationaryModeSampler(model, n, dt)
        assert sampler.n_sequences == 1
        assert sampler.factor(0)[0] == "circulant"
        draws = sampler.draw(0, substream(41, 0), reps)
        target = block_covariance(model, n, dt)
        emp = draws @ draws.T / reps
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / reps)
        assert np.all(np.abs(emp - target) <= 4.0 * se)

    def test_rank_one_large_grid_memory(self):
        # nN = 16384: the dense route needed a 2 GB factor; the block
        # circulant route stays far below 64 MB of Python allocations.
        import tracemalloc

        model = build_pointwise_model(0.3, 16, 1.0, 0.55)
        tracemalloc.start()
        try:
            traj = sample_stationary_sequence(model, 1024, 1.0, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.modes.shape == (16, 1024)
        assert np.all(np.isfinite(traj.sq_norms))
        assert peak < 64 * 2**20

    def test_dense_guard(self, monkeypatch):
        # The guard sits on the dense fallback only; a negative TOL_EIG makes
        # every embedding count as negative, so n*N = 30000 reaches it.
        import fracdrift.fgn as fgn

        monkeypatch.setattr(fgn, "TOL_EIG", -1.0)
        model = build_pointwise_model(0.3, 3, 1.0, 0.6)
        with pytest.raises(ValueError, match="guard"):
            sample_stationary_sequence(model, 10_000, 1.0, seed=1)

    def test_determinism(self, heat3):
        a = sample_stationary_sequence(heat3, 32, 1.0, seed=5)
        b = sample_stationary_sequence(heat3, 32, 1.0, seed=5)
        assert np.array_equal(a.modes, b.modes)


class TestProjectionsAndExports:
    def test_attach_projection_zero_unit_linear(self, heat3):
        traj = sample_stationary_sequence(heat3, 16, 1.0, seed=8)
        zero = attach_projection(traj, projection_from_coefficients(np.zeros(3)))
        assert np.allclose(zero.projections, 0.0)
        unit = attach_projection(traj, projection_from_coefficients(np.array([0.0, 1.0, 0.0])))
        assert np.array_equal(unit.projections, traj.modes[1])
        rng = np.random.default_rng(4)
        u, v = rng.normal(size=3), rng.normal(size=3)
        pu = attach_projection(traj, projection_from_coefficients(u)).projections
        pv = attach_projection(traj, projection_from_coefficients(v)).projections
        puv = attach_projection(traj, projection_from_coefficients(u + 2 * v)).projections
        assert np.allclose(puv, pu + 2 * pv, rtol=1e-12)

    def test_projection_requires_modes(self, heat3):
        traj = sample_stationary_sequence(heat3, 8, 1.0, seed=1)
        bare = Trajectory(grid=traj.grid, t=traj.t, sq_norms=traj.sq_norms,
                          init_kind="stationary")
        with pytest.raises(ValueError):
            attach_projection(bare, projection_sine(1, 3))

    def test_csv_roundtrip(self, heat3):
        traj = attach_projection(
            sample_stationary_sequence(heat3, 12, 0.5, seed=2), projection_sine(1, 3)
        )
        text = trajectory_to_csv(traj)
        assert text.startswith("t,sq_norm,projection\n")
        assert "\r" not in text
        back = trajectory_from_csv(text)
        assert np.array_equal(back.t, traj.t)
        assert np.array_equal(back.sq_norms, traj.sq_norms)
        assert np.array_equal(back.projections, traj.projections)
        # Re-export is byte-identical (full-precision floats).
        assert trajectory_to_csv(back) == text

    def test_csv_rejects_bad_input(self):
        with pytest.raises(ValueError):
            trajectory_from_csv("a,b\n1,2\n")
        with pytest.raises(ValueError):
            trajectory_from_csv("t,sq_norm\n0.0,1.0\n")
        with pytest.raises(ValueError):
            trajectory_from_csv("t,sq_norm\n0.0,1.0\n1.0,1.0\n3.0,1.0\n")

    def test_npz_roundtrip(self, heat3, tmp_path):
        traj = sample_stationary_sequence(heat3, 10, 1.0, seed=3)
        path = tmp_path / "traj.npz"
        trajectory_to_npz(traj, path)
        back = trajectory_from_npz(path)
        assert np.array_equal(back.modes, traj.modes)
        assert back.init_kind == "stationary"
        assert back.grid.dt == traj.grid.dt
