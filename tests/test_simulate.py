"""Path integration, exact stationary sampling, projections, export formats."""

from dataclasses import replace

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
from fracdrift.fgn import block_toeplitz, fold_basis, folded_fgn_autocov
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
    check_integration,
    default_burn_in_steps,
    integrate_path,
    project_modes,
    sample_stationary_sequence,
    trajectory_from_csv,
    trajectory_from_npz,
    trajectory_to_csv,
    trajectory_to_npz,
)
from fracdrift.simulate import _FGN_STREAM, _ar1_scan
from oracles import (
    euler_state_covariance,
    fgn_autocov,
    sample_fgn,
    stationary_variance_mode,
)


def euler_chain_variance(a: float, phi: float, h: float, dt: float, n_terms: int = 20_000) -> float:
    """Exact stationary variance of x_{j+1} = e^{-a dt} x_j + phi dB_j.

    Var = phi^2 dt^{2H} [gamma(0) + 2 sum_d gamma(d) rho^d] / (1 - rho^2); the
    oracle for the integrator's O(dt) weak bias.
    """
    rho = np.exp(-a * dt)
    d = np.arange(1, n_terms)
    series = 1.0 + 2.0 * float(np.sum(fgn_autocov(h, d) * rho**d))
    return phi**2 * dt ** (2 * h) * series / (1.0 - rho**2)


def assert_sequential_recursion(traj, model, grid, init, seed):
    """``traj.modes`` against a step-by-step loop over the same fGN draws,
    burn-in included; the loop differs from the blocked scan by rounding."""
    burn = grid.burn_in_steps if isinstance(init, str) and init == "burn_in" else 0
    shared = model.noise.kind != "diagonal"
    noise = np.array([sample_fgn(model.hurst, grid.n_steps + burn,
                                 substream(seed, _FGN_STREAM, 0 if shared else k))
                      for k in range(model.n_modes)]) * grid.dt**model.hurst
    states = [traj.modes[:, 0] if burn == 0 else np.zeros(model.n_modes)]
    for step in noise.T:
        states.append(np.exp(-model.rates * grid.dt) * states[-1] + model.noise.loadings * step)
    np.testing.assert_allclose(traj.modes, np.array(states[burn:]).T, rtol=1e-12, atol=1e-15)
    if not isinstance(init, str):
        assert np.array_equal(traj.modes[:, 0], init)


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
        # Diagonal and rank-one noise, every init.  Coarse paths draw the fGN
        # folded over each observation interval, not the fine increments, so
        # they share with the fine paths the start and the grid, and their
        # law is checked against the dense Euler covariance, at S = 10 and at
        # S = 1, the identity fold.  Only the burn-in init takes a burn-in:
        # its 13 steps run as 20, two whole observation intervals.
        for model in (heat3, build_pointwise_model(0.3, 3, 1.0, 0.55)):
            for init in ("zero", "burn_in", "stationary", np.array([0.5, -1.0, 2.0])):
                burn_in = isinstance(init, str) and init == "burn_in"
                grid = TrajectoryGrid(0.01, 100, burn_in_steps=13 if burn_in else 0)
                fine = integrate_path(model, grid, init, seed=2)
                coarse = integrate_path(model, grid, init, seed=2, observe_every=10)
                assert coarse.grid.burn_in_steps == (20 if burn_in else 0)
                assert fine.grid.burn_in_steps == (13 if burn_in else 0)
                if not burn_in:
                    assert np.array_equal(coarse.modes[:, 0], fine.modes[:, 0])
                assert coarse.grid.dt == pytest.approx(0.1)
                assert fine.modes.shape == (3, 101) and coarse.modes.shape == (3, 11)
                assert_sequential_recursion(fine, model, grid, init, seed=2)
            # Sample covariance of 2000 paths from zero, drawn as one batch of
            # the Euler sampler, entry by entry within 4.5 standard errors of
            # the dense oracle.
            reps = 2000
            for every in (1, 10):
                dim = 3 * 60 // every
                sampler = StationaryModeSampler(model, 60 // every, 0.01, every)
                states = np.concatenate([sampler.draw(b, substream(2, every, b), reps)
                                         for b in range(sampler.n_sequences)], axis=1)
                states = states.reshape(reps, dim)
                oracle = euler_state_covariance(model, 0.01, 60, every).reshape(dim, dim)
                var = np.diag(oracle)
                se = np.sqrt((np.outer(var, var) + oracle**2) / reps)
                assert np.max(np.abs(states.T @ states / reps - oracle) / se) < 4.5, every
        with pytest.raises(ValueError):
            integrate_path(heat3, TrajectoryGrid(0.01, 100), "zero", seed=2, observe_every=7)

    @pytest.mark.parametrize("observe_every", [1, 10])
    @pytest.mark.parametrize("init", ["zero", "burn_in"])
    @pytest.mark.parametrize("noise", ["diagonal", "rank_one"])
    def test_paths_are_one_replication_of_the_euler_sampler(self, noise, init, observe_every):
        # A path from zero, or after a burn-in, is one replication of each
        # sequence of the Euler sampler, bit for bit, and a batch drawn
        # through a workspace warmed at another batch size is the fresh batch
        # bit for bit.
        model = (build_distributed_model(1, 1, 3, 1.0, 0.3) if noise == "diagonal"
                 else build_pointwise_model(0.3, 3, 1.0, 0.3))
        grid = TrajectoryGrid(0.01, 200, 30 if init == "burn_in" else 0)
        _, n = check_integration(model, grid, init, observe_every)
        sampler = StationaryModeSampler(model, n, 0.01, observe_every)
        work = {}
        for seed in (3, 4):
            traj = integrate_path(model, grid, init, seed, observe_every=observe_every)
            states = np.concatenate([sampler.draw(b, substream(seed, _FGN_STREAM, b), 1,
                                                  work)[0].copy()
                                     for b in range(sampler.n_sequences)])
            states = np.hstack([np.zeros((3, 1)), states])
            burn = n - 200 // observe_every  # x(t_0) is column burn
            assert np.array_equal(traj.modes, states[:, burn:])
            batch = [sampler.draw(b, substream(seed, b), 3, work).copy()
                     for b in range(sampler.n_sequences)]
            for b, x in enumerate(batch):
                assert np.array_equal(x, sampler.draw(b, substream(seed, b), 3))

    @pytest.mark.parametrize("observe_every", [1, 10])
    @pytest.mark.parametrize("init", ["stationary", "given", "given_zero"])
    @pytest.mark.parametrize("noise", ["diagonal", "rank_one"])
    def test_start_adds_its_decay_to_the_zero_path(self, noise, init, observe_every):
        # A start x0 adds rho_k^(S (j+1)) x0_k, taken in blocks of
        # SCAN_BLOCK powers, to the zero-start path of the same seed: within
        # 1e-13 normwise of the powers taken one by one.  A zero x0 adds
        # nothing, bit for bit.
        model = (build_distributed_model(1, 1, 3, 0.1, 0.3) if noise == "diagonal"
                 else build_pointwise_model(0.3, 3, 0.1, 0.7))
        grid = TrajectoryGrid(0.01, 2000)  # 200 to 2000 states: several blocks
        start = {"stationary": "stationary", "given": np.array([1.0, -0.5, 0.25]),
                 "given_zero": np.zeros(3)}[init]
        path = integrate_path(model, grid, start, 5, observe_every=observe_every)
        zero = integrate_path(model, grid, "zero", 5, observe_every=observe_every)
        x0 = path.modes[:, 0]
        if init == "given_zero":
            assert np.array_equal(path.modes, zero.modes)
            return
        rho = np.exp(-model.rates * 0.01) ** observe_every
        want = zero.modes + x0[:, None] * rho[:, None] ** np.arange(len(path.t))
        assert np.all(x0 != 0)
        assert np.linalg.norm(path.modes - want) <= 1e-13 * np.linalg.norm(want)

    def test_warm_workspace_batch_allocates_no_one_mode_array(self):
        # A second batch of heat4 replications through a warm workspace
        # allocates under half of one replication's one-mode array: draw,
        # mix, scale and scan all run in the workspace.
        import tracemalloc

        model = build_distributed_model(1, 1, 4, 0.1, 0.3)
        n = 100_000
        sampler = StationaryModeSampler(model, n, 0.01, 1)
        work = {}
        for b in range(sampler.n_sequences):
            sampler.draw(b, substream(1, b), 3, work)
        tracemalloc.start()
        try:
            for b in range(sampler.n_sequences):
                x = sampler.draw(b, substream(2, b), 3, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (3, 1, n)
        assert peak < 0.5 * n * 8

    def test_bad_init_rejected(self, heat3):
        grid = TrajectoryGrid(0.1, 10)
        with pytest.raises(ValueError):
            integrate_path(heat3, grid, "warm", seed=1)
        with pytest.raises(ValueError):
            integrate_path(heat3, grid, np.ones(5), seed=1)
        # A burn-in on the grid runs only from init "burn_in".
        for init in ("zero", "stationary", np.zeros(3)):
            with pytest.raises(ValueError, match="burn_in_steps"):
                integrate_path(heat3, TrajectoryGrid(0.1, 10, 5), init, seed=1)


class TestAr1Scan:
    # One row per coefficient: rho = 1e-3, 1/2, the slowest integrator_paths
    # mode (a dt = 0.00987), the random walk rho = 1 and rho = 1e-69
    # (rho^2 < 1e-137, rho^B = 0).
    RHO = np.array([1e-3, 0.5, np.exp(-0.00987), 1.0, 1e-69])
    GAIN = np.array([0.3, -1.7, 2.5, 1e-3, 4.0])

    NS = [1, 2, 3, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 127, 129, 4095, 4097,
          SCAN_BLOCK**2 + 1, 104427]

    @pytest.mark.parametrize("n", NS)
    def test_rows_match_lfilter_and_loop(self, n):
        # Every row, each with its own coefficient and gain, is the recursion
        # from zero within 1e-13.
        u = substream(12, n).standard_normal((5, n))
        y = _ar1_scan(u, self.RHO, self.GAIN)
        assert y.shape == (5, n)
        for k, (rho, gain) in enumerate(zip(self.RHO, self.GAIN)):
            filtered = lfilter([gain], [1.0, -rho], u[k])
            loop, state = np.empty(n), 0.0
            for j, step in enumerate(u[k].tolist()):
                state = rho * state + gain * step
                loop[j] = state
            for ref in (filtered, loop):
                assert np.linalg.norm(y[k] - ref) <= 1e-13 * np.linalg.norm(ref), (n, rho)

    @pytest.mark.parametrize("n", [1, SCAN_BLOCK, SCAN_BLOCK + 1, 4097, 104427])
    def test_row_bits_do_not_depend_on_company_or_workspace(self, n):
        # A row scanned alone, in other rows' company (in another order, or
        # broadcast over a leading axis), or through a workspace warmed at
        # another shape, is the same row bit for bit.
        u = substream(13, n).standard_normal((5, n))
        alone = [_ar1_scan(u[k], self.RHO[k], self.GAIN[k]).copy() for k in range(5)]
        work = {}
        _ar1_scan(np.ones((2, n + SCAN_BLOCK)), np.array([0.5, 1.0]), 1.0, work)
        order = np.array([4, 2, 0, 3, 1])
        scans = [lambda: _ar1_scan(u, self.RHO, self.GAIN, work),
                 lambda: _ar1_scan(u[order], self.RHO[order], self.GAIN[order],
                                   work)[np.argsort(order)],
                 lambda: _ar1_scan(np.stack([u, u]), self.RHO, self.GAIN, work)[1]]
        for scan in scans:  # the result lives in work until the next call
            y = scan()
            for k in range(5):
                assert np.array_equal(y[k], alone[k]), k


class TestFoldedNoise:
    @staticmethod
    def state_covariance(h, lags, rhos, phis, dt, every, n_obs):
        """Covariance of the coarse states from the folded lags (n_obs, p, p)
        of the modes with filters ``rhos`` and loadings ``phis``: each mode
        scans its fold at ``rho^S`` with gain ``phi dt^H``."""
        idx = np.arange(n_obs)
        lag = np.subtract.outer(idx, idx)
        scans = [np.where(lag >= 0, phi * dt**h * (rho**every) ** np.maximum(lag, 0), 0)
                 for rho, phi in zip(rhos, phis)]
        p = len(rhos)
        folded = block_toeplitz(lags, n_obs).reshape(p, n_obs, p, n_obs)
        return np.array([[scans[k] @ folded[k, :, l] @ scans[l].T for l in range(p)]
                         for k in range(p)]).transpose(0, 2, 1, 3)

    @pytest.mark.parametrize("every", [2, 10, 100])
    @pytest.mark.parametrize("h", [0.3, 0.55, 0.7])
    @pytest.mark.parametrize("noise", ["diagonal", "rank_one"])
    def test_folded_lags_match_dense_euler_covariance(self, noise, h, every):
        # The lags from the filters and from their orthonormal basis, as the
        # sampler draws them, against the dense fGN covariance pushed through
        # the Euler filters and subsampled; cross-lags for rank-one noise.
        model = (build_distributed_model(1, 1, 3, 1.0, h) if noise == "diagonal"
                 else build_pointwise_model(0.3, 3, 1.0, h))
        dt, n_obs = 0.01, 6
        oracle = euler_state_covariance(model, dt, every * n_obs, every)
        rho = np.exp(-model.rates * dt)
        banks = [slice(0, 3)] if noise == "rank_one" else [slice(k, k + 1) for k in range(3)]
        ours = [np.zeros_like(oracle), np.zeros_like(oracle)]
        for modes in banks:
            bank, phis = rho[modes], model.noise.loadings[modes]
            weights = bank[:, None] ** np.arange(every - 1, -1, -1)
            basis, mix = fold_basis(every, bank)
            mixed = mix @ folded_fgn_autocov(h, n_obs, every, basis) @ mix.T
            for out, lags in zip(ours, (folded_fgn_autocov(h, n_obs, every, weights), mixed)):
                out[modes, :, modes] = self.state_covariance(h, lags, bank, phis, dt, every,
                                                             n_obs)
        scale = np.abs(oracle).max()
        for out in ours:
            assert np.abs(out - oracle).max() <= 1e-12 * scale

    def test_fold_basis_reproduces_filters(self):
        rhos = np.exp(-np.array([1.0, 1.1, 40.0, 90.0]) * 0.01)
        for every in (2, 3, 10):
            basis, mix = fold_basis(every, rhos)
            assert basis.shape == (min(4, every), every)
            np.testing.assert_allclose(basis @ basis.T, np.eye(len(basis)), atol=1e-14)
            np.testing.assert_allclose(mix @ basis, rhos[:, None] ** np.arange(every - 1, -1, -1),
                                       rtol=0, atol=1e-14)


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
            draws = sampler.draw(k, substream(23, k), reps)[:, 0].T
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
        draws = sampler.draw(0, substream(41, 0), reps).reshape(reps, -1).T
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

    def test_projection_bits_do_not_depend_on_layout(self):
        # 20 modes are enough for BLAS gemv to round differently from a loop.
        rng = np.random.default_rng(12)
        w = rng.normal(size=20)
        modes = rng.normal(size=(20, 501))
        strided = np.empty((20, 501, 2))[..., 0]
        strided[...] = modes
        copies = [modes, np.asfortranarray(modes), strided, np.ascontiguousarray(modes.T).T]
        ref = project_modes(w, modes)
        for layout in copies:
            assert np.array_equal(project_modes(w, layout), ref)
        expected = np.zeros(501)
        for k in range(20):
            expected += w[k] * modes[k]
        assert np.array_equal(ref, expected)
        traj = Trajectory(grid=TrajectoryGrid(1.0, 500), t=np.arange(501.0),
                          sq_norms=np.sum(modes**2, axis=0), init_kind="given")
        for layout in copies:
            projected = attach_projection(replace(traj, modes=layout),
                                          projection_from_coefficients(w))
            assert np.array_equal(projected.projections, ref)

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
        with pytest.raises(ValueError, match="no rows"):
            trajectory_from_csv("t,sq_norm\n")
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

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("method", ["stationary", "integrate_zero", "integrate_burn_in"])
    def test_readers_reproduce_the_written_grid(self, heat3, tmp_path, method, n):
        # Integrated paths are observed at t = 0, ..., n dt, stationary draws
        # at t = dt, ..., n dt: both are n steps.  CSV stores no burn-in.
        if method == "stationary":
            traj = sample_stationary_sequence(heat3, n, 0.5, seed=4)
        else:
            burn_in = method == "integrate_burn_in"
            traj = integrate_path(heat3, TrajectoryGrid(0.25, 2 * n, 6 * burn_in),
                                  "burn_in" if burn_in else "zero", 4, observe_every=2)
        path = tmp_path / "traj.npz"
        trajectory_to_npz(traj, path)
        assert trajectory_from_npz(path).grid == traj.grid
        # A single row is a 1-step stationary draw, its time the step.
        text = trajectory_to_csv(traj)
        assert trajectory_from_csv(text).grid == replace(traj.grid, burn_in_steps=0)
