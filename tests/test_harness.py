"""Experiment orchestration: reproducibility, refusals, report structure."""

import json
import sys

import numpy as np
import pytest

from fracdrift.estimators import DegenerateModelError
from fracdrift.harness import (
    ExperimentSpec,
    _batches,
    _median_and_quartiles,
    run_consistency,
    run_degenerate_projection,
    run_estimator_clt,
    run_experiment,
    run_moment_clt,
    run_rosenblatt,
)
from fracdrift.models import (
    NoiseStructure,
    build_distributed_model,
    build_pointwise_model,
    custom_model,
    projection_indicator,
    projection_sine,
)


def report_json(report, include_raw=False):
    """The report's JSON text, keys sorted."""
    return json.dumps(report.to_json_dict(include_raw=include_raw), sort_keys=True)


def small_spec(kind, model, **kw):
    defaults = dict(grid=(32, 64), replications=80, seed=7)
    defaults.update(kw)
    return ExperimentSpec(kind=kind, model=model, **defaults)


class TestSpecValidation:
    def test_grid_must_increase(self, heat3):
        with pytest.raises(ValueError):
            ExperimentSpec("consistency", heat3, (10, 10), 5, 1)
        with pytest.raises(ValueError):
            ExperimentSpec("consistency", heat3, (), 5, 1)

    @pytest.mark.parametrize("value", ["x", None, True, [1.0]])
    def test_thresholds_are_numbers(self, heat3, value):
        with pytest.raises(ValueError, match="threshold"):
            ExperimentSpec("estimator_clt", heat3, (32,), 8, 1,
                           thresholds={"ks_localized_max": value})

    def test_integer_threshold_is_not_cast(self, heat3):
        spec = ExperimentSpec("estimator_clt", heat3, (32,), 8, 1,
                              thresholds={"ks_localized_max": 1})
        assert type(spec.report({}).to_json_dict()["thresholds"]["ks_localized_max"]) is int

    @pytest.mark.parametrize("kind", ["moment_clt", "estimator_clt", "cumulants",
                                      "rosenblatt", "degenerate_projection"])
    def test_only_consistency_takes_integrated_paths(self, heat3, kind):
        # The other kinds draw exact stationary samples and never read source.
        w = projection_indicator(0.0, 0.5, 3)
        with pytest.raises(ValueError, match="only consistency takes source 'integrator'"):
            ExperimentSpec(kind, heat3, (128,), 80, 1, projection=w, source="integrator")
        ExperimentSpec(kind, heat3, (128,), 80, 1, projection=w)
        ExperimentSpec("consistency", heat3, (128,), 80, 1, source="integrator")

    @pytest.mark.parametrize("dt,sim_dt,ok", [
        (1.0, 0.3, False), (1.0, 5.0, False), (1.0, 0.4, False), (0.5, 0.3, False),
        (1.0, 0.1, True), (1.0, 1.0, True), (0.5, 0.05, True), (0.3, 0.1, True),
    ])
    def test_sim_dt_must_divide_dt(self, heat3, dt, sim_dt, ok):
        # The integrator observes every dt / sim_dt steps: a step that does not
        # divide dt (relative tolerance 1e-9) would run at another step.
        make = lambda: ExperimentSpec("consistency", heat3, (16,), 8, 1, dt=dt,
                                      source="integrator", sim_dt=sim_dt)
        if ok:
            assert make().sim_dt == sim_dt
        else:
            with pytest.raises(ValueError, match="sim_dt must divide dt"):
                make()

    def test_replications_positive(self, heat3):
        with pytest.raises(ValueError):
            ExperimentSpec("consistency", heat3, (10,), 0, 1)

    @pytest.mark.parametrize("kind", ["consistency", "moment_clt", "estimator_clt",
                                      "cumulants", "rosenblatt"])
    def test_monte_carlo_kinds_need_two_batches(self, heat3, kind):
        # One batch leaves every batch standard error NaN.
        for reps, batches in ((1, 20), (80, 1)):
            with pytest.raises(ValueError, match="n_batches >= 2"):
                ExperimentSpec(kind, heat3, (128,), reps, 1, n_batches=batches)

    def test_cumulants_batches_hold_four_replications(self, heat3):
        # 40 replications in 20 batches leave 2 per batch for the k-statistics.
        with pytest.raises(ValueError, match="k-statistics need at least four"):
            ExperimentSpec("cumulants", heat3, (32, 64), 40, 1)
        ExperimentSpec("cumulants", heat3, (32, 64), 80, 1)
        ExperimentSpec("cumulants", heat3, (32, 64), 40, 1, n_batches=10)
        ExperimentSpec("cumulants", heat3, (128,), 40, 1)  # no Monte Carlo above 64

    def test_degenerate_projection_accepts_one_replication(self, heat3):
        w = projection_indicator(0.0, 0.5, 3)
        spec = ExperimentSpec("degenerate_projection", heat3, (1,), 1, 1, projection=w)
        assert spec.replications == 1

    def test_unknown_kind(self, heat3):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            run_experiment(ExperimentSpec("mystery", heat3, (8,), 4, 1))

    @pytest.mark.parametrize("estimators", [("discrete_nrm",), ("continuous_norm",),
                                            ("discrete_norm", "continuous_projection"), ()])
    def test_estimators_are_discrete_kinds(self, heat3, estimators):
        with pytest.raises(ValueError, match="estimators must be"):
            ExperimentSpec("estimator_clt", heat3, (8,), 4, 1, estimators=estimators)

    def test_batch_sizes_partition(self, heat3):
        for reps, batches in ((100, 20), (7, 20), (41, 6)):
            spec = ExperimentSpec("consistency", heat3, (8,), reps, 1, n_batches=batches)
            slices = _batches(spec)
            assert [sl.start for sl in slices] == [0] + [sl.stop for sl in slices[:-1]]
            sizes = [sl.stop - sl.start for sl in slices]
            assert sum(sizes) == reps
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)


class TestReproducibility:
    def test_identical_reports_same_seed(self, heat3):
        spec = small_spec("moment_clt", heat3, grid=(16, 32, 64), replications=60)
        a = report_json(run_moment_clt(spec), include_raw=True)
        b = report_json(run_moment_clt(spec), include_raw=True)
        assert a == b

    def test_thread_count_does_not_change_results(self, heat3):
        base = small_spec("estimator_clt", heat3, grid=(128,), replications=60,
                          thresholds={"ks_localized_max": 1.0})
        threaded = ExperimentSpec(**{**base.__dict__, "threads": 8})
        a = report_json(run_estimator_clt(base), include_raw=True)
        b = report_json(run_estimator_clt(threaded), include_raw=True)
        assert a == b

    def test_integrated_paths_do_not_depend_on_thread_count(self, heat3):
        # Pool threads share the sampler's factors and each keeps its own batch
        # workspace, which carries over batches of different sizes and seeds.
        base = small_spec("consistency", heat3, grid=(20, 40), replications=12,
                          source="integrator", sim_dt=0.1,
                          estimators=("discrete_norm", "discrete_projection"),
                          projection=projection_indicator(0.0, 0.5, 3),
                          thresholds={"max_median_error": 10.0})
        a = report_json(run_consistency(base), include_raw=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so shared buffers would show
        try:
            for threads in (2, 3):
                threaded = ExperimentSpec(**{**base.__dict__, "threads": threads})
                assert report_json(run_consistency(threaded), include_raw=True) == a
        finally:
            sys.setswitchinterval(interval)

    def test_seed_changes_results(self, heat3):
        a = run_moment_clt(small_spec("moment_clt", heat3, replications=40, seed=1))
        b = run_moment_clt(small_spec("moment_clt", heat3, replications=40, seed=2))
        assert report_json(a) != report_json(b)


class TestConsistencyExperiment:
    def test_median_and_quartiles_equal_numpy_bit_for_bit(self):
        # At every size 1..300, on continuous draws, on draws rounded to a
        # coarse grid (ties) and on draws spread over six decades (where
        # numpy's two interpolation branches round differently), with the
        # errors' dtype and sign.
        rng = np.random.default_rng(23)
        for n in range(1, 301):
            for x in (np.abs(rng.standard_normal(n)), np.round(rng.exponential(size=n), 1),
                      rng.uniform(size=n) * 10.0 ** rng.integers(-3, 3, n)):
                want = (np.median(x), *np.percentile(x, [25, 75]))
                got = _median_and_quartiles(x)
                assert [v.hex() for v in got] == [float(v).hex() for v in want], n

    def test_integrator_source_factors_fgn_once(self, embedding_calls):
        # Observed every 10 steps, each heat4 mode draws fGN folded by its own
        # filter: one factor per mode filter per experiment, whatever the
        # replication and thread counts.
        model = build_distributed_model(1, 1, 4, 0.1, 0.3)
        spec = ExperimentSpec("consistency", model, (20, 40), 8, seed=3, threads=2,
                              source="integrator", sim_dt=0.1,
                              thresholds={"max_median_error": 10.0})
        for runs, (replications, threads) in enumerate(((8, 2), (12, 3), (8, 1)), 1):
            run_consistency(ExperimentSpec(**{**spec.__dict__, "replications": replications,
                                              "threads": threads}))
            assert len(embedding_calls) == 4 * runs

    @pytest.mark.parametrize("noise", ["diagonal", "rank_one"])
    def test_integrator_source_sums_the_euler_sampler_batches(self, noise):
        # Integrator replications are the Euler sampler's batches, one stream
        # per (seed, kind, batch, sequence), observed after the default burn-in.
        from fracdrift._rng import substream
        from fracdrift.harness import _TAGS, _stationary_moment_samples
        from fracdrift.simulate import (
            StationaryModeSampler, TrajectoryGrid, check_integration, default_burn_in_steps,
        )

        model = (build_distributed_model(1, 1, 3, 1.0, 0.3) if noise == "diagonal"
                 else build_pointwise_model(0.3, 3, 1.0, 0.3))
        w = projection_indicator(0.0, 0.5, 3)
        spec = ExperimentSpec("consistency", model, (20, 40), 7, seed=4, dt=0.5, sim_dt=0.05,
                              n_batches=3, source="integrator", projection=w,
                              estimators=("discrete_norm", "discrete_projection"))
        cuts = (20, 40)
        sq, proj = _stationary_moment_samples(spec, 40, 0, True, cuts)
        _, total = check_integration(model, TrajectoryGrid(0.05, 400), "burn_in", 10)
        burn = total - 40
        assert burn == -(-default_burn_in_steps(model, 0.05) // 10)
        sampler = StationaryModeSampler(model, total, 0.05, 10)
        for b, cols in enumerate(_batches(spec)):
            x = np.concatenate([sampler.draw(s, substream(4, _TAGS["consistency"], 0, b, s),
                                             cols.stop - cols.start)
                                for s in range(sampler.n_sequences)], axis=1)[..., burn:]
            at = np.asarray(cuts) - 1
            np.testing.assert_allclose(sq[:, cols], np.cumsum((x**2).sum(1), -1)[:, at].T,
                                       rtol=1e-12)
            np.testing.assert_allclose(proj[:, cols],
                                       np.cumsum((w.coefficients @ x)**2, -1)[:, at].T,
                                       rtol=1e-12)

    def test_integrator_step_defaults_to_one_hundredth(self):
        model = build_distributed_model(1, 1, 3, 1.0, 0.55)
        spec = ExperimentSpec("consistency", model, (20, 40), 8, seed=3, source="integrator",
                              thresholds={"max_median_error": 10.0})
        stepped = ExperimentSpec(**{**spec.__dict__, "sim_dt": 0.01})
        assert spec.sim_dt is None
        assert report_json(run_consistency(spec), include_raw=True) == \
            report_json(run_consistency(stepped), include_raw=True)

    def test_stationary_source_small(self):
        model = custom_model([1.0], 1.0, 0.55)
        spec = ExperimentSpec("consistency", model, (100, 400, 1600), 150, seed=3,
                              thresholds={"max_median_error": 0.2})
        report = run_consistency(spec)
        meds = [r.value for r in report.rows if r.statistic.endswith("median_abs_error")]
        assert meds[0] > meds[-1]
        assert report.passed

    def test_integrator_source_small(self):
        # Full-pipeline variant: exponential-Euler paths with burn-in init.
        model = custom_model([1.0], 1.0, 0.55)
        spec = ExperimentSpec("consistency", model, (50, 200), 60, seed=5,
                              source="integrator", sim_dt=0.05,
                              thresholds={"max_median_error": 0.35})
        report = run_consistency(spec)
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_separate_truths_no_crosstalk(self):
        # alpha = 1 and alpha = 2 runs each concentrate near their own truth.
        for alpha in (1.0, 2.0):
            model = custom_model([1.0], alpha, 0.55)
            spec = ExperimentSpec("consistency", model, (400, 1600), 80, seed=11,
                                  thresholds={"max_median_error": 0.2 * alpha})
            report = run_consistency(spec)
            final = [r.value for r in report.rows
                     if r.statistic == "discrete_norm_median_abs_error"][-1]
            assert final < 0.15 * alpha

    def test_projection_estimator_included(self, heat3):
        spec = ExperimentSpec("consistency", heat3, (200, 800), 60, seed=13,
                              estimators=("discrete_norm", "discrete_projection"),
                              projection=projection_indicator(0, 0.5, 3),
                              thresholds={"max_median_error": 0.5})
        report = run_consistency(spec)
        stats = {r.statistic for r in report.rows}
        assert "discrete_projection_median_abs_error" in stats

    def test_projection_estimator_needs_projection(self, heat3):
        with pytest.raises(ValueError, match="projection"):
            run_consistency(ExperimentSpec("consistency", heat3, (8,), 4, seed=1,
                                           estimators=("discrete_projection",)))

    def test_degenerate_projection_refuses(self):
        model = build_pointwise_model(0.5, 8, 1.0, 0.55)
        spec = ExperimentSpec("consistency", model, (32,), 8, seed=1,
                              estimators=("discrete_projection",),
                              projection=projection_sine(4, 8))
        with pytest.raises(DegenerateModelError):
            run_consistency(spec)

    def test_all_zero_noise_unrepresentable(self):
        # Identifiability: the degenerate all-zero loading model cannot even
        # be constructed, so every experiment refuses it at the boundary.
        with pytest.raises(ValueError, match="identifiable"):
            NoiseStructure("diagonal", np.zeros(4))


class TestDistributionExperiments:
    def test_moment_clt_rows_and_checks(self, heat3):
        report = run_moment_clt(small_spec("moment_clt", heat3, grid=(16, 32, 64),
                                           replications=100))
        stats = {r.statistic for r in report.rows}
        assert {"ks_distance", "wasserstein1", "xi_H"} <= stats
        assert report.regression is not None
        assert {c.name for c in report.checks} >= {"ks_slope_vs_rate", "ks_decreasing"}
        assert any(c.name.startswith("kolmogorov_wasserstein") for c in report.checks)

    def test_moment_clt_markov_ks_decreasing(self):
        # H = 1/2 single mode: the KS distance decreases over n in {2^5..2^9}.
        model = custom_model([0.5], 1.0, 0.5)
        spec = ExperimentSpec("moment_clt", model, (32, 64, 128, 256, 512), 600, seed=37)
        report = run_moment_clt(spec)
        byname = {c.name: c for c in report.checks}
        assert byname["ks_decreasing"].passed

    def test_estimator_clt_normality_small(self):
        model = custom_model([2.0], 1.0, 0.55)
        spec = ExperimentSpec("estimator_clt", model, (1000,), 500, seed=17)
        report = run_estimator_clt(spec)
        assert report.passed, [c for c in report.checks if not c.passed]
        pval = [r.value for r in report.rows if r.statistic.endswith("pvalue")][0]
        assert pval > 1e-4

    def test_estimator_clt_needs_projection(self, heat3):
        with pytest.raises(ValueError, match="projection"):
            run_estimator_clt(ExperimentSpec("estimator_clt", heat3, (64,), 20, seed=1,
                                             estimators=("discrete_projection",)))

    def test_rosenblatt_control_mode(self):
        model = custom_model([1.0], 1.0, 0.55)
        spec = ExperimentSpec("rosenblatt", model, (512,), 400, seed=19,
                              thresholds={"ks_max": 0.12})
        report = run_rosenblatt(spec)
        assert "control_normality_ks" in {c.name for c in report.checks}

    def test_rosenblatt_noncentral_mode_checks(self):
        model = custom_model([1.0], 1.0, 0.85)
        spec = ExperimentSpec("rosenblatt", model, (256, 512), 400, seed=23,
                              thresholds={"ks_floor": 0.01})
        report = run_rosenblatt(spec)
        names = {c.name for c in report.checks}
        assert "ks_to_best_normal_floor" in names
        assert "variance_stabilizes" in names
        assert any(n.startswith("skewness_positive") for n in names)


class TestDegenerateProjectionExperiment:
    def test_both_branches(self):
        model = build_pointwise_model(0.5, 8, 1.0, 0.55)
        spec = ExperimentSpec("degenerate_projection", model, (1,), 1, seed=1,
                              projection=projection_sine(4, 8))
        report = run_degenerate_projection(spec)
        assert report.passed, [c for c in report.checks if not c.passed]
        byname = {c.name: c for c in report.checks}
        assert byname["qww_candidate_degenerate"].observed < 1e-12
        assert byname["estimator_refuses"].passed
        assert byname["qww_window_positive"].observed > 0
        unit = [r.value for r in report.rows if r.statistic == "window_unit_ratio_estimate"]
        assert unit == [pytest.approx(1.0, abs=1e-13)]

    def test_requires_projection(self, pointwise8):
        with pytest.raises(ValueError, match="projection"):
            run_degenerate_projection(
                ExperimentSpec("degenerate_projection", pointwise8, (1,), 1, seed=1))


class TestReportFormats:
    def test_csv_schema(self, heat3):
        report = run_moment_clt(small_spec("moment_clt", heat3, replications=40))
        csv_text = report.to_csv()
        header, first = csv_text.splitlines()[:2]
        assert header == "grid,statistic,value,mc_se,n_reps"
        assert len(first.split(",")) == 5

    def test_json_schema(self, heat3):
        report = run_moment_clt(small_spec("moment_clt", heat3, replications=40))
        payload = report.to_json_dict()
        assert payload["schema_version"] == 1
        assert {"rows", "checks", "regression", "passed", "thresholds"} <= set(payload)
        for row in payload["rows"]:
            assert {"grid", "statistic", "value", "mc_se", "n_reps"} == set(row)

    def test_rank_one_sampling_path(self):
        # Rank-one models run through the block circulant sampler.
        model = build_pointwise_model(0.3, 3, 1.0, 0.55)
        spec = ExperimentSpec("moment_clt", model, (8, 16), 60, seed=29)
        report = run_moment_clt(spec)
        assert len(report.rows) > 0

    @pytest.mark.parametrize("rank_one", [False, True])
    def test_moment_samples_sum_each_draws_modes(self, heat3, rank_one):
        # Each batch adds every mode of every sequence it drew into its own
        # replications and sums them up to each cut, on a pool of two threads.
        from fracdrift._rng import substream
        from fracdrift.harness import _TAGS, _stationary_moment_samples
        from fracdrift.simulate import StationaryModeSampler

        model = build_pointwise_model(0.3, 3, 1.0, 0.55) if rank_one else heat3
        w = projection_indicator(0.0, 0.5, 3)
        n, size, cuts = 12, 3, (1, 5, 12)
        spec = ExperimentSpec("moment_clt", model, (n,), 3 * size, seed=5,
                              projection=w, n_batches=3, threads=2)
        sq, proj = _stationary_moment_samples(spec, n, 0, need_proj=True, cuts=cuts)
        sampler = StationaryModeSampler(model, n, 1.0)
        modes = np.concatenate([
            np.concatenate([
                sampler.draw(s, substream(5, _TAGS["moment_clt"], 0, b, s), size)
                for s in range(sampler.n_sequences)
            ], axis=1)
            for b in range(3)
        ])
        assert modes.shape == (3 * size, 3, n)
        assert sq.shape == proj.shape == (len(cuts), 3 * size)
        projected = np.einsum("k,rkn->rn", w.coefficients, modes)
        for i, c in enumerate(cuts):
            np.testing.assert_allclose(sq[i], np.sum(modes[..., :c] ** 2, axis=(1, 2)),
                                       rtol=1e-12)
            np.testing.assert_allclose(proj[i], np.sum(projected[:, :c] ** 2, axis=1),
                                       rtol=1e-12, atol=1e-15)

    def test_moment_samples_build_no_full_array(self, heat3):
        # Each batch reduces its own draws, so the traced peak stays below
        # one (n, replications) float64 array (a column layout needs 2.3).
        import tracemalloc

        from fracdrift.harness import _stationary_moment_samples

        n, reps = 256, 2000
        spec = ExperimentSpec("moment_clt", heat3, (n,), reps, seed=3, threads=1,
                              projection=projection_indicator(0.0, 0.5, 3))
        tracemalloc.start()
        try:
            sq, proj = _stationary_moment_samples(spec, n, 0, need_proj=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * reps * 8
        assert sq.shape == proj.shape == (1, reps)

    def test_integrated_path_holds_one_mode_at_a_time(self):
        # Each mode is drawn and scanned on its own through one fGN workspace,
        # so one path of 16 modes stays below 16 one-mode arrays (about 6.7
        # on numpy 2.4 for a fresh workspace; whole (N, n_total) arrays need
        # about 5N).
        import tracemalloc

        from fracdrift.simulate import TrajectoryGrid, integrate_path

        model = build_distributed_model(1, 1, 16, 1.0, 0.3)
        n_total = 100_000
        grid = TrajectoryGrid(0.01, n_total)
        integrate_path(model, grid, "zero", seed=1, store_modes=False)  # warm-up
        tracemalloc.start()
        try:
            traj = integrate_path(model, grid, "zero", seed=2, store_modes=False,
                                  observe_every=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n_total * 8
        assert traj.sq_norms.shape == (1001,)

    def test_rank_one_sampling_checks_dense_guard(self, monkeypatch):
        # A negative TOL_EIG sends every sequence to the dense fallback.
        import fracdrift.fgn as fgn

        monkeypatch.setattr(fgn, "DENSE_GUARD", 100)
        monkeypatch.setattr(fgn, "TOL_EIG", -1.0)
        model = build_pointwise_model(0.3, 3, 1.0, 0.55)   # n*N = 120 > 100
        spec = ExperimentSpec("moment_clt", model, (40, 48), 8, seed=29)
        with pytest.raises(ValueError, match="guard"):
            run_moment_clt(spec)
