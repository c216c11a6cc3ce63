"""Experiment orchestration: reproducibility, refusals, report structure."""

import numpy as np
import pytest

from fracdrift.estimators import DegenerateModelError
from fracdrift.harness import (
    ExperimentSpec,
    _batches,
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

    def test_replications_positive(self, heat3):
        with pytest.raises(ValueError):
            ExperimentSpec("consistency", heat3, (10,), 0, 1)

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
        a = run_moment_clt(spec).to_json(include_raw=True)
        b = run_moment_clt(spec).to_json(include_raw=True)
        assert a == b

    def test_thread_count_does_not_change_results(self, heat3):
        base = small_spec("estimator_clt", heat3, grid=(128,), replications=60,
                          thresholds={"ks_localized_max": 1.0})
        threaded = ExperimentSpec(**{**base.__dict__, "threads": 8})
        a = run_estimator_clt(base).to_json(include_raw=True)
        b = run_estimator_clt(threaded).to_json(include_raw=True)
        assert a == b

    def test_integrated_paths_do_not_depend_on_thread_count(self, heat3):
        # Pool threads share the fGN factor cache.
        base = small_spec("consistency", heat3, grid=(20, 40), replications=12,
                          source="integrator", sim_dt=0.1,
                          thresholds={"max_median_error": 10.0})
        threaded = ExperimentSpec(**{**base.__dict__, "threads": 2})
        a = run_consistency(base).to_json(include_raw=True)
        b = run_consistency(threaded).to_json(include_raw=True)
        assert a == b

    def test_seed_changes_results(self, heat3):
        a = run_moment_clt(small_spec("moment_clt", heat3, replications=40, seed=1))
        b = run_moment_clt(small_spec("moment_clt", heat3, replications=40, seed=2))
        assert a.to_json() != b.to_json()


class TestConsistencyExperiment:
    def test_integrator_source_factors_fgn_once(self, embedding_calls):
        model = build_distributed_model(1, 1, 4, 0.1, 0.3)
        spec = ExperimentSpec("consistency", model, (20, 40), 8, seed=3, threads=2,
                              source="integrator", sim_dt=0.1,
                              thresholds={"max_median_error": 10.0})
        run_consistency(spec)
        assert len(embedding_calls) == 1

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
        # columns, on a pool of two threads.
        from fracdrift._rng import substream
        from fracdrift.harness import _TAGS, _stationary_moment_samples
        from fracdrift.simulate import StationaryModeSampler

        model = build_pointwise_model(0.3, 3, 1.0, 0.55) if rank_one else heat3
        w = projection_indicator(0.0, 0.5, 3)
        n, size = 12, 3
        spec = ExperimentSpec("moment_clt", model, (n,), 3 * size, seed=5,
                              projection=w, n_batches=3, threads=2)
        sq, proj = _stationary_moment_samples(spec, n, 0, need_proj=True)
        sampler = StationaryModeSampler(model, n, 1.0)
        modes = np.concatenate([
            np.concatenate([
                sampler.draw(s, substream(5, _TAGS["moment_clt"], 0, b, s), size)
                .reshape(-1, n, size)
                for s in range(sampler.n_sequences)
            ])
            for b in range(3)
        ], axis=2)
        assert modes.shape == (3, n, 3 * size)
        np.testing.assert_allclose(sq, np.sum(modes**2, axis=0), rtol=1e-12)
        np.testing.assert_allclose(proj, np.einsum("k,knr->nr", w.coefficients, modes),
                                   rtol=1e-12, atol=1e-15)

    def test_rank_one_sampling_checks_dense_guard(self, monkeypatch):
        # A negative TOL_EIG sends every sequence to the dense fallback.
        import fracdrift.fgn as fgn

        monkeypatch.setattr(fgn, "DENSE_GUARD", 100)
        monkeypatch.setattr(fgn, "TOL_EIG", -1.0)
        model = build_pointwise_model(0.3, 3, 1.0, 0.55)   # n*N = 120 > 100
        spec = ExperimentSpec("moment_clt", model, (40, 48), 8, seed=29)
        with pytest.raises(ValueError, match="guard"):
            run_moment_clt(spec)
