"""Command-line front end: schemas, exit codes, round trips, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fracdrift.cli import EXIT_DEGENERATE, EXIT_ERROR, EXIT_OK, EXIT_THRESHOLD, main
from fracdrift.estimators import asymptotic_sigma, estimate, qww1, trace_q1
from fracdrift.harness import ExperimentSpec, available_cores, run_experiment
from fracdrift.models import (
    model_from_dict,
    model_to_dict,
    projection_from_dict,
    projection_indicator,
)
from fracdrift.simulate import project_modes, trajectory_from_csv, trajectory_from_npz

HEAT3 = {"kind": "distributed", "d": 1, "m": 1, "n_modes": 3, "alpha": 1.0, "hurst": 0.55}
POINTWISE = {"kind": "pointwise", "y": 0.5, "n_modes": 8, "alpha": 1.0, "hurst": 0.55}
WINDOW = {"kind": "indicator", "a": 0.0, "b": 0.5}
KINDS = ["discrete_norm", "continuous_norm", "discrete_projection", "continuous_projection"]
PROJECTION_KINDS = ["discrete_projection", "continuous_projection"]


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestTheory:
    def test_emits_tables(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "model": HEAT3,
            "projection": {"kind": "indicator", "a": 0.0, "b": 0.5},
            "n_values": [16, 64],
        })
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "theory.json").read_text())
        names = {q["name"] for q in payload["quantities"]}
        assert {"trace_q_drift1", "qww_drift1", "sigma1", "sigma2", "sigma3",
                "sigma4", "gamma_alpha", "delta_alpha", "s_inf_star", "u_inf_star",
                "s_n[16]", "xi_H[64]"} <= names
        csv_text = (out / "theory.csv").read_text()
        assert csv_text.startswith("quantity,value,note")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "theory"
        assert "config_sha256" in manifest

    def test_h_above_clt_regime(self, tmp_path):
        model = dict(HEAT3, hurst=0.8)
        cfg = write(tmp_path, "cfg.json", {"model": model})
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "theory.json").read_text())
        assert payload["clt_regime"] is False

    def test_lag_table_beyond_memory_is_a_compute_error(self, tmp_path, capsys, monkeypatch):
        import fracdrift.fgn as fgn

        monkeypatch.setattr(fgn, "_physical_memory", lambda: 1 << 10)
        cfg = write(tmp_path, "cfg.json", {"model": HEAT3})
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error: compute: lag table of 256 lags" in err and "GiB" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {"model": HEAT3, "oops": 1})
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_ERROR
        assert "error: config" in capsys.readouterr().err


class TestSimulateEstimateRoundTrip:
    def test_csv_roundtrip_and_estimate(self, tmp_path):
        sim_cfg = write(tmp_path, "sim.json", {
            "model": HEAT3,
            "grid": {"dt": 1.0, "n_steps": 400},
            "method": "exact_stationary",
            "projection": {"kind": "indicator", "a": 0.0, "b": 0.5},
            "seed": 5,
        })
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", sim_cfg, "--out", str(sim_out)]) == EXIT_OK
        traj_csv = sim_out / "trajectory.csv"
        assert traj_csv.read_text().splitlines()[0] == "t,sq_norm,projection"

        est_cfg = write(tmp_path, "est.json", {
            "model": HEAT3,
            "trajectory": str(traj_csv),
            "estimator": "discrete_norm",
            "true_alpha": 1.0,
        })
        est_out = tmp_path / "est"
        assert main(["estimate", "--config", est_cfg, "--out", str(est_out)]) == EXIT_OK
        report = json.loads((est_out / "estimate.json").read_text())
        assert 0.5 < report["alpha_hat"] < 2.0
        assert report["standardized_error"] is not None
        assert report["truncation_tail_ratio"] > 0

    def test_one_step_stationary_trajectory(self, tmp_path):
        # A 1-step stationary draw is one observation at t = dt: estimate reads
        # it from npz and from the CSV, whose single row's time is the step,
        # to the same estimate.
        sim_cfg = write(tmp_path, "sim.json", {
            "model": HEAT3, "grid": {"dt": 0.1, "n_steps": 1}, "method": "exact_stationary",
        })
        assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == EXIT_OK
        for fmt in ("npz", "csv"):
            est_cfg = write(tmp_path, f"est_{fmt}.json", {
                "model": HEAT3, "trajectory": str(tmp_path / "sim" / f"trajectory.{fmt}"),
                "estimator": "discrete_norm",
            })
            assert main(["estimate", "--config", est_cfg, "--out", str(tmp_path / fmt)]) == EXIT_OK
        assert (tmp_path / "csv" / "estimate.json").read_text() == \
            (tmp_path / "npz" / "estimate.json").read_text()

    @pytest.mark.parametrize("arrays,message", [
        pytest.param({"t": [0.0, 1.0]}, "format_version is not a file", id="missing_field"),
        pytest.param({"format_version": 1, "t": [0.0], "sq_norms": [1.0], "dt": 1.0,
                      "burn_in_steps": 0, "init_kind": "given"},
                     "trajectory needs at least one time after t = 0", id="no_step"),
    ])
    def test_unusable_npz_is_a_config_error_naming_it(self, tmp_path, capsys, arrays, message):
        traj = tmp_path / "traj.npz"
        np.savez(traj, **{k: np.asarray(v) for k, v in arrays.items()})
        est_cfg = write(tmp_path, "est.json", {
            "model": HEAT3, "trajectory": str(traj), "estimator": "discrete_norm",
        })
        assert main(["estimate", "--config", est_cfg, "--out", str(tmp_path / "e")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: trajectory {traj}: ") and message in err

    def test_rank_one_exact_stationary_at_16384_coordinates(self, tmp_path):
        # Point source, N = 16 and 1024 steps: nN = 16384 coordinates, a size
        # at which the former dense factorization crashed the process.
        sim_cfg = write(tmp_path, "sim.json", {
            "model": {"kind": "pointwise", "y": 0.3, "n_modes": 16,
                      "alpha": 1.0, "hurst": 0.55},
            "grid": {"dt": 1.0, "n_steps": 1024},
            "method": "exact_stationary",
        })
        out = tmp_path / "sim"
        assert main(["simulate", "--config", sim_cfg, "--out", str(out)]) == EXIT_OK
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1025

    def test_dense_fallback_beyond_memory_is_a_compute_error(self, tmp_path, capsys,
                                                              monkeypatch):
        import fracdrift.fgn as fgn

        monkeypatch.setattr(fgn, "TOL_EIG", -1.0)        # force the dense fallback
        monkeypatch.setattr(fgn, "_physical_memory", lambda: 1 << 20)
        sim_cfg = write(tmp_path, "sim.json", {
            "model": HEAT3, "grid": {"dt": 1.0, "n_steps": 256},
            "method": "exact_stationary",
        })
        assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "s")]) \
            == EXIT_ERROR
        assert "error: compute:" in capsys.readouterr().err

    def test_memory_error_in_dense_fallback_is_a_compute_error(self, tmp_path, capsys,
                                                               monkeypatch):
        # An allocation that fails inside the factorization, past the guard's
        # estimate, exits 1 with a compute error and writes nothing.
        import fracdrift.fgn as fgn

        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(fgn, "TOL_EIG", -1.0)        # force the dense fallback
        monkeypatch.setattr(fgn, "jittered_cholesky", no_memory)
        sim_cfg = write(tmp_path, "sim.json", {
            "model": HEAT3, "grid": {"dt": 1.0, "n_steps": 16},
            "method": "exact_stationary",
        })
        out = tmp_path / "s"
        assert main(["simulate", "--config", sim_cfg, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: compute: out of memory\n"
        assert not out.exists()

    @pytest.mark.parametrize("entry,message", [
        pytest.param({"observe_every": 0}, "observe_every must be >= 1", id="observe_every_0"),
        pytest.param({"observe_every": 7}, "divide n_steps", id="observe_every_7"),
        pytest.param({"init": "warm"}, "unknown init 'warm'", id="init_warm"),
        pytest.param({"init": {"given": [1.0, 2.0]}}, "one coordinate per mode",
                     id="init_given_short"),
        pytest.param({"init": {"given": [float("nan"), 1.0, 1.0]}},
                     "initial state must be finite", id="init_given_nan"),
        pytest.param({"init": {"given": [1.0, float("-inf"), 1.0]}},
                     "initial state must be finite", id="init_given_inf"),
        pytest.param({"init": "zero", "grid": {"dt": 0.01, "n_steps": 100, "burn_in_steps": 500}},
                     "grid.burn_in_steps is run only by init 'burn_in'",
                     id="burn_in_steps_without_burn_in"),
    ])
    def test_integrator_config_mistake_is_a_config_error(self, tmp_path, capsys, entry,
                                                         message):
        sim_cfg = write(tmp_path, "sim.json", {
            "model": HEAT3, "grid": {"dt": 0.01, "n_steps": 100}, **entry,
        })
        out = tmp_path / "sim"
        assert main(["simulate", "--config", sim_cfg, "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("entry,key", [
        pytest.param({"init": "burn_in"}, "'init'", id="init"),
        pytest.param({"observe_every": 1}, "'observe_every'", id="observe_every"),
        pytest.param({"grid": {"dt": 1.0, "n_steps": 16, "burn_in_steps": 4}},
                     "'grid.burn_in_steps'", id="burn_in_steps"),
    ])
    def test_exact_stationary_rejects_integrator_keys(self, tmp_path, capsys, entry, key):
        sim_cfg = write(tmp_path, "sim.json", {
            "model": HEAT3, "grid": {"dt": 1.0, "n_steps": 16}, "method": "exact_stationary",
            **entry,
        })
        out = tmp_path / "sim"
        assert main(["simulate", "--config", sim_cfg, "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert f"'exact_stationary' does not use {key}" in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["integrate", "exact_stationary"])
    def test_store_modes_is_an_unknown_key(self, tmp_path, capsys, method):
        # Both methods write the mode coordinates; there is no switch to drop them.
        sim_cfg = write(tmp_path, "sim.json", {
            "model": HEAT3, "grid": {"dt": 1.0, "n_steps": 16}, "method": method,
            "store_modes": False,
        })
        out = tmp_path / "sim"
        assert main(["simulate", "--config", sim_cfg, "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "unknown keys in simulate config: ['store_modes']" in err
        assert not out.exists()

    def test_exact_stationary_accepts_zero_burn_in(self, tmp_path):
        sim_cfg = write(tmp_path, "sim.json", {
            "model": HEAT3, "grid": {"dt": 1.0, "n_steps": 16, "burn_in_steps": 0},
            "method": "exact_stationary",
        })
        assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_npz_accepted(self, tmp_path):
        sim_cfg = write(tmp_path, "sim.json", {
            "model": HEAT3, "grid": {"dt": 0.5, "n_steps": 64},
            "method": "exact_stationary", "seed": 2,
        })
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", sim_cfg, "--out", str(sim_out)])
        est_cfg = write(tmp_path, "est.json", {
            "model": HEAT3,
            "trajectory": str(sim_out / "trajectory.npz"),
            "estimator": "continuous_norm",
        })
        assert main(["estimate", "--config", est_cfg, "--out", str(tmp_path / "e")]) == EXIT_OK

    def test_integrator_method(self, tmp_path):
        sim_cfg = write(tmp_path, "sim.json", {
            "model": HEAT3,
            "grid": {"dt": 0.01, "n_steps": 200},
            "init": "burn_in",
            "observe_every": 10,
            "projection": WINDOW,
            "seed": 3,
        })
        out = tmp_path / "sim"
        assert main(["simulate", "--config", sim_cfg, "--out", str(out)]) == EXIT_OK
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 21  # header + n/observe_every + 1 points
        # The cache carries the mode coordinates the projection was read from.
        traj = trajectory_from_npz(out / "trajectory.npz")
        assert traj.modes.shape == (3, 21)
        w = projection_from_dict(WINDOW, 3)
        np.testing.assert_array_equal(traj.projections, project_modes(w.coefficients, traj.modes))
        np.testing.assert_array_equal(traj.sq_norms, np.sum(traj.modes**2, axis=0))

    def test_degenerate_estimate_exit_code(self, tmp_path, capsys):
        sim_cfg = write(tmp_path, "sim.json", {
            "model": POINTWISE, "grid": {"dt": 1.0, "n_steps": 32},
            "method": "exact_stationary",
            "projection": {"kind": "sine_mode", "mode": 4}, "seed": 1,
        })
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", sim_cfg, "--out", str(sim_out)])
        est_cfg = write(tmp_path, "est.json", {
            "model": POINTWISE,
            "trajectory": str(sim_out / "trajectory.csv"),
            "estimator": "discrete_projection",
            "projection": {"kind": "sine_mode", "mode": 4},
        })
        code = main(["estimate", "--config", est_cfg, "--out", str(tmp_path / "e")])
        assert code == EXIT_DEGENERATE
        assert "error: degenerate:" in capsys.readouterr().err

    @staticmethod
    def _heat3_trajectory(tmp_path, projection):
        sim_cfg = {"model": HEAT3, "grid": {"dt": 0.5, "n_steps": 200},
                   "method": "exact_stationary", "seed": 6}
        if projection:
            sim_cfg["projection"] = WINDOW
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", write(tmp_path, "sim.json", sim_cfg),
                     "--out", str(sim_out)]) == EXIT_OK
        return sim_out / "trajectory.csv"

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_matches_the_library(self, tmp_path, kind):
        traj_csv = self._heat3_trajectory(tmp_path, projection=True)
        est_cfg = write(tmp_path, "est.json", {
            "model": HEAT3, "trajectory": str(traj_csv), "estimator": kind,
            "projection": WINDOW, "true_alpha": 1.0,
        })
        assert main(["estimate", "--config", est_cfg, "--out", str(tmp_path / "e")]) == EXIT_OK
        report = json.loads((tmp_path / "e" / "estimate.json").read_text())

        model = model_from_dict(HEAT3)
        w = projection_from_dict(WINDOW, model.n_modes)
        traj = trajectory_from_csv(traj_csv.read_text())
        if kind in PROJECTION_KINDS:
            expected = estimate(kind, traj.projections**2, traj.t, qww1(model, w), model.hurst)
        else:
            expected = estimate(kind, traj.sq_norms, traj.t, trace_q1(model), model.hurst)
        assert report["kind"] == kind
        assert report["alpha_hat"] == expected.alpha_hat
        assert report["sample_size"] == expected.sample_size
        assert report["sigma_asymptotic"] == asymptotic_sigma(model, kind, w, traj.grid.dt)

    @pytest.mark.parametrize("kind", ["discrete_norm", "discrete_projection"])
    def test_discrete_sigma_uses_the_trajectory_step(self, tmp_path, kind):
        sim_cfg = {"model": HEAT3, "grid": {"dt": 0.25, "n_steps": 64},
                   "method": "exact_stationary", "projection": WINDOW, "seed": 6}
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", write(tmp_path, "sim.json", sim_cfg),
                     "--out", str(sim_out)]) == EXIT_OK
        est_cfg = write(tmp_path, "est.json", {
            "model": HEAT3, "trajectory": str(sim_out / "trajectory.csv"), "estimator": kind,
            "projection": WINDOW, "true_alpha": 1.0,
        })
        assert main(["estimate", "--config", est_cfg, "--out", str(tmp_path / "e")]) == EXIT_OK
        report = json.loads((tmp_path / "e" / "estimate.json").read_text())

        model = model_from_dict(HEAT3)
        w = projection_from_dict(WINDOW, model.n_modes)
        expected = asymptotic_sigma(model, kind, w, 0.25)
        assert expected != asymptotic_sigma(model, kind, w, 1.0)
        assert report["sigma_asymptotic"] == expected
        assert report["standardized_error"] == pytest.approx(
            (report["alpha_hat"] - 1.0) * np.sqrt(report["sample_size"]) / expected, rel=1e-12)

    @pytest.mark.parametrize("kind", PROJECTION_KINDS)
    def test_missing_projection_column_is_a_config_error(self, tmp_path, capsys, kind):
        traj_csv = self._heat3_trajectory(tmp_path, projection=False)
        est_cfg = write(tmp_path, "est.json", {
            "model": HEAT3, "trajectory": str(traj_csv), "estimator": kind,
            "projection": WINDOW,
        })
        assert main(["estimate", "--config", est_cfg, "--out", str(tmp_path / "e")]) == EXIT_ERROR
        assert "error: config: trajectory file carries no projection column" \
            in capsys.readouterr().err

    def test_nan_moment_is_a_compute_error(self, tmp_path, capsys):
        traj_csv = self._heat3_trajectory(tmp_path, projection=False)
        lines = traj_csv.read_text().splitlines()
        t, _ = lines[5].split(",")
        lines[5] = f"{t},nan"
        traj_csv.write_text("\n".join(lines) + "\n")
        est_cfg = write(tmp_path, "est.json", {
            "model": HEAT3, "trajectory": str(traj_csv), "estimator": "discrete_norm",
        })
        out = tmp_path / "e"
        assert main(["estimate", "--config", est_cfg, "--out", str(out)]) == EXIT_ERROR
        assert "error: compute:" in capsys.readouterr().err
        assert not (out / "estimate.json").exists()

    def test_missing_trajectory_file(self, tmp_path, capsys):
        est_cfg = write(tmp_path, "est.json", {
            "model": HEAT3, "trajectory": str(tmp_path / "nope.csv"),
            "estimator": "discrete_norm",
        })
        assert main(["estimate", "--config", est_cfg, "--out", str(tmp_path / "e")]) == EXIT_ERROR
        assert "error: config" in capsys.readouterr().err

    @pytest.mark.parametrize("true_alpha", [float("nan"), float("inf"), 0.0, -1.0])
    def test_true_alpha_must_be_positive_and_finite(self, tmp_path, capsys, true_alpha):
        # A NaN would reach estimate.json as a bare NaN, which strict JSON rejects.
        traj_csv = self._heat3_trajectory(tmp_path, projection=False)
        est = {"model": HEAT3, "trajectory": str(traj_csv), "estimator": "discrete_norm"}

        def run(name, value):
            cfg = write(tmp_path, f"{name}.json", dict(est, true_alpha=value))
            return main(["estimate", "--config", cfg, "--out", str(tmp_path / name)])

        assert run("good", 1.0) == EXIT_OK
        assert run("bad", true_alpha) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config: true_alpha must be positive and finite")
        assert not (tmp_path / "bad").exists()


class TestExperimentCommand:
    def test_pass_and_outputs(self, tmp_path):
        cfg = write(tmp_path, "exp.json", {
            "model": HEAT3, "grid": [64, 256], "replications": 80, "seed": 4,
            "thresholds": {"max_median_error": 0.6},
        })
        out = tmp_path / "out"
        code = main(["experiment", "consistency", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "experiment_consistency_summary.json").read_text())
        assert summary["passed"] is True
        csv_lines = (out / "experiment_consistency_report.csv").read_text().splitlines()
        assert csv_lines[0] == "grid,statistic,value,mc_se,n_reps"

    def test_threshold_failure_exit_code(self, tmp_path):
        cfg = write(tmp_path, "exp.json", {
            "model": HEAT3, "grid": [32, 64], "replications": 40, "seed": 4,
            "thresholds": {"max_median_error": 1e-9},
        })
        code = main(["experiment", "consistency", "--config", cfg, "--out",
                     str(tmp_path / "out")])
        assert code == EXIT_THRESHOLD

    def test_degenerate_experiment_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.json", {
            "model": POINTWISE, "grid": [16], "replications": 8, "seed": 1,
            "estimators": ["discrete_projection"],
            "projection": {"kind": "sine_mode", "mode": 4},
        })
        code = main(["experiment", "consistency", "--config", cfg, "--out",
                     str(tmp_path / "out")])
        assert code == EXIT_DEGENERATE

    @pytest.mark.parametrize("entry,message", [
        pytest.param({"estimators": ["discrete_nrm"]}, "estimators must be a non-empty subset",
                     id="discrete_nrm"),
        pytest.param({"estimators": ["continuous_norm"]}, "estimators must be a non-empty subset",
                     id="continuous_norm"),
        pytest.param({"grid": 64}, "not iterable", id="grid_scalar"),
        pytest.param({"grid": [64, 32]}, "grid must be non-empty and strictly increasing",
                     id="grid_decreasing"),
        pytest.param({"replications": 0}, "replications must be >= 1", id="replications_0"),
        pytest.param({"replications": 1}, "needs replications >= 2 and n_batches >= 2",
                     id="replications_1"),
        pytest.param({"n_batches": 1}, "needs replications >= 2 and n_batches >= 2",
                     id="n_batches_1"),
        pytest.param({"source": "integrator", "sim_dt": 0.5},
                     "only consistency takes source 'integrator'", id="source_integrator"),
    ])
    def test_unsupported_estimator_is_an_error(self, tmp_path, capsys, entry, message):
        cfg = write(tmp_path, "exp.json", {
            "model": HEAT3, "grid": [16], "replications": 8, "seed": 1, **entry,
        })
        out = tmp_path / "out"
        code = main(["experiment", "estimator_clt", "--config", cfg, "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert message in err
        assert not out.exists()

    def test_sim_dt_with_stationary_source_is_an_error(self, tmp_path, capsys):
        # The exact stationary draws have no integrator step to set.
        cfg = write(tmp_path, "exp.json", {
            "model": HEAT3, "grid": [16, 32], "replications": 20, "seed": 1, "sim_dt": 0.5,
        })
        out = tmp_path / "out"
        code = main(["experiment", "consistency", "--config", cfg, "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "source 'stationary' draws exact samples" in err
        assert not out.exists()

    @pytest.mark.parametrize("sim_dt", [0.3, 5.0])
    def test_sim_dt_not_dividing_dt_is_an_error(self, tmp_path, capsys, sim_dt):
        # 0.3 would run at 1/3 and 5 at 1: a step that does not divide dt is refused.
        cfg = write(tmp_path, "exp.json", {
            "model": HEAT3, "grid": [16, 32], "replications": 20, "seed": 1, "dt": 1.0,
            "source": "integrator", "sim_dt": sim_dt,
        })
        out = tmp_path / "out"
        code = main(["experiment", "consistency", "--config", cfg, "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "sim_dt must divide dt" in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_below_one_is_a_config_error(self, tmp_path, capsys, threads):
        cfg = write(tmp_path, "exp.json", {
            "model": HEAT3, "grid": [16], "replications": 8, "seed": 1,
        })
        out = tmp_path / "out"
        code = main(["experiment", "estimator_clt", "--config", cfg, "--out", str(out),
                     "--threads", threads])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "threads must be >= 1" in err
        assert not out.exists()

    def test_summary_matches_library_run(self, tmp_path):
        # Every config key reaches the ExperimentSpec field of the same name.
        model = model_from_dict(HEAT3)
        cases = [
            ({"model": HEAT3, "grid": [20, 40], "replications": 12, "seed": 3,
              "source": "integrator", "sim_dt": 0.05, "dt": 0.5,
              "estimators": ["discrete_norm", "discrete_projection"], "projection": WINDOW,
              "n_batches": 4, "thresholds": {"max_median_error": 10.0}},
             ExperimentSpec("consistency", model, (20, 40), 12, 3,
                            estimators=("discrete_norm", "discrete_projection"),
                            projection=projection_indicator(0.0, 0.5, 3), dt=0.5,
                            source="integrator", sim_dt=0.05, n_batches=4,
                            thresholds={"max_median_error": 10.0})),
            ({"model": HEAT3, "grid": [16, 32, 64], "replications": 200, "seed": 3,
              "mc_cumulant_max_n": 32},
             ExperimentSpec("cumulants", model, (16, 32, 64), 200, 3, mc_cumulant_max_n=32)),
        ]
        for cfg, spec in cases:
            out = tmp_path / spec.kind
            main(["experiment", spec.kind, "--config", write(tmp_path, "exp.json", cfg),
                  "--out", str(out)])
            summary = json.loads((out / f"experiment_{spec.kind}_summary.json").read_text())
            expected = {**run_experiment(spec).to_json_dict(), "model": model_to_dict(model)}
            assert summary == json.loads(json.dumps(expected))

    def test_localize_is_not_a_config_key(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.json", {
            "model": HEAT3, "grid": [16], "replications": 8, "localize": 2.0,
        })
        code = main(["experiment", "estimator_clt", "--config", cfg, "--out",
                     str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert "error: config: unknown keys in experiment config: ['localize']" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg", [
        pytest.param(["experiment", "estimator_clt", "--seed", "-5"],
                     {"model": HEAT3, "grid": [16], "replications": 8}, id="experiment_flag"),
        pytest.param(["experiment", "estimator_clt"],
                     {"model": HEAT3, "grid": [16], "replications": 8, "seed": -3},
                     id="experiment_config"),
        pytest.param(["simulate", "--seed", "-1"],
                     {"model": HEAT3, "grid": {"dt": 0.1, "n_steps": 8}}, id="simulate_flag"),
        pytest.param(["simulate"], {"model": HEAT3, "grid": {"dt": 0.1, "n_steps": 8},
                                    "seed": -3}, id="simulate_config"),
    ])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command, cfg):
        out = tmp_path / "out"
        argv = command + ["--config", write(tmp_path, "cfg.json", cfg), "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: config: seed must be >= 0\n"
        assert not out.exists()

    def test_seed_override(self, tmp_path):
        cfg = write(tmp_path, "exp.json", {
            "model": HEAT3, "grid": [16, 32], "replications": 30, "seed": 4,
            "thresholds": {"max_median_error": 2.0},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["experiment", "consistency", "--config", cfg, "--out", str(out1),
              "--seed", "99"])
        main(["experiment", "consistency", "--config", cfg, "--out", str(out2)])
        s1 = json.loads((out1 / "experiment_consistency_summary.json").read_text())
        s2 = json.loads((out2 / "experiment_consistency_summary.json").read_text())
        assert s1["seed"] == 99 and s2["seed"] == 4
        assert s1["rows"] != s2["rows"]


class TestReproducibility:
    def test_byte_identical_across_threads(self, tmp_path):
        cfg = write(tmp_path, "exp.json", {
            "model": HEAT3, "grid": [32, 64, 128], "replications": 60, "seed": 8,
        })
        outputs = {}
        for threads in (1, 8):
            out = tmp_path / f"t{threads}"
            main(["experiment", "moment_clt", "--config", cfg, "--out", str(out),
                  "--threads", str(threads)])
            outputs[threads] = {
                "csv": (out / "experiment_moment_clt_report.csv").read_bytes(),
                "json": (out / "experiment_moment_clt_summary.json").read_bytes(),
                "manifest": json.loads((out / "manifest.json").read_text()),
            }
        assert outputs[1]["csv"] == outputs[8]["csv"]
        assert outputs[1]["json"] == outputs[8]["json"]
        m1, m8 = outputs[1]["manifest"], outputs[8]["manifest"]
        m1.pop("created_at"), m8.pop("created_at")
        # The manifests differ only in the pool size each run recorded.
        assert (m1.pop("threads"), m8.pop("threads")) == (1, 8)
        assert m1 == m8

    def test_default_threads_are_recorded_and_change_no_output(self, tmp_path):
        cfg = write(tmp_path, "exp.json", {
            "model": HEAT3, "grid": [16, 32], "replications": 80, "seed": 4,
        })
        runs = {}
        for name, flags in (("default", []), ("one", ["--threads", "1"])):
            out = tmp_path / name
            assert main(["experiment", "cumulants", "--config", cfg, "--out", str(out),
                         *flags]) == EXIT_OK
            runs[name] = [(out / f"experiment_cumulants_{part}").read_bytes()
                          for part in ("summary.json", "report.csv")]
            runs[name].append(json.loads((out / "manifest.json").read_text())["threads"])
        assert runs["default"][:2] == runs["one"][:2]
        assert runs["default"][2] == min(available_cores(), 20)
        assert runs["one"][2] == 1

    def test_rerun_identical(self, tmp_path):
        cfg = write(tmp_path, "exp.json", {
            "model": HEAT3, "grid": [32], "replications": 40, "seed": 8,
            "thresholds": {"ks_localized_max": 1.0},
        })
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["experiment", "estimator_clt", "--config", cfg, "--out", str(out)])
            blobs.append((out / "experiment_estimator_clt_summary.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": HEAT3, "n_values": [8]}))
        proc = subprocess.run(
            [sys.executable, "-m", "fracdrift.cli", "theory",
             "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_guard(self):
        # Start-up loads numpy and no scipy module at all: the special
        # functions, the continuous-time limits and the Cholesky fallback are
        # numpy-only, and scipy is a test dependency.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\nfrom fracdrift import cli\n"
             "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.parametrize("runs,prelude", [
        pytest.param([(["simulate", "--seed", "3"],
                       {"model": POINTWISE, "grid": {"dt": 1.0, "n_steps": 64},
                        "method": "exact_stationary", "projection": WINDOW}),
                      (["estimate"],
                       {"model": POINTWISE, "trajectory": "{tmp}/run0/trajectory.npz",
                        "estimator": "discrete_projection", "projection": WINDOW,
                        "true_alpha": 1.0})], "", id="simulate_estimate"),
        pytest.param([(["experiment", "estimator_clt", "--threads", "2"],
                       {"model": HEAT3, "grid": [64], "replications": 200,
                        "estimators": ["discrete_norm", "discrete_projection"],
                        "projection": WINDOW})], "", id="estimator_clt"),
        pytest.param([(["experiment", "cumulants"],
                       {"model": HEAT3, "grid": [32, 64], "replications": 400,
                        "mc_cumulant_max_n": 64})], "", id="cumulants"),
        pytest.param([(["experiment", "consistency", "--threads", "2"],
                       {"model": dict(HEAT3, alpha=0.1, hurst=0.3), "grid": [16, 64],
                        "replications": 8, "source": "integrator", "sim_dt": 0.1})], "",
                     id="consistency_integrator"),
        pytest.param([(["theory"], {"model": POINTWISE, "projection": WINDOW,
                                    "n_values": [16]})], "", id="theory_pointwise_window"),
        # Near H = 3/4 at a small drift and step, the series limits need their
        # longest lag table: 12970 lags.
        pytest.param([(["theory"], {"model": dict(HEAT3, alpha=0.05, hurst=0.74),
                                    "projection": WINDOW, "dt": 0.01})], "",
                     id="theory_slow_series_near_three_quarters"),
        pytest.param([(["simulate", "--seed", "3"],
                       {"model": POINTWISE, "grid": {"dt": 0.1, "n_steps": 64},
                        "method": "exact_stationary", "projection": WINDOW}),
                      (["estimate"],
                       {"model": POINTWISE, "trajectory": "{tmp}/run0/trajectory.npz",
                        "estimator": "continuous_norm", "true_alpha": 1.0})], "",
                     id="estimate_continuous_norm"),
        pytest.param([(["simulate", "--seed", "3"],
                       {"model": POINTWISE, "grid": {"dt": 0.1, "n_steps": 64},
                        "method": "exact_stationary", "projection": WINDOW}),
                      (["estimate"],
                       {"model": POINTWISE, "trajectory": "{tmp}/run0/trajectory.npz",
                        "estimator": "continuous_projection", "projection": WINDOW,
                        "true_alpha": 1.0})], "", id="estimate_continuous_projection"),
        # TOL_EIG = -1 sends every embedding to the dense Cholesky fallback.
        pytest.param([(["simulate", "--seed", "3"],
                       {"model": POINTWISE, "grid": {"dt": 1.0, "n_steps": 32},
                        "method": "exact_stationary"})],
                     "import fracdrift.fgn as fgn\nfgn.TOL_EIG = -1\n",
                     id="simulate_cholesky_fallback"),
    ])
    def test_import_guard_commands(self, tmp_path, runs, prelude):
        # Each command kind of the benchmark, theory, the continuous-kind
        # estimates and the Cholesky fallback, at toy size, in a fresh
        # interpreter: no scipy module is loaded when main returns, and no
        # numpy.ma, which np.median and np.percentile import on first use.
        argvs = []
        for i, (args, cfg) in enumerate(runs):
            cfg = json.loads(json.dumps(cfg).replace("{tmp}", str(tmp_path)))
            argvs.append(args + ["--config", write(tmp_path, f"run{i}.json", cfg),
                                 "--out", str(tmp_path / f"run{i}")])
        script = (
            f"import json, sys\n{prelude}from fracdrift.cli import main\n"
            f"codes = [main(argv) for argv in {argvs!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma'])]))"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert all(code in (EXIT_OK, EXIT_THRESHOLD) for code in codes), proc.stderr
        assert loaded == []

    def test_manifest_records_versions(self, tmp_path):
        sim = write(tmp_path, "sim.json", {"model": HEAT3, "grid": {"dt": 1.0, "n_steps": 16},
                                           "method": "exact_stationary"})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == EXIT_OK
        versions = json.loads((tmp_path / "sim" / "manifest.json").read_text())["versions"]
        assert versions == {"python": sys.version.split()[0], "numpy": np.__version__}

    @staticmethod
    def _fresh_python(script, timeout=None):
        """Run ``script`` in a fresh interpreter; ``timeout`` presets
        ``OPENBLAS_THREAD_TIMEOUT`` (``None`` removes it)."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        if timeout is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = timeout
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    @pytest.mark.parametrize("preset,expected", [(None, "4"), ("12", "12")])
    def test_cli_sets_blas_idle_timeout_unless_preset(self, preset, expected):
        # The CLI lets OpenBLAS's idle workers sleep instead of spinning, and
        # never overrides a value the user set.
        script = ("import os\nfrom fracdrift import cli\n"
                  "print(os.environ['OPENBLAS_THREAD_TIMEOUT'])")
        assert self._fresh_python(script, preset) == expected

    def test_import_guard_package_loads_no_numpy(self):
        # The CLI's BLAS setting must run before numpy loads OpenBLAS.
        script = "import sys\nimport fracdrift\nprint('numpy' in sys.modules)"
        assert self._fresh_python(script) == "False"

    @pytest.mark.parametrize("preset,prelude,expected", [
        pytest.param(None, "", "4", id="cli_default"),
        pytest.param("12", "", "12", id="user_value"),
        pytest.param("12", "import numpy\n", None, id="numpy_loaded_first"),
    ])
    def test_manifest_records_blas_idle_timeout(self, tmp_path, preset, prelude, expected):
        cfg = write(tmp_path, "cfg.json", {"model": HEAT3, "n_values": [8]})
        argv = ["theory", "--config", cfg, "--out", str(tmp_path / "out")]
        script = f"{prelude}from fracdrift.cli import main\nprint(main({argv!r}))"
        assert self._fresh_python(script, preset) == str(EXIT_OK)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["openblas_thread_timeout"] == expected

    @pytest.mark.parametrize("command,cfg", [
        pytest.param(["theory"], [HEAT3], id="top_level_list"),
        pytest.param(["theory"], {"model_file": "model.json"}, id="invalid_model_file"),
        pytest.param(["theory"], {"model_file": ["model.json"]}, id="model_file_list"),
        pytest.param(["simulate"], {"model": HEAT3, "grid": 64}, id="simulate_grid_scalar"),
        pytest.param(["simulate"], {"model": HEAT3, "grid": {"dt": 0.1, "n_steps": 4},
                                    "seed": "one"}, id="seed_string"),
        pytest.param(["experiment", "consistency"],
                     {"model": HEAT3, "grid": [16], "replications": 8, "thresholds": [1, 2]},
                     id="thresholds_list"),
        pytest.param(["experiment", "estimator_clt"],
                     {"model": HEAT3, "grid": [32], "replications": 8,
                      "thresholds": {"ks_localized_max": "x"}},
                     id="threshold_string"),
        pytest.param(["estimate"], {"model": HEAT3, "trajectory": "traj.csv",
                                    "estimator": "discrete_norm", "true_alpha": "one"},
                     id="true_alpha_string"),
        pytest.param(["estimate"], {"model": HEAT3, "trajectory": 5, "estimator": "discrete_norm"},
                     id="trajectory_number"),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, monkeypatch, command, cfg):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "model.json", dict(HEAT3, hurst=1.5))
        (tmp_path / "traj.csv").write_text("t,sq_norm\n0,1.0\n1,0.5\n2,0.8\n")
        argv = command + ["--config", write(tmp_path, "cfg.json", cfg), "--out", "out"]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: config:")

    @pytest.mark.parametrize("command,cfg", [
        pytest.param(["theory"], {"model": dict(HEAT3, alpha=float("nan"))}, id="alpha_nan"),
        pytest.param(["theory"], {"model": dict(HEAT3, loadings=[1.0, float("nan"), 1.0])},
                     id="loadings_nan"),
        pytest.param(["theory"], {"model": {"kind": "custom", "alpha": 1.0, "hurst": 0.55,
                                            "eigenvalues": [1.0, float("inf")],
                                            "noise": {"kind": "diagonal",
                                                      "loadings": [1.0, 1.0]}}},
                     id="eigenvalue_inf"),
        pytest.param(["theory"], {"model": HEAT3, "dt": 0}, id="theory_dt_zero"),
        pytest.param(["theory"], {"model": HEAT3, "dt": -1}, id="theory_dt_negative"),
        pytest.param(["theory"], {"model": HEAT3, "dt": float("nan")}, id="theory_dt_nan"),
        pytest.param(["theory"], {"model": HEAT3, "n_values": [0]}, id="theory_n_zero"),
        pytest.param(["simulate"], {"model": HEAT3, "grid": {"dt": float("nan"), "n_steps": 8}},
                     id="simulate_dt_nan"),
        pytest.param(["experiment", "estimator_clt"],
                     {"model": HEAT3, "grid": [16], "replications": 8, "dt": float("nan")},
                     id="experiment_dt_nan"),
        pytest.param(["experiment", "consistency"],
                     {"model": HEAT3, "grid": [16], "replications": 8, "source": "integrator",
                      "sim_dt": 0}, id="experiment_sim_dt_zero"),
        pytest.param(["experiment", "estimator_clt"],
                     {"model": HEAT3, "grid": [0], "replications": 8}, id="experiment_grid_zero"),
    ])
    def test_out_of_range_number_is_a_config_error(self, tmp_path, capsys, command, cfg):
        # Rejected before any computation and before the output directory exists.
        out = tmp_path / "out"
        argv = command + ["--config", write(tmp_path, "cfg.json", cfg), "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: config:")
        assert not out.exists()

    SIM = {"model": HEAT3, "grid": {"dt": 0.01, "n_steps": 20}}
    EXP = {"model": HEAT3, "grid": [16], "replications": 8}

    @pytest.mark.parametrize("command,cfg,message", [
        pytest.param(["simulate"], dict(SIM, grid={"dt": 0.01, "n_steps": 20.7}),
                     "grid.n_steps must be an integer", id="n_steps_fraction"),
        pytest.param(["simulate"], dict(SIM, grid={"dt": 0.01, "n_steps": True}),
                     "grid.n_steps must be an integer", id="n_steps_bool"),
        pytest.param(["simulate"], dict(SIM, grid={"dt": 0.01, "n_steps": "20"}),
                     "grid.n_steps must be an integer", id="n_steps_string"),
        pytest.param(["simulate"], dict(SIM, grid={"dt": 0.01, "n_steps": 20,
                                                   "burn_in_steps": 2.5}),
                     "grid.burn_in_steps must be an integer", id="burn_in_steps_fraction"),
        pytest.param(["simulate"], dict(SIM, observe_every=2.9),
                     "observe_every must be an integer", id="observe_every_fraction"),
        pytest.param(["simulate"], dict(SIM, observe_every=True),
                     "observe_every must be an integer", id="observe_every_bool"),
        pytest.param(["simulate"], dict(SIM, seed=1.5), "seed must be an integer",
                     id="simulate_seed_fraction"),
        pytest.param(["theory"], {"model": dict(HEAT3, n_modes=3.7)},
                     "n_modes must be an integer", id="n_modes_fraction"),
        pytest.param(["theory"], {"model": dict(HEAT3, n_modes=True)},
                     "n_modes must be an integer", id="n_modes_bool"),
        pytest.param(["theory"], {"model": dict(HEAT3, d=1.5)},
                     "d must be an integer", id="d_fraction"),
        pytest.param(["theory"], {"model": dict(HEAT3, m=1.5)},
                     "m must be an integer", id="m_fraction"),
        pytest.param(["theory"], {"model": dict(POINTWISE, n_modes=3.7)},
                     "n_modes must be an integer", id="pointwise_n_modes_fraction"),
        pytest.param(["theory"], {"model": HEAT3, "projection": {"kind": "sine_mode",
                                                                 "mode": 1.5}},
                     "mode must be an integer", id="sine_mode_fraction"),
        pytest.param(["theory"], {"model": HEAT3, "n_values": [16.5]},
                     "each of n_values must be an integer", id="n_values_fraction"),
        pytest.param(["theory"], {"model": HEAT3, "n_values": [True]},
                     "each of n_values must be an integer", id="n_values_bool"),
        pytest.param(["experiment", "estimator_clt"], dict(EXP, replications=40.8),
                     "replications must be an integer", id="replications_fraction"),
        pytest.param(["experiment", "estimator_clt"], dict(EXP, replications="40"),
                     "replications must be an integer", id="replications_string"),
        pytest.param(["experiment", "estimator_clt"], dict(EXP, n_batches=True),
                     "n_batches must be an integer", id="n_batches_bool"),
        pytest.param(["experiment", "cumulants"], dict(EXP, mc_cumulant_max_n=32.5),
                     "mc_cumulant_max_n must be an integer", id="mc_cumulant_max_n_fraction"),
        pytest.param(["experiment", "estimator_clt"], dict(EXP, grid=[16, 32.5]),
                     "each grid size must be an integer", id="grid_fraction"),
        pytest.param(["experiment", "estimator_clt"], dict(EXP, grid=[True, 16]),
                     "each grid size must be an integer", id="grid_bool"),
        pytest.param(["experiment", "estimator_clt"], dict(EXP, grid="16"),
                     "each grid size must be an integer", id="grid_string"),
        pytest.param(["experiment", "estimator_clt"], dict(EXP, seed=3.5),
                     "seed must be an integer", id="experiment_seed_fraction"),
        pytest.param(["experiment", "estimator_clt"], dict(EXP, seed=False),
                     "seed must be an integer", id="experiment_seed_bool"),
    ])
    def test_integer_field_is_not_truncated(self, tmp_path, capsys, command, cfg, message):
        # int() would read 20.7 as 20 and true as 1; these are config errors.
        out = tmp_path / "out"
        argv = command + ["--config", write(tmp_path, "cfg.json", cfg), "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert message in err
        assert not out.exists()

    CUSTOM = {"kind": "custom", "alpha": 1.0, "hurst": 0.55, "eigenvalues": [1.0],
              "noise": {"kind": "diagonal", "loadings": [1.0]}}
    EST = {"model": HEAT3, "trajectory": "traj.csv", "estimator": "discrete_norm"}

    @pytest.mark.parametrize("command,cfg,message", [
        pytest.param(["theory"], {"model": dict(HEAT3, alpha=True)}, "alpha", id="alpha_bool"),
        pytest.param(["theory"], {"model": dict(HEAT3, hurst="0.55")}, "hurst",
                     id="hurst_string"),
        pytest.param(["theory"], {"model": dict(POINTWISE, y="0.5")}, "y", id="y_string"),
        pytest.param(["theory"], {"model": dict(POINTWISE, alpha="1")}, "alpha",
                     id="pointwise_alpha_string"),
        pytest.param(["theory"], {"model": dict(POINTWISE, hurst="0.55")}, "hurst",
                     id="pointwise_hurst_string"),
        pytest.param(["theory"], {"model": dict(CUSTOM, alpha=True)}, "alpha",
                     id="custom_alpha_bool"),
        pytest.param(["theory"], {"model": dict(CUSTOM, hurst="0.55")}, "hurst",
                     id="custom_hurst_string"),
        pytest.param(["theory"], {"model": HEAT3, "dt": "1"}, "dt", id="theory_dt_string"),
        pytest.param(["theory"], {"model": HEAT3, "projection": dict(WINDOW, a=False, b=True)},
                     "a", id="window_bool"),
        pytest.param(["simulate"], dict(SIM, grid={"dt": True, "n_steps": 20}), "grid.dt",
                     id="grid_dt_bool"),
        pytest.param(["estimate"], dict(EST, true_alpha=True), "true_alpha",
                     id="true_alpha_bool"),
        pytest.param(["estimate"], dict(EST, true_alpha="1.0"), "true_alpha",
                     id="true_alpha_string"),
        pytest.param(["experiment", "moment_clt"], dict(EXP, dt="1"), "dt",
                     id="experiment_dt_string"),
        pytest.param(["experiment", "consistency"], dict(EXP, source="integrator", sim_dt=True),
                     "sim_dt", id="sim_dt_bool"),
        # Arrays: np.asarray(..., dtype=float) would cast every entry.
        pytest.param(["theory"], {"model": dict(HEAT3, loadings=["1.0", True, "2"])},
                     "each of loadings", id="loadings_mixed"),
        pytest.param(["theory"], {"model": dict(CUSTOM, noise={"kind": "diagonal",
                                                               "loadings": [True]})},
                     "each of loadings", id="custom_loadings_bool"),
        pytest.param(["theory"], {"model": dict(CUSTOM, eigenvalues=["1.0"])},
                     "each of eigenvalues", id="eigenvalues_string"),
        pytest.param(["theory"], {"model": HEAT3, "projection": {
            "kind": "coefficients", "values": ["1", True, "0.5"]}},
                     "each of values", id="projection_values_mixed"),
        pytest.param(["simulate"], dict(SIM, init={"given": [True, 1.0, 1.0]}),
                     "each of init.given", id="init_given_bool"),
    ])
    def test_real_field_is_not_cast(self, tmp_path, capsys, monkeypatch, command, cfg, message):
        # float() would read true as 1.0 and "1.0" as 1.0; these are config errors.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "traj.csv").write_text("t,sq_norm\n0,1.0\n1,0.5\n2,0.8\n")
        out = tmp_path / "out"
        argv = command + ["--config", write(tmp_path, "cfg.json", cfg), "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {message} must be a real number")
        assert not out.exists()

    def test_integral_float_is_an_integer(self, tmp_path):
        # JSON may write 20 as 20.0: the same trajectory as the integers.
        runs = {}
        for name, n_steps, every, seed in (("ints", 20, 2, 3), ("floats", 20.0, 2.0, 3.0)):
            cfg = dict(self.SIM, grid={"dt": 0.01, "n_steps": n_steps, "burn_in_steps": 0.0},
                       observe_every=every, seed=seed)
            out = tmp_path / name
            assert main(["simulate", "--config", write(tmp_path, f"{name}.json", cfg),
                         "--out", str(out)]) == EXIT_OK
            runs[name] = (out / "trajectory.csv").read_text()
        assert runs["ints"] == runs["floats"]
        assert len(runs["ints"].splitlines()) == 1 + 11

    def test_bad_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["theory", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_ERROR
        assert "error: config" in capsys.readouterr().err
