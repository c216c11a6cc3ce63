"""Acceptance suite: every criterion at its declared scale and tolerance.

Each test prints one ``ACCEPTANCE nn [PASS|FAIL]`` line (run with ``-s`` to
see them live).  Scales are desk-sized; all randomness is seeded, so a pass
is reproducible bit-for-bit.
"""

import json

import numpy as np
import pytest

from conftest import custom
from fracdrift.chaos import exact_cumulants
from fracdrift.cli import EXIT_DEGENERATE, main
from fracdrift.covariance import (
    _lag_table,
    _unit_spectral_direct,
    hs_norm_lags,
    s_n,
    spectral_cross_autocov,
    trace_q,
)
from fracdrift.harness import (
    ExperimentSpec,
    run_consistency,
    run_cumulants,
    run_degenerate_projection,
    run_estimator_clt,
    run_moment_clt,
    run_rosenblatt,
)
from fracdrift.models import (
    build_distributed_model,
    build_pointwise_model,
    projection_indicator,
    projection_sine,
)

pytestmark = pytest.mark.acceptance

PI2 = np.pi**2


def record(number: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:02d} [{'PASS' if passed else 'FAIL'}] {detail}"
    print(line, flush=True)
    assert passed, line


def heat20(hurst: float, alpha: float = 1.0):
    return build_distributed_model(d=1, m=1, n_modes=20, alpha=alpha, hurst=hurst)


class TestAcceptance:
    def test_01_cumulant_oracle_equivalence(self):
        """Exact trace-identity cumulants vs Monte Carlo k-statistics (4 SE,
        1e5 replications, n <= 64) and the bound shapes with one fitted
        constant per order, uniform over n in {2^5 .. 2^10}."""
        failures = []
        for h in (0.55, 0.7):
            spec = ExperimentSpec(
                kind="cumulants", model=heat20(h),
                grid=(32, 64, 128, 256, 512, 1024),
                replications=100_000, seed=2001, mc_cumulant_max_n=64,
            )
            report = run_cumulants(spec)
            failures.extend(f"H={h}:{c.name}" for c in report.checks if not c.passed)
        record(1, not failures,
               f"cumulant oracle equivalence and bound uniformity; failures={failures or 'none'}")

    def test_02_dual_formula_agreement(self):
        """Closed form vs spectral 1e-6 (H > 1/2 grid); closed-form variance vs
        quadrature at lag 0 within 1e-6; s_n trace route vs lag-sum route
        within 1e-8 relative."""
        worst_pair = 0.0
        for h in (0.55, 0.65, 0.7):
            for (ak, al) in ((PI2, PI2), (PI2, 4 * PI2), (4 * PI2, PI2), (1.0, 1.0)):
                kvs = _lag_table(np.array([ak, al]), np.ones(2), h, False,
                                 np.array([0.0, 0.5, 1.0, 5.0, 20.0]))[0, 1]
                for t, kv in zip((0.0, 0.5, 1.0, 5.0, 20.0), kvs):
                    sv = spectral_cross_autocov(ak, al, 1.0, 1.0, h, t)
                    worst_pair = max(worst_pair, abs(kv - sv) / max(abs(sv), 1e-300))
        worst_var = 0.0
        for h in (0.3, 0.55, 0.7):
            for a in (1.0, PI2):
                closed = _lag_table(np.array([a]), np.ones(1), h, True, np.zeros(1))[0, 0]
                quadr = _unit_spectral_direct(a, a, h, 0.0)
                worst_var = max(worst_var, abs(quadr - closed) / closed)
        worst_sn = 0.0
        models = [heat20(0.55), build_pointwise_model(0.3, 8, 1.0, 0.55)]
        for model in models:
            for n in (16, 64):
                trace_route = exact_cumulants(model, n).s_n
                series_route = s_n(model, n)
                worst_sn = max(worst_sn, abs(trace_route - series_route) / series_route)
        passed = worst_pair < 1e-6 and worst_var < 1e-6 and worst_sn < 1e-8
        record(2, passed,
               f"dual formulas: closed-form-vs-spectral {worst_pair:.2e} (<1e-6), "
               f"variance-vs-quadrature {worst_var:.2e} (<1e-6), "
               f"s_n routes {worst_sn:.2e} (<1e-8)")

    def test_03_decay_law(self):
        """t^{2-2H} ||Q(t)||_HS bounded: max/min over the last 4 dyadic points
        below 1.5 for the H in {0.55, 0.7} heat models."""
        ratios = {}
        for h in (0.55, 0.7):
            model = heat20(h)
            ts = 2.0 ** np.arange(1, 11)
            vals = [t ** (2 - 2 * h) * hs_norm_lags(model, t, 2)[1] for t in ts]
            last4 = vals[-4:]
            ratios[h] = max(last4) / min(last4)
        passed = all(r < 1.5 for r in ratios.values())
        record(3, passed, "rescaled HS-norm decay ratios " +
               ", ".join(f"H={h}: {r:.4f}" for h, r in ratios.items()) + " (< 1.5)")

    def test_04_scaling_law(self):
        """trace Q(alpha) = alpha^{-2H} trace Q(1) to 1e-10 relative."""
        worst = 0.0
        for h in (0.3, 0.55, 0.7):
            model = heat20(h)
            base = trace_q(model.with_alpha(1.0))
            for alpha in (0.5, 1.0, 2.0):
                lhs = trace_q(model.with_alpha(alpha))
                rhs = alpha ** (-2 * h) * base
                worst = max(worst, abs(lhs - rhs) / rhs)
        record(4, worst < 1e-10, f"stationary-trace drift scaling, worst rel {worst:.2e} (< 1e-10)")

    def test_05_consistency(self):
        """Median |estimate - 1| strictly decreasing over n in {250, 1000,
        4000} and below 0.05 at n = 4000 (200 replications, N = 20 heat)."""
        failures, finals = [], {}
        for h in (0.3, 0.55, 0.7):
            spec = ExperimentSpec(
                kind="consistency", model=heat20(h), grid=(250, 1000, 4000),
                replications=200, seed=2005,
                thresholds={"max_median_error": 0.05},
            )
            report = run_consistency(spec)
            failures.extend(f"H={h}:{c.name}" for c in report.checks if not c.passed)
            finals[h] = [r.value for r in report.rows
                         if r.statistic == "discrete_norm_median_abs_error"][-1]
        record(5, not failures,
               "consistency medians decreasing, final " +
               ", ".join(f"H={h}: {v:.4f}" for h, v in finals.items()) +
               f" (< 0.05); failures={failures or 'none'}")

    @pytest.mark.parametrize("h", [0.55, 0.3])
    def test_06_estimator_clt(self, h):
        """Localized (K=3) Kolmogorov distance of the standardized errors to
        N(0,1) below 0.06 at n = 4000 (1000 replications), for the norm
        estimator with sigma_1 and the window projection with sigma_3."""
        spec = ExperimentSpec(
            kind="estimator_clt", model=heat20(h), grid=(4000,),
            replications=1000, seed=2006,
            estimators=("discrete_norm", "discrete_projection"),
            projection=projection_indicator(0.0, 0.5, 20),
            thresholds={"ks_localized_max": 0.06},
        )
        report = run_estimator_clt(spec)
        observed = {c.name: c.observed for c in report.checks if "ks_localized" in c.name}
        record(6, report.passed,
               f"estimator CLT H={h}: " +
               ", ".join(f"{k}={v:.4f}" for k, v in observed.items()) + " (< 0.06)")

    @pytest.mark.parametrize("h,slope_max", [(0.55, -0.5 + 0.2), (0.7, -(3 - 4 * 0.7) + 0.25)])
    def test_07_berry_esseen_rate_direction(self, h, slope_max):
        """log-log slope of the Kolmogorov distance over n in {2^5..2^9}
        decays no slower than the rate function within tolerance (2000
        replications, shared by every grid size).  The single slow mode
        (rate 0.25) keeps the pre-asymptotic distance above the Monte Carlo
        resolution floor."""
        model = custom([1.0], 0.25, h)
        spec = ExperimentSpec(
            kind="moment_clt", model=model, grid=(32, 64, 128, 256, 512),
            replications=2000, seed=2007, thresholds={"slope_max": slope_max},
        )
        report = run_moment_clt(spec)
        slope = report.regression["slope"]
        ok = all(c.passed for c in report.checks if c.name == "ks_slope_vs_rate")
        record(7, ok, f"moment-CLT KS slope H={h}: {slope:.3f} <= {slope_max:.2f} "
                      f"(se {report.regression['slope_se']:.3f})")

    def test_08_non_clt_regime(self):
        """H = 0.85: the n^{2H-1}-rescaled statistic stays at KS >= 0.03 from
        every normal (2000 replications, n = 2^12) while the H = 0.55 control
        passes normality under CLT scaling."""
        spec = ExperimentSpec(
            kind="rosenblatt", model=custom([1.0], 1.0, 0.85),
            grid=(1024, 2048, 4096), replications=2000, seed=2008,
            thresholds={"ks_floor": 0.03, "variance_ratio_max": 2.0},
        )
        report = run_rosenblatt(spec)
        ks_fit = [c.observed for c in report.checks if c.name == "ks_to_best_normal_floor"][0]

        control_spec = ExperimentSpec(
            kind="rosenblatt", model=custom([1.0], 1.0, 0.55),
            grid=(4096,), replications=2000, seed=2008,
            thresholds={"ks_max": 0.05},
        )
        control = run_rosenblatt(control_spec)
        ks_ctrl = [c.observed for c in control.checks if c.name == "control_normality_ks"][0]
        record(8, report.passed and control.passed,
               f"non-Gaussian regime: KS-to-fitted-normal {ks_fit:.4f} (>= 0.03), "
               f"H=0.55 control KS {ks_ctrl:.4f} (< 0.05)")

    def test_09_degenerate_projection(self, tmp_path):
        """Midpoint source with the mode-4 sine projection: <Q w, w> < 1e-12
        and estimation refuses (CLI exit code 3); the window projection stays
        strictly positive."""
        model = build_pointwise_model(0.5, 8, 1.0, 0.55)
        spec = ExperimentSpec(
            kind="degenerate_projection", model=model, grid=(1,), replications=1,
            seed=2009, projection=projection_sine(4, 8),
        )
        report = run_degenerate_projection(spec)

        model_dict = {"kind": "pointwise", "y": 0.5, "n_modes": 8,
                      "alpha": 1.0, "hurst": 0.55}
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(json.dumps({
            "model": model_dict, "grid": {"dt": 1.0, "n_steps": 16},
            "method": "exact_stationary",
            "projection": {"kind": "sine_mode", "mode": 4}, "seed": 1,
        }))
        main(["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "sim")])
        est_cfg = tmp_path / "est.json"
        est_cfg.write_text(json.dumps({
            "model": model_dict,
            "trajectory": str(tmp_path / "sim" / "trajectory.csv"),
            "estimator": "discrete_projection",
            "projection": {"kind": "sine_mode", "mode": 4},
        }))
        code = main(["estimate", "--config", str(est_cfg), "--out", str(tmp_path / "est")])
        byname = {c.name: c for c in report.checks}
        passed = report.passed and code == EXIT_DEGENERATE
        record(9, passed,
               f"degeneracy: qww={byname['qww_candidate_degenerate'].observed:.2e} "
               f"(< 1e-12), window qww={byname['qww_window_positive'].observed:.3e} "
               f"(> 0), CLI exit code {code} (== {EXIT_DEGENERATE})")

    def test_10_reproducibility(self, tmp_path):
        """Re-running an experiment with identical config and seed yields
        byte-identical CSV/JSON for thread counts 1 and 8 (manifests may
        differ only in their timestamps)."""
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "distributed", "d": 1, "m": 1, "n_modes": 3,
                      "alpha": 1.0, "hurst": 0.55},
            "grid": [64, 128], "replications": 120, "seed": 2010,
        }))
        blobs = {}
        manifests = {}
        for threads in (1, 8):
            for attempt in ("a", "b"):
                out = tmp_path / f"run{threads}{attempt}"
                main(["experiment", "moment_clt", "--config", str(cfg),
                      "--out", str(out), "--threads", str(threads)])
                blobs[(threads, attempt)] = (
                    (out / "experiment_moment_clt_report.csv").read_bytes(),
                    (out / "experiment_moment_clt_summary.json").read_bytes(),
                )
                manifest = json.loads((out / "manifest.json").read_text())
                manifest.pop("created_at")
                manifests[(threads, attempt)] = manifest
        reference = blobs[(1, "a")]
        identical = all(v == reference for v in blobs.values())
        manifests_equal = all(m == manifests[(1, "a")] for m in manifests.values())
        record(10, identical and manifests_equal,
               "byte-identical outputs across reruns and thread counts {1, 8}")
