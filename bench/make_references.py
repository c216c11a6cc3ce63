"""Regenerate ``references.json``, the expected deterministic outputs.

    python3 bench/make_references.py

Runs every workload once per size (benchmark and toy) at two seeds through
the same command runner as the benchmark, keeps the values ``check.py``
compares, and requires them to be seed-independent.  Each value is then
cross-checked once against an independent oracle, at the tolerances the
repository's tests use:

* exact cumulants and ``s_n`` against ``eigvalsh`` traces of the stacked
  covariance (1e-10) and ``s_n`` against the lag-sum series (1e-8);
* lag tables behind ``s_n``, the bound shapes and ``sigma_asymptotic``
  against the rotated spectral quadrature at sample lags (1e-6);
* normalizers and the truncation tail ratio against the direct spectral
  quadrature at lag 0 (1e-6).

The oracle errors are stored next to the references.  The script exits with
code 1, writing nothing, if any value is seed-dependent or misses its oracle.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import numpy as np

from run import SRC, WORK, run_job
from check import REFERENCES, deterministic_values
from workloads import WORKLOADS

sys.path.insert(0, str(SRC))

from fracdrift import covariance as cov  # noqa: E402
from fracdrift.models import model_from_dict, projection_from_dict  # noqa: E402

SEEDS = (1, 2)
ORACLE_TOL = {"eigvalsh_traces": 1e-10, "s_n_series": 1e-8,
              "spectral_lags": 1e-6, "spectral_lag0": 1e-6}


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def collect(workload, toy: bool) -> dict:
    """Deterministic values per command, identical for every seed."""
    found = []
    for seed in SEEDS:
        job_dir = WORK / "references" / workload.name / f"{'toy' if toy else 'full'}-{seed}"
        job = run_job(workload, seed, job_dir, False, toy, math.inf, None)
        for run in job.commands:
            if run.failed:
                raise SystemExit(f"{workload.name} {run.name}: {run.problems}")
        found.append({run.name: deterministic_values(job_dir / run.name)
                      for run in job.commands})
    if any(f != found[0] for f in found[1:]):
        raise SystemExit(f"{workload.name}: deterministic outputs depend on the seed")
    return found[0]


def sample_lags(n: int) -> list[int]:
    return sorted({0, 1, 10, n // 4, n - 1})


def oracle_cumulants(config: dict, values: dict) -> dict:
    model = model_from_dict(config["model"])
    grid = config["grid"]
    worst = {"eigvalsh_traces": 0.0, "s_n_series": 0.0, "spectral_lags": 0.0}
    for n in grid:
        tr2 = tr3 = tr4 = 0.0
        for block in cov.block_covariance(model, n):
            lam = np.linalg.eigvalsh(block)
            tr2, tr3, tr4 = tr2 + np.sum(lam**2), tr3 + np.sum(lam**3), tr4 + np.sum(lam**4)
        worst["eigvalsh_traces"] = max(
            worst["eigvalsh_traces"],
            rel(values[f"kappa3_exact[n={n}]"], 8.0 * tr3 / (2.0 * tr2) ** 1.5),
            rel(values[f"kappa4_exact[n={n}]"], 48.0 * tr4 / (2.0 * tr2) ** 2),
            rel(values[f"s_n[n={n}]"], 2.0 * tr2 / n))
        worst["s_n_series"] = max(worst["s_n_series"],
                                  rel(values[f"s_n[n={n}]"], cov.s_n(model, n)))
    table = cov.hs_norm_lags(model, 1.0, max(grid))
    for t in sample_lags(max(grid)):
        direct = math.sqrt(sum(
            cov.spectral_cross_autocov(a, a, p, p, model.hurst, float(t)) ** 2
            for a, p in zip(model.rates, model.noise.loadings)))
        worst["spectral_lags"] = max(worst["spectral_lags"], rel(table[t], direct))
    return worst


def oracle_estimate(config: dict, values: dict) -> dict:
    model = model_from_dict(config["model"])
    unit = model.with_alpha(1.0)
    w = projection_from_dict(config["projection"], model.n_modes).coefficients
    a1, phi, h = unit.rates, unit.noise.loadings, model.hurst
    n = len(a1)
    var = [phi[k] ** 2 * cov._unit_spectral_direct(a1[k], a1[k], h, 0.0) for k in range(n)]
    qw1 = sum(w[k] * w[l] * phi[k] * phi[l] * cov._unit_spectral_direct(a1[k], a1[l], h, 0.0)
              for k in range(n) for l in range(n))
    worst = {"spectral_lag0": max(rel(values["estimate.normalizer"], qw1),
                                  rel(values["estimate.truncation_tail_ratio"],
                                      var[-1] / sum(var)))}
    # sigma_asymptotic = delta * sqrt(r_z_sum): check the projected lag
    # table it sums at sample lags, and delta from the oracle normalizer.
    a, loads = model.rates, model.noise.loadings
    table = cov._r_z_lags(model, projection_from_dict(config["projection"], n), 1.0, 1024)
    worst["spectral_lags"] = max(
        rel(table[t], sum(w[k] * w[l] * cov.spectral_cross_autocov(
            a[k], a[l], loads[k], loads[l], h, float(t)) for k in range(n) for l in range(n)))
        for t in sample_lags(1024))
    delta = model.alpha ** (1.0 + 2.0 * h) / (2.0 * h * qw1)
    sigma = delta * math.sqrt(cov.r_z_sum(model, projection_from_dict(config["projection"], n)).value)
    worst["spectral_lag0"] = max(worst["spectral_lag0"],
                                 rel(values["estimate.sigma_asymptotic"], sigma))
    return worst


def main() -> int:
    shutil.rmtree(WORK / "references", ignore_errors=True)
    references = {"toy": {}, "full": {}, "oracle": {}}
    failures = []
    for scale in ("toy", "full"):
        for name, workload in WORKLOADS.items():
            values = collect(workload, scale == "toy")
            references[scale][name] = values
            commands = {c.name: c for c in workload.commands(SEEDS[0], scale == "toy")}
            worst = {}
            if values.get("experiment"):
                worst.update(oracle_cumulants(commands["experiment"].config, values["experiment"]))
            if values.get("estimate"):
                worst.update(oracle_estimate(commands["estimate"].config, values["estimate"]))
            references["oracle"][f"{scale}/{name}"] = worst
            failures += [f"{scale}/{name} {k} {v:.2e} > {ORACLE_TOL[k]:g}"
                         for k, v in worst.items() if v > ORACLE_TOL[k]]
            print(f"{scale}/{name}: {len(sum(map(list, values.values()), []))} values, "
                  f"oracle {json.dumps(worst)}", flush=True)
    if failures:
        print("oracle mismatch: " + "; ".join(failures), file=sys.stderr)
        return 1
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
