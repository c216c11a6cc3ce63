"""The benchmark's workloads: which ``fracdrift`` commands one job runs.

Every workload is closed-loop: one job at a time, each command in a fresh
process, nothing warmed between jobs, because users pay the cold lag-table
caches on every CLI run.  The seed only changes the random draws; the work a
job does is the same for every seed.  Monte Carlo kinds run with
``--threads 2``; OpenBLAS keeps its default thread count.

Sizes are cut down from the acceptance scale so that one job takes a few
seconds and a run of the benchmark holds several jobs; ``toy`` sizes exist
for the benchmark's own smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass

THREADS = 2

HEAT20 = {"kind": "distributed", "d": 1, "m": 1, "n_modes": 20, "alpha": 1.0, "hurst": 0.55}
WINDOW = {"kind": "indicator", "a": 0.0, "b": 0.5}


@dataclass(frozen=True)
class Command:
    """One CLI process: ``fracdrift <args> --config <name>.json --out <name>``."""

    name: str
    args: tuple
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: dict      # size parameters of the benchmark
    toy: dict       # size parameters of the smoke test

    def commands(self, seed: int, toy: bool = False) -> list[Command]:
        return _BUILDERS[self.name](seed, **(self.toy if toy else self.full))


def _mc_stationary_diag(seed, grid, replications, n_modes):
    model = dict(HEAT20, n_modes=n_modes)
    return [Command("experiment", ("experiment", "estimator_clt", "--seed", str(seed),
                                   "--threads", str(THREADS)),
                    {"model": model, "grid": grid, "replications": replications,
                     "estimators": ["discrete_norm", "discrete_projection"],
                     "projection": WINDOW})]


def _pointwise_pipeline(seed, n_modes, n_steps):
    model = {"kind": "pointwise", "y": 0.3, "n_modes": n_modes, "alpha": 1.0, "hurst": 0.55}
    return [
        Command("simulate", ("simulate", "--seed", str(seed)),
                {"model": model, "grid": {"dt": 1.0, "n_steps": n_steps},
                 "method": "exact_stationary", "projection": WINDOW}),
        Command("estimate", ("estimate",),
                {"model": model, "trajectory": "simulate/trajectory.npz",
                 "estimator": "discrete_projection", "projection": WINDOW,
                 "true_alpha": 1.0}),
    ]


def _cumulants_exact(seed, grid, replications, n_modes):
    return [Command("experiment", ("experiment", "cumulants", "--seed", str(seed)),
                    {"model": dict(HEAT20, n_modes=n_modes), "grid": grid,
                     "replications": replications, "mc_cumulant_max_n": 64})]


def _integrator_paths(seed, grid, replications):
    model = {"kind": "distributed", "d": 1, "m": 1, "n_modes": 4, "alpha": 0.1, "hurst": 0.3}
    return [Command("experiment", ("experiment", "consistency", "--seed", str(seed),
                                   "--threads", str(THREADS)),
                    {"model": model, "grid": grid, "replications": replications,
                     "source": "integrator", "sim_dt": 0.01})]


_BUILDERS = {
    "mc_stationary_diag": _mc_stationary_diag,
    "pointwise_pipeline": _pointwise_pipeline,
    "cumulants_exact": _cumulants_exact,
    "integrator_paths": _integrator_paths,
}

WORKLOADS = {w.name: w for w in [
    Workload(
        "mc_stationary_diag",
        "estimator_clt on heat20: diagonal FFT sampler, RNG and thread pool; covariance barely moves it",
        full={"grid": [256, 1024], "replications": 2000, "n_modes": 20},
        toy={"grid": [128], "replications": 2000, "n_modes": 3},
    ),
    Workload(
        "pointwise_pipeline",
        "simulate+estimate on a point source: N^2 lag tables, series limits, dense Cholesky; no diagonal sampler",
        full={"n_modes": 12, "n_steps": 256},
        toy={"n_modes": 4, "n_steps": 64},
    ),
    Workload(
        "cumulants_exact",
        "cumulants on heat20: exact dense cumulant traces and their memory, plus k-statistics at small n",
        full={"grid": [32, 64, 256, 1024, 1280], "replications": 8000, "n_modes": 20},
        toy={"grid": [32, 64], "replications": 4000, "n_modes": 3},
    ),
    Workload(
        "integrator_paths",
        "consistency from integrated paths at H=0.3: the only workload reaching fgn and integrate_path",
        full={"grid": [64, 1024], "replications": 60},
        toy={"grid": [16, 256], "replications": 20},
    ),
]}
