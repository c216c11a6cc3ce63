"""The layers the benchmark times and the per-layer metrics built from them.

Layers are fracdrift's modules: ``cli``, ``harness``, ``simulate``,
``covariance``, ``chaos``, ``estimators``, ``fgn`` and ``_rng`` (named
``rng`` in metric names).  ``TARGETS`` lists the functions whose calls are
recorded as spans; ``METRICS`` turns the spans of one traced job into
numbers.  Each metric comment names the end-to-end metric it should move and
on which workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from spans import POOL_TASK, Target, outermost, self_times, union_length

#: fracdrift modules whose import cost is reported (``cli.import_s.<name>``).
IMPORT_MODULES = {
    "fracdrift": "fracdrift",
    "fracdrift._rng": "rng",
    "fracdrift.models": "models",
    "fracdrift.fgn": "fgn",
    "fracdrift.covariance": "covariance",
    "fracdrift.simulate": "simulate",
    "fracdrift.estimators": "estimators",
    "fracdrift.chaos": "chaos",
    "fracdrift.harness": "harness",
    "fracdrift.cli": "cli",
}


def _cutoff(args, result):
    cutoff = float(result.cutoff)
    return {"cutoff": cutoff if math.isfinite(cutoff) else 0.0}


TARGETS = [
    Target("cli", "cmd_simulate", "cli.simulate"),
    Target("cli", "cmd_estimate", "cli.estimate"),
    Target("cli", "cmd_experiment", "cli.experiment"),
    Target("harness", "run_experiment", "harness.run_experiment"),
    Target("harness", "_stationary_moment_samples", "harness.stationary_samples"),
    Target("harness", "_integrated_moment_samples", "harness.integrated_samples"),
    Target("simulate", "StationaryModeSampler.factor", "simulate.factor",
           counts=lambda a, r: {"circulant": int(r[0] == "circulant")}),
    Target("simulate", "StationaryModeSampler.draw", "simulate.draw",
           counts=lambda a, r: {"coords": int(r.size)}),
    Target("simulate", "_dense_factor", "simulate.dense_factor",
           counts=lambda a, r: {"dim": int(r.shape[0])}, memory=True),
    Target("simulate", "integrate_path", "simulate.integrate_path"),
    Target("simulate", "sample_stationary_sequence", "simulate.sample_stationary_sequence"),
    Target("simulate", "trajectory_to_csv", "simulate.io"),
    Target("simulate", "trajectory_from_csv", "simulate.io"),
    Target("simulate", "trajectory_to_npz", "simulate.io"),
    Target("simulate", "trajectory_from_npz", "simulate.io"),
    Target("covariance", "_mode_lag_table", "covariance.lag_table",
           counts=lambda a, r: {"entries": int(r.size)}),
    Target("covariance", "s_infty_star", "covariance.series_limit", counts=_cutoff),
    Target("covariance", "u_infty_star", "covariance.series_limit", counts=_cutoff),
    Target("covariance", "r_z_sum", "covariance.series_limit", counts=_cutoff),
    Target("covariance", "r_z_integral", "covariance.series_limit", counts=_cutoff),
    Target("covariance", "block_covariance", "covariance.block_covariance", memory=True),
    Target("fgn", "circulant_embedding_eigs", "fgn.embedding"),
    Target("fgn", "sample_circulant", "fgn.synthesis"),
    Target("_rng", "substream", "rng.substream"),
    Target("chaos", "exact_cumulants", "chaos.exact_cumulants",
           counts=lambda a, r: {"dim": int(r.n) * int(a[0].n_modes)}, memory=True),
    Target("chaos", "cumulant_bound_shapes", "chaos.bound_shapes"),
    Target("chaos", "ks_distance", "chaos.distances"),
    Target("chaos", "wasserstein1_distance", "chaos.distances"),
    Target("chaos", "k_statistics", "chaos.distances"),
    Target("estimators", "asymptotic_constants", "estimators.constants"),
    Target("estimators", "alpha_check_discrete", "estimators.estimate"),
    Target("estimators", "alpha_hat_continuous", "estimators.estimate"),
    Target("estimators", "alpha_bar_discrete", "estimators.estimate"),
    Target("estimators", "alpha_tilde_continuous", "estimators.estimate"),
    Target("estimators", "finish_report", "estimators.estimate"),
]

CLI_SPANS = ("cli.simulate", "cli.estimate", "cli.experiment")
SAMPLING_SPANS = ("harness.stationary_samples", "harness.integrated_samples")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    spans: tuple                  # span names it reads; absent if none was installed
    compute: Callable             # (Job) -> float, or None when absent


class Job:
    """The spans of one traced job (all of its commands), ready to query."""

    def __init__(self, commands: list[dict]):
        self.commands = commands
        self.spans: list[dict] = []
        for cmd in commands:
            self.spans.extend(_rebase(cmd["spans"], len(self.spans)))
        self.selfs = self_times(self.spans)
        self.installed = set().union(*(cmd["installed"] for cmd in commands))

    def named(self, *names) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s["name"] in names]

    def time(self, *names) -> float:
        """Durations summed over threads, nested calls of one group once."""
        return sum(_dur(self.spans[i]) for i in outermost(self.spans, names))

    def self_time(self, *names) -> float:
        return sum(self.selfs[i] for i in self.named(*names))

    def calls(self, *names) -> int:
        return len(self.named(*names))

    def count(self, key: str, *names, misses_only: bool = False) -> float:
        total = 0
        for i in self.named(*names):
            span = self.spans[i]
            if misses_only and not span.get("miss", True):
                continue
            total += span["counts"][key]
        return total

    def peak(self, *names) -> float:
        return max((self.spans[i].get("peak_mb", 0.0) for i in self.named(*names)), default=0.0)


def uncovered_s(record: dict) -> float:
    """Wall of one command's ``main()`` not covered by any top-level span."""
    top = [(s["start"], s["end"]) for s in record["spans"] if s["parent"] is None]
    return (record["main_end"] - record["main_start"]) - union_length(top)


def _rebase(spans: list[dict], offset: int) -> list[dict]:
    return [dict(s, parent=None if s["parent"] is None else s["parent"] + offset) for s in spans]


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _utilization(job: Job) -> float:
    wall = job.time(*SAMPLING_SPANS)
    tasks = [job.spans[i] for i in job.named(POOL_TASK)]
    if not tasks or wall <= 0:
        return 0.0
    workers = max(s["workers"] for s in tasks)
    return sum(_dur(s) for s in tasks) / (workers * wall)


def _circulant_share(job: Job) -> float:
    calls = job.calls("simulate.factor")
    return job.count("circulant", "simulate.factor") / calls if calls else 0.0


def _import_metric(module: str, short: str) -> Metric:
    # Moves setup_s on every workload.
    def compute(job: Job) -> float | None:
        costs = [c["imports"][module] for c in job.commands if module in c["imports"]]
        return sum(costs) if costs else None

    return Metric(f"cli.import_s.{short}", "s", "lower", (), compute)


METRICS = [_import_metric(m, s) for m, s in IMPORT_MODULES.items()] + [
    # cli: every cli metric moves wall_s on every workload.
    Metric("cli.simulate_s", "s", "lower", ("cli.simulate",),
           lambda j: j.time("cli.simulate")),
    Metric("cli.estimate_s", "s", "lower", ("cli.estimate",),
           lambda j: j.time("cli.estimate")),
    Metric("cli.experiment_s", "s", "lower", ("cli.experiment",),
           lambda j: j.time("cli.experiment")),
    Metric("cli.self_s", "s", "lower", CLI_SPANS, lambda j: j.self_time(*CLI_SPANS)),
    Metric("cli.other_s", "s", "lower", (), lambda j: sum(uncovered_s(c) for c in j.commands)),
    # harness: wall_s (and wall_s vs cpu_s) on mc_stationary_diag, integrator_paths.
    Metric("harness.sampling_wall_s", "s", "lower", SAMPLING_SPANS,
           lambda j: j.time(*SAMPLING_SPANS)),
    Metric("harness.pool_utilization", "ratio", "higher", SAMPLING_SPANS, _utilization),
    Metric("harness.self_s", "s", "lower",
           ("harness.run_experiment",) + SAMPLING_SPANS,
           lambda j: j.self_time("harness.run_experiment", POOL_TASK, *SAMPLING_SPANS)),
    # simulate: draws move wall_s and cpu_s on mc_stationary_diag; the dense
    # factor moves wall_s and peak_rss_mb on pointwise_pipeline; the
    # integrator moves wall_s on integrator_paths; I/O on pointwise_pipeline.
    Metric("simulate.draw_busy_s", "s", "lower", ("simulate.draw",),
           lambda j: j.time("simulate.draw")),
    Metric("simulate.draw_calls", "count", "lower", ("simulate.draw",),
           lambda j: j.calls("simulate.draw")),
    Metric("simulate.coords_drawn", "count", "lower", ("simulate.draw",),
           lambda j: j.count("coords", "simulate.draw")),
    Metric("simulate.factor_s", "s", "lower", ("simulate.factor",),
           lambda j: j.time("simulate.factor")),
    Metric("simulate.circulant_share", "ratio", "higher", ("simulate.factor",),
           _circulant_share),
    Metric("simulate.dense_factor_s", "s", "lower", ("simulate.dense_factor",),
           lambda j: j.time("simulate.dense_factor")),
    Metric("simulate.dense_factor_dim", "count", "lower", ("simulate.dense_factor",),
           lambda j: j.count("dim", "simulate.dense_factor")),
    Metric("simulate.dense_factor_peak_mb", "MB", "lower", ("simulate.dense_factor",),
           lambda j: j.peak("simulate.dense_factor")),
    Metric("simulate.integrate_self_s", "s", "lower", ("simulate.integrate_path",),
           lambda j: j.self_time("simulate.integrate_path")),
    Metric("simulate.io_s", "s", "lower", ("simulate.io",), lambda j: j.time("simulate.io")),
    # covariance: lag tables move wall_s mostly on pointwise_pipeline, some on
    # cumulants_exact; series limits on pointwise_pipeline; block assembly
    # moves wall_s and peak_rss_mb on pointwise_pipeline and cumulants_exact.
    Metric("covariance.lag_table_s", "s", "lower", ("covariance.lag_table",),
           lambda j: j.time("covariance.lag_table")),
    Metric("covariance.lag_table_entries", "count", "lower", ("covariance.lag_table",),
           lambda j: j.count("entries", "covariance.lag_table", misses_only=True)),
    Metric("covariance.series_limit_s", "s", "lower", ("covariance.series_limit",),
           lambda j: j.time("covariance.series_limit")),
    Metric("covariance.series_cutoff_lags", "count", "lower", ("covariance.series_limit",),
           lambda j: j.count("cutoff", "covariance.series_limit")),
    Metric("covariance.block_assembly_s", "s", "lower", ("covariance.block_covariance",),
           lambda j: j.time("covariance.block_covariance")),
    Metric("covariance.block_assembly_peak_mb", "MB", "lower", ("covariance.block_covariance",),
           lambda j: j.peak("covariance.block_covariance")),
    # fgn: wall_s on integrator_paths.  rng: wall_s on mc_stationary_diag and
    # integrator_paths.
    Metric("fgn.embedding_s", "s", "lower", ("fgn.embedding",),
           lambda j: j.time("fgn.embedding")),
    Metric("fgn.embedding_calls", "count", "lower", ("fgn.embedding",),
           lambda j: j.calls("fgn.embedding")),
    Metric("fgn.synthesis_s", "s", "lower", ("fgn.synthesis",),
           lambda j: j.time("fgn.synthesis")),
    Metric("rng.substream_calls", "count", "lower", ("rng.substream",),
           lambda j: j.calls("rng.substream")),
    Metric("rng.substream_s", "s", "lower", ("rng.substream",),
           lambda j: j.time("rng.substream")),
    # chaos: traces move wall_s and peak_rss_mb on cumulants_exact; distances
    # move wall_s on the experiment kinds.  estimators: wall_s on
    # pointwise_pipeline.
    Metric("chaos.cumulant_traces_s", "s", "lower", ("chaos.exact_cumulants",),
           lambda j: j.self_time("chaos.exact_cumulants")),
    Metric("chaos.cumulant_traces_peak_mb", "MB", "lower", ("chaos.exact_cumulants",),
           lambda j: j.peak("chaos.exact_cumulants")),
    Metric("chaos.trace_dim", "count", "lower", ("chaos.exact_cumulants",),
           lambda j: j.count("dim", "chaos.exact_cumulants")),
    Metric("chaos.distances_s", "s", "lower", ("chaos.distances",),
           lambda j: j.time("chaos.distances")),
    Metric("estimators.constants_s", "s", "lower", ("estimators.constants",),
           lambda j: j.time("estimators.constants")),
    Metric("estimators.estimate_s", "s", "lower", ("estimators.estimate",),
           lambda j: j.time("estimators.estimate")),
]

#: Metrics that count work and must repeat exactly across the jobs of a run.
COUNT_METRICS = [m.name for m in METRICS if m.unit == "count"]

#: Traced wall minus untraced wall, reported next to the layer metrics.
OVERHEAD = ("trace.overhead_s", "s", "lower")

#: (name, unit, better) of every per-layer metric the traced run prints.
DECLARED = [(m.name, m.unit, m.better) for m in METRICS] + [OVERHEAD]


def layer_values(job: Job) -> dict[str, float | None]:
    """Every per-layer metric of one traced job; ``None`` marks absent."""
    out = {}
    for metric in METRICS:
        if metric.spans and not job.installed.intersection(metric.spans):
            out[metric.name] = None
            continue
        try:
            value = metric.compute(job)
        except (KeyError, TypeError):
            # A count extractor no longer fits what the function returns.
            value = None
        out[metric.name] = None if value is None else float(value)
    return out
