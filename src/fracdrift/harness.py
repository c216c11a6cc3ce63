"""Monte Carlo experiments that reproduce the limit theorems at desk scale.

Experiment kinds:

* ``consistency`` -- median absolute estimation error shrinks along a growing
  observation grid.
* ``moment_clt`` -- the centered, scaled sample second moment approaches its
  Gaussian limit, with Kolmogorov distance decaying no slower than the rate
  function :func:`fracdrift.chaos.xi_H`.
* ``estimator_clt`` -- standardized estimator errors pass localized and global
  normality checks.
* ``cumulants`` -- exact third/fourth cumulants match Monte Carlo
  k-statistics and obey the structural bound shapes uniformly in n.
* ``rosenblatt`` -- for H > 3/4 the rescaled quadratic statistic stays away
  from every normal law; for H < 3/4 the same pipeline (CLT scaling) passes.
* ``degenerate_projection`` -- vanishing projected normalizer is detected and
  estimation refuses, while a window projection works.

:class:`ExperimentSpec` is the one schema of an experiment: its fields are the
keys of a ``fracdrift experiment`` config, cast and validated once.

Each experiment draws its replications once, at its largest Monte Carlo size
n, and reads every smaller size from their prefix sums: the first m points of
an exact stationary draw are an exact draw of m points.  Randomness derives
from per-(experiment, batch, sequence) substreams, so reports are
byte-identical regardless of worker count, and Monte Carlo memory is of order
threads x n x replications / n_batches.  The pool runs ``threads`` workers:
by default the cores this process may run on, at most one per batch.
Monte Carlo standard errors are computed by batching (``n_batches``, 20 by
default, at least 2), and all pass/fail thresholds are recorded in the report
next to the observed values.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from ._rng import substream
from .chaos import (
    exact_cumulants,
    k_statistics,
    kolmogorov_sf,
    kolmogorov_wasserstein_bound,
    ks_distance,
    wasserstein1_distance,
    xi_H,
)
from .covariance import SUMMABLE_HURST, s_infty_star, trace_q
from .estimators import (
    DISCRETE_NORM,
    DISCRETE_PROJ,
    DegenerateModelError,
    alpha_from_moment,
    asymptotic_sigma,
    qww1,
    trace_q1,
)
from .models import (
    ModelConfig, ProjectionVector, integer, positive_finite, projection_indicator, real,
    seed_value,
)
from .simulate import StationaryModeSampler, TrajectoryGrid, check_integration

__all__ = [
    "ExperimentSpec",
    "ExperimentReport",
    "ReportRow",
    "Check",
    "run_experiment",
    "run_consistency",
    "run_moment_clt",
    "run_estimator_clt",
    "run_cumulants",
    "run_rosenblatt",
    "run_degenerate_projection",
]

REPORT_SCHEMA_VERSION = 1

_TAGS = {
    "consistency": 0xC0,
    "moment_clt": 0xA0,
    "estimator_clt": 0xE0,
    "cumulants": 0xCC,
    "rosenblatt": 0xB0,
}

#: Half-width K of the localized Kolmogorov window; the default
#: ``ks_localized_max`` of 0.06 was calibrated at this K.
LOCALIZE = 3.0
#: Window [a, b] whose projection ``degenerate_projection`` shows to be usable.
DEGENERATE_WINDOW = (0.0, 0.5)
#: Integrator step of ``consistency`` runs from integrated paths without ``sim_dt``.
DEFAULT_SIM_DT = 0.01


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run; the runners read its
    fields as cast here (``grid`` a tuple of ints, counts and the seed int,
    steps float).  Integer fields must hold integers (:func:`integer`).
    ``threads`` is the pool's worker count: the value given, or
    :func:`available_cores` when None, at most the number of batches."""

    kind: str
    model: ModelConfig
    grid: tuple
    replications: int
    seed: int
    estimators: tuple = (DISCRETE_NORM,)
    projection: ProjectionVector | None = None
    dt: float = 1.0
    source: str = "stationary"      # "stationary" (exact); consistency also "integrator"
    sim_dt: float | None = None     # integrator step, DEFAULT_SIM_DT if unset; integrator only
    n_batches: int = 20
    threads: int | None = None
    mc_cumulant_max_n: int = 64
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for name in ("replications", "n_batches", "mc_cumulant_max_n"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        object.__setattr__(self, "seed", seed_value(self.seed))
        casts = {"grid": lambda g: tuple(integer(n, "each grid size") for n in g),
                 "dt": lambda v: positive_finite(real(v, "dt"), "dt"),
                 "estimators": tuple, "thresholds": dict,
                 "sim_dt": lambda v: v if v is None else positive_finite(real(v, "sim_dt"),
                                                                         "sim_dt")}
        for name, cast in casts.items():
            object.__setattr__(self, name, cast(getattr(self, name)))
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        for name, value in self.thresholds.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"threshold {name!r} must be a number, got {value!r}")
        if not self.grid or any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be non-empty and strictly increasing")
        positive_finite(self.grid[0], "the smallest grid size")
        if self.n_batches < 1:
            raise ValueError("n_batches must be >= 1")
        # Batch-spread standard errors need two batches, k-statistics four
        # samples per batch; degenerate_projection samples nothing.
        batches = min(self.n_batches, self.replications)
        threads = (available_cores() if self.threads is None
                   else integer(self.threads, "threads"))
        if threads < 1:
            raise ValueError("threads must be >= 1")
        object.__setattr__(self, "threads", min(threads, batches))
        if self.kind != "degenerate_projection" and batches < 2:
            raise ValueError(f"{self.kind} needs replications >= 2 and n_batches >= 2 "
                             "for its batch standard errors")
        smallest = self.replications // batches
        if self.kind == "cumulants" and self.grid[0] <= self.mc_cumulant_max_n and smallest < 4:
            raise ValueError(f"cumulants batches hold {smallest} replications at the smallest; "
                             "k-statistics need at least four (raise replications or "
                             "lower n_batches)")
        if self.source not in ("stationary", "integrator"):
            raise ValueError("source must be 'stationary' or 'integrator'")
        if self.source != "stationary" and self.kind != "consistency":
            raise ValueError(f"{self.kind} draws exact stationary samples; only "
                             "consistency takes source 'integrator'")
        if self.source == "stationary" and self.sim_dt is not None:
            raise ValueError("sim_dt is the integrator step; source 'stationary' draws "
                             "exact samples and takes none")
        steps = self.dt / (self.sim_dt or self.dt)
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"sim_dt must divide dt = {self.dt!r} into whole steps, "
                             f"got {self.sim_dt!r}")
        if not self.estimators or not set(self.estimators) <= {DISCRETE_NORM, DISCRETE_PROJ}:
            raise ValueError(f"estimators must be a non-empty subset of {DISCRETE_NORM!r} "
                             f"and {DISCRETE_PROJ!r}, got {list(self.estimators)}")
        if self.projection is None:
            if self.kind == "degenerate_projection":
                raise ValueError("degenerate_projection requires the candidate projection")
            if DISCRETE_PROJ in self.estimators:
                raise ValueError("projection estimator requested without a projection")

    def report(self, defaults: dict) -> ExperimentReport:
        """An empty report for this run; the spec's thresholds override ``defaults``."""
        return ExperimentReport(self.kind, self.seed, self.replications, self.n_batches,
                                {**defaults, **self.thresholds})


@dataclass(frozen=True)
class ReportRow:
    grid: float
    statistic: str
    value: float
    mc_se: float | None
    n_reps: int


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    observed: float
    threshold: float
    direction: str   # "<=" or ">="
    note: str = ""


@dataclass
class ExperimentReport:
    kind: str
    seed: int
    replications: int
    n_batches: int
    thresholds: dict
    rows: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    regression: dict | None = None
    raw: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_row(self, grid, statistic, value, mc_se=None, n_reps=0) -> None:
        self.rows.append(ReportRow(float(grid), statistic, float(value),
                                   None if mc_se is None else float(mc_se), int(n_reps)))

    def add_check(self, name, observed, threshold, direction, note="") -> None:
        observed = float(observed)
        threshold = float(threshold)
        ok = observed <= threshold if direction == "<=" else observed >= threshold
        self.checks.append(Check(name, bool(ok), observed, threshold, direction, note))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": self.kind,
            "seed": self.seed,
            "replications": self.replications,
            "n_batches": self.n_batches,
            "thresholds": self.thresholds,
            "passed": self.passed,
            "rows": [asdict(r) for r in self.rows],
            "checks": [asdict(c) for c in self.checks],
            "regression": self.regression,
        }

    def to_csv(self) -> str:
        lines = ["grid,statistic,value,mc_se,n_reps"]
        for r in self.rows:
            se = "" if r.mc_se is None else repr(r.mc_se)
            lines.append(f"{repr(r.grid)},{r.statistic},{repr(r.value)},{se},{r.n_reps}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Shared sampling machinery.
# --------------------------------------------------------------------------

def available_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS reports
    one, otherwise the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _batches(spec: ExperimentSpec) -> list[slice]:
    """Replication columns of each batch; sizes differ by at most one, longer first."""
    n_batches = min(spec.n_batches, spec.replications)
    base, extra = divmod(spec.replications, n_batches)
    bounds = [b * base + min(b, extra) for b in range(n_batches + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _stationary_moment_samples(spec: ExperimentSpec, sizes: tuple,
                               need_proj: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-replication prefix sums of one set of the source's draws.

    Returns ``(sq, proj)`` of shape (len(sizes), replications): the sums of
    |X(t)|^2 and <X(t), w>^2 over the first ``sizes[i]`` points of draws of
    ``n = sizes[-1]`` points, exact stationary at spacing ``spec.dt`` or, for
    source ``"integrator"``, Euler states at step ``sim_dt`` from zero
    observed every ``spec.dt`` after the default burn-in.  Each task is one
    batch: it draws through its thread's workspace, adds the modes in order
    into the thread's (batch, n) accumulators, which no batch reallocates,
    and takes a sequential cumsum along t.  Deterministic in (seed, kind,
    batch, sequence) regardless of the thread count.
    """
    tag = _TAGS[spec.kind]
    batches = _batches(spec)
    n = sizes[-1]
    at = np.asarray(sizes) - 1
    sums = np.empty((2 if need_proj else 1, len(at), spec.replications))
    coeffs = spec.projection.coefficients if need_proj else None
    if spec.source == "stationary":
        sampler = StationaryModeSampler(spec.model, n, spec.dt)
    else:
        every = max(round(spec.dt / (spec.sim_dt or DEFAULT_SIM_DT)), 1)
        grid = TrajectoryGrid(spec.dt / every, n * every)
        _, total = check_integration(spec.model, grid, "burn_in", every)
        sampler = StationaryModeSampler(spec.model, total, grid.dt, every)
    burn = sampler.n - n
    local = threading.local()

    def batch(b: int) -> None:
        cols = batches[b]
        n_reps = cols.stop - cols.start
        if getattr(local, "n_reps", None) != n_reps:
            local.n_reps, local.work = n_reps, {}
            local.acc, local.term = np.empty((len(sums), n_reps, n)), np.empty((n_reps, n))
        work, acc, term = local.work, local.acc, local.term
        acc.fill(0.0)
        for s in range(sampler.n_sequences):
            x = sampler.draw(s, substream(spec.seed, tag, 0, b, s), n_reps, work)
            # Mode s + c: diagonal noise has one mode per sequence, rank-one
            # noise a single sequence of all modes.
            for c, mode in enumerate(x[..., burn:].swapaxes(0, 1)):
                acc[0] += np.multiply(mode, mode, out=term)
                if need_proj:
                    acc[1] += np.multiply(coeffs[s + c], mode, out=term)
        np.square(acc[1:], out=acc[1:])  # the projection, if any
        np.cumsum(acc, axis=2, out=acc)
        sums[:, :, cols] = acc[..., at].transpose(0, 2, 1)

    if spec.threads > 1:
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            list(pool.map(batch, range(len(batches))))
    else:
        list(map(batch, range(len(batches))))
    return sums[0], (sums[1] if need_proj else None)


def _batched_statistic(values: np.ndarray, spec: ExperimentSpec, stat) -> tuple[float, float]:
    """(full-sample statistic, batch-spread standard error)."""
    parts = [stat(values[sl]) for sl in _batches(spec)]
    return float(stat(values)), float(np.std(parts, ddof=1) / np.sqrt(len(parts)))


def _median_and_quartiles(x: np.ndarray) -> tuple[float, float, float]:
    """``np.median(x)`` and ``np.percentile(x, [25, 75])`` of NaN-free ``x``,
    bit for bit (numpy's ``linear`` rule), from one sort and without the
    ``numpy.ma`` import those make on first use."""
    s = np.sort(x).tolist()
    out = [(s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2]
    for q in (0.25, 0.75):
        i, g = divmod(q * (len(s) - 1), 1.0)
        lo, hi = s[int(i)], s[min(int(i) + 1, len(s) - 1)]
        out.append(hi - (hi - lo) * (1.0 - g) if g >= 0.5 else lo + (hi - lo) * g)
    return tuple(out)


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _check_kolmogorov_wasserstein(report: ExperimentReport, grid, d_k: float, d_w: float) -> None:
    bound = kolmogorov_wasserstein_bound(d_w)
    report.add_check(
        f"kolmogorov_wasserstein_n{grid:g}", d_k, bound, "<=",
        note="d_Kol <= 2 sqrt(d_W / sqrt(2 pi)) on sampled distances",
    )


# --------------------------------------------------------------------------
# Experiments.
# --------------------------------------------------------------------------

def run_moment_clt(spec: ExperimentSpec) -> ExperimentReport:
    """Gaussian limit of ``sqrt(n) (mean |Z(i)|^2 - trace)`` with rate check."""
    model = spec.model
    base = -0.5 if model.hurst <= 0.625 else -(3.0 - 4.0 * model.hurst)
    tol = 0.2 if model.hurst <= 0.625 else 0.25
    report = spec.report({"slope_max": base + tol})

    trace_alpha = trace_q(model)
    s_star = s_infty_star(model, spec.dt).value
    ks_values = []
    sq, _ = _stationary_moment_samples(spec, spec.grid, need_proj=False)
    for n, sums in zip(spec.grid, sq):
        standardized = np.sqrt(n) * (sums / n - trace_alpha) / np.sqrt(s_star)
        ks, ks_se = _batched_statistic(standardized, spec, ks_distance)
        w1, w1_se = _batched_statistic(standardized, spec, wasserstein1_distance)
        report.add_row(n, "ks_distance", ks, ks_se, spec.replications)
        report.add_row(n, "wasserstein1", w1, w1_se, spec.replications)
        report.add_row(n, "xi_H", xi_H(model.hurst, n), None, 0)
        _check_kolmogorov_wasserstein(report, n, ks, w1)
        ks_values.append(ks)
        report.raw[f"standardized_n{n}"] = standardized

    if len(spec.grid) >= 3:
        slope, intercept, r2 = _loglog_fit(np.asarray(spec.grid, float), np.asarray(ks_values))
        # Slope spread across batches.
        batch_slopes = []
        for sl in _batches(spec):
            ys = [ks_distance(report.raw[f"standardized_n{n}"][sl]) for n in spec.grid]
            batch_slopes.append(_loglog_fit(np.asarray(spec.grid, float), np.asarray(ys))[0])
        slope_se = float(np.std(batch_slopes, ddof=1) / np.sqrt(len(batch_slopes)))
        report.regression = {"statistic": "ks_distance", "slope": slope, "intercept": intercept,
                             "r_squared": r2, "slope_se": slope_se}
        report.add_check(
            "ks_slope_vs_rate", slope, report.thresholds["slope_max"], "<=",
            note="log-log KS decay no slower than the rate function within tolerance",
        )
        report.add_check("ks_decreasing", ks_values[-1], ks_values[0], "<=",
                         note="KS at largest n does not exceed KS at smallest n")
    return report


def run_estimator_clt(spec: ExperimentSpec) -> ExperimentReport:
    """Normality of standardized minimum-contrast errors (localized Kolmogorov)."""
    model = spec.model
    report = spec.report({"ks_localized_max": 0.06})
    want_proj = DISCRETE_PROJ in spec.estimators
    # (normalizer, sigma) per kind, in report order; asymptotic_sigma checks
    # H < 3/4 and the degeneracy of the normalizers.
    targets = {}
    if DISCRETE_NORM in spec.estimators:
        targets[DISCRETE_NORM] = (trace_q1(model),
                                  asymptotic_sigma(model, DISCRETE_NORM, None, spec.dt))
    if want_proj:
        targets[DISCRETE_PROJ] = (qww1(model, spec.projection),
                                  asymptotic_sigma(model, DISCRETE_PROJ, spec.projection, spec.dt))

    sq, proj = _stationary_moment_samples(spec, spec.grid, need_proj=want_proj)
    for i, n in enumerate(spec.grid):
        for name, (normalizer, sigma) in targets.items():
            moments = (sq if name == DISCRETE_NORM else proj)[i] / n
            alphas = alpha_from_moment(moments, normalizer, model.hurst, name)
            z = np.sqrt(n) * (alphas - model.alpha) / sigma
            ks_loc, ks_loc_se = _batched_statistic(
                z, spec, lambda v: ks_distance(v, localize=LOCALIZE)
            )
            ks_all, ks_all_se = _batched_statistic(z, spec, ks_distance)
            w1, w1_se = _batched_statistic(z, spec, wasserstein1_distance)
            pvalue = kolmogorov_sf(len(z), ks_all)
            report.add_row(n, f"{name}_ks_localized", ks_loc, ks_loc_se, spec.replications)
            report.add_row(n, f"{name}_ks", ks_all, ks_all_se, spec.replications)
            report.add_row(n, f"{name}_wasserstein1", w1, w1_se, spec.replications)
            report.add_row(n, f"{name}_normality_pvalue", pvalue, None, spec.replications)
            report.add_row(n, f"{name}_mean_std_error", float(z.mean()),
                           float(z.std(ddof=1) / np.sqrt(len(z))), spec.replications)
            report.add_check(
                f"{name}_ks_localized_n{n}", ks_loc, report.thresholds["ks_localized_max"], "<=",
                note=f"localized (K={LOCALIZE:g}) Kolmogorov distance to N(0,1)",
            )
            _check_kolmogorov_wasserstein(report, n, ks_all, w1)
            report.raw[f"{name}_standardized_n{n}"] = z
    return report


def run_consistency(spec: ExperimentSpec) -> ExperimentReport:
    """Median absolute error decreasing along the observation grid."""
    model = spec.model
    report = spec.report({"max_median_error": 0.05})
    trace1 = trace_q1(model)
    if trace1.degenerate:
        raise DegenerateModelError("stationary trace is degenerate; drift not identifiable")
    want_proj = DISCRETE_PROJ in spec.estimators
    qw1 = qww1(model, spec.projection) if want_proj else None
    if want_proj and qw1.degenerate:
        raise DegenerateModelError("projected normalizer is degenerate")

    sq, proj = _stationary_moment_samples(spec, spec.grid, want_proj)

    medians: dict[str, list[float]] = {}
    for i, n in enumerate(spec.grid):
        rows = [(DISCRETE_NORM, sq[i] / n, trace1)]
        if want_proj:
            rows.append((DISCRETE_PROJ, proj[i] / n, qw1))
        for name, moments, normalizer in rows:
            alphas = alpha_from_moment(moments, normalizer, model.hurst, name)
            err = np.abs(alphas - model.alpha)
            med, q1, q3 = _median_and_quartiles(err)
            report.add_row(n, f"{name}_median_abs_error", med,
                           float(1.2533 * err.std(ddof=1) / np.sqrt(len(err))),
                           spec.replications)
            report.add_row(n, f"{name}_iqr_abs_error", q3 - q1, None, spec.replications)
            medians.setdefault(name, []).append(med)

    for name, meds in medians.items():
        decreasing = all(b < a for a, b in zip(meds, meds[1:]))
        report.add_check(f"{name}_median_strictly_decreasing", float(decreasing), 1.0, ">=",
                         note=f"medians over grid: {[round(m, 5) for m in meds]}")
        report.add_check(f"{name}_final_median_error", meds[-1],
                         report.thresholds["max_median_error"], "<=",
                         note="threshold from pilot Monte Carlo standard-error budget")
    return report


def run_cumulants(spec: ExperimentSpec) -> ExperimentReport:
    """Exact cumulants vs bound shapes vs Monte Carlo k-statistics."""
    model = spec.model
    report = spec.report({"se_multiple": 4.0, "uniformity_margin": 1.5})
    ratios3, ratios4 = [], []
    n_fit = len(spec.grid) // 2 + 1   # the constants are fitted on the first n_fit sizes
    mc_sizes = tuple(n for n in spec.grid if n <= spec.mc_cumulant_max_n)
    # The exact traces run before the draw: memory that the pool's threads
    # free is not all returned to the system at once, and the traces' peak
    # would stack on it.
    exact = [exact_cumulants(model, n, spec.dt) for n in spec.grid]
    sq = _stationary_moment_samples(spec, mc_sizes, need_proj=False)[0] if mc_sizes else ()
    for i, (n, rep) in enumerate(zip(spec.grid, exact)):
        report.add_row(n, "kappa3_exact", rep.kappa3_exact)
        report.add_row(n, "kappa4_exact", rep.kappa4_exact)
        report.add_row(n, "kappa3_bound_shape", rep.kappa3_bound_shape)
        report.add_row(n, "kappa4_bound_shape", rep.kappa4_bound_shape)
        report.add_row(n, "s_n", rep.s_n)
        ratios3.append(rep.kappa3_exact / rep.kappa3_bound_shape)
        ratios4.append(rep.kappa4_exact / rep.kappa4_bound_shape)

        if i < len(mc_sizes):
            f = (sq[i] - n * trace_q(model)) / np.sqrt(n * rep.s_n)
            k2, k2_se = _batched_statistic(f, spec, lambda v: k_statistics(v)[0])
            k3, k3_se = _batched_statistic(f, spec, lambda v: k_statistics(v)[1])
            k4, k4_se = _batched_statistic(f, spec, lambda v: k_statistics(v)[2])
            report.add_row(n, "k2_mc", k2, k2_se, spec.replications)
            report.add_row(n, "k3_mc", k3, k3_se, spec.replications)
            report.add_row(n, "k4_mc", k4, k4_se, spec.replications)
            mult = report.thresholds["se_multiple"]
            report.add_check(f"k3_match_n{n}", abs(k3 - rep.kappa3_exact), mult * k3_se, "<=",
                             note="Monte Carlo k3 within SE multiple of the exact value")
            report.add_check(f"k4_match_n{n}", abs(k4 - rep.kappa4_exact), mult * k4_se, "<=",
                             note="Monte Carlo k4 within SE multiple of the exact value")
            report.add_check(f"k2_unit_n{n}", abs(k2 - 1.0), mult * max(k2_se, 1e-12), "<=",
                             note="standardized statistic has unit variance")

    # One fitted constant per cumulant order, uniform over the whole grid.
    c3, c4 = max(ratios3[:n_fit]), max(ratios4[:n_fit])
    margin = report.thresholds["uniformity_margin"]
    report.regression = {"fitted_c3": c3, "fitted_c4": c4, "fit_grid_max_n": spec.grid[n_fit - 1]}
    report.add_check("kappa3_bound_uniform", max(ratios3), margin * c3, "<=",
                     note="kappa3 <= C3 * B3(n) with one constant fitted on small n")
    report.add_check("kappa4_bound_uniform", max(ratios4), margin * c4, "<=",
                     note="kappa4 <= C4 * B4(n) with one constant fitted on small n")
    return report


def run_rosenblatt(spec: ExperimentSpec) -> ExperimentReport:
    """Non-Gaussian limit for H > 3/4 (and the CLT control for H < 3/4)."""
    model = spec.model
    h = model.hurst
    noncentral = h > SUMMABLE_HURST
    report = spec.report(
        {"ks_floor": 0.03, "variance_ratio_max": 2.0} if noncentral else {"ks_max": 0.05}
    )

    trace_alpha = trace_q(model)
    variances = []
    ks_fit_values = []
    sq, _ = _stationary_moment_samples(spec, spec.grid, need_proj=False)
    for n, sums in zip(spec.grid, sq):
        centered_sum = sums - n * trace_alpha
        if noncentral:
            scaled = centered_sum / n ** (2.0 * h - 1.0)
        else:
            scaled = centered_sum / np.sqrt(n * s_infty_star(model, spec.dt).value)

        var, var_se = _batched_statistic(scaled, spec, np.var)
        variances.append(var)
        skew, skew_se = _batched_statistic(
            scaled, spec, lambda v: float(np.mean(((v - v.mean()) / v.std()) ** 3))
        )
        ks_fit, ks_fit_se = _batched_statistic(
            scaled, spec, lambda v: ks_distance((v - v.mean()) / v.std(ddof=0))
        )
        ks_fit_values.append(ks_fit)
        report.add_row(n, "variance", var, var_se, spec.replications)
        report.add_row(n, "skewness", skew, skew_se, spec.replications)
        report.add_row(n, "ks_to_fitted_normal", ks_fit, ks_fit_se, spec.replications)
        report.raw[f"scaled_n{n}"] = scaled
        if noncentral:
            report.add_check(f"skewness_positive_n{n}", skew, 3.0 * skew_se, ">=",
                             note="persistent positive skew rules out the normal limit")

    n_last = spec.grid[-1]
    if noncentral:
        report.add_check("ks_to_best_normal_floor", ks_fit_values[-1],
                         report.thresholds["ks_floor"], ">=",
                         note=f"mean/variance-fitted normal at n={n_last} (pilot floor)")
        for n, ks_fit in zip(spec.grid[:-1], ks_fit_values[:-1]):
            report.add_check(f"ks_to_best_normal_floor_n{n}", ks_fit,
                             report.thresholds["ks_floor"], ">=",
                             note="distance to every normal stays above the floor along the grid")
        if len(variances) >= 2:
            ratio = variances[-1] / variances[0]
            report.add_check("variance_stabilizes", ratio,
                             report.thresholds["variance_ratio_max"], "<=",
                             note="variance of the rescaled statistic does not diverge")
    else:
        z = report.raw[f"scaled_n{n_last}"]
        report.add_check("control_normality_ks", ks_distance(z),
                         report.thresholds["ks_max"], "<=",
                         note="CLT scaling passes normality in the H < 3/4 control")
    return report


def run_degenerate_projection(spec: ExperimentSpec) -> ExperimentReport:
    """Vanishing vs non-vanishing projected normalizers on one model."""
    model = spec.model
    report = spec.report({"qww_tol": 1e-12})
    tol = report.thresholds["qww_tol"]
    cand = qww1(model, spec.projection)
    report.add_row(0, "qww_candidate", cand.value)
    report.add_check("qww_candidate_degenerate", cand.value, tol, "<=",
                     note="projected normalizer vanishes for the degenerate pair")
    refused = False
    try:
        alpha_from_moment(1.0, cand, model.hurst, DISCRETE_PROJ)
    except DegenerateModelError:
        refused = True
    report.add_check("estimator_refuses", float(refused), 1.0, ">=",
                     note="projection estimator refuses on the degenerate normalizer")

    good = qww1(model, projection_indicator(*DEGENERATE_WINDOW, model.n_modes))
    report.add_row(0, "qww_window", good.value)
    report.add_check("qww_window_positive", good.value, tol, ">=",
                     note="window projection keeps the normalizer positive")
    report.add_row(0, "window_unit_ratio_estimate",
                   alpha_from_moment(good.value, good, model.hurst, DISCRETE_PROJ))
    return report


_RUNNERS = {
    "consistency": run_consistency,
    "moment_clt": run_moment_clt,
    "estimator_clt": run_estimator_clt,
    "cumulants": run_cumulants,
    "rosenblatt": run_rosenblatt,
    "degenerate_projection": run_degenerate_projection,
}


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    return _RUNNERS[spec.kind](spec)
