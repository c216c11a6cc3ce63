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

All randomness derives from per-(experiment, grid point, batch, mode)
substreams, so reports are byte-identical regardless of worker count.
Monte Carlo standard errors are computed by batching (>= 20 batches), and all
pass/fail thresholds are recorded in the report next to the observed values.
"""

from __future__ import annotations

import json
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
from .covariance import s_infty_star, trace_q
from .estimators import (
    DISCRETE_NORM,
    DISCRETE_PROJ,
    DegenerateModelError,
    alpha_from_moment,
    asymptotic_sigma,
    qww1,
    trace_q1,
)
from .models import ModelConfig, ProjectionVector, projection_indicator
from .simulate import StationaryModeSampler, TrajectoryGrid, integrate_path

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


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run; the runners read its
    fields as cast here (``grid`` a tuple of ints, counts int, steps float)."""

    kind: str
    model: ModelConfig
    grid: tuple
    replications: int
    seed: int
    estimators: tuple = (DISCRETE_NORM,)
    projection: ProjectionVector | None = None
    dt: float = 1.0
    source: str = "stationary"      # "stationary" (exact) or "integrator"
    sim_dt: float = 0.01            # integrator internal step
    n_batches: int = 20
    threads: int = 1
    mc_cumulant_max_n: int = 64
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        casts = {"grid": lambda g: tuple(int(n) for n in g), "replications": int,
                 "n_batches": int, "mc_cumulant_max_n": int, "dt": float,
                 "sim_dt": float, "estimators": tuple, "thresholds": dict}
        for name, cast in casts.items():
            object.__setattr__(self, name, cast(getattr(self, name)))
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.grid or any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be non-empty and strictly increasing")
        if self.n_batches < 1:
            raise ValueError("n_batches must be >= 1")
        if self.source not in ("stationary", "integrator"):
            raise ValueError("source must be 'stationary' or 'integrator'")
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

    def to_json_dict(self, include_raw: bool = False) -> dict:
        out = {
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
        if include_raw:
            out["raw"] = {k: [float(v) for v in vals] for k, vals in self.raw.items()}
        return out

    def to_json(self, include_raw: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_raw), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        lines = ["grid,statistic,value,mc_se,n_reps"]
        for r in self.rows:
            se = "" if r.mc_se is None else repr(r.mc_se)
            lines.append(f"{repr(r.grid)},{r.statistic},{repr(r.value)},{se},{r.n_reps}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Shared sampling machinery.
# --------------------------------------------------------------------------

def _batches(spec: ExperimentSpec) -> list[slice]:
    """Replication columns of each batch; sizes differ by at most one, longer first."""
    n_batches = min(spec.n_batches, spec.replications)
    base, extra = divmod(spec.replications, n_batches)
    bounds = [b * base + min(b, extra) for b in range(n_batches + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_tasks(task, n_tasks: int, threads: int) -> None:
    """Call ``task(i)`` for ``i < n_tasks``, on a pool when ``threads > 1``."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(task, range(n_tasks)))
    else:
        for i in range(n_tasks):
            task(i)


def _stationary_moment_samples(
    spec: ExperimentSpec,
    n: int,
    grid_index: int,
    need_proj: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact stationary draws aggregated to (sq_norms, projections).

    Returns arrays of shape (n, replications); column r is replication r.
    Deterministic in (seed, kind, grid_index, batch, sequence) regardless of
    the thread count: each task is one batch, which owns its columns and adds
    the modes in order.
    """
    tag = _TAGS[spec.kind]
    batches = _batches(spec)
    sq = np.zeros((n, spec.replications))
    proj = np.zeros((n, spec.replications)) if need_proj else None
    coeffs = spec.projection.coefficients if need_proj else None
    sampler = StationaryModeSampler(spec.model, n, spec.dt)
    for s in range(sampler.n_sequences):
        sampler.factor(s)  # factor once before any parallel draws

    def add_sequence(b: int, s: int) -> None:
        # A function of its own, so one draw is freed before the next.
        cols = batches[b]
        n_reps = cols.stop - cols.start
        x = sampler.draw(s, substream(spec.seed, tag, grid_index, b, s), n_reps)
        # Mode s + c: diagonal noise has one mode per sequence, rank-one
        # noise a single sequence of all modes.
        for c, mode in enumerate(x.reshape(-1, n, n_reps)):
            sq[:, cols] += mode * mode
            if proj is not None:
                proj[:, cols] += coeffs[s + c] * mode

    def batch(b: int) -> None:
        for s in range(sampler.n_sequences):
            add_sequence(b, s)

    _run_tasks(batch, len(batches), spec.threads)
    return sq, proj


def _batched_statistic(values: np.ndarray, spec: ExperimentSpec, stat) -> tuple[float, float]:
    """(full-sample statistic, batch-spread standard error)."""
    full = float(stat(values))
    batches = _batches(spec)
    if len(batches) < 2:
        return full, float("nan")
    parts = [stat(values[sl]) for sl in batches]
    return full, float(np.std(parts, ddof=1) / np.sqrt(len(parts)))


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
    for gi, n in enumerate(spec.grid):
        sq, _ = _stationary_moment_samples(spec, n, gi, need_proj=False)
        standardized = np.sqrt(n) * (sq.mean(axis=0) - trace_alpha) / np.sqrt(s_star)
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
        report.regression = {
            "statistic": "ks_distance", "slope": slope, "intercept": intercept,
            "r_squared": r2, "slope_se": slope_se,
        }
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
        targets[DISCRETE_NORM] = (
            trace_q1(model), asymptotic_sigma(model, DISCRETE_NORM, None, spec.dt)
        )
    if want_proj:
        targets[DISCRETE_PROJ] = (
            qww1(model, spec.projection),
            asymptotic_sigma(model, DISCRETE_PROJ, spec.projection, spec.dt),
        )

    for gi, n in enumerate(spec.grid):
        sq, proj = _stationary_moment_samples(spec, n, gi, need_proj=want_proj)
        for name, (normalizer, sigma) in targets.items():
            # No name holds proj**2: freeing it before the next grid point's
            # draws raises glibc's mmap threshold, which keeps them off mmap.
            moments = (sq if name == DISCRETE_NORM else proj**2).mean(axis=0)
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

    n_max = spec.grid[-1]
    if spec.source == "stationary":
        sq, proj = _stationary_moment_samples(spec, n_max, 0, need_proj=want_proj)
    else:
        sq, proj = _integrated_moment_samples(spec, n_max, want_proj)

    cum_sq = np.cumsum(sq, axis=0)
    cum_pr = np.cumsum(proj**2, axis=0) if want_proj else None
    medians: dict[str, list[float]] = {}
    for n in spec.grid:
        rows = [(DISCRETE_NORM, cum_sq[n - 1] / n, trace1)]
        if want_proj:
            rows.append((DISCRETE_PROJ, cum_pr[n - 1] / n, qw1))
        for name, moments, normalizer in rows:
            alphas = alpha_from_moment(moments, normalizer, model.hurst, name)
            err = np.abs(alphas - model.alpha)
            med = float(np.median(err))
            q1, q3 = np.percentile(err, [25, 75])
            report.add_row(n, f"{name}_median_abs_error", med,
                           float(1.2533 * err.std(ddof=1) / np.sqrt(len(err))),
                           spec.replications)
            report.add_row(n, f"{name}_iqr_abs_error", float(q3 - q1), None, spec.replications)
            medians.setdefault(name, []).append(med)

    for name, meds in medians.items():
        decreasing = all(b < a for a, b in zip(meds, meds[1:]))
        report.add_check(f"{name}_median_strictly_decreasing", float(decreasing), 1.0, ">=",
                         note=f"medians over grid: {[round(m, 5) for m in meds]}")
        report.add_check(f"{name}_final_median_error", meds[-1],
                         report.thresholds["max_median_error"], "<=",
                         note="threshold from pilot Monte Carlo standard-error budget")
    return report


def _integrated_moment_samples(
    spec: ExperimentSpec, n_obs: int, want_proj: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exponential-Euler replications observed at unit spacing ``spec.dt``."""
    model = spec.model
    observe_every = max(int(round(spec.dt / spec.sim_dt)), 1)
    sim_dt = spec.dt / observe_every
    grid = TrajectoryGrid(sim_dt, n_obs * observe_every, 0)
    sq = np.empty((n_obs, spec.replications))
    proj = np.empty((n_obs, spec.replications)) if want_proj else None
    coeffs = spec.projection.coefficients if want_proj else None
    tag = _TAGS[spec.kind]

    def one(rep: int) -> None:
        traj = integrate_path(
            model, grid, "burn_in",
            seed=int(substream(spec.seed, tag, rep).integers(2**63)),
            store_modes=want_proj, observe_every=observe_every,
        )
        sq[:, rep] = traj.sq_norms[1:]
        if want_proj:
            proj[:, rep] = coeffs @ traj.modes[:, 1:]

    _run_tasks(one, spec.replications, spec.threads)
    return sq, proj


def run_cumulants(spec: ExperimentSpec) -> ExperimentReport:
    """Exact cumulants vs bound shapes vs Monte Carlo k-statistics."""
    model = spec.model
    report = spec.report({"se_multiple": 4.0, "uniformity_margin": 1.5})
    ratios3, ratios4, fit3, fit4 = [], [], [], []
    fit_cut = spec.grid[len(spec.grid) // 2]
    for gi, n in enumerate(spec.grid):
        rep = exact_cumulants(model, n, spec.dt)
        report.add_row(n, "kappa3_exact", rep.kappa3_exact)
        report.add_row(n, "kappa4_exact", rep.kappa4_exact)
        report.add_row(n, "kappa3_bound_shape", rep.kappa3_bound_shape)
        report.add_row(n, "kappa4_bound_shape", rep.kappa4_bound_shape)
        report.add_row(n, "s_n", rep.s_n)
        r3 = rep.kappa3_exact / rep.kappa3_bound_shape
        r4 = rep.kappa4_exact / rep.kappa4_bound_shape
        ratios3.append(r3)
        ratios4.append(r4)
        if n <= fit_cut:
            fit3.append(r3)
            fit4.append(r4)

        if n <= spec.mc_cumulant_max_n:
            sq, _ = _stationary_moment_samples(spec, n, gi, need_proj=False)
            f = (sq.sum(axis=0) - n * trace_q(model)) / np.sqrt(n * rep.s_n)
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
    c3 = max(fit3) if fit3 else max(ratios3)
    c4 = max(fit4) if fit4 else max(ratios4)
    margin = report.thresholds["uniformity_margin"]
    report.regression = {"fitted_c3": c3, "fitted_c4": c4, "fit_grid_max_n": fit_cut}
    report.add_check("kappa3_bound_uniform", max(ratios3), margin * c3, "<=",
                     note="kappa3 <= C3 * B3(n) with one constant fitted on small n")
    report.add_check("kappa4_bound_uniform", max(ratios4), margin * c4, "<=",
                     note="kappa4 <= C4 * B4(n) with one constant fitted on small n")
    return report


def run_rosenblatt(spec: ExperimentSpec) -> ExperimentReport:
    """Non-Gaussian limit for H > 3/4 (and the CLT control for H < 3/4)."""
    model = spec.model
    h = model.hurst
    noncentral = h > 0.75
    report = spec.report(
        {"ks_floor": 0.03, "variance_ratio_max": 2.0} if noncentral else {"ks_max": 0.05}
    )

    trace_alpha = trace_q(model)
    variances = []
    ks_fit_values = []
    for gi, n in enumerate(spec.grid):
        sq, _ = _stationary_moment_samples(spec, n, gi, need_proj=False)
        centered_sum = sq.sum(axis=0) - n * trace_alpha
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
