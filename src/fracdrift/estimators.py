"""Minimum-contrast drift estimators and their asymptotic standardization.

All four estimators invert the ergodic identity
``sample second moment = alpha^{-2H} * normalizer`` for ``alpha``, where the
normalizer is the drift-1 stationary trace (norm observations) or quadratic
form ``<Q w, w>`` (projected observations):

    estimate = ( moment / normalizer )^{-1/(2H)}.

Continuous-time variants replace the sample mean by a trapezoidal time
average.  Standardizing constants for the central limit theorems are

    gamma = alpha^{1+2H} / (2H * trace),   delta = alpha^{1+2H} / (2H * <Qw,w>),
    sigma_1 = gamma * sqrt(s_inf*),        sigma_2 = gamma * sqrt(u_inf*),
    sigma_3 = delta * sqrt(2 sum r_z(i)^2), sigma_4 = delta * sqrt(2 int r_z^2),

with the variance factors evaluated at the true drift and the normalizers at
drift 1.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .covariance import (
    qww,
    r_z_integral,
    r_z_sum,
    s_infty_star,
    trace_q,
    trace_tail_ratio,
    u_infty_star,
)
from .models import ModelConfig, ProjectionVector
from .simulate import Trajectory

__all__ = [
    "DEGENERACY_TOL",
    "DegenerateModelError",
    "Normalizer",
    "EstimateReport",
    "AsymptoticConstants",
    "trace_q1",
    "qww1",
    "alpha_check_discrete",
    "alpha_hat_continuous",
    "alpha_bar_discrete",
    "alpha_tilde_continuous",
    "asymptotic_sigma",
    "asymptotic_constants",
]

DEGENERACY_TOL = 1e-12

DISCRETE_NORM = "discrete_norm"
CONTINUOUS_NORM = "continuous_norm"
DISCRETE_PROJ = "discrete_projection"
CONTINUOUS_PROJ = "continuous_projection"


class DegenerateModelError(ValueError):
    """The normalizer vanishes: the drift is not identifiable from these data."""


class Normalizer(NamedTuple):
    value: float
    degenerate: bool


@dataclass(frozen=True)
class EstimateReport:
    """A point estimate with the quantities needed to standardize it."""

    kind: str
    alpha_hat: float
    sample_size: float           # n for discrete kinds, horizon T for continuous
    normalizer: float            # drift-1 trace or <Q w, w>
    hurst: float
    truncation_tail_ratio: float | None = None
    sigma_asymptotic: float | None = None
    standardized_error: float | None = None

    def to_json(self) -> str:
        payload = {"schema_version": 1}
        payload.update(asdict(self))
        return json.dumps(payload, sort_keys=True, indent=2)


def trace_q1(model: ModelConfig) -> Normalizer:
    """Stationary trace at drift 1; flagged degenerate below ``DEGENERACY_TOL``."""
    value = trace_q(model.with_alpha(1.0))
    return Normalizer(value=value, degenerate=value < DEGENERACY_TOL)


def qww1(model: ModelConfig, w: ProjectionVector) -> Normalizer:
    """Quadratic form ``<Q w, w>`` at drift 1; flagged degenerate when ~0."""
    value = qww(model.with_alpha(1.0), w)
    return Normalizer(value=value, degenerate=value < DEGENERACY_TOL)


def _invert_moment(moment, normalizer: Normalizer, hurst: float, kind: str):
    """``(moment / normalizer)^{-1/(2H)}`` for a float or an array of moments."""
    if normalizer.degenerate:
        raise DegenerateModelError(
            f"{kind}: normalizer {normalizer.value:.3g} below {DEGENERACY_TOL}; "
            "the drift parameter cannot be estimated"
        )
    if np.any(moment <= 0):
        raise ValueError(
            f"{kind}: sample second moment must be positive, got {np.min(moment):.3g}"
        )
    return (moment / normalizer.value) ** (-1.0 / (2.0 * hurst))


def alpha_check_discrete(sq_norms: np.ndarray, normalizer: Normalizer, hurst: float) -> EstimateReport:
    """Discrete-observation estimator from squared norms at unit-spaced times."""
    sq = np.asarray(sq_norms, dtype=float)
    if sq.ndim != 1 or len(sq) < 1:
        raise ValueError("need a non-empty vector of squared norms")
    moment = float(np.mean(sq))
    return EstimateReport(
        kind=DISCRETE_NORM,
        alpha_hat=_invert_moment(moment, normalizer, hurst, DISCRETE_NORM),
        sample_size=len(sq),
        normalizer=normalizer.value,
        hurst=float(hurst),
    )


def alpha_hat_continuous(traj: Trajectory, normalizer: Normalizer, hurst: float) -> EstimateReport:
    """Continuous-time estimator: trapezoidal time average of ``|X|^2``."""
    horizon = float(traj.t[-1] - traj.t[0])
    if horizon <= 0:
        raise ValueError("trajectory must span a positive horizon")
    moment = float(np.trapezoid(traj.sq_norms, traj.t) / horizon)
    return EstimateReport(
        kind=CONTINUOUS_NORM,
        alpha_hat=_invert_moment(moment, normalizer, hurst, CONTINUOUS_NORM),
        sample_size=horizon,
        normalizer=normalizer.value,
        hurst=float(hurst),
    )


def alpha_bar_discrete(projections: np.ndarray, normalizer: Normalizer, hurst: float) -> EstimateReport:
    """Discrete-observation estimator from a one-dimensional projection."""
    proj = np.asarray(projections, dtype=float)
    if proj.ndim != 1 or len(proj) < 1:
        raise ValueError("need a non-empty vector of projections")
    moment = float(np.mean(proj**2))
    return EstimateReport(
        kind=DISCRETE_PROJ,
        alpha_hat=_invert_moment(moment, normalizer, hurst, DISCRETE_PROJ),
        sample_size=len(proj),
        normalizer=normalizer.value,
        hurst=float(hurst),
    )


def alpha_tilde_continuous(traj: Trajectory, normalizer: Normalizer, hurst: float) -> EstimateReport:
    """Continuous-time projection estimator (trapezoidal time average)."""
    if traj.projections is None:
        raise ValueError("trajectory carries no projections")
    horizon = float(traj.t[-1] - traj.t[0])
    if horizon <= 0:
        raise ValueError("trajectory must span a positive horizon")
    moment = float(np.trapezoid(traj.projections**2, traj.t) / horizon)
    return EstimateReport(
        kind=CONTINUOUS_PROJ,
        alpha_hat=_invert_moment(moment, normalizer, hurst, CONTINUOUS_PROJ),
        sample_size=horizon,
        normalizer=normalizer.value,
        hurst=float(hurst),
    )


@dataclass(frozen=True)
class AsymptoticConstants:
    """Delta-method factors and CLT standard deviations for the estimators."""

    gamma_alpha: float
    sigma1: float
    sigma2: float
    delta_alpha: float | None = None
    sigma3: float | None = None
    sigma4: float | None = None


def _drift_scales(model: ModelConfig, w: ProjectionVector | None) -> tuple[float, float | None]:
    """Delta-method factors ``(gamma, delta)``; ``delta`` is None without ``w``.

    Runs the cheap checks (H < 3/4, then the trace and ``<Q w, w>``
    degeneracy) before any series evaluation.
    """
    if model.hurst >= 0.75:
        raise ValueError("asymptotic constants exist only for H < 3/4")
    alpha, h = model.alpha, model.hurst
    trace1 = trace_q(model.with_alpha(1.0))
    if trace1 < DEGENERACY_TOL:
        raise DegenerateModelError("stationary trace vanishes; constants undefined")
    delta = None
    if w is not None:
        qw1 = qww(model.with_alpha(1.0), w)
        if qw1 < DEGENERACY_TOL:
            raise DegenerateModelError("projected normalizer vanishes; constants undefined")
        delta = alpha ** (1.0 + 2.0 * h) / (2.0 * h * qw1)
    return alpha ** (1.0 + 2.0 * h) / (2.0 * h * trace1), delta


#: The variance limit behind each estimator's CLT standard deviation.
_VARIANCE_LIMITS = {
    DISCRETE_NORM: lambda model, w, dt: s_infty_star(model, dt),
    CONTINUOUS_NORM: lambda model, w, dt: u_infty_star(model),
    DISCRETE_PROJ: lambda model, w, dt: r_z_sum(model, w, dt),
    CONTINUOUS_PROJ: lambda model, w, dt: r_z_integral(model, w),
}


def asymptotic_sigma(
    model: ModelConfig,
    kind: str,
    w: ProjectionVector | None = None,
    dt: float = 1.0,
) -> float:
    """CLT standard deviation of one estimator kind at the model's drift.

    Evaluates only the variance limit that ``kind`` needs; projection kinds
    need ``w``.  The drift is the simulation ground truth; for data-only
    use, pass a model carrying a plug-in estimate.
    """
    if kind not in _VARIANCE_LIMITS:
        raise ValueError(f"no asymptotic sigma available for kind {kind!r}")
    gamma, delta = _drift_scales(model, w)
    projected = kind in (DISCRETE_PROJ, CONTINUOUS_PROJ)
    if projected and w is None:
        raise ValueError(f"{kind}: asymptotic sigma needs a projection")
    scale = delta if projected else gamma
    return scale * float(np.sqrt(_VARIANCE_LIMITS[kind](model, w, dt).value))


def asymptotic_constants(
    model: ModelConfig,
    w: ProjectionVector | None = None,
    dt: float = 1.0,
) -> AsymptoticConstants:
    """All CLT constants at the model's drift (H < 3/4 required); the sigmas
    are those of :func:`asymptotic_sigma`."""
    gamma, delta = _drift_scales(model, w)
    projected = w is not None
    return AsymptoticConstants(
        gamma_alpha=gamma,
        sigma1=asymptotic_sigma(model, DISCRETE_NORM, w, dt),
        sigma2=asymptotic_sigma(model, CONTINUOUS_NORM, w, dt),
        delta_alpha=delta,
        sigma3=asymptotic_sigma(model, DISCRETE_PROJ, w, dt) if projected else None,
        sigma4=asymptotic_sigma(model, CONTINUOUS_PROJ, w, dt) if projected else None,
    )


def finish_report(
    report: EstimateReport,
    model: ModelConfig,
    sigma: float | None,
    true_alpha: float | None,
) -> EstimateReport:
    """Fill in diagnostics (truncation tail, sigma, standardized error)."""
    std_err = None
    if sigma is not None and true_alpha is not None:
        std_err = float(np.sqrt(report.sample_size) * (report.alpha_hat - true_alpha) / sigma)
    from dataclasses import replace

    return replace(
        report,
        truncation_tail_ratio=trace_tail_ratio(model.with_alpha(1.0)),
        sigma_asymptotic=sigma,
        standardized_error=std_err,
    )
