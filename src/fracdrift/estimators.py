"""Minimum-contrast drift estimators and their asymptotic standardization.

The paper's four estimators -- from squared norms or from a projection,
observed at unit-spaced times or in continuous time -- are one
:func:`estimate`.  Each inverts the ergodic identity
``moment = alpha^{-2H} * normalizer`` (:func:`alpha_from_moment`):

    estimate = ( moment / normalizer )^{-1/(2H)},

where the moment is the sample mean (discrete kinds) or the trapezoidal time
average (continuous kinds) of the squared observations, and the normalizer
is the drift-1 stationary trace (norms) or quadratic form ``<Q w, w>``
(projections).  Standardizing constants for the central limit theorems are

    gamma = alpha^{1+2H} / (2H * trace),   delta = alpha^{1+2H} / (2H * <Qw,w>),
    sigma_1 = gamma * sqrt(s_inf*),        sigma_2 = gamma * sqrt(u_inf*),
    sigma_3 = delta * sqrt(2 sum r_z(i)^2), sigma_4 = delta * sqrt(2 int r_z^2),

with the variance factors evaluated at the true drift and the normalizers at
drift 1.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .covariance import (
    SUMMABLE_HURST,
    qww,
    r_z_integral,
    r_z_sum,
    s_infty_star,
    trace_q,
    trace_tail_ratio,
    u_infty_star,
)
from .models import ModelConfig, ProjectionVector

__all__ = [
    "DEGENERACY_TOL",
    "DegenerateModelError",
    "Normalizer",
    "EstimateReport",
    "trace_q1",
    "qww1",
    "alpha_from_moment",
    "estimate",
    "drift_scales",
    "asymptotic_sigma",
    "finish_report",
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


def alpha_from_moment(moment, normalizer: Normalizer, hurst: float, kind: str):
    """``(moment / normalizer)^{-1/(2H)}`` for a float or an array of moments."""
    if normalizer.degenerate:
        raise DegenerateModelError(
            f"{kind}: normalizer {normalizer.value:.3g} below {DEGENERACY_TOL}; "
            "the drift parameter cannot be estimated"
        )
    if not np.all(np.isfinite(moment) & (moment > 0)):
        raise ValueError(
            f"{kind}: sample second moment must be finite and positive, "
            f"got {np.min(moment):.3g}"
        )
    return (moment / normalizer.value) ** (-1.0 / (2.0 * hurst))


def estimate(kind: str, values: np.ndarray, t: np.ndarray | None, normalizer: Normalizer,
             hurst: float) -> EstimateReport:
    """Minimum-contrast estimate of one kind from squared observations.

    ``values`` holds ``|X(t_i)|^2`` (norm kinds) or ``<X(t_i), w>^2``
    (projection kinds).  Discrete kinds take their sample mean and ignore
    ``t``; continuous kinds take their trapezoidal time average over ``t``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 1:
        raise ValueError("need a non-empty vector of squared observations")
    if kind in (DISCRETE_NORM, DISCRETE_PROJ):
        sample_size = len(values)
        moment = float(np.mean(values))
    elif kind in (CONTINUOUS_NORM, CONTINUOUS_PROJ):
        sample_size = float(t[-1] - t[0])
        if sample_size <= 0:
            raise ValueError("trajectory must span a positive horizon")
        moment = float(np.trapezoid(values, t) / sample_size)
    else:
        raise ValueError(f"unknown estimator kind {kind!r}")
    return EstimateReport(
        kind=kind,
        alpha_hat=alpha_from_moment(moment, normalizer, hurst, kind),
        sample_size=sample_size,
        normalizer=normalizer.value,
        hurst=float(hurst),
    )


def _drift_scale(model: ModelConfig, normalizer: Normalizer, what: str) -> float:
    if normalizer.degenerate:
        raise DegenerateModelError(f"{what} vanishes; constants undefined")
    return model.alpha ** (1.0 + 2.0 * model.hurst) / (2.0 * model.hurst * normalizer.value)


def drift_scales(model: ModelConfig,
                 w: ProjectionVector | None = None) -> tuple[float, float | None]:
    """Delta-method factors ``(gamma, delta)``; ``delta`` is None without ``w``.

    Runs the cheap checks (H < 3/4, then the trace and ``<Q w, w>``
    degeneracy) before any series evaluation.
    """
    if model.hurst >= SUMMABLE_HURST:
        raise ValueError("asymptotic constants exist only for H < 3/4")
    gamma = _drift_scale(model, trace_q1(model), "stationary trace")
    if w is None:
        return gamma, None
    return gamma, _drift_scale(model, qww1(model, w), "projected normalizer")


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
    gamma, delta = drift_scales(model, w)
    projected = kind in (DISCRETE_PROJ, CONTINUOUS_PROJ)
    if projected and w is None:
        raise ValueError(f"{kind}: asymptotic sigma needs a projection")
    scale = delta if projected else gamma
    return scale * float(np.sqrt(_VARIANCE_LIMITS[kind](model, w, dt).value))


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
    return replace(
        report,
        truncation_tail_ratio=trace_tail_ratio(model.with_alpha(1.0)),
        sigma_asymptotic=sigma,
        standardized_error=std_err,
    )
