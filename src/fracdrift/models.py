"""Finite spectral truncations of the evolution-equation models.

A model is a drift coefficient ``alpha``, a Hurst parameter, a diagonalized
operator with eigenvalues ``lambda_1 <= ... <= lambda_N`` (Dirichlet basis on
the unit interval/cube) and a noise structure: per-mode loadings driven either
by independent scalar fractional Brownian motions (diagonal) or by a single
shared one (rank-one, e.g. a point source).  Mode ``k`` then evolves as a
scalar fractional Ornstein-Uhlenbeck process with rate ``a_k = alpha*lambda_k``
and loading ``phi_k``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fgn import validate_hurst

__all__ = [
    "SpectralOperator",
    "NoiseStructure",
    "ModelConfig",
    "ProjectionVector",
    "build_distributed_model",
    "build_pointwise_model",
    "projection_indicator",
    "projection_sine",
    "projection_from_coefficients",
    "model_to_dict",
    "model_from_dict",
    "positive_finite",
    "integer",
    "real",
    "seed_value",
]

DIAGONAL = "diagonal"
RANK_ONE = "rank_one"


def positive_finite(value, name: str):
    """Return ``value`` unchanged after checking ``0 < value < inf`` (NaN fails)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def integer(value, name: str) -> int:
    """Return ``value`` as an int after checking that it is an integer.

    Python and numpy integers pass, and so do floats of integral value (JSON
    may write 64 as 64.0).  Booleans, strings and non-integral numbers fail
    instead of being truncated: ``int(40.8)`` is 40 and ``int(True)`` is 1.
    """
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, (bool, np.bool_)) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real(value, name: str) -> float:
    """``float(value)`` for Python and numpy reals; booleans and strings fail
    instead of being cast (``float(True)`` and ``float("1")`` are 1.0)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def seed_value(value) -> int:
    """Return ``value`` as a random seed: an :func:`integer` that is not negative."""
    seed = integer(value, "seed")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return seed


@dataclass(frozen=True)
class SpectralOperator:
    """Eigenvalues (ascending, positive, units 1/time) and a basis descriptor."""

    eigenvalues: np.ndarray
    basis_id: str = "custom"

    def __post_init__(self) -> None:
        ev = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", ev)
        if ev.ndim != 1 or len(ev) < 1:
            raise ValueError("eigenvalues must be a non-empty vector")
        if not np.all((ev > 0) & (ev < np.inf)):
            raise ValueError("all eigenvalues must be positive and finite (exponential stability)")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be sorted ascending")


@dataclass(frozen=True)
class NoiseStructure:
    """Noise loadings; ``diagonal`` = independent scalar noises per mode, ``rank_one`` = one shared scalar noise."""

    kind: str
    loadings: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in (DIAGONAL, RANK_ONE):
            raise ValueError(f"noise kind must be '{DIAGONAL}' or '{RANK_ONE}', got {self.kind!r}")
        lo = np.asarray(self.loadings, dtype=float)
        object.__setattr__(self, "loadings", lo)
        if lo.ndim != 1 or len(lo) < 1:
            raise ValueError("loadings must be a non-empty vector")
        if not np.all(np.isfinite(lo)):
            raise ValueError("noise loadings must be finite")
        if not np.any(lo != 0.0):
            raise ValueError("noise loadings must not all vanish (drift not identifiable)")


@dataclass(frozen=True)
class ModelConfig:
    """Drift ``alpha`` (ground truth in simulation), Hurst parameter, operator and noise."""

    alpha: float
    hurst: float
    operator: SpectralOperator
    noise: NoiseStructure

    def __post_init__(self) -> None:
        positive_finite(self.alpha, "alpha")
        validate_hurst(self.hurst)
        if len(self.noise.loadings) != len(self.operator.eigenvalues):
            raise ValueError("loadings and eigenvalues must have equal length")

    @property
    def n_modes(self) -> int:
        return len(self.operator.eigenvalues)

    @property
    def rates(self) -> np.ndarray:
        """Per-mode drift rates ``a_k = alpha * lambda_k``."""
        return self.alpha * self.operator.eigenvalues

    def with_alpha(self, alpha: float) -> "ModelConfig":
        return ModelConfig(alpha=float(alpha), hurst=self.hurst, operator=self.operator, noise=self.noise)

    def cache_key(self) -> tuple:
        """Hashable identity of the model's numerical content."""
        return (
            float(self.alpha),
            float(self.hurst),
            self.noise.kind,
            tuple(map(float, self.operator.eigenvalues)),
            tuple(map(float, self.noise.loadings)),
        )


@dataclass(frozen=True)
class ProjectionVector:
    """Coordinates of an observation functional ``w`` in the eigenbasis."""

    coefficients: np.ndarray
    descriptor: str = "custom"

    def __post_init__(self) -> None:
        co = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", co)
        if co.ndim != 1 or len(co) < 1:
            raise ValueError("coefficients must be a non-empty vector")
        if not np.all(np.isfinite(co)):
            raise ValueError("coefficients must be finite")


def _laplacian_eigenvalues(d: int, m: int, n_modes: int) -> np.ndarray:
    """The ``n_modes`` smallest eigenvalues of (-Laplacian)^m with Dirichlet
    conditions on the unit cube (0,1)^d, ties broken lexicographically."""
    if d == 1:
        return (np.pi * np.arange(1, n_modes + 1)) ** (2 * m)
    # Enumerate multi-indices in a cube large enough to contain the n_modes
    # smallest values of sum(j_i^2).
    side = 2
    while side**d < n_modes + 1:
        side += 1
    while True:
        idx = list(itertools.product(range(1, side + 1), repeat=d))
        sq = [sum(j * j for j in t) for t in idx]
        order = sorted(range(len(idx)), key=lambda i: (sq[i], idx[i]))
        # Candidates with sum(j^2) <= side^2 + (d-1) are guaranteed complete.
        complete = side * side + (d - 1)
        safe = [i for i in order if sq[i] <= complete]
        if len(safe) >= n_modes:
            chosen = safe[:n_modes]
            return np.array([np.pi ** (2 * m) * sq[i] ** m for i in chosen])
        side += 1


def build_distributed_model(
    d: int,
    m: int,
    n_modes: int,
    alpha: float,
    hurst: float,
    loadings: float | np.ndarray = 1.0,
) -> ModelConfig:
    """Spectral truncation of the order-2m parabolic equation on (0,1)^d with
    space-distributed noise (independent scalar noises per eigenmode)."""
    d, m, n_modes = integer(d, "d"), integer(m, "m"), integer(n_modes, "n_modes")
    if d < 1 or m < 1:
        raise ValueError("d and m must be >= 1")
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    ev = _laplacian_eigenvalues(d, m, n_modes)
    lo = np.broadcast_to(np.asarray(loadings, dtype=float), (n_modes,)).copy()
    return ModelConfig(
        alpha=real(alpha, "alpha"),
        hurst=real(hurst, "hurst"),
        operator=SpectralOperator(ev, basis_id=f"dirichlet-sine d={d} m={m}"),
        noise=NoiseStructure(DIAGONAL, lo),
    )


def build_pointwise_model(y: float, n_modes: int, alpha: float, hurst: float) -> ModelConfig:
    """Heat equation on (0,1) forced by a single scalar noise at the point ``y``.

    Loadings are the point evaluations ``phi_k = sqrt(2) sin(k pi y)`` of the
    Dirichlet sine basis; all modes share one driving noise (rank-one).
    """
    y = real(y, "y")
    if not 0.0 < y < 1.0:
        raise ValueError("source location y must lie strictly inside (0, 1)")
    k = np.arange(1, integer(n_modes, "n_modes") + 1)
    return ModelConfig(
        alpha=real(alpha, "alpha"),
        hurst=real(hurst, "hurst"),
        operator=SpectralOperator((np.pi * k) ** 2.0, basis_id="dirichlet-sine d=1 m=1"),
        noise=NoiseStructure(RANK_ONE, np.sqrt(2.0) * np.sin(k * np.pi * y)),
    )


def projection_indicator(a: float, b: float, n_modes: int) -> ProjectionVector:
    """Observation window ``w = 1_[a,b]`` in basis coordinates.

    Closed form: ``w_k = (sqrt(2)/(k pi)) (cos(k pi a) - cos(k pi b))``.
    """
    a, b = real(a, "a"), real(b, "b")
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1 (non-empty window)")
    k = np.arange(1, int(n_modes) + 1)
    w = np.sqrt(2.0) / (k * np.pi) * (np.cos(k * np.pi * a) - np.cos(k * np.pi * b))
    return ProjectionVector(w, descriptor=f"indicator[{a},{b}]")


def projection_sine(mode: int, n_modes: int) -> ProjectionVector:
    """The function ``sin(j pi xi)`` as a projection vector: ``1/sqrt(2)`` on mode ``j``."""
    mode = integer(mode, "mode")
    if not 1 <= mode <= n_modes:
        raise ValueError(f"mode must be in 1..{n_modes}")
    w = np.zeros(int(n_modes))
    w[mode - 1] = 1.0 / np.sqrt(2.0)
    return ProjectionVector(w, descriptor=f"sine-mode-{mode}")


def projection_from_coefficients(values: np.ndarray) -> ProjectionVector:
    return ProjectionVector(np.asarray(values, dtype=float), descriptor="coefficients")


# --------------------------------------------------------------------------
# JSON-facing (de)serialization; strict about unknown keys.
# --------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"missing keys in {where}: {sorted(missing)}")


def model_to_dict(model: ModelConfig) -> dict:
    return {
        "kind": "custom",
        "alpha": float(model.alpha),
        "hurst": float(model.hurst),
        "eigenvalues": [float(v) for v in model.operator.eigenvalues],
        "noise": {
            "kind": model.noise.kind,
            "loadings": [float(v) for v in model.noise.loadings],
        },
        "basis_id": model.operator.basis_id,
    }


def model_from_dict(obj: dict) -> ModelConfig:
    if not isinstance(obj, dict):
        raise ValueError("model spec must be an object")
    kind = obj.get("kind")
    if kind == "distributed":
        _require_keys(
            obj,
            {"kind", "d", "m", "n_modes", "alpha", "hurst", "loadings"},
            {"kind", "d", "m", "n_modes", "alpha", "hurst"},
            "model",
        )
        return build_distributed_model(
            obj["d"], obj["m"], obj["n_modes"], obj["alpha"], obj["hurst"],
            loadings=np.asarray(obj.get("loadings", 1.0), dtype=float),
        )
    if kind == "pointwise":
        _require_keys(obj, {"kind", "y", "n_modes", "alpha", "hurst"},
                      {"kind", "y", "n_modes", "alpha", "hurst"}, "model")
        return build_pointwise_model(obj["y"], obj["n_modes"], obj["alpha"], obj["hurst"])
    if kind == "custom":
        _require_keys(
            obj,
            {"kind", "alpha", "hurst", "eigenvalues", "noise", "basis_id"},
            {"kind", "alpha", "hurst", "eigenvalues", "noise"},
            "model",
        )
        noise = obj["noise"]
        _require_keys(noise, {"kind", "loadings"}, {"kind", "loadings"}, "model.noise")
        return ModelConfig(
            alpha=real(obj["alpha"], "alpha"),
            hurst=real(obj["hurst"], "hurst"),
            operator=SpectralOperator(
                np.asarray(obj["eigenvalues"], dtype=float),
                basis_id=str(obj.get("basis_id", "custom")),
            ),
            noise=NoiseStructure(noise["kind"], np.asarray(noise["loadings"], dtype=float)),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def projection_from_dict(obj: dict, n_modes: int) -> ProjectionVector:
    if not isinstance(obj, dict):
        raise ValueError("projection spec must be an object")
    kind = obj.get("kind")
    if kind == "indicator":
        _require_keys(obj, {"kind", "a", "b"}, {"kind", "a", "b"}, "projection")
        return projection_indicator(obj["a"], obj["b"], n_modes)
    if kind == "sine_mode":
        _require_keys(obj, {"kind", "mode"}, {"kind", "mode"}, "projection")
        return projection_sine(obj["mode"], n_modes)
    if kind == "coefficients":
        _require_keys(obj, {"kind", "values"}, {"kind", "values"}, "projection")
        values = np.asarray(obj["values"], dtype=float)
        if len(values) != n_modes:
            raise ValueError("projection coefficients must match the model truncation")
        return projection_from_coefficients(values)
    raise ValueError(f"unknown projection kind {kind!r}")

