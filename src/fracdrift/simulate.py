"""Trajectory generation: integrated paths and exact stationary samples.

Two sources of trajectories with different roles:

* :func:`integrate_path` -- per-mode exponential-Euler recursion
  ``x_k(t_{j+1}) = e^{-a_k dt} x_k(t_j) + phi_k dB_j^k`` driven by exact fGN
  increments.  The scheme applies the semigroup to the state but adds the bare
  noise increment, so it carries an O(dt) weak bias at fixed step size; it is
  the tool for transient/consistency studies where the bias vanishes under
  grid refinement.
* :func:`sample_stationary_sequence` -- an exact draw of the stationary
  solution at the observation times from the circulant engine of
  :mod:`fracdrift.fgn`, fed with the autocovariance table read as block
  sequences: one scalar sequence per mode for diagonal noise, one sequence
  of N-vectors for rank-one noise.  Bias-free; the default source for
  distribution-level experiments.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from ._rng import substream
from .covariance import lag_blocks
from .fgn import _dense_factor  # noqa: F401  (bench/layers.py times the fallback here)
from .fgn import sample_fgn, stationary_draw, stationary_factor, validate_hurst
from .models import DIAGONAL, ModelConfig, ProjectionVector

__all__ = [
    "TrajectoryGrid",
    "Trajectory",
    "default_burn_in_steps",
    "integrate_path",
    "StationaryModeSampler",
    "sample_stationary_sequence",
    "attach_projection",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "trajectory_to_npz",
    "trajectory_from_npz",
]

#: Cache format version for the binary trajectory format.
NPZ_FORMAT_VERSION = 1

_FGN_STREAM = 0x0F61
_STATIONARY_STREAM = 0x57A7


@dataclass(frozen=True)
class TrajectoryGrid:
    """Observation grid: step ``dt``, ``n_steps`` steps, discarded burn-in."""

    dt: float
    n_steps: int
    burn_in_steps: int = 0

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.burn_in_steps < 0:
            raise ValueError("burn_in_steps must be >= 0")

    @property
    def horizon(self) -> float:
        return self.dt * self.n_steps


@dataclass(frozen=True)
class Trajectory:
    """Observed path: times, squared norms, optional projections and modes."""

    grid: TrajectoryGrid
    t: np.ndarray
    sq_norms: np.ndarray
    init_kind: str
    projections: np.ndarray | None = None
    modes: np.ndarray | None = None  # shape (N, len(t))


def default_burn_in_steps(model: ModelConfig, dt: float) -> int:
    """Steps covering 20 relaxation times of the slowest mode
    (residual initial-condition correlation ~ e^{-20})."""
    a1 = float(model.rates[0])
    return int(math.ceil(20.0 / (a1 * dt)))


def _mode_increments(model: ModelConfig, n: int, seed: int) -> np.ndarray:
    """Unit-step fGN drivers, shape (N, n).

    Diagonal noise: one independent stream per mode.  Rank-one noise: a single
    shared stream replicated across modes (the loadings are applied later).
    """
    h = model.hurst
    if model.noise.kind == DIAGONAL:
        rows = [
            sample_fgn(h, n, 0, rng=substream(seed, _FGN_STREAM, k))
            for k in range(model.n_modes)
        ]
        return np.vstack(rows)
    shared = sample_fgn(h, n, 0, rng=substream(seed, _FGN_STREAM, 0))
    return np.broadcast_to(shared, (model.n_modes, n))


#: Block length of :func:`_ar1_scan`.
SCAN_BLOCK = 64


def _ar1_scan(u: np.ndarray, rho: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """States ``y[k, j] = rho[k] y[k, j-1] + u[k, j]``, ``y[k, -1] = x0[k]``.

    ``u`` has shape (K, n): K independent AR(1) recursions.  The sequence is
    cut into blocks of ``B = SCAN_BLOCK`` steps (plus one spare block for the
    remainder) and held as columns, shape (B, K, blocks), so that each numpy
    call advances every mode and every block by one step.  Each block is
    first scanned from a zero start; the state entering each block then
    follows from the same scan, at coefficient ``rho^B``, over the block-end
    values; one broadcast adds ``rho^(c+1)`` times that carry to column c.
    Elementwise work only, no BLAS: about 2B numpy calls on each of
    ``log_B n`` levels.
    """
    k, n = u.shape
    block = SCAN_BLOCK
    full, rest = divmod(n, block)
    cols = np.zeros((block, k, full + 1))
    by_block = cols.transpose(1, 2, 0)  # (K, blocks, B): the layout of u
    by_block[:, :full] = u[:, :full * block].reshape(k, full, block)
    by_block[:, full, :rest] = u[:, full * block:]
    step = rho[:, None]
    for c in range(1, min(n, block)):
        cols[c] += step * cols[c - 1]
    carry = x0[:, None]
    if full:
        ends = _ar1_scan(cols[-1, :, :full], rho**block, x0)
        carry = np.concatenate([carry, ends], axis=1)
    cols += (rho ** np.arange(1, block + 1)[:, None])[:, :, None] * carry
    y = np.empty((k, n))
    y[:, :full * block].reshape(k, full, block)[...] = by_block[:, :full]
    y[:, full * block:] = by_block[:, full, :rest]
    return y


def integrate_path(
    model: ModelConfig,
    grid: TrajectoryGrid,
    init,
    seed: int,
    store_modes: bool = True,
    observe_every: int = 1,
) -> Trajectory:
    """Exponential-Euler path started from ``init``.

    ``init`` is one of ``"zero"``, ``"burn_in"``, ``"stationary"`` or an array
    of initial mode coordinates.  ``"burn_in"`` simulates ``grid.burn_in_steps``
    extra steps (the default amount if the grid carries none) and discards
    them.  ``"stationary"`` draws the initial state exactly from the stationary
    law of X(0), all modes jointly, independently of the subsequent noise; for
    H != 1/2 the path is then only marginally (not jointly) stationary -- use
    :func:`sample_stationary_sequence` where that matters.

    ``observe_every`` subsamples the simulated grid on output, so a fine
    integration step can feed coarsely observed estimators.  The recursion
    itself runs for all modes at once in :func:`_ar1_scan`.
    """
    validate_hurst(model.hurst)
    observe_every = int(observe_every)
    if observe_every < 1 or grid.n_steps % observe_every:
        raise ValueError("observe_every must be >= 1 and divide n_steps")

    burn = 0
    x0 = np.zeros(model.n_modes)
    kind = init if isinstance(init, str) else "given"
    if kind == "burn_in":
        burn = grid.burn_in_steps or default_burn_in_steps(model, grid.dt)
    elif kind == "stationary":
        x0 = sample_stationary_sequence(model, 1, grid.dt, seed).modes[:, 0]
    elif kind == "given":
        x0 = np.asarray(init, dtype=float)
        if x0.shape != (model.n_modes,):
            raise ValueError("initial state must have one coordinate per mode")
    elif kind != "zero":
        raise ValueError(f"unknown init {init!r}")

    n_total = grid.n_steps + burn
    incr = _mode_increments(model, n_total, seed) * grid.dt**model.hurst
    rho = np.exp(-model.rates * grid.dt)
    phi = model.noise.loadings

    states = np.empty((model.n_modes, n_total + 1))
    states[:, 0] = x0
    states[:, 1:] = _ar1_scan(phi[:, None] * incr, rho, x0)

    kept = states[:, burn::observe_every]
    n_obs = grid.n_steps // observe_every
    kept = kept[:, : n_obs + 1]
    dt_out = grid.dt * observe_every
    traj = Trajectory(
        grid=TrajectoryGrid(dt_out, n_obs, burn),
        t=np.arange(n_obs + 1) * dt_out,
        sq_norms=np.sum(kept**2, axis=0),
        init_kind=kind,
        modes=kept if store_modes else None,
    )
    return traj


# --------------------------------------------------------------------------
# Exact stationary sampling.
# --------------------------------------------------------------------------

class StationaryModeSampler:
    """Exact stationary draws of the mode coordinates, for both noise kinds.

    The lag table is read as block sequences (:func:`lag_blocks`): N scalar
    sequences for diagonal noise, one sequence of N-vectors for rank-one
    noise.  Each sequence is factored once by the engine of
    :mod:`fracdrift.fgn` (circulant embedding, dense Cholesky fallback) and
    then yields batches of replications.
    """

    def __init__(self, model: ModelConfig, n: int, dt: float):
        self.model = model
        self.n = int(n)
        self.dt = float(dt)
        m = 1 << max(self.n - 1, 1).bit_length()
        self._lags = lag_blocks(model, dt, m + 1)
        self.n_sequences = len(self._lags)
        self._factors: dict[int, tuple[str, np.ndarray]] = {}

    def factor(self, b: int) -> tuple[str, np.ndarray]:
        """Factor sequence ``b`` (idempotent); returns (method, factor)."""
        if b not in self._factors:
            self._factors[b] = stationary_factor(self._lags[b], self.n)
        return self._factors[b]

    def draw(self, b: int, rng: np.random.Generator, n_reps: int) -> np.ndarray:
        """Sample ``n_reps`` independent stationary draws of sequence ``b``;
        returns shape (p n, n_reps), mode-major: (n, n_reps) for one mode of
        diagonal noise, (N n, n_reps) for rank-one noise."""
        return stationary_draw(*self.factor(b), self.n, rng, n_reps)


def sample_stationary_sequence(
    model: ModelConfig,
    n: int,
    dt: float,
    seed: int,
) -> Trajectory:
    """Exact draw of the stationary solution at ``t = dt, 2 dt, ..., n dt``."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    sampler = StationaryModeSampler(model, n, dt)
    modes = np.concatenate([
        sampler.draw(b, substream(seed, _STATIONARY_STREAM, b), 1).reshape(-1, n)
        for b in range(sampler.n_sequences)
    ])
    return Trajectory(
        grid=TrajectoryGrid(dt, n, 0),
        t=dt * np.arange(1, n + 1),
        sq_norms=np.sum(modes**2, axis=0),
        init_kind="stationary",
        modes=modes,
    )


def attach_projection(traj: Trajectory, w: ProjectionVector) -> Trajectory:
    """Add the series ``<X(t_i), w>``; requires stored mode coordinates."""
    if traj.modes is None:
        raise ValueError("trajectory must carry mode coordinates to project")
    if len(w.coefficients) != traj.modes.shape[0]:
        raise ValueError("projection length must match the stored modes")
    return replace(traj, projections=w.coefficients @ traj.modes)


# --------------------------------------------------------------------------
# Export formats.
# --------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory) -> str:
    """Columnar CSV ``t, sq_norm[, projection]`` with full-precision floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if traj.projections is not None:
        writer.writerow(["t", "sq_norm", "projection"])
        for t, s, p in zip(traj.t, traj.sq_norms, traj.projections):
            writer.writerow([repr(float(t)), repr(float(s)), repr(float(p))])
    else:
        writer.writerow(["t", "sq_norm"])
        for t, s in zip(traj.t, traj.sq_norms):
            writer.writerow([repr(float(t)), repr(float(s))])
    return buf.getvalue()


def trajectory_from_csv(text: str) -> Trajectory:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["t", "sq_norm"]:
        raise ValueError("trajectory CSV must start with header 't,sq_norm[,projection]'")
    has_proj = len(header) >= 3 and header[2].strip() == "projection"
    ts, sq, proj = [], [], []
    for row in reader:
        if not row:
            continue
        ts.append(float(row[0]))
        sq.append(float(row[1]))
        if has_proj:
            proj.append(float(row[2]))
    if len(ts) < 2:
        raise ValueError("trajectory CSV needs at least two rows")
    t = np.asarray(ts)
    dts = np.diff(t)
    if np.any(dts <= 0) or not np.allclose(dts, dts[0], rtol=1e-9, atol=0):
        raise ValueError("trajectory time grid must be uniform and increasing")
    return Trajectory(
        grid=TrajectoryGrid(float(dts[0]), len(t) - 1, 0),
        t=t,
        sq_norms=np.asarray(sq),
        init_kind="given",
        projections=np.asarray(proj) if has_proj else None,
    )


def trajectory_to_npz(traj: Trajectory, path) -> None:
    arrays = {
        "format_version": np.array(NPZ_FORMAT_VERSION),
        "t": traj.t,
        "sq_norms": traj.sq_norms,
        "dt": np.array(traj.grid.dt),
        "burn_in_steps": np.array(traj.grid.burn_in_steps),
        "init_kind": np.array(traj.init_kind),
    }
    if traj.projections is not None:
        arrays["projections"] = traj.projections
    if traj.modes is not None:
        arrays["modes"] = traj.modes
    np.savez_compressed(path, **arrays)


def trajectory_from_npz(path) -> Trajectory:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != NPZ_FORMAT_VERSION:
            raise ValueError(f"unsupported trajectory cache version {version}")
        t = data["t"]
        return Trajectory(
            grid=TrajectoryGrid(float(data["dt"]), len(t) - 1, int(data["burn_in_steps"])),
            t=t,
            sq_norms=data["sq_norms"],
            init_kind=str(data["init_kind"]),
            projections=data["projections"] if "projections" in data else None,
            modes=data["modes"] if "modes" in data else None,
        )
