"""Trajectory generation: integrated paths and exact stationary samples.

Two sources of trajectories with different roles:

* :func:`integrate_path` -- per-mode exponential-Euler recursion
  ``x_k(t_{j+1}) = e^{-a_k dt} x_k(t_j) + phi_k dB_j^k`` driven by exact fGN
  increments.  The scheme applies the semigroup to the state but adds the
  bare noise increment, so it carries an O(dt) weak bias at fixed step size;
  it is the tool for transient/consistency studies where the bias vanishes
  under grid refinement.  Observed every S steps, a mode needs only
  ``V_J = sum_{c<S} rho^(S-1-c) u_{JS+c}`` of its fGN ``u``, which the
  circulant engine draws exactly on about 2 n_obs points, not 2 n_total:
  the observed states keep the scheme's law, bias included.  A burn-in is
  rounded up to whole intervals.
* :func:`sample_stationary_sequence` -- an exact draw of the stationary
  solution at the observation times, fed with the autocovariance table read
  as block sequences: one scalar sequence per mode for diagonal noise, one
  sequence of N-vectors for rank-one noise.  Bias-free; the default source
  for distribution-level experiments.

Both draw through :class:`StationaryModeSampler`, the one holder of the
factors of the circulant engine of :mod:`fracdrift.fgn`: built per model and
grid, it factors each sequence once and then draws batches of replications,
Euler states from zero included.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._rng import substream
from .covariance import lag_blocks
from .fgn import _dense_factor  # noqa: F401  (bench/layers.py times the fallback here)
from .fgn import fold_basis, folded_fgn_autocov, stationary_draw, stationary_factor
from .models import DIAGONAL, ModelConfig, ProjectionVector, positive_finite

__all__ = [
    "TrajectoryGrid",
    "Trajectory",
    "default_burn_in_steps",
    "check_integration",
    "integrate_path",
    "StationaryModeSampler",
    "sample_stationary_sequence",
    "project_modes",
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
        positive_finite(self.dt, "dt")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.burn_in_steps < 0:
            raise ValueError("burn_in_steps must be >= 0")


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


#: Block length of :func:`_ar1_scan`.
SCAN_BLOCK = 64


def _scalar_pow(base: np.ndarray, exponent: int) -> np.ndarray:
    """``base ** exponent`` entry by entry through the scalar ``pow``, whose
    bits the array loop (SIMD on some machines) does not always reproduce."""
    return np.reshape([b**exponent for b in base.flat], base.shape)


def _ar1_scan(u: np.ndarray, rho: np.ndarray, gain, work: dict | None = None) -> np.ndarray:
    """States ``y[..., j] = rho y[..., j-1] + gain u[..., j]``, ``y[..., -1] = 0``.

    ``u`` has shape (..., n), one row per sequence; ``rho`` and ``gain``
    broadcast against ``u.shape[:-1]``.  Each row's ``gain * u`` is held as
    columns, shape (B, blocks), one per block of ``B = SCAN_BLOCK`` steps
    (the last padded with zeros).  Each block is scanned from zero by
    doubling (Hillis & Steele, CACM 29, 1986): column c gains ``rho^s`` times
    column c - s, for s = 1, 2, 4, ... < B, in two numpy calls through a
    buffer, while some row's ``rho^s`` is a normal double (a power below
    that adds less than the smallest normal double times the states).  The
    state entering each block follows from the same scan, at ``rho^B`` and
    unit gain, over the block ends; ``rho^(c+1)`` times it is added to
    column c, into the buffer in sequence order.  No BLAS.  Returns all
    ``n`` states, shape ``u.shape``, as a view of ``work``, an optional dict
    that keeps columns and buffer for the next call of the same shape.
    """
    *lead, n = u.shape
    block = SCAN_BLOCK
    full, rest = divmod(n, block)
    rho, gain = (np.asarray(v, dtype=float)[..., None, None] for v in (rho, gain))
    shape = (2, *lead, block, full + 1)
    work = {} if work is None else work
    if work.get("scan") is None or work["scan"].shape != shape:
        work["scan"] = np.empty(shape)
    cols, buf = work["scan"]
    by_block = cols.swapaxes(-1, -2)  # (..., blocks, B): the layout of u
    np.multiply(u[..., :full * block].reshape(*lead, full, block), gain, out=by_block[..., :full, :])
    np.multiply(u[..., full * block:], gain[..., 0], out=by_block[..., full, :rest])
    by_block[..., full, rest:] = 0.0
    s, power, top = 1, rho, rho.max()  # squaring keeps the largest power on top
    while s < min(n, block) and top >= sys.float_info.min:
        np.multiply(cols[..., :-s, :], power, out=buf[..., s:, :])
        cols[..., s:, :] += buf[..., s:, :]
        s, power, top = 2 * s, power * power, top * top
    states = buf.reshape(*lead, full + 1, block)  # the layout of u
    states[..., 0, :] = by_block[..., 0, :]  # zero enters block 0
    if full:
        carry = _ar1_scan(cols[..., -1, :full], _scalar_pow(rho[..., 0, 0], block), 1.0)
        np.multiply(carry[..., None], rho ** np.arange(1, block + 1), out=states[..., 1:, :])
        states[..., 1:, :] += by_block[..., 1:, :]
    return states.reshape(*lead, -1)[..., :n]


def check_integration(model: ModelConfig, grid: TrajectoryGrid, init,
                      observe_every: int = 1) -> tuple[str, int]:
    """Check :func:`integrate_path`'s arguments before any draw.

    Returns the init kind and the folds each noise sequence draws: one per
    observation interval, the burn-in rounded up to whole intervals.
    """
    every = int(observe_every)
    if every < 1 or grid.n_steps % every:
        raise ValueError("observe_every must be >= 1 and divide n_steps")
    kind = init if isinstance(init, str) else "given"
    if kind not in ("zero", "burn_in", "stationary", "given"):
        raise ValueError(f"unknown init {init!r}")
    if kind == "given" and np.shape(init) != (model.n_modes,):
        raise ValueError("initial state must have one coordinate per mode")
    if grid.burn_in_steps and kind != "burn_in":
        raise ValueError(f"grid.burn_in_steps is run only by init 'burn_in', not {kind!r}")
    burn = 0
    if kind == "burn_in":
        burn = grid.burn_in_steps or default_burn_in_steps(model, grid.dt)
    return kind, (grid.n_steps + burn + every - 1) // every


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
    them; no other init takes a burn-in.  ``"stationary"`` draws the initial
    state exactly from the stationary law of X(0), all modes jointly,
    independently of the subsequent noise; for H != 1/2 the path is then only
    marginally (not jointly) stationary -- use
    :func:`sample_stationary_sequence` where that matters.

    ``observe_every = S`` keeps every S-th state and rounds a burn-in up to
    whole intervals (``grid.burn_in_steps`` of the result is the burn-in
    run).  The states from zero are one replication of each sequence of
    ``StationaryModeSampler(model, n, dt, S)``, ``n`` from
    :func:`check_integration`; a start ``x0`` adds its decay
    ``rho_k^(S (j+1)) x0_k`` to observed state j.
    """
    kind, n = check_integration(model, grid, init, observe_every)
    every = int(observe_every)
    sampler = StationaryModeSampler(model, n, grid.dt, every)
    x0 = np.zeros(model.n_modes)
    if kind == "stationary":
        x0 = sample_stationary_sequence(model, 1, grid.dt, seed).modes[:, 0]
    elif kind == "given":
        x0 = np.asarray(init, dtype=float)

    n_obs = grid.n_steps // every
    burn = n - n_obs  # intervals
    first = int(burn == 0)  # x0 is column 0; states[j] = x(t_{j+1})
    kept = np.empty((model.n_modes, n_obs + 1))
    kept[:, 0] = x0
    work = {}
    for b in range(sampler.n_sequences):  # sequence b holds modes b, b+1, ...
        states = sampler.draw(b, substream(seed, _FGN_STREAM, b), 1, work)[0]
        kept[b:b + len(states), first:] = states[:, burn - 1 + first:]
    if np.any(x0):  # rho^(j+1) x0 as rho^(64 q) x0 times rho^(1..64)
        rho = sampler.rho_every[:, None]
        decay = (x0[:, None] * rho ** np.arange(0, n_obs, SCAN_BLOCK))[..., None]
        decay = decay * rho[..., None] ** np.arange(1, SCAN_BLOCK + 1)
        kept[:, 1:] += decay.reshape(len(x0), -1)[:, :n_obs]

    dt_out = grid.dt * every
    return Trajectory(
        grid=TrajectoryGrid(dt_out, n_obs, burn * every),
        t=np.arange(n_obs + 1) * dt_out,
        sq_norms=np.sum(kept**2, axis=0),
        init_kind=kind,
        modes=kept if store_modes else None,
    )


# --------------------------------------------------------------------------
# Exact stationary sampling.
# --------------------------------------------------------------------------

class StationaryModeSampler:
    """Exact draws of the mode coordinates' stationary sequences, for both
    noise kinds: the one holder of the circulant engine's factors.

    With ``every = 0`` it draws the stationary solution at spacing ``dt``,
    from the lag table read as block sequences (:func:`lag_blocks`).  With
    ``every = S >= 1`` it draws exponential-Euler states at step ``dt``
    started from zero, observed every S steps: ``x_k <- rho_k^S x_k + phi_k
    dt^H V_J[k]``, with ``V_J[k] = sum_{c<S} rho_k^(S-1-c) u_{JS+c}`` the
    unit-step fGN ``u`` folded by each mode's AR(1) filter (the identity at
    S = 1).  The fold is drawn by the orthonormal :func:`fold_basis`, whose
    lags are :func:`folded_fgn_autocov`, times ``mix`` (nearby rates give
    nearly collinear filters, and so V, not its basis fold), and scanned by
    :func:`_ar1_scan`.  Diagonal noise gives N scalar sequences, rank-one
    noise one sequence of vectors; lags ``0..m``, ``m`` the power of two
    above ``n - 1``, go on the circle.  Each sequence is factored once, on
    construction, by the engine of :mod:`fracdrift.fgn` (circulant
    embedding, dense Cholesky fallback), so that concurrent draws only read
    the factors, and then yields batches of replications.
    """

    def __init__(self, model: ModelConfig, n: int, dt: float, every: int = 0):
        if int(n) < 1:
            raise ValueError("n must be >= 1")
        self.model = model
        self.n = int(n)
        self.dt = float(dt)
        self.every = int(every)
        m = 1 << max(self.n - 1, 1).bit_length()
        if self.every:
            rho = np.exp(-model.rates * self.dt)
            self.rho_every = _scalar_pow(rho, self.every)
            banks = ([slice(k, k + 1) for k in range(model.n_modes)]
                     if model.noise.kind == DIAGONAL else [slice(None)])
            folds = [fold_basis(self.every, rho[bank]) for bank in banks]
            self._lags = [folded_fgn_autocov(model.hurst, m + 1, self.every, basis)
                          for basis, _ in folds]
            self._scans = [(mix, self.rho_every[bank], model.noise.loadings[bank])
                           for (_, mix), bank in zip(folds, banks)]
        else:
            self._lags = lag_blocks(model, dt, m + 1)
        self.n_sequences = len(self._lags)
        self._factors: dict[int, tuple[str, np.ndarray]] = {}
        for b in range(self.n_sequences):
            self.factor(b)

    def factor(self, b: int) -> tuple[str, np.ndarray]:
        """Factor sequence ``b`` (idempotent); returns (method, factor), the
        factor read-only because concurrent draws share it."""
        if b not in self._factors:
            method, factor = stationary_factor(self._lags[b], self.n)
            factor.setflags(write=False)
            self._factors[b] = method, factor
        return self._factors[b]

    def draw(self, b: int, rng: np.random.Generator, n_reps: int,
             work: dict | None = None) -> np.ndarray:
        """Sample ``n_reps`` independent draws of sequence ``b``; returns shape
        (n_reps, p, n): p = 1 for diagonal noise, N for rank-one noise.  A
        ``work`` dict is reused as :func:`fgn.sample_circulant` and
        :func:`_ar1_scan` say; the draw may then live in it."""
        x = stationary_draw(*self.factor(b), self.n, rng, n_reps, work)
        if not self.every:
            return x
        mix, rho, gain = self._scans[b]
        if len(mix) > 1:
            x = mix @ x
        else:  # a 1 x 1 mix: the same bits without matmul's per-call cost
            x *= mix[0, 0]
        x *= self.dt**self.model.hurst
        return _ar1_scan(x, rho, gain, work)


def sample_stationary_sequence(
    model: ModelConfig,
    n: int,
    dt: float,
    seed: int,
) -> Trajectory:
    """Exact draw of the stationary solution at ``t = dt, 2 dt, ..., n dt``."""
    n = int(n)
    sampler = StationaryModeSampler(model, n, dt)
    modes = np.concatenate([
        sampler.draw(b, substream(seed, _STATIONARY_STREAM, b), 1)[0]
        for b in range(sampler.n_sequences)
    ])
    return Trajectory(
        grid=TrajectoryGrid(dt, n, 0),
        t=dt * np.arange(1, n + 1),
        sq_norms=np.sum(modes**2, axis=0),
        init_kind="stationary",
        modes=modes,
    )


def project_modes(coefficients: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """``sum_k coefficients[k] * modes[k]``, added in mode order.

    The fixed order makes the bits independent of the memory layout of
    ``modes``; ``coefficients @ modes`` would round differently in BLAS gemv
    (unit-stride rows) and in numpy's own loop (any other layout).
    """
    out = np.zeros(modes.shape[1:])
    for c, row in zip(coefficients, modes):
        out += c * row
    return out


def attach_projection(traj: Trajectory, w: ProjectionVector) -> Trajectory:
    """Add the series ``<X(t_i), w>``; requires stored mode coordinates."""
    if traj.modes is None:
        raise ValueError("trajectory must carry mode coordinates to project")
    if len(w.coefficients) != traj.modes.shape[0]:
        raise ValueError("projection length must match the stored modes")
    return replace(traj, projections=project_modes(w.coefficients, traj.modes))


# --------------------------------------------------------------------------
# Export formats.
# --------------------------------------------------------------------------

def _written_grid(t: np.ndarray, dt: float, burn_in_steps: int) -> TrajectoryGrid:
    """The grid of times ``t``: integrated paths start at 0, stationary draws at ``dt``."""
    n_steps = len(t) - int(len(t) > 0 and t[0] == 0)
    if n_steps < 1:
        raise ValueError("trajectory needs at least one time after t = 0")
    return TrajectoryGrid(dt, n_steps, burn_in_steps)


def trajectory_to_csv(traj: Trajectory) -> str:
    """Columnar CSV ``t, sq_norm[, projection]`` with full-precision floats."""
    columns = {"t": traj.t, "sq_norm": traj.sq_norms}
    if traj.projections is not None:
        columns["projection"] = traj.projections
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*(map(repr, col.tolist()) for col in columns.values())))
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
    if not ts:
        raise ValueError("trajectory CSV has no rows")
    t = np.asarray(ts)
    dts = np.diff(t) if len(t) > 1 else t  # one row: a stationary draw at t = dt
    if np.any(dts <= 0) or not np.allclose(dts, dts[0], rtol=1e-9, atol=0):
        raise ValueError("trajectory time grid must be uniform and increasing")
    return Trajectory(
        grid=_written_grid(t, float(dts[0]), 0),
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
            grid=_written_grid(t, float(data["dt"]), int(data["burn_in_steps"])),
            t=t,
            sq_norms=data["sq_norms"],
            init_kind=str(data["init_kind"]),
            projections=data["projections"] if "projections" in data else None,
            modes=data["modes"] if "modes" in data else None,
        )
