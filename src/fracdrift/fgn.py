"""Exact sampling of fractional Gaussian noise and fractional Brownian motion.

Sampling is exact (distributionally): the stationary increment sequence is
drawn by circulant embedding of its Toeplitz covariance with real-FFT
synthesis, falling back to a dense Cholesky factorization in the (for fGN,
purely numerical) event of a negative circulant eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import substream

__all__ = [
    "FgnPath",
    "fgn_autocov",
    "sample_fgn",
    "sample_fbm",
    "validate_hurst",
]

#: Circulant eigenvalues above ``-TOL_EIG * max(eig)`` are clipped to zero;
#: anything below triggers the dense Cholesky fallback.
TOL_EIG = 1e-10

#: Relative jitter ceiling for the Cholesky fallback.
TOL_JITTER = 1e-8


def validate_hurst(h: float) -> float:
    """Check 0 < h < 1 strictly and return ``h`` as a float."""
    h = float(h)
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst parameter must lie strictly in (0, 1), got {h}")
    return h


@dataclass(frozen=True)
class FgnPath:
    """A sampled fractional Gaussian noise sequence at step size ``dt``.

    ``increments[j]`` is the increment over ``[j*dt, (j+1)*dt)``; the sequence
    is stationary centered Gaussian with covariance
    ``fgn_autocov(h, k) * dt**(2h)`` at lag ``k``.
    """

    h: float
    dt: float
    increments: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        validate_hurst(self.h)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if len(self.increments) < 1:
            raise ValueError("need at least one increment")


def fgn_autocov(h: float, k) -> float | np.ndarray:
    """Unit-step fGN autocovariance ``0.5 (|k+1|^2H - 2|k|^2H + |k-1|^2H)``.

    Symmetric in ``k``; equals 1 at lag 0 and vanishes for ``|k| >= 1`` when
    ``h = 1/2``. Accepts scalar or array lags.
    """
    h = validate_hurst(h)
    k = np.abs(np.asarray(k, dtype=float))
    two_h = 2.0 * h
    out = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    return float(out) if out.ndim == 0 else out


def _next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 1).bit_length() if n > 1 else 1


def circulant_embedding_eigs(autocov: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant embedding of a Toeplitz covariance.

    ``autocov`` must contain lags 0..m; the embedded circle has length 2m.
    """
    m = len(autocov) - 1
    if m < 1:
        raise ValueError("need at least lags 0 and 1")
    circle = np.concatenate([autocov, autocov[m - 1 : 0 : -1]])
    return np.fft.rfft(circle).real


def sample_circulant(eigs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` points of a stationary Gaussian sequence from circulant eigenvalues.

    ``eigs`` are the rfft of the length-2m circle (length m+1); requires
    ``n <= m + 1``. Caller is responsible for eigenvalues being >= 0.
    """
    m = len(eigs) - 1
    length = 2 * m
    g_re = rng.standard_normal(m + 1)
    g_im = rng.standard_normal(m + 1)
    amp = np.sqrt(np.maximum(eigs, 0.0) * length)
    spec = amp * (g_re + 1j * g_im) / np.sqrt(2.0)
    # Endpoint bins are real with full variance.
    spec[0] = amp[0] * g_re[0]
    spec[m] = amp[m] * g_re[m]
    x = np.fft.irfft(spec, n=length)
    return x[:n]


def jittered_cholesky(cov: np.ndarray, first: float, limit: float) -> np.ndarray | None:
    """Lower Cholesky factor of ``cov``, retrying with diagonal jitter.

    The first attempt factors ``cov`` itself.  After a failure, jitter
    ``first, 100 first, ...`` is added to the diagonal of a single copy while
    it stays within ``limit``; returns None when every attempt fails.
    """
    from scipy.linalg import cholesky

    jittered, jitter = cov, 0.0
    while True:
        try:
            return cholesky(jittered, lower=True)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, first)
            if jitter > limit:
                return None
            if jittered is cov:
                jittered = cov.copy()
            np.fill_diagonal(jittered, cov.diagonal() + jitter)


def _cholesky_toeplitz_sample(autocov: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    from scipy.linalg import toeplitz

    cov = toeplitz(autocov[:n])
    scale = float(np.mean(np.diag(cov)))
    lower = jittered_cholesky(cov, 1e-14 * scale, TOL_JITTER * scale)
    if lower is None:
        raise np.linalg.LinAlgError(
            "covariance is not positive definite beyond jitter tolerance; "
            "the requested (h, n) combination is numerically invalid"
        )
    return lower @ rng.standard_normal(n)


def sample_fgn(h: float, n: int, seed: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Exact sample of ``n`` unit-step fGN values with Hurst parameter ``h``.

    Uses circulant embedding padded to the next power of two; falls back to a
    dense Cholesky of the n-by-n Toeplitz covariance if the embedding has an
    eigenvalue below ``-TOL_EIG`` relatively.  Deterministic in ``(h, n, seed)``
    unless an explicit generator is passed.
    """
    h = validate_hurst(h)
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if rng is None:
        rng = substream(seed, 0x0F61)
    if n == 1:
        return rng.standard_normal(1)
    m = _next_pow2(n - 1)
    gamma = fgn_autocov(h, np.arange(m + 1))
    eigs = circulant_embedding_eigs(gamma)
    if eigs.min() < -TOL_EIG * eigs.max():
        return _cholesky_toeplitz_sample(fgn_autocov(h, np.arange(n)), n, rng)
    return sample_circulant(eigs, n, rng)


def sample_fbm(h: float, n: int, dt: float, seed: int) -> np.ndarray:
    """Fractional Brownian motion on the grid ``0, dt, ..., n*dt`` (length n+1).

    ``B(0) = 0``; increments are ``dt**h`` times a unit-step fGN sample
    (self-similarity).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    incr = sample_fgn(h, n, seed) * dt**h
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(incr, out=out[1:])
    return out


def fgn_path(h: float, n: int, dt: float, seed: int) -> FgnPath:
    """Sample an :class:`FgnPath` with increments scaled to step ``dt``."""
    incr = sample_fgn(h, n, seed) * dt ** validate_hurst(h)
    return FgnPath(h=h, dt=float(dt), increments=incr, seed=int(seed))
