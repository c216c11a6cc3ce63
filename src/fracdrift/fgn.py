"""Exact stationary Gaussian sampling: the engine behind every draw.

A stationary sequence of p-vectors with lag covariances
``R(t) = E[X(s+t) X(s)^T]``, ``R(-t) = R(t)^T``, is drawn by multivariate
circulant embedding (Dietrich & Newsam, SIAM J. Sci. Comput. 18, 1997; Chan &
Wood, Stat. Comput. 9, 1999).  Lags ``0..m`` are wrapped onto a circle of
length 2m; the FFT turns its block circulant covariance into one Hermitian
p x p matrix per frequency.  The factor step eigendecomposes each of them
and clips eigenvalues that are negative only by rounding to zero; the draw
step multiplies complex normals by each frequency's factor and inverts the
FFT.  The first ``n <= m+1`` points then have exactly the block-Toeplitz
covariance ``S_ij = R(i-j)``.  When the embedding has more negative mass
than that, the one fallback is a jittered Cholesky factor of the dense
block-Toeplitz matrix, guarded by :data:`DENSE_GUARD` and physical memory.
Draws are replication-major, shape (n_reps, p, n), and may reuse a caller's
workspace of spectrum and irfft output (:func:`sample_circulant`); scalar
draws stream their normals straight into the spectrum.

The engine holds no state.  :class:`fracdrift.simulate.StationaryModeSampler`
chooses the circle, builds each factor once and holds it, both for the
stationary solution and for the integrator's fGN, whose lags, folded over an
observation interval, come from :func:`folded_fgn_autocov` and
:func:`fold_basis`.
"""

from __future__ import annotations

import os

import numpy as np
from numpy.fft import irfft, rfft

__all__ = [
    "fold_basis",
    "folded_fgn_autocov",
    "stationary_draw",
    "stationary_factor",
    "validate_hurst",
]

#: Circulant eigenvalues above ``-TOL_EIG * max(eig)`` are clipped to zero;
#: anything below triggers the dense Cholesky fallback.
TOL_EIG = 1e-10

#: Largest dense dimension ``n*p`` the Cholesky fallback factors.
DENSE_GUARD = 20_000

#: Normals per ``standard_normal`` call of the scalar draw (256 KB), so that
#: each block is still in cache when it is scaled into the spectrum.
NORMALS_CHUNK = 32768


def validate_hurst(h: float) -> float:
    """Check 0 < h < 1 strictly and return ``h`` as a float."""
    h = float(h)
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst parameter must lie strictly in (0, 1), got {h}")
    return h


def block_toeplitz(lags: np.ndarray, n: int) -> np.ndarray:
    """Dense covariance of ``n`` points of a stationary sequence of p-vectors.

    ``lags`` has shape (L, p, p) with ``L >= n`` and ``lags[t] = R(t)``.  The
    result is (n p, n p), component-major: entry ((a, i), (b, j)) is
    ``R(i-j)[a, b]``, with ``R(-t) = R(t)^T``.
    """
    p = lags.shape[-1]
    # both[n-1+d] = R(d) for |d| < n.
    both = np.concatenate([lags[n - 1:0:-1].swapaxes(-1, -2), lags[:n]])
    diff = np.subtract.outer(np.arange(n), np.arange(n)) + (n - 1)
    comps = np.arange(p)
    # One gather laid out as (a, i, b, j), so the reshape is a view.
    full = both[diff[None, :, None, :], comps[:, None, None, None], comps[:, None]]
    return full.reshape(p * n, p * n)


def circulant_embedding_eigs(lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the circulant embedding of a lag sequence.

    ``lags`` has shape (m+1, p, p) with ``lags[t] = R(t)``.  The circle of
    length 2m carries ``R(t)`` at position t and ``R(t)^T`` at 2m-t, with lag
    m symmetrized; its rfft is one Hermitian p x p matrix per frequency.
    Returns the eigenvalues, shape (m+1, p), and eigenvectors, shape
    (m+1, p, p), or None for p = 1; the two end frequencies are real and get
    real eigenvectors.
    """
    m, p = len(lags) - 1, lags.shape[-1]
    if m < 1:
        raise ValueError("need at least lags 0 and 1")
    mid = 0.5 * (lags[m:] + lags[m:].swapaxes(-1, -2))
    circle = np.concatenate([lags[:m], mid, lags[m - 1:0:-1].swapaxes(-1, -2)])
    spectrum = rfft(circle, axis=0)
    if p == 1:  # a 1 x 1 Hermitian matrix is its own eigenvalue
        return np.ascontiguousarray(spectrum.real[..., 0]), None
    eigs, vecs = np.linalg.eigh(spectrum)
    ends = [0, m]
    eigs[ends], vecs[ends] = np.linalg.eigh(spectrum[ends].real)
    return eigs, vecs


def jittered_cholesky(cov: np.ndarray, first: float, limit: float) -> np.ndarray | None:
    """Lower Cholesky factor of ``cov``, retrying with diagonal jitter.

    The first attempt factors ``cov`` itself.  After a failure, jitter
    ``first, 100 first, ...`` is added to the diagonal of a single copy while
    it stays within ``limit``; returns None when every attempt fails.
    """
    jittered, jitter = cov, 0.0
    while True:
        try:
            return np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, first)
            if jitter > limit:
                return None
            if jittered is cov:
                jittered = cov.copy()
            np.fill_diagonal(jittered, cov.diagonal() + jitter)


def _physical_memory() -> float:
    """Physical memory in bytes; infinite where the OS does not report it."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return float("inf")


def _dense_factor(lags: np.ndarray, n: int) -> np.ndarray:
    """The engine's one fallback: the jittered lower Cholesky factor of the
    dense :func:`block_toeplitz` covariance of ``n`` points of ``lags``.

    Refuses before any allocation when ``n*p`` exceeds :data:`DENSE_GUARD`
    or when ``40 (n p)^2`` bytes exceed physical memory: the matrix, numpy's
    working copy inside ``cholesky``, the factor, one jittered copy and 8 B
    per entry of headroom (up to 36.7 B per entry were measured).
    """
    dim = n * lags.shape[-1]
    need, memory = 40 * dim * dim, _physical_memory()
    if dim > DENSE_GUARD or need > memory:
        raise ValueError(
            f"dense fallback dimension n*p = {dim} ({need / 2**30:.3g} GiB) exceeds "
            f"the factorization guard ({DENSE_GUARD} dimensions, "
            f"{memory / 2**30:.3g} GiB physical memory); reduce n"
        )
    cov = block_toeplitz(lags, n)
    scale = float(np.mean(cov.diagonal()))
    lower = jittered_cholesky(cov, 1e-14 * scale, 1e-8 * scale)
    if lower is None:
        raise np.linalg.LinAlgError(
            "stationary covariance is not positive definite beyond jitter tolerance"
        )
    return lower


def stationary_factor(lags: np.ndarray, n: int) -> tuple[str, np.ndarray]:
    """Factor step of the engine for ``n <= m+1`` points of ``lags`` (m+1, p, p).

    Returns ``("circulant", F)`` with ``F[j] F[j]^H = 2m`` times the
    embedding's matrix at frequency j, shape (m+1, p, p), when no embedding
    eigenvalue lies below ``-TOL_EIG`` times the largest (those above are
    clipped to zero); otherwise ``("cholesky", L)`` from :func:`_dense_factor`.
    """
    eigs, vecs = circulant_embedding_eigs(lags)
    if eigs.min() < -TOL_EIG * eigs.max():
        return "cholesky", _dense_factor(lags, n)
    length = 2 * (len(lags) - 1)
    amp = np.sqrt(np.maximum(eigs, 0.0) * length)[:, None, :]
    return "circulant", amp if vecs is None else vecs * amp


def _chunks(rows: int, width: int) -> list[tuple[slice, slice]]:
    """Blocks of a C-ordered (rows, width) array in storage order, each at
    most :data:`NORMALS_CHUNK` entries: whole rows, or pieces of one row."""
    per, cols = max(NORMALS_CHUNK // width, 1), min(width, NORMALS_CHUNK)
    return [(slice(r, r + per), slice(c, c + cols))
            for r in range(0, rows, per) for c in range(0, width, cols)]


def sample_circulant(factor: np.ndarray, n: int, rng: np.random.Generator,
                     n_reps: int, work: dict | None = None) -> np.ndarray:
    """Draw step of the circulant route: ``n_reps`` sequences of ``n`` points.

    Multiplies complex normals by each frequency's factor (the two end bins
    are real with full variance) and inverts the rfft.  Returns shape
    (n_reps, p, n), replication-major: a view of the irfft output.  ``work``
    is an optional dict that keeps the spectrum and the irfft output for the
    next call of the same shape; the result then lives in it and that call
    overwrites it.  Without ``work`` every call allocates.

    For p = 1 the normals never exist as one array: they are drawn in blocks
    of :data:`NORMALS_CHUNK` straight into the real parts of the spectrum,
    then the imaginary parts, in the order of one ``(2, n_reps, 1, m+1)``
    draw (split ``standard_normal`` calls continue one stream).  Each entry
    is ``amp * g`` times ``1/sqrt(2)``, the end bins ``amp * g`` unscaled:
    the former full-buffer draw, bit for bit.  The block-circulant route
    needs both halves at once for its complex product and keeps a
    ``(2, n_reps, p, m+1)`` buffer of normals in ``work``.
    """
    m, p = len(factor) - 1, factor.shape[-1]
    shape = (n_reps, p, m + 1)
    work = {} if work is None else work
    if work.get("shape") != shape:
        normals = (2, *shape) if p > 1 else min(NORMALS_CHUNK, n_reps * (m + 1))
        work.update(shape=shape, g=np.empty(normals), spec=np.empty(shape, complex),
                    x=np.empty((n_reps, p, 2 * m)))
    spec, g = work["spec"], work["g"]
    if p == 1:
        amp, rows, scl = factor[:, 0, 0], spec[:, 0], 1.0 / np.sqrt(2.0)
        blocks = _chunks(n_reps, m + 1)

        def fill(part, r, c):
            out = part[r, c]
            np.multiply(amp[c], rng.standard_normal(out=g[:out.size].reshape(out.shape)),
                        out=out)

        for r, c in blocks:
            fill(rows.real, r, c)
        ends = rows.real[:, ::m].copy()  # bins 0 and m stay unscaled
        for r, c in blocks:
            fill(rows.imag, r, c)
            rows[r, c] *= scl
        rows[:, ::m] = ends
    else:
        rng.standard_normal(out=g)
        np.divide((factor @ (g[0] + 1j * g[1]).T).T, np.sqrt(2.0), out=spec)
        spec[..., 0] = g[0, ..., 0] @ factor[0].real.T
        spec[..., m] = g[0, ..., m] @ factor[m].real.T
    return irfft(spec, n=2 * m, out=work["x"])[..., :n]


def stationary_draw(method: str, factor: np.ndarray, n: int, rng: np.random.Generator,
                    n_reps: int, work: dict | None = None) -> np.ndarray:
    """``n_reps`` draws from a :func:`stationary_factor` result, shape
    (n_reps, p, n); the Cholesky route ignores ``work``."""
    if method == "cholesky":
        return (factor @ rng.standard_normal((len(factor), n_reps))).T.reshape(n_reps, -1, n)
    return sample_circulant(factor, n, rng, n_reps, work)


def folded_fgn_autocov(h: float, n_lags: int, every: int, weights: np.ndarray) -> np.ndarray:
    """Lags ``0..n_lags-1`` of the p-vectors ``V_J[k] = sum_{c<S} weights[k, c]
    u_{JS+c}``, ``u`` unit-step fGN and ``S = every``: shape (n_lags, p, p),
    ``lags[L][k, l] = E[V_{J+L}[k] V_J[l]] = sum_{|d|<S} A_kl[d] gamma(LS+d)``,
    ``A_kl = np.correlate(weights[k], weights[l], "full")``, with ``gamma`` the
    fGN autocovariance ``0.5 (|k+1|^2H - 2|k|^2H + |k-1|^2H)``.  As ``2 gamma``
    is the second difference of ``f(x) = |x|^2H``, the sum is taken over
    ``f(LS+e)``, ``|e| <= S``, one offset at a time in O(n_lags p^2) memory.
    At S = 1 with unit weights these are the fGN lags themselves.
    """
    h = validate_hurst(h)
    a = np.array([[np.correlate(wk, wl, "full") for wl in weights] for wk in weights])
    z = np.zeros((len(weights), len(weights), 2))  # np.pad costs 20 us a call
    b = 0.5 * np.diff(a, 2, prepend=z, append=z)
    base = every * np.arange(n_lags, dtype=float)
    lags = np.zeros((n_lags, len(weights), len(weights)))
    for e in range(-every, every + 1):
        lags += b[..., e + every] * (np.abs(base + e) ** (2.0 * h))[:, None, None]
    return lags


def fold_basis(every: int, rhos) -> tuple[np.ndarray, np.ndarray]:
    """AR(1) filters ``rhos[k]^(S-1-c)``, ``c < S = every``, as ``mix @ basis``
    (QR): orthonormal rows ``basis`` (q, S), ``mix`` (p, q), ``q = min(p, S)``."""
    w = np.asarray(rhos, dtype=float)[:, None] ** np.arange(every - 1, -1, -1)
    basis, mix = np.linalg.qr(w.T)
    return basis.T, mix.T
