"""Independent reference values that the production closed forms are checked against."""

import math

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import gamma as gamma_fn

from fracdrift.covariance import QuadratureError, SeriesLimit, _c_spectral
from fracdrift.fgn import stationary_draw, stationary_factor, validate_hurst
from fracdrift.models import DIAGONAL


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


def sample_fgn(h: float, n: int, rng, work: dict | None = None) -> np.ndarray:
    """``n`` points of unit-step fGN drawn by the engine from these lags, on the
    circle of :class:`fracdrift.simulate.StationaryModeSampler` (lags ``0..m``,
    ``m`` the power of two above ``n - 1``); ``work`` as the engine says."""
    m = 1 << max(n - 1, 1).bit_length()
    method, factor = stationary_factor(fgn_autocov(h, np.arange(m + 1))[:, None, None], n)
    return stationary_draw(method, factor, n, rng, 1, work)[0, 0]


def stationary_variance_mode(a: float, phi: float, hurst: float) -> float:
    """Stationary variance ``phi^2 H Gamma(2H) a^{-2H}`` of one mode.

    This is the classical closed form for a scalar fractional
    Ornstein-Uhlenbeck process ``dx = -a x dt + phi dB^H``; at ``H = 1/2`` it
    reduces to ``phi^2/(2a)``.
    """
    if a <= 0:
        raise ValueError("mode rate a must be positive")
    h = float(hurst)
    return phi * phi * h * gamma_fn(2.0 * h) * a ** (-2.0 * h)


def _frequency_square_integral(model, density_sq, what: str):
    """``2 int_R g(t)^2 dt`` via Parseval, g built from the mode spectra.

    Every time-autocovariance here is the Fourier transform of a spectral
    density of the form ``c_H |w|^{1-2H} * (rational in w)``, so the squared
    time integrals reduce to one smooth frequency integral:

        2 int_R g(t)^2 dt = 8 pi c_H^2 int_0^inf w^{2-4H} density_sq(w) dw,

    with ``density_sq(w)`` the rational mode aggregate (vectorized in w).
    Exact up to quadrature error -- no time-domain truncation or tail fit;
    the reported tail estimate is the quadrature error bound.
    """
    from scipy.integrate import quad

    h = model.hurst
    expo = 2.0 - 4.0 * h
    w0 = float(np.min(model.rates))

    def integrand(w):
        return w**expo * density_sq(w)

    head, e1 = quad(lambda w: density_sq(w), 0.0, w0, weight="alg",
                    wvar=(expo, 0.0), epsabs=1e-14, epsrel=1e-11, limit=200)[:2]
    body, e2 = quad(integrand, w0, np.inf, epsabs=1e-14, epsrel=1e-11, limit=200)[:2]
    factor = 8.0 * math.pi * _c_spectral(h) ** 2
    value = factor * (head + body)
    err = factor * (e1 + e2)
    if err > max(1e-8 * abs(value), 1e-300):
        raise QuadratureError(f"{what}: frequency integral error {err:.3g} too large")
    return SeriesLimit(value=float(value), partial=float(value),
                       tail_estimate=float(err), cutoff=math.inf)


def norm_density_sq(model):
    """``||spectral density||_HS^2 / (c_H |w|^{1-2H})^2`` of ``R``: the
    ``u_inf*`` integrand of :func:`_frequency_square_integral`."""
    a2 = model.rates**2
    phi2 = model.noise.loadings**2
    if model.noise.kind == DIAGONAL:
        return lambda w: float(np.sum(phi2**2 / (a2 + w * w) ** 2))
    return lambda w: float(np.sum(phi2 / (a2 + w * w))) ** 2


def projection_density_sq(model, w):
    """The squared spectral density of ``r_z``, with ``B(w) = sum_k w_k phi_k /
    (a_k + i w)`` summed as its real and imaginary parts for rank-one noise."""
    a = model.rates
    a2 = a**2
    wphi = w.coefficients * model.noise.loadings
    if model.noise.kind == DIAGONAL:
        return lambda om: float(np.sum(wphi**2 / (a2 + om * om))) ** 2

    def density_sq(om):
        denom = a2 + om * om
        re = float(np.sum(wphi * a / denom))
        im = float(np.sum(wphi / denom))
        return (re * re + om * om * im * im) ** 2
    return density_sq


def full_buffer_scalar_draw(factor, n, rng, n_reps):
    """The scalar circulant draw as it was before its normals were streamed:
    one ``(2, n_reps, 1, m+1)`` normals buffer, ``amp * g`` in place, one
    ``1/sqrt(2)`` pass over the spectrum, then the two end bins unscaled."""
    m = len(factor) - 1
    g = rng.standard_normal((2, n_reps, 1, m + 1))
    amp, scl = factor[:, 0, 0], 1.0 / np.sqrt(2.0)
    spec = np.empty((n_reps, 1, m + 1), complex)
    np.multiply(amp, g[0], out=spec.real)
    np.multiply(amp, g[1], out=spec.imag)
    spec *= scl
    spec[..., 0] = amp[0] * g[0, ..., 0]
    spec[..., m] = amp[m] * g[0, ..., m]
    return np.fft.irfft(spec, n=2 * m)[..., :n]


def euler_state_covariance(model, dt: float, n_steps: int, every: int) -> np.ndarray:
    """Covariance of the states ``x_k(t_{jS})``, ``j = 1..n_steps/S``, of the
    exponential-Euler scheme ``x(t_{i+1}) = rho x(t_i) + phi dt^H u_i`` from
    zero, ``S = every``; shape (N, n_obs, N, n_obs).

    Built the long way: the dense covariance of the ``n_steps`` fGN
    increments, each mode's Euler filter matrix ``phi_k dt^H rho_k^(i-j)``
    (i >= j) and the rows of the observed states.  Diagonal noise drives
    each mode with its own fGN, rank-one noise all modes with one.
    """
    steps = np.arange(n_steps)
    fgn_cov = toeplitz(fgn_autocov(model.hurst, steps))
    lag = np.subtract.outer(steps, steps)
    observed = every * np.arange(1, n_steps // every + 1) - 1
    filters = [np.where(lag >= 0, phi * dt**model.hurst * rho ** np.maximum(lag, 0), 0.0)[observed]
               for rho, phi in zip(np.exp(-model.rates * dt), model.noise.loadings)]
    shared = model.noise.kind != DIAGONAL
    cov = np.zeros((model.n_modes, len(observed), model.n_modes, len(observed)))
    for k, left in enumerate(filters):
        for l, right in enumerate(filters):
            if shared or k == l:
                cov[k, :, l] = left @ fgn_cov @ right.T
    return cov
