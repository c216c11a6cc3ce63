"""Stationary covariance structure of the truncated evolution equation.

Mode ``k`` of the stationary solution is a fractional Ornstein-Uhlenbeck
process with rate ``a_k = alpha*lambda_k`` and loading ``phi_k``.  This module
evaluates the mode autocovariances

    r_kl(t) = E[ x_k(t) x_l(0) ],

which make up the lag-``t`` autocovariance matrix ``R(t)``, and computes from
them the stationary covariance ``Q = R(0)`` (its trace and ``<Qw, w>``) and the
variance limits that standardize the central limit theorems:

    s_n      = 2 * sum_{|i|<n} (1 - |i|/n) ||R(i*dt)||_HS^2
    s_inf*   = 2 * sum_{i in Z} ||R(i*dt)||_HS^2          (H < 3/4)
    u_inf*   = 2 * int_R ||R(t)||_HS^2 dt                 (H < 3/4)

together with the projected analogues built from ``r_z(t) = w' R(t) w``.
Lag sums add the tail of the large-lag expansion of ``r_kl`` in closed form
(reported separately); the time integrals are exact closed forms through
Parseval in the frequency domain, sums over mode pairs of elementary
Lorentzian-product integrals.

``_lag_table`` is the one evaluator of ``r_kl`` in production, in closed form
for every ``H in (0,1)``; the stationary covariance, the cached lag tables and
every series read it.  Partial fractions split the spectral integrand,

    1/((a_k+iw)(a_l-iw)) = [1/(a_k+iw) + 1/(a_l-iw)] / (a_k+a_l),

so each cross term reduces to one function of a single rate
(Cheridito, Kawaguchi & Maejima, EJP 8, 2003):

    r_kl(t) = phi_k phi_l [g_{a_k}(t) + g_{a_l}(-t)] / (a_k + a_l),
    g_a(t)  = H(2H-1) int_0^inf e^{-a s} |t-s|^{2H-2} ds.

With ``p = 2H-1``, Kummer's function ``M`` (DLMF 13.2) and the scaled upper
incomplete gamma ``G_p(x) = e^x Gamma(p, x)`` (DLMF 8.2), for ``t > 0``

    g_a(t)  = H t^p M(1, p+1, -a t) + H Gamma(p+1) a^{-p} e^{-a t},
    g_a(-t) = H p a^{-p} G_p(a t),

and ``g_a(0) = H Gamma(p+1) a^{-p}``.  Analytic continuation in ``p`` covers
``H < 1/2``; ``H = 1/2`` is the exponential limit.  A lag table therefore
needs ``2N`` single-rate vectors and one broadcast outer sum.  ``M``,
``G_p`` and the Hurwitz zeta of the series tails are evaluated in the
package (:func:`_kummer_m1`, :func:`_incgamma_scaled`,
:func:`_hurwitz_zeta`) by series, continued-fraction and asymptotic regimes,
so no command needs scipy; ``scipy.special`` is their test oracle.

The independent test oracle is ``spectral_cross_autocov``: the
frequency-domain integral
``phi_k phi_l c_H int e^{iwt} |w|^{1-2H} / ((a_k+iw)(a_l-iw)) dw`` with
``c_H = Gamma(2H+1) sin(pi H) / (2 pi)``, evaluated after rotating the
contour onto the imaginary axis, which trades the oscillatory integrand for a
principal-value integral plus an explicit pole term; adaptive
QAWS/Cauchy-weight quadrature then converges to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fgn
from .models import DIAGONAL, ModelConfig, ProjectionVector

__all__ = [
    "SeriesLimit",
    "QuadratureError",
    "spectral_cross_autocov",
    "stationary_covariance",
    "hs_norm_lags",
    "s_n",
    "s_infty_star",
    "u_infty_star",
    "r_z_sum",
    "r_z_integral",
    "trace_q",
    "qww",
    "lag_blocks",
    "block_covariance",
]

QUAD_RTOL = 1e-8
SUMMABLE_HURST = 0.75
TAIL_TERMS = 16
TAIL_ONSET = 64.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _c_spectral(h: float) -> float:
    """Spectral density constant c_H = Gamma(2H+1) sin(pi H) / (2 pi)."""
    return math.gamma(2.0 * h + 1.0) * math.sin(math.pi * h) / (2.0 * math.pi)


# --------------------------------------------------------------------------
# Special functions of the closed form: p = 2H-1 in (-1, 1) without 0, x > 0.
# --------------------------------------------------------------------------

_SERIES_SWITCH = 1.0
_KUMMER_SWITCH = 40.0
_ASYMPTOTIC_SWITCH = 256.0
_EPS = 2.0**-53


def _incgamma_fraction(p: float, x: np.ndarray) -> np.ndarray:
    """Legendre's continued fraction ``e^x Gamma(p, x) = x^p / (x+1-p -
    1(1-p)/(x+3-p - 2(2-p)/(x+5-p - ...)))`` by the modified Lentz method.

    Converges for every ``x > 0``: about 90 terms at ``x = 1``, 16 at
    ``x = 10`` and 5 at ``x = 256``.
    """
    tiny = 1e-300
    b = x + 1.0 - p
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    f = d.copy()
    for i in range(1, 300):
        an = -i * (i - p)
        b = b + 2.0
        d = an * d + b
        np.copyto(d, tiny, where=np.abs(d) < tiny)
        c = b + an / c
        np.copyto(c, tiny, where=np.abs(c) < tiny)
        d = 1.0 / d
        delta = d * c
        f *= delta
        if np.all(np.abs(delta - 1.0) <= 2.0 * _EPS):
            break
    return x**p * f


def _incgamma_scaled(p: float, x: np.ndarray) -> np.ndarray:
    """``G_p(x) = e^x Gamma(p, x)`` for ``x > 0``, stable for arbitrarily large ``x``.

    Three regimes:

    * below ``x = 1``, ``Gamma(p, x) = Gamma(p, 1) + int_x^1 t^{p-1} e^{-t} dt``
      with the integral summed term by term,
      ``sum_n (-1)^n (1 - x^{n+p}) / (n! (n+p))``: the terms are bounded by
      ``1/n!``, and the ``n = 0`` term ``-expm1(p ln x) / p`` stays exact as
      ``p -> 0``, so ``Gamma(p)`` and its pole never appear;
      ``Gamma(p, 1)`` comes from the continued fraction at ``x = 1``;
    * up to ``x = 256``, the continued fraction (:func:`_incgamma_fraction`);
    * beyond, the divergent-but-truncated asymptotic series
      ``x^{p-1} sum_j (p-1)(p-2)..(p-j) x^{-j}`` (DLMF 8.11.2), whose 12th
      term is already below machine precision there.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _SERIES_SWITCH
    large = x >= _ASYMPTOTIC_SWITCH
    mid = ~small & ~large
    any_small = bool(np.any(small))
    if any_small or np.any(mid):
        # x = 1 rides along as the last entry when the series needs Gamma(p, 1).
        frac = _incgamma_fraction(p, np.append(x[mid], 1.0) if any_small else x[mid])
        out[mid] = frac[:frac.size - any_small]
    if any_small:
        xs = x[small]
        log_x = np.log(xs)
        x_pow = np.exp(p * log_x)
        integral = -np.expm1(p * log_x) / p
        weight = 1.0
        for n in range(1, 20):
            x_pow = x_pow * xs
            weight /= -n
            integral += weight * (1.0 - x_pow) / (n + p)
        out[small] = np.exp(xs) * (frac[-1] / math.e + integral)
    if np.any(large):
        xl = x[large]
        out[large] = xl ** (p - 1.0) * _asymptotic_sum(xl, 1.0 - p, -1.0)
    return out


def _asymptotic_sum(x: np.ndarray, q: float, sign: float) -> np.ndarray:
    """``sum_k sign^k (q)_k x^{-k}`` for ``x > q``, truncated where the terms at
    the smallest ``x`` fall below rounding or stop decreasing; a term of a
    larger ``x`` is smaller, so that truncation holds for every entry."""
    worst = int(np.argmin(x))
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(200):
        if q + k >= x[worst] or abs(term[worst]) <= _EPS * abs(total[worst]):
            break
        term = term * (sign * (q + k)) / x
        total += term
    return total


def _kummer_m1(p: float, x: np.ndarray) -> np.ndarray:
    """Kummer's function ``M(1, p+1, -x)`` for ``x > 0`` (DLMF 13.2.2).

    Below ``x = 40``, Kummer's transformation ``M(1, p+1, -x) =
    e^{-x} M(p, p+1, x)`` gives ``e^{-x} (1 + p sum_{n>=1} x^n / (n! (n+p)))``,
    a sum of positive terms (at most about 95 of them).  Above, the
    asymptotic expansion on its Stokes line (DLMF 13.7.2),

        (p/x) sum_k (1-p)_k x^{-k} + Gamma(p+1) cos(pi p) x^{-p} e^{-x},

    summed by :func:`_asymptotic_sum` in two bands split at ``x = 256``, so
    that the many large arguments of a lag table take about 12 terms and no
    Stokes term; its smallest term is about ``sqrt(2 pi x) e^{-x}``
    relative, 1e-16 at ``x = 40``.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _KUMMER_SWITCH
    if np.any(small):
        xs = x[small]
        worst = int(np.argmax(xs))
        term = np.ones_like(xs)
        series = np.zeros_like(xs)
        for n in range(1, 200):
            term = term * xs / n
            step = term / (n + p)
            series += step
            if step[worst] <= _EPS * series[worst]:
                break
        out[small] = np.exp(-xs) * (1.0 + p * series)
    mid = ~small & (x < _ASYMPTOTIC_SWITCH)
    if np.any(mid):
        xm = x[mid]
        stokes = math.gamma(p + 1.0) * math.cos(math.pi * p) * xm**-p * np.exp(-xm)
        out[mid] = p / xm * _asymptotic_sum(xm, 1.0 - p, 1.0) + stokes
    large = x >= _ASYMPTOTIC_SWITCH
    if np.any(large):
        # e^{-x} < 1e-111 here: the Stokes term is below rounding.
        xl = x[large]
        out[large] = p / xl * _asymptotic_sum(xl, 1.0 - p, 1.0)
    return out


def _hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz ``zeta(s, a) = sum_{i>=0} (a+i)^{-s}`` for ``s > 1``, ``a >= 256``.

    Euler-Maclaurin summation from ``a`` (DLMF 2.10.1) with the Bernoulli
    terms up to ``B_6``; the first omitted term is below 2e-15 relative for
    ``s < 19``, the largest order :func:`_power_tail` asks for.
    """
    total = a ** (1.0 - s) / (s - 1.0) + 0.5 * a**-s
    rising, power = s, a ** (-s - 1.0)
    for k, coeff in enumerate((1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0)):
        total += coeff * rising * power
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2)
        power /= a * a
    return total


def _quad_with_error(func, a, b, **kw):
    """scipy quad returning (value, error estimate, worst-subinterval text)."""
    from scipy.integrate import quad

    out = quad(func, a, b, epsabs=1e-15, epsrel=1e-10, limit=200, full_output=1, **kw)
    val, err, info = out[0], out[1], out[2]
    detail = "no subintervals recorded"
    last = info.get("last", 0)
    if last:
        worst = int(np.argmax(info["elist"][:last]))
        detail = (f"worst subinterval [{info['alist'][worst]:.6g}, "
                  f"{info['blist'][worst]:.6g}] error {info['elist'][worst]:.3g}")
    return val, err, detail


# --------------------------------------------------------------------------
# Test oracle: frequency-domain evaluator (all H), contour-rotated.
# --------------------------------------------------------------------------

def _unit_spectral(ak: float, al: float, h: float, t: float, rtol: float = QUAD_RTOL) -> float:
    """E[x_k(t) x_l(0)] for unit loadings via the rotated spectral integral.

    For ``t >= 0`` the rotation onto the imaginary axis gives

        r(t) = c_H [ 2 pi sin(pi H) a_k^{1-2H} e^{-a_k t} / (a_k + a_l)
                     - 2 cos(pi H) PV int_0^inf v^{1-2H} e^{-vt}
                                        / ((a_k - v)(a_l + v)) dv ].
    """
    if t < 0:
        ak, al, t = al, ak, -t
    pole = 2.0 * math.pi * math.sin(math.pi * h) * ak ** (1.0 - 2.0 * h) \
        * math.exp(-ak * t) / (ak + al)
    if h == 0.5:
        return _c_spectral(h) * pole
    cos_h = math.cos(math.pi * h)
    expo = 1.0 - 2.0 * h

    def regular(v):
        return math.exp(-v * t) / ((ak - v) * (al + v))

    def cauchy_part(v):
        return v**expo * math.exp(-v * t) / (al + v)

    def tail(v):
        return v**expo * math.exp(-v * t) / ((ak - v) * (al + v))

    p1, e1, d1 = _quad_with_error(regular, 0.0, ak / 2.0, weight="alg", wvar=(expo, 0.0))
    p2, e2, d2 = _quad_with_error(cauchy_part, ak / 2.0, 1.5 * ak, weight="cauchy", wvar=ak)
    p3, e3, d3 = _quad_with_error(tail, 1.5 * ak, np.inf)
    value = _c_spectral(h) * (pole - 2.0 * cos_h * (p1 - p2 + p3))
    err = _c_spectral(h) * 2.0 * abs(cos_h) * (e1 + e2 + e3)
    # Absolute floor at the lag-0 magnitude: far-lag values far below it need
    # no relative resolution (they are negligible in every downstream sum).
    atol = 1e-12 * _c_spectral(h) * 2.0 * math.pi * ak ** (1.0 - 2.0 * h) / (ak + al)
    if err > max(rtol * abs(value), atol):
        worst = max(((e1, d1), (e2, d2), (e3, d3)), key=lambda z: z[0])
        raise QuadratureError(
            f"spectral autocovariance at (a_k={ak:g}, a_l={al:g}, H={h:g}, t={t:g}): "
            f"estimated error {err:.3g} exceeds max(rtol*|value|, atol) = "
            f"{max(rtol * abs(value), atol):.3g}; {worst[1]}"
        )
    return value


def _unit_spectral_direct(ak: float, al: float, h: float, t: float) -> float:
    """Reference evaluation of the same integral without contour rotation.

    Slow; kept as an independent cross-check of ``_unit_spectral``.
    """
    from scipy.integrate import quad

    if t < 0:
        ak, al, t = al, ak, -t

    def even(w):
        return w ** (1.0 - 2.0 * h) * (ak * al + w * w) / ((ak * ak + w * w) * (al * al + w * w))

    def odd(w):
        return w ** (1.0 - 2.0 * h) * (al - ak) * w / ((ak * ak + w * w) * (al * al + w * w))

    w0 = max(1.0, ak, al)
    if t == 0:
        head = quad(even, 0, w0, epsabs=1e-14, epsrel=1e-11, limit=400)[0]
        body = quad(even, w0, np.inf, epsabs=1e-14, epsrel=1e-11, limit=400)[0]
        return 2.0 * _c_spectral(h) * (head + body)
    head_c = quad(lambda w: even(w) * np.cos(w * t), 0, w0,
                  epsabs=1e-14, epsrel=1e-12, limit=500)[0]
    head_s = quad(lambda w: odd(w) * np.sin(w * t), 0, w0,
                  epsabs=1e-14, epsrel=1e-12, limit=500)[0]
    tail_c = quad(even, w0, np.inf, weight="cos", wvar=t,
                  epsabs=1e-14, limit=500, limlst=500)[0]
    tail_s = quad(odd, w0, np.inf, weight="sin", wvar=t,
                  epsabs=1e-14, limit=500, limlst=500)[0]
    return 2.0 * _c_spectral(h) * (head_c + head_s + tail_c + tail_s)


def spectral_cross_autocov(
    a_k: float,
    a_l: float,
    phi_k: float,
    phi_l: float,
    hurst: float,
    t: float,
    rtol: float = QUAD_RTOL,
) -> float:
    """Cross autocovariance of two modes sharing one driving noise.

    Valid for every ``H in (0, 1)``; the independent oracle of the closed form
    used in production.  ``t`` may be negative (``r_kl(-t) = r_lk(t)``).
    Raises :class:`QuadratureError` when the adaptive quadrature cannot
    certify the requested relative tolerance.
    """
    if a_k <= 0 or a_l <= 0:
        raise ValueError("mode rates must be positive")
    return phi_k * phi_l * _unit_spectral(float(a_k), float(a_l), float(hurst), float(t), rtol)


# --------------------------------------------------------------------------
# Closed form (production, all H).
# --------------------------------------------------------------------------

def _rate_terms(a: np.ndarray, h: float, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(g_a(t), g_a(-t))`` for rates ``a`` on lags ``ts >= 0``, shape (N, len(ts)).

    At ``t = 0`` both sides take ``H Gamma(p+1) a^{-p}``: for ``H < 1/2`` the
    one-sided limits also carry ``+H t^p`` and ``-H t^p``, which cancel in
    every pairwise sum ``g_{a_k}(t) + g_{a_l}(-t)``.
    """
    a = np.asarray(a, dtype=float)[:, None]
    ts = np.asarray(ts, dtype=float)[None, :]
    if h == 0.5:
        return np.exp(-a * ts), np.zeros((a.shape[0], ts.shape[1]))
    p = 2.0 * h - 1.0
    g0 = h * math.gamma(p + 1.0) * a ** (-p)
    fwd = np.repeat(g0, ts.shape[1], axis=1)
    bwd = fwd.copy()
    pos = ts[0] > 0
    tp = ts[:, pos]
    x = a * tp
    fwd[:, pos] = h * tp**p * _kummer_m1(p, x) + g0 * np.exp(-x)
    bwd[:, pos] = h * p * a ** (-p) * _incgamma_scaled(p, x)
    return fwd, bwd


def _lag_table(a: np.ndarray, phi: np.ndarray, h: float, diagonal: bool,
               lags: np.ndarray) -> np.ndarray:
    """``r_kl`` on lags ``>= 0``: shape (N, L) of ``r_kk`` for diagonal noise,
    (N, N, L) with ``[k, l, i] = r_kl(lags[i])`` for rank-one noise."""
    fwd, bwd = _rate_terms(a, h, lags)
    if diagonal:
        return (phi**2 / (2.0 * a))[:, None] * (fwd + bwd)
    table = fwd[:, None, :] + bwd[None, :, :]
    table *= (np.outer(phi, phi) / np.add.outer(a, a))[:, :, None]
    return table


def stationary_covariance(model: ModelConfig) -> np.ndarray:
    """Stationary covariance ``Q = R(0)``: the mode variances, shape (N,), for
    diagonal noise; the full (N, N) matrix for rank-one noise."""
    return _lag_table(model.rates, model.noise.loadings, model.hurst,
                      model.noise.kind == DIAGONAL, np.zeros(1))[..., 0]


# --------------------------------------------------------------------------
# Lag tables (cached per model and step).
# --------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _mode_lag_table(key: tuple, dt: float, n_lags: int) -> np.ndarray:
    """r arrays on the lag grid 0..n_lags-1 for the model identified by key.

    Diagonal noise: shape (N, n_lags) of per-mode autocovariances.
    Rank-one noise: shape (N, N, n_lags) with [k, l, i] = r_kl(i*dt).
    """
    alpha, h, kind, eigs, loadings = key
    return _lag_table(alpha * np.asarray(eigs), np.asarray(loadings), h,
                      kind == DIAGONAL, np.arange(n_lags) * dt)


def mode_lag_table(model: ModelConfig, dt: float, n_lags: int) -> np.ndarray:
    """Cached autocovariance values on the lag grid ``0, dt, .., (n_lags-1)dt``; refused
    before allocation when the table and the <= 16 (N, lags) temporaries of
    :func:`_rate_terms` would exceed physical memory."""
    # Request in growth-friendly chunks so repeated calls share cache entries.
    padded = 1 << (max(int(n_lags), 64) - 1).bit_length()
    n = model.n_modes
    entries = n if model.noise.kind == DIAGONAL else n * n
    need, memory = 8.0 * padded * (entries + 16 * n), fgn._physical_memory()
    if need > memory:
        raise ValueError(f"lag table of {padded} lags for N = {n} modes needs "
                         f"{need / 2**30:.3g} GiB, more than the {memory / 2**30:.3g} GiB "
                         "of physical memory; use a larger dt or drift, or fewer steps")
    table = _mode_lag_table(model.cache_key(), float(dt), padded)
    return table[..., :n_lags]


def lag_blocks(model: ModelConfig, dt: float, n_lags: int) -> np.ndarray:
    """The lag table as block sequences, shape (B, n_lags, p, p).

    Diagonal noise: N independent scalar sequences (B = N, p = 1).  Rank-one
    noise: one sequence of N x N blocks (B = 1, p = N) with
    ``[0, i, k, l] = r_kl(i dt)``.  A view of the cached table.
    """
    table = mode_lag_table(model, dt, n_lags)
    if model.noise.kind == DIAGONAL:
        return table[:, :, None, None]
    return np.moveaxis(table, -1, 0)[None]


def hs_norm_lags(model: ModelConfig, dt: float, n_lags: int) -> np.ndarray:
    """``||R(i*dt)||_HS`` for ``i = 0..n_lags-1``, from the cached lag table."""
    table = mode_lag_table(model, dt, n_lags)
    return np.sqrt(np.sum(table**2, axis=tuple(range(table.ndim - 1))))


# --------------------------------------------------------------------------
# Variance series and integrals.
# --------------------------------------------------------------------------

def s_n(model: ModelConfig, n: int, dt: float = 1.0) -> float:
    """Finite-horizon variance factor ``2 sum_{|i|<n} (1-|i|/n) ||R(i dt)||^2``."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    g = hs_norm_lags(model, dt, n) ** 2
    weights = 1.0 - np.arange(n) / n
    return float(2.0 * (g[0] + 2.0 * np.sum(weights[1:] * g[1:])))


@dataclass(frozen=True)
class SeriesLimit:
    """A series limit as lag sum plus closed-form tail, or an exact integral (tail 0)."""

    value: float          # partial + tail
    partial: float
    tail_estimate: float  # exact to rounding: the expansion tail past the cutoff
    cutoff: float         # last lag included (sum); inf (integral)


def _require_summable(h: float, what: str) -> None:
    if h >= SUMMABLE_HURST:
        raise ValueError(
            f"{what} diverges for H >= 3/4 (non-summable regime); got H = {h}"
        )


def _tail_coefficients(model: ModelConfig) -> np.ndarray:
    """``e_j`` of ``r_kl(t) ~ t^{2H-2} sum_{j<J} e_{j,kl} t^{-j}``, J = :data:`TAIL_TERMS`,
    laid out as the lag table with ``j`` in place of the lag.  By DLMF 13.7.2 and
    8.11.2 in the closed form, up to ``O(e^{-a_1 t})`` and with ``p = 2H-1``,

        e_{j,kl} = phi_k phi_l H p (1-p)_j (a_k^{-j-1} + (-1)^j a_l^{-j-1}) / (a_k + a_l):

    odd ``j`` cancel on the diagonal and all vanish at ``H = 1/2``.  The first
    omitted term, ``(1-p)_J (a_1 t)^{-J}`` relative, is below 4e-15 from
    ``a_1 t =`` :data:`TAIL_ONSET` on.
    """
    a, phi, h = model.rates, model.noise.loadings, model.hurst
    p = 2.0 * h - 1.0
    order = np.arange(TAIL_TERMS)
    rising = np.cumprod(np.concatenate(([1.0], 1.0 - p + order[:-1])))
    powers = a[:, None] ** (-order - 1.0)
    if model.noise.kind == DIAGONAL:
        return (h * p * phi**2 / a)[:, None] * (order % 2 == 0) * rising * powers
    pair = powers[:, None, :] + (-1.0) ** order * powers[None, :, :]
    return (h * p * np.outer(phi, phi) / np.add.outer(a, a))[:, :, None] * rising * pair


def _power_tail(coefficients: np.ndarray, h: float, dt: float, start: int) -> float:
    """``4 sum_{i>=start} sum_q g_q(i dt)^2``, ``g_q(t) = t^{2H-2} sum_j c_{q,j} t^{-j}``
    with rows ``q`` on the leading axes: ``4 sum_{m<J} F_m dt^{-s} zeta(s, start)``,
    ``s = 4-4H+m``, with the Cauchy square ``F_m = sum_q sum_{i+j=m} c_{q,i} c_{q,j}``."""
    total = 0.0
    for m in range(coefficients.shape[-1]):
        square = float(np.sum(coefficients[..., :m + 1] * coefficients[..., m::-1]))
        s = 4.0 - 4.0 * h + m
        total += square * dt**-s * _hurwitz_zeta(s, start)
    return 4.0 * total


def _series_limit(model: ModelConfig, dt: float, contract, what: str) -> SeriesLimit:
    """``2 sum_{i in Z} |contract(R(i dt))|^2`` for ``contract`` linear on the mode axes:
    the lag table to ``L = max(256, ceil(64 / (a_1 dt)))`` lags, from where
    :func:`_tail_coefficients` is exact to rounding, plus the tail from ``L`` on."""
    _require_summable(model.hurst, what)
    n_lags = max(256, math.ceil(TAIL_ONSET / (float(np.min(model.rates)) * dt)))
    lags = contract(mode_lag_table(model, dt, n_lags))
    squares = np.sum(lags**2, axis=tuple(range(lags.ndim - 1)))
    partial = float(2.0 * (squares[0] + 2.0 * np.sum(squares[1:])))
    tail = _power_tail(contract(_tail_coefficients(model)), model.hurst, dt, n_lags)
    return SeriesLimit(partial + tail, partial, tail, float((n_lags - 1) * dt))


def s_infty_star(model: ModelConfig, dt: float = 1.0) -> SeriesLimit:
    """Series limit ``2 sum_{i in Z} ||R(i dt)||^2`` for ``H < 3/4``, tail in closed form."""
    return _series_limit(model, dt, lambda table: table, "s_inf*")


def _expm1_ratio(x: np.ndarray) -> np.ndarray:
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)


def _lorentzian_square_integral(model: ModelConfig, weights: np.ndarray,
                                what: str) -> SeriesLimit:
    """``8 pi c_H^2 int_0^inf w^{2-4H} sum_kl g_kl / ((A_k+w^2)(A_l+w^2)) dw``,
    ``A = a^2``: by Parseval, ``2 int_R g(t)^2 dt`` for every autocovariance
    here, with pair weights ``g``.  With ``q = 1/2 - 2H``, ``L = log(A_l/A_k)``
    and ``E(x) = expm1(x)/x``, ``E(0) = 1``, each pair integral is exactly
    ``1/2 A_k^{q-1} (pi q / sin(pi q)) E(qL) / E(L)`` (no tail).
    """
    _require_summable(model.hurst, what)
    q = 0.5 - 2.0 * model.hurst
    a2 = model.rates**2
    log_ratio = np.log(a2[None, :] / a2[:, None])
    pairs = (a2[:, None] ** (q - 1.0) * _expm1_ratio(q * log_ratio)
             / (2.0 * np.sinc(q) * _expm1_ratio(log_ratio)))
    value = float(8.0 * math.pi * _c_spectral(model.hurst) ** 2 * np.sum(weights * pairs))
    return SeriesLimit(value=value, partial=value, tail_estimate=0.0, cutoff=math.inf)


def u_infty_star(model: ModelConfig) -> SeriesLimit:
    """Integral limit ``2 int_R ||R(t)||^2 dt`` for ``H < 3/4``.

    Computed in the frequency domain: the Hilbert-Schmidt square sums over
    mode pairs collapse to ``(sum_k phi_k^2/(a_k^2+w^2))^2`` for rank-one
    noise and ``sum_k phi_k^4/(a_k^2+w^2)^2`` for diagonal noise.
    """
    phi2 = model.noise.loadings**2
    weights = np.diag(phi2**2) if model.noise.kind == DIAGONAL else np.outer(phi2, phi2)
    return _lorentzian_square_integral(model, weights, "u_inf*")


def _project(table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``w' R w`` along the last axis of a lag table or of its tail coefficients."""
    if table.ndim == 2:
        return np.einsum("k,kt->t", coeffs**2, table)
    return np.einsum("k,l,klt->t", coeffs, coeffs, table)


def _r_z_lags(model: ModelConfig, w: ProjectionVector, dt: float, n_lags: int) -> np.ndarray:
    return _project(mode_lag_table(model, dt, n_lags), w.coefficients)


def r_z_sum(model: ModelConfig, w: ProjectionVector, dt: float = 1.0) -> SeriesLimit:
    """``2 sum_{i in Z} r_z(i dt)^2`` for ``H < 3/4``, tail in closed form."""
    return _series_limit(model, dt, lambda table: _project(table, w.coefficients),
                         "projected series limit")


def r_z_integral(model: ModelConfig, w: ProjectionVector) -> SeriesLimit:
    """``2 int_R r_z(t)^2 dt`` for ``H < 3/4`` (frequency domain, exact).

    The projected process has spectral density ``c_H |w|^{1-2H} |B(w)|^2``
    with ``B(w) = sum_k c_k / (a_k + i w)``, ``c = w * phi``, for rank-one
    noise, and ``c_H |w|^{1-2H} sum_k c_k^2/(a_k^2+w^2)`` for diagonal noise.
    By partial fractions ``|B|^2 = sum_k beta_k / (a_k^2+w^2)``, ``beta_k =
    2 a_k c_k sum_l c_l / (a_k+a_l)``.
    """
    coeffs = w.coefficients
    if len(coeffs) != model.n_modes:
        raise ValueError("projection length must match the model truncation")
    c = coeffs * model.noise.loadings
    if model.noise.kind == DIAGONAL:
        beta = c**2
    else:
        a = model.rates
        beta = 2.0 * a * c * (c @ (1.0 / np.add.outer(a, a)))
    return _lorentzian_square_integral(model, np.outer(beta, beta), "projected integral limit")


# --------------------------------------------------------------------------
# Aggregates used by the estimators and samplers.
# --------------------------------------------------------------------------

def _mode_variances(model: ModelConfig) -> np.ndarray:
    """Diagonal of the stationary covariance, shape (N,)."""
    r0 = stationary_covariance(model)
    return r0 if r0.ndim == 1 else np.diagonal(r0)


def trace_q(model: ModelConfig) -> float:
    """Trace of the stationary covariance at the model's own drift."""
    return float(np.sum(_mode_variances(model)))


def trace_tail_ratio(model: ModelConfig) -> float:
    """Last-mode share of the stationary trace (truncation diagnostics)."""
    variances = _mode_variances(model)
    total = float(np.sum(variances))
    return float(variances[-1] / total) if total > 0 else 0.0


def qww(model: ModelConfig, w: ProjectionVector) -> float:
    """Quadratic form ``<Q w, w>`` of the stationary covariance."""
    coeffs = w.coefficients
    if len(coeffs) != model.n_modes:
        raise ValueError("projection length must match the model truncation")
    r0 = stationary_covariance(model)
    if r0.ndim == 1:
        return float(np.sum(coeffs**2 * r0))
    return float(coeffs @ r0 @ coeffs)


def block_covariance(model: ModelConfig, n: int, dt: float = 1.0):
    """Covariance of the stacked stationary coordinates on an n-point grid.

    Diagonal noise: list of N symmetric Toeplitz blocks (n x n), one per mode.
    Rank-one noise: one full (nN x nN) symmetric matrix ordered mode-major,
    entry ((k,i),(l,j)) = r_kl((i-j) dt).
    """
    n = int(n)
    blocks = [fgn.block_toeplitz(lags, n) for lags in lag_blocks(model, dt, n)]
    return blocks if model.noise.kind == DIAGONAL else blocks[0]
