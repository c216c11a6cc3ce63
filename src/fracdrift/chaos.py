"""Cumulants of the normalized quadratic functional and distances to normal.

The centered, standardized sample second moment of the stationary solution,

    F_n = (1/sqrt(n s_n)) sum_{i<=n} (|Z(i dt)|^2 - trace),

is a quadratic form z'z - E z'z in the stacked Gaussian coordinate vector z,
so its cumulants are exact trace identities of the stacked covariance S:

    kappa_p(z'z) = 2^{p-1} (p-1)! Tr(S^p),
    kappa_3(F_n) = 8 Tr(S^3) / (2 Tr(S^2))^{3/2},
    kappa_4(F_n) = 48 Tr(S^4) / (2 Tr(S^2))^2,      n s_n = 2 Tr(S^2).

``S`` is block-Toeplitz, ``S_ij = R(i-j)`` with ``R(-t) = R(t)^T``: N scalar
sequences for diagonal noise, one sequence of N x N blocks for rank-one noise.
The traces come from the lag table alone, without building ``S``.  The blocks
of ``M = S^2`` obey the displacement recurrence

    M_0j = sum_k R(-k) R(k-j)                    (one FFT block convolution),
    M_i0 = M_0i^T,
    M_ij = M_(i-1)(j-1) + R(i) R(-j) - R(i-n) R(n-j),

so each block row follows from the one before with one block product, and

    Tr S^2 = sum_{|t|<n} (n-|t|) ||R(t)||_F^2,
    Tr S^3 = sum_ij <M_ij, R(i-j)>_F,     Tr S^4 = sum_ij ||M_ij||_F^2.

That costs O(n^2 p^3) time and O(n p^2) memory for p x p blocks; a scalar
sequence is persymmetric, so rows i and n-1-i give equal sums and half the
rows suffice.  Eigenvalues of dense blocks (``eigvalsh``) serve only as the
test oracle.

Alongside the exact values, ``cumulant_bound_shapes`` evaluates the structural
upper-bound expressions (with their unspecified absolute constants stripped):

    B_3(n) = n^{-1/2} s_n^{-3/2} ( sum_{|i|<n} ||R(i dt)||^{3/2} )^2,
    B_4(n) = n^{-1}   s_n^{-2}   ( sum_{|i|<n} ||R(i dt)||^{4/3} )^3.

The distances to the normal law are the Kolmogorov and 1-Wasserstein
distances; ``kolmogorov_sf(n, ks_distance(z))`` is the two-sided Kolmogorov
p-value of a sample ``z`` of size n, from Stephens' finite-n form of the
asymptotic law.  These laws are evaluated in the package, without
``scipy.special``: the normal cdf from Cephes' rational approximations of
``erf`` and ``erfc`` (the ones ``scipy.special.ndtr`` evaluates, to the
bit), the normal quantiles from ``statistics.NormalDist.inv_cdf`` (Wichura's
AS 241), cached per sample size, and Kolmogorov's limit law from its theta
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covariance import SUMMABLE_HURST, hs_norm_lags, lag_blocks, s_n as s_n_series
from .models import DIAGONAL, ModelConfig

__all__ = [
    "CumulantReport",
    "exact_cumulants",
    "cumulant_bound_shapes",
    "xi_H",
    "ks_distance",
    "kolmogorov_sf",
    "wasserstein1_distance",
    "k_statistics",
    "kolmogorov_wasserstein_bound",
]

#: Largest stacked dimension (n for diagonal noise, n*N for rank-one) accepted
#: by the exact-cumulant traces.  No dense matrix is built; the cap bounds the
#: O(n^2 p^3) time of the displacement recurrence.
CUMULANT_DIM_CAP = 8192


@dataclass(frozen=True)
class CumulantReport:
    """Exact cumulants, bound shapes, and the variance factor at one n."""

    n: int
    kappa3_exact: float
    kappa4_exact: float
    kappa3_bound_shape: float
    kappa4_bound_shape: float
    s_n: float


def _power_traces(lags: np.ndarray) -> tuple[float, float, float]:
    """(Tr S^2, Tr S^3, Tr S^4) summed over independent block-Toeplitz matrices.

    ``lags[b, t] = R_b(t)``, shape (B, n, p, p); matrix b has blocks
    ``S_ij = R_b(i-j)`` with ``R_b(-t) = R_b(t)^T``.  Blocks are kept side by
    side, shape (B, p, K p).  Both ``S`` and ``M = S^2`` live in buffers of
    2n-1 blocks whose block s starts as the entry at displacement n-1-s of the
    first block row and column; row i is the window of blocks n-1-i .. 2n-2-i,
    so the recurrence's shift ``M_(i-1)(j-1) -> M_ij`` leaves every block
    where it is and only the rank-2p correction is added in place.
    """
    nb, n, p, _ = lags.shape
    lags_t = lags.swapaxes(-1, -2)  # R(-t)

    def side_by_side(blocks: np.ndarray) -> np.ndarray:
        return blocks.transpose(0, 2, 1, 3).reshape(nb, p, -1)

    sq_norms = np.einsum("btij,btij->t", lags, lags)
    weights = 2.0 * (n - np.arange(n))
    weights[0] = n
    tr2 = float(weights @ sq_norms)

    # Row 0, M_0j = sum_k A_k B_(j-k) with A_k = R(-k) and B_m = R(-m): the
    # circular convolution is exact for j < n once the length is >= 2n-1.
    size = 1 << (2 * n - 2).bit_length()
    head = np.zeros((nb, size, p, p))
    head[:, :n] = lags_t
    full = head.copy()
    full[:, size - n + 1:] = lags[:, :0:-1]
    spectrum = np.fft.rfft(head, axis=1) @ np.fft.rfft(full, axis=1)
    first = np.fft.irfft(spectrum, n=size, axis=1)[:, :n]
    # M_i0 = M_0i^T for i = n-1 .. 1, then M_0j for j = 0 .. n-1.
    buf = np.concatenate(
        [side_by_side(first[:, :0:-1].swapaxes(-1, -2)), side_by_side(first)], axis=-1)

    back = side_by_side(lags[:, :0:-1])                              # R(n-1) .. R(1)
    lagged = np.concatenate([back, side_by_side(lags_t)], axis=-1)   # block s: R(n-1-s)
    right = np.concatenate([side_by_side(lags_t[:, 1:]), back], axis=1)
    left = np.concatenate([lags[:, 1:], -lags_t[:, :0:-1]], axis=-1)  # [R(i), -R(i-n)]

    tr3 = tr4 = 0.0
    for i in range((n + 1) // 2 if p == 1 else n):
        lo = (n - 1 - i) * p
        if i:
            buf[..., lo + p:lo + n * p] += left[:, i - 1] @ right
        row = buf[..., lo:lo + n * p]
        weight = 1.0 if p > 1 or 2 * i == n - 1 else 2.0
        tr3 += weight * float(np.einsum("bij,bij->", row, lagged[..., lo:lo + n * p]))
        tr4 += weight * float(np.einsum("bij,bij->", row, row))
    return tr2, tr3, tr4


def exact_cumulants(model: ModelConfig, n: int, dt: float = 1.0) -> CumulantReport:
    """Exact third/fourth cumulants of F_n from stacked-covariance traces."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = n if model.noise.kind == DIAGONAL else n * model.n_modes
    if dim > CUMULANT_DIM_CAP:
        raise ValueError(
            f"stacked dimension {dim} exceeds cap {CUMULANT_DIM_CAP} of the "
            "O(n^2 p^3) trace recurrence; use Monte Carlo k-statistics for "
            "cumulants at this size"
        )
    tr2, tr3, tr4 = _power_traces(lag_blocks(model, dt, n))
    kappa3 = 8.0 * tr3 / (2.0 * tr2) ** 1.5
    kappa4 = 48.0 * tr4 / (2.0 * tr2) ** 2
    b3_shape, b4_shape = cumulant_bound_shapes(model, n, dt)
    return CumulantReport(
        n=n,
        kappa3_exact=kappa3,
        kappa4_exact=kappa4,
        kappa3_bound_shape=b3_shape,
        kappa4_bound_shape=b4_shape,
        s_n=2.0 * tr2 / n,
    )


def cumulant_bound_shapes(model: ModelConfig, n: int, dt: float = 1.0) -> tuple[float, float]:
    """(B_3(n), B_4(n)) -- the cumulant bound expressions sans constants."""
    n = int(n)
    g = hs_norm_lags(model, dt, n)
    sn = s_n_series(model, n, dt)
    sum32 = g[0] ** 1.5 + 2.0 * float(np.sum(g[1:] ** 1.5))
    sum43 = g[0] ** (4.0 / 3.0) + 2.0 * float(np.sum(g[1:] ** (4.0 / 3.0)))
    b3 = sum32**2 / (np.sqrt(n) * sn**1.5)
    b4 = sum43**3 / (n * sn**2)
    return float(b3), float(b4)


def xi_H(hurst: float, x: float) -> float:
    """Convergence-rate upper bound: ``x^{-1/2}`` for H <= 5/8, ``x^{4H-3}``
    for 5/8 < H < 3/4.  Undefined (raises) for H >= 3/4."""
    h = float(hurst)
    if h >= SUMMABLE_HURST:
        raise ValueError("no Berry-Esseen regime for H >= 3/4")
    x = float(x)
    if x <= 0:
        raise ValueError("sample size must be positive")
    if h <= 0.625:
        return x**-0.5
    return x ** (4.0 * h - 3.0)


# Cephes' rational approximations of erf and erfc (S. L. Moshier, ndtr.c):
# the cdf below is scipy.special.ndtr to the bit, so ks_distance is
# scipy.stats.kstest's statistic exactly.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_SQRT_HALF = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843E2


def _pair(num: tuple, den: tuple) -> np.ndarray:
    """Stack two coefficient lists, highest power first, for one Horner pass
    over both; the shorter is padded with leading zeros (``0 x + c = c``)."""
    k = max(len(num), len(den))
    return np.array([(0.0,) * (k - len(num)) + num,
                     (0.0,) * (k - len(den)) + den]).T[:, :, None]


_ERF = _pair(_ERF_T, _ERF_U)
_ERFC_NEAR = _pair(_ERFC_P, _ERFC_Q)    # 1 <= z < 8
_ERFC_FAR = _pair(_ERFC_R, _ERFC_S)     # z >= 8


def _rational(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Numerator and denominator of ``table`` at ``x``, shape (2, len(x))."""
    out = table[0] * x + table[1]
    for c in table[2:]:
        out *= x
        out += c
    return out


def _ndtr(a) -> np.ndarray:
    """Standard normal cdf, elementwise.

    With ``x = a/sqrt 2`` and ``z = |x|``: ``(1 + erf(x)) / 2`` below
    ``z = 1/sqrt 2``, and beyond ``erfc(z) / 2`` (one minus it for
    ``x > 0``), where ``erfc(z) = 1 - erf(z)`` below ``z = 1``,
    ``e^{-z^2} P(z)/Q(z)`` above (``math.exp`` for the factor) and 0 where
    ``z^2`` exceeds the largest argument of a normal ``exp``.
    """
    a = np.asarray(a, dtype=float)
    x = a.reshape(-1) * _SQRT_HALF
    z = np.abs(x)
    erfc = np.full_like(x, np.nan)
    small = z < 1.0
    if np.any(small):
        xs = x[small]
        num, den = _rational(xs * xs, _ERF)
        erf = xs * num / den
        erfc[small] = 1.0 - np.abs(erf)
    for part, table in ((z >= 1.0) & (z < 8.0), _ERFC_NEAR), (z >= 8.0, _ERFC_FAR):
        if np.any(part):
            zp = z[part]
            sq = zp * zp
            num, den = _rational(zp, table)
            expo = np.fromiter(map(math.exp, (-sq).tolist()), float, sq.size)
            erfc[part] = np.where(sq > _MAXLOG, 0.0, expo * num / den)
    y = 0.5 * erfc
    out = np.where(x > 0, 1.0 - y, y)
    centre = z < _SQRT_HALF
    if np.any(centre):
        out[centre] = 0.5 + 0.5 * erf[centre[small]]
    return out.reshape(a.shape)


def _ndtri(q) -> np.ndarray:
    """Standard normal quantile, elementwise, for ``0 < q < 1``."""
    # statistics pulls in decimal and fractions; only the quantiles need it.
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(v) for v in np.ravel(q)]).reshape(np.shape(q))


@lru_cache(maxsize=16)
def _normal_scores(m: int) -> np.ndarray:
    """``Phi^{-1}((i - 1/2) / m)`` for ``i = 1..m``, read-only."""
    scores = _ndtri((np.arange(1, m + 1) - 0.5) / m)
    scores.flags.writeable = False
    return scores


def _kolmogorov(y: float) -> float:
    """Survival function of Kolmogorov's limit law, ``P(K >= y)``.

    ``2 sum_{k>=1} (-1)^{k-1} e^{-2 k^2 y^2}`` above ``y = 0.82``; below, one
    minus the theta-function form of the cdf,
    ``sqrt(2 pi) / y sum_{k>=1} e^{-(2k-1)^2 pi^2 / (8 y^2)}``.  Both series
    are summed to below rounding.
    """
    if y <= 0.0:
        return 1.0
    if y <= 0.82:
        r = math.pi / y
        w = -r * r / 8.0
        return 1.0 - math.sqrt(2.0 * math.pi) / y * sum(
            math.exp(w * (2 * k - 1) ** 2) for k in range(1, 6))
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * y * y) for k in range(1, 9))


def ks_distance(samples: np.ndarray, localize: float | None = None) -> float:
    """Kolmogorov distance of the empirical law to the standard normal.

    With ``localize=K`` the supremum is restricted to ``[-K, K]`` (evaluated at
    the sample points inside and at the two endpoints).
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    m = len(xs)
    if m == 0:
        raise ValueError("need at least one sample")
    cdf = _ndtr(xs)
    upper = np.arange(1, m + 1) / m - cdf   # F_hat(x_i) - Phi(x_i)
    lower = cdf - np.arange(0, m) / m       # Phi(x_i) - F_hat(x_i^-)
    if localize is None:
        return float(max(upper.max(), lower.max()))
    k = float(localize)
    inside = (xs > -k) & (xs <= k)
    candidates = [0.0]
    if np.any(inside):
        candidates.append(float(upper[inside].max()))
        candidates.append(float(lower[inside].max()))
    ends = np.array([-k, k])
    emp = np.searchsorted(xs, ends, side="right") / m
    candidates.extend(np.abs(emp - _ndtr(ends)).tolist())
    return float(max(candidates))


def kolmogorov_sf(n: int, d: float) -> float:
    """Two-sided Kolmogorov p-value ``P(D_n >= d)`` for ``n`` samples, by
    Stephens' finite-n correction of the asymptotic law (JRSS B 32, 1970)."""
    if int(n) != n or n < 1:
        raise ValueError(f"sample size must be a positive integer, got {n}")
    root = np.sqrt(n)
    return _kolmogorov((root + 0.12 + 0.11 / root) * d)


def wasserstein1_distance(samples: np.ndarray) -> float:
    """Empirical 1-Wasserstein distance to the standard normal via quantile
    coupling: mean |x_(i) - Phi^{-1}((i - 1/2)/m)|."""
    xs = np.sort(np.asarray(samples, dtype=float))
    m = len(xs)
    if m == 0:
        raise ValueError("need at least one sample")
    return float(np.mean(np.abs(xs - _normal_scores(m))))


def k_statistics(samples: np.ndarray) -> tuple[float, float, float]:
    """Unbiased cumulant estimators (k_2, k_3, k_4) of a sample."""
    x = np.asarray(samples, dtype=float)
    m = len(x)
    if m < 4:
        raise ValueError("k-statistics need at least four samples")
    d = x - x.mean()
    m2 = float(np.mean(d**2))
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    k2 = m / (m - 1) * m2
    k3 = m**2 / ((m - 1) * (m - 2)) * m3
    k4 = m**2 * ((m + 1) * m4 - 3 * (m - 1) * m2**2) / ((m - 1) * (m - 2) * (m - 3))
    return k2, k3, k4


def kolmogorov_wasserstein_bound(d_w: float) -> float:
    """Upper bound ``2 sqrt(C d_W)`` on the Kolmogorov distance to a normal
    with density bound ``C = 1/sqrt(2 pi)``."""
    return float(2.0 * np.sqrt(d_w / np.sqrt(2.0 * np.pi)))
