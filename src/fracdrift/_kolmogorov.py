"""Exact two-sided Kolmogorov law: the p-value ``P(D_n >= d)`` of a KS test.

``D_n = sup_x |F_n(x) - F(x)|`` for ``n`` samples from a continuous ``F``.
The regions are those of Simard & L'Ecuyer, "Computing the two-sided
Kolmogorov-Smirnov distribution", J. Stat. Softw. 39(11), 2011:

* the Ruben-Gambino closed forms at the edges ``n d <= 1`` and
  ``n d >= n-1``;
* ``2 * smirnov(n, d)`` (the one-sided law, exact for ``d >= 1/2``, and the
  Miller approximation in the far upper tail);
* the Durbin matrix, evaluated as in Marsaglia, Tsang & Wang, "Evaluating
  Kolmogorov's distribution", J. Stat. Softw. 8(18), 2003: one entry of the
  n-th power of a (2k-1)-square matrix, k = ceil(n d);
* the Pomeranz recursion for ``n <= 140``;
* the Pelz-Good expansion for large ``n`` near the body.

The code follows ``scipy/stats/_ksstats.py`` operation for operation, so the
p-values equal ``scipy.stats.kstwo.sf(d, n)`` (the ``kstest`` p-value) to
the last bit, without importing ``scipy.stats``.  That file carries this
notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import numpy as np
from scipy.special import smirnov

__all__ = ["kolmogorov_sf"]

# Intermediate results are rescaled by 2^128 to stay clear of under/overflow.
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_{2j}/(2j)/(2j-1), j = 8..1 (B_m the Bernoulli numbers).
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _log_nfactorial_div_n_pow_n(n: int):
    """``log(n!/n^n)`` by Stirling's series with ``n log n`` removed up front."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _durbin_cdf(n: int, d):
    """``P(D_n < d)`` from the Durbin matrix, Marsaglia-Tsang-Wang style.

    With ``n d = k - h`` (k integer, 0 <= h < 1), the answer is
    ``n!/n^n`` times entry (k, k) of ``H^n``, H the (2k-1)-square matrix
    below; the power is taken by repeated squaring with 2^128 rescaling.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    big = np.zeros([m, m])
    # v: first column (and reversed last row), v[j] = (1 - h^(j+1)) / (j+1)!;
    # w[j] = 1/j! fills the band above the diagonal.
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        big[i - 1:, i] = w[:m - i + 1]
    big[:, 0] = v
    big[-1, :] = np.flip(v, axis=0)

    power = np.eye(np.shape(big)[0])
    nn = n
    expnt = 0      # scaling of power
    big_expnt = 0  # scaling of big
    while nn > 0:
        if nn % 2:
            power = np.matmul(power, big)
            expnt += big_expnt
        big = np.matmul(big, big)
        big_expnt *= 2
        if np.abs(big[k - 1, k - 1]) > _EP128:
            big /= _EP128
            big_expnt += _E128
        nn = nn // 2

    p = power[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _pomeranz_bounds(i: int, n: int, ll: int, ceilf: int, roundf: int) -> tuple[int, int]:
    """First and last nonzero entry of row ``i`` of the Pomeranz recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz_cdf(n: int, x):
    """``P(D_n < x)`` by the Pomeranz recursion (Algorithm 487, CACM 1974).

    Each of the 2n+1 rows is a short convolution of the previous row with
    one of three truncated Poisson weight vectors; only two rows are kept,
    and the answer is n! times the final entry.
    """
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)
    gpower = np.empty(npwrs)       # (g/n)^m / m!
    twogpower = np.empty(npwrs)    # (2g/n)^m / m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m / m!
    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    v0 = np.zeros([npwrs])
    v1 = np.zeros([npwrs])
    v1[0] = 1
    v0s, v1s = 0, 0  # first index held by each row
    j1, j2 = _pomeranz_bounds(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        v0, v1 = v1, v0
        v0s, v1s = v1s, v0s
        v1.fill(0.0)
        j1, j2 = _pomeranz_bounds(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(v0[k1 - v0s:k1 - v0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            v1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(v1) < _EM128:
                v1 *= _EP128
                expnt -= _E128
            v1s = v0s + j1 - k1

    ans = v1[n - v1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return np.clip(ans, 0.0, 1.0)


def _pelz_good_cdf(n: int, x):
    """Pelz-Good (JRSS B 38, 1976) approximation of ``P(D_n < x)``.

    The Li-Chien/Korolyuk expansion ``K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5`` in ``z = sqrt(n) x``, with each term rewritten through the
    Jacobi theta functional equation so that it converges fast at small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner scheme for sum_k c_k q^((2k-1)^2), over odd integers 2k-1.
    terms = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        terms *= qpower
        terms += coeffs
    terms *= q
    terms *= _SQRT2PI
    terms /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # The sums over all integers k in K2 and K3, evaluated directly.
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    terms[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    terms[3] += k3extra
    terms /= np.power(n * 1.0, np.arange(len(terms)) / 2.0)
    return sum(terms)


def kolmogorov_sf(n: int, d: float) -> float:
    """Two-sided Kolmogorov p-value ``P(D_n >= d)`` for ``n`` samples.

    Equals ``scipy.stats.kstwo.sf(d, n)``: the exact law in every region
    where Simard & L'Ecuyer use an exact method, their approximations
    elsewhere.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"sample size must be a positive integer, got {n}")
    n = int(n)
    x = np.float64(d)
    if x >= 1.0:
        return 0.0
    if x <= 0.0:
        return 1.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/(2n) <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            cdf = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            cdf = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return float(np.clip(1.0 - cdf, 0.0, 1.0))
    if t >= n - 1:  # Ruben-Gambino
        return float(np.clip(2 * (1.0 - x) ** n, 0.0, 1.0))
    if x >= 0.5:  # exact: twice the one-sided law
        return float(np.clip(2 * smirnov(n, x), 0.0, 1.0))

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            cdf = _durbin_cdf(n, x)
        elif nxsquared <= 4:
            cdf = _pomeranz_cdf(n, x)
        else:  # Miller approximation
            return float(np.clip(2 * smirnov(n, x), 0.0, 1.0))
        return float(np.clip(1.0 - cdf, 0.0, 1.0))
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return float(np.clip(2 * smirnov(n, x), 0.0, 1.0))
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdf = _durbin_cdf(n, x)
    else:
        cdf = _pelz_good_cdf(n, x)
    return float(np.clip(1.0 - cdf, 0.0, 1.0))
