"""Exact cumulants, bound shapes, rate function, distance estimators."""

import numpy as np
import pytest
from scipy.stats import kstat, kstest, kstwo, norm

from conftest import assert_close, custom
from fracdrift._rng import substream
from fracdrift.chaos import (
    _kolmogorov,
    _ndtr,
    _ndtri,
    _normal_scores,
    cumulant_bound_shapes,
    exact_cumulants,
    k_statistics,
    kolmogorov_sf,
    kolmogorov_wasserstein_bound,
    ks_distance,
    wasserstein1_distance,
    xi_H,
)
from fracdrift.covariance import s_n as s_n_series
from fracdrift.covariance import trace_q
from fracdrift.models import DIAGONAL, build_distributed_model
from fracdrift.simulate import StationaryModeSampler


def white_model(hurst: float = 0.5, rate: float = 40.0):
    """Single mode with e^{-a} ~ 4e-18: the sampled sequence is white to
    machine precision, so iid chi-square theory applies."""
    return custom([rate], 1.0, hurst)


class TestExactCumulants:
    def test_single_chi_square(self):
        model = custom([1.0], 1.0, 0.55)
        rep = exact_cumulants(model, 1)
        assert rep.kappa3_exact == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)
        assert rep.kappa4_exact == pytest.approx(12.0, rel=1e-12)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_white_sequence_rates(self, n):
        # iid chi-squares: kappa3 = 2sqrt(2)/sqrt(nN), kappa4 = 12/(nN).
        rep = exact_cumulants(white_model(), n)
        assert_close(rep.kappa3_exact, 2.0 * np.sqrt(2.0) / np.sqrt(n), 1e-8, "white kappa3")
        assert_close(rep.kappa4_exact, 12.0 / n, 1e-8, "white kappa4")

    def test_s_n_trace_vs_isserlis_routes(self, heat3, pointwise8):
        # Criterion-grade identity: stacked-covariance trace route equals the
        # lag-sum route to 1e-8 relative.
        for model in (heat3, pointwise8):
            for n in (1, 7, 32):
                rep = exact_cumulants(model, n)
                assert_close(rep.s_n, s_n_series(model, n), 1e-8, f"s_n routes n={n}")

    @pytest.mark.parametrize("name", ["heat3", "pointwise8"])
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 41])
    def test_matches_eigvalsh_oracle(self, request, name, n):
        # Oracle: eigenvalues of the dense blocks of the stacked covariance.
        from fracdrift.covariance import block_covariance, mode_lag_table

        model = request.getfixturevalue(name)
        table = mode_lag_table(model, 1.0, n)
        before = table.copy()
        rep = exact_cumulants(model, n)
        assert np.array_equal(table, before)   # the cached table is read only
        blocks = block_covariance(model, n)
        if model.noise.kind != DIAGONAL:
            blocks = [blocks]
        lam = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
        tr2, tr3, tr4 = (float(np.sum(lam**k)) for k in (2, 3, 4))
        assert_close(rep.kappa3_exact, 8.0 * tr3 / (2.0 * tr2) ** 1.5, 1e-12, "kappa3")
        assert_close(rep.kappa4_exact, 48.0 * tr4 / (2.0 * tr2) ** 2, 1e-12, "kappa4")
        assert_close(rep.s_n, 2.0 * tr2 / n, 1e-12, "s_n")

    def test_memory_stays_linear_in_n(self):
        # The dense route held twenty 4096 x 4096 blocks here, about 2.7 GB.
        import tracemalloc

        model = build_distributed_model(1, 1, 20, 1.0, 0.55)
        tracemalloc.start()
        try:
            rep = exact_cumulants(model, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.kappa4_exact > 0
        assert peak < 64 * 2**20

    def test_dense_guard_advises_monte_carlo(self, heat3):
        with pytest.raises(ValueError, match="exceeds cap 8192 .* Monte Carlo"):
            exact_cumulants(heat3, 10_000)

    def test_kappa4_positive(self, heat3, pointwise8):
        for model in (heat3, pointwise8):
            rep = exact_cumulants(model, 12)
            assert rep.kappa4_exact > 0

    def test_cgf_oracle_for_quadratic_form_cumulants(self):
        # Independent oracle: the cumulant generating function of z'z is
        # K(t) = -1/2 log det(I - 2 t Sigma); numerical derivatives of K at 0
        # must reproduce the trace-identity cumulants.
        from fracdrift.covariance import block_covariance

        model = custom([1.0, 3.0], 1.0, 0.6)
        n = 6
        rep = exact_cumulants(model, n)
        blocks = block_covariance(model, n)
        sigma = np.block([
            [blocks[0], np.zeros((n, n))],
            [np.zeros((n, n)), blocks[1]],
        ])

        def cgf(t):
            return -0.5 * np.linalg.slogdet(np.eye(2 * n) - 2.0 * t * sigma)[1]

        eps = 1e-3
        ts = np.arange(-4, 5) * eps
        ks = np.array([cgf(t) for t in ts])
        # central finite differences for the 2nd/3rd/4th derivatives at 0
        d2 = (ks[5] - 2 * ks[4] + ks[3]) / eps**2
        d3 = (ks[6] - 2 * ks[5] + 2 * ks[3] - ks[2]) / (2 * eps**3)
        d4 = (ks[6] - 4 * ks[5] + 6 * ks[4] - 4 * ks[3] + ks[2]) / eps**4
        # Tolerances sized to the O(eps^2) truncation of the differences.
        scale = np.sqrt(n * rep.s_n)
        assert abs(d3 / scale**3 - rep.kappa3_exact) < 1e-3 * rep.kappa3_exact
        assert abs(d4 / scale**4 - rep.kappa4_exact) < 1e-2 * rep.kappa4_exact
        assert abs(d2 - n * rep.s_n) < 1e-5 * n * rep.s_n

    def test_s_n_routes_agree_for_general_step(self, heat3):
        # Observation step != 1 is the implementation-defined extension; the
        # two independent s_n derivations must still coincide.
        for dt in (0.5, 2.0):
            trace_route = exact_cumulants(heat3, 24, dt=dt).s_n
            series_route = s_n_series(heat3, 24, dt=dt)
            assert abs(trace_route - series_route) <= 1e-8 * series_route

    def test_monte_carlo_k_statistics_match(self):
        # 2e4 replications of F_16 for a single mode; 4 SE agreement.
        model = custom([1.0], 1.0, 0.6)
        n, reps = 16, 20_000
        rep = exact_cumulants(model, n)
        sampler = StationaryModeSampler(model, n, 1.0)
        draws = sampler.draw(0, substream(71, 0), reps)[:, 0].T
        f = (np.sum(draws**2, axis=0) - n * trace_q(model)) / np.sqrt(n * rep.s_n)
        batches = np.array_split(np.arange(reps), 20)
        for idx, exact in ((1, rep.kappa3_exact), (2, rep.kappa4_exact)):
            per_batch = [k_statistics(f[b])[idx] for b in batches]
            se = np.std(per_batch, ddof=1) / np.sqrt(len(per_batch))
            assert abs(k_statistics(f)[idx] - exact) <= 4.0 * se


class TestBoundShapes:
    def test_white_closed_forms(self):
        # Single-lag model: B3 = n^{-1/2}/2^{3/2} and B4 = 1/(4n).
        for n in (8, 64, 512):
            b3, b4 = cumulant_bound_shapes(white_model(), n)
            assert_close(b3, n**-0.5 / 2.0**1.5, 1e-8, "white B3")
            assert_close(b4, 1.0 / (4.0 * n), 1e-8, "white B4")

    def test_heat_h055_b3_sqrt_n_bounded(self):
        # H < 2/3: the lag sums converge, so B3 * sqrt(n) is constant.
        model = build_distributed_model(1, 1, 20, 1.0, 0.55)
        ns = 2 ** np.arange(5, 13)
        vals = np.array([cumulant_bound_shapes(model, int(n))[0] * np.sqrt(n) for n in ns])
        assert vals.max() / vals.min() < 1.05

    def test_slow_mode_h07_slopes(self):
        # H = 0.7 on a slow mode reaches the growth exponents at desk scale:
        # log B3 slope -> 6H - 9/2, log B4 slope -> 8H - 6 (within 0.1).
        model = custom([1.0], 0.25, 0.7)
        ns = 2 ** np.arange(8, 13)
        b3, b4 = zip(*[cumulant_bound_shapes(model, int(n)) for n in ns])
        slope3 = np.polyfit(np.log(ns), np.log(b3), 1)[0]
        slope4 = np.polyfit(np.log(ns), np.log(b4), 1)[0]
        assert abs(slope3 - (6 * 0.7 - 4.5)) < 0.1
        assert abs(slope4 - (8 * 0.7 - 6.0)) < 0.1

    def test_exact_cumulants_vanish_for_clt_models(self):
        model = build_distributed_model(1, 1, 5, 1.0, 0.55)
        k3 = [exact_cumulants(model, n).kappa3_exact for n in (32, 128, 512)]
        k4 = [exact_cumulants(model, n).kappa4_exact for n in (32, 128, 512)]
        assert k3[0] > k3[1] > k3[2] > 0
        assert k4[0] > k4[1] > k4[2] > 0


class TestRateFunction:
    def test_pinned_values(self):
        assert xi_H(0.5, 100) == pytest.approx(0.1, rel=1e-15)
        assert xi_H(0.625, 16) == pytest.approx(0.25, rel=1e-15)   # boundary: first branch
        assert xi_H(0.7, 1e4) == pytest.approx(10.0 ** (-0.8), rel=1e-12)

    def test_rejects_outside_regime(self):
        with pytest.raises(ValueError, match="Berry-Esseen"):
            xi_H(0.75, 10)
        with pytest.raises(ValueError):
            xi_H(0.5, 0.0)

    def test_monotone_decreasing(self):
        for h in (0.3, 0.6, 0.7):
            vals = [xi_H(h, x) for x in (10, 100, 1000)]
            assert vals[0] > vals[1] > vals[2]


class TestDistances:
    def test_ks_of_true_normal_sample(self):
        # DKW: P(D_m > eps) <= 2 exp(-2 m eps^2); at m = 1e4, eps = 0.02
        # the failure probability is ~ 6.7e-4 (and the seed is fixed).
        z = substream(5, 1).standard_normal(10_000)
        assert ks_distance(z) < 0.02

    def test_ks_of_constant_sample(self):
        assert ks_distance(np.zeros(1000)) == pytest.approx(0.5, rel=1e-12)

    def test_localized_never_exceeds_global(self):
        z = substream(6, 2).standard_normal(5000) * 1.4
        full = ks_distance(z)
        for k in (0.5, 1.0, 2.0, 3.0):
            assert ks_distance(z, localize=k) <= full + 1e-15

    def test_localized_catches_boundary(self):
        # All mass far right of the window: the deviation at z = +K counts.
        z = np.full(100, 10.0)
        assert ks_distance(z, localize=1.0) == pytest.approx(norm.cdf(1.0), rel=1e-12)

    def test_wasserstein_of_true_normal_sample(self):
        z = substream(7, 3).standard_normal(10_000)
        assert wasserstein1_distance(z) < 0.05

    def test_wasserstein_shift(self):
        for c in (-0.8, 0.5, 2.0):
            z = substream(8, 4).standard_normal(20_000) + c
            assert abs(wasserstein1_distance(z) - abs(c)) < 0.05

    def test_kolmogorov_wasserstein_inequality(self):
        # d_Kol <= 2 sqrt(d_W / sqrt(2 pi)) on assorted samples.
        rng = substream(9, 5)
        for sample in (rng.standard_normal(4000),
                       rng.standard_normal(4000) * 1.5,
                       rng.standard_normal(4000) + 0.7,
                       rng.exponential(size=4000)):
            d_k = ks_distance(sample)
            d_w = wasserstein1_distance(sample)
            assert d_k <= kolmogorov_wasserstein_bound(d_w) * (1 + 1e-9)


class TestKolmogorovLaw:
    @pytest.mark.parametrize("n", [500, 2000])
    def test_matches_scipy_kstwo(self, n):
        # Stephens' finite-n form against the exact law over (1/(2n), 1].
        half = 0.5 / n
        d = np.union1d(np.linspace(half, 1.0, 1001)[1:], np.geomspace(half, 1.0, 401)[1:])
        exact = kstwo.sf(d, n)
        ours = np.array([kolmogorov_sf(n, x) for x in d])
        err = np.abs(ours - exact)
        assert err.max() <= 1e-2
        tail = exact >= 0.01
        assert np.max(err[tail] / exact[tail]) <= 1e-2

    def test_edges(self):
        assert kolmogorov_sf(50, 0.5 / 50) == 1.0
        with pytest.raises(ValueError):
            kolmogorov_sf(0, 0.3)

    @pytest.mark.parametrize("n", [500, 2000])
    def test_is_the_kstest_pvalue(self, n):
        # ks_distance is kstest's statistic, so the pair gives its p-value to
        # the accuracy of Stephens' form.
        z = substream(11, n).standard_normal(n) * 1.1
        ref = kstest(z, "norm")
        assert ks_distance(z) == ref.statistic
        assert kolmogorov_sf(n, ks_distance(z)) == pytest.approx(ref.pvalue, rel=1e-2)


class TestNormalAndKolmogorovLaws:
    def test_ndtr_is_scipy_to_the_bit(self):
        from scipy.special import ndtr

        x = np.concatenate([np.linspace(-8.0, 8.0, 16001),
                            substream(3, 0).standard_normal(20000) * 3.0,
                            [0.0, -1.0 / np.sqrt(2.0), np.sqrt(2.0), -8 * np.sqrt(2.0), -38.0]])
        assert np.array_equal(_ndtr(x), ndtr(x))
        assert float(_ndtr(0.3)) == ndtr(0.3)

    def test_ndtri_matches_scipy(self):
        from scipy.special import ndtri

        tail = np.logspace(-10, np.log10(0.45), 2000)
        q = np.concatenate([tail, 1.0 - tail])
        assert float(np.max(np.abs(_ndtri(q) / ndtri(q) - 1.0))) <= 1e-13
        assert _ndtri(0.5) == 0.0

    def test_normal_scores_cached_read_only(self):
        scores = _normal_scores(400)
        assert _normal_scores(400) is scores
        assert not scores.flags.writeable
        assert np.array_equal(scores, _ndtri((np.arange(1, 401) - 0.5) / 400))

    def test_kolmogorov_matches_scipy(self):
        from scipy.special import kolmogorov

        y = np.linspace(3.0 / 6000, 3.0, 6000)
        ours = np.array([_kolmogorov(v) for v in y])
        assert float(np.max(np.abs(ours / kolmogorov(y) - 1.0))) <= 1e-13
        assert _kolmogorov(0.0) == 1.0 == _kolmogorov(1e-300)


class TestKStatistics:
    def test_matches_scipy_kstat(self):
        x = substream(10, 6).standard_normal(500) ** 2
        k2, k3, k4 = k_statistics(x)
        assert k2 == pytest.approx(kstat(x, 2), rel=1e-10)
        assert k3 == pytest.approx(kstat(x, 3), rel=1e-10)
        assert k4 == pytest.approx(kstat(x, 4), rel=1e-8)

    def test_needs_four_samples(self):
        with pytest.raises(ValueError):
            k_statistics(np.ones(3))
