"""Spectral model construction, projections, validity checks, serialization."""

import itertools

import numpy as np
import pytest
from scipy.integrate import quad

from fracdrift.models import (
    NoiseStructure,
    SpectralOperator,
    build_distributed_model,
    build_pointwise_model,
    integer,
    model_from_dict,
    model_to_dict,
    projection_from_dict,
    projection_indicator,
    projection_sine,
    real,
    reals,
)

PI = np.pi


class TestDistributedModel:
    def test_interval_laplacian_eigenvalues(self):
        m = build_distributed_model(1, 1, 3, 1.0, 0.55)
        assert np.allclose(m.operator.eigenvalues, [PI**2, 4 * PI**2, 9 * PI**2], rtol=1e-14)

    def test_biharmonic_first_eigenvalue(self):
        m = build_distributed_model(1, 2, 1, 1.0, 0.55)
        assert m.operator.eigenvalues[0] == pytest.approx(PI**4, rel=1e-14)

    @pytest.mark.parametrize("d,m_pow,n", [(2, 1, 2), (2, 1, 12), (3, 1, 9), (2, 2, 7)])
    def test_cube_eigenvalues_match_enumeration(self, d, m_pow, n):
        # Independent oracle: brute-force enumeration over a generous cube.
        side = 12
        sums = sorted(
            sum(j * j for j in t)
            for t in itertools.product(range(1, side + 1), repeat=d)
        )[:n]
        expected = [PI ** (2 * m_pow) * s**m_pow for s in sums]
        built = build_distributed_model(d, m_pow, n, 1.0, 0.55).operator.eigenvalues
        assert np.allclose(built, expected, rtol=1e-13)

    def test_two_dim_first_two(self):
        built = build_distributed_model(2, 1, 2, 1.0, 0.55).operator.eigenvalues
        assert np.allclose(built / PI**2, [2.0, 5.0], rtol=1e-14)

    def test_interval_eigenvalues_strictly_increasing(self):
        ev = build_distributed_model(1, 1, 16, 1.0, 0.4).operator.eigenvalues
        assert np.all(np.diff(ev) > 0)

    def test_cube_eigenvalues_nondecreasing(self):
        ev = build_distributed_model(2, 1, 20, 1.0, 0.4).operator.eigenvalues
        assert np.all(np.diff(ev) >= 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_distributed_model(1, 1, 0, 1.0, 0.5)
        with pytest.raises(ValueError):
            build_distributed_model(1, 0, 3, 1.0, 0.5)
        with pytest.raises(ValueError):
            build_distributed_model(1, 1, 3, -1.0, 0.5)
        with pytest.raises(ValueError):
            build_distributed_model(1, 1, 3, 1.0, 1.5)


class TestPointwiseModel:
    def test_midpoint_loadings(self):
        m = build_pointwise_model(0.5, 4, 1.0, 0.55)
        phi = m.noise.loadings
        assert phi[0] == pytest.approx(np.sqrt(2.0), rel=1e-14)   # sin(pi/2) = 1
        assert abs(phi[1]) < 1e-12                                # sin(pi) = 0
        assert m.noise.kind == "rank_one"

    def test_quarter_point_fourth_mode_vanishes(self):
        m = build_pointwise_model(0.25, 6, 1.0, 0.55)
        assert abs(m.noise.loadings[3]) < 1e-12                   # sin(pi) = 0

    def test_rejects_boundary_location(self):
        for y in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                build_pointwise_model(y, 4, 1.0, 0.55)


class TestProjections:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.0, 0.5), (0.2, 0.7), (0.31, 0.32)])
    def test_indicator_matches_quadrature(self, a, b):
        w = projection_indicator(a, b, 8).coefficients
        for k in range(1, 9):
            oracle = quad(lambda x: np.sqrt(2.0) * np.sin(k * PI * x), a, b,
                          epsabs=1e-13, epsrel=1e-10, limit=400)[0]
            assert abs(w[k - 1] - oracle) < 1e-12

    def test_indicator_closed_values(self):
        w = projection_indicator(0.0, 1.0, 4).coefficients
        assert w[0] == pytest.approx(2.0 * np.sqrt(2.0) / PI, rel=1e-14)
        assert abs(w[1]) < 1e-15                                  # full-period sine
        w2 = projection_indicator(0.0, 0.5, 4).coefficients
        assert w2[1] == pytest.approx(np.sqrt(2.0) / PI, rel=1e-14)

    def test_indicator_rejects_empty_window(self):
        with pytest.raises(ValueError):
            projection_indicator(0.5, 0.5, 4)
        with pytest.raises(ValueError):
            projection_indicator(0.6, 0.4, 4)

    def test_sine_mode_coordinates(self):
        w = projection_sine(4, 8)
        coeffs = w.coefficients
        assert coeffs[3] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
        assert np.count_nonzero(coeffs) == 1
        # ||sin(j pi x)||^2 in L2(0,1) is 1/2 for every mode.
        assert float(coeffs @ coeffs) == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(ValueError):
            projection_sine(9, 8)


class TestValidationAndSerialization:
    def test_noise_must_not_vanish(self):
        with pytest.raises(ValueError):
            NoiseStructure("diagonal", np.zeros(3))

    def test_eigenvalues_positive_sorted(self):
        with pytest.raises(ValueError):
            SpectralOperator(np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            SpectralOperator(np.array([2.0, 1.0]))

    def test_model_roundtrip(self, pointwise8):
        again = model_from_dict(model_to_dict(pointwise8))
        assert again.cache_key() == pointwise8.cache_key()

    def test_distributed_from_dict(self):
        m = model_from_dict(
            {"kind": "distributed", "d": 1, "m": 1, "n_modes": 3, "alpha": 2.0, "hurst": 0.6}
        )
        assert m.alpha == 2.0 and m.n_modes == 3

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            model_from_dict(
                {"kind": "distributed", "d": 1, "m": 1, "n_modes": 3,
                 "alpha": 1.0, "hurst": 0.6, "typo": 1}
            )
        with pytest.raises(ValueError, match="missing keys"):
            model_from_dict({"kind": "pointwise", "y": 0.5})

    def test_projection_from_dict(self):
        w = projection_from_dict({"kind": "indicator", "a": 0.0, "b": 0.5}, 4)
        assert len(w.coefficients) == 4
        with pytest.raises(ValueError):
            projection_from_dict({"kind": "coefficients", "values": [1.0]}, 4)
        with pytest.raises(ValueError):
            projection_from_dict({"kind": "sine_mode", "mode": 1, "x": 2}, 4)

    def test_rates_and_alpha_override(self, heat3):
        assert np.allclose(heat3.rates, heat3.operator.eigenvalues)
        m2 = heat3.with_alpha(2.0)
        assert np.allclose(m2.rates, 2.0 * heat3.operator.eigenvalues)


class TestInteger:
    @pytest.mark.parametrize("value", [7, np.int64(7), np.int32(7), np.uint8(7), 7.0,
                                       np.float64(7.0)])
    def test_integers_pass_as_int(self, value):
        out = integer(value, "count")
        assert out == 7 and type(out) is int

    @pytest.mark.parametrize("value", [True, np.bool_(False), 7.5, np.float64(0.5),
                                       float("nan"), float("inf"), "7", None, [7]])
    def test_other_values_fail_instead_of_truncating(self, value):
        with pytest.raises(ValueError, match="count must be an integer"):
            integer(value, "count")


class TestReals:
    def test_reals_keep_their_shape(self):
        out = reals([0.5, 1, np.float32(2.0)], "loadings")
        assert out.dtype == float and out.tolist() == [0.5, 1.0, 2.0]
        assert reals(1, "loadings").shape == ()
        assert reals([], "loadings").shape == (0,)

    @pytest.mark.parametrize("values", [["1.0", True, "2"], [1.0, True], [np.bool_(True)],
                                        "1.0", [[1.0], [2.0, 3.0]]])
    def test_each_entry_is_a_real(self, values):
        with pytest.raises(ValueError, match="each of loadings must be a real number"):
            reals(values, "loadings")


class TestReal:
    @pytest.mark.parametrize("value", [0.5, 1, np.float64(0.5), np.float32(0.5), np.int64(1),
                                       float("nan")])
    def test_reals_pass_as_float(self, value):
        out = real(value, "step")
        assert type(out) is float and (out == float(value) or np.isnan(out))

    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", None, [0.5], 1j])
    def test_other_values_fail_instead_of_casting(self, value):
        with pytest.raises(ValueError, match="step must be a real number"):
            real(value, "step")
