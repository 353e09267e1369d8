import numpy as np
import pytest
from hypothesis import given, strategies as st

from grushinlab.geometry import (
    GrushinParams,
    ellipsoid_level_arrays,
    gauge_arrays,
    quasi_distance_arrays,
    sample_points_by_gauge,
    scaling_factors,
)

P21 = GrushinParams(2, 1.0)

finite_alpha = st.floats(0.0, 4.0)
positive_h = st.floats(1e-6, 1e6)
coord = st.floats(-50.0, 50.0)
normal_coord = st.floats(0.0, 50.0)
# Batches of 2-D points (x_1, x_n) with x_n >= 0.
point_rows = st.lists(st.tuples(coord, normal_coord), min_size=1, max_size=6)


def split(rows):
    """Tangential (N, 1) and normal (N,) arrays of a list of (x_1, x_n) rows."""
    a = np.array(rows, dtype=float).reshape(-1, 2)
    return a[:, :1], a[:, 1]


def dilate(h, xp, xn, p):
    """The anisotropic dilation F_h applied to coordinate arrays."""
    ft, fn = scaling_factors(h, p)
    return xp * ft, xn * fn


class TestParams:
    def test_derived_constants(self):
        p = GrushinParams(3, 0.5)
        assert p.beta == pytest.approx(1.0 / 2.25, rel=1e-15)
        assert p.gamma == pytest.approx(1.0 + 1.0 / 3.0, rel=1e-15)
        assert p.Q == pytest.approx(4.0, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.7])
    def test_q_is_twice_gamma_scaled(self, n, alpha):
        p = GrushinParams(n, alpha)
        assert p.Q == pytest.approx(2.0 * (1.0 + alpha) * p.gamma, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            GrushinParams(1, 1.0)
        with pytest.raises(ValueError):
            GrushinParams(2, -0.5)
        with pytest.raises(TypeError):
            GrushinParams(2.5, 1.0)


class TestGauge:
    def test_tangential_unit(self):
        d = gauge_arrays(*split([(1.0, 0.0), (-1.0, 0.0)]), P21)
        np.testing.assert_array_equal(d, [1.0, 1.0])

    def test_normal_unit(self):
        d = gauge_arrays(*split([(0.0, 1.0), (0.0, 2.0)]), P21)
        np.testing.assert_allclose(d, [0.25**0.25, 2.0 * 0.25**0.25], rtol=1e-15)

    def test_alpha_zero_is_euclidean(self):
        p = GrushinParams(2, 0.0)
        d = gauge_arrays(*split([(3.0, 4.0), (-5.0, 12.0), (0.0, 7.0)]), p)
        np.testing.assert_allclose(d, [5.0, 13.0, 7.0], rtol=1e-15)

    def test_zero_only_at_origin(self):
        d = gauge_arrays(*split([(0.0, 0.0), (1e-8, 0.0), (0.0, 1e-8), (-1e-8, 0.0)]), P21)
        assert d[0] == 0.0
        assert np.all(d[1:] > 0.0)

    @given(rows=point_rows, h=positive_h, alpha=finite_alpha)
    def test_scaling_homogeneity(self, rows, h, alpha):
        p = GrushinParams(2, alpha)
        xp, xn = split(rows)
        lhs = gauge_arrays(*dilate(h, xp, xn, p), p)
        rhs = h ** (1.0 / (2.0 * (1.0 + alpha))) * gauge_arrays(xp, xn, p)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


class TestQuasiDistance:
    def test_tangential_separation(self):
        yp, yn = split([(0.0, 0.0), (2.0, 0.5)])
        zp, zn = split([(1.0, 0.0), (-1.0, 0.5)])
        np.testing.assert_array_equal(quasi_distance_arrays(yp, yn, zp, zn, 1.0), [1.0, 3.0])

    def test_normal_separation(self):
        yp, yn = split([(0.0, 0.0), (0.0, 1.0)])
        zp, zn = split([(0.0, 1.0), (0.0, 0.0)])
        np.testing.assert_array_equal(quasi_distance_arrays(yp, yn, zp, zn, 1.0), [1.0, 1.0])

    def test_normal_power_difference(self):
        yp, yn = split([(0.0, 1.0), (0.0, 2.0)])
        zp, zn = split([(0.0, 2.0), (0.0, 3.0)])
        got = quasi_distance_arrays(yp, yn, zp, zn, 1.0)
        np.testing.assert_allclose(got, [3.0, 5.0], rtol=1e-15)

    def test_alpha_zero_reduction(self):
        yp, yn = split([(1.0, 0.5), (0.0, 0.0)])
        zp, zn = split([(3.0, 2.0), (-2.0, 4.0)])
        got = quasi_distance_arrays(yp, yn, zp, zn, 0.0)
        np.testing.assert_allclose(got, [2.0 + 1.5, 2.0 + 4.0], rtol=1e-15)

    @given(ys=point_rows, zs=point_rows, h=positive_h, alpha=finite_alpha)
    def test_scaling_law(self, ys, zs, h, alpha):
        p = GrushinParams(2, alpha)
        k = min(len(ys), len(zs))
        (yp, yn), (zp, zn) = split(ys[:k]), split(zs[:k])
        lhs = quasi_distance_arrays(yp, yn, zp, zn, alpha)
        rhs = h**-0.5 * quasi_distance_arrays(*dilate(h, yp, yn, p), *dilate(h, zp, zn, p), alpha)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)

    @given(ys=point_rows, zs=point_rows, alpha=finite_alpha)
    def test_symmetry_and_diagonal(self, ys, zs, alpha):
        k = min(len(ys), len(zs))
        (yp, yn), (zp, zn) = split(ys[:k]), split(zs[:k])
        np.testing.assert_array_equal(
            quasi_distance_arrays(yp, yn, zp, zn, alpha),
            quasi_distance_arrays(zp, zn, yp, yn, alpha),
        )
        np.testing.assert_array_equal(quasi_distance_arrays(yp, yn, yp, yn, alpha), 0.0)

    def test_two_sided_euclidean_comparison(self):
        # Empirically tightest constants over the closed unit half-box;
        # reported rather than asserted against fixed values.
        rng = np.random.default_rng(7)
        for alpha, n in [(0.5, 2), (1.0, 2), (1.0, 3), (2.0, 3)]:
            yp = rng.uniform(-1, 1, (10_000, n - 1))
            yn = rng.uniform(0, 1, 10_000)
            zp = rng.uniform(-1, 1, (10_000, n - 1))
            zn = rng.uniform(0, 1, 10_000)
            qd = quasi_distance_arrays(yp, yn, zp, zn, alpha)
            euclid = np.sqrt(np.sum((yp - zp) ** 2, axis=-1) + (yn - zn) ** 2)
            keep = euclid > 1e-12
            lower_ratio = qd[keep] / euclid[keep] ** (1.0 + alpha)
            upper_ratio = qd[keep] / euclid[keep]
            c_emp, big_c_emp = lower_ratio.min(), upper_ratio.max()
            print(f"alpha={alpha} n={n}: c={c_emp:.4f}, C={big_c_emp:.4f}")
            assert c_emp > 0.0
            assert np.isfinite(big_c_emp)
            assert big_c_emp <= 2.0 + alpha + 1e-12  # analytic bound on the unit box


class TestScaling:
    def test_identity(self):
        xp, xn = split([(1.5, 0.5), (-2.0, 0.0), (0.0, 3.0)])
        yp, yn = dilate(1.0, xp, xn, P21)
        np.testing.assert_array_equal(yp, xp)
        np.testing.assert_array_equal(yn, xn)

    def test_explicit_factors(self):
        assert scaling_factors(16.0, P21) == (4.0, 2.0)
        yp, yn = dilate(16.0, *split([(1.0, 1.0), (-0.5, 3.0)]), P21)
        np.testing.assert_allclose(yp[:, 0], [4.0, -2.0], rtol=1e-15)
        np.testing.assert_allclose(yn, [2.0, 6.0], rtol=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaling_factors(0.0, P21)
        with pytest.raises(ValueError):
            scaling_factors(-1.0, P21)

    @given(rows=point_rows, h=positive_h)
    def test_round_trip(self, rows, h):
        xp, xn = split(rows)
        bp, bn = dilate(1.0 / h, *dilate(h, xp, xn, P21), P21)
        np.testing.assert_allclose(bp, xp, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(bn, xn, rtol=1e-12, atol=1e-300)


class TestEllipsoid:
    def test_center_is_inside(self):
        xp, xn = split([(0.3, 0.2), (0.3 + 1e-6, 0.2), (0.3, 0.2 - 1e-3)])
        level = ellipsoid_level_arrays(xp, xn, P21, center_tangential=[0.3], center_normal=0.2)
        assert level[0] == 0.0
        assert np.all(level < 1e-9)

    def test_boundary_point_excluded(self):
        # E_1 about the origin is open: boundary points have level exactly 1.
        level = ellipsoid_level_arrays(*split([(0.0, 1.0), (1.0, 0.0), (-1.0, 0.0)]), P21)
        np.testing.assert_array_equal(level, 1.0)
        assert not np.any(level < 1.0)

    def test_dilation_maps_unit_ellipsoid(self):
        # membership in E_1 transported by the dilation equals membership in E_h
        rng = np.random.default_rng(3)
        xp = rng.uniform(-1.2, 1.2, (400, 1))
        xn = rng.uniform(0.0, 1.2, 400)
        level = ellipsoid_level_arrays(xp, xn, P21)
        keep = np.abs(level - 1.0) >= 1e-6  # skip the boundary, where rounding decides
        assert np.count_nonzero(keep) >= 100
        for h in rng.uniform(0.1, 10.0, 5):
            yp, yn = dilate(h, xp, xn, P21)
            inside_h = ellipsoid_level_arrays(yp, yn, P21) < h
            np.testing.assert_array_equal(inside_h[keep], (level < 1.0)[keep])


class TestSampling:
    def test_gauges_land_in_range(self):
        rng = np.random.default_rng(0)
        for n, alpha in [(2, 1.0), (3, 0.5)]:
            p = GrushinParams(n, alpha)
            xp, xn = sample_points_by_gauge(p, rng, 500, 0.01, 100.0)
            d = gauge_arrays(xp, xn, p)
            assert np.all(d >= 0.01 * (1 - 1e-9))
            assert np.all(d <= 100.0 * (1 + 1e-9))
            assert np.all(xn >= 0.0)
