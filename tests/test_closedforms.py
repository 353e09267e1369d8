import numpy as np
import pytest
from fd_oracle import fd_gradient, fd_hessian

from grushinlab.closedforms import (
    BarrierSpec,
    Jet2,
    apply_grushin,
    apply_operator,
    boundary_barrier_jet,
    choose_barrier_constants,
    gauge_log_jet,
    gauge_power_jet,
    grushin_term_scale,
    harmonic_gauge_power,
    kernel_jet,
    kernel_value_arrays,
    supersolution_jet,
    supersolution_value_arrays,
)
from grushinlab.coefficients import CoefficientField, make_decaying_perturbation, make_identity_field
from grushinlab.fdsolver import componentwise_ratio
from grushinlab.geometry import (
    GrushinParams,
    gauge_arrays,
    sample_points_by_gauge,
    scaling_factors,
)

P21 = GrushinParams(2, 1.0)


def pts(tangential, normal):
    """Batch of points from row lists: tangential (N, n-1), normal (N,)."""
    return np.asarray(tangential, dtype=float), np.asarray(normal, dtype=float)


def kernel_of_coords(p):
    return lambda v: float(kernel_value_arrays(v[:-1], v[-1], p))


def coords(xp, xn, k):
    return np.append(xp[k], xn[k])


def random_points(p, rng, count, gauge_lo=0.3, gauge_hi=3.0, min_normal=0.05):
    return sample_points_by_gauge(p, rng, count, gauge_lo, gauge_hi, min_normal_fraction=min_normal)


class TestJet2:
    def test_rejects_asymmetric_hessian(self):
        good = np.eye(2)
        bad = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
        with pytest.raises(ValueError):
            Jet2(np.zeros(2), np.zeros((2, 2)), np.stack([good, bad]))
        with pytest.raises(ValueError):
            Jet2(np.zeros(2), np.zeros((2, 2)), np.eye(2))  # one Hessian for two rows

    def test_accepts_symmetric(self):
        j = Jet2(np.array([1.0, 2.0]), np.array([[1.0, 2.0], [3.0, 4.0]]), np.stack([np.eye(2)] * 2))
        assert j.dim == 2
        assert j.value.shape == (2,) and j.hessian.shape == (2, 2, 2)
        assert not j.hessian.flags.writeable


class TestKernelJet:
    def test_axis_value(self):
        xp, xn = pts([[0.0], [0.0]], [1.0, 2.0])
        j = kernel_jet(xp, xn, P21)
        assert j.value[0] == pytest.approx(4.0**0.75, rel=1e-15)
        np.testing.assert_allclose(j.value, kernel_value_arrays(xp, xn, P21), rtol=1e-15)

    def test_flat_boundary_jet(self):
        # on x_n = 0 the value and tangential gradient vanish and the normal
        # derivative is |x'|^{-2 gamma}
        for alpha, n in [(0.5, 2), (1.0, 3), (2.0, 2)]:
            p = GrushinParams(n, alpha)
            xp = np.array([np.full(n - 1, 1.3), np.full(n - 1, -0.4)])
            j = kernel_jet(xp, np.zeros(2), p)
            assert np.all(j.value == 0.0)
            np.testing.assert_allclose(j.gradient[:, :-1], 0.0, atol=0)
            expect = np.sum(xp**2, axis=1) ** -p.gamma
            np.testing.assert_allclose(j.gradient[:, -1], expect, rtol=1e-14)

    def test_rejects_origin(self):
        with pytest.raises(ValueError, match="singular at the origin"):
            kernel_jet(*pts([[0.0]], [0.0]), P21)
        with pytest.raises(ValueError, match="singular at the origin"):
            gauge_power_jet(*pts([[0.0]], [0.0]), P21, 1.0)

    def test_rejects_one_bad_row(self):
        xp, xn = random_points(P21, np.random.default_rng(3), 8)
        kernel_jet(xp, xn, P21)
        cases = [
            (0, 0.0, "singular at the origin"),
            (5, -1e-3, "normal coordinate must be finite and >= 0"),
            (7, np.nan, "normal coordinate must be finite and >= 0"),
            (2, np.inf, "normal coordinate must be finite and >= 0"),
        ]
        for row, normal, message in cases:
            bad_t, bad_n = xp.copy(), xn.copy()
            bad_n[row] = normal
            if normal == 0.0:
                bad_t[row] = 0.0
            with pytest.raises(ValueError, match=message):
                kernel_jet(bad_t, bad_n, P21)
            with pytest.raises(ValueError, match=message):
                gauge_power_jet(bad_t, bad_n, P21, 1.0)
            with pytest.raises(ValueError):
                supersolution_jet(bad_t, bad_n, 0.5, P21)
        bad_t = xp.copy()
        bad_t[4, 0] = np.inf
        with pytest.raises(ValueError, match="tangential coordinates must be finite"):
            kernel_jet(bad_t, xn, P21)
        with pytest.raises(ValueError, match="point has dimension 3, params have n=2"):
            kernel_jet(np.ones((8, 2)), xn, P21)
        with pytest.raises(ValueError, match="expected tangential"):
            kernel_jet(xp, xn[:-1], P21)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_jet_matches_finite_differences(self, alpha, n):
        p = GrushinParams(n, alpha)
        xp = np.array([np.ones(n - 1), np.full(n - 1, -0.7), np.linspace(0.2, 1.5, n - 1)])
        xn = np.array([0.5, 1.3, 0.2])
        j = kernel_jet(xp, xn, p)
        fn = kernel_of_coords(p)
        for k in range(xn.size):
            x = coords(xp, xn, k)
            np.testing.assert_allclose(j.gradient[k], fd_gradient(fn, x), rtol=1e-7)
            np.testing.assert_allclose(j.hessian[k], fd_hessian(fn, x), rtol=1e-7)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_grushin_annihilates_kernel(self, alpha, n):
        p = GrushinParams(n, alpha)
        rng = np.random.default_rng(11)
        xp, xn = sample_points_by_gauge(p, rng, 500, 1e-2, 1e3, min_normal_fraction=1e-9)
        j = kernel_jet(xp, xn, p)
        residual = np.abs(apply_grushin(j, xp, xn, p))
        assert residual.shape == (500,)
        assert np.all(residual <= 1e-9 * grushin_term_scale(j, xp, xn, p))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_anisotropic_homogeneity(self, alpha, n):
        p = GrushinParams(n, alpha)
        rng = np.random.default_rng(5)
        xp, xn = random_points(p, rng, 50)
        h = rng.uniform(0.01, 100.0, 50)
        ft, fn = np.array([scaling_factors(hk, p) for hk in h]).T
        lhs = kernel_jet(xp * ft[:, None], xn * fn, p).value
        rhs = h ** (-(n - 1) / 2.0) * kernel_jet(xp, xn, p).value
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_kernel_is_normal_over_gauge_power(self):
        # w * d^Q / x_n == 1 exactly, up to the rounding of the nested powers
        rng = np.random.default_rng(9)
        for p in (P21, GrushinParams(3, 0.5)):
            xp, xn = random_points(p, rng, 100, 0.1, 50.0)
            ratio = kernel_jet(xp, xn, p).value * gauge_arrays(xp, xn, p) ** p.Q / xn
            np.testing.assert_allclose(ratio, 1.0, rtol=1e-10)


class TestGaugePowerJet:
    def test_unit_value_at_unit_base(self):
        j = gauge_power_jet(*pts([[1.0], [-1.0]], [0.0, 0.0]), P21, P21.Q)
        np.testing.assert_array_equal(j.value, 1.0)

    def test_value_matches_powered_gauge(self):
        rng = np.random.default_rng(21)
        for p in (P21, GrushinParams(3, 2.0)):
            for power in (p.Q, 2.0 - p.Q, 1.0):
                xp, xn = random_points(p, rng, 350, 1e-1, 1e2, min_normal=0.0)
                expect = gauge_arrays(xp, xn, p) ** power
                np.testing.assert_allclose(gauge_power_jet(xp, xn, p, power).value, expect, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_harmonic_power_is_annihilated(self, alpha, n):
        p = GrushinParams(n, alpha)
        power = harmonic_gauge_power(p)
        assert power == pytest.approx(2.0 - p.Q, rel=1e-15)
        rng = np.random.default_rng(31)
        xp, xn = sample_points_by_gauge(p, rng, 500, 1e-2, 1e3, min_normal_fraction=1e-9)
        j = gauge_power_jet(xp, xn, p, power)
        residual = np.abs(apply_grushin(j, xp, xn, p))
        assert np.all(residual <= 1e-9 * grushin_term_scale(j, xp, xn, p))

    @pytest.mark.parametrize("power_shift", [-0.5, 0.5, 2.0])
    def test_other_powers_are_not_harmonic(self, power_shift):
        xp, xn = pts([[1.0], [0.5], [-2.0]], [1.0, 0.3, 1.7])
        power = harmonic_gauge_power(P21) + power_shift
        assert power != 0.0  # zero power is the trivial constant
        j = gauge_power_jet(xp, xn, P21, power)
        residual = np.abs(apply_grushin(j, xp, xn, P21))
        assert np.all(residual > 1e-3 * grushin_term_scale(j, xp, xn, P21))

    def test_jet_matches_finite_differences(self):
        for p, power in [(P21, P21.Q), (GrushinParams(3, 0.5), 2.0 - GrushinParams(3, 0.5).Q)]:
            xp = np.array([np.full(p.n - 1, 0.8), np.full(p.n - 1, -1.1)])
            xn = np.array([0.6, 0.25])
            j = gauge_power_jet(xp, xn, p, power)

            def fn(v):
                return float(
                    (np.dot(v[:-1], v[:-1]) + p.beta * v[-1] ** (2 + 2 * p.alpha))
                    ** (power / (2 * (1 + p.alpha)))
                )

            for k in range(xn.size):
                x = coords(xp, xn, k)
                np.testing.assert_allclose(j.gradient[k], fd_gradient(fn, x), rtol=1e-7)
                np.testing.assert_allclose(j.hessian[k], fd_hessian(fn, x), rtol=1e-7)


class TestGaugeLogJet:
    @staticmethod
    def worst_residual(jet, p):
        """The largest normalised residual over the sample of the verify-closed-forms verdict."""
        xp, xn = sample_points_by_gauge(p, np.random.default_rng(0), 1000, 0.01, 100.0, min_normal_fraction=1e-6)
        j = jet(xp, xn, p)
        return float(np.max(componentwise_ratio(apply_grushin(j, xp, xn, p), grushin_term_scale(j, xp, xn, p))))

    def test_log_gauge_is_harmonic_at_q_2_only(self):
        p = GrushinParams(2, 0.0)
        assert p.Q == 2.0 and harmonic_gauge_power(p) == 0.0
        assert 0.0 < self.worst_residual(gauge_log_jet, p) < 1e-13
        # The check measures something: a nearby power, or log d at Q != 2, fails it by far.
        assert self.worst_residual(lambda xp, xn, p: gauge_power_jet(xp, xn, p, 0.1), p) > 0.5
        for alpha in (0.5, 1.0):
            assert self.worst_residual(gauge_log_jet, GrushinParams(2, alpha)) > 0.5

    def test_value_is_log_gauge(self):
        rng = np.random.default_rng(22)
        for p in (GrushinParams(2, 0.0), GrushinParams(3, 2.0)):
            xp, xn = random_points(p, rng, 350, 1e-1, 1e2, min_normal=0.0)
            np.testing.assert_allclose(gauge_log_jet(xp, xn, p).value, np.log(gauge_arrays(xp, xn, p)), atol=1e-13)

    def test_jet_matches_finite_differences(self):
        for p in (GrushinParams(2, 0.0), GrushinParams(3, 0.5)):
            xp = np.array([np.full(p.n - 1, 0.8), np.full(p.n - 1, -1.1)])
            xn = np.array([0.6, 0.25])
            j = gauge_log_jet(xp, xn, p)

            def fn(v):
                return float(np.log(np.dot(v[:-1], v[:-1]) + p.beta * v[-1] ** (2 + 2 * p.alpha)) / (2 + 2 * p.alpha))

            for k in range(xn.size):
                x = coords(xp, xn, k)
                np.testing.assert_allclose(j.gradient[k], fd_gradient(fn, x), rtol=1e-7)
                np.testing.assert_allclose(j.hessian[k], fd_hessian(fn, x), rtol=1e-7, atol=1e-8)

    def test_rejects_origin(self):
        with pytest.raises(ValueError, match="gauge log jet is singular at the origin"):
            gauge_log_jet(*pts([[0.0]], [0.0]), GrushinParams(2, 0.0))


class TestOperators:
    def test_linear_function_is_harmonic(self):
        j = Jet2(np.array([0.7, -1.0]), np.array([[0.0, 1.0], [2.0, 3.0]]), np.zeros((2, 2, 2)))
        np.testing.assert_array_equal(apply_grushin(j, *pts([[2.0], [0.1]], [0.3, 4.0]), P21), 0.0)

    def test_normal_square(self):
        xp, xn = pts([[2.0], [-1.0]], [0.3, 1.5])
        j = Jet2(xn**2, np.column_stack([0 * xn, 2 * xn]), np.stack([np.diag([0.0, 2.0])] * 2))
        np.testing.assert_array_equal(apply_grushin(j, xp, xn, P21), 2.0)

    def test_identity_field_reduces_to_grushin(self):
        rng = np.random.default_rng(17)
        field = make_identity_field(P21)
        m = rng.normal(size=(100, 2, 2))
        j = Jet2(rng.normal(size=100), rng.normal(size=(100, 2)), m + np.swapaxes(m, 1, 2))
        xp, xn = random_points(P21, rng, 100)
        np.testing.assert_array_equal(apply_operator(field, j, xp, xn, P21), apply_grushin(j, xp, xn, P21))

    def test_degenerate_factor_kills_tangential_terms(self):
        field = make_decaying_perturbation(P21, 2.0, 0.5, 3)
        m = np.array([[[3.0, 1.0], [1.0, 2.0]], [[-1.0, 4.0], [4.0, 5.0]]])
        j = Jet2(np.zeros(2), np.zeros((2, 2)), m)
        got = apply_operator(field, j, *pts([[1.0], [-0.3]], [0.0, 0.0]), P21)
        np.testing.assert_array_equal(got, m[:, -1, -1])

    def test_single_perturbed_entry_term_by_term(self):
        # a_11 = 1 + d^{-s}: the operator gains exactly d^{-s} x_n^{2a} D_11
        p, s = P21, 2.0
        xp, xn = pts([[2.0], [0.5], [-1.0]], [1.0, 0.2, 2.5])

        def tangential(xp, xn):
            xn = np.asarray(xn, dtype=float)
            bump = gauge_arrays(xp, xn, p) ** -s
            out = np.broadcast_to(np.eye(1), xn.shape + (1, 1)).copy()
            return out + bump[..., None, None]

        field = CoefficientField(
            tangential=tangential,
            mixed=lambda xp, xn: np.zeros(np.shape(xn) + (1,)),
            lambda_const=1.0,
            Lambda_const=2.0,
            delta_const=0.5,
            decay_s=s,
        )
        j = kernel_jet(xp, xn, p)
        expected = (
            apply_grushin(j, xp, xn, p) + gauge_arrays(xp, xn, p) ** -s * xn**2 * j.hessian[:, 0, 0]
        )
        np.testing.assert_allclose(apply_operator(field, j, xp, xn, p), expected, rtol=1e-14)

    def test_rejects_mismatched_points(self):
        xp, xn = pts([[1.0], [2.0]], [0.5, 0.7])
        j = kernel_jet(xp, xn, P21)
        with pytest.raises(ValueError, match="jet has 2 rows, got 1 points"):
            apply_grushin(j, xp[:1], xn[:1], P21)
        with pytest.raises(ValueError, match="jet has dimension 2, params have n=3"):
            apply_grushin(j, np.ones((2, 2)), xn, GrushinParams(3, 1.0))
        with pytest.raises(ValueError, match="normal coordinate must be finite and >= 0"):
            grushin_term_scale(j, xp, np.array([0.5, -0.7]), P21)


class TestSupersolution:
    def test_rho_one_symbolic_assembly(self):
        xp, xn = pts([[1.0], [0.4]], [1.0, 2.0])
        base = kernel_jet(xp, xn, P21)
        j = supersolution_jet(xp, xn, 1.0, P21)
        for k in range(xn.size):
            w, dw, hw = base.value[k], base.gradient[k], base.hessian[k]
            assert j.value[k] == pytest.approx(w - w**2, rel=1e-14)
            np.testing.assert_allclose(j.gradient[k], (1 - 2 * w) * dw, rtol=1e-13)
            np.testing.assert_allclose(
                j.hessian[k], (1 - 2 * w) * hw - 2 * np.outer(dw, dw), rtol=1e-13
            )

    def test_positive_factorization(self):
        rng = np.random.default_rng(23)
        xp, xn = random_points(P21, rng, 200, 1.5, 30.0)
        w = kernel_jet(xp, xn, P21).value
        inside = (0.0 < w) & (w < 1.0)
        assert inside.any()
        assert np.all(supersolution_jet(xp, xn, 0.5, P21).value[inside] > 0.0)

    def test_second_derivatives_match_finite_differences(self):
        p, rho = P21, 0.5
        xp, xn = pts([[3.0], [-2.0]], [0.7, 1.9])
        j = supersolution_jet(xp, xn, rho, p)

        def fn(v):
            return float(supersolution_value_arrays(v[:-1], v[-1], rho, p))

        for k in range(xn.size):
            x = coords(xp, xn, k)
            np.testing.assert_allclose(j.hessian[k], fd_hessian(fn, x), rtol=1e-6)
            np.testing.assert_allclose(j.gradient[k], fd_gradient(fn, x), rtol=1e-7)

    def test_rejects_flat_boundary_for_fractional_rho(self):
        xp, xn = pts([[1.0], [2.0]], [0.5, 0.0])
        with pytest.raises(ValueError, match="needs x_n > 0 when rho < 1"):
            supersolution_jet(xp, xn, 0.5, P21)
        supersolution_jet(xp, xn, 1.0, P21)  # integer rho is fine

    def test_rejects_origin_for_integer_rho(self):
        with pytest.raises(ValueError, match="kernel jet is singular at the origin"):
            supersolution_jet(*pts([[1.0], [0.0]], [0.5, 0.0]), 1.0, P21)

    def test_model_operator_drop_is_exact_gradient_square(self):
        # G(w - w^{1+rho}) = -rho(1+rho) w^{rho-1} (x_n^{2a}|D'w|^2 + (D_n w)^2)
        rng = np.random.default_rng(29)
        for p in (P21, GrushinParams(3, 0.5)):
            xp, xn = random_points(p, rng, 100, 0.5, 20.0)
            for rho in rng.uniform(0.2, 0.9, 3):
                j = supersolution_jet(xp, xn, rho, p)
                base = kernel_jet(xp, xn, p)
                w, dw = base.value, base.gradient
                grad_sq = xn ** (2 * p.alpha) * np.sum(dw[:, :-1] ** 2, axis=1) + dw[:, -1] ** 2
                expect = -rho * (1 + rho) * w ** (rho - 1.0) * grad_sq
                got = apply_grushin(j, xp, xn, p)
                np.testing.assert_allclose(got, expect, rtol=1e-9)
                assert np.all(got <= 0.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0 / 3.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_jet_values_equal_value_functions_bit_for_bit(alpha, n):
    p = GrushinParams(n, alpha)
    xp, xn = random_points(p, np.random.default_rng(31), 2000, 0.1, 50.0)
    assert np.array_equal(kernel_jet(xp, xn, p).value, kernel_value_arrays(xp, xn, p))
    for rho in (0.5, 1.0):
        jet = supersolution_jet(xp, xn, rho, p).value
        assert np.array_equal(jet, supersolution_value_arrays(xp, xn, rho, p))


class TestBarrier:
    def test_anchor_value_and_hessian(self):
        spec = BarrierSpec(C=3.0, B=2.0, x0_tangential=np.array([0.5]), alpha=1.0)
        xp, xn = pts([[0.5], [1.5], [-0.5]], [0.0, 0.4, 0.9])
        j = boundary_barrier_jet(xp, xn, spec)
        assert j.value[0] == 0.0
        np.testing.assert_allclose(j.hessian[:, 0, 0], 2 * spec.B, rtol=1e-15)
        np.testing.assert_array_equal(j.hessian[:, 0, 1], 0.0)
        expect_dnn = -0.5 * spec.C * (2 + spec.alpha) * (1 + spec.alpha) * xn**spec.alpha
        np.testing.assert_allclose(j.hessian[:, 1, 1], expect_dnn, rtol=1e-15)
        with pytest.raises(ValueError, match="different tangential dimensions"):
            boundary_barrier_jet(np.ones((3, 2)), xn, spec)
        with pytest.raises(ValueError, match="normal coordinate must be finite and >= 0"):
            boundary_barrier_jet(xp, np.array([0.0, np.nan, 0.9]), spec)

    def test_chosen_constants_satisfy_supersolution_condition(self):
        for sup, lam, alpha, n in [(1.0, 1.0, 1.0, 2), (2.5, 1.3, 0.5, 3)]:
            spec = choose_barrier_constants(sup, lam, alpha, n)
            assert 2 * (n - 1) * lam * spec.B - (2 + alpha) * (1 + alpha) * spec.C / 2 <= 1e-12

    def test_worked_example(self):
        spec = choose_barrier_constants(1.0, 1.0, 1.0, 2)
        assert spec.B == 16.0
        assert spec.C == pytest.approx(32.0 / 3.0, rel=1e-15)

    def test_zero_solution_needs_zero_barrier(self):
        spec = choose_barrier_constants(0.0, 1.0, 1.0, 2)
        assert spec.B == 0.0 and spec.C == 0.0

    @pytest.mark.parametrize("alpha,n", [(0.5, 2), (1.0, 2), (1.0, 3)])
    def test_barrier_is_supersolution_on_unit_halfbox(self, alpha, n):
        p = GrushinParams(n, alpha)
        ident = make_identity_field(p)
        pert = make_decaying_perturbation(p, 2.0, 0.4, 8)
        for field in (ident, pert):
            spec = choose_barrier_constants(1.0, field.Lambda_const, alpha, n)
            rng = np.random.default_rng(13)
            xp = rng.uniform(-1, 1, (1000, n - 1))
            xn = rng.uniform(1e-6, 1.0, 1000)
            j = boundary_barrier_jet(xp, xn, spec)
            assert np.all(apply_operator(field, j, xp, xn, p) <= 1e-12)
