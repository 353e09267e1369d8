import dataclasses
import math

import numpy as np
import pytest
from test_fdsolver import three_node_system

from grushinlab import cli, experiments
from grushinlab.closedforms import kernel_value_arrays, supersolution_value_arrays
from grushinlab.coefficients import make_decaying_perturbation, make_identity_field
from grushinlab.experiments import (
    FitResult,
    GridSpec,
    PreconditionError,
    comparison_margin,
    decay_ray,
    fit_loglog,
    run_boundary_growth,
    run_decay_fit,
    run_global_bound_check,
    run_holder_modulus,
    run_oscillation_decay,
    run_supersolution_scan,
)
from grushinlab.fdsolver import SpacingError, solve
from grushinlab.geometry import GrushinParams

P21 = GrushinParams(2, 1.0)
IDENT = make_identity_field(P21)
WBOX = GridSpec((1.0, 0.0), (3.0, 2.0), (33, 33))


def bc_kernel(xp, xn):
    return kernel_value_arrays(xp, xn, P21)


def bc_linear(xp, xn):
    # u = x_n / 2 stays within |bc| <= 1 on the height-2 box
    return 0.5 * np.asarray(xn, dtype=float)


def bc_zero(xp, xn):
    return np.zeros(np.shape(xn))


@pytest.fixture
def no_solve(monkeypatch):
    """Make every solve of a runner raise: a refusal must fire before it."""

    def forbidden(sys):
        raise AssertionError("solved before refusing")

    monkeypatch.setattr(experiments, "solve", forbidden)


class TestFitLogLog:
    def test_recovers_power_law(self):
        x = np.geomspace(0.1, 10.0, 20)
        fit = fit_loglog(x, 3.7 * x**-2.25)
        assert fit.exponent == pytest.approx(-2.25, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-12)
        assert fit.residual_norm <= 1e-12
        assert fit.sample_count == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog(np.array([1.0, 2.0]), np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            FitResult(1.0, 0.0, 0.0, 4, (0.1, 1.0))
        with pytest.raises(ValueError):
            FitResult(1.0, 0.0, 0.0, 9, (1.0, 1.0))


class TestRequireMonotone:
    @pytest.mark.parametrize(
        "weights, counts",
        [
            ([0.0, 0.0, 0.0], (0, 1, 0)),  # the singular system of the solver tests
            ([-1.0, 1.0, -1.0], (0, 0, 1)),
            ([0.5, 1.0, -0.1], (1, 0, 0)),
        ],
        ids=["zero-diagonal", "negative-row-sum", "positive-off-diagonal"],
    )
    def test_message_counts_each_failure_kind(self, weights, counts):
        with pytest.raises(PreconditionError) as err:
            experiments.require_monotone(three_node_system(weights))
        assert str(err.value) == (
            "discrete maximum principle fails on this grid/field: "
            "%d rows with a positive off-diagonal (mesh-ratio condition), "
            "%d with a nonpositive diagonal, %d with a negative row sum" % counts
        )


class TestBoundaryGrowth:
    def test_linear_solution_recovers_slope_and_exponent(self):
        rep = run_boundary_growth(IDENT, P21, WBOX, bc_linear)
        assert rep.bound_constant == pytest.approx(0.5, abs=1e-10)
        assert rep.fit.exponent == pytest.approx(1.0, abs=1e-8)

    def test_zero_data_refuses_fit(self):
        with pytest.raises(PreconditionError, match="degenerate ray data: 0 normal-ray nodes with"):
            run_boundary_growth(IDENT, P21, WBOX, bc_zero)

    def test_kernel_trace_matches_oracle(self):
        rep = run_boundary_growth(IDENT, P21, WBOX, bc_kernel)
        assert 0.95 <= rep.fit.exponent <= 1.05
        grid = WBOX.build(P21)
        tang, norm = grid.node_coordinates()
        keep = norm > 0
        oracle = np.max(kernel_value_arrays(tang[keep], norm[keep], P21) / norm[keep])
        assert rep.bound_constant == pytest.approx(oracle, rel=0.10)

    def test_data_above_one_is_rejected(self, no_solve):
        with pytest.raises(PreconditionError, match=r"^boundary-growth problems need \|bc\| <= 1$"):
            run_boundary_growth(IDENT, P21, WBOX, lambda xp, xn: 2.0 * xn)

    def test_nonzero_flat_data_is_rejected(self, no_solve):
        with pytest.raises(PreconditionError, match="^boundary-growth problems need u = 0 on the flat face$"):
            run_boundary_growth(IDENT, P21, WBOX, lambda xp, xn: 0.25 * np.ones(np.shape(xn)))


class TestHolderModulus:
    def test_linear_solution_quotient_at_most_one(self):
        # 1-d oracle: sup |y-z| / |y^{1+a} - z^{1+a}|^{1/(1+a)} over the
        # normal segment equals 1 (attained against the flat boundary)
        t = np.linspace(0.0, 1.0, 401)
        yy, zz = np.meshgrid(t, t)
        keep = yy != zz
        quot = np.abs(yy - zz)[keep] / np.abs(yy**2 - zz**2)[keep] ** 0.5
        assert np.max(quot) == pytest.approx(1.0, rel=1e-12)

        rep = run_holder_modulus(IDENT, P21, WBOX, bc_linear, levels=2, pairs=20_000)
        for level in rep.levels:
            assert level.max_quotient <= 1.0 + 1e-9

    def test_kernel_trace_stabilizes(self):
        rep = run_holder_modulus(IDENT, P21, WBOX, bc_kernel, levels=3, pairs=30_000)
        assert rep.exponent == pytest.approx(0.5, abs=0)
        assert rep.final_change < 0.25

    def test_oversized_exponent_blows_up(self):
        rep = run_holder_modulus(
            IDENT, P21, WBOX, bc_kernel, exponent=0.5 + 0.2, levels=3, pairs=30_000
        )
        growth = [
            rep.levels[k + 1].max_quotient / rep.levels[k].max_quotient
            for k in range(len(rep.levels) - 1)
        ]
        assert min(growth) > 1.2  # sharpness probe: reported, grows per level

    def test_nonzero_flat_data_is_rejected(self, no_solve):
        with pytest.raises(PreconditionError, match="^Hoelder runs need u = 0 on the flat face$"):
            run_holder_modulus(IDENT, P21, WBOX, lambda xp, xn: 0.25 * np.ones(np.shape(xn)), levels=2)

    def test_unbuildable_finest_grid_is_refused_before_any_assembly(self, monkeypatch):
        # Level 7 of the 33x33 grid is 2049x2049, over the node budget; alpha = 80 grades the
        # normal axis of level 3, 129 nodes, below the smallest spacing.
        monkeypatch.setattr(experiments, "assemble", None)
        with pytest.raises(ValueError, match="^grid has 4198401 nodes, exceeding the budget"):
            run_holder_modulus(IDENT, P21, WBOX, bc_kernel, levels=7)
        with pytest.raises(SpacingError, match="^axis 1 of 129 nodes"):
            run_holder_modulus(IDENT, GrushinParams(2, 80.0), WBOX, bc_kernel, levels=3)

    def test_zero_data_is_refused(self):
        # u = 0 makes every quotient 0, so the relative change has no denominator.
        with pytest.raises(PreconditionError, match="every sampled two-point quotient is 0 on the 33x33 grid"):
            run_holder_modulus(IDENT, P21, WBOX, bc_zero, levels=2, pairs=300)

    def test_deterministic_given_seed(self):
        a = run_holder_modulus(IDENT, P21, WBOX, bc_kernel, levels=2, pairs=10_000, seed=3)
        b = run_holder_modulus(IDENT, P21, WBOX, bc_kernel, levels=2, pairs=10_000, seed=3)
        assert a == b


class TestOscillationDecay:
    def test_constant_data_gives_half(self):
        rep = run_oscillation_decay(
            IDENT, P21, 1.0, counts=(65, 33), curved_value=0.5, flat_value=0.5
        )
        assert rep.sup_inner == pytest.approx(0.5, abs=1e-12)
        assert rep.c0_empirical == pytest.approx(0.5, abs=1e-12)

    def test_positive_drop_and_scale_invariance(self):
        reports = [run_oscillation_decay(IDENT, P21, R, counts=(65, 33)) for R in (1.0, 4.0, 16.0)]
        c0s = [r.c0_empirical for r in reports]
        assert all(c > 0.0 for c in c0s)
        assert (max(c0s) - min(c0s)) / max(c0s) <= 0.2

    def test_perturbed_field_still_drops(self):
        field = make_decaying_perturbation(P21, 2.0, 0.3, 42)
        rep = run_oscillation_decay(field, P21, 4.0, counts=(65, 33))
        assert rep.c0_empirical > 0.0

    def test_empty_middle_shell_is_refused(self, no_solve):
        # A 3x3 grid has no node within SHELL_BAND of the middle shell.
        with pytest.raises(PreconditionError, match="^no grid nodes fall on the measured middle shell; raise experiment.counts$"):
            run_oscillation_decay(IDENT, P21, 1.0, counts=(3, 3))

    def test_box_is_the_dilation_of_the_unit_box(self):
        # The annulus box and the scan shell's limits equal the powers written out, bit for bit.
        rng = np.random.default_rng(5)
        for R, alpha in zip(np.exp(rng.uniform(-100.0, 100.0, 2000)).tolist(), rng.uniform(0.0, 5.0, 2000).tolist()):
            p = GrushinParams(2, alpha)
            half_width = (4.0 * R) ** 0.5
            height = (4.0 * R) ** (1.0 / (2.0 + 2.0 * alpha))
            grid = experiments.annulus_grid(p, R, (3, 3))
            assert (grid.box_lo[0], grid.box_hi[0], grid.box_hi[1]) == (-half_width, half_width, height)
            limits = ((2.0 * R) ** (1.0 + alpha), 2.0 * R * (1.0 + alpha) ** (1.0 / (1.0 + alpha)))
            assert experiments._box_half_widths(p, 2.0 * R) == limits


class TestSupersolutionScan:
    SHELLS = tuple(2.0**k for k in range(8))

    def test_hypothesis_gate(self):
        with pytest.raises(PreconditionError):
            run_supersolution_scan(P21, 1.0, 2.0, 1.0, self.SHELLS, 50)
        with pytest.raises(PreconditionError):
            run_supersolution_scan(GrushinParams(3, 1.0), 0.8, 1.2, 1.0, self.SHELLS, 50)

    def test_amplitude_zero_is_clean_everywhere(self):
        scan = run_supersolution_scan(P21, 0.5, 2.0, 0.0, self.SHELLS, 150, seed=0)
        assert scan.R0_empirical == self.SHELLS[0]
        assert not scan.violations
        assert all(per[3] <= 0.0 for per in scan.per_shell)

    def test_adversarial_envelope_has_finite_onset(self):
        scan = run_supersolution_scan(P21, 0.5, 2.0, 1.0, self.SHELLS, 150, seed=0)
        assert scan.R0_empirical is not None
        assert scan.R0_empirical <= 1e3
        for R, _, n_viol, _ in scan.per_shell:
            if R >= scan.R0_empirical:
                assert n_viol == 0

    def test_deterministic_given_seed(self):
        a = run_supersolution_scan(P21, 0.5, 2.0, 1.0, self.SHELLS, 60, seed=9)
        b = run_supersolution_scan(P21, 0.5, 2.0, 1.0, self.SHELLS, 60, seed=9)
        assert a == b

    def test_default_scan_onset_at_seed_zero(self):
        # supersolution-scan defaults at seed 0 with 1000 samples per shell
        shells = tuple(2.0**k for k in range(11))
        scan = run_supersolution_scan(P21, 0.5, 2.0, 1.0, shells, 1000, seed=0)
        assert scan.R0_empirical == 2.0
        assert len(scan.violations) == 126
        assert [per[1:3] for per in scan.per_shell] == [(1000, 126)] + [(1000, 0)] * 10
        assert all(v.shell == 1.0 and v.value > 0.0 for v in scan.violations)

    def test_three_dimensional_onset_is_finite(self):
        p = GrushinParams(3, 1.0)
        scan = run_supersolution_scan(p, 0.4, 2.0, 1.0, tuple(2.0**k for k in range(10)), 150)
        assert scan.R0_empirical is not None


class TestDecayFit:
    def test_oracle_values_give_exact_slope(self):
        gauges, tang, norm = decay_ray(P21, 2.0, 40.0, 13)
        fit = fit_loglog(gauges, kernel_value_arrays(tang, norm, P21) / norm)
        assert abs(fit.exponent + P21.Q) <= 1e-9

    def test_small_solver_run_lands_near_minus_q(self):
        rep = run_decay_fit(IDENT, P21, 1.0, 16.0, counts=(513, 49))
        assert rep.fit.exponent == pytest.approx(-P21.Q, rel=0.15)
        assert rep.solve.dmp_ok

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            run_decay_fit(IDENT, P21, 8.0, 4.0, counts=(129, 17))

    def test_fractional_alpha_slope(self):
        p = GrushinParams(2, 0.5)
        rep = run_decay_fit(make_identity_field(p), p, 1.0, 32.0, counts=(769, 97))
        assert rep.fit.exponent == pytest.approx(-p.Q, rel=0.15)

    def test_degenerate_ray_data_refuses_fit(self, monkeypatch):
        monkeypatch.setattr(experiments, "MIN_RAY_VALUE", 1e6)
        with pytest.raises(PreconditionError, match="degenerate ray data: 0 ray values above 1e"):
            run_decay_fit(IDENT, P21, 1.0, 8.0, counts=(129, 33))

    def test_scan_thread_budget_does_not_change_results(self, monkeypatch):
        shells = (1.0, 2.0, 4.0)
        monkeypatch.setenv("GRUSHINLAB_THREADS", "1")
        serial = run_supersolution_scan(P21, 0.5, 2.0, 1.0, shells, 80, seed=4)
        monkeypatch.setenv("GRUSHINLAB_THREADS", "3")
        threaded = run_supersolution_scan(P21, 0.5, 2.0, 1.0, shells, 80, seed=4)
        assert serial == threaded


class TestGlobalBound:
    def test_oracle_is_its_own_bound(self):
        # u replaced by C0 * (w - w^{1+rho}) values: the comparison is exact
        rng = np.random.default_rng(2)
        xp = rng.uniform(-20, 20, (500, 1))
        xn = rng.uniform(0.0, 10.0, 500)
        barrier = supersolution_value_arrays(xp, xn, 0.5, P21)
        keep = barrier > 0
        c0 = 3.7
        values = c0 * barrier[keep]
        assert comparison_margin(values, barrier[keep], c0, 0.0) >= -1e-9
        assert comparison_margin(values, barrier[keep], 0.5 * c0, 0.0) < 0.0

    def test_identity_run_passes_and_control_fails(self):
        rep = run_global_bound_check(IDENT, P21, 0.5, 2.0, 32.0, counts=(1025, 81))
        gate = (-cli.MARGIN_TOLERANCE, math.inf)
        assert cli.verdict("worst_margin", rep.worst_margin, gate)["passed"]
        assert not cli.verdict("control", rep.falsification_margin, gate)["passed"]
        assert cli.verdict("worst_margin", rep.worst_margin, gate, rep.falsification_margin)["passed"]
        assert rep.epsilon <= 1e-12

    def test_radius_validation(self):
        with pytest.raises(ValueError, match="need 0 < inner_radius < outer_radius"):
            run_global_bound_check(IDENT, P21, 0.5, 2.0, 1.5, counts=(129, 17))

    def test_too_small_inner_radius_is_rejected(self, no_solve):
        # w >= 1 on the inner boundary makes the supersolution useless there
        with pytest.raises(PreconditionError, match=r"^supersolution w - w\^\{1\+rho\} is not positive"):
            run_global_bound_check(IDENT, P21, 0.5, 1.0, 16.0, counts=(257, 33))

    def test_invisible_inner_box_is_refused(self, no_solve):
        # At 5x5 the inner box holds no node above the flat face.  The inner radius is a constant
        # of the command, so the advice names the keys that space the grid more finely.
        with pytest.raises(
            PreconditionError,
            match=r"^inner box is invisible to the grid \(gauge radius 2\); "
            r"raise experiment.counts or lower experiment.outer_radius$",
        ):
            run_global_bound_check(IDENT, P21, 0.5, 2.0, 64.0, counts=(5, 5))


class TestSolverSelection:
    # Exterior problems with the identity field excise a few nodes, which the
    # fast solver absorbs; an annulus excises most of the box and stays on LU.
    @pytest.mark.parametrize("command", ["decay-fit", "global-bound"])
    def test_identity_exterior_solves_are_fast(self, command):
        if command == "decay-fit":
            rep = run_decay_fit(IDENT, P21, 1.0, 16.0, counts=(129, 17))
        else:
            rep = run_global_bound_check(IDENT, P21, 0.5, 2.0, 16.0, counts=(129, 17))
        assert rep.solve.method == "fast-diagonalization"
        assert rep.solve.converged and rep.solve.iterations == 1

    def test_identity_annulus_stays_on_lu(self):
        rep = run_oscillation_decay(IDENT, P21, 1.0, counts=(33, 13))
        assert rep.solve.method == "lu" and rep.solve.converged

    @pytest.mark.parametrize("counts", [(65, 25), (257, 97)], ids=str)
    def test_perturbed_annulus_converges_within_two_sweeps(self, counts):
        # At 257 x 97 the relative residual of this solve stays above 1e-10
        # however many sweeps run; its componentwise backward error does not.
        field = make_decaying_perturbation(P21, 2.0, 0.3, 0)
        rep = run_oscillation_decay(field, P21, 1.0, counts=counts)
        assert rep.solve.method == "lu"
        assert rep.solve.converged and rep.solve.iterations <= 2
        assert rep.solve.backward_error <= 1e-10

    def test_unconverged_solve_is_refused(self, monkeypatch):
        def stuck(sys):
            u, report = solve(sys)
            return u, dataclasses.replace(report, converged=False)

        monkeypatch.setattr(experiments, "solve", stuck)
        with pytest.raises(PreconditionError, match="did not converge"):
            run_oscillation_decay(IDENT, P21, 1.0, counts=(33, 13))
