"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; the runtime budgets are asserted
against wall time.
"""

import math
import time

import numpy as np
import pytest
from fd_oracle import fd_gradient, fd_hessian

from grushinlab import cli
from grushinlab.closedforms import (
    apply_grushin,
    gauge_power_jet,
    grushin_term_scale,
    harmonic_gauge_power,
    kernel_jet,
    kernel_value_arrays,
    supersolution_value_arrays,
)
from grushinlab.coefficients import (
    audit_ellipticity_arrays,
    make_decaying_perturbation,
    make_identity_field,
)
from grushinlab.experiments import (
    GridSpec,
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
from grushinlab.fdsolver import assemble, build_grid, check_dmp, solve
from grushinlab.geometry import (
    GrushinParams,
    gauge_arrays,
    quasi_distance_arrays,
    sample_points_by_gauge,
)

P21 = GrushinParams(2, 1.0)
ALPHAS = (0.5, 1.0, 2.0)
DIMS = (2, 3)
WBOX = GridSpec((1.0, 0.0), (3.0, 2.0), (33, 33))


class Clock:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self, num, title, detail):
        elapsed = time.perf_counter() - self.start
        print(f"[PASS] criterion {num:02d} ({title}): {detail} [{elapsed:.2f}s < {self.budget:.0f}s]")
        assert elapsed < self.budget, f"criterion {num} exceeded its {self.budget}s budget"


def bc_kernel_for(p):
    return lambda xp, xn: kernel_value_arrays(xp, xn, p)


def test_c01_exact_identities():
    clock = Clock(5.0)
    worst = 0.0
    for n in DIMS:
        for alpha in ALPHAS:
            p = GrushinParams(n, alpha)
            rng = np.random.default_rng(1000 + 10 * n + int(10 * alpha))
            xp, xn = sample_points_by_gauge(p, rng, 1000, 0.01, 100.0, min_normal_fraction=1e-9)
            power = harmonic_gauge_power(p)
            for jet in (kernel_jet(xp, xn, p), gauge_power_jet(xp, xn, p, power)):
                residual = np.abs(apply_grushin(jet)) / grushin_term_scale(jet)
                worst = max(worst, float(np.max(residual)))
    assert worst <= 1e-9
    clock.done(1, "exact identities", f"max normalized residual {worst:.2e} <= 1e-9")


def test_c02_derivative_table_vs_finite_differences():
    clock = Clock(10.0)
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in DIMS:
        for alpha in ALPHAS:
            p = GrushinParams(n, alpha)
            xp, xn = sample_points_by_gauge(p, rng, 17, 0.5, 3.0, min_normal_fraction=0.2)
            jet = kernel_jet(xp, xn, p)

            def fn(v, p=p):
                return float(kernel_value_arrays(v[:-1], v[-1], p))

            for k in range(xn.size):
                x = np.append(xp[k], xn[k])
                for exact, approx in [
                    (jet.gradient[k], fd_gradient(fn, x)),
                    (jet.hessian[k], fd_hessian(fn, x)),
                ]:
                    rel = np.abs(exact - approx) / np.maximum(np.abs(exact), 1e-12)
                    worst = max(worst, float(np.max(rel)))
    assert worst <= 1e-6
    clock.done(2, "derivative table", f"max relative FD mismatch {worst:.2e} <= 1e-6")


def test_c03_scaling_laws():
    clock = Clock(5.0)
    worst = 0.0
    for n in DIMS:
        for alpha in ALPHAS:
            p = GrushinParams(n, alpha)
            rng = np.random.default_rng(3000 + 10 * n + int(10 * alpha))
            count = 10_000 // (len(DIMS) * len(ALPHAS)) + 1
            xp, xn = sample_points_by_gauge(p, rng, count, 0.05, 20.0, min_normal_fraction=1e-6)
            zp, zn = sample_points_by_gauge(p, rng, count, 0.05, 20.0, min_normal_fraction=1e-6)
            h = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), count))
            ft = h**0.5
            fn_ = h ** (1.0 / (2.0 * (1.0 + alpha)))
            sxp, sxn = xp * ft[:, None], xn * fn_
            szp, szn = zp * ft[:, None], zn * fn_

            lhs = gauge_arrays(sxp, sxn, p)
            rhs = fn_ * gauge_arrays(xp, xn, p)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / rhs)))

            lhs = quasi_distance_arrays(xp, xn, zp, zn, alpha)
            rhs = h**-0.5 * quasi_distance_arrays(sxp, sxn, szp, szn, alpha)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / rhs)))

            lhs = kernel_value_arrays(sxp, sxn, p)
            rhs = h ** (-(n - 1) / 2.0) * kernel_value_arrays(xp, xn, p)
            scale = np.maximum(np.abs(rhs), 1e-300)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    assert worst <= 1e-12
    clock.done(3, "scaling laws", f"max relative defect {worst:.2e} <= 1e-12")


def test_c04_strip_ellipticity_audit():
    clock = Clock(10.0)
    rng = np.random.default_rng(4)
    details = []
    for field in (make_identity_field(P21), make_decaying_perturbation(P21, 2.0, 0.3, 42)):
        xp = rng.uniform(-1.0, 1.0, (1000, 1))
        xn = rng.uniform(0.5, 1.0, 1000)  # the strip x_n >= eps0
        report = audit_ellipticity_arrays(field, P21, 0.5, xp, xn)
        assert report.violations == ()
        assert report.lower_bound_numeric >= report.lower_bound_formula - 1e-10
        details.append(
            f"bound {report.lower_bound_formula:.4g} <= min eig {report.lower_bound_numeric:.4g}"
        )
    clock.done(4, "strip ellipticity audit", "; ".join(details))


def _manufactured_errors(counts_list):
    errs, residuals, grids = [], [], []
    field = make_identity_field(P21)
    for count in counts_list:
        grid = build_grid([1.0, 0.0], [3.0, 2.0], (count, count), 2.0)
        sys = assemble(field, grid, P21, bc_kernel_for(P21))
        u, rep = solve(sys)
        tang, norm = grid.node_coordinates()
        errs.append(float(np.max(np.abs(u - kernel_value_arrays(tang, norm, P21)))))
        residuals.append(rep.final_residual)
        grids.append((grid, sys))
    return errs, residuals, grids


def test_c05_manufactured_solution_convergence():
    clock = Clock(120.0)
    errs, residuals, _ = _manufactured_errors((33, 65, 129))
    assert errs[0] > errs[1] > errs[2]
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.0
    assert max(residuals) <= 1e-10
    clock.done(
        5,
        "manufactured solution",
        f"errors {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}, orders "
        f"{orders[0]:.2f}/{orders[1]:.2f}, residual <= {max(residuals):.1e}",
    )


def test_c06_discrete_maximum_principle():
    clock = Clock(120.0)
    field = make_identity_field(P21)
    rng = np.random.default_rng(6)
    for count in (33, 65):
        grid = build_grid([1.0, 0.0], [3.0, 2.0], (count, count), 2.0)
        sys = assemble(field, grid, P21, bc_kernel_for(P21))
        assert check_dmp(sys).ok

    grid = build_grid([1.0, 0.0], [3.0, 2.0], (33, 33), 2.0)
    for _ in range(20):
        c = rng.uniform(-1.0, 1.0, 3)
        gap = rng.uniform(0.0, 1.0)

        def lo(xp, xn, c=c):
            return c[0] + c[1] * np.sin(xp[:, 0]) + c[2] * np.cos(xn)

        def hi(xp, xn, gap=gap, c=c):
            return lo(xp, xn) + gap * (1.1 + np.sin(xp[:, 0] * xn))

        u_lo, _ = solve(assemble(field, grid, P21, lo))
        u_hi, _ = solve(assemble(field, grid, P21, hi))
        assert np.all(u_lo <= u_hi + 1e-9)

    sys0 = assemble(field, grid, P21, lambda xp, xn: np.zeros(xn.shape))
    u0, _ = solve(sys0)
    assert np.max(np.abs(u0)) <= 1e-12
    clock.done(6, "discrete maximum principle", "monotone, ordered, zero-data unique")


def test_c07_boundary_growth():
    clock = Clock(120.0)
    field = make_identity_field(P21)
    reports = [
        run_boundary_growth(field, P21, WBOX.refined(k + 1), bc_kernel_for(P21)) for k in (0, 1)
    ]
    for rep in reports:
        assert 0.95 <= rep.fit.exponent <= 1.05
        assert np.isfinite(rep.bound_constant)
    c1, c2 = (rep.bound_constant for rep in reports)
    assert abs(c1 - c2) / c2 <= 0.10
    clock.done(
        7,
        "boundary growth",
        f"exponents {reports[0].fit.exponent:.3f}/{reports[1].fit.exponent:.3f}, "
        f"C {c1:.4f}->{c2:.4f}",
    )


def test_c08_holder_modulus():
    clock = Clock(300.0)
    details = []
    for alpha in (0.5, 1.0):
        p = GrushinParams(2, alpha)
        rep = run_holder_modulus(
            make_identity_field(p), p, WBOX, bc_kernel_for(p), levels=3, pairs=100_000, seed=8
        )
        assert rep.final_change < 0.25
        details.append(f"alpha={alpha}: change {rep.final_change:.2%}")
    clock.done(8, "Hoelder modulus stability", "; ".join(details))


def test_c09_supersolution_scan():
    clock = Clock(60.0)
    shells = tuple(2.0**k for k in range(11))
    onsets = []
    for seed in (0, 1, 2):
        scan = run_supersolution_scan(P21, 0.5, 2.0, 1.0, shells, 300, seed=seed)
        assert scan.R0_empirical is not None
        assert scan.R0_empirical <= 1e3
        for radius, _, n_viol, _ in scan.per_shell:
            if radius >= scan.R0_empirical:
                assert n_viol == 0
        onsets.append(scan.R0_empirical)
    assert max(onsets) / min(onsets) <= 4.0  # stable within one dyadic shell
    control = run_supersolution_scan(P21, 0.5, 2.0, 0.0, shells, 300, seed=0)
    assert not control.violations
    clock.done(
        9,
        "supersolution scan",
        f"R0 = {onsets} across seeds, amplitude-0 control clean on every shell",
    )


def test_c10_decay_fit():
    clock = Clock(300.0)
    gauges, tang, norm = decay_ray(P21, 2.5, 11.2, 13)
    oracle = fit_loglog(gauges, kernel_value_arrays(tang, norm, P21) / norm)
    assert abs(oracle.exponent + P21.Q) <= 1e-9

    rep = run_decay_fit(make_identity_field(P21), P21, 1.0, 32.0, counts=(1025, 65))
    assert abs(rep.fit.exponent + 3.0) <= 0.15 * 3.0

    p0 = GrushinParams(2, 0.0)
    rep0 = run_decay_fit(make_identity_field(p0), p0, 1.0, 32.0, counts=(257, 129))
    assert abs(rep0.fit.exponent + 2.0) <= 0.15 * 2.0
    clock.done(
        10,
        "far-field decay",
        f"slope {rep.fit.exponent:.3f} (target -3), alpha=0 control {rep0.fit.exponent:.3f} "
        f"(target -2), oracle defect {abs(oracle.exponent + P21.Q):.1e}",
    )


def test_c11_global_bound():
    clock = Clock(120.0)
    # analytic control: the supersolution is exactly its own comparison bound
    rng = np.random.default_rng(11)
    xp = rng.uniform(-50.0, 50.0, (2000, 1))
    xn = rng.uniform(0.0, 20.0, 2000)
    barrier = supersolution_value_arrays(xp, xn, 0.5, P21)
    keep = barrier > 0
    assert comparison_margin(4.2 * barrier[keep], barrier[keep], 4.2, 0.0) >= -1e-9

    rep = run_global_bound_check(
        make_identity_field(P21), P21, 0.5, 2.0, 64.0, counts=(2049, 81)
    )
    gate = (-cli.MARGIN_TOLERANCE, math.inf)
    assert cli.verdict("worst_margin", rep.worst_margin, gate, rep.falsification_margin)["passed"]
    assert rep.worst_margin >= -1e-6
    assert rep.falsification_margin < -1e-3
    clock.done(
        11,
        "global comparison bound",
        f"C={rep.comparison_constant:.3f}, margin {rep.worst_margin:.2e}, halved-C control "
        f"{rep.falsification_margin:.2e}",
    )


def test_c12_oscillation_decay():
    clock = Clock(300.0)
    identity = make_identity_field(P21)
    perturbed = make_decaying_perturbation(P21, 2.0, 0.3, 42)
    radii = (1.0, 4.0, 16.0)
    c0_id = [run_oscillation_decay(identity, P21, r, counts=(129, 49)).c0_empirical for r in radii]
    c0_pe = [run_oscillation_decay(perturbed, P21, r, counts=(129, 49)).c0_empirical for r in radii]
    assert all(c > 0.0 for c in c0_id)
    assert all(c > 0.0 for c in c0_pe)
    spread = (max(c0_id) - min(c0_id)) / max(c0_id)
    assert spread <= 0.20
    clock.done(
        12,
        "oscillation decay",
        f"identity c0 ~ {np.mean(c0_id):.2e} (spread {spread:.1%}), perturbed c0 > 0 at all R",
    )
