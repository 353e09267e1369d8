"""Command line front end: JSON config in, JSON + CSV reports out.

Exit codes partition outcomes: 0 the run passed its criterion, 1 the run
completed but failed it (the report is still written), 2 configuration or
runtime error (no report).  stdout carries a one-line summary, stderr the
diagnostics.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .closedforms import (
    apply_grushin,
    gauge_power_jet,
    grushin_term_scale,
    harmonic_gauge_power,
    kernel_jet,
    kernel_value_arrays,
)
from .coefficients import audit_ellipticity_arrays
from .config import ConfigError, RunConfig, parse_config
from .experiments import (
    RAY_HEIGHT_FRACTION,
    RAY_WINDOW,
    SHELL_BAND,
    PreconditionError,
    require_monotone,
    run_boundary_growth,
    run_decay_fit,
    run_global_bound_check,
    run_holder_modulus,
    run_oscillation_decay,
    run_supersolution_scan,
)
from .fdsolver import assemble, solve, write_grid_function
from .geometry import sample_points_by_gauge
from .reports import content_hash, jsonable, write_csv, write_json_report

__all__ = ["main", "run"]

# Verdict gates.  Each is a constant, recorded in the result of its command.
RESIDUAL_TOL = 1e-9  # verify-closed-forms: largest normalised residual ("tolerance")
GROWTH_BAND = (0.95, 1.05)  # boundary-growth: range of the ray exponent ("growth_band")
STABILIZATION = 0.25  # holder-modulus: largest relative quotient change ("stabilization")
CROSS_SCALE_TOL = 0.2  # oscillation-decay: largest relative c0 spread ("cross_scale_tol")
FIT_BAND = 0.15  # decay-fit: largest relative slope error ("fit_band")

# Measurement window, recorded in the result like the gates.
GAUGE_RANGE = (0.01, 100.0)  # verify-closed-forms: gauges of the sampled points ("gauge_range")

# Problem constants, recorded in the result like the gates.  Besides these, the data of the grid
# commands are the kernel (``_kernel_data``), and each grid is graded with exponent 1 + alpha.
EPSILON0 = 0.5  # audit-ellipticity: the strip x_n >= epsilon0 of the bound ("epsilon0")
RHO = 0.5  # supersolution-scan and global-bound: the supersolution w - w^{1+rho} ("rho")
ENVELOPE_DECAY = 2.0  # supersolution-scan: the envelope amplitude * min(1, d^-s) ("s")
ENVELOPE_AMPLITUDE = 1.0  # supersolution-scan: its amplitude ("amplitude")
SCAN_SHELLS = tuple(2.0**k for k in range(11))  # supersolution-scan: gauge shells [R, 2R] ("shells_tested")
DECAY_INNER_RADIUS = 1.0  # decay-fit: gauge radius of the inner box ("inner_radius")
BOUND_INNER_RADIUS = 2.0  # global-bound: gauge radius of the inner box ("inner_radius")


# (flag, config path, type, help) of each flag that overrides one config value.
_OVERRIDES = (
    ("--command", "command", str, "command to run (overrides config)"),
    ("--alpha", "params.alpha", float, "degeneracy exponent (overrides params.alpha)"),
    ("--n", "params.n", int, "space dimension (overrides params.n)"),
    ("--out", "output_dir", str, "output directory (overrides output_dir)"),
    ("--seed", "seed", int, "random seed (overrides seed)"),
)


def _kernel_data(p):
    """The kernel as Dirichlet data; it is NaN at the origin, where it is
    singular, with no warning, and ``assemble`` refuses it there."""
    return np.errstate(divide="ignore", invalid="ignore")(lambda xp, xn: kernel_value_arrays(xp, xn, p))


def _outer_radius(cfg: RunConfig, inner_radius: float) -> float:
    """``experiment.outer_radius``, refused unless it exceeds ``inner_radius``."""
    outer = cfg.experiment["outer_radius"]
    if not outer > inner_radius:
        raise ConfigError(f"experiment.outer_radius: must be > {inner_radius:g}")
    return outer


def _normalized_residual(op_value: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """|op_value| / scale per point; a zero scale gives 0 for a zero value, else inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(op_value) / scale
    return np.where(scale == 0.0, np.where(op_value == 0.0, 0.0, np.inf), ratio)


def _cmd_verify_closed_forms(cfg: RunConfig):
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    lo, hi = GAUGE_RANGE
    xp, xn = sample_points_by_gauge(p, rng, cfg.experiment["points"], lo, hi, min_normal_fraction=1e-6)
    power = harmonic_gauge_power(p)
    jw = kernel_jet(xp, xn, p)
    rw = _normalized_residual(apply_grushin(jw, xp, xn, p), grushin_term_scale(jw, xp, xn, p))
    jg = gauge_power_jet(xp, xn, p, power)
    rg = _normalized_residual(apply_grushin(jg, xp, xn, p), grushin_term_scale(jg, xp, xn, p))
    worst_kernel = float(np.max(rw))
    worst_power = float(np.max(rg))
    columns = [*xp.T, xn, rw, rg]
    tol = RESIDUAL_TOL
    passed = worst_kernel <= tol and worst_power <= tol
    result = {
        "max_kernel_residual": worst_kernel,
        "max_gauge_power_residual": worst_power,
        "harmonic_gauge_power": power,
        "tolerance": tol,
        "gauge_range": list(GAUGE_RANGE),
    }
    header = [f"x_{i+1}" for i in range(p.n - 1)] + ["x_n", "kernel_residual", "power_residual"]
    summary = (
        f"verify-closed-forms: max residuals kernel={worst_kernel:.3e} "
        f"gauge-power={worst_power:.3e} tol={tol:.1e}"
    )
    return passed, result, header, columns, summary


def _cmd_audit_ellipticity(cfg: RunConfig):
    p = cfg.params
    count = cfg.experiment["points"]
    field = cfg.build_field()
    rng = np.random.default_rng(cfg.seed)
    xp = rng.uniform(-1.0, 1.0, (count, p.n - 1))
    xn = rng.uniform(0.0, 1.0, count)
    xn[: max(1, count // 50)] = 0.0  # exercise the degenerate boundary case
    report = audit_ellipticity_arrays(field, p, EPSILON0, xp, xn)
    on_strip = xn >= EPSILON0
    columns = [*xp.T, xn, report.lambda_min, report.lambda_max, on_strip]
    result = jsonable(
        {k: v for k, v in vars(report).items() if k not in ("lambda_min", "lambda_max")}
    )
    header = [f"x_{i+1}" for i in range(p.n - 1)] + ["x_n", "lambda_min", "lambda_max", "on_strip"]
    summary = (
        f"audit-ellipticity: formula bound {report.lower_bound_formula:.6g}, "
        f"numeric min {report.lower_bound_numeric:.6g}, violations {len(report.violations)}"
    )
    return report.passed, result, header, columns, summary


def _cmd_solve(cfg: RunConfig):
    p = cfg.params
    grid = cfg.grid.build(p)
    field = cfg.build_field()
    sys_ = assemble(field, grid, p, _kernel_data(p))
    require_monotone(sys_)
    u, report = solve(sys_)
    write_grid_function(cfg.output_dir / "solution.txt", grid, u)
    result = {"solve": jsonable(report), "max_abs_u": float(np.max(np.abs(u)))}
    spacings = [np.diff(axis) for axis in grid.axes]
    columns = [range(grid.dim), grid.counts, [h.min() for h in spacings], [h.max() for h in spacings]]
    summary = (
        f"solve: backward error {report.backward_error:.3e} after {report.iterations} refinements, "
        f"method {report.method}"
    )
    return report.converged, result, ["axis", "nodes", "min_spacing", "max_spacing"], columns, summary


def _cmd_boundary_growth(cfg: RunConfig):
    p = cfg.params
    field = cfg.build_field()
    report = run_boundary_growth(field, p, cfg.grid, _kernel_data(p))
    lo, hi = GROWTH_BAND
    passed = lo <= report.fit.exponent <= hi
    result = {**jsonable(report), "growth_band": [lo, hi], "ray_height_fraction": RAY_HEIGHT_FRACTION}
    columns = [report.ray_heights, report.ray_values]
    summary = (
        f"boundary-growth: C={report.bound_constant:.6g}, "
        f"ray exponent {report.fit.exponent:.4f} in [{lo}, {hi}]"
    )
    return passed, result, ["height", "abs_u"], columns, summary


def _cmd_holder_modulus(cfg: RunConfig):
    p = cfg.params
    field = cfg.build_field()
    report = run_holder_modulus(field, p, cfg.grid, _kernel_data(p), seed=cfg.seed, **cfg.experiment)
    passed = report.final_change < STABILIZATION
    grids = ["x".join(str(c) for c in lv.counts) for lv in report.levels]
    columns = [grids, [lv.max_quotient for lv in report.levels], [lv.pair_count for lv in report.levels]]
    summary = (
        f"holder-modulus: exponent {report.exponent:.4f}, "
        f"max quotient change {report.final_change:.3%} at finest levels"
    )
    result = {**jsonable(report), "stabilization": STABILIZATION}
    return passed, result, ["grid", "max_quotient", "pairs"], columns, summary


def _cmd_oscillation_decay(cfg: RunConfig):
    p = cfg.params
    field = cfg.build_field()
    exp = dict(cfg.experiment)
    radii = exp.pop("radii")
    reports = [run_oscillation_decay(field, p, R, **exp) for R in radii]
    c0s = [r.c0_empirical for r in reports]
    passed = all(c > 0.0 for c in c0s)
    spread = None
    if cfg.field.family == "identity" and len(c0s) > 1:
        spread = (max(c0s) - min(c0s)) / max(c0s)
        passed = passed and spread <= CROSS_SCALE_TOL
    result = {
        "runs": [jsonable({k: v for k, v in vars(r).items() if k != "shell_samples"}) for r in reports],
        "c0_values": c0s,
        "cross_scale_spread": spread,
        "cross_scale_tol": CROSS_SCALE_TOL,
        "shell_band": SHELL_BAND,
        "note": (
            "the middle-shell drop is the engine of far-field convergence; the full "
            "limit statement at infinity is not directly testable on finite grids"
        ),
    }
    radius = np.repeat([r.shells[0] for r in reports], [len(r.shell_samples) for r in reports])
    samples = np.concatenate([r.shell_samples for r in reports])
    columns = [radius, *samples.T]
    spread_text = "" if spread is None else f", cross-scale spread {spread:.3%}"
    summary = (
        "oscillation-decay: c0 = "
        + ", ".join(f"{c:.6g}" for c in c0s)
        + f" at R = {', '.join(str(r) for r in radii)}{spread_text}"
    )
    return passed, result, ["R", "ellipsoid_level", "x_n", "u_normalized"], columns, summary


def _cmd_supersolution_scan(cfg: RunConfig):
    p = cfg.params
    report = run_supersolution_scan(
        p, RHO, ENVELOPE_DECAY, ENVELOPE_AMPLITUDE, SCAN_SHELLS, seed=cfg.seed, **cfg.experiment
    )
    passed = report.R0_empirical is not None
    result = {**jsonable(report), "rho": RHO, "s": ENVELOPE_DECAY, "amplitude": ENVELOPE_AMPLITUDE}
    columns = list(zip(*report.per_shell))
    r0_text = "none" if report.R0_empirical is None else f"{report.R0_empirical:g}"
    summary = (
        f"supersolution-scan: R0={r0_text}, {len(report.violations)} violations over "
        f"{len(report.shells_tested)} shells (amplitude {ENVELOPE_AMPLITUDE:g})"
    )
    return passed, result, ["R", "samples", "violations", "worst_value"], columns, summary


def _cmd_decay_fit(cfg: RunConfig):
    p = cfg.params
    field = cfg.build_field()
    outer = _outer_radius(cfg, DECAY_INNER_RADIUS)
    report = run_decay_fit(field, p, DECAY_INNER_RADIUS, outer, cfg.experiment["counts"])
    band = FIT_BAND
    passed = abs(report.fit.exponent - report.expected_exponent) <= band * abs(report.expected_exponent)
    xn = np.asarray(report.ray_normals)
    u = np.asarray(report.ray_values)
    columns = [report.ray_gauges, xn, u, u / xn]
    summary = (
        f"decay-fit: slope {report.fit.exponent:.4f} vs expected "
        f"{report.expected_exponent:g} (band {band:.0%})"
    )
    result = {**jsonable(report), "fit_band": band, "ray_window": list(RAY_WINDOW)}
    result["inner_radius"] = DECAY_INNER_RADIUS
    return passed, result, ["gauge", "x_n", "u", "u_over_xn"], columns, summary


def _cmd_global_bound(cfg: RunConfig):
    p = cfg.params
    field = cfg.build_field()
    outer = _outer_radius(cfg, BOUND_INNER_RADIUS)
    report = run_global_bound_check(field, p, RHO, BOUND_INNER_RADIUS, outer, cfg.experiment["counts"])
    passed = report.passed and report.falsification_failed
    result = jsonable({k: v for k, v in vars(report).items() if k != "interface_samples"})
    result.update(rho=RHO, inner_radius=BOUND_INNER_RADIUS)
    columns = list(report.interface_samples.T)
    summary = (
        f"global-bound: C={report.comparison_constant:.6g}, worst margin "
        f"{report.worst_margin:.3e}, falsification margin {report.falsification_margin:.3e}"
    )
    return passed, result, ["tangential_norm", "x_n", "u", "supersolution"], columns, summary


_RUNNERS = {
    "verify-closed-forms": _cmd_verify_closed_forms,
    "audit-ellipticity": _cmd_audit_ellipticity,
    "solve": _cmd_solve,
    "boundary-growth": _cmd_boundary_growth,
    "holder-modulus": _cmd_holder_modulus,
    "oscillation-decay": _cmd_oscillation_decay,
    "supersolution-scan": _cmd_supersolution_scan,
    "decay-fit": _cmd_decay_fit,
    "global-bound": _cmd_global_bound,
}


def run(cfg: RunConfig) -> int:
    """Dispatch one validated config; write report.json and samples.csv."""
    passed, result, header, columns, summary = _RUNNERS[cfg.command](cfg)
    payload = {
        "command": cfg.command,
        "config": cfg.effective,
        "input_hash": content_hash(cfg.effective),
        "passed": bool(passed),
        "summary": summary,
        "result": result,
    }
    write_json_report(cfg.output_dir / "report.json", payload)
    write_csv(cfg.output_dir / "samples.csv", header, columns)
    print(summary + (" -> PASS" if passed else " -> FAIL"))
    if not passed:
        print(f"{cfg.command}: criterion failed; see {cfg.output_dir / 'report.json'}", file=sys.stderr)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grushinlab",
        description="Numerical experiments for a degenerate elliptic operator on the half space.",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    for flag, _, kind, text in _OVERRIDES:
        parser.add_argument(flag, type=kind, help=text)
    args = vars(parser.parse_args(argv))
    overrides = {path: args[flag[2:]] for flag, path, _, _ in _OVERRIDES if args[flag[2:]] is not None}

    try:
        return run(parse_config(path=args["config"], overrides=overrides))
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except PreconditionError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
