"""Command line front end: JSON config in, JSON + CSV reports out.

Each command returns its verdicts (``verdict``), and ``run`` alone decides
the outcome from them.  Exit codes partition outcomes: 0 every verdict
passed, 1 the run completed but a verdict failed (the report is still
written), 2 configuration or runtime error (no report).  stdout carries a
one-line summary written from the verdicts, stderr the diagnostics.
``report.json`` holds nothing run-dependent; the timings of the run and the
LU fill of its solves go to ``telemetry.json`` beside it.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .closedforms import (
    apply_grushin,
    gauge_log_jet,
    gauge_power_jet,
    grushin_term_scale,
    harmonic_gauge_power,
    kernel_jet,
    kernel_value_arrays,
)
from .coefficients import audit_ellipticity_arrays
from .config import ConfigError, RunConfig, parse_config
from .experiments import (
    BOUND_INNER_RADIUS,
    DECAY_INNER_RADIUS,
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
from .fdsolver import SOLVER_TOL, assemble, componentwise_ratio, solve, write_grid_function
from .geometry import sample_points_by_gauge
from .reports import content_hash, jsonable, write_csv, write_json_report

__all__ = ["main", "run"]

# Verdict gates: constants of the code, recorded as the gates of the verdicts built from them.
RESIDUAL_TOL = 1e-9  # verify-closed-forms: largest normalised residual
GROWTH_BAND = (0.95, 1.05)  # boundary-growth: range of the ray exponent
STABILIZATION = 0.25  # holder-modulus: the relative quotient change stays below it
CROSS_SCALE_TOL = 0.2  # oscillation-decay: largest relative c0 spread
FIT_BAND = 0.15  # decay-fit: largest relative slope error
MARGIN_TOLERANCE = 1e-6  # global-bound: the worst margin is >= -tolerance, its halved-C control below

# Measurement window, recorded in the result like the gates.
GAUGE_RANGE = (0.01, 100.0)  # verify-closed-forms: gauges of the sampled points ("gauge_range")

# Problem constants, recorded in the result like the gates.  Besides these, the data of the grid
# commands are the kernel (``_kernel_data``), and each grid is graded with exponent 1 + alpha.
EPSILON0 = 0.5  # audit-ellipticity: the strip x_n >= epsilon0 of the bound ("epsilon0")
RHO = 0.5  # supersolution-scan and global-bound: the supersolution w - w^{1+rho} ("rho")
ENVELOPE_DECAY = 2.0  # supersolution-scan: the envelope amplitude * min(1, d^-s) ("s")
ENVELOPE_AMPLITUDE = 1.0  # supersolution-scan: its amplitude ("amplitude")
SCAN_SHELLS = tuple(2.0**k for k in range(11))  # supersolution-scan: gauge shells [R, 2R] ("shells_tested")


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


def verdict(name: str, value, gate, control=None) -> dict:
    """One verdict, as the report records it: it passes when ``value`` is a number in the closed
    ``gate`` [lo, hi] and ``control``, if given, a number outside it (``None`` and NaN fail)."""
    lo, hi = gate
    passed = value is not None and lo <= value <= hi
    if control is not None:
        passed = passed and (control < lo or control > hi)
    return {"name": name, "value": value, "gate": [lo, hi], "control": control, "passed": bool(passed)}


def _cmd_verify_closed_forms(cfg: RunConfig):
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    lo, hi = GAUGE_RANGE
    xp, xn = sample_points_by_gauge(p, rng, cfg.experiment["points"], lo, hi, min_normal_fraction=1e-6)
    power = harmonic_gauge_power(p)
    jw = kernel_jet(xp, xn, p)
    rw = componentwise_ratio(apply_grushin(jw), grushin_term_scale(jw))
    # At Q = 2 the power is 0 and d^0 = 1 would pass whatever the operator; log d is checked instead.
    gauge_function = "log d" if power == 0.0 else "d^(2-Q)"
    jg = gauge_log_jet(xp, xn, p) if power == 0.0 else gauge_power_jet(xp, xn, p, power)
    rg = componentwise_ratio(apply_grushin(jg), grushin_term_scale(jg))
    worst_kernel = float(np.max(rw))
    worst_power = float(np.max(rg))
    columns = [*xp.T, xn, rw, rg]
    verdicts = [
        verdict("max_kernel_residual", worst_kernel, (0.0, RESIDUAL_TOL)),
        verdict("max_gauge_power_residual", worst_power, (0.0, RESIDUAL_TOL)),
    ]
    result = {
        "max_kernel_residual": worst_kernel,
        "max_gauge_power_residual": worst_power,
        "harmonic_gauge_power": power,
        "gauge_function": gauge_function,
        "gauge_range": list(GAUGE_RANGE),
    }
    header = [f"x_{i+1}" for i in range(p.n - 1)] + ["x_n", "kernel_residual", "power_residual"]
    return verdicts, result, header, columns, []


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
    result = jsonable(report)
    header = [f"x_{i+1}" for i in range(p.n - 1)] + ["x_n", "lambda_min", "lambda_max", "on_strip"]
    return [verdict("violations", len(report.violations), (0, 0))], result, header, columns, []


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
    verdicts = [verdict("backward_error", report.backward_error, (0.0, SOLVER_TOL))]
    return verdicts, result, ["axis", "nodes", "min_spacing", "max_spacing"], columns, [report]


def _cmd_boundary_growth(cfg: RunConfig):
    p = cfg.params
    field = cfg.build_field()
    report = run_boundary_growth(field, p, cfg.grid, _kernel_data(p))
    result = {**jsonable(report), "ray_height_fraction": RAY_HEIGHT_FRACTION}
    columns = [report.ray_heights, report.ray_values]
    verdicts = [verdict("ray_exponent", report.fit.exponent, GROWTH_BAND)]
    return verdicts, result, ["height", "abs_u"], columns, [report.solve]


def _cmd_holder_modulus(cfg: RunConfig):
    p = cfg.params
    field = cfg.build_field()
    report = run_holder_modulus(field, p, cfg.grid, _kernel_data(p), seed=cfg.seed, **cfg.experiment)
    grids = ["x".join(str(c) for c in lv.counts) for lv in report.levels]
    columns = [grids, [lv.max_quotient for lv in report.levels], [lv.pair_count for lv in report.levels]]
    verdicts = [verdict("final_change", report.final_change, (0.0, math.nextafter(STABILIZATION, 0.0)))]
    solves = [lv.solve for lv in report.levels]
    return verdicts, jsonable(report), ["grid", "max_quotient", "pairs"], columns, solves


def _cmd_oscillation_decay(cfg: RunConfig):
    p = cfg.params
    field = cfg.build_field()
    exp = dict(cfg.experiment)
    radii = exp.pop("radii")
    reports = [run_oscillation_decay(field, p, R, **exp) for R in radii]
    c0s = [r.c0_empirical for r in reports]
    verdicts = [verdict(f"c0.{k}", c, (math.ulp(0.0), math.inf)) for k, c in enumerate(c0s)]
    spread = None
    if cfg.field.family == "identity" and len(c0s) > 1:
        spread = (max(c0s) - min(c0s)) / max(c0s)
        verdicts.append(verdict("cross_scale_spread", spread, (-math.inf, CROSS_SCALE_TOL)))
    result = {"runs": jsonable(reports), "c0_values": c0s, "cross_scale_spread": spread, "shell_band": SHELL_BAND}
    radius = np.repeat([r.shells[0] for r in reports], [len(r.shell_samples) for r in reports])
    samples = np.concatenate([r.shell_samples for r in reports])
    columns = [radius, *samples.T]
    solves = [r.solve for r in reports]
    return verdicts, result, ["R", "ellipsoid_level", "x_n", "u_normalized"], columns, solves


def _cmd_supersolution_scan(cfg: RunConfig):
    p = cfg.params
    report = run_supersolution_scan(
        p, RHO, ENVELOPE_DECAY, ENVELOPE_AMPLITUDE, SCAN_SHELLS, seed=cfg.seed, **cfg.experiment
    )
    result = {**jsonable(report), "rho": RHO, "s": ENVELOPE_DECAY, "amplitude": ENVELOPE_AMPLITUDE}
    columns = list(zip(*report.per_shell))
    verdicts = [verdict("R0", report.R0_empirical, (min(SCAN_SHELLS), max(SCAN_SHELLS)))]
    return verdicts, result, ["R", "samples", "violations", "worst_value"], columns, []


def _cmd_decay_fit(cfg: RunConfig):
    p = cfg.params
    field = cfg.build_field()
    report = run_decay_fit(field, p, DECAY_INNER_RADIUS, **cfg.experiment)
    expected = report.expected_exponent
    xn = np.asarray(report.ray_normals)
    u = np.asarray(report.ray_values)
    columns = [report.ray_gauges, xn, u, u / xn]
    result = {**jsonable(report), "ray_window": list(RAY_WINDOW), "inner_radius": DECAY_INNER_RADIUS}
    verdicts = [verdict("slope_error", abs(report.fit.exponent - expected), (0.0, FIT_BAND * abs(expected)))]
    return verdicts, result, ["gauge", "x_n", "u", "u_over_xn"], columns, [report.solve]


def _cmd_global_bound(cfg: RunConfig):
    p = cfg.params
    field = cfg.build_field()
    report = run_global_bound_check(field, p, RHO, BOUND_INNER_RADIUS, **cfg.experiment)
    result = {**jsonable(report), "rho": RHO, "inner_radius": BOUND_INNER_RADIUS}
    columns = list(report.interface_samples.T)
    gate = (-MARGIN_TOLERANCE, math.inf)
    verdicts = [verdict("worst_margin", report.worst_margin, gate, report.falsification_margin)]
    return verdicts, result, ["tangential_norm", "x_n", "u", "supersolution"], columns, [report.solve]


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


def _summary(command: str, verdicts) -> str:
    """The command, then per verdict ``<name> <value> in [<lo>, <hi>]`` and ``, control <c>`` if it
    has one, joined by ``; ``.  Numbers are written %.6g and ``None`` as none."""

    def text(x):
        return "none" if x is None else f"{x:.6g}"

    return f"{command}: " + "; ".join(
        f"{v['name']} {text(v['value'])} in [{text(v['gate'][0])}, {text(v['gate'][1])}]"
        + ("" if v["control"] is None else f", control {text(v['control'])}")
        for v in verdicts
    )


def run(cfg: RunConfig) -> int:
    """Dispatch one validated config; write report.json, samples.csv and telemetry.json.  The
    run passes when every verdict of its command passes; ``result["verdicts"]`` records them,
    and the summary is written from them.  telemetry.json holds the wall time of this call, and
    the wall time and LU fill of each solve in the order the solves ran."""
    start = time.perf_counter()
    verdicts, result, header, columns, solves = _RUNNERS[cfg.command](cfg)
    passed = all(v["passed"] for v in verdicts)
    summary = _summary(cfg.command, verdicts)
    payload = {
        "command": cfg.command,
        "config": cfg.effective,
        "input_hash": content_hash(cfg.effective),
        "passed": passed,
        "summary": summary,
        "result": {**result, "verdicts": verdicts},
    }
    write_json_report(cfg.output_dir / "report.json", payload)
    write_csv(cfg.output_dir / "samples.csv", header, columns)
    print(summary + (" -> PASS" if passed else " -> FAIL"))
    if not passed:
        failed = ", ".join(v["name"] for v in verdicts if not v["passed"])
        print(f"{cfg.command}: failed verdicts {failed}; see {cfg.output_dir / 'report.json'}", file=sys.stderr)
    telemetry = {
        "command": cfg.command,
        "wall_time_s": time.perf_counter() - start,
        "solve_wall_time_s": [s.wall_time_s for s in solves],
        "solve_fill": [s.fill for s in solves],
    }
    write_json_report(cfg.output_dir / "telemetry.json", telemetry)
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
    except (ValueError, RuntimeError, OSError, MemoryError, ArithmeticError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
