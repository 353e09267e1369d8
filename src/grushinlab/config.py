"""Strict JSON run configuration for the command line front end.

A config is one JSON object; unknown keys anywhere are errors, type and
range violations report the JSON path of the offending field.  Every field
has a documented default, so the minimal config is just
``{"command": "verify-closed-forms"}``.  Command line flags override file
values before validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .closedforms import kernel_value_arrays
from .coefficients import CoefficientField, make_decaying_perturbation, make_identity_field
from .experiments import MIN_FIT_SAMPLES, GridSpec
from .geometry import GrushinParams
from .reports import jsonable

__all__ = ["ConfigError", "FieldConfig", "Tolerances", "RunConfig", "parse_config", "COMMANDS", "BOUNDARY_DATA"]

COMMANDS = (
    "verify-closed-forms",
    "audit-ellipticity",
    "solve",
    "boundary-growth",
    "holder-modulus",
    "oscillation-decay",
    "supersolution-scan",
    "decay-fit",
    "global-bound",
)

_GRID_COMMANDS = ("solve", "boundary-growth", "holder-modulus")

# Boundary data by the name ``experiment.bc`` gives: functions of (tangential, normal, params).
BOUNDARY_DATA = {
    "kernel": lambda xp, xn, p: kernel_value_arrays(xp, xn, p),
    "linear": lambda xp, xn, p: np.asarray(xn, dtype=float),
    "constant": lambda xp, xn, p: np.ones(np.shape(xn)),
    "zero": lambda xp, xn, p: np.zeros(np.shape(xn)),
}


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the JSON path."""


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    return value


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _reject_unknown(obj: dict, path: str, allowed) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{_join(path, key)}: unknown key")


def _number(obj, path, key, default, *, lo=None, hi=None, lo_open=False, hi_open=False):
    value = obj.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{_join(path, key)}: must be a number")
    value = float(value)
    if lo is not None and (value <= lo if lo_open else value < lo):
        op = ">" if lo_open else ">="
        raise ConfigError(f"{_join(path, key)}: must be {op} {lo:g}")
    if hi is not None and (value >= hi if hi_open else value > hi):
        op = "<" if hi_open else "<="
        raise ConfigError(f"{_join(path, key)}: must be {op} {hi:g}")
    return value


def _integer(obj, path, key, default, *, lo=None):
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{_join(path, key)}: must be an integer")
    if lo is not None and value < lo:
        raise ConfigError(f"{_join(path, key)}: must be >= {lo}")
    return int(value)


def _string(obj, path, key, default, choices=None):
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{_join(path, key)}: must be a string")
    if choices is not None and value not in choices:
        raise ConfigError(f"{_join(path, key)}: must be one of {', '.join(choices)}")
    return value


def _number_list(obj, path, key, default, *, length=None, lo=None, lo_open=False, integer=False):
    value = obj.get(key, default)
    if value is None and default is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{_join(path, key)}: must be an array")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{_join(path, key)}[{i}]: must be a number")
        if integer and not isinstance(item, int):
            raise ConfigError(f"{_join(path, key)}[{i}]: must be an integer")
        if lo is not None and (item <= lo if lo_open else item < lo):
            raise ConfigError(f"{_join(path, key)}[{i}]: must be {'>' if lo_open else '>='} {lo}")
        out.append(int(item) if integer else float(item))
    if length is not None and len(out) != length:
        raise ConfigError(f"{_join(path, key)}: must have length {length}")
    if not out:
        raise ConfigError(f"{_join(path, key)}: must not be empty")
    return tuple(out)


@dataclass(frozen=True)
class FieldConfig:
    """Coefficient-field selection: identity | decaying-perturbation."""

    family: str
    s: float
    amplitude: float
    seed: int

    def build(self, p: GrushinParams) -> CoefficientField:
        if self.family == "identity":
            return make_identity_field(p)
        return make_decaying_perturbation(p, self.s, self.amplitude, self.seed)


@dataclass(frozen=True)
class Tolerances:
    solver_tol: float
    residual_tol: float
    fit_band: float
    growth_band: tuple[float, float]
    stabilization: float
    margin_tol: float
    cross_scale_tol: float


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: GrushinParams
    field: FieldConfig
    grid: GridSpec | None
    tolerances: Tolerances
    experiment: dict
    seed: int
    output_dir: Path
    effective: dict

    def build_field(self) -> CoefficientField:
        return self.field.build(self.params)


def _parse_params(raw: dict) -> GrushinParams:
    obj = _object(raw.get("params", {}), "params")
    _reject_unknown(obj, "params", _field_names(GrushinParams))
    n = _integer(obj, "params", "n", 2, lo=2)
    alpha = _number(obj, "params", "alpha", 1.0, lo=0.0)
    return GrushinParams(n, alpha)


def _parse_field(raw: dict, default_seed: int) -> FieldConfig:
    obj = _object(raw.get("field", {}), "field")
    _reject_unknown(obj, "field", _field_names(FieldConfig))
    family = _string(obj, "field", "family", "identity", ("identity", "decaying-perturbation"))
    s = _number(obj, "field", "s", 2.0, lo=0.0, lo_open=True)
    amplitude = _number(obj, "field", "amplitude", 0.3, lo=0.0, hi=1.0, lo_open=True)
    seed = _integer(obj, "field", "seed", default_seed)
    return FieldConfig(family=family, s=s, amplitude=amplitude, seed=seed)


def _parse_grid(raw: dict, n: int, command: str) -> GridSpec | None:
    if "grid" not in raw:
        if command in _GRID_COMMANDS:
            lo = (1.0,) * (n - 1) + (0.0,)
            hi = (3.0,) * (n - 1) + (2.0,)
            return GridSpec(lo, hi, (33,) * n, None)
        return None
    if command not in _GRID_COMMANDS:
        raise ConfigError(f"grid: not accepted by command {command!r} (domain comes from experiment)")
    obj = _object(raw["grid"], "grid")
    _reject_unknown(obj, "grid", _field_names(GridSpec))
    lo = _number_list(obj, "grid", "box_lo", None, length=n)
    hi = _number_list(obj, "grid", "box_hi", None, length=n)
    counts = _number_list(obj, "grid", "counts", None, length=n, lo=3, integer=True)
    if lo is None or hi is None or counts is None:
        raise ConfigError("grid: box_lo, box_hi and counts are all required")
    grading = _number(obj, "grid", "grading", None, lo=1.0)
    return GridSpec(lo, hi, counts, grading)


def _parse_tolerances(raw: dict) -> Tolerances:
    obj = _object(raw.get("tolerances", {}), "tolerances")
    _reject_unknown(obj, "tolerances", _field_names(Tolerances))
    return Tolerances(
        solver_tol=_number(obj, "tolerances", "solver_tol", 1e-10, lo=0.0, lo_open=True),
        residual_tol=_number(obj, "tolerances", "residual_tol", 1e-9, lo=0.0, lo_open=True),
        fit_band=_number(obj, "tolerances", "fit_band", 0.15, lo=0.0, lo_open=True),
        growth_band=_number_list(obj, "tolerances", "growth_band", (0.95, 1.05), length=2),
        stabilization=_number(obj, "tolerances", "stabilization", 0.25, lo=0.0, lo_open=True),
        margin_tol=_number(obj, "tolerances", "margin_tol", 1e-6, lo=0.0, lo_open=True),
        cross_scale_tol=_number(obj, "tolerances", "cross_scale_tol", 0.2, lo=0.0, lo_open=True),
    )


def _parse_experiment(raw: dict, command: str, n: int) -> dict:
    """The ``experiment`` block of ``command``: its parse lines declare the
    allowed keys, each named as the keyword of the runner it configures."""
    obj = _object(raw.get("experiment", {}), "experiment")
    path = "experiment"
    out: dict[str, Any] = {}
    if command == "verify-closed-forms":
        out["points"] = _integer(obj, path, "points", 1000, lo=10)
        out["gauge_lo"] = _number(obj, path, "gauge_lo", 0.01, lo=0.0, lo_open=True)
        out["gauge_hi"] = _number(obj, path, "gauge_hi", 100.0, lo=out["gauge_lo"], lo_open=True)
    elif command == "audit-ellipticity":
        out["points"] = _integer(obj, path, "points", 1000, lo=10)
        out["epsilon0"] = _number(obj, path, "epsilon0", 0.5, lo=0.0, hi=1.0, lo_open=True, hi_open=True)
        out["tau"] = _number(obj, path, "tau", None, lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    elif command == "solve":
        out["bc"] = _string(obj, path, "bc", "kernel", BOUNDARY_DATA)
    elif command == "boundary-growth":
        out["bc"] = _string(obj, path, "bc", "kernel", BOUNDARY_DATA)
        out["ray_height_fraction"] = _number(
            obj, path, "ray_height_fraction", 0.25, lo=0.0, hi=1.0, lo_open=True
        )
    elif command == "holder-modulus":
        out["bc"] = _string(obj, path, "bc", "kernel", BOUNDARY_DATA)
        out["exponent"] = _number(obj, path, "exponent", None, lo=0.0, lo_open=True)
        out["levels"] = _integer(obj, path, "levels", 3, lo=2)
        out["pairs"] = _integer(obj, path, "pairs", 100_000, lo=100)
    elif command == "oscillation-decay":
        out["radii"] = _number_list(obj, path, "radii", (1.0, 4.0, 16.0), lo=0.0, lo_open=True)
        out["counts"] = _number_list(obj, path, "counts", None, length=n, lo=3, integer=True)
        out["shell_band"] = _number(obj, path, "shell_band", 0.15, lo=0.0, hi=0.5, lo_open=True)
        out["data_scale"] = _number(obj, path, "data_scale", 1.0, lo=0.0, lo_open=True)
    elif command == "supersolution-scan":
        out["rho"] = _number(obj, path, "rho", 0.5, lo=0.0, lo_open=True)
        out["s"] = _number(obj, path, "s", 2.0, lo=0.0, lo_open=True)
        out["amplitude"] = _number(obj, path, "amplitude", 1.0, lo=0.0)
        out["shells"] = _number_list(obj, path, "shells", tuple(2.0**k for k in range(11)), lo=1.0)
        out["samples_per_shell"] = _integer(obj, path, "samples_per_shell", 300, lo=10)
    elif command == "decay-fit":
        out["inner_radius"] = _number(obj, path, "inner_radius", 1.0, lo=0.0, lo_open=True)
        out["outer_radius"] = _number(
            obj, path, "outer_radius", 32.0, lo=out["inner_radius"], lo_open=True
        )
        out["counts"] = _number_list(obj, path, "counts", (1025,) * (n - 1) + (65,), length=n, lo=3, integer=True)
        out["grading"] = _number(obj, path, "grading", None, lo=1.0)
        out["ray_lo_factor"] = _number(obj, path, "ray_lo_factor", 2.5, lo=1.0)
        out["ray_hi_factor"] = _number(obj, path, "ray_hi_factor", 0.35, lo=0.0, hi=1.0, lo_open=True)
        out["ray_points"] = _integer(obj, path, "ray_points", 13, lo=MIN_FIT_SAMPLES)
    elif command == "global-bound":
        out["rho"] = _number(obj, path, "rho", 0.5, lo=0.0, lo_open=True)
        out["inner_radius"] = _number(obj, path, "inner_radius", 2.0, lo=0.0, lo_open=True)
        out["outer_radius"] = _number(
            obj, path, "outer_radius", 64.0, lo=out["inner_radius"], lo_open=True
        )
        out["counts"] = _number_list(obj, path, "counts", (2049,) * (n - 1) + (81,), length=n, lo=3, integer=True)
        out["grading"] = _number(obj, path, "grading", None, lo=1.0)
        out["inner_slope"] = _number(obj, path, "inner_slope", 1.0, lo=0.0, lo_open=True)
    else:  # pragma: no cover - command validated before dispatch
        raise ConfigError(f"command: unknown command {command!r}")
    _reject_unknown(obj, path, out)
    return out


def parse_config(
    path: str | Path | None = None,
    overrides: dict[str, Any] | None = None,
    raw: dict[str, Any] | None = None,
) -> RunConfig:
    """Load, override, and validate a run configuration.

    ``path`` names a JSON file; ``raw`` supplies the object directly (tests).
    ``overrides`` maps dotted paths from command line flags (e.g.
    ``params.alpha``) onto values that replace file values before validation.
    """
    if raw is None:
        if path is None:
            raw = {}
        else:
            try:
                raw = json.loads(Path(path).read_text(encoding="utf-8"))
            except FileNotFoundError as err:
                raise ConfigError(f"config file not found: {path}") from err
            except json.JSONDecodeError as err:
                raise ConfigError(f"config file is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root: must be a JSON object")
    raw = json.loads(json.dumps(raw))  # deep copy, and rejects non-JSON input types

    for dotted, value in (overrides or {}).items():
        parts = dotted.split(".")
        node = raw
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{dotted}: cannot override a non-object field")
        node[parts[-1]] = value

    _reject_unknown(
        raw,
        "",
        ("command", "params", "field", "grid", "tolerances", "experiment", "seed", "output_dir"),
    )
    if "command" not in raw:
        raise ConfigError("command: required")
    command = _string(raw, "", "command", None, COMMANDS)

    seed = _integer(raw, "", "seed", 0)
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: must be a string")

    params = _parse_params(raw)
    field = _parse_field(raw, seed)
    grid = _parse_grid(raw, params.n, command)
    tolerances = _parse_tolerances(raw)
    experiment = _parse_experiment(raw, command, params.n)

    effective = jsonable(
        {
            "command": command,
            "params": params,
            "field": field,
            "tolerances": tolerances,
            "experiment": experiment,
            "seed": seed,
        }
    )
    if grid is not None:
        effective["grid"] = jsonable(grid)

    return RunConfig(
        command=command,
        params=params,
        field=field,
        grid=grid,
        tolerances=tolerances,
        experiment=experiment,
        seed=seed,
        output_dir=Path(output_dir),
        effective=effective,
    )
