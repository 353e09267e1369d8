"""Strict JSON run configuration for the command line front end.

A config is one JSON object; unknown keys anywhere are errors, type and
range violations report the JSON path of the offending field, and so do
the non-finite numbers ``NaN`` and ``Infinity`` that Python's JSON parser
accepts and integers beyond the float range.  Every field has a documented
default, so the minimal config is just
``{"command": "verify-closed-forms"}``.  Command line flags override file
values before validation.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .coefficients import CoefficientField, make_decaying_perturbation, make_identity_field
from .experiments import GridSpec
from .fdsolver import MAX_NODES
from .geometry import GrushinParams
from .reports import jsonable

__all__ = ["ConfigError", "FieldConfig", "RunConfig", "parse_config", "COMMANDS"]

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


def _finite(value) -> bool:
    """False for NaN, +-inf and an integer beyond the float range (an exact
    comparison: no conversion that could overflow)."""
    return abs(value) <= sys.float_info.max


def _number(obj, path, key, default, *, lo=None, hi=None, lo_open=False, hi_open=False):
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{_join(path, key)}: must be a number")
    if not _finite(value):
        raise ConfigError(f"{_join(path, key)}: must be finite")
    value = float(value)
    if lo is not None and (value <= lo if lo_open else value < lo):
        op = ">" if lo_open else ">="
        raise ConfigError(f"{_join(path, key)}: must be {op} {lo:g}")
    if hi is not None and (value >= hi if hi_open else value > hi):
        op = "<" if hi_open else "<="
        raise ConfigError(f"{_join(path, key)}: must be {op} {hi:g}")
    return value


def _integer(obj, path, key, default, *, lo=None, hi=None):
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{_join(path, key)}: must be an integer")
    if lo is not None and value < lo:
        raise ConfigError(f"{_join(path, key)}: must be >= {lo}")
    if hi is not None and value > hi:
        raise ConfigError(f"{_join(path, key)}: must be <= {hi}")
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
        if not _finite(item):
            raise ConfigError(f"{_join(path, key)}[{i}]: must be finite")
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
class RunConfig:
    command: str
    params: GrushinParams
    field: FieldConfig
    grid: GridSpec | None
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
    seed = _integer(obj, "field", "seed", default_seed, lo=0)
    return FieldConfig(family=family, s=s, amplitude=amplitude, seed=seed)


def _parse_grid(raw: dict, n: int, command: str) -> GridSpec | None:
    if "grid" not in raw:
        if command in _GRID_COMMANDS:
            lo = (1.0,) * (n - 1) + (0.0,)
            hi = (3.0,) * (n - 1) + (2.0,)
            return GridSpec(lo, hi, (33,) * n)
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
    for i, (a, b) in enumerate(zip(lo, hi)):
        if not a < b:
            raise ConfigError(f"grid.box_hi[{i}]: must be > box_lo[{i}]")
    if lo[-1] != 0.0:
        raise ConfigError(f"grid.box_lo[{n - 1}]: must be 0 (the box sits on the flat face)")
    return GridSpec(lo, hi, counts)


def _parse_experiment(raw: dict, command: str, n: int) -> dict:
    """The ``experiment`` block of ``command``: its parse lines declare the
    allowed keys, each named as the keyword of the runner it configures
    (``solve`` and ``boundary-growth`` take none)."""
    obj = _object(raw.get("experiment", {}), "experiment")
    path = "experiment"
    out: dict[str, Any] = {}
    if command in ("verify-closed-forms", "audit-ellipticity"):
        out["points"] = _integer(obj, path, "points", 1000, lo=10, hi=MAX_NODES)
    elif command == "holder-modulus":
        out["levels"] = _integer(obj, path, "levels", 3, lo=2)
        out["pairs"] = _integer(obj, path, "pairs", 100_000, lo=100, hi=MAX_NODES)
    elif command == "oscillation-decay":
        out["radii"] = _number_list(obj, path, "radii", (1.0, 4.0, 16.0), lo=0.0, lo_open=True)
        out["counts"] = _number_list(obj, path, "counts", (129,) * (n - 1) + (49,), length=n, lo=3, integer=True)
    elif command == "supersolution-scan":
        out["samples_per_shell"] = _integer(obj, path, "samples_per_shell", 300, lo=10, hi=MAX_NODES)
    elif command == "decay-fit":
        out["outer_radius"] = _number(obj, path, "outer_radius", 32.0, lo=0.0, lo_open=True)
        out["counts"] = _number_list(obj, path, "counts", (1025,) * (n - 1) + (65,), length=n, lo=3, integer=True)
    elif command == "global-bound":
        out["outer_radius"] = _number(obj, path, "outer_radius", 64.0, lo=0.0, lo_open=True)
        out["counts"] = _number_list(obj, path, "counts", (2049,) * (n - 1) + (81,), length=n, lo=3, integer=True)
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

    _reject_unknown(raw, "", ("command", "params", "field", "grid", "experiment", "seed", "output_dir"))
    if "command" not in raw:
        raise ConfigError("command: required")
    command = _string(raw, "", "command", None, COMMANDS)

    seed = _integer(raw, "", "seed", 0, lo=0)
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: must be a string")

    params = _parse_params(raw)
    field = _parse_field(raw, seed)
    grid = _parse_grid(raw, params.n, command)
    experiment = _parse_experiment(raw, command, params.n)

    effective = jsonable(
        {
            "command": command,
            "params": params,
            "field": field,
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
        experiment=experiment,
        seed=seed,
        output_dir=Path(output_dir),
        effective=effective,
    )
