"""Strict JSON run configuration for the command line front end.

A config is one JSON object; unknown keys anywhere are errors, type and
range violations report the JSON path of the offending field, and so do
the non-finite numbers ``NaN`` and ``Infinity`` that Python's JSON parser
accepts and integers beyond the float range.  Every size that cannot run
(a grid over the node budget ``MAX_NODES``, a Hoelder ladder whose finest
grid is over it, a radius whose box overflows, a grid spaced so finely that
its stencil weights overflow, a sample of points whose n x n matrices would
not fit in memory) is refused here too, by its key, before any work:
``parse_config`` is the only validator.  Every field has a documented
default, so the minimal config is just
``{"command": "verify-closed-forms"}``.  Command line flags override file
values before validation.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .coefficients import CoefficientField, make_decaying_perturbation, make_identity_field
from .experiments import BOUND_INNER_RADIUS, DECAY_INNER_RADIUS, RAY_WINDOW, GridSpec, annulus_grid, exterior_grid
from .fdsolver import MAX_NODES, SpacingError
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


def _checked(value, where, *, integer=False, lo=None, hi=None, lo_open=False, hi_open=False):
    """``value``, refused by ``where`` unless it is a number, finite (an exact comparison with
    the float range: no conversion that could overflow), an integer if ``integer``, and within
    ``lo`` and ``hi`` (open where ``lo_open``/``hi_open``), checked in that order.  Returns an
    int if ``integer``, else a float; a float bound is printed %g, an int bound as it is."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: must be a number")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}: must be finite")
    if integer and not isinstance(value, int):
        raise ConfigError(f"{where}: must be an integer")

    def text(bound):
        return f"{bound:g}" if isinstance(bound, float) else f"{bound}"

    if lo is not None and (value <= lo if lo_open else value < lo):
        raise ConfigError(f"{where}: must be {'>' if lo_open else '>='} {text(lo)}")
    if hi is not None and (value >= hi if hi_open else value > hi):
        raise ConfigError(f"{where}: must be {'<' if hi_open else '<='} {text(hi)}")
    return value if integer else float(value)


def _number(obj, path, key, default, **bounds):
    return _checked(obj.get(key, default), _join(path, key), **bounds)


def _string(obj, path, key, default, choices=None):
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{_join(path, key)}: must be a string")
    if choices is not None and value not in choices:
        raise ConfigError(f"{_join(path, key)}: must be one of {', '.join(choices)}")
    return value


def _number_list(obj, path, key, default, *, length=None, **bounds):
    value = obj.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{_join(path, key)}: must be an array")
    out = tuple(_checked(item, f"{_join(path, key)}[{i}]", **bounds) for i, item in enumerate(value))
    if length is not None and len(out) != length:
        raise ConfigError(f"{_join(path, key)}: must have length {length}")
    if not out:
        raise ConfigError(f"{_join(path, key)}: must not be empty")
    return out


def _counts(obj, path, default, n):
    """``counts`` of ``obj``: ``n`` integers >= 3, the node counts of the axes of a grid, whose
    product, the node count of the grid, is at most ``MAX_NODES`` (the product is not printed:
    it can have more digits than ``str`` converts)."""
    counts = _number_list(obj, path, "counts", default, length=n, integer=True, lo=3)
    nodes = 1
    for count in counts:  # every count is >= 3, so the product passes MAX_NODES within 14 factors
        nodes *= count
        if nodes > MAX_NODES:
            raise ConfigError(f"{_join(path, 'counts')}: must give at most MAX_NODES = {MAX_NODES} nodes")
    return counts


def _spaced(params: GrushinParams, build, tangential_key: str):
    """``build()``, a grid the command will build; where ``build_grid`` refuses an axis whose
    stencil weights overflow, the grid is refused by the key behind that axis: ``params.alpha`` for
    the normal axis, graded with exponent 1 + alpha, and ``tangential_key`` for the others."""
    try:
        return build()
    except SpacingError as err:
        raise ConfigError(f"{'params.alpha' if err.axis == params.n - 1 else tangential_key}: {err}") from None


def _sample_size(obj, path, key, default, n):
    """``key`` of ``obj``: the number of sampled points, at least 10, each of which holds n x n
    matrices, so that points * n^2 <= 9 * MAX_NODES, the most n = 3 allows; a ``params.n`` at
    which not even 10 points fit is refused by that key."""
    hi = min(MAX_NODES, 9 * MAX_NODES // n**2)
    if hi < 10:
        raise ConfigError(
            f"params.n: must be <= {math.isqrt(9 * MAX_NODES // 10)}, "
            f"so that {_join(path, key)} can hold 10 points of n x n matrices"
        )
    return _number(obj, path, key, default, integer=True, lo=10, hi=hi)


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
    n = _number(obj, "params", "n", 2, integer=True, lo=2)
    alpha = _number(obj, "params", "alpha", 1.0, lo=0.0)
    return GrushinParams(n, alpha)


def _parse_field(raw: dict, default_seed: int) -> FieldConfig:
    obj = _object(raw.get("field", {}), "field")
    _reject_unknown(obj, "field", _field_names(FieldConfig))
    family = _string(obj, "field", "family", "identity", ("identity", "decaying-perturbation"))
    s = _number(obj, "field", "s", 2.0, lo=0.0, lo_open=True)
    amplitude = _number(obj, "field", "amplitude", 0.3, lo=0.0, hi=1.0, lo_open=True)
    seed = _number(obj, "field", "seed", default_seed, integer=True, lo=0)
    return FieldConfig(family=family, s=s, amplitude=amplitude, seed=seed)


def _parse_grid(raw: dict, n: int, command: str) -> GridSpec | None:
    if command not in _GRID_COMMANDS:
        if "grid" in raw:
            raise ConfigError(f"grid: not accepted by command {command!r} (domain comes from experiment)")
        return None
    default = {"box_lo": [1.0] * (n - 1) + [0.0], "box_hi": [3.0] * (n - 1) + [2.0], "counts": [33] * n}
    obj = _object(raw.get("grid", default), "grid")
    _reject_unknown(obj, "grid", _field_names(GridSpec))
    if obj.keys() != default.keys():
        raise ConfigError("grid: box_lo, box_hi and counts are all required")
    lo = _number_list(obj, "grid", "box_lo", None, length=n)
    hi = _number_list(obj, "grid", "box_hi", None, length=n)
    counts = _counts(obj, "grid", None, n)
    for i, (a, b) in enumerate(zip(lo, hi)):
        if not a < b:
            raise ConfigError(f"grid.box_hi[{i}]: must be > box_lo[{i}]")
    if lo[-1] != 0.0:
        raise ConfigError(f"grid.box_lo[{n - 1}]: must be 0 (the box sits on the flat face)")
    return GridSpec(lo, hi, counts)


def _parse_experiment(raw: dict, command: str, params: GrushinParams, grid: GridSpec | None) -> dict:
    """The ``experiment`` block of ``command``: its parse lines declare the
    allowed keys, each named as the keyword of the runner it configures
    (``solve`` and ``boundary-growth`` take none).  A size that cannot run
    is refused here, by its key, before any work."""
    obj = _object(raw.get("experiment", {}), "experiment")
    path, n = "experiment", params.n
    out: dict[str, Any] = {}
    if command in ("verify-closed-forms", "audit-ellipticity"):
        out["points"] = _sample_size(obj, path, "points", 1000, n)
    elif command == "holder-modulus":
        fit = 0  # the most levels whose finest grid, refined 2^(levels - 1) times, is in budget
        while math.prod(grid.refined(2**fit).counts) <= MAX_NODES:
            fit += 1
        out["levels"] = _number(obj, path, "levels", min(3, fit), integer=True, lo=2, hi=fit)
        out["pairs"] = _number(obj, path, "pairs", 100_000, integer=True, lo=100, hi=MAX_NODES)
    elif command == "oscillation-decay":
        # The far corner of the box of E_{4R}+ has ellipsoid level 4nR: a margin of 2 keeps it a float.
        hi = sys.float_info.max / (8 * n)
        radii = out["radii"] = _number_list(obj, path, "radii", (1.0, 4.0, 16.0), lo=0.0, lo_open=True, hi=hi)
        counts = out["counts"] = _counts(obj, path, (129,) * (n - 1) + (49,), n)
        smallest = radii.index(min(radii))  # its annulus has the smallest spacings
        _spaced(params, lambda: annulus_grid(params, radii[smallest], counts), f"{path}.radii[{smallest}]")
    elif command == "supersolution-scan":
        out["samples_per_shell"] = _sample_size(obj, path, "samples_per_shell", 300, n)
    elif command in ("decay-fit", "global-bound"):
        if command == "decay-fit":
            # The ray runs over the gauges RAY_WINDOW[0] * inner to RAY_WINDOW[1] * outer: empty below this outer.
            outer, lowest, counts = 32.0, RAY_WINDOW[0] / RAY_WINDOW[1] * DECAY_INNER_RADIUS, (1025,) * (n - 1) + (65,)
        else:
            outer, lowest, counts = 64.0, BOUND_INNER_RADIUS, (2049,) * (n - 1) + (81,)
        outer = out["outer_radius"] = _number(obj, path, "outer_radius", outer, lo=lowest, lo_open=True)
        counts = out["counts"] = _counts(obj, path, counts, n)
        # The box half-width outer^(1 + alpha) is a float, and so is twice the square of each grid
        # spacing, the largest h_-(h_- + h_+) of the stencil; where the box width overflows, so do they.
        try:
            half_width = outer ** (1.0 + params.alpha)
        except OverflowError:
            raise ConfigError(f"experiment.outer_radius: {outer:g}^(1 + alpha), the box half-width, overflows") from None
        spacings = [math.inf]
        if math.isfinite(2.0 * half_width):
            exterior = _spaced(params, lambda: exterior_grid(params, outer, counts), f"{path}.outer_radius")
            spacings = [float(np.max(np.diff(axis))) for axis in exterior.axes]
        if not all(math.isfinite(2.0 * h * h) for h in spacings):
            raise ConfigError(
                f"experiment.outer_radius: {outer:g} spaces the grid of counts {list(counts)} so widely "
                "that the squared spacing overflows"
            )
    if grid is not None:  # the finest grid of solve, boundary-growth and holder-modulus
        _spaced(params, lambda: grid.refined(2 ** (out.get("levels", 1) - 1)).build(params), "grid.box_hi")
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

    seed = _number(raw, "", "seed", 0, integer=True, lo=0)
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: must be a string")

    params = _parse_params(raw)
    field = _parse_field(raw, seed)
    grid = _parse_grid(raw, params.n, command)
    experiment = _parse_experiment(raw, command, params, grid)

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
