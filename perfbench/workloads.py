"""Job lists of the three benchmark workloads and their output checks.

A job is one raw config for ``grushinlab.config.parse_config``; a workload
is the list of jobs one pass runs in order.  ``--seed`` feeds both the run
seed and the coefficient-field seed of every job.

* ``farfield``: a few large, thin 2-D LU solves (exterior problems).
  Exercises factorisation and fill; bypasses the closed-form jets.
* ``pointwise``: scalar closed-form jets, the ellipticity audit and report
  writing; no linear algebra at all, so it bypasses ``fdsolver``.
* ``ladder``: many medium solves (refinement ladder, four oscillation
  scales, a 3-D solve), so assembly, DMP passes, refinement sweeps and
  report I/O weigh more than factorisation.

``SMOKE`` holds the same commands at tiny sizes for the benchmark's test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

PERTURBED = {"family": "decaying-perturbation", "s": 2.0, "amplitude": 0.3}
UNIT_BOX_2D = {"box_lo": [1, 0], "box_hi": [3, 2]}
UNIT_BOX_3D = {"box_lo": [1, 1, 0], "box_hi": [3, 3, 2]}

WORKLOADS = {
    "farfield": [
        {"command": "global-bound"},
        {"command": "decay-fit"},
        {"command": "decay-fit", "params": {"alpha": 2}},
    ],
    "pointwise": [
        {"command": "supersolution-scan", "experiment": {"samples_per_shell": 1000}},
        {"command": "verify-closed-forms", "experiment": {"points": 5000}},
        {"command": "audit-ellipticity", "field": PERTURBED, "experiment": {"points": 100000}},
    ],
    "ladder": [
        {
            "command": "holder-modulus",
            "grid": {**UNIT_BOX_2D, "counts": [65, 65]},
            "experiment": {"levels": 3, "pairs": 100000},
        },
        {
            "command": "oscillation-decay",
            "field": PERTURBED,
            "experiment": {"counts": [257, 97], "radii": [1, 4, 16, 64]},
        },
        {"command": "boundary-growth", "grid": {**UNIT_BOX_2D, "counts": [257, 129]}},
        {"command": "solve", "params": {"n": 3}, "grid": {**UNIT_BOX_3D, "counts": [25, 25, 25]}},
    ],
}

SMOKE = {
    "farfield": [
        {"command": "global-bound", "experiment": {"counts": [129, 17], "outer_radius": 16}},
        {"command": "decay-fit", "experiment": {"counts": [129, 17], "outer_radius": 16}},
        {
            "command": "decay-fit",
            "params": {"alpha": 2},
            "experiment": {"counts": [129, 17], "outer_radius": 8},
        },
    ],
    "pointwise": [
        {"command": "supersolution-scan", "experiment": {"samples_per_shell": 20}},
        {"command": "verify-closed-forms", "experiment": {"points": 50}},
        {"command": "audit-ellipticity", "field": PERTURBED, "experiment": {"points": 500}},
    ],
    "ladder": [
        {
            "command": "holder-modulus",
            "grid": {**UNIT_BOX_2D, "counts": [9, 9]},
            "experiment": {"levels": 2, "pairs": 300},
        },
        {
            "command": "oscillation-decay",
            "field": PERTURBED,
            "experiment": {"counts": [33, 13], "radii": [1, 4]},
        },
        {"command": "boundary-growth", "grid": {**UNIT_BOX_2D, "counts": [17, 17]}},
        {"command": "solve", "params": {"n": 3}, "grid": {**UNIT_BOX_3D, "counts": [5, 5, 5]}},
    ],
}

REFERENCES = Path(__file__).with_name("references.json")


def jobs(workload: str, seed: int, out_root: Path, smoke: bool = False) -> list[dict]:
    """Raw configs of one workload, seeded and pointed at per-job directories."""
    table = SMOKE if smoke else WORKLOADS
    out = []
    for index, base in enumerate(table[workload]):
        raw = json.loads(json.dumps(base))
        raw["seed"] = seed
        raw["field"] = {**raw.get("field", {}), "seed": seed}
        raw["output_dir"] = str(out_root / f"job{index}-{raw['command']}")
        out.append(raw)
    return out


def headline(report: dict) -> dict:
    """The headline numbers of one ``report.json``, by command."""
    r = report["result"]
    command = report["command"]
    if command == "global-bound":
        return {"C": r["comparison_constant"]}
    if command == "decay-fit":
        return {"slope": r["fit"]["exponent"] if r["fit"] else None}
    if command == "supersolution-scan":
        return {"R0": r["R0_empirical"], "violations": len(r["violations"])}
    if command == "verify-closed-forms":
        return {
            "max_kernel_residual": r["max_kernel_residual"],
            "max_gauge_power_residual": r["max_gauge_power_residual"],
        }
    if command == "audit-ellipticity":
        return {"lower_bound_numeric": r["lower_bound_numeric"], "violations": len(r["violations"])}
    if command == "holder-modulus":
        return {f"max_quotient.{k}": lv["max_quotient"] for k, lv in enumerate(r["levels"])}
    if command == "oscillation-decay":
        return {f"c0.{k}": c for k, c in enumerate(r["c0_values"])}
    if command == "boundary-growth":
        return {"C": r["bound_constant"], "exponent": r["fit"]["exponent"] if r["fit"] else None}
    if command == "solve":
        return {"max_abs_u": r["max_abs_u"]}
    raise ValueError(f"no headline for command {command!r}")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def reference_misses(values: dict, expected: dict) -> list[str]:
    """Headline values outside their stored band ``|got - value| <= rtol |value|``."""
    misses = []
    for key, ref in expected.items():
        got = values.get(key)
        ok = (
            got is not None
            and math.isfinite(got)
            and abs(got - ref["value"]) <= ref["rtol"] * abs(ref["value"])
        )
        if not ok:
            misses.append(f"{key}={got!r} (reference {ref['value']!r}, rtol {ref['rtol']:g})")
    return misses
