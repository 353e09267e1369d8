"""Tests of the benchmark itself, on the smoke sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("farfield", "pointwise", "ladder")
EXACT_COUNTERS = (
    "fdsolver.dmp_calls",
    "fdsolver.dmp_per_solve",
    "fdsolver.lu_fill_nnz",
    "fdsolver.refine_sweeps",
    "closedforms.jet_calls",
    "runtime.chunk_calls",
)


def _bench(*flags, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *flags],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def _smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end_metrics(workload):
    result, lines = _smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    for name, unit in run.END_TO_END_UNITS.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    environment = json.loads(next(l for l in lines if l.startswith("environment "))[12:])
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "openblas", "GRUSHINLAB_THREADS"):
        assert key in environment


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run(workload):
    first, lines = _smoke(workload, trace=1)
    second, _ = _smoke(workload, trace=1)
    assert first["correct"] and first["failed"] == 0
    for name, unit in run.PER_LAYER_UNITS.items():
        assert first["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    trace = json.loads(next(l for l in lines if l.startswith("trace "))[6:])
    assert all(trace["entry_points"][layer] >= 1 for layer in spans.LAYERS)
    assert trace["wrappers_left"] == 0
    assert abs(first["metrics"]["trace.accounted_frac"]["value"] - 1.0) <= 0.05
    for name in EXACT_COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_tracer_removes_every_wrapper():
    import grushinlab.cli as cli
    import grushinlab.experiments as experiments
    import grushinlab.fdsolver as fdsolver
    import scipy.sparse.linalg

    before = (cli.solve, experiments.solve, fdsolver.check_dmp, fdsolver.AnisotropicGrid.node_coordinates)
    lsqr = scipy.sparse.linalg.lsqr
    tracer = spans.Tracer().install()
    try:
        assert spans.traced_bindings() > 0
        assert cli.solve is not before[0] and experiments.solve is cli.solve
    finally:
        left = tracer.remove()
    assert left == 0
    after = (cli.solve, experiments.solve, fdsolver.check_dmp, fdsolver.AnisotropicGrid.node_coordinates)
    assert all(a is b for a, b in zip(before, after))
    assert scipy.sparse.linalg.lsqr is lsqr


def test_gate_counts_an_unconverged_solve(tmp_path):
    from grushinlab.fdsolver import SolveReport

    raw = {"command": "solve", "output_dir": str(tmp_path)}
    stuck = SolveReport(50, 1.2e-10, True, 0.1, False)
    done = SolveReport(0, 1e-13, True, 0.1, True)
    failures, headline = child._check_job(raw, 0, None, [stuck, done], None, None)
    assert [kind for kind, _ in failures] == ["unconverged", "exit"]  # and no report.json
    assert headline is None


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ladder", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
