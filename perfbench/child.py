"""One fresh benchmark process: set up, then run the job list in a closed loop.

``run.py`` starts this file once per measurement with ``PERFBENCH_T0`` set
to the monotonic clock just before the spawn, so the set-up time counts
interpreter start, the import of ``grushinlab.cli`` and the parsing of the
workload's configs.  Modes:

* ``setup``: set up, write the set-up time, exit;
* ``run``: set up, then run passes of the job list (one client, jobs in
  sequence) until the next pass would overrun ``--seconds``;
* ``trace``: as ``run`` with every layer's entry points wrapped by
  ``spans.Tracer``; the wrappers are removed before the process reports.

In every mode ``SolveGate`` keeps the ``SolveReport`` each solve returns;
it reads no clock.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (the benchmark's own module, beside this file)
import workloads  # noqa: E402


class SolveGate:
    """Collects every ``SolveReport`` returned by ``fdsolver.solve``."""

    def __init__(self):
        self.reports: list = []
        self._undo: list = []

    def install(self) -> "SolveGate":
        original = sys.modules["grushinlab.fdsolver"].solve
        reports = self.reports

        def gated(*args, **kwargs):
            result = original(*args, **kwargs)
            reports.append(result[1])
            return result

        gated.__perfbench_traced__ = True
        spans.replace_everywhere(original, gated, self._undo)
        return self

    def remove(self) -> None:
        spans.restore(self._undo)


def _check_job(raw, code, error, reports, first_headline, expected):
    """Why a job failed, as (kind, message) pairs, and its headline values.

    Kinds: ``raised``, ``exit`` (non-zero exit code), ``unconverged`` (a
    solve returned ``converged=False``), ``nondeterministic`` (headline
    differs from the first pass) and ``reference`` (outside the stored band).
    """
    failures = []
    headline = None
    if error is not None:
        failures.append(("raised", error))
    elif code != 0:
        failures.append(("exit", f"exit code {code}"))
    bad = [r for r in reports if not r.converged]
    if bad:
        worst = max(r.final_residual for r in bad)
        failures.append(
            ("unconverged", f"{len(bad)} of {len(reports)} solves not converged (residual {worst:.3g})")
        )
    report_path = Path(raw["output_dir"]) / "report.json"
    if error is None and report_path.is_file():
        headline = workloads.headline(json.loads(report_path.read_text(encoding="utf-8")))
        if first_headline is not None and headline != first_headline:
            failures.append(("nondeterministic", f"{headline} != first pass {first_headline}"))
        if expected is not None:
            misses = workloads.reference_misses(headline, expected)
            failures += [("reference", miss) for miss in misses]
    elif error is None:
        failures.append(("exit", "no report.json written"))
    return failures, headline


def run_passes(args, cli, configs, raws, gate, tracer=None, min_passes=3):
    """Closed loop over the job list until the next pass would overrun."""
    references = None
    if args.seed == 0 and not args.smoke:
        references = workloads.load_references()["workloads"][args.workload]
    first: dict[int, dict] = {}
    passes = []
    start = time.perf_counter()
    while True:
        for raw in raws:
            report = Path(raw["output_dir"]) / "report.json"
            if report.exists():
                report.unlink()
        jobs = []
        c0 = time.process_time()
        t0 = time.perf_counter()
        for index, cfg in enumerate(configs):
            if tracer is not None:
                tracer.job = index
            mark = len(gate.reports)
            j0 = time.perf_counter()
            try:
                code, error = cli.run(cfg), None
            except Exception as err:  # a job that raises counts as failed
                code, error = None, f"{type(err).__name__}: {err}"
            jobs.append((index, time.perf_counter() - j0, code, error, gate.reports[mark:]))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        layers = tracer.pass_metrics(wall) if tracer is not None else None

        record = {"wall_s": wall, "cpu_s": cpu, "jobs": [], "layers": layers}
        for index, seconds, code, error, reports in jobs:
            raw = raws[index]
            expected = None if references is None else references[index]["values"]
            failures, headline = _check_job(raw, code, error, reports, first.get(index), expected)
            first.setdefault(index, headline)
            record["jobs"].append(
                {
                    "command": raw["command"],
                    "seconds": seconds,
                    "failures": failures,
                }
            )
        passes.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > args.seconds:
            return passes, first


def environment() -> dict:
    """Machine, interpreter, library and thread settings of this process."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = []
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        entry = {"library": Path(path).name}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                entry["threads"] = threads()
                entry["config"] = config().decode("ascii", "replace").strip()
                break
        blas.append(entry)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "GRUSHINLAB_THREADS": os.environ.get("GRUSHINLAB_THREADS"),
        "grushinlab_threads_effective": (
            runtime.thread_budget() if (runtime := sys.modules.get("grushinlab.runtime")) else None
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    t0 = float(os.environ["PERFBENCH_T0"])

    tracer = None
    i0 = time.perf_counter()
    import grushinlab.cli as cli
    import grushinlab.config as config

    result: dict = {"import_s": time.perf_counter() - i0}
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"grushinlab was imported from {cli.__file__}, not from {ROOT / 'src'}")
    if args.mode == "trace":
        tracer = spans.Tracer().install()
        result["entry_points"] = tracer.entry_points

    raws = workloads.jobs(args.workload, args.seed, args.work_dir, smoke=args.smoke)
    configs = [config.parse_config(raw=raw) for raw in raws]
    result["setup_s"] = time.monotonic() - t0
    print("perfbench: setup done", file=sys.stderr, flush=True)
    if tracer is not None:
        result["setup_layers"] = tracer.pass_metrics(result["setup_s"])

    if args.mode != "setup":
        gate = SolveGate().install()
        try:
            passes, headlines = run_passes(
                args, cli, configs, raws, gate, tracer, min_passes=2 if tracer else 3
            )
        finally:
            gate.remove()
            if tracer is not None:
                result["wrappers_left"] = tracer.remove()
        result["passes"] = passes
        result["headlines"] = headlines
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = environment()
        shutil.rmtree(args.work_dir, ignore_errors=True)

    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
