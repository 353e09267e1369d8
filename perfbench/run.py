"""grushinlab benchmark: end-to-end verdict times and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {farfield,pointwise,ladder} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Each measurement runs in a fresh child process (``child.py``) that imports
``grushinlab`` from ``src/``, parses the workload's configs with
``grushinlab.config.parse_config`` and calls ``grushinlab.cli.run`` on the
job list in a closed loop: one client, jobs in sequence, for ``S`` seconds.
Set-up is measured in that child and in ``SETUP_REPEATS`` set-up-only
children, and reported as the median.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` splits ``S``
between an untraced child and a traced one and reports the per-layer
metrics, including the tracing overhead (traced minus untraced ``wall_s``).
Every job's outputs are checked (see ``child._check_job``); the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs the same
commands at tiny sizes, without the seed-0 reference values.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 4  # set-up-only children, besides the measuring child
RUN_LIMIT_S = 170.0  # the whole run, set-up included
ERROR_KINDS = ("raised", "exit", "nondeterministic", "reference")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "verdict_max_s": "s",
    "verdict_min_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **spans.METRIC_UNITS,
    "setup.import_s": "s",
    "setup.import_scipy_s": "s",
    "trace.overhead_s": "s",
}


def spawn(mode: str, args, seconds: float, work_dir: Path, deadline: float) -> tuple[dict, str]:
    """Run ``child.py`` in ``mode``; return its result and its standard error."""
    out = work_dir / f"{mode}-{len(list(work_dir.glob(mode + '-*.json')))}.json"
    command = [sys.executable]
    if mode == "trace":
        command += ["-X", "importtime"]
    command += [
        str(HERE / "child.py"),
        f"--mode={mode}",
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={seconds}",
        f"--work-dir={work_dir / 'jobs'}",
        f"--out={out}",
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ)
    env["PERFBENCH_T0"] = repr(time.monotonic())
    proc = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text(encoding="utf-8")), proc.stderr


def scipy_import_s(stderr: str) -> float:
    """Seconds spent in SciPy's own modules during set-up (``-X importtime``)."""
    total_us = 0
    for line in stderr.splitlines():
        if line.startswith("perfbench: setup done"):
            break
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:") :].split("|")
        name = name.strip()
        if self_us.strip().isdigit() and (name == "scipy" or name.startswith("scipy.")):
            total_us += int(self_us)
    return total_us / 1e6


def host_steal_s() -> float:
    """CPU time the hypervisor took from this machine since boot, all CPUs.

    Printed as a diagnostic: stolen time slows wall-clock metrics but not
    ``cpu_s``.  Reads 0 where /proc/stat is missing.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def summarise(run: dict) -> dict:
    """End-to-end figures of one measuring child."""
    passes = run["passes"]
    jobs = [job for p in passes for job in p["jobs"]]
    verdicts: dict[str, list[float]] = {}
    for job in jobs:
        verdicts.setdefault(job["command"], []).append(job["seconds"])
    failures = [f for job in jobs for f in job["failures"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "verdict_max_s": statistics.median(max(j["seconds"] for j in p["jobs"]) for p in passes),
        "verdict_min_s": statistics.median(min(j["seconds"] for j in p["jobs"]) for p in passes),
        "peak_rss_mb": run["peak_rss_mb"],
        "verdict_s": {c: statistics.median(v) for c, v in verdicts.items()},
        "passes": len(passes),
        "attempted": len(jobs),
        "failed": sum(1 for job in jobs if job["failures"]),
        "correct": not any(kind in ERROR_KINDS for kind, _ in failures),
        "failures": sorted({f"{job['command']}: {msg}" for job in jobs for _, msg in job["failures"]}),
    }


def measure(args, work_dir: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    """Run the children; return (metrics, status, detail lines)."""
    setups = [spawn("setup", args, 0, work_dir, deadline)[0]["setup_s"] for _ in range(SETUP_REPEATS)]
    run_seconds = args.seconds / 2 if args.trace else args.seconds
    steal = host_steal_s()
    run, _ = spawn("run", args, run_seconds, work_dir, deadline)
    steal = host_steal_s() - steal
    setups.append(run["setup_s"])
    plain = summarise(run)
    status = {k: plain[k] for k in ("attempted", "failed", "correct")}
    lines = [
        f"workload {args.workload}, seed {args.seed}, {plain['passes']} passes of "
        f"{len(run['passes'][0]['jobs'])} jobs, {len(setups)} set-ups",
        f"failed_frac {plain['failed'] / plain['attempted']:.4f} "
        f"({plain['failed']} of {plain['attempted']} jobs)",
    ]
    lines += [f"  failure: {text}" for text in plain["failures"]]
    lines += [f"verdict_s.{c} {v:.4f} s" for c, v in sorted(plain["verdict_s"].items())]
    lines.append("pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in run["passes"]))
    lines.append(f"host steal {steal:.2f} s (all CPUs, during the measuring child)")
    lines.append("headlines " + json.dumps(run["headlines"], sort_keys=True))
    lines.append("environment " + json.dumps(run["environment"], sort_keys=True))

    if not args.trace:
        metrics = {k: plain[k] for k in END_TO_END_UNITS if k != "setup_s"}
        metrics["setup_s"] = statistics.median(setups)
        return metrics, status, lines

    traced, stderr = spawn("trace", args, args.seconds / 2, work_dir, deadline)
    mine = summarise(traced)
    for key in ("attempted", "failed"):
        status[key] += mine[key]
    status["correct"] = status["correct"] and mine["correct"]
    lines += [f"  traced failure: {text}" for text in mine["failures"]]
    metrics = spans.median_metrics([p["layers"] for p in traced["passes"]])
    metrics["config.parse_s"] = traced["setup_layers"]["config.parse_s"]
    metrics["setup.import_s"] = traced["import_s"]
    metrics["setup.import_scipy_s"] = scipy_import_s(stderr)
    metrics["trace.overhead_s"] = mine["wall_s"] - plain["wall_s"]
    lines.append(
        "trace " + json.dumps({"entry_points": traced["entry_points"], "wrappers_left": traced["wrappers_left"]})
    )
    return metrics, status, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no reference values")
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM, so subprocess.run kills and reaps the
    # running child and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "grushinlab" / "cli.py").is_file():
        print(f"perfbench: no grushinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    work_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, status, lines = measure(args, work_dir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for line in lines:
        print(line)
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    result = {
        **status,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
