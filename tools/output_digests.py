"""SHA-256 digests of every output of the default commands and the benchmark jobs.

For each seed given, runs the nine commands at their default configs and
every job of ``perfbench/workloads.py`` (``WORKLOADS``, seeded as the
benchmark seeds them) through ``grushinlab.cli.main`` in this process, and
prints one line per output::

    <seed> <job> <output> <sha256>

The outputs are ``report.json`` with every ``wall_time_s`` key removed,
``samples.csv``, ``solution.txt``, the exit code and stdout; a file a run
did not write prints ``absent`` in place of the digest.  Two checkouts
print the same lines exactly when those outputs are byte-identical, so the
diff of two listings is the comparison::

    python3 tools/output_digests.py --seeds 0 1 2 3 > new.txt
    python3 tools/output_digests.py --root ../parent --seeds 0 1 2 3 > old.txt
    diff old.txt new.txt

``--root`` names the checkout whose ``src/`` and ``perfbench/workloads.py``
are run (default: the one holding this file).  Nothing is written outside a
temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

OUTPUT_FILES = ("report.json", "samples.csv", "solution.txt")


def _without_wall_times(obj):
    if isinstance(obj, dict):
        return {k: _without_wall_times(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_without_wall_times(v) for v in obj]
    return obj


def _file_bytes(path: Path) -> bytes | None:
    if not path.is_file():
        return None
    data = path.read_bytes()
    if path.name == "report.json":
        report = _without_wall_times(json.loads(data))
        data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    return data


def _load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _jobs(workloads, commands, seed: int, out_root: Path) -> list[tuple[str, dict]]:
    """(label, raw config) of every default command and benchmark job at ``seed``."""
    out = []
    for command in commands:
        raw = {"command": command, "seed": seed, "output_dir": str(out_root / "default" / command)}
        out.append((f"default/{command}", raw))
    for name in workloads.WORKLOADS:
        for raw in workloads.jobs(name, seed, out_root / name):
            out.append((f"{name}/{Path(raw['output_dir']).name}", raw))
    return out


def digests(cli, jobs: list[tuple[str, dict]]):
    """Run each job through ``cli.main``; yield (job, output, digest)."""
    for label, raw in jobs:
        out_dir = Path(raw["output_dir"])
        out_dir.mkdir(parents=True)
        config = out_dir / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["--config", str(config)])
        outputs = {name: _file_bytes(out_dir / name) for name in OUTPUT_FILES}
        outputs["exit_code"] = str(code).encode()
        outputs["stdout"] = stdout.getvalue().encode()
        for name, data in outputs.items():
            digest = "absent" if data is None else hashlib.sha256(data).hexdigest()
            yield label, name, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="run seeds (default: 0)")
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout to run (default: the one holding this script)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from grushinlab import cli
    from grushinlab.config import COMMANDS

    workloads = _load_workloads(root)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            out_root = Path(tmp) / f"seed{seed}"
            for line in digests(cli, _jobs(workloads, COMMANDS, seed, out_root)):
                print(seed, *line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
