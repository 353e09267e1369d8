"""SHA-256 digests of every output of the default commands and the benchmark jobs.

For each seed given, runs the nine commands at their default configs, every
job of ``perfbench/workloads.py`` (``WORKLOADS``, seeded as the benchmark
seeds them) and the fixed configs of ``EXTRA`` (3-D grids and spectra,
alpha = 2 and 30, and refusals of the solver commands) through
``grushinlab.cli.main`` in this process, and prints one line per output::

    <seed> <job> <output> <sha256>

The outputs are ``report.json``, ``samples.csv``, ``solution.txt``, the
exit code, stdout and stderr, each digested as written, stderr with the
job's output directory replaced by ``<out>``; a file a run did not write
prints ``absent`` in place of the digest.  ``telemetry.json``, the run's
timings, is no output here.  A job that raises a Python warning stops the
tool with an ``AssertionError``.  Two checkouts print the same lines exactly
when those outputs are byte-identical, so the diff of two listings is the
comparison::

    python3 tools/output_digests.py --seeds 0 1 2 3 > new.txt
    python3 tools/output_digests.py --root ../parent --seeds 0 1 2 3 > old.txt
    diff old.txt new.txt

``--root`` names the checkout whose ``src/`` and ``perfbench/workloads.py``
are run (default: the one holding this file).  ``--outputs DIR`` keeps every
job's outputs under ``DIR/seed<seed>/<job>/`` (stdout, stderr and the exit
code as the files ``stdout``, ``stderr`` and ``exit_code``); otherwise
nothing is written outside a temporary directory.

``--against OLD_ROOT`` runs both checkouts, each in its own process, and
for each output whose bytes differ prints one line per changed key::

    <seed> <job> <output> <key> <largest relative change> <where>

It exits 1 when any output differs and 0 when none does, so it prints
nothing and exits 0 exactly when every output is byte-identical.

The change is max |a - b| / max(|a|, |b|) over the numbers of the key,
and the numeric lines of an output come largest change first.  The keys of
``report.json`` are its leaves, named by key path without list indices;
``<where>`` is the full path.  In ``samples.csv`` a key is a column, in
``solution.txt`` a column ``col<c>``, in stdout and stderr a line ``line<i>``, and
``<where>`` is ``line:column``.  Before
the numbers come, in this order: one line per key found on one side only,
with ``removed`` or ``added`` in place of the change and the key's first
``<where>``; a ``layout text`` line when the keys both sides have do not
line up (a list or a file of another length, a string with another count
of numbers), naming the first place that differs; and a ``text`` line per
key in which anything but a number differs (a word such as PASS).
``input_hash`` is compared as plain text: its hex digits are no numbers.
An output whose bytes differ while every key matches (``1.0`` against
``1.00``) prints one line ``bytes text file``.  The leaves at the places
both sides have are compared in every case::

    python3 tools/output_digests.py --against ../parent --seeds 0 1 2 3
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

OUTPUT_FILES = ("report.json", "samples.csv", "solution.txt")
OUTPUTS = OUTPUT_FILES + ("exit_code", "stdout", "stderr")
PERTURBED = {"family": "decaying-perturbation"}
BOX_3D = {"box_lo": [1, 1, 0], "box_hi": [3, 3, 2]}
# (name, config) of the cheap non-default runs: the solver commands in 3-D, decay-fit at alpha = 2,
# the perturbed field on each box command, which the DMP check refuses, the audit's 3-D spectra
# on the perturbed field, an annulus scaling that is no power of 2, holder-modulus's refusal
# of nodes zero apart, and a 3-D Hoelder sample whose strata of 33,333 pairs each span four full
# blocks of quotients and a partial one.
EXTRA = (
    ("solve-3d", {"command": "solve", "params": {"n": 3}, "grid": {**BOX_3D, "counts": [9, 9, 9]}}),
    ("boundary-growth-3d", {"command": "boundary-growth", "params": {"n": 3}, "grid": {**BOX_3D, "counts": [9, 9, 17]}}),
    (
        "holder-modulus-3d",
        {
            "command": "holder-modulus",
            "params": {"n": 3},
            "grid": {**BOX_3D, "counts": [9, 9, 9]},
            "experiment": {"levels": 2, "pairs": 300},
        },
    ),
    (
        "holder-modulus-3d-blocks",
        {
            "command": "holder-modulus",
            "params": {"n": 3},
            "grid": {**BOX_3D, "counts": [9, 9, 9]},
            "experiment": {"levels": 2, "pairs": 100001},
        },
    ),
    ("decay-fit-alpha-2", {"command": "decay-fit", "params": {"alpha": 2}, "experiment": {"counts": [129, 17], "outer_radius": 8}}),
    ("solve-perturbed", {"command": "solve", "field": PERTURBED}),
    ("boundary-growth-perturbed", {"command": "boundary-growth", "field": PERTURBED}),
    ("holder-modulus-perturbed", {"command": "holder-modulus", "field": PERTURBED}),
    (
        "audit-ellipticity-3d-perturbed",
        {"command": "audit-ellipticity", "params": {"n": 3}, "field": PERTURBED, "experiment": {"points": 2000}},
    ),
    ("oscillation-decay-radii-1-3", {"command": "oscillation-decay", "experiment": {"radii": [1, 3], "counts": [33, 13]}}),
    ("holder-modulus-alpha-30", {"command": "holder-modulus", "params": {"alpha": 30}}),
)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _file_bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def _load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _jobs(workloads, commands, seed: int, out_root: Path) -> list[tuple[str, dict]]:
    """(label, raw config) of every default command, benchmark job and ``EXTRA`` run at ``seed``."""
    out = []
    for command in commands:
        raw = {"command": command, "seed": seed, "output_dir": str(out_root / "default" / command)}
        out.append((f"default/{command}", raw))
    for name in workloads.WORKLOADS:
        for raw in workloads.jobs(name, seed, out_root / name):
            out.append((f"{name}/{Path(raw['output_dir']).name}", raw))
    for name, base in EXTRA:
        out.append((f"extra/{name}", {**base, "seed": seed, "output_dir": str(out_root / "extra" / name)}))
    return out


def digests(cli, jobs: list[tuple[str, dict]]):
    """Run each job through ``cli.main``; yield (job, output, digest)."""
    for label, raw in jobs:
        out_dir = Path(raw["output_dir"])
        out_dir.mkdir(parents=True)
        config = out_dir / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(["--config", str(config)])
        if caught:
            raise AssertionError(f"{label} raised {caught[0].category.__name__}: {caught[0].message}")
        (out_dir / "exit_code").write_text(str(code), encoding="utf-8")
        (out_dir / "stdout").write_text(stdout.getvalue(), encoding="utf-8")
        (out_dir / "stderr").write_text(stderr.getvalue().replace(str(out_dir), "<out>"), encoding="utf-8")
        for name in OUTPUTS:
            data = _file_bytes(out_dir / name)
            digest = "absent" if data is None else hashlib.sha256(data).hexdigest()
            yield label, name, digest


def _json_leaves(obj, path: str = ""):
    """(key, where, value) of every leaf of a report: ``where`` is the key
    path, ``key`` the path without list indices.  A string leaf gives its
    numbers (``where`` ends in ``:<offset>``) and then itself with its
    numbers blanked out, except ``input_hash``, whose hex digits are no
    numbers: it is one text leaf."""
    if isinstance(obj, dict):
        for name in sorted(obj):
            yield from _json_leaves(obj[name], f"{path}.{name}" if path else name)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _json_leaves(value, f"{path}[{i}]")
    else:
        key = re.sub(r"\[\d+\]", "", path)
        if isinstance(obj, str) and key != "input_hash":
            for match in NUMBER.finditer(obj):
                yield key, f"{path}:{match.start()}", float(match.group())
            obj = NUMBER.sub("#", obj)
        yield key, path, obj


def _text_leaves(name: str, text: str):
    """(key, where, value) of every number of a text output, ``where`` its
    ``line:column`` and ``key`` its CSV header name, ``col<c>`` or
    ``line<i>``; then each line with its numbers blanked out (key ``text``)."""
    lines = text.splitlines()
    sep = "," if name.endswith(".csv") else " " if name == "solution.txt" else None
    header = lines[0].split(",") if sep == "," and lines else []
    for i, line in enumerate(lines, 1):
        for match in NUMBER.finditer(line):
            column = line.count(sep, 0, match.start()) if sep else match.start()
            key = header[column] if 1 < i and column < len(header) else f"col{column}" if sep else f"line{i}"
            yield key, f"{i}:{column}", float(match.group())
        yield "text", f"{i}", NUMBER.sub("#", line)


def _leaves(path: Path) -> list:
    data = _file_bytes(path)
    if data is None:
        return [("absent", "", None)]
    if path.name == "report.json":
        return list(_json_leaves(json.loads(data)))
    return list(_text_leaves(path.name, data.decode()))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _by_where(leaves: list) -> dict:
    """{(where, occurrence): (key, value)}: a CSV cell such as ``9x9`` gives
    two numbers with the same ``where``."""
    seen: Counter = Counter()
    out = {}
    for key, where, value in leaves:
        out[(where, seen[where])] = (key, value)
        seen[where] += 1
    return out


def changes(old: list, new: list) -> list[tuple[str, str, str]]:
    """(key, change, where) of each key found on one side only (change
    ``removed`` or ``added``), then of each shared key whose leaves differ
    between two outputs, largest relative change first; the change is
    ``text`` where anything but a number differs.  A ``layout`` line marks
    shared keys whose leaves do not line up (a list or a file of another
    length); the leaves at the places both sides have are still compared."""
    old_keys, new_keys = {k for k, _, _ in old}, {k for k, _, _ in new}
    out = []
    for label, leaves, other in (("removed", old, new_keys), ("added", new, old_keys)):
        first: dict[str, str] = {}
        for key, where, _ in leaves:
            if key not in other:
                first.setdefault(key, where)
        out += [(key, label, where) for key, where in first.items()]
    old = [leaf for leaf in old if leaf[0] in new_keys]
    new = [leaf for leaf in new if leaf[0] in old_keys]
    if [w for _, w, _ in old] != [w for _, w, _ in new]:
        where = next((a for (_, a, _), (_, b, _) in zip(old, new) if a != b), "length")
        out.append(("layout", "text", where))
    new_by_place = _by_where(new)
    worst: dict[str, tuple[float, str]] = {}
    for place, (key, a) in _by_where(old).items():
        if place not in new_by_place or a == new_by_place[place][1]:
            continue
        b, where = new_by_place[place][1], place[0]
        if _is_number(a) and _is_number(b):
            change = abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a - b) else math.inf
        else:
            change = math.nan  # sorts first below, printed as text
        if key not in worst or not change <= worst[key][0]:
            worst[key] = (change, where)
    ranked = sorted(worst.items(), key=lambda item: -math.inf if math.isnan(item[1][0]) else -item[1][0])
    return out + [(k, "text" if math.isnan(c) else f"{c:.2e}", w) for k, (c, w) in ranked]


def _run_checkout(root: Path, seeds: list[int], outputs: Path) -> dict:
    """{(seed, job, output): digest} of ``root``, its outputs kept under ``outputs``."""
    command = [sys.executable, str(Path(__file__).resolve()), "--root", str(root), "--outputs", str(outputs)]
    listing = subprocess.run(
        command + ["--seeds", *map(str, seeds)], check=True, capture_output=True, text=True
    ).stdout
    return {tuple(line.split()[:3]): line.split()[3] for line in listing.splitlines()}


def compare(old_root: Path, new_root: Path, seeds: list[int], tmp: Path):
    """Yield (seed, job, output, key, change, where) for each changed key of
    each output whose bytes differ, the largest change of an output first."""
    old = _run_checkout(old_root, seeds, tmp / "old")
    new = _run_checkout(new_root, seeds, tmp / "new")
    for label in sorted(old.keys() | new.keys(), key=lambda k: (int(k[0]), k[1], OUTPUTS.index(k[2]))):
        if old.get(label) != new.get(label):
            seed, job, name = label
            files = [side / f"seed{seed}" / job / name for side in (tmp / "old", tmp / "new")]
            for change in changes(*map(_leaves, files)) or [("bytes", "text", "file")]:
                yield (*label, *change)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="run seeds (default: 0)")
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout to run (default: the one holding this script)",
    )
    parser.add_argument("--outputs", type=Path, help="keep the outputs under this directory")
    parser.add_argument(
        "--against",
        type=Path,
        metavar="OLD_ROOT",
        help="print the largest relative change of each key of each output that differs from OLD_ROOT's; "
        "exit 1 if any output differs",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.against is not None:
        differs = False
        with tempfile.TemporaryDirectory() as tmp:
            for line in compare(args.against.resolve(), root, args.seeds, Path(tmp)):
                print(*line, flush=True)
                differs = True
        return 1 if differs else 0
    sys.path.insert(0, str(root / "src"))
    from grushinlab import cli
    from grushinlab.config import COMMANDS

    workloads = _load_workloads(root)
    with contextlib.ExitStack() as stack:
        outputs = args.outputs or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        for seed in args.seeds:
            out_root = outputs / f"seed{seed}"
            for line in digests(cli, _jobs(workloads, COMMANDS, seed, out_root)):
                print(seed, *line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
