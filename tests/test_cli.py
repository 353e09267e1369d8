import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from test_coefficients import degenerate_matrix
from test_fdsolver import tiny_pivot_system

import grushinlab
from grushinlab import cli, experiments, reports
from grushinlab.cli import main, run
from grushinlab.config import COMMANDS, ConfigError, RunConfig, parse_config
from grushinlab.fdsolver import MAX_NODES, solve
from grushinlab.reports import atomic_write_lines, canonical_json, content_hash, jsonable, write_csv

# Every command at small sizes, for the rerun test.
SMALL_BOX = {"box_lo": [1, 0], "box_hi": [3, 2]}
SMALL_RAW = {
    "verify-closed-forms": {"experiment": {"points": 50}},
    "audit-ellipticity": {"experiment": {"points": 200}},
    "solve": {"grid": {**SMALL_BOX, "counts": [9, 9]}},
    "boundary-growth": {"grid": {**SMALL_BOX, "counts": [17, 17]}},
    "holder-modulus": {"grid": {**SMALL_BOX, "counts": [9, 9]}, "experiment": {"levels": 2, "pairs": 300}},
    "oscillation-decay": {"experiment": {"counts": [33, 13], "radii": [1, 4]}},
    "supersolution-scan": {"experiment": {"samples_per_shell": 50}},
    "decay-fit": {"experiment": {"counts": [129, 17], "outer_radius": 16}},
    "global-bound": {"experiment": {"counts": [129, 17], "outer_radius": 16}},
}


BUDGET = f"must give at most MAX_NODES = {MAX_NODES} nodes"


def _non_null_defaults(command):
    """Dotted path of every value of the default config that is not null,
    except ``command`` and the ``grid`` keys (declared with a null default)."""
    effective = parse_config(raw={"command": command}).effective
    paths = []
    for block, value in effective.items():
        if block in ("command", "grid"):
            continue
        if not isinstance(value, dict):
            value = {None: value}
        paths += [block if key is None else f"{block}.{key}" for key, v in value.items() if v is not None]
    return paths


def _numeric_paths(command):
    """(dotted path, value) of every number and number list of the small
    config of ``command``."""
    effective = parse_config(raw={"command": command, **SMALL_RAW[command]}).effective
    paths = []
    for block, value in effective.items():
        if not isinstance(value, dict):
            value = {None: value}
        paths += [
            (block if key is None else f"{block}.{key}", v)
            for key, v in value.items()
            if isinstance(v, (int, float, list)) and not isinstance(v, bool)
        ]
    return paths


def _with_value(raw, dotted, value):
    """Copy of ``raw`` with the dotted path set to ``value``."""
    raw = json.loads(json.dumps(raw))
    *parents, key = dotted.split(".")
    node = raw
    for part in parents:
        node = node.setdefault(part, {})
    node[key] = value
    return raw


class TestParseConfig:
    def test_minimal_file_gets_defaults(self):
        cfg = parse_config(raw={"command": "verify-closed-forms", "params": {"n": 2, "alpha": 1}})
        assert cfg.params.n == 2 and cfg.params.alpha == 1.0
        assert cfg.field.family == "identity"
        assert cfg.seed == 0
        assert cfg.experiment["points"] == 1000

    def test_negative_alpha_reports_path(self):
        with pytest.raises(ConfigError, match=r"params\.alpha: must be >= 0"):
            parse_config(raw={"command": "verify-closed-forms", "params": {"alpha": -1}})

    @pytest.mark.parametrize("command", ["verify-closed-forms", "solve"])
    @pytest.mark.parametrize("dotted", ["seed", "field.seed"])
    def test_negative_seeds_are_config_errors(self, tmp_path, capsys, command, dotted):
        out = tmp_path / "o"
        cfgfile = tmp_path / "seed.json"
        cfgfile.write_text(json.dumps(_with_value({"command": command, "output_dir": str(out)}, dotted, -1)))
        assert main(["--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"configuration error: {dotted}: must be >= 0\n"
        assert not out.exists()

    def test_unknown_keys_are_errors(self):
        with pytest.raises(ConfigError, match="bogus: unknown key"):
            parse_config(raw={"command": "solve", "bogus": 1})
        with pytest.raises(ConfigError, match="^tolerances: unknown key$"):
            parse_config(raw={"command": "solve", "tolerances": {"solver_tol": 1e-10}})
        with pytest.raises(ConfigError, match=r"experiment\.rho: unknown key"):
            parse_config(raw={"command": "decay-fit", "experiment": {"rho": 0.5}})
        for command in COMMANDS:
            with pytest.raises(ConfigError, match=r"experiment\.bogus: unknown key"):
                parse_config(raw={"command": command, "experiment": {"bogus": 1}})

    @pytest.mark.parametrize("command", COMMANDS)
    def test_null_is_an_error_where_the_default_is_not_null(self, tmp_path, command, capsys):
        paths = _non_null_defaults(command)
        assert {"params.alpha", "seed"} <= set(paths)
        for dotted in paths:
            raw = _with_value({"command": command}, dotted, None)
            with pytest.raises(ConfigError, match=rf"^{re.escape(dotted)}: must be "):
                parse_config(raw=raw)
            cfgfile = tmp_path / "null.json"
            cfgfile.write_text(json.dumps(raw))
            assert main(["--config", str(cfgfile)]) == 2
            assert f"configuration error: {dotted}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_finite_numbers_are_errors(self, tmp_path, command, capsys):
        paths = _numeric_paths(command)
        assert {"params.alpha", "params.n"} <= {p for p, _ in paths}
        cfgfile = tmp_path / "non-finite.json"
        for dotted, value in paths:
            for bad in (math.nan, math.inf, -math.inf):
                if isinstance(value, list):
                    where, message, bad_value = f"{dotted}[0]", "must be finite", [bad, *value[1:]]
                else:
                    where, message, bad_value = dotted, "must be finite", bad
                raw = _with_value({"command": command, **SMALL_RAW[command]}, dotted, bad_value)
                with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: {message}$"):
                    parse_config(raw=raw)
                cfgfile.write_text(json.dumps(raw))  # NaN, Infinity, -Infinity
                assert main(["--config", str(cfgfile)]) == 2
                assert f"configuration error: {where}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, dotted, value, where",
        [
            ("verify-closed-forms", "params.alpha", 10**400, "params.alpha"),
            ("oscillation-decay", "experiment.radii", [1, 10**400], "experiment.radii[1]"),
            ("verify-closed-forms", "seed", 10**400, "seed"),
        ],
        ids=["alpha", "radius", "seed"],
    )
    def test_integer_beyond_float_range_is_an_error(self, tmp_path, capsys, command, dotted, value, where):
        raw = _with_value({"command": command}, dotted, value)
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: must be finite$"):
            parse_config(raw=raw)
        cfgfile = tmp_path / "huge.json"
        cfgfile.write_text(json.dumps(raw))
        assert main(["--config", str(cfgfile)]) == 2
        assert f"configuration error: {where}: must be finite\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--command", "verify-closed-forms", "--alpha", "nan"], "params.alpha: must be finite"),
            (["--command", "verify-closed-forms", "--alpha", "inf"], "params.alpha: must be finite"),
        ],
        ids=["alpha-nan", "alpha-inf"],
    )
    def test_non_finite_flags_are_errors(self, tmp_path, capsys, flags, message):
        assert main([*flags, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("oscillation-decay", "radii", [0, 4], r"experiment\.radii\[0\]: must be > 0"),
            ("oscillation-decay", "radii", [], r"experiment\.radii: must not be empty"),
        ],
        ids=["zero-radius", "no-radii"],
    )
    def test_zero_or_empty_radii_are_config_errors(self, tmp_path, capsys, command, key, value, message):
        raw = {"command": command, "experiment": {key: value}}
        with pytest.raises(ConfigError, match=message):
            parse_config(raw=raw)
        cfgfile = tmp_path / "radii.json"
        cfgfile.write_text(json.dumps(raw))
        assert main(["--config", str(cfgfile)]) == 2
        assert re.search("configuration error: " + message, capsys.readouterr().err)

    def test_type_mismatch_reports_path(self):
        with pytest.raises(ConfigError, match=r"params\.n: must be an integer"):
            parse_config(raw={"command": "solve", "params": {"n": 2.5}})
        with pytest.raises(ConfigError, match=r"grid\.counts\[1\]: must be an integer"):
            parse_config(
                raw={
                    "command": "solve",
                    "grid": {"box_lo": [0, 0], "box_hi": [1, 1], "counts": [5, 5.5]},
                }
            )

    @pytest.mark.parametrize(
        "box, message",
        [
            ({"box_lo": [1, 0.5], "box_hi": [3, 2]}, "grid.box_lo[1]: must be 0 (the box sits on the flat face)"),
            ({"box_lo": [3, 0], "box_hi": [1, 2]}, "grid.box_hi[0]: must be > box_lo[0]"),
        ],
        ids=["off-the-flat-face", "swapped"],
    )
    def test_grid_box_errors_name_the_path(self, tmp_path, capsys, box, message):
        out = tmp_path / "o"
        cfgfile = tmp_path / "box.json"
        cfgfile.write_text(json.dumps({"command": "solve", "grid": {**box, "counts": [9, 9]}, "output_dir": str(out)}))
        assert main(["--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"configuration error: {message}\n"

    def test_flag_override_beats_file(self):
        cfg = parse_config(
            raw={"command": "verify-closed-forms", "params": {"alpha": 1.0}},
            overrides={"params.alpha": 2.0},
        )
        assert cfg.params.alpha == 2.0

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="command: required"):
            parse_config(raw={})

    def test_grid_rejected_for_domainless_commands(self):
        with pytest.raises(ConfigError, match="grid: not accepted"):
            parse_config(
                raw={
                    "command": "decay-fit",
                    "grid": {"box_lo": [0, 0], "box_hi": [1, 1], "counts": [5, 5]},
                }
            )

    @pytest.mark.parametrize(
        "command, n, key, value, message",
        [
            ("verify-closed-forms", 800, "points", None, "experiment.points: must be <= 28"),
            ("audit-ellipticity", 800, "points", None, "experiment.points: must be <= 28"),
            ("verify-closed-forms", 200, "points", None, "experiment.points: must be <= 450"),
            ("supersolution-scan", 4, "samples_per_shell", 2_000_000, "experiment.samples_per_shell: must be <= 1125000"),
            (
                "audit-ellipticity",
                1342,
                "points",
                10,
                "params.n: must be <= 1341, so that experiment.points can hold 10 points of n x n matrices",
            ),
        ],
    )
    def test_pointwise_sample_is_bounded_by_its_matrices(self, command, n, key, value, message):
        # points * n^2 <= 9 * MAX_NODES: the jets and the audit hold an n x n matrix per point.
        experiment = {} if value is None else {key: value}
        with pytest.raises(ConfigError) as refused:
            parse_config(raw={"command": command, "params": {"n": n}, "experiment": experiment})
        assert str(refused.value) == message
        hi = min(MAX_NODES, 9 * MAX_NODES // n**2)
        if hi >= 10 and command == "verify-closed-forms":  # the bound passes; the jets' range refuses n
            with pytest.raises(ConfigError, match=r"^params\.n: must be <= 72, the largest that keeps the kernel jet finite "):
                parse_config(raw={"command": command, "params": {"n": n}, "experiment": {key: hi}})
        elif hi >= 10:  # the bound itself is accepted
            cfg = parse_config(raw={"command": command, "params": {"n": n}, "experiment": {key: hi}})
            assert cfg.experiment[key] == hi
        # At n <= 3 the bound is MAX_NODES, as before.
        for small in (2, 3):
            parse_config(raw={"command": command, "params": {"n": small}, "experiment": {key: MAX_NODES}})

    def test_counts_parse_in_linear_time(self):
        # The node count stops multiplying once it passes MAX_NODES, so a long counts list costs
        # only its item checks (the whole product of 200000 counts took seconds, quadratically).
        seconds = {}
        for n in (100_000, 200_000):
            start = time.perf_counter()
            with pytest.raises(ConfigError, match=re.escape(f"grid.counts: {BUDGET}")):
                parse_config(raw={"command": "solve", "params": {"n": n}})
            seconds[n] = time.perf_counter() - start
        assert seconds[200_000] < 3.0 or seconds[200_000] / seconds[100_000] < 3.0

    def test_effective_config_echoes_defaults(self):
        cfg = parse_config(raw={"command": "supersolution-scan"})
        assert cfg.effective["experiment"] == {"samples_per_shell": 300}
        assert set(cfg.effective) == {"command", "params", "field", "experiment", "seed"}

    def test_settable_values_are_pinned(self):
        # Every value a config can set: the keys each command's effective
        # config echoes (an experiment key once per command), and output_dir,
        # which the echo leaves out.  A new knob has to be added here.
        settable = {"output_dir"}
        for command in COMMANDS:
            effective = parse_config(raw={"command": command}).effective
            for block, value in effective.items():
                if not isinstance(value, dict):
                    settable.add(block)
                    continue
                prefix = f"{command}: {block}" if block == "experiment" else block
                settable.update(f"{prefix}.{key}" for key in value)
            assert parse_config(raw=effective).effective == effective  # the echo is a config
        assert settable == {
            "command",
            "output_dir",
            "seed",
            "params.n",
            "params.alpha",
            "field.family",
            "field.s",
            "field.amplitude",
            "field.seed",
            "grid.box_lo",
            "grid.box_hi",
            "grid.counts",
            "verify-closed-forms: experiment.points",
            "audit-ellipticity: experiment.points",
            "holder-modulus: experiment.levels",
            "holder-modulus: experiment.pairs",
            "oscillation-decay: experiment.radii",
            "oscillation-decay: experiment.counts",
            "supersolution-scan: experiment.samples_per_shell",
            "decay-fit: experiment.outer_radius",
            "decay-fit: experiment.counts",
            "global-bound: experiment.outer_radius",
            "global-bound: experiment.counts",
        }
        assert len(settable) == 23

    def test_default_input_hashes_are_pinned(self):
        # The echo of every default config, hashed; a change here changes the
        # input_hash of every report written with that command's defaults.
        expected = {
            "audit-ellipticity": "2deb2e0e8f46f302af20f3a9a7dc61fe1b8eeaa4",
            "boundary-growth": "f125c9f11b6e2595fedc2f6f9705bfad3b0d0186",
            "decay-fit": "980b73d43e9215e84b53aca3f0463c9b63e3c33a",
            "global-bound": "2d984d7b27b6ce1385d6e1b2a9268c8f9cd7cfe0",
            "holder-modulus": "40d5ef2795ceceeb0413a88f52262e8a76542f65",
            "oscillation-decay": "ace2e29e6509c19dbd8971bbe7f7934d06b4526b",
            "solve": "e339a94988d0798fc179f5207923528c7a76278d",
            "supersolution-scan": "5db8c2a516681b006e2f44df1b4aa681ed261c6a",
            "verify-closed-forms": "b6e3a8a18277542a5ffb4a43dbb42a12cdab820a",
        }
        got = {c: content_hash(parse_config(raw={"command": c}).effective) for c in COMMANDS}
        assert got == expected


def per_row_csv(header, columns, sep=","):
    """The text of ``write_csv`` made one cell at a time: ``'%.17g' %`` per
    float, true/false per bool, ``str`` per integer and string."""

    def text(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return "%.17g" % value if isinstance(value, float) else "%s" % value

    rows = zip(*(np.asarray(c).tolist() for c in columns))
    lines = ([sep.join(header)] if header is not None else []) + [sep.join(map(text, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


# The doubles nearest the powers of ten over the whole exponent range and the
# doubles either side of them, where floor(log10|x|) can miss; the largest
# subnormal, the smallest normal and the largest double.
POWERS = np.array([float(f"1e{k}") for k in range(-307, 309)])
EXTREMES = [5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
EDGE_FLOATS = np.concatenate([POWERS, np.nextafter(POWERS, 0), np.nextafter(POWERS, np.inf), EXTREMES])


def cell_text(cells):
    """The text of padded byte rows."""
    return [bytes(row).replace(b"\xff", b"").decode() for row in cells]


def exact_ties(rng, count):
    """Doubles x = M 2**-e (M odd) whose exact decimal value has 18
    significant digits, the last a 5: halfway between two 17-digit texts.
    Such ties exist only for 2 <= e <= 25, where 10**17 <= M 5**e < 10**18."""
    ties = []
    for e in range(2, 26):
        lo, hi = -(-(10**17) // 5**e), min((10**18 - 1) // 5**e, 2**53 - 1)
        ms = {int(m) | 1 for m in rng.integers(lo, hi + 1, count)} | {lo | 1}
        ties += [math.ldexp(m, -e) for m in sorted(ms) if lo <= m <= hi]
    return np.array(ties)


class TestReports:
    def test_canonical_json_is_stable(self):
        a = canonical_json({"b": 1.5, "a": [1, 2.25]})
        b = canonical_json({"a": [1, 2.25], "b": 1.5})
        assert a == b

    def test_content_hash_changes_with_payload(self):
        h1 = content_hash({"x": 1})
        h2 = content_hash({"x": 2})
        assert h1 != h2 and len(h1) == 40

    def test_jsonable_handles_numpy_and_dataclasses(self):
        from grushinlab.experiments import FitResult

        fit = FitResult(1.0, 2.0, 3.0, 9, (0.1, 1.0))
        payload = jsonable({"fit": fit, "arr": np.array([1.0, 2.0]), "f": np.float64(3.5)})
        assert payload["fit"]["sample_count"] == 9
        assert payload["arr"] == [1.0, 2.0]
        assert payload["f"] == 3.5

    def test_csv_17_digit_round_trip(self, tmp_path):
        path = tmp_path / "x.csv"
        value = 0.1 + 0.2  # not exactly representable story
        write_csv(path, ["v"], [[value]])
        text = path.read_text()
        assert float(text.splitlines()[1]) == value

    def test_csv_text_per_column_kind(self, tmp_path):
        floats = [0.1 + 0.2, np.inf, -np.inf, np.nan, -0.0, 1e17, 2.0]
        bools = np.array([True, False, True, True, False, False, True])
        ints = np.arange(7) - 3
        names = ["a", "b c", "d", "e", "f", "g", "9x9"]
        path = tmp_path / "kinds.csv"
        write_csv(path, ["f", "b", "i", "s"], [floats, bools, ints, names])
        assert path.read_text() == (
            "f,b,i,s\n"
            "0.30000000000000004,true,-3,a\n"
            "inf,false,-2,b c\n"
            "-inf,true,-1,d\n"
            "nan,true,0,e\n"
            "-0,false,1,f\n"
            "1e+17,false,2,g\n"
            "2,true,3,9x9\n"
        )
        write_csv(path, None, [np.array([1.5, -0.0]), (7, 8)], sep=" ")
        assert path.read_text() == "1.5 7\n-0 8\n"

    def test_csv_blocks_give_one_block_text(self, tmp_path, monkeypatch):
        block = reports._BLOCK_ROWS
        rows = 2 * block + 3
        rng = np.random.default_rng(3)
        floats = rng.normal(size=rows)
        floats[block - 1 : block + 1] = [-0.0, np.nan]  # the rows either side of a block edge
        names = np.repeat(["p", "q r"], [block, rows - block])
        columns = [floats, rng.uniform(size=rows) < 0.5, np.arange(rows), names]
        header = ["f", "b", "i", "s"]
        write_csv(tmp_path / "blocks.csv", header, columns)
        monkeypatch.setattr(reports, "_BLOCK_ROWS", rows)
        write_csv(tmp_path / "one.csv", header, columns)
        text = (tmp_path / "blocks.csv").read_bytes()
        assert text == (tmp_path / "one.csv").read_bytes()
        lines = text.decode().splitlines()
        assert len(lines) == rows + 1
        assert lines[block].startswith("-0,") and lines[block].endswith(f",{block - 1},p")
        assert lines[block + 1].startswith("nan,") and lines[block + 1].endswith(f",{block},q r")

    @pytest.mark.parametrize("offset", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)], ids=str)
    def test_csv_matches_per_row_formatting(self, tmp_path, monkeypatch, offset):
        # (blocks, extra rows): 0, 1, B - 1, B, B + 1 and 2B + 3 rows for B = 4.
        monkeypatch.setattr(reports, "_BLOCK_ROWS", 4)
        rows = 4 * offset[0] + offset[1]
        rng = np.random.default_rng(rows)
        floats = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
        window = rng.normal(size=rows) * 10.0 ** rng.uniform(-5, 17, size=rows)  # mostly the exact kernel
        singles = window.astype(np.float32)
        bools = rng.uniform(size=rows) < 0.5
        ints = rng.integers(-(2**62), 2**62, size=rows)
        names = np.array([f"{k}% of %s" for k in range(rows)], dtype=str)
        columns = [floats, window, singles, bools, ints, names]
        header = ["f", "w", "f32", "b", "i", "s"]
        write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_text() == per_row_csv(header, columns)

    @given(st.lists(st.tuples(st.floats(width=64), st.floats(width=32)), max_size=40))
    def test_csv_floats_match_percent_g(self, tmp_path_factory, pairs):
        # st.floats draws nan, +-inf, +-0 and subnormals along with the rest.
        columns = [np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs], dtype=np.float32)]
        path = tmp_path_factory.mktemp("floats") / "t.csv"
        write_csv(path, None, columns)
        assert path.read_text() == per_row_csv(None, columns)

    def test_csv_float_edges_match_percent_g(self, tmp_path):
        ties = np.arange(2**18 + 1) / 2**18
        for values in (np.concatenate([EDGE_FLOATS, -EDGE_FLOATS]), ties, ties * 1e-3, ties * 1e15):
            write_csv(tmp_path / "t.csv", ["x"], [values])
            assert (tmp_path / "t.csv").read_text() == per_row_csv(["x"], [values])

    @pytest.mark.parametrize("error", [-1e-9, 1e-9], ids=["low", "high"])
    def test_csv_survives_a_log10_that_misses(self, tmp_path, monkeypatch, error):
        # A log10 that is not correctly rounded can put the exponent guess one
        # off either side of a power of ten, anywhere in the exponent range;
        # those cells must still come out as '%.17g' writes them.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
        values = np.concatenate([EDGE_FLOATS, -EDGE_FLOATS])
        write_csv(tmp_path / "t.csv", ["x"], [values])
        assert (tmp_path / "t.csv").read_text() == per_row_csv(["x"], [values])

    def test_exact_window_needs_no_percent(self, monkeypatch):
        # The vectorised conversion makes every cell but subnormals and the
        # products too near a tie to decide: +-0, nan, +-inf, a sample of every
        # decade of normal doubles, and the powers of ten with their neighbours.
        rng = np.random.default_rng(0)
        with np.errstate(over="ignore"):
            spread = (rng.uniform(1, 10, (16, POWERS.size)) * POWERS).ravel()
        spread = spread[np.isfinite(spread)]
        specials = [0.0, np.nan, -np.nan, np.inf]
        values = np.concatenate([POWERS, np.nextafter(POWERS, 0), np.nextafter(POWERS, np.inf), spread, specials])
        values = np.concatenate([values, -values])
        monkeypatch.setattr(reports, "_padded", lambda strings: pytest.fail(f"'%' formatted {strings}"))
        assert cell_text(reports._float_cells(values)) == ["%.17g" % v for v in values.tolist()]
        with pytest.raises(pytest.fail.Exception, match="'%' formatted"):
            reports._float_cells(np.array([0.5, 2.2250738585072009e-308]))  # a subnormal

    def test_csv_exponent_range_ties_match_percent_g(self, tmp_path, monkeypatch):
        # Exact ties are rounded half to even where 10**(16 - X) is a double
        # (X >= -6, fixed notation and e-05, e-06) and sent to '%' where the
        # power is a double-double (X = -7, -8).  The doubles nearest to the
        # ties (2D + 1) 10**k / 2 of 17-digit D over the whole exponent range
        # are no ties, but sit near them.
        rng = np.random.default_rng(5)
        ties = exact_ties(rng, 40)
        exponent = np.floor(np.log10(ties))
        assert set(exponent.tolist()) == set(range(-8, 16))
        odd = (2 * rng.integers(10**16, 10**17, 4 * 614) + 1).tolist()
        powers = np.repeat(np.arange(-323, 291), 4).tolist()
        near = np.array([float(Fraction(t, 2) * Fraction(10) ** k) for t, k in zip(odd, powers)])
        values = np.concatenate([ties, near, -ties])
        write_csv(tmp_path / "t.csv", ["x"], [values])
        assert (tmp_path / "t.csv").read_text() == per_row_csv(["x"], [values])
        formatted, padded = [], reports._padded
        monkeypatch.setattr(reports, "_padded", lambda strings: formatted.extend(strings) or padded(strings))
        reports._float_cells(ties)
        assert sorted(float(t) for t in formatted) == sorted(ties[exponent < -6].tolist())

    @pytest.mark.parametrize("guard", [0.25, 0.5])
    def test_csv_undecided_products_go_to_percent(self, tmp_path, monkeypatch, guard):
        # A wider guard sends more of the double-double products to '%'; the text does not change.
        monkeypatch.setattr(reports, "_GUARD", guard)
        rng = np.random.default_rng(7)
        values = rng.uniform(1, 10, 20_000) * POWERS[rng.integers(0, POWERS.size - 1, 20_000)]
        columns = [values, np.concatenate([EDGE_FLOATS, -values[: -EDGE_FLOATS.size]])]
        write_csv(tmp_path / "t.csv", None, columns)
        assert (tmp_path / "t.csv").read_text() == per_row_csv(None, columns)

    def test_csv_matches_percent_g_on_a_million_doubles(self, tmp_path):
        # Every bit pattern is as likely: exponents over the whole range,
        # subnormals, nan and inf included.
        rng = np.random.default_rng(11)
        values = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
        write_csv(tmp_path / "t.csv", None, [values])
        expected = "".join("%.17g\n" % v for v in values.tolist())
        assert (tmp_path / "t.csv").read_text() == expected

    def test_formatting_blocks_takes_no_page_faults(self):
        # In a fresh process, where glibc has freed no large block yet, a block
        # of float cells reuses the buffers of the blocks before it, so after
        # the first it touches no new pages.
        resource = pytest.importorskip("resource")
        del resource
        probe = (
            "import resource, numpy as np\n"
            "from grushinlab import reports\n"
            "n = reports._BLOCK_ROWS\n"
            "x = (np.arange(n) + 0.5) * 1.37\n"
            "scratch = reports._Scratch(n)\n"
            "out = np.empty((n, reports._FLOAT_WIDTH), np.uint8)\n"
            "faults = []\n"
            "for _ in range(12):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    reports._float_cells(x, out, scratch)\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(sorted(faults[1:])[5])\n"
        )
        src = str(Path(grushinlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) <= 4

    def test_csv_integer_extremes_strings_and_separators(self, tmp_path):
        columns = [
            np.array([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max]),
            np.array([0, 1, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
            np.array([-128, -1, 0, 1, 127], dtype=np.int8),
            ["é", "Grüße ✓", "\0", "a\0b", "\0x"],
            np.array([0.1, -2.5, 0.0, np.nan, 1e300]),
        ]
        header = ["i64", "u64", "i8", "s", "f"]
        for sep in (",", " | ", "→", "\t\t"):
            write_csv(tmp_path / "t.csv", header, columns, sep=sep)
            assert (tmp_path / "t.csv").read_text(encoding="utf-8") == per_row_csv(header, columns, sep)

    def test_csv_memory_is_bounded_by_a_block(self, tmp_path):
        # An audit-size table: 4 float columns and 1 bool column of 100,000 rows.
        rng = np.random.default_rng(0)
        columns = [rng.normal(size=100_000) for _ in range(4)] + [rng.uniform(size=100_000) < 0.5]
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", list("abcde"), columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize(
        "header, columns, match",
        [
            (["a", "b"], [[1.0, 2.0], [1.0]], "unequal lengths"),
            (["a"], [np.zeros((2, 2))], "1-d"),
            (["a"], [np.array([1.0, None], dtype=object)], "dtype"),
            (["a", "b"], [[1.0], [2.0], [3.0]], "header"),
        ],
        ids=["unequal-lengths", "two-dimensional", "object", "header-mismatch"],
    )
    def test_csv_rejects_bad_columns(self, tmp_path, header, columns, match):
        with pytest.raises(ValueError, match=match):
            write_csv(tmp_path / "bad.csv", header, columns)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("old\n")

        def lines():
            yield b"new\n"
            raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError, match="disk gone"):
            atomic_write_lines(path, lines())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_outputs_get_the_mode_open_would_give(self, tmp_path, umask):
        out = tmp_path / "solve"
        cfg = parse_config(raw={"command": "solve", **SMALL_RAW["solve"], "output_dir": str(out)})
        old = os.umask(umask)
        try:
            assert run(cfg) == 0
            (tmp_path / "opened").open("w").close()
        finally:
            os.umask(old)
        expected = (tmp_path / "opened").stat().st_mode & 0o777
        assert expected == 0o666 & ~umask
        for name in ("report.json", "samples.csv", "solution.txt"):
            assert (out / name).stat().st_mode & 0o777 == expected, name


class TestMain:
    def test_verify_closed_forms_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "--command",
                "verify-closed-forms",
                "--out",
                str(out),
                "--alpha",
                "1.0",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["command"] == "verify-closed-forms"
        assert set(report) == {"command", "config", "input_hash", "passed", "result", "summary"}
        assert (out / "samples.csv").exists()
        assert "PASS" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "verify-closed-forms", "params": {"alpha": -3}}))
        assert main(["--config", str(bad)]) == 2
        assert main(["--config", str(tmp_path / "missing.json")]) == 2
        # The solver tolerance is a constant: neither a config key nor a flag sets it.
        out = str(tmp_path / "out")
        raw = {"command": "solve", "tolerances": {"solver_tol": 1e-10}, "output_dir": out}
        bad.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["--config", str(bad)]) == 2
        assert capsys.readouterr().err == "configuration error: tolerances: unknown key\n"
        with pytest.raises(SystemExit) as exited:
            main(["--command", "solve", "--tol", "1e-10", "--out", out])
        assert exited.value.code == 2
        assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, dotted, value, message",
        [
            ("verify-closed-forms", "experiment.points", 10**15, "configuration error: experiment.points: must be <= 2000000"),
            ("audit-ellipticity", "experiment.points", 10**15, "configuration error: experiment.points: must be <= 2000000"),
            ("holder-modulus", "experiment.pairs", 10**15, "configuration error: experiment.pairs: must be <= 2000000"),
            (
                "supersolution-scan",
                "experiment.samples_per_shell",
                10**15,
                "configuration error: experiment.samples_per_shell: must be <= 2000000",
            ),
            (
                "holder-modulus",
                "experiment.levels",
                20000,  # its finest grid has a node count of over 6000 digits
                "configuration error: experiment.levels: must be <= 6",
            ),
            (
                "decay-fit",
                "experiment.outer_radius",
                1e200,
                "configuration error: experiment.outer_radius: 1e+200^(1 + alpha), the box half-width, overflows",
            ),
            (
                "global-bound",
                "experiment.outer_radius",
                1e200,
                "configuration error: experiment.outer_radius: 1e+200^(1 + alpha), the box half-width, overflows",
            ),
            ("solve", "grid", {**SMALL_BOX, "counts": [1415, 1415]}, f"configuration error: grid.counts: {BUDGET}"),
            ("solve", "params.n", 14, f"configuration error: grid.counts: {BUDGET}"),
            ("solve", "params.n", 3000, f"configuration error: grid.counts: {BUDGET}"),  # 4500 digits
            ("oscillation-decay", "experiment.counts", [3000, 3000], f"configuration error: experiment.counts: {BUDGET}"),
            ("decay-fit", "params.n", 3, f"configuration error: experiment.counts: {BUDGET}"),
            ("global-bound", "params.n", 3, f"configuration error: experiment.counts: {BUDGET}"),
            # The far corner of the box of E_{4R}+ has ellipsoid level 4nR.
            ("oscillation-decay", "experiment.radii", [1e308], "configuration error: experiment.radii[0]: must be <= 1.12356e+307"),
        ],
        ids=[
            "verify-closed-forms",
            "audit-ellipticity",
            "holder-modulus",
            "supersolution-scan",
            "holder-modulus-levels",
            "decay-fit",
            "global-bound",
            "solve-grid-counts",
            "solve-n-14",
            "solve-n-3000",
            "oscillation-decay-counts",
            "decay-fit-n-3",
            "global-bound-n-3",
            "oscillation-decay-radius",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_impossible_sizes_exit_2(self, tmp_path, capsys, command, dotted, value, message):
        out = tmp_path / "o"
        raw = _with_value({"command": command, "output_dir": str(out)}, dotted, value)
        with pytest.raises(ConfigError) as refused:  # parse_config alone refuses, naming the key
            parse_config(raw=raw)
        assert f"configuration error: {refused.value}" == message
        cfgfile = tmp_path / "huge.json"
        cfgfile.write_text(json.dumps(raw))
        assert main(["--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == message + "\n"
        if value == 10**15:  # the budget itself is accepted
            parse_config(raw=_with_value({"command": command}, dotted, MAX_NODES))

    @pytest.mark.parametrize(
        "raw, counts",
        [
            ({"command": "decay-fit", "experiment": {"outer_radius": 1e150}}, [1025, 65]),
            ({"command": "decay-fit", "params": {"alpha": 0}, "experiment": {"outer_radius": 1e200}}, [1025, 65]),
            ({"command": "global-bound", "params": {"alpha": 0}, "experiment": {"outer_radius": 1e200}}, [2049, 81]),
            ({"command": "global-bound", "params": {"alpha": 0}, "experiment": {"outer_radius": 9e307}}, [2049, 81]),
        ],
        ids=["decay-fit", "decay-fit-alpha-0", "global-bound-alpha-0", "global-bound-width"],
    )
    def test_overflowing_grid_spacing_is_refused_by_name(self, tmp_path, capsys, monkeypatch, raw, counts):
        # The half-width is a float, but twice the square of a grid spacing is not.
        monkeypatch.setattr(experiments, "assemble", None)  # refused before any assembly
        out = tmp_path / "o"
        cfgfile = tmp_path / "wide.json"
        cfgfile.write_text(json.dumps({**raw, "output_dir": str(out)}))
        assert main(["--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        outer = raw["experiment"]["outer_radius"]
        assert captured.err == (
            f"configuration error: experiment.outer_radius: {outer:g} spaces the grid of counts {counts} "
            "so widely that the squared spacing overflows\n"
        )

    def test_global_bound_refusal_names_no_config_key(self, tmp_path, capsys):
        # At alpha = 2, w > 1 on the inner box, whose radius is a constant of the code.
        out = tmp_path / "o"
        assert main(["--command", "global-bound", "--alpha", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: supersolution w - w^{1+rho} is not positive on the inner boundary")
        assert f"inner box of gauge radius {experiments.BOUND_INNER_RADIUS:g} reaches w = " in captured.err
        paths = _non_null_defaults("global-bound") + ["experiment.inner_radius"]
        names = {*paths, *(path.rpartition(".")[2] for path in paths)}
        assert not [name for name in names if re.search(rf"\b{re.escape(name)}\b", captured.err)]

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 7.1 PiB"), OverflowError("math range error")])
    def test_memory_and_arithmetic_errors_exit_2(self, tmp_path, monkeypatch, capsys, error):
        def runner(cfg):
            raise error

        monkeypatch.setitem(cli._RUNNERS, "verify-closed-forms", runner)
        out = tmp_path / "o"
        assert main(["--command", "verify-closed-forms", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"runtime error: {error}\n"

    def test_over_budget_holder_ladder_is_refused_before_any_solve(self, tmp_path, monkeypatch, capsys):
        # Level 7 of the default 33x33 grid is 2049x2049: six levels fit, the last does not.
        monkeypatch.setattr(experiments, "assemble", None)
        monkeypatch.setattr(experiments, "solve", None)
        out = tmp_path / "o"
        cfgfile = tmp_path / "levels.json"
        cfgfile.write_text(json.dumps({"command": "holder-modulus", "experiment": {"levels": 7}, "output_dir": str(out)}))
        assert main(["--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "configuration error: experiment.levels: must be <= 6\n"

    @pytest.mark.parametrize(
        "args, key",
        [
            (["--command", "solve", "--alpha", "102"], "params.alpha"),  # the first alpha whose weights overflow
            (["--command", "solve", "--alpha", "120"], "params.alpha"),
            (["--command", "solve", "--alpha", "220"], "params.alpha"),  # the first normal spacing is 0
            (["--command", "boundary-growth", "--alpha", "120"], "params.alpha"),
            (["--command", "holder-modulus", "--alpha", "100"], "params.alpha"),  # at the finest level, 129 nodes
            (["--command", "oscillation-decay", "--alpha", "120"], "params.alpha"),
            (["--command", "decay-fit", "--alpha", "100"], "params.alpha"),
            (["--command", "global-bound", "--alpha", "100"], "params.alpha"),
            ({"command": "oscillation-decay", "experiment": {"radii": [4, 1e-320]}}, "experiment.radii[1]"),
            ({"command": "solve", "grid": {"box_lo": [0, 0], "box_hi": [1e-160, 2], "counts": [33, 33]}}, "grid.box_hi"),
        ],
        ids=[
            "solve-102",
            "solve-120",
            "solve-220",
            "boundary-growth",
            "holder-modulus",
            "oscillation-decay",
            "decay-fit",
            "global-bound",
            "oscillation-decay-radius",
            "solve-narrow-box",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_stencil_weights_are_refused_by_key(self, tmp_path, capsys, monkeypatch, args, key):
        # The smallest spacing h of every axis keeps the stencil weight 2/h^2 finite.
        monkeypatch.setattr(experiments, "assemble", None)  # refused before any assembly
        out = tmp_path / "o"
        if isinstance(args, dict):
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps(args))
            args = ["--config", str(cfgfile)]
        assert main([*args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert re.fullmatch(
            rf"configuration error: {re.escape(key)}: axis \d of \d+ nodes has smallest spacing \S+ "
            r"< MIN_SPACING = 1.05e-154, below which the stencil weight 2/h\^2 overflows\n",
            captured.err,
        )

    @pytest.mark.filterwarnings("error")
    def test_last_alpha_whose_weights_are_finite_solves(self, tmp_path):
        assert main(["--command", "solve", "--alpha", "101", "--out", str(tmp_path / "o")]) == 0

    def test_overflowing_coefficient_weight_is_refused_by_assemble(self, tmp_path):
        # The tangential spacing 1.1e-154 keeps 2/h^2 finite, but not 2 x_n^2/h^2 at x_n near 2.
        src = str(Path(grushinlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = tmp_path / "o"
        grid = {"box_lo": [1e-140, 0], "box_hi": [1e-140 + 32 * 1.1e-154, 2], "counts": [33, 33]}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"command": "solve", "grid": grid, "output_dir": str(out)}))
        probe = "import sys; from grushinlab.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", probe, "--config", str(cfgfile)],
            env={**os.environ, "PYTHONPATH": path},
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2 and done.stdout == "" and not out.exists()
        assert done.stderr == (
            "runtime error: axis 0 has a stencil weight 2 C/(h_- h_+) that overflows: "
            "coefficient C up to 4 at spacing 1.1e-154\n"
        )

    @pytest.mark.parametrize("alpha", [30, 60])
    def test_global_bound_refuses_an_infinite_barrier(self, tmp_path, alpha):
        # At large alpha the kernel's base underflows to 0 at the lowest interface
        # nodes, so w = inf and the barrier w - w^(1+rho) is nan there.
        src = str(Path(grushinlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = tmp_path / "o"
        probe = "import sys; from grushinlab.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", probe, "--command", "global-bound"]
            + ["--alpha", str(alpha), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path},
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2 and done.stdout == "" and not out.exists()
        assert done.stderr == (
            "error: supersolution w - w^{1+rho} is not positive on the inner boundary: w must be < 1 there, "
            "and the inner box of gauge radius 2 reaches w = inf\n"
        )

    def test_superlu_system_error_exits_2(self, tmp_path, monkeypatch, capsys):
        # SuperLU reports "gstrf was called with invalid arguments" as a SystemError,
        # which no handler of main catches; the solver turns it into a runtime error.
        import scipy.sparse.linalg

        def refuse(*args, **kwargs):
            raise SystemError("gstrf was called with invalid arguments")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        out = tmp_path / "o"
        field = {"family": "decaying-perturbation", "s": 2.0, "amplitude": 0.3}
        raw = {"command": "oscillation-decay", **SMALL_RAW["oscillation-decay"], "field": field}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(raw))
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            "runtime error: SuperLU could not factor the free block of the 33x13 grid (193 free unknowns): "
            "gstrf was called with invalid arguments\n"
        )

    def test_cli_import_leaves_out_the_thread_pool(self, tmp_path):
        # concurrent.futures (and logging with it) loads only when the audit runs threads.
        src = str(Path(grushinlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        probe = "import sys, grushinlab.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            cwd=tmp_path,
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout == "False\n"

    @pytest.mark.parametrize("alpha, node", [(30, "9.5e-66"), (60, "5.77e-129")])
    def test_holder_grid_whose_heights_collapse_is_refused(self, tmp_path, alpha, node):
        # At large alpha y_n^{1+alpha} underflows at the lowest nodes: two distinct
        # nodes would be 0 apart, and the quotient 0/0 would make the verdict nan.
        src = str(Path(grushinlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = tmp_path / "o"
        probe = "import sys; from grushinlab.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", probe, "--command", "holder-modulus"]
            + ["--alpha", str(alpha), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path},
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2 and done.stdout == "" and not out.exists()
        assert done.stderr == (
            "error: the Hoelder quotient of two distinct nodes of the 129x129 grid divides by 0: the nodes "
            f"x_n = 0 and {node} have the same y_n^(1+alpha) = 0 at params.alpha = {alpha}; "
            "lower params.alpha or grid.counts\n"
        )

    def test_holder_levels_default_to_what_fits(self, tmp_path, capsys):
        # 33^3 nodes refined twice is 129^3, over the budget: the default of 3 levels drops to 2.
        out = tmp_path / "o"
        assert main(["--command", "holder-modulus", "--n", "3", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["config"]["experiment"]["levels"] == 2
        assert parse_config(raw={"command": "holder-modulus"}).experiment["levels"] == 3
        # An explicit level count keeps its bound.
        with pytest.raises(ConfigError, match=r"^experiment.levels: must be <= 2$"):
            parse_config(raw={"command": "holder-modulus", "params": {"n": 3}, "experiment": {"levels": 3}})

    @pytest.mark.parametrize(
        "raw, advice, followed",
        [
            (
                {"command": "oscillation-decay", "experiment": {"counts": [3, 3]}},
                "no grid nodes fall on the measured middle shell; raise experiment.counts",
                [{"counts": [9, 5]}],
            ),
            (
                {"command": "global-bound", "experiment": {"counts": [5, 5]}},
                "inner box is invisible to the grid (gauge radius 2); "
                "raise experiment.counts or lower experiment.outer_radius",
                [{"counts": [5, 9]}, {"counts": [5, 5], "outer_radius": 3}],
            ),
        ],
        ids=["oscillation-decay", "global-bound"],
    )
    def test_refusal_advice_gets_past_the_refusal(self, tmp_path, capsys, raw, advice, followed):
        out = tmp_path / "o"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(raw))
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {advice}\n"
        for change in followed:
            cfgfile.write_text(json.dumps({**raw, "experiment": {**raw["experiment"], **change}}))
            main(["--config", str(cfgfile), "--out", str(out)])
            assert advice not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--n", "74"], "params.n: must be <= 72, the largest that keeps the kernel jet finite at gauge 0.01 at params.alpha = 1"),
            (["--n", "48", "--alpha", "2"], "params.n: must be <= 47, the largest that keeps the kernel jet finite at gauge 0.01 at params.alpha = 2"),
            (["--alpha", "30"], "params.alpha: no params.n keeps the kernel jet finite at gauge 0.01 at params.alpha = 30"),
        ],
        ids=["n-74", "alpha-2", "alpha-30"],
    )
    def test_overflowing_jets_are_refused_by_key(self, tmp_path, capsys, monkeypatch, args, message):
        # gamma (gamma + 1) d^-(Q + 4(1 + alpha)) at d = 0.01 leaves the float range: refused before any jet.
        monkeypatch.setattr(cli, "kernel_jet", None)
        out = tmp_path / "o"
        assert main(["--command", "verify-closed-forms", *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("alpha, n", [(1, 72), (2, 47)])
    def test_largest_admitted_n_passes(self, tmp_path, alpha, n):
        # RuntimeWarnings fail the test (pyproject.toml); 1000 points reach gauges near 0.01.
        for seed in range(4):
            out = tmp_path / str(seed)
            args = ["--command", "verify-closed-forms", "--alpha", str(alpha), "--n", str(n), "--seed", str(seed)]
            assert main([*args, "--out", str(out)]) == 0

    def test_gauge_function_at_q_2_is_log_d(self, tmp_path):
        # At n = 2, alpha = 0 the harmonic gauge power is 0, and d^0 = 1 would pass any operator.
        for alpha, checked in ((0.0, "log d"), (1.0, "d^(2-Q)")):
            out = tmp_path / str(alpha)
            assert main(["--command", "verify-closed-forms", "--alpha", str(alpha), "--out", str(out)]) == 0
            result = json.loads((out / "report.json").read_text())["result"]
            assert result["gauge_function"] == checked
            [gauge] = [v for v in result["verdicts"] if v["name"] == "max_gauge_power_residual"]
            assert 0.0 < gauge["value"] < 1e-12 and gauge["passed"] is True

    def test_scan_hypothesis_violation_exits_2(self, tmp_path, monkeypatch, capsys):
        # rho = 1 breaks 0 < rho < min(s/(n-1), 1) = 1.
        monkeypatch.setattr(cli, "RHO", 1.0)
        out = tmp_path / "o"
        assert main(["--command", "supersolution-scan", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: rho must lie in (0, min(s/(n-1), 1)) = (0, 1.0)")

    def test_unconverged_solve_exits_2(self, tmp_path, monkeypatch, capsys):
        # The runner's system is swapped for one whose refinement stagnates.
        monkeypatch.setattr(experiments, "assemble", lambda *args, **kwargs: tiny_pivot_system())
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"command": "oscillation-decay", **SMALL_RAW["oscillation-decay"]}))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "did not converge" in captured.err
        assert not (out / "report.json").exists()

    def test_non_monotone_solve_exits_2(self, tmp_path, capsys):
        # The perturbed field breaks the mesh-ratio condition near the flat
        # face; solve refuses it with the error boundary-growth gives.
        field = {"family": "decaying-perturbation", "s": 2.0, "amplitude": 0.3}
        errors = []
        for command in ("solve", "boundary-growth"):
            cfgfile = tmp_path / f"{command}.json"
            out = tmp_path / command
            cfgfile.write_text(json.dumps({"command": command, **SMALL_RAW["solve"], "field": field}))
            assert main(["--config", str(cfgfile), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            errors.append(captured.err)
        assert errors[0].startswith("error: discrete maximum principle fails on this grid/field: ")
        assert errors[0] == errors[1]

    def test_failed_criterion_exits_1_but_writes_report(self, tmp_path, monkeypatch, capsys):
        # The small run's quotients settle to 0.431%, past a gate of 0.1%.
        monkeypatch.setattr(cli, "STABILIZATION", 1e-3)
        out = tmp_path / "fail"
        raw = {"command": "holder-modulus", **SMALL_RAW["holder-modulus"], "output_dir": str(out)}
        assert run(parse_config(raw=raw)) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        [change] = report["result"]["verdicts"]
        assert f"{change['value']:.3%}" == "0.431%"
        assert capsys.readouterr().out.endswith(f"final_change {change['value']:.6g} in [0, 0.001] -> FAIL\n")
        assert change["name"] == "final_change" and change["passed"] is False
        assert change["value"] == report["result"]["final_change"] > change["gate"][1]
        assert (out / "samples.csv").exists() and (out / "telemetry.json").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_passed_is_every_verdict_and_sets_the_exit_code(self, tmp_path, command):
        out = tmp_path / command
        code = run(parse_config(raw={"command": command, **SMALL_RAW[command], "output_dir": str(out)}))
        report = json.loads((out / "report.json").read_text())
        verdicts = report["result"]["verdicts"]
        assert verdicts and all(set(v) == {"name", "value", "gate", "control", "passed"} for v in verdicts)
        assert report["passed"] == all(v["passed"] for v in verdicts)
        assert code == (0 if report["passed"] else 1)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_summary_is_written_from_the_verdicts(self, tmp_path, capsys, command):
        out = tmp_path / command
        code = run(parse_config(raw={"command": command, **SMALL_RAW[command], "output_dir": str(out)}))
        report = json.loads((out / "report.json").read_text())
        summary = report["summary"]
        assert capsys.readouterr().out == summary + (" -> PASS\n" if code == 0 else " -> FAIL\n")
        assert summary.startswith(f"{command}: ")
        clauses = summary[len(command) + 2 :].split("; ")
        assert len(clauses) == len(report["result"]["verdicts"])
        for clause, v in zip(clauses, report["result"]["verdicts"]):
            value = "none" if v["value"] is None else f"{v['value']:.6g}"
            control = "" if v["control"] is None else f", control {v['control']:.6g}"
            assert clause.startswith(f"{v['name']} {value} in [") and clause.endswith(f"]{control}")

    @pytest.mark.parametrize(
        "command, gate, value, failing",
        [
            ("verify-closed-forms", "RESIDUAL_TOL", 0.0, {"max_kernel_residual", "max_gauge_power_residual"}),
            ("audit-ellipticity", None, None, {"violations"}),
            ("solve", "SOLVER_TOL", 0.0, {"backward_error"}),
            ("boundary-growth", "GROWTH_BAND", (1.05, 1.1), {"ray_exponent"}),
            ("holder-modulus", "STABILIZATION", 1e-3, {"final_change"}),
            ("oscillation-decay", "CROSS_SCALE_TOL", -1.0, {"cross_scale_spread"}),
            ("supersolution-scan", "SCAN_SHELLS", (1.0,), {"R0"}),
            ("decay-fit", "FIT_BAND", 0.0, {"slope_error"}),
            ("global-bound", "MARGIN_TOLERANCE", -1.0, {"worst_margin"}),
        ],
        ids=[
            "verify-closed-forms",
            "audit-ellipticity",
            "solve",
            "boundary-growth",
            "holder-modulus",
            "oscillation-decay",
            "supersolution-scan",
            "decay-fit",
            "global-bound",
        ],
    )
    def test_every_verdict_can_fail(self, tmp_path, monkeypatch, capsys, command, gate, value, failing):
        # Each gate is moved past what the small run measures (a spread and a margin of 0 included),
        # so exactly its verdicts fail; the audit's gate [0, 0] is fixed, so its field lies instead.
        if gate is None:
            honest = RunConfig.build_field
            liar = lambda cfg: dataclasses.replace(honest(cfg), lambda_const=2.0, Lambda_const=2.0)
            monkeypatch.setattr(RunConfig, "build_field", liar)
        else:
            monkeypatch.setattr(cli, gate, value)
        out = tmp_path / "o"
        code = run(parse_config(raw={"command": command, **SMALL_RAW[command], "output_dir": str(out)}))
        captured = capsys.readouterr()
        assert code == 1 and captured.out.endswith(" -> FAIL\n")
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False and (out / "samples.csv").exists()
        assert {v["name"] for v in report["result"]["verdicts"] if not v["passed"]} == failing
        # stderr names exactly the failed verdicts, in their order.
        names = [v["name"] for v in report["result"]["verdicts"] if v["name"] in failing]
        assert captured.err == f"{command}: failed verdicts {', '.join(names)}; see {out / 'report.json'}\n"

    def test_global_bound_control_inside_the_gate_fails(self, tmp_path, monkeypatch):
        # A tolerance of 1 takes the halved-C control (-0.024 here) into the gate: the check no longer bites.
        monkeypatch.setattr(cli, "MARGIN_TOLERANCE", 1.0)
        out = tmp_path / "o"
        raw = {"command": "global-bound", **SMALL_RAW["global-bound"], "output_dir": str(out)}
        assert run(parse_config(raw=raw)) == 1
        report = json.loads((out / "report.json").read_text())
        [bound] = report["result"]["verdicts"]
        assert report["passed"] is False and bound["passed"] is False
        assert bound["gate"] == [-1.0, "inf"]
        assert -1.0 <= bound["control"] < -1e-6 and -1.0 <= bound["value"]

    @pytest.mark.parametrize(
        "command, dotted, value",
        [
            ("oscillation-decay", "experiment.data_scale", 1.0),
            ("decay-fit", "experiment.grading", 2.0),
            ("decay-fit", "experiment.ray_points", 13),
            ("global-bound", "experiment.grading", 2.0),
            ("global-bound", "experiment.inner_slope", 1.0),
            ("solve", "grid.grading", 2.0),
            ("boundary-growth", "grid.grading", 2.0),
            ("holder-modulus", "grid.grading", 2.0),
            ("solve", "experiment.bc", "kernel"),
            ("boundary-growth", "experiment.bc", "kernel"),
            ("holder-modulus", "experiment.bc", "kernel"),
        ],
        ids=[
            "data_scale",
            "decay-fit-grading",
            "ray_points",
            "global-bound-grading",
            "inner_slope",
            "solve-grid-grading",
            "boundary-growth-grid-grading",
            "holder-modulus-grid-grading",
            "solve-bc",
            "boundary-growth-bc",
            "holder-modulus-bc",
        ],
    )
    def test_removed_experiment_keys_are_unknown(self, tmp_path, capsys, command, dotted, value):
        # Each was set by no workload; a config that sets one, even to its old default, is refused.
        # The data are the kernel and the grading is 1 + alpha; no result key records either.
        raw = {"command": command, **SMALL_RAW[command], "output_dir": str(tmp_path / "o")}
        cfgfile = tmp_path / "removed.json"
        cfgfile.write_text(json.dumps(_with_value(raw, dotted, value)))
        assert main(["--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == f"configuration error: {dotted}: unknown key\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, dotted, value, result_key, recorded",
        [
            # Verdict gates, recorded as the gate of the named verdict.  The Hoelder change must stay
            # below 0.25, so its closed gate ends at the largest float below 0.25.
            ("verify-closed-forms", "experiment.residual_tol", 1e-9, "verdict:max_kernel_residual", [0, 1e-9]),
            ("boundary-growth", "experiment.growth_band", [0.95, 1.05], "verdict:ray_exponent", [0.95, 1.05]),
            ("holder-modulus", "experiment.stabilization", 0.25, "verdict:final_change", [0, 0.25 - 2**-55]),
            ("oscillation-decay", "experiment.cross_scale_tol", 0.2, "verdict:cross_scale_spread", ["-inf", 0.2]),
            ("decay-fit", "experiment.fit_band", 0.15, "verdict:slope_error", [0.0, 0.15 * 3.0]),
            ("global-bound", "experiment.margin_tol", 1e-6, "verdict:worst_margin", [-1e-6, "inf"]),
            # Measurement windows.
            ("boundary-growth", "experiment.ray_height_fraction", 0.25, "ray_height_fraction", 0.25),
            ("oscillation-decay", "experiment.shell_band", 0.15, "shell_band", 0.15),
            ("decay-fit", "experiment.ray_lo_factor", 2.5, "ray_window", [2.5, 0.35]),
            ("decay-fit", "experiment.ray_hi_factor", 0.35, "ray_window", [2.5, 0.35]),
            ("verify-closed-forms", "experiment.gauge_lo", 0.01, "gauge_range", [0.01, 100.0]),
            ("verify-closed-forms", "experiment.gauge_hi", 100.0, "gauge_range", [0.01, 100.0]),
            # Problem constants.
            ("audit-ellipticity", "experiment.epsilon0", 0.5, "epsilon0", 0.5),
            ("audit-ellipticity", "experiment.tau", 0.75, "tau", 0.75),
            ("holder-modulus", "experiment.exponent", 0.5, "exponent", 0.5),
            ("supersolution-scan", "experiment.rho", 0.5, "rho", 0.5),
            ("supersolution-scan", "experiment.s", 2.0, "s", 2.0),
            ("supersolution-scan", "experiment.amplitude", 1.0, "amplitude", 1.0),
            ("supersolution-scan", "experiment.shells", [1, 2], "shells_tested", [2.0**k for k in range(11)]),
            ("decay-fit", "experiment.inner_radius", 1.0, "inner_radius", 1.0),
            ("global-bound", "experiment.rho", 0.5, "rho", 0.5),
            ("global-bound", "experiment.inner_radius", 2.0, "inner_radius", 2.0),
        ],
        ids=[
            "residual_tol",
            "growth_band",
            "stabilization",
            "cross_scale_tol",
            "fit_band",
            "margin_tol",
            "ray_height_fraction",
            "shell_band",
            "ray_lo_factor",
            "ray_hi_factor",
            "gauge_lo",
            "gauge_hi",
            "epsilon0",
            "tau",
            "exponent",
            "scan-rho",
            "s",
            "amplitude",
            "shells",
            "decay-fit-inner_radius",
            "global-bound-rho",
            "global-bound-inner_radius",
        ],
    )
    def test_verdict_gates_are_constants_recorded_in_the_result(
        self, tmp_path, capsys, command, dotted, value, result_key, recorded
    ):
        # A config cannot set a gate, a window or a problem constant, even to its own value ...
        raw = {"command": command, **SMALL_RAW[command], "output_dir": str(tmp_path / "o")}
        cfgfile = tmp_path / "gate.json"
        cfgfile.write_text(json.dumps(_with_value(raw, dotted, value)))
        assert main(["--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == f"configuration error: {dotted}: unknown key\n"
        assert not (tmp_path / "o").exists()
        # ... and the report names the constant its verdict applied.
        cfgfile.write_text(json.dumps(raw))
        assert main(["--config", str(cfgfile)]) == 0
        result = json.loads((tmp_path / "o" / "report.json").read_text())["result"]
        kind, _, key = result_key.rpartition(":")
        gates = {v["name"]: v["gate"] for v in result["verdicts"]}
        assert (gates if kind == "verdict" else result)[key] == recorded

    @pytest.mark.parametrize(
        "command, outer, lowest",
        [("decay-fit", 1, "7.14286"), ("decay-fit", 7, "7.14286"), ("global-bound", 2, "2")],
        ids=["decay-fit-1", "decay-fit-7", "global-bound-2"],
    )
    def test_outer_radius_must_pass_the_inner_radius(
        self, tmp_path, capsys, monkeypatch, command, outer, lowest
    ):
        # global-bound needs room outside its inner box; decay-fit a ray from 2.5 inner to 0.35 outer.
        monkeypatch.setattr(experiments, "assemble", None)  # refused before any assembly
        out = tmp_path / "o"
        cfgfile = tmp_path / "radius.json"
        raw = {"command": command, **SMALL_RAW[command], "output_dir": str(out)}
        cfgfile.write_text(json.dumps(_with_value(raw, "experiment.outer_radius", outer)))
        assert main(["--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"configuration error: experiment.outer_radius: must be > {lowest}\n"

    def test_decay_fit_runs_just_past_its_lowest_outer_radius(self, tmp_path):
        out = tmp_path / "o"
        raw = {"command": "decay-fit", **SMALL_RAW["decay-fit"], "output_dir": str(out)}
        assert run(parse_config(raw=_with_value(raw, "experiment.outer_radius", 8))) == 0
        assert json.loads((out / "report.json").read_text())["result"]["ray_gauges"][-1] == pytest.approx(2.8)

    @pytest.mark.parametrize("command", ["solve", "boundary-growth", "holder-modulus"])
    def test_kernel_data_at_the_origin_are_refused(self, tmp_path, capsys, command):
        # The box puts a node at the origin, where the kernel is singular (NaN).
        out = tmp_path / "o"
        cfgfile = tmp_path / "origin.json"
        grid = {"box_lo": [-1, 0], "box_hi": [1, 2], "counts": [9, 9]}
        cfgfile.write_text(json.dumps({"command": command, "grid": grid, "output_dir": str(out)}))
        assert main(["--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            "runtime error: non-finite boundary data at 1 Dirichlet node(s); the first is node 36 at (0, 0)\n"
        )

    def test_benchmark_headline_values_are_finite(self, tmp_path, monkeypatch):
        # The benchmark's reference check reads these result keys; a rename shows here first.
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for command in COMMANDS:
            out = tmp_path / command
            raw = {"command": command, **SMALL_RAW[command], "output_dir": str(out)}
            assert run(parse_config(raw=raw)) == 0
            values = workloads.headline(json.loads((out / "report.json").read_text()))
            assert values and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                for v in values.values()
            ), (command, values)

    def test_readme_configs_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.DOTALL)]
        configs = [b for b in blocks if isinstance(b, dict) and "command" in b]
        assert len(configs) >= 2
        for raw in configs:
            assert parse_config(raw=raw).command == raw["command"]

    def test_audit_command_runs_both_families(self, tmp_path):
        for family in ("identity", "decaying-perturbation"):
            out = tmp_path / family
            cfg = parse_config(
                raw={
                    "command": "audit-ellipticity",
                    "field": {"family": family, "amplitude": 0.3, "s": 2.0, "seed": 7},
                    "experiment": {"points": 300},
                    "output_dir": str(out),
                }
            )
            assert run(cfg) == 0

    def test_audit_csv_matches_recomputed_spectrum(self, tmp_path):
        out = tmp_path / "audit"
        cfg = parse_config(
            raw={
                "command": "audit-ellipticity",
                "params": {"n": 3, "alpha": 1.5},
                "field": {"family": "decaying-perturbation", "amplitude": 0.3, "s": 2.0, "seed": 3},
                "experiment": {"points": 400},
                "seed": 3,
                "output_dir": str(out),
            }
        )
        assert run(cfg) == 0
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "x_1,x_2,x_n,lambda_min,lambda_max,on_strip"
        cells = [line.split(",") for line in lines[1:]]
        assert len(cells) == 400
        data = np.array([[float(c) for c in row[:-1]] for row in cells])
        xp, xn = data[:, :2], data[:, 2]
        eigs = np.linalg.eigvalsh(degenerate_matrix(cfg.build_field(), xp, xn, cfg.params))
        np.testing.assert_array_equal(data[:, 3], eigs[:, 0])
        np.testing.assert_array_equal(data[:, 4], eigs[:, -1])
        on_strip = xn >= cli.EPSILON0
        assert [row[-1] for row in cells] == ["true" if s else "false" for s in on_strip]
        assert 0 < np.count_nonzero(on_strip) < 400
        report = json.loads((out / "report.json").read_text())
        assert set(report["result"]) == {
            "lower_bound_formula",
            "lower_bound_numeric",
            "upper_bound_numeric",
            "epsilon0",
            "tau",
            "violations",
            "strip_count",
            "total_count",
            "verdicts",
        }
        assert report["result"]["verdicts"] == [
            {"name": "violations", "value": 0, "gate": [0, 0], "control": None, "passed": True}
        ]
        assert report["result"]["total_count"] == 400
        assert report["result"]["lower_bound_numeric"] == float(np.min(eigs[on_strip, 0]))

    def test_pointwise_commands_never_load_scipy(self, tmp_path):
        # A fresh interpreter imports the CLI, parses every default config and
        # runs the commands of the given configs, then lists the SciPy modules
        # it holds.  The pointwise commands never assemble, and the default
        # solver commands take the fast solver, which needs numpy alone.  The
        # same probe after oscillation-decay, whose annulus takes SuperLU,
        # shows that it can fail.
        src = str(Path(grushinlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        probe = (
            "import json, sys\n"
            "from grushinlab.cli import main\n"
            "from grushinlab.config import COMMANDS, parse_config\n"
            "for command in COMMANDS:\n"
            "    parse_config(raw={'command': command})\n"
            "codes = [main(['--config', cfg]) for cfg in sys.argv[1:]]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
        )

        def probe_after(commands, small=True):
            configs = []
            for command in commands:
                cfgfile = tmp_path / f"{command}.json"
                sizes = SMALL_RAW[command] if small else {}
                raw = {"command": command, **sizes, "output_dir": str(tmp_path / command)}
                cfgfile.write_text(json.dumps(raw))
                configs.append(str(cfgfile))
            done = subprocess.run(
                [sys.executable, "-c", probe, *configs],
                env={**os.environ, "PYTHONPATH": path},
                cwd=tmp_path,
                capture_output=True,
                text=True,
                check=True,
            )
            codes, modules = json.loads(done.stdout.splitlines()[-1])
            assert codes == [0] * len(commands)
            return modules

        pointwise = ["verify-closed-forms", "audit-ellipticity", "supersolution-scan"]
        assert probe_after(pointwise) == []
        solvers = ["boundary-growth", "holder-modulus", "decay-fit", "global-bound", "solve"]
        assert parse_config(raw={"command": "solve"}).field.family == "identity"
        assert probe_after(solvers, small=False) == []
        assert "scipy.sparse.linalg" in probe_after(pointwise + ["oscillation-decay"])

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs for a threaded BLAS")
    @pytest.mark.parametrize(
        "raw",
        [
            # Vectors of 33,153 nodes, above the size at which OpenBLAS
            # splits a dot product across threads, which changes its rounding.
            {"command": "boundary-growth", "grid": {**SMALL_BOX, "counts": [257, 129]}},
            # The default decay-fit: 11 obstacle nodes, so the fast solver
            # builds its capacitance matrix by a matrix product and solves
            # with it by LAPACK.
            {"command": "decay-fit"},
        ],
        ids=["boundary-growth", "decay-fit"],
    )
    def test_report_is_independent_of_blas_threads(self, tmp_path, raw):
        src = str(Path(grushinlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        probe = "import sys; from grushinlab.cli import main; sys.exit(main(sys.argv[1:]))"
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            cfgfile = tmp_path / f"threads{threads}.json"
            cfgfile.write_text(json.dumps({**raw, "output_dir": str(out)}))
            subprocess.run(
                [sys.executable, "-c", probe, "--config", str(cfgfile)],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                cwd=tmp_path,
                capture_output=True,
                check=True,
            )
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_solve_writes_grid_function(self, tmp_path):
        out = tmp_path / "solve"
        cfg = parse_config(
            raw={
                "command": "solve",
                "grid": {"box_lo": [1, 0], "box_hi": [3, 2], "counts": [9, 9]},
                "output_dir": str(out),
            }
        )
        assert run(cfg) == 0
        lines = (out / "solution.txt").read_text().splitlines()
        assert len(lines) == 81
        assert len(lines[0].split()) == 3

    @pytest.mark.parametrize("command", COMMANDS)
    def test_reruns_are_byte_identical(self, tmp_path, command):
        # Two runs into two output directories; the timings alone go to telemetry.json.
        outputs = ["report.json", "samples.csv"] + (["solution.txt"] if command == "solve" else [])
        blobs = []
        for name in ("a", "b/nested"):
            out = tmp_path / name
            run(parse_config(raw={"command": command, **SMALL_RAW[command], "seed": 5, "output_dir": str(out)}))
            assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["telemetry.json"])
            blobs.append([(out / file).read_bytes() for file in outputs])
        assert blobs[0] == blobs[1]
        assert b"wall_time" not in blobs[0][0]

    @pytest.mark.parametrize(
        "command, count",
        [
            *((c, 0) for c in ("verify-closed-forms", "audit-ellipticity", "supersolution-scan")),
            *((c, 1) for c in ("solve", "boundary-growth", "decay-fit", "global-bound")),
            *((c, 3) for c in ("holder-modulus", "oscillation-decay")),
        ],
    )
    def test_telemetry_times_the_run_and_each_solve(self, tmp_path, command, count):
        # The small configs at the default counts of levels and radii, three each.
        raw = json.loads(json.dumps(SMALL_RAW[command]))
        for key in ("levels", "radii"):
            raw.get("experiment", {}).pop(key, None)
        out = tmp_path / command
        run(parse_config(raw={"command": command, **raw, "output_dir": str(out)}))
        telemetry = json.loads((out / "telemetry.json").read_text())
        assert set(telemetry) == {"command", "wall_time_s", "solve_wall_time_s", "solve_fill"}
        assert telemetry["command"] == command
        solves = telemetry["solve_wall_time_s"]
        assert len(solves) == len(telemetry["solve_fill"]) == count
        assert all(t > 0 for t in solves) and telemetry["wall_time_s"] > sum(solves)
        # SuperLU's stored factor entries; no factors on the fast path.
        lu = command == "oscillation-decay"
        assert all(fill > 0 if lu else fill == 0 for fill in telemetry["solve_fill"])

    def test_solve_report_keys_match_across_commands(self, tmp_path):
        keys = []
        for command in ("solve", "boundary-growth"):
            out = tmp_path / command
            run(parse_config(raw={"command": command, **SMALL_RAW[command], "output_dir": str(out)}))
            keys.append(set(json.loads((out / "report.json").read_text())["result"]["solve"]))
        assert keys[0] == keys[1]
        assert keys[0] == {
            "iterations",
            "final_residual",
            "dmp_ok",
            "converged",
            "method",
            "backward_error",
            "backward_error_history",
        }

    def test_solve_summary_quotes_the_converged_quantity(self, tmp_path):
        # ``converged`` tests the backward error, so the summary quotes it and its gate.
        out = tmp_path / "solve"
        run(parse_config(raw={"command": "solve", **SMALL_RAW["solve"], "output_dir": str(out)}))
        report = json.loads((out / "report.json").read_text())
        omega = report["result"]["solve"]["backward_error"]
        assert report["summary"] == f"solve: backward_error {omega:.6g} in [0, 1e-10]"
        # A DMP failure is refused before the solve, so the report carries no DMP count.
        assert "dmp_ok" not in report["summary"]
        assert set(report["result"]) == {"solve", "max_abs_u", "verdicts"}
        [converged] = report["result"]["verdicts"]
        assert converged["name"] == "backward_error" and converged["value"] == omega
        assert converged["gate"] == [0.0, 1e-10]
        assert converged["passed"] is report["result"]["solve"]["converged"] is True

    @pytest.mark.parametrize("command, key", [("holder-modulus", "levels"), ("oscillation-decay", "runs")])
    def test_every_solve_report_is_kept(self, tmp_path, monkeypatch, command, key):
        made = []

        def record(*args, **kwargs):
            result = solve(*args, **kwargs)
            made.append(result[1])
            return result

        monkeypatch.setattr(experiments, "solve", record)
        out = tmp_path / command
        run(parse_config(raw={"command": command, **SMALL_RAW[command], "output_dir": str(out)}))
        kept = [entry["solve"] for entry in json.loads((out / "report.json").read_text())["result"][key]]
        assert len(kept) == len(made) == 2
        for got, expected in zip(kept, made):
            assert got == jsonable(expected)

    def test_boundary_growth_command(self, tmp_path):
        out = tmp_path / "bg"
        cfg = parse_config(
            raw={
                "command": "boundary-growth",
                "grid": {"box_lo": [1, 0], "box_hi": [3, 2], "counts": [33, 33]},
                "output_dir": str(out),
            }
        )
        assert run(cfg) == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.95 <= report["result"]["fit"]["exponent"] <= 1.05

    def test_holder_command(self, tmp_path):
        out = tmp_path / "holder"
        cfg = parse_config(
            raw={
                "command": "holder-modulus",
                "grid": {"box_lo": [1, 0], "box_hi": [3, 2], "counts": [17, 17]},
                "experiment": {"levels": 2, "pairs": 5000},
                "output_dir": str(out),
            }
        )
        assert run(cfg) == 0
        rows = (out / "samples.csv").read_text().splitlines()
        assert rows[0] == "grid,max_quotient,pairs"
        assert len(rows) == 3

    def test_global_bound_command(self, tmp_path):
        out = tmp_path / "gb"
        cfg = parse_config(
            raw={
                "command": "global-bound",
                "experiment": {"outer_radius": 32.0, "counts": [1025, 81]},
                "output_dir": str(out),
            }
        )
        assert run(cfg) == 0
        result = json.loads((out / "report.json").read_text())["result"]
        [bound] = result["verdicts"]
        assert bound["name"] == "worst_margin" and bound["passed"] is True
        assert bound["control"] == result["falsification_margin"] < -cli.MARGIN_TOLERANCE
        assert "interface_samples" not in result

    def test_three_dimensional_decay_fit(self, tmp_path):
        # An exterior 3-D problem SuperLU cannot factor in memory at this size.
        out = tmp_path / "decay3"
        cfg = parse_config(
            raw={
                "command": "decay-fit",
                "params": {"n": 3, "alpha": 1},
                "experiment": {"counts": [65, 65, 33], "outer_radius": 16},
                "output_dir": str(out),
            }
        )
        assert run(cfg) == 0
        result = json.loads((out / "report.json").read_text())["result"]
        assert result["solve"]["method"] == "fast-diagonalization"
        assert result["solve"]["converged"]
        assert result["fit"]["exponent"] == pytest.approx(-5.0, rel=0.15)

    def test_oscillation_command_identity_spread(self, tmp_path):
        out = tmp_path / "osc"
        cfg = parse_config(
            raw={
                "command": "oscillation-decay",
                "experiment": {"radii": [1.0, 4.0], "counts": [65, 33]},
                "output_dir": str(out),
            }
        )
        assert run(cfg) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["cross_scale_spread"] <= 0.2
        assert "note" not in report["result"]
