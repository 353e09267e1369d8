import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_fdsolver import tiny_pivot_system

import grushinlab
from grushinlab import experiments, reports
from grushinlab.cli import main, run
from grushinlab.coefficients import assemble_degenerate_matrix
from grushinlab.config import COMMANDS, ConfigError, parse_config
from grushinlab.fdsolver import solve
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
    "supersolution-scan": {"experiment": {"shells": [1, 2, 4, 8], "samples_per_shell": 50}},
    "decay-fit": {"experiment": {"counts": [129, 17], "outer_radius": 16}},
    "global-bound": {"experiment": {"counts": [129, 17], "outer_radius": 16}},
}


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
        assert cfg.tolerances.solver_tol == 1e-10
        assert cfg.field.family == "identity"
        assert cfg.seed == 0
        assert cfg.experiment["points"] == 1000

    def test_negative_alpha_reports_path(self):
        with pytest.raises(ConfigError, match=r"params\.alpha: must be >= 0"):
            parse_config(raw={"command": "verify-closed-forms", "params": {"alpha": -1}})

    def test_unknown_keys_are_errors(self):
        with pytest.raises(ConfigError, match="bogus: unknown key"):
            parse_config(raw={"command": "solve", "bogus": 1})
        with pytest.raises(ConfigError, match=r"experiment\.rho: unknown key"):
            parse_config(raw={"command": "decay-fit", "experiment": {"rho": 0.5}})
        for command in COMMANDS:
            with pytest.raises(ConfigError, match=r"experiment\.bogus: unknown key"):
                parse_config(raw={"command": command, "experiment": {"bogus": 1}})

    @pytest.mark.parametrize("command", COMMANDS)
    def test_null_is_an_error_where_the_default_is_not_null(self, tmp_path, command, capsys):
        paths = _non_null_defaults(command)
        assert {"params.alpha", "tolerances.margin_tol", "seed"} <= set(paths)
        for dotted in paths:
            raw = _with_value({"command": command}, dotted, None)
            with pytest.raises(ConfigError, match=rf"^{re.escape(dotted)}: must be "):
                parse_config(raw=raw)
            cfgfile = tmp_path / "null.json"
            cfgfile.write_text(json.dumps(raw))
            assert main(["--config", str(cfgfile)]) == 2
            assert f"configuration error: {dotted}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, dotted",
        [
            ("audit-ellipticity", "experiment.tau"),
            ("holder-modulus", "experiment.exponent"),
            ("oscillation-decay", "experiment.counts"),
            ("decay-fit", "experiment.grading"),
            ("global-bound", "experiment.grading"),
        ],
    )
    def test_null_is_the_default_where_the_default_is_null(self, command, dotted):
        cfg = parse_config(raw=_with_value({"command": command}, dotted, None))
        assert cfg.effective == parse_config(raw={"command": command}).effective

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("oscillation-decay", "radii", [0, 4], r"experiment\.radii\[0\]: must be > 0"),
            ("oscillation-decay", "radii", [], r"experiment\.radii: must not be empty"),
            ("supersolution-scan", "shells", [], r"experiment\.shells: must not be empty"),
        ],
        ids=["zero-radius", "no-radii", "no-shells"],
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

    def test_effective_config_echoes_defaults(self):
        cfg = parse_config(raw={"command": "supersolution-scan"})
        assert cfg.effective["experiment"]["rho"] == 0.5
        assert cfg.effective["tolerances"]["solver_tol"] == 1e-10

    def test_default_input_hashes_are_pinned(self):
        # The echo of every default config, hashed; a change here changes the
        # input_hash of every report written with that command's defaults.
        expected = {
            "audit-ellipticity": "af4458a1f0cfbdb5dc3d1fd0d6c8f399b353d7e1",
            "boundary-growth": "65a312ed66d0324458ec43310eb258797c0c3e3a",
            "decay-fit": "3ec07ba05736fec711c81cdc82146cb44d577f55",
            "global-bound": "e8a8d8dac8b89563e5a34068df5a825bd8b5e51e",
            "holder-modulus": "1d379222cda349ad16fa090a2f16d11fb55f336d",
            "oscillation-decay": "aa166ba290bf9fc1008c4650d7c0a1d4daae2a6b",
            "solve": "a5c57232b959b00a1d446a4b1865e260d5d5df98",
            "supersolution-scan": "b57851e1a2ccc697a06c2b420e67bc18fb5db863",
            "verify-closed-forms": "27bb6669c9a17ea12f7def6a9301ee264c4f77b9",
        }
        got = {c: content_hash(parse_config(raw={"command": c}).effective) for c in COMMANDS}
        assert got == expected


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
            yield "new\n"
            raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError, match="disk gone"):
            atomic_write_lines(path, lines())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


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

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "verify-closed-forms", "params": {"alpha": -3}}))
        assert main(["--config", str(bad)]) == 2
        assert main(["--config", str(tmp_path / "missing.json")]) == 2

    def test_scan_hypothesis_violation_exits_2(self, tmp_path):
        cfgfile = tmp_path / "scan.json"
        cfgfile.write_text(
            json.dumps(
                {
                    "command": "supersolution-scan",
                    "experiment": {"rho": 0.9, "s": 0.5, "shells": [1, 2], "samples_per_shell": 20},
                    "output_dir": str(tmp_path / "o"),
                }
            )
        )
        assert main(["--config", str(cfgfile)]) == 2

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

    def test_failed_criterion_exits_1_but_writes_report(self, tmp_path):
        out = tmp_path / "fail"
        cfg = parse_config(
            raw={
                "command": "decay-fit",
                "experiment": {
                    "inner_radius": 1.0,
                    "outer_radius": 8.0,
                    "counts": [129, 33],
                    "ray_points": 7,
                },
                "tolerances": {"fit_band": 1e-9},  # unreachable band forces failure
                "output_dir": str(out),
            }
        )
        assert run(cfg) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert (out / "samples.csv").exists()

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
        eigs = np.linalg.eigvalsh(assemble_degenerate_matrix(cfg.build_field(), xp, xn, cfg.params))
        np.testing.assert_array_equal(data[:, 3], eigs[:, 0])
        np.testing.assert_array_equal(data[:, 4], eigs[:, -1])
        on_strip = xn >= cfg.experiment["epsilon0"]
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
        }
        assert report["result"]["total_count"] == 400
        assert report["result"]["lower_bound_numeric"] == float(np.min(eigs[on_strip, 0]))

    def test_cli_import_leaves_out_scipy_interpolate(self):
        src = str(Path(grushinlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        probe = "import sys, grushinlab.cli; print('scipy.interpolate' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "False"

    def test_solve_writes_grid_function(self, tmp_path):
        out = tmp_path / "solve"
        cfg = parse_config(
            raw={
                "command": "solve",
                "grid": {"box_lo": [1, 0], "box_hi": [3, 2], "counts": [9, 9]},
                "experiment": {"bc": "kernel"},
                "output_dir": str(out),
            }
        )
        assert run(cfg) == 0
        lines = (out / "solution.txt").read_text().splitlines()
        assert len(lines) == 81
        assert len(lines[0].split()) == 3

    @pytest.mark.parametrize("command", COMMANDS)
    def test_reruns_are_byte_identical(self, tmp_path, command):
        out = tmp_path / "run"
        cfg = parse_config(raw={"command": command, **SMALL_RAW[command], "seed": 5, "output_dir": str(out)})
        files = ["report.json", "samples.csv"] + (["solution.txt"] if command == "solve" else [])
        blobs = []
        for _ in range(2):
            run(cfg)
            assert sorted(p.name for p in out.iterdir()) == sorted(files)
            blobs.append([(out / name).read_bytes() for name in files])
        wall_time = re.compile(rb'("wall_time_\w+": )[^,\n]+')
        for first, second in zip(*blobs):
            assert wall_time.sub(rb"\1null", first) == wall_time.sub(rb"\1null", second)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_report_is_independent_of_output_dir(self, tmp_path, command):
        blobs = []
        for name in ("a", "b/nested"):
            out = tmp_path / name
            run(parse_config(raw={"command": command, **SMALL_RAW[command], "output_dir": str(out)}))
            blobs.append((out / "report.json").read_bytes())
        wall_time = re.compile(rb'("wall_time_s": )[^,\n]+')
        assert wall_time.sub(rb"\1null", blobs[0]) == wall_time.sub(rb"\1null", blobs[1])

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
            "wall_time_s",
            "converged",
            "method",
            "backward_error",
            "backward_error_history",
        }

    def test_solve_summary_quotes_the_converged_quantity(self, tmp_path):
        # ``converged`` tests the backward error, so the summary quotes it.
        out = tmp_path / "solve"
        run(parse_config(raw={"command": "solve", **SMALL_RAW["solve"], "output_dir": str(out)}))
        report = json.loads((out / "report.json").read_text())
        omega = report["result"]["solve"]["backward_error"]
        assert report["summary"].startswith(f"solve: backward error {omega:.3e} after ")

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
                "experiment": {"inner_radius": 2.0, "outer_radius": 32.0, "counts": [1025, 81]},
                "output_dir": str(out),
            }
        )
        assert run(cfg) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["falsification_failed"] is True
        assert "interface_samples" not in report["result"]

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
