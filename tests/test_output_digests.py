import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "output_digests", Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


def changes(tmp_path, name, old, new):
    for side, text in (("old", old), ("new", new)):
        (tmp_path / side).mkdir(exist_ok=True)
        (tmp_path / side / name).write_text(text)
    return digests.changes(digests._leaves(tmp_path / "old" / name), digests._leaves(tmp_path / "new" / name))


def report(final_change, passed=True):
    result = {"final_change": final_change, "levels": [{"q": 2.0}, {"q": 3.0}]}
    return json.dumps({"passed": passed, "result": result, "summary": f"change {final_change:.3e}"})


class TestChanges:
    def test_report_leaves_by_key(self, tmp_path):
        # The summary's "1.000e-05" is unchanged.
        got = changes(tmp_path, "report.json", report(1.0e-5), report(1.0e-5 * (1 + 4e-9)))
        assert [(key, where) for key, _, where in got] == [("result.final_change", "result.final_change")]
        assert float(got[0][1]) == pytest.approx(4e-9, rel=1e-2)
        got = changes(tmp_path, "report.json", report(1.0), report(1.25))
        assert got == [("result.final_change", "2.00e-01", "result.final_change"), ("summary", "2.00e-01", "summary:7")]

    def test_verdict_change_is_text(self, tmp_path):
        got = changes(tmp_path, "report.json", report(1.0), report(2.0, passed=False))
        assert got[0] == ("passed", "text", "passed")
        assert ("result.final_change", "5.00e-01", "result.final_change") in got

    def test_csv_columns_and_stdout_words(self, tmp_path):
        old, new = "u,flag\n1.5,true\n-2,false\n", "u,flag\n1.5,true\n-2.5,false\n"
        assert changes(tmp_path, "samples.csv", old, new) == [("u", "2.00e-01", "3:0")]
        assert changes(tmp_path, "samples.csv", old, old.replace("false", "true")) == [("text", "text", "3")]
        assert changes(tmp_path, "stdout", "c=1 -> PASS\n", "c=1 -> FAIL\n") == [("text", "text", "1")]
        assert changes(tmp_path, "solution.txt", "0 1\n0 2\n", "0 1\n0 2\n0 3\n") == [("layout", "text", "length")]

    def test_key_set_change_names_each_key_and_compares_the_rest(self, tmp_path):
        old, new = json.loads(report(1.0)), json.loads(report(1.25))
        for level in old["result"]["levels"]:
            level["data_scale"] = 1.0  # one key path, in every entry of a list
        new["result"]["gauge_range"] = [0.01, 100.0]
        got = changes(tmp_path, "report.json", json.dumps(old), json.dumps(new))
        assert got == [
            ("result.levels.data_scale", "removed", "result.levels[0].data_scale"),
            ("result.gauge_range", "added", "result.gauge_range[0]"),
            ("result.final_change", "2.00e-01", "result.final_change"),
            ("summary", "2.00e-01", "summary:7"),
        ]

    def test_shared_leaves_are_compared_past_a_length_change(self, tmp_path):
        old, new = "g,q\n9x9,1\n17x17,2\n", "g,q\n9x9,1.5\n17x17,2\n33x33,3\n"
        assert changes(tmp_path, "samples.csv", old, new) == [("layout", "text", "length"), ("q", "3.33e-01", "2:1")]

    def test_input_hash_is_plain_text(self, tmp_path):
        # Hex digests hold digit runs; read as numbers, a changed hash would
        # also print a ``layout`` line for another count of them.
        old, new = json.loads(report(1.0)), json.loads(report(1.0))
        old["input_hash"], new["input_hash"] = "3f2a9c0e41", "ab7d0c5e2f91b8"
        got = changes(tmp_path, "report.json", json.dumps(old), json.dumps(new))
        assert got == [("input_hash", "text", "input_hash")]


class TestAgainstExitStatus:
    def run(self, monkeypatch, capsys, old, new):
        """``main --against`` on stub checkouts whose one output is ``old`` and ``new``."""

        def run_checkout(root, seeds, outputs):
            text = {"old": old, "new": new}[root.name]
            path = outputs / "seed0" / "pointwise" / "samples.csv"
            path.parent.mkdir(parents=True)
            path.write_text(text)
            return {("0", "pointwise", "samples.csv"): hashlib.sha256(text.encode()).hexdigest()}

        monkeypatch.setattr(digests, "_run_checkout", run_checkout)
        code = digests.main(["--against", "old", "--root", "new"])
        return code, capsys.readouterr().out

    def test_identical_outputs_exit_0_silently(self, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert self.run(monkeypatch, capsys, "u\n1.5\n", "u\n1.5\n") == (0, "")

    def test_changed_output_exits_1(self, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out = self.run(monkeypatch, capsys, "u\n1.5\n", "u\n2\n")
        assert (code, out) == (1, "0 pointwise samples.csv u 2.50e-01 2:0\n")

    def test_bytes_that_differ_in_no_key_exit_1(self, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out = self.run(monkeypatch, capsys, "u\n1.5\n", "u\n1.50\n")
        assert (code, out) == (1, "0 pointwise samples.csv bytes text file\n")


class TestDigests:
    @staticmethod
    def job(tmp_path):
        return [("extra/probe", {"command": "solve", "output_dir": str(tmp_path / "probe")})]

    def test_stderr_is_digested_with_its_output_directory_replaced(self, tmp_path):
        class Cli:
            @staticmethod
            def main(argv):
                out = json.loads(Path(argv[1]).read_text())["output_dir"]
                print(f"error: see {out}/report.json", file=sys.stderr)
                return 2

        got = {output: digest for _, output, digest in digests.digests(Cli, self.job(tmp_path))}
        assert (tmp_path / "probe" / "stderr").read_text() == "error: see <out>/report.json\n"
        assert got["stderr"] == hashlib.sha256(b"error: see <out>/report.json\n").hexdigest()
        assert got["report.json"] == "absent" and got["exit_code"] == hashlib.sha256(b"2").hexdigest()

    def test_a_warning_stops_the_tool(self, tmp_path):
        class Cli:
            @staticmethod
            def main(argv):
                return int(np.float64(1.0) / 0.0 > 0)  # RuntimeWarning: divide by zero

        with pytest.raises(AssertionError, match="^extra/probe raised RuntimeWarning: divide by zero"):
            list(digests.digests(Cli, self.job(tmp_path)))

    def test_extra_runs_are_listed_per_seed(self, tmp_path):
        class Workloads:
            WORKLOADS = {}

        jobs = digests._jobs(Workloads, ["solve"], 3, tmp_path)
        assert [label for label, _ in jobs] == ["default/solve"] + [f"extra/{name}" for name, _ in digests.EXTRA]
        assert all(raw["seed"] == 3 for _, raw in jobs)
