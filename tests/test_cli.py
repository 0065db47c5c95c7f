"""Command line behavior: flags, exit codes, output channels."""

import json
import pathlib

import pytest

from conftest import SYSTEMS_DIR
from hodp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(name: str) -> str:
    return str(SYSTEMS_DIR / f"{name}.hodp")


class TestExitCodes:
    def test_successful_analysis_returns_zero(self, capsys):
        code, out, err = run(capsys, "check", path("map"))
        assert code == 0
        assert out.splitlines()[0] == "YES"
        assert err == ""

    def test_maybe_still_returns_zero(self, capsys):
        code, out, _ = run(capsys, "check", path("foldr"))
        assert code == 0
        assert out.splitlines()[0] == "MAYBE"

    def test_missing_file_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.hodp")
        assert code == 2
        assert "error:" in err

    def test_bad_syntax_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.hodp"
        bad.write_text("sort N\nf ( N\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_non_utf8_file_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.hodp"
        bad.write_bytes(b"sort N\n\xff\xfe : N\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_unwritable_dot_path_is_an_input_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "graph.dot"
        code, out, err = run(capsys, "check", path("selfloop"), "--disprove", "--dot", str(target))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_search_limit_is_reported_separately(self, capsys):
        code, _, err = run(capsys, "check", path("map"), "--max-symbols", "1")
        assert code == 3
        assert "limit:" in err

    def test_bad_precedence_argument(self, capsys):
        code, _, err = run(capsys, "check", path("map"), "--precedence", "bogus>map")
        assert code == 2
        assert "bogus" in err


class TestFlags:
    def test_json_output_parses(self, capsys):
        code, out, _ = run(capsys, "check", path("map"), "--json")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == "YES"
        assert d["certificate"]["precedence"] == [["map", "cons"]]

    def test_precedence_flag_overrides_search(self, capsys):
        code, out, _ = run(capsys, "check", path("map"), "--precedence", "cons>map")
        assert code == 0
        assert out.splitlines()[0] == "MAYBE"

    def test_trace_flag_adds_witness_lines(self, capsys):
        _, plain, _ = run(capsys, "check", path("map"))
        _, detailed, _ = run(capsys, "check", path("map"), "--trace")
        assert "same-symbol(map, mul)" in detailed
        assert "same-symbol(map, mul)" not in plain

    def test_disprove_finds_the_loop(self, capsys):
        code, out, _ = run(capsys, "check", path("selfloop"), "--disprove")
        assert code == 0
        assert out.splitlines()[0] == "NO"
        assert "f X => f X" in out

    def test_dot_requires_disprove(self, capsys):
        code, _, err = run(capsys, "check", path("selfloop"), "--dot", "/tmp/unused.dot")
        assert code == 2
        assert "--dot requires --disprove" in err

    def test_dot_writes_a_graph(self, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        code, _, _ = run(capsys, "check", path("selfloop"), "--disprove", "--dot", str(target))
        assert code == 0
        body = target.read_text()
        assert body.startswith("digraph")
        assert "->" in body

    def test_internal_beta_can_be_disabled(self, capsys):
        code, out, _ = run(capsys, "check", path("map"), "--internal", "rules-only")
        assert code == 0
        assert out.splitlines()[0] == "YES"

    def test_explore_limits_are_plumbed(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            path("selfloop"),
            "--disprove",
            "--explore-depth",
            "3",
            "--explore-nodes",
            "10",
        )
        assert code == 0
        assert out.splitlines()[0] == "NO"

    def test_json_and_trace_are_exclusive_channels(self, capsys):
        code, out, _ = run(capsys, "check", path("map"), "--json", "--trace")
        assert code == 0
        json.loads(out)


class TestDeterminism:
    def test_repeated_runs_match_modulo_timing(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "check", path("lim"), "--json")
            d = json.loads(out)
            d.pop("timing")
            outs.append(json.dumps(d, sort_keys=True))
        assert outs[0] == outs[1]
