"""Command line behavior: flags, exit codes, output channels."""

import argparse
import collections
import contextlib
import errno
import io
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys

import pytest

from conftest import SYSTEMS_DIR, load_system, same_reports_tool
from gen import escaping_ho_system, random_fo_trs, random_ho_system, system_text
from hodp import cli
from hodp.cli import build_arg_parser, main
from hodp.engine import has_alpha_repeat, replay_trace
from hodp.errors import InputError
from hodp.parser import parse_system
from hodp.pipeline import Options, report_dict, run_pipeline


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(name: str) -> str:
    return str(SYSTEMS_DIR / f"{name}.hodp")


def run_module(module: str, *argv: str, **env: str) -> subprocess.CompletedProcess:
    """`python -m module` in a fresh interpreter, with env added to its
    environment."""
    src = str(SYSTEMS_DIR.parent / "src")
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, check=False,
    )


def run_hash_seeded(seed: str, *argv: str) -> subprocess.CompletedProcess:
    """`python -m hodp.cli` in a fresh interpreter under the given hash seed."""
    return run_module("hodp.cli", *argv, PYTHONHASHSEED=seed)


def run_with_hash_seed(seed: str, *argv: str) -> tuple[int, str]:
    """Exit code and report of `python -m hodp.cli` in a fresh interpreter,
    with the timing entry or line stripped."""
    proc = run_hash_seeded(seed, *argv)
    if "--json" in argv and proc.returncode == 0:
        d = json.loads(proc.stdout)
        d.pop("timing")
        return proc.returncode, json.dumps(d, indent=2, ensure_ascii=False)
    lines = proc.stdout.splitlines()
    return proc.returncode, "\n".join(line for line in lines if not line.startswith("elapsed"))


def readme_examples() -> list[tuple[str, list[str]]]:
    """Each `$ hodp check` command of README.md with the output lines it
    shows, up to the next command or the end of its code block."""
    examples, shown = [], None
    readme = SYSTEMS_DIR.parent / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ hodp check "):
            shown = []
            examples.append((line[2:], shown))
        elif line.startswith(("$ ", "```")):
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


def test_readme_has_examples():
    assert len(readme_examples()) >= 2


@pytest.mark.parametrize("command, shown", readme_examples())
def test_readme_example_matches_the_program(capsys, monkeypatch, command, shown):
    """The lines an example shows, other than `...`, appear in this order
    in what the command prints."""
    monkeypatch.chdir(SYSTEMS_DIR.parent)
    code, out, err = run(capsys, *shlex.split(command)[1:])
    assert (code, err) == (0, "")
    printed = iter(out.splitlines())
    assert [line for line in shown if line != "..." and line not in printed] == []


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
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n"
        )
        assert out == ""

    def test_a_decoding_error_counts_from_the_start_of_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.hodp"
        bad.write_bytes(b"#" * 10000 + b"\xc3(\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xc3 in position 10000: "
            "invalid continuation byte\n"
        )

    def test_unwritable_dot_path_is_an_input_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "graph.dot"
        code, out, err = run(capsys, "check", path("selfloop"), "--disprove", "--dot", str(target))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_stdout_that_cannot_encode_the_report_is_an_error(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        # the pair of f X -> f X sits at the root, shown as ε in both formats
        system = tmp_path / "a.hodp"
        system.write_text("sort N\n0 : N\nf : N -> N\nrule f X -> f X\n", encoding="utf-8")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["check", str(system), *flags])
        stdout.flush()
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "ascii" in err
        assert len(err.splitlines()) == 1
        assert stdout.buffer.getvalue() == b""

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("fails", ["write", "flush"])
    def test_stdout_that_cannot_be_written_is_an_error(self, capsys, monkeypatch, flags, fails):
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class Full(io.StringIO):
            def write(self, text):
                if fails == "write":
                    raise full
                return super().write(text)

            def flush(self):
                raise full

        monkeypatch.setattr(sys, "stdout", Full())
        code = main(["check", path("map"), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: stdout cannot take the report: {full}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_disk_on_stdout_prints_one_line(self):
        """Nothing more is printed at interpreter exit, when Python flushes
        stdout again."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SYSTEMS_DIR.parent / "src"), env.get("PYTHONPATH")])
        )
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "hodp.cli", "check", path("map")],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, check=False,
            )
        assert done.returncode == 2
        assert done.stderr == "error: stdout cannot take the report: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_failed_stdout_is_discarded(self, capsys, monkeypatch):
        """The report a failed write left in stdout's buffer must not fail
        again when Python flushes stdout at exit."""
        with open("/dev/full", "w", encoding="utf-8") as full:
            monkeypatch.setattr(sys, "stdout", full)
            assert main(["check", path("map")]) == 2
            full.flush()
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_search_limit_is_reported_separately(self, capsys):
        code, _, err = run(capsys, "check", path("map"), "--max-symbols", "1")
        assert code == 3
        assert "limit:" in err

    @pytest.mark.parametrize(
        "text",
        [
            "rule f X -> " + "s (" * 600 + "X" + ")" * 600,
            "rule f X -> " + "(" * 3000 + "X" + ")" * 3000,
            "rule f X -> " + "".join(f"\\x{k}. " for k in range(3000)) + "X",
            "g : " + "N -> " * 3000 + "N",
        ],
        ids=["nested-applications", "nested-parentheses", "nested-lambdas", "nested-arrows"],
    )
    def test_deep_nesting_is_a_limit_not_a_traceback(self, tmp_path, capsys, text):
        deep = tmp_path / "deep.hodp"
        deep.write_text(f"sort N\ns : N -> N\nf : N -> N\n{text}\n")
        code, _, err = run(capsys, "check", str(deep))
        assert code == 3
        assert err == "limit: term nesting exceeds the recursion limit\n"

    @staticmethod
    def _explore_under_recursion_limit_300(tmp_path, rule):
        grow = tmp_path / "grow.hodp"
        grow.write_text(f"sort N\n0 : N\ns : N -> N\ng : N -> N\nf : N -> N\nrule {rule}\n")
        src = str(SYSTEMS_DIR.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import sys; sys.setrecursionlimit(300); from hodp.cli import main; "
            "sys.exit(main(sys.argv[1:]))"
        )
        return subprocess.run(
            [sys.executable, "-c", script, "check", str(grow),
             "--disprove", "--explore-depth", "400"],
            capture_output=True, text=True, env=env, check=False,
        )

    def test_deep_exploration_under_a_low_recursion_limit_is_a_limit(self, tmp_path):
        # the spine above the redex is new at every step, so one step
        # builds structure as deep as the state
        proc = self._explore_under_recursion_limit_300(tmp_path, "f X -> g (f (s X))")
        assert proc.returncode == 3
        assert proc.stderr.startswith("limit:")
        assert "Traceback" not in proc.stderr

    def test_deep_exploration_that_shares_its_subterms_needs_no_deep_recursion(self, tmp_path):
        # each step builds two nodes on top of the last state's argument
        proc = self._explore_under_recursion_limit_300(tmp_path, "f X -> f (s X)")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "MAYBE"
        assert proc.stderr == ""

    @pytest.mark.parametrize("flag", ["--max-symbols", "--explore-depth", "--explore-nodes"])
    def test_negative_budget_is_a_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["check", path("map"), "--disprove", flag, "-1"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}: must not be negative" in err
        assert "Traceback" not in err
        code, _, _ = run(capsys, "check", path("map"), "--disprove", flag, "0")
        assert code in (0, 3)

    def test_weak_order_has_no_beta_bound_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", path("map"), "--ge-bound", "3"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "unrecognized arguments: --ge-bound 3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "prec_line,argv,symbol",
        [
            (None, ("--precedence", "map>cons>nil>map"), "cons"),
            ("prec f > s > f", (), "f"),
        ],
        ids=["flag", "prec-line"],
    )
    def test_precedence_cycle_names_one_symbol_whatever_the_hash_seed(
        self, tmp_path, prec_line, argv, symbol
    ):
        file = path("map")
        if prec_line is not None:
            file = tmp_path / "cycle.hodp"
            file.write_text(f"sort N\n0 : N\ns : N -> N\nf : N -> N\n{prec_line}\n")
        errors = set()
        for seed in map(str, range(8)):
            proc = run_hash_seeded(seed, "check", str(file), *argv)
            assert proc.returncode == 2
            errors.add(proc.stderr)
        assert errors == {f"error: precedence orders {symbol} above itself\n"}

    @pytest.mark.parametrize(
        "value, message",
        [
            ("bogus>map", "bogus"),
            ("", "error: empty precedence"),
            (" ", "error: empty precedence"),
            (",", "error: empty precedence"),
        ],
    )
    def test_bad_precedence_argument(self, capsys, value, message):
        code, _, err = run(capsys, "check", path("map"), "--precedence", value)
        assert code == 2
        assert message in err


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

    def test_precedence_binds_through_symbols_no_constraint_mentions(self, capsys):
        """cons > s > map implies cons > map, though no rule mentions s."""
        reports = []
        for prec in ("cons>map", "cons>s>map"):
            code, out, _ = run(capsys, "check", path("map"), "--json", "--precedence", prec)
            assert code == 0
            report = json.loads(out)
            del report["timing"]
            reports.append(report)
        assert reports[0]["verdict"] == "MAYBE"
        assert reports[1] == reports[0]

    def test_precedence_flag_replaces_the_prec_lines_of_the_file(self, tmp_path, capsys):
        file = tmp_path / "hinted.hodp"
        file.write_text((SYSTEMS_DIR / "map.hodp").read_text() + "prec cons > map\n")
        code, out, _ = run(capsys, "check", str(file))
        assert code == 0
        assert out.splitlines()[:2] == ["MAYBE", "stage: ordering"]
        code, out, _ = run(capsys, "check", str(file), "--precedence", "map>cons")
        assert code == 0
        assert out.splitlines()[0] == "YES"
        assert "  precedence: map > cons" in out.splitlines()

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

    def test_budget_defaults_are_the_options_defaults(self, capsys):
        defaults = Options()
        args = build_arg_parser().parse_args(["check", "system.hodp"])
        budgets = ("max_symbols", "explore_depth", "explore_nodes")
        assert [getattr(args, b) for b in budgets] == [getattr(defaults, b) for b in budgets]
        assert (args.internal == "all") == defaults.internal_beta
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for b in budgets:
            assert f"(default {getattr(defaults, b)})" in help_text

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

    @pytest.mark.parametrize("flag", ["--json", "--trace"])
    def test_runs_match_across_processes_and_hash_seeds(self, flag):
        # Term hashes follow object addresses, so set and dict order over
        # terms may differ between processes; no report may depend on it.
        for system in sorted(SYSTEMS_DIR.glob("*.hodp")):
            argv = ("check", str(system), flag, "--disprove")
            first = run_with_hash_seed("0", *argv)
            second = run_with_hash_seed("1", *argv)
            assert first[0] == 0, system.name
            assert first == second, system.name


class TestModuleEntry:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", path("map"), "--trace"),
            ("check", path("foldr"), "--json", "--disprove"),
            ("check", path("map"), "--max-symbols", "1"),
            ("check", "no-such-file.hodp"),
            ("check", path("map"), "--unknown"),
        ],
    )
    def test_python_m_hodp_runs_the_command_line(self, argv):
        """`python -m hodp` prints what `python -m hodp.cli` prints, on
        both channels, and exits with its code."""
        package, cli_module = run_module("hodp", *argv), run_module("hodp.cli", *argv)
        assert package.returncode == cli_module.returncode
        assert package.stderr == cli_module.stderr
        untimed = same_reports_tool().untimed
        assert untimed(package.stdout) == untimed(cli_module.stdout)


class TestByteOrderMark:
    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, capsys):
        text = (SYSTEMS_DIR / "map.hodp").read_text(encoding="utf-8")
        plain, marked = tmp_path / "plain.hodp", tmp_path / "marked.hodp"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        outs = []
        for file in (plain, marked):
            code, out, err = run(capsys, "check", str(file))
            assert (code, err) == (0, "")
            outs.append([line for line in out.splitlines() if not line.startswith("elapsed:")])
        assert outs[0] == outs[1]


# ------------------------------------------------------------ crash freedom
# Generated and shipped systems under a fixed list of flag sets: every run
# ends with exit 0, 2 or 3, never with a traceback.

DISPROVE = ["--disprove", "--explore-depth", "6", "--explore-nodes", "40"]


def _flag_sets(symbols: list[str]) -> list[list[str]]:
    a, b = symbols[0], symbols[-1]  # with one symbol, both precedences are cyclic
    return [
        [],
        ["--trace"],
        DISPROVE,
        DISPROVE + ["--internal", "rules-only"],
        ["--max-symbols", "3"],
        ["--precedence", f"{a}>{b}"],
        ["--precedence", f"{a}>{b},{b}>{a}"],
    ]


def _run_in_process(argv: list[str]) -> tuple[object, str, str]:
    """Exit code, stdout and stderr of main(argv); only SystemExit is caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _untimed_report(system) -> dict:
    model = report_dict(run_pipeline(system, Options()))
    model.pop("timing")
    return model


def _assert_witness_replays(system, flags: list[str]) -> None:
    """run_pipeline under the options main reads from flags, which hold no
    --precedence, gives a NO whose witness replays and repeats a state."""
    args = cli._read_plain(["check", "system.hodp", *flags])
    options = Options(
        max_symbols=args.max_symbols,
        disprove=args.disprove,
        explore_depth=args.explore_depth,
        explore_nodes=args.explore_nodes,
        internal_beta=(args.internal == "all"),
    )
    report = run_pipeline(system, options)
    assert report.verdict == "NO", flags
    trace = report.witness["trace"]
    assert replay_trace(trace, system, report.pairs), flags
    assert has_alpha_repeat(report.witness["start"], trace), flags


def _run_both_formats(file, flags: list[str], name: str):
    """Runs the system in file through main under flags, in text and in
    JSON, and checks how they end: exit 0 with an empty stderr, or 2 or 3
    with a one-line message, the same code in both formats, and a replaying
    witness for every NO.  Returns the exit code, or (verdict, stage) on
    exit 0."""
    text_run = _run_in_process(["check", str(file), *flags])
    json_run = _run_in_process(["check", str(file), "--json", *flags])
    for code, out, err in (text_run, json_run):
        assert code in (0, 2, 3), (name, flags, code)
        if code == 0:
            assert err == "", (name, flags)
        else:
            assert err.count("\n") == 1 and err.endswith("\n"), (name, flags, err)
            assert err.startswith(("error:", "limit:")), (name, flags, err)
    assert json_run[0] == text_run[0], (name, flags)
    if text_run[0] != 0:
        return text_run[0]
    report = json.loads(json_run[1])
    verdict = report["verdict"]
    assert verdict == text_run[1].splitlines()[0], (name, flags)
    if verdict == "NO":
        _assert_witness_replays(parse_system(file.read_text(encoding="utf-8")), flags)
    return verdict, report["stage"]


class TestCrashFreedom:
    def test_generated_and_shipped_systems_end_with_an_exit_code(self, tmp_path):
        rng = random.Random(2024)
        systems = [(f"gen{i}", random_fo_trs(rng)[0]) for i in range(150)]
        ho_systems = [(f"ho{i}", random_ho_system(rng)) for i in range(60)]
        systems += [(p.stem, load_system(p.stem)) for p in sorted(SYSTEMS_DIR.glob("*.hodp"))]
        systems += ho_systems
        codes, ho_outcomes = collections.Counter(), set()
        for k, (name, system) in enumerate(systems):
            text = system_text(system)
            assert _untimed_report(parse_system(text)) == _untimed_report(system), name
            file = tmp_path / f"{name}.hodp"
            file.write_text(text, encoding="utf-8")
            flag_sets = _flag_sets(sorted(system.signature.symbols))
            flags = flag_sets[k % len(flag_sets)]
            outcome = _run_both_formats(file, flags, name)
            codes[outcome if isinstance(outcome, int) else 0] += 1
            if isinstance(outcome, tuple) and outcome[0] == "NO":
                codes["NO"] += 1
            if name.startswith("ho"):
                ho_outcomes.add(outcome)
        # the cyclic precedence exits 2; the flag sets reach all three codes
        assert set(codes) == {0, 2, 3, "NO"}
        # the higher-order systems alone reach every verdict, both stages a
        # MAYBE stops at, and both error exits
        assert ho_outcomes >= {
            ("YES", None),
            ("NO", None),
            ("MAYBE", "extraction"),
            ("MAYBE", "ordering"),
            2,
            3,
        }, ho_outcomes

    def test_parsable_mutants_end_with_an_exit_code(self, tmp_path):
        """The seeded mutants of the shipped systems that parse run through
        main under the flag sets above, so the closure, the search and the
        engine see malformed-but-parsable input too.  The first 2,000 are
        those of tests/test_parser.py's TestMutants."""
        mutate = same_reports_tool().mutate
        texts = [p.read_text(encoding="utf-8") for p in sorted(SYSTEMS_DIR.glob("*.hodp"))]
        rng, file = random.Random(7), tmp_path / "mutant.hodp"
        outcomes = collections.Counter()
        for k in range(5000):
            text = mutate(texts[k % len(texts)], rng)
            try:
                system = parse_system(text)
            except InputError:
                continue
            file.write_text(text, encoding="utf-8")
            # a mutant may declare no symbol; a hint then names an unknown one
            flag_sets = _flag_sets(sorted(system.signature.symbols) or ["f"])
            outcomes[_run_both_formats(file, flag_sets[k % len(flag_sets)], f"mutant{k}")] += 1
        # every verdict, every stage a MAYBE stops at, and both error exits
        assert set(outcomes) >= {
            ("YES", None),
            ("NO", None),
            ("MAYBE", "admissibility"),
            ("MAYBE", "extraction"),
            ("MAYBE", "ordering"),
            2,
            3,
        }, outcomes

    def test_pairs_that_escape_never_step_a_chain(self, tmp_path):
        """Seeded systems with a pair whose bound variable escapes: the
        chain relation steps by no such pair, so neither a NO witness nor
        a dp edge of the --dot graph names one, and many of them end at
        extraction."""
        rng, dot = random.Random(2026), tmp_path / "graph.dot"
        outcomes = collections.Counter()
        for i in range(120):
            file = tmp_path / f"esc{i}.hodp"
            file.write_text(system_text(escaping_ho_system(rng)), encoding="utf-8")
            flags = [*DISPROVE, "--internal", "rules-only"] if i % 2 else DISPROVE
            code, out, err = _run_in_process(["check", str(file), "--json", *flags, "--dot", str(dot)])
            outcomes[code] += 1
            if code != 0:
                assert code == 3 and err.startswith("limit:"), (i, code, err)
                continue
            report = json.loads(out)
            escaped = {dp["name"] for dp in report["pairs"] if not dp["conditions"]["variables_ok"]}
            assert escaped, i
            outcomes[report["verdict"], report["stage"]] += 1
            if report["verdict"] == "NO":
                assert report["witness"]["relation"] == "rewrite", i
                _assert_witness_replays(parse_system(file.read_text(encoding="utf-8")), flags)
            drawn = set(re.findall(r'label="dp\((d\d+)\)@', dot.read_text(encoding="utf-8")))
            assert not drawn & escaped, (i, drawn, escaped)
            outcomes["dp edges"] += bool(drawn)
        assert outcomes["MAYBE", "extraction"] >= 20 and outcomes["dp edges"] >= 20, outcomes


# ------------------------------------------------------------- plain argv
# main reads a plain `check FILE [options]` without argparse; whatever that
# reader accepts, argparse must read the same way.

ARGV_VALUES = ["3", "0", "-1", " -1", "+4", "1_0", "\u0663", "", "x", "a>b", "all", "rules-only"]
ARGV_TOKENS = [
    "-h", "--help", "--", "-", "--js", "--prec", "--max", "--int", "--do", "--explore",
    "--max-symbols=3", "--precedence=a>b", "--internal=all", "check", "a.hodp", "b.hodp",
    *ARGV_VALUES,
]


def _check_parser() -> argparse.ArgumentParser:
    sub = next(a for a in build_arg_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["check"]


def _seeded_argv(rng: random.Random) -> list[str]:
    """Mostly `check` and exact options with values, each item sometimes
    swapped for an abbreviation, an `=` form, a value that argparse or
    the budget check rejects, a second file or help."""
    argv = ["check"] if rng.random() < 0.95 else [rng.choice(ARGV_TOKENS)]
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.3:
            argv.append(rng.choice(ARGV_TOKENS))
            continue
        item = rng.choice([*cli._OPTIONS, "a.hodp", "a.hodp"])
        argv.append(item)
        if cli._OPTIONS.get(item, ("", None))[1] is not None and rng.random() < 0.8:
            argv.append(rng.choice(ARGV_VALUES))
    return argv


class TestPlainArgv:
    def test_the_reader_agrees_with_argparse(self):
        parser, rng, read = build_arg_parser(), random.Random(16), 0
        for _ in range(20_000):
            argv = _seeded_argv(rng)
            args = cli._read_plain(argv)
            if args is None:
                continue
            read += 1
            with contextlib.redirect_stderr(io.StringIO()):
                expected = parser.parse_args(argv)  # SystemExit would fail the test
            assert vars(args) == vars(expected), argv
            assert min(args.max_symbols, args.explore_depth, args.explore_nodes) >= 0, argv
        assert read > 1000

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--help"],
            ["check", "a.hodp", "--js"],
            ["check", "a.hodp", "--precedence=a>b"],
            ["check", "a.hodp", "--max-symbols", " -1"],
            ["check", "--", "a.hodp"],
            ["check", "a.hodp", "b.hodp"],
            ["check", "a.hodp", "--internal", "bad", "--internal", "all"],
            ["check", "a.hodp", "--explore-depth", "1.5"],
            ["check", "a.hodp", "--dot"],
            ["check"],
            ["--help"],
            [],
        ],
    )
    def test_everything_else_is_left_to_argparse(self, argv):
        assert cli._read_plain(argv) is None

    def test_the_reader_knows_exactly_the_options_of_check(self):
        actions = _check_parser()._option_string_actions
        assert set(actions) == {*cli._OPTIONS, "-h", "--help"}
        unset = vars(cli._read_plain(["check", "a.hodp"]))
        for option, (name, read, _) in cli._OPTIONS.items():
            assert actions[option].dest == name
            assert (actions[option].nargs == 0) == (read is None), option
            assert actions[option].default == unset[name], option

    def test_a_plain_run_does_not_build_the_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("build_arg_parser was called")

        monkeypatch.setattr(cli, "build_arg_parser", refuse)
        argv = ["--json", "--disprove", "--internal", "rules-only", "--dot", os.devnull]
        code, out, err = run(capsys, "check", path("selfloop"), *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["verdict"] == "NO"

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["hodp", "check", path("map"), "--max-symbols", "1"])
        assert main() == 3
        assert capsys.readouterr().err.startswith("limit:")
