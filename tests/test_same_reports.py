"""tools/same_reports.py: the byte-identity check between two source trees."""

import collections
import contextlib
import io
import json
import re

from conftest import ROOT, SYSTEMS_DIR, same_reports_tool
from gen import WIDE_SYSTEMS
from hodp.cli import main
from hodp.ordering import PathOrder
from hodp.terms import Lam

# the argv edge cases, then every shipped system under every golden flag set
SHIPPED_RUNS = len(same_reports_tool().runs([]))
MUTANT_RUNS = same_reports_tool().MUTANTS_PER_SYSTEM * len(list(SYSTEMS_DIR.glob("*.hodp")))
TYPED_RUNS = same_reports_tool().TYPED_RULES


def _runs_per_system(flag_sets) -> int:
    """One run per flag set, and a second, with --dot, for each that
    holds --disprove."""
    return sum(1 + ("--disprove" in flags) for flags in flag_sets)


HO_RUNS = same_reports_tool().HO_SYSTEMS * _runs_per_system(same_reports_tool().HO_FLAG_SETS)
BINDER_RUNS = same_reports_tool().BINDER_SYSTEMS * _runs_per_system(same_reports_tool().HO_FLAG_SETS)
WIDE_RUNS = len(WIDE_SYSTEMS) * _runs_per_system(same_reports_tool().WIDE_FLAG_SETS)
# two families of chain systems: with at most one two-argument head, and with 2 or 3
CHAIN_RUNS = 2 * same_reports_tool().CHAIN_SYSTEMS * _runs_per_system(same_reports_tool().CHAIN_FLAG_SETS)
FO_RUNS = same_reports_tool().FO_SYSTEMS * _runs_per_system(same_reports_tool().FO_FLAG_SETS)
ALL_RUNS = SHIPPED_RUNS + MUTANT_RUNS + TYPED_RUNS + HO_RUNS + BINDER_RUNS + WIDE_RUNS + CHAIN_RUNS + FO_RUNS


def test_a_tree_matches_itself(capsys):
    src = str(ROOT / "src")
    assert same_reports_tool().main([src, src]) == 0
    assert capsys.readouterr().out == f"{ALL_RUNS} runs, 0 differ\n"


def test_a_tree_that_prints_one_line_differs_on_every_run(tmp_path, capsys):
    stub = tmp_path / "hodp"
    stub.mkdir()
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text("def main(argv=None):\n    print('stub')\n    return 0\n")
    assert same_reports_tool().main([str(ROOT / "src"), str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{ALL_RUNS} runs, {ALL_RUNS} differ"
    assert len(lines) == ALL_RUNS + 1
    assert all(line.startswith("differs: ") for line in lines[:-1])


def test_manifest_instances_run_in_both_report_formats(tmp_path):
    instances = [
        {"name": "a", "file": "a.hodp", "flags": ["--json", "--precedence", "f>g"]},
        {"name": "b", "file": "b.hodp", "flags": ["--trace", "--disprove"]},
    ]
    (tmp_path / "manifest.json").write_text(json.dumps(instances))
    assert same_reports_tool().runs([str(tmp_path)])[SHIPPED_RUNS:] == [
        ("a --json --precedence f>g", ["check", "a.hodp", "--json", "--precedence", "f>g"]),
        ("a --trace --precedence f>g", ["check", "a.hodp", "--trace", "--precedence", "f>g"]),
        ("b --trace --disprove", ["check", "b.hodp", "--trace", "--disprove"]),
        ("b --trace --disprove --dot graph.dot", ["check", "b.hodp", "--trace", "--disprove", "--dot", "graph.dot"]),
        ("b --json --disprove", ["check", "b.hodp", "--json", "--disprove"]),
        ("b --json --disprove --dot graph.dot", ["check", "b.hodp", "--json", "--disprove", "--dot", "graph.dot"]),
    ]


def test_mutants_are_seeded_and_run_with_json(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    labelled = same_reports_tool().mutant_runs(str(first))
    assert labelled == same_reports_tool().mutant_runs(str(second))
    assert len(labelled) == MUTANT_RUNS
    for label, argv in labelled:
        assert argv == ["check", argv[1], "--json"] and label == f"{argv[1]} --json"
        assert (first / argv[1]).read_bytes() == (second / argv[1]).read_bytes()
    originals = {p.read_text(encoding="utf-8") for p in SYSTEMS_DIR.glob("*.hodp")}
    changed = [argv[1] for _, argv in labelled if (first / argv[1]).read_text(encoding="utf-8") not in originals]
    assert len(changed) > MUTANT_RUNS * 9 // 10


def test_typed_rule_lines_are_seeded_and_fail_their_typing(tmp_path, monkeypatch):
    """The systems of the typed rule lines are the same on every call, and
    their runs print the type errors with a ?n in them."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    labelled = same_reports_tool().typed_runs(str(first))
    assert labelled == same_reports_tool().typed_runs(str(second))
    assert len(labelled) == TYPED_RUNS
    monkeypatch.chdir(first)
    errors = []
    for label, argv in labelled:
        assert (first / argv[1]).read_bytes() == (second / argv[1]).read_bytes()
        assert argv == ["check", argv[1], "--json"] and label == f"{argv[1]} --json"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            main(argv)
        errors.append(err.getvalue())
    typing = [e for e in errors if "rule cannot be typed (" in e and "?" in e]
    assert len(typing) * 10 >= TYPED_RUNS, len(typing)


def test_higher_order_systems_are_seeded_and_compare_binders(tmp_path, monkeypatch):
    """The generated systems are the same on every call, and their --trace
    runs compare lambdas in the ordering."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    labelled = same_reports_tool().ho_runs(str(first))
    assert labelled == same_reports_tool().ho_runs(str(second))
    assert len(labelled) == HO_RUNS
    compared = []
    greater = PathOrder._greater

    def counted(order, s, t):
        if isinstance(s, Lam) or isinstance(t, Lam):
            compared.append(current)
        return greater(order, s, t)

    monkeypatch.chdir(first)
    monkeypatch.setattr(PathOrder, "_greater", counted)
    for current, (label, argv) in enumerate(labelled):
        assert (first / argv[1]).read_bytes() == (second / argv[1]).read_bytes()
        assert label == " ".join(argv[1:])
        if "--trace" in argv:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, label
    # a fifth of the systems or more compare a binder
    assert len(set(compared)) * 5 >= same_reports_tool().HO_SYSTEMS, len(set(compared))


def test_binder_systems_are_seeded_and_print_beta_and_lam(tmp_path, monkeypatch):
    """The binder systems are the same on every call; their --trace
    reports print a beta witness and a lam derivation, and their explored
    graphs hold a beta step."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    labelled = same_reports_tool().binder_runs(str(first))
    assert labelled == same_reports_tool().binder_runs(str(second))
    assert len(labelled) == BINDER_RUNS
    monkeypatch.chdir(first)
    found = collections.Counter()
    for label, argv in labelled:
        assert (first / argv[1]).read_bytes() == (second / argv[1]).read_bytes()
        assert label == " ".join(argv[1:])
        if "--disprove" in argv and "--dot" not in argv:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) in (0, 1), label
        if "--trace" in argv:
            found["beta witness"] += bool(re.search(r"^ +beta\(", out.getvalue(), re.MULTILINE))
            found["lam derivation"] += bool(re.search(r"^ +lam\(", out.getvalue(), re.MULTILINE))
        else:
            graph = (first / "graph.dot").read_text(encoding="utf-8")
            found["beta step"] += 'label="beta@' in graph
    assert set(found) == {"beta witness", "lam derivation", "beta step"}
    assert min(found.values()) > 0, found


def test_wide_systems_run_with_many_successors_per_state(tmp_path, monkeypatch):
    """Each wide run finishes, with --dot and without it, and its graph
    holds a state with more than one successor, so the order of visits
    shows in the --dot file."""
    labelled = same_reports_tool().wide_runs(str(tmp_path))
    assert len(labelled) == WIDE_RUNS
    assert sum("--dot" in argv for _, argv in labelled) * 2 == WIDE_RUNS
    monkeypatch.chdir(tmp_path)
    for label, argv in labelled:
        assert (tmp_path / argv[1]).read_text(encoding="utf-8") in WIDE_SYSTEMS.values()
        assert label == " ".join(argv[1:])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, label
        if "--dot" not in argv:
            continue
        graph = (tmp_path / "graph.dot").read_text(encoding="utf-8")
        edges = collections.Counter(re.findall(r"^  (n\d+) -> n\d+ ", graph, re.MULTILINE))
        assert max(edges.values()) > 1, label


def test_chain_systems_are_seeded_and_repeat_witnesses(tmp_path, monkeypatch):
    """The chain systems are the same on every call, each run gives YES,
    and the certificate of each system holds a witness that recurs."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    labelled = same_reports_tool().chain_runs(str(first))
    assert labelled == same_reports_tool().chain_runs(str(second))
    assert len(labelled) == CHAIN_RUNS
    monkeypatch.chdir(first)
    for label, argv in labelled:
        assert (first / argv[1]).read_bytes() == (second / argv[1]).read_bytes()
        assert label == " ".join(argv[1:])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, label
        if "--json" in argv:
            report = json.loads(out.getvalue())
            witnesses = [w["witness"] for w in report["certificate"]["pairs"]]
            seen = collections.Counter(json.dumps(g) for w in witnesses for g in _subtrees(w))
            assert report["verdict"] == "YES" and max(seen.values()) > 1, label
        else:
            assert out.getvalue().startswith("YES\n"), label


def test_first_order_systems_are_seeded_and_reach_yes_and_maybe(tmp_path, monkeypatch):
    """The first-order systems are the same on every call, every run
    exits 0, and under each flag set some reach YES and some MAYBE."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    labelled = same_reports_tool().fo_runs(str(first))
    assert labelled == same_reports_tool().fo_runs(str(second))
    assert len(labelled) == FO_RUNS
    monkeypatch.chdir(first)
    verdicts = collections.defaultdict(set)
    for label, argv in labelled:
        assert (first / argv[1]).read_bytes() == (second / argv[1]).read_bytes()
        assert label == " ".join(argv[1:])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, label
        report = out.getvalue()
        verdict = json.loads(report)["verdict"] if "--json" in argv else report.splitlines()[0]
        verdicts[tuple(argv[2:])].add(verdict)
    assert len(verdicts) == len(same_reports_tool().FO_FLAG_SETS)
    assert all(found == {"YES", "MAYBE"} for found in verdicts.values()), verdicts


def _subtrees(trace: dict):
    yield trace
    for c in trace["children"]:
        yield from _subtrees(c)
