"""tools/same_reports.py: the byte-identity check between two source trees."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("same_reports", ROOT / "tools" / "same_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# every shipped system under every golden flag set
SHIPPED_RUNS = len(_tool().runs([]))


def test_a_tree_matches_itself(capsys):
    src = str(ROOT / "src")
    assert _tool().main([src, src]) == 0
    assert capsys.readouterr().out == f"{SHIPPED_RUNS} runs, 0 differ\n"


def test_a_tree_that_prints_one_line_differs_on_every_run(tmp_path, capsys):
    stub = tmp_path / "hodp"
    stub.mkdir()
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text("def main(argv=None):\n    print('stub')\n    return 0\n")
    assert _tool().main([str(ROOT / "src"), str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{SHIPPED_RUNS} runs, {SHIPPED_RUNS} differ"
    assert len(lines) == SHIPPED_RUNS + 1
    assert all(line.startswith("differs: ") for line in lines[:-1])


def test_manifest_instances_run_in_both_report_formats(tmp_path):
    instances = [
        {"name": "a", "file": "a.hodp", "flags": ["--json", "--precedence", "f>g"]},
        {"name": "b", "file": "b.hodp", "flags": ["--trace", "--disprove"]},
    ]
    (tmp_path / "manifest.json").write_text(json.dumps(instances))
    assert _tool().runs([str(tmp_path)])[SHIPPED_RUNS:] == [
        ("a --json --precedence f>g", ["check", "a.hodp", "--json", "--precedence", "f>g"]),
        ("a --trace --precedence f>g", ["check", "a.hodp", "--trace", "--precedence", "f>g"]),
        ("b --trace --disprove", ["check", "b.hodp", "--trace", "--disprove", "--dot", "graph.dot"]),
        ("b --json --disprove", ["check", "b.hodp", "--json", "--disprove", "--dot", "graph.dot"]),
    ]
