"""Report bytes for the shipped systems, pinned.

Every system under systems/ is checked with --disprove under four flag
sets, and map once more under a precedence hint it cannot satisfy, in
text with --trace and in JSON.  The report, without its timing line, and
the --dot graph of each run must equal the files under tests/golden/.  Running this file as a
script rewrites those files from the current code:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import pathlib
import tempfile

import pytest

from conftest import SYSTEMS_DIR
from hodp.cli import main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

# name -> (flags, report suffix)
FLAG_SETS = {
    "json": (("--json", "--disprove"), ".json"),
    "trace": (("--trace", "--disprove"), ".txt"),
    "rules-only": (("--json", "--disprove", "--internal", "rules-only"), ".json"),
    "text": (("--disprove",), ".txt"),
    "hinted-trace": (("--trace", "--disprove", "--precedence", "cons>map"), ".txt"),
    "hinted-json": (("--json", "--disprove", "--precedence", "cons>map"), ".json"),
}

SYSTEMS = sorted(p.stem for p in SYSTEMS_DIR.glob("*.hodp"))

# (system, flag set) of every run; the hint names map's symbols, and it
# gives the only reports with a violation line
RUNS = [
    (system, flag_set)
    for system in SYSTEMS
    for flag_set in FLAG_SETS
    if not flag_set.startswith("hinted") or system == "map"
]


def _untimed(report: str) -> str:
    """The report without the text `elapsed:` line or the JSON `"seconds"`
    line."""
    return "".join(
        line
        for line in report.splitlines(keepends=True)
        if not line.startswith("elapsed:") and '"seconds":' not in line
    )


def golden_outputs(system: str, flag_set: str) -> dict[str, str]:
    """The golden file names of one run, each with the text it must hold."""
    flags, suffix = FLAG_SETS[flag_set]
    with tempfile.TemporaryDirectory() as tmp:
        dot = pathlib.Path(tmp) / "graph.dot"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(SYSTEMS_DIR / f"{system}.hodp"), *flags, "--dot", str(dot)])
        assert (code, err.getvalue()) == (0, "")
        graph = dot.read_text(encoding="utf-8")
    return {
        f"{system}.{flag_set}{suffix}": _untimed(out.getvalue()),
        f"{system}.{flag_set}.dot": graph,
    }


@pytest.mark.parametrize("system, flag_set", RUNS)
def test_report_and_graph_match_the_golden_files(system, flag_set):
    for name, text in golden_outputs(system, flag_set).items():
        assert (GOLDEN_DIR / name).read_text(encoding="utf-8") == text, name


def test_every_golden_file_belongs_to_a_run():
    expected = {
        f"{system}.{flag_set}{ext}"
        for system, flag_set in RUNS
        for ext in (FLAG_SETS[flag_set][1], ".dot")
    }
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(expected)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for old in GOLDEN_DIR.iterdir():
        old.unlink()
    for system, flag_set in RUNS:
        for name, text in golden_outputs(system, flag_set).items():
            (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
