"""Compare what two hodp source trees print, run for run.

    python3 tools/same_reports.py OLD_SRC NEW_SRC [MANIFEST_DIR ...]

OLD_SRC and NEW_SRC are directories that hold the `hodp` package (the
`src` of two checkouts).  Both trees run the same list of runs:

- each argv of ARGV_EDGES, which sit on either side of the line between
  the plain argv reader of hodp.cli and argparse: help, usage errors,
  `=` forms, `--`, a value that starts with a blank, a missing file;
- every system under systems/ with each flag set of tests/test_golden.py;
- every instance of each MANIFEST_DIR/manifest.json, as
  `bench/workloads.py --out MANIFEST_DIR` writes them, twice: with its
  flags, and with its report flag swapped (`--json` for `--trace` and
  back), so that each instance is compared in both report formats;
- MUTANTS_PER_SYSTEM mutants of every system under systems/, each made
  by 1 to 4 random edits from the constant MUTATION_SEED, with --json.
  Most of them fail to parse, so the error paths are compared too;
- TYPED_RULES systems of the fixed signature TYPED_SIGNATURE of
  tests/gen.py and one rule line of its `random_rule_line` each, from the
  constant TYPED_SEED, with --json.  The lines are well formed, so each
  reaches the rule typing, and most fail there: the error messages with
  their `?n` are compared, which the mutants barely reach;
- HO_SYSTEMS higher-order systems of `random_ho_system` in tests/gen.py,
  from the constant HO_SEED, under each flag set of HO_FLAG_SETS.  Their
  lambdas reach the ordering's binder clauses and the engine's beta
  steps, which the shipped systems and the bench manifests barely touch;
- BINDER_SYSTEMS systems of `binder_ho_system` in tests/gen.py, from the
  constant BINDER_SEED, under each flag set of HO_FLAG_SETS.  Their left
  sides put a variable under a binder and their right sides hold beta
  redexes, so their reports print beta witnesses, lam derivations and
  beta steps, which no other generated system gives;
- each of the WIDE_SYSTEMS of tests/gen.py under each flag set of
  WIDE_FLAG_SETS.  Their states have many successors each, so the order
  in which exploration visits steps shows in the --dot graph, and a plain
  run visits steps that exploration makes only as it backtracks; no
  state of a bench instance has more than one.
- CHAIN_SYSTEMS chain systems of `chain_text` in tests/gen.py, of 5 and 6
  defined symbols in turn, every third with a lex head, then CHAIN_SYSTEMS
  more with 2 and 3 two-argument heads in turn, some of them lex heads
  and the others heads that hold under either status, all from the
  constant CHAIN_SEED, under each flag set of CHAIN_FLAG_SETS.  Their
  certificates repeat witnesses at several depths, which each report
  prints once and re-indents, so this compares that printing without the
  bench manifests; those of the second family take a status assignment
  that the search reaches neither first nor last;
- FO_SYSTEMS first-order systems of `random_fo_trs` in tests/gen.py, from
  the constant FO_SEED, under each flag set of FO_FLAG_SETS.  Each one
  declares f0 and c0, so the last flag set gives every one a hint.
  Their runs compare the precedence search, its witnesses and the hint
  check on the systems whose certificates the constraint solver of
  ROADMAP item 2 is to match.

Apart from ARGV_EDGES, a run is `hodp.cli.main(["check", FILE, *flags])`;
when the flags hold `--disprove` it is made twice, with `--dot` added and
without it, since a graph asks exploration for every step of each state
it expands, and a plain run only for those the search reaches.  Each
tree does all its runs in one Python subprocess started with -B, so
neither tree gets bytecode written into it, and both run in one
temporary directory, where the mutants, the typed rule lines, the
higher-order, binder, wide, chain and first-order systems are written.
Stdout without its timing lines (the text `elapsed:` line and the JSON
`"seconds"` line), stderr, the exit code and the --dot file are compared.
The runs that differ are listed; the exit code is 1 if any do, else 0.
Only the standard library is used, apart from tests/gen.py, which gives
the typed rule lines, the higher-order, binder, wide, chain and first-order
systems and runs on the hodp of this checkout.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import tempfile
from collections.abc import Iterable

ROOT = pathlib.Path(__file__).resolve().parents[1]
MAP = str(ROOT / "systems" / "map.hodp")
ARGV_EDGES = (
    ["--help"],
    ["check", "--help"],
    ["check", MAP, "--unknown"],
    ["check", MAP, "--js"],
    ["check", MAP, "--precedence=a>b"],
    ["check", MAP, "--precedence=map>cons"],
    ["check", MAP, "--max-symbols", " -1"],
    ["check", "--", MAP],
    ["check", "no-such-file.hodp"],
    ["check", MAP, "--internal", "none"],
)
SWAPPED = {"--json": "--trace", "--trace": "--json"}  # the two report formats
MUTATION_SEED = 1
MUTANTS_PER_SYSTEM = 50
TYPED_SEED = 1
TYPED_RULES = 200
HO_SEED = 1
HO_SYSTEMS = 40
# the explore budgets of tests/test_cli.py: under the default ones, some
# generated systems grow until memory runs out
HO_FLAG_SETS = (["--trace"], ["--json", "--disprove", "--explore-depth", "6", "--explore-nodes", "40"])
BINDER_SEED = 1
BINDER_SYSTEMS = 24
# a depth at which the wide systems finish, in both report formats
WIDE_FLAG_SETS = tuple(
    [report, "--disprove", "--explore-depth", "5", "--explore-nodes", "2000"]
    for report in ("--trace", "--json")
)
CHAIN_SEED = 1
CHAIN_SYSTEMS = 12
CHAIN_FLAG_SETS = (["--json"], ["--trace"])
FO_SEED = 1
FO_SYSTEMS = 60
FO_FLAG_SETS = (["--json"], ["--trace"], ["--trace", "--precedence", "f0>c0"])
# what an insertion adds: the input format's punctuation and keywords,
# identifier characters, line breaks, and characters it rejects
INSERTS = (
    "(", ")", ":", "\\", ".", ">", "->", "#", " ", "\t", "\n", "'", "_", "-",
    "X", "x", "0", "N", "s", "é", "rule ", "sort ", "prec ", "\\x. ", " -> ",
)

# Runs inside each tree's subprocess: the runs come as JSON on stdin, the
# results go as JSON to the real stdout once every run is done.
CHILD = r"""
import contextlib, io, json, os, sys
from hodp.cli import main

results = []
for flags in json.load(sys.stdin):
    if os.path.exists("graph.dot"):
        os.remove("graph.dot")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(flags)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    dot = None
    if os.path.exists("graph.dot"):
        with open("graph.dot", encoding="utf-8") as handle:
            dot = handle.read()
    results.append([out.getvalue(), err.getvalue(), code, dot])
json.dump(results, sys.__stdout__)
"""


def golden_flag_sets() -> dict[str, list[str]]:
    """`FLAG_SETS` of tests/test_golden.py, read from its source."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FLAG_SETS"]:
            flag_sets = ast.literal_eval(node.value)
            return {name: list(flags) for name, (flags, _) in flag_sets.items()}
    raise SystemExit("tests/test_golden.py defines no FLAG_SETS")


def runs(manifest_dirs: list[str]) -> list[tuple[str, list[str]]]:
    """(label, argv) of every run, in a fixed order: ARGV_EDGES first."""
    out, flag_sets = [], golden_flag_sets()
    for path in sorted((ROOT / "systems").glob("*.hodp")):
        for name, flags in flag_sets.items():
            out.append((f"{path.stem} [{name}]", [str(path), *flags]))
    for directory in manifest_dirs:
        manifest = pathlib.Path(directory) / "manifest.json"
        for inst in json.loads(manifest.read_text(encoding="utf-8")):
            swapped = [SWAPPED.get(f, f) for f in inst["flags"]]
            for flags in (inst["flags"], swapped):
                out.append((f"{inst['name']} {' '.join(flags)}", [inst["file"], *flags]))
    edges = [(f"hodp {shlex.join(argv)}", list(argv)) for argv in ARGV_EDGES]
    return edges + [run for label, argv in out for run in check_runs(label, argv)]


def check_runs(label: str, argv: list[str]) -> list[tuple[str, list[str]]]:
    """(label, argv) of `check` with argv, and, when argv holds --disprove,
    of `check` with argv and `--dot` too."""
    out = [(label, ["check", *argv])]
    if "--disprove" in argv:
        out.append((f"{label} --dot graph.dot", ["check", *argv, "--dot", "graph.dot"]))
    return out


def mutate(text: str, rng: random.Random) -> str:
    """text after 1 to 4 edits, each of which deletes a character, swaps
    two, or inserts an item of INSERTS."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        edit = rng.randrange(3) if chars else 2
        if edit == 0:
            del chars[rng.randrange(len(chars))]
        elif edit == 1:
            i, j = rng.randrange(len(chars)), rng.randrange(len(chars))
            chars[i], chars[j] = chars[j], chars[i]
        else:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(INSERTS))
    return "".join(chars)


def mutant_runs(directory: str) -> list[tuple[str, list[str]]]:
    """Writes the mutants of every shipped system into directory and
    returns (label, argv) of their runs, which name them relative to it."""
    rng, out = random.Random(MUTATION_SEED), []
    for path in sorted((ROOT / "systems").glob("*.hodp")):
        text = path.read_text(encoding="utf-8")
        for k in range(MUTANTS_PER_SYSTEM):
            name = f"{path.stem}-mutant{k}.hodp"
            (pathlib.Path(directory) / name).write_text(mutate(text, rng), encoding="utf-8")
            out.append((f"{name} --json", ["check", name, "--json"]))
    return out


def _import_tests() -> None:
    """Make hodp and tests/gen.py importable."""
    for path in (str(ROOT / "src"), str(ROOT / "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)


def typed_runs(directory: str) -> list[tuple[str, list[str]]]:
    """Writes the systems of the typed rule lines into directory and
    returns (label, argv) of their runs, which name them relative to it."""
    _import_tests()
    from gen import TYPED_SIGNATURE, random_rule_line

    rng, out = random.Random(TYPED_SEED), []
    for k in range(TYPED_RULES):
        name = f"typed{k}.hodp"
        text = TYPED_SIGNATURE + random_rule_line(rng)
        (pathlib.Path(directory) / name).write_text(text, encoding="utf-8")
        out.append((f"{name} --json", ["check", name, "--json"]))
    return out


def written_runs(directory: str, systems: Iterable[tuple[str, str]], flag_sets) -> list[tuple[str, list[str]]]:
    """Writes each (name, text) of systems into directory and returns
    (label, argv) of its runs under flag_sets, which name it relative to
    directory."""
    out = []
    for name, text in systems:
        (pathlib.Path(directory) / name).write_text(text, encoding="utf-8")
        for flags in flag_sets:
            out += check_runs(f"{name} {' '.join(flags)}", [name, *flags])
    return out


def ho_runs(directory: str) -> list[tuple[str, list[str]]]:
    """The runs of the higher-order systems, written into directory."""
    _import_tests()
    from gen import random_ho_system, system_text

    rng = random.Random(HO_SEED)
    systems = ((f"ho{k}.hodp", system_text(random_ho_system(rng))) for k in range(HO_SYSTEMS))
    return written_runs(directory, systems, HO_FLAG_SETS)


def binder_runs(directory: str) -> list[tuple[str, list[str]]]:
    """The runs of the binder systems, written into directory."""
    _import_tests()
    from gen import binder_ho_system, system_text

    rng = random.Random(BINDER_SEED)
    systems = ((f"binder{k}.hodp", system_text(binder_ho_system(rng))) for k in range(BINDER_SYSTEMS))
    return written_runs(directory, systems, HO_FLAG_SETS)


def wide_runs(directory: str) -> list[tuple[str, list[str]]]:
    """The runs of the wide systems, written into directory."""
    _import_tests()
    from gen import WIDE_SYSTEMS

    systems = ((f"wide-{stem}.hodp", text) for stem, text in WIDE_SYSTEMS.items())
    return written_runs(directory, systems, WIDE_FLAG_SETS)


def chain_runs(directory: str) -> list[tuple[str, list[str]]]:
    """The runs of the chain systems, written into directory."""
    _import_tests()
    from gen import chain_text

    rng = random.Random(CHAIN_SEED)
    systems = [(f"chain{k}.hodp", chain_text(rng, 5 + k % 2, lex=k % 3 == 2)) for k in range(CHAIN_SYSTEMS)]
    systems += [
        (f"chain-binary{k}.hodp", chain_text(rng, 5 + k % 2, binary=2 + k % 2)) for k in range(CHAIN_SYSTEMS)
    ]
    return written_runs(directory, systems, CHAIN_FLAG_SETS)


def fo_runs(directory: str) -> list[tuple[str, list[str]]]:
    """The runs of the first-order systems, written into directory."""
    _import_tests()
    from gen import random_fo_trs, system_text

    rng = random.Random(FO_SEED)
    systems = ((f"fo{k}.hodp", system_text(random_fo_trs(rng)[0])) for k in range(FO_SYSTEMS))
    return written_runs(directory, systems, FO_FLAG_SETS)


def run_tree(src: str, argvs: list[list[str]], cwd: str) -> list[list]:
    """Every run of argvs in one subprocess that imports hodp from src."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(src).resolve()))
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
    if done.returncode != 0:
        raise SystemExit(f"the runs under {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def untimed(report: str) -> str:
    return "".join(
        line
        for line in report.splitlines(keepends=True)
        if not line.startswith("elapsed:") and '"seconds":' not in line
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("manifest_dirs", nargs="*", metavar="MANIFEST_DIR")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as cwd:
        labelled = runs(args.manifest_dirs) + mutant_runs(cwd) + typed_runs(cwd)
        labelled += ho_runs(cwd) + binder_runs(cwd) + wide_runs(cwd) + chain_runs(cwd) + fo_runs(cwd)
        argvs = [argv for _, argv in labelled]
        old, new = run_tree(args.old_src, argvs, cwd), run_tree(args.new_src, argvs, cwd)
    fields = ("stdout", "stderr", "exit code", "dot")
    differ = 0
    for (label, _), a, b in zip(labelled, old, new):
        a[0], b[0] = untimed(a[0]), untimed(b[0])
        changed = [f for f, x, y in zip(fields, a, b) if x != y]
        if changed:
            differ += 1
            print(f"differs: {label}: {', '.join(changed)}")
    print(f"{len(labelled)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
