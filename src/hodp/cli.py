"""Command line front end.

Exit codes: 0 when the analysis completed (whatever the verdict), 2 for an
InputError, for a --dot file that cannot be written, and for a stdout
whose encoding cannot write the report or that fails to take it (a full
disk, a closed pipe), 3 for a LimitError, when a resource or search limit
was hit, and for terms nested too deeply for the recursion limit.

Each option of `check` is declared once, in `_OPTIONS`, which both
readers of argv are built from.  A plain `check FILE [options]` is read
by a loop over argv; argparse reads anything else, so it alone writes
help, usage and usage errors.  `--precedence` replaces the file's `prec`
lines: main installs it as the system's precedence hints.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from hodp.errors import InputError, LimitError
from hodp.parser import parse_precedence_arg, parse_system
from hodp.pipeline import Options, dot_graph, render_json, render_text, run_pipeline

_INTERNAL = ("all", "rules-only")  # the choices of --internal
_DEFAULTS = Options()


def _internal(value: str) -> str:
    if value not in _INTERNAL:
        raise ValueError(value)
    return value


# The options of check: the attribute each sets, how the plain reader reads
# its value (None for a switch), and the rest of its argparse declaration.
_OPTIONS = {
    "--json": ("json", None, {"help": "emit the JSON report"}),
    "--trace": ("trace", None, {
        "help": "include derivations and ordering witnesses in the text report",
    }),
    "--precedence": ("precedence", str, {
        "metavar": "PAIRS",
        "help": "required precedence edges, e.g. 'map>cons,map>nil' "
        "(replaces prec lines from the file)",
    }),
    "--max-symbols": ("max_symbols", int, {
        "default": _DEFAULTS.max_symbols, "metavar": "N",
        "help": "largest symbol count for exhaustive precedence search (default %(default)s)",
    }),
    "--disprove": ("disprove", None, {"help": "also explore seed terms for cycles"}),
    "--explore-depth": ("explore_depth", int, {
        "default": _DEFAULTS.explore_depth, "metavar": "N",
        "help": "trace length bound for exploration (default %(default)s)",
    }),
    "--explore-nodes": ("explore_nodes", int, {
        "default": _DEFAULTS.explore_nodes, "metavar": "N",
        "help": "distinct state budget for exploration (default %(default)s)",
    }),
    "--internal": ("internal", _internal, {
        "choices": _INTERNAL, "default": "all",
        "help": "steps allowed below the root in the chain relation (default all)",
    }),
    "--dot": ("dot", str, {
        "metavar": "PATH",
        "help": "write the explored graph as Graphviz (requires --disprove)",
    }),
}
_BUDGETS = ("max_symbols", "explore_depth", "explore_nodes")
# the namespace of check before any item after `check` is read
_UNSET = {"command": "check", "file": None} | {
    name: declared.get("default", False if read is None else None)
    for name, read, declared in _OPTIONS.values()
}


def build_arg_parser() -> argparse.ArgumentParser:
    import argparse  # only for what _read_plain leaves to it

    parser = argparse.ArgumentParser(
        prog="hodp",
        description=(
            "Termination analysis for rewriting on simply typed lambda terms "
            "via dependency pairs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="analyse a system file")
    check.add_argument("file", help="system description")
    for option, (_, read, declared) in _OPTIONS.items():
        if read is None:
            declared = {"action": "store_true", **declared}
        elif read is int:
            declared = {"type": int, **declared}
        check.add_argument(option, **declared)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for `check FILE` with options spelled
    out in full, each value its own item and none starting with '-'; None
    for any other argv, and for one argparse would reject."""
    if not argv or argv[0] != "check":
        return None
    args = dict(_UNSET)
    items = iter(argv[1:])
    for item in items:
        if not item.startswith("-"):
            if args["file"] is not None:
                return None
            args["file"] = item
            continue
        name, read, _ = _OPTIONS.get(item, (None, None, None))
        if name is None:
            return None
        if read is None:
            args[name] = True
            continue
        value = next(items, "-")
        if value.startswith("-"):
            return None
        try:
            args[name] = read(value)
        except ValueError:
            return None
    if args["file"] is None or any(args[b] < 0 for b in _BUDGETS):
        return None
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        parser = build_arg_parser()
        args = parser.parse_args(argv)
        for budget in _BUDGETS:
            if getattr(args, budget) < 0:
                parser.error(f"argument --{budget.replace('_', '-')}: must not be negative")
    if args.dot and not args.disprove:
        print("error: --dot requires --disprove", file=sys.stderr)
        return 2
    try:
        # unbuffered bytes decoded in one call need no text layer or codec
        # lookup, and the parser ends lines itself; a leading byte-order mark
        # is not text, and stripping it costs no utf-8-sig codec import
        with open(args.file, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        system = parse_system(text)
        if args.precedence is not None:
            hints = parse_precedence_arg(args.precedence, system)
            system = system._replace(precedence_hints=hints)
        options = Options(
            max_symbols=args.max_symbols,
            disprove=args.disprove,
            explore_depth=args.explore_depth,
            explore_nodes=args.explore_nodes,
            internal_beta=(args.internal == "all"),
            record_graph=bool(args.dot),
        )
        report = run_pipeline(system, options)
        output = render_json(report) if args.json else render_text(report, args.trace)
        graph = dot_graph(report.graph) if args.dot else None
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("limit: term nesting exceeds the recursion limit", file=sys.stderr)
        return 3
    if graph is not None:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(graph)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    except UnicodeEncodeError as exc:  # the whole report is encoded before any is written
        message = f"stdout's encoding {exc.encoding} cannot write the report: {exc}"
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:  # a full disk, a closed pipe
        print(f"error: stdout cannot take the report: {exc}", file=sys.stderr)
        _discard_stdout()
        return 2
    return 0


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device.  Python flushes stdout
    again at exit, and the bytes a failed write left in its buffer may
    fail again there, print a second error and turn the exit code into
    120.  A stream without a descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
