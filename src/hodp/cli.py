"""Command line front end.

Exit codes: 0 when the analysis completed (whatever the verdict), 2 for
input problems, 3 when a resource or search limit was hit.
"""

from __future__ import annotations

import argparse
import sys

from hodp.engine import dot_graph
from hodp.errors import InputError, LimitError
from hodp.parser import parse_precedence_arg, parse_system
from hodp.pipeline import Options, render_json, render_text, run_pipeline


def build_arg_parser() -> argparse.ArgumentParser:
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
    check.add_argument("--json", action="store_true", help="emit the JSON report")
    check.add_argument(
        "--trace",
        action="store_true",
        help="include derivations and ordering witnesses in the text report",
    )
    check.add_argument(
        "--precedence",
        metavar="PAIRS",
        help="required precedence edges, e.g. 'map>cons,map>nil' "
        "(replaces prec lines from the file)",
    )
    check.add_argument(
        "--max-symbols",
        type=int,
        default=8,
        metavar="N",
        help="largest symbol count for exhaustive precedence search (default 8)",
    )
    check.add_argument(
        "--ge-bound",
        type=int,
        default=8,
        metavar="K",
        help="beta steps allowed in weak comparisons (default 8)",
    )
    check.add_argument(
        "--disprove",
        action="store_true",
        help="also explore seed terms for cycles",
    )
    check.add_argument(
        "--explore-depth", type=int, default=200, metavar="N",
        help="trace length bound for exploration (default 200)",
    )
    check.add_argument(
        "--explore-nodes", type=int, default=100_000, metavar="N",
        help="distinct state budget for exploration (default 100000)",
    )
    check.add_argument(
        "--internal",
        choices=("all", "rules-only"),
        default="all",
        help="steps allowed below the root in the chain relation (default all)",
    )
    check.add_argument(
        "--dot",
        metavar="PATH",
        help="write the explored graph as Graphviz (requires --disprove)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.dot and not args.disprove:
        print("error: --dot requires --disprove", file=sys.stderr)
        return 2
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        system = parse_system(text)
        precedence = (
            parse_precedence_arg(args.precedence, system)
            if args.precedence
            else None
        )
        options = Options(
            precedence=precedence,
            max_symbols=args.max_symbols,
            beta_bound=args.ge_bound,
            disprove=args.disprove,
            explore_depth=args.explore_depth,
            explore_nodes=args.explore_nodes,
            internal_beta=(args.internal == "all"),
            record_graph=bool(args.dot),
        )
        report = run_pipeline(system, options)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 3
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(dot_graph(report.graph))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(render_json(report) if args.json else render_text(report, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
