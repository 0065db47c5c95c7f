"""End-to-end analysis and report rendering.

Stages run in order: admissibility of every rule, extraction side
conditions on every dependency pair, then certificate search, which tries
the system's precedence hints first (to give other hints, replace them
with `system._replace(precedence_hints=...)`).  The verdict
is YES when all three succeed, NO when a disprove exploration replays a
cycle, and MAYBE otherwise with the first failing stage named.  The chain
relation steps only by pairs whose bound variables stay bound.

report_dict is the one walk over the analysis objects: it turns a report
into the JSON model, with fixed field names.  The JSON report prints that
model with a small emitter whose output is byte-identical to
json.dumps(model, indent=2, ensure_ascii=False), which with indent runs
Python's pure-Python encoder.  The text report (verdict on the first line)
is rendered from the same model, so the two cannot drift apart.  Each
renderer appends to one output list per report and joins it once.  Both are
deterministic except for the timing entry.  The --dot graph of an
exploration names its steps as the text witness does.  Terms are printed
through a memo, `shown`, from interned node to text, so a node shared by
many terms (the source and target of each witness step, say) is printed
once.  Witnesses and derivations are printed once per report in the same
way: the model holds one dict per distinct GtTrace or Derivation value,
and each renderer writes a dict that recurs once, then reuses its text,
re-indented, wherever it occurs again.  report_dict, each renderer and
dot_graph make their memos per call; the module keeps none between calls.
"""

from __future__ import annotations

import time
from _json import encode_basestring  # what json.encoder uses, without loading json
from collections.abc import Iterable
from typing import NamedTuple

from hodp.closure import Derivation, RuleAdmissibility, rule_admissibility
from hodp.engine import Step, Successors, bounded_explore, disprove_seeds
from hodp.ordering import (
    Certificate,
    GtTrace,
    Violation,
    search_certificate,
)
from hodp.pairs import DepPair, extract_pairs
from hodp.signature import RewriteSystem, basic_sorts
from hodp.terms import Term, alpha_canonical, show_position, show_term, show_type


class Options(NamedTuple):
    max_symbols: int = 8
    disprove: bool = False
    explore_depth: int = 200
    explore_nodes: int = 100_000
    internal_beta: bool = True
    record_graph: bool = False


class Edge(NamedTuple):
    """An explored step as the --dot graph draws it: its source and target
    states in canonical form, its kind, label and position."""

    source: Term
    target: Term
    kind: str
    label: str
    position: tuple[int, ...]


class AnalysisReport(NamedTuple):
    verdict: str  # 'YES' | 'NO' | 'MAYBE'
    stage: str | None  # failing stage when MAYBE
    system: RewriteSystem
    admissibility: tuple[RuleAdmissibility, ...]
    pairs: tuple[DepPair, ...]
    certificate: Certificate | None
    violations: tuple[Violation, ...]
    witness: dict | None
    notes: tuple[str, ...]
    elapsed: float
    graph: tuple[Edge, ...] = ()


def run_pipeline(system: RewriteSystem, options: Options | None = None) -> AnalysisReport:
    options = options or Options()
    start_time = time.perf_counter()
    notes: list[str] = []
    admissibility = tuple(rule_admissibility(r, system.signature) for r in system.rules)
    pairs = extract_pairs(system)
    certificate = None
    violations: tuple[Violation, ...] = ()
    stage: str | None = None

    if not system.rules:
        notes.append("no rules: termination is beta reduction alone")
    if not all(a.admissible for a in admissibility):
        stage = "admissibility"
    elif not all(dp.check.ok for dp in pairs):
        stage = "extraction"
    else:
        result = search_certificate(
            system, pairs, hints=system.precedence_hints, max_symbols=options.max_symbols
        )
        certificate, violations = result.certificate, result.violations
        if certificate is None:
            stage = "ordering"
            notes.append("no certificate within the configured search limits")

    verdict = "YES" if stage is None else "MAYBE"

    witness = None
    graph: dict[Edge, None] = {}  # each edge once, states modulo alpha
    if options.disprove:
        seeds = disprove_seeds(system)
        table = {}  # the redex table both relations read
        bound = tuple(dp for dp in pairs if dp.check.variables_ok)
        for relation, successors in (
            ("rewrite", Successors(system, None, True, table)),
            ("chain", Successors(system, bound, options.internal_beta, table)),
        ):
            for seed in seeds:
                result = bounded_explore(
                    seed,
                    successors,
                    max_depth=options.explore_depth,
                    max_nodes=options.explore_nodes,
                    record=options.record_graph,
                )
                for step in result.edges:  # each target built once, here
                    source, target = alpha_canonical(step.source), alpha_canonical(step.target)
                    graph[Edge(source, target, step.kind, step.label, step.position)] = None
                if result.kind == "cycle":
                    witness = {
                        "relation": relation,
                        "start": seed,
                        "trace": result.trace,
                    }
                    break
                detail = (
                    f" (longest trace {result.longest})"
                    if result.kind == "all-terminated"
                    else ""
                )
                notes.append(
                    f"{relation} exploration from {show_term(seed)}: {result.kind}{detail}"
                )
            if witness is not None:
                break
        if witness is not None:
            verdict = "NO"
            stage = None

    elapsed = time.perf_counter() - start_time
    return AnalysisReport(
        verdict,
        stage,
        system,
        admissibility,
        pairs,
        certificate,
        violations,
        witness,
        tuple(notes),
        elapsed,
        tuple(graph),
    )


# ---------------------------------------------------------------- the model


def _derivation_dict(d: Derivation, shown: dict[Term, str], memo: dict, recurring: dict) -> dict:
    out = memo.get(d)
    if out is not None:
        recurring[id(out)] = None
        return out
    out = {"step": d.step, "term": show_term(d.term, shown)}
    if d.index is not None:
        out["index"] = d.index
    if d.variable is not None:
        out["variable"] = d.variable.name
    out["premises"] = [_derivation_dict(p, shown, memo, recurring) for p in d.premises]
    memo[d] = out
    return out


def _trace_dict(g: GtTrace, memo: dict, recurring: dict) -> dict:
    out = memo.get(g)
    if out is not None:
        recurring[id(out)] = None
        return out
    out = memo[g] = {
        "clause": g.clause,
        "detail": [show_position(x) if isinstance(x, tuple) else x for x in g.detail],
        "children": [_trace_dict(c, memo, recurring) for c in g.children],
    }
    return out


def _weak_dict(w: GtTrace, memo: dict, recurring: dict) -> dict:
    # A rule witness is never alpha: a rule whose sides are alpha-equal has
    # a pair at the root between alpha-equal sides, which no certificate
    # orients.  kind and the always empty beta_path are part of the format.
    return {"kind": "strict", "beta_path": [], "strict": _trace_dict(w, memo, recurring)}


def _step_dict(s: Step, shown: dict[Term, str]) -> dict:
    return {
        "kind": s.kind,
        "label": s.label,
        "position": show_position(s.position),
        "from": show_term(s.source, shown),
        "to": show_term(s.target, shown),
    }


def report_dict(report: AnalysisReport, recurring: dict[int, None] | None = None) -> dict:
    """The JSON model of report.  Each term node is printed once, and each
    GtTrace or Derivation value (never equal to each other: their lengths
    differ) becomes one dict, shared wherever it recurs; recurring, when
    given, gets the id of each such dict that occurs more than once."""
    shown: dict[Term, str] = {}
    memo: dict[tuple, dict] = {}
    recurring = {} if recurring is None else recurring
    sig = report.system.signature
    basics = basic_sorts(sig)
    cert = report.certificate
    witness = report.witness
    return {
        "verdict": report.verdict,
        "stage": report.stage,
        "signature": {
            "sorts": [{"name": s, "basic": s in basics} for s in sig.sorts],
            "symbols": [
                {
                    "name": n,
                    "type": show_type(sig.symbols[n]),
                    "defined": n in sig.defined,
                    "accessible": sorted(sig.accessible[n]),
                }
                for n in sorted(sig.symbols)
            ],
        },
        "rules": [
            {
                "name": a.rule.name,
                "lhs": show_term(a.rule.lhs, shown),
                "rhs": show_term(a.rule.rhs, shown),
                "admissible": a.admissible,
                "closure_size": a.closure_size,
                "variables": [
                    {
                        "name": v.name,
                        "type": show_type(v.type),
                        "derivable": d is not None,
                        "derivation": _derivation_dict(d, shown, memo, recurring) if d is not None else None,
                    }
                    for v, d in a.entries
                ],
            }
            for a in report.admissibility
        ],
        "pairs": [
            {
                "name": dp.name,
                "rule": dp.rule.name,
                "position": show_position(dp.position),
                "lhs": show_term(dp.lhs, shown),
                "rhs": show_term(dp.rhs, shown),
                "conditions": {
                    "ok": dp.check.ok,
                    "variables_ok": dp.check.variables_ok,
                    "escaped": [v.name for v in dp.check.escaped],
                    "type_ok": dp.check.type_ok,
                    "lhs_type": show_type(dp.check.lhs_type),
                    "extracted_type": show_type(dp.check.extracted_type),
                },
            }
            for dp in report.pairs
        ],
        "certificate": (
            {
                "precedence": [list(e) for e in cert.edges],
                "statuses": {n: s for n, s in cert.statuses},
                "rules": [
                    {"name": n, "witness": _weak_dict(w, memo, recurring)}
                    for n, w in cert.rule_witnesses
                ],
                "pairs": [
                    {"name": n, "witness": _trace_dict(g, memo, recurring)}
                    for n, g in cert.pair_witnesses
                ],
            }
            if cert is not None
            else None
        ),
        "violations": [
            {
                "kind": v.kind,
                "label": v.label,
                "lhs": show_term(v.lhs, shown),
                "rhs": show_term(v.rhs, shown),
            }
            for v in report.violations
        ],
        "witness": (
            {
                "relation": witness["relation"],
                "start": show_term(witness["start"], shown),
                "trace": [_step_dict(s, shown) for s in witness["trace"]],
            }
            if witness is not None
            else None
        ),
        "notes": list(report.notes),
        "timing": {"seconds": round(report.elapsed, 6)},
    }


_SCALARS = {None: "null", True: "true", False: "false"}
# the text of a scalar of each type, as json.encoder writes it
_SCALAR_TEXT = {str: encode_basestring, int: int.__repr__, float: float.__repr__}
_SCALAR_TEXT.update({bool: _SCALARS.__getitem__, type(None): _SCALARS.__getitem__})


def _json(value, texts: dict | None = None) -> str:
    """value as json.dumps(value, indent=2, ensure_ascii=False) writes it.

    value is built from dicts with str keys, lists, str, int, finite float,
    bool and None.  Anything else, a tuple too, is a TypeError, so that
    json.loads of the output gives back value itself.  texts maps the id of
    each container that recurs in value to None (see _emit).
    """
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    if not value:
        return _empty(value)
    out: list[str] = []
    _emit(value, out, "\n", {} if texts is None else texts)
    return "".join(out)


def _empty(value) -> str:
    if type(value) is dict or type(value) is list:
        return "{}" if type(value) is dict else "[]"
    raise TypeError(f"not part of the report model: {type(value).__name__}")


def _emit(value: dict | list, out: list[str], indent: str, texts: dict) -> None:
    """Append the text of value, a non-empty container whose lines go at
    indent, to out; a scalar goes in one piece with its key or separator.
    A container in texts is written once, at no indent, into the text that
    texts then maps it to; each occurrence is that text, re-indented."""
    text = texts.get(id(value), False)
    if text:
        out.append(text.replace("\n", indent))
        return
    if text is None:
        base, indent, start = indent, "\n", len(out)
    inner = indent + "  "
    comma = "," + inner
    if type(value) is dict:
        sep = "{" + inner
        for k, v in value.items():
            scalar = _SCALAR_TEXT.get(type(v))
            if scalar is not None:
                out.append(f"{sep}{encode_basestring(k)}: {scalar(v)}")
            elif not v:
                out.append(f"{sep}{encode_basestring(k)}: {_empty(v)}")
            else:
                out.append(f"{sep}{encode_basestring(k)}: ")
                _emit(v, out, inner, texts)
            sep = comma
        out.append(indent + "}")
    elif type(value) is list:
        sep = "[" + inner
        for v in value:
            scalar = _SCALAR_TEXT.get(type(v))
            if scalar is not None:
                out.append(sep + scalar(v))
            elif not v:
                out.append(sep + _empty(v))
            else:
                out.append(sep)
                _emit(v, out, inner, texts)
            sep = comma
        out.append(indent + "]")
    else:
        raise TypeError(f"not part of the report model: {type(value).__name__}")
    if text is None:
        text = texts[id(value)] = "".join(out[start:])
        out[start:] = (text.replace("\n", base),)


def render_json(report: AnalysisReport) -> str:
    recurring: dict[int, None] = {}
    return _json(report_dict(report, recurring), recurring) + "\n"


# ------------------------------------------------------------- text report


def _witness_lines(node: dict, pad: str, lines: list[str], texts: dict) -> None:
    """Append the lines of a trace or derivation dict, at pad, to lines,
    each child two spaces deeper.  A node in texts is written once, as in
    _emit."""
    text = texts.get(id(node), False)
    if text:
        lines.append(pad + text.replace("\n", "\n" + pad))
        return
    if text is None:
        base, pad, start = pad, "", len(lines)
    if "clause" in node:
        detail = ", ".join(str(x) for x in node["detail"])
        lines.append(f"{pad}{node['clause']}({detail})" if detail else pad + node["clause"])
        children = node["children"]
    else:
        param = node.get("index", node.get("variable"))
        param = "" if param is None else f"({param})"
        lines.append(f"{pad}{node['step']}{param}: {node['term']}")
        children = node["premises"]
    for c in children:
        _witness_lines(c, pad + "  ", lines, texts)
    if text is None:
        text = texts[id(node)] = "\n".join(lines[start:])
        lines[start:] = (base + text.replace("\n", "\n" + base),)


def _weak_lines(w: dict, pad: str, lines: list[str], texts: dict) -> None:
    lines.append(pad + "strict:")
    _witness_lines(w["strict"], pad + "  ", lines, texts)


def _step_label(kind: str, label: str, position: str) -> str:
    """A step as witness lines and --dot edges name it: kind@position."""
    return f"{kind if kind == 'beta' else f'{kind}({label})'}@{position}"


def render_text(report: AnalysisReport, show_traces: bool = False) -> str:
    texts: dict = {}
    r = report_dict(report, texts)
    sig = r["signature"]
    lines = [r["verdict"]]
    if r["stage"] is not None:
        lines.append(f"stage: {r['stage']}")
    sorts = " ".join(s["name"] for s in sig["sorts"])
    basic_note = " ".join(s["name"] for s in sig["sorts"] if s["basic"]) or "none"
    lines.append(f"sorts: {sorts}  (basic: {basic_note})")
    lines.append("symbols:")
    for s in sig["symbols"]:
        role = "defined" if s["defined"] else "constructor"
        acc = ",".join(map(str, s["accessible"])) or "none"
        lines.append(f"  {s['name']} : {s['type']}  [{role}, accessible {acc}]")
    lines.append("rules:")
    if not r["rules"]:
        lines.append("  none")
    for rule in r["rules"]:
        lines.append(f"  {rule['name']}: {rule['lhs']} -> {rule['rhs']}")
        if rule["admissible"]:
            lines.append(f"    admissible (closure size {rule['closure_size']})")
        else:
            miss = ", ".join(v["name"] for v in rule["variables"] if not v["derivable"])
            lines.append(f"    not admissible: cannot derive {miss}")
        if show_traces:
            for v in rule["variables"]:
                if v["derivation"] is not None:
                    lines.append(f"    {v['name']}:")
                    _witness_lines(v["derivation"], "      ", lines, texts)
    lines.append("dependency pairs:")
    if not r["pairs"]:
        lines.append("  none")
    for dp in r["pairs"]:
        lines.append(
            f"  {dp['name']}: {dp['lhs']} -> {dp['rhs']}"
            f"  at {dp['position']}  [rule {dp['rule']}]"
        )
        c = dp["conditions"]
        if c["ok"]:
            lines.append("    conditions ok")
        else:
            problems = []
            if not c["variables_ok"]:
                problems.append(f"bound variable {', '.join(c['escaped'])} escapes")
            if not c["type_ok"]:
                problems.append(
                    f"type {c['extracted_type']} differs from {c['lhs_type']}"
                )
            lines.append(f"    conditions fail: {'; '.join(problems)}")
    cert = r["certificate"]
    if cert is not None:
        lines.append("certificate:")
        edges = ", ".join(f"{a} > {b}" for a, b in cert["precedence"])
        lines.append(f"  precedence: {edges or 'empty'}")
        if cert["statuses"]:
            lines.append(
                "  statuses: " + ", ".join(f"{n}/{s}" for n, s in cert["statuses"].items())
            )
        if show_traces:
            for w in cert["rules"]:
                lines.append(f"  {w['name']} weakly decreases:")
                _weak_lines(w["witness"], "    ", lines, texts)
            for w in cert["pairs"]:
                lines.append(f"  {w['name']} strictly decreases:")
                _witness_lines(w["witness"], "    ", lines, texts)
    else:
        lines.append("certificate: none")
    for v in r["violations"]:
        what = "not weakly decreasing" if v["kind"] == "rule" else "not strictly decreasing"
        lines.append(f"  violation: {v['label']} {what}: {v['lhs']} -> {v['rhs']}")
    witness = r["witness"]
    if witness is not None:
        lines.append(
            f"nontermination witness ({witness['relation']} relation) "
            f"from {witness['start']}:"
        )
        for s in witness["trace"]:
            step = _step_label(s["kind"], s["label"], s["position"])
            lines.append(f"  {step}: {s['from']} => {s['to']}")
    if r["notes"]:
        lines.append("notes:")
        for n in r["notes"]:
            lines.append(f"  - {n}")
    lines.append(f"elapsed: {report.elapsed:.4f}s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- dot


def dot_graph(edges: Iterable[Edge]) -> str:
    """Graphviz rendering of explored edges.  Each edge and state is drawn
    as given: run_pipeline collects every edge once, with its states in
    canonical form, so states equal modulo alpha are one node and drawing
    builds none.  States are printed through one memo, as in report_dict."""
    shown: dict[Term, str] = {}
    ids: dict[Term, int] = {}
    lines = ["digraph exploration {", '  node [shape=box, fontname="monospace"];']

    def node(t: Term) -> int:
        if t not in ids:
            ids[t] = len(ids)
            label = show_term(t, shown).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{ids[t]} [label="{label}"];')
        return ids[t]

    for s in edges:
        a, b = node(s.source), node(s.target)
        label = _step_label(s.kind, s.label, show_position(s.position))
        lines.append(f'  n{a} -> n{b} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
