"""End-to-end analysis and report rendering.

Stages run in order: admissibility of every rule, extraction side
conditions on every dependency pair, then certificate search.  The verdict
is YES when all three succeed, NO when a disprove exploration replays a
cycle, and MAYBE otherwise with the first failing stage named.  Reports
render as text (verdict on the first line) or JSON with fixed field names;
both are deterministic except for the timing entry.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from hodp.closure import Derivation, RuleAdmissibility, rule_admissibility
from hodp.engine import (
    Step,
    bounded_explore,
    chain_successors,
    disprove_seeds,
    format_step,
    rewrite_successors,
)
from hodp.ordering import (
    Certificate,
    GtTrace,
    Violation,
    WeakWitness,
    search_certificate,
)
from hodp.pairs import DepPair, extract_pairs
from hodp.signature import RewriteSystem, accessible_args, basic_sorts
from hodp.terms import Term, show_position, show_term, show_type


@dataclass
class Options:
    precedence: tuple[tuple[str, str], ...] | None = None  # overrides file hints
    max_symbols: int = 8
    beta_bound: int = 8
    disprove: bool = False
    explore_depth: int = 200
    explore_nodes: int = 100_000
    internal_beta: bool = True
    record_graph: bool = False


@dataclass
class AnalysisReport:
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
    graph: tuple[Step, ...] = ()


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
        hints = (
            options.precedence
            if options.precedence is not None
            else system.precedence_hints
        )
        result = search_certificate(
            system,
            pairs,
            hints=tuple(hints),
            max_symbols=options.max_symbols,
            beta_bound=options.beta_bound,
        )
        certificate, violations = result.certificate, result.violations
        if certificate is None:
            stage = "ordering"
            notes.append("no certificate within the configured search limits")

    verdict = "YES" if stage is None else "MAYBE"

    witness = None
    graph: list[Step] = []
    if options.disprove:
        seeds = disprove_seeds(system)
        for relation, successors in (
            ("rewrite", rewrite_successors(system)),
            ("chain", chain_successors(system, pairs, options.internal_beta)),
        ):
            for seed in seeds:
                result = bounded_explore(
                    seed,
                    successors,
                    max_depth=options.explore_depth,
                    max_nodes=options.explore_nodes,
                    record=options.record_graph,
                )
                if options.record_graph:
                    graph.extend(result.edges)
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


# ------------------------------------------------------------ serialization


def _derivation_dict(d: Derivation) -> dict:
    out: dict = {"step": d.step, "term": show_term(d.term)}
    if d.index is not None:
        out["index"] = d.index
    if d.variable is not None:
        out["variable"] = d.variable.name
    out["premises"] = [_derivation_dict(p) for p in d.premises]
    return out


def _trace_dict(g: GtTrace) -> dict:
    detail = [show_position(x) if isinstance(x, tuple) else x for x in g.detail]
    return {
        "clause": g.clause,
        "detail": detail,
        "children": [_trace_dict(c) for c in g.children],
    }


def _weak_dict(w: WeakWitness) -> dict:
    return {
        "kind": w.kind,
        "beta_path": [show_position(p) for p in w.beta_path],
        "strict": _trace_dict(w.strict) if w.strict is not None else None,
    }


def _step_dict(s: Step) -> dict:
    return {
        "kind": s.kind,
        "label": s.label,
        "position": show_position(s.position),
        "from": show_term(s.source),
        "to": show_term(s.target),
    }


def report_dict(report: AnalysisReport) -> dict:
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
                    "accessible": sorted(accessible_args(sig, n)),
                }
                for n in sorted(sig.symbols)
            ],
        },
        "rules": [
            {
                "name": a.rule.name,
                "lhs": show_term(a.rule.lhs),
                "rhs": show_term(a.rule.rhs),
                "admissible": a.admissible,
                "closure_size": a.closure_size,
                "variables": [
                    {
                        "name": e.variable.name,
                        "type": show_type(e.variable.type),
                        "derivable": e.derivable,
                        "derivation": (
                            _derivation_dict(e.derivation)
                            if e.derivation is not None
                            else None
                        ),
                    }
                    for e in a.entries
                ],
            }
            for a in report.admissibility
        ],
        "pairs": [
            {
                "name": dp.name,
                "rule": dp.rule.name,
                "position": show_position(dp.position),
                "lhs": show_term(dp.lhs),
                "rhs": show_term(dp.rhs),
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
                    {"name": n, "witness": _weak_dict(w)}
                    for n, w in cert.rule_witnesses
                ],
                "pairs": [
                    {"name": n, "witness": _trace_dict(g)}
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
                "lhs": show_term(v.lhs),
                "rhs": show_term(v.rhs),
            }
            for v in report.violations
        ],
        "witness": (
            {
                "relation": witness["relation"],
                "start": show_term(witness["start"]),
                "trace": [_step_dict(s) for s in witness["trace"]],
            }
            if witness is not None
            else None
        ),
        "notes": list(report.notes),
        "timing": {"seconds": round(report.elapsed, 6)},
    }


def render_json(report: AnalysisReport) -> str:
    return json.dumps(report_dict(report), indent=2, ensure_ascii=False) + "\n"


# ------------------------------------------------------------- text report


def _trace_lines(g: GtTrace, indent: int) -> list[str]:
    detail = ", ".join(
        show_position(x) if isinstance(x, tuple) else str(x) for x in g.detail
    )
    head = g.clause if not detail else f"{g.clause}({detail})"
    lines = ["  " * indent + head]
    for c in g.children:
        lines.extend(_trace_lines(c, indent + 1))
    return lines


def _derivation_lines(d: Derivation, indent: int) -> list[str]:
    param = ""
    if d.index is not None:
        param = f"({d.index})"
    elif d.variable is not None:
        param = f"({d.variable.name})"
    lines = ["  " * indent + f"{d.step}{param}: {show_term(d.term)}"]
    for p in d.premises:
        lines.extend(_derivation_lines(p, indent + 1))
    return lines


def _weak_lines(w: WeakWitness, indent: int) -> list[str]:
    pad = "  " * indent
    if w.kind == "alpha":
        path = " ".join(show_position(p) for p in w.beta_path)
        if path:
            return [pad + f"beta steps at {path}, then alpha-equal"]
        return [pad + "alpha-equal"]
    lines = []
    if w.beta_path:
        path = " ".join(show_position(p) for p in w.beta_path)
        lines.append(pad + f"beta steps at {path}, then strict:")
    else:
        lines.append(pad + "strict:")
    lines.extend(_trace_lines(w.strict, indent + 1))
    return lines


def render_text(report: AnalysisReport, show_traces: bool = False) -> str:
    sig = report.system.signature
    basics = basic_sorts(sig)
    lines = [report.verdict]
    if report.stage is not None:
        lines.append(f"stage: {report.stage}")
    basic_note = " ".join(s for s in sig.sorts if s in basics) or "none"
    lines.append(f"sorts: {' '.join(sig.sorts)}  (basic: {basic_note})")
    lines.append("symbols:")
    for n in sorted(sig.symbols):
        role = "defined" if n in sig.defined else "constructor"
        acc = ",".join(str(i) for i in sorted(accessible_args(sig, n))) or "none"
        lines.append(f"  {n} : {show_type(sig.symbols[n])}  [{role}, accessible {acc}]")
    lines.append("rules:")
    if not report.admissibility:
        lines.append("  none")
    for a in report.admissibility:
        lines.append(f"  {a.rule.name}: {a.rule.show()}")
        if a.admissible:
            lines.append(f"    admissible (closure size {a.closure_size})")
        else:
            miss = ", ".join(v.name for v in a.missing)
            lines.append(f"    not admissible: cannot derive {miss}")
        if show_traces:
            for e in a.entries:
                if e.derivation is not None:
                    lines.append(f"    {e.variable.name}:")
                    lines.extend(_derivation_lines(e.derivation, 3))
    lines.append("dependency pairs:")
    if not report.pairs:
        lines.append("  none")
    for dp in report.pairs:
        lines.append(
            f"  {dp.name}: {show_term(dp.lhs)} -> {show_term(dp.rhs)}"
            f"  at {show_position(dp.position)}  [rule {dp.rule.name}]"
        )
        c = dp.check
        if c.ok:
            lines.append("    conditions ok")
        else:
            problems = []
            if not c.variables_ok:
                names = ", ".join(v.name for v in c.escaped)
                problems.append(f"bound variable {names} escapes")
            if not c.type_ok:
                problems.append(
                    f"type {show_type(c.extracted_type)} differs from "
                    f"{show_type(c.lhs_type)}"
                )
            lines.append(f"    conditions fail: {'; '.join(problems)}")
    if report.certificate is not None:
        cert = report.certificate
        lines.append("certificate:")
        if cert.edges:
            lines.append(
                "  precedence: " + ", ".join(f"{a} > {b}" for a, b in cert.edges)
            )
        else:
            lines.append("  precedence: empty")
        if cert.statuses:
            lines.append(
                "  statuses: " + ", ".join(f"{n}/{s}" for n, s in cert.statuses)
            )
        if show_traces:
            for name, w in cert.rule_witnesses:
                lines.append(f"  {name} weakly decreases:")
                lines.extend(_weak_lines(w, 2))
            for name, g in cert.pair_witnesses:
                lines.append(f"  {name} strictly decreases:")
                lines.extend(_trace_lines(g, 2))
    else:
        lines.append("certificate: none")
    for v in report.violations:
        what = "not weakly decreasing" if v.kind == "rule" else "not strictly decreasing"
        lines.append(
            f"  violation: {v.label} {what}: {show_term(v.lhs)} -> {show_term(v.rhs)}"
        )
    if report.witness is not None:
        lines.append(
            f"nontermination witness ({report.witness['relation']} relation) "
            f"from {show_term(report.witness['start'])}:"
        )
        for s in report.witness["trace"]:
            lines.append(f"  {format_step(s)}")
    if report.notes:
        lines.append("notes:")
        for n in report.notes:
            lines.append(f"  - {n}")
    lines.append(f"elapsed: {report.elapsed:.4f}s")
    return "\n".join(lines) + "\n"
