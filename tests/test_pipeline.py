"""End to end analysis: staging, verdicts, reports, rendering."""

import collections
import json
import random
import re
import sys
from _json import encode_basestring  # as hodp.pipeline imports it

import pytest

from conftest import ESCAPING_LOOPS, SYSTEMS_DIR, load_system, system_text
from gen import chain_text, random_fo_trs, random_ho_system
from hodp import pipeline as pipeline_module
from hodp import terms as terms_module
from hodp.closure import Derivation
from hodp.engine import Step, has_alpha_repeat, replay_trace
from hodp.errors import LimitError
from hodp.ordering import GtTrace
from hodp.parser import parse_precedence_arg, parse_system
from hodp.pipeline import (
    AnalysisReport,
    Options,
    _json,
    _witness_lines,
    dot_graph,
    render_json,
    render_text,
    report_dict,
    run_pipeline,
)
from hodp.signature import basic_sorts
from hodp.terms import Term, alpha_canonical, show_position, show_term, show_type

# a loop reached after 36 steps, like the loop instances of the explore
# benchmark: ggz i steps to ggz applied to 35 nested f, and back to ggz i
LOOP = (
    "sort N\ni : N\nf : N -> N\nggz : N -> N\nrule ggz (f X) -> ggz X\n"
    f"rule ggz i -> ggz {'(f ' * 35}i{')' * 35}\n"
)

EXPECTED = {
    "map": ("YES", None),
    "plus": ("YES", None),
    "minus": ("YES", None),
    "twice": ("YES", None),
    "filter": ("YES", None),
    "beta_only": ("YES", None),
    "foldr": ("MAYBE", "ordering"),
    "lim": ("MAYBE", "admissibility"),
}


class TestVerdicts:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_shipped_systems(self, name):
        verdict, stage = EXPECTED[name]
        report = run_pipeline(load_system(name), Options())
        assert report.verdict == verdict
        assert report.stage == stage

    def test_certificates_of_positive_systems(self):
        certs = {}
        for name, (verdict, _) in EXPECTED.items():
            if verdict != "YES":
                continue
            report = run_pipeline(load_system(name), Options())
            certs[name] = (report.certificate.edges, report.certificate.statuses)
        assert certs == {
            "map": ((("map", "cons"),), (("map", "mul"),)),
            "plus": ((("plus", "s"),), (("plus", "mul"),)),
            "minus": ((), (("minus", "mul"),)),
            "twice": ((), (("twice", "mul"),)),
            "filter": (
                (("filter", "cons"), ("filter", "if")),
                (("filter", "mul"), ("if", "mul")),
            ),
            "beta_only": ((), ()),
        }

    def test_failed_search_is_explained_in_the_notes(self):
        report = run_pipeline(load_system("foldr"), Options())
        assert report.certificate is None
        assert any("no certificate" in n for n in report.notes)


class TestStaging:
    def test_inadmissible_rule_sets_the_stage(self):
        report = run_pipeline(load_system("lim"), Options())
        d = report_dict(report)
        assert d["stage"] == "admissibility"
        r1 = d["rules"][0]
        assert r1["admissible"] is False
        by_name = {v["name"]: v for v in r1["variables"]}
        assert by_name["F"]["derivable"] is False
        assert by_name["F"]["derivation"] is None
        assert by_name["X"]["derivable"] is True

    def test_extraction_diagnostics_still_appear(self):
        d = report_dict(run_pipeline(load_system("lim"), Options()))
        d1 = d["pairs"][0]
        assert d1["position"] == "2.1"
        assert d1["conditions"]["escaped"] == ["n"]
        assert d1["conditions"]["variables_ok"] is False
        assert d1["conditions"]["type_ok"] is True

    def test_extraction_stage_label(self):
        text = (
            "sort N\n"
            "0 : N\n"
            "c : N -> N -> N\n"
            "h : (N -> N) -> N\n"
            "g : (N -> N) -> N\n"
            "rule g F -> h (\\n:N. c n (g (\\m:N. c n m)))\n"
        )
        report = run_pipeline(parse_system(text), Options())
        assert report.verdict == "MAYBE"
        assert report.stage == "extraction"


class TestPrecedenceHints:
    def test_good_hint_is_used_directly(self):
        system = load_system("map")
        prec = parse_precedence_arg("map>cons", system)
        report = run_pipeline(system._replace(precedence_hints=prec))
        assert report.verdict == "YES"
        assert report.certificate.edges == (("map", "cons"),)

    def test_bad_hint_reports_violations(self):
        system = load_system("map")
        prec = parse_precedence_arg("cons>map", system)
        report = run_pipeline(system._replace(precedence_hints=prec))
        assert report.verdict == "MAYBE"
        assert report.stage == "ordering"
        assert [(v.kind, v.label) for v in report.violations] == [("rule", "r2")]

    def test_hints_in_the_file_are_honored(self):
        text = system_text("map") + "prec map > cons\n"
        report = run_pipeline(parse_system(text), Options())
        assert report.verdict == "YES"
        assert report.certificate.edges == (("map", "cons"),)

    def test_partial_hint_is_extended(self):
        # filter needs two edges; hinting one of them still succeeds
        system = load_system("filter")
        prec = parse_precedence_arg("filter>cons", system)
        report = run_pipeline(system._replace(precedence_hints=prec))
        assert report.verdict == "YES"
        assert ("filter", "if") in report.certificate.edges

    def test_good_hint_is_tried_before_the_symbol_limit(self):
        system = load_system("map")
        prec = parse_precedence_arg("map>cons", system)
        report = run_pipeline(system._replace(precedence_hints=prec), Options(max_symbols=1))
        assert report.verdict == "YES"

    def test_symbol_limit_surfaces_as_an_error(self):
        with pytest.raises(LimitError):
            run_pipeline(load_system("map"), Options(max_symbols=1))


class TestDisproving:
    def test_selfloop_is_refuted(self):
        report = run_pipeline(load_system("selfloop"), Options(disprove=True))
        assert report.verdict == "NO"
        assert report.stage is None
        assert report.witness["relation"] == "rewrite"
        trace = report.witness["trace"]
        assert len(trace) == 1

    def test_recursion_limit_is_restored(self):
        before = sys.getrecursionlimit()
        run_pipeline(load_system("selfloop"), Options(disprove=True, explore_depth=400))
        assert sys.getrecursionlimit() == before

    def test_deep_exploration_ends_at_the_bound(self):
        text = "sort N\ns : N -> N\nf : N -> N\nrule f X -> f (s X)\n"
        report = run_pipeline(parse_system(text), Options(disprove=True, explore_depth=400))
        assert report.verdict == "MAYBE"
        assert report.witness is None
        assert any(n.endswith(": bound-exceeded") for n in report.notes)

    @pytest.mark.parametrize(
        "rule, depth",
        [("f X -> f (s X)", 2000), ("f X -> g (f (s X))", 450)],
        ids=["shared-spine", "new-spine"],
    )
    def test_deeper_explorations_end_at_the_bound(self, rule, depth):
        text = f"sort N\ns : N -> N\ng : N -> N\nf : N -> N\nrule {rule}\n"
        report = run_pipeline(parse_system(text), Options(disprove=True, explore_depth=depth))
        assert report.verdict == "MAYBE"
        assert report.witness is None
        assert any(n.endswith(": bound-exceeded") for n in report.notes)

    def test_terminating_systems_survive_disproving(self):
        report = run_pipeline(load_system("map"), Options(disprove=True))
        assert report.verdict == "YES"
        assert report.witness is None

    def test_without_the_flag_selfloop_is_only_maybe(self):
        report = run_pipeline(load_system("selfloop"), Options())
        assert report.verdict == "MAYBE"
        assert report.witness is None

    @pytest.mark.parametrize("name", sorted(ESCAPING_LOOPS))
    def test_a_chain_steps_by_no_pair_that_escapes(self, name):
        report = run_pipeline(parse_system(ESCAPING_LOOPS[name]), Options(disprove=True, record_graph=True))
        assert (report.verdict, report.stage) == ("MAYBE", "extraction")
        escaped = {dp.name for dp in report.pairs if not dp.check.variables_ok}
        assert escaped and not any(s.kind == "dp" and s.label in escaped for s in report.graph)

    def test_pairs_that_only_change_the_type_still_refute(self):
        """Every pair of this looping system fails the type condition, but
        its right side is a subterm of the reduct, so the chain stands."""
        text = (
            "sort N L\n0 : N\ns : N -> N\nnil : L\ncons : N -> L -> L\nk : N -> L -> N\n"
            "f : (N -> N) -> L -> L\ng : N -> N\nh : (N -> N -> N) -> N -> N\n"
            "rule f F nil -> cons (g (s 0)) nil\nrule h G X -> 0\nrule g (s X) -> k X (f g nil)\n"
        )
        system = parse_system(text)
        report = run_pipeline(system, Options(disprove=True))
        assert all(dp.check.variables_ok and not dp.check.type_ok for dp in report.pairs)
        assert (report.verdict, report.witness["relation"]) == ("NO", "chain")
        assert replay_trace(report.witness["trace"], system, report.pairs)
        assert has_alpha_repeat(report.witness["start"], report.witness["trace"])

    @pytest.mark.parametrize("name", sorted(p.stem for p in SYSTEMS_DIR.glob("*.hodp")))
    def test_the_graph_holds_each_edge_once(self, name):
        report = run_pipeline(load_system(name), Options(disprove=True, record_graph=True))
        drawn = [line for line in dot_graph(report.graph).splitlines() if re.match(r"  n\d+ -> n\d+ ", line)]
        assert len(report.graph) == len(drawn)


class TestRendering:
    def test_json_is_valid_and_ordered(self):
        report = run_pipeline(load_system("lim"), Options())
        d = json.loads(render_json(report))
        assert list(d.keys()) == [
            "verdict",
            "stage",
            "signature",
            "rules",
            "pairs",
            "certificate",
            "violations",
            "witness",
            "notes",
            "timing",
        ]
        assert d["verdict"] == "MAYBE"

    def test_text_report_shape(self):
        report = run_pipeline(load_system("map"), Options())
        lines = render_text(report).splitlines()
        assert lines[0] == "YES"
        assert any(line.startswith("sorts:") for line in lines)
        assert any("precedence:" in line for line in lines)
        assert any("map > cons" in line for line in lines)

    def test_trace_rendering_includes_witness_lines(self):
        report = run_pipeline(load_system("map"), Options())
        detailed = render_text(report, show_traces=True)
        assert "same-symbol(map, mul)" in detailed
        assert "precedence(map, cons)" in detailed

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_a_report_prints_each_node_once(self, monkeypatch, fmt):
        """A loop whose witness steps share all but a few nodes: a report,
        and the --dot graph of its exploration, visit each node of their
        terms once at most."""
        system = parse_system(LOOP)
        report = run_pipeline(system, Options(disprove=True, record_graph=True))
        assert report.verdict == "NO" and len(report.witness["trace"]) == 36
        if fmt == "dot":
            terms = [alpha_canonical(t) for s in report.graph for t in (s.source, s.target)]
        else:
            terms = [report.witness["start"]]
            terms += [t for s in report.witness["trace"] for t in (s.source, s.target)]
            terms += [t for dp in report.pairs for t in (dp.lhs, dp.rhs)]
            terms += [t for a in report.admissibility for t in (a.rule.lhs, a.rule.rhs)]
            derivations = [d for a in report.admissibility for _, d in a.entries if d is not None]
            while derivations:
                d = derivations.pop()
                terms.append(d.term)
                derivations.extend(d.premises)
        nodes = set()
        while terms:
            t = terms.pop()
            if t not in nodes:
                nodes.add(t)
                terms.extend(getattr(t, field) for field in ("fun", "arg", "body") if hasattr(t, field))
        visits = collections.Counter()  # the calls that print their node
        show_term = terms_module.show_term

        def counted(t, shown=None):
            if shown is None or t not in shown:
                visits[t] += 1
            return show_term(t, shown)

        monkeypatch.setattr(terms_module, "show_term", counted)
        monkeypatch.setattr(pipeline_module, "show_term", counted)
        if fmt == "text":
            render_text(report, show_traces=True)
        elif fmt == "json":
            render_json(report)
        else:
            dot_graph(report.graph)
        assert max(visits.values()) == 1
        assert sum(visits.values()) <= len(nodes)

    def test_reports_are_stable_modulo_timing(self):
        for name in ["map", "lim", "foldr"]:
            a = report_dict(run_pipeline(load_system(name), Options()))
            b = report_dict(run_pipeline(load_system(name), Options()))
            a.pop("timing")
            b.pop("timing")
            assert a == b

    def test_non_ascii_position_symbol_survives_json(self):
        report = run_pipeline(load_system("selfloop"), Options(disprove=True))
        assert "ε" in render_json(report)

    def test_a_rule_with_alpha_equal_sides_has_no_certificate(self):
        # so no rule witness in a report is ever alpha-equal
        text = "sort N\n0 : N\nf : N -> N\nrule f X -> f X\n"
        report = run_pipeline(parse_system(text), Options())
        d = report_dict(report)
        assert [(p["name"], p["position"]) for p in d["pairs"]] == [("d1", "ε")]
        assert (d["verdict"], d["stage"], d["certificate"]) == ("MAYBE", "ordering", None)


def _dumps(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False)


def _deeply_nested(levels):
    """levels of dicts and lists in turn, with empty containers and strings
    that need escapes at the bottom."""
    value = [{}, [], "\\\"\n\x00ε", {" ": ""}]
    for depth in range(levels):
        value = {f"k{depth}": value, "e": []} if depth % 2 else [value, {}]
    return value


class TestJsonEmitter:
    """render_json writes what json.dumps(indent=2, ensure_ascii=False) writes."""

    @pytest.mark.parametrize("disprove", [False, True], ids=["plain", "disprove"])
    def test_shipped_systems(self, disprove):
        for path in sorted(SYSTEMS_DIR.glob("*.hodp")):
            report = run_pipeline(parse_system(path.read_text()), Options(disprove=disprove))
            assert render_json(report) == _dumps(report_dict(report)) + "\n", path.stem

    def test_generated_systems(self):
        rng = random.Random(1313)
        seen = collections.Counter()
        for i in range(60):
            system, _, _, _ = random_fo_trs(rng)
            options = Options(max_symbols=5, disprove=i % 2 == 1, explore_depth=8, explore_nodes=300)
            try:
                report = run_pipeline(system, options)
            except LimitError:
                continue
            assert render_json(report) == _dumps(report_dict(report)) + "\n"
            seen[report.verdict] += 1
        assert min(seen[v] for v in ("YES", "NO", "MAYBE")) >= 5

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [{}, [[]], {"d": []}]},
            ['"', "\\", "\n", "\x01", "ε", "\u2028", "\t\r\x7f", ""],
            {'key "with" \\ ε\n': "value"},
            [0, -1, -12345678901234567890, 7, True, False, None],
            [1e-06, 0.1, 0.0, -2.5, 1e300, 123456.789],
            {"verdict": "MAYBE", "timing": {"seconds": 0.000123}},
            _deeply_nested(300),
        ],
    )
    def test_hand_made_values(self, value):
        assert _json(value) == _dumps(value)
        assert json.loads(_json(value)) == value

    @pytest.mark.parametrize("value", [(), (1, "a"), {"a": (1,)}, {1: "a"}, {"a"}, b"a"])
    def test_values_outside_the_model_are_rejected(self, value):
        # json.dumps writes a tuple as a list, which json.loads would not give back
        with pytest.raises(TypeError):
            _json(value)


# ------------------------------------------------------- the renderer oracle
# The model and the renderers of witnesses and derivations as they were
# before each distinct witness and derivation was printed once per report:
# one dict per occurrence, and each written out in full every time.

_OLD_SCALARS = {None: "null", True: "true", False: "false"}


def _old_derivation_dict(d: Derivation, shown: dict[Term, str]) -> dict:
    out: dict = {"step": d.step, "term": show_term(d.term, shown)}
    if d.index is not None:
        out["index"] = d.index
    if d.variable is not None:
        out["variable"] = d.variable.name
    out["premises"] = [_old_derivation_dict(p, shown) for p in d.premises]
    return out


def _old_trace_dict(g: GtTrace) -> dict:
    detail = [show_position(x) if isinstance(x, tuple) else x for x in g.detail]
    return {
        "clause": g.clause,
        "detail": detail,
        "children": [_old_trace_dict(c) for c in g.children],
    }


def _old_weak_dict(w: GtTrace) -> dict:
    # A rule witness is never alpha: a rule whose sides are alpha-equal has
    # a pair at the root between alpha-equal sides, which no certificate
    # orients.  kind and the always empty beta_path are part of the format.
    return {"kind": "strict", "beta_path": [], "strict": _old_trace_dict(w)}


def _old_step_dict(s: Step, shown: dict[Term, str]) -> dict:
    return {
        "kind": s.kind,
        "label": s.label,
        "position": show_position(s.position),
        "from": show_term(s.source, shown),
        "to": show_term(s.target, shown),
    }


def _old_report_dict(report: AnalysisReport) -> dict:
    shown: dict[Term, str] = {}
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
                        "derivation": _old_derivation_dict(d, shown) if d is not None else None,
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
                    {"name": n, "witness": _old_weak_dict(w)}
                    for n, w in cert.rule_witnesses
                ],
                "pairs": [
                    {"name": n, "witness": _old_trace_dict(g)}
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
                "trace": [_old_step_dict(s, shown) for s in witness["trace"]],
            }
            if witness is not None
            else None
        ),
        "notes": list(report.notes),
        "timing": {"seconds": round(report.elapsed, 6)},
    }


def _old_emit(value, out: list[str], indent: str) -> None:
    kind = type(value)
    if kind is str:
        out.append(encode_basestring(value))
    elif kind is dict or kind is list:
        if not value:
            out.append("{}" if kind is dict else "[]")
            return
        inner = indent + "  "
        sep = ("{" if kind is dict else "[") + inner
        if kind is dict:
            for k, v in value.items():
                out.append(f"{sep}{encode_basestring(k)}: ")
                _old_emit(v, out, inner)
                sep = "," + inner
            out.append(indent + "}")
        else:
            for v in value:
                out.append(sep)
                _old_emit(v, out, inner)
                sep = "," + inner
            out.append(indent + "]")
    elif kind is bool or value is None:
        out.append(_OLD_SCALARS[value])
    elif kind is int or kind is float:
        out.append(repr(value))
    else:
        raise TypeError(f"not part of the report model: {kind.__name__}")


def _old_trace_lines(g: dict, indent: int, lines: list[str]) -> None:
    detail = ", ".join(str(x) for x in g["detail"])
    head = g["clause"] if not detail else f"{g['clause']}({detail})"
    lines.append("  " * indent + head)
    for c in g["children"]:
        _old_trace_lines(c, indent + 1, lines)


def _old_derivation_lines(d: dict, indent: int, lines: list[str]) -> None:
    param = d.get("index", d.get("variable"))
    param = "" if param is None else f"({param})"
    lines.append("  " * indent + f"{d['step']}{param}: {d['term']}")
    for p in d["premises"]:
        _old_derivation_lines(p, indent + 1, lines)


def _old_witness_lines(node: dict, pad: str, lines: list[str], texts: dict) -> None:
    """The old line writers behind the signature of _witness_lines."""
    write = _old_trace_lines if "clause" in node else _old_derivation_lines
    write(node, len(pad) // 2, lines)


def _old_renders(report: AnalysisReport, monkeypatch) -> tuple[str, str, str]:
    """render_json, render_text and render_text with traces, through the
    old model and the old witness and derivation writers."""
    out = []
    _old_emit(_old_report_dict(report), out, "\n")
    with monkeypatch.context() as patch:
        patch.setattr(pipeline_module, "report_dict", lambda r, recurring: _old_report_dict(r))
        patch.setattr(pipeline_module, "_witness_lines", _old_witness_lines)
        return "".join(out) + "\n", render_text(report), render_text(report, show_traces=True)


# Systems whose certificates hold beta witnesses, and whose closures strip a
# binder (a lam derivation); the shipped alpha and twins give abstraction
# witnesses.  None of the seeded families gives the first or the last.
BINDER_SYSTEMS = {
    "beta": "sort N\n0 : N\ns : N -> N\nc : N -> N\nf : N -> N -> N\n"
    "rule f (c X) ((\\x. s x) 0) -> f X (s 0)\n",
    "lam": "sort N\n0 : N\ns : N -> N\nf : (N -> N) -> N -> N\n"
    "rule f (\\y. F y) (s X) -> f (\\y. F y) X\n",
}


def _chain_reports() -> list[AnalysisReport]:
    """Seeded 5- and 6-symbol chain systems, every third with a lex head."""
    rng = random.Random(2828)
    return [run_pipeline(parse_system(chain_text(rng, 5 + k % 2, lex=k % 3 == 2))) for k in range(12)]


def _witness_depths(model: dict) -> dict[int, set[int]]:
    """The depths at which each witness dict of model's certificate occurs,
    by the dict's id: the model holds one dict per distinct value."""
    depths = collections.defaultdict(set)
    cert = model["certificate"]
    todo = [(w["witness"]["strict"], 0) for w in cert["rules"]]
    todo += [(w["witness"], 0) for w in cert["pairs"]]
    while todo:
        node, depth = todo.pop()
        depths[id(node)].add(depth)
        todo.extend((c, depth + 1) for c in node["children"])
    return depths


class TestRendererOracle:
    """render_json and render_text, with and without traces, print what the
    old model and writers print, byte for byte."""

    def check(self, report, monkeypatch):
        new = (render_json(report), render_text(report), render_text(report, show_traces=True))
        assert new == _old_renders(report, monkeypatch)

    @pytest.mark.parametrize("disprove", [False, True], ids=["plain", "disprove"])
    def test_shipped_systems(self, disprove, monkeypatch):
        for path in sorted(SYSTEMS_DIR.glob("*.hodp")):
            self.check(run_pipeline(parse_system(path.read_text()), Options(disprove=disprove)), monkeypatch)

    def test_first_order_systems(self, monkeypatch):
        rng = random.Random(1313)
        checked = 0
        for i in range(60):
            system, _, _, _ = random_fo_trs(rng)
            options = Options(max_symbols=5, disprove=i % 2 == 1, explore_depth=8, explore_nodes=300)
            try:
                report = run_pipeline(system, options)
            except LimitError:
                continue
            self.check(report, monkeypatch)
            checked += 1
        assert checked >= 50

    def test_higher_order_systems(self, monkeypatch):
        """The 40 systems of tools/same_reports.py, with its budgets."""
        rng = random.Random(1)
        for _ in range(40):
            system = random_ho_system(rng)
            for options in (Options(), Options(disprove=True, explore_depth=6, explore_nodes=40)):
                self.check(run_pipeline(system, options), monkeypatch)

    def test_binder_witnesses_and_derivations(self, monkeypatch):
        clauses, steps = set(), set()
        texts = [system_text("alpha"), system_text("twins"), *BINDER_SYSTEMS.values()]
        for text in texts:
            report = run_pipeline(parse_system(text))
            self.check(report, monkeypatch)
            traces = [g for _, g in report.certificate.rule_witnesses + report.certificate.pair_witnesses]
            derivations = [d for a in report.admissibility for _, d in a.entries if d is not None]
            while traces:
                g = traces.pop()
                clauses.add(g.clause)
                traces.extend(g.children)
            while derivations:
                d = derivations.pop()
                steps.add(d.step)
                derivations.extend(d.premises)
        assert {"abstraction", "beta"} <= clauses and "lam" in steps

    def test_chain_systems(self, monkeypatch):
        """Certificates in which a witness recurs at several depths, so its
        text is reused re-indented."""
        for report in _chain_reports():
            assert report.verdict == "YES"
            self.check(report, monkeypatch)
            assert max(len(d) for d in _witness_depths(report_dict(report)).values()) > 1


class TestWitnessMemo:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_report_formats_each_witness_once(self, monkeypatch, fmt):
        """Each distinct witness and derivation value of a chain report
        becomes one model dict, and each such dict is written once."""
        report = _chain_reports()[1]
        values = [g for _, g in report.certificate.rule_witnesses + report.certificate.pair_witnesses]
        values += [d for a in report.admissibility for _, d in a.entries if d is not None]
        occurrences = 0
        distinct = set()
        while values:
            v = values.pop()
            occurrences += 1
            distinct.add(v)
            values.extend(v.children if isinstance(v, GtTrace) else v.premises)
        assert occurrences > 2 * len(distinct)  # so the memo has work to do
        built = collections.Counter()
        written = collections.Counter()
        models = []
        trace_dict, derivation_dict = pipeline_module._trace_dict, pipeline_module._derivation_dict
        emit, witness_lines = pipeline_module._emit, pipeline_module._witness_lines

        def counted_trace(g, memo, recurring):
            if g not in memo:
                built[g] += 1
            return trace_dict(g, memo, recurring)

        def counted_derivation(d, shown, memo, recurring):
            if d not in memo:
                built[d] += 1
            return derivation_dict(d, shown, memo, recurring)

        def kept_model(r, recurring):
            models.append(report_dict(r, recurring))
            return models[-1]

        def counted(write):
            def wrapper(value, out, indent, texts):
                if not isinstance(texts.get(id(value)), str):  # not a reuse
                    written[id(value)] += 1
                return write(value, out, indent, texts)

            return wrapper

        monkeypatch.setattr(pipeline_module, "_trace_dict", counted_trace)
        monkeypatch.setattr(pipeline_module, "_derivation_dict", counted_derivation)
        monkeypatch.setattr(pipeline_module, "report_dict", kept_model)
        monkeypatch.setattr(pipeline_module, "_emit", counted(emit))
        monkeypatch.setattr(pipeline_module, "_witness_lines", counted(witness_lines))
        if fmt == "text":
            render_text(report, show_traces=True)
        else:
            render_json(report)
        assert set(built) == distinct and max(built.values()) == 1
        (r,) = models
        dicts = {}
        todo = [w["witness"]["strict"] for w in r["certificate"]["rules"]]
        todo += [w["witness"] for w in r["certificate"]["pairs"]]
        todo += [v["derivation"] for rule in r["rules"] for v in rule["variables"] if v["derivation"]]
        while todo:
            node = todo.pop()
            dicts[id(node)] = node
            todo.extend(node.get("children", node.get("premises")))
        assert len(dicts) == len(distinct)
        assert all(written[i] == 1 for i in dicts) and max(written.values()) == 1

    def test_memos_live_for_one_render(self):
        """Reports A, B, A in turn, in both formats: A prints the same both
        times, and no module-level container of hodp.pipeline grows."""
        a, b = _chain_reports()[:2]

        def sizes():
            return {
                name: len(value)
                for name, value in vars(pipeline_module).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))
            }

        before = sizes()
        for render in (render_json, render_text, lambda r: render_text(r, show_traces=True)):
            first = render(a)
            assert render(b) != first
            assert render(a) == first
        assert sizes() == before

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_deep_witness_renders_with_one_frame_per_level(self, fmt):
        """A hand-made witness model 300 levels deep, every node of which
        recurs (a leaf shared by every level is reused at 300 indents),
        renders within the default recursion limit, and within one frame
        over the caller's per container level, as the old writers do: a
        text level is one, a JSON level two, the dict and its children."""
        leaf = {"clause": "alpha", "detail": [], "children": []}
        node = leaf
        for depth in range(300):
            node = {"clause": "subterm", "detail": [depth % 3 + 1], "children": [node, leaf]}
        nodes, todo = {}, [node]
        while todo:
            n = todo.pop()
            nodes[id(n)] = n
            todo.extend(n["children"])
        lines = []
        _old_trace_lines(node, 1, lines)
        expected = _dumps(node) if fmt == "json" else "\n".join(lines)

        def render(texts):
            if fmt == "json":
                return _json(node, texts)
            out = []
            _witness_lines(node, "  ", out, texts)
            return "\n".join(out)

        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit, frames = sys.getrecursionlimit(), depth + (600 if fmt == "json" else 300) + 30
        assert frames < limit
        sys.setrecursionlimit(frames)
        try:
            assert render(dict.fromkeys(nodes)) == expected
            assert render({}) == expected
        finally:
            sys.setrecursionlimit(limit)
