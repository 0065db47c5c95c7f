"""End to end analysis: staging, verdicts, reports, rendering."""

import collections
import json
import random
import re
import sys

import pytest

from conftest import ESCAPING_LOOPS, SYSTEMS_DIR, load_system, system_text
from gen import random_fo_trs
from hodp import pipeline as pipeline_module
from hodp import terms as terms_module
from hodp.engine import has_alpha_repeat, replay_trace
from hodp.errors import LimitError
from hodp.parser import parse_precedence_arg, parse_system
from hodp.pipeline import (
    AnalysisReport,
    Options,
    _json,
    dot_graph,
    render_json,
    render_text,
    report_dict,
    run_pipeline,
)
from hodp.terms import alpha_canonical

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
