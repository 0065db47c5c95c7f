"""End to end analysis: staging, verdicts, reports, rendering."""

import json
import sys

import pytest

from conftest import load_system, system_text
from hodp.errors import SearchSpaceExceededError
from hodp.parser import parse_precedence_arg, parse_system
from hodp.pipeline import AnalysisReport, Options, render_json, render_text, report_dict, run_pipeline

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
        report = run_pipeline(system, Options(precedence=prec))
        assert report.verdict == "YES"
        assert report.certificate.edges == (("map", "cons"),)

    def test_bad_hint_reports_violations(self):
        system = load_system("map")
        prec = parse_precedence_arg("cons>map", system)
        report = run_pipeline(system, Options(precedence=prec))
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
        report = run_pipeline(system, Options(precedence=prec))
        assert report.verdict == "YES"
        assert ("filter", "if") in report.certificate.edges

    def test_good_hint_is_tried_before_the_symbol_limit(self):
        system = load_system("map")
        prec = parse_precedence_arg("map>cons", system)
        report = run_pipeline(system, Options(precedence=prec, max_symbols=1))
        assert report.verdict == "YES"

    def test_symbol_limit_surfaces_as_an_error(self):
        with pytest.raises(SearchSpaceExceededError):
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

    def test_terminating_systems_survive_disproving(self):
        report = run_pipeline(load_system("map"), Options(disprove=True))
        assert report.verdict == "YES"
        assert report.witness is None

    def test_without_the_flag_selfloop_is_only_maybe(self):
        report = run_pipeline(load_system("selfloop"), Options())
        assert report.verdict == "MAYBE"
        assert report.witness is None


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
