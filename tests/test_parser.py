"""Input format: tokens, grammar, type inference, error reporting."""

import random
import sys

import pytest

from conftest import SYSTEMS_DIR, load_system, same_reports_tool, system_text
from hodp.errors import InputError
from hodp.parser import parse_precedence_arg, parse_system
from hodp.terms import Arrow, Base, Lam, Var, free_vars, show_term, show_type, type_of

BASE = "sort N\n0 : N\ns : N -> N\nplus : N -> N -> N\n"

# str.splitlines breaks lines at these too; the input format does not
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestGrammar:
    def test_full_file(self):
        system = load_system("map")
        assert system.signature.sorts == ("List", "N") or set(system.signature.sorts) == {"N", "List"}
        assert set(system.signature.symbols) == {"0", "s", "nil", "cons", "map"}
        assert len(system.rules) == 2
        rule = system.rules[1]
        assert (show_term(rule.lhs), show_term(rule.rhs)) == ("map F (cons X L)", "cons (F X) (map F L)")

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# heading\n\nsort N   # trailing\n0 : N\n\n# done\n"
        system = parse_system(text)
        assert system.signature.symbols["0"] == Base("N")

    def test_arrows_associate_to_the_right(self):
        system = parse_system("sort N\nf : N -> N -> N\n")
        assert system.signature.symbols["f"] == Arrow(Base("N"), Arrow(Base("N"), Base("N")))

    def test_parenthesized_domain(self):
        system = parse_system("sort N\ng : (N -> N) -> N\n")
        assert system.signature.symbols["g"] == Arrow(Arrow(Base("N"), Base("N")), Base("N"))

    def test_application_associates_to_the_left(self):
        system = parse_system(BASE + "rule plus (plus X Y) Z -> plus X (plus Y Z)\n")
        rule = system.rules[0]
        assert (show_term(rule.lhs), show_term(rule.rhs)) == ("plus (plus X Y) Z", "plus X (plus Y Z)")

    def test_annotated_lambda(self):
        system = parse_system(BASE + "h : (N -> N) -> N\nrule plus (h F) X -> h (\\y:N. plus (F y) X)\n")
        rhs = system.rules[0].rhs
        assert type_of(rhs) == Base("N")

    def test_digit_leading_and_primed_identifiers(self):
        system = parse_system("sort A\n1st : A -> A\nx0 : A\nrule 1st (1st X') -> 1st X'\n")
        rule = system.rules[0]
        assert (show_term(rule.lhs), show_term(rule.rhs)) == ("1st (1st X')", "1st X'")

    # every character str.isspace accepts that does not end a line
    @pytest.mark.parametrize(
        "space",
        [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\n\r"],
    )
    def test_unicode_whitespace_separates_tokens(self, space):
        system = parse_system(f"sort N{space}M\n")
        assert system.signature.sorts == ("N", "M")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_line_ends_at_a_line_feed_or_carriage_return(self, end):
        with pytest.raises(InputError) as exc:
            parse_system(f"sort N{end}0 : N{end}f @ N{end}")
        assert str(exc.value) == "line 3, column 3: unexpected character '@'"

    def test_the_other_breaks_of_splitlines_end_no_line(self):
        breaks = {c for c in map(chr, range(sys.maxunicode + 1)) if len(f"N{c}M".splitlines()) == 2}
        assert breaks == {"\n", "\r", *NOT_LINE_ENDS}

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_inside_a_comment_it_ends_nothing(self, char):
        system = parse_system(f"sort N # a{char}b\n0 : N\n")
        assert system.signature.sorts == ("N",)

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_after_one_in_a_comment_line_numbers_hold(self, char):
        with pytest.raises(InputError) as exc:
            parse_system(f"sort N # a{char}b\n0 @ N\n")
        assert str(exc.value) == "line 2, column 3: unexpected character '@'"

    # identifiers are ASCII: letters, digits and marks elsewhere are rejected
    @pytest.mark.parametrize("char", ["é", "α", "\uff11", "\ufeff"])
    def test_non_ascii_characters_are_unexpected(self, char):
        with pytest.raises(InputError) as exc:
            parse_system(f"sort N{char}\n")
        assert str(exc.value) == f"line 1, column 7: unexpected character {char!r}"

    def test_keywords_are_case_sensitive(self):
        # 'Sort' is an ordinary identifier, so the line is read as a
        # symbol declaration missing its colon
        with pytest.raises(InputError, match="expected ':'"):
            parse_system("Sort N\n")


class TestInference:
    def test_rule_variable_types_are_inferred(self):
        system = load_system("map")
        rule = system.rules[1]
        types = {v.name: show_type(v.type) for v in free_vars(rule.lhs)}
        assert types == {"F": "N -> N", "X": "N", "L": "List"}

    def test_unannotated_binder_is_inferred_from_use(self):
        system = parse_system(
            BASE + "h : (N -> N) -> N\nrule plus (h F) X -> h (\\y. plus (F y) X)\n"
        )
        rhs = system.rules[0].rhs
        lam = rhs.arg
        assert isinstance(lam, Lam)
        assert lam.var.type == Base("N")

    def test_rules_must_preserve_types(self):
        with pytest.raises(InputError, match="cannot be typed"):
            parse_system(BASE + "rule plus X -> X\n")

    def test_ill_typed_application_is_reported(self):
        with pytest.raises(InputError, match="cannot be typed"):
            parse_system(BASE + "rule plus X Y -> s (\\w. w)\n")

    def test_unconstrained_binder_is_ambiguous(self):
        with pytest.raises(InputError, match="cannot infer the type of"):
            parse_system(BASE + "rule plus X Y -> (\\w. 0) W\n")

    def test_undeclared_head_reads_as_an_untypable_variable(self):
        with pytest.raises(InputError, match="cannot infer the type of"):
            parse_system("sort N\nrule f X -> X\n")

    @pytest.mark.parametrize(
        "rule,message",
        [
            ("f X -> \\x. x", "line 5: rule cannot be typed (N versus ?3 -> ?3)"),
            ("f X Y -> X", "line 5: rule cannot be typed (N versus ?3 -> ?4)"),
            ("X -> X", "line 5: cannot infer the type of variable X"),
        ],
    )
    def test_type_errors_show_the_inferred_types(self, rule, message):
        text = "sort N\n0 : N\ns : N -> N\nf : N -> N\nrule " + rule + "\n"
        with pytest.raises(InputError) as exc:
            parse_system(text)
        assert str(exc.value) == message

    # lines 1-4 declare N, 0, s and f; the whole line is parsed before any
    # equation is solved, and metavariables are numbered in reading order
    @pytest.mark.parametrize(
        "rule,message",
        [
            ("f X Y -> )", "line 5, column 15: expected a term, found ')'"),
            ("f X -> s (\\y. Y y) X", "line 5: rule cannot be typed (N versus ?3 -> ?5)"),
            ("f X -> (\\y. y) X X", "line 5: rule cannot be typed (N versus N -> ?7)"),
        ],
    )
    def test_syntax_errors_come_first_and_metavariables_keep_their_numbers(self, rule, message):
        with pytest.raises(InputError) as exc:
            parse_system("sort N\n0 : N\ns : N -> N\nf : N -> N\nrule " + rule + "\n")
        assert str(exc.value) == message

    def test_fresh_right_side_variables_are_allowed_here(self):
        # they are rejected later by the admissibility stage, not by
        # the parser, so the failure is diagnosable
        system = parse_system(BASE + "rule plus X Y -> plus Y W\n")
        assert {v.name for v in free_vars(system.rules[0].rhs)} == {"Y", "W"}


class TestErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("sort N\nf : N ->\n", "unexpected end of line"),
            ("sort N\nf : (N -> N\n", "unexpected end of line"),
            ("sort N\nrule : N\n", "expected a term"),
            ("sort N\nf : N -> N\nf : N\n", "already declared"),
            ("sort N\nsort N\n", "already declared"),
            ("sort N\nf @ N\n", "unexpected character '@'"),
            ("sort N\nf : N -> M\n", "undeclared sort"),
            ("sort N\n0 : N\nprec 0\n", "at least two symbols"),
            ("sort N\n0 : N\nprec 0 > q\n", "undeclared symbol q"),
        ],
    )
    def test_syntax_errors_carry_a_message(self, text, fragment):
        with pytest.raises(InputError) as exc:
            parse_system(text)
        assert fragment in str(exc.value)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(InputError) as exc:
            parse_system("sort N\n0 : N\nf @ N\n")
        assert exc.value.line == 3
        assert exc.value.column == 3

    def test_cyclic_precedence_hints_are_rejected(self):
        with pytest.raises(InputError, match="above itself"):
            parse_system("sort N\n0 : N\ns : N -> N\nprec s > 0\nprec 0 > s\n")


class TestMutants:
    def test_a_mutant_parses_or_raises_an_input_error(self):
        mutate = same_reports_tool().mutate
        texts = [p.read_text(encoding="utf-8") for p in sorted(SYSTEMS_DIR.glob("*.hodp"))]
        rng = random.Random(7)
        outcomes = set()
        for k in range(2000):
            try:
                parse_system(mutate(texts[k % len(texts)], rng))
                outcomes.add("parsed")
            except InputError as exc:
                message = str(exc)
                if "cannot be typed" in message:
                    outcomes.add("typing")
                elif "cannot infer the type of" in message:
                    outcomes.add("ambiguous")
                elif "above itself" in message:
                    outcomes.add("cycle")
                else:
                    outcomes.add("syntax")
        # the mutants reach past the tokenizer into the grammar and the types
        assert {"parsed", "syntax", "typing"} <= outcomes


class TestPrecedenceArgument:
    def test_comma_separated_pairs(self):
        system = load_system("map")
        assert parse_precedence_arg("map>cons,cons>nil", system) == (
            ("map", "cons"),
            ("cons", "nil"),
        )

    def test_chains_expand_to_adjacent_pairs(self):
        system = load_system("map")
        assert parse_precedence_arg("map>cons>nil", system) == (
            ("map", "cons"),
            ("cons", "nil"),
        )

    def test_spaces_are_tolerated(self):
        system = load_system("map")
        assert parse_precedence_arg(" map > cons ", system) == (("map", "cons"),)

    @pytest.mark.parametrize("arg", ["map>", ">cons", "", "map>bogus", "map>cons,cons>map"])
    def test_bad_arguments_are_rejected(self, arg):
        system = load_system("map")
        with pytest.raises(Exception):
            parse_precedence_arg(arg, system)

    def test_hint_lines_collect_in_order(self):
        text = system_text("map") + "prec map > cons\nprec map > nil\n"
        system = parse_system(text)
        assert system.precedence_hints == (("map", "cons"), ("map", "nil"))


class TestDeterminism:
    def test_parsing_twice_gives_equal_systems(self):
        text = system_text("filter")
        assert parse_system(text) == parse_system(text)
