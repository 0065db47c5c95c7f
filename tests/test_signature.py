"""Signature analysis: accessibility, basic sorts, validation."""

import pytest

from conftest import load_system
from hodp.errors import InputError
from hodp.parser import parse_system
from hodp.signature import basic_sorts


class TestAccessibleArguments:
    def test_plain_constructors_are_fully_accessible(self):
        system = load_system("map")
        assert system.signature.accessible["cons"] == frozenset({1, 2})
        assert system.signature.accessible["s"] == frozenset({1})
        assert system.signature.accessible["nil"] == frozenset()

    def test_functional_argument_over_same_sort_is_not_accessible(self):
        system = load_system("lim")
        assert system.signature.accessible["lim"] == frozenset()

    def test_functional_argument_over_another_sort_is_accessible(self):
        text = "sort A B\ng : (A -> B) -> B\n"
        system = parse_system(text)
        assert system.signature.accessible["g"] == frozenset({1})

    def test_second_order_argument_flips_polarity_twice(self):
        # A sits left of two arrows in the first argument, so it occurs
        # positively there; in the second it sits left of one
        text = "sort A B\ng : ((A -> B) -> B) -> (A -> B) -> A\n"
        system = parse_system(text)
        assert system.signature.accessible["g"] == frozenset({1})


class TestBasicSorts:
    def test_first_order_sorts_are_basic(self):
        system = load_system("map")
        assert basic_sorts(system.signature) == frozenset({"N", "List"})

    def test_sort_with_functional_constructor_is_not_basic(self):
        system = load_system("lim")
        assert basic_sorts(system.signature) == frozenset()

    def test_mutually_recursive_first_order_sorts_stay_basic(self):
        text = "sort T F\nleaf : T\nnode : F -> T\ngrow : T -> F\n"
        system = parse_system(text)
        assert basic_sorts(system.signature) == frozenset({"T", "F"})

    def test_contamination_spreads_through_arguments(self):
        # B itself is first order but its constructor consumes the
        # non basic sort A, so B cannot be basic either.
        text = "sort A B\nmk : (A -> A) -> A\nwrap : A -> B\n"
        system = parse_system(text)
        assert basic_sorts(system.signature) == frozenset()


class TestBuildSystem:
    def test_defined_symbols_are_the_rule_heads(self):
        system = load_system("map")
        assert system.signature.defined == frozenset({"map"})
        assert set(system.signature.constructors) == {"0", "s", "nil", "cons"}

    def test_rule_names_follow_declaration_order(self):
        system = load_system("lim")
        assert [r.name for r in system.rules] == ["r1", "r2", "r3"]

    def test_undeclared_sort_is_rejected(self):
        with pytest.raises(InputError, match="undeclared sort M"):
            parse_system("sort N\nf : N -> M\n")

    def test_non_preserving_rule_is_rejected(self):
        text = "sort A B\nf : A -> B\nb : B\na : A\nrule f X -> X\n"
        with pytest.raises(InputError, match="cannot be typed"):
            parse_system(text)

    def test_lambda_headed_lhs_is_rejected(self):
        text = "sort A\na : A\nrule (\\x:A. x) Y -> Y\n"
        with pytest.raises(InputError) as exc:
            parse_system(text)
        assert str(exc.value) == (
            "line 3, column 6: left-hand side (\\x:A. x) Y is not headed by a declared symbol"
        )

    def test_variable_headed_lhs_is_rejected(self):
        text = "sort A\na : A\n\nrule  F a -> a\n"
        with pytest.raises(InputError) as exc:
            parse_system(text)
        assert str(exc.value) == "line 4, column 7: left-hand side F a is not headed by a declared symbol"

    def test_a_bad_head_is_reported_before_later_lines(self):
        text = "sort A\na : A\nrule F a -> a\nrule a -> @\n"
        with pytest.raises(InputError, match="line 3, column 6: left-hand side F a is not"):
            parse_system(text)
