"""Call position discovery and pair extraction."""

from conftest import load_system
from hodp.pairs import (
    call_positions,
    check_extraction,
    escaped_variables,
    extract_pairs,
)
from hodp.parser import parse_system
from hodp.terms import (
    App,
    Arrow,
    Base,
    Lam,
    Sym,
    Var,
    show_position,
    show_term,
    subterm_at,
    type_of,
)


class TestCallPositions:
    def test_single_recursive_call(self):
        system = load_system("map")
        rhs = system.rules[1].rhs  # cons (F X) (map F L)
        assert call_positions(rhs, system.signature) == ((2,),)

    def test_no_defined_symbols_means_no_positions(self):
        system = load_system("map")
        rhs = system.rules[0].rhs  # nil
        assert call_positions(rhs, system.signature) == ()

    def test_call_under_a_binder(self):
        system = load_system("lim")
        rhs = system.rules[0].rhs  # lim (\n. plus (F n) X)
        assert [show_position(p) for p in call_positions(rhs, system.signature)] == ["2.1"]

    def test_whole_term_can_be_a_call(self):
        system = load_system("map")
        sig = system.signature
        mp = sig.symbol("map")
        s = sig.symbol("s")
        nil = sig.symbol("nil")
        assert call_positions(App(App(mp, s), nil), sig) == ((),)

    def test_partial_application_is_a_call(self):
        system = load_system("map")
        sig = system.signature
        mp = sig.symbol("map")
        s = sig.symbol("s")
        h = Var("H", Arrow(type_of(App(mp, s)), Base("N")))
        t = App(h, App(mp, s))
        assert call_positions(t, sig) == ((2,),)

    def test_bare_defined_symbol_is_a_call(self):
        system = load_system("map")
        sig = system.signature
        assert call_positions(sig.symbol("map"), sig) == ((),)

    def test_maximal_spines_are_not_split(self):
        # inside plus (plus X Y) Z only two spines count: the whole
        # term and the nested sum, never the partial prefixes
        system = load_system("plus")
        sig = system.signature
        plus = sig.symbol("plus")
        x, y, z = (Var(n, Base("N")) for n in "XYZ")
        t = App(App(plus, App(App(plus, x), y)), z)
        assert call_positions(t, sig) == ((), (1, 2))


class TestExtraction:
    def test_map_has_exactly_one_pair(self):
        system = load_system("map")
        pairs = extract_pairs(system)
        assert len(pairs) == 1
        (d1,) = pairs
        assert d1.name == "d1"
        assert d1.rule.name == "r2"
        assert show_position(d1.position) == "2"
        assert show_term(d1.lhs) == "map F (cons X L)"
        assert show_term(d1.rhs) == "map F L"
        assert d1.check.escaped == ()
        assert d1.check.lhs_type == d1.check.extracted_type

    def test_pair_right_side_is_the_subterm_at_the_position(self):
        for name in ["map", "plus", "minus", "filter", "foldr"]:
            system = load_system(name)
            for pair in extract_pairs(system):
                assert pair.lhs == pair.rule.lhs
                assert subterm_at(pair.rule.rhs, pair.position) == pair.rhs

    def test_pair_names_are_sequential_across_rules(self):
        system = load_system("lim")
        assert [p.name for p in extract_pairs(system)] == ["d1", "d2"]

    def test_escaped_bound_variable_is_reported(self):
        system = load_system("lim")
        d1 = extract_pairs(system)[0]
        assert [v.name for v in d1.check.escaped] == ["n"]
        assert not d1.check.variables_ok
        assert d1.check.type_ok
        assert not d1.check.ok

    def test_escape_detection_sees_through_shadowing(self):
        # two binders share the name n; the one inside the extracted
        # call is harmless, the one above it escapes
        text = (
            "sort N\n"
            "0 : N\n"
            "c : N -> N -> N\n"
            "h : (N -> N) -> N\n"
            "g : (N -> N) -> N\n"
            "rule g F -> h (\\n:N. c n (g (\\n:N. F n)))\n"
            "rule g F -> h (\\n:N. c n (g (\\m:N. c n m)))\n"
        )
        system = parse_system(text)
        d1, d2 = extract_pairs(system)
        assert d1.check.escaped == ()
        assert d1.check.ok
        assert [v.name for v in d2.check.escaped] == ["n"]
        assert not d2.check.ok

    def test_escaped_variables_helper(self):
        system = load_system("lim")
        rhs = system.rules[0].rhs
        assert [v.name for v in escaped_variables(rhs, (2, 1))] == ["n"]
        assert escaped_variables(rhs, ()) == ()

    def test_type_change_is_flagged(self):
        # the call position has a partially applied sum, so the
        # extracted side is a function while the left side is a number
        text = (
            "sort N\n"
            "0 : N\n"
            "ap : (N -> N) -> N\n"
            "plus : N -> N -> N\n"
            "rule plus 0 X -> X\n"
            "rule plus X 0 -> ap (plus X)\n"
        )
        system = parse_system(text)
        pairs = extract_pairs(system)
        bad = [p for p in pairs if not p.check.type_ok]
        assert len(bad) == 1
        assert bad[0].check.variables_ok
        assert not bad[0].check.ok
        assert bad[0].check.lhs_type != bad[0].check.extracted_type

    def test_check_extraction_matches_extracted_pairs(self):
        system = load_system("lim")
        for pair in extract_pairs(system):
            again = check_extraction(pair.rule, pair.position)
            assert again == pair.check
