"""Call position discovery and pair extraction."""

import random

from conftest import SYSTEMS_DIR, load_system
from gen import GEN_SYMBOLS, random_term, random_type, symbol
from hodp.pairs import calls, extract_pairs
from hodp.parser import parse_system
from hodp.signature import Signature
from hodp.terms import (
    App,
    Arrow,
    Base,
    Lam,
    Sym,
    Var,
    free_vars,
    show_position,
    show_term,
    spine,
    subterm_at,
    type_of,
)


def call_positions(t, sig):
    return tuple(p for p, _, _ in calls(t, sig))


def _sig(symbols, defined):
    return Signature(("N",), symbols, frozenset(defined))


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
        mp = symbol(sig, "map")
        s = symbol(sig, "s")
        nil = symbol(sig, "nil")
        assert call_positions(App(App(mp, s), nil), sig) == ((),)

    def test_partial_application_is_a_call(self):
        system = load_system("map")
        sig = system.signature
        mp = symbol(sig, "map")
        s = symbol(sig, "s")
        h = Var("H", Arrow(type_of(App(mp, s)), Base("N")))
        t = App(h, App(mp, s))
        assert call_positions(t, sig) == ((2,),)

    def test_bare_defined_symbol_is_a_call(self):
        system = load_system("map")
        sig = system.signature
        assert call_positions(symbol(sig, "map"), sig) == ((),)

    def test_maximal_spines_are_not_split(self):
        # inside plus (plus X Y) Z only two spines count: the whole
        # term and the nested sum, never the partial prefixes
        system = load_system("plus")
        sig = system.signature
        plus = symbol(sig, "plus")
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

    def test_escaped_variables_of_the_lim_call(self):
        system = load_system("lim")
        rhs = system.rules[0].rhs  # lim (\n. plus (F n) X)
        found = calls(rhs, system.signature)
        assert [(show_position(p), [v.name for v in esc]) for p, _, esc in found] == [("2.1", ["n"])]

    def test_escape_through_a_binder_shadowing_a_free_variable(self):
        n = Base("N")
        x = Var("X", n)
        c = Sym("c", Arrow(n, Arrow(n, n)))
        g = Sym("g", Arrow(n, n))
        h = Sym("h", Arrow(Arrow(n, n), n))
        rhs = App(App(c, x), App(h, Lam(x, App(g, x))))  # c X (h (\X. g X))
        sig = _sig({"c": c.type, "g": g.type, "h": h.type}, {"c", "g"})
        # the root call lies outside the binder; the call below the binder
        # that shadows the free X loses it
        assert list(calls(rhs, sig)) == [((), rhs, ()), ((2, 2, 1), App(g, x), (x,))]

    def test_nested_binders_of_one_variable_report_the_innermost(self):
        n = Base("N")
        x, y = Var("x", n), Var("y", n)
        c = Sym("c", Arrow(n, Arrow(n, n)))
        d = Sym("d", Arrow(n, n))
        rhs = Lam(x, Lam(y, Lam(x, App(App(c, App(d, x)), y))))  # \x. \y. \x. c (d x) y
        sig = _sig({"c": c.type, "d": d.type}, {"c", "d"})
        # y is bound at depth 1 and the inner x at depth 2, so x comes last
        assert [esc for _, _, esc in calls(rhs, sig)] == [(y, x), (x,)]
        assert call_positions(rhs, sig) == ((1, 1, 1), (1, 1, 1, 1, 2))

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

    def test_checks_read_both_sides_and_the_reference_escapes(self):
        for path in sorted(SYSTEMS_DIR.glob("*.hodp")):
            system = load_system(path.stem)
            for pair in extract_pairs(system):
                assert pair.check.lhs_type == type_of(pair.rule.lhs)
                assert pair.check.extracted_type == type_of(pair.rhs)
                assert pair.check.escaped == ref_escaped_variables(pair.rule.rhs, pair.position)


# ------------------------------------------------ reference implementations
#
# Extraction used to find the call positions first and then walk to each
# one again for its subterm and the binders above it.  These are those
# walks, kept here as an oracle for the single walk of `calls`.


def ref_call_positions(t, sig):
    """Positions of defined-symbol spines in t, sorted lexicographically."""
    return tuple(sorted(_ref_calls(t, sig)))


def _ref_calls(u, sig):
    if isinstance(u, Var):
        return []
    if isinstance(u, Sym):
        return [()] if u.name in sig.defined else []
    if isinstance(u, Lam):
        return [(1,) + p for p in _ref_calls(u.body, sig)]
    head, args = spine(u)
    if isinstance(head, Sym) and head.name in sig.defined:
        n = len(args)
        out = [()]
        for i, a in enumerate(args, start=1):
            prefix = (1,) * (n - i) + (2,)
            out.extend(prefix + p for p in _ref_calls(a, sig))
        return out
    return [(1,) + p for p in _ref_calls(u.fun, sig)] + [(2,) + p for p in _ref_calls(u.arg, sig)]


def ref_binders_above(t, pos):
    """Binders crossed on the way to pos, keyed by their depth from the root."""
    out = {}
    for i in pos:
        if isinstance(t, Lam):
            out[len(out)] = t.var
            t = t.body
        else:
            t = t.fun if i == 1 else t.arg
    return out


def ref_escaped_variables(rhs, pos):
    """Variables bound above pos that occur free in the subterm at pos,
    ordered by the depth of their innermost binder."""
    innermost = {v: d for d, v in sorted(ref_binders_above(rhs, pos).items())}
    sub = subterm_at(rhs, pos)
    return tuple(sorted((v for v in free_vars(sub) if v in innermost), key=innermost.get))


def _rebind(rng, t, names, env=None):
    """t with every binder renamed to one of names, occurrences following
    their binder; a rename may capture a free variable or shadow an outer
    binder of the same name and type."""
    env = env or {}
    if isinstance(t, Var):
        return env.get(t, t)
    if isinstance(t, App):
        return App(_rebind(rng, t.fun, names, env), _rebind(rng, t.arg, names, env))
    if isinstance(t, Lam):
        v = Var(rng.choice(names), t.var.type)
        return Lam(v, _rebind(rng, t.body, names, {**env, t.var: v}))
    return t


class TestCallsOracle:
    def test_walk_agrees_with_the_position_walks_on_random_terms(self):
        n, lst = Base("N"), Base("L")
        symbols = {
            **GEN_SYMBOLS,
            "f": Arrow(n, Arrow(lst, n)),
            "g": Arrow(Arrow(n, n), n),
            "h": Arrow(Arrow(n, Arrow(n, n)), lst),
        }
        sig = Signature(("L", "N"), symbols, frozenset({"cons", "f", "g", "h", "k", "s"}))
        names = ("x", "y", "X")
        free = (Var("x", n), Var("X", n), Var("y", Arrow(n, n)))
        rng = random.Random(1212)
        terms = calls_seen = shadowed = escaped_two = order_shows = 0
        while terms < 1000:
            # a body under one to four binders of its own, then every
            # binder renamed into the small pool
            bound = tuple(Var(rng.choice(names), n) for _ in range(rng.randint(1, 4)))
            typ = random_type(rng, depth=2)
            try:
                t = random_term(rng, symbols, typ, rng.randint(4, 24), env=free + bound)
            except ValueError:
                continue
            for v in reversed(bound):
                t = Lam(v, t)
            t = _rebind(rng, t, names)
            got = list(calls(t, sig))
            assert [p for p, _, _ in got] == list(ref_call_positions(t, sig))
            for pos, sub, esc in got:
                assert sub == subterm_at(t, pos)
                assert esc == ref_escaped_variables(t, pos)
                above = list(ref_binders_above(t, pos).values())
                shadowed += len(set(above)) < len(above) or any(v in free for v in above)
                escaped_two += len(esc) >= 2
                outermost = tuple(v for k, v in enumerate(above) if v in esc and v not in above[:k])
                order_shows += outermost != esc
            calls_seen += len(got)
            terms += 1
        # the sample reaches what the walk has to get right: shadowing
        # binders, several escaped variables, and calls where ordering
        # them by their outermost binders would differ
        assert calls_seen >= 500
        assert shadowed >= 200
        assert escaped_two >= 30
        assert order_shows >= 5
