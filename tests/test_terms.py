"""Core term structure: typing, alpha, substitution, beta, matching."""

import gc
import random
import sys
import weakref

import pytest

from conftest import SYSTEMS_DIR, load_system
from gen import (
    GEN_SYMBOLS,
    WIDE_SYSTEMS,
    arrow,
    beta_normalize,
    positions,
    random_closed_term,
    random_term,
    symbol,
)
from hodp import terms
from hodp.cli import main
from hodp.closure import computability_closure, replay_derivation
from hodp.engine import Successors, bounded_explore, ground_term, rewrite_steps
from hodp.errors import TermError
from hodp.pairs import calls
from hodp.parser import parse_system
from hodp.terms import (
    App,
    Arrow,
    Base,
    Lam,
    Sym,
    Var,
    alpha_canonical,
    alpha_eq,
    apply_subst,
    beta_contract,
    beta_reducts,
    flatten_type,
    free_vars,
    fresh_var,
    make_app,
    match_pattern,
    replace_at,
    show_position,
    show_term,
    show_type,
    spine,
    subterm_at,
    term_size,
    type_of,
)

N = Base("N")
L = Base("L")
NN = Arrow(N, N)

ZERO = Sym("0", N)
S = Sym("s", NN)
NIL = Sym("nil", L)
CONS = Sym("cons", Arrow(N, Arrow(L, L)))


def nat(n):
    t = ZERO
    for _ in range(n):
        t = App(S, t)
    return t


class TestTypes:
    def test_arrow_flatten_roundtrip(self):
        t = arrow((N, NN, L), N)
        assert t == Arrow(N, Arrow(NN, Arrow(L, N)))
        args, out = flatten_type(t)
        assert args == (N, NN, L)
        assert out == N

    def test_show_type_parenthesizes_left_nesting(self):
        assert show_type(Arrow(NN, N)) == "(N -> N) -> N"
        assert show_type(Arrow(N, NN)) == "N -> N -> N"
        assert show_type(N) == "N"

    def test_type_of_application(self):
        assert type_of(App(S, ZERO)) == N
        assert type_of(App(CONS, ZERO)) == Arrow(L, L)

    def test_type_of_rejects_bad_application(self):
        with pytest.raises(TermError, match="does not fit"):
            type_of(App(S, NIL))
        with pytest.raises(TermError, match="not a function"):
            type_of(App(ZERO, ZERO))

    def test_type_of_lambda(self):
        x = Var("x", N)
        assert type_of(Lam(x, App(S, x))) == NN


class TestAlpha:
    def test_binder_names_do_not_matter(self):
        x, y = Var("x", N), Var("y", N)
        assert alpha_eq(Lam(x, x), Lam(y, y))

    def test_distinct_bindings_are_distinguished(self):
        x, y = Var("x", N), Var("y", N)
        inner_x = Lam(x, Lam(y, x))
        inner_y = Lam(x, Lam(y, y))
        assert not alpha_eq(inner_x, inner_y)

    def test_free_variables_must_agree(self):
        assert not alpha_eq(Var("a", N), Var("b", N))

    def test_canonical_form_is_stable(self):
        x, y = Var("x", N), Var("y", N)
        s = Lam(x, Lam(y, App(App(CONS, x), NIL)))
        t = Lam(y, Lam(x, App(App(CONS, y), NIL)))
        assert alpha_canonical(s) == alpha_canonical(t)

    def test_types_are_part_of_identity(self):
        assert not alpha_eq(Lam(Var("x", N), Var("x", N)), Lam(Var("x", L), Var("x", L)))


class TestHashConsing:
    def test_equal_terms_are_the_same_object(self):
        x = Var("x", N)
        s = Lam(x, App(App(CONS, x), NIL))
        t = Lam(Var("x", N), App(App(Sym("cons", Arrow(N, Arrow(L, L))), x), Sym("nil", L)))
        assert s is t
        assert nat(5) is nat(5)

    def test_alpha_variants_canonicalise_to_the_same_object(self):
        s = Lam(Var("x", N), Lam(Var("y", L), App(App(CONS, Var("x", N)), Var("y", L))))
        t = Lam(Var("a", N), Lam(Var("b", L), App(App(CONS, Var("a", N)), Var("b", L))))
        assert s is not t
        assert alpha_canonical(s) is alpha_canonical(t)

    def test_equality_and_hash_of_deep_terms_do_not_recurse(self):
        depth = 10_000
        assert depth > sys.getrecursionlimit()
        s = t = ZERO
        for _ in range(depth):
            s = make_app(S, [s])
            t = make_app(S, [t])
        assert s == t
        assert hash(s) == hash(t)
        assert s != App(S, s)
        assert len({s, t, App(S, s)}) == 2

    def test_typing_a_term_does_not_keep_it_alive(self):
        # a symbol no other test uses, so no cache entry of theirs holds t
        probe = Sym("keep_alive_probe", NN)
        t = Lam(Var("x", N), App(probe, App(probe, Var("x", N))))
        assert type_of(t) == NN
        assert free_vars(t) == frozenset()
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None

    def test_the_canonical_cache_is_bounded(self):
        maxsize = alpha_canonical.cache_info().maxsize
        x = Var("x", N)
        first = weakref.ref(alpha_canonical(Lam(x, App(Sym("c0", NN), x))))
        for i in range(1, maxsize + 1):
            alpha_canonical(Lam(x, App(Sym(f"c{i}", NN), x)))
        assert alpha_canonical.cache_info().currsize == maxsize
        gc.collect()
        assert first() is None

    def test_terms_are_immutable(self):
        t = App(S, ZERO)
        with pytest.raises(AttributeError):
            t.arg = ZERO
        with pytest.raises(AttributeError):
            Var("x", N).name = "y"
        with pytest.raises(AttributeError):
            del t.fun
        assert t.arg is ZERO

    def test_types_are_interned(self):
        assert Base("N") is Base("N")
        assert Arrow(N, N) is Arrow(N, N)
        assert Arrow(Arrow(N, L), N) is Arrow(Arrow(Base("N"), Base("L")), Base("N"))
        assert Arrow(N, N) is not Arrow(N, L)

    def test_types_are_immutable(self):
        t = Arrow(N, L)
        with pytest.raises(AttributeError):
            t.cod = N
        with pytest.raises(AttributeError):
            N.name = "M"
        with pytest.raises(AttributeError):
            del t.dom
        with pytest.raises(AttributeError):
            del N.name
        assert t.cod is L and N.name == "N"

    def test_an_unreferenced_arrow_dies(self):
        ref = weakref.ref(Arrow(Base("Q"), Arrow(Base("Q"), Base("R"))))
        gc.collect()
        assert ref() is None

    def test_no_table_grows_across_analyses(self, tmp_path):
        """An intern entry leaves its table with its node, so once two
        analyses are dropped every table has the size it had before."""
        branching = tmp_path / "branching.hodp"
        branching.write_text(WIDE_SYSTEMS["branching"], encoding="utf-8")
        classes = (Base, Arrow, Var, Sym, App, Lam)
        alpha_canonical.cache_clear()
        gc.collect()
        before = [len(cls._table) for cls in classes]
        assert main(["check", str(SYSTEMS_DIR / "map.hodp"), "--disprove"]) == 0
        assert main(["check", str(branching), "--disprove", "--explore-nodes", "200"]) == 3
        alpha_canonical.cache_clear()
        gc.collect()
        assert [len(cls._table) for cls in classes] == before


# Field values of a node of each interned class that no other test builds,
# so the node is fresh; and the slots each class derives from its fields.
FRESH_FIELDS = {
    Base: lambda: ("Fresh",),
    Arrow: lambda: (Base("Fresh"), Base("Fresh")),
    Var: lambda: ("fresh_var", N),
    Sym: lambda: ("fresh_sym", N),
    # it holds a binder: an application of binder-free parts is its own
    # canonical form from the start (see test_only_a_binder_free_application_is_marked)
    App: lambda: (Lam(Var("fresh_var", N), Var("fresh_var", N)), Var("fresh_var", N)),
    Lam: lambda: (Var("fresh_var", N), Sym("fresh_sym", N)),
}
DERIVED_SLOTS = [
    (Arrow, "_skeleton"),
    (App, "_type"),
    (App, "_free"),
    (App, "_canonical"),
    (Lam, "_type"),
    (Lam, "_free"),
]


class TestNodeConstruction:
    @pytest.mark.parametrize("cls", FRESH_FIELDS, ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("change", [-1, 1], ids=["too-few", "too-many"])
    def test_a_wrong_field_count_raises_and_interns_nothing(self, cls, change):
        values = FRESH_FIELDS[cls]()
        wrong = values[:-1] if change < 0 else values + values[-1:]
        gc.collect()
        size = len(cls._table)
        with pytest.raises((TypeError, ValueError)):
            cls(*wrong)
        assert len(cls._table) == size

    @pytest.mark.parametrize("cls, slot", DERIVED_SLOTS, ids=lambda x: getattr(x, "__name__", x))
    def test_a_fresh_node_derives_nothing(self, cls, slot):
        assert getattr(cls(*FRESH_FIELDS[cls]()), slot) is None

    def test_only_a_binder_free_application_is_marked(self):
        """An application of symbols, variables and marked applications
        reads the canonical marker as it is built; one that holds a binder
        reads None until it is canonicalized."""
        x, f = Var("marked_x", N), Sym("marked_f", Arrow(N, NN))
        marked = [App(S, x), App(App(f, x), ZERO), App(S, App(App(f, App(S, x)), x))]
        ident = Lam(x, x)
        unmarked = [App(ident, x), App(App(f, x), App(ident, ZERO)), App(Sym("marked_g", Arrow(NN, N)), ident)]
        assert [t._canonical is terms.CANONICAL for t in marked] == [True] * 3
        assert [t._canonical for t in unmarked] == [None] * 3
        assert [alpha_canonical(t) is t for t in marked] == [True] * 3

    @pytest.mark.parametrize("cls, slot", DERIVED_SLOTS, ids=lambda x: getattr(x, "__name__", x))
    @pytest.mark.parametrize("write", [setattr, lambda node, slot, _: delattr(node, slot)],
                             ids=["assign", "delete"])
    def test_a_derived_slot_cannot_be_written(self, cls, slot, write):
        node = cls(*FRESH_FIELDS[cls]())
        with pytest.raises(AttributeError):
            write(node, slot, None)


class TestFreeVarsAndSubstitution:
    def test_free_vars_stop_at_binder(self):
        x, y = Var("x", N), Var("y", N)
        t = Lam(x, App(App(S, x), y))
        assert free_vars(t) == frozenset({y})

    def test_fresh_var_avoids_taken_names(self):
        v = fresh_var("x", N, {"x", "x'"})
        assert v.name not in {"x", "x'"}

    def test_substitution_avoids_capture(self):
        x, y = Var("x", N), Var("y", N)
        t = apply_subst(Lam(y, x), {x: y})
        assert isinstance(t, Lam)
        assert t.var.name != "y"
        assert t.body == y
        assert alpha_eq(t, Lam(Var("z", N), y))

    def test_substitution_respects_shadowing(self):
        x = Var("x", N)
        t = Lam(x, x)
        assert apply_subst(t, {x: ZERO}) == t

    def test_substitution_under_binder(self):
        x, y = Var("x", N), Var("y", N)
        t = apply_subst(Lam(y, App(S, x)), {x: ZERO})
        assert alpha_eq(t, Lam(y, App(S, ZERO)))

    def test_substitution_preserves_types(self):
        rng = random.Random(11)
        for _ in range(50):
            t = random_term(rng, GEN_SYMBOLS, N, 8, env=(Var("X", N), Var("H", NN)))
            sub = {Var("X", N): nat(2), Var("H", NN): S}
            assert type_of(apply_subst(t, sub)) == N


class TestBeta:
    def test_contract_duplicating_redex(self):
        x = Var("x", N)
        dup = Lam(x, App(App(CONS, x), App(App(CONS, x), NIL)))
        t = beta_contract(App(dup, nat(1)))
        assert t == App(App(CONS, nat(1)), App(App(CONS, nat(1)), NIL))

    def test_reducts_lists_each_redex_once(self):
        x = Var("x", N)
        idn = Lam(x, x)
        t = App(App(CONS, App(idn, ZERO)), App(App(CONS, App(idn, ZERO)), NIL))
        reducts = beta_reducts(t)
        assert len(reducts) == 2
        for pos, r in reducts:
            assert type_of(r) == L
            assert r != t

    def test_reducts_are_the_redex_positions_in_preorder(self):
        rng = random.Random(31)
        for _ in range(200):
            t = random_closed_term(rng, size_cap=20, redex_rate=0.5)
            expected = [
                (p, replace_at(t, p, beta_contract(sub)))
                for p, sub in positions(t)
                if isinstance(sub, App) and isinstance(sub.fun, Lam)
            ]
            assert beta_reducts(t) == expected

    def test_normalize_reaches_a_normal_form(self):
        x = Var("x", N)
        f = Var("f", NN)
        t = App(App(Lam(f, Lam(x, App(f, App(f, x)))), S), ZERO)
        assert beta_normalize(t) == nat(2)

    def test_normalize_is_idempotent_on_random_terms(self):
        rng = random.Random(23)
        for _ in range(40):
            t = random_closed_term(rng, size_cap=16)
            n = beta_normalize(t)
            assert beta_normalize(n) == n


class TestPositions:
    def test_show_position(self):
        assert show_position(()) == "ε"
        assert show_position((2, 1)) == "2.1"

    def test_positions_are_preorder(self):
        t = App(App(CONS, ZERO), NIL)
        ps = [p for p, _ in positions(t)]
        assert ps == sorted(ps)
        assert ps[0] == ()

    def test_walks_leave_no_reference_cycles(self):
        x = Var("x", N)
        t = App(App(CONS, App(Lam(x, x), ZERO)), App(App(CONS, nat(3)), NIL))
        pattern = App(App(CONS, Var("X", N)), Var("Ls", L))
        system = load_system("map")
        sig = system.signature
        cons, zero, nil = symbol(sig, "cons"), symbol(sig, "0"), symbol(sig, "nil")
        seed = App(App(symbol(sig, "map"), symbol(sig, "s")), App(App(cons, zero), nil))
        _, args = spine(system.rules[1].lhs)
        closure = computability_closure(args, sig)
        grow = parse_system("sort N\n0 : N\ns : N -> N\nf : N -> N\nrule f X -> f (s X)\n")
        gc.collect()
        gc.disable()
        try:
            assert len(positions(t)) == 18
            assert len(beta_reducts(t)) == 1
            assert match_pattern(pattern, t) is not None
            assert bounded_explore(seed, Successors(system, None, True, {})).longest == 2
            assert ground_term(sig, Arrow(nil.type, nil.type)) == Lam(Var("x", nil.type), nil)
            assert list(calls(seed, sig)) == [((), seed, ())]
            derivations = closure.values()
            assert all(replay_derivation(d, args, sig) for d in derivations)
            # states that grow from the last one, with canonical forms
            # stored on their nodes, and one redex table for all of them
            state, table = App(symbol(grow.signature, "f"), symbol(grow.signature, "0")), {}
            for _ in range(20):
                (step,) = rewrite_steps(state, grow, True, table)
                assert alpha_canonical(step.target) is step.target
                state = step.target
            lam_state = App(Lam(Var("y", N), state), ZERO)
            assert alpha_canonical(lam_state).fun.var.name == "!0"
            assert [s.kind for s in rewrite_steps(lam_state, grow, True, table)] == ["beta", "rule"]
            del state, table, step, lam_state
            alpha_canonical.cache_clear()  # drops what only the cache held
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_subterm_and_replace_roundtrip(self):
        rng = random.Random(7)
        for _ in range(60):
            t = random_closed_term(rng, size_cap=14)
            for pos, sub in positions(t):
                assert subterm_at(t, pos) == sub
                assert replace_at(t, pos, sub) == t

    def test_replace_changes_exactly_one_spot(self):
        t = App(App(CONS, ZERO), NIL)
        assert replace_at(t, (1, 2), nat(1)) == App(App(CONS, nat(1)), NIL)

    def test_invalid_position_raises(self):
        with pytest.raises(TermError, match="no position"):
            subterm_at(ZERO, (1,))


class TestSpine:
    def test_spine_decomposition(self):
        t = App(App(CONS, ZERO), NIL)
        head, args = spine(t)
        assert head == CONS
        assert args == (ZERO, NIL)
        assert make_app(head, args) == t

    def test_lambda_heads_are_opaque(self):
        x = Var("x", N)
        t = App(Lam(x, x), ZERO)
        head, args = spine(t)
        assert head == Lam(x, x)
        assert args == (ZERO,)

    def test_term_size_counts_nodes(self):
        assert term_size(ZERO) == 1
        assert term_size(nat(2)) == 5
        assert term_size(Lam(Var("x", N), Var("x", N))) == 2


class TestMatching:
    def test_first_order_match(self):
        f, l = Var("F", NN), Var("Ls", L)
        x = Var("X", N)
        pattern = App(App(CONS, x), l)
        subject = App(App(CONS, nat(1)), NIL)
        sub = match_pattern(pattern, subject)
        assert sub == {x: nat(1), l: NIL}

    def test_match_is_a_real_substitution(self):
        rng = random.Random(31)
        x, l = Var("X", N), Var("Ls", L)
        pattern = App(App(CONS, x), l)
        for _ in range(30):
            inst = apply_subst(
                pattern,
                {x: random_term(rng, GEN_SYMBOLS, N, 5), l: random_term(rng, GEN_SYMBOLS, L, 5)},
            )
            sub = match_pattern(pattern, inst)
            assert sub is not None
            assert apply_subst(pattern, sub) == inst

    def test_repeated_variables_must_agree(self):
        x = Var("X", N)
        pattern = App(App(CONS, x), App(App(CONS, x), NIL))
        good = App(App(CONS, nat(1)), App(App(CONS, nat(1)), NIL))
        bad = App(App(CONS, nat(1)), App(App(CONS, nat(2)), NIL))
        assert match_pattern(pattern, good) == {x: nat(1)}
        assert match_pattern(pattern, bad) is None

    def test_repeated_variables_compare_modulo_alpha(self):
        f = Var("F", NN)
        g = Sym("g", Arrow(NN, Arrow(NN, N)))
        pattern = App(App(g, f), f)
        a = Lam(Var("x", N), Var("x", N))
        b = Lam(Var("y", N), Var("y", N))
        assert match_pattern(pattern, App(App(g, a), b)) is not None

    def test_match_respects_types(self):
        x = Var("X", N)
        assert match_pattern(x, NIL) is None
        assert match_pattern(x, ZERO) == {x: ZERO}

    def test_symbols_match_only_themselves(self):
        assert match_pattern(ZERO, ZERO) == {}
        assert match_pattern(ZERO, NIL) is None

    def test_no_match_for_bound_variable_escape(self):
        # a pattern variable under a binder cannot grab the bound variable
        x = Var("X", N)
        y = Var("y", N)
        pattern = Lam(y, App(S, x))
        subject = Lam(y, App(S, y))
        assert match_pattern(pattern, subject) is None

    def test_match_under_binder_binds_outside_values(self):
        x = Var("X", N)
        y = Var("y", N)
        pattern = Lam(y, App(S, x))
        subject = Lam(y, App(S, nat(1)))
        assert match_pattern(pattern, subject) == {x: nat(1)}

    def test_binder_types_must_match(self):
        p = Lam(Var("y", N), Var("X", N))
        s = Lam(Var("y", L), Var("X2", N))
        assert match_pattern(p, s) is None


class TestGeneratedTermsAreWellTyped:
    def test_generator_contract(self):
        rng = random.Random(2)
        for _ in range(100):
            t = random_closed_term(rng)
            assert term_size(t) <= 20
            assert free_vars(t) == frozenset()
            assert isinstance(type_of(t), Base)
