"""Rewriting, bounded exploration, and counterexample search."""

import pytest

from conftest import load_system
from gen import GEN_SYMBOLS, make_sig
from hodp.engine import (
    bounded_explore,
    chain_successors,
    disprove_seeds,
    dot_graph,
    format_step,
    ground_term,
    has_alpha_repeat,
    internal_steps,
    pair_root_steps,
    replay_trace,
    rewrite_steps,
    rewrite_successors,
)
from hodp.errors import ResourceLimitError
from hodp.pairs import extract_pairs
from hodp.parser import parse_system
from hodp.terms import App, Arrow, Base, Lam, Sym, Var, alpha_eq, show_term, type_of

GROW = "sort N\n0 : N\ns : N -> N\nf : N -> N\nrule f X -> f (s X)\n"


def map_seed(system):
    sig = system.signature
    return App(
        App(sig.symbol("map"), sig.symbol("s")),
        App(App(sig.symbol("cons"), sig.symbol("0")), sig.symbol("nil")),
    )


class TestSteps:
    def test_single_rule_step(self):
        system = load_system("map")
        steps = rewrite_steps(map_seed(system), system)
        assert [format_step(s) for s in steps] == [
            "rule(r2)@ε: map s (cons 0 nil) => cons (s 0) (map s nil)"
        ]

    def test_beta_steps_are_included(self):
        system = load_system("map")
        sig = system.signature
        x = Var("x", Base("N"))
        t = App(Lam(x, App(sig.symbol("s"), x)), sig.symbol("0"))
        steps = rewrite_steps(t, system)
        assert [s.kind for s in steps] == ["beta"]
        assert show_term(steps[0].target) == "s 0"

    def test_steps_preserve_types(self):
        system = load_system("filter")
        for seed in disprove_seeds(system):
            for step in rewrite_steps(seed, system):
                assert type_of(step.target) == type_of(seed)

    def test_internal_steps_exclude_the_root(self):
        system = parse_system(GROW)
        f = system.signature.symbol("f")
        s = system.signature.symbol("s")
        z = system.signature.symbol("0")
        t = App(s, App(f, z))
        all_steps = rewrite_steps(t, system)
        inner = internal_steps(t, system)
        assert [st.position for st in all_steps] == [(2,)]
        assert [st.position for st in inner] == [(2,)]
        root = App(f, z)
        assert [st.position for st in rewrite_steps(root, system)] == [()]
        assert internal_steps(root, system) == []

    def test_internal_steps_can_drop_beta(self):
        system = load_system("map")
        sig = system.signature
        x = Var("x", Base("N"))
        t = App(sig.symbol("s"), App(Lam(x, x), sig.symbol("0")))
        assert [st.kind for st in internal_steps(t, system)] == ["beta"]
        assert internal_steps(t, system, include_beta=False) == []

    def test_pair_steps_fire_at_the_root_only(self):
        system = load_system("map")
        pairs = extract_pairs(system)
        seed = map_seed(system)
        steps = pair_root_steps(seed, pairs)
        assert [format_step(s) for s in steps] == [
            "dp(d1)@ε: map s (cons 0 nil) => map s nil"
        ]
        buried = App(App(system.signature.symbol("cons"), system.signature.symbol("0")), seed)
        assert pair_root_steps(buried, pairs) == []


class TestExploration:
    def test_terminating_run_reports_longest_path(self):
        system = load_system("map")
        ex = bounded_explore(map_seed(system), rewrite_successors(system))
        assert ex.kind == "all-terminated"
        assert ex.longest == 2
        assert ex.trace is None

    def test_beta_only_term(self):
        system = load_system("map")
        sig = system.signature
        x = Var("x", Base("N"))
        t = App(Lam(x, App(sig.symbol("s"), x)), sig.symbol("0"))
        ex = bounded_explore(t, rewrite_successors(system))
        assert (ex.kind, ex.longest) == ("all-terminated", 1)

    def test_normal_form_has_length_zero(self):
        system = load_system("map")
        ex = bounded_explore(system.signature.symbol("0"), rewrite_successors(system))
        assert (ex.kind, ex.longest) == ("all-terminated", 0)

    def test_depth_bound_produces_a_replayable_trace(self):
        system = parse_system(GROW)
        seed = App(system.signature.symbol("f"), system.signature.symbol("0"))
        ex = bounded_explore(seed, rewrite_successors(system), max_depth=5)
        assert ex.kind == "bound-exceeded"
        assert len(ex.trace) == 6
        assert replay_trace(ex.trace, system, ())
        assert ex.trace[0].source == seed

    def test_node_budget_is_enforced(self):
        system = parse_system(GROW)
        seed = App(system.signature.symbol("f"), system.signature.symbol("0"))
        with pytest.raises(ResourceLimitError):
            bounded_explore(seed, rewrite_successors(system), max_depth=50, max_nodes=3)

    def test_cycle_detection_modulo_renaming(self):
        system = load_system("selfloop")
        (seed,) = disprove_seeds(system)
        ex = bounded_explore(seed, rewrite_successors(system))
        assert ex.kind == "cycle"
        assert len(ex.trace) == 1
        assert has_alpha_repeat(seed, ex.trace)
        assert replay_trace(ex.trace, system, ())

    def test_shared_subterms_are_explored_once(self):
        system = load_system("plus")
        sig = system.signature
        plus, s, z = sig.symbol("plus"), sig.symbol("s"), sig.symbol("0")
        one = App(s, z)
        t = App(App(plus, App(App(plus, one), one)), App(App(plus, one), one))
        ex = bounded_explore(t, rewrite_successors(system))
        assert ex.kind == "all-terminated"
        assert ex.longest >= 4

    def test_recorded_edges_feed_the_dot_renderer(self):
        system = parse_system(GROW)
        seed = App(system.signature.symbol("f"), system.signature.symbol("0"))
        ex = bounded_explore(seed, rewrite_successors(system), max_depth=4, record=True)
        dg = dot_graph(ex.edges)
        assert dg.startswith("digraph")
        assert dg.rstrip().endswith("}")
        assert dg.count("->") == len(ex.edges)


class TestChains:
    def test_chain_successors_respects_the_beta_switch(self):
        system = load_system("map")
        pairs = extract_pairs(system)
        sig = system.signature
        x = Var("x", Base("N"))
        redex = App(Lam(x, x), sig.symbol("0"))
        t = App(App(sig.symbol("map"), sig.symbol("s")), App(App(sig.symbol("cons"), redex), sig.symbol("nil")))
        with_beta = chain_successors(system, pairs)(t)
        without = chain_successors(system, pairs, include_beta=False)(t)
        assert any(s.kind == "beta" for s in with_beta)
        assert all(s.kind != "beta" for s in without)


class TestSeedsAndGround:
    def test_ground_terms_are_minimal_and_closed(self):
        system = load_system("map")
        sig = system.signature
        N, L = Base("N"), Base("List")
        assert show_term(ground_term(sig, N)) == "0"
        assert show_term(ground_term(sig, L)) == "nil"
        assert show_term(ground_term(sig, Arrow(N, N))) == "s"
        assert show_term(ground_term(sig, Arrow(L, L))) == "\\x:List. nil"

    def test_uninhabited_type_gives_none(self):
        sig = make_sig({"c": Arrow(Base("N"), Base("N"))})
        assert ground_term(sig, Base("N")) is None

    def test_map_seeds_instantiate_each_rule(self):
        system = load_system("map")
        assert [show_term(t) for t in disprove_seeds(system)] == [
            "map s nil",
            "map s (cons 0 nil)",
        ]

    def test_seed_keeps_variables_of_empty_types(self):
        system = load_system("selfloop")
        seeds = disprove_seeds(system)
        assert [show_term(t) for t in seeds] == ["f X"]

    def test_seeds_are_well_typed(self):
        for name in ["map", "plus", "minus", "filter", "foldr", "lim", "twice"]:
            system = load_system(name)
            for seed in disprove_seeds(system):
                type_of(seed)


class TestReplay:
    def test_tampered_traces_are_rejected(self):
        system = load_system("selfloop")
        (seed,) = disprove_seeds(system)
        ex = bounded_explore(seed, rewrite_successors(system))
        step = ex.trace[0]
        forged = step.__class__(
            kind=step.kind,
            label=step.label,
            position=step.position,
            source=step.source,
            target=App(step.target, Var("Y", Base("A"))),
        )
        assert not replay_trace([forged], system, ())

    def test_wrong_label_is_rejected(self):
        system = load_system("map")
        steps = rewrite_steps(map_seed(system), system)
        step = steps[0]
        forged = step.__class__(
            kind=step.kind,
            label="r1",
            position=step.position,
            source=step.source,
            target=step.target,
        )
        assert not replay_trace([forged], system, ())
