"""Derivable subterm closure over rule arguments."""

import random

from conftest import load_system
from gen import random_pattern_args
from hodp.closure import (
    computability_closure,
    replay_derivation,
    rule_admissibility,
)
from hodp.signature import Signature
from hodp.terms import (
    App,
    Arrow,
    Base,
    Lam,
    Sym,
    Var,
    alpha_canonical,
    free_vars,
    show_term,
    term_size,
)

N = Base("N")
NN = Arrow(N, N)

PLAIN_SIG = Signature(("N",), {"c": NN, "0": N}, frozenset())


def members(clo):
    return sorted(show_term(d.term) for d in clo.values())


def max_binder_depth(t, depth=0):
    if isinstance(t, App):
        return max(max_binder_depth(t.fun, depth), max_binder_depth(t.arg, depth))
    if isinstance(t, Lam):
        return max_binder_depth(t.body, depth + 1)
    return depth


class TestDestructors:
    def test_arguments_are_members(self):
        x = Var("X", N)
        clo = computability_closure((x,), PLAIN_SIG)
        assert alpha_canonical(x) in clo
        assert clo[alpha_canonical(x)].step == "arg"

    def test_accessible_argument_destructor(self):
        x = Var("X", N)
        arg = App(Sym("c", NN), x)
        clo = computability_closure((arg,), PLAIN_SIG)
        assert alpha_canonical(x) in clo
        d = clo[alpha_canonical(x)]
        assert d.step == "acc" and d.index == 1
        assert d.premises[0].step == "arg"

    def test_binder_stripping_then_left_application(self):
        f = Var("F", NN)
        y = Var("y", N)
        args = (Lam(y, App(f, y)),)
        clo = computability_closure(args, PLAIN_SIG, targets=(f,))
        assert alpha_canonical(f) in clo
        d = clo[alpha_canonical(f)]
        assert d.step == "app-left"
        assert d.premises[0].step == "lam"
        assert replay_derivation(d, args, PLAIN_SIG)

    def test_right_application_projects_through_variable_head(self):
        y = Var("y", NN)
        f = Var("F", N)
        args = (Lam(y, App(y, f)),)
        clo = computability_closure(args, PLAIN_SIG, targets=(f,))
        assert alpha_canonical(f) in clo
        d = clo[alpha_canonical(f)]
        assert d.step == "app-right"
        assert replay_derivation(d, args, PLAIN_SIG)

    def test_right_application_needs_projective_type(self):
        # the head variable returns L, not the argument type, so the
        # projection rule must not fire
        Lx = Base("L")
        sig = Signature(("N", "L"), {"0": N}, frozenset())
        y = Var("y", Arrow(N, Lx))
        f = Var("F", N)
        clo = computability_closure((Lam(y, App(y, f)),), sig, targets=(f,))
        assert alpha_canonical(f) not in clo

    def test_binder_can_be_renamed_to_a_target(self):
        g = Var("G", N)
        args = (Lam(Var("y", N), App(Sym("c", NN), Var("y", N))),)
        clo = computability_closure(args, PLAIN_SIG, targets=(g,))
        assert alpha_canonical(g) in clo
        assert replay_derivation(clo[alpha_canonical(g)], args, PLAIN_SIG)

    def test_stripping_requires_binder_fresh_for_arguments(self):
        # the bound name is free elsewhere in the arguments, so the
        # canonical choice must rename and the free occurrence stays out
        y = Var("y", N)
        args = (Lam(y, y), y)
        clo = computability_closure(args, PLAIN_SIG)
        assert alpha_canonical(y) in clo  # as the second argument itself
        assert clo[alpha_canonical(y)].step == "arg"


class TestRuleClosures:
    def test_map_rule_closures(self):
        system = load_system("map")
        r1, r2 = system.rules
        adm1 = rule_admissibility(r1, system.signature)
        adm2 = rule_admissibility(r2, system.signature)
        assert adm1.admissible and adm2.admissible
        assert adm1.closure_size == 2
        assert adm2.closure_size == 4
        steps = {v.name: d.step for v, d in adm2.entries}
        assert steps == {"F": "arg", "X": "acc", "L": "acc"}

    def test_lim_rule_is_rejected_with_a_named_variable(self):
        system = load_system("lim")
        adm = rule_admissibility(system.rules[0], system.signature)
        assert not adm.admissible
        assert [v.name for v, d in adm.entries if d is None] == ["F"]
        entry = {v.name: d for v, d in adm.entries}
        assert entry["X"] is not None
        assert entry["F"] is None

    def test_plus_rules_are_admissible(self):
        system = load_system("plus")
        for rule in system.rules:
            assert rule_admissibility(rule, system.signature).admissible


class TestClosureBounds:
    def test_generated_patterns_terminate_within_the_size_bound(self):
        rng = random.Random(97)
        from gen import PATTERN_SYMBOLS, make_sig

        sig = make_sig(PATTERN_SYMBOLS)
        for _ in range(60):
            args = random_pattern_args(rng)
            fvs = sorted(set().union(*(free_vars(a) for a in args)), key=lambda v: v.name)
            targets = tuple(fvs)
            clo = computability_closure(args, sig, targets=targets)
            total = sum(term_size(a) for a in args)
            depth = max(max_binder_depth(a) for a in args)
            bound = total * (1 + len(targets)) ** depth
            assert len(clo) <= bound

    def test_every_derivation_replays(self):
        rng = random.Random(101)
        from gen import PATTERN_SYMBOLS, make_sig

        sig = make_sig(PATTERN_SYMBOLS)
        for _ in range(40):
            args = random_pattern_args(rng)
            fvs = sorted(set().union(*(free_vars(a) for a in args)), key=lambda v: v.name)
            clo = computability_closure(args, sig, targets=tuple(fvs))
            for d in clo.values():
                assert replay_derivation(d, args, sig)
