"""Acceptance suite.

Ten checks, one per criterion, in order. Each prints a single PASS
line when it holds; a failed assertion is the FAIL line.
"""

import json
import random
import time

from conftest import load_system, system_text
from gen import (
    GEN_SYMBOLS,
    fo_defined_occurrences,
    fo_to_term,
    random_closed_term,
    random_fo_trs,
    random_pattern_args,
    random_subst,
    random_term,
    random_type,
    random_var_pool,
    rule_instance_seeds,
)
from hodp.closure import computability_closure, replay_derivation, rule_admissibility
from hodp.engine import (
    bounded_explore,
    chain_successors,
    disprove_seeds,
    has_alpha_repeat,
    replay_trace,
    rewrite_successors,
)
from hodp.ordering import (
    PathOrder,
    Precedence,
    type_skeleton,
    weakly_decreases,
)
from hodp.pairs import extract_pairs
from hodp.parser import parse_system
from hodp.pipeline import Options, render_json, render_text, run_pipeline
from hodp.signature import polarity_positions
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
    beta_normalize,
    beta_reducts,
    free_vars,
    positions,
    show_position,
    show_term,
    term_size,
    type_of,
)

YES_SYSTEMS = ["map", "plus", "minus", "twice", "filter", "beta_only"]


def test_01_map_end_to_end():
    started = time.perf_counter()
    system = parse_system(system_text("map"))
    report = run_pipeline(system, Options())
    elapsed = time.perf_counter() - started
    assert report.verdict == "YES"
    pairs = extract_pairs(system)
    assert len(pairs) == 1
    (pair,) = pairs
    assert show_term(pair.lhs) == "map F (cons X L)"
    assert show_term(pair.rhs) == "map F L"
    assert show_position(pair.position) == "2"
    assert report.certificate.edges == (("map", "cons"),)
    assert report.certificate.statuses == (("map", "mul"),)
    assert elapsed < 1.0
    print(f"PASS: 01 map is certified YES with one pair in {elapsed * 1000:.0f}ms")


def test_02_lim_diagnostics():
    report = run_pipeline(load_system("lim"), Options())
    assert report.verdict == "MAYBE"
    assert report.stage == "admissibility"
    adm = report.admissibility[0]
    assert adm.rule.name == "r1"
    assert not adm.admissible
    assert [v.name for v in adm.missing] == ["F"]
    d1 = report.pairs[0]
    assert show_position(d1.position) == "2.1"
    assert [v.name for v in d1.check.escaped] == ["n"]
    assert not d1.check.ok
    print("PASS: 02 lim is MAYBE with both diagnostics (underivable F, escaping n at 2.1)")


def test_03_first_order_extraction_matches_the_classical_one():
    rng = random.Random(303)
    systems = 0
    compared = 0
    for _ in range(30):
        system, fo_rules, defined, symbols = random_fo_trs(rng)
        mine = sorted(
            (p.rule.index, show_term(alpha_canonical(p.lhs)), show_term(alpha_canonical(p.rhs)))
            for p in extract_pairs(system)
        )
        oracle = []
        for idx, (lhs, rhs) in enumerate(fo_rules, start=1):
            lhs_shown = show_term(alpha_canonical(fo_to_term(lhs, symbols)))
            for occ in fo_defined_occurrences(rhs, defined):
                oracle.append((idx, lhs_shown, show_term(alpha_canonical(fo_to_term(occ, symbols)))))
        oracle.sort()
        assert mine == oracle
        systems += 1
        compared += len(mine)
    assert systems >= 20
    print(f"PASS: 03 extraction agrees with the first order oracle on {systems} systems ({compared} pairs)")


def test_04_polarity_partitions_every_type():
    def leaf_positions(t):
        if isinstance(t, Base):
            return {()}
        return {(1,) + p for p in leaf_positions(t.dom)} | {
            (2,) + p for p in leaf_positions(t.cod)
        }

    rng = random.Random(404)
    for _ in range(1000):
        t = random_type(rng, sorts=("N", "L", "B"), depth=rng.randint(0, 6))
        pos = polarity_positions(t, True)
        neg = polarity_positions(t, False)
        assert pos & neg == frozenset()
        assert pos | neg == leaf_positions(t)
    print("PASS: 04 positive and negative positions partition 1000 random types")


def max_binder_depth(t, depth=0):
    if isinstance(t, App):
        return max(max_binder_depth(t.fun, depth), max_binder_depth(t.arg, depth))
    if isinstance(t, Lam):
        return max_binder_depth(t.body, depth + 1)
    return depth


def test_05_closures_are_bounded_and_replayable():
    from hodp.terms import spine

    shipped_rules = 0
    for name in YES_SYSTEMS + ["lim", "foldr", "selfloop"]:
        system = load_system(name)
        for rule in system.rules:
            adm = rule_admissibility(rule, system.signature)
            _, lhs_args = spine(rule.lhs)
            for entry in adm.entries:
                if entry.derivation is not None:
                    assert replay_derivation(entry.derivation, lhs_args, system.signature)
            shipped_rules += 1

    from gen import PATTERN_SYMBOLS, make_sig

    sig = make_sig(PATTERN_SYMBOLS)
    rng = random.Random(505)
    for _ in range(200):
        args = random_pattern_args(rng)
        fvs = sorted(set().union(*(free_vars(a) for a in args)), key=lambda v: v.name)
        clo = computability_closure(args, sig, targets=tuple(fvs))
        total = sum(term_size(a) for a in args)
        depth = max(max_binder_depth(a) for a in args)
        bound = total * (1 + len(fvs)) ** depth
        assert len(clo) <= bound
        for d in clo.order:
            assert replay_derivation(d, args, sig)
    print(
        f"PASS: 05 closures stay under the size bound and replay ({shipped_rules} shipped rules, 200 generated patterns)"
    )


def test_06_ordering_axioms():
    rng = random.Random(606)
    prec = Precedence.make(
        (("cons", "s"), ("s", "0"), ("k", "nil"), ("cons", "k")), (("cons", "lex"),)
    )

    # irreflexivity
    for _ in range(1000):
        env = random_var_pool(rng, 3)
        typ = Base(rng.choice(("N", "L"))) if rng.random() < 0.7 else random_type(rng, depth=2)
        t = random_term(rng, GEN_SYMBOLS, typ, rng.randint(1, 10), env=env)
        assert PathOrder(prec).greater(t, t) is None

    # stability: strict pairs survive substitution
    strict_pairs = []
    attempts = 0
    while len(strict_pairs) < 100 and attempts < 5000:
        attempts += 1
        env = random_var_pool(rng, 3)
        s = random_term(rng, GEN_SYMBOLS, Base(rng.choice(("N", "L"))), rng.randint(4, 9), env=env)
        if term_size(s) < 3:
            continue
        candidates = [sub for _, sub in positions(s)][1:6]
        candidates.append(random_term(rng, GEN_SYMBOLS, type_of(s), 2, env=env))
        for t in candidates:
            if alpha_eq(s, t):
                continue
            if PathOrder(prec).greater(s, t) is not None:
                strict_pairs.append((s, t))
                break
    assert len(strict_pairs) == 100
    for s, t in strict_pairs:
        fvs = sorted(free_vars(s) | free_vars(t), key=lambda v: v.name)
        for _ in range(5):
            sub = random_subst(rng, fvs, budget=4)
            assert PathOrder(prec).greater(apply_subst(s, sub), apply_subst(t, sub)) is not None

    # compatibility: a weak step in front of a strict one stays strict
    order = PathOrder(prec)
    zero = Sym("0", Base("N"))
    for t, u in strict_pairs:
        x = Var("xx", Base("N"))
        s = App(Lam(x, t), zero)
        assert weakly_decreases(s, t, order) is not None
        assert PathOrder(prec).greater(s, u) is not None

    # acyclicity over one 500 term pool
    pool_vars = random_var_pool(rng, 5)
    terms = []
    seen = set()
    while len(terms) < 500:
        typ = Base(rng.choice(("N", "L"))) if rng.random() < 0.8 else random_type(rng, depth=2)
        t = random_term(rng, GEN_SYMBOLS, typ, rng.randint(1, 8), env=pool_vars)
        if term_size(t) > 10:
            continue
        key = alpha_canonical(t)
        if key in seen:
            continue
        seen.add(key)
        terms.append(t)
    shared = PathOrder(prec)
    groups = {}
    for i, t in enumerate(terms):
        groups.setdefault(type_skeleton(type_of(t)), []).append(i)
    edges = {i: [] for i in range(len(terms))}
    edge_count = 0
    for idxs in groups.values():
        for i in idxs:
            for j in idxs:
                if i != j and shared.greater(terms[i], terms[j]) is not None:
                    edges[i].append(j)
                    edge_count += 1
    color = [0] * len(terms)  # 0 new, 1 on stack, 2 done
    for start in range(len(terms)):
        if color[start]:
            continue
        stack = [(start, iter(edges[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[node] = 2
                stack.pop()
                continue
            assert color[nxt] != 1, "strict comparison admits a cycle"
            if color[nxt] == 0:
                color[nxt] = 1
                stack.append((nxt, iter(edges[nxt])))
    print(
        "PASS: 06 ordering axioms hold (1000 irreflexive, 100 pairs x 5 substitutions stable, "
        f"100 compositions strict, {edge_count} edges acyclic over 500 terms)"
    )


def test_07_positive_verdicts_survive_exploration():
    rng = random.Random(707)
    for name in YES_SYSTEMS:
        system = load_system(name)
        report = run_pipeline(system, Options())
        assert report.verdict == "YES"
        succ = rewrite_successors(system)
        table = dict(system.signature.symbols)
        seeds = [random_closed_term(rng, size_cap=14, symbols=table) for _ in range(25)]
        seeds += rule_instance_seeds(rng, system, per_rule=6)[:25]
        while len(seeds) < 50:
            seeds.append(random_closed_term(rng, size_cap=14, symbols=table))
        for seed in seeds:
            ex = bounded_explore(seed, succ, max_depth=200, max_nodes=100_000)
            assert ex.kind == "all-terminated", (name, show_term(seed), ex.kind)
    print(f"PASS: 07 every YES system terminates from 50 seeds ({', '.join(YES_SYSTEMS)})")


def test_08_selfloop_is_disproved_with_a_replayable_cycle():
    system = load_system("selfloop")
    report = run_pipeline(system, Options(disprove=True))
    assert report.verdict == "NO"
    assert len(report.witness["trace"]) == 1

    (seed,) = disprove_seeds(system)
    ex = bounded_explore(seed, rewrite_successors(system))
    assert ex.kind == "cycle"
    assert len(ex.trace) == 1
    assert replay_trace(ex.trace, system, ())
    assert has_alpha_repeat(seed, ex.trace)

    pairs = extract_pairs(system)
    chain = bounded_explore(seed, chain_successors(system, pairs))
    assert chain.kind == "cycle"
    assert replay_trace(chain.trace, system, pairs)
    print("PASS: 08 selfloop is NO with a replayable one step cycle in both relations")


def test_09_closed_terms_normalize():
    rng = random.Random(909)
    had_redex = 0
    for _ in range(500):
        t = random_closed_term(rng, size_cap=20, redex_rate=0.55)
        if beta_reducts(t):
            had_redex += 1
        n = beta_normalize(t)
        assert beta_reducts(n) == []
        assert type_of(n) == type_of(t)
    assert had_redex >= 50
    print(f"PASS: 09 500 closed terms normalize with types preserved ({had_redex} contained a redex)")


def test_10_reports_are_deterministic():
    cases = [("map", Options()), ("lim", Options()), ("foldr", Options()),
             ("plus", Options()), ("selfloop", Options(disprove=True))]
    for name, opts in cases:
        outputs = []
        for _ in range(2):
            system = parse_system(system_text(name))
            report = run_pipeline(system, opts)
            d = json.loads(render_json(report))
            d.pop("timing")
            text = "\n".join(
                line
                for line in render_text(report, show_traces=True).splitlines()
                if not line.startswith("elapsed")
            )
            outputs.append((json.dumps(d, indent=2, ensure_ascii=False), text))
        assert outputs[0] == outputs[1], name
    print("PASS: 10 reports are byte identical across runs once timing is stripped")
