"""Recursive path comparison, weak decrease, certificate search."""

import collections
import itertools
import math
import random
import sys
import tracemalloc

import pytest

from conftest import SYSTEMS_DIR, load_system
from gen import (
    GEN_SYMBOLS,
    chain_text,
    positions,
    precedence,
    random_fo_trs,
    random_ho_system,
    random_subst,
    random_term,
    random_type,
    random_var_pool,
    symbol,
)
from hodp import ordering
from hodp.errors import InputError, LimitError
from hodp.ordering import (
    Certificate,
    GtTrace,
    PathOrder,
    Precedence,
    _symbol_arity,
    check_constraints,
    check_with_statuses,
    search_certificate,
    term_symbols,
    transitive_closure,
    type_skeleton,
    weakly_decreases,
)
from hodp.pairs import extract_pairs
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
    beta_reducts,
    free_vars,
    term_size,
    type_of,
)

N = Base("N")
LEX_SYSTEM = "sort N\n0 : N\ns : N -> N\nf : N -> N -> N\nrule f (s X) Y -> f X (s Y)\n"

# Declarations and rules to follow the shipped foldr system, by the number
# of symbols it then mentions.  Its unorientable rule stays the first one.
FOLDR_EXTRAS = {
    5: "0 : N\nlen : List -> N\nrule len nil -> 0\nrule len (cons X L) -> len L\n",
    6: "0 : N\ns : N -> N\nlen : List -> N\n"
    "rule len nil -> 0\nrule len (cons X L) -> s (len L)\n",
    7: "0 : N\ns : N -> N\nlen : List -> N\nplus : N -> N -> N\n"
    "rule len nil -> 0\nrule len (cons X L) -> s (len L)\n"
    "rule plus 0 Y -> Y\nrule plus (s X) Y -> s (plus X Y)\n",
}


def _sides(system, pairs):
    """Both sides of every rule, then of every pair."""
    return [t for c in (*system.rules, *pairs) for t in (c.lhs, c.rhs)]


def constraint_symbols(system, pairs):
    """Every symbol of a side of a rule or a pair, sorted."""
    return tuple(sorted(set().union(*map(term_symbols, _sides(system, pairs)))))


def _foldr_system(size):
    text = (SYSTEMS_DIR / "foldr.hodp").read_text(encoding="utf-8")
    return parse_system(text + FOLDR_EXTRAS.get(size, ""))


def _exhausting_foldr_counts(calls, count=len):
    """By the number of symbols: count of the items the foldr search of
    that size, which finds no certificate, appends to calls."""
    counts = {}
    for size in (3, *FOLDR_EXTRAS):
        system = _foldr_system(size)
        pairs = extract_pairs(system)
        assert len(constraint_symbols(system, pairs)) == size
        calls.clear()
        assert search_certificate(system, pairs).certificate is None
        counts[size] = count(calls)
    return counts


def _two_argument_chains():
    """Twelve seeded chain systems of 4 or 5 defined symbols, 2 or 3 of
    which take two arguments: lex heads and heads that hold under either
    status."""
    rng = random.Random(3005)
    return [parse_system(chain_text(rng, 4 + k % 2, binary=2 + k % 2)) for k in range(12)]


def _fixed_point_closure(pairs):
    """The transitive closure by its definition: add (a, d) for every two
    edges (a, b) and (b, d) until nothing changes."""
    edges = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(edges):
            for c, d in list(edges):
                if b == c and (a, d) not in edges:
                    edges.add((a, d))
                    changed = True
    return edges


def _bounded_weakly_decreases(s, t, order, beta_bound=8):
    """Weak decrease as a breadth-first search over beta reducts of s,
    each tested against t for alpha-equality or a strict decrease:
    (kind, beta path, strict trace), shortest path first, or None.  Kept
    as the reference the weak order must agree with."""
    seen = {alpha_canonical(s)}
    frontier = [(s, ())]
    for depth in range(beta_bound + 1):
        nxt = []
        for u, path in frontier:
            if alpha_eq(u, t):
                return "alpha", path, None
            g = order.greater(u, t)
            if g is not None:
                return "strict", path, g
            if depth < beta_bound:
                for pos, u2 in beta_reducts(u):
                    key = alpha_canonical(u2)
                    if key not in seen:
                        seen.add(key)
                        nxt.append((u2, path + (pos,)))
        frontier = nxt
        if not frontier:
            break
    return None


def _redex_heavy_pairs(rng, count):
    """Pairs of terms of one type whose left sides have redexes.
    The right side is the left one, one of its reducts a few steps down,
    one of its subterms, or a term of its own."""
    pairs = []
    while len(pairs) < count:
        env = random_var_pool(rng, 3)
        typ = Base(rng.choice(("N", "L"))) if rng.random() < 0.8 else random_type(rng, depth=2)
        s = random_term(rng, GEN_SYMBOLS, typ, rng.randint(5, 14), env=env, redex_rate=1.0)
        if not beta_reducts(s):
            continue
        pick = rng.randrange(4)
        t = s
        if pick == 1:
            for _ in range(rng.randint(1, 3)):
                reducts = beta_reducts(t)
                if reducts:
                    t = rng.choice(reducts)[1]
        elif pick == 2:
            subs = [u for _, u in positions(s) if type_of(u) == typ]
            t = rng.choice(subs)
        elif pick == 3:
            t = random_term(rng, GEN_SYMBOLS, typ, rng.randint(1, 8), env=env, redex_rate=0.3)
        pairs.append((s, t))
    return pairs


class TestPrecedence:
    def test_transitive_closure(self):
        assert sorted(transitive_closure([("a", "b"), ("b", "c")])) == [
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
        ]

    def test_cycles_are_rejected(self):
        with pytest.raises(InputError, match="above itself"):
            transitive_closure([("a", "b"), ("b", "a")])

    def test_closure_matches_the_fixed_point(self):
        rng = random.Random(2018)
        cyclic_cases = 0
        for _ in range(400):
            names = [f"s{i}" for i in range(rng.randint(1, 7))]
            pairs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 10))]
            closed = _fixed_point_closure(pairs)
            cyclic = sorted(a for a, b in closed if a == b)
            if not cyclic:
                assert transitive_closure(pairs) == closed, pairs
                continue
            cyclic_cases += 1
            with pytest.raises(InputError) as exc:
                transitive_closure(pairs)
            assert str(exc.value) == f"precedence orders {cyclic[0]} above itself"
        assert 0 < cyclic_cases < 400

    def test_long_chain(self):
        names = [f"c{i:03d}" for i in range(300)]
        chain = list(zip(names, names[1:]))
        assert transitive_closure(chain) == frozenset(itertools.combinations(names, 2))
        with pytest.raises(InputError, match="orders c000 above itself"):
            transitive_closure(chain + [("c299", "c150"), ("c150", "c000")])

    def test_make_closes_and_compares(self):
        prec = precedence((("a", "b"), ("b", "c")), ())
        assert prec.greater("a", "c")
        assert not prec.greater("c", "a")
        assert not prec.greater("a", "a")

    def test_status_defaults_to_multiset(self):
        prec = precedence((), (("f", "lex"),))
        assert prec.status("f") == "lex"
        assert prec.status("g") == "mul"


class TestTypeSkeleton:
    def test_base_sorts_are_identified(self):
        assert type_skeleton(N) == type_skeleton(Base("L"))

    def test_arrow_shape_is_kept(self):
        assert type_skeleton(Arrow(N, N)) != type_skeleton(N)
        assert type_skeleton(Arrow(N, N)) == type_skeleton(Arrow(Base("L"), Base("M")))

    def test_incompatible_shapes_block_the_order(self):
        s = Sym("s", Arrow(N, N))
        z = Sym("0", N)
        assert PathOrder(precedence((("s", "0"),), ())).greater(s, z) is None


class TestClauses:
    def setup_method(self):
        self.system = load_system("map")
        sig = self.system.signature
        self.map = symbol(sig, "map")
        self.cons = symbol(sig, "cons")
        self.nil = symbol(sig, "nil")
        self.s = symbol(sig, "s")
        self.zero = symbol(sig, "0")
        self.F = Var("F", Arrow(N, N))
        self.X = Var("X", N)
        self.L = Var("L", Base("List"))
        self.empty = Precedence(frozenset())

    def test_subterm_clause_wins_before_precedence(self):
        t = App(App(self.map, self.F), self.nil)
        tr = PathOrder(precedence((("map", "nil"),), ())).greater(t, self.nil)
        assert tr.clause == "subterm"
        assert tr.detail == (2,)

    def test_precedence_clause_covers_arguments(self):
        lhs = App(App(self.map, self.F), App(App(self.cons, self.X), self.L))
        rhs = App(App(self.cons, App(self.F, self.X)), App(App(self.map, self.F), self.L))
        assert PathOrder(self.empty).greater(lhs, rhs) is None
        tr = PathOrder(precedence((("map", "cons"),), ())).greater(lhs, rhs)
        assert tr.clause == "precedence"
        assert tr.detail == ("map", "cons")

    def test_same_symbol_multiset_comparison(self):
        lhs = App(App(self.map, self.F), App(App(self.cons, self.X), self.L))
        rhs = App(App(self.map, self.F), self.L)
        tr = PathOrder(self.empty).greater(lhs, rhs)
        assert tr.clause == "same-symbol"
        assert tr.detail == ("map", "mul")

    def test_application_clause(self):
        system = load_system("twice")
        rule = system.rules[0]
        tr = PathOrder(self.empty).greater(rule.lhs, rule.rhs)
        assert tr.clause == "application"

    def test_abstraction_clause_aligns_binders(self):
        x, y = Var("x", N), Var("y", N)
        tr = PathOrder(self.empty).greater(Lam(x, App(self.s, x)), Lam(y, y))
        assert tr.clause == "abstraction"
        assert tr.children[0].clause == "subterm"

    def test_beta_clause(self):
        x = Var("x", N)
        redex = App(Lam(x, App(self.s, x)), self.zero)
        tr = PathOrder(self.empty).greater(redex, App(self.s, self.zero))
        assert tr.clause == "beta"

    def test_lex_and_mul_statuses_differ(self):
        system = parse_system(LEX_SYSTEM)
        pairs = extract_pairs(system)
        lex = check_constraints(system, pairs, precedence((("f", "s"),), (("f", "lex"),)))
        mul = check_constraints(system, pairs, precedence((("f", "s"),), (("f", "mul"),)))
        assert lex.certificate is not None
        assert mul.certificate is None
        assert [v.label for v in mul.violations] == ["r1", "d1"]

    def test_strictness_is_irreflexive_on_samples(self):
        rng = random.Random(5)
        prec = precedence((("cons", "nil"), ("s", "0")), ())
        for _ in range(50):
            t = random_term(rng, GEN_SYMBOLS, N, 8, env=random_var_pool(rng))
            assert PathOrder(prec).greater(t, t) is None


class TestWeakDecrease:
    def test_alpha_equal_terms_decrease_weakly(self):
        x, y = Var("x", N), Var("y", N)
        order = PathOrder(Precedence(frozenset()))
        assert weakly_decreases(Lam(x, x), Lam(y, y), order) == GtTrace("alpha")

    def test_strict_comparison_counts(self):
        system = load_system("map")
        order = PathOrder(precedence((("map", "cons"),), ()))
        rule = system.rules[1]
        assert weakly_decreases(rule.lhs, rule.rhs, order).clause == "precedence"

    def test_beta_prefix_is_folded_into_strict(self):
        system = load_system("map")
        sig = system.signature
        x = Var("x", N)
        redex = App(Lam(x, App(symbol(sig, "s"), x)), symbol(sig, "0"))
        order = PathOrder(Precedence(frozenset()))
        w = weakly_decreases(redex, App(symbol(sig, "s"), symbol(sig, "0")), order)
        assert w.clause == "beta"

    def test_unrelated_terms_do_not_decrease(self):
        order = PathOrder(Precedence(frozenset()))
        assert weakly_decreases(Sym("0", N), App(Sym("s", Arrow(N, N)), Sym("0", N)), order) is None

    def test_matches_the_bounded_beta_search(self):
        """The strict order already tries every reduct of the left side,
        so the bounded search never needs a beta path."""
        edges = (("cons", "s"), ("s", "0"), ("k", "nil"), ("cons", "k"))
        precs = (
            Precedence(frozenset()),
            precedence(edges),
            precedence(edges, (("cons", "lex"), ("k", "lex"))),
        )
        rng = random.Random(2019)
        seen = set()
        for s, t in _redex_heavy_pairs(rng, 400):
            for prec in precs:
                ref = _bounded_weakly_decreases(s, t, PathOrder(prec))
                new = weakly_decreases(s, t, PathOrder(prec))
                if ref is None:
                    assert new is None, (s, t)
                    seen.add(None)
                    continue
                kind, path, strict = ref
                assert path == ()
                assert new == (GtTrace("alpha") if kind == "alpha" else strict), (s, t)
                seen.add(new.clause)
        assert {None, "alpha", "beta", "subterm", "same-symbol"} <= seen, seen


class TestStability:
    def test_derivations_survive_substitution(self):
        rng = random.Random(13)
        sig_s = Sym("s", Arrow(N, N))
        cons = Sym("cons", Arrow(N, Arrow(Base("L"), Base("L"))))
        prec = precedence((("cons", "s"),), ())
        for _ in range(40):
            x = Var("X", N)
            l = Var("Ls", Base("L"))
            lhs = App(App(cons, App(sig_s, x)), l)
            rhs = App(App(cons, x), l)
            assert PathOrder(prec).greater(lhs, rhs) is not None
            sub = random_subst(rng, [x, l], budget=5)
            s_i, t_i = apply_subst(lhs, sub), apply_subst(rhs, sub)
            assert PathOrder(prec).greater(s_i, t_i) is not None


class TestConstraints:
    def test_map_certificate(self):
        system = load_system("map")
        pairs = extract_pairs(system)
        prec = precedence((("map", "cons"),), ())
        res = check_constraints(system, pairs, prec)
        cert = res.certificate
        assert cert is not None
        assert res.violations == ()
        assert cert.edges == (("map", "cons"),)
        assert cert.statuses == (("map", "mul"),)
        assert [lbl for lbl, _ in cert.rule_witnesses] == ["r1", "r2"]
        assert [lbl for lbl, _ in cert.pair_witnesses] == ["d1"]

    def test_empty_precedence_blames_the_recursive_rule(self):
        system = load_system("map")
        pairs = extract_pairs(system)
        res = check_constraints(system, pairs, Precedence(frozenset()))
        assert res.certificate is None
        assert [(v.kind, v.label) for v in res.violations] == [("rule", "r2")]

    def test_certificate_replays(self):
        for name in ["map", "plus", "minus", "twice", "filter"]:
            system = load_system(name)
            pairs = extract_pairs(system)
            first = search_certificate(system, pairs).certificate
            assert first is not None
            again = check_constraints(
                system, pairs, precedence(first.edges, first.statuses)
            ).certificate
            assert again == first

    def test_unused_edges_are_dropped_from_the_certificate(self):
        system = load_system("map")
        pairs = extract_pairs(system)
        bloated = precedence(
            (("map", "cons"), ("map", "nil"), ("cons", "nil"), ("s", "0")), ()
        )
        cert = check_constraints(system, pairs, bloated).certificate
        assert cert.edges == (("map", "cons"),)


class TestSearch:
    def test_search_prefers_small_precedences(self):
        system = load_system("minus")
        cert = search_certificate(system, extract_pairs(system)).certificate
        assert cert.edges == ()

    def test_search_finds_lex_when_needed(self):
        system = parse_system(LEX_SYSTEM)
        cert = search_certificate(system, extract_pairs(system)).certificate
        assert cert.edges == (("f", "s"),)
        assert cert.statuses == (("f", "lex"),)

    def test_required_edges_restrict_the_search(self):
        system = load_system("map")
        pairs = extract_pairs(system)
        assert search_certificate(system, pairs, hints=(("cons", "map"),)).certificate is None
        cert = search_certificate(system, pairs, hints=(("map", "cons"),)).certificate
        assert cert.edges == (("map", "cons"),)

    def test_symbol_budget_is_enforced(self):
        system = load_system("map")
        with pytest.raises(LimitError):
            search_certificate(system, extract_pairs(system), max_symbols=1)

    def test_fixed_edges_search_over_statuses(self):
        system = parse_system(LEX_SYSTEM)
        pairs = extract_pairs(system)
        cert = check_with_statuses(system, pairs, frozenset({("f", "s")}), ("f",)).certificate
        assert cert is not None
        assert cert.statuses == (("f", "lex"),)
        assert check_with_statuses(system, pairs, frozenset(), ("f",)).certificate is None

    @pytest.mark.parametrize("name", sorted(p.stem for p in SYSTEMS_DIR.glob("*.hodp")))
    def test_shared_outcomes_match_fresh_checks(self, name):
        """A search shares one row per constraint, with its table of
        outcomes, between all its edge sets and status assignments; under
        each of them the result must be that of a check on its own.  The
        edge sets are the empty one, two chains and, with at most five
        symbols, every total order."""
        system = load_system(name)
        pairs = extract_pairs(system)
        syms = constraint_symbols(system, pairs)
        defined = [n for n in syms if n in system.signature.defined]
        ctors = [n for n in syms if n not in system.signature.defined]
        vary = tuple(n for n in defined if _symbol_arity(system.signature, n) >= 2)
        chains = [(), defined + ctors, ctors + defined[::-1]]
        if len(syms) <= 5:
            chains += itertools.permutations(syms)
        rows = ordering._rows(system, pairs)
        for chain in chains:
            edges = frozenset(itertools.combinations(chain, 2))
            for combo in itertools.product(("mul", "lex"), repeat=len(vary)):
                prec = Precedence(edges, dict(zip(vary, combo)))
                shared = check_constraints(system, pairs, prec, rows=rows)
                assert shared == check_constraints(system, pairs, prec), (chain, combo)

    def test_shared_status_views_match_fresh_checks(self):
        """One status loop, with the status views it keeps, serves every
        order of a search; under each order its first assignment must be
        the one that checks on their own find first.  On the chains with
        two-argument heads that assignment is neither the first nor the
        last, so a view filed under another assignment changes it.  The
        orders are the certificate's chain, that chain with two
        neighbours swapped, and a few that fail."""
        for system in _two_argument_chains():
            pairs = extract_pairs(system)
            syms = constraint_symbols(system, pairs)
            vary = tuple(_old_status_candidates(system, pairs))
            cert = search_certificate(system, pairs).certificate
            closed = transitive_closure(cert.edges)
            chain = sorted(syms, key=lambda n: -sum(a == n for a, _ in closed))
            chains = [chain, chain[::-1], sorted(syms), ()]
            for i in range(len(chain) - 1):
                chains.append(chain[:i] + [chain[i + 1], chain[i]] + chain[i + 2 :])
            loop = ordering._status_rows(ordering._rows(system, pairs), vary, True)
            for order in chains:
                edges = frozenset(itertools.combinations(order, 2))
                shared = check_with_statuses(system, pairs, edges, vary, loop)
                assert shared.certificate == _old_check_with_statuses(system, pairs, edges), order
            statuses = {status for name, status in cert.statuses if name in vary}
            assert statuses == {"mul", "lex"}, cert.statuses

    def test_a_hint_check_beyond_the_limit_keeps_no_status_views(self):
        """Beyond the symbol limit the hint check is the only order a
        search tries, so no status view it builds is read again; kept,
        they would take memory in 2^k for k varying statuses.  Ten
        two-argument symbols and a rule that fails under every status
        make the check try all 1,024 assignments."""
        decls = "".join(f"f{i} : N -> N -> N\n" for i in range(10))
        rules = "".join(f"rule f{i} X Y -> X\n" for i in range(10))
        system = parse_system("sort N\nz : N\ns : N -> N\n" + decls + rules + "rule f0 z Y -> f0 (s z) Y\n")
        pairs = extract_pairs(system)
        tracemalloc.start()
        try:
            with pytest.raises(LimitError):
                search_certificate(system, pairs, hints=(("f0", "f1"),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000, peak

    @pytest.mark.parametrize("name", sorted(p.stem for p in SYSTEMS_DIR.glob("*.hodp")))
    def test_a_search_walks_each_side_once(self, name, monkeypatch):
        """One search, with or without a hint check, walks every side of
        every rule and pair for its symbols once: one term_symbols call per
        node."""
        system = load_system(name)
        pairs = extract_pairs(system)
        syms = constraint_symbols(system, pairs)
        nodes = sum(map(term_size, _sides(system, pairs)))
        calls = []
        walk = ordering.term_symbols
        monkeypatch.setattr(ordering, "term_symbols", lambda t: calls.append(t) or walk(t))
        for hints in ((), tuple(zip(syms, syms[1:]))):
            calls.clear()
            search_certificate(system, pairs, hints)
            assert len(calls) == nodes, hints

    def test_work_does_not_grow_with_the_enumeration(self, monkeypatch):
        """Every candidate order of a foldr system fails on its first
        rule, so the search decides each of its few views once, however
        many symbols the rest of the system adds to the enumeration."""
        calls = []
        weak = ordering.weakly_decreases
        monkeypatch.setattr(
            ordering, "weakly_decreases", lambda *args: calls.append(args) or weak(*args)
        )
        counts = _exhausting_foldr_counts(calls)
        assert set(counts.values()) == {counts[3]}, counts

    def test_candidates_build_no_precedence(self, monkeypatch):
        """A Precedence is built only on a miss in the table of outcomes or
        for a certificate, not per candidate, so the exhausting foldr
        searches build as many however many orders they enumerate."""
        built = []
        monkeypatch.setattr(
            ordering, "Precedence", lambda *args: built.append(args) or Precedence(*args)
        )
        counts = _exhausting_foldr_counts(built)
        assert set(counts.values()) == {counts[3]}, counts

    def test_the_status_loop_makes_no_call_per_assignment(self, monkeypatch):
        """Counted with sys.setprofile, so without a clock.  Each order of
        an exhausting foldr search reaches two constraints, as the first
        rule holds and the second fails, under every status assignment.
        The Python-level calls the status loop makes are an edge view per
        order and constraint, a status view per constraint and assignment
        once per search, and a Precedence, its edges and a decision per
        miss: none per assignment tried, though 6 to 5,040 orders try
        every one."""
        first_assignment = ordering._first_assignment
        calls = []

        def profiled(loop, vary, view, edges):
            miss = {edges.__code__, ordering._decide.__code__, Precedence.__init__.__code__}

            def record(frame, event, arg):
                if event == "call" and frame.f_back.f_code is first_assignment.__code__:
                    code = frame.f_code
                    calls.append("view" if code is view.__code__ else "miss" if code in miss else "status")

            calls.append("order")
            sys.setprofile(record)
            try:
                return first_assignment(loop, vary, view, edges)
            finally:
                sys.setprofile(None)

        monkeypatch.setattr(ordering, "_first_assignment", profiled)
        counts = _exhausting_foldr_counts(calls, collections.Counter)
        # foldr's status varies; at seven symbols, plus's too
        assignments = {3: 2, 5: 2, 6: 2, 7: 4}
        for size, seen in counts.items():
            assert seen["order"] == math.factorial(size), size
            assert seen["view"] == 2 * seen["order"], size
            assert seen["status"] == 2 * assignments[size], size
        assert len({seen["miss"] for seen in counts.values()}) == 1, counts

    def test_no_comparison_is_made_twice_under_one_precedence(self, monkeypatch):
        """Every rule and pair shares one memo of comparisons per
        precedence, keyed on the terms as built: searches on the shipped
        systems and on generated first- and higher-order ones evaluate
        each comparison once per precedence."""
        evaluated = collections.Counter()
        greater = PathOrder._greater

        def counted(order, s, t):
            evaluated[order.prec, s, t] += 1  # the key keeps each precedence alive
            return greater(order, s, t)

        monkeypatch.setattr(PathOrder, "_greater", counted)
        shipped = [load_system(p.stem) for p in sorted(SYSTEMS_DIR.glob("*.hodp"))]
        rng = random.Random(2104)
        generated = [random_fo_trs(rng)[0] for _ in range(10)]
        generated += [random_ho_system(rng) for _ in range(20)]
        for system in shipped + generated:
            search_certificate(system, extract_pairs(system))
        assert [k for k, n in evaluated.items() if n > 1] == []
        assert (len(shipped), sum(evaluated.values())) == (12, 1468)

    def test_search_is_deterministic(self):
        system = load_system("filter")
        pairs = extract_pairs(system)
        assert search_certificate(system, pairs) == search_certificate(system, pairs)


# ------------------------------------------------------------------ oracle
# The ordering stage as it was when the hint check, the search and the
# violation check were three separate paths, kept as the reference the
# single search path must agree with.


def _old_status_candidates(system, pairs):
    """Defined symbols whose status can matter: at least two arguments."""
    syms = constraint_symbols(system, pairs)
    return [
        n
        for n in syms
        if n in system.signature.defined and _symbol_arity(system.signature, n) >= 2
    ]


def _old_check_with_statuses(system, pairs, edges):
    """Fixed edge set, every status assignment (multiset first)."""
    vary = _old_status_candidates(system, pairs)
    for combo in itertools.product(("mul", "lex"), repeat=len(vary)):
        prec = Precedence(edges, dict(zip(vary, combo)))
        result = check_constraints(system, pairs, prec)
        if result.certificate is not None:
            return result.certificate
    return None


def _old_search_certificate(system, pairs, required=(), max_symbols=8):
    syms = constraint_symbols(system, pairs)
    if not syms:
        return Certificate((), (), (), ())
    if len(syms) > max_symbols:
        raise LimitError(
            f"{len(syms)} constraint symbols exceed the search limit of {max_symbols}"
        )
    defined = sorted(n for n in syms if n in system.signature.defined)
    ctors = sorted(n for n in syms if n not in system.signature.defined)
    vary = [n for n in defined if _symbol_arity(system.signature, n) >= 2]
    required = tuple((a, b) for a, b in required if a in syms and b in syms)

    def candidates():
        seen = set()
        for dperm in itertools.permutations(defined):
            for cperm in itertools.permutations(ctors):
                chain = dperm + cperm
                seen.add(chain)
                yield chain
        for chain in itertools.permutations(syms):
            if chain not in seen:
                yield chain

    for chain in candidates():
        index = {n: i for i, n in enumerate(chain)}
        if any(index[a] >= index[b] for a, b in required):
            continue
        edges = frozenset(
            (chain[i], chain[j])
            for i in range(len(chain))
            for j in range(i + 1, len(chain))
        )
        for combo in itertools.product(("mul", "lex"), repeat=len(vary)):
            prec = Precedence(edges, dict(zip(vary, combo)))
            result = check_constraints(system, pairs, prec)
            if result.certificate is not None:
                return result.certificate
    return None


def _old_ordering_stage(system, pairs, hints, max_symbols=8):
    certificate = None
    violations = ()
    if hints:
        closed = transitive_closure(hints)
        certificate = _old_check_with_statuses(system, pairs, closed)
        if certificate is None:
            certificate = _old_search_certificate(
                system,
                pairs,
                required=tuple(hints),
                max_symbols=max_symbols,
            )
        if certificate is None:
            base = check_constraints(system, pairs, Precedence(closed))
            violations = base.violations
    else:
        certificate = _old_search_certificate(system, pairs, max_symbols=max_symbols)
    return certificate, violations


def _outcome(stage):
    try:
        return stage()
    except LimitError as exc:
        return str(exc)


def _assert_same_stage(system, max_symbols=8):
    """The old and the new ordering stage agree with no hints, a good hint,
    the same edges reversed, and its first edge.  The good hint is the
    unhinted certificate's precedence, or the first chain the search tries
    when that is empty or there is none."""
    pairs = extract_pairs(system)
    found = _outcome(lambda: _old_ordering_stage(system, pairs, (), max_symbols))
    good = found[0].edges if not isinstance(found, str) and found[0] else ()
    if not good:
        syms = constraint_symbols(system, pairs)
        chain = sorted(syms, key=lambda n: n not in system.signature.defined)
        good = tuple(zip(chain, chain[1:]))
    for hints in ((), good, tuple((b, a) for a, b in good), good[:1]):
        old = _outcome(lambda: _old_ordering_stage(system, pairs, hints, max_symbols))
        new = _outcome(lambda: search_certificate(system, pairs, hints, max_symbols))
        if not isinstance(new, str):
            new = (new.certificate, new.violations)
        assert new == old, hints


class TestSearchOracle:
    @pytest.mark.parametrize("name", sorted(p.stem for p in SYSTEMS_DIR.glob("*.hodp")))
    def test_shipped_systems_agree(self, name):
        system = load_system(name)
        _assert_same_stage(system)
        _assert_same_stage(system, max_symbols=1)

    @pytest.mark.parametrize("size", [5, 6])
    def test_exhausting_foldr_searches_agree(self, size):
        """foldr's status varies, and no order orients its first rule, so
        both searches try every candidate."""
        _assert_same_stage(_foldr_system(size))

    def test_chains_with_two_argument_heads_agree(self):
        """Their certificates take lex for some two-argument heads and mul
        for the others, an assignment in the middle of the status loop."""
        for system in _two_argument_chains():
            _assert_same_stage(system)

    def test_generated_systems_agree(self):
        rng = random.Random(1804)
        for _ in range(30):
            system, _, _, _ = random_fo_trs(rng)
            # six-symbol searches that fail take seconds each; above five
            # symbols the hints and the limit are compared instead
            _assert_same_stage(system, max_symbols=5)
