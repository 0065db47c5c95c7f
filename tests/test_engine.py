"""Rewriting, bounded exploration, and counterexample search."""

import random
import sys

import pytest

from conftest import ESCAPING_LOOPS, SYSTEMS_DIR, load_system
from gen import (
    GEN_SYMBOLS,
    WIDE_SYSTEMS,
    make_sig,
    positions,
    random_closed_term,
    random_term,
    random_var_pool,
    rule_instance_seeds,
    show_step,
    symbol,
)
from hodp import engine, pipeline, terms
from hodp.cli import main
from hodp.engine import (
    Exploration,
    Step,
    Successors,
    bounded_explore,
    disprove_seeds,
    ground_term,
    has_alpha_repeat,
    pair_root_steps,
    replay_trace,
    rewrite_steps,
)
from hodp.errors import LimitError
from hodp.pairs import extract_pairs
from hodp.parser import parse_system
from hodp.pipeline import Options, dot_graph, run_pipeline
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
    free_vars,
    make_app,
    match_pattern,
    show_term,
    spine,
    subterm_at,
    type_of,
)

GROW = "sort N\n0 : N\ns : N -> N\nf : N -> N\nrule f X -> f (s X)\n"


def map_seed(system):
    sig = system.signature
    return App(
        App(symbol(sig, "map"), symbol(sig, "s")),
        App(App(symbol(sig, "cons"), symbol(sig, "0")), symbol(sig, "nil")),
    )


class TestSteps:
    def test_single_rule_step(self):
        system = load_system("map")
        steps = rewrite_steps(map_seed(system), system, True, {})
        assert [show_step(s) for s in steps] == [
            "rule(r2)@ε: map s (cons 0 nil) => cons (s 0) (map s nil)"
        ]

    def test_beta_steps_are_included(self):
        system = load_system("map")
        sig = system.signature
        x = Var("x", Base("N"))
        t = App(Lam(x, App(symbol(sig, "s"), x)), symbol(sig, "0"))
        steps = rewrite_steps(t, system, True, {})
        assert [s.kind for s in steps] == ["beta"]
        assert show_term(steps[0].target) == "s 0"

    def test_steps_preserve_types(self):
        system = load_system("filter")
        for seed in disprove_seeds(system):
            for step in rewrite_steps(seed, system, True, {}):
                assert type_of(step.target) == type_of(seed)

    def test_internal_steps_exclude_the_root(self):
        system = parse_system(GROW)
        f = symbol(system.signature, "f")
        s = symbol(system.signature, "s")
        z = symbol(system.signature, "0")
        t = App(s, App(f, z))
        all_steps = rewrite_steps(t, system, True, {})
        inner = rewrite_steps(t, system, True, {}, at_root=False)
        assert [st.position for st in all_steps] == [(2,)]
        assert [st.position for st in inner] == [(2,)]
        root = App(f, z)
        assert [st.position for st in rewrite_steps(root, system, True, {})] == [()]
        assert rewrite_steps(root, system, True, {}, at_root=False) == []

    def test_internal_steps_can_drop_beta(self):
        system = load_system("map")
        sig = system.signature
        x = Var("x", Base("N"))
        t = App(symbol(sig, "s"), App(Lam(x, x), symbol(sig, "0")))
        assert [st.kind for st in rewrite_steps(t, system, True, {}, at_root=False)] == ["beta"]
        assert rewrite_steps(t, system, False, {}, at_root=False) == []

    def test_pair_steps_fire_at_the_root_only(self):
        system = load_system("map")
        pairs = extract_pairs(system)
        seed = map_seed(system)
        table = {}
        rewrite_steps(seed, system, True, table)  # tabulates the seed
        steps = pair_root_steps(seed, pairs, table)
        assert [show_step(s) for s in steps] == [
            "dp(d1)@ε: map s (cons 0 nil) => map s nil"
        ]
        buried = App(App(symbol(system.signature, "cons"), symbol(system.signature, "0")), seed)
        rewrite_steps(buried, system, True, table)
        assert pair_root_steps(buried, pairs, table) == []


class TestExploration:
    def test_terminating_run_reports_longest_path(self):
        system = load_system("map")
        ex = bounded_explore(map_seed(system), Successors(system, None, True, {}))
        assert ex.kind == "all-terminated"
        assert ex.longest == 2
        assert ex.trace is None

    def test_beta_only_term(self):
        system = load_system("map")
        sig = system.signature
        x = Var("x", Base("N"))
        t = App(Lam(x, App(symbol(sig, "s"), x)), symbol(sig, "0"))
        ex = bounded_explore(t, Successors(system, None, True, {}))
        assert (ex.kind, ex.longest) == ("all-terminated", 1)

    def test_normal_form_has_length_zero(self):
        system = load_system("map")
        ex = bounded_explore(symbol(system.signature, "0"), Successors(system, None, True, {}))
        assert (ex.kind, ex.longest) == ("all-terminated", 0)

    def test_depth_bound_is_reported_without_a_trace(self):
        system = parse_system(GROW)
        seed = App(symbol(system.signature, "f"), symbol(system.signature, "0"))
        ex = bounded_explore(seed, Successors(system, None, True, {}), max_depth=5)
        assert (ex.kind, ex.longest, ex.trace) == ("bound-exceeded", None, None)
        assert ex.expanded == 6  # f 0 to f (s^5 0), whose step passes the bound

    def test_a_finished_state_reached_past_the_bound_exceeds_it(self):
        # from a, the branch a -> b -> d finishes b at height 1; the branch
        # a -> c -> b then meets b at depth 2, one step past a bound of 2
        system = parse_system(
            "sort S\na : S\nb : S\nc : S\nd : S\n"
            "rule a -> b\nrule a -> c\nrule c -> b\nrule b -> d\n"
        )
        a = symbol(system.signature, "a")
        ex = bounded_explore(a, Successors(system, None, True, {}), max_depth=2)
        assert (ex.kind, ex.longest, ex.trace, ex.expanded) == ("bound-exceeded", None, None, 4)
        ex = bounded_explore(a, Successors(system, None, True, {}), max_depth=3)
        assert (ex.kind, ex.longest, ex.trace, ex.expanded) == ("all-terminated", 3, None, 4)

    def test_the_longest_trace_is_the_smallest_bound_that_holds(self):
        checked = 0
        for path in sorted(SYSTEMS_DIR.glob("*.hodp")):
            system = load_system(path.stem)
            pairs = extract_pairs(system)
            for successors in (
                Successors(system, None, True, {}),
                Successors(system, pairs, True, {}),
            ):
                for seed in disprove_seeds(system):
                    ex = bounded_explore(seed, successors)
                    if ex.kind != "all-terminated" or ex.longest < 1:
                        continue
                    longest = ex.longest
                    ex = bounded_explore(seed, successors, max_depth=longest)
                    assert (ex.kind, ex.longest) == ("all-terminated", longest), path.stem
                    ex = bounded_explore(seed, successors, max_depth=longest - 1)
                    assert (ex.kind, ex.longest, ex.trace) == ("bound-exceeded", None, None), path.stem
                    checked += 1
        assert checked == 33  # every seed of every shipped system that terminates in a step or more

    def test_node_budget_is_enforced(self):
        system = parse_system(GROW)
        seed = App(symbol(system.signature, "f"), symbol(system.signature, "0"))
        with pytest.raises(LimitError):
            bounded_explore(seed, Successors(system, None, True, {}), max_depth=50, max_nodes=3)

    def test_cycle_detection_modulo_renaming(self):
        system = load_system("selfloop")
        (seed,) = disprove_seeds(system)
        ex = bounded_explore(seed, Successors(system, None, True, {}))
        assert ex.kind == "cycle"
        assert len(ex.trace) == 1
        assert has_alpha_repeat(seed, ex.trace)
        assert replay_trace(ex.trace, system, ())

    def test_shared_subterms_are_explored_once(self):
        system = load_system("plus")
        sig = system.signature
        plus, s, z = symbol(sig, "plus"), symbol(sig, "s"), symbol(sig, "0")
        one = App(s, z)
        t = App(App(plus, App(App(plus, one), one)), App(App(plus, one), one))
        ex = bounded_explore(t, Successors(system, None, True, {}))
        assert ex.kind == "all-terminated"
        assert ex.longest >= 4

    def test_deep_exploration_leaves_the_recursion_limit_alone(self):
        system = parse_system(GROW)
        seed = App(symbol(system.signature, "f"), symbol(system.signature, "0"))
        before = sys.getrecursionlimit()
        seen = set()

        def successors(t):
            seen.add(sys.getrecursionlimit())
            return rewrite_steps(t, system, True, {})

        ex = bounded_explore(seed, successors, max_depth=400)
        assert ex.kind == "bound-exceeded"
        assert ex.expanded == 401
        assert seen == {before}
        assert sys.getrecursionlimit() == before

    def test_recorded_edges_feed_the_dot_renderer(self):
        system = parse_system(GROW)
        seed = App(symbol(system.signature, "f"), symbol(system.signature, "0"))
        ex = bounded_explore(seed, Successors(system, None, True, {}), max_depth=4, record=True)
        dg = dot_graph(ex.edges)
        assert dg.startswith("digraph")
        assert dg.rstrip().endswith("}")
        assert dg.count("->") == len(ex.edges)


class TestLazyTargets:
    """A step found through the redex table builds its target only when
    exploration visits it, so a state with many successors costs what its
    visited ones do."""

    @pytest.mark.parametrize(
        ("name", "nodes"),
        [("branching", 100), ("branching", 1000), ("higher-order", 150), ("higher-order", 400), ("doubling", 18)],
    )
    def test_a_wide_exploration_builds_one_target_per_state(
        self, tmp_path, capsys, monkeypatch, name, nodes
    ):
        """Eager steps built 5,050 targets for the branching system at 100
        states, and 11,325 for the higher-order one at 150.  Exploration
        also makes at most two steps per state: making every step of each
        expanded state made 180,897 for the branching system at 1,000
        states, 60,300 for the higher-order one at 400 and 524,268 for the
        doubling one at 18."""
        file = tmp_path / f"{name}.hodp"
        file.write_text(WIDE_SYSTEMS[name], encoding="utf-8")
        built, made = [0], [0]
        replace = engine.replace_at

        def counted(t, pos, new):
            built[0] += 1
            return replace(t, pos, new)

        def making(steps):  # counts the steps in each list a step function returns
            def wrapper(*args):
                out = steps(*args)
                made[0] += len(out)
                return out

            return wrapper

        monkeypatch.setattr(engine, "replace_at", counted)
        monkeypatch.setattr(engine, "rewrite_steps", making(engine.rewrite_steps))
        monkeypatch.setattr(engine, "pair_root_steps", making(engine.pair_root_steps))
        code = main(["check", str(file), "--disprove", "--explore-nodes", str(nodes)])
        assert code == 3
        assert capsys.readouterr().err == f"limit: exploration expanded more than {nodes} states\n"
        assert built[0] == nodes
        assert 0 < made[0] <= 2 * (nodes + 1)

    def test_a_pending_step_equals_the_eager_one(self, monkeypatch):
        """Comparing, hashing and printing steps builds no target; each
        read of a target builds it."""
        system = parse_system(WIDE_SYSTEMS["branching"])
        (t,) = disprove_seeds(system)
        for _ in range(3):
            t = rewrite_steps(t, system, True, {})[-1].target
        built = [0]
        replace = engine.replace_at

        def counted(*args):
            built[0] += 1
            return replace(*args)

        monkeypatch.setattr(engine, "replace_at", counted)
        steps = rewrite_steps(t, system, True, {})
        eager = _reference_rewrite_steps(t, system)
        assert len(steps) >= 4
        assert steps == eager and set(steps) == set(eager) and repr(steps) == repr(eager)
        assert built[0] == 0
        for s in steps:
            assert subterm_at(s.target, s.position) is s.contractum
        assert built[0] == len(steps)

    def test_a_graph_builds_each_recorded_target_once(self, tmp_path, capsys, monkeypatch):
        """With --dot, the target of each recorded step is built once, to
        merge the graph's states modulo alpha; drawing the graph built the
        target of each of its edges again (tools/same_reports.py checks
        that the graph stays the same)."""
        file = tmp_path / "branching.hodp"
        file.write_text(WIDE_SYSTEMS["branching"], encoding="utf-8")
        built, recorded = [0], [0]
        replace, explore = engine.replace_at, pipeline.bounded_explore

        def counted(*args):
            built[0] += 1
            return replace(*args)

        def recording(*args, **kwargs):
            result = explore(*args, **kwargs)
            recorded[0] += len(result.edges)
            return result

        monkeypatch.setattr(engine, "replace_at", counted)
        monkeypatch.setattr(pipeline, "bounded_explore", recording)
        flags = ["--disprove", "--explore-depth", "5", "--explore-nodes", "2000"]
        counts = {}
        for dot in ([], ["--dot", str(tmp_path / "graph.dot")]):
            built[0] = recorded[0] = 0
            assert main(["check", str(file), *flags, *dot]) == 0  # a chain cycle
            counts[bool(dot)] = built[0], recorded[0]
        assert capsys.readouterr().out.startswith("NO\n")
        (visits, unrecorded), (visits_and_recorded, recorded) = counts[False], counts[True]
        assert unrecorded == 0 and recorded > visits
        assert visits_and_recorded == visits + recorded


class TestResumedWalks:
    """Exploration asks a Successors relation for a state's steps one node
    of its redex walk at a time, and for the next only as it backtracks,
    so it makes steps only where its visits reach."""

    @pytest.mark.parametrize("name", sorted(WIDE_SYSTEMS))
    def test_a_resumed_walk_yields_the_reference_steps_in_order(self, monkeypatch, name):
        """At depth 5 the search backtracks into every frame: the pieces of
        each state's walk, joined, are its steps as the eager search lists
        them, and the outcome is the eager search's."""
        system = parse_system(WIDE_SYSTEMS[name])
        pairs = extract_pairs(system)
        sessions = {}  # per walk, kept alive here: its state, its pieces, the walk
        steps = engine.Successors.steps

        def recording(relation, t, walk=None):
            start = not walk
            out = steps(relation, t, walk)
            if walk is not None:
                if start:
                    sessions[id(walk)] = (t, [], walk)
                sessions[id(walk)][1].append(out)
            return out

        monkeypatch.setattr(engine.Successors, "steps", recording)
        table = {}
        relations = [
            (Successors(system, None, True, table), lambda t: _reference_rewrite_steps(t, system)),
            (
                Successors(system, pairs, True, table),
                lambda t: _reference_pair_root_steps(t, pairs)
                + [s for s in _reference_rewrite_steps(t, system) if s.position != ()],
            ),
        ]
        resumed = 0
        for successors, reference in relations:
            for seed in disprove_seeds(system):
                sessions.clear()
                result = bounded_explore(seed, successors, max_depth=5)
                assert result == bounded_explore(seed, reference, max_depth=5)
                for t, pieces, walk in sessions.values():
                    joined, expected = [s for piece in pieces for s in piece], reference(t)
                    assert joined == (expected[: len(joined)] if walk else expected), show_term(t)
                    resumed += len(pieces) > 1
        assert resumed > 0

    def test_a_plain_function_and_a_recording_run_see_every_step(self):
        """bounded_explore takes any function that returns a list, and with
        record a relation's every step goes into edges, in the order of
        expansion."""
        system = parse_system(WIDE_SYSTEMS["branching"])
        (seed,) = disprove_seeds(system)
        listed = []

        def plain(t):
            out = _reference_rewrite_steps(t, system)
            listed.extend(out)
            return out

        result = bounded_explore(seed, plain, max_depth=5)
        assert result.kind == "bound-exceeded" and result.edges == ()
        recorded = bounded_explore(seed, Successors(system, None, True, {}), max_depth=5, record=True)
        assert recorded.edges == tuple(listed)
        assert recorded._replace(edges=()) == result
        listed.clear()
        assert bounded_explore(seed, plain, max_depth=5, record=True).edges == recorded.edges


class TestMatchCalls:
    """A work guard that reads no clock: a node is matched only against the
    rules of its head symbol and argument count, and only once per analysis."""

    @pytest.mark.parametrize(
        "rule", ["nr : N -> N -> N\nrule nr X Y -> nr (j X) Y", "f : N -> N\nrule f X -> f (j X)"]
    )
    def test_each_expanded_state_is_matched_once(self, monkeypatch, rule):
        """Matching every new node against every rule made 245 calls for
        the first system and 164 for the second."""
        system = parse_system(f"sort N\na : N\nj : N -> N\n{rule}\n")
        calls = [0]
        match = engine.match_pattern

        def counted(pattern, subject):
            calls[0] += 1
            return match(pattern, subject)

        monkeypatch.setattr(engine, "match_pattern", counted)
        (seed,) = disprove_seeds(system)
        table = {}
        relations = (
            Successors(system, None, True, table),
            Successors(system, extract_pairs(system), True, table),
        )
        counts = []
        for successors in relations:
            calls[0] = 0
            result = bounded_explore(seed, successors, max_depth=80)
            assert (result.kind, result.expanded) == ("bound-exceeded", 81)
            counts.append(calls[0])
        # the chain relation reaches the same states, all in the table
        assert counts == [81, 0]

    def test_each_expanded_state_builds_only_its_new_nodes(self, monkeypatch):
        """A step of u X Y -> u (t X) Y builds three new applications, and
        canonicalizing a state that is its own canonical form builds none:
        probing the table again for each new node made 483 calls."""
        system = parse_system("sort N\na : N\nt : N -> N\nu : N -> N -> N\nrule u X Y -> u (t X) Y\n")
        calls = [0]
        new = App.__new__

        def counted(cls, *values):
            calls[0] += 1
            return new(cls, *values)

        (seed,) = disprove_seeds(system)
        table = {}
        relations = (
            Successors(system, None, True, table),
            Successors(system, extract_pairs(system), True, table),
        )
        monkeypatch.setattr(App, "__new__", staticmethod(counted))
        counts = []
        for successors in relations:
            calls[0] = 0
            result = bounded_explore(seed, successors, max_depth=80)
            assert (result.kind, result.expanded) == ("bound-exceeded", 81)
            counts.append(calls[0])
        assert counts == [243, 0]


class TestChains:
    def test_chain_successors_respects_the_beta_switch(self):
        system = load_system("map")
        pairs = extract_pairs(system)
        sig = system.signature
        x = Var("x", Base("N"))
        redex = App(Lam(x, x), symbol(sig, "0"))
        t = App(App(symbol(sig, "map"), symbol(sig, "s")), App(App(symbol(sig, "cons"), redex), symbol(sig, "nil")))
        with_beta = Successors(system, pairs, True, {})(t)
        without = Successors(system, pairs, False, {})(t)
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
        ex = bounded_explore(seed, Successors(system, None, True, {}))
        step = ex.trace[0]
        forged = step.__class__(
            kind=step.kind,
            label=step.label,
            position=step.position,
            source=step.source,
            contractum=App(step.contractum, Var("Y", Base("A"))),
        )
        assert not replay_trace([forged], system, ())

    def test_wrong_label_is_rejected(self):
        system = load_system("map")
        steps = rewrite_steps(map_seed(system), system, True, {})
        step = steps[0]
        forged = step.__class__(
            kind=step.kind,
            label="r1",
            position=step.position,
            source=step.source,
            contractum=step.contractum,
        )
        assert not replay_trace([forged], system, ())


    @pytest.mark.parametrize("name", sorted(ESCAPING_LOOPS))
    def test_a_pair_step_that_escapes_is_rejected(self, name):
        """Chained through every pair, the system loops from its first
        seed; the steps through a pair that escapes are forged."""
        system = parse_system(ESCAPING_LOOPS[name])
        pairs = extract_pairs(system)
        seed = disprove_seeds(system)[0]
        ex = bounded_explore(seed, Successors(system, pairs, True, {}))
        assert ex.kind == "cycle" and has_alpha_repeat(seed, ex.trace)
        assert not replay_trace(ex.trace, system, pairs)
        for step in ex.trace:
            (dp,) = [dp for dp in pairs if dp.name == step.label]
            assert replay_trace([step], system, pairs) == dp.check.variables_ok

# ------------------------------------------------------------------ oracle
# The recursive exploration the explicit stack replaced, kept as the
# reference it must agree with.  The depths below stay far under the
# default recursion limit, so the reference does not raise it.


class _CycleHit(Exception):
    def __init__(self, trace):
        self.trace = trace


def _reference_explore(start, successors, max_depth=200, max_nodes=100_000, record=False):
    finished = {}
    on_path = {}
    state = {"expanded": 0, "exceeded": False}
    edges = []

    def visit(u, depth, path):
        key = alpha_canonical(u)
        h = finished.get(key)
        if h is not None:
            if depth + h > max_depth:
                state["exceeded"] = True
                return None
            return h
        if key in on_path:
            raise _CycleHit(tuple(path))
        state["expanded"] += 1
        if state["expanded"] > max_nodes:
            raise LimitError(
                f"exploration expanded more than {max_nodes} states"
            )
        succ = successors(u)
        if record:
            edges.extend(succ)
        if not succ:
            finished[key] = 0
            return 0
        if depth >= max_depth:
            state["exceeded"] = True
            return None
        on_path[key] = depth
        best = None
        truncated = False
        for s in succ:
            path.append(s)
            h = visit(s.target, depth + 1, path)
            path.pop()
            if h is None:
                truncated = True
            elif best is None or h + 1 > best:
                best = h + 1
        del on_path[key]
        if truncated:
            return None
        finished[key] = best
        return best

    try:
        h = visit(start, 0, [])
    except _CycleHit as hit:
        return Exploration("cycle", trace=hit.trace, expanded=state["expanded"], edges=tuple(edges))
    if state["exceeded"]:
        return Exploration("bound-exceeded", expanded=state["expanded"], edges=tuple(edges))
    return Exploration("all-terminated", longest=h, expanded=state["expanded"], edges=tuple(edges))


def _explore_outcome(explore, seed, successors, depth, record=True):
    try:
        ex = explore(seed, successors, max_depth=depth, max_nodes=60, record=record)
    except LimitError as exc:
        return str(exc)
    return ex.kind, ex.longest, ex.trace, ex.expanded, ex.edges


class TestExplorationOracle:
    @pytest.mark.parametrize("name", sorted(p.stem for p in SYSTEMS_DIR.glob("*.hodp")))
    def test_explicit_stack_matches_the_recursive_search(self, name):
        system = load_system(name)
        symbols = dict(system.signature.symbols)
        rng = random.Random(name)
        seeds = list(disprove_seeds(system)) + rule_instance_seeds(rng, system, per_rule=3, budget=9)
        try:
            seeds += [random_closed_term(rng, size_cap=20, symbols=symbols) for _ in range(6)]
        except ValueError:
            pass  # no inhabited sort
        relations = (Successors(system, None, True, {}), Successors(system, extract_pairs(system), True, {}))
        for seed in seeds:
            for successors in relations:
                for depth in (0, 1, 2, 3, 5, 8, 60):
                    new = _explore_outcome(bounded_explore, seed, successors, depth)
                    old = _explore_outcome(_reference_explore, seed, successors, depth)
                    assert new == old, (show_term(seed), depth)
                    # not recording, exploration resumes each state's walk
                    plain = _explore_outcome(bounded_explore, seed, successors, depth, record=False)
                    assert plain == (old if isinstance(old, str) else old[:-1] + ((),)), (show_term(seed), depth)


# ------------------------------------------------------- redex table oracle
# The eager step search, the pair matching and the recursive canonical
# renaming that the redex table and the stored canonical forms replaced,
# kept as references.


def _reference_rewrite_steps(t, system, include_beta=True):
    out = []
    for pos, sub in positions(t):
        if include_beta and isinstance(sub, App) and isinstance(sub.fun, Lam):
            out.append(Step("beta", "", pos, t, beta_contract(sub)))
        for rule in system.rules:
            binding = match_pattern(rule.lhs, sub)
            if binding is not None:
                out.append(Step("rule", rule.name, pos, t, apply_subst(rule.rhs, binding)))
    return out


def _reference_pair_root_steps(t, pairs):
    out = []
    for dp in pairs:
        binding = match_pattern(dp.lhs, t)
        if binding is not None:
            out.append(Step("dp", dp.name, (), t, apply_subst(dp.rhs, binding)))
    return out


def _reference_canon(t, env=None, depth=0):
    env = {} if env is None else env
    if isinstance(t, Var):
        return env.get(t, t)
    if isinstance(t, Sym):
        return t
    if isinstance(t, App):
        return App(_reference_canon(t.fun, env, depth), _reference_canon(t.arg, env, depth))
    v = Var(f"!{depth}", t.var.type)
    return Lam(v, _reference_canon(t.body, {**env, t.var: v}, depth + 1))


def _under_binder(t, pos):
    for i in pos:
        if isinstance(t, Lam):
            return True
        t = t.fun if i == 1 else t.arg
    return False


SHIPPED = sorted(p.stem for p in SYSTEMS_DIR.glob("*.hodp"))

# f has rules at one and at two arguments, c is a whole left-hand side,
# and h passes a lambda on
HEAD_FILTER = """sort N
0 : N
c : N
s : N -> N
f : N -> N -> N
g : N -> N
h : (N -> N) -> N
rule c -> 0
rule f 0 -> g
rule f X Y -> s Y
rule g (s X) -> f X X
rule h F -> F c
"""


class TestRedexTableOracle:
    def _seeds(self, rng, system):
        symbols = dict(system.signature.symbols)
        seeds = list(disprove_seeds(system)) + rule_instance_seeds(rng, system, per_rule=2, budget=7)
        try:
            seeds += [random_closed_term(rng, size_cap=24, symbols=symbols, redex_rate=0.6) for _ in range(12)]
        except ValueError:
            pass  # no inhabited sort
        return seeds

    def _assert_same_steps(self, t, system, include_beta, table):
        expected = _reference_rewrite_steps(t, system, include_beta)
        assert rewrite_steps(t, system, include_beta, table) == expected, show_term(t)
        inner = [s for s in expected if s.position != ()]
        assert rewrite_steps(t, system, include_beta, table, at_root=False) == inner, show_term(t)
        return expected

    @pytest.mark.parametrize("include_beta", [True, False])
    def test_random_terms_and_walks_match_the_eager_search(self, include_beta):
        kinds = {"beta": 0, "rule": 0, "under-binder": 0}
        for name in SHIPPED:
            system = load_system(name)
            rng = random.Random(f"redex-table:{name}")
            table = {}  # one table for the whole walk of every seed
            for seed in self._seeds(rng, system):
                assert rewrite_steps(seed, system, include_beta, {}) == (
                    _reference_rewrite_steps(seed, system, include_beta)
                )
                t = seed
                for _ in range(20):
                    steps = self._assert_same_steps(t, system, include_beta, table)
                    if not steps:
                        break
                    for s in steps:
                        kinds[s.kind] += 1
                        kinds["under-binder"] += s.kind == "rule" and _under_binder(t, s.position)
                    t = rng.choice(steps).target
        # the walks do reach beta redexes (when allowed) and rules under binders
        assert kinds["rule"] > 0 and kinds["under-binder"] > 0
        assert (kinds["beta"] > 0) == include_beta

    def test_the_head_and_count_filter_drops_no_redex(self):
        """Rules sharing a head at different argument counts, a constant
        left-hand side, and beta redexes below nodes headed by a symbol
        and by a lambda."""
        system = parse_system(HEAD_FILTER)
        c, zero, s, f, h = (symbol(system.signature, n) for n in ("c", "0", "s", "f", "h"))
        x, y, z, u = Var("x", zero.type), Var("y", zero.type), Var("z", zero.type), Var("u", s.type)
        ident = Lam(x, x)
        starts = [
            make_app(f, [App(Lam(x, App(s, x)), c), make_app(f, [zero, c])]),
            make_app(Lam(y, Lam(z, make_app(f, [App(ident, y), z]))), [c, zero]),
            App(h, Lam(y, App(ident, y))),
            App(s, App(Lam(u, App(u, c)), ident)),
        ]
        rng = random.Random("head-filter")
        seen = set()  # each step's label, or kind, with the head of the node above it
        for include_beta in (True, False):
            table = {}
            for t in starts + self._seeds(rng, system):
                for _ in range(20):
                    steps = self._assert_same_steps(t, system, include_beta, table)
                    if not steps:
                        break
                    for step in steps:
                        above = spine(subterm_at(t, step.position[:-1]))[0] if step.position else None
                        seen.add((step.label or step.kind, type(above).__name__))
                    t = rng.choice(steps).target
        assert {label for label, _ in seen} == {"beta", "r1", "r2", "r3", "r4", "r5"}
        assert {("beta", "Sym"), ("beta", "Lam")} <= seen

    def test_successor_builders_match_the_eager_search(self):
        for name in ("map", "twice", "filter", "foldr"):
            system = load_system(name)
            pairs = extract_pairs(system)
            rng = random.Random(f"builders:{name}")
            relations = [
                (Successors(system, None, True, {}), lambda t: _reference_rewrite_steps(t, system)),
                (
                    Successors(system, pairs, False, {}),
                    lambda t: _reference_pair_root_steps(t, pairs)
                    + [s for s in _reference_rewrite_steps(t, system, False) if s.position != ()],
                ),
            ]
            for successors, reference in relations:
                for seed in self._seeds(rng, system):
                    t = seed
                    for _ in range(20):
                        steps = successors(t)
                        assert steps == reference(t), show_term(t)
                        if not steps:
                            break
                        t = rng.choice(steps).target


# g's pair leads to h ((\x:N. 0) 0), whose only redex below the root is beta
BETA_BELOW = """sort N
0 : N
g : (N -> N) -> N -> N
h : N -> N
rule g F X -> h (F X)
rule h X -> X
"""


def _walk_starts(rng, system):
    symbols = dict(system.signature.symbols)
    starts = list(disprove_seeds(system))
    for _ in range(25):
        typ = Base(rng.choice(system.signature.sorts))
        try:
            starts.append(random_term(rng, symbols, typ, rng.randint(6, 20), redex_rate=0.6))
        except ValueError:
            pass  # an uninhabited sort
    return starts


class TestSharedTableOracle:
    """The rewrite relation and the chain relation of one analysis read one
    redex table."""

    @pytest.mark.parametrize("name", ["twice", "map", "beta_only"])
    def test_rewrite_then_chain_over_one_table_equals_fresh_tables(self, name):
        system = load_system(name)
        pairs = extract_pairs(system)
        rng = random.Random(f"shared-table:{name}")
        starts = _walk_starts(rng, system)
        table = {}
        relations = [
            (Successors(system, None, True, table), lambda t: Successors(system, None, True, {})(t)),
            (Successors(system, pairs, True, table), lambda t: Successors(system, pairs, True, {})(t)),
        ]
        kinds = {"beta": 0, "rule": 0, "dp": 0, "inner beta": 0}
        for successors, fresh in relations:
            for start in starts:
                t = start
                for _ in range(15):
                    steps = successors(t)
                    assert steps == fresh(t), show_term(t)
                    inner = [s for s in _reference_rewrite_steps(t, system) if s.position != ()]
                    assert rewrite_steps(t, system, True, table, at_root=False) == inner, show_term(t)
                    for s in steps:
                        kinds[s.kind] += 1
                        kinds["inner beta"] += s.kind == "beta" and s.position != ()
                    if not steps:
                        break
                    t = rng.choice(steps).target
        assert kinds["inner beta"] > 0
        assert (kinds["rule"] > 0) == (name != "beta_only")
        assert (kinds["dp"] > 0) == (name == "map")

    def test_a_rules_only_chain_after_the_rewrite_relation_takes_no_beta_step(self):
        system = parse_system(BETA_BELOW)
        pairs = extract_pairs(system)
        seed = disprove_seeds(system)[0]
        assert show_term(seed) == "g (\\x:N. 0) 0"
        longest = {}
        for internal_beta in (True, False):
            fresh = Successors(system, pairs, internal_beta, {})
            longest[internal_beta] = bounded_explore(seed, fresh).longest
            report = run_pipeline(system, Options(disprove=True, internal_beta=internal_beta))
            note = f"chain exploration from {show_term(seed)}: all-terminated (longest trace "
            assert note + f"{longest[internal_beta]})" in report.notes
        # the rewrite relation, which runs first, tabulates the beta redex
        # that only the chain relation with beta may step
        assert longest == {True: 2, False: 1}


# Pairs whose extraction check fails: y escapes its binder, and the binder
# X shadows the rule variable X.  From f 0 the shadowed pair steps to f 0,
# while the rule's contractum g (\X:N. f X) holds f X at the pair's
# position, so pair targets cannot be read off the contractum.
PAIR_CHECK_FAILS = {
    name: "sort N\n0 : N\ns : N -> N\nf : N -> N\ng : (N -> N) -> N\n" + rule
    for name, rule in (
        ("escape", "rule f X -> g (\\y:N. f y)\n"),
        ("shadow", "rule f X -> g (\\X:N. f X)\n"),
    )
}


class TestPairStepsFromTheTable:
    """Chain successors take each pair step from its rule's binding in the
    table the rewrite relation filled first; the reference matches every
    pair afresh."""

    @pytest.mark.parametrize("include_beta", [True, False])
    @pytest.mark.parametrize("name", ["map", "twice", "filter", "foldr", *PAIR_CHECK_FAILS])
    def test_chain_after_the_rewrite_relation_matches_fresh_pair_matches(self, name, include_beta):
        text = PAIR_CHECK_FAILS.get(name)
        system = load_system(name) if text is None else parse_system(text)
        pairs = extract_pairs(system)
        rng = random.Random(f"pair-steps:{name}")
        starts = _walk_starts(rng, system)
        table = {}
        rewrite = Successors(system, None, True, table)
        for start in starts:
            t = start
            for _ in range(15):
                steps = rewrite(t)
                if not steps:
                    break
                t = rng.choice(steps).target
        chain = Successors(system, pairs, include_beta, table)
        dp_steps = 0
        for start in starts:
            t = start
            for _ in range(15):
                steps = chain(t)
                inner = _reference_rewrite_steps(t, system, include_beta)
                reference = _reference_pair_root_steps(t, pairs) + [s for s in inner if s.position != ()]
                assert steps == reference, show_term(t)
                dp_steps += sum(s.kind == "dp" for s in steps)
                if not steps:
                    break
                t = rng.choice(steps).target
        assert (dp_steps > 0) == bool(pairs)


def _rebind(rng, t):
    """t with binders renamed from a two-name pool where that captures
    nothing, so that inner binders often shadow outer ones."""
    if isinstance(t, App):
        return App(_rebind(rng, t.fun), _rebind(rng, t.arg))
    if not isinstance(t, Lam):
        return t
    body = _rebind(rng, t.body)
    v = Var(rng.choice("xxy"), t.var.type)
    if v != t.var and v in free_vars(body):
        v = t.var
    return Lam(v, apply_subst(body, {t.var: v}))


def _shadows(t, bound=frozenset()):
    if isinstance(t, App):
        return _shadows(t.fun, bound) or _shadows(t.arg, bound)
    if isinstance(t, Lam):
        return t.var in bound or _shadows(t.body, bound | {t.var})
    return False


class TestCanonicalOracle:
    def test_stored_forms_match_the_recursive_renaming(self):
        x, y = Var("x", Base("N")), Var("y", Base("N"))
        s = Sym("s", Arrow(Base("N"), Base("N")))
        terms = [Lam(x, Lam(x, x)), App(Lam(x, App(s, x)), x), Lam(x, App(Lam(x, x), App(s, y)))]
        rng = random.Random(31)
        for _ in range(300):
            pool = tuple(Var(rng.choice("xy"), v.type) for v in random_var_pool(rng))
            typ = Arrow(Base("N"), Arrow(Base("N"), Base(rng.choice(["N", "L"]))))
            t = random_term(rng, GEN_SYMBOLS, typ, rng.randint(4, 24), env=pool, redex_rate=0.5)
            terms.append(_rebind(rng, t))
        assert sum(map(_shadows, terms)) >= 100
        for t in terms:
            # subterms first, so the whole term meets forms stored outside
            # a binder on nodes it reaches inside one
            for _, sub in reversed(positions(t)):
                assert alpha_canonical(sub) is _reference_canon(sub), show_term(sub)


class TestSharedClosedSubterms:
    def test_a_closed_subterm_is_renamed_once_per_binder_depth(self, tmp_path, capsys, monkeypatch):
        """State k of the doubling system shares one closed abstraction 2^k
        ways under a binder.  Renaming it along every path took 786,449
        _canon calls at 16 states."""
        file = tmp_path / "doubling.hodp"
        file.write_text(WIDE_SYSTEMS["doubling"], encoding="utf-8")
        calls = [0]
        canon = terms._canon

        def counted(*args):
            calls[0] += 1
            if calls[0] > 50_000:
                pytest.fail("more than 50,000 _canon calls")
            return canon(*args)

        monkeypatch.setattr(terms, "_canon", counted)
        assert main(["check", str(file), "--disprove", "--explore-nodes", "16"]) == 3
        assert capsys.readouterr().err == "limit: exploration expanded more than 16 states\n"
        assert calls[0] < 5_000
