"""Rewriting steps and bounded exploration.

The rewrite relation combines beta steps with rule steps at any position;
the chain relation combines internal (non-root) steps with dependency pair
steps at the root.  Exploration is a depth-first search that detects
repeated states modulo alpha along a path, memoizes finished states
globally, and reports either exhaustive termination with the longest trace
length, a trace that exceeds the depth bound, or a cycle witness.
Successor enumeration is deterministic, so results are reproducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable

from hodp.errors import ResourceLimitError
from hodp.pairs import DepPair
from hodp.signature import RewriteSystem, Signature
from hodp.errors import InvalidPositionError
from hodp.terms import (
    App,
    Arrow,
    Lam,
    Position,
    Sym,
    Term,
    Type,
    Var,
    alpha_canonical,
    alpha_eq,
    apply_subst,
    beta_contract,
    flatten_type,
    free_vars,
    make_app,
    match_pattern,
    positions,
    replace_at,
    show_position,
    show_term,
    subterm_at,
    term_size,
)


@dataclass(frozen=True)
class Step:
    kind: str  # 'beta' | 'rule' | 'dp'
    label: str  # rule or pair name; empty for beta
    position: Position
    source: Term
    target: Term


def format_step(s: Step) -> str:
    kind = s.kind if s.kind == "beta" else f"{s.kind}({s.label})"
    return f"{kind}@{show_position(s.position)}: {show_term(s.source)} => {show_term(s.target)}"


def rewrite_steps(t: Term, system: RewriteSystem, include_beta: bool = True) -> list[Step]:
    """All one-step reducts, position-lexicographic, beta before rules."""
    out = []
    for pos, sub in positions(t):
        if include_beta and isinstance(sub, App) and isinstance(sub.fun, Lam):
            out.append(Step("beta", "", pos, t, replace_at(t, pos, beta_contract(sub))))
        for rule in system.rules:
            binding = match_pattern(rule.lhs, sub)
            if binding is not None:
                target = replace_at(t, pos, apply_subst(rule.rhs, binding))
                out.append(Step("rule", rule.name, pos, t, target))
    return out


def internal_steps(t: Term, system: RewriteSystem, include_beta: bool = True) -> list[Step]:
    return [s for s in rewrite_steps(t, system, include_beta) if s.position != ()]


def pair_root_steps(t: Term, pairs: Iterable[DepPair]) -> list[Step]:
    out = []
    for dp in pairs:
        binding = match_pattern(dp.lhs, t)
        if binding is not None:
            out.append(Step("dp", dp.name, (), t, apply_subst(dp.rhs, binding)))
    return out


def rewrite_successors(system: RewriteSystem) -> Callable[[Term], list[Step]]:
    return lambda t: rewrite_steps(t, system)


def chain_successors(
    system: RewriteSystem, pairs: tuple[DepPair, ...], include_beta: bool = True
) -> Callable[[Term], list[Step]]:
    def succ(t: Term) -> list[Step]:
        return pair_root_steps(t, pairs) + internal_steps(t, system, include_beta)

    return succ


# -------------------------------------------------------------- exploration


@dataclass
class Exploration:
    kind: str  # 'all-terminated' | 'bound-exceeded' | 'cycle'
    longest: int | None = None
    trace: tuple[Step, ...] | None = None
    expanded: int = 0
    edges: tuple[Step, ...] = ()


class _CycleHit(Exception):
    def __init__(self, trace: tuple[Step, ...]):
        self.trace = trace


def bounded_explore(
    start: Term,
    successors: Callable[[Term], list[Step]],
    max_depth: int = 200,
    max_nodes: int = 100_000,
    record: bool = False,
) -> Exploration:
    """Depth-first exploration of the successor relation from start.

    Returns all-terminated with the longest trace length if every trace
    reaches a normal form within max_depth steps; cycle with a witness
    trace whose final state repeats an earlier one modulo alpha; otherwise
    bound-exceeded with a trace longer than max_depth.  Expanding more than
    max_nodes distinct states raises ResourceLimitError.
    """
    finished: dict[Term, tuple[int, Step | None]] = {}
    on_path: dict[Term, int] = {}
    state = {"expanded": 0, "bound_trace": None}
    edges: list[Step] = []

    old_limit = sys.getrecursionlimit()

    def memo_suffix(u: Term) -> list[Step]:
        steps = []
        key = alpha_canonical(u)
        while True:
            _, st = finished[key]
            if st is None:
                return steps
            steps.append(st)
            key = alpha_canonical(st.target)

    def visit(u: Term, depth: int, path: list[Step]) -> int | None:
        key = alpha_canonical(u)
        known = finished.get(key)
        if known is not None:
            h = known[0]
            if depth + h > max_depth:
                if state["bound_trace"] is None:
                    state["bound_trace"] = tuple(path) + tuple(memo_suffix(u))
                return None
            return h
        if key in on_path:
            raise _CycleHit(tuple(path))
        state["expanded"] += 1
        if state["expanded"] > max_nodes:
            raise ResourceLimitError(
                f"exploration expanded more than {max_nodes} states"
            )
        succ = successors(u)
        if record:
            edges.extend(succ)
        if not succ:
            finished[key] = (0, None)
            return 0
        if depth >= max_depth:
            if state["bound_trace"] is None:
                state["bound_trace"] = tuple(path) + (succ[0],)
            return None
        on_path[key] = depth
        best: int | None = None
        best_step: Step | None = None
        truncated = False
        for s in succ:
            path.append(s)
            h = visit(s.target, depth + 1, path)
            path.pop()
            if h is None:
                truncated = True
            elif best is None or h + 1 > best:
                best, best_step = h + 1, s
        del on_path[key]
        if truncated:
            return None
        finished[key] = (best, best_step)
        return best

    sys.setrecursionlimit(max(old_limit, 3 * max_depth + 200))
    try:
        h = visit(start, 0, [])
    except _CycleHit as hit:
        return Exploration("cycle", trace=hit.trace, expanded=state["expanded"], edges=tuple(edges))
    finally:
        sys.setrecursionlimit(old_limit)
    if state["bound_trace"] is not None:
        return Exploration(
            "bound-exceeded",
            trace=state["bound_trace"],
            expanded=state["expanded"],
            edges=tuple(edges),
        )
    return Exploration("all-terminated", longest=h, expanded=state["expanded"], edges=tuple(edges))


def replay_trace(trace: Iterable[Step], system: RewriteSystem, pairs: tuple[DepPair, ...]) -> bool:
    """Recompute every step of a trace and check consecutive states link up
    modulo alpha."""
    rules = {r.name: r for r in system.rules}
    pair_map = {dp.name: dp for dp in pairs}
    prev: Term | None = None
    for s in trace:
        if prev is not None and not alpha_eq(prev, s.source):
            return False
        try:
            sub = subterm_at(s.source, s.position)
        except InvalidPositionError:
            return False
        if s.kind == "beta":
            if not (isinstance(sub, App) and isinstance(sub.fun, Lam)):
                return False
            expect = replace_at(s.source, s.position, beta_contract(sub))
        elif s.kind == "rule":
            rule = rules.get(s.label)
            if rule is None:
                return False
            binding = match_pattern(rule.lhs, sub)
            if binding is None:
                return False
            expect = replace_at(s.source, s.position, apply_subst(rule.rhs, binding))
        elif s.kind == "dp":
            dp = pair_map.get(s.label)
            if dp is None or s.position != ():
                return False
            binding = match_pattern(dp.lhs, s.source)
            if binding is None:
                return False
            expect = apply_subst(dp.rhs, binding)
        else:
            return False
        if not alpha_eq(expect, s.target):
            return False
        prev = s.target
    return True


def has_alpha_repeat(start: Term, trace: tuple[Step, ...]) -> bool:
    """True if the state sequence start, then each step target, repeats a
    state modulo alpha."""
    states = [alpha_canonical(start)]
    for s in trace:
        states.append(alpha_canonical(s.target))
    return len(set(states)) < len(states)


# -------------------------------------------------------------------- seeds


def ground_term(sig: Signature, typ: Type, depth: int = 3) -> Term | None:
    """Smallest ground constructor term of the given type, if one exists
    within the generation depth.  Ties break on the printed form."""

    def best(a: Term | None, b: Term | None) -> Term | None:
        if a is None:
            return b
        if b is None:
            return a
        ka = (term_size(a), show_term(a))
        kb = (term_size(b), show_term(b))
        return a if ka <= kb else b

    def gen(t: Type, d: int) -> Term | None:
        found: Term | None = None
        for name in sorted(sig.constructors):
            ctype = sig.symbols[name]
            args, out = flatten_type(ctype)
            # partial application: any suffix of the constructor type may
            # equal the requested type
            suffix = ctype
            taken: list[Type] = []
            for k in range(len(args) + 1):
                if suffix == t:
                    if k == 0:
                        found = best(found, Sym(name, ctype))
                    elif d > 0:
                        subs = [gen(a, d - 1) for a in taken]
                        if all(s is not None for s in subs):
                            found = best(found, make_app(Sym(name, ctype), subs))
                if isinstance(suffix, Arrow):
                    taken.append(suffix.dom)
                    suffix = suffix.cod
                else:
                    break
        if isinstance(t, Arrow) and d > 0:
            body = gen(t.cod, d - 1)
            if body is not None:
                found = best(found, Lam(Var("x", t.dom), body))
        return found

    return gen(typ, depth)


def disprove_seeds(system: RewriteSystem, depth: int = 3) -> tuple[Term, ...]:
    """One seed per rule: the left-hand side with each variable replaced by
    the smallest ground term of its type.  Variables of uninhabited types
    stay as they are, so the seed is still explorable."""
    seeds: list[Term] = []
    seen: set[Term] = set()
    for rule in system.rules:
        subst = {}
        for v in sorted(free_vars(rule.lhs), key=lambda v: v.name):
            g = ground_term(system.signature, v.type, depth)
            if g is not None:
                subst[v] = g
        seed = apply_subst(rule.lhs, subst)
        key = alpha_canonical(seed)
        if key not in seen:
            seen.add(key)
            seeds.append(seed)
    return tuple(seeds)


# ---------------------------------------------------------------------- dot


def dot_graph(steps: Iterable[Step]) -> str:
    """Graphviz rendering of explored edges, states merged modulo alpha."""
    ids: dict[Term, int] = {}
    lines = ["digraph exploration {", '  node [shape=box, fontname="monospace"];']

    def node(t: Term) -> int:
        key = alpha_canonical(t)
        if key not in ids:
            ids[key] = len(ids)
            label = show_term(key).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{ids[key]} [label="{label}"];')
        return ids[key]

    seen_edges = set()
    for s in steps:
        a, b = node(s.source), node(s.target)
        kind = s.kind if s.kind == "beta" else f"{s.kind}({s.label})"
        key = (a, b, kind, show_position(s.position))
        if key in seen_edges:
            continue
        seen_edges.add(key)
        lines.append(f'  n{a} -> n{b} [label="{kind}@{show_position(s.position)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
