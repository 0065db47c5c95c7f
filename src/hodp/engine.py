"""Rewriting steps and bounded exploration.

The rewrite relation combines beta steps with rule steps at any position;
the chain relation combines internal (non-root) steps with dependency pair
steps at the root.  Both relations of one analysis read one redex table:
interned nodes are matched once, and only against the rules of their head
symbol and argument count, so a step costs work in proportion to the nodes
it creates, not to the size of the state, and a pair step reuses the
match of its rule at the root.  A step is one immutable record of its
position and contractum; its target state is built each time it is read,
and exploration reads it once per visit, so a state's successors cost what
exploration visits of them.
Exploration is a depth-first search on an explicit stack, so its depth
does not depend on the interpreter's recursion limit, which it never
changes; only new structure within one step, and input nesting, recurse.
It detects repeated states modulo alpha along a path, memoizes the
height of finished states globally, and reports exhaustive termination
with the longest trace length, that some trace exceeds the depth bound,
or a cycle witness; only a cycle carries a trace.  Successor enumeration
is deterministic, so results are reproducible.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import NamedTuple

from hodp.errors import LimitError, TermError
from hodp.pairs import DepPair
from hodp.signature import RewriteSystem, Signature
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
    replace_at,
    show_term,
    subterm_at,
    term_size,
)


class Step(NamedTuple):
    """One step: its kind ('beta' | 'rule' | 'dp'), its label (the rule or
    pair name; empty for beta), the position it rewrites, its source, and
    the contractum it puts there; at the root, the contractum is the
    target.  Each read of target builds it from the other fields, so
    comparing, hashing or printing a step builds none."""

    kind: str
    label: str
    position: Position
    source: Term
    contractum: Term

    @property
    def target(self) -> Term:
        return replace_at(self.source, self.position, self.contractum)


# A redex table maps each node it has seen to the redexes at its root, as
# (kind, label, binding, contractum) tuples, or to None when no redex lies
# anywhere in the node.  Beta redexes are always recorded, with an empty
# label and no binding; a rule redex keeps the rule's binding, which is
# also the binding of each of the rule's pairs.  A node is matched only
# against the rules of its head symbol and argument count (the system's
# by_head), since no other rule's left-hand side can match it.  The table
# holds no successor targets: a step builds its own each time it is read.
# One table serves every relation of one analysis of one system, whatever
# its beta setting.
RedexTable = dict[Term, "tuple[tuple[str, str, dict[Var, Term] | None, Term], ...] | None"]

_UNSEEN = object()  # what a table lookup returns for a node it has not seen


def rewrite_steps(
    t: Term, system: RewriteSystem, include_beta: bool, table: RedexTable, at_root: bool = True
) -> list[Step]:
    """All one-step reducts, position-lexicographic, beta before rules;
    without beta steps unless include_beta, and without the root's own
    redexes unless at_root.  Passing the same table for every state of an
    analysis matches each node only once."""
    out: list[Step] = []
    todo: list[tuple[Position, Term]] = []
    if _tabulate(t, system, table) is not None:
        todo.append(((), t))
    while todo:
        pos, u = todo.pop()
        if pos or at_root:
            for kind, label, _, contractum in table[u]:
                if include_beta or kind != "beta":
                    out.append(Step(kind, label, pos, t, contractum))
        cls = u.__class__
        if cls is App:
            fun, arg = u.fun, u.arg
            if table[arg] is not None:
                todo.append((pos + (2,), arg))
            if table[fun] is not None:  # pushed last, so visited first
                todo.append((pos + (1,), fun))
        elif cls is Lam and table[u.body] is not None:
            todo.append((pos + (1,), u.body))
    return out


def _tabulate(u: Term, system: RewriteSystem, table: RedexTable):
    """The entry of u, after adding u and its subterms to the table if it
    has not seen u.  Only nodes the table has not seen are matched, each
    only against the rules whose left-hand side has its head and argument
    count."""
    entry = table.get(u, _UNSEEN)
    if entry is not _UNSEEN:
        return entry
    cls = u.__class__
    found = []
    if cls is App:
        # both children are tabulated, the function part first
        below = _tabulate(u.fun, system, table) is not None
        below = _tabulate(u.arg, system, table) is not None or below
        if u.fun.__class__ is Lam:
            found.append(("beta", "", None, beta_contract(u)))
    else:
        below = cls is Lam and _tabulate(u.body, system, table) is not None
    head, count = u, 0
    while head.__class__ is App:
        head, count = head.fun, count + 1
    for rule in system.by_head.get((head, count), ()):
        binding = match_pattern(rule.lhs, u)
        if binding is not None:
            found.append(("rule", rule.name, binding, apply_subst(rule.rhs, binding)))
    entry = tuple(found) if found or below else None
    table[u] = entry
    return entry


def pair_root_steps(t: Term, pairs: Iterable[DepPair], table: RedexTable) -> list[Step]:
    """The pair steps at the root of t, which the table must already hold.
    A pair's left side is its rule's, so a pair fires exactly where its
    rule matched, with the rule's binding; a pair at the root of its
    rule's right side reaches the contractum the table holds."""
    redexes = {label: (binding, c) for kind, label, binding, c in table[t] or () if kind == "rule"}
    out = []
    for dp in pairs:
        redex = redexes.get(dp.rule.name)
        if redex is not None:
            binding, contractum = redex
            if dp.rhs is not dp.rule.rhs:
                contractum = apply_subst(dp.rhs, binding)
            out.append(Step("dp", dp.name, (), t, contractum))
    return out


def rewrite_successors(system: RewriteSystem, table: RedexTable) -> Callable[[Term], list[Step]]:
    return lambda t: rewrite_steps(t, system, True, table)


def chain_successors(
    system: RewriteSystem, pairs: tuple[DepPair, ...], include_beta: bool, table: RedexTable
) -> Callable[[Term], list[Step]]:
    def succ(t: Term) -> list[Step]:
        inner = rewrite_steps(t, system, include_beta, table, at_root=False)  # tabulates t
        return pair_root_steps(t, pairs, table) + inner

    return succ


# -------------------------------------------------------------- exploration


class Exploration(NamedTuple):
    kind: str  # 'all-terminated' | 'bound-exceeded' | 'cycle'
    longest: int | None = None
    trace: tuple[Step, ...] | None = None  # a cycle's witness
    expanded: int = 0
    edges: tuple[Step, ...] = ()


class _Frame:
    """A state on the exploration path: its successors, the index of the next
    one to visit (the first is visited as the frame is pushed), and the
    longest finished height below it so far."""

    __slots__ = ("key", "succ", "next", "best", "truncated")

    def __init__(self, key: Term, succ: list[Step]):
        self.key, self.succ, self.next = key, succ, 1
        self.best, self.truncated = 0, False


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
    bound-exceeded, with no trace.  Expanding more than max_nodes distinct
    states raises LimitError.  Only the target of a step it visits is
    built, once per visit; with record, every step goes into edges, and
    whoever reads their targets builds them all.
    """
    finished: dict[Term, int] = {}  # heights of finished states
    on_path: set[Term] = set()
    stack: list[_Frame] = []
    edges: list[Step] = []
    expanded = 0
    u = start
    while True:
        # visit u, reached by the current step of every frame on the stack;
        # h becomes its height, or None if some trace from it is too long
        key = alpha_canonical(u)
        h = finished.get(key)
        if h is not None:
            if len(stack) + h > max_depth:
                h = None
        elif key in on_path:
            return Exploration("cycle", trace=_path(stack), expanded=expanded, edges=tuple(edges))
        else:
            expanded += 1
            if expanded > max_nodes:
                raise LimitError(f"exploration expanded more than {max_nodes} states")
            succ = successors(u)
            if record:
                edges.extend(succ)
            if not succ:
                finished[key] = h = 0
            elif len(stack) >= max_depth:
                h = None
            else:
                on_path.add(key)
                stack.append(_Frame(key, succ))
                u = succ[0].target
                continue
        # hand h to the frames above until one has a successor left
        while stack:
            top = stack[-1]
            if h is None:
                top.truncated = True
            elif h + 1 > top.best:
                top.best = h + 1
            if top.next < len(top.succ):
                u = top.succ[top.next].target
                top.next += 1
                break
            stack.pop()
            on_path.remove(top.key)
            if top.truncated:
                h = None
            else:
                finished[top.key] = h = top.best
        else:
            break
    # a trace too long for the bound leaves every frame above it truncated
    if h is None:
        return Exploration("bound-exceeded", expanded=expanded, edges=tuple(edges))
    return Exploration("all-terminated", longest=h, expanded=expanded, edges=tuple(edges))


def _path(stack: list[_Frame]) -> tuple[Step, ...]:
    """The steps from the start to the state being visited."""
    return tuple(f.succ[f.next - 1] for f in stack)


def replay_trace(trace: Iterable[Step], system: RewriteSystem, pairs: tuple[DepPair, ...]) -> bool:
    """Recompute every step (a pair step only at the root, by a pair with no
    escaped variable) and check consecutive states link up modulo alpha."""
    rules = {r.name: r for r in system.rules}
    pair_map = {dp.name: dp for dp in pairs}
    prev: Term | None = None
    for s in trace:
        if prev is not None and not alpha_eq(prev, s.source):
            return False
        try:
            sub = subterm_at(s.source, s.position)
        except TermError:
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
            if dp is None or s.position != () or not dp.check.variables_ok:
                return False
            binding = match_pattern(dp.lhs, s.source)
            if binding is None:
                return False
            expect = apply_subst(dp.rhs, binding)
        else:
            return False
        prev = s.target
        if not alpha_eq(expect, prev):
            return False
    return True


def has_alpha_repeat(start: Term, trace: tuple[Step, ...]) -> bool:
    """True if the state sequence start, then each step target, repeats a
    state modulo alpha."""
    states = [alpha_canonical(start)]
    for s in trace:
        states.append(alpha_canonical(s.target))
    return len(set(states)) < len(states)


# -------------------------------------------------------------------- seeds


_GROUND_DEPTH = 3  # how deep ground terms may nest


def ground_term(sig: Signature, typ: Type) -> Term | None:
    """Smallest ground constructor term of the given type, if one exists
    within _GROUND_DEPTH.  Ties break on the printed form."""
    return _ground(sig, typ, _GROUND_DEPTH, {})


def _ground(
    sig: Signature, t: Type, d: int, memo: dict[tuple[Type, int], Term | None]
) -> Term | None:
    if (t, d) in memo:
        return memo[t, d]
    found: list[Term] = []
    for name in sorted(sig.constructors):
        ctype = sig.symbols[name]
        args, _ = flatten_type(ctype)
        # partial application: any suffix of the constructor type may
        # equal the requested type
        suffix = ctype
        taken: list[Type] = []
        for k in range(len(args) + 1):
            if suffix == t:
                if k == 0:
                    found.append(Sym(name, ctype))
                elif d > 0:
                    subs = [_ground(sig, a, d - 1, memo) for a in taken]
                    if all(s is not None for s in subs):
                        found.append(make_app(Sym(name, ctype), subs))
            if isinstance(suffix, Arrow):
                taken.append(suffix.dom)
                suffix = suffix.cod
            else:
                break
    if isinstance(t, Arrow) and d > 0:
        body = _ground(sig, t.cod, d - 1, memo)
        if body is not None:
            found.append(Lam(Var("x", t.dom), body))
    best = min(found, key=lambda u: (term_size(u), show_term(u)), default=None)
    memo[t, d] = best
    return best


def disprove_seeds(system: RewriteSystem) -> tuple[Term, ...]:
    """One seed per rule: the left-hand side with each variable replaced by
    the smallest ground term of its type.  Variables of uninhabited types
    stay as they are, so the seed is still explorable."""
    seeds: list[Term] = []
    seen: set[Term] = set()
    for rule in system.rules:
        subst = {}
        for v in sorted(free_vars(rule.lhs), key=lambda v: v.name):
            g = ground_term(system.signature, v.type)
            if g is not None:
                subst[v] = g
        seed = apply_subst(rule.lhs, subst)
        key = alpha_canonical(seed)
        if key not in seen:
            seen.add(key)
            seeds.append(seed)
    return tuple(seeds)
