"""Rewriting steps and bounded exploration.

The rewrite relation combines beta steps with rule steps at any position;
the chain relation combines internal (non-root) steps with dependency pair
steps at the root.  Both relations of one analysis read one redex table:
interned nodes are matched once, and only against the rules of their head
symbol and argument count, so a step costs work in proportion to the nodes
it creates, not to the size of the state, and a pair step reuses the
match of its rule at the root.  A step is one immutable record of its
position and contractum; its target state is built each time it is read,
and exploration reads it once per visit.  A state's steps come from a
walk over its redex positions, which exploration takes one node at a
time: a frame on the path keeps the rest of its state's walk and goes on
with it only when the search backtracks into the frame, so exploration
makes the steps its visits reach, not one per redex position of every
state it expands.  A --dot graph asks for every step of each state it
expands, and gets them in the same order.
Exploration is a depth-first search on an explicit stack, so its depth
does not depend on the interpreter's recursion limit, which it never
changes; only new structure within one step, and input nesting, recurse.
It detects repeated states modulo alpha along a path (a binder-free state
is its own canonical form and key), memoizes the height of finished
states globally, and reports exhaustive termination with the longest
trace length, that some trace exceeds the depth bound, or a cycle
witness; only a cycle carries a trace.  Successor enumeration is
deterministic, so results are reproducible.
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
    CANONICAL,
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


# builds a Step from the tuple of its fields, without the Python-level
# __new__ that NamedTuple gives Step
_new_step = tuple.__new__


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
    t: Term,
    system: RewriteSystem,
    include_beta: bool,
    table: RedexTable,
    at_root: bool = True,
    walk: list[tuple[Position, Term]] | None = None,
) -> list[Step]:
    """All one-step reducts, position-lexicographic, beta before rules;
    without beta steps unless include_beta, and without the root's own
    redexes unless at_root.  Passing the same table for every state of an
    analysis matches each node only once.

    With walk, the nodes still to visit, only the steps of the next node
    that has some: an empty walk starts at t, and each call leaves the
    rest in it, so the calls until it is empty again return the full list
    in pieces, each built only when it is asked for."""
    drain = walk is None
    if drain:
        walk = []
    if not walk:
        entry = table.get(t, _UNSEEN)
        if entry is _UNSEEN:
            entry = _tabulate(t, system, table)
        if entry is not None:
            walk.append(((), t))
    out: list[Step] = []
    while walk:
        pos, u = walk.pop()
        if pos or at_root:
            for kind, label, _, contractum in table[u]:
                if include_beta or kind != "beta":
                    out.append(_new_step(Step, (kind, label, pos, t, contractum)))
        cls = u.__class__
        if cls is App:
            fun, arg = u.fun, u.arg
            if table[arg] is not None:
                walk.append((pos + (2,), arg))
            if table[fun] is not None:  # pushed last, so visited first
                walk.append((pos + (1,), fun))
        elif cls is Lam and table[u.body] is not None:
            walk.append((pos + (1,), u.body))
        if out and not drain:
            break
    return out


def _tabulate(u: Term, system: RewriteSystem, table: RedexTable):
    """The entry of u, after adding u and its subterms to the table if it
    has not seen u.  Only nodes the table has not seen are matched, each
    only against the rules whose left-hand side has its head and argument
    count; a child the table has seen is looked up, not visited."""
    entry = table.get(u, _UNSEEN)
    if entry is not _UNSEEN:
        return entry
    cls = u.__class__
    found = []
    if cls is App:
        # both children are tabulated, the function part first
        fun, arg = u.fun, u.arg
        below = table.get(fun, _UNSEEN)
        if below is _UNSEEN:
            below = _tabulate(fun, system, table)
        entry = table.get(arg, _UNSEEN)
        if entry is _UNSEEN:
            entry = _tabulate(arg, system, table)
        below = below is not None or entry is not None
        if fun.__class__ is Lam:
            found.append(("beta", "", None, beta_contract(u)))
    elif cls is Lam:
        below = table.get(u.body, _UNSEEN)
        if below is _UNSEEN:
            below = _tabulate(u.body, system, table)
        below = below is not None
    else:
        below = False
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
            out.append(_new_step(Step, ("dp", dp.name, (), t, contractum)))
    return out


class Successors(NamedTuple):
    """A successor relation over one redex table: the rewrite relation, or
    with pairs the chain relation, whose internal steps take beta steps
    only if include_beta.  Called on a state, it returns all the state's
    steps; steps(t, walk) returns them in pieces, as rewrite_steps does,
    so exploration makes only the steps it reaches.  The chain relation's
    pair steps come first, with the first piece, and its walk yields no
    step at the root."""

    system: RewriteSystem
    pairs: tuple[DepPair, ...] | None
    include_beta: bool
    table: RedexTable

    def steps(self, t: Term, walk: list | None = None) -> list[Step]:
        start, pairs = not walk, self.pairs
        # the first call tabulates t, as the pair steps need
        out = rewrite_steps(t, self.system, self.include_beta, self.table, pairs is None, walk)
        if start and pairs is not None:
            out = pair_root_steps(t, pairs, self.table) + out
        return out

    __call__ = steps


# -------------------------------------------------------------- exploration


class Exploration(NamedTuple):
    kind: str  # 'all-terminated' | 'bound-exceeded' | 'cycle'
    longest: int | None = None
    trace: tuple[Step, ...] | None = None  # a cycle's witness
    expanded: int = 0
    edges: tuple[Step, ...] = ()


# A frame of the exploration stack is one state on the path, kept as a
# list, the cheapest record to build once per expanded state: the state's
# key, its steps so far, the index of the next one to visit (the first is
# visited as the frame is pushed), the rest of its redex walk (None once
# spent), the longest finished height below it so far, and whether a
# trace below it met the depth bound.
_KEY, _STEPS, _NEXT, _WALK, _BEST, _TRUNCATED = range(6)


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
    built, once per visit.  successors is any function from a state to
    its list of steps; a Successors relation is asked for a state's steps
    one piece of its redex walk at a time, the next piece only once the
    search backtracks past the last, so only the steps the search reaches
    are made.  With record, every step of every expanded state goes into
    edges, and whoever reads their targets builds them all.
    """
    finished: dict[Term, int] = {}  # heights of finished states
    on_path: set[Term] = set()
    stack: list[list] = []
    edges: list[Step] = []
    expanded = 0
    pieces = successors.steps if isinstance(successors, Successors) and not record else None
    walk = None
    u = start
    while True:
        # visit u, reached by the current step of every frame on the stack;
        # h becomes its height, or None if some trace from it is too long.
        # A binder-free state is its own canonical form.
        key = u if u._canonical is CANONICAL else alpha_canonical(u)
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
            if pieces is None:
                succ = successors(u)
            else:
                walk = []
                succ = pieces(u, walk)
            if record:
                edges.extend(succ)
            if not succ:
                finished[key] = h = 0
            elif len(stack) >= max_depth:
                h = None
            else:
                on_path.add(key)
                stack.append([key, succ, 1, walk or None, 0, False])
                u = succ[0].target
                continue
        # hand h to the frames above until one has a step left
        while stack:
            top = stack[-1]
            if h is None:
                top[_TRUNCATED] = True
            elif h >= top[_BEST]:
                top[_BEST] = h + 1
            succ, i = top[_STEPS], top[_NEXT]
            if i < len(succ):
                u = succ[i].target
                top[_NEXT] = i + 1
                break
            walk = top[_WALK]
            if walk is not None:
                # the next piece of the walk, from the state every step of
                # the last one left
                succ = pieces(succ[0].source, walk)
                if not walk:
                    top[_WALK] = None
                if succ:
                    top[_STEPS], top[_NEXT] = succ, 1
                    u = succ[0].target
                    break
            stack.pop()
            on_path.remove(top[_KEY])
            if top[_TRUNCATED]:
                h = None
            else:
                finished[top[_KEY]] = h = top[_BEST]
        else:
            break
    # a trace too long for the bound leaves every frame above it truncated
    if h is None:
        return Exploration("bound-exceeded", expanded=expanded, edges=tuple(edges))
    return Exploration("all-terminated", longest=h, expanded=expanded, edges=tuple(edges))


def _path(stack: list[list]) -> tuple[Step, ...]:
    """The steps from the start to the state being visited."""
    return tuple(f[_STEPS][f[_NEXT] - 1] for f in stack)


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


def ground_term(
    sig: Signature, typ: Type, memo: dict[tuple[Type, int], Term | None] | None = None
) -> Term | None:
    """Smallest ground constructor term of the given type, if one exists
    within _GROUND_DEPTH.  Ties break on the printed form.  Calls for one
    signature may share a memo."""
    return _ground(sig, typ, _GROUND_DEPTH, {} if memo is None else memo)


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
    memo: dict[tuple[Type, int], Term | None] = {}  # one for every variable
    for rule in system.rules:
        subst = {}
        for v in sorted(free_vars(rule.lhs), key=lambda v: v.name):
            g = ground_term(system.signature, v.type, memo)
            if g is not None:
                subst[v] = g
        seed = apply_subst(rule.lhs, subst)
        key = alpha_canonical(seed)
        if key not in seen:
            seen.add(key)
            seeds.append(seed)
    return tuple(seeds)
