"""Path ordering on typed terms: precedence, strict and weak comparison,
and certificate search.

The strict order is a conservative recursive path ordering over curried
terms.  Top-level constraint comparisons are between terms of equal type;
recursive comparisons require the types' arrow skeletons to agree (base
sorts are identified, arrow structure must match); its last clause tries
every beta reduct of the left side.  The weak order is its reflexive
closure: alpha-equal or strictly greater.  A certificate records a
precedence, statuses for the defined symbols, and a replayable witness per
constraint; only precedence edges actually used by some witness are kept.
A PathOrder holds one precedence, as a transitively closed edge set, with
its statuses; every rule and pair compared under it shares one memo of
comparisons, keyed on the two terms as built.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from hodp.errors import InputError, LimitError
from hodp.pairs import DepPair
from hodp.signature import RewriteSystem, Signature
from hodp.terms import (
    App,
    Lam,
    Sym,
    Term,
    Var,
    alpha_eq,
    apply_subst,
    beta_reducts,
    flatten_type,
    fresh_var,
    free_vars,
    spine,
    type_of,
    type_skeleton,
)


def transitive_closure(pairs) -> frozenset[tuple[str, str]]:
    """Transitively closed edges: each symbol with every symbol it reaches.
    A cycle raises, naming the alphabetically first symbol on one, so the
    message does not depend on set order."""
    succ: dict[str, set[str]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    edges: set[tuple[str, str]] = set()
    for a in succ:
        stack, reached = [a], set()
        while stack:
            for b in succ.get(stack.pop(), ()):
                if b not in reached:
                    reached.add(b)
                    stack.append(b)
        edges.update((a, b) for b in reached)
    cyclic = sorted(a for a, b in edges if a == b)
    if cyclic:
        raise InputError(f"precedence orders {cyclic[0]} above itself")
    return frozenset(edges)


class GtTrace(NamedTuple):
    """Evidence for one successful comparison.

    clause is one of: alpha, subterm, precedence, same-symbol, application,
    abstraction, beta, lex, mul, mul-dominates, arg-covers, whole-covers.
    """

    clause: str
    detail: tuple = ()
    children: tuple["GtTrace", ...] = ()


class PathOrder:
    """A precedence with statuses, and strict comparison under it.

    edges is transitively closed and irreflexive; a symbol has the
    multiset status unless statuses names it.  Comparisons are memoized in
    memo on the two terms as built.  Terms are interned, so the key is
    exact, and a witness, binder names included, depends only on the two
    terms and the order: every rule and pair compared under one order
    shares the memo."""

    __slots__ = ("edges", "statuses", "memo")

    def __init__(self, edges: frozenset[tuple[str, str]], statuses: dict[str, str] | None = None):
        self.edges = edges
        self.statuses = {} if statuses is None else statuses  # 'lex' | 'mul'
        self.memo: dict[tuple[Term, Term], GtTrace | None] = {}

    def status(self, f: str) -> str:
        return self.statuses.get(f, "mul")

    def greater(self, s: Term, t: Term) -> GtTrace | None:
        if isinstance(s, Var):
            return None  # no clause applies to a variable on the left
        key = (s, t)
        hit = self.memo.get(key, False)
        if hit is not False:
            return hit
        # a reentrant query would read this placeholder, a failed comparison;
        # none occurs, as each recursive call shrinks the pair: it takes a
        # subterm of either side or a beta reduct of the left, and simply
        # typed beta reduction terminates
        self.memo[key] = None
        result = self._greater(s, t)
        self.memo[key] = result
        return result

    def _greater(self, s: Term, t: Term) -> GtTrace | None:
        if type_skeleton(type_of(s)) != type_skeleton(type_of(t)):
            return None
        head, args = spine(s)
        if isinstance(head, Sym):
            # subterm: some argument already covers the whole right side
            for i, a in enumerate(args, start=1):
                leg = self.ge_leg(a, t)
                if leg is not None:
                    return GtTrace("subterm", (i,), (leg,))
            thead, targs = spine(t)
            if isinstance(thead, Sym):
                if (head.name, thead.name) in self.edges:
                    legs = self._covers(s, args, targs)
                    if legs is not None:
                        return GtTrace("precedence", (head.name, thead.name), legs)
                elif thead == head and len(args) == len(targs):
                    status = self.status(head.name)
                    ext = (
                        self._lex(args, targs)
                        if status == "lex"
                        else self._mul(args, targs)
                    )
                    if ext is not None:
                        legs = self._covers(s, args, targs)
                        if legs is not None:
                            return GtTrace(
                                "same-symbol", (head.name, status), (ext,) + legs
                            )
            elif isinstance(t, App):
                # right side is an application headed by a variable or lambda
                legs = self._covers(s, args, (t.fun, t.arg))
                if legs is not None:
                    return GtTrace("application", (), legs)
        elif isinstance(s, Lam) and isinstance(t, Lam) and s.var.type == t.var.type:
            avoid = {v.name for v in free_vars(s.body) | free_vars(t.body)}
            z = fresh_var(s.var.name, s.var.type, avoid)
            leg = self.greater(
                apply_subst(s.body, {s.var: z}), apply_subst(t.body, {t.var: z})
            )
            if leg is not None:
                return GtTrace("abstraction", (z.name,), (leg,))
        # beta prefix: reduce the left side one step and retry
        for pos, s2 in beta_reducts(s):
            if alpha_eq(s2, t):
                return GtTrace("beta", (pos,), (GtTrace("alpha"),))
            leg = self.greater(s2, t)
            if leg is not None:
                return GtTrace("beta", (pos,), (leg,))
        return None

    def ge_leg(self, a: Term, t: Term) -> GtTrace | None:
        """Weak leg: alpha-equal or strictly greater."""
        if alpha_eq(a, t):
            return GtTrace("alpha")
        return self.greater(a, t)

    def cover(self, s: Term, args: tuple[Term, ...], u: Term) -> GtTrace | None:
        """Right-argument coverage: some left argument weakly covers u, or
        the whole left side strictly does."""
        for i, a in enumerate(args, start=1):
            leg = self.ge_leg(a, u)
            if leg is not None:
                return GtTrace("arg-covers", (i,), (leg,))
        g = self.greater(s, u)
        if g is not None:
            return GtTrace("whole-covers", (), (g,))
        return None

    def _covers(
        self, s: Term, args: tuple[Term, ...], targs: tuple[Term, ...]
    ) -> tuple[GtTrace, ...] | None:
        """A cover of every right argument, or None if one has none."""
        legs = []
        for u in targs:
            leg = self.cover(s, args, u)
            if leg is None:
                return None
            legs.append(leg)
        return tuple(legs)

    def _lex(self, ss: tuple[Term, ...], ts: tuple[Term, ...]) -> GtTrace | None:
        for k in range(len(ss)):
            if alpha_eq(ss[k], ts[k]):
                continue
            leg = self.greater(ss[k], ts[k])
            if leg is not None:
                return GtTrace("lex", (k + 1,), (leg,))
            return None
        return None

    def _mul(self, ss: tuple[Term, ...], ts: tuple[Term, ...]) -> GtTrace | None:
        left = list(enumerate(ss, start=1))
        right = list(enumerate(ts, start=1))
        for j, u in list(right):
            for i, a in left:
                if alpha_eq(a, u):
                    left.remove((i, a))
                    right.remove((j, u))
                    break
        if not left:
            return None
        legs = []
        for j, u in right:
            for i, a in left:
                leg = self.greater(a, u)
                if leg is not None:
                    legs.append(GtTrace("mul-dominates", (i, j), (leg,)))
                    break
            else:
                return None
        return GtTrace("mul", tuple(i for i, _ in left), tuple(legs))


# ------------------------------------------------------------- weak order


def weakly_decreases(s: Term, t: Term, order: PathOrder) -> GtTrace | None:
    """GtTrace("alpha") when s and t are alpha-equal, else a strict trace,
    whose root is never alpha.  No beta prefix is needed: the strict
    order already tries every reduct of s."""
    return order.ge_leg(s, t)


# ------------------------------------------------------------ constraints


class Violation(NamedTuple):
    kind: str  # 'rule' | 'pair'
    label: str
    lhs: Term
    rhs: Term


class Certificate(NamedTuple):
    edges: tuple[tuple[str, str], ...]  # only edges some witness used
    statuses: tuple[tuple[str, str], ...]
    rule_witnesses: tuple[tuple[str, GtTrace], ...]
    pair_witnesses: tuple[tuple[str, GtTrace], ...]


class ConstraintCheck(NamedTuple):
    certificate: Certificate | None
    violations: tuple[Violation, ...]


def _used_edges(trace: GtTrace, out: set[tuple[str, str]]) -> None:
    if trace.clause == "precedence":
        out.add((trace.detail[0], trace.detail[1]))
    for child in trace.children:
        _used_edges(child, out)


def term_symbols(t: Term) -> frozenset[str]:
    if isinstance(t, Sym):
        return frozenset((t.name,))
    if isinstance(t, Var):
        return frozenset()
    if isinstance(t, App):
        return term_symbols(t.fun) | term_symbols(t.arg)
    return term_symbols(t.body)


def _vary(sig: Signature) -> tuple[str, ...]:
    """The symbols whose status can matter, in name order: the defined
    ones with at least two arguments.  Each heads a rule, so each is a
    constraint symbol."""
    return tuple(n for n in sorted(sig.defined) if len(flatten_type(sig.symbols[n])[0]) >= 2)


def _rows(system: RewriteSystem, pairs: tuple[DepPair, ...]) -> list[tuple]:
    """One row per rule, then per pair: its position, the constraint as
    the Violation it would be, its left symbols, all its symbols, its
    cross edges from a left symbol to a right one, its table of outcomes
    (see _decide), and each left symbol's index in _vary, or the length of
    _vary (see _first_assignment).  Each side is walked for its symbols
    once."""
    vary = _vary(system.signature)
    rows = []
    for kind, constraints in (("rule", system.rules), ("pair", pairs)):
        for c in constraints:
            left, right = term_symbols(c.lhs), term_symbols(c.rhs)
            cross = frozenset(itertools.product(left, right))
            names = tuple(left)
            index = tuple(vary.index(n) if n in vary else len(vary) for n in names)
            v = Violation(kind, c.name, c.lhs, c.rhs)
            rows.append((len(rows), v, names, left | right, cross, {}, index))
    return rows


def _symbols(rows) -> tuple[str, ...]:
    return tuple(sorted(frozenset().union(*(row[3] for row in rows))))


def _decide(row: tuple, order: PathOrder) -> GtTrace | None:
    """A rule's weak witness or a pair's strict one, None if there is none.

    Each comparison it makes has a left side built from lhs and a right
    side built from rhs, so it reads only edges from a symbol of lhs to
    one of rhs and statuses of symbols of lhs.  The row's table, which
    every candidate of one search shares, keeps the outcome under exactly
    those, whatever the rest: under the edge view (the cross edges in the
    order's edges) and the status view (the statuses of the left
    symbols).  Every comparison goes through the memo of order."""
    _, c, left, _, cross, outcomes, _ = row
    key = (cross & order.edges, tuple(map(order.status, left)))
    w = outcomes.get(key, False)
    if w is False:
        w = weakly_decreases(c.lhs, c.rhs, order) if c.kind == "rule" else order.greater(c.lhs, c.rhs)
        outcomes[key] = w
    return w


def check_constraints(
    system: RewriteSystem,
    pairs: tuple[DepPair, ...],
    order: PathOrder,
    rows: list | None = None,
) -> ConstraintCheck:
    """Every rule must weakly decrease and every pair strictly decrease
    under the given order.  On success the returned certificate keeps
    only the precedence edges some witness used.  Outcomes come from rows,
    those of the calling search, or fresh ones (see _rows and _decide)."""
    rows = _rows(system, pairs) if rows is None else rows
    violations: list[Violation] = []
    witnesses: dict[str, list] = {"rule": [], "pair": []}
    used: set[tuple[str, str]] = set()
    for row in rows:
        c, w = row[1], _decide(row, order)
        if w is None:
            violations.append(c)
            continue
        witnesses[c.kind].append((c.label, w))
        _used_edges(w, used)
    if violations:
        return ConstraintCheck(None, tuple(violations))
    defined = [n for n in _symbols(rows) if n in system.signature.defined]
    statuses = tuple((n, order.status(n)) for n in defined)
    cert = Certificate(
        tuple(sorted(used)), statuses, tuple(witnesses["rule"]), tuple(witnesses["pair"])
    )
    return ConstraintCheck(cert, ())


def _first_assignment(
    rows: list, vary: tuple[str, ...], edges: frozenset[tuple[str, str]], kept: list | None
) -> PathOrder | None:
    """The first status assignment of vary (multiset first) under which
    every constraint of rows holds with the precedence edges, as a
    PathOrder.  A row's edge view, cross & edges, is taken once, the first
    time it is needed.  Its status view under an assignment is built the
    first time the loop reaches the row under it, and kept for later
    orders if kept is a list: per assignment reached, in the order they
    are tried, per row, its view or None.  In one order the loop reaches a
    row at most once per assignment, so only later orders read a view
    again, and the kept views of a row grow as 2^len(vary).  The views are
    the keys _decide files under.  A PathOrder is built only on a miss,
    which _decide fills, or for the result."""
    edge_views = [None] * len(rows)
    for a, combo in enumerate(itertools.product(("mul", "lex"), repeat=len(vary))):
        if kept is None:
            status_views = [None] * len(rows)
        else:
            if a == len(kept):
                kept.append([None] * len(rows))
            status_views = kept[a]
        statuses = combo + ("mul",)
        order = None
        for i, _, _, _, cross, outcomes, index in rows:
            edge_view = edge_views[i]
            if edge_view is None:
                edge_view = edge_views[i] = cross & edges
            status_view = status_views[i]
            if status_view is None:
                status_view = status_views[i] = tuple([statuses[j] for j in index])
            w = outcomes.get((edge_view, status_view), False)
            if w is False:
                order = order or PathOrder(edges, dict(zip(vary, combo)))
                w = _decide(rows[i], order)
            if w is None:
                break
        else:
            return order or PathOrder(edges, dict(zip(vary, combo)))
    return None


def check_with_statuses(
    system: RewriteSystem,
    pairs: tuple[DepPair, ...],
    edges: frozenset[tuple[str, str]],
    rows: list | None = None,
    kept: list | None = None,
) -> ConstraintCheck:
    """Fixed edge set, every status assignment of _vary (multiset first),
    in the status loop of the search (see _first_assignment), over rows
    and the status views kept, those of the calling search, or fresh rows
    and no kept views.  Without a certificate, no violations are listed."""
    rows = _rows(system, pairs) if rows is None else rows
    order = _first_assignment(rows, _vary(system.signature), edges, kept)
    if order is None:
        return ConstraintCheck(None, ())
    return check_constraints(system, pairs, order, rows)


def search_certificate(
    system: RewriteSystem,
    pairs: tuple[DepPair, ...],
    hints: tuple[tuple[str, str], ...] = (),
    max_symbols: int = 8,
) -> ConstraintCheck:
    """Deterministic search for a precedence and statuses.

    The transitively closed hints are tried first as given, before the
    symbol limit applies.  Then come total orders that keep every closed
    hint between two constraint symbols: defined symbols above constructors
    first, each block in lexicographic permutation order, then every
    remaining permutation.  Statuses vary multiset-first over defined
    symbols with at least two arguments.  Derivability only grows with the
    precedence, so searching total orders is complete.  Each rule and pair
    has one row per search, built from one walk of its sides, whose outcome
    table every candidate shares and which is dropped on return (see _rows
    and _decide).  Every candidate is a transitively closed edge set, the
    hints' or a chain's, in the status loop of _first_assignment, which
    the hint check and the enumeration share with its status views, kept
    only if the enumeration may follow, within the symbol limit.  Per
    order, a constraint's edge view is one set intersection, taken the
    first time it is needed; per candidate, what remains is one look-up
    for each constraint up to the first that fails.
    Without a certificate, the violations are those of the hints under
    multiset statuses, and none when no hints were given.  Raises LimitError
    if the constraints mention more symbols than max_symbols.
    """
    rows = _rows(system, pairs)
    syms = _symbols(rows)
    defined = tuple(n for n in syms if n in system.signature.defined)
    ctors = tuple(n for n in syms if n not in system.signature.defined)
    vary = _vary(system.signature)
    failed = ConstraintCheck(None, ())
    closed = transitive_closure(hints)
    kept = [] if len(syms) <= max_symbols else None
    if hints:
        found = check_with_statuses(system, pairs, closed, rows, kept)
        if found.certificate is not None:
            return found
        failed = check_constraints(system, pairs, PathOrder(closed), rows)
    if not syms:
        return ConstraintCheck(Certificate((), (), (), ()), ())
    if len(syms) > max_symbols:
        raise LimitError(
            f"{len(syms)} constraint symbols exceed the search limit of {max_symbols}"
        )
    required = frozenset((a, b) for a, b in closed if a in syms and b in syms)
    top = set(defined)
    chains = itertools.chain(
        (
            d + c
            for d in itertools.permutations(defined)
            for c in itertools.permutations(ctors)
        ),
        (c for c in itertools.permutations(syms) if set(c[: len(defined)]) != top),
    )
    for chain in chains:
        edges = frozenset(itertools.combinations(chain, 2))
        if required <= edges:
            order = _first_assignment(rows, vary, edges, kept)
            if order is not None:
                return check_constraints(system, pairs, order, rows)
    return failed
