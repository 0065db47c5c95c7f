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
Under one precedence, every rule and pair shares one memo of comparisons,
keyed on the two terms as built (see PathOrder).
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


class Precedence:
    __slots__ = ("edges", "statuses", "memo")

    def __init__(self, edges: frozenset[tuple[str, str]], statuses: dict[str, str] | None = None):
        self.edges = edges  # transitively closed, irreflexive
        self.statuses = {} if statuses is None else statuses  # 'lex' | 'mul'
        self.memo: dict[tuple[Term, Term], GtTrace | None] = {}  # (s, t) -> outcome, see PathOrder

    def greater(self, f: str, g: str) -> bool:
        return (f, g) in self.edges

    def status(self, f: str) -> str:
        return self.statuses.get(f, "mul")


class GtTrace(NamedTuple):
    """Evidence for one successful comparison.

    clause is one of: alpha, subterm, precedence, same-symbol, application,
    abstraction, beta, lex, mul, mul-dominates, arg-covers, whole-covers.
    """

    clause: str
    detail: tuple = ()
    children: tuple["GtTrace", ...] = ()


class PathOrder:
    """Strict comparison under a fixed precedence, memoized in the
    precedence's memo on the two terms as built.  Terms are interned, so
    the key is exact, and a witness, binder names included, depends only
    on the two terms and the precedence: every rule and pair compared
    under one precedence shares the memo."""

    def __init__(self, prec: Precedence):
        self.prec = prec
        self._memo = prec.memo

    def greater(self, s: Term, t: Term) -> GtTrace | None:
        if isinstance(s, Var):
            return None  # no clause applies to a variable on the left
        key = (s, t)
        hit = self._memo.get(key, False)
        if hit is not False:
            return hit
        # a reentrant query would read this placeholder, a failed comparison;
        # none occurs, as each recursive call shrinks the pair: it takes a
        # subterm of either side or a beta reduct of the left, and simply
        # typed beta reduction terminates
        self._memo[key] = None
        result = self._greater(s, t)
        self._memo[key] = result
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
                if self.prec.greater(head.name, thead.name):
                    legs = self._covers(s, args, targs)
                    if legs is not None:
                        return GtTrace("precedence", (head.name, thead.name), legs)
                elif thead == head and len(args) == len(targs):
                    status = self.prec.status(head.name)
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


def _rows(system: RewriteSystem, pairs: tuple[DepPair, ...]) -> list[tuple]:
    """One row per rule, then per pair: the constraint as the Violation it
    would be, its left symbols, all its symbols, its cross edges from a
    left symbol to a right one, and its table of outcomes (see _decide).
    Each side is walked for its symbols once."""
    rows = []
    for kind, constraints in (("rule", system.rules), ("pair", pairs)):
        for c in constraints:
            left, right = term_symbols(c.lhs), term_symbols(c.rhs)
            cross = frozenset(itertools.product(left, right))
            rows.append((Violation(kind, c.name, c.lhs, c.rhs), tuple(left), left | right, cross, {}))
    return rows


def _symbols(rows) -> tuple[str, ...]:
    return tuple(sorted(frozenset().union(*(row[2] for row in rows))))


def _decide(row: tuple, prec: Precedence) -> GtTrace | None:
    """A rule's weak witness or a pair's strict one, None if there is none.

    Each comparison it makes has a left side built from lhs and a right
    side built from rhs, so it reads only edges from a symbol of lhs to
    one of rhs and statuses of symbols of lhs.  The row's table, which
    every candidate of one search shares, keeps the outcome under exactly
    those, whatever the rest: under the edge view (the cross edges in
    prec) and the status view (the statuses of the left symbols).  Every
    comparison goes through the memo of prec (see PathOrder)."""
    c, left, _, cross, outcomes = row
    key = (cross & prec.edges, tuple(map(prec.status, left)))
    w = outcomes.get(key, False)
    if w is False:
        order = PathOrder(prec)
        w = weakly_decreases(c.lhs, c.rhs, order) if c.kind == "rule" else order.greater(c.lhs, c.rhs)
        outcomes[key] = w
    return w


def check_constraints(
    system: RewriteSystem,
    pairs: tuple[DepPair, ...],
    prec: Precedence,
    rows: list | None = None,
) -> ConstraintCheck:
    """Every rule must weakly decrease and every pair strictly decrease
    under the given precedence.  On success the returned certificate keeps
    only the precedence edges some witness used.  Outcomes come from rows,
    those of the calling search, or fresh ones (see _rows and _decide)."""
    rows = _rows(system, pairs) if rows is None else rows
    violations: list[Violation] = []
    witnesses: dict[str, list] = {"rule": [], "pair": []}
    used: set[tuple[str, str]] = set()
    for row in rows:
        c, w = row[0], _decide(row, prec)
        if w is None:
            violations.append(c)
            continue
        witnesses[c.kind].append((c.label, w))
        _used_edges(w, used)
    if violations:
        return ConstraintCheck(None, tuple(violations))
    defined = [n for n in _symbols(rows) if n in system.signature.defined]
    statuses = tuple((n, prec.status(n)) for n in defined)
    cert = Certificate(
        tuple(sorted(used)), statuses, tuple(witnesses["rule"]), tuple(witnesses["pair"])
    )
    return ConstraintCheck(cert, ())


def _symbol_arity(sig: Signature, name: str) -> int:
    args, _ = flatten_type(sig.symbols[name])
    return len(args)


class _StatusRows(NamedTuple):
    """A search's rows as its status loop reads them (see _first_assignment)."""

    rows: list  # see _rows
    # per row: its position, the row, its cross edges and outcomes, and each
    # left symbol's index in vary, or len(vary)
    flat: list
    # per assignment of vary the loop has reached, in the order it tries
    # them: per row, its status view, None until the loop first reaches the
    # row under that assignment; or None, if no later order reads them
    by_assignment: list | None


def _status_rows(rows: list, vary: tuple[str, ...], keep: bool) -> _StatusRows:
    """The rows of a search for its status loop.  Status views are kept
    only if keep: in one order the loop reaches a row at most once per
    assignment, so only later orders read a view again, and the kept
    views of a row grow as 2^len(vary)."""
    flat = [
        (i, row, row[3], row[4], tuple(vary.index(n) if n in vary else len(vary) for n in row[1]))
        for i, row in enumerate(rows)
    ]
    return _StatusRows(rows, flat, [] if keep else None)


def _first_assignment(loop: _StatusRows, vary: tuple[str, ...], view, edges) -> Precedence | None:
    """The first status assignment of vary (multiset first) under which
    every constraint of loop (see _status_rows) holds, as a Precedence, in
    an order whose edge set is edges() and in which a constraint's edge
    view is view(cross).  Edge views are built once per order, when first
    needed, and status views, if loop keeps them, once per search, the
    first time the loop reaches a row under an assignment, as _decide
    builds them, so the look-ups use the keys _decide writes.  A
    Precedence is built only on a miss, which _decide fills, or for the
    result."""
    flat, tables = loop.flat, loop.by_assignment
    edge_views = [None] * len(flat)
    for a, combo in enumerate(itertools.product(("mul", "lex"), repeat=len(vary))):
        if tables is None:
            status_views = [None] * len(flat)
        else:
            if a == len(tables):
                tables.append([None] * len(flat))
            status_views = tables[a]
        statuses = combo + ("mul",)
        prec = None
        for i, row, cross, outcomes, index in flat:
            if edge_views[i] is None:
                edge_views[i] = view(cross)
            status_view = status_views[i]
            if status_view is None:
                status_view = status_views[i] = tuple([statuses[j] for j in index])
            w = outcomes.get((edge_views[i], status_view), False)
            if w is False:
                prec = prec or Precedence(edges(), dict(zip(vary, combo)))
                w = _decide(row, prec)
            if w is None:
                break
        else:
            return prec or Precedence(edges(), dict(zip(vary, combo)))
    return None


def check_with_statuses(
    system: RewriteSystem,
    pairs: tuple[DepPair, ...],
    edges: frozenset[tuple[str, str]],
    vary: tuple[str, ...],
    loop: _StatusRows | None = None,
) -> ConstraintCheck:
    """Fixed edge set, every status assignment of the symbols in vary
    (multiset first), in the status loop of the search (see
    _first_assignment), over loop, that of the calling search, or a fresh
    one that keeps no status views (see _status_rows).  Without a
    certificate, no violations are listed."""
    loop = _status_rows(_rows(system, pairs), vary, False) if loop is None else loop
    prec = _first_assignment(loop, vary, lambda cross: cross & edges, lambda: edges)
    if prec is None:
        return ConstraintCheck(None, ())
    return check_constraints(system, pairs, prec, loop.rows)


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
    and _decide); the flat rows of the status loop are built from them once,
    before the hint check and the enumeration, which share them with their
    status views, kept only if the enumeration may follow, within the
    symbol limit (see _status_rows).  Per order, a constraint's edge view is
    built once, the first time it is needed, from the chain's positions;
    per candidate, what remains is one look-up for each constraint up to
    the first that fails (see _first_assignment).
    Without a certificate, the violations are those of the hints under
    multiset statuses, and none when no hints were given.  Raises LimitError
    if the constraints mention more symbols than max_symbols.
    """
    rows = _rows(system, pairs)
    syms = _symbols(rows)
    defined = tuple(n for n in syms if n in system.signature.defined)
    ctors = tuple(n for n in syms if n not in system.signature.defined)
    vary = tuple(n for n in defined if _symbol_arity(system.signature, n) >= 2)
    failed = ConstraintCheck(None, ())
    closed = transitive_closure(hints)
    loop = _status_rows(rows, vary, len(syms) <= max_symbols)
    if hints:
        found = check_with_statuses(system, pairs, closed, vary, loop)
        if found.certificate is not None:
            return found
        failed = check_constraints(system, pairs, Precedence(closed), rows)
    if not syms:
        return ConstraintCheck(Certificate((), (), (), ()), ())
    if len(syms) > max_symbols:
        raise LimitError(
            f"{len(syms)} constraint symbols exceed the search limit of {max_symbols}"
        )
    required = tuple((a, b) for a, b in closed if a in syms and b in syms)
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
        index = {n: i for i, n in enumerate(chain)}
        if any(index[a] >= index[b] for a, b in required):
            continue
        prec = _first_assignment(
            loop, vary,
            lambda cross: frozenset([(a, b) for a, b in cross if index[a] < index[b]]),
            lambda: frozenset(itertools.combinations(chain, 2)),
        )
        if prec is not None:
            return check_constraints(system, pairs, prec, rows)
    return failed
