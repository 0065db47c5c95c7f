"""Path ordering on typed terms: precedence, strict and weak comparison,
and certificate search.

The strict order is a conservative recursive path ordering over curried
terms.  Top-level constraint comparisons are between terms of equal type;
recursive comparisons require the types' arrow skeletons to agree (base
sorts are identified, arrow structure must match).  The weak order adds
bounded beta prefixes on the left.  A certificate records a precedence,
statuses for the defined symbols, and a replayable witness per constraint;
only precedence edges actually used by some witness are kept.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from hodp.errors import PrecedenceCycleError, SearchSpaceExceededError
from hodp.pairs import DepPair
from hodp.signature import RewriteSystem, Rule, Signature
from hodp.terms import (
    App,
    Arrow,
    Base,
    Lam,
    Position,
    Sym,
    Term,
    Type,
    Var,
    alpha_canonical,
    alpha_eq,
    apply_subst,
    beta_reducts,
    flatten_type,
    fresh_var,
    free_vars,
    spine,
    type_of,
)


@functools.lru_cache(maxsize=None)
def type_skeleton(t: Type):
    """Arrow structure of a type with all base sorts identified."""
    if isinstance(t, Base):
        return "o"
    return (type_skeleton(t.dom), type_skeleton(t.cod))


def transitive_closure(pairs) -> frozenset[tuple[str, str]]:
    edges = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(edges):
            for c, d in list(edges):
                if b == c and (a, d) not in edges:
                    edges.add((a, d))
                    changed = True
    for a, b in edges:
        if a == b:
            raise PrecedenceCycleError(f"precedence orders {a} above itself")
    return frozenset(edges)


@dataclass
class Precedence:
    edges: frozenset[tuple[str, str]]  # transitively closed, irreflexive
    statuses: dict[str, str] = field(default_factory=dict)  # 'lex' | 'mul'

    @classmethod
    def make(cls, pairs, statuses=None) -> "Precedence":
        return cls(transitive_closure(pairs), dict(statuses or {}))

    def greater(self, f: str, g: str) -> bool:
        return (f, g) in self.edges

    def status(self, f: str) -> str:
        return self.statuses.get(f, "mul")


@dataclass(frozen=True)
class GtTrace:
    """Evidence for one successful comparison.

    clause is one of: alpha, subterm, precedence, same-symbol, application,
    abstraction, beta, lex, mul, arg-covers, whole-covers.
    """

    clause: str
    detail: tuple = ()
    children: tuple["GtTrace", ...] = ()


class PathOrder:
    """Strict comparison under a fixed precedence, with memoization."""

    def __init__(self, prec: Precedence):
        self.prec = prec
        self._memo: dict[tuple[Term, Term], GtTrace | None] = {}

    def greater(self, s: Term, t: Term) -> GtTrace | None:
        key = (alpha_canonical(s), alpha_canonical(t))
        hit = self._memo.get(key, False)
        if hit is not False:
            return hit
        # guard in-progress pairs so accidental reentry fails fast
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
                    legs = []
                    for u in targs:
                        leg = self.cover(s, args, u)
                        if leg is None:
                            break
                        legs.append(leg)
                    else:
                        return GtTrace(
                            "precedence", (head.name, thead.name), tuple(legs)
                        )
                elif thead == head and len(args) == len(targs):
                    status = self.prec.status(head.name)
                    ext = (
                        self._lex(args, targs)
                        if status == "lex"
                        else self._mul(args, targs)
                    )
                    if ext is not None:
                        legs = []
                        for u in targs:
                            leg = self.cover(s, args, u)
                            if leg is None:
                                break
                            legs.append(leg)
                        else:
                            return GtTrace(
                                "same-symbol",
                                (head.name, status),
                                (ext,) + tuple(legs),
                            )
            elif isinstance(t, App):
                # right side is an application headed by a variable or lambda
                left = self.cover(s, args, t.fun)
                if left is not None:
                    right = self.cover(s, args, t.arg)
                    if right is not None:
                        return GtTrace("application", (), (left, right))
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


@dataclass(frozen=True)
class WeakWitness:
    kind: str  # 'alpha' | 'strict'
    beta_path: tuple[Position, ...] = ()
    strict: GtTrace | None = None


def weakly_decreases(
    s: Term, t: Term, order: PathOrder, beta_bound: int = 8
) -> WeakWitness | None:
    """Breadth-first search over beta reducts of s, testing each against t
    for alpha-equality or a strict decrease.  Shortest beta path wins."""
    seen = {alpha_canonical(s)}
    frontier: list[tuple[Term, tuple[Position, ...]]] = [(s, ())]
    for depth in range(beta_bound + 1):
        nxt: list[tuple[Term, tuple[Position, ...]]] = []
        for u, path in frontier:
            if alpha_eq(u, t):
                return WeakWitness("alpha", path)
            g = order.greater(u, t)
            if g is not None:
                return WeakWitness("strict", path, g)
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


# ------------------------------------------------------------ constraints


@dataclass(frozen=True)
class Violation:
    kind: str  # 'rule' | 'pair'
    label: str
    lhs: Term
    rhs: Term


@dataclass
class Certificate:
    edges: tuple[tuple[str, str], ...]  # only edges some witness used
    statuses: tuple[tuple[str, str], ...]
    rule_witnesses: tuple[tuple[str, WeakWitness], ...]
    pair_witnesses: tuple[tuple[str, GtTrace], ...]


@dataclass
class ConstraintCheck:
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


def constraint_symbols(system: RewriteSystem, pairs: tuple[DepPair, ...]) -> tuple[str, ...]:
    syms: set[str] = set()
    for rule in system.rules:
        syms |= term_symbols(rule.lhs) | term_symbols(rule.rhs)
    for dp in pairs:
        syms |= term_symbols(dp.lhs) | term_symbols(dp.rhs)
    return tuple(sorted(syms))


def check_constraints(
    system: RewriteSystem,
    pairs: tuple[DepPair, ...],
    prec: Precedence,
    beta_bound: int = 8,
) -> ConstraintCheck:
    """Every rule must weakly decrease and every pair strictly decrease
    under the given precedence.  On success the returned certificate keeps
    only the precedence edges some witness used."""
    order = PathOrder(prec)
    violations: list[Violation] = []
    rule_witnesses: list[tuple[str, WeakWitness]] = []
    pair_witnesses: list[tuple[str, GtTrace]] = []
    for rule in system.rules:
        w = weakly_decreases(rule.lhs, rule.rhs, order, beta_bound)
        if w is None:
            violations.append(Violation("rule", rule.name, rule.lhs, rule.rhs))
        else:
            rule_witnesses.append((rule.name, w))
    for dp in pairs:
        g = order.greater(dp.lhs, dp.rhs)
        if g is None:
            violations.append(Violation("pair", dp.name, dp.lhs, dp.rhs))
        else:
            pair_witnesses.append((dp.name, g))
    if violations:
        return ConstraintCheck(None, tuple(violations))
    used: set[tuple[str, str]] = set()
    for _, w in rule_witnesses:
        if w.strict is not None:
            _used_edges(w.strict, used)
    for _, g in pair_witnesses:
        _used_edges(g, used)
    defined = [
        n
        for n in constraint_symbols(system, pairs)
        if n in system.signature.defined
    ]
    statuses = tuple((n, prec.status(n)) for n in defined)
    cert = Certificate(
        tuple(sorted(used)), statuses, tuple(rule_witnesses), tuple(pair_witnesses)
    )
    return ConstraintCheck(cert, ())


def _symbol_arity(sig: Signature, name: str) -> int:
    args, _ = flatten_type(sig.symbols[name])
    return len(args)


def check_with_statuses(
    system: RewriteSystem,
    pairs: tuple[DepPair, ...],
    edges: frozenset[tuple[str, str]],
    vary: tuple[str, ...],
    beta_bound: int = 8,
) -> ConstraintCheck:
    """Fixed edge set, every status assignment of the symbols in vary
    (multiset first).  Without a certificate, the violations returned are
    those of the all-multiset assignment."""
    first = None
    for combo in itertools.product(("mul", "lex"), repeat=len(vary)):
        prec = Precedence(edges, dict(zip(vary, combo)))
        result = check_constraints(system, pairs, prec, beta_bound)
        if result.certificate is not None:
            return result
        if first is None:
            first = result
    return first


def search_certificate(
    system: RewriteSystem,
    pairs: tuple[DepPair, ...],
    hints: tuple[tuple[str, str], ...] = (),
    max_symbols: int = 8,
    beta_bound: int = 8,
) -> ConstraintCheck:
    """Deterministic search for a precedence and statuses.

    The transitively closed hints are tried first as given, before the
    symbol limit applies.  Then come total orders that respect the hints:
    defined symbols above constructors first, each block in lexicographic
    permutation order, then every remaining permutation.  Statuses vary
    multiset-first over defined symbols with at least two arguments.
    Derivability only grows with the precedence, so searching total orders
    is complete.  Without a certificate, the violations are those of the
    hints under multiset statuses, and none when no hints were given.
    Raises SearchSpaceExceededError if the constraints mention more
    symbols than max_symbols.
    """
    syms = constraint_symbols(system, pairs)
    defined = tuple(n for n in syms if n in system.signature.defined)
    ctors = tuple(n for n in syms if n not in system.signature.defined)
    vary = tuple(n for n in defined if _symbol_arity(system.signature, n) >= 2)
    failed = ConstraintCheck(None, ())
    if hints:
        failed = check_with_statuses(
            system, pairs, transitive_closure(hints), vary, beta_bound
        )
        if failed.certificate is not None:
            return failed
    if not syms:
        return ConstraintCheck(Certificate((), (), (), ()), ())
    if len(syms) > max_symbols:
        raise SearchSpaceExceededError(
            f"{len(syms)} constraint symbols exceed the search limit of {max_symbols}"
        )
    required = tuple((a, b) for a, b in hints if a in syms and b in syms)
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
        edges = frozenset(itertools.combinations(chain, 2))
        result = check_with_statuses(system, pairs, edges, vary, beta_bound)
        if result.certificate is not None:
            return result
    return failed
