"""Signatures, rules, and sort analysis.

A signature declares base sorts and typed symbols.  Symbols are split into
defined symbols (those heading some rule left-hand side) and constructors
(the rest); the split is computed, never declared.  Sort analysis reads
each type in one walk over its base-sort leaves and their polarities; it
gives the accessible argument indices of every symbol, which feed the
admissibility check, and the basicness of sorts, which only the report
reads.  build_system trusts the parser to have checked its input.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import NamedTuple

from hodp.terms import Base, Term, Type, flatten_type, spine


class Rule(NamedTuple):
    index: int
    lhs: Term
    rhs: Term
    name: str  # r followed by the index


class Signature:
    """Declared sorts and symbols.  The constructors and each symbol's
    accessible arguments are computed once, when the signature is made."""

    __slots__ = ("sorts", "symbols", "defined", "constructors", "accessible")

    def __init__(self, sorts: tuple[str, ...], symbols: dict[str, Type], defined: frozenset[str]):
        self.sorts, self.symbols, self.defined = sorts, symbols, defined
        self.constructors = frozenset(symbols) - defined
        self.accessible = {n: _accessible(t) for n, t in symbols.items()}

    def __eq__(self, other: object) -> bool:
        if type(other) is not Signature:
            return NotImplemented
        return (self.sorts, self.symbols, self.defined) == (other.sorts, other.symbols, other.defined)


class RewriteSystem(NamedTuple):
    """A signature and its rules.  by_head maps a symbol and an argument
    count to the rules, in order, whose left-hand side has that head and
    that many arguments: the only rules that can match a term of that
    shape."""

    signature: Signature
    rules: tuple[Rule, ...]
    by_head: dict[tuple[Term, int], tuple[Rule, ...]]
    precedence_hints: tuple[tuple[str, str], ...] = ()


def build_system(
    sorts: Iterable[str],
    symbols: Mapping[str, Type],
    rules: Iterable[tuple[Term, Term]],
    precedence_hints: Iterable[tuple[str, str]] = (),
) -> RewriteSystem:
    """The system of declarations the parser has checked: sorts, rule types,
    left-hand side heads and hints.  It checks nothing itself."""
    built = tuple(Rule(k, lhs, rhs, f"r{k}") for k, (lhs, rhs) in enumerate(rules, start=1))
    by_head: dict[tuple[Term, int], tuple[Rule, ...]] = {}
    for r in built:
        head, args = spine(r.lhs)
        by_head[head, len(args)] = by_head.get((head, len(args)), ()) + (r,)
    defined = frozenset(head.name for head, _ in by_head)
    sig = Signature(tuple(sorts), dict(symbols), defined)
    return RewriteSystem(sig, built, by_head, tuple(precedence_hints))


# ------------------------------------------------------------ sort analysis


def _leaves(t: Type, positive: bool = True) -> Iterator[tuple[str, bool]]:
    """The base-sort leaves of a type from left to right, each with its
    polarity.  Crossing to the left of an arrow flips polarity; the right
    keeps it."""
    if isinstance(t, Base):
        yield t.name, positive
    else:
        yield from _leaves(t.dom, not positive)
        yield from _leaves(t.cod, positive)


def _accessible(typ: Type) -> frozenset[int]:
    """1-based argument indices in which the output sort of a symbol of
    this type occurs only positively."""
    args, out = flatten_type(typ)
    return frozenset(
        i
        for i, t in enumerate(args, start=1)
        if all(positive for name, positive in _leaves(t) if name == out.name)
    )


def basic_sorts(sig: Signature) -> frozenset[str]:
    """Sorts whose constructors only take arguments of basic base sorts.

    Computed as the greatest fixpoint: start from all sorts and drop any
    sort with a constructor argument that is an arrow or a non-basic sort.
    """
    basic = set(sig.sorts)
    changed = True
    while changed:
        changed = False
        for name in sig.constructors:
            args, out = flatten_type(sig.symbols[name])
            if out.name not in basic:
                continue
            ok = all(isinstance(a, Base) and a.name in basic for a in args)
            if not ok:
                basic.discard(out.name)
                changed = True
    return frozenset(basic)
