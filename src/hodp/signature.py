"""Signatures, rules, and sort analysis.

A signature declares base sorts and typed symbols.  Symbols are split into
defined symbols (those heading some rule left-hand side) and constructors
(the rest); the split is computed, never declared.  Sort analysis covers
polarity of sort occurrences inside types, accessible argument indices, and
basicness of sorts, all of which feed the admissibility check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from hodp.errors import MalformedLhsError, SystemSyntaxError, SystemTypeError
from hodp.terms import (
    Base,
    Position,
    Sym,
    Term,
    Type,
    flatten_type,
    show_term,
    show_type,
    spine,
    type_of,
)


@dataclass(frozen=True)
class Rule:
    index: int
    lhs: Term
    rhs: Term

    @property
    def name(self) -> str:
        return f"r{self.index}"


@dataclass
class Signature:
    """Declared sorts and symbols.  The constructors and each symbol's
    accessible arguments are computed once, when the signature is made."""

    sorts: tuple[str, ...]
    symbols: dict[str, Type]
    defined: frozenset[str]
    constructors: frozenset[str] = field(init=False)
    accessible: dict[str, frozenset[int]] = field(init=False)

    def __post_init__(self) -> None:
        self.constructors = frozenset(self.symbols) - self.defined
        self.accessible = {n: _accessible(t) for n, t in self.symbols.items()}


@dataclass
class RewriteSystem:
    signature: Signature
    rules: tuple[Rule, ...]
    precedence_hints: tuple[tuple[str, str], ...] = ()


def lhs_head(lhs: Term) -> Sym:
    head, _ = spine(lhs)
    if not isinstance(head, Sym):
        raise MalformedLhsError(
            f"left-hand side {show_term(lhs)} is not headed by a declared symbol"
        )
    return head


def build_system(
    sorts: Iterable[str],
    symbols: Mapping[str, Type],
    rules: Iterable[tuple[Term, Term]],
    precedence_hints: Iterable[tuple[str, str]] = (),
) -> RewriteSystem:
    """Validated constructor: checks sorts, typing, and head symbols."""
    sorts = tuple(sorts)
    sort_set = set(sorts)
    symbols = dict(symbols)
    for name, typ in symbols.items():
        for leaf in _base_leaves(typ):
            if leaf.name not in sort_set:
                raise SystemSyntaxError(
                    f"symbol {name} uses undeclared sort {leaf.name}"
                )
    built = []
    defined = set()
    for k, (lhs, rhs) in enumerate(rules, start=1):
        lt, rt = type_of(lhs), type_of(rhs)
        if lt != rt:
            raise SystemTypeError(
                f"rule r{k} is not type preserving: "
                f"{show_type(lt)} versus {show_type(rt)}"
            )
        head = lhs_head(lhs)
        if head.name not in symbols:
            raise MalformedLhsError(f"rule r{k} is headed by undeclared {head.name}")
        defined.add(head.name)
        built.append(Rule(k, lhs, rhs))
    hints = tuple(precedence_hints)
    for a, b in hints:
        for n in (a, b):
            if n not in symbols:
                raise SystemSyntaxError(f"precedence mentions undeclared symbol {n}")
    sig = Signature(sorts, symbols, frozenset(defined))
    return RewriteSystem(sig, tuple(built), hints)


def _base_leaves(t: Type) -> list[Base]:
    if isinstance(t, Base):
        return [t]
    return _base_leaves(t.dom) + _base_leaves(t.cod)


# ------------------------------------------------------------ sort analysis


def polarity_positions(t: Type, positive: bool = True) -> frozenset[Position]:
    """Positions of base-sort leaves occurring at the given polarity.

    Crossing to the left of an arrow flips polarity; the right keeps it.
    Together the positive and negative sets partition all leaf positions.
    """
    if isinstance(t, Base):
        return frozenset({()}) if positive else frozenset()
    dom = polarity_positions(t.dom, not positive)
    cod = polarity_positions(t.cod, positive)
    return frozenset({(1,) + p for p in dom} | {(2,) + p for p in cod})


def sort_positions(t: Type, sort: str) -> frozenset[Position]:
    """Leaf positions where the named sort occurs in the type."""
    if isinstance(t, Base):
        return frozenset({()}) if t.name == sort else frozenset()
    dom = sort_positions(t.dom, sort)
    cod = sort_positions(t.cod, sort)
    return frozenset({(1,) + p for p in dom} | {(2,) + p for p in cod})


def _accessible(typ: Type) -> frozenset[int]:
    """1-based argument indices in which the output sort of a symbol of
    this type occurs only positively."""
    args, out = flatten_type(typ)
    return frozenset(
        i
        for i, t in enumerate(args, start=1)
        if sort_positions(t, out.name) <= polarity_positions(t, True)
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
