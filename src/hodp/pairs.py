"""Dependency pairs: call positions, extraction, side checks.

A call position of a right-hand side is the position of a maximal
application spine headed by a defined symbol, including partial
applications and bare defined symbols.  Each rule contributes one pair per
call position of its right-hand side; the extracted subterm keeps the
original symbols (no marked copies).  Two side conditions are recorded per
pair: no variable bound above the position may occur in the subterm, and
the subterm must have the type of the left-hand side.  One walk of the
right-hand side finds each call with its subterm and escaped variables.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from hodp.signature import RewriteSystem, Rule, Signature
from hodp.terms import Lam, Position, Sym, Term, Type, Var, free_vars, spine, type_of


def calls(
    u: Term, sig: Signature, pos: Position = (), binders: tuple[Var, ...] = ()
) -> Iterator[tuple[Position, Term, tuple[Var, ...]]]:
    """Each call of u in lexicographic position order: its position, its
    subterm, and the variables bound above it that occur free in it.

    binders lists the binders crossed on the way to u, outermost first.  An
    occurrence is bound by the innermost binder of its variable, so a
    binder shadowing a free variable of the same name still counts; the
    escaped variables come in the order of their innermost binders.
    """
    # a module function: a self-calling closure is a reference cycle
    if isinstance(u, Lam):
        yield from calls(u.body, sig, pos + (1,), binders + (u.var,))
        return
    head, args = spine(u)
    if isinstance(head, Sym) and head.name in sig.defined:
        free = free_vars(u)
        yield pos, u, tuple(
            v for k, v in enumerate(binders) if v in free and v not in binders[k + 1 :]
        )
        n = len(args)
        for i, a in enumerate(args, start=1):
            yield from calls(a, sig, pos + (1,) * (n - i) + (2,), binders)
    elif args:
        yield from calls(u.fun, sig, pos + (1,), binders)
        yield from calls(u.arg, sig, pos + (2,), binders)


class ExtractionCheck(NamedTuple):
    escaped: tuple[Var, ...]
    lhs_type: Type
    extracted_type: Type

    @property
    def variables_ok(self) -> bool:
        return not self.escaped

    @property
    def type_ok(self) -> bool:
        return self.lhs_type == self.extracted_type

    @property
    def ok(self) -> bool:
        return self.variables_ok and self.type_ok


class DepPair(NamedTuple):
    index: int
    rule: Rule
    position: Position
    lhs: Term
    rhs: Term
    check: ExtractionCheck

    @property
    def name(self) -> str:
        return f"d{self.index}"


def extract_pairs(system: RewriteSystem) -> tuple[DepPair, ...]:
    pairs = []
    for rule in system.rules:
        lhs_type = type_of(rule.lhs)
        for pos, sub, escaped in calls(rule.rhs, system.signature):
            pairs.append(
                DepPair(
                    index=len(pairs) + 1,
                    rule=rule,
                    position=pos,
                    lhs=rule.lhs,
                    rhs=sub,
                    check=ExtractionCheck(escaped, lhs_type, type_of(sub)),
                )
            )
    return tuple(pairs)
