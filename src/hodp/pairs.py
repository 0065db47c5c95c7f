"""Dependency pairs: call positions, extraction, side checks.

A call position of a right-hand side is the position of a maximal
application spine headed by a defined symbol, including partial
applications and bare defined symbols.  Each rule contributes one pair per
call position of its right-hand side; the extracted subterm keeps the
original symbols (no marked copies).  Two side conditions are recorded per
pair: no variable bound above the position may occur in the subterm, and
the subterm must have the type of the left-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

from hodp.signature import RewriteSystem, Rule, Signature
from hodp.terms import (
    Lam,
    Position,
    Sym,
    Term,
    Type,
    Var,
    binders_above,
    free_vars,
    spine,
    subterm_at,
    type_of,
)


def call_positions(t: Term, sig: Signature) -> tuple[Position, ...]:
    """Positions of defined-symbol spines in t, sorted lexicographically."""
    return tuple(sorted(_calls(t, sig)))


def _calls(u: Term, sig: Signature) -> list[Position]:
    # a module function: a self-calling closure is a reference cycle
    if isinstance(u, Var):
        return []
    if isinstance(u, Sym):
        return [()] if u.name in sig.defined else []
    if isinstance(u, Lam):
        return [(1,) + p for p in _calls(u.body, sig)]
    head, args = spine(u)
    if isinstance(head, Sym) and head.name in sig.defined:
        n = len(args)
        out = [()]
        for i, a in enumerate(args, start=1):
            prefix = (1,) * (n - i) + (2,)
            out.extend(prefix + p for p in _calls(a, sig))
        return out
    return [(1,) + p for p in _calls(u.fun, sig)] + [(2,) + p for p in _calls(u.arg, sig)]


@dataclass(frozen=True)
class ExtractionCheck:
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


@dataclass(frozen=True)
class DepPair:
    index: int
    rule: Rule
    position: Position
    lhs: Term
    rhs: Term
    check: ExtractionCheck

    @property
    def name(self) -> str:
        return f"d{self.index}"


def escaped_variables(rhs: Term, pos: Position) -> tuple[Var, ...]:
    """Variables bound above pos that occur free in the subterm at pos.

    An occurrence is bound by the innermost binder of its variable, so a
    binder shadowing a free variable of the same name still counts;
    innermost binders last.
    """
    innermost = {v: d for d, v in sorted(binders_above(rhs, pos).items())}
    sub = subterm_at(rhs, pos)
    return tuple(sorted((v for v in free_vars(sub) if v in innermost), key=innermost.get))


def check_extraction(rule: Rule, pos: Position) -> ExtractionCheck:
    sub = subterm_at(rule.rhs, pos)
    return ExtractionCheck(
        escaped=escaped_variables(rule.rhs, pos),
        lhs_type=type_of(rule.lhs),
        extracted_type=type_of(sub),
    )


def extract_pairs(system: RewriteSystem) -> tuple[DepPair, ...]:
    pairs = []
    for rule in system.rules:
        for pos in call_positions(rule.rhs, system.signature):
            pairs.append(
                DepPair(
                    index=len(pairs) + 1,
                    rule=rule,
                    position=pos,
                    lhs=rule.lhs,
                    rhs=subterm_at(rule.rhs, pos),
                    check=check_extraction(rule, pos),
                )
            )
    return tuple(pairs)
