"""Dependency pairs: call positions, call levels, extraction, side checks.

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
    App,
    Lam,
    Position,
    Sym,
    Term,
    Type,
    Var,
    alpha_canonical,
    binders_above,
    free_vars,
    spine,
    subterm_at,
    type_of,
)


def call_positions(t: Term, sig: Signature) -> tuple[Position, ...]:
    """Positions of defined-symbol spines in t, sorted lexicographically."""

    def go(u: Term) -> list[Position]:
        if isinstance(u, Var):
            return []
        if isinstance(u, Sym):
            return [()] if u.name in sig.defined else []
        if isinstance(u, Lam):
            return [(1,) + p for p in go(u.body)]
        head, args = spine(u)
        if isinstance(head, Sym) and head.name in sig.defined:
            n = len(args)
            out = [()]
            for i, a in enumerate(args, start=1):
                prefix = (1,) * (n - i) + (2,)
                out.extend(prefix + p for p in go(a))
            return out
        return [(1,) + p for p in go(u.fun)] + [(2,) + p for p in go(u.arg)]

    return tuple(sorted(go(t)))


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

    Works on the canonical renaming so that a bound variable shadowing a
    free one of the same name is still detected; reported under its
    original name, innermost binders last.
    """
    sub = subterm_at(alpha_canonical(rhs), pos)
    leaked = free_vars(sub) - free_vars(rhs)
    stack = binders_above(rhs, pos)
    depths = sorted(int(v.name[1:]) for v in leaked)
    return tuple(stack[d] for d in depths)


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
