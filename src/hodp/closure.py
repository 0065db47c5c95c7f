"""Computability closure of a pattern's argument list.

The closure is the least set of terms containing the arguments and closed
under four destructors: taking an accessible argument of an applied symbol,
stripping a lambda whose binder avoids the original arguments, and dropping
a fresh applied variable on either side of an application.  A rule is
admissible when every free variable of its right-hand side belongs to the
closure of its left-hand side arguments.

Every derived member is strictly smaller than its premise, so the closure
is finite and the worklist below terminates.  Membership of a *variable*
under the lambda destructor depends on which representative binder is
chosen; the closure is therefore parameterized by target variables, and a
lambda member contributes one renamed body per eligible target besides its
canonical body.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from hodp.signature import Rule, Signature
from hodp.terms import (
    App,
    Arrow,
    Lam,
    Sym,
    Term,
    Type,
    Var,
    alpha_canonical,
    alpha_eq,
    apply_subst,
    fresh_var,
    free_vars,
    spine,
    type_of,
)


class Derivation(NamedTuple):
    """One membership proof: the term, the destructor used, its premises,
    and the destructor's parameter (argument index or stripped variable)."""

    term: Term
    step: str  # 'arg' | 'acc' | 'lam' | 'app-left' | 'app-right'
    premises: tuple["Derivation", ...]
    index: int | None = None
    variable: Var | None = None


def _projects_to(var_type: Type, arg_type: Type) -> bool:
    # The applied variable must take the argument's type and eventually
    # return it: U -> ... -> U.
    if not isinstance(var_type, Arrow) or var_type.dom != arg_type:
        return False
    cod = var_type.cod
    while True:
        if cod == arg_type:
            return True
        if not isinstance(cod, Arrow):
            return False
        cod = cod.cod


def _binder_choices(t: Lam, arg_vars: frozenset[Var], targets: tuple[Var, ...]) -> list[Var]:
    body_free = free_vars(t.body) - {t.var}
    choices = []
    if t.var not in arg_vars:
        choices.append(t.var)
    else:
        avoid = {v.name for v in arg_vars | body_free}
        choices.append(fresh_var(t.var.name, t.var.type, avoid))
    for v in targets:
        if (
            v.type == t.var.type
            and v not in arg_vars
            and v not in body_free
            and v not in choices
        ):
            choices.append(v)
    return choices


def computability_closure(
    args: tuple[Term, ...], sig: Signature, targets: tuple[Var, ...] = ()
) -> dict[Term, Derivation]:
    """Closure of the argument list: each member's derivation, keyed by its
    alpha-canonical form, in insertion order.  targets bias binder renaming
    so that membership queries for those variables are alpha-complete."""
    derivations: dict[Term, Derivation] = {}
    queue: deque[Derivation] = deque()
    arg_vars = frozenset().union(*(free_vars(a) for a in args)) if args else frozenset()

    def add(term: Term, deriv: Derivation) -> None:
        key = alpha_canonical(term)
        if key in derivations:
            return
        derivations[key] = deriv
        queue.append(deriv)

    for i, a in enumerate(args, start=1):
        add(a, Derivation(a, "arg", (), index=i))

    while queue:
        d = queue.popleft()
        t = d.term
        head, sp = spine(t)
        if isinstance(head, Sym) and sp and head.name in sig.symbols:
            for i in sorted(sig.accessible[head.name]):
                if i <= len(sp):
                    add(sp[i - 1], Derivation(sp[i - 1], "acc", (d,), index=i))
        if isinstance(t, Lam):
            for y in _binder_choices(t, arg_vars, targets):
                body = t.body if y == t.var else apply_subst(t.body, {t.var: y})
                add(body, Derivation(body, "lam", (d,), variable=y))
        if isinstance(t, App):
            y = t.arg
            if isinstance(y, Var) and y not in arg_vars and y not in free_vars(t.fun):
                add(t.fun, Derivation(t.fun, "app-left", (d,), variable=y))
            y = t.fun
            if (
                isinstance(y, Var)
                and y not in arg_vars
                and y not in free_vars(t.arg)
                and _projects_to(y.type, type_of(t.arg))
            ):
                add(t.arg, Derivation(t.arg, "app-right", (d,), variable=y))

    return derivations


def replay_derivation(deriv: Derivation, args: tuple[Term, ...], sig: Signature) -> bool:
    """Check a derivation against the destructor definitions from scratch."""
    arg_vars = frozenset().union(*(free_vars(a) for a in args)) if args else frozenset()
    return _replay(deriv, args, arg_vars, sig)


def _replay(d: Derivation, args: tuple[Term, ...], arg_vars: frozenset[Var], sig: Signature) -> bool:
    # a module function: a self-calling closure is a reference cycle
    if d.step == "arg":
        return (
            d.index is not None
            and 1 <= d.index <= len(args)
            and not d.premises
            and alpha_eq(d.term, args[d.index - 1])
        )
    if len(d.premises) != 1 or not _replay(d.premises[0], args, arg_vars, sig):
        return False
    prem = d.premises[0].term
    if d.step == "acc":
        head, sp = spine(prem)
        if not isinstance(head, Sym) or head.name not in sig.symbols:
            return False
        if d.index is None or d.index not in sig.accessible[head.name]:
            return False
        return d.index <= len(sp) and alpha_eq(d.term, sp[d.index - 1])
    if d.step == "lam":
        y = d.variable
        if y is None or y in arg_vars or not isinstance(prem, Lam):
            return False
        return alpha_eq(Lam(y, d.term), prem)
    if d.step == "app-left":
        y = d.variable
        return (
            y is not None
            and isinstance(prem, App)
            and prem.arg == y
            and alpha_eq(prem.fun, d.term)
            and y not in arg_vars
            and y not in free_vars(d.term)
        )
    if d.step == "app-right":
        y = d.variable
        return (
            y is not None
            and isinstance(prem, App)
            and prem.fun == y
            and alpha_eq(prem.arg, d.term)
            and y not in arg_vars
            and y not in free_vars(d.term)
            and _projects_to(y.type, type_of(d.term))
        )
    return False


# ------------------------------------------------------------- admissibility


class RuleAdmissibility(NamedTuple):
    rule: Rule
    entries: tuple[tuple[Var, Derivation | None], ...]  # each variable's derivation
    closure_size: int

    @property
    def admissible(self) -> bool:
        return all(d is not None for _, d in self.entries)


def rule_admissibility(rule: Rule, sig: Signature) -> RuleAdmissibility:
    """Check that every right-hand side variable is in the closure of the
    left-hand side arguments."""
    _, args = spine(rule.lhs)
    targets = tuple(sorted(free_vars(rule.rhs), key=lambda v: v.name))
    clo = computability_closure(args, sig, targets)
    entries = tuple((v, clo.get(alpha_canonical(v))) for v in targets)
    return RuleAdmissibility(rule, entries, len(clo))
