"""Line-oriented input format for rewrite systems.

    # comments and blank lines are skipped
    sort N List
    map : (N -> N) -> List -> List
    cons : N -> List -> List
    rule map F (cons X L) -> cons (F X) (map F L)
    prec map > cons

Declarations: ``sort`` introduces base sorts, ``name : TYPE`` declares a
symbol, ``rule`` adds a rewrite rule, ``prec`` records required precedence
edges (a chain ``f > g > h`` adds f>g and g>h).  Identifiers start with a
letter, digit, or underscore and may contain primes; ``sort``, ``rule``
and ``prec`` are reserved.  In rule terms, application is juxtaposition
and associates left; lambdas are written ``\\x. t`` or ``\\x:TYPE. t``.
Identifiers that are not declared symbols are rule variables; their types
are inferred from their uses, and a rule that leaves a variable or binder
type undetermined is rejected.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from hodp.errors import AmbiguousVariableType, SystemSyntaxError, SystemTypeError
from hodp.ordering import transitive_closure
from hodp.signature import RewriteSystem, build_system
from hodp.terms import App, Arrow, Base, Lam, Sym, Term, Type, Var, show_type

_IDENT_START = set(string.ascii_letters + string.digits + "_")
_IDENT_CONT = _IDENT_START | {"'"}
_KEYWORDS = {"sort", "rule", "prec"}


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'ident' | 'arrow' | '(' | ')' | ':' | '\\' | '.' | '>'
    text: str
    column: int


def _tokenize(text: str, lineno: int) -> list[_Tok]:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":
            break
        if text.startswith("->", i):
            out.append(_Tok("arrow", "->", i + 1))
            i += 2
            continue
        if c in "():\\.>":
            out.append(_Tok(c, c, i + 1))
            i += 1
            continue
        if c in _IDENT_START:
            j = i + 1
            while j < len(text) and text[j] in _IDENT_CONT:
                j += 1
            out.append(_Tok("ident", text[i:j], i + 1))
            i = j
            continue
        raise SystemSyntaxError(f"unexpected character {c!r}", lineno, i + 1)
    return out


# ------------------------------------------------------------- raw syntax


@dataclass(frozen=True)
class _RIdent:
    name: str


@dataclass(frozen=True)
class _RApp:
    fun: "_Raw"
    arg: "_Raw"


@dataclass(frozen=True)
class _RLam:
    name: str
    annot: Type | None
    body: "_Raw"


_Raw = _RIdent | _RApp | _RLam


class _LineParser:
    def __init__(self, tokens: list[_Tok], lineno: int, sorts: set[str]):
        self.toks = tokens
        self.pos = 0
        self.lineno = lineno
        self.sorts = sorts

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise SystemSyntaxError("unexpected end of line", self.lineno)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Tok:
        tok = self.next()
        if tok.kind != kind:
            raise SystemSyntaxError(
                f"expected {kind!r}, found {tok.text!r}", self.lineno, tok.column
            )
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    def finish(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise SystemSyntaxError(
                f"unexpected {tok.text!r}", self.lineno, tok.column
            )

    # types

    def parse_type(self) -> Type:
        left = self.parse_atomic_type()
        tok = self.peek()
        if tok is not None and tok.kind == "arrow":
            self.next()
            return Arrow(left, self.parse_type())
        return left

    def parse_atomic_type(self) -> Type:
        tok = self.next()
        if tok.kind == "(":
            inner = self.parse_type()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            if tok.text not in self.sorts:
                raise SystemSyntaxError(
                    f"undeclared sort {tok.text}", self.lineno, tok.column
                )
            return Base(tok.text)
        raise SystemSyntaxError(
            f"expected a type, found {tok.text!r}", self.lineno, tok.column
        )

    # terms

    def parse_term(self) -> _Raw:
        atom = self.parse_atom()
        if atom is None:
            tok = self.peek()
            where = (tok.text, tok.column) if tok else ("end of line", None)
            raise SystemSyntaxError(f"expected a term, found {where[0]!r}", self.lineno, where[1])
        term = atom
        while True:
            nxt = self.parse_atom()
            if nxt is None:
                return term
            term = _RApp(term, nxt)

    def parse_atom(self) -> _Raw | None:
        tok = self.peek()
        if tok is None:
            return None
        if tok.kind == "ident":
            if tok.text in _KEYWORDS:
                raise SystemSyntaxError(
                    f"{tok.text} is a reserved word", self.lineno, tok.column
                )
            self.next()
            return _RIdent(tok.text)
        if tok.kind == "(":
            self.next()
            inner = self.parse_term()
            self.expect(")")
            return inner
        if tok.kind == "\\":
            self.next()
            name = self.expect("ident")
            annot = None
            if self.peek() is not None and self.peek().kind == ":":
                self.next()
                annot = self.parse_type()
            self.expect(".")
            body = self.parse_term()
            return _RLam(name.text, annot, body)
        return None


# ----------------------------------------------------------- type inference


class _Meta(Base):
    """An inference metavariable, a base type named ?n until it is bound."""

    __slots__ = ()


class _Inference:
    """Unification-based typing of one rule's variables and binders."""

    def __init__(self, lineno: int):
        self.lineno = lineno
        self.bindings: dict[_Meta, Type] = {}
        self.counter = 0
        self.rule_vars: dict[str, _Meta] = {}

    def fresh(self) -> _Meta:
        self.counter += 1
        return _Meta(f"?{self.counter}")

    def resolve(self, t: Type) -> Type:
        while isinstance(t, _Meta) and t in self.bindings:
            t = self.bindings[t]
        return t

    def _occurs(self, m: _Meta, t: Type) -> bool:
        t = self.resolve(t)
        if isinstance(t, Arrow):
            return self._occurs(m, t.dom) or self._occurs(m, t.cod)
        return t is m

    def unify(self, a: Type, b: Type) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if a is b:
            return
        if isinstance(a, _Meta):
            if self._occurs(a, b):
                raise SystemTypeError(
                    f"line {self.lineno}: rule cannot be typed (cyclic type)"
                )
            self.bindings[a] = b
            return
        if isinstance(b, _Meta):
            self.unify(b, a)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.dom, b.dom)
            self.unify(a.cod, b.cod)
            return
        raise SystemTypeError(
            f"line {self.lineno}: rule cannot be typed "
            f"({show_type(self.zonk(a))} versus {show_type(self.zonk(b))})"
        )

    def zonk(self, t: Type, what: str | None = None) -> Type:
        """The type with every bound metavariable replaced.  An unbound one
        stays in place, or raises when what names the typed variable."""
        t = self.resolve(t)
        if isinstance(t, _Meta) and what is not None:
            raise AmbiguousVariableType(
                f"line {self.lineno}: cannot infer the type of {what}"
            )
        if isinstance(t, Base):
            return t
        return Arrow(self.zonk(t.dom, what), self.zonk(t.cod, what))


def _elaborate(
    raw: _Raw,
    symbols: dict[str, Type],
    inf: _Inference,
    bound: tuple[tuple[str, Type], ...],
):
    """Returns a builder closure and the inferred type.  The builder is run
    after unification settles, turning metavariables into ground types."""
    if isinstance(raw, _RIdent):
        for name, t in reversed(bound):
            if name == raw.name:
                return (lambda: Var(name, inf.zonk(t, f"binder {name}"))), t
        if raw.name in symbols:
            typ = symbols[raw.name]
            return (lambda: Sym(raw.name, typ)), typ
        meta = inf.rule_vars.setdefault(raw.name, inf.fresh())
        return (lambda: Var(raw.name, inf.zonk(meta, f"variable {raw.name}"))), meta
    if isinstance(raw, _RApp):
        fb, ft = _elaborate(raw.fun, symbols, inf, bound)
        ab, at = _elaborate(raw.arg, symbols, inf, bound)
        out = inf.fresh()
        inf.unify(ft, Arrow(at, out))
        return (lambda: App(fb(), ab())), out
    annot: Type = raw.annot if raw.annot is not None else inf.fresh()
    bb, bt = _elaborate(raw.body, symbols, inf, bound + ((raw.name, annot),))
    return (
        lambda: Lam(Var(raw.name, inf.zonk(annot, f"binder {raw.name}")), bb())
    ), Arrow(annot, bt)


# ------------------------------------------------------------------ driver


def parse_system(text: str) -> RewriteSystem:
    sorts: list[str] = []
    symbols: dict[str, Type] = {}
    rules: list[tuple[Term, Term]] = []
    hints: list[tuple[str, str]] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        head = tokens[0]
        p = _LineParser(tokens, lineno, set(sorts))
        if head.kind == "ident" and head.text == "sort":
            p.next()
            names = []
            while not p.at_end():
                tok = p.expect("ident")
                if tok.text in _KEYWORDS:
                    raise SystemSyntaxError(
                        f"{tok.text} is a reserved word", lineno, tok.column
                    )
                names.append(tok.text)
            if not names:
                raise SystemSyntaxError("sort needs at least one name", lineno)
            for n in names:
                if n in sorts:
                    raise SystemSyntaxError(f"sort {n} already declared", lineno)
                sorts.append(n)
            continue
        if head.kind == "ident" and head.text == "prec":
            p.next()
            first = p.expect("ident").text
            chain = [first]
            while not p.at_end():
                p.expect(">")
                chain.append(p.expect("ident").text)
            if len(chain) < 2:
                raise SystemSyntaxError("prec needs at least two symbols", lineno)
            for name in chain:
                if name not in symbols:
                    raise SystemSyntaxError(
                        f"prec mentions undeclared symbol {name}", lineno
                    )
            hints.extend(zip(chain, chain[1:]))
            continue
        if head.kind == "ident" and head.text == "rule":
            p.next()
            raw_lhs = p.parse_term()
            p.expect("arrow")
            raw_rhs = p.parse_term()
            p.finish()
            inf = _Inference(lineno)
            lb, lt = _elaborate(raw_lhs, symbols, inf, ())
            rb, rt = _elaborate(raw_rhs, symbols, inf, ())
            inf.unify(lt, rt)  # rules must be type preserving
            rules.append((lb(), rb()))
            continue
        if head.kind == "ident":
            if head.text in _KEYWORDS:
                raise SystemSyntaxError(
                    f"{head.text} is a reserved word", lineno, head.column
                )
            p.next()
            p.expect(":")
            typ = p.parse_type()
            p.finish()
            if head.text in symbols:
                raise SystemSyntaxError(
                    f"symbol {head.text} already declared", lineno, head.column
                )
            symbols[head.text] = typ
            continue
        raise SystemSyntaxError(
            f"expected a declaration, found {head.text!r}", lineno, head.column
        )

    # cyclic hints are rejected up front; the closure is recomputed later
    transitive_closure(hints)
    return build_system(sorts, symbols, rules, hints)


def parse_precedence_arg(text: str, system: RewriteSystem) -> tuple[tuple[str, str], ...]:
    """Parse a command line precedence such as 'map>cons,map>nil'."""
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = [x.strip() for x in part.split(">")]
        if len(pieces) < 2 or any(not x for x in pieces):
            raise SystemSyntaxError(f"cannot parse precedence item {part!r}")
        for name in pieces:
            if name not in system.signature.symbols:
                raise SystemSyntaxError(f"precedence mentions undeclared symbol {name}")
        pairs.extend(zip(pieces, pieces[1:]))
    if not pairs:
        raise SystemSyntaxError("empty precedence")
    transitive_closure(pairs)
    return tuple(pairs)
