"""Line-oriented input format for rewrite systems.

    # comments and blank lines are skipped
    sort N List
    map : (N -> N) -> List -> List
    cons : N -> List -> List
    rule map F (cons X L) -> cons (F X) (map F L)
    prec map > cons

Declarations: ``sort`` introduces base sorts, ``name : TYPE`` declares a
symbol, ``rule`` adds a rewrite rule, ``prec`` records required precedence
edges (a chain ``f > g > h`` adds f>g and g>h).  Identifiers are ASCII:
they start with a letter, digit, or underscore and may contain primes;
``sort``, ``rule`` and ``prec`` are reserved.  In rule terms, application
is juxtaposition and associates left; lambdas are written ``\\x. t`` or
``\\x:TYPE. t``.

A rule line is read in one pass.  An identifier bound by an enclosing
lambda is that binder, a declared symbol is that symbol, and any other
identifier, whatever its case, is a rule variable.  Reading gives each
subterm a builder and a type, in which metavariables ``?n``, numbered in
reading order, stand for what is not yet known; each application adds an
equation.  Once the line has parsed, the equations are solved in order,
then the two sides' types are equated, so a line's syntax errors come
before its type errors.  The builders then make the terms, rejecting a
rule variable or binder whose type is still undetermined.  Last, the
left-hand side must be headed by a declared symbol.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import NamedTuple

from hodp.errors import InputError
from hodp.ordering import transitive_closure
from hodp.signature import RewriteSystem, build_system
from hodp.terms import App, Arrow, Base, Lam, Sym, Term, Type, Var, show_term, show_type, spine

_KEYWORDS = {"sort", "rule", "prec"}

# A line ends at \n, \r\n or \r only, not at every break str.splitlines knows.
_LINE_END = re.compile(r"\r\n|\r|\n")

# An unnamed match is punctuation, whose kind is its text.  Whitespace is
# what no alternative matches: exactly the characters str.isspace accepts.
_TOKEN = re.compile(
    r"(?P<arrow>->)|(?P<ident>[A-Za-z0-9_][A-Za-z0-9_']*)|[():\\.>]|(?P<comment>#)|(?P<bad>\S)"
)


class _Tok(NamedTuple):
    kind: str  # 'ident' | 'arrow' | '(' | ')' | ':' | '\\' | '.' | '>'
    text: str
    column: int


def _tokenize(text: str, lineno: int) -> list[_Tok]:
    out = []
    for m in _TOKEN.finditer(text):
        kind, tok, column = m.lastgroup, m.group(), m.start() + 1
        if kind == "comment":
            break
        if kind == "bad":
            raise InputError(f"unexpected character {tok!r}", lineno, column)
        out.append(_Tok(kind or tok, tok, column))
    return out


# Builders turn a parsed term into a Term once unification settles, which
# replaces its metavariables by ground types.
_Builder = Callable[[], Term]


class _LineParser:
    """Reads one line.  A rule term comes back as its builder and its type;
    each application leaves an equation, solved only after the line parsed."""

    def __init__(self, tokens: list[_Tok], lineno: int, sorts: list[str], symbols: dict[str, Type]):
        self.toks = tokens
        self.pos = 0
        self.lineno = lineno
        self.sorts = sorts
        self.symbols = symbols
        self.inf = _Inference(lineno)
        self.equations: list[tuple[Type, Type]] = []

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of line", self.lineno)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Tok:
        tok = self.next()
        if tok.kind != kind:
            raise InputError(f"expected {kind!r}, found {tok.text!r}", self.lineno, tok.column)
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    def finish(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise InputError(f"unexpected {tok.text!r}", self.lineno, tok.column)

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
                raise InputError(f"undeclared sort {tok.text}", self.lineno, tok.column)
            return Base(tok.text)
        raise InputError(f"expected a type, found {tok.text!r}", self.lineno, tok.column)

    # terms; bound maps each enclosing binder's name to its type

    def parse_term(self, bound: dict[str, Type]) -> tuple[_Builder, Type]:
        term = self.parse_atom(bound)
        if term is None:
            tok = self.peek()
            where = (tok.text, tok.column) if tok else ("end of line", None)
            raise InputError(f"expected a term, found {where[0]!r}", self.lineno, where[1])
        while (arg := self.parse_atom(bound)) is not None:
            (fb, ft), (ab, at) = term, arg
            out = self.inf.fresh()
            self.equations.append((ft, Arrow(at, out)))
            term = (lambda fb=fb, ab=ab: App(fb(), ab())), out
        return term

    def parse_atom(self, bound: dict[str, Type]) -> tuple[_Builder, Type] | None:
        tok = self.peek()
        if tok is None:
            return None
        inf = self.inf
        if tok.kind == "ident":
            name = tok.text
            if name in _KEYWORDS:
                raise InputError(f"{name} is a reserved word", self.lineno, tok.column)
            self.next()
            if name in bound:
                t = bound[name]
                return (lambda: Var(name, inf.zonk(t, f"binder {name}"))), t
            if name in self.symbols:
                typ = self.symbols[name]
                return (lambda: Sym(name, typ)), typ
            # fresh() runs at every occurrence: the ?n in messages count them
            meta = inf.rule_vars.setdefault(name, inf.fresh())
            return (lambda: Var(name, inf.zonk(meta, f"variable {name}"))), meta
        if tok.kind == "(":
            self.next()
            inner = self.parse_term(bound)
            self.expect(")")
            return inner
        if tok.kind == "\\":
            self.next()
            name = self.expect("ident").text
            if self.peek() is not None and self.peek().kind == ":":
                self.next()
                annot = self.parse_type()
            else:
                annot = inf.fresh()
            self.expect(".")
            bb, bt = self.parse_term({**bound, name: annot})
            return (
                lambda: Lam(Var(name, inf.zonk(annot, f"binder {name}")), bb())
            ), Arrow(annot, bt)
        return None


# ----------------------------------------------------------- type inference


class _Meta(Base):
    """An inference metavariable, a base type named ?n until it is bound.
    It lives for one rule line, so unlike every other type it is a plain
    object, not interned: each one is its own, whatever its name."""

    __slots__ = ()

    def __new__(cls, name: str):
        meta = object.__new__(cls)
        object.__setattr__(meta, "name", name)
        return meta


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
                raise InputError("rule cannot be typed (cyclic type)", self.lineno)
            self.bindings[a] = b
            return
        if isinstance(b, _Meta):
            self.unify(b, a)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.dom, b.dom)
            self.unify(a.cod, b.cod)
            return
        raise InputError(
            f"rule cannot be typed ({show_type(self.zonk(a))} versus {show_type(self.zonk(b))})",
            self.lineno,
        )

    def zonk(self, t: Type, what: str | None = None) -> Type:
        """The type with every bound metavariable replaced.  An unbound one
        stays in place, or raises when what names the typed variable."""
        t = self.resolve(t)
        if isinstance(t, _Meta) and what is not None:
            raise InputError(f"cannot infer the type of {what}", self.lineno)
        if isinstance(t, Base):
            return t
        return Arrow(self.zonk(t.dom, what), self.zonk(t.cod, what))


# ------------------------------------------------------------------ driver


def parse_system(text: str) -> RewriteSystem:
    sorts: list[str] = []
    symbols: dict[str, Type] = {}
    rules: list[tuple[Term, Term]] = []
    hints: list[tuple[str, str]] = []

    for lineno, line in enumerate(_LINE_END.split(text), start=1):
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        head = tokens[0]
        if head.kind != "ident":
            raise InputError(f"expected a declaration, found {head.text!r}", lineno, head.column)
        p = _LineParser(tokens, lineno, sorts, symbols)
        p.next()
        if head.text == "sort":
            names = []
            while not p.at_end():
                tok = p.expect("ident")
                if tok.text in _KEYWORDS:
                    raise InputError(f"{tok.text} is a reserved word", lineno, tok.column)
                names.append(tok.text)
            if not names:
                raise InputError("sort needs at least one name", lineno)
            for n in names:
                if n in sorts:
                    raise InputError(f"sort {n} already declared", lineno)
                sorts.append(n)
        elif head.text == "prec":
            first = p.expect("ident").text
            chain = [first]
            while not p.at_end():
                p.expect(">")
                chain.append(p.expect("ident").text)
            if len(chain) < 2:
                raise InputError("prec needs at least two symbols", lineno)
            for name in chain:
                if name not in symbols:
                    raise InputError(f"prec mentions undeclared symbol {name}", lineno)
            hints.extend(zip(chain, chain[1:]))
        elif head.text == "rule":
            lb, lt = p.parse_term({})
            p.expect("arrow")
            rb, rt = p.parse_term({})
            p.finish()
            p.equations.append((lt, rt))  # rules must be type preserving
            for a, b in p.equations:
                p.inf.unify(a, b)
            lhs = lb()
            if not isinstance(spine(lhs)[0], Sym):
                raise InputError(
                    f"left-hand side {show_term(lhs)} is not headed by a declared symbol",
                    lineno,
                    tokens[1].column,
                )
            rules.append((lhs, rb()))
        else:
            p.expect(":")
            typ = p.parse_type()
            p.finish()
            if head.text in symbols:
                raise InputError(f"symbol {head.text} already declared", lineno, head.column)
            symbols[head.text] = typ

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
            raise InputError(f"cannot parse precedence item {part!r}")
        for name in pieces:
            if name not in system.signature.symbols:
                raise InputError(f"precedence mentions undeclared symbol {name}")
        pairs.extend(zip(pieces, pieces[1:]))
    if not pairs:
        raise InputError("empty precedence")
    transitive_closure(pairs)
    return tuple(pairs)
