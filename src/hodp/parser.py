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
``sort``, ``rule`` and ``prec`` are reserved: they name no sort, symbol,
variable or binder.  In rule terms, application is juxtaposition and
associates left; lambdas are written ``\\x. t`` or ``\\x:TYPE. t``.

One regular expression cuts a line into tokens: an arrow, an identifier,
or any other non-blank character, which is an error unless it is
punctuation; ``#`` ends the line.  A token is its text, which also tells
its kind, and its column is worked out only for an error message.

A rule line is read in one pass.  An identifier bound by an enclosing
lambda is that binder, a declared symbol is that symbol, and any other
identifier, whatever its case, is a rule variable.  Each side is read into
a tree of tuples and a type, in which metavariables ``?n``, numbered in
reading order, stand for what is not yet known.  Each application's
equation is solved as soon as it is read.  The first that fails is kept,
no later one is solved, and it is raised once the line has parsed, so a
line's syntax errors come before its type errors.  Then the two sides'
types are equated, and the trees become terms, rejecting a rule variable
or binder whose type is still undetermined.  Last, the left-hand side
must be headed by a declared symbol.
"""

from __future__ import annotations

import re
from typing import NoReturn

from hodp.errors import InputError
from hodp.ordering import transitive_closure
from hodp.signature import RewriteSystem, build_system
from hodp.terms import App, Arrow, Base, Lam, Sym, Term, Type, Var, show_term, show_type, spine

_KEYWORDS = {"sort", "rule", "prec"}

# A line ends at \n, \r\n or \r only, not at every break str.splitlines knows.
_LINE_END = re.compile(r"\r\n|\r|\n")

# Whitespace is what no alternative matches: exactly the characters
# str.isspace accepts.
_TOKEN = re.compile(r"->|[A-Za-z0-9_][A-Za-z0-9_']*|\S")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
# a token of one character outside these is a character the format rejects
_SINGLES = _IDENT_START | {"(", ")", ":", "\\", ".", ">"}


def _kind(tok: str) -> str:
    return "ident" if tok[:1] in _IDENT_START else "arrow" if tok == "->" else tok


def _column(line: str, k: int) -> int:
    """The column of the k-th token of line."""
    return list(_TOKEN.finditer(line))[k].start() + 1


def _tokenize(line: str, lineno: int) -> list[str]:
    tokens = _TOKEN.findall(line)
    if "#" in tokens:
        del tokens[tokens.index("#") :]
    for k, tok in enumerate(tokens):
        if len(tok) == 1 and tok not in _SINGLES:
            raise InputError(f"unexpected character {tok!r}", lineno, _column(line, k))
    return tokens


class _Meta(Base):
    """An inference metavariable, a base type named ?n until it is bound.
    It lives for one rule line, so unlike every other type it is a plain
    object, not interned: each one is its own, whatever its name."""

    __slots__ = ()

    def __new__(cls, name: str):
        meta = object.__new__(cls)
        object.__setattr__(meta, "name", name)
        return meta


# A rule side is read into a tree of tuples: a symbol is its Sym, an
# application (fun, arg), a variable (name, type, "binder" | "variable")
# and an abstraction ("\\", name, type, body).
_Tree = Sym | tuple


class _LineParser:
    """Reads one line, and types a rule by unification: each application's
    equation is solved as it is read, up to the first that fails."""

    def __init__(
        self, line: str, tokens: list[str], lineno: int, sorts: list[str], symbols: dict[str, Type]
    ):
        self.line = line
        self.toks = tokens + [""]  # "" is the end of the line
        self.pos = 0
        self.lineno = lineno
        self.sorts = sorts
        self.symbols = symbols
        self.bindings: dict[_Meta, Type] = {}
        self.counter = 0
        self.rule_vars: dict[str, _Meta] = {}
        self.error: InputError | None = None

    def fail(self, message: str, k: int) -> NoReturn:
        """Raise message at the column of token k, or at none for the end."""
        column = _column(self.line, k) if self.toks[k] else None
        raise InputError(message, self.lineno, column)

    def next(self) -> str:
        tok = self.toks[self.pos]
        if not tok:
            raise InputError("unexpected end of line", self.lineno)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> str:
        tok = self.next()
        if _kind(tok) != kind:
            self.fail(f"expected {kind!r}, found {tok!r}", self.pos - 1)
        return tok

    def name(self) -> str:
        tok = self.expect("ident")
        if tok in _KEYWORDS:
            self.fail(f"{tok} is a reserved word", self.pos - 1)
        return tok

    # types

    def parse_type(self) -> Type:
        tok = self.next()
        if tok == "(":
            left = self.parse_type()
            self.expect(")")
        elif _kind(tok) != "ident":
            self.fail(f"expected a type, found {tok!r}", self.pos - 1)
        elif tok not in self.sorts:
            self.fail(f"undeclared sort {tok}", self.pos - 1)
        else:
            left = Base(tok)
        if self.toks[self.pos] == "->":
            self.pos += 1
            return Arrow(left, self.parse_type())
        return left

    # terms; bound maps each enclosing binder's name to its type

    def parse_term(self, bound: dict[str, Type]) -> tuple[_Tree, Type]:
        """A term and its type: atoms, each applied to the next."""
        term = None
        while True:
            tok = self.toks[self.pos]
            if tok[:1] in _IDENT_START:
                if tok in _KEYWORDS:
                    self.fail(f"{tok} is a reserved word", self.pos)
                self.pos += 1
                if tok in bound:
                    atom = (tok, bound[tok], "binder"), bound[tok]
                elif (typ := self.symbols.get(tok)) is not None:
                    atom = Sym(tok, typ), typ
                else:
                    # fresh() runs at every occurrence: the ?n in messages count them
                    meta = self.rule_vars.setdefault(tok, self.fresh())
                    atom = (tok, meta, "variable"), meta
            elif tok == "(":
                self.pos += 1
                atom = self.parse_term(bound)
                self.expect(")")
            elif tok == "\\":
                self.pos += 1
                name = self.name()
                if self.toks[self.pos] == ":":
                    self.pos += 1
                    annot = self.parse_type()
                else:
                    annot = self.fresh()
                self.expect(".")
                body, bt = self.parse_term({**bound, name: annot})
                atom = ("\\", name, annot, body), Arrow(annot, bt)
            elif term is None:
                self.fail(f"expected a term, found {tok or 'end of line'!r}", self.pos)
            else:
                return term
            term = atom if term is None else ((term[0], atom[0]), self.apply(term[1], atom[1]))

    # type inference

    def fresh(self) -> _Meta:
        self.counter += 1
        return _Meta(f"?{self.counter}")

    def apply(self, ft: Type, at: Type) -> Type:
        """The type of an application of ft to at, once ft = at -> ?n is
        solved.  After a type error any type will do: the line fails."""
        if self.error is not None:
            return at
        try:
            f = self.resolve(ft)
            # a ?n that unify would only bind to f's result is counted, not made
            if isinstance(f, Arrow) and not isinstance(self.resolve(f.cod), _Meta):
                self.counter += 1
                self.unify(f.dom, at)
                return f.cod
            out = self.fresh()
            self.unify(f, Arrow(at, out))
            return out
        except InputError as exc:
            self.error = exc
            return at

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

    def build(self, tree: _Tree) -> Term:
        """The term of a tree, once its line's equations are solved."""
        if type(tree) is not tuple:
            return tree
        if len(tree) == 2:
            return App(self.build(tree[0]), self.build(tree[1]))
        if len(tree) == 3:
            name, t, what = tree
            return Var(name, self.zonk(t, f"{what} {name}"))
        _, name, t, body = tree
        return Lam(Var(name, self.zonk(t, f"binder {name}")), self.build(body))


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
        p = _LineParser(line, tokens, lineno, sorts, symbols)
        head = tokens[0]
        if _kind(head) != "ident":
            p.fail(f"expected a declaration, found {head!r}", 0)
        p.pos = 1
        if head == "sort":
            names = []
            while p.toks[p.pos]:
                names.append(p.name())
            if not names:
                raise InputError("sort needs at least one name", lineno)
            for n in names:
                if n in sorts:
                    raise InputError(f"sort {n} already declared", lineno)
                sorts.append(n)
        elif head == "prec":
            chain = [p.expect("ident")]
            while p.toks[p.pos]:
                p.expect(">")
                chain.append(p.expect("ident"))
            if len(chain) < 2:
                raise InputError("prec needs at least two symbols", lineno)
            for name in chain:
                if name not in symbols:
                    raise InputError(f"prec mentions undeclared symbol {name}", lineno)
            hints.extend(zip(chain, chain[1:]))
        elif head == "rule":
            left, lt = p.parse_term({})
            p.expect("arrow")
            right, rt = p.parse_term({})
            if p.toks[p.pos]:
                p.fail(f"unexpected {p.toks[p.pos]!r}", p.pos)
            if p.error is not None:
                raise p.error
            p.unify(lt, rt)  # rules must be type preserving
            lhs = p.build(left)
            if not isinstance(spine(lhs)[0], Sym):
                p.fail(f"left-hand side {show_term(lhs)} is not headed by a declared symbol", 1)
            rules.append((lhs, p.build(right)))
        else:
            p.expect(":")
            typ = p.parse_type()
            if p.toks[p.pos]:
                p.fail(f"unexpected {p.toks[p.pos]!r}", p.pos)
            if head in symbols:
                p.fail(f"symbol {head} already declared", 0)
            symbols[head] = typ

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
