"""Input format: tokens, grammar, type inference, error reporting."""

import random
import re
import sys
from collections.abc import Callable
from typing import NamedTuple

import pytest

from conftest import SYSTEMS_DIR, load_system, same_reports_tool, system_text
from gen import TYPED_SIGNATURE, random_rule_line
from hodp.errors import InputError
from hodp.ordering import transitive_closure
from hodp.parser import parse_precedence_arg, parse_system
from hodp.signature import RewriteSystem, build_system
from hodp.terms import (
    App,
    Arrow,
    Base,
    Lam,
    Sym,
    Term,
    Type,
    Var,
    free_vars,
    show_term,
    show_type,
    spine,
    type_of,
)

BASE = "sort N\n0 : N\ns : N -> N\nplus : N -> N -> N\n"

# str.splitlines breaks lines at these too; the input format does not
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestGrammar:
    def test_full_file(self):
        system = load_system("map")
        assert system.signature.sorts == ("List", "N") or set(system.signature.sorts) == {"N", "List"}
        assert set(system.signature.symbols) == {"0", "s", "nil", "cons", "map"}
        assert len(system.rules) == 2
        rule = system.rules[1]
        assert (show_term(rule.lhs), show_term(rule.rhs)) == ("map F (cons X L)", "cons (F X) (map F L)")

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# heading\n\nsort N   # trailing\n0 : N\n\n# done\n"
        system = parse_system(text)
        assert system.signature.symbols["0"] == Base("N")

    def test_arrows_associate_to_the_right(self):
        system = parse_system("sort N\nf : N -> N -> N\n")
        assert system.signature.symbols["f"] == Arrow(Base("N"), Arrow(Base("N"), Base("N")))

    def test_parenthesized_domain(self):
        system = parse_system("sort N\ng : (N -> N) -> N\n")
        assert system.signature.symbols["g"] == Arrow(Arrow(Base("N"), Base("N")), Base("N"))

    def test_application_associates_to_the_left(self):
        system = parse_system(BASE + "rule plus (plus X Y) Z -> plus X (plus Y Z)\n")
        rule = system.rules[0]
        assert (show_term(rule.lhs), show_term(rule.rhs)) == ("plus (plus X Y) Z", "plus X (plus Y Z)")

    def test_annotated_lambda(self):
        system = parse_system(BASE + "h : (N -> N) -> N\nrule plus (h F) X -> h (\\y:N. plus (F y) X)\n")
        rhs = system.rules[0].rhs
        assert type_of(rhs) == Base("N")

    def test_digit_leading_and_primed_identifiers(self):
        system = parse_system("sort A\n1st : A -> A\nx0 : A\nrule 1st (1st X') -> 1st X'\n")
        rule = system.rules[0]
        assert (show_term(rule.lhs), show_term(rule.rhs)) == ("1st (1st X')", "1st X'")

    # every character str.isspace accepts that does not end a line
    @pytest.mark.parametrize(
        "space",
        [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\n\r"],
    )
    def test_unicode_whitespace_separates_tokens(self, space):
        system = parse_system(f"sort N{space}M\n")
        assert system.signature.sorts == ("N", "M")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_line_ends_at_a_line_feed_or_carriage_return(self, end):
        with pytest.raises(InputError) as exc:
            parse_system(f"sort N{end}0 : N{end}f @ N{end}")
        assert str(exc.value) == "line 3, column 3: unexpected character '@'"

    def test_the_other_breaks_of_splitlines_end_no_line(self):
        breaks = {c for c in map(chr, range(sys.maxunicode + 1)) if len(f"N{c}M".splitlines()) == 2}
        assert breaks == {"\n", "\r", *NOT_LINE_ENDS}

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_inside_a_comment_it_ends_nothing(self, char):
        system = parse_system(f"sort N # a{char}b\n0 : N\n")
        assert system.signature.sorts == ("N",)

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_after_one_in_a_comment_line_numbers_hold(self, char):
        with pytest.raises(InputError) as exc:
            parse_system(f"sort N # a{char}b\n0 @ N\n")
        assert str(exc.value) == "line 2, column 3: unexpected character '@'"

    # identifiers are ASCII: letters, digits and marks elsewhere are rejected
    @pytest.mark.parametrize("char", ["é", "α", "\uff11", "\ufeff"])
    def test_non_ascii_characters_are_unexpected(self, char):
        with pytest.raises(InputError) as exc:
            parse_system(f"sort N{char}\n")
        assert str(exc.value) == f"line 1, column 7: unexpected character {char!r}"

    def test_keywords_are_case_sensitive(self):
        # 'Sort' is an ordinary identifier, so the line is read as a
        # symbol declaration missing its colon
        with pytest.raises(InputError, match="expected ':'"):
            parse_system("Sort N\n")


class TestInference:
    def test_rule_variable_types_are_inferred(self):
        system = load_system("map")
        rule = system.rules[1]
        types = {v.name: show_type(v.type) for v in free_vars(rule.lhs)}
        assert types == {"F": "N -> N", "X": "N", "L": "List"}

    def test_unannotated_binder_is_inferred_from_use(self):
        system = parse_system(
            BASE + "h : (N -> N) -> N\nrule plus (h F) X -> h (\\y. plus (F y) X)\n"
        )
        rhs = system.rules[0].rhs
        lam = rhs.arg
        assert isinstance(lam, Lam)
        assert lam.var.type == Base("N")

    def test_rules_must_preserve_types(self):
        with pytest.raises(InputError, match="cannot be typed"):
            parse_system(BASE + "rule plus X -> X\n")

    def test_ill_typed_application_is_reported(self):
        with pytest.raises(InputError, match="cannot be typed"):
            parse_system(BASE + "rule plus X Y -> s (\\w. w)\n")

    def test_unconstrained_binder_is_ambiguous(self):
        with pytest.raises(InputError, match="cannot infer the type of"):
            parse_system(BASE + "rule plus X Y -> (\\w. 0) W\n")

    def test_undeclared_head_reads_as_an_untypable_variable(self):
        with pytest.raises(InputError, match="cannot infer the type of"):
            parse_system("sort N\nrule f X -> X\n")

    @pytest.mark.parametrize(
        "rule,message",
        [
            ("f X -> \\x. x", "line 5: rule cannot be typed (N versus ?3 -> ?3)"),
            ("f X Y -> X", "line 5: rule cannot be typed (N versus ?3 -> ?4)"),
            ("X -> X", "line 5: cannot infer the type of variable X"),
        ],
    )
    def test_type_errors_show_the_inferred_types(self, rule, message):
        text = "sort N\n0 : N\ns : N -> N\nf : N -> N\nrule " + rule + "\n"
        with pytest.raises(InputError) as exc:
            parse_system(text)
        assert str(exc.value) == message

    # lines 1-4 declare N, 0, s and f; the whole line is parsed before any
    # equation is solved, and metavariables are numbered in reading order
    @pytest.mark.parametrize(
        "rule,message",
        [
            ("f X Y -> )", "line 5, column 15: expected a term, found ')'"),
            ("f X -> s (\\y. Y y) X", "line 5: rule cannot be typed (N versus ?3 -> ?5)"),
            ("f X -> (\\y. y) X X", "line 5: rule cannot be typed (N versus N -> ?7)"),
        ],
    )
    def test_syntax_errors_come_first_and_metavariables_keep_their_numbers(self, rule, message):
        with pytest.raises(InputError) as exc:
            parse_system("sort N\n0 : N\ns : N -> N\nf : N -> N\nrule " + rule + "\n")
        assert str(exc.value) == message

    def test_fresh_right_side_variables_are_allowed_here(self):
        # they are rejected later by the admissibility stage, not by
        # the parser, so the failure is diagnosable
        system = parse_system(BASE + "rule plus X Y -> plus Y W\n")
        assert {v.name for v in free_vars(system.rules[0].rhs)} == {"Y", "W"}


class TestErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("sort N\nf : N ->\n", "unexpected end of line"),
            ("sort N\nf : (N -> N\n", "unexpected end of line"),
            ("sort N\nrule : N\n", "expected a term"),
            ("sort N\nf : N -> N\nf : N\n", "already declared"),
            ("sort N\nsort N\n", "already declared"),
            ("sort N\nf @ N\n", "unexpected character '@'"),
            ("sort N\nf : N -> M\n", "undeclared sort"),
            ("sort N\n0 : N\nprec 0\n", "at least two symbols"),
            ("sort N\n0 : N\nprec 0 > q\n", "undeclared symbol q"),
        ],
    )
    def test_syntax_errors_carry_a_message(self, text, fragment):
        with pytest.raises(InputError) as exc:
            parse_system(text)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize(
        "rule", ["f (\\rule. X) -> X", "f (\\sort:N. z) -> z", "f (\\prec. z) -> z"]
    )
    def test_a_reserved_word_names_no_binder(self, rule):
        with pytest.raises(InputError) as exc:
            parse_system("sort N\nz : N\nf : (N -> N) -> N\nrule " + rule + "\n")
        word = rule[4:8]
        assert str(exc.value) == f"line 4, column 10: {word} is a reserved word"

    def test_errors_carry_line_numbers(self):
        with pytest.raises(InputError) as exc:
            parse_system("sort N\n0 : N\nf @ N\n")
        assert exc.value.line == 3
        assert exc.value.column == 3

    def test_cyclic_precedence_hints_are_rejected(self):
        with pytest.raises(InputError, match="above itself"):
            parse_system("sort N\n0 : N\ns : N -> N\nprec s > 0\nprec 0 > s\n")


class TestMutants:
    def test_a_mutant_parses_or_raises_an_input_error(self):
        mutate = same_reports_tool().mutate
        texts = [p.read_text(encoding="utf-8") for p in sorted(SYSTEMS_DIR.glob("*.hodp"))]
        rng = random.Random(7)
        outcomes = set()
        for k in range(2000):
            try:
                parse_system(mutate(texts[k % len(texts)], rng))
                outcomes.add("parsed")
            except InputError as exc:
                message = str(exc)
                if "cannot be typed" in message:
                    outcomes.add("typing")
                elif "cannot infer the type of" in message:
                    outcomes.add("ambiguous")
                elif "above itself" in message:
                    outcomes.add("cycle")
                else:
                    outcomes.add("syntax")
        # the mutants reach past the tokenizer into the grammar and the types
        assert {"parsed", "syntax", "typing"} <= outcomes


class TestPrecedenceArgument:
    def test_comma_separated_pairs(self):
        system = load_system("map")
        assert parse_precedence_arg("map>cons,cons>nil", system) == (
            ("map", "cons"),
            ("cons", "nil"),
        )

    def test_chains_expand_to_adjacent_pairs(self):
        system = load_system("map")
        assert parse_precedence_arg("map>cons>nil", system) == (
            ("map", "cons"),
            ("cons", "nil"),
        )

    def test_spaces_are_tolerated(self):
        system = load_system("map")
        assert parse_precedence_arg(" map > cons ", system) == (("map", "cons"),)

    @pytest.mark.parametrize("arg", ["map>", ">cons", "", "map>bogus", "map>cons,cons>map"])
    def test_bad_arguments_are_rejected(self, arg):
        system = load_system("map")
        with pytest.raises(Exception):
            parse_precedence_arg(arg, system)

    def test_hint_lines_collect_in_order(self):
        text = system_text("map") + "prec map > cons\nprec map > nil\n"
        system = parse_system(text)
        assert system.precedence_hints == (("map", "cons"), ("map", "nil"))


class TestDeterminism:
    def test_parsing_twice_gives_equal_systems(self):
        text = system_text("filter")
        assert parse_system(text) == parse_system(text)


# ----------------------------------------------------------- parser oracle
# The parser that tokenized into named tuples, read each side into builder
# closures and solved a line's equations once it had parsed, kept as the
# reference, with the one change of rejecting a keyword as a binder name.

_OLD_KEYWORDS = {"sort", "rule", "prec"}

# A line ends at \n, \r\n or \r only, not at every break str.splitlines knows.
_OLD_LINE_END = re.compile(r"\r\n|\r|\n")

# An unnamed match is punctuation, whose kind is its text.  Whitespace is
# what no alternative matches: exactly the characters str.isspace accepts.
_OLD_TOKEN = re.compile(
    r"(?P<arrow>->)|(?P<ident>[A-Za-z0-9_][A-Za-z0-9_']*)|[():\\.>]|(?P<comment>#)|(?P<bad>\S)"
)


class _OldTok(NamedTuple):
    kind: str  # 'ident' | 'arrow' | '(' | ')' | ':' | '\\' | '.' | '>'
    text: str
    column: int


def _old_tokenize(text: str, lineno: int) -> list[_OldTok]:
    out = []
    for m in _OLD_TOKEN.finditer(text):
        kind, tok, column = m.lastgroup, m.group(), m.start() + 1
        if kind == "comment":
            break
        if kind == "bad":
            raise InputError(f"unexpected character {tok!r}", lineno, column)
        out.append(_OldTok(kind or tok, tok, column))
    return out


# Builders turn a parsed term into a Term once unification settles, which
# replaces its metavariables by ground types.
_OldBuilder = Callable[[], Term]


class _OldLineParser:
    """Reads one line.  A rule term comes back as its builder and its type;
    each application leaves an equation, solved only after the line parsed."""

    def __init__(self, tokens: list[_OldTok], lineno: int, sorts: list[str], symbols: dict[str, Type]):
        self.toks = tokens
        self.pos = 0
        self.lineno = lineno
        self.sorts = sorts
        self.symbols = symbols
        self.inf = _OldInference(lineno)
        self.equations: list[tuple[Type, Type]] = []

    def peek(self) -> _OldTok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _OldTok:
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of line", self.lineno)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _OldTok:
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

    def parse_term(self, bound: dict[str, Type]) -> tuple[_OldBuilder, Type]:
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

    def parse_atom(self, bound: dict[str, Type]) -> tuple[_OldBuilder, Type] | None:
        tok = self.peek()
        if tok is None:
            return None
        inf = self.inf
        if tok.kind == "ident":
            name = tok.text
            if name in _OLD_KEYWORDS:
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
            if name in _OLD_KEYWORDS:  # the one change: a keyword binds nothing
                column = self.toks[self.pos - 1].column
                raise InputError(f"{name} is a reserved word", self.lineno, column)
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



class _OldMeta(Base):
    """An inference metavariable, a base type named ?n until it is bound.
    It lives for one rule line, so unlike every other type it is a plain
    object, not interned: each one is its own, whatever its name."""

    __slots__ = ()

    def __new__(cls, name: str):
        meta = object.__new__(cls)
        object.__setattr__(meta, "name", name)
        return meta


class _OldInference:
    """Unification-based typing of one rule's variables and binders."""

    def __init__(self, lineno: int):
        self.lineno = lineno
        self.bindings: dict[_OldMeta, Type] = {}
        self.counter = 0
        self.rule_vars: dict[str, _OldMeta] = {}

    def fresh(self) -> _OldMeta:
        self.counter += 1
        return _OldMeta(f"?{self.counter}")

    def resolve(self, t: Type) -> Type:
        while isinstance(t, _OldMeta) and t in self.bindings:
            t = self.bindings[t]
        return t

    def _occurs(self, m: _OldMeta, t: Type) -> bool:
        t = self.resolve(t)
        if isinstance(t, Arrow):
            return self._occurs(m, t.dom) or self._occurs(m, t.cod)
        return t is m

    def unify(self, a: Type, b: Type) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if a is b:
            return
        if isinstance(a, _OldMeta):
            if self._occurs(a, b):
                raise InputError("rule cannot be typed (cyclic type)", self.lineno)
            self.bindings[a] = b
            return
        if isinstance(b, _OldMeta):
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
        if isinstance(t, _OldMeta) and what is not None:
            raise InputError(f"cannot infer the type of {what}", self.lineno)
        if isinstance(t, Base):
            return t
        return Arrow(self.zonk(t.dom, what), self.zonk(t.cod, what))



def _old_parse_system(text: str) -> RewriteSystem:
    sorts: list[str] = []
    symbols: dict[str, Type] = {}
    rules: list[tuple[Term, Term]] = []
    hints: list[tuple[str, str]] = []

    for lineno, line in enumerate(_OLD_LINE_END.split(text), start=1):
        tokens = _old_tokenize(line, lineno)
        if not tokens:
            continue
        head = tokens[0]
        if head.kind != "ident":
            raise InputError(f"expected a declaration, found {head.text!r}", lineno, head.column)
        p = _OldLineParser(tokens, lineno, sorts, symbols)
        p.next()
        if head.text == "sort":
            names = []
            while not p.at_end():
                tok = p.expect("ident")
                if tok.text in _OLD_KEYWORDS:
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


def _parsed(parse, text):
    """What parse makes of text: the sorts, symbols, rules and hints of
    the system, or the text of the InputError."""
    try:
        system = parse(text)
    except InputError as exc:
        return str(exc)
    rules = [
        (r.lhs, r.rhs, show_term(r.lhs), show_term(r.rhs), type_of(r.lhs)) for r in system.rules
    ]
    sig = system.signature
    return sig.sorts, sig.symbols, rules, system.precedence_hints


# every way in which a well formed rule line fails, as its message says it
TYPE_ERRORS = ("versus", "cyclic type", "type of variable", "type of binder", "not headed by")


class TestParserOracle:
    def test_mutants_of_the_shipped_systems_parse_as_before(self):
        mutate = same_reports_tool().mutate
        texts = [p.read_text(encoding="utf-8") for p in sorted(SYSTEMS_DIR.glob("*.hodp"))]
        rng = random.Random(24)
        for k in range(10_000):
            text = mutate(texts[k % len(texts)], rng)
            assert _parsed(parse_system, text) == _parsed(_old_parse_system, text), text

    def test_typed_rule_lines_parse_as_before(self):
        rng = random.Random(24)
        outcomes = set()
        for _ in range(10_000):
            text = TYPED_SIGNATURE + random_rule_line(rng)
            new = _parsed(parse_system, text)
            assert new == _parsed(_old_parse_system, text), text
            if isinstance(new, str):
                kind = next(k for k in TYPE_ERRORS if k in new)
                outcomes.add(f"{kind} ?n" if kind == "versus" and "?" in new else kind)
            else:
                outcomes.add("parsed")
        assert outcomes == {"parsed", "versus ?n", *TYPE_ERRORS}
