"""Simple types and lambda terms: syntax, typing, substitution, matching.

Both are hash-consed: there is one immutable node per structure, so
equality is identity and hashing is O(1), however deep the node.  A
node's intern-table entry, keyed on its fields (a leaf's values, or two
children), leaves the table when the node dies, so no sweep is needed.
Each node stores its type, free variables or skeleton once computed.
A new node is built in one pass of slot writes, and cannot be changed
after that.  Term classes have no subclasses, so a term walk checks a
node's exact class once (`t.__class__ is App`); type classes do (the
parser's metavariables subclass Base), so a type walk uses isinstance.
Positions address subterms with tuples of child indices: 1 is the
function part of an application or the body of a lambda, 2 is the
argument part; a walk that needs the binders above a position carries
them down itself.
Alpha-equivalence is decided through a canonical renaming of bound
variables; canonical forms are interned too, so terms can be used as
dictionary keys modulo alpha by canonicalizing first, and two terms are
alpha-equivalent exactly when their canonical forms are the same object.
A symbol or variable is its own canonical form, and an application of
parts that are their own is marked as its own as it is built, so a
binder-free term is never canonicalized.
Any other application outside every binder stores its canonical form once
computed, so canonicalizing a term built from an earlier one walks only
its new nodes; under a binder, one canonicalization renames a closed
subterm once per binder depth, however often the term shares it.
"""

from __future__ import annotations

import functools
import weakref
from collections.abc import Iterable, Mapping

from hodp.errors import TermError

# ------------------------------------------------------------------ nodes
#
# Every node is interned: a constructor looks the tuple of its field values
# up in its class's table and returns the node stored there if there is
# one.  Structurally equal nodes are therefore the same object, so the
# inherited identity `==` and `hash` are exact and O(1).  The fields of an
# arrow, application or abstraction are its two children, which the key
# hashes and compares by identity; the node holds them anyway.  A table
# maps a key to a weak reference to its node, which holds the key; when
# the node dies, the reference's callback deletes its entry, so a table
# holds live nodes only and is never swept.
#
# A new node's slots are written once each, through the slots' own
# descriptor setters that __init_subclass__ takes once per class (a pair
# node's two fields unrolled), which skip object.__setattr__'s name lookup
# and the class's own __setattr__ and __delattr__.  Those refuse every write
# and stay: equality, hashing and the table key all assume that a node, once
# built, changes only in the derived slots this module fills.


class _Entry(weakref.ref):
    """An intern table's weak reference to a node, with the node's key."""

    __slots__ = ("key",)


_set = object.__setattr__


class _Node:
    """A node interned on the values of its _fields.  Its other slots,
    named in _derived, hold facts computed from it, None until the first
    time they are asked for."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...]
    _derived: tuple[str, ...] = ()
    _table: dict[tuple, _Entry]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        table = cls._table = {}  # each class interns its own nodes

        def drop(entry: _Entry) -> None:  # called when the entry's node dies
            if table.get(entry.key) is entry:
                del table[entry.key]

        cls._drop = staticmethod(drop)
        setters = [getattr(cls, name).__set__ for name in cls._fields]
        clears = [getattr(cls, name).__set__ for name in cls._derived]
        if len(setters) == 2:
            first_set, second_set = setters

            def init(node: _Node, values: tuple) -> None:
                first, second = values
                first_set(node, first)
                second_set(node, second)
                for clear in clears:
                    clear(node, None)

        else:

            def init(node: _Node, values: tuple) -> None:
                for setter, value in zip(setters, values, strict=True):
                    setter(node, value)
                for clear in clears:
                    clear(node, None)

        cls._init = staticmethod(init)

    def __new__(cls, *values):
        entry = cls._table.get(values)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        node = object.__new__(cls)
        cls._init(node, values)  # raises on a wrong count, before the table changes
        entry = cls._table[values] = _Entry(node, cls._drop)
        entry.key = values
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: nodes are immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


# ----------------------------------------------------------------- types


class Base(_Node):
    __slots__ = ("name",)
    _fields = ("name",)


class Arrow(_Node):
    __slots__ = ("dom", "cod", "_skeleton")
    _fields = ("dom", "cod")
    _derived = ("_skeleton",)


Type = Base | Arrow


def flatten_type(t: Type) -> tuple[tuple[Type, ...], Base]:
    """Split a type into its argument list and base result."""
    args = []
    while isinstance(t, Arrow):
        args.append(t.dom)
        t = t.cod
    return tuple(args), t


def show_type(t: Type) -> str:
    if isinstance(t, Base):
        return t.name
    dom = show_type(t.dom)
    if isinstance(t.dom, Arrow):
        dom = f"({dom})"
    return f"{dom} -> {show_type(t.cod)}"


def type_skeleton(t: Type):
    """Arrow structure of a type with all base sorts identified.  The
    result is stored on the arrow node."""
    if isinstance(t, Base):
        return "o"
    skeleton = t._skeleton
    if skeleton is None:
        skeleton = (type_skeleton(t.dom), type_skeleton(t.cod))
        _set(t, "_skeleton", skeleton)
    return skeleton


# ----------------------------------------------------------------- terms

# What a term's _canonical reads when the term is its own canonical form
# outside every binder: every symbol and variable, and an application
# whose parts are.  An application stores it, not itself, because a node
# that refers to itself would be a reference cycle; other applications
# store their form once it is computed, and a binder reads None.
CANONICAL = object()


class _Atom(_Node):
    """A variable or symbol, interned on its name and type.  It is its own
    canonical form."""

    __slots__ = ("name", "type")
    _fields = ("name", "type")
    _canonical = CANONICAL


class Var(_Atom):
    __slots__ = ()

class Sym(_Atom):
    __slots__ = ()

class App(_Node):
    __slots__ = ("fun", "arg", "_type", "_free", "_canonical")
    _fields = ("fun", "arg")
    _derived = ("_type", "_free", "_canonical")


def _app_init():
    """App's slot writer: an application of parts that are their own
    canonical forms is marked as its own as it is built, so that no
    canonicalization has to visit it."""
    set_fun, set_arg, set_type, set_free, set_canonical = (
        getattr(App, name).__set__ for name in App._fields + App._derived
    )

    def init(node: App, values: tuple) -> None:
        fun, arg = values
        set_fun(node, fun)
        set_arg(node, arg)
        set_type(node, None)
        set_free(node, None)
        own = fun._canonical is CANONICAL and arg._canonical is CANONICAL
        set_canonical(node, CANONICAL if own else None)

    return init


App._init = staticmethod(_app_init())


class Lam(_Node):
    __slots__ = ("var", "body", "_type", "_free")
    _fields = ("var", "body")
    _derived = ("_type", "_free")
    _canonical = None  # never marked: its binder may need renaming


Term = Var | Sym | App | Lam

Position = tuple[int, ...]


def show_position(p: Position) -> str:
    return ".".join(str(i) for i in p) if p else "ε"


def show_term(t: Term, shown: dict[Term, str] | None = None) -> str:
    """The text of t.  shown maps nodes to their text: a node found there is
    not visited again, and each node printed is added, so terms printed
    through one dict visit each of their nodes once."""
    if shown is None:
        shown = {}
    text = shown.get(t)
    if text is not None:
        return text
    if isinstance(t, (Var, Sym)):
        text = t.name
    elif isinstance(t, Lam):
        text = f"\\{t.var.name}:{show_type(t.var.type)}. {show_term(t.body, shown)}"
    else:
        head = show_term(t.fun, shown)
        if isinstance(t.fun, Lam):
            head = f"({head})"
        arg = show_term(t.arg, shown)
        if isinstance(t.arg, (App, Lam)):
            arg = f"({arg})"
        text = f"{head} {arg}"
    shown[t] = text
    return text


def term_size(t: Term) -> int:
    if isinstance(t, (Var, Sym)):
        return 1
    if isinstance(t, App):
        return 1 + term_size(t.fun) + term_size(t.arg)
    return 1 + term_size(t.body)


def type_of(t: Term) -> Type:
    """Type of a term; raises TermError if an application does not fit.
    The result is stored on the node."""
    cls = t.__class__
    if cls is Var or cls is Sym:
        return t.type
    typ = t._type
    if typ is not None:
        return typ
    if cls is App:
        fun = type_of(t.fun)
        if not isinstance(fun, Arrow):
            raise TermError(
                f"cannot apply {show_term(t.fun)} : {show_type(fun)}, not a function"
            )
        arg = type_of(t.arg)
        if fun.dom != arg:
            raise TermError(
                f"argument {show_term(t.arg)} : {show_type(arg)} does not fit "
                f"{show_term(t.fun)} : {show_type(fun)}"
            )
        typ = fun.cod
    else:
        typ = Arrow(t.var.type, type_of(t.body))
    _set(t, "_type", typ)
    return typ


_NO_VARS: frozenset[Var] = frozenset()


def free_vars(t: Term) -> frozenset[Var]:
    """Free variables of a term; the result is stored on the node.  Closed
    terms share one empty set."""
    if isinstance(t, Var):
        return frozenset((t,))
    if isinstance(t, Sym):
        return _NO_VARS
    free = t._free
    if free is not None:
        return free
    if isinstance(t, App):
        free = free_vars(t.fun) | free_vars(t.arg) or _NO_VARS
    else:
        free = free_vars(t.body) - {t.var} or _NO_VARS
    _set(t, "_free", free)
    return free


def spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Head and argument list of a nested application."""
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    return t, tuple(reversed(args))


def make_app(head: Term, args: Iterable[Term]) -> Term:
    t = head
    for a in args:
        t = App(t, a)
    return t


# -------------------------------------------------------------- positions


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        if isinstance(t, App) and i == 1:
            t = t.fun
        elif isinstance(t, App) and i == 2:
            t = t.arg
        elif isinstance(t, Lam) and i == 1:
            t = t.body
        else:
            raise TermError(f"no position {show_position(pos)} in term")
    return t


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    """Replace the subterm at pos.  Binders above pos deliberately keep
    capturing: the replacement is meant to be built from the old subterm."""
    if not pos:
        return new
    i = pos[0]
    if isinstance(t, App) and i == 1:
        return App(replace_at(t.fun, pos[1:], new), t.arg)
    if isinstance(t, App) and i == 2:
        return App(t.fun, replace_at(t.arg, pos[1:], new))
    if isinstance(t, Lam) and i == 1:
        return Lam(t.var, replace_at(t.body, pos[1:], new))
    raise TermError(f"no position {show_position(pos)} in term")


# ---------------------------------------------------- alpha equivalence


@functools.lru_cache(maxsize=1 << 12)
def alpha_canonical(t: Term) -> Term:
    """Rename every binder to a depth-indexed name.

    The marker character cannot appear in parsed identifiers, so canonical
    binder names never collide with free variables.  The cache is bounded,
    so it does not keep every canonical form alive; an evicted form is
    rebuilt as the same interned node while anything else holds it.
    """
    return _canon(t, {}, 0, {})


def _canon(t: Term, env: dict[Var, Var], depth: int, closed: dict[tuple[Term, int], Term]) -> Term:
    cls = t.__class__
    if cls is Var:
        return env.get(t, t)
    if cls is Sym:
        return t
    if not env and cls is App:
        # outside every binder a node has one canonical form, stored on it;
        # a node whose children are their own forms is its own, and is not
        # looked up again
        form = t._canonical
        if form is None:
            fun, arg = _canon(t.fun, env, depth, closed), _canon(t.arg, env, depth, closed)
            if fun is t.fun and arg is t.arg:
                form = CANONICAL
            else:
                form = App(fun, arg)
                _set(form, "_canonical", CANONICAL)
            _set(t, "_canonical", form)
        return t if form is CANONICAL else form
    # the form of a closed node depends on the depth alone, so closed holds
    # it for the rest of the call: a shared subterm is renamed once per depth
    shared = not free_vars(t)
    if shared:
        form = closed.get((t, depth))
        if form is not None:
            return form
    if cls is App:
        fun, arg = _canon(t.fun, env, depth, closed), _canon(t.arg, env, depth, closed)
        form = t if fun is t.fun and arg is t.arg else App(fun, arg)
    else:
        v = Var(f"!{depth}", t.var.type)
        form = Lam(v, _canon(t.body, {**env, t.var: v}, depth + 1, closed))
    if shared:
        closed[t, depth] = form
    return form


def alpha_eq(s: Term, t: Term) -> bool:
    return alpha_canonical(s) is alpha_canonical(t)


def fresh_var(name: str, typ: Type, avoid: Iterable[str]) -> Var:
    taken = set(avoid)
    candidate = name + "'"
    i = 1
    while candidate in taken:
        i += 1
        candidate = f"{name}'{i}"
    return Var(candidate, typ)


# ------------------------------------------------------------ substitution


def apply_subst(t: Term, subst: Mapping[Var, Term]) -> Term:
    """Capture-avoiding substitution of free variables."""
    if not subst:
        return t
    cls = t.__class__
    if cls is Var:
        return subst.get(t, t)
    if cls is Sym:
        return t
    if cls is App:
        # a leaf child is substituted here, without a call of its own
        fun, arg = t.fun, t.arg
        cls = fun.__class__
        fun = subst.get(fun, fun) if cls is Var else fun if cls is Sym else apply_subst(fun, subst)
        cls = arg.__class__
        arg = subst.get(arg, arg) if cls is Var else arg if cls is Sym else apply_subst(arg, subst)
        return App(fun, arg)
    live = {v: u for v, u in subst.items() if v != t.var and v in free_vars(t.body)}
    if not live:
        return t
    var, body = t.var, t.body
    if any(var in free_vars(u) for u in live.values()):
        avoid = {w.name for u in live.values() for w in free_vars(u)}
        avoid |= {w.name for w in free_vars(body)}
        var = fresh_var(t.var.name, t.var.type, avoid)
        body = apply_subst(body, {t.var: var})
    return Lam(var, apply_subst(body, live))


# ------------------------------------------------------------------- beta

# beta_reducts and match_pattern recurse through module functions, not
# nested ones: a nested function that calls itself is a reference cycle,
# which would keep every result it built alive until the cyclic collector
# ran.


def beta_contract(redex: App) -> Term:
    lam = redex.fun
    assert isinstance(lam, Lam)
    return apply_subst(lam.body, {lam.var: redex.arg})


def beta_reducts(t: Term) -> list[tuple[Position, Term]]:
    """One-step beta reducts with the contracted position, preorder."""
    out: list[tuple[Position, Term]] = []
    if isinstance(t, (App, Lam)):
        _walk_redexes(t, t, (), out)
    return out


def _walk_redexes(t: Term, u: App | Lam, p: Position, out: list) -> None:
    # leaves hold no redex, so the walk never descends into one
    if isinstance(u, App):
        if isinstance(u.fun, Lam):
            out.append((p, replace_at(t, p, beta_contract(u))))
        if isinstance(u.fun, (App, Lam)):
            _walk_redexes(t, u.fun, p + (1,), out)
        if isinstance(u.arg, (App, Lam)):
            _walk_redexes(t, u.arg, p + (2,), out)
    elif isinstance(u.body, (App, Lam)):
        _walk_redexes(t, u.body, p + (1,), out)


# --------------------------------------------------------------- matching


def match_pattern(pattern: Term, subject: Term) -> dict[Var, Term] | None:
    """Syntactic match of subject against pattern, modulo alpha.

    Free pattern variables bind subterms of the subject; variables of the
    subject bound above the matched occurrence may appear in those bindings,
    but variables bound inside the pattern may not escape into them.
    Returns the binding, or None if the subject does not match.
    """
    binding: dict[Var, Term] = {}
    return binding if _match(pattern, subject, {}, binding) else None


def _match(pat: Term, sub: Term, env: dict[Var, Var], binding: dict[Var, Term]) -> bool:
    cls = pat.__class__
    if cls is Var:
        if pat in env:
            return env[pat] is sub
        bound = binding.get(pat)
        if bound is not None:
            return alpha_eq(bound, sub)
        if env and not free_vars(sub).isdisjoint(env.values()):
            return False
        if type_of(sub) != pat.type:
            return False
        binding[pat] = sub
        return True
    if cls is Sym:
        return pat is sub
    if cls is App:
        return (
            sub.__class__ is App
            and _match(pat.fun, sub.fun, env, binding)
            and _match(pat.arg, sub.arg, env, binding)
        )
    if sub.__class__ is not Lam or pat.var.type != sub.var.type:
        return False
    return _match(pat.body, sub.body, {**env, pat.var: sub.var}, binding)
