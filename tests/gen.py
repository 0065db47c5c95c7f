"""Seeded random generators shared by the property tests.

Everything here takes an explicit random.Random so test runs are
reproducible. Terms are built well typed by construction; the tests
still assert type_of on the results as a sanity check.
"""

import math
import random
from typing import Iterable

from hodp.engine import Step, ground_term
from hodp.errors import TermError
from hodp.ordering import PathOrder, transitive_closure
from hodp.parser import parse_system
from hodp.signature import RewriteSystem, Signature, build_system
from hodp.terms import (
    App,
    Arrow,
    Base,
    Lam,
    Position,
    Sym,
    Term,
    Type,
    Var,
    apply_subst,
    beta_reducts,
    flatten_type,
    free_vars,
    show_position,
    show_term,
    show_type,
    spine,
    term_size,
    type_of,
)

# ---------------------------------------------------------------------------
# Small term and type helpers that only tests need.


def arrow(args: Iterable[Type], out: Type) -> Type:
    """Right-nested function type taking args and returning out."""
    t = out
    for a in reversed(tuple(args)):
        t = Arrow(a, t)
    return t


def positions(t: Term) -> list[tuple[Position, Term]]:
    """All positions of t with their subterms, in preorder (lexicographic)."""
    out: list[tuple[Position, Term]] = []
    _walk_positions(t, (), out)
    return out


def _walk_positions(u: Term, p: Position, out: list[tuple[Position, Term]]) -> None:
    out.append((p, u))
    if isinstance(u, App):
        _walk_positions(u.fun, p + (1,), out)
        _walk_positions(u.arg, p + (2,), out)
    elif isinstance(u, Lam):
        _walk_positions(u.body, p + (1,), out)


def symbol(sig: Signature, name: str) -> Sym:
    """The symbol of a signature by name."""
    return Sym(name, sig.symbols[name])


def precedence(pairs, statuses=()) -> PathOrder:
    """A PathOrder from precedence edges that need not be transitively
    closed, and statuses."""
    return PathOrder(transitive_closure(pairs), dict(statuses))


def system_text(system: RewriteSystem) -> str:
    """The system in the input format, one declaration per line."""
    sig = system.signature
    lines = [f"sort {' '.join(sig.sorts)}"] if sig.sorts else []
    lines += [f"{name} : {show_type(typ)}" for name, typ in sig.symbols.items()]
    lines += [f"rule {show_term(r.lhs)} -> {show_term(r.rhs)}" for r in system.rules]
    lines += [f"prec {a} > {b}" for a, b in system.precedence_hints]
    return "\n".join(lines) + "\n"


def show_step(s: Step) -> str:
    """A step as the text witness prints it: kind@position: from => to."""
    kind = s.kind if s.kind == "beta" else f"{s.kind}({s.label})"
    return f"{kind}@{show_position(s.position)}: {show_term(s.source)} => {show_term(s.target)}"


def beta_normalize(t: Term, max_steps: int = 100_000) -> Term:
    """Leftmost-outermost normalization.  Terminates on well-typed terms."""
    for _ in range(max_steps):
        reducts = beta_reducts(t)
        if not reducts:
            return t
        t = reducts[0][1]
    raise TermError("no beta normal form within the step budget")


GEN_SORTS = ("N", "L")

# A small constructor vocabulary over naturals and lists. The extra
# symbol k consumes a list and returns a natural so that both sorts
# show up in argument and result positions.
GEN_SYMBOLS: dict[str, Type] = {
    "0": Base("N"),
    "s": Arrow(Base("N"), Base("N")),
    "nil": Base("L"),
    "cons": Arrow(Base("N"), Arrow(Base("L"), Base("L"))),
    "k": Arrow(Base("N"), Arrow(Base("L"), Base("N"))),
}


def make_sig(symbols: dict[str, Type]) -> Signature:
    """Wrap a symbol table in a signature with no defined symbols."""
    sorts = set()

    def collect(t: Type) -> None:
        if isinstance(t, Base):
            sorts.add(t.name)
        else:
            collect(t.dom)
            collect(t.cod)

    for t in symbols.values():
        collect(t)
    return Signature(tuple(sorted(sorts)), dict(symbols), frozenset())


def random_type(rng: random.Random, sorts=GEN_SORTS, depth: int = 4) -> Type:
    if depth <= 0 or rng.random() < 0.45:
        return Base(rng.choice(sorts))
    return Arrow(random_type(rng, sorts, depth - 1), random_type(rng, sorts, depth - 1))


def _producers(symbols: dict[str, Type], env: tuple[Var, ...], typ: Type):
    """Heads that yield typ once applied to a (possibly empty) prefix
    of their argument types, paired with those argument types."""
    heads: list[tuple[Term, tuple[Type, ...]]] = []
    for name in sorted(symbols):
        styp = symbols[name]
        suffix: Type = styp
        taken: tuple[Type, ...] = ()
        while True:
            if suffix == typ:
                heads.append((Sym(name, styp), taken))
            if isinstance(suffix, Arrow):
                taken = taken + (suffix.dom,)
                suffix = suffix.cod
            else:
                break
    for v in env:
        suffix = v.type
        taken = ()
        while True:
            if suffix == typ:
                heads.append((v, taken))
            if isinstance(suffix, Arrow):
                taken = taken + (suffix.dom,)
                suffix = suffix.cod
            else:
                break
    return heads


def random_term(
    rng: random.Random,
    symbols: dict[str, Type],
    typ: Type,
    budget: int,
    env: tuple[Var, ...] = (),
    redex_rate: float = 0.2,
) -> Term:
    """A well typed term of the given type, roughly budget nodes big."""
    sig = make_sig(symbols)
    redex_sorts = [s for s in sig.sorts if ground_term(sig, Base(s)) is not None]

    def gen(typ: Type, budget: int, env: tuple[Var, ...]) -> Term:
        matching = [v for v in env if v.type == typ]
        if budget <= 1:
            if matching and rng.random() < 0.6:
                return rng.choice(matching)
            g = ground_term(sig, typ)
            if g is not None:
                return g
            # no small closed inhabitant; fall through to a producer
        heads = [
            (h, args)
            for h, args in _producers(symbols, env, typ)
            if len(args) <= max(0, budget - 1)
        ]
        choices = []
        if matching:
            choices.append("var")
        if heads:
            choices.append("spine")
        if isinstance(typ, Arrow):
            choices.append("lam")
            choices.append("lam")
        if budget >= 5 and redex_sorts and rng.random() < redex_rate:
            choices.append("redex")
        if not choices:
            g = ground_term(sig, typ)
            if g is not None:
                return g
            raise ValueError(f"no inhabitant for {typ}")
        kind = rng.choice(choices)
        if kind == "var":
            return rng.choice(matching)
        if kind == "lam":
            assert isinstance(typ, Arrow)
            v = Var(f"v{len(env)}", typ.dom)
            return Lam(v, gen(typ.cod, budget - 1, env + (v,)))
        if kind == "redex":
            dom = (
                Base(rng.choice(redex_sorts))
                if rng.random() < 0.7
                else random_type(rng, sorts=tuple(redex_sorts), depth=1)
            )
            half = max(2, (budget - 1) // 2)
            fun = gen(Arrow(dom, typ), half, env)
            arg = gen(dom, max(1, budget - 1 - term_size(fun)), env)
            return App(fun, arg)
        head, argtypes = rng.choice(heads)
        t: Term = head
        remaining = budget - 1
        for i, at in enumerate(argtypes):
            share = max(1, remaining // (len(argtypes) - i))
            a = gen(at, share, env)
            remaining -= term_size(a)
            t = App(t, a)
        return t

    return gen(typ, budget, env)


def random_closed_term(
    rng: random.Random,
    size_cap: int = 20,
    symbols: dict[str, Type] | None = None,
    redex_rate: float = 0.2,
) -> Term:
    """A closed term of a random base sort, at most size_cap nodes."""
    table = GEN_SYMBOLS if symbols is None else symbols
    sig = make_sig(table)
    sorts = [s for s in sig.sorts if ground_term(sig, Base(s)) is not None]
    if not sorts:
        raise ValueError("no inhabited sort in the symbol table")
    while True:
        typ = Base(rng.choice(sorts))
        t = random_term(rng, table, typ, rng.randint(2, max(3, size_cap - 6)), redex_rate=redex_rate)
        if term_size(t) <= size_cap:
            return t


def rule_instance_seeds(
    rng: random.Random, system: RewriteSystem, per_rule: int = 4, budget: int = 7
) -> list[Term]:
    """Rule left hand sides with variables replaced by random closed
    constructor terms, so explorations start on guaranteed redexes."""
    from hodp.terms import apply_subst, free_vars

    sig = system.signature
    ctor_table = {name: sig.symbols[name] for name in sig.constructors}
    seeds = []
    for rule in system.rules:
        lhs_vars = sorted(free_vars(rule.lhs), key=lambda v: v.name)
        for _ in range(per_rule):
            sub = {}
            for v in lhs_vars:
                try:
                    sub[v] = random_term(
                        rng, ctor_table, v.type, rng.randint(2, budget), redex_rate=0.0
                    )
                except ValueError:
                    continue  # uninhabited type: leave the variable alone
            seeds.append(apply_subst(rule.lhs, sub))
    return seeds


def random_var_pool(rng: random.Random, count: int = 4) -> tuple[Var, ...]:
    pool = []
    for i in range(count):
        typ = Base(rng.choice(GEN_SORTS)) if rng.random() < 0.6 else random_type(rng, depth=2)
        pool.append(Var(f"Z{i}", typ))
    return tuple(pool)


def random_subst(
    rng: random.Random, variables, budget: int = 6
) -> dict[Var, Term]:
    return {
        v: random_term(rng, GEN_SYMBOLS, v.type, rng.randint(1, budget))
        for v in variables
    }


# ---------------------------------------------------------------------------
# First order rewrite systems, kept uncurried on the side so tests can
# run an independent extraction over the tree shape.

FoTerm = tuple  # ('app', name, (FoTerm, ...)) | ('var', name)


def random_fo_trs(rng: random.Random):
    """A small first order system over one sort.

    Returns (system, fo_rules, defined, symbols) where fo_rules keeps
    the uncurried lhs/rhs trees in rule order.
    """
    u = Base("U")
    n_ctor = rng.randint(1, 3)
    n_def = rng.randint(1, 3)
    symbols: dict[str, Type] = {}
    arities: dict[str, int] = {}
    for i in range(n_ctor):
        a = 0 if i == 0 else rng.randint(0, 2)
        name = f"c{i}"
        symbols[name] = arrow((u,) * a, u)
        arities[name] = a
    for i in range(n_def):
        a = rng.randint(1, 2)
        name = f"f{i}"
        symbols[name] = arrow((u,) * a, u)
        arities[name] = a
    ctors = [f"c{i}" for i in range(n_ctor)]
    defined = [f"f{i}" for i in range(n_def)]

    def fo_pattern(depth: int, vars_out: list) -> FoTerm:
        if depth <= 0 or rng.random() < 0.5:
            name = f"X{len(vars_out)}"
            vars_out.append(name)
            return ("var", name)
        c = rng.choice(ctors)
        return ("app", c, tuple(fo_pattern(depth - 1, vars_out) for _ in range(arities[c])))

    def fo_term(depth: int, vars_avail: list) -> FoTerm:
        if depth <= 0:
            if vars_avail and rng.random() < 0.6:
                return ("var", rng.choice(vars_avail))
            return ("app", "c0", ())
        if vars_avail and rng.random() < 0.3:
            return ("var", rng.choice(vars_avail))
        head = rng.choice(ctors + defined)
        return ("app", head, tuple(fo_term(depth - 1, vars_avail) for _ in range(arities[head])))

    fo_rules = []
    for d in defined:
        for _ in range(rng.randint(1, 2)):
            vars_out: list = []
            lhs = ("app", d, tuple(fo_pattern(rng.randint(0, 2), vars_out) for _ in range(arities[d])))
            rhs = fo_term(rng.randint(1, 3), vars_out)
            fo_rules.append((lhs, rhs))

    def curry(fo: FoTerm) -> Term:
        if fo[0] == "var":
            return Var(fo[1], u)
        t: Term = Sym(fo[1], symbols[fo[1]])
        for a in fo[2]:
            t = App(t, curry(a))
        return t

    system = build_system(("U",), symbols, [(curry(l), curry(r)) for l, r in fo_rules])
    return system, fo_rules, set(defined), symbols


def fo_defined_occurrences(fo: FoTerm, defined: set) -> list:
    """Every subtree occurrence rooted in a defined symbol, outermost
    first, computed directly on the uncurried tree."""
    out = []

    def walk(u: FoTerm) -> None:
        if u[0] == "app":
            if u[1] in defined:
                out.append(u)
            for a in u[2]:
                walk(a)

    walk(fo)
    return out


def fo_to_term(fo: FoTerm, symbols: dict[str, Type]) -> Term:
    u = Base("U")
    if fo[0] == "var":
        return Var(fo[1], u)
    t: Term = Sym(fo[1], symbols[fo[1]])
    for a in fo[2]:
        t = App(t, fo_to_term(a, symbols))
    return t


# ---------------------------------------------------------------------------
# Higher-order left sides over GEN_SYMBOLS and three more symbols, each
# parsed once with itself as its right side.
HO_RULES = parse_system(
    "sort N L\n"
    + "".join(f"{name} : {show_type(typ)}\n" for name, typ in GEN_SYMBOLS.items())
    + "f : (N -> N) -> L -> L\ng : N -> N\nh : (N -> N -> N) -> N -> N\n"
    + "".join(
        f"rule {lhs} -> {lhs}\n"
        for lhs in ("f F (cons X Ls)", "f F nil", "g (s X)", "h G X", "h (\\y. \\z. y) X")
    )
)


def random_ho_system(rng: random.Random):
    """One to three of the HO_RULES left sides, each with a seeded right
    side over the left side's variables."""
    symbols, rules = HO_RULES.signature.symbols, []
    for rule in rng.sample(HO_RULES.rules, rng.randint(1, 3)):
        env = tuple(sorted(free_vars(rule.lhs), key=lambda v: v.name))
        typ, size = type_of(rule.lhs), rng.randint(1, 12)
        rhs = random_term(rng, symbols, typ, size, env=env, redex_rate=0.4)
        rules.append((rule.lhs, rhs))
    return build_system(GEN_SORTS, symbols, rules)


def escaping_ho_system(rng: random.Random):
    """One to three of the HO_RULES left sides, each with a right side that
    passes f or h a lambda whose body calls a defined symbol on the bound
    variable, so the pair of that call escapes.  The binder is y, or X,
    which shadows the left side's X where it has one."""
    symbols, n, rules = HO_RULES.signature.symbols, Base("N"), []
    chosen = rng.sample(HO_RULES.rules, rng.randint(1, 3))
    defined = sorted({spine(r.lhs)[0].name for r in chosen})
    for rule in chosen:
        env = tuple(sorted(free_vars(rule.lhs), key=lambda v: v.name))
        y, z, name = Var(rng.choice("yX"), n), Var("z", n), rng.choice(defined)
        argtypes, out = flatten_type(symbols[name])
        body = z
        while y not in free_vars(body):
            body = Sym(name, symbols[name])
            for a in argtypes:
                body = App(body, random_term(rng, symbols, a, rng.randint(1, 4), env + (y,), 0.4))
        if out != n:
            body = App(App(Sym("k", symbols["k"]), random_term(rng, symbols, n, 2, env)), body)
        if type_of(rule.lhs) == n:
            fun, arg = Lam(y, Lam(z, body)), random_term(rng, symbols, n, 2, env)
            rhs = App(App(Sym("h", symbols["h"]), fun), arg)
        else:
            fun, arg = Lam(y, body), random_term(rng, symbols, Base("L"), 2, env)
            rhs = App(App(Sym("f", symbols["f"]), fun), arg)
        rules.append((rule.lhs, rhs))
    return build_system(GEN_SORTS, symbols, rules)


# Left sides that each put a variable under a binder, so that the closure
# derives it through lam; the last also holds a beta redex, which a
# witness takes apart with the path order's beta clause.
BINDER_RULES = parse_system(
    "sort N\n0 : N\ns : N -> N\nc : N -> N\nf : (N -> N) -> N -> N\n"
    "g : (N -> N) -> N -> N -> N\n"
    + "".join(
        f"rule {lhs} -> {lhs}\n"
        for lhs in ("f (\\y. F y) (s X)", "f (\\y. s (F y)) X", "g (\\y. F y) X ((\\x. c x) 0)")
    )
)


def binder_ho_system(rng: random.Random):
    """One or two of the BINDER_RULES left sides, each with a right side
    that holds a beta redex: the left side's abstraction, its binder
    renamed z, applied to a seeded argument over the left side's
    variables, under up to two seeded applications of s, c, or g with the
    abstraction and c 0 as its other arguments."""
    symbols, n, rules = BINDER_RULES.signature.symbols, Base("N"), []
    c0 = App(Sym("c", symbols["c"]), Sym("0", n))
    z = Var("z", n)
    for rule in rng.sample(BINDER_RULES.rules, rng.randint(1, 2)):
        env = tuple(sorted(free_vars(rule.lhs), key=lambda v: v.name))
        lam = next(a for a in spine(rule.lhs)[1] if isinstance(a, Lam))
        renamed = Lam(z, apply_subst(lam.body, {lam.var: z}))
        rhs = App(renamed, random_term(rng, symbols, n, rng.randint(1, 3), env, 0.3))
        for _ in range(rng.randint(0, 2)):
            name = rng.choice("sscg")
            if name == "g":
                rhs = App(App(App(Sym("g", symbols["g"]), renamed), rhs), c0)
            else:
                rhs = App(Sym(name, symbols[name]), rhs)
        rules.append((rule.lhs, rhs))
    return build_system(("N",), symbols, rules)


# A fixed signature for random_rule_line, which writes rule lines over it
# that are well formed but typed at random, so that they reach every way
# in which typing fails.
TYPED_SIGNATURE = (
    "sort N L\n0 : N\ns : N -> N\nnil : L\ncons : N -> L -> L\n"
    "f : (N -> N) -> L -> L\nh : (N -> N -> N) -> N -> N\n"
)
TYPED_ARITIES = {"0": 0, "s": 1, "nil": 0, "cons": 2, "f": 2, "h": 2}


def random_rule_line(rng: random.Random) -> str:
    """A rule line over the symbols of TYPED_SIGNATURE, the rule variables
    X, Y, F and G, and binders x, y and z, annotated or not.  Most left
    sides apply a symbol to as many arguments as it takes; the rest are any
    term, so some are headed by a variable.  Over 10,000 lines about one in
    ten parses; the others fail as `N versus L`, as a type with a `?n` in
    it, as a cyclic type, as a variable or binder whose type cannot be
    inferred, or as a left side not headed by a symbol."""

    def atom(depth: int, binders: tuple[str, ...]) -> str:
        roll = rng.random()
        if depth > 0 and roll < 0.15:
            x = rng.choice("xyz")
            annot = rng.choice(("", "", ":N", ":L", ":N -> N", ":(N -> N) -> N"))
            return f"(\\{x}{annot}. {term(depth - 1, binders + (x,))})"
        if depth > 0 and roll < 0.35:
            return f"({term(depth - 1, binders)})"
        if binders and roll < 0.5:
            return rng.choice(binders)
        if roll < 0.7:
            return rng.choice(("X", "Y", "F", "G"))
        return rng.choice(tuple(TYPED_ARITIES))

    def term(depth: int, binders: tuple[str, ...]) -> str:
        args = (atom(depth - 1, binders) for _ in range(rng.choice((0, 0, 1, 1, 2, 3))))
        return " ".join((atom(depth, binders), *args))

    if rng.random() < 0.8:
        head = rng.choice(tuple(TYPED_ARITIES))
        lhs = " ".join((head, *(atom(1, ()) for _ in range(TYPED_ARITIES[head]))))
    else:
        lhs = term(2, ())
    return f"rule {lhs} -> {term(3, ())}\n"


# Three systems whose states have many successors, so exploration visits
# only a few of the steps it finds: the branching system, whose state k
# has k successors; a higher-order system drawn by escaping_ho_system
# whose steps rebuild a spine that grows with every step; and the
# doubling system, whose state k shares one closed abstraction 2^k ways
# under a binder, so it has exponentially many redex positions.  None
# finishes within a small node budget.
WIDE_SYSTEMS = {
    "branching": "sort N\n0 : N\ns : N -> N\nf : N -> N\nrule f X -> s (f (f X))\n",
    "higher-order": "sort N L\n0 : N\ns : N -> N\nnil : L\ncons : N -> L -> L\n"
    "k : N -> L -> N\nf : (N -> N) -> L -> L\ng : N -> N\nh : (N -> N -> N) -> N -> N\n"
    "rule h G X -> h (\\X:N. \\z:N. h G X) (g X)\n"
    "rule h (\\y:N. \\z:N. y) X -> h (\\X:N. \\z:N. h (\\x:N. g) X) X\n",
    "doubling": "sort N\nz : N\nf : (N -> N) -> N -> N\nrule f F X -> f (\\y. F (F y)) X\n",
}


def chain_text(rng: random.Random, k: int, lex: bool = False, binary: int = 0) -> str:
    """A system of k defined symbols over z and s, each calling the next:
    f (s X) -> g (f X) and f z -> z, the last calling s.  Only the calling
    order, above s, orients it, so each certificate repeats the witness of
    a recursive call inside the witness of the call of the next symbol, at
    several depths.  The names are seeded, and so is the rank, below 4!,
    of the calling order among the permutations of the sorted names, so
    that certificate search meets it among its first candidates.  A lex
    head takes two arguments and needs lexicographic status: with lex, the
    first symbol is one.  With binary, at least 2, that many symbols at
    seeded places take two arguments, a seeded number of them, at least
    one, lex heads and the others heads that hold under either status, so
    the assignment of the certificate is neither the first nor the last
    that the search tries; a call of a two-argument head passes its
    argument twice."""
    names = sorted(rng.sample([a + b for a in "fghk" for b in "aeiou"], k))
    rank, order = rng.randrange(24), []
    for i in range(k, 0, -1):
        pick, rank = divmod(rank, math.factorial(i - 1))
        order.append(names.pop(pick))
    kinds = ["lex" if i == 0 and lex else "unary" for i in range(k)]
    if binary:
        places, needs_lex = rng.sample(range(k), binary), rng.randint(1, binary - 1)
        for n, i in enumerate(places):
            kinds[i] = "lex" if n < needs_lex else "either"
    decls, rules = ["sort N", "z : N", "s : N -> N"], []
    for i, f in enumerate(order):
        call = order[i + 1] if i + 1 < k else "s"
        if i + 1 < k and kinds[i + 1] != "unary":
            call = f"{call} {{0}} {{0}}"
        else:
            call += " {0}"
        if kinds[i] == "unary":
            decls.append(f"{f} : N -> N")
            rules += [f"{f} z -> z", f"{f} (s X) -> " + call.format(f"({f} X)")]
            continue
        decls.append(f"{f} : N -> N -> N")
        rules.append(f"{f} z Y -> " + call.format("Y"))
        if kinds[i] == "lex":
            rules += [f"{f} (s X) z -> {f} X (s z)", f"{f} (s X) (s Y) -> {f} X ({f} (s X) Y)"]
        else:
            rules.append(f"{f} (s X) Y -> " + call.format(f"({f} X Y)"))
    lines = decls + [f"rule {r}" for r in rules]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pattern style argument tuples for closure tests: constructor terms,
# free variables, and the occasional lambda or applied variable.

PATTERN_SYMBOLS: dict[str, Type] = {
    "0": Base("N"),
    "s": Arrow(Base("N"), Base("N")),
    "nil": Base("L"),
    "cons": Arrow(Base("N"), Arrow(Base("L"), Base("L"))),
    "pack": Arrow(Arrow(Base("N"), Base("N")), Base("L")),
}


def random_pattern_args(rng: random.Random):
    """Argument tuples as they appear on a rule left hand side, plus a
    target variable pool drawn from their free variables."""
    pool = [
        Var("F", Arrow(Base("N"), Base("N"))),
        Var("G", Arrow(Base("N"), Arrow(Base("L"), Base("N")))),
        Var("X", Base("N")),
        Var("Y", Base("N")),
        Var("L", Base("L")),
    ]
    env = tuple(rng.sample(pool, rng.randint(1, len(pool))))
    args = tuple(
        random_term(
            rng,
            PATTERN_SYMBOLS,
            Base(rng.choice(GEN_SORTS)) if rng.random() < 0.7 else random_type(rng, depth=2),
            rng.randint(1, 7),
            env=env,
            redex_rate=0.0,
        )
        for _ in range(rng.randint(1, 3))
    )
    return args
