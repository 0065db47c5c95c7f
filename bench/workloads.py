"""Seeded benchmark inputs: `.hodp` systems with expected outcomes.

Every instance carries the outcomes it may end in, fixed without running
hodp: generated systems get theirs by construction, the shipped systems a
hand-written answer.  An outcome is the exit code, then for exit 0 the
verdict, then for MAYBE the failing stage, joined by spaces: "0 YES",
"0 NO", "0 MAYBE ordering", "3".

Run as a script, it imports hodp (so that set-up pays for the import, as
every `hodp check` does), writes one workload's files and a manifest::

    python3 bench/workloads.py --workload corpus --seed 1 --out DIR

The constructions, and why each verdict holds:

- ``fo_yes``: first-order rules built to decrease in the recursive path
  order with precedence f > g > constructors and multiset status.  Right
  sides use left-side variables, constructors, calls of lower symbols and
  recursive calls whose arguments equal the left side's except one, which
  is a proper subterm of a constructor pattern.  YES, with that precedence.
- ``fo_loop``, ``growth``, ``loop``: not terminating (a right side holds an
  instance of its left side, or a rule chain leads back to its start), so a
  sound prover cannot answer YES; with --disprove a `loop` instance repeats
  a state after k + 1 steps and must give NO, a `growth` one only grows and
  ends bound-exceeded.
- ``ho_map``, ``ho_filter``, ``ho_fold``: the recursive call drops the head
  constructor of the list argument, and the functional argument is applied
  only to terms each covered by a left argument.  YES.
- ``ho_lambda``: a right side passes a lambda, whose arrow type no
  base-typed left argument can cover; ``ho_foldr``, ``foldl``: the function
  argument is applied to two arguments, beyond the conservative
  application clause (see systems/foldr.hodp); ``nested``: f (f X) ->
  f (g (f X)) is terminating but not simply terminating.  MAYBE at the
  ordering stage.
- ``chain``: defined symbols that each call the next, so exactly one order
  of them works; names are drawn so that it sits at a chosen rank of the
  lexicographic enumeration.  A ``lex`` chain head needs lexicographic
  status.  YES.
- ``foldr5`` to ``foldr8``: foldr beside len, plus and app; foldr makes
  them MAYBE whatever the rest.  ``control7`` is the same without foldr:
  plus, app and len recurse on a constructor argument, so any order with
  the defined symbols above the constructors works.  YES.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from pathlib import Path

WORKLOADS = ("corpus", "search", "explore")

ROOT = Path(__file__).resolve().parent.parent

# Hand-written answers for the shipped systems, from their comments and
# the README: foldr is beyond the strict clauses, lim's closure rejects F,
# selfloop loops (and --disprove is never passed in the corpus).
SHIPPED = {
    "beta_only": "0 YES",
    "filter": "0 YES",
    "foldr": "0 MAYBE ordering",
    "lim": "0 MAYBE admissibility",
    "map": "0 YES",
    "minus": "0 YES",
    "plus": "0 YES",
    "selfloop": "0 MAYBE ordering",
    "twice": "0 YES",
}

YES = "0 YES"
MAYBE = "0 MAYBE ordering"
NO = "0 NO"
LIMIT = "3"

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _names(rng: random.Random, k: int, taken: set[str]) -> list[str]:
    """k fresh lower-case symbol names, never a keyword."""
    out: list[str] = []
    while len(out) < k:
        n = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(1, 3)))
        if n in taken or n in ("sort", "rule", "prec"):
            continue
        taken.add(n)
        out.append(n)
    return out


def _system(sorts, symbols, rules) -> str:
    lines = ["sort " + " ".join(sorts)]
    lines += [f"{n} : {t}" for n, t in symbols]
    lines += [f"rule {lhs} -> {rhs}" for lhs, rhs in rules]
    return "\n".join(lines) + "\n"


def _app(head: str, args) -> str:
    """Curried application, arguments parenthesised when compound."""
    parts = [head] + [f"({a})" if " " in a else a for a in args]
    return " ".join(parts)


# ------------------------------------------------------------ first order


class _FoBuilder:
    """Rules over one sort U, decreasing by construction under
    precedence defined (in order) > constructors, multiset status."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        taken: set[str] = set()
        self.zero, self.ctor = _names(rng, 2, taken)
        self.ctor_arity = rng.randint(1, 2)
        self.defined = _names(rng, rng.randint(1, 2), taken)
        self.arity = {n: rng.randint(1, 2) for n in self.defined}
        self.vars = 0

    def var(self) -> str:
        self.vars += 1
        return f"X{self.vars}"

    def pattern(self, depth: int) -> tuple[str, list[str]]:
        """A linear constructor pattern of at most depth constructor
        layers, with the proper subterms that hold variables."""
        if depth == 0 or self.rng.random() < 0.3:
            v = self.var()
            return v, []
        args = []
        subs: list[str] = []
        for _ in range(self.ctor_arity):
            a, inner = self.pattern(depth - 1)
            args.append(a)
            subs += [a] + inner
        return _app(self.ctor, args), subs

    def filler(self, lhs_vars: list[str]) -> str:
        if lhs_vars and self.rng.random() < 0.7:
            return self.rng.choice(lhs_vars)
        return self.zero

    def wrap(self, core: str, head: str, lhs_vars: list[str], depth: int) -> str:
        """Surround core with constructor and lower-symbol layers."""
        lower = self.defined[self.defined.index(head) + 1:]
        for _ in range(depth):
            if lower and self.rng.random() < 0.4:
                g = self.rng.choice(lower)
                args = [self.filler(lhs_vars) for _ in range(self.arity[g])]
            else:
                g = self.ctor
                args = [self.filler(lhs_vars) for _ in range(self.ctor_arity)]
            args[self.rng.randrange(len(args))] = core
            core = _app(g, args)
        return core

    def rules_for(self, head: str) -> list[tuple[str, str]]:
        out = []
        n = self.arity[head]
        # base case: the recursive argument is the constant
        args = [self.var() for _ in range(n)]
        k = self.rng.randrange(n)
        args[k] = self.zero
        lhs_vars = [a for a in args if a != self.zero]
        core = self.filler(lhs_vars)
        out.append((_app(head, args), self.wrap(core, head, lhs_vars, self.rng.randint(0, 1))))
        # recursive case: one argument loses its head constructor
        pats = []
        for i in range(n):
            if i == k:
                pats.append(self.pattern(2))
                while not pats[-1][1]:
                    pats[-1] = self.pattern(2)
            else:
                pats.append((self.var(), []))
        lhs_args = [p for p, _ in pats]
        lhs_vars = [a for a in lhs_args if a.startswith("X")]
        for _, subs in pats:
            lhs_vars += [s for s in subs if s.startswith("X") and " " not in s]
        rec_args = list(lhs_args)
        rec_args[k] = self.rng.choice(pats[k][1])
        core = _app(head, rec_args)
        out.append((_app(head, lhs_args), self.wrap(core, head, lhs_vars, self.rng.randint(0, 2))))
        return out

    def text(self) -> str:
        symbols = [(self.zero, "U"), (self.ctor, " -> ".join(["U"] * (self.ctor_arity + 1)))]
        symbols += [(f, " -> ".join(["U"] * (self.arity[f] + 1))) for f in self.defined]
        rules = [r for f in self.defined for r in self.rules_for(f)]
        return _system(["U"], symbols, rules)

    def precedence(self) -> str:
        return ">".join(self.defined + [self.ctor, self.zero])


def fo_yes(rng: random.Random):
    b = _FoBuilder(rng)
    return b.text(), b.precedence(), [YES]


def fo_loop(rng: random.Random):
    """A right side that contains its own left side, or a two-rule cycle."""
    taken: set[str] = set()
    zero, ctor, f, g = _names(rng, 4, taken)
    symbols = [(zero, "U"), (ctor, "U -> U"), (f, "U -> U"), (g, "U -> U")]
    if rng.random() < 0.5:
        lhs = _app(f, [_app(ctor, ["X"])])
        rules = [(lhs, _app(g, [lhs])), (_app(g, ["Y"]), "Y"), (_app(f, [zero]), zero)]
    else:
        rules = [(_app(f, ["X"]), _app(g, [_app(ctor, ["X"])])),
                 (_app(g, [_app(ctor, ["X"])]), _app(f, ["X"]))]
    return _system(["U"], symbols, rules), f"{f}>{g}>{ctor}>{zero}", [MAYBE]


# ----------------------------------------------------------- higher order


def _list_symbols(rng):
    """Names for nil, cons and the defined list function."""
    return _names(rng, 3, set())


def ho_map(rng: random.Random):
    nil, cons, m = _list_symbols(rng)
    succ = _names(rng, 1, {nil, cons, m})[0]
    head = rng.choice(["F X", "F (F X)", f"F ({succ} X)", "X"])
    symbols = [(nil, "L"), (cons, "N -> L -> L"), (succ, "N -> N"), (m, "(N -> N) -> L -> L")]
    rules = [(f"{m} F {nil}", nil),
             (f"{m} F ({cons} X K)", f"{cons} ({head}) ({m} F K)")]
    return _system(["N", "L"], symbols, rules), f"{m}>{cons}>{succ}>{nil}", [YES]


def ho_filter(rng: random.Random):
    nil, cons, filt = _list_symbols(rng)
    cond = _names(rng, 1, {nil, cons, filt})[0]
    keep, drop = f"{cons} X ({filt} P K)", f"{filt} P K"
    if rng.random() < 0.5:
        keep, drop = drop, keep
    symbols = [(nil, "L"), (cons, "N -> L -> L"), (cond, "B -> L -> L -> L"),
               (filt, "(N -> B) -> L -> L")]
    rules = [(f"{filt} P {nil}", nil),
             (f"{filt} P ({cons} X K)", f"{cond} (P X) ({keep}) ({drop})")]
    return _system(["N", "L", "B"], symbols, rules), f"{filt}>{cond}>{cons}>{nil}", [YES]


def ho_fold(rng: random.Random):
    nil, cons, fd = _list_symbols(rng)
    rhs = rng.choice([f"F ({fd} F A K)", f"F (F ({fd} F A K))"])
    symbols = [(nil, "L"), (cons, "N -> L -> L"), (fd, "(N -> N) -> N -> L -> N")]
    rules = [(f"{fd} F A {nil}", "A"), (f"{fd} F A ({cons} X K)", rhs)]
    return _system(["N", "L"], symbols, rules), f"{fd}>{cons}>{nil}", [YES]


def ho_lambda(rng: random.Random):
    nil, cons, m = _list_symbols(rng)
    d = _names(rng, 1, {nil, cons, m})[0]
    symbols = [(nil, "L"), (cons, "N -> L -> L"), (m, "(N -> N) -> L -> L"), (d, "L -> L")]
    rules = [(f"{m} F {nil}", nil),
             (f"{m} F ({cons} X K)", f"{cons} (F X) ({m} F K)"),
             (f"{d} K", f"{m} (\\y:N. y) K")]
    return _system(["N", "L"], symbols, rules), f"{d}>{m}>{cons}>{nil}", [MAYBE]


def ho_foldr(rng: random.Random):
    nil, cons, fr = _list_symbols(rng)
    symbols = [(nil, "L"), (cons, "N -> L -> L"), (fr, "(N -> B -> B) -> B -> L -> B")]
    rules = [(f"{fr} F A {nil}", "A"), (f"{fr} F A ({cons} X K)", f"F X ({fr} F A K)")]
    return _system(["N", "B", "L"], symbols, rules), f"{fr}>{cons}>{nil}", [MAYBE]


def foldl(rng: random.Random):
    nil, cons, fl = _list_symbols(rng)
    symbols = [(nil, "L"), (cons, "N -> L -> L"), (fl, "(B -> N -> B) -> B -> L -> B")]
    rules = [(f"{fl} F A {nil}", "A"), (f"{fl} F A ({cons} X K)", f"{fl} F (F A X) K")]
    return _system(["N", "B", "L"], symbols, rules), None, [MAYBE]


def nested(rng: random.Random):
    zero, g, f = _names(rng, 3, set())
    symbols = [(zero, "N"), (g, "N -> N"), (f, "N -> N")]
    rules = [(f"{f} ({f} X)", f"{f} ({g} ({f} X))")]
    return _system(["N"], symbols, rules), None, [MAYBE]


# ------------------------------------------------------------------ search


def unrank(rank: int, items: list[str]) -> list[str]:
    """The permutation of sorted items at this lexicographic rank."""
    pool = sorted(items)
    out = []
    for i in range(len(pool), 0, -1):
        k, rank = divmod(rank, math.factorial(i - 1))
        out.append(pool.pop(k))
    return out


def chain(rng: random.Random, k: int, rank: int, lex: bool) -> str:
    """k defined symbols over 0 and s, each calling the next; the order
    f1 > ... > fk is the only one that works, and it is the rank-th
    permutation of the defined names in sorted order."""
    order = unrank(rank, _names(rng, k, {"z", "s"}))
    symbols = [("z", "N"), ("s", "N -> N")]
    rules = []
    for i, f in enumerate(order):
        nxt = order[i + 1] if i + 1 < len(order) else None
        call = (lambda a: _app(nxt, [a])) if nxt else (lambda a: _app("s", [a]))
        if i == 0 and lex:
            symbols.append((f, "N -> N -> N"))
            rules += [(f"{f} z Y", call("Y")),
                      (f"{f} (s X) z", f"{f} X (s z)"),
                      (f"{f} (s X) (s Y)", f"{f} X ({f} (s X) Y)")]
        else:
            symbols.append((f, "N -> N"))
            rules += [(f"{f} z", "z"), (f"{f} (s X)", call(f"{f} X"))]
    return _system(["N"], symbols, rules)


_FOLDR_DECLS = {
    "foldr": "foldr : (N -> B -> B) -> B -> List -> B",
    "len": "len : List -> N",
    "plus": "plus : N -> N -> N",
    "app": "app : List -> List -> List",
    "nil": "nil : List",
    "cons": "cons : N -> List -> List",
    "0": "0 : N",
    "s": "s : N -> N",
}
# part -> (symbols it mentions, rules)
_FOLDR_PARTS = {
    "foldr": (("foldr", "nil", "cons"),
              ["foldr F A nil -> A", "foldr F A (cons X L) -> F X (foldr F A L)"]),
    "len0": (("len", "nil", "cons", "0"),
             ["len nil -> 0", "len (cons X L) -> len L"]),
    "len": (("len", "nil", "cons", "0", "s"),
            ["len nil -> 0", "len (cons X L) -> s (len L)"]),
    "plus": (("plus", "0", "s"),
             ["plus 0 Y -> Y", "plus (s X) Y -> s (plus X Y)"]),
    "app": (("app", "nil", "cons"),
            ["app nil L -> L", "app (cons X K) L -> cons X (app K L)"]),
}
# family -> parts; constraint symbols: 5, 6, 7, 7 and 8
FOLDR_FAMILIES = {
    "foldr5": ("foldr", "len0"),
    "foldr6": ("foldr", "len"),
    "control7": ("len", "plus", "app"),
    "foldr7": ("foldr", "len", "plus"),
    "foldr8": ("foldr", "len", "plus", "app"),
}


def foldr_system(family: str, rng: random.Random | None = None) -> str:
    """foldr next to other list and number functions (control7 has no
    foldr, so its first candidate order already works).  With rng, every
    symbol gets a fresh name; a system that exhausts the enumeration costs
    the same under any names."""
    parts = [_FOLDR_PARTS[p] for p in FOLDR_FAMILIES[family]]
    used = {n for syms, _ in parts for n in syms}
    lines = ["sort N B List"] + [d for n, d in _FOLDR_DECLS.items() if n in used]
    lines += [f"rule {r}" for _, rules in parts for r in rules]
    text = "\n".join(lines) + "\n"
    if rng is not None:
        fresh = dict(zip(sorted(used), _names(rng, len(used), set())))
        text = re.sub(r"[\w']+", lambda m: fresh.get(m.group(), m.group()), text)
    return text


# ----------------------------------------------------------------- explore


def growth(rng: random.Random, binary: bool):
    """f X -> f (c X), or f X Y -> f (c X) Y when binary: every term
    reaches a bigger one, never a repeat."""
    zero, c, f = _names(rng, 3, set())
    if not binary:
        symbols = [(zero, "N"), (c, "N -> N"), (f, "N -> N")]
        rules = [(f"{f} X", f"{f} ({c} X)")]
    else:
        symbols = [(zero, "N"), (c, "N -> N"), (f, "N -> N -> N")]
        rules = [(f"{f} X Y", f"{f} ({c} X) Y")]
    return _system(["N"], symbols, rules)


def loop(rng: random.Random, k: int):
    """f (s X) -> f X and f 0 -> f (s^k 0): from f (s 0) the state f 0
    comes back after k + 1 steps."""
    zero, s, f = _names(rng, 3, set())
    tower = zero
    for _ in range(k):
        tower = f"{s} ({tower})" if " " in tower else f"{s} {tower}"
    symbols = [(zero, "N"), (s, "N -> N"), (f, "N -> N")]
    rules = [(f"{f} ({s} X)", f"{f} X"), (f"{f} {zero}", f"{f} ({tower})")]
    return _system(["N"], symbols, rules)


# ---------------------------------------------------------------- workloads


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one drawn uniformly from each of n equal slices of
    [lo, hi), in slice order: random, but the same spread every seed."""
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


def build(workload: str, seed: int, size: float = 1.0) -> list[dict]:
    """Instances of a workload as dicts: name, text, flags, expect.
    size scales every family's count (for smoke tests); fixed instances
    are kept at every size."""
    rng = random.Random(f"{workload}:{seed}")
    out: list[dict] = []

    def add(family, text, flags, expect):
        # report format alternates between JSON and text with witnesses
        flags = [("--json", "--trace")[len(out) % 2], *flags]
        out.append({"name": f"{family}-{len(out):03d}", "family": family,
                    "text": text, "flags": flags, "expect": list(expect)})

    def count(n):
        return max(1, round(n * size))

    if workload == "corpus":
        for name, expect in sorted(SHIPPED.items()):
            text = (ROOT / "systems" / f"{name}.hodp").read_text(encoding="utf-8")
            add("shipped", text, [], [expect])
        families = [(fo_yes, 120), (fo_loop, 40), (ho_map, 30), (ho_filter, 30),
                    (ho_fold, 30), (ho_lambda, 20), (ho_foldr, 20)]
        made = [(fam, *fam(rng)) for fam, n in families for _ in range(count(n))]
        for i, (fam, text, prec, expect) in enumerate(made):
            # hints go to every other pair of instances, so that hinted and
            # unhinted ones both get each report format
            hint = ["--precedence", prec] if (i // 2) % 2 == 0 else []
            add(fam.__name__, text, hint, expect)
    elif workload == "search":
        # Chain tiers (family, chain length, lex, count, rank band as a share
        # of the k! orders).  chain4 in a narrow band is a plateau of like
        # cost in which verdict_s.p50 falls.
        for family, k, lex, n, lo, hi in (
            ("chain3", 3, False, 14, 0.0, 1.0),
            ("chain3lex", 3, True, 6, 0.0, 0.5),
            ("chain4lex", 4, True, 6, 0.0, 0.2),
            ("chain4", 4, False, 45, 0.45, 0.55),
            ("chain5", 5, False, 10, 0.0, 0.2),
        ):
            for r in _stratified(rng, count(n), lo * math.factorial(k), hi * math.factorial(k)):
                add(family, chain(rng, k, int(r), lex), [], [YES])
        # Renamed foldr5 systems exhaust 240 candidates each: a plateau of
        # equal cost, just below the three fixed foldr systems, in which
        # verdict_s.p90 falls.
        for _ in range(count(12)):
            add("foldr5", foldr_system("foldr5", rng), [], [MAYBE])
        add("foldr6", foldr_system("foldr6"), [], [MAYBE])
        add("control7", foldr_system("control7"), [], [YES])
        # 61 s and about 17 min at the seed: capped, never dropped
        add("foldr7", foldr_system("foldr7"), [], [MAYBE])
        add("foldr8", foldr_system("foldr8"), [], [MAYBE])
    elif workload == "explore":
        # Growth tiers (count, depth band): a few deep ones on top, then a
        # plateau of 20 at depth 78-82 in which verdict_s.p90 falls.
        for n, lo, hi in ((2, 150, 201), (20, 78, 83), (15, 25, 70)):
            for i, depth in enumerate(_stratified(rng, count(n), lo, hi)):
                add("growth", growth(rng, i % 2 == 1),
                    ["--disprove", "--explore-depth", str(int(depth))], [MAYBE])
        for depth in (300, 400):
            # RecursionError at the seed; a budget exit 3 would be a fair answer
            add("deep", growth(rng, False), ["--disprove", "--explore-depth", str(depth)],
                [MAYBE, LIMIT])
        for k in _stratified(rng, count(40), 1, 41):
            add("loop", loop(rng, int(k)), ["--disprove"], [NO])
        for fam, n in ((nested, 10), (foldl, 8), (ho_foldr, 7)):
            for _ in range(count(n)):
                text, _, expect = fam(rng)
                add(fam.__name__, text, ["--disprove"], expect)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # spread every family over the whole run, so that no quantile is
    # measured in one short stretch of time
    rng.shuffle(out)
    return out


def write(instances: list[dict], out_dir: Path) -> Path:
    """Write each system and a manifest; returns the manifest path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for inst in instances:
        path = out_dir / f"{inst['name']}.hodp"
        path.write_text(inst["text"], encoding="utf-8")
        manifest.append({k: v for k, v in inst.items() if k != "text"} | {"file": str(path)})
    target = out_dir / "manifest.json"
    target.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return target


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--size", type=float, default=1.0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import hodp  # noqa: F401  -- set-up pays for the import, as hodp check does

    write(build(args.workload, args.seed, args.size), Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
