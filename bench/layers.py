"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions of the hodp modules and rebinds
every module's binding of each one, since pipeline, ordering and engine
import by name.  Nothing under src/ changes.  Three kinds of wrapper:

- span: a record (id, parent id, name, start, end) per call, kept in
  memory; for the layer boundaries, a few calls per analysis;
- hot: call count and summed time of outermost calls only, for kernel
  and per-candidate functions called thousands of times;
- count: call count only, for PathOrder.greater, which recurses.

A self-recursive hot function is wrapped around a private copy whose
recursive calls bypass the wrapper, so tracing adds one frame, not one
per level, and deep terms hit the recursion limit where they do untraced.

`layer_metrics` turns the snapshots of many analyses into the per-layer
metrics named in bench/README.md.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from typing import Callable

# (module, attribute, metric key, kind); attribute may be Class.method
TARGETS = (
    ("hodp.cli", "main", "cli", "span"),
    ("hodp.parser", "parse_system", "parser", "span"),
    ("hodp.parser", "parse_precedence_arg", "parser.hint", "span"),
    ("hodp.pipeline", "run_pipeline", "pipeline", "span"),
    ("hodp.pipeline", "render_json", "render", "span"),
    ("hodp.pipeline", "render_text", "render", "span"),
    ("hodp.pairs", "extract_pairs", "pairs", "span"),
    ("hodp.ordering", "search_certificate", "search", "span"),
    ("hodp.ordering", "check_with_statuses", "hint", "span"),
    ("hodp.engine", "disprove_seeds", "seeds", "span"),
    ("hodp.engine", "bounded_explore", "explore", "span"),
    ("hodp.closure", "rule_admissibility", "closure", "hot"),
    ("hodp.ordering", "check_constraints", "check", "hot"),
    ("hodp.ordering", "weakly_decreases", "weak", "hot"),
    ("hodp.ordering", "PathOrder.greater", "greater", "count"),
    ("hodp.engine", "rewrite_steps", "steps", "hot"),
    ("hodp.engine", "pair_root_steps", "steps", "hot"),
    ("hodp.terms", "alpha_canonical", "canon", "hot"),
    ("hodp.terms", "match_pattern", "match", "hot"),
    ("hodp.terms", "apply_subst", "subst", "hot"),
)

# Per-layer metrics: name -> unit, in report order.
LAYER_UNITS = {
    "parser.s": "s",
    "parser.bytes_per_s": "B/s",
    "closure.s": "s",
    "closure.size_mean": "count",
    "pairs.s": "s",
    "pairs.count": "count",
    "pipeline.render_s": "s",
    "pipeline.report_bytes": "B",
    "cli.self_s": "s",
    "ordering.search_s": "s",
    "ordering.hint_s": "s",
    "ordering.candidates": "count",
    "ordering.check_s": "s",
    "ordering.greater_calls": "count",
    "ordering.weak_s": "s",
    "ordering.yes_per_candidate": "ratio",
    "engine.seeds_s": "s",
    "engine.explore_s": "s",
    "engine.states": "count",
    "engine.steps_s": "s",
    "engine.cycle_share": "ratio",
    "terms.canon_calls": "count",
    "terms.canon_hit_ratio": "ratio",
    "terms.cache_entries": "count",
    "terms.canon_s": "s",
    "terms.match_s": "s",
    "terms.subst_s": "s",
    "trace.overhead_s": "s",
}


def _private_copy(fn: types.FunctionType) -> types.FunctionType:
    """A copy of fn whose calls to its own name reach the copy."""
    if fn.__name__ not in fn.__code__.co_names:
        return fn
    scope = dict(fn.__globals__)
    copy = types.FunctionType(fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__)
    copy.__kwdefaults__ = fn.__kwdefaults__
    scope[fn.__name__] = copy
    return copy


class Tracer:
    """Collects spans and counters in the process that runs an analysis.

    Install it once in the harness before forking; each child starts with
    the empty state it inherits and sends `snapshot()` back.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.stack: list[int] = []
        self.hot: dict[str, list[float]] = {}  # key -> [calls, seconds]
        self.extra: dict[str, float] = {}
        self.active: dict[str, int] = {}
        self.canon_cache = None

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    # ------------------------------------------------------------ wrappers

    def _span(self, key: str, fn: Callable, post: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            record = [sid, parent, key, time.perf_counter(), None]
            self.spans.append(record)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(args, result)
                return result
            finally:
                record[4] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def _hot(self, key: str, fn: Callable, post: Callable | None) -> Callable:
        slot = self.hot.setdefault(key, [0, 0.0])
        self.active.setdefault(key, 0)
        active = self.active

        def wrapper(*args, **kwargs):
            slot[0] += 1
            if active[key]:
                return fn(*args, **kwargs)
            active[key] = 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(args, result)
                return result
            finally:
                slot[1] += time.perf_counter() - start
                active[key] = 0

        return wrapper

    def _count(self, key: str, fn: Callable) -> Callable:
        slot = self.hot.setdefault(key, [0, 0.0])

        def wrapper(*args, **kwargs):
            slot[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _post(self, key: str) -> Callable | None:
        add = self.add
        if key == "parser":
            return lambda args, r: add("parser.bytes", len(args[0].encode()))
        if key == "render":
            return lambda args, r: add("render.bytes", len(r.encode()))
        if key == "pairs":
            return lambda args, r: add("pairs.count", len(r))
        if key == "closure":
            return lambda args, r: add("closure.size", r.closure_size)
        if key == "check":
            return lambda args, r: add("check.yes", r.certificate is not None)
        if key == "explore":
            def explored(args, r):
                add("explore.calls", 1)
                add("explore.states", r.expanded)
                add("explore.cycles", r.kind == "cycle")
            return explored
        return None

    def install(self) -> None:
        """Wrap every target and rebind it in every loaded hodp module."""
        for module_name, attr, key, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner, name = module, attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(module, cls_name)
            original = getattr(owner, name)
            if kind == "span":
                wrapper = self._span(key, original, self._post(key))
            elif kind == "hot":
                inner = original
                if isinstance(original, types.FunctionType):
                    inner = _private_copy(original)
                wrapper = self._hot(key, inner, self._post(key))
            else:
                wrapper = self._count(key, original)
            if key == "canon":
                self.canon_cache = original
            if owner is not module:
                setattr(owner, name, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "hodp":
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)

    def snapshot(self) -> dict:
        """Counters, spans and cache statistics of this process so far."""
        out = {"spans": self.spans, "hot": self.hot, "extra": self.extra}
        if self.canon_cache is not None:
            info = self.canon_cache.cache_info()
            out["canon_cache"] = [info.hits, info.misses, info.currsize]
        return out


# -------------------------------------------------------------- reduction


def _span_totals(spans: list[list]) -> tuple[dict[str, float], float]:
    """Summed duration per span name, and summed self time of cli spans
    (span minus the part its direct children cover)."""
    totals: dict[str, float] = {}
    children: dict[int, float] = {}
    for sid, parent, name, start, end in spans:
        if end is None:
            continue
        totals[name] = totals.get(name, 0.0) + end - start
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + end - start
    cli_self = sum(
        end - start - children.get(sid, 0.0)
        for sid, _, name, start, end in spans
        if name == "cli" and end is not None
    )
    return totals, cli_self


def layer_metrics(snapshots: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics over the snapshots of many analyses: times and
    counts are means per analysis, ratios are taken over the totals."""
    n = max(1, len(snapshots))
    span: dict[str, float] = {}
    hot: dict[str, list[float]] = {}
    extra: dict[str, float] = {}
    cli_self = 0.0
    hits = calls = entries = 0
    for snap in snapshots:
        totals, own = _span_totals(snap["spans"])
        cli_self += own
        for k, v in totals.items():
            span[k] = span.get(k, 0.0) + v
        for k, (c, s) in snap["hot"].items():
            slot = hot.setdefault(k, [0, 0.0])
            slot[0] += c
            slot[1] += s
        for k, v in snap["extra"].items():
            extra[k] = extra.get(k, 0) + v
        if "canon_cache" in snap:
            h, m, size = snap["canon_cache"]
            hits += h
            calls += h + m
            entries += size

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def hot_s(k: str) -> float:
        return hot.get(k, [0, 0.0])[1] / n

    def hot_calls(k: str) -> float:
        return hot.get(k, [0, 0.0])[0]

    parse_s = span.get("parser", 0.0)
    return {
        "parser.s": (parse_s + span.get("parser.hint", 0.0)) / n,
        "parser.bytes_per_s": ratio(extra.get("parser.bytes", 0), parse_s),
        "closure.s": hot_s("closure"),
        "closure.size_mean": ratio(extra.get("closure.size", 0), hot_calls("closure")),
        "pairs.s": span.get("pairs", 0.0) / n,
        "pairs.count": extra.get("pairs.count", 0) / n,
        "pipeline.render_s": span.get("render", 0.0) / n,
        "pipeline.report_bytes": extra.get("render.bytes", 0) / n,
        "cli.self_s": cli_self / n,
        "ordering.search_s": span.get("search", 0.0) / n,
        "ordering.hint_s": span.get("hint", 0.0) / n,
        "ordering.candidates": hot_calls("check") / n,
        "ordering.check_s": hot_s("check"),
        "ordering.greater_calls": hot_calls("greater") / n,
        "ordering.weak_s": hot_s("weak"),
        "ordering.yes_per_candidate": ratio(extra.get("check.yes", 0), hot_calls("check")),
        "engine.seeds_s": span.get("seeds", 0.0) / n,
        "engine.explore_s": span.get("explore", 0.0) / n,
        "engine.states": extra.get("explore.states", 0) / n,
        "engine.steps_s": hot_s("steps"),
        "engine.cycle_share": ratio(extra.get("explore.cycles", 0), extra.get("explore.calls", 0)),
        "terms.canon_calls": calls / n,
        "terms.canon_hit_ratio": ratio(hits, calls),
        "terms.cache_entries": entries / n,
        "terms.canon_s": hot_s("canon"),
        "terms.match_s": hot_s("match"),
        "terms.subst_s": hot_s("subst"),
        "trace.overhead_s": overhead_s,
    }
