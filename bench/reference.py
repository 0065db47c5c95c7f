"""A fixed pure-Python workload that times the host, not the program.

On a shared host the speed of a core swings by half and more, for
seconds to minutes at a time, as neighbours come and go, and every
timing swings with it.  run.py runs `work()` between instances, on the
core its children use, all through a run; the reference times around a
measured time give the host's speed at that moment, and the harness
scales the measured time to a host on which `work()` takes REFERENCE_S.

The workload does what an analysis does most: it builds terms as nested
tuples, hashes and compares them in dictionaries, and rewrites them
recursively with a memo.  It never imports hodp, so no change to the
program can move it.
"""

from __future__ import annotations

import time

# Seconds `work()` takes on the host the scaled times refer to: about
# its time inside the harness on a busy core of the 2-vCPU x86-64 VM the
# benchmark was tuned on, with CPython 3.11.  A constant: if it changed,
# every scaled time would move with it.
REFERENCE_S = 0.009

_SYMBOLS = ("f", "g", "h", "s", "z", "cons", "nil")


def _term(state: int, depth: int) -> tuple[tuple, int]:
    """A pseudo-random term and the next generator state."""
    state = (state * 1103515245 + 12345) & 0x7FFFFFFF
    head = _SYMBOLS[state % len(_SYMBOLS)]
    if depth == 0 or state % 5 == 0:
        return (head,), state
    args = []
    for _ in range(1 + state % 3):
        arg, state = _term(state, depth - 1)
        args.append(arg)
    return (head, *args), state


def _rewrite(term: tuple, memo: dict) -> tuple:
    """Swap f and g, drop s, bottom-up, memoised per subterm."""
    done = memo.get(term)
    if done is not None:
        return done
    head, *args = term
    args = [_rewrite(a, memo) for a in args]
    if head == "s" and len(args) == 1:
        out = args[0]
    else:
        out = ({"f": "g", "g": "f"}.get(head, head), *args)
    memo[term] = out
    return out


def work() -> int:
    """The fixed workload; returns a checksum."""
    state, total = 7, 0
    for _ in range(50):
        term, state = _term(state, 7)
        memo: dict = {}
        total += len({_rewrite(term, memo), term}) + len(memo)
    return total


def timed() -> float:
    """Seconds one `work()` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(sorted(round(timed(), 4) for _ in range(20)))
