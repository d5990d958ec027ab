"""A fixed reference task that measures how fast this process runs right now.

The host this benchmark runs on is shared, and its speed swings by up to
~1.8x over seconds and minutes as other tenants load it.  `calib()` does a
fixed amount of work shaped like patalg's own: frozen dataclasses built into
trees, hashed into a memo dict, and walked recursively with isinstance
dispatch.  Its CPU time, taken in the same process right before and right
after a `patc` command, tracks the speed that command ran at, so dividing
by it removes most of the host's noise.  It uses no patalg code, so a
change to patalg never changes the reference.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# CPU seconds calib() takes at the reference speed; normalized times are
# scaled to it.  It is roughly the fast-mode value on a 2 GHz Xeon guest.
REF_S = 0.05


@dataclass(frozen=True)
class _Leaf:
    name: str


@dataclass(frozen=True)
class _Node:
    tag: str
    left: object
    right: object


def _build(depth: int, i: int):
    if depth == 0:
        return _Leaf("abcdefgh"[i % 8])
    return _Node("PQ"[i % 2], _build(depth - 1, i * 3 + 1), _build(depth - 1, i * 5 + 2))


def _names(tree, memo: dict) -> frozenset:
    hit = memo.get(tree)
    if hit is not None:
        return hit
    if isinstance(tree, _Leaf):
        out = frozenset((tree.name,))
    else:
        out = _names(tree.left, memo) | _names(tree.right, memo)
    memo[tree] = out
    return out


def calib(rounds: int = 12) -> float:
    """CPU seconds of the reference task.  The collector is off meanwhile,
    so the objects a patc command left alive do not add to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        for k in range(rounds):
            memo: dict = {}
            for j in range(2):
                _names(_build(9, k * 7 + j), memo)
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()
