"""Deciding whether two patterns can match a common value: whether the
decision diagram of `p & q` (`diagram`) has a path with a value,
in the open world or at the types that declarations give.
"""

from __future__ import annotations

from .exhaustiveness import SignatureError, overlaps, useful_witness
from .syntax import And, Generations, Pattern


class OverlapTypeError(ValueError):
    """Raised in type-aware mode when constructors a test names fit no
    single declared type."""


# {p, q} -> does some value match both, in the open world; keyed on the
# interned pair, lower id first.  The young generation of `_decided`, so a
# long-lived process keeps the pairs it still asks about, not all it asked.
_cache: dict = {}
_decided = Generations(_cache)


def decide(p: Pattern, q: Pattern, decls=None) -> bool:
    """True when some value matches `p & q`: in the open world, when the
    diagram of `p & q` is not the false sink, and with declarations, when
    the least-value walk finds a value of it."""
    if decls is not None:
        try:
            return useful_witness((), (And(p, q),), decls) is not None
        except SignatureError as err:
            shown = ", ".join(sorted(f"{c.name}/{c.arity}" for c in err.ctors))
            raise OverlapTypeError(
                f"banned constructors {shown} do not all belong to one declared type"
            ) from None
    key = (p, q) if id(p) < id(q) else (q, p)
    if (hit := _decided.get(key)) is None:
        hit = _decided.put(key, overlaps(p, q))
    return hit


def disjoint(p: Pattern, q: Pattern, decls=None) -> bool:
    """No value matches both patterns, as `decide` reads the world."""
    return not decide(p, q, decls)
