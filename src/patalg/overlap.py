"""Deciding whether two patterns can match a common value.

Two patterns overlap when some value matches `p & q`: the emptiness
question of `exhaustiveness.useful_witness`, asked of the source patterns
with no normal form built.  Without declarations the world is open; with
them, ban sets covering a whole declared type leave no value.  Before the
search, one `syntax.fold` pushes conjunctions into constructors
(`C(p̄) & C(q̄)` becomes `C(p̄ & q̄)`, `C(p̄) & D(q̄)` becomes `#`), so a clash
is found in its own column, and replaces by `#` each subpattern whose
root facts admit no value.
"""

from __future__ import annotations

from itertools import combinations

from .exhaustiveness import SignatureError, useful_witness
from .syntax import Absurd, And, Ctor, Generations, Neg, Or, Pattern, fold, rebuild


class OverlapTypeError(ValueError):
    """Raised in type-aware mode when banned constructors fit no single
    declared type."""


# (p, q) -> does some value match both, in the open world; keyed on the
# interned patterns.  The young generation of `_decided`, so a long-lived
# process keeps the pairs it still asks about, not every pair it asked.
_cache: dict = {}
_decided = Generations(_cache)

# The root facts of a pattern at one polarity are (heads, banned, bans): a
# value it matches has its head in `heads`, or outside `banned` where that
# is not None.  Of its normal form, `heads` holds the positive conjuncts'
# heads, and `banned` and `bans` are the intersection and the union of the
# ban sets; arguments are not read, so they over-approximate it.
_NO: frozenset = frozenset()
_NOTHING, _ANYTHING = (_NO, None, None), (_NO, _NO, _NO)
_ABSURD = Absurd()


def _meet(a, b):
    if a is _ANYTHING or b is _NOTHING or a is _NOTHING or b is _ANYTHING:
        return b if a is _ANYTHING or b is _NOTHING else a  # the smaller one
    (ha, ia, ua), (hb, ib, ub) = a, b
    heads = ha & hb | (_NO if ib is None else ha - ib) | (_NO if ia is None else hb - ia)
    if ia is None or ib is None:
        return (heads, None, None) if heads else _NOTHING
    return heads, ia | ib, ua | ub


def _join(a, b):
    if a is _NOTHING or b is _NOTHING:
        return b if a is _NOTHING else a
    (ha, ia, ua), (hb, ib, ub) = a, b
    if ia is None or ib is None:
        return (ha | hb, ia, ua) if ib is None else (ha | hb, ib, ub)
    return ha | hb, ia & ib, ua | ub


def roots_meet(a, b) -> bool:
    """Do the root facts `a` and `b` admit a common head?"""
    return _meet(a, b) is not _NOTHING


def roots_step(node, results) -> tuple:
    """The root facts of a pattern node read positively and negatively,
    from its operands' pairs of them."""
    kind = type(node)
    if kind is Ctor:
        head = frozenset((node.ctor,))
        pos, heads = (head, None, None), _NO
        for r_pos, r_neg in results:
            pos = _NOTHING if r_pos is _NOTHING else pos
            heads = head if r_neg is not _NOTHING else heads  # the head, failing an argument
        return pos, (heads, head, head)
    if kind is Neg:
        return results[0][::-1]
    if kind is And or kind is Or:
        (lp, ln), (rp, rn) = results
        return (_join(lp, rp), _meet(ln, rn)) if kind is Or else (_meet(lp, rp), _join(ln, rn))
    return (_NOTHING, _ANYTHING) if kind is Absurd else (_ANYTHING, _NOTHING)


def _query_step(node, _, results):
    """`node` with conjunctions pushed into constructors, and its root facts."""
    roots = roots_step(node, [r[1] for r in results])
    parts = [r[0] for r in results]
    if roots[0] is _NOTHING or type(node) is Ctor and _ABSURD in parts:
        return _ABSURD, roots
    if type(node) is And and type(parts[0]) is Ctor and type(parts[1]) is Ctor:
        return fold(tuple(parts), _merge_step, None, _arg_pairs), roots
    return rebuild(node, parts), roots


def _arg_pairs(pair, _):
    a, b = pair
    if type(a) is Ctor and type(b) is Ctor and a.ctor is b.ctor:
        return tuple((ab, None) for ab in zip(a.args, b.args))
    return ()


def _merge_step(pair, _, results):
    a, b = pair
    if type(a) is not Ctor or type(b) is not Ctor:
        return And(a, b)
    return _ABSURD if a.ctor is not b.ctor or _ABSURD in results else Ctor(a.ctor, tuple(results))


def decide(p: Pattern, q: Pattern, decls=None) -> bool:
    """True when the emptiness search finds a value of `p & q`, pushed
    into constructors; a pair whose root facts do not meet needs none."""
    if decls is None and (hit := _decided.get((p, q))) is not None:
        return hit
    query = fold(And(p, q), _query_step)[0]
    try:
        found = query is not _ABSURD and useful_witness((), (query,), decls) is not None
    except SignatureError as err:
        shown = ", ".join(sorted(f"{c.name}/{c.arity}" for c in err.ctors))
        raise OverlapTypeError(
            f"banned constructors {shown} do not all belong to one declared type"
        ) from None
    if decls is None:
        _decided.put((p, q), found)
    return found


def candidate_pairs(roots) -> list:
    """The pairs (i, j), i < j, in increasing order, of patterns with the
    positive root facts `roots` that `decide` may call overlapping: two
    with a head in common, a head one leaves to the other's `banned`, or
    two with a `banned`.  An index on the head constructor finds the pairs
    without looking at the others (first-argument indexing, as in Warren's
    abstract machine), so clauses with distinct heads cost nothing."""
    by_head: dict = {}  # head -> increasing indices of patterns with that head
    for i, (heads, _, _) in enumerate(roots):
        for c in heads:
            by_head.setdefault(c, []).append(i)
    negative = [i for i, (_, banned, _) in enumerate(roots) if banned is not None]
    pairs = set(combinations(negative, 2)).union(*(combinations(s, 2) for s in by_head.values()))
    for j in negative:
        for c, with_head in by_head.items():
            if c not in roots[j][1]:
                pairs.update((min(i, j), max(i, j)) for i in with_head if i != j)
    return sorted(pairs)


def disjoint(p: Pattern, q: Pattern, decls=None) -> bool:
    """No value matches both patterns, as `decide` reads the world."""
    return not decide(p, q, decls)
