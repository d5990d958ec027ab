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

from . import wellformed
from .exhaustiveness import SignatureError, useful_witness
from .syntax import Absurd, And, Ctor, Generations, Neg, Or, Pattern, fold, rebuild


class OverlapTypeError(ValueError):
    """Raised in type-aware mode when banned constructors fit no single
    declared type."""


# {p, q} -> does some value match both, in the open world; keyed on the
# interned pair, lower id first.  The young generation of `_decided`, so a
# long-lived process keeps the pairs it still asks about, not all it asked.
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
# A judgment is a pattern read at one polarity: (roots, full, flat), its
# root facts, whether every value satisfies it, and whether the head alone
# decides it, so that the root facts are exact.
_EVERY, _NONE = (_ANYTHING, True, True), (_NOTHING, False, True)


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


def roots_step(node, results) -> tuple:
    """The positive and the negative judgment of a pattern node, from its
    operands' pairs of them.  `_`, `x` and `#` are flat, and `_` and `x`
    positively full.  A constructor whose arguments are positively full is
    flat, and so are `&` and `|` of flat operands.  `&` is positively full
    where both operands are, negatively where either is; `|` is its dual."""
    kind = type(node)
    if kind is Ctor:
        head = frozenset((node.ctor,))
        pos, heads, flat = (head, None, None), _NO, True
        for (r_pos, full, _), (r_neg, _, _) in results:
            pos = _NOTHING if r_pos is _NOTHING else pos
            heads = head if r_neg is not _NOTHING else heads  # the head, failing an argument
            flat = flat and full
        return (pos, False, flat), ((heads, head, head), False, flat)
    if kind is Neg:
        return results[0][::-1]
    if kind is And or kind is Or:
        (lp, ln), (rp, rn) = results if kind is And else (r[::-1] for r in results)
        meet = _meet(lp[0], rp[0]), lp[1] and rp[1], lp[2] and rp[2]
        join = _join(ln[0], rn[0]), ln[1] or rn[1], ln[2] and rn[2]
        return (meet, join) if kind is And else (join, meet)  # `|` is `&` read negated
    return (_NONE, _EVERY) if kind is Absurd else (_EVERY, _NONE)


def _query_step(node, _, results):
    """`node` with conjunctions pushed into constructors, and its judgments."""
    roots = roots_step(node, [r[1] for r in results])
    parts = [r[0] for r in results]
    if roots[0][0] is _NOTHING or type(node) is Ctor and _ABSURD in parts:
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
    """True when some value matches `p & q`: none when their root facts do
    not meet, one when they meet in the open world and both are flat, and
    otherwise as the emptiness search finds, pushed into constructors."""
    p_facts, q_facts = wellformed.pattern_facts(p), wellformed.pattern_facts(q)
    if _meet(p_facts.roots, q_facts.roots) is _NOTHING:
        return False
    if decls is None and p_facts.pos[2] and q_facts.pos[2]:
        return True
    key = (p, q) if id(p) < id(q) else (q, p)
    if decls is None and (hit := _decided.get(key)) is not None:
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
        _decided.put(key, found)
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
