"""Deciding whether two normalized patterns can match a common value.

Normal forms hold only satisfiable conjuncts, so in the open world two
normal forms overlap exactly when some pair of their conjuncts combines
(`normalize.combine`).  With data declarations the combined conjunct must
also have a value (`exhaustiveness.inhabitant`), which ban sets covering
a whole declared type leave it without.
"""

from __future__ import annotations

from .exhaustiveness import SignatureError, inhabitant
from .normalize import Ndnf, NegConj, PosConj, combine, to_ndnf
from .syntax import Pattern


class OverlapTypeError(ValueError):
    """Raised in type-aware mode when banned constructors fit no single
    declared type."""


# Cache for the hot type-free path; wellformedness and compilation call
# decide() heavily on the same conjunct pairs.  Fills are idempotent, so
# concurrent readers are safe.
_cache: dict = {}


def _open_overlap(a, b) -> bool:
    """`combine(a, b) is not None`, cached."""
    hit = _cache.get((a, b))
    if hit is None:
        hit = _cache[(a, b)] = combine(a, b) is not None
    return hit


def decide(a: Ndnf, b: Ndnf, decls=None) -> bool:
    """True when some value matches both normal forms: some conjunct of
    `a` combines with some conjunct of `b`, and with declarations the
    combined conjunct has a value."""
    pairs = ((ka, kb) for ka in a.conjuncts for kb in b.conjuncts)
    if decls is None:
        return any(_open_overlap(ka, kb) for ka, kb in pairs)
    try:
        return any(
            (k := combine(ka, kb)) is not None and inhabitant(k, None, decls) is not None
            for ka, kb in pairs
        )
    except SignatureError as err:
        shown = ", ".join(sorted(f"{c.name}/{c.arity}" for c in err.ctors))
        raise OverlapTypeError(
            f"banned constructors {shown} do not all belong to one declared type"
        ) from None


def candidate_pairs(ndnfs) -> list:
    """The pairs (i, j), i < j, in increasing order, of NDNFs that `decide`
    may call overlapping: those with two positive conjuncts of the same
    head, a positive conjunct whose head a negative one does not ban, or two
    negative conjuncts.  `combine` gives None on every other pair of
    conjuncts, so `decide` is False on every pair left out.  An index on
    the head constructor finds the pairs without looking at the others
    (first-argument indexing, as in Warren's abstract machine), so clauses
    with distinct heads cost nothing."""
    by_head: dict = {}  # head -> increasing indices of NDNFs with that positive head
    negative = []  # increasing indices of NDNFs with a negative conjunct
    bans = []  # per NDNF, the ban sets of its negative conjuncts
    for i, d in enumerate(ndnfs):
        heads = {k.ctor for k in d.conjuncts if isinstance(k, PosConj)}
        for c in heads:
            by_head.setdefault(c, []).append(i)
        bans.append([k.banned for k in d.conjuncts if isinstance(k, NegConj)])
        if bans[-1]:
            negative.append(i)
    later: dict = {}  # i -> the j > i paired with it
    for same in by_head.values():
        for n, i in enumerate(same[:-1]):
            later.setdefault(i, set()).update(same[n + 1 :])
    for n, j in enumerate(negative):
        if n + 1 < len(negative):
            later.setdefault(j, set()).update(negative[n + 1 :])
        for c, with_head in by_head.items():
            if any(c not in banned for banned in bans[j]):
                for i in with_head:
                    if i < j:
                        later.setdefault(i, set()).add(j)
                    elif i > j:
                        later.setdefault(j, set()).add(i)
    return [(i, j) for i in sorted(later) for j in sorted(later[i])]


def disjoint(p: Pattern, q: Pattern, decls=None) -> bool:
    """No value matches both patterns, as `decide` reads the world."""
    return not decide(to_ndnf(p), to_ndnf(q), decls)
