"""Deciding whether two normalized patterns can match a common value.

The type-free procedure is conservative: it may report an overlap that no
value witnesses (two negative conjuncts always "overlap"), but it never
misses one.  Supplying data declarations tightens the negative/negative
case when the combined ban sets cover a whole constructor signature.
"""

from __future__ import annotations

from .normalize import Ndnf, NegConj, PosConj, WILDCARD_CONJ, to_ndnf
from .syntax import Pattern


class OverlapTypeError(ValueError):
    """Raised in type-aware mode when banned constructors fit no single
    declared type."""


# Cache for the hot type-free path; wellformedness and compilation call
# decide() heavily on the same conjunct pairs.  Fills are idempotent, so
# concurrent readers are safe.
_cache: dict = {}


def _conj_overlap(a, b, decls) -> bool:
    if decls is None:
        key = (a, b)
        hit = _cache.get(key)
        if hit is not None:
            return hit
    result = _conj_overlap_raw(a, b, decls)
    if decls is None:
        _cache[key] = result
    return result


def _conj_overlap_raw(a, b, decls) -> bool:
    if isinstance(a, NegConj) and isinstance(b, NegConj):
        if decls is None:
            return True
        banned = a.banned | b.banned
        if not banned:
            return True
        type_name = decls.owner_of_all(banned)
        if type_name is None:
            raise OverlapTypeError(
                "banned constructors "
                + ", ".join(sorted(f"{c.name}/{c.arity}" for c in banned))
                + " do not all belong to one declared type"
            )
        return banned < set(decls.ctor_names(type_name))
    if isinstance(a, NegConj):
        a, b = b, a
    if isinstance(b, NegConj):
        if a.ctor in b.banned:
            return False
        return all(_conj_overlap(arg, WILDCARD_CONJ, decls) for arg in a.args)
    # two positive conjuncts
    if a.ctor != b.ctor:
        return False
    return all(_conj_overlap(x, y, decls) for x, y in zip(a.args, b.args))


def decide(a: Ndnf, b: Ndnf, decls=None) -> bool:
    """True when some conjunct of `a` overlaps some conjunct of `b`."""
    return any(
        _conj_overlap(ka, kb, decls)
        for ka in a.conjuncts
        for kb in b.conjuncts
    )


def candidate_pairs(ndnfs) -> list:
    """The pairs (i, j), i < j, in increasing order, of NDNFs that `decide`
    may call overlapping: those with two positive conjuncts of the same
    head, a positive conjunct whose head a negative one does not ban, or two
    negative conjuncts.  Every other pair of conjuncts is disjoint before
    `_conj_overlap_raw` recurses or raises, so `decide` is False on every
    pair left out.  An index on the head constructor finds the pairs
    without looking at the others (first-argument indexing, as in Warren's
    abstract machine), so clauses with distinct heads cost nothing."""
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
    """Conservative disjointness of arbitrary patterns: never claims
    disjointness when an overlap exists, may miss some disjoint pairs."""
    return not decide(to_ndnf(p), to_ndnf(q), decls)
