"""Three-stage pattern normalization.

Stage 1 pushes negations inward until they sit on variables or bare
constructor heads (negation normal form).  Stage 2 pushes disjunctions
outward (disjunctive normal form, a set of elementary conjuncts).  Stage 3
collapses each elementary conjunct into one of three shapes: positive
(a variable set plus a constructor application), negative (a variable set
plus a set of banned head constructors) or unsatisfiable.

Negation normal forms and elementary conjuncts are represented as plain
patterns satisfying a shape invariant (`is_nnf` / `is_conjunct`); the
normalized conjuncts get their own types below.
"""

from __future__ import annotations

from typing import Union

from .syntax import Absurd, And, Ctor, CtorName, Neg, Node, Or, Pattern, Value, Var, Wild

# Negation normal forms and elementary conjuncts, as pattern subsets.
Nnf = Pattern
Conjunct = Pattern


def neg_ctor_head(ctor: CtorName) -> Pattern:
    """The abbreviation !C for a negated constructor with wildcard args."""
    return Neg(Ctor(ctor, tuple(Wild() for _ in range(ctor.arity))))


def _is_neg_ctor_head(p: Pattern) -> bool:
    return (
        isinstance(p, Neg)
        and isinstance(p.sub, Ctor)
        and all(isinstance(a, Wild) for a in p.sub.args)
    )


def is_nnf(p: Pattern) -> bool:
    if isinstance(p, (Var, Wild, Absurd)):
        return True
    if isinstance(p, Neg):
        return isinstance(p.sub, Var) or _is_neg_ctor_head(p)
    if isinstance(p, (And, Or)):
        return is_nnf(p.left) and is_nnf(p.right)
    if isinstance(p, Ctor):
        return all(is_nnf(a) for a in p.args)
    return False


def is_conjunct(p: Pattern) -> bool:
    return is_nnf(p) and not _contains_or(p)


def _contains_or(p: Pattern) -> bool:
    if isinstance(p, Or):
        return True
    if isinstance(p, (And,)):
        return _contains_or(p.left) or _contains_or(p.right)
    if isinstance(p, Ctor):
        return any(_contains_or(a) for a in p.args)
    return False


# --- stage 1: negation normal form -------------------------------------------


def nnf(p: Pattern) -> Nnf:
    """Negation normal form; the top level starts in positive position."""
    return nnf_pos(p)


def nnf_pos(p: Pattern) -> Nnf:
    if isinstance(p, Var):
        return p
    if isinstance(p, Wild):
        return p
    if isinstance(p, Absurd):
        return p
    if isinstance(p, Neg):
        return nnf_neg(p.sub)
    if isinstance(p, And):
        return And(nnf_pos(p.left), nnf_pos(p.right))
    if isinstance(p, Or):
        return Or(nnf_pos(p.left), nnf_pos(p.right))
    if isinstance(p, Ctor):
        return Ctor(p.ctor, tuple(nnf_pos(a) for a in p.args))
    raise TypeError(f"not a pattern: {p!r}")


def nnf_neg(p: Pattern) -> Nnf:
    if isinstance(p, Var):
        return Neg(p)
    if isinstance(p, Wild):
        return Absurd()
    if isinstance(p, Absurd):
        return Wild()
    if isinstance(p, Neg):
        return nnf_pos(p.sub)
    if isinstance(p, And):
        return Or(nnf_neg(p.left), nnf_neg(p.right))
    if isinstance(p, Or):
        return And(nnf_neg(p.left), nnf_neg(p.right))
    if isinstance(p, Ctor):
        # A value fails to match C(p1..pn) by having a different head, or by
        # having the right head with some argument failing its subpattern.
        n = p.ctor.arity
        disjuncts = [neg_ctor_head(p.ctor)]
        for i in range(n):
            args = tuple(
                nnf_neg(p.args[j]) if j == i else Wild() for j in range(n)
            )
            disjuncts.append(Ctor(p.ctor, args))
        out = disjuncts[-1]
        for d in reversed(disjuncts[:-1]):
            out = Or(d, out)
        return out
    raise TypeError(f"not a pattern: {p!r}")


# --- stage 2: disjunctive normal form -----------------------------------------


def dnf(n: Nnf) -> tuple:
    """Elementary conjuncts of a pattern in negation normal form, in
    left-to-right discovery order, structurally deduplicated."""
    return tuple(dict.fromkeys(_dnf(n)))


def _dnf(n: Nnf) -> list:
    if isinstance(n, (Var, Wild, Absurd)):
        return [n]
    if isinstance(n, Neg):
        if isinstance(n.sub, Var) or _is_neg_ctor_head(n):
            return [n]
        raise ValueError(f"input not in negation normal form: {n!r}")
    if isinstance(n, Or):
        return _dnf(n.left) + _dnf(n.right)
    if isinstance(n, And):
        return [
            And(k1, k2) for k1 in _dnf(n.left) for k2 in _dnf(n.right)
        ]
    if isinstance(n, Ctor):
        arg_choices = [_dnf(a) for a in n.args]
        out = [()]
        for choices in arg_choices:
            out = [combo + (k,) for combo in out for k in choices]
        return [Ctor(n.ctor, combo) for combo in out]
    raise TypeError(f"not a pattern: {n!r}")


# --- stage 3: normalized conjuncts --------------------------------------------


class PosConj(Node):
    """Matches values headed by `ctor`, binding them to all of `vars`."""

    __slots__ = ("vars", "ctor", "args")  # args: tuple of NConjunct, one per ctor arity


class NegConj(Node):
    """Matches values whose head constructor is not in `banned`.  With an
    empty ban set this encodes a variable ({x} & !{}) or the wildcard."""

    __slots__ = ("vars", "banned")  # banned: frozenset of CtorName


class UnsatConj(Node):
    """Never matches."""

    __slots__ = ("vars",)


NConjunct = Union[PosConj, NegConj, UnsatConj]


class Ndnf(Node):
    """Disjunction of normalized conjuncts; the empty disjunction is legal
    and behaves like the absurd pattern everywhere downstream."""

    __slots__ = ("conjuncts",)  # tuple of NConjunct


WILDCARD_CONJ = NegConj(frozenset(), frozenset())


def ndnf_wildcard() -> Ndnf:
    return Ndnf((WILDCARD_CONJ,))


def normalize_conjunct(k: Conjunct) -> NConjunct:
    if isinstance(k, Var):
        return NegConj(frozenset({k.name}), frozenset())
    if isinstance(k, Wild):
        return NegConj(frozenset(), frozenset())
    if isinstance(k, Absurd):
        return UnsatConj(frozenset())
    if isinstance(k, Neg):
        if isinstance(k.sub, Var):
            # Negated variables can never be used on a right-hand side, so
            # they are collapsed into an unsatisfiable conjunct.
            return UnsatConj(frozenset())
        if _is_neg_ctor_head(k):
            return NegConj(frozenset(), frozenset({k.sub.ctor}))
        raise ValueError(f"not an elementary conjunct: {k!r}")
    if isinstance(k, Ctor):
        return PosConj(
            frozenset(), k.ctor, tuple(normalize_conjunct(a) for a in k.args)
        )
    if isinstance(k, And):
        return combine(normalize_conjunct(k.left), normalize_conjunct(k.right))
    raise TypeError(f"not a pattern: {k!r}")


def combine(a: NConjunct, b: NConjunct) -> NConjunct:
    """Merge two normalized conjuncts into one."""
    vars_ = a.vars | b.vars
    if isinstance(a, UnsatConj) or isinstance(b, UnsatConj):
        return UnsatConj(vars_)
    if isinstance(a, NegConj) and isinstance(b, NegConj):
        return NegConj(vars_, a.banned | b.banned)
    if isinstance(a, NegConj):
        a, b = b, a
    if isinstance(b, NegConj):
        if a.ctor in b.banned:
            return UnsatConj(vars_)
        return PosConj(vars_, a.ctor, a.args)
    # two positive conjuncts
    if a.ctor == b.ctor:
        return PosConj(
            vars_, a.ctor, tuple(combine(x, y) for x, y in zip(a.args, b.args))
        )
    return UnsatConj(vars_)


def to_ndnf(p: Pattern) -> Ndnf:
    """Full pipeline: negation normal form, disjunctive normal form, then
    conjunct normalization.  Disjuncts are structurally deduplicated."""
    conjuncts = [normalize_conjunct(k) for k in dnf(nnf(p))]
    return Ndnf(tuple(dict.fromkeys(conjuncts)))


# --- embedding normal forms back into patterns --------------------------------


def _sorted_ctors(ctors) -> list:
    return sorted(ctors, key=lambda c: (c.name, c.arity))


def embed_conjunct(k: NConjunct) -> Pattern:
    if isinstance(k, PosConj):
        base: Pattern = Ctor(k.ctor, tuple(embed_conjunct(a) for a in k.args))
    elif isinstance(k, NegConj):
        if not k.banned:
            base = Wild()
        else:
            negs = [neg_ctor_head(c) for c in _sorted_ctors(k.banned)]
            base = negs[-1]
            for n in reversed(negs[:-1]):
                base = And(n, base)
    elif isinstance(k, UnsatConj):
        base = Absurd()
    else:
        raise TypeError(f"not a normalized conjunct: {k!r}")
    for x in sorted(k.vars, reverse=True):
        base = And(Var(x), base)
    return base


def embed_ndnf(d: Ndnf) -> Pattern:
    """Read a normalized disjunctive normal form back as a pattern; the
    empty disjunction embeds as the absurd pattern."""
    if not d.conjuncts:
        return Absurd()
    parts = [embed_conjunct(k) for k in d.conjuncts]
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def conjunct_is_variable(k: NConjunct) -> bool:
    """True for the {x1..xn} & !{} shape (bare variables and wildcards)."""
    return isinstance(k, NegConj) and not k.banned


def cell_is_void(d: Ndnf) -> bool:
    """True when no conjunct of the disjunction can ever match."""
    return all(isinstance(k, UnsatConj) for k in d.conjuncts)


# --- matching normal forms ------------------------------------------------------


def ndnf_matches(d: Ndnf, v: Value) -> bool:
    """Does some disjunct match the value?  Agrees with
    `bool(match_pos(embed_ndnf(d), v))` in one walk over the normal form."""
    return any(_conj_matches(k, v) for k in d.conjuncts)


def _conj_matches(k: NConjunct, v: Value) -> bool:
    if isinstance(k, PosConj):
        return k.ctor == v.ctor and all(
            _conj_matches(a, w) for a, w in zip(k.args, v.args)
        )
    if isinstance(k, NegConj):
        return v.ctor not in k.banned
    return False
