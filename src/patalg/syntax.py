"""Pattern and value syntax with non-deterministic matching.

Matching is computed as the *complete* set of derivable substitutions, for
both the "matches" and the "does not match" judgment.  Keeping every
derivation around (instead of the first hit) is what makes the soundness,
completeness and determinism properties directly testable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Union


@dataclass(frozen=True)
class CtorName:
    """Constructor identity.  Two occurrences denote the same constructor
    iff both name and arity agree, so Cons/2 and Cons/1 are distinct."""

    name: str
    arity: int

    def __str__(self) -> str:
        return self.name


# --- patterns ---------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Ctor:
    ctor: CtorName
    args: tuple  # of Pattern, length == ctor.arity

    def __post_init__(self):
        if len(self.args) != self.ctor.arity:
            raise ValueError(
                f"constructor {self.ctor.name}/{self.ctor.arity} applied "
                f"to {len(self.args)} subpatterns"
            )


@dataclass(frozen=True)
class And:
    left: "Pattern"
    right: "Pattern"


@dataclass(frozen=True)
class Or:
    left: "Pattern"
    right: "Pattern"


@dataclass(frozen=True)
class Wild:
    pass


@dataclass(frozen=True)
class Absurd:
    pass


@dataclass(frozen=True)
class Neg:
    sub: "Pattern"


Pattern = Union[Var, Ctor, And, Or, Wild, Absurd, Neg]


# --- values and substitutions ------------------------------------------------


@dataclass(frozen=True)
class Value:
    ctor: CtorName
    args: tuple  # of Value

    def __post_init__(self):
        if len(self.args) != self.ctor.arity:
            raise ValueError(
                f"value constructor {self.ctor.name}/{self.ctor.arity} "
                f"applied to {len(self.args)} arguments"
            )


class Mapping(NamedTuple):
    var: str
    value: Value


# A substitution is an ordered list of mappings; nonlinear patterns can
# legitimately produce lists binding the same variable twice.
Subst = tuple  # tuple[Mapping, ...]
SubstSet = tuple  # tuple[Subst, ...], canonical and deduplicated


def _value_key(v: Value):
    return (v.ctor.name, v.ctor.arity, tuple(_value_key(a) for a in v.args))


def _mapping_key(m: Mapping):
    return (m.var, _value_key(m.value))


def canon_subst(s) -> Subst:
    """Sort mappings by variable then value; duplicated identical mappings
    collapse (set reading of substitution equivalence)."""
    return tuple(sorted(set(s), key=_mapping_key))


def _canon_set(substs) -> SubstSet:
    seen = {}
    for s in substs:
        c = canon_subst(s)
        seen.setdefault(c, None)
    return tuple(sorted(seen, key=lambda s: tuple(_mapping_key(m) for m in s)))


def subst_equiv(s1, s2) -> bool:
    """Substitutions are equivalent iff they contain the same mappings
    (order and multiplicity ignored)."""
    return set(s1) == set(s2)


def is_proper(s) -> bool:
    """No variable occurs twice in the domain."""
    return len({m.var for m in s}) == len(s)


def subst_to_dict(s) -> dict:
    """Dict view of a proper substitution; first binding wins otherwise."""
    out = {}
    for m in s:
        out.setdefault(m.var, m.value)
    return out


# --- free variables ----------------------------------------------------------


def fv_even(p: Pattern) -> frozenset:
    """Variables occurring under an even number of negations."""
    if isinstance(p, Var):
        return frozenset({p.name})
    if isinstance(p, (Wild, Absurd)):
        return frozenset()
    if isinstance(p, Neg):
        return fv_odd(p.sub)
    if isinstance(p, (And, Or)):
        return fv_even(p.left) | fv_even(p.right)
    if isinstance(p, Ctor):
        return frozenset().union(*(fv_even(a) for a in p.args)) if p.args else frozenset()
    raise TypeError(f"not a pattern: {p!r}")


def fv_odd(p: Pattern) -> frozenset:
    """Variables occurring under an odd number of negations."""
    if isinstance(p, Var):
        return frozenset()
    if isinstance(p, (Wild, Absurd)):
        return frozenset()
    if isinstance(p, Neg):
        return fv_even(p.sub)
    if isinstance(p, (And, Or)):
        return fv_odd(p.left) | fv_odd(p.right)
    if isinstance(p, Ctor):
        return frozenset().union(*(fv_odd(a) for a in p.args)) if p.args else frozenset()
    raise TypeError(f"not a pattern: {p!r}")


def map_vars(p: Pattern, f) -> Pattern:
    """The pattern with every variable occurrence `Var` replaced by the
    pattern `f(Var)`."""
    if isinstance(p, Var):
        return f(p)
    if isinstance(p, (Wild, Absurd)):
        return p
    if isinstance(p, Neg):
        return Neg(map_vars(p.sub, f))
    if isinstance(p, (And, Or)):
        return type(p)(map_vars(p.left, f), map_vars(p.right, f))
    if isinstance(p, Ctor):
        return Ctor(p.ctor, tuple(map_vars(a, f) for a in p.args))
    raise TypeError(f"not a pattern: {p!r}")


# --- matching ----------------------------------------------------------------


class SoundnessError(RuntimeError):
    """A result failed the check that proves it sound.  The checks are
    explicit raises, so they also run under `python -O`."""


_match_cache: dict = {}


def clear_match_cache() -> None:
    _match_cache.clear()


def _products(sets) -> list:
    """All concatenations picking one substitution from each set."""
    out = []
    for combo in itertools.product(*sets):
        merged = ()
        for s in combo:
            merged = merged + s
        out.append(merged)
    return out


def match_both(p: Pattern, v: Value):
    """All derivations of the positive and the negative matching judgment.

    Exactly one of the two returned sets is nonempty for every input: the
    rules are sound and complete, which is checked on every result.
    """
    key = (p, v)
    hit = _match_cache.get(key)
    if hit is not None:
        return hit

    if isinstance(p, Var):
        pos, neg = [(Mapping(p.name, v),)], []
    elif isinstance(p, Wild):
        pos, neg = [()], []
    elif isinstance(p, Absurd):
        pos, neg = [], [()]
    elif isinstance(p, Neg):
        sub_pos, sub_neg = match_both(p.sub, v)
        pos, neg = list(sub_neg), list(sub_pos)
    elif isinstance(p, And):
        lpos, lneg = match_both(p.left, v)
        rpos, rneg = match_both(p.right, v)
        pos = _products([lpos, rpos]) if lpos and rpos else []
        neg = list(lneg) + list(rneg)
    elif isinstance(p, Or):
        lpos, lneg = match_both(p.left, v)
        rpos, rneg = match_both(p.right, v)
        pos = list(lpos) + list(rpos)
        neg = _products([lneg, rneg]) if lneg and rneg else []
    elif isinstance(p, Ctor):
        if p.ctor != v.ctor:
            pos, neg = [], [()]
        else:
            arg_results = [match_both(pi, vi) for pi, vi in zip(p.args, v.args)]
            arg_pos = [r[0] for r in arg_results]
            if all(arg_pos):
                pos = _products(arg_pos)
            else:
                pos = []
            neg = [s for (_, ns) in arg_results for s in ns]
    else:
        raise TypeError(f"not a pattern: {p!r}")

    result = (_canon_set(pos), _canon_set(neg))
    if result[0] and result[1]:
        raise SoundnessError(f"matching unsound for {p!r} vs {v!r}")
    if not (result[0] or result[1]):
        raise SoundnessError(f"matching incomplete for {p!r} vs {v!r}")
    _match_cache[key] = result
    return result


def match_pos(p: Pattern, v: Value) -> SubstSet:
    """Substitutions of all derivations showing that p matches v."""
    return match_both(p, v)[0]


def match_neg(p: Pattern, v: Value) -> SubstSet:
    """Substitutions of all derivations showing that p does not match v."""
    return match_both(p, v)[1]


def pattern_equiv_bounded(p: Pattern, q: Pattern, universe) -> bool:
    """Bounded approximation of semantic pattern equivalence: over every
    value of the (finite) universe, the positive and negative derivation
    sets must cover each other up to substitution equivalence."""
    for v in universe:
        p_pos, p_neg = match_both(p, v)
        q_pos, q_neg = match_both(q, v)
        # Canonical substitutions make coverage-up-to-equivalence plain
        # set equality.
        if set(p_pos) != set(q_pos) or set(p_neg) != set(q_neg):
            return False
    return True
