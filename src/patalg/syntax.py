"""Pattern and value syntax with non-deterministic matching.

Every syntax node, and every other immutable record of the package, is
hash-consed (`Node`): equal nodes are one object, so equality and hashing
are identity and never walk a tree.

Matching is computed as the *complete* set of derivable substitutions, for
both the "matches" and the "does not match" judgment.  Keeping every
derivation around (instead of the first hit) is what makes the soundness,
completeness and determinism properties directly testable.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import NamedTuple, Union


# --- hash-consed nodes ---------------------------------------------------------


class _Entry(weakref.ref):
    """A table entry: a weak reference to a node, carrying the node's key."""

    __slots__ = ("key",)


def _forget(entry: _Entry) -> None:
    # Runs when the node dies; a node built since under the same key keeps
    # its own entry.
    with _lock:
        if _table.get(entry.key) is entry:
            del _table[entry.key]


# (class, *fields) -> the entry of the one live node with them.
_table: dict = {}
# Makes each check-then-act on the table atomic, so that threads building
# equal nodes get one node.  Re-entrant: an insertion may free an entry
# whose key held the last reference to a node, whose `_forget` then runs.
_lock = threading.RLock()


class Node:
    """Base of every immutable record: constructor names, patterns, values,
    normal forms, expressions, clause matrices, decision trees, types and
    results.  A node is built from its fields in `__slots__` order.
    Construction looks (class, *fields) up in one table and returns the
    node already there, so equal nodes are one object and `==` and `hash`
    are the identity defaults.  Children are nodes, so the key compares
    them by identity and a construction costs one probe.  The table holds
    its nodes weakly: an entry lasts as long as something else refers to
    its node (Filliâtre & Conchon, "Type-Safe Modular Hash-Consing", ML
    2006).  Nodes are immutable.  A class with fields (ctor, args) may set
    `_arity`, the message for args that do not number ctor's arity; it is
    checked when a node is first built.  `_defaults` are the values of the
    trailing fields a construction may leave out.  The `repr` of a pattern,
    value, normal form or expression is its text from `pretty.format_node`,
    which does not recurse on the depth of the node."""

    __slots__ = ("__weakref__",)
    _arity = None
    _defaults = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__["__slots__"]

    def __new__(cls, *fields):
        key = (cls, *fields)
        entry = _table.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        missing = len(cls._fields) - len(fields)
        if missing:
            if not 0 < missing <= len(cls._defaults):
                raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields")
            return cls(*fields, *cls._defaults[-missing:])
        if cls._arity and len(fields[1]) != fields[0].arity:
            ctor = fields[0]
            raise ValueError(cls._arity.format(ctor.name, ctor.arity, len(fields[1])))
        with _lock:
            entry = _table.get(key)
            node = entry() if entry is not None else None
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(cls._fields, fields):
                    object.__setattr__(node, name, value)
                entry = _Entry(node, _forget)
                entry.key = key
                _table[key] = entry
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an interned node")

    def __repr__(self) -> str:
        from .pretty import format_node

        text = format_node(self)
        if text is not None:
            return f"{type(self).__qualname__}({text})"
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


class CtorName(Node):
    """Constructor identity.  Two occurrences denote the same constructor
    iff both name and arity agree, so Cons/2 and Cons/1 are distinct."""

    __slots__ = ("name", "arity")

    def __str__(self) -> str:
        return self.name


# --- patterns ---------------------------------------------------------------


class Var(Node):
    __slots__ = ("name",)


class Ctor(Node):
    __slots__ = ("ctor", "args")  # args: tuple of Pattern, one per ctor arity
    _arity = "constructor {}/{} applied to {} subpatterns"


class And(Node):
    __slots__ = ("left", "right")


class Or(Node):
    __slots__ = ("left", "right")


class Wild(Node):
    __slots__ = ()


class Absurd(Node):
    __slots__ = ()


class Neg(Node):
    __slots__ = ("sub",)


Pattern = Union[Var, Ctor, And, Or, Wild, Absurd, Neg]


# --- values and substitutions ------------------------------------------------


class Value(Node):
    """Ground data, and the expression node for it: `semantics.ECtor` over
    values constructs a `Value`."""

    __slots__ = ("ctor", "args")  # args: tuple of Value
    _arity = "value constructor {}/{} applied to {} arguments"


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
    collapse (set reading of substitution equivalence).  The sort key walks
    whole values, so a single mapping is not sorted."""
    items = set(s)
    if len(items) < 2:
        return tuple(items)
    return tuple(sorted(items, key=_mapping_key))


def _canon_set(substs) -> SubstSet:
    seen = {}
    for s in substs:
        c = canon_subst(s)
        seen.setdefault(c, None)
    if len(seen) < 2:
        return tuple(seen)
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


# --- the fold -------------------------------------------------------------------


def pattern_kids(node, positive):
    """A pattern node's operands, each paired with the polarity it is read
    at: a negation flips the polarity, every other node keeps its own."""
    kind = type(node)
    if kind is Neg:
        return ((node.sub, not positive),)
    if kind is And or kind is Or:
        return ((node.left, positive), (node.right, positive))
    if kind is Ctor:
        return tuple((a, positive) for a in node.args)
    if kind is Var or kind is Wild or kind is Absurd:
        return ()
    raise TypeError(f"not a pattern: {node!r}")


def fold(root, step, ctx=True, kids=pattern_kids):
    """The catamorphism of `root` read at context `ctx` (Meijer, Fokkinga &
    Paterson, FPCA 1991).  `kids(node, ctx)` gives a node's operands, each
    paired with its own context; `step(node, ctx, results)` builds the
    node's result from its operands' results, in order.  Runs post-order on
    an explicit stack, and each (node, ctx) pair is stepped once per call,
    so a subterm shared in `root` costs one step."""
    done: dict = {}
    todo: list = [((root, ctx), None)]
    pop, push = todo.pop, todo.append
    while todo:
        pair, ks = pop()
        if ks is not None:
            done[pair] = step(pair[0], pair[1], [done[k] for k in ks])
        elif pair not in done:
            node, c = pair
            ks = kids(node, c)
            if not ks:  # a leaf is stepped at once
                done[pair] = step(node, c, ks)
                continue
            push((pair, ks))
            for k in reversed(ks):
                push((k, None))
    return done[(root, ctx)]


def _rebuild(node, results):
    """`node` with its operands replaced by `results`."""
    kind = type(node)
    if kind is Neg:
        return Neg(results[0])
    if kind is And or kind is Or:
        return kind(*results)
    if kind is Ctor:
        return Ctor(node.ctor, tuple(results))
    return node


# --- free variables ----------------------------------------------------------


def _fv_step(node, even, results):
    if type(node) is Var:
        return frozenset((node.name,) if even else ())
    return frozenset().union(*results)


def fv_even(p: Pattern) -> frozenset:
    """Variables occurring under an even number of negations."""
    return fold(p, _fv_step, True)


def fv_odd(p: Pattern) -> frozenset:
    """Variables occurring under an odd number of negations."""
    return fold(p, _fv_step, False)


def map_vars(p: Pattern, f) -> Pattern:
    """The pattern with every variable occurrence `Var` replaced by the
    pattern `f(Var)`."""

    def step(node, _, results):
        return f(node) if type(node) is Var else _rebuild(node, results)

    return fold(p, step)


# --- matching ----------------------------------------------------------------


class SoundnessError(RuntimeError):
    """A result failed the check that proves it sound.  The checks are
    explicit raises, so they also run under `python -O`."""


_match_cache: dict = {}


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
    sets must cover each other up to substitution equivalence.  Both are
    canonical (`_canon_set`), so that is plain equality."""
    return all(match_both(p, v) == match_both(q, v) for v in universe)
