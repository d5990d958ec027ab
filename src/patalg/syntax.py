"""Pattern and value syntax with non-deterministic matching.

Every syntax node, and every other record that a memo keys on or that
sharing needs, is hash-consed (`Node`): equal nodes are one object, so
equality and hashing are identity and never walk a tree.  Result records
(`Record`) are plain immutable records that compare field by field.

Matching is computed as the *complete* set of derivable substitutions, for
both the "matches" and the "does not match" judgment.  Keeping every
derivation around (instead of the first hit) is what makes the soundness,
completeness and determinism properties directly testable.
"""

from __future__ import annotations

from _weakref import _remove_dead_weakref, ref
from collections import namedtuple


# --- hash-consed nodes ---------------------------------------------------------


class _Entry(ref):
    """A table entry: a weak reference to a node, carrying the node's key."""

    __slots__ = ("key",)


# (class, *fields) -> the entry of the one live node with them.
_table: dict = {}


def _forget(entry: _Entry, table=_table, remove=_remove_dead_weakref) -> None:
    # Runs when the node dies, and deletes its key only while the key's
    # entry is dead, in one step that no other thread can interleave with:
    # a node built since under the key keeps its own entry.  The table and
    # the helper are bound here, so a node that dies while the interpreter
    # shuts down reads no module global.
    remove(table, entry.key)


def _enter(node, key):
    """Enter the new `node` under `key`, and return the node the table
    holds for it: `node`, or another thread's equal node.  Each change to
    the table is one atomic call, so threads building equal nodes get one
    node without a lock: `setdefault` never replaces an entry, and an entry
    found dead, whose `_forget` has not run yet, is removed only while it
    is still dead."""
    entry = _Entry(node, _forget)
    entry.key = key
    found = _table.setdefault(key, entry)
    while found is not entry:
        other = found()
        if other is not None:
            return other
        _remove_dead_weakref(_table, key)
        found = _table.setdefault(key, entry)
    return node


def _setters(cls, maker) -> list:
    """The `__set__` of each field's slot descriptor, taken once per class;
    `maker` writes out constructors for up to three fields, the most any
    class has."""
    if len(cls._fields) > 3:
        raise TypeError(
            f"{cls.__name__} has {len(cls._fields)} fields: add a "
            f"{len(cls._fields)}-field case to syntax.{maker.__name__}"
        )
    return [cls.__dict__[name].__set__ for name in cls._fields]


def _node_new(cls):
    """The constructor of a node class, written out for its number of
    fields.  A hit costs one table probe and one weakref call; a birth
    checks `_arity`, sets each field through its slot descriptor and
    enters the node.  Its defaults are the class's `_defaults`."""
    sets, get, new = _setters(cls, _node_new), _table.get, object.__new__
    if len(sets) == 0:

        def __new__(cls):
            key = (cls,)
            entry = get(key)
            if entry is not None and (node := entry()) is not None:
                return node
            return _enter(new(cls), key)

    elif len(sets) == 1:
        (set_a,) = sets

        def __new__(cls, a):
            key = (cls, a)
            entry = get(key)
            if entry is not None and (node := entry()) is not None:
                return node
            node = new(cls)
            set_a(node, a)
            return _enter(node, key)

    elif len(sets) == 2:
        set_a, set_b = sets
        arity = cls._arity

        def __new__(cls, a, b):
            key = (cls, a, b)
            entry = get(key)
            if entry is not None and (node := entry()) is not None:
                return node
            if arity and len(b) != a.arity:
                raise ValueError(arity.format(a.name, a.arity, len(b)))
            node = new(cls)
            set_a(node, a)
            set_b(node, b)
            return _enter(node, key)

    else:
        set_a, set_b, set_c = sets

        def __new__(cls, a, b, c):
            key = (cls, a, b, c)
            entry = get(key)
            if entry is not None and (node := entry()) is not None:
                return node
            node = new(cls)
            set_a(node, a)
            set_b(node, b)
            set_c(node, c)
            return _enter(node, key)

    __new__.__defaults__ = cls._defaults or None
    return __new__


def _record_init(cls):
    """The initializer of a record class, written out for its number of
    fields: it sets each field through its slot descriptor.  Its defaults
    are the class's `_defaults`."""
    sets = _setters(cls, _record_init)
    if len(sets) == 0:

        def __init__(self):
            pass

    elif len(sets) == 1:
        (set_a,) = sets

        def __init__(self, a):
            set_a(self, a)

    elif len(sets) == 2:
        set_a, set_b = sets

        def __init__(self, a, b):
            set_a(self, a)
            set_b(self, b)

    else:
        set_a, set_b, set_c = sets

        def __init__(self, a, b, c):
            set_a(self, a)
            set_b(self, b)
            set_c(self, c)

    __init__.__defaults__ = cls._defaults or None
    return __init__


def _fields_repr(record) -> str:
    fields = ", ".join(f"{n}={getattr(record, n)!r}" for n in record._fields)
    return f"{type(record).__qualname__}({fields})"


class Node:
    """Base of the records that a memo keys on or that sharing needs:
    constructor names, patterns, values, normal forms, expressions, clause
    matrices, decision trees and types.  A node is built from its fields in
    `__slots__` order.  Construction looks (class, *fields) up in one table
    and returns the node already there, so equal nodes are one object and
    `==` and `hash` are the identity defaults.  Children are nodes, so the
    key compares them by identity and a construction costs one probe.  The
    table holds its nodes weakly: an entry lasts as long as something else
    refers to its node (Filliâtre & Conchon, "Type-Safe Modular
    Hash-Consing", ML 2006).  Nodes are immutable.  Each class gets its own
    constructor (`_node_new`), as `__new__`, or as `_new` where the class
    writes a `__new__` that checks its arguments first.  A class with
    fields (ctor, args) may set `_arity`, the message for args that do not
    number ctor's arity; it is checked when a node is first built.
    `_defaults` are the values of the trailing fields a construction may
    leave out.  The `repr` of a pattern, value, normal form or expression
    is its text from `pretty.format_node`, which does not recurse on the
    depth of the node."""

    __slots__ = ("__weakref__",)
    _arity = None
    _defaults = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__["__slots__"]
        cls._new = new = staticmethod(_node_new(cls))
        if "__new__" not in cls.__dict__:
            cls.__new__ = new

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an interned node")

    def __repr__(self) -> str:
        from .pretty import format_node

        text = format_node(self)
        if text is not None:
            return f"{type(self).__qualname__}({text})"
        return _fields_repr(self)


class Record:
    """Base of the result records: evaluation and step results, typing
    results, wellformedness violations and oracle verdicts.  Nothing keys
    a memo on them, so they are not interned: a record is built from its
    fields in `__slots__` order by its class's own initializer
    (`_record_init`), and `==` and `hash` go field by field.  That is exact
    and shallow, because the fields are interned nodes or plain data.
    Records are immutable, and `_defaults` are the values of the trailing
    fields a construction may leave out."""

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__["__slots__"]
        cls.__init__ = _record_init(cls)

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), *self._values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    __repr__ = _fields_repr


class CtorName(Node):
    """Constructor identity.  Two occurrences denote the same constructor
    iff both name and arity agree, so Cons/2 and Cons/1 are distinct."""

    __slots__ = ("name", "arity")

    def __str__(self) -> str:
        return self.name


def by_name(c: CtorName) -> tuple:
    """The key of the one order on constructors: by name, then arity."""
    return c.name, c.arity


# --- patterns ---------------------------------------------------------------


class _Pattern(Node):
    """Base of the pattern classes.  Its one slot is not a field: `_facts`
    is False once the pattern's `wellformed.PatternFacts` were asked for,
    and holds them from the second ask on."""

    __slots__ = ("_facts",)


class Var(_Pattern):
    __slots__ = ("name",)


class Ctor(_Pattern):
    __slots__ = ("ctor", "args")  # args: tuple of Pattern, one per ctor arity
    _arity = "constructor {}/{} applied to {} subpatterns"


class And(_Pattern):
    __slots__ = ("left", "right")


class Or(_Pattern):
    __slots__ = ("left", "right")


class Wild(_Pattern):
    __slots__ = ()


class Absurd(_Pattern):
    __slots__ = ()


class Neg(_Pattern):
    __slots__ = ("sub",)


Pattern = "Var | Ctor | And | Or | Wild | Absurd | Neg"


# --- values and substitutions ------------------------------------------------


class Value(Node):
    """Ground data, and the expression node for it: `semantics.ECtor` over
    values constructs a `Value`."""

    __slots__ = ("ctor", "args")  # args: tuple of Value
    _arity = "value constructor {}/{} applied to {} arguments"


# One binding of a substitution: a tuple, so it hashes and compares in C.
Mapping = namedtuple("Mapping", ("var", "value"))


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
    if len(s) < 2:
        return tuple(s)
    items = set(s)
    if len(items) < 2:
        return tuple(items)
    return tuple(sorted(items, key=_mapping_key))


def _canon_set(substs) -> SubstSet:
    if len(substs) < 2:
        return tuple(canon_subst(s) for s in substs)
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


def fold(root, step, ctx=True, kids=pattern_kids, done=None):
    """The catamorphism of `root` read at context `ctx` (Meijer, Fokkinga &
    Paterson, FPCA 1991).  `kids(node, ctx)` gives a node's operands, each
    paired with its own context; `step(node, ctx, results)` builds the
    node's result from its operands' results, in order.  Runs post-order on
    an explicit stack, and each (node, ctx) pair is stepped once per call,
    so a subterm shared in `root` costs one step.  A caller that passes its
    own `done` dict shares the steps across calls."""
    done = {} if done is None else done
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


def rebuild(node, results):
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
        return f(node) if type(node) is Var else rebuild(node, results)

    return fold(p, step)


# --- matching ----------------------------------------------------------------


class SoundnessError(RuntimeError):
    """A result failed the check that proves it sound.  The checks are
    explicit raises, so they also run under `python -O`."""


# The keys a memo's young generation holds before it becomes the old one.
# On `patc fuzz --suite algebra --depth 4 --cases 400`, 4,096 lowers peak
# RSS by 0.9 MB against no bound and keeps the extra `match_both` calls
# under 1%; 2,048 saves 3.4 MB for 2.8% more calls, 1,024 5.1 MB for 6.2%.
GENERATION = 4096


class Generations:
    """A memo in two generations (Ungar, "Generation Scavenging", SDE
    1984).  New entries go into `young`; when it holds `GENERATION` keys it
    becomes the old generation, the previous old one is dropped, and so is
    `pairs`, the table of the values its entries share, but for the
    `units` it starts with.  An entry found in the old generation moves
    back to the young one.  A rotation that races another thread can only
    lose entries, never change one."""

    __slots__ = ("young", "old", "pairs", "units")

    def __init__(self, young: dict, pairs=None):
        self.young, self.old, self.pairs = young, {}, {} if pairs is None else pairs
        self.units = tuple(self.pairs.items())

    def get(self, key):
        """The entry of `key`, or None."""
        hit = self.young.get(key)
        if hit is None and (hit := self.old.pop(key, None)) is not None:
            self.put(key, hit)
        return hit

    def put(self, key, value):
        """Store `value` under `key` in the young generation; returns it."""
        young = self.young
        if len(young) >= GENERATION:
            self.old = {}  # dropped before the copy, not while it is made
            self.old = young.copy()
            young.clear()
            self.pairs.clear()
            self.pairs.update(self.units)
        young[key] = value
        return value


# The sets of the patterns that match, or fail to match, with no binding.
_UNIT = ((),)
_YES = (_UNIT, ())
_NO = ((), _UNIT)
_COMBINING = frozenset((Neg, And, Or, Ctor))

# pattern -> {value -> match_both(pattern, value)}, for the patterns whose
# results combine sets: the young generation of `_match_memo`, so the small
# subpatterns that come back across calls and cases stay.  Equal results
# are one object of `_pairs`, most of them the unit `_YES` or `_NO`.
_match_cache: dict = {}
_pairs: dict = {_YES: _YES, _NO: _NO}
_match_memo = Generations(_match_cache, _pairs)


def _product(a: SubstSet, b: SubstSet) -> SubstSet:
    """The canonical set of the concatenations s + t, s from `a` and t from
    `b`, both canonical and nonempty.  The one substitution of `_UNIT` adds
    nothing to a concatenation, and a canonical set is its own canonical
    form."""
    if a == _UNIT:
        return b
    if b == _UNIT:
        return a
    return _canon_set([s + t for s in a for t in b])


def _union(a: SubstSet, b: SubstSet) -> SubstSet:
    """The canonical union of the canonical sets `a` and `b`."""
    if not a or a == b:
        return b
    if not b:
        return a
    return _canon_set(a + b)


def match_both(p: Pattern, v: Value):
    """All derivations of the positive and the negative matching judgment.

    Exactly one of the two returned sets is nonempty for every input: the
    rules are sound and complete, which is checked on every result that
    combines sets.  Both sets are canonical (`_canon_set`); a result that
    is already canonical is returned as it is.
    """
    kind = type(p)
    if kind is Wild:
        return _YES
    if kind is Absurd:
        return _NO
    if kind is Var:
        return (((Mapping(p.name, v),),), ())
    if kind is Ctor and p.ctor is not v.ctor:
        return _NO
    # Most patterns are in the young generation: one probe finds them.
    memo = _match_cache.get(p)
    if memo is None and (memo := _match_memo.get(p)) is None:
        if kind not in _COMBINING:
            raise TypeError(f"not a pattern: {p!r}")
        memo = _match_memo.put(p, {})
    else:
        hit = memo.get(v)
        if hit is not None:
            return hit

    if kind is Neg:
        neg, pos = match_both(p.sub, v)
    elif kind is Ctor:
        # Canonicalizing the product and the union argument by argument
        # gives the canonical form of the whole: it depends only on the set
        # of mappings of each substitution, and on the set of them.
        pos, neg = _UNIT, ()
        for pi, vi in zip(p.args, v.args):
            arg_pos, arg_neg = match_both(pi, vi)
            pos = _product(pos, arg_pos) if pos and arg_pos else ()
            neg = _union(neg, arg_neg)
    else:
        # `|` is `&` with the two judgments swapped.
        lpos, lneg = match_both(p.left, v)
        rpos, rneg = match_both(p.right, v)
        if kind is Or:
            lpos, lneg, rpos, rneg = lneg, lpos, rneg, rpos
        pos = _product(lpos, rpos) if lpos and rpos else ()
        neg = _union(lneg, rneg)
        if kind is Or:
            pos, neg = neg, pos

    if pos and neg:
        raise SoundnessError(f"matching unsound for {p!r} vs {v!r}")
    if not (pos or neg):
        raise SoundnessError(f"matching incomplete for {p!r} vs {v!r}")
    pair = (pos, neg)
    result = memo[v] = _pairs.setdefault(pair, pair)
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
    canonical, whichever node built them, so that is plain equality."""
    return all(match_both(p, v) == match_both(q, v) for v in universe)
