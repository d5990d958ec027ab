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
from itertools import repeat


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


# A substitution is a set of mappings, so substitutions that hold the same
# mappings in another order or multiplicity are one set; nonlinear
# patterns can legitimately bind the same variable twice.  A derivation
# set is a set of substitutions.
Subst = frozenset  # frozenset[Mapping]
SubstSet = frozenset  # frozenset[Subst]


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


# --- the canonical order of substitutions ------------------------------------


def _value_kids(v, ctx):
    return tuple((a, ctx) for a in v.args)


def _value_key_step(v, _, results):
    return (v.ctor.name, v.ctor.arity, tuple(results))


def _value_key(v: Value):
    return fold(v, _value_key_step, None, _value_kids)


def by_binding(m: Mapping):
    """The key of the canonical order on mappings: by variable, then by
    value, constructor name and arity first, then the arguments."""
    return (m.var, _value_key(m.value))


def _by_bindings(s):
    """The key of the canonical order on substitutions: the keys of their
    mappings in canonical order, compared in turn.  Matching builds sets,
    which have no order; the steps of evaluation follow this one."""
    return tuple(sorted(map(by_binding, s)))


def in_order(substs) -> tuple:
    """The substitutions of a set in the canonical order."""
    if len(substs) < 2:
        return tuple(substs)
    return tuple(sorted(substs, key=_by_bindings))


# --- matching ----------------------------------------------------------------


class SoundnessError(RuntimeError):
    """A result failed the check that proves it sound.  The checks are
    explicit raises, so they also run under `python -O`."""


# The keys a memo's young generation holds before it becomes the old one.
# On `patc fuzz --suite algebra --depth 4 --cases 400`, 4,096 lowers peak
# RSS by 2.0 MB against no bound for 10% more matching steps (`match_both`
# calls and `match_all` node steps); 2,048 saves 3.7 MB for 18% more
# steps, 1,024 4.8 MB for 28%.
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
_NONE = frozenset()
_UNIT = frozenset((_NONE,))
_YES = (_UNIT, _NONE)
_NO = (_NONE, _UNIT)
_UNITS = frozenset((_YES, _NO))
_COMBINING = frozenset((Neg, And, Or, Ctor))
# The patterns whose results `_match_memo` keeps: a variable's sets cost
# more to build than to find.
_MEMOIZED = frozenset((Var, *_COMBINING))

# pattern -> {value -> match_both(pattern, value)} for variables and the
# patterns whose results combine sets, and (node, values) -> match_all(node,
# values) for every node that `match_all` steps: the young generation of
# `_match_memo`, so the small subpatterns that come back across calls and
# cases stay.  A pattern and a tuple are never equal, so one dict holds
# both kinds of key, and a vector costs its key rather than a dict.
# `_pairs` rotates with it: equal pairs are one object of it, most of them
# the unit `_YES` or `_NO`, and it maps (kind of node, its operands' pairs)
# to the pair `_combine` made of them when every operand's pair is a unit.
# Those are a few combinations, and six in ten of those made on `patc fuzz
# --suite algebra`, so they are made and checked once and then read back;
# without them that command's peak RSS was 1.5 MB higher.
_match_cache: dict = {}
_pairs: dict = {_YES: _YES, _NO: _NO}
_match_memo = Generations(_match_cache, _pairs)


def _product(a: SubstSet, b: SubstSet) -> SubstSet:
    """The set of the unions s | t, s from `a` and t from `b`, both
    nonempty.  The one substitution of `_UNIT` adds nothing to a union.
    A set equal to `_UNIT` that is another object gives the same result
    the long way."""
    if a is _UNIT:
        return b
    if b is _UNIT:
        return a
    return frozenset([s | t for s in a for t in b])


def _union(a: SubstSet, b: SubstSet) -> SubstSet:
    """The union of `a` and `b`, either of them empty."""
    if a and b and a is not b:
        return a | b
    return a or b


def _bound(name: str, v: Value):
    """The pair of the variable `name` against `v`: it matches, binding
    `name` to `v`, and has no derivation of failure."""
    return (frozenset((frozenset((Mapping(name, v),)),)), _NONE)


def _combine(p: Pattern, v: Value, parts):
    """The pair of a combining pattern `p` against `v`, from `parts`, the
    pairs of its operands: `p.sub`, `p.left` and `p.right`, or each
    argument against `v`'s.  Raises SoundnessError unless exactly one of
    the two sets is nonempty, which proves the rules sound and complete on
    it, and returns the one object of `_pairs` equal to the pair."""
    kind = type(p)
    if kind is Neg:
        neg, pos = parts[0]
    elif kind is Ctor:
        pos, neg = _UNIT, _NONE
        for arg_pos, arg_neg in parts:
            pos = _product(pos, arg_pos) if pos and arg_pos else _NONE
            neg = _union(neg, arg_neg)
    else:
        # `|` is `&` with the two judgments swapped.
        (lpos, lneg), (rpos, rneg) = parts
        if kind is Or:
            lpos, lneg, rpos, rneg = lneg, lpos, rneg, rpos
        pos = _product(lpos, rpos) if lpos and rpos else _NONE
        neg = _union(lneg, rneg)
        if kind is Or:
            pos, neg = neg, pos
    if pos and neg:
        raise SoundnessError(f"matching unsound for {p!r} vs {v!r}")
    if not (pos or neg):
        raise SoundnessError(f"matching incomplete for {p!r} vs {v!r}")
    pair = (pos, neg)
    return _pairs.setdefault(pair, pair)


def _combine_row(p: Pattern, v: Value, row):
    """`_combine(p, v, row)`, entered in `_pairs` as the combination of
    `row` for the kind of `p` when every pair in the row is a unit."""
    pair = _combine(p, v, row)
    if _UNITS.issuperset(row):
        _pairs[type(p), row] = pair
    return pair


def match_both(p: Pattern, v: Value):
    """All derivations of the positive and the negative matching judgment.

    Exactly one of the two returned sets is nonempty for every input: the
    rules are sound and complete, which is checked on every result that
    combines sets (`_combine`).  A set is a frozenset of substitutions,
    each a frozenset of mappings, so equal results are equal sets however
    they were derived.  A variable's result is memoized too, because its
    two sets cost more to build than to find.
    """
    kind = type(p)
    if kind is Wild:
        return _YES
    if kind is Absurd:
        return _NO
    if kind is Ctor and p.ctor is not v.ctor:
        return _NO
    # Most patterns are in the young generation: one probe finds them.
    memo = _match_cache.get(p)
    if memo is None and (memo := _match_memo.get(p)) is None:
        if kind not in _MEMOIZED:
            raise TypeError(f"not a pattern: {p!r}")
        memo = _match_memo.put(p, {})
    else:
        hit = memo.get(v)
        if hit is not None:
            return hit
    if kind is Var:
        result = memo[v] = _bound(p.name, v)
        return result
    if kind is Neg:
        parts = (match_both(p.sub, v),)
    elif kind is Ctor:
        parts = tuple(map(match_both, p.args, v.args))
    else:
        parts = (match_both(p.left, v), match_both(p.right, v))
    result = memo[v] = _combine(p, v, parts)
    return result


def match_pos(p: Pattern, v: Value) -> SubstSet:
    """Substitutions of all derivations showing that p matches v."""
    return match_both(p, v)[0]


def match_neg(p: Pattern, v: Value) -> SubstSet:
    """Substitutions of all derivations showing that p does not match v."""
    return match_both(p, v)[1]


def _column_kids(node, values: tuple):
    """A pattern node's operands, each paired with the values it is
    matched against: a constructor pattern's arguments get the argument
    columns of the values it heads, and none when it heads no value."""
    kind = type(node)
    if kind is And or kind is Or:
        return ((node.left, values), (node.right, values))
    if kind is Neg:
        return ((node.sub, values),)
    if kind is Ctor:
        c = node.ctor
        return tuple(zip(node.args, zip(*[v.args for v in values if v.ctor is c])))
    return ()


def _column_step(node, values: tuple, results) -> tuple:
    """The pairs of `node` against each of `values`, from its operands'
    pairs against their columns, by the rules of `match_both`."""
    kind = type(node)
    if kind is Wild:
        return (_YES,) * len(values)
    if kind is Absurd:
        return (_NO,) * len(values)
    if kind is Var:
        return tuple([_bound(node.name, v) for v in values])
    if kind not in _COMBINING:
        raise TypeError(f"not a pattern: {node!r}")
    rows, made = zip(*results), _pairs.get
    if kind is not Ctor:
        return tuple([made((kind, r)) or _combine_row(node, v, r) for v, r in zip(values, rows)])
    # The arguments' rows are those of the values the constructor heads:
    # none when it has no argument or heads no value.
    c = node.ctor
    if not results:
        rows = repeat(())
    return tuple([
        (made((kind, r := next(rows))) or _combine_row(node, v, r)) if v.ctor is c else _NO
        for v in values
    ])


def _vector_step(node, values: tuple, results) -> tuple:
    """`_column_step`, whose vector is kept in `_match_memo` under (node,
    values)."""
    return _match_memo.put((node, values), _column_step(node, values, results))


def _known(ks, done: dict) -> bool:
    """Enter in `done` the vector of each (node, values) pair of `ks` that
    the memo holds; returns whether it held all of them."""
    known = 0
    for k in ks:
        hit = _match_cache.get(k)
        if hit is not None or (hit := _match_memo.get(k)) is not None:
            done[k] = hit
            known += 1
    return known == len(ks)


def match_all(p: Pattern, values: tuple) -> tuple:
    """`match_both(p, v)` for each value `v` of the tuple `values`, in
    order, in one pass per pattern node: a `fold` whose context is the
    tuple of values a node is matched against.  The vectors are kept in
    `_match_memo` under the fold's own key, (node, values), so a
    subpattern that comes back against the same values costs one probe,
    and its operands are not visited."""
    hit = _match_cache.get((p, values))
    if hit is not None or (hit := _match_memo.get((p, values))) is not None:
        return hit
    done = {}  # (node, values) -> its vector, for the fold
    ks = _column_kids(p, values)
    if _known(ks, done):  # most often: the fold's one step is the root's
        return _vector_step(p, values, [done[k] for k in ks])

    def kids(node, vals):
        # An operand whose vector is in the memo enters the fold as done.
        ks = _column_kids(node, vals)
        _known(ks, done)
        return ks

    return fold(p, _vector_step, values, kids, done)


def pattern_equiv_bounded(p: Pattern, q: Pattern, universe) -> bool:
    """Bounded approximation of semantic pattern equivalence: over every
    value of the (finite) universe, the positive and negative derivation
    sets must cover each other up to substitution equivalence.  Both are
    sets of sets of mappings, so that is plain equality."""
    values = tuple(universe)
    return match_all(p, values) == match_all(q, values)
