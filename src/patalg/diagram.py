"""Reduced, hash-consed decision diagrams over occurrences (Bryant, IEEE
Trans. Computers 1986), as CDuce represents boolean combinations of types
(Frisch, Castagna & Benzaken, JACM 2008).  A `Test` has an edge per
constructor it names at its occurrence and an `other` edge for every other
head; a `Sink` says whether a path's values match.  Tests follow preorder
on occurrences (`first`), and `reduced` drops an edge equal to `other` and
a test whose edges all equal it, so equal sets of values are one node and,
in the open world, every path has a value.  Callers read the one `table`
as `diagram.table` when a question starts, so a test can swap it.
"""

from __future__ import annotations

from functools import reduce

from .syntax import (
    Absurd, And, Ctor, CtorName, Neg, Node, Or, Value, Var, Wild, by_name, fold, pattern_kids,
)
from .typecheck import Named, signature_of

# Head for witness positions no constructor evidence constrains; it stands
# for an arbitrary value (open-world reading) and cannot collide with
# program constructors because the parser reserves the $ prefix.
ANY_CTOR = CtorName("$any", 0)


class SignatureError(ValueError):
    """Raised when a completeness check needs a type signature but the
    constructors at hand span no single declared type."""

    def __init__(self, ctors):
        self.ctors = frozenset(ctors)
        names = sorted(ctors, key=by_name)
        shown = ", ".join(f"{c.name}/{c.arity}" for c in names)
        super().__init__(f"constructors {shown} span no single declared type")


class Occ(Node):
    """Argument `index` of the value at occurrence `parent` when its head
    is `ctor`; the root has neither.  A test of it sits below the `ctor`
    edge of a test of `parent`, and a column type gives it one type."""

    __slots__ = ("parent", "ctor", "index")


class Sink(Node):
    __slots__ = ("matches",)  # whether the path's values match, or a clause's (number, leaf)


class Test(Node):
    __slots__ = ("occ", "edges", "other")  # edges: frozenset of (CtorName, child)


ROOT = Occ(None, None, 0)


def first(a: Occ, b: Occ) -> Occ:
    """Of two occurrences, the one preorder puts first.  Siblings under one
    constructor go by index, and those under two, which no path holds
    together, by name."""
    if a is b:
        return a
    up = [a]  # a and its ancestors
    while up[-1].parent is not None:
        up.append(up[-1].parent)
    where = {o: i for i, o in enumerate(up)}
    y, below = b, None
    while y not in where:
        y, below = y.parent, y
    if below is None or y is a:  # one is above the other
        return y
    x = up[where[y] - 1]
    if x.ctor is below.ctor:
        return a if x.index < below.index else b
    return a if by_name(x.ctor) < by_name(below.ctor) else b


def reduced(occ, pairs, other):
    """The reduced test of `occ` with (constructor, child) `pairs`."""
    edges = frozenset([(c, d) for c, d in pairs if d is not other])
    return Test(occ, edges, other) if edges else other


def children(d, ctx) -> list:
    """A node's children for `syntax.fold`, at `ctx`: a test's edges, then `other`."""
    return () if type(d) is Sink else [(child, ctx) for _, child in d.edges] + [(d.other, ctx)]


def _chain(node) -> list:
    """The operands of the chain of `&` (or of `|`) that `node` heads."""
    kind, out, todo = type(node), [], [node]
    while todo:
        n = todo.pop()
        if type(n) is kind:
            todo += (n.right, n.left)
        else:
            out.append(n)
    return out


# The most keys, of `built` and `applied` together, that the diagram
# table's young generation holds at the start of a question without
# being rotated.
DIAGRAMS = 2048


class Table:
    """The diagram table: pattern diagrams (`built`) and the n-ary apply
    (`applied`), both memos of `syntax.fold`, kept from one question (a
    `decide`, a `useful_witness` or a case) to the next, as a BDD package
    keeps its unique and computed tables (Brace, Rudell & Bryant, DAC
    1990).  They are bounded in two generations: a question starts with
    `start`, which, when the young tables hold more than `DIAGRAMS` keys,
    makes `built` the old generation and starts both young tables empty.
    A question never rotates the table while it runs, and a rotation
    swaps in new dicts rather than clearing any, so a fold that another
    thread runs keeps the memo it reads, and a race can only lose entries."""

    __slots__ = ("false", "true", "built", "old", "applied")

    def __init__(self):
        self.false, self.true = Sink(False), Sink(True)
        self.built: dict = {}  # (pattern, (occurrence, polarity)) -> diagram
        self.old: dict = {}  # the previous generation of `built`
        self.applied: dict = {}  # (members, union?) -> diagram

    def start(self):
        """The table, rotated if its young generation is over the bound."""
        if len(self.built) + len(self.applied) > DIAGRAMS:
            self.old, self.built, self.applied = self.built, {}, {}
        return self

    def pattern(self, p, occ, positive=True):
        """The diagram of `p` (`!p` where not `positive`) at `occ`, which
        callers ask at the root, so it is looked up in the old generation
        too.  Negation is pushed to the leaves, and a chain of `&` or `|`
        is one n-ary apply."""
        false, true, apply = self.false, self.true, self.apply
        if type(p) is Wild or type(p) is Var:
            return true if positive else false
        built, key = self.built, (p, (occ, positive))
        if key not in built and (hit := self.old.get(key)) is not None:
            built[key] = hit
            return hit

        def kids(node, ctx):
            kind, (o, pos) = type(node), ctx
            if kind is Ctor:
                return [(a, (Occ(o, node.ctor, i), pos)) for i, a in enumerate(node.args)]
            if kind is And or kind is Or:
                return [(k, ctx) for k in _chain(node)]
            return [(k, (o, polarity)) for k, polarity in pattern_kids(node, pos)]

        def step(node, ctx, results):
            o, pos = ctx
            kind = type(node)
            if kind is Neg:
                return results[0]
            if kind is Ctor:  # `!C(p̄)`: any other head, or C with an argument failing
                child = apply(results, not pos) if results else true if pos else false
                return reduced(o, ((node.ctor, child),), false if pos else true)
            if kind is And or kind is Or:
                return apply(results, (kind is Or) == pos)
            return true if pos != (kind is Absurd) else false

        return fold(p, step, (occ, positive), kids, built)

    def labelled(self, p, sink):
        """The diagram of `p` at the root, with `sink` in place of the true sink."""

        def step(d, _, results):
            if type(d) is Sink:
                return sink if d.matches else d
            return reduced(d.occ, zip([c for c, _ in d.edges], results), results[-1])

        return fold(self.pattern(p, ROOT), step, None, children)

    def apply(self, members, union):
        """The union of the diagrams `members`, or their intersection."""
        return self.build(self.task(members, union), union)

    def build(self, task, union):
        """The diagram of a task of `task`.  The splits in flight are the
        call's own, so threads that share the memo share none."""
        if type(task) is not frozenset:
            return task
        split, splits = self.split, {}  # task -> (occurrence, constructors)

        def kids(t, union):
            if type(t) is not frozenset:
                return ()
            occ, ctors, tasks = split(t, union)
            splits[t] = occ, ctors
            return tuple([(sub, union) for sub in tasks])

        def step(t, union, results):
            if type(t) is not frozenset:
                return t
            occ, ctors = splits.pop(t)
            return reduced(occ, zip(ctors, results), results[-1])

        return fold(task, step, union, kids, self.applied)

    def task(self, members, union):
        """The members as a task for `build`, or the diagram they give at once."""
        if len(members) == 1:
            return members[0]
        zero, unit = (self.true, self.false) if union else (self.false, self.true)
        ms = set(members)
        if zero in ms:
            return zero
        ms.discard(unit)
        return frozenset(ms) if len(ms) > 1 else ms.pop() if ms else unit

    def split(self, task, union):
        """The first occurrence that a member of `task` tests, the
        constructors that members name there, and one task per constructor
        and then one for `other`.  A member whose `other` child is the
        identity joins only the tasks of the constructors it names."""
        occ = reduce(first, {m.occ for m in task if type(m) is Test})
        unit = self.false if union else self.true
        buckets, loose, others, rest = {}, [], [], []
        for m in task:
            if type(m) is not Test or m.occ is not occ:
                rest.append(m)
                continue
            for c, child in m.edges:
                buckets.setdefault(c, []).append(child)
            others.append(m.other)
            if m.other is not unit:
                loose.append(({c for c, _ in m.edges}, m.other))
        subs = [[*ks, *rest, *[o for cs, o in loose if c not in cs]] for c, ks in buckets.items()]
        return occ, tuple(buckets), tuple([self.task(ms, union) for ms in (*subs, others + rest)])


table = Table()


class Reading:
    """A diagram, or an intersection task of `ds`, read under declarations,
    or in the open world (None): each occurrence's type from its path,
    seeded at the columns, and the constructors of each type that have
    values, with their least ones."""

    __slots__ = ("decls", "types", "live", "ds")

    def __init__(self, decls, types, ds):
        self.decls, self.live, self.ds = decls, {}, ds
        self.types = types if decls is not None else dict.fromkeys(types)

    def type_of(self, occ):
        chain = []
        while occ not in self.types:
            chain.append(occ)
            occ = occ.parent
        tau = self.types[occ]
        for o in reversed(chain):
            known = tau is not None and self.decls.owner(o.ctor) == tau.name
            tau = self.types[o] = self.decls.arg_types(o.ctor)[o.index] if known else None
        return tau

    def live_ctors(self, tau) -> dict:
        """The constructors of `tau` that have values, in declaration
        order, each with its rank and its least value."""
        if tau not in self.live:
            least, live = self.decls.least_value, {}
            for c, arg_types in signature_of(tau, self.decls):
                if None not in (args := tuple(map(least, arg_types))):
                    live[c] = len(live), Value(c, args)
            self.live[tau] = live
        return self.live[tau]

    def _view(self, x):
        """A sink, or (x, occurrence, edges, other) of a test or of a task,
        split only as far as the walk reaches.  A task at an occurrence of
        unknown type whose `other` may have values is built, so that an
        edge equal to `other` is dropped as in the diagram."""
        if type(x) is frozenset:
            occ, ctors, tasks = self.ds.split(x, False)
            if tasks[-1] is self.ds.false or self.type_of(occ) is not None:
                return x, occ, dict(zip(ctors, tasks)), tasks[-1]
            x = self.ds.build(x, False)
        return x if type(x) is Sink else (x, x.occ, dict(x.edges), x.other)

    def _choices(self, view, false, dead):
        """The (head, child) pairs of a test, least first, but `false` and
        `dead` children.  At an occurrence of known type: the constructors
        of the type that have values, in declaration order, each by its own
        edge or by `other` headed by its least value.  At one of unknown
        type: the constructors named, by name, and then `other`, typed by
        the constructors named (with no declarations, `$any`);
        SignatureError if no type declares them."""
        _, occ, edges, other = view
        tau = self.type_of(occ)
        if tau is not None and (other is false or other in dead):  # the edges alone
            live = self.live_ctors(tau)
            pairs = ((c, edges[c]) for c in sorted([c for c in edges if c in live], key=live.get))
        elif tau is not None:
            live = self.live_ctors(tau).items()
            pairs = ((c, edges[c]) if c in edges else (v, other) for c, (_, v) in live)
        else:
            pairs = ((c, edges[c]) for c in sorted(edges, key=by_name))
        yield from ((h, d) for h, d in pairs if d is not false and d not in dead)
        if tau is None and other is not false and other not in dead:
            if self.decls is None:
                yield Value(ANY_CTOR, ()), other
            elif (owner := self.decls.owner_of_all(edges)) is None:
                raise SignatureError(edges)
            else:
                live = self.live_ctors(Named(owner)).items()
                yield from ((v, other) for c, (_, v) in live if c not in edges)

    def least(self, d) -> Value | None:
        """The value of the least path of `d` that ends at the true sink and
        has a value, or None.  A depth-first walk on an explicit stack that
        splits a task only when it reaches it, skips a false child before
        it types anything, types `other` only when it reaches it, and tries
        no node twice.  The value has the head of the path at each
        occurrence it tests, or the value taken at an `other` edge;
        elsewhere its type's least value, or `$any`."""
        false, dead, heads = self.ds.false, set(), {}  # heads: the path's, by occurrence
        top = self._view(d)
        if type(top) is Sink and not top.matches:
            return None
        stack = [] if type(top) is Sink else [(top, self._choices(top, false, dead))]
        while stack:
            (x, occ, _, _), choices = stack[-1]
            head, child = next(choices, (None, false))
            if child is false:
                dead.add(x)
                heads.pop(occ, None)
                stack.pop()
                continue
            heads[occ] = head
            view = self._view(child)
            if type(view) is not Sink:
                stack.append((view, self._choices(view, false, dead)))
            elif view.matches:
                break
            else:  # a task built to the false sink
                dead.add(child)
        if type(top) is not Sink and not stack:  # no path has a value
            return None

        def kids(occ, _):
            h = heads.get(occ)
            n = h.arity if type(h) is CtorName else 0
            return tuple([(Occ(occ, h, i), None) for i in range(n)])

        def step(occ, _, results):
            h = heads.get(occ)
            if type(h) is CtorName:
                return Value(h, tuple(results))
            tau = self.type_of(occ)
            return h or (Value(ANY_CTOR, ()) if tau is None else self.decls.least_value(tau))

        return fold(ROOT, step, None, kids)
