"""Usefulness, exhaustiveness and overlap as one emptiness question.

Patterns express their own complement: a vector of patterns `q` is useful
for rows of patterns when `q & !r_1 & ... & !r_m` has a value, rows are
exhaustive when the all-wildcard vector is not useful, and two patterns
overlap when `p & q` has one (`overlap.decide`).  With several columns,
the vector and each row are wrapped in the reserved constructor `$row/n`.
The witness is the least value of the first conjunct of that pattern's
normal form that has one, found by a search that does not build the
normal form.  Every witness is checked by matching it against the
source patterns.
"""

from __future__ import annotations

from functools import partial

from .syntax import (
    Absurd, And, Ctor, CtorName, Neg, Or, SoundnessError, Value, Var, Wild, fold, pattern_kids,
)
from .typecheck import DataDecls, Named, Type, signature_of

# Head for witness positions no constructor evidence constrains; it stands
# for an arbitrary value (open-world reading) and cannot collide with
# program constructors because the parser reserves the $ prefix.
ANY_CTOR = CtorName("$any", 0)


class SignatureError(ValueError):
    """Raised when a completeness check needs a type signature but the
    constructors at hand span no single declared type."""

    def __init__(self, ctors):
        self.ctors = frozenset(ctors)
        names = sorted(ctors, key=lambda c: (c.name, c.arity))
        shown = ", ".join(f"{c.name}/{c.arity}" for c in names)
        super().__init__(f"constructors {shown} span no single declared type")


def infer_scrutinee_type(roots, decls: DataDecls) -> Type:
    """Scrutinee type from the constructors that the root facts of the
    clause patterns name (`overlap.roots_step`): heads and ban sets."""
    heads = frozenset().union(*(h | (bans or h) for h, _, bans in roots))
    owners = {decls.owner(c) for c in heads if decls.owner(c) is not None}
    if len(owners) != 1:
        raise ValueError("cannot infer the scrutinee type from the clause patterns")
    return Named(owners.pop())


def _outside(banned, tau, decls) -> Value | None:
    """The least value outside `banned`: the first constructor of `tau`, in
    declaration order, that is not banned and whose argument types have
    values, over their least values.  An unknown type (None) is the one
    declaring the ban set (SignatureError if none does), or with no ban set
    or no declarations the open world's `$any` is the value."""
    if tau is None:
        if not banned or decls is None:
            return Value(ANY_CTOR, ())
        if (owner := decls.owner_of_all(banned)) is None:
            raise SignatureError(banned)
        tau = Named(owner)
    for ctor, arg_types in signature_of(tau, decls):
        if ctor not in banned:
            args = tuple(decls.least_value(t) for t in arg_types)
            if None not in args:
                return Value(ctor, args)
    return None


def useful_witness(rows, vector, decls: DataDecls, col_types=None) -> tuple | None:
    """A value vector matching the pattern vector but no row, or None.
    Rows and the vector are tuples of patterns, one per column; a column's
    type is unknown without `col_types`, and with no declarations (None)
    the world is open.  The witness is checked against
    both conditions; a failure raises SoundnessError."""
    vector = tuple(vector)
    n = len(vector)
    if any(len(r) != n for r in rows):
        raise ValueError("pattern vector width differs from matrix width")
    types = tuple(col_types) if col_types else (None,) * n
    row = CtorName("$row", n)

    def wrap(cells):  # one column needs no row constructor
        return cells[0] if n == 1 else Ctor(row, tuple(cells))

    query, covered = wrap(vector), [wrap(r) for r in rows]
    if (w := _first_value(query, covered, types, row, decls)) is None:
        return None
    if not _matches(query, w):
        raise SoundnessError("usefulness witness fails the pattern vector")
    if any(_matches(r, w) for r in covered):
        raise SoundnessError("usefulness witness is covered by a row")
    return (w,) if n == 1 else w.args


def _first_value(query, rows, types, row, decls) -> Value | None:
    """A value of the first conjunct of `to_ndnf(query & !rows[0] & ... &
    !rows[-1])`, in its order, that has one, or None.

    A depth-first search on an explicit stack builds one conjunct per
    branch and undoes its changes from a trail when it backs up.  A goal is
    a (pattern, polarity, position) triple, the root at position 0; a
    `CtorName` goal sets the head at its position, or bans it.  A branch
    ends where bans leave a position of known type no value, and before
    each row the search skips a state it has already searched without a
    value, so many rows over few positions cost the states they reach.
    With every type known, a branch not known to have a value is probed
    before its next row in the disjoint form, which reads `!C(a, b)` as
    `!C | C(!a, _) | C(a, !b)` and skips rows the branch already rules out:
    its branches split the values as a decision tree over positions does.
    A probe that finds no value ends the branch; one that finds a value
    lets the branch go on, and no other probe is made while each head or
    ban the branch adds keeps that value in it."""
    n = row.arity
    at: dict = {}  # position -> its head, or the set of heads it bans
    pos_types = [types[0] if n == 1 else None]  # position -> its type, if known
    origin: list = [None]  # position -> (its parent, the parent's head, i)
    child: dict = {}  # (position, head, i) -> the position of argument i
    live: dict = {}  # type -> its constructors with values
    trail: list = []  # calls that undo each change, made when backing up
    failed: set = set()  # (row, state) pairs searched without a value
    goals = None
    for i in reversed(range(len(rows))):
        goals = ((i, None, None), ((rows[i], False, 0), goals))
    # (goal list, trail length, disjoint form?, parts by position of a value
    # the branch has); (None, key, ...) closes a state, disjoint None a probe
    choices: list = [(((query, True, 0), goals), 0, False, None)]

    def kid(pos, ctor, i):
        if (pos, ctor, i) not in child:
            tau = pos_types[pos]
            if ctor is row:
                tau = types[i]
            else:  # unknown, also below a head outside the type
                known = type(tau) is Named and decls.owner(ctor) == tau.name
                tau = decls.arg_types(ctor)[i] if known else None
            child[(pos, ctor, i)] = len(pos_types)
            pos_types.append(tau)
            origin.append((pos, ctor, i))
        return child[(pos, ctor, i)]

    def value_at(parts, pos):  # the part of a value at `pos`, given its root part
        chain = []
        while pos not in parts:
            chain.append(pos)
            pos = origin[pos][0]
        for p in reversed(chain):
            v, (_, ctor, i) = parts[pos], origin[p]
            parts[p] = v.args[i] if v is not None and v.ctor is ctor else None
            pos = p
        return parts[pos]

    def dead(ban, tau):  # do the bans leave a position of known type no value?
        if tau not in live:
            sig = signature_of(tau, decls)
            live[tau] = {c for c, ats in sig if None not in map(decls.least_value, ats)}
        return live[tau] <= ban

    def refuted(p) -> bool:  # does the branch rule out the row, by its conjunctive parts?
        todo = [(p, 0)]
        while todo:
            p, pos = todo.pop()
            kind, head = type(p), at.get(pos)
            if kind is Absurd or kind is Ctor and (
                p.ctor in head if type(head) is set else head not in (None, p.ctor)
            ):
                return True
            if kind is Ctor and head is p.ctor:
                todo.extend((a, child.get((pos, p.ctor, i))) for i, a in enumerate(p.args))
            elif kind is And:
                todo += ((p.left, pos), (p.right, pos))
        return False

    def kids(pos, _):
        head = at.get(pos)
        n = head.arity if type(head) is CtorName else 0
        return tuple((kid(pos, head, i), None) for i in range(n))

    def least(pos, _, results):  # the branch's least value at `pos`, None, or the error
        head, tau = at.get(pos), pos_types[pos]
        if type(head) is not CtorName:
            try:
                return _outside(frozenset(head or ()), tau, decls)
            except SignatureError as err:
                return err
        if tau is not None and head not in dict(signature_of(tau, decls)):
            return None
        failed = [r for r in results if type(r) is not Value]  # the first one decides
        return failed[0] if failed else Value(head, tuple(results))

    while choices:
        goals, mark, disjoint, seen = choices.pop()
        if goals is None:  # every branch from the state `mark` ended without a value
            failed.add(mark)
            continue
        if disjoint is None:  # a probe found no value, so its branch has none
            continue
        while len(trail) > mark:
            trail.pop()()
        while goals is not None:
            (q, positive, pos), goals = goals
            kind = type(q)
            if kind is int:  # before row q
                if disjoint and refuted(goals[0][0]):
                    goals = goals[1]
                    continue
                if choices and choices[-1][2] is not None:  # only another branch can come back
                    key = (q, frozenset((p, h if type(h) is CtorName else frozenset(h))
                                        for p, h in at.items() if h))
                    if key in failed:
                        break
                    choices.append((None, key, disjoint, None))
                if not (disjoint or seen or None in types):
                    choices.append((goals, len(trail), None, None))  # resumed by the probe
                    disjoint = True
            elif kind is Neg:
                goals = ((q.sub, not positive, pos), goals)
            elif kind is And or kind is Or:
                right = (q.right, positive, pos)
                if (kind is And) == positive:
                    goals = ((q.left, positive, pos), (right, goals))
                else:  # the left operand, or the right one
                    choices.append(((right, goals), len(trail), disjoint, seen))
                    goals = ((q.left, positive, pos), goals)
            elif kind is Ctor:
                args = [(a, positive, kid(pos, q.ctor, i)) for i, a in enumerate(q.args)]
                if positive:
                    for goal in reversed([(q.ctor, True, pos), *args]):
                        goals = (goal, goals)
                else:  # a banned head, or the head with an argument failing
                    for j in reversed(range(len(args))):
                        alt = (args[j], goals)
                        for a, _, p in reversed(args[:j] if disjoint else ()):
                            alt = ((a, True, p), alt)  # where those before it match
                        choices.append((((q.ctor, True, pos), alt), len(trail), disjoint, seen))
                    goals = ((q.ctor, False, pos), goals)
            elif kind is CtorName:
                head, tau = at.get(pos), pos_types[pos]
                if type(head) is CtorName:
                    if (head is q) != positive:
                        break
                    continue
                if positive:
                    if head and q in head:
                        break
                    trail.append(partial(at.__setitem__, pos, head))
                    at[pos] = q
                elif head is None:
                    trail.append(partial(at.__setitem__, pos, head))
                    at[pos] = head = {q}
                elif q in head:
                    continue
                else:  # a ban set this search made: grow it in place
                    head.add(q)
                    trail.append(partial(head.discard, q))
                if not positive and tau is not None and dead(head, tau):
                    break
                if seen and ((v := value_at(seen, pos)) is None or (v.ctor is q) != positive):
                    seen = None
            elif kind is Var or kind is Wild or kind is Absurd:
                if positive == (kind is Absurd):
                    break
            else:
                raise TypeError(f"not a pattern: {q!r}")
        else:
            v = fold(0, least, None, kids)
            if type(v) is SignatureError:
                raise v
            if v is not None:
                if not disjoint:
                    return v
                while choices[-1][2] is not None:  # drop the probe's other branches
                    choices.pop()
                goals, mark, _, _ = choices.pop()
                choices.append((goals, mark, False, {0: v}))
    return None


def exhaustive(rows, decls: DataDecls, col_types=None) -> bool:
    """Rows are exhaustive when the all-wildcard vector is not useful."""
    return non_exhaustiveness_witness(rows, decls, col_types) is None


def non_exhaustiveness_witness(rows, decls: DataDecls, col_types=None) -> tuple | None:
    wild = (Wild(),) * (len(rows[0]) if rows else 0)
    return useful_witness(rows, wild, decls, col_types)


def _matches(p, v: Value) -> bool:
    """Does the pattern match the value?  The truth of the matching
    judgment, `bool(match_pos(p, v))`, as a fold over the pattern read
    against the value."""

    def kids(node, v):
        if type(node) is Ctor:
            return tuple(zip(node.args, v.args)) if node.ctor is v.ctor else ()
        return tuple((sub, v) for sub, _ in pattern_kids(node, True))

    def step(node, v, results) -> bool:
        kind = type(node)
        if kind is Neg:
            return not results[0]
        if kind is Or:
            return results[0] or results[1]
        return all(results) and kind is not Absurd and (kind is not Ctor or node.ctor is v.ctor)

    return fold(p, step, v, kids)
