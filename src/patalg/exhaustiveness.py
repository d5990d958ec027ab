"""Usefulness, exhaustiveness and overlap, read off `diagram`'s diagrams.

A vector of patterns `q` is useful for rows of patterns when `q & !r_1 &
... & !r_m` has a value (several columns are wrapped in `$row/n`), rows
are exhaustive when the all-wildcard vector is not useful, and two
patterns overlap when `p & q` has one.  Under declarations the witness is
the value of the least path that has one (`diagram.Reading.least`),
checked against the source patterns.  A case's overlapping clauses come
from splitting its clauses on their heads (`overlapping_pairs`).
"""

from __future__ import annotations

from functools import reduce

from . import diagram
from .diagram import ROOT, Occ, Reading, SignatureError, Test, first
from .syntax import Absurd, Ctor, CtorName, Neg, Or, SoundnessError, Value, Wild, fold, pattern_kids
from .typecheck import DataDecls, Named, Type


def overlapping_pairs(patterns) -> list:
    """The pairs (i, j), i < j, in increasing order, of patterns that some
    value matches both of, in the open world.  The clauses are split by
    the head each takes at the first occurrence that any of them tests, as
    a head index splits them at the root, and each part is split again.  A
    clause that takes no single head there (a sink, a test of a later
    occurrence, or a test with two edges or a live `other`) is decided
    against each clause of its part by the diagram of the two, and leaves
    the part; so no clause is in two parts, and a case costs at most a
    decision per pair.  In the open world every diagram but the false sink
    has a value below any path that reaches it."""
    ds = diagram.table.start()
    false, pairs = ds.false, set()
    todo = [[(i, ds.pattern(p, ROOT)) for i, p in enumerate(patterns)]]
    while todo:
        part = [(i, d) for i, d in todo.pop() if d is not false]
        tests = [d.occ for _, d in part if type(d) is Test]
        occ = reduce(first, tests) if len(part) > 1 and tests else None
        tight, loose, parts = [], [], {}
        for i, d in part:
            if type(d) is Test and d.occ is occ and d.other is false and len(d.edges) == 1:
                tight.append((i, *next(iter(d.edges))))
            else:
                loose.append((i, d))
        for n, (i, d) in enumerate(loose):  # each other clause, read at its one edge if tight
            at, rest = (dict(d.edges), d.other) if type(d) is Test and d.occ is occ else ({}, d)
            meets = [(j, d, e) for j, e in loose[n + 1 :]]
            meets += [(j, at.get(c, rest), child) for j, c, child in tight]
            found = [j for j, a, b in meets if ds.apply([a, b], False) is not false]
            pairs.update((min(i, j), max(i, j)) for j in found)
        for i, c, child in tight:
            parts.setdefault(c, []).append((i, child))
        todo += [ms for ms in parts.values() if len(ms) > 1]
    return sorted(pairs)


def overlaps(p, q) -> bool:
    """Does some value match both patterns, in the open world?"""
    ds = diagram.table.start()
    return ds.apply([ds.pattern(p, ROOT), ds.pattern(q, ROOT)], False) is not ds.false


def scrutinee_type(patterns, decls) -> Type | None:
    """The type of a case's scrutinee: the one declared type owning the
    constructors at the roots of the clause patterns, under `&`, `|` and
    `!`, or None."""
    heads: set = set()
    kids = lambda n, pos: () if type(n) is Ctor else pattern_kids(n, pos)  # noqa: E731
    for p in patterns:
        fold(p, lambda n, _, r: type(n) is Ctor and heads.add(n.ctor), True, kids)
    owners = {decls.owner(c) for c in heads} - {None} if decls is not None else ()
    return Named(owners.pop()) if len(owners) == 1 else None


def case_notes(patterns, decls) -> tuple:
    """What `check` notes of a case at the type that `scrutinee_type`
    names: the least value that no clause matches (None if there is none,
    or the SignatureError that stops the walk), from
    `non_exhaustiveness_witness`; and the clauses that match no value, but
    those whose `other` edge no declared type types.  The clause diagrams
    come from the table, where `overlapping_pairs` left them, and a
    clause's diagram and its complement's share their nodes."""
    tau = scrutinee_type(patterns, decls)
    ds, dead = diagram.table.start(), []
    reading = Reading(decls, {ROOT: tau}, ds)
    for i, p in enumerate(patterns):
        try:
            if reading.least(ds.pattern(p, ROOT)) is None:
                dead.append(i)
        except SignatureError:
            pass
    try:
        w = non_exhaustiveness_witness([(p,) for p in patterns], decls, (tau,))
    except SignatureError as err:
        return err, dead
    return (None if w is None else w[0]), dead


def useful_witness(rows, vector, decls: DataDecls, col_types=None) -> tuple | None:
    """A value vector matching the pattern vector but no row, or None.
    Rows and the vector are tuples of patterns, one per column; a column's
    type is unknown without `col_types`, and with no declarations (None)
    the world is open.  The witness is the least value of the diagram of
    `q & !r_1 & ... & !r_m`, and is checked against both conditions; a
    failure raises SoundnessError."""
    vector = tuple(vector)
    n = len(vector)
    if any(len(r) != n for r in rows):
        raise ValueError("pattern vector width differs from matrix width")
    types = tuple(col_types) if col_types else (None,) * n
    if n == 1:  # one column needs no row constructor
        query, covered, seeds = vector[0], [r[0] for r in rows], {ROOT: types[0]}
    else:
        row = CtorName("$row", n)
        query, *covered = (Ctor(row, tuple(r)) for r in (vector, *rows))
        seeds = {ROOT: None, **{Occ(ROOT, row, i): t for i, t in enumerate(types)}}
    ds = diagram.table.start()
    negated = (ds.pattern(r, ROOT, False) for r in covered)
    task = ds.task([ds.pattern(query, ROOT), *negated], False)
    if (w := Reading(decls, seeds, ds).least(task)) is None:
        return None
    if not _matches(query, w):
        raise SoundnessError("usefulness witness fails the pattern vector")
    if any(_matches(r, w) for r in covered):
        raise SoundnessError("usefulness witness is covered by a row")
    return (w,) if n == 1 else w.args


def exhaustive(rows, decls: DataDecls, col_types=None) -> bool:
    """Rows are exhaustive when the all-wildcard vector is not useful."""
    return non_exhaustiveness_witness(rows, decls, col_types) is None


def non_exhaustiveness_witness(rows, decls: DataDecls, col_types=None) -> tuple | None:
    width = len(col_types) if col_types else len(rows[0]) if rows else 0
    return useful_witness(rows, (Wild(),) * width, decls, col_types)


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
