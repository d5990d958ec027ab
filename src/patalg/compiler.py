"""Compilation of case expressions to decision trees, and the matrix core.

`compile_case` reads a case's tree off the diagrams of the table that
`check` reads (`diagram.table`), so the two share one core.
The matrix core keeps the worked definitions of specialization and default
over clause matrices: a vector of scrutinees (variables or values) and
rows of normalized patterns.  Its row-level steps (`specialize_each`,
`default_rows`, `head_ctors`) work on any column.  Compiled trees are
checked by `oracle.validate_tree` and `oracle.differential_check_tree`.
"""

from __future__ import annotations

import itertools

from . import diagram, semantics, wellformed
from .diagram import ROOT, Occ, Sink, children
from .normalize import Ndnf, NegConj, PosConj, ndnf_wildcard, to_ndnf
from .semantics import ECase, EVar, Stuck, substitute
from .syntax import (
    Absurd, Ctor, Node, Value, Var, by_name, fold, fv_even, pattern_kids, rebuild,
)

# --- the matrix core ------------------------------------------------------------


class MatrixRow(Node):
    # cells: tuple of Ndnf, one per column; rhs: the right-hand side, None
    # where none is needed
    __slots__ = ("cells", "rhs")
    _defaults = (None,)


def head_ctors(column) -> frozenset:
    """Constructors a column can be tested against: the heads of positive
    conjuncts and the ban sets of negative conjuncts."""
    return frozenset().union(
        *((k.ctor,) if isinstance(k, PosConj) else k.banned for c in column for k in c.conjuncts)
    )


def specialize_each(rows, i: int, ctors) -> dict:
    """For every constructor c of `ctors`, the rows for values whose
    column-i head is c, as a list of (row, vars) pairs.  Each disjunct of
    a column-i cell yields its own row: a positive conjunct with head c
    puts its argument cells in front, a negative conjunct not banning c
    puts wildcards there, and other conjuncts yield nothing; vars are what
    the consumed conjunct bound.  One pass over the rows serves every
    constructor: a positive conjunct goes to the list of its head alone,
    so a column with one row per constructor costs one pass, not one per
    head."""
    out = {c: [] for c in ctors}
    for row in rows:
        rest = row.cells[:i] + row.cells[i + 1 :]
        for k in row.cells[i].conjuncts:
            if isinstance(k, PosConj):
                pairs = out.get(k.ctor)
                if pairs is not None:
                    front = tuple(Ndnf((a,)) for a in k.args)
                    pairs.append((MatrixRow(front + rest, row.rhs), k.vars))
            elif isinstance(k, NegConj):
                for ctor, pairs in out.items():
                    if ctor not in k.banned:
                        front = tuple(ndnf_wildcard() for _ in range(ctor.arity))
                        pairs.append((MatrixRow(front + rest, row.rhs), k.vars))
    return out


def default_rows(rows, i: int) -> list:
    """Rows for values whose column-i head is none of the column's heads:
    column i disappears and only negative conjuncts survive, since their
    ban sets are among the heads.  Pairs as in `specialize_each`."""
    out = []
    for row in rows:
        rest = row.cells[:i] + row.cells[i + 1 :]
        for k in row.cells[i].conjuncts:
            if isinstance(k, NegConj):
                out.append((MatrixRow(rest, row.rhs), k.vars))
    return out


# --- clause matrices -------------------------------------------------------------


class ClauseMatrix(Node):
    # scrutinees: tuple of Expression (variables or values); rows: tuple of
    # MatrixRow, each with one cell per scrutinee
    __slots__ = ("scrutinees", "rows", "default_rhs")

    def __new__(cls, scrutinees, rows, default_rhs):
        for row in rows:
            if len(row.cells) != len(scrutinees):
                raise ValueError(
                    f"row with {len(row.cells)} cells in a matrix of "
                    f"{len(scrutinees)} scrutinees"
                )
        return cls._new(cls, scrutinees, rows, default_rhs)


# Decision trees are interned, so equal subtrees are one node and a
# compiled tree is a DAG.
class Leaf(Node):
    __slots__ = ("rhs",)


class Arm(Node):
    __slots__ = ("ctor", "binders", "subtree")  # binders: ctor.arity names


class Switch(Node):
    __slots__ = ("scrutinee", "arms", "default_arm")  # arms: distinct ctors


DecisionTree = "Leaf | Switch"


def embed_case(e: ECase) -> ClauseMatrix:
    """Embed an ordinary case expression as a one-column matrix, running
    every clause pattern through normalization once.  Pattern variables
    named like the scrutinee are renamed apart first, because
    specialization substitutes the scrutinee for bound variables step by
    step, and a later step would capture it."""
    if not isinstance(e.scrutinee, (EVar, Value)):
        raise CompileError("case scrutinee must be a variable or a value")
    clauses = [_unshadow(c, e.scrutinee) for c in e.clauses]
    rows = tuple(MatrixRow((to_ndnf(c.pattern),), c.rhs) for c in clauses)
    return ClauseMatrix((e.scrutinee,), rows, e.default_rhs)


def _unshadow(c, scrutinee):
    if isinstance(scrutinee, EVar) and scrutinee.name in fv_even(c.pattern):
        return semantics.rename_clause(c, {scrutinee.name}, {scrutinee.name})
    return c


def _subproblem(m: ClauseMatrix, i: int, pairs, scrutinees) -> ClauseMatrix:
    """Clause matrix from the core's (row, vars) pairs: the variables a
    consumed conjunct bound now name scrutinee i."""
    old = m.scrutinees[i]
    rows = (MatrixRow(r.cells, substitute(r.rhs, dict.fromkeys(xs, old))) for r, xs in pairs)
    return ClauseMatrix(scrutinees, tuple(dict.fromkeys(rows)), m.default_rhs)


def specialize(i: int, ctor_pattern, m: ClauseMatrix) -> ClauseMatrix:
    """Constructor-specific subproblem: assumes scrutinee i already matched
    `ctor_pattern`, whose binders become new scrutinees in front."""
    ctor, binders = ctor_pattern
    if len(binders) != ctor.arity:
        raise ValueError("binder count must equal constructor arity")
    scrutinees = tuple(map(EVar, binders)) + m.scrutinees[:i] + m.scrutinees[i + 1 :]
    return _subproblem(m, i, specialize_each(m.rows, i, (ctor,))[ctor], scrutinees)


def default_matrix(i: int, heads, m: ClauseMatrix) -> ClauseMatrix:
    """Subproblem assuming scrutinee i matched none of the head
    constructors; the column disappears."""
    scrutinees = m.scrutinees[:i] + m.scrutinees[i + 1 :]
    return _subproblem(m, i, default_rows(m.rows, i), scrutinees)


class CompileError(ValueError):
    def __init__(self, message: str, report: wellformed.WfReport | None = None):
        super().__init__(message)
        self.report = report  # the failed wellformedness report, if any


def compile_case(e: ECase) -> DecisionTree:
    """Compile a case expression that passes `wf_expr`, the check of
    `patc check`.  Each clause's diagram, with a sink of its number and
    leaf in place of true, joins a union by the table's apply; as they are
    disjoint, no path reaches two such sinks.  One fold steps each node of
    the union once, so the tree is a DAG: a test is a switch, with arms in
    constructor order and `other` as the default arm, and the false sink
    is the default leaf.  The root is the scrutinee, its argument j is
    `$0_j`, and argument j of `$p` is `$p_j`."""
    report = wellformed.wf_expr(e)
    if not report.ok:
        raise CompileError(f"case is not wellformed:\n{report.describe()}", report)
    if not isinstance(e.scrutinee, (EVar, Value)):
        raise CompileError("case scrutinee must be a variable or a value")
    ds = diagram.table.start()
    names = {ROOT: "$0"}  # occurrence -> its name, given down from its parent's

    def binder(occ):
        if occ is ROOT:
            return e.scrutinee
        up = [occ]
        while up[-1].parent not in names:
            up.append(up[-1].parent)
        for o in reversed(up):
            names[o] = f"{names[o.parent]}_{o.index}"
        return EVar(names[occ])

    clauses = []  # a sink holds its number, so no two clauses share one
    for c in e.clauses:
        for p, binds in _binding_choices(c.pattern):
            leaf = Leaf(substitute(c.rhs, {x: binder(o) for x, o in binds}))
            clauses.append(ds.labelled(p, Sink((len(clauses), leaf))))

    def step(d, _, results):
        if type(d) is Sink:
            return d.matches[1] if d.matches else Leaf(e.default_rhs)
        arms = sorted(zip([c for c, _ in d.edges], results), key=lambda arm: by_name(arm[0]))
        arms = [Arm(c, tuple(binder(Occ(d.occ, c, j)).name for j in range(c.arity)), r) for c, r in arms]
        return Switch(binder(d.occ), tuple(arms), results[-1])

    return fold(ds.apply(clauses, True), step, None, children)


def _binding_choices(p) -> list:
    """The pattern `p` as (pattern, ((variable, occurrence), ...)) pairs
    whose patterns together match what `p` does, each binding every
    variable at one occurrence.  A variable bound at several occurrences
    (`P(x, A) | P(_, x & !A)`) gives one pair per choice of occurrence,
    with `#` at its others; linearity and determinism make them disjoint."""
    if not wellformed.pattern_facts(p).fv_even:
        return [(p, ())]
    occs: dict = {}  # variable -> its binding occurrences, in order

    def kids(node, ctx):
        occ, pos = ctx
        if type(node) is Ctor:
            return [(a, (Occ(occ, node.ctor, i), pos)) for i, a in enumerate(node.args)]
        return [(k, (occ, polarity)) for k, polarity in pattern_kids(node, pos)]

    def seen(node, ctx, _):
        if type(node) is Var and ctx[1]:
            occs.setdefault(node.name, {})[ctx[0]] = None

    fold(p, seen, (ROOT, True), kids)
    first = {x: next(iter(os)) for x, os in occs.items()}
    many = [x for x, os in occs.items() if len(os) > 1]
    if not many:
        return [(p, tuple(first.items()))]
    out = []
    for choice in itertools.product(*(occs[x] for x in many)):
        chosen = dict(zip(many, choice))

        def step(node, ctx, results):
            if type(node) is not Var:
                return rebuild(node, results)
            occ, pos = ctx
            return Absurd() if pos and chosen.get(node.name, occ) is not occ else node

        out.append((fold(p, step, (ROOT, True), kids), tuple({**first, **chosen}.items())))
    return out


# --- decision tree evaluation ----------------------------------------------------


def eval_tree(t: DecisionTree, env: dict, fuel: int = semantics.DEFAULT_FUEL):
    """Run a decision tree under `env`, the environment `semantics.eval`
    takes, binding the scrutinee variables to values: each arm taken adds
    its binders, and the leaf reached is evaluated under the result."""
    bindings = dict(env)
    node = t
    while isinstance(node, Switch):
        s = node.scrutinee
        if isinstance(s, EVar):
            if s.name not in bindings:
                return Stuck()
            v = bindings[s.name]
        elif isinstance(s, Value):
            v = s
        else:
            return Stuck()
        for arm in node.arms:
            if arm.ctor == v.ctor:
                bindings.update(zip(arm.binders, v.args))
                node = arm.subtree
                break
        else:
            node = node.default_arm
    return semantics.eval(node.rhs, fuel, env=bindings)
