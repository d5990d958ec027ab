"""Compilation of multi-column clause matrices to decision trees.

A matrix pairs a vector of scrutinees (variables or values) with rows of
normalized patterns.  Compilation repeatedly branches on a column with head
constructors, building constructor-specific subproblems (specialization)
and a subproblem for scrutinees matching none of the heads (default), until
a row of bare variable cells or the lone default clause remains.  The
row-level steps (`specialize_each`, `default_rows`, `head_ctors`) work
on any column; `specialize_each` specializes every head of a column in
one pass over the rows.

Compiled trees are checked against their source case by
`oracle.validate_tree`, which shares no code with this module's matrices.
"""

from __future__ import annotations

from . import semantics, wellformed
from .normalize import (
    Ndnf,
    NegConj,
    PosConj,
    conjunct_is_variable,
    ndnf_wildcard,
    to_ndnf,
)
from .semantics import ECase, EVar, Stuck, substitute
from .syntax import Node, Value, fold, fv_even, subst_to_dict

# --- the matrix core ------------------------------------------------------------
# Specialization, default and column heads over rows of normalized cells, for
# any column; a row's right-hand side is carried along untouched.


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
    named like the scrutinee are renamed apart first, because compilation
    substitutes the scrutinee for bound variables step by step, and a later
    step would capture it."""
    if not isinstance(e.scrutinee, (EVar, Value)):
        raise CompileError("case scrutinee must be a variable or a value")
    clauses = [_unshadow(c, e.scrutinee) for c in e.clauses]
    rows = tuple(MatrixRow((to_ndnf(c.pattern),), c.rhs) for c in clauses)
    return ClauseMatrix((e.scrutinee,), rows, e.default_rhs)


def _unshadow(c, scrutinee):
    if isinstance(scrutinee, EVar) and scrutinee.name in fv_even(c.pattern):
        return semantics.rename_clause(c, {scrutinee.name}, {scrutinee.name})
    return c


def _subst_rhs(rhs, var_set, target):
    """Map every variable of the set to the same scrutinee expression."""
    if not var_set:
        return rhs
    return substitute(rhs, {x: target for x in var_set})


def _subproblem(m: ClauseMatrix, i: int, pairs, scrutinees) -> ClauseMatrix:
    """Clause matrix from the core's (row, vars) pairs: the variables a
    consumed conjunct bound now name scrutinee i."""
    old = m.scrutinees[i]
    rows = (MatrixRow(r.cells, _subst_rhs(r.rhs, xs, old)) for r, xs in pairs)
    return ClauseMatrix(scrutinees, tuple(dict.fromkeys(rows)), m.default_rhs)


def specialize(i: int, ctor_pattern, m: ClauseMatrix) -> ClauseMatrix:
    """Constructor-specific subproblem: assumes scrutinee i already matched
    `ctor_pattern`, whose binders become new scrutinees in front."""
    ctor, binders = ctor_pattern
    if len(binders) != ctor.arity:
        raise ValueError("binder count must equal constructor arity")
    return _specialized(m, i, binders, specialize_each(m.rows, i, (ctor,))[ctor])


def _specialized(m: ClauseMatrix, i: int, binders, pairs) -> ClauseMatrix:
    """`specialize` from the core's pairs for one constructor."""
    scrutinees = tuple(map(EVar, binders)) + m.scrutinees[:i] + m.scrutinees[i + 1 :]
    return _subproblem(m, i, pairs, scrutinees)


def default_matrix(i: int, heads, m: ClauseMatrix) -> ClauseMatrix:
    """Subproblem assuming scrutinee i matched none of the head
    constructors; the column disappears."""
    scrutinees = m.scrutinees[:i] + m.scrutinees[i + 1 :]
    return _subproblem(m, i, default_rows(m.rows, i), scrutinees)


def _clean(m: ClauseMatrix) -> ClauseMatrix:
    """Drop the rows that can never match, those with an empty cell, and
    duplicate rows.  Specialization and default never make an empty cell,
    so only the matrix that compilation starts from needs cleaning."""
    rows = (row for row in m.rows if all(c.conjuncts for c in row.cells))
    return ClauseMatrix(m.scrutinees, tuple(dict.fromkeys(rows)), m.default_rhs)


class CompileError(ValueError):
    def __init__(self, message: str, report: wellformed.WfReport | None = None):
        super().__init__(message)
        self.report = report  # the failed wellformedness report, if any


def compile_case(e: ECase) -> DecisionTree:
    """Compile a case expression that passes the wellformedness check of
    `patc check` (`wf_expr`).  That check runs once, on the source
    patterns, and normalizes nothing; `embed_case` then normalizes each
    clause once, for the rows of the matrix, which is not checked again."""
    report = wellformed.wf_expr(e)
    if not report.ok:
        raise CompileError(f"case is not wellformed:\n{report.describe()}", report)
    return _compile(embed_case(e))


def _compile(m: ClauseMatrix) -> DecisionTree:
    """Compile a matrix, as a fold over its subproblems: a matrix's
    operands are its specialized matrices in constructor order, then its
    default matrix.  The fold steps each distinct matrix once, so equal
    subproblems compile once and the tree is a DAG.  Binders are named by
    occurrence: root scrutinee i is `$i`, and argument j of a scrutinee
    named `$p` is bound to `$p_j`, so equal subproblems are equal matrices
    (Maranget, "Compiling Pattern Matching to Good Decision Trees", ML
    2008)."""
    root = _clean(m)
    occ: dict = {}
    for i, s in enumerate(root.scrutinees):
        occ.setdefault(s, f"${i}")
    switches: dict = {}  # matrix -> (scrutinee, ctors, binders) of its switch

    def kids(m, _):
        if not m.rows or all(
            len(c.conjuncts) == 1 and conjunct_is_variable(c.conjuncts[0])
            for c in m.rows[0].cells
        ):
            return ()
        # Branch: pick the leftmost column with head constructors.
        for i in range(len(m.scrutinees)):
            heads = head_ctors([row.cells[i] for row in m.rows])
            if heads:
                break
        else:
            raise CompileError("no column with head constructors in a non-simple matrix")
        s = m.scrutinees[i]
        prefix = occ.get(s) or s.name  # a binder's name is its occurrence
        ctors = sorted(heads, key=lambda c: (c.name, c.arity))
        binders = [tuple(f"{prefix}_{j}" for j in range(c.arity)) for c in ctors]
        switches[m] = (s, ctors, binders)
        groups = specialize_each(m.rows, i, ctors)
        subs = [(_specialized(m, i, b, groups.pop(c)), None) for c, b in zip(ctors, binders)]
        subs.append((default_matrix(i, heads, m), None))
        return subs

    def step(m, _, results):
        if m in switches:
            s, ctors, binders = switches.pop(m)
            arms = tuple(map(Arm, ctors, binders, results))
            return Switch(s, arms, results[-1])
        if not m.rows:
            # Default: only the default clause is left.
            return Leaf(m.default_rhs)
        # Simple: the first row consists only of variable cells (this
        # includes the zero-column case).
        rhs = m.rows[0].rhs
        for cell, scrut in zip(m.rows[0].cells, m.scrutinees):
            rhs = _subst_rhs(rhs, cell.conjuncts[0].vars, scrut)
        return Leaf(rhs)

    return fold(root, step, None, kids)


# --- decision tree evaluation ----------------------------------------------------


def eval_tree(t: DecisionTree, env, fuel: int = semantics.DEFAULT_FUEL):
    """Run a decision tree under an environment binding the scrutinee
    variables to values, then evaluate the reached leaf."""
    bindings = subst_to_dict(env)
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
    return semantics.eval(substitute(node.rhs, bindings), fuel)
