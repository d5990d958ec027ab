"""Compilation of multi-column clause matrices to decision trees.

A matrix pairs a vector of scrutinees (variables or values) with rows of
normalized patterns.  Compilation repeatedly branches on a column with head
constructors, building constructor-specific subproblems (specialization)
and a subproblem for scrutinees matching none of the heads (default), until
a row of bare variable cells or the lone default clause remains.  The
row-level steps (`specialize_rows`, `default_rows`, `column_heads`) are the
matrix core that usefulness checking in `exhaustiveness` shares.

`step_matrix` implements the multi-column single-step relation directly on
top of the matching judgments; it is the independent oracle against which
compiled trees are checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from . import semantics, wellformed
from .normalize import (
    Ndnf,
    NegConj,
    PosConj,
    UnsatConj,
    cell_is_void,
    conjunct_is_variable,
    embed_ndnf,
    ndnf_wildcard,
    to_ndnf,
)
from .semantics import ECase, EVar, Stepped, Stuck, substitute, value_to_expr
from .syntax import CtorName, fv_even, match_pos, subst_to_dict

FRESH_PREFIX = "$k"


@dataclass
class FreshSupply:
    """Generator of binder names; the prefix is rejected by the parser, so
    generated names cannot collide with program identifiers."""

    counter: int = 0
    prefix: str = FRESH_PREFIX

    def fresh_names(self, n: int) -> tuple:
        names = tuple(f"{self.prefix}{self.counter + i}" for i in range(n))
        self.counter += n
        return names


# --- the matrix core ------------------------------------------------------------
# Specialization, default and column heads over rows of normalized cells, for
# any column.  Compilation and usefulness checking (`exhaustiveness`) share
# them; a row's right-hand side is carried along untouched.


@dataclass(frozen=True)
class MatrixRow:
    cells: tuple  # of Ndnf, one per column
    rhs: object = None  # the right-hand side; None in usefulness matrices


def column_heads(column) -> tuple:
    """Constructors a column can be tested against, as two sets: the heads
    of positive conjuncts and the ban sets of negative conjuncts."""
    pos: set = set()
    neg: set = set()
    for cell in column:
        for k in cell.conjuncts:
            if isinstance(k, PosConj):
                pos.add(k.ctor)
            elif isinstance(k, NegConj):
                neg.update(k.banned)
    return frozenset(pos), frozenset(neg)


def head_ctors(column) -> frozenset:
    pos, neg = column_heads(column)
    return pos | neg


def specialize_rows(rows, i: int, ctor: CtorName) -> list:
    """Rows for values whose column-i head is `ctor`.  Each disjunct of a
    column-i cell yields its own row: a positive conjunct with that head
    puts its argument cells in front, a negative conjunct not banning it
    puts wildcards there, and other conjuncts yield nothing.  Returns
    (row, vars) pairs, vars being what the consumed conjunct bound."""
    out = []
    for row in rows:
        rest = row.cells[:i] + row.cells[i + 1 :]
        for k in row.cells[i].conjuncts:
            if isinstance(k, PosConj) and k.ctor == ctor:
                front = tuple(Ndnf((a,)) for a in k.args)
            elif isinstance(k, NegConj) and ctor not in k.banned:
                front = tuple(ndnf_wildcard() for _ in range(ctor.arity))
            else:
                continue
            out.append((MatrixRow(front + rest, row.rhs), k.vars))
    return out


def default_rows(rows, i: int) -> list:
    """Rows for values whose column-i head is none of the column's heads:
    column i disappears and only negative conjuncts survive, since their
    ban sets are among the heads.  Pairs as in `specialize_rows`."""
    out = []
    for row in rows:
        rest = row.cells[:i] + row.cells[i + 1 :]
        for k in row.cells[i].conjuncts:
            if isinstance(k, NegConj):
                out.append((MatrixRow(rest, row.rhs), k.vars))
    return out


def _dedup_rows(rows) -> tuple:
    return tuple(dict.fromkeys(rows))


# --- clause matrices -------------------------------------------------------------


@dataclass(frozen=True)
class ClauseMatrix:
    scrutinees: tuple  # of Expression (variables or values)
    rows: tuple  # of MatrixRow
    default_rhs: "semantics.Expression"

    def __post_init__(self):
        for row in self.rows:
            if len(row.cells) != len(self.scrutinees):
                raise ValueError(
                    f"row with {len(row.cells)} cells in a matrix of "
                    f"{len(self.scrutinees)} scrutinees"
                )


@dataclass(frozen=True)
class Leaf:
    rhs: "semantics.Expression"


@dataclass(frozen=True)
class Arm:
    ctor: CtorName
    binders: tuple  # of str, length == ctor.arity
    subtree: "DecisionTree"


@dataclass(frozen=True)
class Switch:
    scrutinee: "semantics.Expression"
    arms: tuple  # of Arm, pairwise distinct constructors
    default_arm: "DecisionTree"


DecisionTree = Union[Leaf, Switch]


def _scrutable(e) -> bool:
    return isinstance(e, EVar) or semantics.is_value(e)


def embed_case(e: ECase) -> ClauseMatrix:
    """Embed an ordinary case expression as a one-column matrix, running
    every clause pattern through normalization.  Pattern variables named
    like the scrutinee are renamed apart first, as `wf_matrix` requires."""
    if not _scrutable(e.scrutinee):
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
    return ClauseMatrix(scrutinees, _dedup_rows(rows), m.default_rhs)


def specialize(i: int, ctor_pattern, m: ClauseMatrix) -> ClauseMatrix:
    """Constructor-specific subproblem: assumes scrutinee i already matched
    `ctor_pattern`, whose binders become new scrutinees in front."""
    ctor, binders = ctor_pattern
    if len(binders) != ctor.arity:
        raise ValueError("binder count must equal constructor arity")
    scrutinees = (
        tuple(EVar(b) for b in binders)
        + m.scrutinees[:i]
        + m.scrutinees[i + 1 :]
    )
    return _subproblem(m, i, specialize_rows(m.rows, i, ctor), scrutinees)


def default_matrix(i: int, heads, m: ClauseMatrix) -> ClauseMatrix:
    """Subproblem assuming scrutinee i matched none of the head
    constructors; the column disappears."""
    scrutinees = m.scrutinees[:i] + m.scrutinees[i + 1 :]
    return _subproblem(m, i, default_rows(m.rows, i), scrutinees)


def _canon_cell(cell: Ndnf) -> Ndnf:
    sat = tuple(k for k in cell.conjuncts if not isinstance(k, UnsatConj))
    return Ndnf(tuple(dict.fromkeys(sat))) if sat else cell


def _clean(m: ClauseMatrix) -> ClauseMatrix:
    """Drop rows that can never match and unsatisfiable disjuncts inside
    cells; they contribute nothing to any use of the matrix."""
    rows = []
    for row in m.rows:
        if any(cell_is_void(c) for c in row.cells):
            continue
        rows.append(MatrixRow(tuple(_canon_cell(c) for c in row.cells), row.rhs))
    return ClauseMatrix(m.scrutinees, _dedup_rows(rows), m.default_rhs)


class CompileError(ValueError):
    def __init__(self, message: str, report: Optional[wellformed.WfReport] = None):
        super().__init__(message)
        self.report = report  # the failed wellformedness report, if any


def compile(m: ClauseMatrix, fresh: Optional[FreshSupply] = None) -> DecisionTree:
    """Compile a wellformed clause matrix to a decision tree."""
    report = wellformed.wf_matrix(m)
    if not report.ok:
        raise CompileError(f"matrix is not wellformed:\n{report.describe()}", report)
    if fresh is None:
        fresh = FreshSupply()
    return _compile(_clean(m), fresh, depth=0)


def compile_case(e: ECase) -> DecisionTree:
    """Compile a case expression that passes the wellformedness check of
    `patc check` (`wf_expr`).  That check runs once, on the source
    patterns; the embedded matrix is not checked again."""
    report = wellformed.wf_expr(e)
    if not report.ok:
        raise CompileError(f"case is not wellformed:\n{report.describe()}", report)
    return _compile(_clean(embed_case(e)), FreshSupply(), depth=0)


def _compile(m: ClauseMatrix, fresh: FreshSupply, depth: int) -> DecisionTree:
    if depth > 10_000:
        raise CompileError("compilation recursion limit exceeded")
    # Default: only the default clause is left.
    if not m.rows:
        return Leaf(m.default_rhs)
    first = m.rows[0]
    # Simple: the first row consists only of variable cells (this includes
    # the zero-column case).
    if all(
        len(c.conjuncts) == 1 and conjunct_is_variable(c.conjuncts[0])
        for c in first.cells
    ):
        rhs = first.rhs
        for cell, scrut in zip(first.cells, m.scrutinees):
            rhs = _subst_rhs(rhs, cell.conjuncts[0].vars, scrut)
        return Leaf(rhs)
    # Branch: pick the leftmost column with head constructors.
    for i in range(len(m.scrutinees)):
        heads = head_ctors([row.cells[i] for row in m.rows])
        if heads:
            break
    else:
        raise CompileError("no column with head constructors in a non-simple matrix")
    arms = []
    for ctor in sorted(heads, key=lambda c: (c.name, c.arity)):
        binders = fresh.fresh_names(ctor.arity)
        sub = _compile(_clean(specialize(i, (ctor, binders), m)), fresh, depth + 1)
        arms.append(Arm(ctor, binders, sub))
    dflt = _compile(_clean(default_matrix(i, heads, m)), fresh, depth + 1)
    return Switch(m.scrutinees[i], tuple(arms), dflt)


# --- decision tree evaluation ----------------------------------------------------


def eval_tree(t: DecisionTree, env, fuel: int = semantics.DEFAULT_FUEL):
    """Run a decision tree under an environment binding the scrutinee
    variables to values, then evaluate the reached leaf."""
    bindings = dict(subst_to_dict(env))
    node = t
    while isinstance(node, Switch):
        s = node.scrutinee
        if isinstance(s, EVar):
            if s.name not in bindings:
                return Stuck()
            v = bindings[s.name]
        elif semantics.is_value(s):
            v = semantics.expr_to_value(s)
        else:
            return Stuck()
        for arm in node.arms:
            if arm.ctor == v.ctor:
                bindings.update(zip(arm.binders, v.args))
                node = arm.subtree
                break
        else:
            node = node.default_arm
    rhs = substitute(
        node.rhs, {x: value_to_expr(v) for x, v in bindings.items()}
    )
    return semantics.eval(rhs, fuel)


# --- multi-column single step (the compilation oracle) ----------------------------


def step_matrix(m: ClauseMatrix):
    """All expressions a multi-column case over value scrutinees can step
    to: one per matching row and substitution choice, or the default
    right-hand side when no row matches."""
    values = []
    for s in m.scrutinees:
        if not semantics.is_value(s):
            raise ValueError("step_matrix requires value scrutinees")
        values.append(semantics.expr_to_value(s))
    successors = []
    any_match = False
    for row in m.rows:
        per_column = [
            match_pos(embed_ndnf(cell), v) for cell, v in zip(row.cells, values)
        ]
        if not all(per_column):
            continue
        any_match = True
        for combo in itertools.product(*per_column):
            rhs = row.rhs
            for s in combo:
                rhs = semantics._apply_loose(rhs, s)
            successors.append(rhs)
    if not any_match:
        successors.append(m.default_rhs)
    return Stepped(tuple(dict.fromkeys(successors)))


def eval_matrix(m: ClauseMatrix, fuel: int = semantics.DEFAULT_FUEL):
    """Multi-step evaluation through the matrix relation; reports
    nondeterminism like expression evaluation does."""
    r = step_matrix(m)
    if len(r.successors) > 1:
        return semantics.Nondeterministic()
    return semantics.eval(r.successors[0], fuel)


# --- decision tree invariants ------------------------------------------------------


def tree_invariants_ok(t: DecisionTree) -> bool:
    """Arms are pairwise distinct, binder counts match arities and no
    scrutinee position is examined twice along a path."""
    return _invariants(t, frozenset())


def _invariants(t: DecisionTree, switched: frozenset) -> bool:
    if isinstance(t, Leaf):
        return True
    ctors = [a.ctor for a in t.arms]
    if len(set(ctors)) != len(ctors):
        return False
    if t.scrutinee in switched:
        return False
    switched = switched | {t.scrutinee}
    if any(len(a.binders) != a.ctor.arity for a in t.arms):
        return False
    return all(_invariants(a.subtree, switched) for a in t.arms) and _invariants(
        t.default_arm, switched
    )
