"""Shared builders for the test suite."""

from patalg import overlap
from patalg.compiler import MatrixRow
from patalg.normalize import Ndnf, NegConj, PosConj, embed_ndnf, ndnf_wildcard, to_ndnf
from patalg.pretty import format_pattern
from patalg.semantics import (
    DEFAULT_FUEL,
    Diverged,
    ECase,
    EVar,
    Evaluated,
    IsValue,
    Nondeterministic,
    Stuck,
    step,
)
from patalg.syntax import (
    Absurd,
    And,
    Ctor,
    CtorName,
    Neg,
    Or,
    Value,
    Var,
    Wild,
    fv_even,
    fv_odd,
)
from patalg.typecheck import DataDecls, Named
from patalg.wellformed import Violation, WfReport, pattern_facts


def cn(name, arity=0):
    return CtorName(name, arity)


def c(name, *args):
    """Constructor pattern; arity from the argument count."""
    return Ctor(CtorName(name, len(args)), tuple(args))


def v(name, *args):
    """Value; arity from the argument count."""
    return Value(CtorName(name, len(args)), tuple(args))


def var(name):
    return Var(name)


def pattern_matrix(rows):
    """Usefulness matrix from tuples of cells: rows without right-hand sides."""
    return tuple(MatrixRow(tuple(r)) for r in rows)


def eval_by_steps(e, fuel=DEFAULT_FUEL, defs=None):
    """Reference evaluator: iterate `step` from the root, one unit of fuel
    per step.  `semantics.eval` must give the same outcome."""
    cur = e
    for _ in range(fuel):
        r = step(cur, defs)
        if isinstance(r, IsValue):
            return Evaluated(cur)
        if isinstance(r, Stuck):
            return Stuck()
        if len(r.successors) > 1:
            return Nondeterministic()
        cur = r.successors[0]
    return Diverged()


COLOR = DataDecls(
    {"Color": ((cn("Red"), ()), (cn("Green"), ()), (cn("Blue"), ()))}
)

DAYS = DataDecls(
    {"Day": tuple((cn(d), ()) for d in ("Mo", "Tu", "We", "Th", "Fr", "Sa", "Su"))}
)

BOOL_LIST = DataDecls(
    {
        "B": ((cn("True"), ()), (cn("False"), ())),
        "List": ((cn("Nil"), ()), (CtorName("Cons", 2), (Named("B"), Named("List")))),
    }
)

T = v("True")
F = v("False")


# --- reference wellformedness: recursive facts, every pair of clauses ---------


def linear_pos_by_recursion(p):
    """Reference positive linearity, recomputing free variables at every
    node; `wellformed.linear_pos` must agree."""
    if isinstance(p, (Var, Wild, Absurd)):
        return True
    if isinstance(p, Or):
        return (
            linear_pos_by_recursion(p.left)
            and linear_pos_by_recursion(p.right)
            and fv_even(p.left) == fv_even(p.right)
        )
    if isinstance(p, And):
        return (
            linear_pos_by_recursion(p.left)
            and linear_pos_by_recursion(p.right)
            and not (fv_even(p.left) & fv_even(p.right))
        )
    if isinstance(p, Neg):
        return linear_neg_by_recursion(p.sub)
    if not all(linear_pos_by_recursion(a) for a in p.args):
        return False
    seen = set()
    for a in p.args:
        fv = fv_even(a)
        if seen & fv:
            return False
        seen |= fv
    return True


def linear_neg_by_recursion(p):
    """Reference negative linearity; `wellformed.linear_neg` must agree."""
    if isinstance(p, (Var, Wild, Absurd)):
        return True
    if isinstance(p, Or):
        return (
            linear_neg_by_recursion(p.left)
            and linear_neg_by_recursion(p.right)
            and not (fv_odd(p.left) & fv_odd(p.right))
        )
    if isinstance(p, And):
        return (
            linear_neg_by_recursion(p.left)
            and linear_neg_by_recursion(p.right)
            and fv_odd(p.left) == fv_odd(p.right)
        )
    if isinstance(p, Neg):
        return linear_pos_by_recursion(p.sub)
    return all(linear_neg_by_recursion(a) for a in p.args) and all(
        not fv_odd(a) for a in p.args
    )


def deterministic_by_recursion(p, decls=None):
    """Reference determinism, deciding each side condition where the
    recursion meets it; `wellformed.deterministic` must agree, and raise
    where this raises."""
    if isinstance(p, (Var, Wild, Absurd)):
        return True
    if isinstance(p, Neg):
        return deterministic_by_recursion(p.sub, decls)
    if isinstance(p, (Or, And)):
        if not (
            deterministic_by_recursion(p.left, decls)
            and deterministic_by_recursion(p.right, decls)
        ):
            return False
        if isinstance(p, Or):
            if not fv_even(p.left) and not fv_even(p.right):
                return True
            return overlap.disjoint(p.left, p.right, decls)
        if not fv_odd(p.left) and not fv_odd(p.right):
            return True
        return overlap.disjoint(Neg(p.left), Neg(p.right), decls)
    return all(deterministic_by_recursion(a, decls) for a in p.args)


def wf_expr_all_pairs(e, decls=None):
    """Reference `wellformed.wf_expr`: the recursive checks above, and the
    overlap check deciding every pair of clauses in (i, j) order, reporting
    a pair whose ban sets fit no declared type."""
    out = []
    _wf_all_pairs(e, (), decls, out)
    return WfReport(tuple(out))


def _wf_all_pairs(e, path, decls, out):
    if isinstance(e, (EVar, Value)):
        return
    if isinstance(e, ECase):
        _wf_all_pairs(e.scrutinee, path + (0,), decls, out)
        ndnfs = []
        for i, cl in enumerate(e.clauses):
            cpath = path + (i + 1,)
            shown = format_pattern(cl.pattern)
            if not deterministic_by_recursion(cl.pattern, decls):
                out.append(
                    Violation(
                        "nondeterministic",
                        cpath,
                        f"pattern {shown} can bind differently across derivations",
                    )
                )
            if not linear_pos_by_recursion(cl.pattern):
                out.append(
                    Violation(
                        "nonlinear", cpath, f"pattern {shown} is not positively linear"
                    )
                )
            ndnfs.append(to_ndnf(cl.pattern))
            _wf_all_pairs(cl.rhs, cpath, decls, out)
        for i in range(len(e.clauses)):
            for j in range(i + 1, len(e.clauses)):
                try:
                    if not overlap.decide(ndnfs[i], ndnfs[j], decls):
                        continue
                    rule, says = "overlap", "overlap"
                except overlap.OverlapTypeError as err:
                    rule, says = "overlap-type", f"cannot be compared by type: {err}"
                out.append(
                    Violation(
                        rule,
                        path + (i + 1,),
                        f"clause patterns "
                        f"{format_pattern(e.clauses[i].pattern)} and "
                        f"{format_pattern(e.clauses[j].pattern)} {says}",
                    )
                )
        _wf_all_pairs(e.default_rhs, path + (len(e.clauses) + 1,), decls, out)
        return
    for i, a in enumerate(e.args):
        _wf_all_pairs(a, path + (i,), decls, out)


def wf_matrix_all_pairs(m):
    """Reference `wellformed.wf_matrix`: the same per-row checks, and the
    overlap check deciding every pair of rows in (i, j) order."""
    out = []
    scrutinee_vars = {s.name for s in m.scrutinees if isinstance(s, EVar)}
    for r, row in enumerate(m.rows):
        fvs = []
        for col, cell in enumerate(row.cells):
            facts = pattern_facts(embed_ndnf(cell))
            if not facts.deterministic():
                out.append(
                    Violation(
                        "nondeterministic", (r, col), "cell pattern is not deterministic"
                    )
                )
            if not facts.linear_pos:
                out.append(
                    Violation(
                        "nonlinear", (r, col), "cell pattern is not positively linear"
                    )
                )
            fvs.append(facts.fv_even)
        seen = set()
        for col, fv in enumerate(fvs):
            if seen & fv:
                out.append(
                    Violation(
                        "shared-variables",
                        (r, col),
                        f"variables {sorted(seen & fv)} bound in more than "
                        f"one column of the row",
                    )
                )
            seen |= fv
        if seen & scrutinee_vars:
            out.append(
                Violation(
                    "shadows-scrutinee",
                    (r,),
                    f"variables {sorted(seen & scrutinee_vars)} bound under "
                    f"the name of a scrutinee",
                )
            )
    for i in range(len(m.rows)):
        for j in range(i + 1, len(m.rows)):
            cells = zip(m.rows[i].cells, m.rows[j].cells)
            if not any(not overlap.decide(a, b) for a, b in cells):
                out.append(
                    Violation("overlap", (i, j), f"rows {i} and {j} overlap in every column")
                )
    return WfReport(tuple(out))


# --- reference specialization: one constructor per pass -----------------------


def specialize_rows(rows, i, ctor):
    """Rows for values whose column-i head is `ctor`, one pass per
    constructor; `compiler.specialize_each` must give the same (row, vars)
    pairs in the same order for every constructor it is asked for."""
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
