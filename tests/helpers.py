"""Shared builders for the test suite."""

from patalg import overlap
from patalg.compiler import MatrixRow
from patalg.normalize import to_ndnf
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
from patalg.wellformed import Violation, WfReport


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
    overlap check deciding every pair of clauses in (i, j) order."""
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
                if overlap.decide(ndnfs[i], ndnfs[j], decls):
                    out.append(
                        Violation(
                            "overlap",
                            path + (i + 1,),
                            f"clause patterns "
                            f"{format_pattern(e.clauses[i].pattern)} and "
                            f"{format_pattern(e.clauses[j].pattern)} overlap",
                        )
                    )
        _wf_all_pairs(e.default_rhs, path + (len(e.clauses) + 1,), decls, out)
        return
    for i, a in enumerate(e.args):
        _wf_all_pairs(a, path + (i,), decls, out)
