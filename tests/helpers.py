"""Shared builders for the test suite."""

from patalg.compiler import MatrixRow
from patalg.semantics import (
    DEFAULT_FUEL,
    Diverged,
    Evaluated,
    IsValue,
    Nondeterministic,
    Stuck,
    step,
)
from patalg.syntax import Ctor, CtorName, Value, Var
from patalg.typecheck import DataDecls, Named


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
