"""Shared builders for the test suite."""

from patalg.compiler import MatrixRow
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
