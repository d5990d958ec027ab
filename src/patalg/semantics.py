"""Expressions with case/default clauses and their order-independent
small-step semantics.

`step` returns the set of all expressions reachable in one step: a case
over a value has one successor per matching clause and derivable
substitution, or steps to its default right-hand side when every clause
fails.  Congruence descends into the leftmost non-value position.  Given
a definition table, a call whose arguments are values unfolds to the
definition's body (call by value).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Union

from .syntax import (
    CtorName,
    Pattern,
    Value,
    Var,
    fv_even,
    fv_odd,
    is_proper,
    map_vars,
    match_pos,
    subst_to_dict,
)


@dataclass(frozen=True)
class EVar:
    name: str


@dataclass(frozen=True)
class ECtor:
    ctor: CtorName
    args: tuple  # of Expression

    def __post_init__(self):
        if len(self.args) != self.ctor.arity:
            raise ValueError(
                f"constructor {self.ctor.name}/{self.ctor.arity} applied "
                f"to {len(self.args)} arguments"
            )


@dataclass(frozen=True)
class Clause:
    pattern: Pattern
    rhs: "Expression"


@dataclass(frozen=True)
class ECase:
    """Case expression; carries exactly one default right-hand side."""

    scrutinee: "Expression"
    clauses: tuple  # of Clause
    default_rhs: "Expression"


@dataclass(frozen=True)
class Call:
    """Application of a top-level definition; `step` unfolds it when given
    the definition table."""

    name: str
    args: tuple  # of Expression


Expression = Union[EVar, ECtor, ECase, Call]


# --- values as expressions -----------------------------------------------------


def is_value(e) -> bool:
    return isinstance(e, ECtor) and all(is_value(a) for a in e.args)


def value_to_expr(v: Value) -> ECtor:
    return ECtor(v.ctor, tuple(value_to_expr(a) for a in v.args))


def expr_to_value(e) -> Value:
    if not isinstance(e, ECtor):
        raise ValueError(f"not a value: {e!r}")
    return Value(e.ctor, tuple(expr_to_value(a) for a in e.args))


# --- substitution ----------------------------------------------------------------


def expr_free_vars(e) -> frozenset:
    if isinstance(e, EVar):
        return frozenset({e.name})
    if isinstance(e, ECase):
        out = expr_free_vars(e.scrutinee) | expr_free_vars(e.default_rhs)
        for c in e.clauses:
            out |= expr_free_vars(c.rhs) - fv_even(c.pattern)
        return out
    if isinstance(e, (ECtor, Call)):
        return frozenset().union(*(expr_free_vars(a) for a in e.args)) if e.args else frozenset()
    raise TypeError(f"not an expression: {e!r}")


def substitute(e, mapping: dict):
    """Capture-avoiding simultaneous replacement of free variables by
    expressions.  Clause right-hand sides shadow the variables their
    pattern binds; binders that would capture a substituted variable are
    alpha-renamed first (ground values can never be captured)."""
    if not mapping:
        return e
    if isinstance(e, EVar):
        return mapping.get(e.name, e)
    if isinstance(e, ECase):
        new_clauses = []
        for c in e.clauses:
            bound = fv_even(c.pattern)
            inner = {x: v for x, v in mapping.items() if x not in bound}
            if inner:
                payload = frozenset().union(
                    *(expr_free_vars(v) for v in inner.values())
                )
                clash = bound & payload
                if clash:
                    c = rename_clause(c, clash, payload | set(inner))
            new_clauses.append(Clause(c.pattern, substitute(c.rhs, inner)))
        return ECase(
            substitute(e.scrutinee, mapping),
            tuple(new_clauses),
            substitute(e.default_rhs, mapping),
        )
    if isinstance(e, (ECtor, Call)):
        return dataclasses.replace(
            e, args=tuple(substitute(a, mapping) for a in e.args)
        )
    raise TypeError(f"not an expression: {e!r}")


def rename_clause(c: Clause, clash, avoid) -> Clause:
    """Alpha-rename the clashing pattern binders of a clause.  Fresh names
    carry the reserved $ marker, so they cannot collide with program
    identifiers."""
    used = set(avoid) | set(fv_even(c.pattern)) | set(fv_odd(c.pattern))
    used |= set(expr_free_vars(c.rhs))
    renaming = {}
    for x in sorted(clash):
        n = 0
        while f"{x}$r{n}" in used:
            n += 1
        fresh = f"{x}$r{n}"
        used.add(fresh)
        renaming[x] = fresh
    return Clause(
        map_vars(c.pattern, lambda x: Var(renaming.get(x.name, x.name))),
        substitute(c.rhs, {x: EVar(y) for x, y in renaming.items()}),
    )


def apply_subst(e, s):
    """Apply a proper substitution to an expression."""
    if not is_proper(s):
        raise ValueError(f"improper substitution: {s!r}")
    return substitute(e, {m.var: value_to_expr(m.value) for m in s})


def _apply_loose(e, s):
    # Nonlinear patterns can bind one variable to several values; during
    # stepping the first binding (in canonical order) wins.
    return substitute(e, {x: value_to_expr(v) for x, v in subst_to_dict(s).items()})


# --- single and multi step -----------------------------------------------------


@dataclass(frozen=True)
class Stepped:
    successors: tuple  # nonempty, structurally deduplicated


@dataclass(frozen=True)
class Stuck:
    pass


@dataclass(frozen=True)
class IsValue:
    pass


StepResult = Union[Stepped, Stuck, IsValue]


def case_successors(e: ECase) -> tuple:
    """Successors of a case whose scrutinee is a value: one per matching
    clause and derivable substitution, or the default right-hand side when
    all clauses fail."""
    v = expr_to_value(e.scrutinee)
    succ = []
    any_match = False
    for c in e.clauses:
        for s in match_pos(c.pattern, v):
            any_match = True
            succ.append(_apply_loose(c.rhs, s))
    if not any_match:
        succ.append(e.default_rhs)
    return tuple(dict.fromkeys(succ))


def step(e, defs=None) -> StepResult:
    """All expressions reachable from e in one step.  `defs` maps the name
    of each definition to its parameter names and body; without it, or for
    an unknown name or a wrong argument count, a call is stuck."""
    if is_value(e):
        return IsValue()
    if isinstance(e, (ECtor, Call)):
        for i, a in enumerate(e.args):
            if is_value(a):
                continue
            r = step(a, defs)
            if isinstance(r, Stepped):
                return Stepped(
                    tuple(_with_arg(e, i, s) for s in r.successors)
                )
            return r
        if isinstance(e, ECtor):
            raise AssertionError("unreachable: non-value ctor with value args")
        d = defs.get(e.name) if defs else None
        if d is None or len(d[0]) != len(e.args):
            return Stuck()
        params, body = d
        return Stepped((substitute(body, dict(zip(params, e.args))),))
    if isinstance(e, ECase):
        if not is_value(e.scrutinee):
            r = step(e.scrutinee, defs)
            if isinstance(r, Stepped):
                return Stepped(
                    tuple(
                        ECase(s, e.clauses, e.default_rhs)
                        for s in r.successors
                    )
                )
            return r
        return Stepped(case_successors(e))
    return Stuck()


def _with_arg(e, i: int, a):
    args = e.args[:i] + (a,) + e.args[i + 1 :]
    return ECtor(e.ctor, args) if isinstance(e, ECtor) else Call(e.name, args)


@dataclass(frozen=True)
class Evaluated:
    value: Value


@dataclass(frozen=True)
class Diverged:
    pass


@dataclass(frozen=True)
class Nondeterministic:
    pass


EvalResult = Union[Evaluated, Diverged, Stuck, Nondeterministic]

DEFAULT_FUEL = 10_000


def eval(e, fuel: int = DEFAULT_FUEL, defs=None) -> EvalResult:
    """Iterate single steps, unfolding calls through `defs` (see `step`).
    Reports Nondeterministic as soon as a step offers more than one distinct
    successor (only possible for inputs that are not wellformed) and
    Diverged when the fuel runs out."""
    cur = e
    for _ in range(fuel):
        r = step(cur, defs)
        if isinstance(r, IsValue):
            return Evaluated(expr_to_value(cur))
        if isinstance(r, Stuck):
            return Stuck()
        if len(r.successors) > 1:
            return Nondeterministic()
        cur = r.successors[0]
    return Diverged()


def expr_equiv_bounded(e1, e2, fuel: int = DEFAULT_FUEL) -> bool:
    """Both expressions reach the same value within the fuel bound, or both
    exhaust it."""
    r1, r2 = eval(e1, fuel), eval(e2, fuel)
    if isinstance(r1, Evaluated) and isinstance(r2, Evaluated):
        return r1.value == r2.value
    return isinstance(r1, Diverged) and isinstance(r2, Diverged)
