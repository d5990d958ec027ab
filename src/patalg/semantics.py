"""Expressions with case/default clauses, their order-independent
small-step semantics, and the machine that evaluates them.

`contract` is the one reduction rule: a case over a value has one
successor per matching clause and derivable substitution, or steps to its
default right-hand side when every clause fails; given a definition table,
a call whose arguments are values unfolds to the definition's body (call
by value); anything else is stuck.  Evaluation contexts descend into the
leftmost position that is not a value.

`step` is the reference relation: it decomposes an expression into a
context and a redex, contracts the redex and plugs every contractum back.
`eval` is the environment machine derived from it by refocusing (Danvy &
Nielsen, "Refocusing in Reduction Semantics", 2004) and then by closing
each term over an environment, as in the CEK machine (Felleisen &
Friedman, 1986): it keeps the context on an explicit stack and moves from
one redex to the next without re-descending from the root, and a
contraction binds the clause's derivation or the call's arguments instead
of substituting them into the right-hand side or body.  So evaluation is
linear in the number of contractions, rebuilds no term, and never
recurses on the depth of the data.  Both count one contraction per step
and reach the same outcomes.

Values are expressions: ground data is the one `syntax.Value` node, which
`ECtor` yields when applied to values only, so telling a value from other
expressions is a type test and never walks the tree.  Substitution and free
variables are `syntax.fold` steps, and `subterms` walks an expression on an
explicit stack for the checks that visit every case: none recurses.
"""

from __future__ import annotations

# A cycle: `wellformed` imports this module, and is read only at call time.
from . import wellformed
from .syntax import (
    Node,
    Pattern,
    Record,
    Value,
    Var,
    by_binding,
    fold,
    in_order,
    map_vars,
    match_pos,
    subst_to_dict,
)


class EVar(Node):
    __slots__ = ("name",)


class ECtor(Node):
    """Constructor application with at least one argument that is not a
    value.  Applied to values only, the constructor yields the `Value`
    itself, so every ground expression is a `Value`."""

    __slots__ = ("ctor", "args")  # args: tuple of Expression
    _arity = "constructor {}/{} applied to {} arguments"

    def __new__(cls, ctor, args):
        for a in args:
            if not isinstance(a, Value):
                return cls._new(cls, ctor, args)
        return Value(ctor, tuple(args))


class Clause(Node):
    __slots__ = ("pattern", "rhs")


class ECase(Node):
    """Case expression; carries exactly one default right-hand side."""

    __slots__ = ("scrutinee", "clauses", "default_rhs")  # clauses: tuple of Clause


class Call(Node):
    """Application of a top-level definition; `step` unfolds it when given
    the definition table."""

    __slots__ = ("name", "args")  # args: tuple of Expression


Expression = "Value | EVar | ECtor | ECase | Call"


def is_value(e) -> bool:
    return isinstance(e, Value)


# --- walking ----------------------------------------------------------------------

# The kinds of step from a node to a child.
SCRUTINEE, CLAUSE, DEFAULT, ARG = "scrutinee", "clause", "default", "arg"


def subterms(e):
    """Every subterm of an expression in pre-order, as `(node, where)`, on an
    explicit stack, so no Python frame is spent per level.  A case yields
    its scrutinee's subterms, then each `Clause` and its right-hand side's
    subterms, then its default's.  `where` is None at the root, else
    `(parent's where, kind, index)`, the index being 0 for the scrutinee,
    i + 1 for clause i and its right-hand side, n + 1 for the default after
    n clauses, and i for argument i."""
    todo = [(e, None)]
    while todo:
        node, where = todo.pop()
        yield node, where
        kind = type(node)
        if kind is ECase:
            clauses = node.clauses
            todo.append((node.default_rhs, (where, DEFAULT, len(clauses) + 1)))
            for i in range(len(clauses), 0, -1):
                todo.append((clauses[i - 1], (where, CLAUSE, i)))
            todo.append((node.scrutinee, (where, SCRUTINEE, 0)))
        elif kind is Clause:
            todo.append((node.rhs, where))
        elif kind is ECtor or kind is Call or kind is Value:
            for i in range(len(node.args) - 1, -1, -1):
                todo.append((node.args[i], (where, ARG, i)))
        elif kind is not EVar:
            raise TypeError(f"not an expression: {node!r}")


def steps(where) -> list:
    """The `(kind, index)` steps from the root to a `subterms` position."""
    out = []
    while where is not None:
        where, kind, index = where
        out.append((kind, index))
    out.reverse()
    return out


# --- substitution ----------------------------------------------------------------


def _expr_kids(node, ctx):
    """An expression node's operands for `syntax.fold`, each with its
    context, a frozenset of variables: a case's scrutinee, `Clause` nodes
    and default, a clause's right-hand side with its binders added, and a
    constructor's or call's arguments.  Values and variables are leaves."""
    kind = type(node)
    if kind is ECase:
        return ((node.scrutinee, ctx), *[(c, ctx) for c in node.clauses], (node.default_rhs, ctx))
    if kind is Clause:
        return ((node.rhs, ctx | wellformed.pattern_facts(node.pattern).fv_even),)
    if kind is ECtor or kind is Call:
        return tuple([(a, ctx) for a in node.args])
    if kind is Value or kind is EVar:
        return ()
    raise TypeError(f"not an expression: {node!r}")


def _free_step(node, bound, results) -> frozenset:
    if type(node) is EVar:
        return frozenset() if node.name in bound else frozenset((node.name,))
    return frozenset().union(*results)


def expr_free_vars(e) -> frozenset:
    """The variables of `e` that no enclosing clause pattern binds: a fold
    whose context is the set of variables bound around a subterm."""
    return fold(e, _free_step, frozenset(), _expr_kids)


def substitute(e, mapping: dict):
    """Capture-avoiding simultaneous replacement of free variables by
    expressions.  Clause right-hand sides shadow the variables their
    pattern binds; binders that would capture a substituted variable are
    alpha-renamed first (ground values can never be captured).  A fold
    whose context is the set of variables shadowed at a subterm; a renamed
    clause is kept under (clause, context) from its `kids` to its `step`."""
    if not mapping:
        return e
    renamed = {}  # (clause, shadowed) -> the clause with its binders renamed

    def kids(node, shadowed):
        if type(node) is not Clause:
            return _expr_kids(node, shadowed)
        bound = wellformed.pattern_facts(node.pattern).fv_even
        inner = [x for x in mapping if x not in bound and x not in shadowed]
        if not inner:
            return ()
        payload = frozenset().union(*[expr_free_vars(mapping[x]) for x in inner])
        clash = bound & payload
        if clash:
            renamed[node, shadowed] = node = rename_clause(node, clash, payload | set(inner))
        return ((node.rhs, shadowed | bound),)

    def step(node, shadowed, results):
        kind = type(node)
        if kind is EVar:
            return node if node.name in shadowed else mapping.get(node.name, node)
        if kind is ECase:
            return ECase(results[0], tuple(results[1:-1]), results[-1])
        if kind is Clause and results:
            return Clause(renamed.pop((node, shadowed), node).pattern, results[0])
        if kind is ECtor:
            return ECtor(node.ctor, tuple(results))
        return Call(node.name, tuple(results)) if kind is Call else node

    return fold(e, step, frozenset(), kids)


def rename_clause(c: Clause, clash, avoid) -> Clause:
    """Alpha-rename the clashing pattern binders of a clause.  Fresh names
    carry the reserved $ marker, so they cannot collide with program
    identifiers."""
    facts = wellformed.pattern_facts(c.pattern)
    used = set(avoid) | facts.fv_even | facts.fv_odd
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


def _bindings(s) -> dict:
    # Nonlinear patterns can bind one variable to several values; during
    # stepping the first binding in canonical order wins.
    bindings = subst_to_dict(s)
    if len(bindings) < len(s):
        bindings = subst_to_dict(sorted(s, key=by_binding))
    return bindings


# --- single and multi step -----------------------------------------------------


class Stepped(Record):
    __slots__ = ("successors",)  # nonempty, deduplicated


class Stuck(Record):
    __slots__ = ()


class IsValue(Record):
    __slots__ = ()


StepResult = "Stepped | Stuck | IsValue"


def case_successors(e: ECase) -> tuple:
    """Successors of a case whose scrutinee is a value: one per matching
    clause and derivable substitution, in clause order and then in the
    canonical order of substitutions, or the default right-hand side when
    all clauses fail."""
    v = e.scrutinee
    succ = []
    any_match = False
    for c in e.clauses:
        substs = match_pos(c.pattern, v)
        if substs:
            any_match = True
            for s in in_order(substs):
                succ.append(substitute(c.rhs, _bindings(s)))
    if not any_match:
        succ.append(e.default_rhs)
    return tuple(dict.fromkeys(succ))


def contract(e, defs=None) -> Stepped | Stuck:
    """The successors of a redex: a case over a value goes through
    `case_successors`, a call whose arguments are values unfolds to the
    body of its definition in `defs` (call by value), and anything else,
    a free variable, an unknown definition or a wrong argument count
    included, is stuck."""
    if isinstance(e, ECase):
        return Stepped(case_successors(e))
    if isinstance(e, Call):
        d = defs.get(e.name) if defs else None
        if d is None or len(d[0]) != len(e.args):
            return Stuck()
        params, body = d
        return Stepped((substitute(body, dict(zip(params, e.args))),))
    return Stuck()


# An evaluation context is a stack of frames, innermost last.  A frame
# `(node, i)` is `node` with a hole at argument i of an `ECtor` or `Call`,
# whose arguments left of i are values; `(node, -1)` is the scrutinee of
# the case `node`.


def _refocus(t, stack: list):
    """Move the focus from t, which sits in the hole of `stack`, to the
    next redex: descend to the leftmost position that is not a value, and
    plug values into the frame on top of the stack.  Returns the redex, or
    the final value once the stack is empty; `stack` is updated in place."""
    while True:
        if isinstance(t, Value):
            if not stack:
                return t
            t = _plug(stack.pop(), t)
        elif isinstance(t, (ECtor, Call)):
            for i, a in enumerate(t.args):
                if not isinstance(a, Value):
                    stack.append((t, i))
                    t = a
                    break
            else:
                return t  # a call over values
        elif isinstance(t, ECase) and not isinstance(t.scrutinee, Value):
            stack.append((t, -1))
            t = t.scrutinee
        else:
            return t


def _plug(frame, t):
    node, i = frame
    if i < 0:
        return ECase(t, node.clauses, node.default_rhs)
    args = node.args[:i] + (t,) + node.args[i + 1 :]
    return ECtor(node.ctor, args) if isinstance(node, ECtor) else Call(node.name, args)


def step(e, defs=None) -> StepResult:
    """All expressions reachable from e in one step: decompose e into a
    context and a redex, `contract` the redex, and plug each contractum
    back.  `defs` maps the name of each definition to its parameter names
    and body.  This is the reference relation `eval` follows."""
    if is_value(e):
        return IsValue()
    stack: list = []
    r = contract(_refocus(e, stack), defs)
    if isinstance(r, Stuck):
        return r
    out = []
    for s in r.successors:
        for frame in reversed(stack):
            s = _plug(frame, s)
        out.append(s)
    return Stepped(tuple(out))


class Evaluated(Record):
    __slots__ = ("value",)


class Diverged(Record):
    __slots__ = ()


class Nondeterministic(Record):
    __slots__ = ()


EvalResult = "Evaluated | Diverged | Stuck | Nondeterministic"

DEFAULT_FUEL = 10_000


def eval(e, fuel: int = DEFAULT_FUEL, defs=None, env=None) -> EvalResult:
    """Evaluate e under `env`, a mapping of its free variables to values,
    by an environment machine: a term is closed by the environment it
    runs under, and the pending context is an explicit stack of frames, so
    the machine never re-descends from the root, substitutes only to
    compare the contracta of a redex with two or more derivations, and
    never recurses on the depth of the data.  A variable is looked up; a
    case over a value runs the right-hand side of the one matching clause
    under its environment extended by the derivation, or its default under
    its own; a call over values runs the definition's body under the
    parameters bound to them.  Its outcomes are those of iterating `step`
    on `substitute(e, env)`: one unit of fuel per contraction,
    Nondeterministic as soon as a redex has more than one distinct
    contractum (only possible for inputs that are not wellformed), Stuck
    where `contract` is stuck, and Diverged when the fuel runs out."""
    # A frame is `(node, env, vals)`: the constructor or call `node` whose
    # arguments left of len(vals) have the values vals, or, with vals
    # None, the case `node` waiting for its scrutinee.
    stack: list = []
    t, env = e, env or {}
    while True:
        # Descend from t to a value v or to the arguments of a frame.
        kind = type(t)
        if kind is ECase:
            stack.append((t, env, None))
            t = t.scrutinee
            continue
        if kind is Value:
            v = t
        elif kind is EVar:
            v = env.get(t.name)
            if v is None:
                return Stuck() if fuel else Diverged()
        elif kind is ECtor or kind is Call:
            stack.append((t, env, []))
            v = None
        else:
            return Stuck() if fuel else Diverged()
        # Plug v into the frames on the stack until one of them contracts
        # or has an argument to evaluate; either sets the next t and env.
        while True:
            if not stack:
                return Evaluated(v) if fuel else Diverged()
            node, env, vals = stack[-1]
            if vals is None:
                stack.pop()
                if not fuel:
                    return Diverged()
                fuel -= 1
                t, env = _select(node, v, env)
                if t is None:
                    return Nondeterministic()
                break
            if v is not None:
                vals.append(v)
            args = node.args
            for a in args[len(vals) :]:
                kind = type(a)
                if kind is Value:
                    vals.append(a)
                elif kind is EVar and (v := env.get(a.name)) is not None:
                    vals.append(v)
                else:
                    break
            if len(vals) < len(args):
                t = args[len(vals)]
                break
            stack.pop()
            if type(node) is ECtor:
                v = Value(node.ctor, tuple(vals))
                continue
            if not fuel:
                return Diverged()
            d = defs.get(node.name) if defs else None
            if d is None or len(d[0]) != len(vals):
                return Stuck()
            fuel -= 1
            t, env = d[1], dict(zip(d[0], vals))
            break


def _select(node: ECase, v: Value, env: dict):
    """The right-hand side a case over the value v contracts to, with the
    environment it runs under; `(None, None)` when its contracta differ.
    Every clause is matched, as `case_successors` does.  When a redex has
    more than one derivation its contracta are built by substitution under
    the whole environment and compared there, since two right-hand sides
    can agree only once the outer bindings are in place."""
    chosen, n = None, 0
    for c in node.clauses:
        substs = match_pos(c.pattern, v)
        if substs:
            if chosen is None:
                chosen = c, substs
            n += len(substs)
    if chosen is None:
        return node.default_rhs, env
    if n > 1:
        succ = case_successors(substitute(ECase(v, node.clauses, node.default_rhs), env))
        return (None, None) if len(succ) > 1 else (succ[0], {})
    c, (s,) = chosen
    bindings = _bindings(s)
    # A positive derivation binds only the pattern's `fv_even`, its
    # binders; one it leaves unbound still hides the outer name, as in
    # `substitute`.
    bound = wellformed.pattern_facts(c.pattern).fv_even
    if bindings.keys() != bound:
        env = {x: w for x, w in env.items() if x not in bound}
    return c.rhs, {**env, **bindings}


def expr_equiv_bounded(e1, e2, fuel: int = DEFAULT_FUEL, env=None) -> bool:
    """Both expressions reach the same value within the fuel bound under
    the environment `env`, as `eval` takes it, or both exhaust it."""
    r1, r2 = eval(e1, fuel, env=env), eval(e2, fuel, env=env)
    if isinstance(r1, Evaluated) and isinstance(r2, Evaluated):
        return r1.value == r2.value
    return isinstance(r1, Diverged) and isinstance(r2, Diverged)
