"""Dual-context pattern typing and expression typing.

Patterns are typed against two contexts: one for the variables usable on a
successful match (even negation depth) and one for the temporarily
deactivated variables (odd depth); negation swaps them.  A type is the
name of a data declaration; there are no built-in types.
Pattern typing is a step of the one pattern fold (`syntax.fold`), read at
a type instead of a polarity.

Typing is an optional phase: wellformedness and compilation never consult
types.
"""

from __future__ import annotations

from collections import Counter

from .semantics import Call, ECase, ECtor, EVar
from .syntax import (
    And,
    Ctor,
    CtorName,
    Neg,
    Node,
    Or,
    Pattern,
    Record,
    Value,
    Var,
    fold,
    pattern_kids,
)


class Named(Node):
    __slots__ = ("name",)


Type = Named


class DeclError(ValueError):
    pass


class DataDecls:
    """Signature table: type name -> ordered constructors with argument
    types.  Constructor names must be unique across declarations."""

    __slots__ = ("types", "_owner", "_arg_types", "_least", "_pools")

    def __init__(self, types=None):
        self.types = {} if types is None else types  # name -> tuple[(CtorName, tuple[Type])]
        self._check()

    def _check(self):
        seen = {}
        arg_types_of = {}
        for type_name, ctors in self.types.items():
            for ctor, arg_types in ctors:
                if len(arg_types) != ctor.arity:
                    raise DeclError(
                        f"constructor {ctor.name} declared with "
                        f"{len(arg_types)} argument types but arity {ctor.arity}"
                    )
                if ctor in seen:
                    raise DeclError(
                        f"constructor {ctor.name}/{ctor.arity} declared in both "
                        f"{seen[ctor]} and {type_name}"
                    )
                seen[ctor] = type_name
                arg_types_of[ctor] = arg_types
        self._owner = seen
        self._arg_types = arg_types_of
        self._least: dict | None = None
        # The oracle's value pools by (type, depth), and constructor pools.
        self._pools: dict = {}

    def ctors_of(self, type_name: str):
        if type_name not in self.types:
            raise DeclError(f"unknown type {type_name}")
        return self.types[type_name]

    def owner(self, ctor: CtorName) -> str | None:
        return self._owner.get(ctor)

    def owner_of_all(self, ctors) -> str | None:
        """The unique type declaring every given constructor, if any."""
        owners = {self._owner.get(c) for c in ctors}
        if len(owners) == 1 and None not in owners:
            return owners.pop()
        return None

    def arg_types(self, ctor: CtorName):
        arg_types = self._arg_types.get(ctor)
        if arg_types is None:
            raise DeclError(f"undeclared constructor {ctor.name}/{ctor.arity}")
        return arg_types

    def least_value(self, tau: "Type") -> Value | None:
        """A value of least height of a type, None if it has no finite one:
        the least heights are one fixpoint per declaration set, and each
        value takes the first constructor, in declaration order, reaching it."""
        if self._least is None:
            height: dict = {}

            def reach(arg_types):  # the height a constructor reaches, if known
                hs = [height.get(t) for t in arg_types]
                return None if None in hs else 1 + max(hs, default=0)

            for _ in self.types:  # after pass h, each type of least height h has it
                for name, ctors in self.types.items():
                    hs = [h for h in (reach(ats) for _, ats in ctors) if h]
                    if hs:
                        height[Named(name)] = min(hs)
            least = self._least = {}
            for t in sorted(height, key=height.get):
                ctor, ats = next(ca for ca in self.types[t.name] if reach(ca[1]) == height[t])
                least[t] = Value(ctor, tuple(least[a] for a in ats))
        return self._least.get(tau)


def signature_of(tau: Type, decls: DataDecls | None):
    """Constructors of a type with their argument types."""
    if decls is None:
        raise DeclError(f"no declarations supplied for type {tau.name}")
    return decls.ctors_of(tau.name)


# --- results -----------------------------------------------------------------


class Typed(Record):
    # gamma, delta: tuples of (name, Type), the even- and odd-negation binders
    __slots__ = ("gamma", "delta")


class Ok(Record):
    __slots__ = ("type",)


class Ill(Record):
    __slots__ = ("message",)


def _same_multiset(a, b) -> bool:
    return Counter(a) == Counter(b)


# --- pattern typing -----------------------------------------------------------


def _arg_types(ctor: CtorName, tau: Type, decls: DataDecls | None):
    """The argument types of `ctor` as a constructor of `tau`, or the `Ill`
    that says why it is none."""
    if decls is not None and decls.owner(ctor) == tau.name:
        return decls.arg_types(ctor)
    try:
        signature_of(tau, decls)  # for its message when the type is unknown
    except DeclError as err:
        return Ill(str(err))
    return Ill(f"constructor {ctor.name}/{ctor.arity} does not belong to type {tau.name}")


def _contexts(a, b) -> str:
    """Two binder contexts as a message shows them: `{x: T, ...} vs {...}`."""
    return " vs ".join("{" + ", ".join(f"{x}: {t.name}" for x, t in ctx) + "}" for ctx in (a, b))


def type_pattern(p: Pattern, tau: Type, decls: DataDecls | None = None):
    """Synthesize the dual binder contexts of a pattern at a type, or
    explain why it has none; the first failure in left-to-right order
    wins.  A fold whose context is the type: a constructor gives each
    argument its declared type, and one outside the type has no operands."""

    def kids(node, tau):
        if type(node) is not Ctor:
            return tuple((k, tau) for k, _ in pattern_kids(node, True))
        arg_types = _arg_types(node.ctor, tau, decls)
        return () if isinstance(arg_types, Ill) else tuple(zip(node.args, arg_types))

    def step(node, tau, results):
        for r in results:
            if isinstance(r, Ill):
                return r
        kind = type(node)
        if kind is Var:
            return Typed(((node.name, tau),), ())
        if kind is Neg:
            return Typed(results[0].delta, results[0].gamma)
        if kind is And:
            r1, r2 = results
            if not _same_multiset(r1.delta, r2.delta):
                shown = _contexts(r1.delta, r2.delta)
                return Ill(f"conjuncts bind different negated variables: {shown}")
            return Typed(r1.gamma + r2.gamma, r1.delta)
        if kind is Or:
            r1, r2 = results
            if not _same_multiset(r1.gamma, r2.gamma):
                return Ill(f"disjuncts bind different variables: {_contexts(r1.gamma, r2.gamma)}")
            return Typed(r1.gamma, r1.delta + r2.delta)
        if kind is Ctor:
            arg_types = _arg_types(node.ctor, tau, decls)
            if isinstance(arg_types, Ill):
                return arg_types
        gamma = sum((r.gamma for r in results), ())
        return Typed(gamma, sum((r.delta for r in results), ()))

    return fold(p, step, tau, kids)


# --- expression typing ----------------------------------------------------------


class Recursive(Record):
    """A call reached a definition whose own typing is still open."""

    __slots__ = ()


def type_expr(ctx, e, decls: DataDecls | None = None, prog=None, typed=None):
    """Synthesize the type of an expression under a context, or explain the
    first failing premise; `Recursive` if a call reaches a definition whose
    typing is still open.  A call of a definition of `prog` types its
    arguments, each at its parameter's annotation if it has one, and then
    the callee's body at those types.  `typed` maps (callee, parameter
    types) to the type of that body, so each is typed once per table.

    Each rule is a generator that yields its premises, (context,
    expression) pairs, in order and receives their types; the pending rules
    wait on an explicit stack, so no Python frame is spent per level."""
    typed = {} if typed is None else typed
    opened: set = set()

    def rule(ctx, e):
        kind = type(e)
        if kind is EVar:
            for name, tau in reversed(ctx):
                if name == e.name:
                    return Ok(tau)
            return Ill(f"unbound variable {e.name}")
        if kind is ECtor or kind is Value:
            owner = decls.owner(e.ctor) if decls is not None else None
            if owner is None:
                return Ill(f"undeclared constructor {e.ctor.name}/{e.ctor.arity}")
            for a, want in zip(e.args, decls.arg_types(e.ctor)):
                r = yield ctx, a
                if type(r) is not Ok:
                    return r
                if r.type != want:
                    return Ill(
                        f"argument of {e.ctor.name} has type {r.type.name}, "
                        f"expected {want.name}"
                    )
            return Ok(Named(owner))
        if kind is ECase:
            scrut = yield ctx, e.scrutinee
            if type(scrut) is not Ok:
                return scrut
            result: Type | None = None
            for c in e.clauses:
                r = type_pattern(c.pattern, scrut.type, decls)
                if isinstance(r, Ill):
                    return r
                # The odd-negation context plays no role in the clause body;
                # it is synthesized per clause and discarded.
                rhs = yield ctx + r.gamma, c.rhs
                if type(rhs) is not Ok:
                    return rhs
                if result is None:
                    result = rhs.type
                elif rhs.type != result:
                    return Ill(
                        f"clause result type {rhs.type.name} differs from {result.name}"
                    )
            dflt = yield ctx, e.default_rhs
            if type(dflt) is not Ok:
                return dflt
            if result is not None and dflt.type != result:
                return Ill(
                    f"default result type {dflt.type.name} differs from {result.name}"
                )
            return Ok(dflt.type if result is None else result)
        if kind is Call:
            d = prog.lookup(e.name) if prog is not None else None
            if d is None:
                return Ill(f"call of undefined definition {e.name}")
            if len(e.args) != len(d.params):
                return Ill(f"{e.name} takes {len(d.params)} arguments, got {len(e.args)}")
            if e.name in opened:
                return Recursive()
            params = []
            for (name, ann), a in zip(d.params, e.args):
                r = yield ctx, a
                if type(r) is not Ok:
                    return r
                if ann is not None and r.type != ann:
                    return Ill(
                        f"argument {name} of {e.name} has type {r.type.name}, "
                        f"expected {ann.name}"
                    )
                params.append((name, r.type))
            key = (e.name, tuple(tau for _, tau in params))
            if key not in typed:
                opened.add(e.name)
                typed[key] = yield tuple(params), d.body
                opened.discard(e.name)
            return typed[key]
        raise TypeError(f"not an expression: {e!r}")

    waiting = [rule(ctx, e)]  # the rules waiting on a premise, innermost last
    r = None
    while True:
        try:
            waiting.append(rule(*waiting[-1].send(r)))
            r = None
        except StopIteration as done:
            waiting.pop()
            r = done.value
            if not waiting:
                return r
