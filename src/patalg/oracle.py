"""Brute-force oracles and seeded generators behind the property suites.

Value enumeration gives the finite universes over which bounded pattern and
expression equivalence are checked; the generators are deterministic
functions of their seed and rejection-sample when asked for wellformed
output.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Union

from . import semantics, wellformed
from .compiler import DecisionTree, compile_case, eval_tree, head_ctors
from .exhaustiveness import infer_scrutinee_type
from .normalize import to_ndnf
from .semantics import Clause, ECase, ECtor, EVar, Evaluated
from .syntax import (
    Absurd,
    And,
    Ctor,
    Mapping,
    Neg,
    Or,
    Pattern,
    Record,
    Value,
    Var,
    Wild,
)
from .typecheck import DataDecls, Type, signature_of


def enumerate_values(decls: Optional[DataDecls], tau: Type, depth: int):
    """All values of a type whose constructor-tree height is at most
    `depth`, in a deterministic order without duplicates."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return _enum(decls, tau, depth)


def _enum(decls, tau, depth) -> tuple:
    if depth < 1:
        return ()
    out = []
    for ctor, arg_types in signature_of(tau, decls):
        if not arg_types:
            out.append(Value(ctor, ()))
            continue
        pools = [_enum(decls, t, depth - 1) for t in arg_types]
        for combo in itertools.product(*pools):
            out.append(Value(ctor, combo))
    return tuple(out)


class GenerationError(RuntimeError):
    pass


_VAR_POOL = ("x", "y", "z", "w")
_MAX_RETRIES = 500


def gen_pattern(
    decls: Optional[DataDecls],
    tau: Type,
    size: int,
    seed: int,
    constraints: Optional[dict] = None,
) -> Pattern:
    """Pseudo-random pattern of bounded size over the constructors of a
    type.  With constraints set, rejection-samples until the wellformedness
    checks pass; raises after a bounded number of retries."""
    constraints = constraints or {}
    rng = random.Random(seed)
    for _ in range(_MAX_RETRIES):
        p = _gen_pattern(rng, decls, tau, size)
        facts = wellformed.pattern_facts(p) if constraints else None
        if constraints.get("require_linear") and not (
            facts.linear_pos and facts.linear_neg
        ):
            continue
        if constraints.get("require_det") and not facts.deterministic():
            continue
        return p
    raise GenerationError(
        f"no pattern satisfying {constraints} found in {_MAX_RETRIES} tries"
    )


def _gen_pattern(rng, decls, tau, size) -> Pattern:
    sig = signature_of(tau, decls)
    if size <= 0:
        kind = rng.choice(("wild", "var", "ctor", "ctor"))
        if kind == "wild":
            return Wild()
        if kind == "var":
            return Var(rng.choice(_VAR_POOL))
        nullary = [c for c, ats in sig if not ats]
        if nullary:
            return Ctor(rng.choice(nullary), ())
        return Wild()
    kind = rng.choice(("ctor", "ctor", "and", "or", "neg", "var", "wild", "absurd"))
    if kind == "var":
        return Var(rng.choice(_VAR_POOL))
    if kind == "wild":
        return Wild()
    if kind == "absurd":
        return Absurd()
    if kind == "neg":
        return Neg(_gen_pattern(rng, decls, tau, size - 1))
    if kind in ("and", "or"):
        budget = rng.randint(0, max(size - 1, 0))
        left = _gen_pattern(rng, decls, tau, budget)
        right = _gen_pattern(rng, decls, tau, size - 1 - budget)
        return And(left, right) if kind == "and" else Or(left, right)
    ctor, arg_types = rng.choice(sig)
    if not arg_types:
        return Ctor(ctor, ())
    share = max((size - 1) // len(arg_types), 0)
    return Ctor(ctor, tuple(_gen_pattern(rng, decls, t, share) for t in arg_types))


def gen_value(rng, decls, tau, depth) -> Value:
    pool = _enum(decls, tau, depth)
    if not pool:
        raise GenerationError(f"no values of {tau!r} at depth {depth}")
    return pool[rng.randrange(len(pool))]


def gen_case(
    decls: DataDecls,
    tau: Type,
    seed: int,
    max_clauses: int = 3,
    pattern_size: int = 3,
    scrutinee: str = "s",
) -> ECase:
    """Random wellformed case expression over a variable scrutinee of the
    given type.  Clause patterns are deterministic, positively linear and
    pairwise disjoint by construction; right-hand sides mention the bound
    variables.  Each candidate pattern is normalized once, and decided
    against the NDNFs of the clauses already accepted."""
    from . import overlap

    rng = random.Random(seed)
    for _ in range(_MAX_RETRIES):
        clauses = []
        ndnfs = []
        want = rng.randint(1, max_clauses)
        tries = 0
        while len(clauses) < want and tries < 50:
            tries += 1
            p = _gen_pattern(rng, decls, tau, rng.randint(0, pattern_size))
            facts = wellformed.pattern_facts(p)
            if not (facts.linear_pos and facts.deterministic()):
                continue
            d = to_ndnf(p)
            if any(overlap.decide(d, q) for q in ndnfs):
                continue
            rhs = _gen_rhs(rng, decls, sorted(facts.fv_even))
            clauses.append((p, rhs))
            ndnfs.append(d)
        if not clauses:
            continue
        default_rhs = _gen_rhs(rng, decls, [])
        e = ECase(
            EVar(scrutinee),
            tuple(Clause(p, rhs) for p, rhs in clauses),
            default_rhs,
        )
        if wellformed.wf_expr(e).ok:
            return e
    raise GenerationError("no wellformed case expression found")


def _gen_rhs(rng, decls, bound_vars) -> "semantics.Expression":
    """Small expression built from declared constructors and the bound
    variables, so substitutions are observable in evaluation results."""
    leaves: list = [EVar(x) for x in bound_vars]
    nullary = [
        c
        for ctors in decls.types.values()
        for c, ats in ctors
        if not ats
    ]
    wrappers = [
        (c, ats)
        for ctors in decls.types.values()
        for c, ats in ctors
        if ats
    ]
    if not leaves or rng.random() < 0.3:
        leaves.append(ECtor(rng.choice(nullary), ()))
    expr = rng.choice(leaves)
    if wrappers and rng.random() < 0.7:
        ctor, ats = rng.choice(wrappers)
        args = []
        used = False
        for _ in ats:
            if not used and rng.random() < 0.8:
                args.append(expr)
                used = True
            else:
                args.append(ECtor(rng.choice(nullary), ()))
        if not used:
            args[-1] = expr
        expr = ECtor(ctor, tuple(args))
    if rng.random() < 0.15:
        # Inner case re-binding a common name (often the outer scrutinee),
        # exercising shadowing and the capture-avoiding substitution.
        shadow = rng.choice(("s", "x", "y"))
        expr = ECase(
            ECtor(rng.choice(nullary), ()),
            (Clause(Var(shadow), _wrap_var(rng, decls, shadow, expr)),),
            expr,
        )
    return expr


def _wrap_var(rng, decls, name, extra):
    """Body for a shadowing clause: mention the rebound name, and half the
    time the outer expression too."""
    wrappers = [
        (c, ats)
        for ctors in decls.types.values()
        for c, ats in ctors
        if len(ats) >= 2
    ]
    if wrappers and rng.random() < 0.5:
        ctor, ats = rng.choice(wrappers)
        args = [EVar(name), extra] + [EVar(name)] * (len(ats) - 2)
        return ECtor(ctor, tuple(args[: len(ats)]))
    return EVar(name)


# --- differential checking -------------------------------------------------------


class Agree(Record):
    __slots__ = ("cases",)
    _defaults = (0,)


class Disagree(Record):
    __slots__ = ("witness", "detail")


def differential_check_tree(
    e: ECase,
    tree: DecisionTree,
    decls: DataDecls,
    depth: int,
    tau: Optional[Type] = None,
    fuel: int = semantics.DEFAULT_FUEL,
) -> Union[Agree, Disagree]:
    """Compare direct evaluation of a case against a decision tree, over
    every scrutinee value up to the depth bound."""
    from .pretty import format_value

    if not isinstance(e.scrutinee, EVar):
        raise ValueError("differential checking needs a variable scrutinee")
    if tau is None:
        heads = head_ctors([to_ndnf(c.pattern) for c in e.clauses])
        tau = infer_scrutinee_type(heads, decls)
    n = 0
    for v in enumerate_values(decls, tau, depth):
        direct = semantics.eval(ECase(v, e.clauses, e.default_rhs), fuel)
        via_tree = eval_tree(tree, (Mapping(e.scrutinee.name, v),), fuel)
        if direct != via_tree:
            return Disagree(
                v,
                f"scrutinee {format_value(v)}: direct evaluation gives "
                f"{direct!r}, compiled tree gives {via_tree!r}",
            )
        if not isinstance(direct, Evaluated):
            # Getting stuck or running out of fuel on both routes is still
            # reported, not silently treated as agreement.
            return Disagree(
                v,
                f"scrutinee {format_value(v)}: neither route produced a "
                f"value ({direct!r})",
            )
        n += 1
    return Agree(n)


def differential_compile_check(
    e: ECase,
    decls: DataDecls,
    depth: int,
    tau: Optional[Type] = None,
    fuel: int = semantics.DEFAULT_FUEL,
) -> Union[Agree, Disagree]:
    """Compile the case expression and compare the tree against direct
    evaluation for every scrutinee value up to the depth bound."""
    tree = compile_case(e)
    return differential_check_tree(e, tree, decls, depth, tau, fuel)
