"""Brute-force oracles and seeded generators behind the property suites.

Value enumeration gives the finite universes over which bounded pattern and
expression equivalence are checked; the generators are deterministic
functions of their seed and rejection-sample when asked for wellformed
output.
"""

from __future__ import annotations

import functools
import itertools
import random

from . import overlap, semantics, wellformed
from .compiler import DecisionTree, Leaf, Switch, compile_case, eval_tree
from .exhaustiveness import scrutinee_type, useful_witness
from .pretty import format_expr, format_pattern, format_value
from .semantics import Clause, ECase, ECtor, EVar, Evaluated, substitute
from .syntax import (
    Absurd,
    And,
    Ctor,
    CtorName,
    Neg,
    Node,
    Or,
    Pattern,
    Record,
    SoundnessError,
    Value,
    Var,
    Wild,
    fold,
    pattern_kids,
)
from .typecheck import DataDecls, Type, signature_of


def enumerate_values(decls: DataDecls | None, tau: Type, depth: int):
    """All values of a type whose constructor-tree height is at most
    `depth`, in a deterministic order without duplicates."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return _enum(decls, tau, depth)


def _enum(decls, tau, depth) -> tuple:
    if depth < 1:
        return ()
    cache = {} if decls is None else decls._pools
    out = cache.get((tau, depth))
    if out is None:
        out = []
        for ctor, arg_types in signature_of(tau, decls):
            pools = [_enum(decls, t, depth - 1) for t in arg_types]
            out.extend(Value(ctor, combo) for combo in itertools.product(*pools))
        out = cache[(tau, depth)] = tuple(out)
    return out


class GenerationError(RuntimeError):
    pass


_VAR_POOL = ("x", "y", "z", "w")
_MAX_RETRIES = 500


def gen_pattern(
    decls: DataDecls | None,
    tau: Type,
    size: int,
    seed: int,
    constraints: dict | None = None,
) -> Pattern:
    """Pseudo-random pattern of bounded size over the constructors of a
    type.  With constraints set, rejection-samples until the wellformedness
    checks pass; raises after a bounded number of retries."""
    constraints = constraints or {}
    rng = random.Random(seed)
    for _ in range(_MAX_RETRIES):
        p = random_pattern(rng, decls, tau, size)
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


def random_pattern(rng, decls, tau, size) -> Pattern:
    """`gen_pattern`'s draw from `rng`, of a size bounded by `size`."""
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
        return Neg(random_pattern(rng, decls, tau, size - 1))
    if kind in ("and", "or"):
        budget = rng.randint(0, max(size - 1, 0))
        left = random_pattern(rng, decls, tau, budget)
        right = random_pattern(rng, decls, tau, size - 1 - budget)
        return And(left, right) if kind == "and" else Or(left, right)
    ctor, arg_types = rng.choice(sig)
    if not arg_types:
        return Ctor(ctor, ())
    share = max((size - 1) // len(arg_types), 0)
    return Ctor(ctor, tuple(random_pattern(rng, decls, t, share) for t in arg_types))


def gen_value(rng, decls, tau, depth) -> Value:
    pool = _enum(decls, tau, depth)
    if not pool:
        raise GenerationError(f"no values of {tau.name} at depth {depth}")
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
    pairwise disjoint by construction, by the tests `wf_expr` makes;
    right-hand sides mention the bound variables, and their cases have one
    variable clause each, so the case needs no further check.  Each
    candidate pattern is decided, on the source patterns, against each
    clause already accepted."""
    rng = random.Random(seed)
    for _ in range(_MAX_RETRIES):
        clauses: list = []
        want = rng.randint(1, max_clauses)
        tries = 0
        while len(clauses) < want and tries < 50:
            tries += 1
            p = random_pattern(rng, decls, tau, rng.randint(0, pattern_size))
            facts = wellformed.pattern_facts(p)
            if not (facts.linear_pos and facts.deterministic()):
                continue
            if any(overlap.decide(p, c.pattern) for c in clauses):
                continue
            clauses.append(Clause(p, _gen_rhs(rng, decls, sorted(facts.fv_even))))
        if clauses:
            return ECase(EVar(scrutinee), tuple(clauses), _gen_rhs(rng, decls, []))
    raise GenerationError("no wellformed case expression found")


def _gen_rhs(rng, decls, bound_vars) -> "semantics.Expression":
    """Small expression built from declared constructors and the bound
    variables, so substitutions are observable in evaluation results."""
    leaves: list = [EVar(x) for x in bound_vars]
    pools = decls._pools.get(_gen_rhs)
    if pools is None:  # the nullary constructors, and the others with their argument types
        ctors = [(c, ats) for cs in decls.types.values() for c, ats in cs]
        nullary = tuple(c for c, ats in ctors if not ats)
        pools = decls._pools[_gen_rhs] = nullary, tuple(ca for ca in ctors if ca[1])
    nullary, wrappers = pools
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
            (Clause(Var(shadow), _wrap_var(rng, wrappers, shadow, expr)),),
            expr,
        )
    return expr


def _wrap_var(rng, wrappers, name, extra):
    """Body for a shadowing clause: mention the rebound name, and half the
    time the outer expression too."""
    wrappers = [ca for ca in wrappers if len(ca[1]) >= 2]
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
    tau: Type | None = None,
    fuel: int = semantics.DEFAULT_FUEL,
) -> Agree | Disagree:
    """Compare direct evaluation of a case against a decision tree, over
    every scrutinee value v up to the depth bound: both run under the one
    environment binding the scrutinee variable to v, `semantics.eval` on
    the case as `patc eval` runs it, and `eval_tree` on the tree."""
    if not isinstance(e.scrutinee, EVar):
        raise ValueError("differential checking needs a variable scrutinee")
    if tau is None:
        tau = scrutinee_type([c.pattern for c in e.clauses], decls)
        if tau is None:
            raise ValueError("cannot infer the scrutinee type from the clause patterns")
    n = 0
    for v in enumerate_values(decls, tau, depth):
        env = {e.scrutinee.name: v}
        direct, via_tree = semantics.eval(e, fuel, env=env), eval_tree(tree, env, fuel)
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
    tau: Type | None = None,
    fuel: int = semantics.DEFAULT_FUEL,
) -> Agree | Disagree:
    """Compile the case expression and compare the tree against direct
    evaluation for every scrutinee value up to the depth bound."""
    tree = compile_case(e)
    return differential_check_tree(e, tree, decls, depth, tau, fuel)


# --- translation validation ------------------------------------------------------
#
# A tree is checked against its source case for every value at once
# (Necula, "Translation Validation for an Optimizing Compiler", PLDI 2000).
# A path knows a partial value of the scrutinee: an arm gives an occurrence
# its head and child occurrences, a default arm bans the arms' heads.
# Each clause's source pattern is read against it in Kleene's logic, to a
# residual: a settled yes or no, with the variables one derivation binds,
# or a formula over the constructor patterns waiting at open occurrences.


class _At(Node):
    """Constructor pattern `pattern` waiting at occurrence `occ`, the
    expression naming it.  The occurrence may have no switch yet, or have
    left one by its default arm: in the open world, no ban set decides a
    constructor it does not hold."""

    __slots__ = ("occ", "pattern")


class _Known(Node):
    __slots__ = ("holds", "binds")  # binds: (variable, occurrence) pairs


_YES, _NO = _Known(True, frozenset()), _Known(False, frozenset())


def _not(r):
    if type(r) is _Known:
        return _Known(not r.holds, r.binds)
    return r.sub if type(r) is Neg else Neg(r)


def _and(a, b):
    """Kleene's `&`: a no on either side settles it, and yes sides add
    their bindings.  `|` is `&` with yes and no swapped (`_connect`), as
    in `syntax.match_both`."""
    for x in (a, b):
        if type(x) is _Known and not x.holds:
            return x
    if type(a) is _Known and type(b) is _Known:
        return _Known(True, a.binds | b.binds)
    return b if a is _YES else a if b is _YES else And(a, b)


def _connect(node, results):
    if type(node) is Neg:
        return _not(results[0])
    if type(node) is And:
        return _and(*results)
    return _not(_and(_not(results[0]), _not(results[1])))


def _kids(node, _):
    """The operands of `&`, `|` and `!`, in a pattern or a residual."""
    if type(node) is Neg:
        return ((node.sub, None),)
    return ((node.left, None), (node.right, None)) if type(node) in (And, Or) else ()


def _read(p, occ):
    """The residual of pattern `p` at an occurrence of unknown head."""

    def step(node, _, results):
        kind = type(node)
        if kind is Var:
            return _Known(True, frozenset(((node.name, occ),)))
        if kind is Ctor:
            return _At(occ, node)
        if kind is Wild or kind is Absurd:
            return _YES if kind is Wild else _NO
        return _connect(node, results)

    return fold(p, step, None, _kids)


def _learn(r, occ, head, binders):
    """Residual `r` once occurrence `occ` is known to have the constructor
    `head` with child occurrences named `binders`, or none of the set
    `head`."""

    def step(node, _, results):
        if type(node) is not _At:
            return node if type(node) is _Known else _connect(node, results)
        p = node.pattern
        if node.occ is not occ:
            return node
        if type(head) is frozenset:
            return _NO if p.ctor in head else node
        if p.ctor is not head:
            return _NO
        out = _YES
        for a, b in zip(p.args, binders):
            out = _and(out, _read(a, EVar(b)))
        return out

    return fold(r, step, None, _kids)


class _State:
    """A path's context: the occurrences it exposed and did not test, and
    each clause's residual, which decide whether a subtree is right and
    are all the memo compares; and the path, which only completes a
    witness: (parent, occurrence, head or ban set, binders) links.  A
    plain class, because a `NamedTuple` costs every `patc` run start-up
    time."""

    __slots__ = ("open", "residuals", "path")

    def __init__(self, open_, residuals, path):
        self.open, self.residuals, self.path = open_, residuals, path

    def __eq__(self, other):
        return self.open == other.open and self.residuals == other.residuals

    def __hash__(self):
        return hash((self.open, self.residuals))


def _switch_fault(n: Switch, st: _State) -> str | None:
    o = n.scrutinee
    if o not in st.open:
        path = st.path
        while path is not None and path[1] is not o:
            path = path[0]
        return f"tests {format_expr(o)} {'again' if path else 'before an arm exposes it'}"
    ctors = [a.ctor for a in n.arms]
    if len(set(ctors)) != len(ctors):
        return "has two arms for one constructor"
    taken = set(st.open)  # and the occurrences a residual waits at or binds

    def step(node, _, results):
        if type(node) is _At:
            taken.add(node.occ)
        elif type(node) is _Known:
            taken.update(occ for _, occ in node.binds)

    for r in st.residuals:
        fold(r, step, None, _kids)
    for a in n.arms:
        if len(a.binders) != a.ctor.arity:
            return f"names {len(a.binders)} of the {a.ctor.arity} arguments of {a.ctor.name}"
        if len(set(a.binders)) != len(a.binders) or taken & set(map(EVar, a.binders)):
            return f"binds a name in use under {a.ctor.name}"
    return None


def validate_tree(e: ECase, tree: Leaf | Switch) -> Agree | Disagree:
    """Check a decision tree against its case, whose scrutinee must be a
    variable, for every value of it.  A switch must test an occurrence
    that the path exposed and did not test, with distinct arms, each
    binding arity-many unused names.  At a leaf at most one clause may
    say yes, and one still unknown (such as `Mo | !Mo`) is settled by the
    open-world emptiness check on the partial value: no if no value of it
    matches, yes if none fails it and its residual binds each variable at
    one occurrence (`_settled`).  The leaf must be the right-hand side of
    the clause saying yes, each variable replaced by its occurrence, or
    else the default.  A fold over the DAG memoized on the state: `Agree`
    counts the (node, state) pairs checked, and `Disagree` names the path
    to a fault and a scrutinee value that takes it."""
    root = e.scrutinee
    if type(root) is not EVar:
        raise ValueError("validation needs a variable scrutinee")
    start = _State(frozenset((root,)), tuple(_read(c.pattern, root) for c in e.clauses), None)
    checked = 0

    def kids(n, st):
        if type(n) is Leaf or _switch_fault(n, st):
            return ()
        out, rest = [], st.open - {n.scrutinee}
        for head, binders, sub in (
            *((a.ctor, a.binders, a.subtree) for a in n.arms),
            (frozenset(a.ctor for a in n.arms), (), n.default_arm),
        ):
            residuals = tuple(_learn(r, n.scrutinee, head, binders) for r in st.residuals)
            path = (st.path, n.scrutinee, head, binders)
            out.append((sub, _State(rest.union(map(EVar, binders)), residuals, path)))
        return out

    def step(n, st, results):
        nonlocal checked
        checked += 1
        if type(n) is Switch:
            if not results:
                return _fault(e, st, f"the switch {_switch_fault(n, st)}")
            return next((r for r in results if r is not None), None)
        yes = []
        for c, r in zip(e.clauses, st.residuals):
            if type(r) is _Known:
                if r.holds:
                    yes.append((c, r.binds))
            elif (w := _witness(root, st.path, c.pattern)) is not None:
                binds = _settled(r, c.pattern)
                if binds is None or _witness(root, st.path, Neg(c.pattern)) is not None:
                    why = f"clause {format_pattern(c.pattern)} may or may not match"
                    return _fault(e, st, why, n, w)
                yes.append((c, binds))
        if len(yes) > 1:
            return _fault(e, st, "two clauses match", n)
        want = substitute(yes[0][0].rhs, dict(yes[0][1])) if yes else e.default_rhs
        if n.rhs is want:
            return None
        return _fault(e, st, f"the leaf is {format_expr(n.rhs)}, not {format_expr(want)}", n, want=want)

    fault = fold(tree, step, start, kids)
    return Agree(checked) if fault is None else fault


def _settled(r, p):
    """The bindings of the unknown residual `r` of `p` read as a yes: each
    variable of `p`'s `fv_even` with the one occurrence where the settled
    parts of `r` bind it at even parity; None if that is not one, or if it
    waits at an open occurrence."""
    binds, waiting = {}, set()

    def step(node, pos, _):
        if type(node) is _At:
            facts = wellformed.pattern_facts(node.pattern)
            waiting.update(facts.fv_even | facts.fv_odd)
        elif type(node) is _Known and pos:
            for x, occ in node.binds:
                binds.setdefault(x, set()).add(occ)

    kids = lambda n, pos: pattern_kids(n, pos) if type(n) in (And, Neg) else ()  # noqa: E731
    fold(r, step, True, kids)
    fv = wellformed.pattern_facts(p).fv_even
    if fv & waiting or any(len(binds.get(x, ())) != 1 for x in fv):
        return None
    return frozenset((x, *binds[x]) for x in fv)


def _witness(root, path, extra=None) -> Value | None:
    """A scrutinee value of the path's partial value that matches `extra`
    too, by the open-world emptiness check, or None.  Without `extra`
    each open position gets a nullary constructor of its own, `$1`, `$2`,
    ..., which no pattern names, so no two are equal."""
    fresh = itertools.count(1)

    def open_(banned=()):
        if extra is None:
            return Ctor(CtorName(f"${next(fresh)}", 0), ())
        ban = [Ctor(c, (Wild(),) * c.arity) for c in banned]
        return Neg(functools.reduce(Or, ban)) if ban else Wild()

    built: dict = {}  # occurrence -> its partial value as a pattern
    while path is not None:
        path, occ, head, binders = path
        if type(head) is frozenset:
            built[occ] = open_(head)
        else:
            built[occ] = Ctor(head, tuple(built.pop(EVar(b), None) or open_() for b in binders))
    p = built.get(root) or open_()
    found = useful_witness((), (p if extra is None else And(p, extra),), None)
    return found and found[0]


def _fault(e, st, reason, leaf=None, w=None, want=None) -> Disagree:
    """The `Disagree` of a fault on the path of `st`.  At a leaf both
    routes run under the environment binding the scrutinee to the witness
    and each binder to its part, and `semantics.eval` must confirm what
    the validator wants there."""
    w = w or _witness(e.scrutinee, st.path)
    links, path = [], st.path
    while path is not None:
        path, *link = path
        links.append(link)
    values, shown = {e.scrutinee: w}, []
    for occ, head, binders in reversed(links):
        if type(head) is frozenset:
            names = ", ".join(sorted(c.name for c in head))
            shown.append(f"{format_expr(occ)} is none of {{{names}}}")
        else:
            shown.append(f"{format_expr(occ)} is {head.name}")
            values.update(zip(map(EVar, binders), values[occ].args))
    detail = f"after {', '.join(shown) or 'no switch'}: {reason}"
    if leaf is None:
        return Disagree(w, detail)
    env = {o.name: v for o, v in values.items() if type(o) is EVar}
    direct = semantics.eval(e, env=env)
    if want is not None and semantics.eval(want, env=env) != direct:
        raise SoundnessError(f"validation wants {format_expr(want)} where evaluation gives {direct!r}")
    via_tree = semantics.eval(leaf.rhs, env=env)
    return Disagree(w, f"{detail}; at {format_value(w)} direct evaluation gives {direct!r}, the tree {via_tree!r}")
