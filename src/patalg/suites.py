"""Seeded property suites over the whole pipeline.

Each property draws its instances deterministically from a seed, checks a
law or an agreement between two independent routes, and reports
counterexamples instead of raising.  The same suites back `patc fuzz` and
the acceptance tests.
"""

from __future__ import annotations

import itertools
import math
import random
from types import MappingProxyType

from . import overlap, semantics, wellformed
from .compiler import compile_case
from .exhaustiveness import exhaustive, non_exhaustiveness_witness
from .oracle import (
    Disagree,
    differential_check_tree,
    enumerate_values,
    gen_case,
    gen_value,
    random_pattern,
    validate_tree,
)
from .pretty import format_expr, format_pattern, format_value
from .semantics import ECase, Stepped
from .syntax import (
    Absurd,
    And,
    Ctor,
    CtorName,
    Neg,
    Or,
    Pattern,
    Wild,
    in_order,
    is_proper,
    map_vars,
    match_all,
    match_both,
    match_pos,
    pattern_equiv_bounded,
)
from .typecheck import DataDecls, Named

# Small declaration set; every example below is closed under depth 3.
STANDARD_DECLS = DataDecls(
    {
        "Color": (
            (CtorName("Red", 0), ()),
            (CtorName("Green", 0), ()),
            (CtorName("Blue", 0), ()),
        ),
        "Day": tuple(
            (CtorName(d, 0), ()) for d in ("Mo", "Tu", "We", "Th", "Fr", "Sa", "Su")
        ),
        "B": ((CtorName("T", 0), ()), (CtorName("F", 0), ())),
        "BPair": ((CtorName("MkPair", 2), (Named("B"), Named("B"))),),
        "BList": (
            (CtorName("Nil", 0), ()),
            (CtorName("Cons", 2), (Named("B"), Named("BList"))),
        ),
    }
)

_TAUS = (Named("Color"), Named("Day"), Named("B"), Named("BPair"), Named("BList"))


class PropertyResult:
    __slots__ = ("name", "cases", "counterexamples")

    def __init__(self, name: str):
        self.name, self.cases, self.counterexamples = name, 0, []

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def fail(self, detail: str) -> None:
        if len(self.counterexamples) < 10:
            self.counterexamples.append(detail)


def _strip_vars(p: Pattern) -> Pattern:
    """Variable-free patterns are always linear on both sides."""
    return map_vars(p, lambda x: Wild())


def _linear_both(p: Pattern) -> bool:
    facts = wellformed.pattern_facts(p)
    return facts.linear_pos and facts.linear_neg


def _equiv_case(result, lhs, rhs, universe, label):
    result.cases += 1
    if not pattern_equiv_bounded(lhs, rhs, universe):
        result.fail(
            f"{label}: {format_pattern(lhs)} vs {format_pattern(rhs)}"
        )


# --- pattern algebra ----------------------------------------------------------


def prop_matching_sound_complete(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("matching is sound and complete")
    rng = random.Random(seed)
    for i in range(cases):
        tau = _TAUS[i % len(_TAUS)]
        p = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 4))
        v = gen_value(rng, STANDARD_DECLS, tau, depth)
        pos, neg = match_both(p, v)
        res.cases += 1
        if pos and neg:
            res.fail(f"both judgments hold: {format_pattern(p)} vs {format_value(v)}")
        if not pos and not neg:
            res.fail(f"neither judgment holds: {format_pattern(p)} vs {format_value(v)}")
    return res


def prop_boolean_laws(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("boolean algebra laws")
    rng = random.Random(seed)
    for i in range(cases):
        tau = _TAUS[i % len(_TAUS)]
        uni = enumerate_values(STANDARD_DECLS, tau, depth)
        p = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        q = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        r = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 2))
        _equiv_case(res, And(p, q), And(q, p), uni, "commutativity of &")
        _equiv_case(res, Or(p, q), Or(q, p), uni, "commutativity of |")
        _equiv_case(res, And(p, And(q, r)), And(And(p, q), r), uni, "associativity of &")
        _equiv_case(res, Or(p, Or(q, r)), Or(Or(p, q), r), uni, "associativity of |")
        _equiv_case(res, And(p, Wild()), p, uni, "neutral element of &")
        _equiv_case(res, Or(p, Absurd()), p, uni, "neutral element of |")
        _equiv_case(res, Neg(Wild()), Absurd(), uni, "duality of _")
        _equiv_case(res, Neg(Absurd()), Wild(), uni, "duality of #")
        _equiv_case(res, Neg(Or(p, q)), And(Neg(p), Neg(q)), uni, "De Morgan for |")
        _equiv_case(res, Neg(And(p, q)), Or(Neg(p), Neg(q)), uni, "De Morgan for &")
        _equiv_case(res, Neg(Neg(p)), p, uni, "double negation")
    return res


def _gen_ctor_args(rng, tau, size):
    from .typecheck import signature_of

    sig = [
        (c, ats) for c, ats in signature_of(tau, STANDARD_DECLS) if ats
    ]
    if not sig:
        return None
    ctor, arg_types = rng.choice(sig)
    args = tuple(
        random_pattern(rng, STANDARD_DECLS, t, rng.randint(0, size)) for t in arg_types
    )
    args2 = tuple(
        random_pattern(rng, STANDARD_DECLS, t, rng.randint(0, size)) for t in arg_types
    )
    return ctor, arg_types, args, args2


def prop_ctor_laws_one(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("constructor laws (unrestricted)")
    rng = random.Random(seed)
    taus = (Named("BPair"), Named("BList"))
    for i in range(cases):
        tau = taus[i % len(taus)]
        uni = enumerate_values(STANDARD_DECLS, tau, depth)
        drawn = _gen_ctor_args(rng, tau, 1)
        if drawn is None:
            continue
        ctor, _, args, args2 = drawn
        merged = Ctor(ctor, tuple(And(a, b) for a, b in zip(args, args2)))
        _equiv_case(
            res,
            And(Ctor(ctor, args), Ctor(ctor, args2)),
            merged,
            uni,
            "merging constructor conjunction",
        )
        # Pulling a disjunction out of an argument needs negatively linear
        # sides: an odd variable under an argument lets one disjunct fail
        # with a binding the unsplit pattern cannot produce.
        idx = rng.randrange(ctor.arity)

        def build(a_args, b_args):
            with_or = Ctor(
                ctor,
                tuple(
                    Or(a, b) if j == idx else a
                    for j, (a, b) in enumerate(zip(a_args, b_args))
                ),
            )
            split = Or(
                Ctor(ctor, a_args),
                Ctor(
                    ctor,
                    tuple(b if j == idx else a for j, (a, b) in enumerate(zip(a_args, b_args))),
                ),
            )
            return with_or, split

        with_or, split = build(args, args2)
        if not (_linear_both(with_or) and _linear_both(split)):
            with_or, split = build(
                tuple(_strip_vars(a) for a in args),
                tuple(_strip_vars(a) for a in args2),
            )
        _equiv_case(res, with_or, split, uni, "disjunction out of an argument")
    return res


def prop_linear_laws(seed, depth, cases) -> PropertyResult:
    """Distributivity, idempotence and zeros; valid when both sides are
    linear, so instances are drawn until that holds."""
    res = PropertyResult("laws requiring linearity")
    rng = random.Random(seed)
    laws = (
        ("& over |", lambda p, q, r: (And(p, Or(q, r)), Or(And(p, q), And(p, r)))),
        ("| over &", lambda p, q, r: (Or(p, And(q, r)), And(Or(p, q), Or(p, r)))),
        ("idempotence of &", lambda p, q, r: (And(p, p), p)),
        ("idempotence of |", lambda p, q, r: (Or(p, p), p)),
        ("zero of &", lambda p, q, r: (And(p, Absurd()), Absurd())),
        ("zero of |", lambda p, q, r: (Or(p, Wild()), Wild())),
    )
    for i in range(cases):
        tau = _TAUS[i % len(_TAUS)]
        uni = enumerate_values(STANDARD_DECLS, tau, depth)
        name, law = laws[i % len(laws)]
        p = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        q = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 2))
        r = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 2))
        lhs, rhs = law(p, q, r)
        if not (_linear_both(lhs) and _linear_both(rhs)):
            p, q, r = _strip_vars(p), _strip_vars(q), _strip_vars(r)
            lhs, rhs = law(p, q, r)
        _equiv_case(res, lhs, rhs, uni, name)
    return res


def prop_ctor_laws_linear(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("constructor laws requiring linearity")
    rng = random.Random(seed)
    taus = (Named("BPair"), Named("BList"))
    for i in range(cases):
        tau = taus[i % len(taus)]
        uni = enumerate_values(STANDARD_DECLS, tau, depth)
        drawn = _gen_ctor_args(rng, tau, 1)
        if drawn is None:
            continue
        ctor, _, args, args2 = drawn
        args = tuple(_strip_vars(a) for a in args)
        args2 = tuple(_strip_vars(a) for a in args2)
        # An absurd argument makes the whole constructor pattern absurd.
        idx = rng.randrange(ctor.arity)
        absurd_arg = Ctor(ctor, tuple(Absurd() if j == idx else a for j, a in enumerate(args)))
        _equiv_case(res, absurd_arg, Absurd(), uni, "absurd argument")
        # Conjunction of distinct constructors never matches.
        other = _other_ctor(tau, ctor)
        if other is not None:
            other_ctor, other_args = other
            _equiv_case(
                res,
                And(Ctor(ctor, args), Ctor(other_ctor, other_args)),
                Absurd(),
                uni,
                "clash of distinct constructors",
            )
            _equiv_case(
                res,
                And(Ctor(ctor, args), Neg(Ctor(other_ctor, other_args))),
                Ctor(ctor, args),
                uni,
                "conjunction with a negated other constructor",
            )
        # Negation of a constructor pattern expands head-or-argument-wise.
        n = ctor.arity
        disjuncts = [Neg(Ctor(ctor, (Wild(),) * n))]
        for j in range(n):
            disjuncts.append(
                Ctor(ctor, tuple(Neg(args[k]) if k == j else Wild() for k in range(n)))
            )
        expansion = disjuncts[-1]
        for d in reversed(disjuncts[:-1]):
            expansion = Or(d, expansion)
        _equiv_case(
            res, Neg(Ctor(ctor, args)), expansion, uni, "negated constructor expansion"
        )
    return res


def _other_ctor(tau, ctor):
    from .typecheck import signature_of

    for c, ats in signature_of(tau, STANDARD_DECLS):
        if c != ctor:
            return c, tuple(Wild() for _ in ats)
    return None


def prop_congruence(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("equivalence is a congruence")
    rng = random.Random(seed)
    transforms = (
        lambda p: Neg(Neg(p)),
        lambda p: And(p, Wild()),
        lambda p: Or(p, Absurd()),
        # p & p keeps the derivations of p only when they all agree.
        lambda p: (
            And(p, p) if _linear_both(p) and wellformed.deterministic(p) else Neg(Neg(p))
        ),
    )
    for i in range(cases):
        tau = _TAUS[i % len(_TAUS)]
        uni = enumerate_values(STANDARD_DECLS, tau, depth)
        p = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        q = transforms[i % len(transforms)](p)
        if not pattern_equiv_bounded(p, q, uni):
            res.fail(f"transform broke equivalence for {format_pattern(p)}")
            continue
        r = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 2))
        contexts = [
            (Neg(p), Neg(q)),
            (And(p, r), And(q, r)),
            (Or(r, p), Or(r, q)),
        ]
        wrap = _ctor_context(tau)
        if wrap is not None:
            ctor, idx, outer_tau = wrap
            args_p = tuple(
                p if j == idx else Wild() for j in range(ctor.arity)
            )
            args_q = tuple(
                q if j == idx else Wild() for j in range(ctor.arity)
            )
            contexts.append((Ctor(ctor, args_p), Ctor(ctor, args_q)))
            ctx_uni = enumerate_values(STANDARD_DECLS, outer_tau, depth)
            res.cases += 1
            if not pattern_equiv_bounded(Ctor(ctor, args_p), Ctor(ctor, args_q), ctx_uni):
                res.fail(f"constructor context broke equivalence for {format_pattern(p)}")
            contexts.pop()
        for lhs, rhs in contexts:
            _equiv_case(res, lhs, rhs, uni, "congruence context")
    return res


def _ctor_context(tau):
    """A declared constructor with an argument slot of the given type."""
    for type_name, ctors in STANDARD_DECLS.types.items():
        for ctor, arg_types in ctors:
            for idx, at in enumerate(arg_types):
                if at == tau:
                    return ctor, idx, Named(type_name)
    return None


def prop_covering_and_properness(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("linear patterns cover their variables properly")
    rng = random.Random(seed)
    checked = 0
    while checked < cases:
        tau = _TAUS[checked % len(_TAUS)]
        p = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 4))
        facts = wellformed.pattern_facts(p)
        lp, ln = facts.linear_pos, facts.linear_neg
        if not (lp or ln):
            continue
        checked += 1
        res.cases += 1
        uni = enumerate_values(STANDARD_DECLS, tau, depth)
        for v, (pos, neg) in zip(uni, match_all(p, uni)):
            if lp:
                for s in in_order(pos):
                    if {m.var for m in s} != facts.fv_even:
                        res.fail(
                            f"domain mismatch: {format_pattern(p)} vs {format_value(v)}"
                        )
                    if not is_proper(s):
                        res.fail(
                            f"improper substitution: {format_pattern(p)} vs {format_value(v)}"
                        )
            if ln:
                for s in in_order(neg):
                    if {m.var for m in s} != facts.fv_odd:
                        res.fail(
                            f"negative domain mismatch: {format_pattern(p)} vs {format_value(v)}"
                        )
                    if not is_proper(s):
                        res.fail(
                            f"improper negative substitution: {format_pattern(p)}"
                        )
    return res


def prop_deterministic_matching(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("deterministic patterns match deterministically")
    rng = random.Random(seed)
    checked = 0
    while checked < cases:
        tau = _TAUS[checked % len(_TAUS)]
        p = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 4))
        facts = wellformed.pattern_facts(p)
        if not facts.deterministic():
            continue
        lp, ln = facts.linear_pos, facts.linear_neg
        if not (lp or ln):
            continue
        checked += 1
        res.cases += 1
        uni = enumerate_values(STANDARD_DECLS, tau, depth)
        for v, (pos, neg) in zip(uni, match_all(p, uni)):
            # Substitution sets collapse equivalent members, so determinism
            # shows up as at most one element.
            if lp and len(pos) > 1:
                res.fail(
                    f"ambiguous match: {format_pattern(p)} vs {format_value(v)}"
                )
            if ln and len(neg) > 1:
                res.fail(
                    f"ambiguous negative match: {format_pattern(p)} vs {format_value(v)}"
                )
    return res


def prop_de_morgan_linearity(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("De Morgan rewrites preserve linearity")
    rng = random.Random(seed)
    for i in range(cases):
        tau = _TAUS[i % len(_TAUS)]
        p1 = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        p2 = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        res.cases += 1
        pairs = (
            (Neg(Or(p1, p2)), And(Neg(p1), Neg(p2))),
            (Neg(And(p1, p2)), Or(Neg(p1), Neg(p2))),
            (Neg(Neg(p1)), p1),
        )
        for before, after in pairs:
            b = wellformed.pattern_facts(before)
            if not (b.linear_pos or b.linear_neg):
                continue
            a = wellformed.pattern_facts(after)
            if b.linear_pos and not a.linear_pos:
                res.fail(f"positive linearity lost: {format_pattern(before)}")
            if b.linear_neg and not a.linear_neg:
                res.fail(f"negative linearity lost: {format_pattern(before)}")
    return res


def prop_overlap_sound(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("overlap decision never misses a shared value")
    rng = random.Random(seed)
    for i in range(cases):
        tau = _TAUS[i % len(_TAUS)]
        p = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 4))
        q = random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 4))
        res.cases += 1
        if overlap.decide(p, q):
            continue
        uni = enumerate_values(STANDARD_DECLS, tau, depth)
        for v, (p_pos, _), (q_pos, _) in zip(uni, match_all(p, uni), match_all(q, uni)):
            if p_pos and q_pos:
                res.fail(
                    f"declared disjoint but both match {format_value(v)}: "
                    f"{format_pattern(p)} / {format_pattern(q)}"
                )
                break
    return res


# --- semantics and compilation ---------------------------------------------------


def prop_wellformed_deterministic_eval(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("wellformed case expressions evaluate deterministically")
    rng = random.Random(seed)
    for i in range(cases):
        tau = _TAUS[i % 4]  # skip the recursive type for speed
        e = gen_case(STANDARD_DECLS, tau, rng.randrange(1 << 30))
        res.cases += 1
        for v in enumerate_values(STANDARD_DECLS, tau, depth):
            cur = ECase(v, e.clauses, e.default_rhs)
            for _ in range(200):
                r = semantics.step(cur)
                if not isinstance(r, Stepped):
                    break
                if len(r.successors) > 1:
                    res.fail(
                        f"nondeterministic step at {format_value(v)} in "
                        f"{format_expr(e)}"
                    )
                    break
                cur = r.successors[0]
    return res


def prop_clause_permutation(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("clause order does not matter")
    rng = random.Random(seed)
    for i in range(cases):
        tau = _TAUS[i % 4]
        e = gen_case(STANDARD_DECLS, tau, rng.randrange(1 << 30))
        perm = list(e.clauses)
        rng.shuffle(perm)
        shuffled = ECase(e.scrutinee, tuple(perm), e.default_rhs)
        res.cases += 1
        for v in enumerate_values(STANDARD_DECLS, tau, depth):
            if not semantics.expr_equiv_bounded(e, shuffled, 500, {e.scrutinee.name: v}):
                res.fail(f"permutation changed the result at {format_value(v)}")
                break
    return res


def prop_differential_compile(seed, depth, cases) -> PropertyResult:
    """Every compiled tree validates against its case, and agrees with
    direct evaluation on every scrutinee value up to the depth."""
    res = PropertyResult("compiled trees agree with direct evaluation")
    rng = random.Random(seed)
    for i in range(cases):
        tau = _TAUS[i % len(_TAUS)]
        e = gen_case(STANDARD_DECLS, tau, rng.randrange(1 << 30))
        res.cases += 1
        tree = compile_case(e)
        outcome = validate_tree(e, tree)
        if not isinstance(outcome, Disagree):
            outcome = differential_check_tree(e, tree, STANDARD_DECLS, depth, tau)
        if isinstance(outcome, Disagree):
            res.fail(f"{format_expr(e)}: {outcome.detail}")
    return res


def prop_default_clause_not_wildcard() -> PropertyResult:
    """Replacing the default clause by a wildcard clause must break
    wellformedness as soon as another clause exists."""
    res = PropertyResult("default clause differs from a wildcard clause")
    red = CtorName("Red", 0)
    scrut = semantics.EVar("c")
    a = semantics.ECtor(CtorName("T", 0), ())
    b = semantics.ECtor(CtorName("F", 0), ())
    with_default = ECase(scrut, (semantics.Clause(Ctor(red, ()), a),), b)
    as_wildcard = ECase(
        scrut,
        (
            semantics.Clause(Ctor(red, ()), a),
            semantics.Clause(Wild(), b),
        ),
        b,
    )
    res.cases += 1
    if not wellformed.wf_expr(with_default).ok:
        res.fail("case with default clause should be wellformed")
    if wellformed.wf_expr(as_wildcard).ok:
        res.fail("wildcard clause overlapping another clause should be rejected")
    return res


# --- exhaustiveness -----------------------------------------------------------------


def _brute_force_exhaustive(P, taus, depth) -> bool:
    pools = [enumerate_values(STANDARD_DECLS, t, depth) for t in taus]
    covered = set()
    for row in P:
        # The positions of the values each cell matches, from one vector
        # per column over its pool; the row covers their product.
        hits = [
            [k for k, (pos, _) in enumerate(match_all(p, pool)) if pos]
            for p, pool in zip(row, pools)
        ]
        covered.update(itertools.product(*hits))
    return len(covered) == math.prod(map(len, pools))


def prop_exhaustiveness_oracle(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("exhaustiveness agrees with brute force")
    rng = random.Random(seed)
    combos = (
        (Named("Color"),),
        (Named("Day"),),
        (Named("B"), Named("Color")),
        (Named("BPair"),),
    )
    for i in range(cases):
        taus = combos[i % len(combos)]
        P = tuple(
            tuple(random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3)) for tau in taus)
            for _ in range(rng.randint(1, 3))
        )
        res.cases += 1
        # Depth 2 closes every value of these non-recursive types.
        full_depth = 2
        claimed = exhaustive(P, STANDARD_DECLS, col_types=taus)
        brute = _brute_force_exhaustive(P, taus, full_depth)
        if claimed != brute:
            res.fail(
                f"exhaustive={claimed} but brute force says {brute} for "
                + " | ".join("; ".join(format_pattern(p) for p in row) for row in P)
            )
    return res


def prop_witness_soundness(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("non-exhaustiveness witnesses are genuine")
    rng = random.Random(seed)
    taus = (Named("Color"), Named("Day"), Named("BList"))
    for i in range(cases):
        tau = taus[i % len(taus)]
        P = tuple(
            (random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3)),)
            for _ in range(rng.randint(1, 3))
        )
        res.cases += 1
        witness = non_exhaustiveness_witness(P, STANDARD_DECLS, col_types=(tau,))
        if witness is None:
            continue
        v = witness[0]
        if any(match_pos(row[0], v) for row in P):
            res.fail(f"witness {format_value(v)} is covered by a row")
    return res


# --- suite registry ------------------------------------------------------------------


def run_algebra_suite(seed=0, depth=3, cases=200):
    return [
        prop_matching_sound_complete(seed, depth, cases),
        prop_boolean_laws(seed + 1, depth, cases),
        prop_ctor_laws_one(seed + 2, depth, cases),
        prop_linear_laws(seed + 3, depth, cases),
        prop_ctor_laws_linear(seed + 4, depth, cases),
        prop_congruence(seed + 5, depth, cases),
        prop_covering_and_properness(seed + 6, depth, cases),
        prop_deterministic_matching(seed + 7, depth, cases),
        prop_de_morgan_linearity(seed + 8, depth, cases),
        prop_overlap_sound(seed + 9, depth, max(cases, 500)),
    ]


def run_compile_suite(seed=0, depth=3, cases=200):
    return [
        prop_wellformed_deterministic_eval(seed + 10, depth, max(cases // 4, 25)),
        prop_clause_permutation(seed + 11, depth, max(cases // 4, 25)),
        prop_default_clause_not_wildcard(),
        prop_differential_compile(seed + 12, depth, cases),
    ]


def run_exhaustive_suite(seed=0, depth=3, cases=200):
    return [
        prop_exhaustiveness_oracle(seed + 20, depth, cases),
        prop_witness_soundness(seed + 21, depth, cases),
    ]


SUITES = MappingProxyType({
    "algebra": run_algebra_suite,
    "compile": run_compile_suite,
    "exhaustive": run_exhaustive_suite,
})


def run_suites(which="all", seed=0, depth=3, cases=200):
    names = list(SUITES) if which == "all" else [which]
    results = []
    for name in names:
        results.extend(SUITES[name](seed=seed, depth=depth, cases=cases))
    return results
