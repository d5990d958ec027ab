"""Seeded property suites over the whole pipeline.

Each property draws its instances deterministically from a seed, checks a
law or an agreement between two independent routes, and reports
counterexamples instead of raising.  The same suites back `patc fuzz` and
the acceptance tests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import overlap, semantics, wellformed
from .compiler import (
    ClauseMatrix,
    FreshSupply,
    MatrixRow,
    compile as compile_matrix,
    default_matrix,
    eval_matrix,
    eval_tree,
    head_ctors,
    specialize,
    step_matrix,
    tree_invariants_ok,
)
from .exhaustiveness import exhaustive, non_exhaustiveness_witness
from .normalize import embed_ndnf, to_ndnf
from .oracle import (
    Disagree,
    _gen_pattern,
    _gen_rhs,
    differential_compile_check,
    enumerate_values,
    gen_case,
    gen_value,
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
    Var,
    Wild,
    fv_even,
    fv_odd,
    is_proper,
    map_vars,
    match_neg,
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


@dataclass
class PropertyResult:
    name: str
    cases: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def fail(self, detail: str) -> None:
        if len(self.counterexamples) < 10:
            self.counterexamples.append(detail)


def _universe(tau, depth):
    return enumerate_values(STANDARD_DECLS, tau, depth)


def _strip_vars(p: Pattern) -> Pattern:
    """Variable-free patterns are always linear on both sides."""
    return map_vars(p, lambda x: Wild())


def _linear_both(p: Pattern) -> bool:
    return wellformed.linear_pos(p) and wellformed.linear_neg(p)


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
        p = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 4))
        v = gen_value(rng, STANDARD_DECLS, tau, depth)
        pos, neg = match_pos(p, v), match_neg(p, v)
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
        uni = _universe(tau, depth)
        p = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        q = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        r = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 2))
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
        _gen_pattern(rng, STANDARD_DECLS, t, rng.randint(0, size)) for t in arg_types
    )
    args2 = tuple(
        _gen_pattern(rng, STANDARD_DECLS, t, rng.randint(0, size)) for t in arg_types
    )
    return ctor, arg_types, args, args2


def prop_ctor_laws_one(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("constructor laws (unrestricted)")
    rng = random.Random(seed)
    taus = (Named("BPair"), Named("BList"))
    for i in range(cases):
        tau = taus[i % len(taus)]
        uni = _universe(tau, depth)
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
        uni = _universe(tau, depth)
        name, law = laws[i % len(laws)]
        p = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        q = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 2))
        r = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 2))
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
        uni = _universe(tau, depth)
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
        lambda p: And(p, p) if _linear_both(p) else Neg(Neg(p)),
    )
    for i in range(cases):
        tau = _TAUS[i % len(_TAUS)]
        uni = _universe(tau, depth)
        p = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        q = transforms[i % len(transforms)](p)
        if not pattern_equiv_bounded(p, q, uni):
            res.fail(f"transform broke equivalence for {format_pattern(p)}")
            continue
        r = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 2))
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
            ctx_uni = _universe(outer_tau, depth)
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
        p = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 4))
        lp, ln = wellformed.linear_pos(p), wellformed.linear_neg(p)
        if not (lp or ln):
            continue
        checked += 1
        res.cases += 1
        for v in _universe(tau, depth):
            if lp:
                for s in match_pos(p, v):
                    if {m.var for m in s} != set(fv_even(p)):
                        res.fail(
                            f"domain mismatch: {format_pattern(p)} vs {format_value(v)}"
                        )
                    if not is_proper(s):
                        res.fail(
                            f"improper substitution: {format_pattern(p)} vs {format_value(v)}"
                        )
            if ln:
                for s in match_neg(p, v):
                    if {m.var for m in s} != set(fv_odd(p)):
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
        p = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 4))
        if not wellformed.deterministic(p):
            continue
        lp, ln = wellformed.linear_pos(p), wellformed.linear_neg(p)
        if not (lp or ln):
            continue
        checked += 1
        res.cases += 1
        for v in _universe(tau, depth):
            # Canonical substitution sets collapse equivalent members, so
            # determinism shows up as at most one element.
            if lp and len(match_pos(p, v)) > 1:
                res.fail(
                    f"ambiguous match: {format_pattern(p)} vs {format_value(v)}"
                )
            if ln and len(match_neg(p, v)) > 1:
                res.fail(
                    f"ambiguous negative match: {format_pattern(p)} vs {format_value(v)}"
                )
    return res


def prop_de_morgan_linearity(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("De Morgan rewrites preserve linearity")
    rng = random.Random(seed)
    lp, ln = wellformed.linear_pos, wellformed.linear_neg
    for i in range(cases):
        tau = _TAUS[i % len(_TAUS)]
        p1 = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        p2 = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
        res.cases += 1
        pairs = (
            (Neg(Or(p1, p2)), And(Neg(p1), Neg(p2))),
            (Neg(And(p1, p2)), Or(Neg(p1), Neg(p2))),
            (Neg(Neg(p1)), p1),
        )
        for before, after in pairs:
            if lp(before) and not lp(after):
                res.fail(f"positive linearity lost: {format_pattern(before)}")
            if ln(before) and not ln(after):
                res.fail(f"negative linearity lost: {format_pattern(before)}")
    return res


def prop_overlap_sound(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("overlap decision never misses a shared value")
    rng = random.Random(seed)
    for i in range(cases):
        tau = _TAUS[i % len(_TAUS)]
        p = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 4))
        q = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 4))
        res.cases += 1
        if overlap.decide(to_ndnf(p), to_ndnf(q)):
            continue
        for v in _universe(tau, depth):
            if match_pos(p, v) and match_pos(q, v):
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
        for v in _universe(tau, depth):
            cur = ECase(semantics.value_to_expr(v), e.clauses, e.default_rhs)
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
        for v in _universe(tau, depth):
            a = ECase(semantics.value_to_expr(v), e.clauses, e.default_rhs)
            b = ECase(semantics.value_to_expr(v), shuffled.clauses, shuffled.default_rhs)
            if not semantics.expr_equiv_bounded(a, b, 500):
                res.fail(f"permutation changed the result at {format_value(v)}")
                break
    return res


def prop_differential_compile(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("compiled trees agree with direct evaluation")
    rng = random.Random(seed)
    for i in range(cases):
        tau = _TAUS[i % len(_TAUS)]
        e = gen_case(STANDARD_DECLS, tau, rng.randrange(1 << 30))
        res.cases += 1
        outcome = differential_compile_check(e, STANDARD_DECLS, depth, tau)
        if isinstance(outcome, Disagree):
            res.fail(f"{format_expr(e)}: {outcome.detail}")
    return res


def _gen_matrix(rng, taus, depth, disjoint_disjuncts=True):
    """Random wellformed clause matrix with value scrutinees; columns use
    disjoint variable pools so rows bind disjointly."""
    ncols = len(taus)
    for _ in range(200):
        rows = []
        nrows = rng.randint(1, 3)
        ok = True
        for r in range(nrows):
            cells = []
            rhs_vars = []
            for c, tau in enumerate(taus):
                p = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
                p = map_vars(p, lambda x: Var(f"{x.name}_{c}"))
                if not (wellformed.linear_pos(p) and wellformed.deterministic(p)):
                    ok = False
                    break
                d = to_ndnf(p)
                if disjoint_disjuncts and _has_overlapping_disjuncts(d):
                    ok = False
                    break
                cells.append(d)
                rhs_vars.extend(sorted(fv_even(p)))
            if not ok:
                break
            rows.append(MatrixRow(tuple(cells), _gen_rhs(rng, STANDARD_DECLS, rhs_vars)))
        if not ok:
            continue
        scruts = tuple(
            semantics.value_to_expr(gen_value(rng, STANDARD_DECLS, tau, depth))
            for tau in taus
        )
        m = ClauseMatrix(scruts, tuple(rows), _gen_rhs(rng, STANDARD_DECLS, []))
        if wellformed.wf_matrix(m).ok:
            return m
    return None


def _has_overlapping_disjuncts(d) -> bool:
    ks = d.conjuncts
    for i in range(len(ks)):
        for j in range(i + 1, len(ks)):
            from .normalize import Ndnf

            if overlap.decide(Ndnf((ks[i],)), Ndnf((ks[j],))):
                return True
    return False


def prop_matrix_subproblem_stepping(seed, depth, cases) -> PropertyResult:
    """Specialization and default matrices preserve and reflect the
    single-step relation, and stay wellformed."""
    res = PropertyResult("matrix subproblems preserve stepping and wellformedness")
    rng = random.Random(seed)
    combos = ((Named("Color"),), (Named("B"), Named("Color")), (Named("BPair"),))
    for i in range(cases):
        taus = combos[i % len(combos)]
        m = _gen_matrix(rng, taus, depth)
        if m is None:
            continue
        res.cases += 1
        base = set(step_matrix(m).successors)
        fresh = FreshSupply()
        for col in range(len(m.scrutinees)):
            heads = head_ctors([row.cells[col] for row in m.rows])
            v = semantics.expr_to_value(m.scrutinees[col])
            if v.ctor in heads:
                binders = fresh.fresh_names(v.ctor.arity)
                spec = specialize(col, (v.ctor, binders), m)
                if not wellformed.wf_matrix(spec).ok:
                    res.fail(f"specialization broke wellformedness at column {col}")
                    continue
                inst = ClauseMatrix(
                    tuple(semantics.value_to_expr(w) for w in v.args)
                    + spec.scrutinees[v.ctor.arity :],
                    spec.rows,
                    spec.default_rhs,
                )
                got = set(step_matrix(inst).successors)
                if got != base:
                    res.fail(
                        f"specialized step set differs at column {col}: "
                        f"{sorted(map(format_expr, got))} vs "
                        f"{sorted(map(format_expr, base))}"
                    )
            else:
                dflt = default_matrix(col, heads, m)
                if not wellformed.wf_matrix(dflt).ok:
                    res.fail(f"default matrix broke wellformedness at column {col}")
                    continue
                got = set(step_matrix(dflt).successors)
                if got != base:
                    res.fail(f"default step set differs at column {col}")
    return res


def prop_matrix_compile_agreement(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("tree evaluation agrees with the matrix relation")
    rng = random.Random(seed)
    combos = ((Named("Color"),), (Named("B"), Named("Color")), (Named("BList"),))
    for i in range(cases):
        taus = combos[i % len(combos)]
        m = _gen_matrix(rng, taus, depth, disjoint_disjuncts=False)
        if m is None:
            continue
        res.cases += 1
        tree = compile_matrix(m)
        if not tree_invariants_ok(tree):
            res.fail("compiled tree violates its structural invariants")
            continue
        direct = eval_matrix(m)
        via_tree = eval_tree(tree, ())
        if direct != via_tree:
            res.fail(
                f"matrix evaluation {direct!r} differs from tree result "
                f"{via_tree!r}"
            )
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
    pools = [_universe(t, depth) for t in taus]
    for combo in itertools.product(*pools):
        if not any(
            all(match_pos(embed_ndnf(c), v) for c, v in zip(row.cells, combo))
            for row in P
        ):
            return False
    return True


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
        rows = []
        for _ in range(rng.randint(1, 3)):
            row = []
            for tau in taus:
                p = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
                row.append(to_ndnf(p))
            rows.append(MatrixRow(tuple(row)))
        P = tuple(rows)
        res.cases += 1
        # Depth 2 closes every value of these non-recursive types.
        full_depth = 2
        claimed = exhaustive(P, STANDARD_DECLS, col_types=taus)
        brute = _brute_force_exhaustive(P, taus, full_depth)
        if claimed != brute:
            res.fail(
                f"exhaustive={claimed} but brute force says {brute} for "
                + " | ".join(
                    "; ".join(format_pattern(embed_ndnf(c)) for c in row.cells)
                    for row in P
                )
            )
    return res


def prop_witness_soundness(seed, depth, cases) -> PropertyResult:
    res = PropertyResult("non-exhaustiveness witnesses are genuine")
    rng = random.Random(seed)
    taus = (Named("Color"), Named("Day"), Named("BList"))
    for i in range(cases):
        tau = taus[i % len(taus)]
        rows = []
        for _ in range(rng.randint(1, 3)):
            p = _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
            rows.append(MatrixRow((to_ndnf(p),)))
        P = tuple(rows)
        res.cases += 1
        witness = non_exhaustiveness_witness(P, STANDARD_DECLS, col_types=(tau,))
        if witness is None:
            continue
        v = witness[0]
        if any(match_pos(embed_ndnf(row.cells[0]), v) for row in P):
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
        prop_matrix_subproblem_stepping(seed + 13, depth, max(cases // 4, 25)),
        prop_matrix_compile_agreement(seed + 14, depth, max(cases // 4, 25)),
    ]


def run_exhaustive_suite(seed=0, depth=3, cases=200):
    return [
        prop_exhaustiveness_oracle(seed + 20, depth, cases),
        prop_witness_soundness(seed + 21, depth, cases),
    ]


SUITES = {
    "algebra": run_algebra_suite,
    "compile": run_compile_suite,
    "exhaustive": run_exhaustive_suite,
}


def run_suites(which="all", seed=0, depth=3, cases=200):
    names = list(SUITES) if which == "all" else [which]
    results = []
    for name in names:
        results.extend(SUITES[name](seed=seed, depth=depth, cases=cases))
    return results
