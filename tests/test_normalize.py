"""Normalization stages and their printed forms."""

import functools
import random

from helpers import BOOL_LIST, c, cn, var

from patalg.normalize import (
    Ndnf,
    NegConj,
    PosConj,
    combine,
    dnf,
    embed_ndnf,
    is_conjunct,
    is_nnf,
    nnf,
    to_ndnf,
)
from patalg.oracle import enumerate_values, random_pattern
from patalg.pretty import format_dnf, format_ndnf, format_pattern
from patalg.syntax import (
    Absurd,
    And,
    Ctor,
    Neg,
    Or,
    Value,
    Wild,
    fv_even,
    fv_odd,
    match_pos,
    pattern_equiv_bounded,
)
from patalg.typecheck import Named
from patalg.wellformed import linear_neg, linear_pos


WEEKEND_POS = And(var("x"), Or(c("Sa"), c("Su")))
WEEKEND_NEG = And(var("x"), Neg(Or(c("Sa"), c("Su"))))


def test_nnf_printed_forms():
    assert format_pattern(nnf(WEEKEND_POS)) == "x & (Sa | Su)"
    assert format_pattern(nnf(WEEKEND_NEG)) == "x & (!Sa & !Su)"


def test_nnf_negated_pair_expands():
    p = Neg(c("Pair", c("True"), c("False")))
    assert (
        format_pattern(nnf(p))
        == "!Pair(_, _) | (Pair(!True, _) | Pair(_, !False))"
    )


def test_nnf_identity_on_negation_free():
    p = And(var("x"), c("Cons", Wild(), var("y")))
    assert nnf(p) == p


def test_nnf_output_is_nnf():
    rng = random.Random(7)
    for _ in range(100):
        p = random_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 5))
        assert is_nnf(nnf(p))


def test_dnf_printed_forms():
    assert format_dnf(dnf(nnf(WEEKEND_POS))) == "||{ x & Sa, x & Su }"
    assert format_dnf(dnf(nnf(WEEKEND_NEG))) == "||{ x & (!Sa & !Su) }"


def test_dnf_absurd():
    assert dnf(Absurd()) == (Absurd(),)


def test_dnf_members_are_conjuncts():
    rng = random.Random(8)
    for _ in range(100):
        p = random_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 5))
        assert all(is_conjunct(k) for k in dnf(nnf(p)))


def test_ndnf_printed_forms():
    assert format_ndnf(to_ndnf(WEEKEND_POS)) == "||{ {x} & Sa, {x} & Su }"
    assert format_ndnf(to_ndnf(WEEKEND_NEG)) == "||{ {x} & !{Sa, Su} }"


def test_normalize_negated_variable_is_unsatisfiable():
    # A negated variable contributes no conjunct, under a conjunction or a
    # constructor too.
    for p in (Neg(var("x")), And(var("y"), Neg(var("x"))), c("S", Neg(var("x")))):
        assert to_ndnf(p) == Ndnf(())


def test_combine_unsat_absorbs():
    # An argument no value matches makes the whole conjunct unsatisfiable.
    wild = NegConj(frozenset(), frozenset())
    out = combine(
        PosConj(frozenset({"x"}), cn("Cons", 2), (PosConj(frozenset(), cn("True"), ()), wild)),
        PosConj(frozenset({"y"}), cn("Cons", 2), (PosConj(frozenset(), cn("False"), ()), wild)),
    )
    assert out is None


def test_combine_positive_with_banning_negative():
    out = combine(
        PosConj(frozenset(), cn("Red"), ()),
        NegConj(frozenset(), frozenset({cn("Red")})),
    )
    assert out is None


def test_combine_negatives_union():
    out = combine(
        NegConj(frozenset({"x"}), frozenset({cn("Sa")})),
        NegConj(frozenset(), frozenset({cn("Su")})),
    )
    assert out == NegConj(frozenset({"x"}), frozenset({cn("Sa"), cn("Su")}))


def test_combine_positive_same_ctor_merges_argwise():
    a = PosConj(frozenset(), cn("Cons", 2), (NegConj(frozenset({"x"}), frozenset()), NegConj(frozenset(), frozenset())))
    b = PosConj(frozenset(), cn("Cons", 2), (NegConj(frozenset(), frozenset()), NegConj(frozenset({"y"}), frozenset())))
    out = combine(a, b)
    assert out == PosConj(
        frozenset(),
        cn("Cons", 2),
        (NegConj(frozenset({"x"}), frozenset()), NegConj(frozenset({"y"}), frozenset())),
    )


def test_to_ndnf_wildcard():
    assert to_ndnf(Wild()) == Ndnf((NegConj(frozenset(), frozenset()),))


def test_empty_disjunction_embeds_as_absurd():
    assert embed_ndnf(Ndnf(())) == Absurd()


# --- preservation properties ---


def _universe(tau, depth=3):
    return enumerate_values(BOOL_LIST, Named(tau), depth)


def test_nnf_preserves_free_variables():
    rng = random.Random(9)
    for _ in range(200):
        p = random_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 5))
        q = nnf(p)
        assert fv_even(p) == fv_even(q)
        assert fv_odd(p) == fv_odd(q)


def test_nnf_preserves_positive_linearity():
    rng = random.Random(10)
    found = 0
    while found < 150:
        p = random_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 5))
        if not linear_pos(p):
            continue
        found += 1
        assert linear_pos(nnf(p))


def test_nnf_preserves_semantics_for_linear_patterns():
    rng = random.Random(11)
    uni = _universe("List")
    found = 0
    while found < 150:
        p = random_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 4))
        if not (linear_pos(p) and linear_neg(p)):
            continue
        found += 1
        assert pattern_equiv_bounded(p, nnf(p), uni)


def _contains_neg_var(p):
    """Does the negation normal form of p contain a negated variable?"""
    from patalg.syntax import And as A, Ctor as C, Or as O, Var

    def walk(q):
        if isinstance(q, Neg):
            return isinstance(q.sub, Var)
        if isinstance(q, (A, O)):
            return walk(q.left) or walk(q.right)
        if isinstance(q, C):
            return any(walk(a) for a in q.args)
        return False

    return walk(nnf(p))


def test_ndnf_round_trip_preserves_semantics():
    # Negated variables normalize to no conjunct and are the documented
    # exception; they get a dedicated test below.
    rng = random.Random(12)
    uni = _universe("List")
    found = 0
    while found < 150:
        p = random_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 4))
        if not (linear_pos(p) and linear_neg(p)) or _contains_neg_var(p):
            continue
        found += 1
        assert pattern_equiv_bounded(p, embed_ndnf(to_ndnf(p)), uni)


def test_negated_variable_normalizes_to_absurd():
    p = Neg(var("x"))
    d = to_ndnf(p)
    assert d == Ndnf(())
    # Same values matched (none), though the failure bindings differ.
    for value in _universe("B", 1):
        assert match_pos(p, value) == frozenset()
        assert match_pos(embed_ndnf(d), value) == frozenset()
    assert not pattern_equiv_bounded(p, embed_ndnf(d), _universe("B", 1))


def test_double_negation_normalizes_equivalently():
    rng = random.Random(13)
    uni = _universe("B", 2)
    for _ in range(100):
        p = random_pattern(rng, BOOL_LIST, Named("B"), rng.randint(0, 4))
        a = embed_ndnf(to_ndnf(Neg(Neg(p))))
        b = embed_ndnf(to_ndnf(p))
        assert pattern_equiv_bounded(a, b, uni)


def test_normalization_keeps_which_values_match():
    # Negated variables and nonlinear patterns included: whether some
    # derivation exists survives normalization even where bindings do not.
    rng = random.Random(14)
    for tau in ("List", "B"):
        uni = _universe(tau)
        for _ in range(300):
            p = random_pattern(rng, BOOL_LIST, Named(tau), rng.randint(0, 5))
            q = embed_ndnf(to_ndnf(p))
            for value in uni:
                assert bool(match_pos(q, value)) == bool(match_pos(p, value)), (p, value)


# --- normal forms hold only satisfiable conjuncts ---


def _open_world_witness(k):
    """A value matching the conjunct when constructors beyond the declared
    ones exist: its head and argument witnesses, or a fresh constructor."""
    if isinstance(k, NegConj):
        return Value(cn("$fresh"), ())
    return Value(k.ctor, tuple(_open_world_witness(a) for a in k.args))


def test_every_conjunct_is_distinct_and_satisfiable():
    rng = random.Random(15)
    for i in range(600):
        tau = Named(("List", "B")[i % 2])
        p = random_pattern(rng, BOOL_LIST, tau, rng.randint(0, 5))
        if i % 3 == 0:
            p = Neg(p)
        d = to_ndnf(p)
        assert len(set(d.conjuncts)) == len(d.conjuncts), format_pattern(p)
        for k in d.conjuncts:
            w = _open_world_witness(k)
            shown = (format_pattern(p), format_ndnf(Ndnf((k,))))
            assert match_pos(embed_ndnf(Ndnf((k,))), w), shown


def test_dead_shapes_contribute_no_conjunct():
    # `!x`, `#` and a constructor with an unsatisfiable argument.
    p = Or(Neg(var("x")), Or(c("S", Absurd()), c("Pair", Neg(var("y")), Wild())))
    assert format_ndnf(to_ndnf(p)) == "||{}"
    assert format_dnf(dnf(nnf(p))) == "||{ !x, S(#), Pair(!y, _) }"


def test_normal_forms_of_deep_and_wide_patterns_do_not_recurse():
    # At the default recursion limit: 10,000 levels of `!` and of `S(...)`,
    # a 2,000-wide or-pattern nested to the left as the parser builds it,
    # and its complement under a variable.
    s = cn("S", 1)
    bangs = nest = var("x")
    for _ in range(10_000):
        bangs, nest = Neg(bangs), Ctor(s, (nest,))
    alts = [c(f"K{i}") for i in range(2000)]
    wide = functools.reduce(Or, alts)
    complement = And(var("y"), Neg(wide))
    for p in (bangs, nest, wide, complement):
        assert len(dnf(nnf(p))) == len(to_ndnf(p).conjuncts)
    assert nnf(bangs) is var("x") and nnf(nest) is nest
    assert to_ndnf(bangs) == to_ndnf(var("x"))
    assert to_ndnf(complement) == Ndnf(
        (NegConj(frozenset({"y"}), frozenset(a.ctor for a in alts)),)
    )
    # !S^n(x) has n + 1 elementary conjuncts of total size O(n^2); the last,
    # S^n(!x), matches nothing.
    deep = var("x")
    for _ in range(500):
        deep = Ctor(s, (deep,))
    assert len(dnf(nnf(Neg(deep)))) == 501
    assert len(to_ndnf(Neg(deep)).conjuncts) == 500


def _first_match_clause(n, i):
    """Clause i of n of a first-match case over Q(B x max(6, n + 1)),
    desugared for order-independent matching: p_i & !(p_1 | ... | p_{i-1}),
    where p_j has True at field j and False at field j + 1."""
    width = max(6, n + 1)
    q = cn("Q", width)

    def p(j):
        fields = {j: c("True"), j + 1: c("False")}
        return Ctor(q, tuple(fields.get(f, Wild()) for f in range(1, width + 1)))

    return And(p(i), Neg(functools.reduce(Or, [p(j) for j in range(1, i)])))


def test_first_match_clause_keeps_only_its_live_conjuncts():
    # Of the 2,193 conjuncts distribution meets, 32 can match a value.
    assert len(to_ndnf(_first_match_clause(6, 6)).conjuncts) == 32
