"""Normalization stages and their printed forms."""

import random

from helpers import BOOL_LIST, c, cn, var

from patalg.normalize import (
    Ndnf,
    NegConj,
    PosConj,
    UnsatConj,
    combine,
    dnf,
    embed_ndnf,
    is_conjunct,
    is_nnf,
    ndnf_matches,
    nnf,
    normalize_conjunct,
    to_ndnf,
)
from patalg.oracle import _gen_pattern, enumerate_values
from patalg.pretty import format_dnf, format_ndnf, format_pattern
from patalg.syntax import (
    Absurd,
    And,
    Neg,
    Or,
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
        p = _gen_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 5))
        assert is_nnf(nnf(p))


def test_dnf_printed_forms():
    assert format_dnf(dnf(nnf(WEEKEND_POS))) == "||{ x & Sa, x & Su }"
    assert format_dnf(dnf(nnf(WEEKEND_NEG))) == "||{ x & (!Sa & !Su) }"


def test_dnf_absurd():
    assert dnf(Absurd()) == (Absurd(),)


def test_dnf_members_are_conjuncts():
    rng = random.Random(8)
    for _ in range(100):
        p = _gen_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 5))
        assert all(is_conjunct(k) for k in dnf(nnf(p)))


def test_ndnf_printed_forms():
    assert format_ndnf(to_ndnf(WEEKEND_POS)) == "||{ {x} & Sa, {x} & Su }"
    assert format_ndnf(to_ndnf(WEEKEND_NEG)) == "||{ {x} & !{Sa, Su} }"


def test_normalize_negated_variable_is_unsatisfiable():
    assert normalize_conjunct(Neg(var("x"))) == UnsatConj(frozenset())


def test_combine_unsat_absorbs():
    out = combine(
        UnsatConj(frozenset({"x"})),
        PosConj(frozenset({"y"}), cn("C"), ()),
    )
    assert out == UnsatConj(frozenset({"x", "y"}))


def test_combine_positive_with_banning_negative():
    out = combine(
        PosConj(frozenset(), cn("Red"), ()),
        NegConj(frozenset(), frozenset({cn("Red")})),
    )
    assert out == UnsatConj(frozenset())


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
        p = _gen_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 5))
        q = nnf(p)
        assert fv_even(p) == fv_even(q)
        assert fv_odd(p) == fv_odd(q)


def test_nnf_preserves_positive_linearity():
    rng = random.Random(10)
    found = 0
    while found < 150:
        p = _gen_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 5))
        if not linear_pos(p):
            continue
        found += 1
        assert linear_pos(nnf(p))


def test_nnf_preserves_semantics_for_linear_patterns():
    rng = random.Random(11)
    uni = _universe("List")
    found = 0
    while found < 150:
        p = _gen_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 4))
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
    # Negated variables normalize to the unsatisfiable conjunct and are the
    # documented exception; they get a dedicated test below.
    rng = random.Random(12)
    uni = _universe("List")
    found = 0
    while found < 150:
        p = _gen_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 4))
        if not (linear_pos(p) and linear_neg(p)) or _contains_neg_var(p):
            continue
        found += 1
        assert pattern_equiv_bounded(p, embed_ndnf(to_ndnf(p)), uni)


def test_negated_variable_normalizes_to_absurd():
    p = Neg(var("x"))
    d = to_ndnf(p)
    assert d == Ndnf((UnsatConj(frozenset()),))
    # Same values matched (none), though the failure bindings differ.
    for value in _universe("B", 1):
        assert match_pos(p, value) == ()
        assert match_pos(embed_ndnf(d), value) == ()
    assert not pattern_equiv_bounded(p, embed_ndnf(d), _universe("B", 1))


def test_double_negation_normalizes_equivalently():
    rng = random.Random(13)
    uni = _universe("B", 2)
    for _ in range(100):
        p = _gen_pattern(rng, BOOL_LIST, Named("B"), rng.randint(0, 4))
        a = embed_ndnf(to_ndnf(Neg(Neg(p))))
        b = embed_ndnf(to_ndnf(p))
        assert pattern_equiv_bounded(a, b, uni)


def test_ndnf_matches_agrees_with_matching_the_pattern():
    # Negated variables and nonlinear patterns included: whether some
    # derivation exists survives normalization even where bindings do not.
    rng = random.Random(14)
    for tau in ("List", "B"):
        uni = _universe(tau)
        for _ in range(300):
            p = _gen_pattern(rng, BOOL_LIST, Named(tau), rng.randint(0, 5))
            d = to_ndnf(p)
            for value in uni:
                assert ndnf_matches(d, value) == bool(match_pos(p, value)), (p, value)
