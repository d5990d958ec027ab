"""Dual-context pattern typing and expression typing."""

import random
from collections import Counter

from helpers import BOOL_LIST, c, cn, var

from patalg.normalize import nnf
from patalg.oracle import _gen_pattern
from patalg.semantics import Clause, ECase, ECtor, EVar
from patalg.syntax import And, Neg, Or, Wild
from patalg.typecheck import Bool, DataDecls, Ill, Named, Ok, Typed, type_expr, type_pattern

B = Bool()

# Declared stand-ins for a product and a binary sum of types.
PAIR_BT = DataDecls({"P": ((cn("Pair", 2), (B, Named("T"))),)})
PAIR_BB = DataDecls({"P": ((cn("Pair", 2), (B, B)),)})
SUM_BT = DataDecls({"S": ((cn("Inl", 1), (B,)), (cn("Inr", 1), (Named("T"),)))})


def test_variable_pattern():
    r = type_pattern(var("x"), B)
    assert r == Typed((("x", B),), ())


def test_nonlinear_pair_is_typeable():
    # Typing admits it; linearity rejects it separately.
    r = type_pattern(c("Pair", var("x"), var("x")), Named("P"), PAIR_BT)
    assert r == Typed((("x", B), ("x", Named("T"))), ())


def test_negation_swaps_contexts():
    r = type_pattern(Neg(var("x")), B)
    assert r == Typed((), (("x", B),))


def test_or_requires_matching_branch_contexts():
    good = type_pattern(Or(var("x"), var("x")), B)
    assert isinstance(good, Typed)
    bad = type_pattern(Or(var("x"), var("y")), B)
    assert isinstance(bad, Ill)


def test_sum_patterns():
    r = type_pattern(c("Inl", var("x")), Named("S"), SUM_BT)
    assert r == Typed((("x", B),), ())
    r = type_pattern(c("Inr", var("x")), Named("S"), SUM_BT)
    assert r == Typed((("x", Named("T")),), ())


def test_constructor_type_mismatch():
    assert isinstance(type_pattern(c("True"), Named("P"), PAIR_BB), Ill)
    assert isinstance(type_pattern(c("Red"), Named("List"), BOOL_LIST), Ill)


def test_declared_constructor_pattern():
    r = type_pattern(c("Cons", var("h"), var("t")), Named("List"), BOOL_LIST)
    assert r == Typed((("h", Named("B")), ("t", Named("List"))), ())


def test_expr_true_has_bool_type():
    assert type_expr((), ECtor(cn("True"), ())) == Ok(B)


def test_expr_case_with_negated_clause():
    e = ECase(
        ECtor(cn("True"), ()),
        (
            Clause(c("True"), ECtor(cn("False"), ())),
            Clause(Neg(c("True")), ECtor(cn("True"), ())),
        ),
        ECtor(cn("False"), ()),
    )
    assert type_expr((), e) == Ok(B)


def test_expr_pair_of_variables():
    ctx = (("x", B),)
    e = ECtor(cn("Pair", 2), (EVar("x"), EVar("x")))
    assert type_expr(ctx, e, PAIR_BB) == Ok(Named("P"))


def test_expr_clause_binders_in_scope():
    e = ECase(
        ECtor(cn("Cons", 2), (ECtor(cn("True"), ()), ECtor(cn("Nil"), ()))),
        (Clause(c("Cons", var("h"), Wild()), EVar("h")),),
        ECtor(cn("True"), ()),
    )
    assert type_expr((), e, BOOL_LIST) == Ok(Named("B"))


def test_expr_mismatched_clause_results():
    e = ECase(
        ECtor(cn("True"), ()),
        (Clause(c("True"), ECtor(cn("Nil"), ())),),
        ECtor(cn("False"), ()),
    )
    assert isinstance(type_expr((), e, BOOL_LIST), Ill)


def test_unbound_variable():
    assert isinstance(type_expr((), EVar("ghost")), Ill)


# --- preservation under normalization ---


def _ctx_multiset(ctx):
    return Counter(ctx)


def test_nnf_preserves_typing():
    rng = random.Random(21)
    checked = 0
    while checked < 150:
        p = _gen_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 5))
        r = type_pattern(p, Named("List"), BOOL_LIST)
        if not isinstance(r, Typed):
            continue
        checked += 1
        r2 = type_pattern(nnf(p), Named("List"), BOOL_LIST)
        assert isinstance(r2, Typed)
        assert _ctx_multiset(r.gamma) == _ctx_multiset(r2.gamma)
        assert _ctx_multiset(r.delta) == _ctx_multiset(r2.delta)


def test_de_morgan_preserves_typing():
    rng = random.Random(22)
    for _ in range(150):
        p1 = _gen_pattern(rng, BOOL_LIST, Named("B"), rng.randint(0, 3))
        p2 = _gen_pattern(rng, BOOL_LIST, Named("B"), rng.randint(0, 3))
        pairs = (
            (Neg(Or(p1, p2)), And(Neg(p1), Neg(p2))),
            (Neg(And(p1, p2)), Or(Neg(p1), Neg(p2))),
            (Neg(Neg(p1)), p1),
        )
        for a, b in pairs:
            ra = type_pattern(a, Named("B"), BOOL_LIST)
            rb = type_pattern(b, Named("B"), BOOL_LIST)
            assert isinstance(ra, Typed) == isinstance(rb, Typed)
            if isinstance(ra, Typed):
                assert _ctx_multiset(ra.gamma) == _ctx_multiset(rb.gamma)
                assert _ctx_multiset(ra.delta) == _ctx_multiset(rb.delta)
