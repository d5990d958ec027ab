"""Dual-context pattern typing and expression typing."""

import random
from collections import Counter

import pytest

from helpers import BOOL_LIST, c, cn, var

from patalg.normalize import nnf
from patalg.oracle import random_pattern
from patalg.parser import parse
from patalg.semantics import Clause, ECase, ECtor, EVar
from patalg.syntax import And, Neg, Or, Wild
from patalg.typecheck import (
    DataDecls,
    Ill,
    Named,
    Ok,
    Recursive,
    Typed,
    type_expr,
    type_pattern,
)

# A type is the name of a declaration: `Bool` is declared like any other.
B = Named("Bool")
BOOL = {"Bool": ((cn("True"), ()), (cn("False"), ()))}
BOOLS = DataDecls(BOOL)

# Declared stand-ins for a product and a binary sum of types.
PAIR_BT = DataDecls({**BOOL, "P": ((cn("Pair", 2), (B, Named("T"))),)})
PAIR_BB = DataDecls({**BOOL, "P": ((cn("Pair", 2), (B, B)),)})
SUM_BT = DataDecls({**BOOL, "S": ((cn("Inl", 1), (B,)), (cn("Inr", 1), (Named("T"),)))})


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
    assert bad == Ill("disjuncts bind different variables: {x: Bool} vs {y: Bool}")


def test_mismatched_contexts_are_named_in_the_message():
    pair = c("Pair", var("x"), Wild())
    assert type_pattern(Or(pair, c("Pair", Wild(), Wild())), Named("P"), PAIR_BT) == Ill(
        "disjuncts bind different variables: {x: Bool} vs {}"
    )
    assert type_pattern(And(Neg(pair), Wild()), Named("P"), PAIR_BT) == Ill(
        "conjuncts bind different negated variables: {x: Bool} vs {}"
    )


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
    # `True` types at the type that declares it, and is undeclared without it.
    true = ECtor(cn("True"), ())
    assert type_expr((), true, BOOLS) == Ok(B)
    assert type_expr((), true, BOOL_LIST) == Ok(Named("B"))
    assert type_expr((), true) == Ill("undeclared constructor True/0")


def test_expr_case_with_negated_clause():
    e = ECase(
        ECtor(cn("True"), ()),
        (
            Clause(c("True"), ECtor(cn("False"), ())),
            Clause(Neg(c("True")), ECtor(cn("True"), ())),
        ),
        ECtor(cn("False"), ()),
    )
    assert type_expr((), e, BOOLS) == Ok(B)


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


# --- calls ---

CALLS = "data B = T | F;\ndata Color = Red | Blue;\ndata C = K(B);\ndata P = MkP(B, Color);\n"


def _type_def(source, name, typed=None):
    """The type of a definition's body at its parameters' annotations."""
    prog = parse(CALLS + source)
    d = prog.lookup(name)
    return type_expr(d.params, d.body, prog.decls, prog, typed)


def test_call_types_a_callee_at_each_argument_type():
    typed = {}
    text = "def id(x) := x;\ndef f(b: B, c: Color) := MkP(id(b), id(c));\n"
    assert _type_def(text, "f", typed) == Ok(Named("P"))
    b, color = Named("B"), Named("Color")
    assert typed == {("id", (b,)): Ok(b), ("id", (color,)): Ok(color)}


def test_call_argument_must_have_the_annotated_type():
    text = "def g(x: B) := x;\ndef f(y: Color) := g(y);\n"
    assert _type_def(text, "f") == Ill("argument x of g has type Color, expected B")


def test_call_types_an_argument_its_callee_never_reads():
    # Call by value evaluates every argument, so an ill-typed one is an
    # error even where the body does not use it.
    text = "def g(x: B, y: B) := x;\ndef f(x: B) := g(x, K(K(T)));\n"
    assert _type_def(text, "f") == Ill("argument of K has type C, expected B")


@pytest.mark.parametrize(
    "call, message",
    [("g(x)", "call of undefined definition g"), ("h(x, x)", "h takes 1 arguments, got 2")],
)
def test_bad_call_is_ill(call, message):
    assert _type_def(f"def h(x: B) := x;\ndef f(x: B) := {call};\n", "f") == Ill(message)


def test_call_reaching_an_open_typing_is_recursive():
    text = "def f(x: B) := g(x);\ndef g(x: B) := f(x);\n"
    assert isinstance(_type_def(text, "f"), Recursive)
    assert isinstance(_type_def(text, "g"), Recursive)


def test_call_chain_types_each_definition_once():
    # `g_i` calls `g_{i-1}` twice, so unfolding would type 2^12 bodies.
    text = "def g0(x: B) := x;\n" + "".join(
        f"def g{i}(x: B) := case x of {{ T => g{i - 1}(x), default => g{i - 1}(F) }};\n"
        for i in range(1, 13)
    )
    typed = {}
    assert _type_def(text, "g12", typed) == Ok(Named("B"))
    assert sorted(typed) == sorted((f"g{i}", (Named("B"),)) for i in range(12))


def test_callee_is_typed_in_its_own_scope():
    # `g` reads an `x` that it does not bind; the caller's `x` is not in scope.
    assert _type_def("def g(y) := x;\ndef f(x: B) := g(x);\n", "f") == Ill("unbound variable x")


def test_recursive_definition_reports_an_error_before_its_recursive_call():
    # The clauses are typed in order, so the clash of the first two is found
    # before the third reaches `f` again.
    text = "def f(x: B) := case x of { T => K(T), F => T, default => f(x) };\n"
    assert _type_def(text, "f") == Ill("clause result type B differs from C")
    text = "def f(x: B) := case x of { T => f(x), F => K(T), default => T };\n"
    assert isinstance(_type_def(text, "f"), Recursive)


# --- preservation under normalization ---


def _ctx_multiset(ctx):
    return Counter(ctx)


def test_nnf_preserves_typing():
    rng = random.Random(21)
    checked = 0
    while checked < 150:
        p = random_pattern(rng, BOOL_LIST, Named("List"), rng.randint(0, 5))
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
        p1 = random_pattern(rng, BOOL_LIST, Named("B"), rng.randint(0, 3))
        p2 = random_pattern(rng, BOOL_LIST, Named("B"), rng.randint(0, 3))
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
