"""Matching, free variables and substitution equivalence."""

from helpers import BOOL_LIST, c, v, var

from patalg.oracle import enumerate_values
from patalg.syntax import (
    Absurd,
    And,
    Ctor,
    CtorName,
    Mapping,
    Neg,
    Or,
    Wild,
    fv_even,
    fv_odd,
    Var,
    is_proper,
    map_vars,
    match_neg,
    match_pos,
    pattern_equiv_bounded,
    subst_equiv,
)
from patalg.typecheck import Named


def substs(ss):
    """Comparable view of a substitution set."""
    return {frozenset(s) for s in ss}


def m(name, value):
    return Mapping(name, value)


# --- free variables ---


def test_fv_of_negated_variable():
    assert fv_even(Neg(var("x"))) == set()
    assert fv_odd(Neg(var("x"))) == {"x"}


def test_fv_base_cases():
    assert fv_even(Wild()) == set()
    assert fv_odd(Absurd()) == set()


def test_fv_conjunction_mixed():
    p = And(var("x"), Neg(var("y")))
    assert fv_even(p) == {"x"}
    assert fv_odd(p) == {"y"}


def test_double_negation_reactivates():
    p = Neg(Neg(var("x")))
    assert fv_even(p) == {"x"}
    assert fv_odd(p) == set()


# --- matching ---


def test_match_cons_binds_components():
    p = c("Cons", var("x"), var("xs"))
    value = v("Cons", v("2"), v("Cons", v("3"), v("Nil")))
    assert substs(match_pos(p, value)) == {
        frozenset({m("x", v("2")), m("xs", v("Cons", v("3"), v("Nil")))})
    }
    assert match_neg(p, value) == ()


def test_match_or_left_branch():
    p = Or(c("True"), c("False"))
    assert substs(match_pos(p, v("True"))) == {frozenset()}


def test_nonmatch_different_constructor():
    assert substs(match_neg(c("True"), v("False"))) == {frozenset()}
    assert match_pos(c("True"), v("False")) == ()


def test_nonmatch_of_negated_variable_binds():
    assert substs(match_neg(Neg(var("x")), v("True"))) == {
        frozenset({m("x", v("True"))})
    }


def test_double_negation_matches_and_binds():
    assert substs(match_pos(Neg(Neg(var("x"))), v("True"))) == {
        frozenset({m("x", v("True"))})
    }


def test_wildcard_matches_and_absurd_fails_everything():
    for value in (v("True"), v("Cons", v("2"), v("Nil"))):
        assert match_pos(Wild(), value) == ((),)
        assert match_neg(Wild(), value) == ()
        assert match_neg(Absurd(), value) == ((),)
        assert match_pos(Absurd(), value) == ()


def test_nonlinear_pattern_improper_substitution():
    p = c("Cons", var("x"), var("x"))
    value = v("Cons", v("2"), v("Nil"))
    (s,) = match_pos(p, value)
    assert substs([s]) == {frozenset({m("x", v("2")), m("x", v("Nil"))})}
    assert not is_proper(s)


def test_ctor_identity_includes_arity():
    cons1 = Ctor(CtorName("Cons", 1), (Wild(),))
    value = v("Cons", v("2"), v("Nil"))  # Cons/2
    assert match_pos(cons1, value) == ()
    assert substs(match_neg(cons1, value)) == {frozenset()}


# --- substitution equivalence ---


def test_subst_equiv_ignores_order():
    a = (m("x", v("2")), m("y", v("3")))
    b = (m("y", v("3")), m("x", v("2")))
    assert subst_equiv(a, b)


def test_subst_equiv_different_mapping():
    assert not subst_equiv((m("x", v("2")),), (m("x", v("3")),))


def test_subst_equiv_ignores_multiplicity():
    assert subst_equiv((m("x", v("2")), m("x", v("2"))), (m("x", v("2")),))


# --- bounded pattern equivalence ---


def _universe():
    return enumerate_values(BOOL_LIST, Named("B"), 1)


def test_double_negation_equivalence():
    p = And(var("x"), c("True"))
    assert pattern_equiv_bounded(Neg(Neg(p)), p, _universe())


def test_absurd_vs_negated_variable():
    # Both match nothing, but they fail with different bindings.
    assert not pattern_equiv_bounded(Absurd(), Neg(var("x")), [v("True")])


def test_equivalence_reflexive():
    p = Or(c("True"), Neg(var("x")))
    assert pattern_equiv_bounded(p, p, _universe())


def test_map_vars_reaches_every_variable():
    p = Or(And(var("x"), Neg(c("Cons", var("y"), Wild()))), Absurd())
    renamed = map_vars(p, lambda x: Var(x.name + "1"))
    assert renamed == Or(And(var("x1"), Neg(c("Cons", var("y1"), Wild()))), Absurd())
    assert map_vars(p, lambda x: Wild()) == Or(
        And(Wild(), Neg(c("Cons", Wild(), Wild()))), Absurd()
    )
