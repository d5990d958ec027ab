"""Small-step evaluation of case expressions with default clauses."""

import pytest

from helpers import c, cn, v, var

from patalg.semantics import (
    Call,
    Clause,
    Diverged,
    ECase,
    ECtor,
    EVar,
    Evaluated,
    Nondeterministic,
    Stepped,
    Stuck,
    apply_subst,
    eval as eval_expr,
    expr_equiv_bounded,
    step,
    value_to_expr,
)
from patalg.syntax import Mapping, Neg, Or, Wild


TRUE = ECtor(cn("True"), ())
FALSE = ECtor(cn("False"), ())


def _case(scrut, clauses, default=FALSE):
    return ECase(scrut, tuple(clauses), default)


def test_step_matching_clause():
    e = _case(
        ECtor(cn("Red"), ()),
        [Clause(c("Red"), TRUE), Clause(Neg(c("Red")), FALSE)],
        FALSE,
    )
    r = step(e)
    assert isinstance(r, Stepped)
    assert r.successors == (TRUE,)


def test_step_default_when_no_clause_matches():
    e = _case(ECtor(cn("Green"), ()), [Clause(c("Red"), TRUE)], FALSE)
    r = step(e)
    assert r.successors == (FALSE,)


def test_overlapping_clauses_step_nondeterministically():
    e = _case(
        ECtor(cn("Red"), ()),
        [Clause(c("Red"), TRUE), Clause(Wild(), FALSE)],
        FALSE,
    )
    r = step(e)
    assert len(r.successors) == 2


def test_eval_value_is_value():
    assert eval_expr(TRUE, 10) == Evaluated(v("True"))


def test_eval_weekend_branch():
    e = _case(
        value_to_expr(v("Sa")),
        [
            Clause(Or(c("Sa"), c("Su")), TRUE),
            Clause(Neg(Or(c("Sa"), c("Su"))), FALSE),
        ],
        FALSE,
    )
    assert eval_expr(e) == Evaluated(v("True"))


def test_eval_overlapping_clauses_nondeterministic():
    e = _case(
        ECtor(cn("Red"), ()),
        [Clause(c("Red"), TRUE), Clause(Wild(), FALSE)],
        FALSE,
    )
    assert eval_expr(e) == Nondeterministic()


def test_free_variable_scrutinee_gets_stuck():
    e = _case(EVar("unbound"), [Clause(c("Red"), TRUE)], FALSE)
    assert step(e) == Stuck()
    assert eval_expr(e) == Stuck()


def test_congruence_descends_leftmost_argument():
    inner = _case(ECtor(cn("Red"), ()), [Clause(c("Red"), TRUE)], FALSE)
    e = ECtor(cn("Pair", 2), (inner, EVar("x")))
    r = step(e)
    assert r.successors == (ECtor(cn("Pair", 2), (TRUE, EVar("x"))),)


# --- expression equivalence ---


def test_expr_equiv_reflexive():
    e = _case(ECtor(cn("Red"), ()), [Clause(c("Red"), TRUE)], FALSE)
    assert expr_equiv_bounded(e, e)


def test_clause_permutation_preserves_meaning():
    clauses = [
        Clause(c("Red"), TRUE),
        Clause(Neg(c("Red")), FALSE),
    ]
    a = _case(ECtor(cn("Green"), ()), clauses, FALSE)
    b = _case(ECtor(cn("Green"), ()), list(reversed(clauses)), FALSE)
    assert expr_equiv_bounded(a, b)


def test_equivalent_pattern_substitution_preserves_meaning():
    for scrut in (v("Red"), v("Green")):
        a = _case(value_to_expr(scrut), [Clause(c("Red"), TRUE)], FALSE)
        b = _case(
            value_to_expr(scrut), [Clause(Neg(Neg(c("Red"))), TRUE)], FALSE
        )
        assert expr_equiv_bounded(a, b)


# --- substitution ---


def test_apply_subst_variable():
    assert apply_subst(EVar("x"), (Mapping("x", v("True")),)) == TRUE


def test_apply_subst_under_constructor():
    e = ECtor(cn("Pair", 2), (EVar("x"), EVar("y")))
    out = apply_subst(e, (Mapping("x", v("A")), Mapping("y", v("B"))))
    assert out == ECtor(cn("Pair", 2), (value_to_expr(v("A")), value_to_expr(v("B"))))


def test_apply_subst_rejects_improper():
    s = (Mapping("x", v("A")), Mapping("x", v("B")))
    with pytest.raises(ValueError):
        apply_subst(EVar("x"), s)


def test_apply_subst_respects_shadowing():
    # The inner clause binds x, so its right-hand side keeps its own x.
    inner = _case(EVar("s"), [Clause(var("x"), EVar("x"))], EVar("x"))
    out = apply_subst(inner, (Mapping("x", v("A")),))
    assert out.clauses[0].rhs == EVar("x")
    # Unshadowed positions are substituted: the default is one.
    assert out.default_rhs == value_to_expr(v("A"))


def test_shadowing_two_level_nest():
    # Oracle check: evaluating after substitution equals substituting the
    # value for the free occurrences only.
    outer = _case(
        value_to_expr(v("Red")),
        [Clause(var("x"), EVar("x"))],  # binds x to Red
        EVar("x"),
    )
    out = apply_subst(outer, (Mapping("x", v("Blue")),))
    assert eval_expr(out) == Evaluated(v("Red"))


def test_fuel_exhaustion_reports_divergence():
    e = _case(ECtor(cn("Red"), ()), [Clause(c("Red"), TRUE)], FALSE)
    assert eval_expr(e, 0) == Diverged()


def test_substitute_variable_avoids_capture():
    from patalg.semantics import EVar, substitute

    # Substituting y -> x under a clause that binds x must rename the
    # binder, not capture the substituted occurrence.
    inner = _case(
        ECtor(cn("Su"), ()),
        [Clause(var("x"), ECtor(cn("Pair2", 2), (EVar("x"), EVar("y"))))],
        FALSE,
    )
    out = substitute(inner, {"y": EVar("x")})
    (clause,) = out.clauses
    bound = clause.pattern.name
    assert bound != "x"
    assert clause.rhs == ECtor(cn("Pair2", 2), (EVar(bound), EVar("x")))
    assert eval_expr(substitute(out, {"x": value_to_expr(v("Sa"))})) == Evaluated(
        v("Pair2", v("Su"), v("Sa"))
    )


def test_call_unfolds_through_definition_table():
    # not(x) := case x of { True => False, default => True }
    body = _case(EVar("x"), [Clause(c("True"), FALSE)], TRUE)
    defs = {"not": (("x",), body)}
    call = ECtor(cn("Wrap", 1), (Call("not", (Call("not", (TRUE,)),)),))
    assert eval_expr(call, defs=defs) == Evaluated(v("Wrap", v("True")))
    # The argument is evaluated first (call by value).
    unfolded = _case(TRUE, [Clause(c("True"), FALSE)], TRUE)
    assert step(call, defs) == Stepped((ECtor(cn("Wrap", 1), (Call("not", (unfolded,)),)),))


def test_call_without_matching_definition_is_stuck():
    assert eval_expr(Call("not", (TRUE,))) == Stuck()
    assert eval_expr(Call("not", (TRUE,)), defs={"not": (("x", "y"), TRUE)}) == Stuck()
    assert eval_expr(Call("nope", (TRUE,)), defs={"not": (("x",), TRUE)}) == Stuck()
