"""Clause matrices, specialization, default matrices and decision trees."""

import pytest

from helpers import c, cn, v, var

from patalg.compiler import (
    Arm,
    ClauseMatrix,
    CompileError,
    FreshSupply,
    Leaf,
    MatrixRow,
    Switch,
    compile as compile_matrix,
    compile_case,
    default_matrix,
    embed_case,
    eval_tree,
    head_ctors,
    default_rows,
    specialize,
    specialize_rows,
    step_matrix,
    tree_invariants_ok,
)
from patalg.normalize import Ndnf, NegConj, PosConj, UnsatConj, ndnf_wildcard, to_ndnf
from patalg.semantics import (
    Clause,
    ECase,
    ECtor,
    EVar,
    Evaluated,
    value_to_expr,
)
from patalg.syntax import Absurd, And, Mapping, Neg, Or, Wild


SA, SU, FR = cn("Sa"), cn("Su"), cn("Fr")
E1 = ECtor(cn("E1", 1), (EVar("y"),))
E2 = ECtor(cn("E2", 1), (EVar("y"),))
D = ECtor(cn("D0"), ())


def weekend_case() -> ECase:
    return ECase(
        EVar("x"),
        (
            Clause(And(var("y"), Or(c("Sa"), c("Su"))), E1),
            Clause(And(var("y"), Neg(Or(c("Fr"), Or(c("Sa"), c("Su"))))), E2),
        ),
        D,
    )


def weekend_matrix() -> ClauseMatrix:
    return embed_case(weekend_case())


def test_embed_weekend_case():
    m = weekend_matrix()
    assert m.scrutinees == (EVar("x"),)
    assert m.rows[0].cells[0] == Ndnf(
        (
            PosConj(frozenset({"y"}), SA, ()),
            PosConj(frozenset({"y"}), SU, ()),
        )
    )
    assert m.rows[1].cells[0] == Ndnf(
        (NegConj(frozenset({"y"}), frozenset({FR, SA, SU})),)
    )
    assert m.default_rhs == D


def test_embed_default_only_case():
    m = embed_case(ECase(EVar("x"), (), D))
    assert m.rows == ()


def test_embed_absurd_clause():
    m = embed_case(ECase(EVar("x"), (Clause(Absurd(), E1),), D))
    assert m.rows[0].cells[0] == Ndnf((UnsatConj(frozenset()),))


def test_head_ctors_weekend_column():
    m = weekend_matrix()
    assert head_ctors([row.cells[0] for row in m.rows]) == {FR, SA, SU}


def test_head_ctors_wildcards_empty():
    assert head_ctors([ndnf_wildcard(), ndnf_wildcard()]) == frozenset()


def test_head_ctors_mixed():
    col = [
        Ndnf((PosConj(frozenset(), cn("Cons", 2), (ndnf_wildcard().conjuncts[0],) * 2),)),
        Ndnf((NegConj(frozenset(), frozenset({cn("Nil")})),)),
    ]
    assert head_ctors(col) == {cn("Cons", 2), cn("Nil")}


# --- specialization and default: worked examples ---


def test_specialize_weekend_on_sa():
    m = weekend_matrix()
    s = specialize(0, (SA, ()), m)
    assert s.scrutinees == ()
    assert s.rows == (MatrixRow((), ECtor(cn("E1", 1), (EVar("x"),))),)
    assert s.default_rhs == D


def test_default_matrix_weekend():
    m = weekend_matrix()
    d = default_matrix(0, {FR, SA, SU}, m)
    assert d.scrutinees == ()
    assert d.rows == (MatrixRow((), ECtor(cn("E2", 1), (EVar("x"),))),)
    assert d.default_rhs == D


def test_specialize_discards_banned_row():
    # Rows ban Cons and Nil respectively; assuming the scrutinee matched
    # Cons(x, y), only the second row survives, with wildcard columns for
    # the two new subscrutinees.
    cons, nil = cn("Cons", 2), cn("Nil")
    other = to_ndnf(var("r"))
    m = ClauseMatrix(
        (EVar("v1"), EVar("v2")),
        (
            MatrixRow((Ndnf((NegConj(frozenset(), frozenset({cons})),)), other), E1),
            MatrixRow((Ndnf((NegConj(frozenset(), frozenset({nil})),)), other), E2),
        ),
        D,
    )
    s = specialize(0, (cons, ("x", "y")), m)
    assert s.scrutinees == (EVar("x"), EVar("y"), EVar("v2"))
    assert s.rows == (
        MatrixRow((ndnf_wildcard(), ndnf_wildcard(), other), E2),
    )
    assert s.default_rhs == D


def test_default_matrix_discards_positive_row():
    red, green = cn("Red"), cn("Green")
    other = to_ndnf(var("r"))
    m = ClauseMatrix(
        (EVar("v1"), EVar("v2")),
        (
            MatrixRow((Ndnf((PosConj(frozenset(), red, ()),)), other), E1),
            MatrixRow((Ndnf((NegConj(frozenset(), frozenset({green})),)), other), E2),
        ),
        D,
    )
    d = default_matrix(0, {red, green}, m)
    assert d.scrutinees == (EVar("v2"),)
    assert d.rows == (MatrixRow((other,), E2),)
    assert d.default_rhs == D


def test_specialize_default_only_matrix():
    m = ClauseMatrix((EVar("s"),), (), D)
    s = specialize(0, (cn("Cons", 2), ("a", "b")), m)
    assert s.rows == ()
    assert s.scrutinees == (EVar("a"), EVar("b"))
    d = default_matrix(0, frozenset(), m)
    assert d.rows == () and d.scrutinees == ()


def test_core_works_on_any_column_and_reports_bindings():
    # The same rows, specialized and defaulted on column 1 instead of 0;
    # the payload rides along untouched and the consumed conjunct's
    # variables are reported, not substituted.
    cons = cn("Cons", 2)
    first = to_ndnf(var("r"))
    rows = (
        MatrixRow((first, to_ndnf(And(var("y"), c("Cons", Wild(), Wild())))), E1),
        MatrixRow((first, to_ndnf(And(var("y"), Neg(c("Nil"))))), E2),
    )
    wild = ndnf_wildcard()
    assert specialize_rows(rows, 1, cons) == [
        (MatrixRow((wild, wild, first), E1), frozenset({"y"})),
        (MatrixRow((wild, wild, first), E2), frozenset({"y"})),
    ]
    assert default_rows(rows, 1) == [(MatrixRow((first,), E2), frozenset({"y"}))]


# --- compilation ---


def test_compile_weekend_golden():
    tree = compile_matrix(weekend_matrix())
    e1x = ECtor(cn("E1", 1), (EVar("x"),))
    e2x = ECtor(cn("E2", 1), (EVar("x"),))
    assert tree == Switch(
        EVar("x"),
        (
            Arm(FR, (), Leaf(D)),
            Arm(SA, (), Leaf(e1x)),
            Arm(SU, (), Leaf(e1x)),
        ),
        Leaf(e2x),
    )


def test_compile_default_only():
    assert compile_matrix(ClauseMatrix((EVar("s"),), (), D)) == Leaf(D)


def test_compile_single_wildcard_row():
    m = ClauseMatrix(
        (EVar("a"), EVar("b")),
        (MatrixRow((to_ndnf(var("x")), ndnf_wildcard()), ECtor(cn("W", 1), (EVar("x"),))),),
        D,
    )
    assert compile_matrix(m) == Leaf(ECtor(cn("W", 1), (EVar("a"),)))


def test_compile_rejects_non_wellformed():
    m = ClauseMatrix(
        (EVar("s"),),
        (
            MatrixRow((to_ndnf(c("Red")),), E1),
            MatrixRow((to_ndnf(Wild()),), E2),
        ),
        D,
    )
    with pytest.raises(CompileError):
        compile_matrix(m)


def test_compile_case_checks_wellformedness_once(monkeypatch):
    from patalg import wellformed

    golden = compile_matrix(weekend_matrix())

    def no_recheck(*args):
        raise AssertionError("the embedded matrix was checked again")

    monkeypatch.setattr(wellformed, "wf_matrix", no_recheck)
    assert compile_case(weekend_case()) == golden


def test_compile_case_rejects_with_report():
    case = ECase(EVar("s"), (Clause(c("Red"), E1), Clause(Wild(), E2)), D)
    with pytest.raises(CompileError) as err:
        compile_case(case)
    assert [v.rule for v in err.value.report.violations] == ["overlap"]


def test_compile_nested_patterns_switches_subscrutinees():
    case = ECase(
        EVar("s"),
        (
            Clause(c("Cons", c("True"), var("t")), ECtor(cn("A", 1), (EVar("t"),))),
            Clause(c("Cons", c("False"), Wild()), ECtor(cn("B0"), ())),
            Clause(c("Nil"), ECtor(cn("C0"), ())),
        ),
        D,
    )
    tree = compile_matrix(embed_case(case))
    assert tree_invariants_ok(tree)
    env = (Mapping("s", v("Cons", v("True"), v("Nil"))),)
    assert eval_tree(tree, env) == Evaluated(v("A", v("Nil")))
    env = (Mapping("s", v("Cons", v("False"), v("Nil"))),)
    assert eval_tree(tree, env) == Evaluated(v("B0"))
    env = (Mapping("s", v("Mystery")),)
    assert eval_tree(tree, env) == Evaluated(v("D0"))


def test_fresh_binders_use_reserved_prefix():
    supply = FreshSupply()
    names = supply.fresh_names(3)
    assert names == ("$k0", "$k1", "$k2")
    assert supply.fresh_names(1) == ("$k3",)


# --- decision tree evaluation ---


def test_eval_tree_weekend():
    tree = compile_matrix(weekend_matrix())
    out = eval_tree(tree, (Mapping("x", v("Sa")),))
    assert out == Evaluated(v("E1", v("Sa")))
    out = eval_tree(tree, (Mapping("x", v("Mo")),))
    assert out == Evaluated(v("E2", v("Mo")))
    out = eval_tree(tree, (Mapping("x", v("Fr")),))
    assert out == Evaluated(v("D0"))


def test_eval_tree_leaf_ignores_env_shape():
    assert eval_tree(Leaf(ECtor(cn("True"), ())), ()) == Evaluated(v("True"))


# --- the multi-column step relation ---


def test_step_matrix_weekend_on_sa():
    src = weekend_case()
    m = embed_case(ECase(value_to_expr(v("Sa")), src.clauses, src.default_rhs))
    r = step_matrix(m)
    assert r.successors == (ECtor(cn("E1", 1), (value_to_expr(v("Sa")),)),)


def test_step_matrix_default_when_all_rows_fail():
    src = weekend_case()
    m = embed_case(ECase(value_to_expr(v("Fr")), src.clauses, src.default_rhs))
    assert step_matrix(m).successors == (D,)


def test_step_matrix_duplicate_rows_nondeterministic():
    row = MatrixRow((to_ndnf(c("Red")),), ECtor(cn("A0"), ()))
    row2 = MatrixRow((to_ndnf(Wild()),), ECtor(cn("B0"), ()))
    m = ClauseMatrix((value_to_expr(v("Red")),), (row, row2), D)
    assert len(step_matrix(m).successors) == 2
