"""Clause matrices, specialization, default matrices and decision trees."""

import pytest

from helpers import c, cn, v, var

from patalg.compiler import (
    Arm,
    ClauseMatrix,
    CompileError,
    Leaf,
    MatrixRow,
    Switch,
    compile_case,
    default_matrix,
    embed_case,
    eval_tree,
    head_ctors,
    default_rows,
    specialize,
    specialize_each,
)
from patalg.normalize import Ndnf, NegConj, PosConj, ndnf_wildcard, to_ndnf
from patalg.oracle import Agree, validate_tree
from patalg.semantics import (
    Clause,
    ECase,
    ECtor,
    EVar,
    Evaluated,
)
from patalg.syntax import Absurd, And, Neg, Or, Wild


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
    assert m.rows[0].cells[0] == Ndnf(())


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
    assert specialize_each(rows, 1, (cons,))[cons] == [
        (MatrixRow((wild, wild, first), E1), frozenset({"y"})),
        (MatrixRow((wild, wild, first), E2), frozenset({"y"})),
    ]
    assert default_rows(rows, 1) == [(MatrixRow((first,), E2), frozenset({"y"}))]


# --- compilation ---


def test_compile_weekend_golden():
    tree = compile_case(weekend_case())
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
    assert compile_case(ECase(EVar("s"), (), D)) == Leaf(D)


def test_compile_case_checks_wellformedness_once(monkeypatch):
    from patalg import wellformed

    golden = compile_case(weekend_case())
    calls = []
    real = wellformed.wf_expr

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wellformed, "wf_expr", counted)
    assert compile_case(weekend_case()) == golden
    assert len(calls) == 1


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
    tree = compile_case(case)
    assert isinstance(validate_tree(case, tree), Agree)
    env = {"s": v("Cons", v("True"), v("Nil"))}
    assert eval_tree(tree, env) == Evaluated(v("A", v("Nil")))
    env = {"s": v("Cons", v("False"), v("Nil"))}
    assert eval_tree(tree, env) == Evaluated(v("B0"))
    env = {"s": v("Mystery")}
    assert eval_tree(tree, env) == Evaluated(v("D0"))


def test_binders_are_named_by_occurrence():
    # Root scrutinee i is `$i` and argument j of the scrutinee `$p` is bound
    # to `$p_j`; the parser rejects `$`, so no program name collides.
    case = ECase(EVar("s"), (Clause(c("Cons", Wild(), c("Cons", var("t"), Wild())), EVar("t")),), D)
    tree = compile_case(case)
    assert tree.arms[0].binders == ("$0_0", "$0_1")
    inner = tree.arms[0].subtree
    assert inner.scrutinee is EVar("$0_1")
    assert inner.arms[0].binders == ("$0_1_0", "$0_1_1")
    assert inner.arms[0].subtree is Leaf(EVar("$0_1_0"))


def test_variable_bound_at_two_occurrences():
    # `x` is `$0_0` on values whose second argument is A and `$0_1` on the
    # others: the clause compiles to one leaf per binding, told apart by a
    # test of the second argument.
    case = ECase(
        EVar("s"),
        (Clause(Or(c("P", var("x"), c("A")), c("P", Wild(), And(var("x"), Neg(c("A"))))), EVar("x")),),
        D,
    )
    tree = compile_case(case)
    assert isinstance(validate_tree(case, tree), Agree)
    for second, want in ((v("A"), v("B")), (v("C"), v("C"))):
        env = {"s": v("P", v("B"), second)}
        assert eval_tree(tree, env) == Evaluated(want)
    inner = tree.arms[0].subtree
    assert inner.scrutinee is EVar("$0_1")
    assert inner.arms == (Arm(cn("A"), (), Leaf(EVar("$0_0"))),)
    assert inner.default_arm is Leaf(EVar("$0_1"))


# --- decision tree evaluation ---


def test_eval_tree_weekend():
    tree = compile_case(weekend_case())
    out = eval_tree(tree, {"x": v("Sa")})
    assert out == Evaluated(v("E1", v("Sa")))
    out = eval_tree(tree, {"x": v("Mo")})
    assert out == Evaluated(v("E2", v("Mo")))
    out = eval_tree(tree, {"x": v("Fr")})
    assert out == Evaluated(v("D0"))


def test_eval_tree_leaf_ignores_env_shape():
    assert eval_tree(Leaf(ECtor(cn("True"), ())), {}) == Evaluated(v("True"))
