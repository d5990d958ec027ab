"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s` to see them inline).

Criterion 4 is split: 4a holds (non-exhaustive with a sound witness, and
the two-row color matrix is exhaustive); 4b states the required witness
set as {Mo, Tu, We, Th}, but every value in that set is matched by the
second matrix row, so no sound checker can report one.  The only value
matched by no row is Fr, which the checker reports and 4a verifies.  4b is
therefore expected to fail and is marked strict-xfail; see the notes in
the repository README.
"""

import pytest

from helpers import BOOL_LIST, COLOR, DAYS, c, cn, pattern_matrix, v, var

from patalg.compiler import (
    Arm,
    ClauseMatrix,
    Leaf,
    MatrixRow,
    Switch,
    compile as compile_matrix,
    default_matrix,
    embed_case,
    specialize,
)
from patalg.exhaustiveness import (
    exhaustive,
    non_exhaustiveness_witness,
)
from patalg.normalize import Ndnf, NegConj, dnf, nnf, to_ndnf
from patalg.oracle import enumerate_values
from patalg.pretty import format_dnf, format_ndnf, format_pattern
from patalg.semantics import Clause, ECase, ECtor, EVar
from patalg.syntax import (
    And,
    Mapping,
    Neg,
    Or,
    Wild,
    is_proper,
    match_neg,
    match_pos,
)
from patalg.suites import (
    prop_boolean_laws,
    prop_clause_permutation,
    prop_covering_and_properness,
    prop_ctor_laws_linear,
    prop_ctor_laws_one,
    prop_default_clause_not_wildcard,
    prop_deterministic_matching,
    prop_differential_compile,
    prop_linear_laws,
    prop_matching_sound_complete,
    prop_overlap_sound,
    prop_wellformed_deterministic_eval,
)
from patalg.typecheck import Named
from patalg.wellformed import linear_pos


def report(number, label, ok=True):
    marker = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {marker} - {label}")
    assert ok


def _substs(ss):
    return {frozenset(s) for s in ss}


def _m(name, value):
    return Mapping(name, value)


def test_criterion_1_matching_examples():
    """Positive and negative matching reproduce the worked examples."""
    # Cons(x, xs) against the two-element list.
    value = v("Cons", v("2"), v("Cons", v("3"), v("Nil")))
    got = match_pos(c("Cons", var("x"), var("xs")), value)
    assert _substs(got) == {
        frozenset({_m("x", v("2")), _m("xs", v("Cons", v("3"), v("Nil")))})
    }
    # True | False matches True with the empty substitution.
    assert _substs(match_pos(Or(c("True"), c("False")), v("True"))) == {frozenset()}
    # True fails False with the empty substitution.
    assert _substs(match_neg(c("True"), v("False"))) == {frozenset()}
    # !x fails True while binding x.
    assert _substs(match_neg(Neg(var("x")), v("True"))) == {
        frozenset({_m("x", v("True"))})
    }
    # !!x matches True, reactivating the binding.
    assert _substs(match_pos(Neg(Neg(var("x"))), v("True"))) == {
        frozenset({_m("x", v("True"))})
    }
    # Nonlinear Cons(x, x) produces the improper substitution.
    (improper,) = match_pos(c("Cons", var("x"), var("x")), v("Cons", v("2"), v("Nil")))
    assert _substs([improper]) == {frozenset({_m("x", v("2")), _m("x", v("Nil"))})}
    assert not is_proper(improper)
    assert not linear_pos(c("Cons", var("x"), var("x")))
    # (x & True) | False binds inconsistently across values.
    p = Or(And(var("x"), c("True")), c("False"))
    assert _substs(match_pos(p, v("True"))) == {frozenset({_m("x", v("True"))})}
    assert _substs(match_pos(p, v("False"))) == {frozenset()}
    assert not linear_pos(p)
    report(1, "matching examples reproduced exactly")


def test_criterion_2_normalization_goldens():
    """The three normalization stages print the worked examples exactly."""
    pos = And(var("x"), Or(c("Sa"), c("Su")))
    neg = And(var("x"), Neg(Or(c("Sa"), c("Su"))))
    assert format_pattern(nnf(pos)) == "x & (Sa | Su)"
    assert format_pattern(nnf(neg)) == "x & (!Sa & !Su)"
    assert format_dnf(dnf(nnf(pos))) == "||{ x & Sa, x & Su }"
    assert format_dnf(dnf(nnf(neg))) == "||{ x & (!Sa & !Su) }"
    assert format_ndnf(to_ndnf(pos)) == "||{ {x} & Sa, {x} & Su }"
    assert format_ndnf(to_ndnf(neg)) == "||{ {x} & !{Sa, Su} }"
    report(2, "normalization goldens match character for character")


WEEKEND_E1 = ECtor(cn("E1", 1), (EVar("y"),))
WEEKEND_E2 = ECtor(cn("E2", 1), (EVar("y"),))
WEEKEND_D = ECtor(cn("D0"), ())


def _weekend_matrix():
    case = ECase(
        EVar("x"),
        (
            Clause(And(var("y"), Or(c("Sa"), c("Su"))), WEEKEND_E1),
            Clause(
                And(var("y"), Neg(Or(c("Fr"), Or(c("Sa"), c("Su"))))), WEEKEND_E2
            ),
        ),
        WEEKEND_D,
    )
    return embed_case(case)


def test_criterion_3_compilation_golden():
    """The weekend program compiles to the exact switch, and the
    specialization and default subproblems match the worked matrices."""
    m = _weekend_matrix()
    e1x = ECtor(cn("E1", 1), (EVar("x"),))
    e2x = ECtor(cn("E2", 1), (EVar("x"),))
    tree = compile_matrix(m)
    assert tree == Switch(
        EVar("x"),
        (
            Arm(cn("Fr"), (), Leaf(WEEKEND_D)),
            Arm(cn("Sa"), (), Leaf(e1x)),
            Arm(cn("Su"), (), Leaf(e1x)),
        ),
        Leaf(e2x),
    )
    # Specialization at Sa keeps one zero-column row with the substituted
    # right-hand side, plus the unchanged default clause.
    s = specialize(0, (cn("Sa"), ()), m)
    assert s.scrutinees == ()
    assert s.rows == (MatrixRow((), e1x),)
    assert s.default_rhs == WEEKEND_D
    # The default matrix keeps only the negative row.
    d = default_matrix(0, frozenset({cn("Fr"), cn("Sa"), cn("Su")}), m)
    assert d.rows == (MatrixRow((), e2x),)
    assert d.default_rhs == WEEKEND_D
    # The two-row examples for specialization and default construction.
    cons, nil = cn("Cons", 2), cn("Nil")
    other1, other2 = to_ndnf(var("r")), to_ndnf(var("q"))
    m2 = ClauseMatrix(
        (EVar("v1"), EVar("v2")),
        (
            MatrixRow((Ndnf((NegConj(frozenset(), frozenset({cons})),)), other1), WEEKEND_E1),
            MatrixRow((Ndnf((NegConj(frozenset(), frozenset({nil})),)), other2), WEEKEND_E2),
        ),
        WEEKEND_D,
    )
    s2 = specialize(0, (cons, ("x", "y")), m2)
    wild = Ndnf((NegConj(frozenset(), frozenset()),))
    assert s2.scrutinees == (EVar("x"), EVar("y"), EVar("v2"))
    assert s2.rows == (MatrixRow((wild, wild, other2), WEEKEND_E2),)
    red, green = cn("Red"), cn("Green")
    m3 = ClauseMatrix(
        (EVar("v1"), EVar("v2")),
        (
            MatrixRow((to_ndnf(c("Red")), other1), WEEKEND_E1),
            MatrixRow((Ndnf((NegConj(frozenset(), frozenset({green})),)), other2), WEEKEND_E2),
        ),
        WEEKEND_D,
    )
    d3 = default_matrix(0, frozenset({red, green}), m3)
    assert d3.scrutinees == (EVar("v2"),)
    assert d3.rows == (MatrixRow((other2,), WEEKEND_E2),)
    report(3, "compilation golden and subproblem matrices match")


def _weekend_pattern_matrix():
    return pattern_matrix(
        (
            (to_ndnf(And(var("y"), Or(c("Sa"), c("Su")))),),
            (to_ndnf(And(var("y"), Neg(Or(c("Fr"), Or(c("Sa"), c("Su")))))),),
        )
    )


def test_criterion_4a_exhaustiveness_golden():
    """Non-exhaustiveness of the weekend clauses with a sound witness, and
    exhaustiveness of the {Red; !Red} matrix, both oracle-confirmed."""
    P = _weekend_pattern_matrix()
    assert not exhaustive(P, DAYS)
    witness = non_exhaustiveness_witness(P, DAYS)
    assert witness is not None
    # Oracle: the witness matches no row; Fr is in fact the only such day.
    from patalg.normalize import embed_ndnf

    uncovered = [
        day
        for day in enumerate_values(DAYS, Named("Day"), 1)
        if not any(match_pos(embed_ndnf(row.cells[0]), day) for row in P)
    ]
    assert list(witness) == [v("Fr")] and uncovered == [v("Fr")]
    is_red = pattern_matrix(((to_ndnf(c("Red")),), (to_ndnf(Neg(c("Red"))),)))
    assert exhaustive(is_red, COLOR)
    for color in enumerate_values(COLOR, Named("Color"), 1):
        assert any(match_pos(embed_ndnf(row.cells[0]), color) for row in is_red)
    report("4a", "exhaustiveness goldens with a sound witness")


@pytest.mark.xfail(
    strict=True,
    reason="the stated witness set {Mo,Tu,We,Th} contains only values matched "
    "by the second matrix row; the unique sound witness is Fr",
)
def test_criterion_4b_stated_witness_set():
    P = _weekend_pattern_matrix()
    witness = non_exhaustiveness_witness(P, DAYS)
    ok = witness is not None and witness[0] in {v("Mo"), v("Tu"), v("We"), v("Th")}
    report("4b", "witness drawn from {Mo, Tu, We, Th} as stated", ok)


def _assert_clean(results, number, label):
    bad = [r for r in results if not r.ok]
    for r in bad:
        for ce in r.counterexamples:
            print(f"    {r.name}: {ce}")
    report(number, label, not bad)


def test_criterion_5_pattern_algebra_suite():
    results = [
        prop_matching_sound_complete(1, 3, 200),
        prop_boolean_laws(2, 3, 200),
        prop_ctor_laws_one(3, 3, 200),
        prop_linear_laws(4, 3, 1200),  # two hundred per law
        prop_ctor_laws_linear(5, 3, 200),
    ]
    assert all(r.cases >= 200 for r in results)
    _assert_clean(results, 5, "pattern algebra laws, 200+ seeded instances each")


def test_criterion_6_linearity_determinism_suite():
    results = [
        prop_covering_and_properness(6, 3, 200),
        prop_deterministic_matching(7, 3, 200),
    ]
    assert all(r.cases >= 200 for r in results)
    _assert_clean(results, 6, "covering, properness and deterministic matching")


def test_criterion_7_semantics_suite():
    results = [
        prop_wellformed_deterministic_eval(8, 3, 60),
        prop_clause_permutation(9, 3, 60),
        prop_default_clause_not_wildcard(),
    ]
    _assert_clean(results, 7, "evaluation determinism, permutation, default clause")


def test_criterion_8_differential_compilation():
    results = [prop_differential_compile(10, 3, 200)]
    assert results[0].cases >= 200
    # Full-universe agreement for the flagship programs.
    from patalg.oracle import Agree, differential_compile_check

    weekend = ECase(
        EVar("x"),
        (
            Clause(And(var("y"), Or(c("Sa"), c("Su"))), ECtor(cn("E1", 1), (EVar("y"),))),
            Clause(
                And(var("y"), Neg(Or(c("Fr"), Or(c("Sa"), c("Su"))))),
                ECtor(cn("E2", 1), (EVar("y"),)),
            ),
        ),
        ECtor(cn("D0"), ()),
    )
    assert differential_compile_check(weekend, DAYS, 1, Named("Day")) == Agree(7)
    is_red = ECase(
        EVar("x"),
        (
            Clause(c("Red"), ECtor(cn("Red"), ())),
            Clause(Neg(c("Red")), ECtor(cn("Green"), ())),
        ),
        ECtor(cn("Blue"), ()),
    )
    assert differential_compile_check(is_red, COLOR, 1, Named("Color")) == Agree(3)
    lists = ECase(
        EVar("x"),
        (
            Clause(c("Nil"), ECtor(cn("True"), ())),
            Clause(c("Cons", Wild(), var("t")), ECtor(cn("Cons", 2), (ECtor(cn("False"), ()), EVar("t")))),
        ),
        ECtor(cn("Nil"), ()),
    )
    out = differential_compile_check(lists, BOOL_LIST, 3, Named("List"))
    assert out == Agree(7)
    # Fault injection: a tree with two arms swapped must disagree.
    from patalg.oracle import Disagree, differential_check_tree

    tree = compile_matrix(embed_case(is_red))
    first = tree.arms[0]
    corrupted = Switch(
        tree.scrutinee,
        (Arm(first.ctor, first.binders, Leaf(ECtor(cn("Blue"), ()))),) + tree.arms[1:],
        tree.default_arm,
    )
    faulty = differential_check_tree(is_red, corrupted, COLOR, 1, Named("Color"))
    assert isinstance(faulty, Disagree)
    _assert_clean(results, 8, "differential compilation, 200+ random programs")


def test_criterion_9_overlap_soundness():
    results = [prop_overlap_sound(11, 3, 500)]
    assert results[0].cases >= 500
    _assert_clean(results, 9, "overlap decision sound on 500 random pairs")
