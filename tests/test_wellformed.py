"""Linearity, determinism and wellformedness checks."""

import os
import subprocess
import sys

from helpers import c, cn, var

from patalg.compiler import ClauseMatrix, MatrixRow
from patalg.normalize import to_ndnf
from patalg.semantics import Clause, ECase, ECtor, EVar
from patalg.syntax import And, Neg, Or, Wild
from patalg.wellformed import deterministic, linear_neg, linear_pos, wf_expr, wf_matrix


def test_duplicate_variable_not_linear():
    assert not linear_pos(c("Cons", var("x"), var("x")))


def test_or_branches_must_bind_same_variables():
    p = Or(And(var("x"), c("True")), c("False"))
    assert not linear_pos(p)


def test_weekend_pattern_is_linear():
    p = And(var("x"), Or(c("Sa"), c("Su")))
    assert linear_pos(p)


def test_wildcard_linear():
    assert linear_pos(Wild()) and linear_neg(Wild())


def test_negated_ctor_with_odd_variable_not_linear_neg():
    # Constructor arguments must not carry odd-negation variables.
    assert not linear_neg(c("Cons", Neg(var("x")), Wild()))
    assert linear_pos(c("Cons", Neg(var("x")), Wild()))


def test_or_with_shared_odd_variables_not_linear_neg():
    p = Or(Neg(var("x")), Neg(var("x")))
    assert not linear_neg(p)


# --- determinism ---


def test_or_binding_from_both_sides_not_deterministic():
    p = Or(c("Pair", var("x"), Wild()), c("Pair", Wild(), var("x")))
    assert not deterministic(p)


def test_disjoint_or_deterministic():
    assert deterministic(Or(c("Red"), Neg(c("Red"))))


def test_variable_deterministic():
    assert deterministic(var("x"))


def test_variable_free_overlapping_or_deterministic():
    # No bindable variables, so overlapping disjuncts cannot disagree.
    assert deterministic(Or(c("Red"), c("Red")))


# --- expressions ---


def _case(clauses, default=ECtor(cn("False"), ())):
    return ECase(EVar("c"), tuple(clauses), default)


def test_is_red_with_negation_wellformed():
    e = _case(
        [
            Clause(c("Red"), ECtor(cn("True"), ())),
            Clause(Neg(c("Red")), ECtor(cn("False"), ())),
        ]
    )
    assert wf_expr(e).ok


def test_overlapping_clauses_rejected():
    e = _case(
        [
            Clause(c("Red"), ECtor(cn("True"), ())),
            Clause(Wild(), ECtor(cn("False"), ())),
        ]
    )
    report = wf_expr(e)
    assert not report.ok
    assert any(viol.rule == "overlap" for viol in report.violations)


def test_ctor_leaf_wellformed():
    e = ECtor(cn("Pair", 2), (ECtor(cn("True"), ()), EVar("x")))
    assert wf_expr(e).ok


def test_violations_carry_paths():
    nested = ECase(
        EVar("s"),
        (
            Clause(
                c("Red"),
                _case(
                    [
                        Clause(c("Red"), ECtor(cn("True"), ())),
                        Clause(Wild(), ECtor(cn("False"), ())),
                    ]
                ),
            ),
        ),
        ECtor(cn("False"), ()),
    )
    report = wf_expr(nested)
    assert not report.ok
    assert all(len(viol.path) >= 1 for viol in report.violations)


# --- matrices ---


def _matrix(rows, scruts=("s",)):
    return ClauseMatrix(
        tuple(EVar(x) for x in scruts),
        tuple(MatrixRow(tuple(to_ndnf(p) for p in row), ECtor(cn("R"), ())) for row in rows),
        ECtor(cn("D"), ()),
    )


def test_weekend_matrix_wellformed():
    m = _matrix(
        [
            [And(var("y"), Or(c("Sa"), c("Su")))],
            [And(var("y"), Neg(Or(c("Fr"), Or(c("Sa"), c("Su")))))],
        ]
    )
    assert wf_matrix(m).ok


def test_identical_rows_rejected():
    m = _matrix([[c("Red")], [c("Red")]])
    report = wf_matrix(m)
    assert not report.ok
    assert any(viol.rule == "overlap" for viol in report.violations)


def test_row_sharing_variable_across_columns_rejected():
    m = _matrix([[var("x"), var("x")]], scruts=("a", "b"))
    report = wf_matrix(m)
    assert not report.ok
    assert any(viol.rule == "shared-variables" for viol in report.violations)


def test_row_binding_a_scrutinee_name_rejected():
    m = _matrix([[c("Cons", var("s"), Wild())]])
    report = wf_matrix(m)
    assert [viol.rule for viol in report.violations] == ["shadows-scrutinee"]


def test_type_aware_overlap_reports_ban_sets_of_two_types(tmp_path):
    # The ban sets of `!Red` and `!Mo` fit no one declared type: `check`
    # reports the pair and fails cleanly instead of raising.
    path = tmp_path / "two_types.pat"
    path.write_text(
        "data Color = Red | Green | Blue;\n"
        "data Day = Mo | Tu;\n"
        "def f(x) := case x of { !Red => Mo, !Mo => Tu, default => Tu };\n"
    )
    out = _type_aware_check(path)
    assert "Traceback" not in out.stderr, out.stderr[-500:]
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    assert lines[0] == (
        f"{path}: def f: [overlap-type] at 1: clause patterns !Red and !Mo cannot be "
        "compared by type: banned constructors Mo/0, Red/0 do not all belong to one "
        "declared type"
    )
    assert lines[-1] == "check failed"


def test_type_aware_overlap_reports_ban_sets_of_two_types_in_one_clause(tmp_path):
    # Determinism of the one clause compares `y & !Red` with `y & !Mo`.
    path = tmp_path / "two_types.pat"
    path.write_text(
        "data Color = Red | Green | Blue;\n"
        "data Day = Mo | Tu;\n"
        "def f(x) := case x of { (y & !Red) | (y & !Mo) => y, default => Tu };\n"
    )
    out = _type_aware_check(path)
    assert "Traceback" not in out.stderr + out.stdout, out.stderr[-500:]
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    assert lines[0] == (
        f"{path}: def f: [overlap-type] at 1: pattern y & !Red | y & !Mo cannot be "
        "compared by type: banned constructors Mo/0, Red/0 do not all belong to one "
        "declared type"
    )
    assert lines[-1] == "check failed"


def _type_aware_check(path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return subprocess.run(
        [sys.executable, "-m", "patalg.cli", "check", str(path), "--type-aware-overlap"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
