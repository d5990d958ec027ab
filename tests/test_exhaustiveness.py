"""Usefulness, exhaustiveness and witness construction."""

import os
import subprocess
import sys

import pytest

from helpers import BOOL_LIST, COLOR, DAYS, c, cn, pattern_matrix, v, var

from patalg.compiler import MatrixRow, default_rows, specialize_rows
from patalg.exhaustiveness import (
    SignatureError,
    exhaustive,
    non_exhaustiveness_witness,
    useful,
    useful_witness,
)
from patalg.normalize import (
    Ndnf,
    NegConj,
    UnsatConj,
    embed_ndnf,
    ndnf_wildcard,
    to_ndnf,
)
from patalg.oracle import enumerate_values
from patalg.syntax import And, Neg, Or, Wild, match_pos
from patalg.typecheck import Named


def weekend_rows():
    row1 = to_ndnf(And(var("y"), Or(c("Sa"), c("Su"))))
    row2 = to_ndnf(And(var("y"), Neg(Or(c("Fr"), Or(c("Sa"), c("Su"))))))
    return pattern_matrix(((row1,), (row2,)))


def test_weekend_matrix_not_exhaustive_with_fr_witness():
    P = weekend_rows()
    assert not exhaustive(P, DAYS)
    witness = non_exhaustiveness_witness(P, DAYS)
    assert witness == (v("Fr"),)


def test_weekend_witness_is_the_only_one():
    # Brute force: Fr is the unique uncovered day.
    P = weekend_rows()
    uncovered = [
        day
        for day in enumerate_values(DAYS, Named("Day"), 1)
        if not any(match_pos(embed_ndnf(row.cells[0]), day) for row in P)
    ]
    assert uncovered == [v("Fr")]


def test_zero_column_bases():
    assert not useful(pattern_matrix(((),)), (), DAYS)
    assert useful(pattern_matrix(()), (), DAYS)


def test_is_red_matrix_exhaustive():
    P = pattern_matrix(
        ((to_ndnf(c("Red")),), (to_ndnf(Neg(c("Red"))),))
    )
    assert exhaustive(P, COLOR)
    # Oracle confirmation: every color matches some row.
    for color in enumerate_values(COLOR, Named("Color"), 1):
        assert any(match_pos(embed_ndnf(row.cells[0]), color) for row in P)


def test_single_wildcard_row_exhaustive():
    P = pattern_matrix(((ndnf_wildcard(),),))
    assert exhaustive(P, DAYS)


def test_useful_vector_with_banned_head():
    # The vector bans Red; usefulness must find a non-Red witness not
    # covered by the matrix.
    P = pattern_matrix(((to_ndnf(c("Green")),),))
    w = useful_witness(P, (to_ndnf(Neg(c("Red"))),), COLOR)
    assert w == (v("Blue"),)


def test_unsatisfiable_vector_never_useful():
    P = pattern_matrix(())
    assert not useful(P, (to_ndnf(Neg(var("x"))),), COLOR)


def test_multi_column_default_branch_needed():
    # Witnesses here are headed by constructors outside both the positive
    # and the banned head sets; the default step must find them.
    P = pattern_matrix(
        (
            (to_ndnf(Neg(c("Fr"))), to_ndnf(c("Sa"))),
            (to_ndnf(c("Fr")), ndnf_wildcard()),
        )
    )
    assert not exhaustive(P, DAYS)
    witness = non_exhaustiveness_witness(P, DAYS)
    assert witness is not None
    # Verified against the rows directly.
    assert not any(
        all(match_pos(embed_ndnf(cell), val) for cell, val in zip(row.cells, witness))
        for row in P
    )


def test_exhaustive_multi_column():
    P = pattern_matrix(
        (
            (to_ndnf(c("Red")), ndnf_wildcard()),
            (to_ndnf(Neg(c("Red"))), ndnf_wildcard()),
        )
    )
    assert exhaustive(P, COLOR)


def test_nested_constructor_witness():
    lst = Named("List")
    P = pattern_matrix(
        (
            (to_ndnf(c("Nil")),),
            (to_ndnf(c("Cons", c("True"), Wild())),),
        )
    )
    assert not exhaustive(P, BOOL_LIST)
    witness = non_exhaustiveness_witness(P, BOOL_LIST, col_types=(lst,))
    assert witness == (v("Cons", v("False"), v("Nil")),)


def test_signature_error_for_mixed_types():
    P = pattern_matrix(
        ((to_ndnf(c("Red")),), (to_ndnf(c("Sa")),))
    )
    both = DAYS.types | COLOR.types
    from patalg.typecheck import DataDecls

    merged = DataDecls(dict(both))
    with pytest.raises(SignatureError):
        exhaustive(P, merged)


# --- the matrix core on the first column ---


def test_specialize_positive_row_expands_arguments():
    inner = to_ndnf(c("True"))
    P = pattern_matrix(((to_ndnf(c("Cons", c("True"), var("t"))),),))
    S = specialize_rows(P, 0, cn("Cons", 2))
    tail = Ndnf((NegConj(frozenset({"t"}), frozenset()),))
    assert S == [(MatrixRow((inner, tail)), frozenset())]


def test_specialize_drops_unsat_and_banned_rows():
    P = pattern_matrix(
        (
            (Ndnf((UnsatConj(frozenset()),)),),
            (to_ndnf(Neg(c("Red"))),),
        )
    )
    S = specialize_rows(P, 0, cn("Red"))
    assert S == []
    D = default_rows(P, 0)
    assert D == [(MatrixRow(()), frozenset())]


def test_specialize_negative_row_contributes_wildcards():
    P = pattern_matrix(((to_ndnf(Neg(c("Nil"))),),))
    S = specialize_rows(P, 0, cn("Cons", 2))
    assert S == [(MatrixRow((ndnf_wildcard(), ndnf_wildcard())), frozenset())]


def test_disjunction_rows_split():
    P = pattern_matrix(((to_ndnf(Or(c("Red"), c("Green"))),),))
    S = specialize_rows(P, 0, cn("Red"))
    assert len(S) == 1
    D = default_rows(P, 0)
    assert D == []


def test_witness_check_survives_python_O():
    # Force the covered-by-a-row check to fire; it must raise even when
    # `python -O` strips assertions.
    script = (
        "from patalg import exhaustiveness as ex\n"
        "from patalg.compiler import MatrixRow\n"
        "from patalg.normalize import to_ndnf\n"
        "from patalg.syntax import Ctor, CtorName, SoundnessError\n"
        "from patalg.typecheck import DataDecls\n"
        "red, green = CtorName('Red', 0), CtorName('Green', 0)\n"
        "decls = DataDecls({'Color': ((red, ()), (green, ()))})\n"
        "ex._matrix_matches = lambda P, values: True\n"
        "try:\n"
        "    ex.exhaustive((MatrixRow((to_ndnf(Ctor(red, ())),)),), decls)\n"
        "except SoundnessError as err:\n"
        "    print(err)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "usefulness witness is covered by a row"
