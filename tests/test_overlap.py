"""The overlap decision procedure, on patterns: the normal forms below are
given as the patterns they embed as."""

import pytest

from helpers import COLOR, c, cn, var

from patalg.normalize import Ndnf, NegConj, PosConj, embed_ndnf
from patalg.overlap import OverlapTypeError, decide, disjoint
from patalg.syntax import And, Neg, Wild


RED = cn("Red")
GREEN = cn("Green")


def _pos(ctor, *args):
    return embed_ndnf(Ndnf((PosConj(frozenset(), ctor, tuple(args)),)))


def _neg(*banned):
    return embed_ndnf(Ndnf((NegConj(frozenset(), frozenset(banned)),)))


def _unsat():
    return embed_ndnf(Ndnf(()))


def test_positive_vs_negative_not_banned():
    assert decide(_pos(RED), _neg(GREEN))


def test_distinct_constructors_do_not_overlap():
    assert not decide(_pos(RED), _pos(GREEN))


def test_negative_vs_negative_conservative():
    assert decide(_neg(cn("A")), _neg(cn("B")))


def test_unsatisfiable_overlaps_nothing():
    assert not decide(_pos(RED), _unsat())
    assert not decide(_unsat(), _neg())


def test_symmetry():
    pairs = [
        (_pos(RED), _neg(GREEN)),
        (_pos(RED), _pos(GREEN)),
        (_neg(RED), _neg(GREEN)),
        (_unsat(), _pos(RED)),
    ]
    for a, b in pairs:
        assert decide(a, b) == decide(b, a)


def test_type_aware_negative_pair_covering_signature():
    a = _neg(RED, GREEN)
    b = _neg(cn("Blue"))
    assert decide(a, b)  # conservative without declarations
    assert not decide(a, b, COLOR)  # ban sets cover all of Color


def test_type_aware_unknown_constructors_error():
    with pytest.raises(OverlapTypeError):
        decide(_neg(cn("Mystery")), _neg(cn("Other")), COLOR)


def test_wildcards_overlap_even_with_decls():
    assert decide(_neg(), _neg(), COLOR)


def test_disjoint_red_vs_not_red():
    assert disjoint(c("Red"), Neg(c("Red")))


def test_red_overlaps_itself():
    assert not disjoint(c("Red"), c("Red"))


def test_wildcard_overlaps_satisfiable_patterns():
    for p in (c("Red"), Neg(c("Red")), And(var("x"), c("Green"))):
        assert not disjoint(Wild(), p)


def test_nested_argument_overlap():
    a = c("Cons", c("True"), Wild())
    b = c("Cons", c("False"), Wild())
    assert disjoint(a, b)
    assert not disjoint(a, c("Cons", Wild(), var("x")))
