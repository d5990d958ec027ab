"""Matching, free variables and substitution equivalence."""

import random
import sys
import threading

import pytest

from helpers import BOOL_LIST, c, fresh_match_memo, match_both_by_recursion, v, var

from patalg import syntax
from patalg.oracle import enumerate_values, random_pattern
from patalg.suites import STANDARD_DECLS
from patalg.syntax import (
    Absurd,
    And,
    Ctor,
    CtorName,
    Mapping,
    Neg,
    Or,
    SoundnessError,
    Wild,
    fv_even,
    fv_odd,
    Var,
    is_proper,
    map_vars,
    match_all,
    match_both,
    match_neg,
    match_pos,
    pattern_equiv_bounded,
    subst_equiv,
)
from patalg.typecheck import Named


# The empty set of substitutions, and the set of the one empty substitution.
NONE = frozenset()
UNIT = frozenset({frozenset()})


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
    assert match_neg(p, value) == NONE


def test_match_or_left_branch():
    p = Or(c("True"), c("False"))
    assert substs(match_pos(p, v("True"))) == {frozenset()}


def test_nonmatch_different_constructor():
    assert substs(match_neg(c("True"), v("False"))) == {frozenset()}
    assert match_pos(c("True"), v("False")) == NONE


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
        assert match_pos(Wild(), value) == UNIT
        assert match_neg(Wild(), value) == NONE
        assert match_neg(Absurd(), value) == UNIT
        assert match_pos(Absurd(), value) == NONE


def test_nonlinear_pattern_improper_substitution():
    p = c("Cons", var("x"), var("x"))
    value = v("Cons", v("2"), v("Nil"))
    (s,) = match_pos(p, value)
    assert substs([s]) == {frozenset({m("x", v("2")), m("x", v("Nil"))})}
    assert not is_proper(s)


def test_ctor_identity_includes_arity():
    cons1 = Ctor(CtorName("Cons", 1), (Wild(),))
    value = v("Cons", v("2"), v("Nil"))  # Cons/2
    assert match_pos(cons1, value) == NONE
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


_REFERENCE_UNIVERSES = {tau: enumerate_values(BOOL_LIST, Named(tau), 3) for tau in ("B", "List")}


def _reference_pairs(seed, n):
    """Two variable names, and a conjunction or disjunction of two generated
    patterns, make patterns non-linear and or-patterns bind both ways, so
    that many sets hold several substitutions."""
    rng = random.Random(seed)
    two_names = lambda x: Var("x" if x.name in ("x", "z") else "y")
    universes = _REFERENCE_UNIVERSES

    def gen(tau):
        return map_vars(random_pattern(rng, BOOL_LIST, Named(tau), rng.randint(0, 4)), two_names)

    pairs = []
    for _ in range(n):
        tau = rng.choice(("B", "List"))
        p = gen(tau)
        if rng.random() < 0.5:
            p = rng.choice((And, Or))(p, gen(tau))
        pairs.append((p, rng.choice(universes[tau])))
    return pairs


def test_match_both_agrees_with_the_reference(monkeypatch):
    # On a fresh memo that never rotates, equal memoized results are one
    # object; with a bound of 8 patterns the memo rotates every few pairs.
    for generation in (10**9, 8):
        fresh_match_memo(monkeypatch, generation)
        several = improper = 0
        memoized = []
        for p, value in _reference_pairs(2024, 3000):
            got = match_both(p, value)
            assert got == match_both_by_recursion(p, value), (p, value)
            several += any(len(ss) > 1 for ss in got)
            improper += any(not is_proper(s) for ss in got for s in ss)
            if type(p) is not Var:  # a variable's result is built for each call
                memoized.append(got)
        assert several > 200 and improper > 10
        units = [r for r in memoized if r in (syntax._YES, syntax._NO)]
        assert len(units) > 1000 and all(r is syntax._YES or r is syntax._NO for r in units)
        if generation > 3000:
            assert len({id(r) for r in memoized}) == len(set(memoized))


def test_threads_matching_across_rotations_get_the_reference_results(monkeypatch):
    # A short switch interval makes the threads interleave inside the
    # rotations of a memo bounded at 4 patterns; a rotation may lose
    # entries, but must change no result.  Half the threads match one value
    # at a time, and half the whole universe of the value's type at once.
    fresh_match_memo(monkeypatch, 4)
    pairs = _reference_pairs(7, 300)
    expected = [match_both_by_recursion(p, value) for p, value in pairs]
    universes = [next(u for u in _REFERENCE_UNIVERSES.values() if value in u) for _, value in pairs]
    results = [None] * 8

    def match(k):
        if k % 2:
            results[k] = [
                match_all(p, u)[u.index(value)] for (p, value), u in zip(pairs, universes)
            ]
        else:
            results[k] = [match_both(p, value) for p, value in pairs]

    threads = [threading.Thread(target=match, args=(k,)) for k in range(len(results))]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(got == expected for got in results)


def _universe_cases(seed):
    """Generated patterns of size up to 5, variables included, each with
    the values of its type up to height 4, for every declared type."""
    rng = random.Random(seed)
    cases = []
    for name in sorted(STANDARD_DECLS.types):
        universe = enumerate_values(STANDARD_DECLS, Named(name), 4)
        for _ in range(40):
            p = random_pattern(rng, STANDARD_DECLS, Named(name), rng.randint(0, 5))
            cases.append((p, universe))
    return cases


@pytest.mark.parametrize("seed", range(1, 13))
def test_match_all_is_match_both_on_each_value(monkeypatch, seed):
    # On a cold memo the vectors are built before any single value is
    # matched; on a warm one they are read back.  A memo bounded at 8
    # patterns rotates inside one call.
    for generation in (10**9, 8):
        fresh_match_memo(monkeypatch, generation)
        cases = _universe_cases(seed)
        cold = [match_all(p, u) for p, u in cases]
        one_by_one = [tuple(match_both(p, value) for value in u) for p, u in cases]
        warm = [match_all(p, u) for p, u in cases]
        assert cold == one_by_one == warm
        assert any(s for vector in cold for pair in vector for ss in pair for s in ss)


@pytest.mark.parametrize("path", ("match_both", "match_all"))
@pytest.mark.parametrize(
    "bound, p, message",
    (
        # A variable that also fails makes `x & _` both match and fail.
        (lambda name, value: (syntax._UNIT, syntax._UNIT), And(var("x"), Wild()), "unsound"),
        # A variable with no derivation leaves `!x` none either.
        (lambda name, value: (frozenset(), frozenset()), Neg(var("x")), "incomplete"),
    ),
)
def test_a_wrong_rule_is_caught_on_both_paths(monkeypatch, path, bound, p, message):
    fresh_match_memo(monkeypatch, 10**9)
    monkeypatch.setattr(syntax, "_bound", bound)
    with pytest.raises(SoundnessError, match=message):
        if path == "match_both":
            match_both(p, v("True"))
        else:
            match_all(p, (v("False"), v("True")))


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
