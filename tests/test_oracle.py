"""Value enumeration, generators, differential checking and translation
validation."""

import pytest

from helpers import BOOL_LIST, COLOR, DAYS, c, cn, v, var

from patalg.compiler import Arm, Leaf, Switch, compile_case, eval_tree
from patalg.oracle import (
    Agree,
    Disagree,
    differential_check_tree,
    differential_compile_check,
    enumerate_values,
    gen_case,
    gen_pattern,
    validate_tree,
)
from patalg.parser import parse
from patalg.semantics import Clause, ECase, ECtor, EVar, eval as eval_expr
from patalg.syntax import And, Mapping, Neg, Or, Wild
from patalg.typecheck import DataDecls, DeclError, Ill, Named, Ok, type_expr
from patalg.wellformed import deterministic, linear_neg, linear_pos, wf_expr


def test_enumerate_declared_bool():
    # `Bool` is a declared type like any other: no declarations, no values.
    bools = DataDecls({"Bool": ((cn("True"), ()), (cn("False"), ()))})
    assert enumerate_values(bools, Named("Bool"), 1) == (v("True"), v("False"))
    with pytest.raises(DeclError, match="no declarations supplied for type Bool"):
        enumerate_values(None, Named("Bool"), 1)


def test_enumerate_days():
    values = enumerate_values(DAYS, Named("Day"), 1)
    assert [x.ctor.name for x in values] == ["Mo", "Tu", "We", "Th", "Fr", "Sa", "Su"]


def test_enumerate_lists_depth3_has_seven_values():
    values = enumerate_values(BOOL_LIST, Named("List"), 3)
    # One empty list, two singletons, four two-element lists.
    assert len(values) == 7
    assert len(set(values)) == 7


def test_enumerate_monotone_in_depth():
    for d in (1, 2, 3):
        small = set(enumerate_values(BOOL_LIST, Named("List"), d))
        large = set(enumerate_values(BOOL_LIST, Named("List"), d + 1))
        assert small <= large


def test_enumerate_unknown_type_errors():
    with pytest.raises(Exception):
        enumerate_values(DAYS, Named("Ghost"), 2)


def test_gen_pattern_size_zero_is_leaf():
    for seed in range(20):
        p = gen_pattern(DAYS, Named("Day"), 0, seed)
        assert type(p).__name__ in ("Wild", "Var", "Ctor")


def test_gen_pattern_deterministic_in_seed():
    a = gen_pattern(BOOL_LIST, Named("List"), 5, 42)
    b = gen_pattern(BOOL_LIST, Named("List"), 5, 42)
    assert a == b


def test_gen_pattern_respects_linearity_constraint():
    for seed in range(50):
        p = gen_pattern(
            BOOL_LIST,
            Named("List"),
            4,
            seed,
            constraints={"require_linear": True},
        )
        assert linear_pos(p) and linear_neg(p)


def test_gen_pattern_respects_determinism_constraint():
    for seed in range(50):
        p = gen_pattern(DAYS, Named("Day"), 4, seed, constraints={"require_det": True})
        assert deterministic(p)


def test_gen_case_is_wellformed():
    for seed in range(30):
        e = gen_case(COLOR, Named("Color"), seed)
        assert wf_expr(e).ok


def test_differential_weekend_program_agrees():
    e = ECase(
        EVar("x"),
        (
            Clause(And(var("y"), Or(c("Sa"), c("Su"))), ECtor(cn("W", 1), (EVar("y"),))),
            Clause(
                And(var("y"), Neg(Or(c("Fr"), Or(c("Sa"), c("Su"))))),
                ECtor(cn("N", 1), (EVar("y"),)),
            ),
        ),
        ECtor(cn("D0"), ()),
    )
    assert differential_compile_check(e, DAYS, 1) == Agree(7)


def test_differential_is_red_agrees():
    e = ECase(
        EVar("c"),
        (
            Clause(c("Red"), ECtor(cn("Mo"), ())),
            Clause(Neg(c("Red")), ECtor(cn("Tu"), ())),
        ),
        ECtor(cn("We"), ()),
    )
    merged = DataDecls(dict(COLOR.types | DAYS.types))
    out = differential_compile_check(e, merged, 1, Named("Color"))
    assert out == Agree(3)


def test_differential_agrees_despite_shadowing():
    # The clause body re-binds the scrutinee name; compilation renames the
    # clause variables into the scrutinee, which must not be captured.
    merged = DataDecls(dict(COLOR.types | DAYS.types))
    inner = ECase(
        ECtor(cn("Su"), ()),
        (Clause(var("x"), ECtor(cn("Cons", 2), (EVar("x"), EVar("y")))),),
        ECtor(cn("Mo"), ()),
    )
    outer = ECase(
        EVar("x"),
        (Clause(And(var("y"), c("Sa")), inner),),
        ECtor(cn("Mo"), ()),
    )
    assert differential_compile_check(outer, merged, 1, Named("Day")) == Agree(7)


def test_call_typing_avoids_capture():
    # `g`'s pattern binds `x`, the name of `h`'s argument.  The callee's
    # body is typed in its own scope, so `y` keeps the argument's type B;
    # captured by the pattern, it would have type Day and `MkP(x, y)` would
    # not type.
    prog = parse(
        "data Day = Mo | Sa | Su;\n"
        "data B = T | F;\n"
        "data P2 = MkP(Day, B);\n"
        "def g(y) := case Su of { x => MkP(x, y), default => MkP(Mo, y) };\n"
        "def h(x) := g(x);\n"
    )
    h = prog.lookup("h").body
    assert type_expr((("x", Named("B")),), h, prog.decls, prog) == Ok(Named("P2"))
    assert type_expr((("x", Named("Day")),), h, prog.decls, prog) == Ill(
        "argument of MkP has type Day, expected B"
    )


def test_differential_detects_corrupted_tree():
    e = ECase(
        EVar("c"),
        (
            Clause(c("Red"), ECtor(cn("Mo"), ())),
            Clause(c("Green"), ECtor(cn("Tu"), ())),
        ),
        ECtor(cn("We"), ()),
    )
    merged = DataDecls(dict(COLOR.types | DAYS.types))
    tree = compile_case(e)
    assert isinstance(tree, Switch)
    # Swap the subtrees of the first two arms.
    a, b = tree.arms[0], tree.arms[1]
    corrupted = Switch(
        tree.scrutinee,
        (Arm(a.ctor, a.binders, b.subtree), Arm(b.ctor, b.binders, a.subtree))
        + tree.arms[2:],
        tree.default_arm,
    )
    out = differential_check_tree(e, corrupted, merged, 1, Named("Color"))
    assert isinstance(out, Disagree)
    assert out.witness in (v("Red"), v("Green"))


def test_gen_case_is_wellformed_for_every_suite_type():
    # `gen_case` builds its clauses with the tests `wf_expr` makes and
    # does not call it; the cases the suites draw must pass it.
    import random

    from patalg.suites import _TAUS, STANDARD_DECLS

    for seed in range(1, 13):
        rng = random.Random(seed)
        for i in range(100):
            e = gen_case(STANDARD_DECLS, _TAUS[i % len(_TAUS)], rng.randrange(1 << 30))
            assert wf_expr(e).ok, e


# --- translation validation -----------------------------------------------------


def _case(source):
    return parse(source).defs[0].body


WEEKEND = _case(
    "data Day = Mo | Tu | We | Th | Fr | Sa | Su; data R = E1(Day) | E2(Day) | D0;"
    "def f(x) := case x of { y & (Sa | Su) => E1(y), y & !(Fr | Sa | Su) => E2(y), default => D0 };"
)
IS_RED = _case(
    "data Color = Red | Green | Blue;"
    "def f(x) := case x of { Red => Red, !Red => Green, default => Blue };"
)
LISTS = _case(
    "data B = True | False; data List = Nil | Cons(B, List);"
    "def f(x) := case x of { Nil => True, Cons(_, t) => Cons(False, t), default => Nil };"
)


def _mutants():
    """Hand-made faults in the compiled weekend, is_red and lists trees:
    name -> (case, faulty tree)."""
    week, red, lists = (compile_case(e) for e in (WEEKEND, IS_RED, LISTS))
    fr, sa, su = week.arms
    cons, nil = lists.arms
    x = week.scrutinee

    def weekend(*arms, default=week.default_arm):
        return WEEKEND, Switch(x, arms, default)

    def in_cons(arm):
        return LISTS, Switch(x, (arm, nil), lists.default_arm)

    wrong_tail = Leaf(ECtor(cn("Cons", 2), (v("False"), EVar("$0_0"))))
    return {
        "swapped arm": weekend(Arm(fr.ctor, (), sa.subtree), Arm(sa.ctor, (), fr.subtree), su),
        "clause rhs for the default": weekend(Arm(fr.ctor, (), sa.subtree), sa, su),
        "second switch on one occurrence": weekend(fr, Arm(sa.ctor, (), week), su),
        "duplicate arm constructors": weekend(fr, sa, sa),
        "leaf for a switch": (IS_RED, red.default_arm),
        "occurrence not yet exposed": (
            IS_RED,
            Switch(x, (Arm(cn("Red"), (), Switch(EVar("$0_0"), (), red.arms[0].subtree)),), red.default_arm),
        ),
        "wrong binder in a leaf": in_cons(Arm(cons.ctor, cons.binders, wrong_tail)),
        "binder count unlike the arity": in_cons(Arm(cons.ctor, ("$0_0",), cons.subtree)),
    }


def test_validator_rejects_each_mutant():
    mutants = _mutants()
    assert len(mutants) == 8
    for name, (case, tree) in mutants.items():
        assert isinstance(validate_tree(case, compile_case(case)), Agree)
        out = validate_tree(case, tree)
        assert isinstance(out, Disagree), name
        if name in ("swapped arm", "clause rhs for the default", "leaf for a switch", "wrong binder in a leaf"):
            # The witness takes the faulty leaf, where the two routes differ.
            direct = eval_expr(ECase(out.witness, case.clauses, case.default_rhs))
            assert direct != eval_tree(tree, (Mapping("x", out.witness),)), name
            assert f"direct evaluation gives {direct!r}" in out.detail, name


def test_wrong_leaf_below_depth_one_escapes_enumeration():
    case, tree = _mutants()["wrong binder in a leaf"]
    assert differential_check_tree(case, tree, BOOL_LIST, 1, Named("List")) == Agree(1)
    out = validate_tree(case, tree)
    assert out.witness.ctor == cn("Cons", 2)
    assert out.detail.startswith("after x is Cons: ")


def test_switch_faults_name_the_occurrence():
    _, twice = _mutants()["second switch on one occurrence"]
    _, early = _mutants()["occurrence not yet exposed"]
    assert "the switch tests x again" in validate_tree(WEEKEND, twice).detail
    assert "before an arm exposes it" in validate_tree(IS_RED, early).detail


def test_validator_settles_a_kleene_unknown_at_a_leaf():
    # No value matches the clause, and the compiler never tests x, so the
    # clause is unknown at the leaf; the emptiness search settles it no.
    case = _case("data T = A | B; def f(x) := case x of { y & !(A | !A) => B, default => A };")
    tree = compile_case(case)
    assert tree == Leaf(v("A"))
    assert validate_tree(case, tree) == Agree(1)
    assert isinstance(validate_tree(case, Leaf(v("B"))), Disagree)


# Clauses that every value matches, each in its own case: the case diagram
# tests nothing, so each compiles to a leaf with no switch above it.
TAUTOLOGIES = {
    "Mo | !Mo": "data D = Mo | Tu; def f(x) := case x of { Mo | !Mo => Tu, default => Mo };",
    "!(Green & Red)": "data C = Green | Red; def f(x) := case x of { !(Green & Red) => Red, default => Green };",
    "x & (Mo | !Mo)": "data D = Mo | Tu; data W = W(D); def f(s) := case s of { x & (Mo | !Mo) => W(x), default => Mo };",
    "!(Cons(F, y) & Nil)": (
        "data B = T | F; data L = Nil | Cons(B, L);"
        "def f(x) := case x of { !(Cons(F, y) & Nil) => Nil, default => T };"
    ),
}


@pytest.mark.parametrize("name", sorted(TAUTOLOGIES))
def test_tautological_clause_compiles_to_a_leaf_that_validates(name):
    # The clause is unknown at the leaf in Kleene's logic, and no value
    # fails it, so it says yes, with the bindings its settled parts carry.
    case = _case(TAUTOLOGIES[name])
    tree = compile_case(case)
    assert type(tree) is Leaf
    assert validate_tree(case, tree) == Agree(1)


def test_unknown_clause_that_a_value_fails_is_still_a_fault():
    case = _case("data D = Mo | Tu; def f(x) := case x of { Mo => Tu, default => Mo };")
    out = validate_tree(case, Leaf(v("Tu")))
    assert isinstance(out, Disagree)
    assert "clause Mo may or may not match" in out.detail


def test_tautological_clause_bound_at_the_wrong_occurrence_is_a_fault():
    # `x` is argument 0 wherever the first clause matches, so a leaf that
    # reads argument 1 is wrong; the second binds `x` at argument 0 on some
    # values and at argument 1 on the others, so a leaf under no test of
    # argument 0 is wrong too.
    for source, wrong in (
        ("case x of { P(x, Mo | !Mo) => x, default => Mo }", "$0_1"),
        ("case x of { P(x & Mo, _) | P(!Mo, x) => x, default => Mo }", "$0_0"),
    ):
        case = _case(f"data D = Mo | Tu; data P = P(D, D); def f(x) := {source};")
        tree = compile_case(case)
        assert isinstance(validate_tree(case, tree), Agree)
        (arm,) = tree.arms
        leaf = Arm(arm.ctor, arm.binders, Leaf(EVar(wrong)))
        assert isinstance(validate_tree(case, Switch(tree.scrutinee, (leaf,), tree.default_arm)), Disagree)
    # Every value matches `P(x, _) | x & !P(_, _)`, but a leaf with no test
    # above it cannot bind `x`, which waits in the `P` of the left side.
    case = _case("data D = Mo; data P = P(D, D); def f(x) := case x of { P(x, _) | x & !P(_, _) => x, default => Mo };")
    assert isinstance(validate_tree(case, compile_case(case)), Agree)
    assert isinstance(validate_tree(case, Leaf(EVar("x"))), Disagree)


def test_validation_is_linear_in_the_states_of_orprod():
    # The A and B arms of each argument reach one subtree in one state.
    from test_shared_trees import _orprod

    for n in range(4, 13):
        case = _case(_orprod(n))
        assert validate_tree(case, compile_case(case)) == Agree(2 * n + 3)
