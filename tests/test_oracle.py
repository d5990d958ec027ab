"""Value enumeration, generators and differential checking."""

import pytest

from helpers import BOOL_LIST, COLOR, DAYS, c, cn, v, var

from patalg.compiler import Arm, Switch, compile as compile_matrix, embed_case
from patalg.oracle import (
    Agree,
    Disagree,
    differential_check_tree,
    differential_compile_check,
    enumerate_values,
    gen_case,
    gen_pattern,
)
from patalg.semantics import Clause, ECase, ECtor, EVar
from patalg.syntax import And, Neg, Or, Wild
from patalg.typecheck import Bool, DataDecls, Named
from patalg.wellformed import deterministic, linear_neg, linear_pos, wf_expr


def test_enumerate_bool_builtin():
    values = enumerate_values(None, Bool(), 1)
    assert values == (v("True"), v("False"))


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


def test_inline_calls_avoids_capture(tmp_path):
    from patalg.parser import inline_calls, parse
    from patalg.semantics import Evaluated, eval as eval_expr

    prog = parse(
        "data Day = Mo | Sa | Su;\n"
        "data P2 = MkP(Day, Day);\n"
        "def g(y) := case Su of { x => MkP(x, y), default => Mo };\n"
        "def h(x) := g(x);\n"
    )
    body = inline_calls(prog.lookup("h").body, prog)
    from patalg.semantics import substitute
    from patalg.syntax import Value

    applied = substitute(body, {"x": Value(cn("Sa"), ())})
    assert eval_expr(applied) == Evaluated(Value(cn("MkP", 2), (Value(cn("Su"), ()), Value(cn("Sa"), ()))))


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
    tree = compile_matrix(embed_case(e))
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
