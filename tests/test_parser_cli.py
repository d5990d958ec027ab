"""Surface syntax, program round-trips and the patc subcommands."""

import json

import pytest

from helpers import c, v, var

from patalg.cli import main
from patalg.compiler import compile_case
from patalg.oracle import Agree, differential_check_tree
from patalg.parser import (
    ParseError,
    inline_calls,
    parse,
    parse_pattern,
    parse_value,
    undeclared_ctors,
)
from patalg.pretty import format_expr, format_pattern
from patalg.semantics import ECase
from patalg.syntax import Absurd, And, Ctor, CtorName, Neg, Or, Wild


# --- patterns ---


def test_parse_is_red_case():
    prog = parse(
        "data Color = Red | Green | Blue;\n"
        "def isRed(c) := case c of { Red => True, !Red => False, default => False };\n"
    )
    body = prog.defs[0].body
    assert isinstance(body, ECase)
    assert body.clauses[0].pattern == c("Red")
    assert body.clauses[1].pattern == Neg(c("Red"))


def test_and_binds_tighter_than_or():
    assert parse_pattern("x & (Sa | Su)") == And(var("x"), Or(c("Sa"), c("Su")))
    assert parse_pattern("x & Sa | Su") == Or(And(var("x"), c("Sa")), c("Su"))


def test_negation_binds_tightest():
    assert parse_pattern("!Sa & !Su") == And(Neg(c("Sa")), Neg(c("Su")))
    assert parse_pattern("!(Sa & Su)") == Neg(And(c("Sa"), c("Su")))


def test_wildcard_and_absurd():
    assert parse_pattern("_") == Wild()
    assert parse_pattern("#") == Absurd()


def test_numeral_constructors():
    assert parse_pattern("Cons(2, Nil)") == c("Cons", c("2"), c("Nil"))
    assert parse_value("Cons(2, Nil)") == v("Cons", v("2"), v("Nil"))


def test_unbalanced_paren_is_error():
    with pytest.raises(ParseError) as err:
        parse_pattern("(Sa | Su")
    assert err.value.line == 1


def test_reserved_dollar_identifiers():
    with pytest.raises(ParseError):
        parse_pattern("$k0")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse("data Color = ;")
    assert (err.value.line, err.value.col) == (1, 14)


def test_arity_distinguishes_constructors():
    p = parse_pattern("Cons(x) | Cons(x, y)")
    assert p == Or(
        Ctor(CtorName("Cons", 1), (var("x"),)),
        Ctor(CtorName("Cons", 2), (var("x"), var("y"))),
    )


# --- round trip ---


def test_pattern_print_parse_round_trip():
    samples = [
        "x & (Sa | Su)",
        "!Pair(_, _) | (Pair(!True, _) | Pair(_, !False))",
        "!(x & !(Sa | #)) | _",
        "Cons(2, Cons(3, Nil))",
    ]
    for text in samples:
        p = parse_pattern(text)
        assert parse_pattern(format_pattern(p)) == p


def test_expr_print_parse_round_trip():
    prog = parse(
        "data Day = Mo | Sa | Su;\n"
        "def f(x) := case x of { Sa | Su => Mo, default => x };\n"
    )
    body = prog.defs[0].body
    from patalg.parser import parse_expr

    assert parse_expr(format_expr(body)) == body


def test_undeclared_ctor_detection():
    prog = parse("data Color = Red;\ndef f(x) := case x of { Crimson => Red, default => Red };\n")
    missing = undeclared_ctors(prog)
    assert missing == (CtorName("Crimson", 0),)


def test_inline_calls_substitutes_bodies():
    prog = parse(
        "data B = T | F;\n"
        "def neg(x) := case x of { T => F, default => T };\n"
        "def both(x) := neg(neg(x));\n"
    )
    body = inline_calls(prog.defs[1].body, prog)
    assert isinstance(body, ECase)


# --- the command line ---


WEEKEND = """\
data Day = Mo | Tu | We | Th | Fr | Sa | Su;
data Msg = OnWeekend(Day) | AlmostWeekend | NotWeekend(Day);

def describe(x) :=
  case x of {
    y & (Sa | Su) => OnWeekend(y),
    y & !(Fr | Sa | Su) => NotWeekend(y),
    default => AlmostWeekend
  };

main := describe(Sa);
"""


@pytest.fixture
def weekend_file(tmp_path):
    path = tmp_path / "weekend.pat"
    path.write_text(WEEKEND)
    return str(path)


def test_cli_check_ok(weekend_file, capsys):
    assert main(["check", weekend_file]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "Fr" in out  # the non-exhaustiveness note names the witness


def test_cli_check_reports_overlap(tmp_path, capsys):
    path = tmp_path / "bad.pat"
    path.write_text(
        "data Color = Red | Green | Blue;\n"
        "def f(x) := case x of { Red => Red, _ => Green, default => Blue };\n"
    )
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "overlap" in out


def test_cli_check_undeclared_ctor(tmp_path, capsys):
    path = tmp_path / "m.pat"
    path.write_text("data C = A;\ndef f(x) := case x of { B => A, default => A };\n")
    assert main(["check", str(path)]) == 1
    assert "undeclared" in capsys.readouterr().out
    # The polymorphic-variant mode admits it.
    assert main(["check", "--untyped", str(path)]) == 0


def test_cli_check_typed(tmp_path, capsys):
    path = tmp_path / "typed.pat"
    path.write_text(
        "data B = T | F;\n"
        "def neg(x: B) := case x of { T => F, default => T };\n"
    )
    assert main(["check", "--typed", str(path)]) == 0
    path.write_text(
        "data B = T | F;\n"
        "data C = K(B);\n"
        "def bad(x: B) := case x of { T => K(K(T)), default => K(T) };\n"
    )
    assert main(["check", "--typed", str(path)]) == 1
    assert "type error" in capsys.readouterr().out


def test_cli_type_aware_overlap(tmp_path, capsys):
    # !(Red | Green) and !Blue overlap for the conservative check, but the
    # declarations show their ban sets cover all of Color.
    path = tmp_path / "aware.pat"
    path.write_text(
        "data Color = Red | Green | Blue;\n"
        "data B = T | F;\n"
        "def f(x) := case x of { !(Red | Green) => T, !Blue => F, default => F };\n"
    )
    assert main(["check", str(path)]) == 1
    assert "overlap" in capsys.readouterr().out
    assert main(["check", "--type-aware-overlap", str(path)]) == 0


def test_cli_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "syntax.pat"
    path.write_text("def f( := x;")
    assert main(["check", str(path)]) == 2
    assert ":1:" in capsys.readouterr().err


def test_cli_compile_text(weekend_file, capsys):
    assert main(["compile", weekend_file]) == 0
    out = capsys.readouterr().out
    assert "switch x" in out
    assert "Fr =>" in out and "default =>" in out


def test_cli_compile_json(weekend_file, capsys):
    assert main(["compile", weekend_file, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    tree = obj["definitions"][0]["tree"]
    assert list(tree.keys()) == ["switch", "arms", "default"]
    assert [a["ctor"] for a in tree["arms"]] == ["Fr", "Sa", "Su"]
    assert tree["arms"][0]["tree"] == {"leaf": "AlmostWeekend"}
    assert tree["default"] == {"leaf": "NotWeekend(x)"}


REDUNDANT_OR = """\
data Day = Mo | Tu | We;
def f(s: Day) := case s of { (Tu | _) & z => z, default => Mo };
"""


def test_check_and_compile_agree_on_redundant_or(tmp_path, capsys):
    # Both disjuncts of (Tu | _) bind z to the same value, so the pattern
    # is deterministic; compile must accept what check accepts.
    path = tmp_path / "redundant.pat"
    path.write_text(REDUNDANT_OR)
    assert main(["check", str(path)]) == 0
    assert main(["compile", str(path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    prog = parse(REDUNDANT_OR)
    body = prog.defs[0].body
    assert differential_check_tree(body, compile_case(body), prog.decls, 1) == Agree(3)


SHADOWED_SCRUTINEE = """\
data L = Cons(L, L) | Nil;
data P = Pair(L, L);
def f(s) := case s of { Cons(s, y) & z => Pair(z, s), default => Pair(Nil, Nil) };
"""


def test_compile_pattern_variable_named_like_scrutinee(tmp_path, capsys):
    # z names the whole scrutinee and s its head; binding z to s must not
    # let the later binding of the pattern variable s rewrite it.
    path = tmp_path / "shadow.pat"
    path.write_text(SHADOWED_SCRUTINEE)
    assert main(["compile", str(path)]) == 0
    assert "leaf Pair(s, $k0)" in capsys.readouterr().out
    prog = parse(SHADOWED_SCRUTINEE)
    body = prog.defs[0].body
    assert differential_check_tree(body, compile_case(body), prog.decls, 3) == Agree(5)


def test_cli_compile_reports_not_wellformed(tmp_path, capsys):
    path = tmp_path / "bad.pat"
    path.write_text(
        "data Color = Red | Green | Blue;\n"
        "def f(x) := case x of { Red => Red, _ => Green, default => Blue };\n"
    )
    assert main(["compile", str(path)]) == 1
    err = capsys.readouterr().err
    assert "cannot compile, not wellformed" in err and "[overlap]" in err
    assert "Traceback" not in err


def test_cli_compile_call_scrutinee_is_clean_error(tmp_path, capsys):
    path = tmp_path / "call.pat"
    path.write_text(
        "data B = T | F;\n"
        "def id(x) := x;\n"
        "def f(x) := case id(x) of { T => F, default => T };\n"
    )
    assert main(["compile", str(path)]) == 1
    err = capsys.readouterr().err
    assert "def f: cannot compile, case scrutinee must be a variable or a value" in err


def test_cli_compile_output_file(weekend_file, tmp_path):
    out_path = tmp_path / "tree.json"
    assert main(["compile", weekend_file, "--format", "json", "-o", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["definitions"]


def test_cli_eval(weekend_file, capsys):
    assert main(["eval", weekend_file, "--entry", "describe", "--args", "Mo"]) == 0
    assert capsys.readouterr().out.strip() == "NotWeekend(Mo)"
    assert main(["eval", weekend_file, "--entry", "main"]) == 0
    assert capsys.readouterr().out.strip() == "OnWeekend(Sa)"


def test_cli_eval_recursive_definition(tmp_path, capsys):
    path = tmp_path / "last.pat"
    path.write_text(
        "data B = T | F;\n"
        "data List = Nil | Cons(B, List);\n"
        "def last(xs) := case xs of {\n"
        "  Cons(x, Nil) => x,\n"
        "  Cons(_, t & Cons(_, _)) => last(t),\n"
        "  default => F\n"
        "};\n"
    )
    assert main(["eval", str(path), "--entry", "last", "--args", "Cons(T, Cons(F, Cons(T, Nil)))"]) == 0
    assert capsys.readouterr().out.strip() == "T"


def test_cli_eval_fuel_limit(tmp_path, capsys):
    path = tmp_path / "loop.pat"
    path.write_text("data B = T;\ndef spin(x) := spin(x);\n")
    assert main(["eval", str(path), "--entry", "spin", "--args", "T", "--fuel", "50"]) == 1
    assert "Diverged" in capsys.readouterr().err


def test_cli_norm_stages(capsys):
    assert main(["norm", "--pattern", "x & !(Sa|Su)", "--stage", "nnf"]) == 0
    assert capsys.readouterr().out.strip() == "x & (!Sa & !Su)"
    assert main(["norm", "--pattern", "x & !(Sa|Su)", "--stage", "dnf"]) == 0
    assert capsys.readouterr().out.strip() == "||{ x & (!Sa & !Su) }"
    assert main(["norm", "--pattern", "x & !(Sa|Su)"]) == 0
    assert capsys.readouterr().out.strip() == "||{ {x} & !{Sa, Su} }"


def test_cli_fuzz_compile_seed_2(capsys):
    # At this seed the suite generates cases that `check` accepts but whose
    # embedded matrices `wf_matrix` would reject; compile must accept them.
    assert main(["fuzz", "--suite", "compile", "--seed", "2", "--depth", "4", "--cases", "400"]) == 0
    capsys.readouterr()


def test_cli_fuzz_smoke(capsys):
    assert main(["fuzz", "--cases", "5", "--suite", "exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out
