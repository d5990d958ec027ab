"""Surface syntax, program round-trips and the patc subcommands."""

import argparse
import gc
import json
import os
import re
import subprocess
import sys

import pytest

from helpers import c, v, var

from patalg import cli, semantics
from patalg.cli import cmd_check, cmd_compile, cmd_eval, cmd_fuzz, cmd_norm, main
from patalg.compiler import compile_case
from patalg.oracle import Agree, differential_check_tree
from patalg.parser import (
    ParseError,
    parse,
    parse_pattern,
    parse_value,
    undeclared_ctors,
)
from patalg.pretty import format_expr, format_pattern, format_value
from patalg.semantics import ECase
from patalg.syntax import Absurd, And, Ctor, CtorName, Neg, Or, Wild
from patalg.typecheck import Named, Ok, type_expr


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


def test_format_value_reads_back():
    text = "Pair(A, Cons(2, Cons(B, Nil)), Triple(X, Y, Z))"
    assert format_value(parse_value(text)) == text
    assert format_value(v("Nil")) == "Nil"


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


@pytest.mark.parametrize(
    "source, error",
    [
        ("data B = T | F;\ndef f(x: Bool) := x;\n", (2, 10, "unknown type Bool")),
        ("data B = T | F;\ndata P = MkP(B, Foo);\n", (2, 17, "unknown type Foo")),
        (
            "data P = MkP(Foo);\ndata Foo = A;\ndef f(p: P, q: Bar) := p;\n",
            (3, 16, "unknown type Bar"),
        ),
        ("data B = T | F;\ndef f(x, x) := x;\nmain := f(T, F);\n", (2, 10, "parameter x declared twice")),
    ],
    ids=("annotation", "data argument", "declared later", "repeated parameter"),
)
def test_undeclared_type_or_repeated_parameter_is_an_error(source, error):
    # A type is the name of a data declaration, declared before or after its
    # use; `Bool` is no exception.
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.line, err.value.col, err.value.message) == error


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


def test_calls_type_by_rule():
    prog = parse(
        "data B = T | F;\n"
        "def neg(x) := case x of { T => F, default => T };\n"
        "def both(x) := neg(neg(x));\n"
    )
    b = Named("B")
    typed = {}
    assert type_expr((("x", b),), prog.defs[1].body, prog.decls, prog, typed) == Ok(b)
    # Both calls are to `neg` at B, whose body is typed once.
    assert typed == {("neg", (b,)): Ok(b)}


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


@pytest.mark.parametrize(
    "call, message",
    [("g(x)", "call of undefined definition g"), ("h(x, x)", "h takes 1 arguments, got 2")],
)
def test_cli_check_typed_reports_a_bad_call(tmp_path, capsys, call, message):
    path = tmp_path / "call.pat"
    path.write_text(f"data B = T | F;\ndef h(x: B) := x;\ndef f(x: B) := {call};\n")
    assert main(["check", "--typed", str(path)]) == 1
    assert capsys.readouterr().out == f"{path}: def f: type error: {message}\ncheck failed\n"


def test_cli_check_typed_notes_a_recursive_definition(tmp_path, capsys):
    path = tmp_path / "mutual.pat"
    path.write_text("data B = T | F;\ndef f(x: B) := g(x);\ndef g(x: B) := f(x);\n")
    assert main(["check", "--typed", str(path)]) == 0
    notes = (f"{path}: def {n}: note: recursive definition; typing skipped\n" for n in "fg")
    assert capsys.readouterr().out == "".join(notes) + "ok\n"


def test_cli_check_typed_accepts_a_declared_bool(tmp_path, capsys):
    # `Bool` is a declared type like any other, so an annotation and the
    # constructors name the same type.
    path = tmp_path / "bool.pat"
    path.write_text(
        "data Bool = True | False;\n"
        "def g(x: Bool) := x;\n"
        "def h(y: Bool) := g(True);\n"
        "def k(z: Bool) := case z of { True => False, default => True };\n"
    )
    assert main(["check", "--typed", str(path)]) == 0
    assert capsys.readouterr().out == (
        f"{path}: def k: note: clauses at <body> are not exhaustive; "
        "the default clause handles e.g. False\nok\n"
    )


def test_cli_check_typed_rejects_an_undeclared_true(tmp_path, capsys):
    # `--untyped` admits `True` unchecked, but typing it needs its type.
    path = tmp_path / "true.pat"
    path.write_text("data B = T | F;\ndef f(x: B) := case x of { T => True, default => False };\n")
    assert main(["check", "--untyped", "--typed", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"{path}: def f: type error: undeclared constructor True/0\ncheck failed\n"
    )


def test_cli_rejects_an_undeclared_type_under_every_command(tmp_path, capsys):
    # `check` without `--typed` used to accept the annotation.
    path = tmp_path / "foo.pat"
    path.write_text("data B = T | F;\ndef f(x: Foo) := x;\nmain := f(T);\n")
    for argv in (["check"], ["check", "--untyped"], ["compile"], ["eval", "--entry", "main"]):
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert capsys.readouterr().err == f"{path}:2:10: unknown type Foo\n"


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


def test_cli_freezes_nothing_while_it_runs(weekend_file, tmp_path):
    # `main` freezes the heap only at exit: in process, on every exit path,
    # the freeze count stays what the caller left, frozen objects or none.
    bad = tmp_path / "bad.pat"
    bad.write_text("data C = A;\ndef f(x) := case x of { B => A, default => A };\n")
    broken = tmp_path / "broken.pat"
    broken.write_text("def f( := x;")
    runs = [
        (["check", weekend_file], 0),
        (["check", str(bad)], 1),
        (["check", str(broken)], 2),
        (["frobnicate"], 2),
    ]
    for argv, code in runs:
        assert gc.get_freeze_count() == 0
        assert main(argv) == code, argv
        assert gc.get_freeze_count() == 0, argv
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        for argv, code in runs:
            assert main(argv) == code, argv
            assert gc.get_freeze_count() == frozen, argv
    finally:
        gc.unfreeze()


# Counts the `gc.freeze` calls made at exit after three runs of `main`;
# the counting hook, registered first, runs last.  (`atexit._ncallbacks()`
# counts the slots of unregistered hooks too, so it cannot tell.)
_HOOK_COUNT = """
import atexit, gc, sys
from patalg.cli import main
freeze, calls = gc.freeze, []
gc.freeze = lambda: calls.append(None) or freeze()
atexit.register(lambda: print(len(calls)))
for _ in range(3):
    main(sys.argv[1:])
calls.clear()
"""


def test_cli_registers_one_exit_hook(weekend_file):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", _HOOK_COUNT, "check", weekend_file],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines()[-1] == "1"


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
    assert "leaf Pair(s, $0_0)" in capsys.readouterr().out
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


@pytest.mark.parametrize(
    "printer, flags", [("format_tree", []), ("format_tree_json", ["--format", "json"])]
)
def test_cli_compile_out_of_memory_names_the_definition(
    tmp_path, monkeypatch, capsys, printer, flags
):
    # Printing g's tree runs out of memory: a message naming g, no traceback.
    path = tmp_path / "two.pat"
    path.write_text(
        "data B = T | F;\n"
        "def f(x) := case x of { T => F, default => T };\n"
        "def g(x) := case x of { F => T, default => F };\n"
    )
    real = getattr(cli, printer)

    def exhausted(tree, *args, **kwargs):
        if tree.arms[0].ctor.name == "F":
            raise MemoryError
        return real(tree, *args, **kwargs)

    monkeypatch.setattr(cli, printer, exhausted)
    assert main(["compile", str(path), *flags]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{path}: def g: out of memory printing its tree\n"


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


def test_cli_eval_deep_list(tmp_path):
    # A 400-element list: stepping, substitution and printing of S^400(Z)
    # must not recurse per element.  A subprocess gives the CLI's own stack
    # depth.
    path = tmp_path / "walk.pat"
    path.write_text(
        "data N = Z | S(N);\n"
        "data B = T | F;\n"
        "data List = Nil | Cons(B, List);\n"
        "def len(xs) := case xs of { Nil => Z, Cons(_, t) => S(len(t)), default => Z };\n"
        "def last(xs) := case xs of {\n"
        "  Cons(x, Nil) => x,\n"
        "  Cons(_, t & Cons(_, _)) => last(t),\n"
        "  default => F\n"
        "};\n"
    )
    n = 400
    xs = "Nil"
    for i in range(n):
        xs = f"Cons({'TF'[i % 2]}, {xs})"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for entry, want in (("len", "S(" * n + "Z" + ")" * n), ("last", "T")):
        out = subprocess.run(
            [sys.executable, "-m", "patalg.cli", "eval", str(path), "--entry", entry, "--args", xs],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr[-500:]
        assert out.stderr == ""
        assert out.stdout.strip() == want


def test_cli_check_or_product_witness(tmp_path, capsys):
    # T(A|B, ..., A|B) has a 512-conjunct normal form; the witness check
    # matches it without embedding it back into a 512-deep or-chain.
    n = 9
    path = tmp_path / "orprod.pat"
    path.write_text(
        "data AB = A | B | C;\n"
        f"data T = T({', '.join(['AB'] * n)});\n"
        "def f(x: T) := case x of {\n"
        f"  T({', '.join(['A | B'] * n)}) => A,\n"
        f"  T({', '.join(['C'] + ['_'] * (n - 1))}) => B,\n"
        "  default => C\n"
        "};\n"
    )
    assert main(["check", "--typed", str(path)]) == 0
    out = capsys.readouterr().out
    witness = re.search(r"handles e\.g\. T\((.*)\)$", out, re.M).group(1).split(", ")
    assert len(witness) == n
    assert witness[0] in ("A", "B") and "C" in witness[1:]


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


@pytest.mark.parametrize("seed", range(1, 13))
def test_cli_fuzz_compile_seeds(seed, capsys):
    # Every compiled tree validates and agrees with direct evaluation.  At
    # seed 2 the suite generates `(Tu | _) & z`, a deterministic clause
    # whose normal form has two overlapping conjuncts that both bind `z`;
    # `check` accepts it, so compile must too.  Most seeds generate clauses
    # whose tree has no test of some occurrence that the clause names, and
    # the validator must settle them at the leaf.
    argv = ["fuzz", "--suite", "compile", "--seed", str(seed), "--depth", "4", "--cases", "400"]
    assert main(argv) == 0
    capsys.readouterr()


def test_cli_fuzz_smoke(capsys):
    assert main(["fuzz", "--cases", "5", "--suite", "exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out


def test_cli_fuzz_depth_too_small_is_a_usage_error(capsys):
    # No value of some suite's types fits in the depth: a message that names
    # the type, exit 2.
    for depth, argv, tau in (
        ("0", ["--cases", "3"], "Color"),
        ("1", ["--suite", "algebra"], "BPair"),
        ("-1", ["--suite", "algebra", "--cases", "3"], "Color"),
    ):
        assert main(["fuzz", "--depth", depth, *argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --depth {depth} is too small: no values of {tau} at depth {depth}\n"


def test_cli_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.pat"
    path.write_bytes(b"\xff\xfe data")
    for argv in (["check"], ["compile"], ["eval", "--entry", "main"]):
        assert main([*argv, str(path)]) == 2, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff"), out.err


def test_cli_compile_reports_an_output_file_it_cannot_open(weekend_file, tmp_path, capsys):
    target = tmp_path / "missing" / "tree.txt"
    assert main(["compile", weekend_file, "-o", str(target)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: [Errno 2] No such file or directory: '{target}'\n"


# --- reading the command line ------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    """`patc`'s argparse parser, kept verbatim from when `cli` used it: the
    reference that `main`'s table-driven reading is checked against."""
    ap = argparse.ArgumentParser(
        prog="patc",
        description="Checker, normalizer and decision-tree compiler for the "
        "boolean algebra of patterns.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="wellformedness, overlap and exhaustiveness")
    check.add_argument("file")
    check.add_argument("--typed", action="store_true", help="also type-check bodies")
    check.add_argument(
        "--type-aware-overlap",
        action="store_true",
        help="use declarations to tighten the overlap check",
    )
    check.add_argument(
        "--untyped",
        action="store_true",
        help="admit undeclared constructors and skip exhaustiveness",
    )
    check.set_defaults(fn=cmd_check)

    comp = sub.add_parser("compile", help="emit decision trees per definition")
    comp.add_argument("file")
    comp.add_argument("--format", choices=("text", "json"), default="text")
    comp.add_argument("-o", "--output")
    comp.set_defaults(fn=cmd_compile)

    ev = sub.add_parser("eval", help="evaluate a definition applied to values")
    ev.add_argument("file")
    ev.add_argument("--entry", required=True)
    ev.add_argument("--args", default="")
    ev.add_argument("--fuel", type=int, default=semantics.DEFAULT_FUEL)
    ev.set_defaults(fn=cmd_eval)

    norm = sub.add_parser("norm", help="print normal forms of a pattern")
    norm.add_argument("--pattern", required=True)
    norm.add_argument("--stage", choices=("nnf", "dnf", "ndnf"), default="ndnf")
    norm.set_defaults(fn=cmd_norm)

    fuzz = sub.add_parser("fuzz", help="run the property suites")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--depth", type=int, default=3)
    fuzz.add_argument("--cases", type=int, default=200)
    fuzz.add_argument(
        "--suite", choices=("all", "algebra", "compile", "exhaustive"), default="all"
    )
    fuzz.set_defaults(fn=cmd_fuzz)
    return ap


ARGVS = [
    # every command, with options before and after the file
    ["check", "f.pat"],
    ["check", "--untyped", "f.pat", "--typed", "--type-aware-overlap"],
    ["compile", "f.pat", "--format", "json", "-o", "out.json"],
    ["eval", "f.pat", "--entry", "last", "--args", "Cons(T, Nil)", "--fuel", "50"],
    ["norm", "--pattern", "x & !(Sa|Su)", "--stage", "dnf"],
    ["fuzz"],
    ["fuzz", "--seed", "3", "--depth", "4", "--cases", "10", "--suite", "algebra"],
    # `=` forms, `-oFILE` and prefixes
    ["compile", "--format=json", "f.pat", "--output=out.json"],
    ["compile", "f.pat", "-oout.txt"],
    ["compile", "f.pat", "-o=out.txt"],
    ["compile", "f.pat", "--out", "x", "--form", "text"],
    ["eval", "--entry=main", "f.pat", "--fu=7"],
    ["norm", "--pat", "!x", "--st=nnf"],
    ["fuzz", "--se", "1", "--su", "compile", "--c", "5"],
    ["check", "f.pat", "--un"],
    # values that start with `-`, a repeated option, and `--`
    ["eval", "f.pat", "--entry", "f", "--fuel", "-5", "--args", "-x y"],
    ["eval", "f.pat", "--entry", "f", "--entry", "g"],
    ["check", "--", "-odd.pat"],
    ["check", "f.pat", "--"],
    # a missing --entry or --pattern, or a missing value
    ["eval", "f.pat"],
    ["eval"],
    ["norm"],
    ["norm", "--pattern"],
    ["compile", "f.pat", "-o"],
    ["eval", "f.pat", "--entry", "--fuel", "3"],
    # a bad --format or --suite, a non-integer --fuel
    ["compile", "f.pat", "--format", "xml"],
    ["fuzz", "--suite", "bogus"],
    ["eval", "f.pat", "--entry", "f", "--fuel", "ten"],
    ["eval", "f.pat", "--entry", "f", "--fuel=1.5"],
    # unknown commands and options, ambiguous prefixes, extra positionals
    [],
    ["frobnicate"],
    ["check", "f.pat", "--bogus"],
    ["--typed", "check", "f.pat"],
    ["check", "f.pat", "-x"],
    ["check", "f.pat", "--type"],
    ["fuzz", "--s", "1"],
    ["check", "f.pat", "--typed=yes"],
    ["check", "f.pat", "g.pat"],
    ["norm", "--pattern", "x", "extra"],
    ["fuzz", "--"],
    ["check", "f.pat", "--typed", "--"],
    # -h and --help, which win over errors found later but not earlier
    ["-h"],
    ["--help", "frobnicate"],
    ["check", "-h"],
    ["eval", "f.pat", "--he"],
    ["compile", "--bogus", "-h", "--format", "xml"],
    ["compile", "--format", "xml", "-h"],
    ["check", "-h", "--type"],
]


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_main_reads_argv_as_argparse_does(argv, monkeypatch, capsys):
    try:
        ns = build_arg_parser().parse_args(argv)
    except SystemExit as err:
        want = err.code
    else:
        want = (ns.command, {k: v for k, v in vars(ns).items() if k not in ("command", "fn")})
    capsys.readouterr()
    ran = []
    for command in cli.COMMANDS:
        record = lambda args, command=command: ran.append((command, vars(args))) or 0
        monkeypatch.setattr(cli, f"cmd_{command}", record)
    code = main(argv)
    out = capsys.readouterr()
    if isinstance(want, tuple):
        assert (code, ran, out.err) == (0, [want], "")
    elif want == 0:
        assert (code, ran, out.err) == (0, [], "")
        assert out.out.startswith("usage: patc")
    else:
        assert (code, ran, out.out) == (2, [], "")
        assert out.err.startswith("usage: patc") and "\npatc: error: " in out.err


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_lists_every_option(command, capsys):
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit):
        build_arg_parser().parse_args(argv)
    reference = capsys.readouterr().out
    listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", reference))
    if command is None:
        listed |= set(cli.COMMANDS)
    assert main(argv) == 0
    out = capsys.readouterr().out
    words = set(re.split(r"[\s,\[\]{}]+", out))
    assert listed - words == set()


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_rows_keep_option_and_help_apart(command, capsys):
    # Each row is the option, at least two spaces, and its help, however
    # wide the option: `--suite all|algebra|compile|exhaustive` is wider
    # than the column the help starts in.
    assert main([command, "-h"] if command else ["-h"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    _, _, options = cli.COMMANDS[command] if command else (None, None, ())
    want = [about or f"default {default!r}" for _, _, default, about in (cli._HELP, *options)]
    if command is None:
        want += [about for about, _, _ in cli.COMMANDS.values()]
    shown = [re.fullmatch(r"  (\S+(?: \S+)*)  +(\S.*)", row) for row in rows]
    assert None not in shown, rows
    assert [m.group(2) for m in shown] == want
