"""Parse errors name the line and column of the token that stops the
parser: only `\\n` starts a line, any other character (a tab or `\\r` too)
is one column, and the end of a source that ends in a `--` comment sits
where the comment starts.  Parsing reads the source once, so its cost is
linear in the number of definitions."""

import sys

import pytest

from patalg.parser import ParseError, parse, parse_expr, parse_pattern


def _many(n: int) -> str:
    return "".join(f"def f{i}(x) := x;\n" for i in range(n))


POSITIONS = [
    (parse, "data B = T | F;\ndef f(x) := x -- c", (2, 15, "expected ';', found ''")),
    (parse, "data B = T;\r\n\t @", (2, 3, "unexpected character '@'")),
    (parse, "data B = T;\ndef f$g(x) := x;\n", (2, 5, "identifiers containing $ are reserved")),
    (parse_pattern, "-- only a comment", (1, 1, "expected a pattern, found ''")),
    (parse_expr, "-- only a comment\n", (2, 1, "expected an expression, found ''")),
    (
        parse,
        "data B = T | F;\ndef f(x) := case x of { T => T F => F, default => F };\n",
        (2, 32, "expected ',', found 'F'"),
    ),
    (parse, "data B = T; -- c\ndef", (2, 4, "definition names start lowercase")),
    (parse, "data B = T;\r\n\tdef f(x) := x;\r\n  def", (3, 6, "definition names start lowercase")),
    (parse_pattern, "T |\t", (1, 5, "expected a pattern, found ''")),
    (parse, _many(8000) + "def f0(x) := x;\n", (8001, 1, "definition f0 declared twice")),
    (parse, _many(8000) + "main := f1(\t@", (8001, 13, "unexpected character '@'")),
    (parse, _many(8000) + "main := f1(T) -- end", (8001, 15, "expected ';', found ''")),
]


@pytest.mark.parametrize("entry, source, want", POSITIONS, ids=range(len(POSITIONS)))
def test_parse_error_position(entry, source, want):
    with pytest.raises(ParseError) as err:
        entry(source)
    assert (err.value.line, err.value.col, err.value.message) == want
    assert str(err.value) == "{}:{}: {}".format(*want)


def test_a_comment_alone_is_an_empty_program():
    prog = parse("-- only a comment")
    assert (prog.defs, prog.main) == ((), None)


def _parse_calls(source: str) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        parse(source)
    finally:
        sys.setprofile(None)
    return calls


def test_parsing_is_linear_in_the_number_of_definitions():
    small, large = _parse_calls(_many(2000)), _parse_calls(_many(8000))
    assert large <= 4.5 * small, (small, large)
