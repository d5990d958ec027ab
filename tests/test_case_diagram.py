"""`check` and `compile` read each case off decision diagrams: `check`
notes dead clauses, its output depends on the set of clauses and not on
their order, and the cost of both grows no faster than the diagrams on the
families where the earlier procedures had cliffs, or where one diagram of
the whole case would.  `eval` of a walk down a list costs linear time in
the list."""

import itertools
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

from test_machine import WALK, _list
from test_shared_trees import _orprod

from patalg import oracle
from patalg.cli import main
from patalg.pretty import format_pattern, format_value
from patalg.suites import STANDARD_DECLS
from patalg.syntax import Neg
from patalg.typecheck import Named

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

DEAD = (
    "data Color = Red | Green | Blue;\n"
    "def f(x: Color) := case x of { Red => Red, !Red & !Green & !Blue => Red, default => Green };\n"
)


def _check(tmp_path, capsys, text, *flags):
    path = tmp_path / "prog.pat"
    path.write_text(text)
    code = main(["check", str(path), *flags])
    return code, capsys.readouterr().out.replace(f"{path}: ", "")


@pytest.mark.parametrize("flags", [(), ("--typed",), ("--typed", "--type-aware-overlap")])
def test_dead_clause_is_noted(tmp_path, capsys, flags):
    code, out = _check(tmp_path, capsys, DEAD, *flags)
    assert code == 0
    assert out == (
        "def f: note: clauses at <body> are not exhaustive; the default clause handles e.g. Green\n"
        "def f: note: clause !Red & !Green & !Blue at <body> matches no value\n"
        "ok\n"
    )


def test_open_world_dead_clause_is_noted(tmp_path, capsys):
    # With no constructor at the root to type the scrutinee, a clause is
    # dead only where no value at all matches it.
    text = "def f(x) := case x of { x & !x => x, y => y, default => x };\n"
    code, out = _check(tmp_path, capsys, text, "--untyped")
    assert (code, out) == (0, "ok\n")
    code, out = _check(tmp_path, capsys, text)
    assert code == 0
    assert "def f: note: clause x & !x at <body> matches no value\n" in out


def test_case_with_no_clauses_is_noted(tmp_path, capsys):
    # No clause names a constructor, so the scrutinee's type is unknown.
    text = "data B = T | F;\ndef f(x: B) := case x of { default => x };\n"
    assert _check(tmp_path, capsys, text) == (
        0,
        "def f: note: clauses at <body> are not exhaustive; the default clause handles e.g. $any\nok\n",
    )


# --- clause order ------------------------------------------------------------


def _decls_text() -> str:
    lines = []
    for name, ctors in STANDARD_DECLS.types.items():
        alts = (
            c.name + (f"({', '.join(t.name for t in ats)})" if ats else "") for c, ats in ctors
        )
        lines.append(f"data {name} = {' | '.join(alts)};\n")
    return "".join(lines)


def _program(patterns) -> str:
    clauses = "".join(f"    {format_pattern(p)} => s,\n" for p in patterns)
    return f"{_decls_text()}def f(s) :=\n  case s of {{\n{clauses}    default => s\n  }};\n"


_VIOLATION = re.compile(r"^def f: \[(\S+)\] at [\d/]+: (.*)$")


def _outputs(tmp_path, capsys, patterns, flags):
    """`check`'s notes, in order, and its violations as a multiset, each a
    rule and the set of patterns it names (a clause's position is not
    part of it)."""
    _, out = _check(tmp_path, capsys, _program(patterns), *flags)
    notes = [line for line in out.splitlines() if " note: " in line]
    violations = Counter()
    for line in out.splitlines():
        if m := _VIOLATION.match(line):
            shown = m.group(2)
            pair = re.match(r"clause patterns (.*) and (.*) (overlap|cannot be compared.*)$", shown)
            if pair:
                shown = (frozenset(pair.group(1, 2)), pair.group(3))
            violations[m.group(1), shown] += 1
    return notes, violations


def test_check_output_does_not_depend_on_clause_order(tmp_path, capsys):
    rng = random.Random(15)
    taus = [Named(t) for t in ("Color", "Day", "B", "BPair", "BList")]
    seen = Counter()
    for seed in range(120):
        tau = taus[seed % len(taus)]
        if seed % 2:
            patterns = [c.pattern for c in oracle.gen_case(STANDARD_DECLS, tau, seed, 5).clauses]
        else:  # clauses that overlap, and raise under typed overlap
            patterns = [
                oracle.gen_pattern(STANDARD_DECLS, rng.choice(taus[:3]), rng.randint(0, 3), seed * 10 + k)
                for k in range(rng.randint(2, 5))
            ]
            patterns = [Neg(p) if rng.random() < 0.3 else p for p in patterns]
        shuffled = list(patterns)
        rng.shuffle(shuffled)
        for flags in ((), ("--type-aware-overlap",)):
            notes, violations = _outputs(tmp_path, capsys, patterns, flags)
            assert (notes, violations) == _outputs(tmp_path, capsys, shuffled, flags), patterns
            seen.update(v[0] for v in violations)
            seen["witness"] += any("e.g." in n for n in notes)
    assert seen["overlap"] > 20 and seen["overlap-type"] > 0 and seen["witness"] > 50


def test_mkpair_witness_does_not_depend_on_clause_order(tmp_path, capsys):
    head = "data B = T | F;\ndata P = MkPair(B, B);\ndef f(x) := case x of { "
    for clauses in ("MkPair(F, F) => T, MkPair(T, F) => F", "MkPair(T, F) => F, MkPair(F, F) => T"):
        code, out = _check(tmp_path, capsys, head + clauses + ", default => T };\n")
        assert (code, out) == (
            0,
            "def f: note: clauses at <body> are not exhaustive; the default clause handles "
            "e.g. MkPair(T, T)\nok\n",
        )


# --- cost contract --------------------------------------------------------------
#
# Python calls that an in-process `check` makes, counted by `sys.setprofile`,
# at three sizes of each family.  The emptiness search, the head index and
# the overlap query fold each had a cliff on one of them: the truth table's
# counts grew as rows^1.90 after the head index stopped separating its rows,
# first-match grew exponentially in n, and the complement as k^2.  A case
# diagram whose sinks are sets of clauses has 2^n sinks on the independent
# columns, and the complement of clauses told apart only at the last
# column has 2^n nodes, so the witness must not build it.  Counts do not
# depend on the host, so the budgets can be tight: about 1.5 times the
# counts measured when they were set, and an exponent fitted from the
# smallest and largest size (`exponent`) at most the one given.  Each
# family is counted in a fresh interpreter (`_fresh_counts`), and each
# count starts from a cold diagram table, so that no count depends on the
# pattern facts, overlap answers or diagrams that earlier tests left.


def _table(rows: int) -> str:
    width = rows.bit_length() - 1
    clauses = "".join(
        f"    P({', '.join(r)}) => x,\n" for r in itertools.product(("T", "F"), repeat=width)
    )
    return (
        f"data B = T | F;\ndata R = P({', '.join(['B'] * width)});\n"
        f"def f(x) :=\n  case x of {{\n{clauses}    default => x\n  }};\n"
    )


def _first_match(n: int) -> str:
    def p(i):
        args = ["_"] * (n + 1)
        args[i], args[i + 1] = "T", "F"
        return f"Q({', '.join(args)})"

    clauses = [p(i) + (f" & !({' | '.join(map(p, range(i)))})" if i else "") for i in range(n)]
    return (
        f"data B = T | F;\ndata R = Q({', '.join(['B'] * (n + 1))});\n"
        f"def f(x) := case x of {{ {', '.join(c + ' => T' for c in clauses)}, default => F }};\n"
    )


def _complement(k: int) -> str:
    deep = "S(" * k + "Z" + ")" * k
    return f"data N = Z | S(N);\ndef f(x: N) := case x of {{ {deep} => Z, !{deep} => S(Z), default => Z }};\n"


def _clauses(p, n: int) -> str:
    return ", ".join(f"{p(i)} => T" for i in range(n))


def _independent(n: int) -> str:
    def p(i):
        args = ["_"] * n
        args[i] = "T"
        return f"P({', '.join(args)})"

    return (
        f"data B = T | F;\ndata R = P({', '.join(['B'] * n)});\n"
        f"def f(x) := case x of {{ {_clauses(p, n)}, default => F }};\n"
    )


def _apart_last(n: int) -> str:
    def p(i):
        args = ["_"] * n + [f"K{i}"]
        args[i] = "T"
        return f"P({', '.join(args)})"

    ks = " | ".join(f"K{i}" for i in range(n + 1))
    return (
        f"data B = T | F;\ndata K = {ks};\ndata R = P({', '.join(['B'] * n)}, K);\n"
        f"def f(x) := case x of {{ {_clauses(p, n)}, default => F }};\n"
    )


def _apart_last_untyped(n: int) -> str:
    """`_apart_last` with no declarations: `check` reports the undeclared
    constructors and exits 1, after the witness walk has built the
    complements' diagram at an occurrence of unknown type."""
    text = _apart_last(n)
    return text[text.index("def ") :]


# family: (program, sizes, budget of calls at each size, exponent, exit
# code).  Counted in a fresh interpreter on CPython 3.11: 5,456 / 11,774 /
# 25,564 (exponent 1.11), 3,793 / 8,328 / 15,431 (2.02; the source text
# grows as n^3), 12,855 / 25,255 / 50,055 (0.98), 3,848 / 11,796 / 40,940
# (1.71; every pair of clauses overlaps, so the report grows as n^2) and
# 5,564 / 16,539 / 56,132 (1.67; the text grows as n^2).  The budgets are
# about 1.5 times these, but first-match's at n=6 and n=8, which no count has
# raised.  The untyped family's budgets are 1.5 times its count at n=4
# (2,258), grown as n^1.8, and its count grows exponentially: 2,258 /
# 16,466 / 230,401.
FAMILIES = {
    "truth table": (_table, (16, 32, 64), (8_200, 17_700, 38_300), 1.3, 0),
    "first-match": (_first_match, (4, 6, 8), (5_700, 12_300, 22_000), 2.2, 0),
    "complement": (_complement, (100, 200, 400), (19_300, 37_900, 75_100), 1.2, 0),
    "independent": (_independent, (8, 16, 32), (5_800, 17_700, 61_400), 1.8, 1),
    "apart last": (_apart_last, (8, 16, 32), (8_300, 24_800, 84_200), 1.8, 0),
    "apart last, untyped": (_apart_last_untyped, (4, 8, 12), (3_400, 11_800, 24_500), 1.8, 1),
}
# The witness walk builds the intersection of the complements where an
# occurrence's type is unknown, and that diagram has 2^n nodes here.
SLOW = {"apart last, untyped": "the complements' diagram is built untyped (ROADMAP item 23)"}


# Counts each run in the interpreter it starts: a run is `main`'s argv,
# or ("compile_case", path) for `compile_case` of the first definition in
# the file at path, and its diagram table starts empty.  The imports are
# those of a `patc` start.
_COUNT = """
import io
import sys

from patalg import diagram
from patalg.cli import main
from patalg.compiler import compile_case
from patalg.parser import parse


def counted(run):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    diagram.table = diagram.Table()
    sys.stdout = io.StringIO()
    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        sys.stdout = sys.__stdout__
    return calls, result


for argv in (arg.split("\\n") for arg in sys.argv[1:]):
    if argv[0] == "compile_case":
        with open(argv[1], encoding="utf-8") as fh:
            body = parse(fh.read()).defs[0].body
        print(counted(lambda: compile_case(body))[0], 0)
    else:
        print(*counted(lambda: main(argv)))
"""


def _fresh_counts(runs) -> list:
    """(calls, exit code) of each run, counted in one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _COUNT, *("\n".join(r) for r in runs)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return [tuple(map(int, line.split())) for line in out.stdout.splitlines()]


def _files(tmp_path, program, sizes) -> list:
    paths = []
    for n in sizes:
        path = tmp_path / f"{n}.pat"
        path.write_text(program(n))
        paths.append(str(path))
    return paths


def _within_budget(counted, sizes, budgets, most, code=0):
    counts = [calls for calls, _ in counted]
    assert [c for _, c in counted] == [code] * len(sizes)
    exponent = math.log(counts[-1] / counts[0]) / math.log(sizes[-1] / sizes[0])
    assert all(c <= b for c, b in zip(counts, budgets)), (counts, budgets)
    assert exponent <= most, (counts, exponent)


@pytest.mark.parametrize(
    "family",
    [
        pytest.param(f, marks=pytest.mark.xfail(strict=True, reason=SLOW[f])) if f in SLOW else f
        for f in sorted(FAMILIES)
    ],
)
def test_check_cost_stays_within_budget(tmp_path, family):
    program, sizes, budgets, most, code = FAMILIES[family]
    counted = _fresh_counts([("check", p) for p in _files(tmp_path, program, sizes)])
    _within_budget(counted, sizes, budgets, most, code)


def test_counts_do_not_depend_on_the_process(tmp_path):
    # A split reads its occurrences as a set, so the calls it makes do not
    # follow the order in which a frozenset of diagrams iterates, which
    # follows their addresses.
    check, compile_ = _files(tmp_path, _apart_last, (32, 12))
    runs = [("check", check), ("compile_case", compile_)]
    assert _fresh_counts(runs) == _fresh_counts(runs)


# `check --typed` of a chain of definitions that nothing recurses in: `g_i`
# calls `g_{i-1}` twice, and an ill-typed `bad` calls `g_n`.  Unfolding
# the calls would type 2^n bodies; the `Call` rule types each definition
# once per parameter types.  Counted as `check` is above: 1,832 / 3,180 /
# 5,876 (exponent 0.84) on CPython 3.11; the budgets are about 1.5 times
# these.
TYPED_CHAIN = ((4, 8, 16), (2_750, 4_770, 8_810), 1.0)


def _typed_chain(n: int) -> str:
    calls = "".join(
        f"def g{i}(x: B) := case x of {{ T => g{i - 1}(x), default => g{i - 1}(F) }};\n"
        for i in range(1, n + 1)
    )
    return (
        f"data B = T | F;\ndata C = K(B);\ndef g0(x: B) := x;\n{calls}"
        f"def bad(x: B) := case x of {{ T => g{n}(x), default => K(x) }};\n"
    )


def test_typed_check_cost_stays_within_budget(tmp_path, capsys):
    sizes, budgets, most = TYPED_CHAIN
    paths = _files(tmp_path, _typed_chain, sizes)
    for path in paths:
        assert main(["check", "--typed", path]) == 1
        out = capsys.readouterr().out
        assert f"{path}: def bad: type error: default result type C differs from B\n" in out
        assert "recursive definition" not in out
    counted = _fresh_counts([("check", "--typed", p) for p in paths])
    _within_budget(counted, sizes, budgets, most, code=1)


# `compile_case`, counted as `check` is above, on the parsed case: the
# printers expand the DAG (ROADMAP item 6), so `patc compile` would count
# the output.  Counted 1,233 / 2,313 / 4,857 (exponent 0.98), 12,399 /
# 21,899 / 43,599 (0.91) and 2,514 / 10,746 / 58,522 (2.27; the source
# text grows as n^3) on CPython 3.11; the budgets are about 1.5 times the
# counts when they were set, 1,268 / 2,380 / 4,988, 12,700 / 22,500 /
# 44,800 and 2,534 / 10,782 / 58,590.  Preorder tests the B columns of
# "apart last" before its K column, so its case diagram has 2^n nodes:
# about 2,120 / 25,400 / 435,000 calls.  Its budgets are 1.5 times the
# count at n=4, grown as n^2.
COMPILE_FAMILIES = {
    "or-product": (_orprod, (8, 16, 32), (1_900, 3_500, 7_300), 1.25),
    "complement": (_complement, (100, 200, 400), (18_600, 32_900, 65_400), 1.15),
    "first-match": (_first_match, (4, 8, 16), (3_800, 16_100, 87_800), 2.6),
    "apart last": (_apart_last, (4, 8, 12), (3_250, 13_000, 29_200), 2.0),
}
SLOW_COMPILE = {"apart last": "preorder tests K last, so the case diagram has 2^n nodes (ROADMAP item 23)"}


@pytest.mark.parametrize(
    "family",
    [
        pytest.param(f, marks=pytest.mark.xfail(strict=True, reason=SLOW_COMPILE[f]))
        if f in SLOW_COMPILE
        else f
        for f in sorted(COMPILE_FAMILIES)
    ],
)
def test_compile_cost_stays_within_budget(tmp_path, family):
    program, sizes, budgets, most = COMPILE_FAMILIES[family]
    counted = _fresh_counts([("compile_case", p) for p in _files(tmp_path, program, sizes)])
    _within_budget(counted, sizes, budgets, most)


# `patc eval` of `len` and `last`, the definitions of the benchmark's
# `listwalk` (`test_machine.WALK`), on a list of n elements, counted as
# `check` is above.  Counted 5,145 / 8,585 / 16,578 (exponent 0.84) for
# `len` and 6,691 / 9,785 / 18,963 (0.75) for `last` on CPython 3.11;
# the budgets are about 1.5 times these, below the counts of a machine
# that substitutes into each right-hand side and body (10,387 at `len`
# n=100).
EVAL_FAMILIES = {
    "len": ((100, 200, 400), (7_700, 12_900, 24_900), 1.15),
    "last": ((100, 200, 400), (9_900, 14_700, 28_400), 1.15),
}


@pytest.mark.parametrize("entry", sorted(EVAL_FAMILIES))
def test_eval_cost_stays_within_budget(tmp_path, entry):
    sizes, budgets, most = EVAL_FAMILIES[entry]
    path = tmp_path / "walk.pat"
    path.write_text(WALK)
    runs = [
        ("eval", str(path), "--entry", entry, "--args", format_value(_list(n))) for n in sizes
    ]
    _within_budget(_fresh_counts(runs), sizes, budgets, most)
