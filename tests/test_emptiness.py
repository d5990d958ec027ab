"""One emptiness search answers overlap and exhaustiveness.

`overlap.decide` on source patterns agrees with the pairwise reference
loop on their normal forms, and the
complement-based `exhaustiveness.useful_witness` with the usefulness
recursion and with brute force, on generated inputs and on truth tables;
`DataDecls.least_value` agrees with the values of the exhaustive search."""

import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest
from helpers import decide_by_pairs, inhabitant, min_value_by_search, useful_by_recursion

from patalg import overlap
from patalg.compiler import MatrixRow
from patalg.exhaustiveness import (
    SignatureError,
    _matches,
    non_exhaustiveness_witness,
    useful_witness,
)
from patalg.normalize import ndnf_wildcard, to_ndnf
from patalg.oracle import _gen_pattern, enumerate_values, gen_pattern
from patalg.pretty import format_value
from patalg.suites import _TAUS, STANDARD_DECLS
from patalg.syntax import And, Ctor, CtorName, Neg, Wild, match_pos
from patalg.typecheck import DataDecls, Named

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


@pytest.fixture(scope="module")
def patterns():
    """Generated patterns of each standard type, and their negations."""
    out = {}
    for tau in _TAUS:
        ps = [gen_pattern(STANDARD_DECLS, tau, seed % 8, seed) for seed in range(300)]
        out[tau] = ps + [Neg(p) for p in ps]
    return out


def _outcome(decide, a, b, decls):
    try:
        return decide(a, b, decls)
    except overlap.OverlapTypeError as err:
        return str(err)


def _unpushed(a, b, decls):
    """`decide`'s answer from the search on `a & b` as it stands, with no
    conjunction pushed into constructors."""
    try:
        return useful_witness((), (And(a, b),), decls) is not None
    except SignatureError as err:
        shown = ", ".join(sorted(f"{c.name}/{c.arity}" for c in err.ctors))
        return f"banned constructors {shown} do not all belong to one declared type"


def test_decide_agrees_with_pairwise_reference(patterns):
    rng = random.Random(8)
    taus = list(patterns)
    pairs = raised = 0
    differ: Counter = Counter()
    for i in range(24_000):
        ta = taus[i % len(taus)]
        # A third of the pairs mix two types.
        tb = rng.choice(taus) if i % 3 == 0 else ta
        a, b = rng.choice(patterns[ta]), rng.choice(patterns[tb])
        for decls in (None, STANDARD_DECLS):
            want = _outcome(decide_by_pairs, to_ndnf(a), to_ndnf(b), decls)
            got = _outcome(overlap.decide, a, b, decls)
            if got != want:
                # The search on the pattern before the push agrees with the
                # reference: the push replaced a subpattern no value matches
                # by `#`, so the constructors only it named leave the ban
                # sets whose types are compared.
                assert _unpushed(a, b, decls) == want, (a, b, decls)
                differ[type(want).__name__, type(got).__name__, decls is None] += 1
            raised += isinstance(want, str)
            pairs += 1
    assert pairs >= 20_000 * 2 and raised >= 50
    # Only typed overlap can raise, so only it differs: the reference raises
    # where `decide` finds a value, or raises with a shorter ban set.
    assert differ == {("str", "bool", False): 51, ("str", "str", False): 3}


_COLUMNS = (
    (Named("Color"),),
    (Named("Day"),),
    (Named("BList"),),
    (Named("B"), Named("Color")),
    (Named("BPair"),),
    (Named("Color"), Named("BList")),
)


def _covered(rows, values) -> bool:
    return any(all(match_pos(p, v) for p, v in zip(row, values)) for row in rows)


def _compare(rows, taus, col_types):
    """The complement-based witness and the reference's, or None where the
    reference cannot type the columns; checks the verdicts agree and the
    witness matches no row."""
    cells = tuple(MatrixRow(tuple(to_ndnf(p) for p in row)) for row in rows)
    wild = tuple(ndnf_wildcard() for _ in taus)
    try:
        want = useful_by_recursion(cells, wild, STANDARD_DECLS, col_types)
    except SignatureError:
        return None
    got = non_exhaustiveness_witness(rows, STANDARD_DECLS, col_types)
    assert (got is None) == (want is None), (rows, col_types, got, want)
    if got is not None:
        assert not _covered(rows, got)
    return got, want


def _why_witnesses_differ(rows, got, want) -> str:
    if "$any" in " ".join(map(format_value, got + want)):
        return "$any"  # one side has no type for a position the other types
    if any(not to_ndnf(p).conjuncts for row in rows for p in row):
        return "unsatisfiable cell"  # the reference drops such rows' conjuncts
    return "clause order"  # the first alternative of a clause's complement


def test_exhaustiveness_agrees_with_usefulness_and_brute_force():
    rng = random.Random(21)
    single = multi = compared = 0
    differ: Counter = Counter()
    for i in range(6_000):
        taus = _COLUMNS[i % len(_COLUMNS)]
        rows = tuple(
            tuple(_gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3)) for tau in taus)
            for _ in range(rng.randint(1, 4))
        )
        for col_types in (taus, None):
            if (pair := _compare(rows, taus, col_types)) is None:
                continue
            got, want = pair
            compared += 1
            if got != want:
                differ[_why_witnesses_differ(rows, got, want), col_types is None] += 1
            if col_types and Named("BList") not in taus:
                # Depth 2 closes every value of the other types.
                pools = [enumerate_values(STANDARD_DECLS, t, 2) for t in taus]
                vectors = [(v,) for v in pools[0]] if len(taus) == 1 else [
                    (x, y) for x in pools[0] for y in pools[1]
                ]
                brute = all(_covered(rows, vec) for vec in vectors)
                assert brute == (got is None), rows
        single += len(taus) == 1
        multi += len(taus) > 1
    assert single >= 2000 and multi >= 2000 and compared == 12_000
    # Witness choice is output, so every difference from the reference is
    # counted by its cause (untyped runs are marked True).
    assert differ == {
        ("$any", True): 113,
        ("unsatisfiable cell", False): 64,
        ("unsatisfiable cell", True): 21,
        ("clause order", False): 17,
        ("clause order", True): 10,
    }


def test_witness_is_a_value_of_the_first_inhabited_conjunct():
    """The search finds, without building it, the first conjunct of the
    normal form of `_ & !r_1 & ... & !r_m` that has a value."""
    rng = random.Random(5)
    witnesses = 0
    for i in range(3_000):
        tau = _TAUS[i % len(_TAUS)]
        rows = [
            _gen_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3))
            for _ in range(rng.randint(1, 4))
        ]
        complement = Wild()
        for r in reversed(rows):
            complement = And(Neg(r), complement)
        values = (inhabitant(k, tau, STANDARD_DECLS) for k in to_ndnf(complement).conjuncts)
        want = next((v for v in values if v is not None), None)
        got = non_exhaustiveness_witness(tuple((r,) for r in rows), STANDARD_DECLS, (tau,))
        assert got == (None if want is None else (want,)), rows
        witnesses += want is not None
    assert witnesses >= 700


def _truth_tables():
    """Every clause set of all rows, or all rows but one, over records of
    booleans or colors: many rows over few positions."""
    for tau, ctors, width in (
        (Named("B"), ("T", "F"), 4),
        (Named("Color"), ("Red", "Green", "Blue"), 3),
    ):
        rows = [
            tuple(Ctor(CtorName(c, 0), ()) for c in combo)
            for combo in itertools.product(ctors, repeat=width)
        ]
        yield (tau,) * width, tuple(rows)
        for i in range(len(rows)):
            yield (tau,) * width, tuple(rows[:i] + rows[i + 1 :])


def test_truth_tables_agree_with_usefulness_in_time():
    start = time.process_time()
    cases = 0
    for taus, rows in _truth_tables():
        for col_types in (taus, None):
            got, want = _compare(rows, taus, col_types)
            assert got == want, (rows, col_types)
            cases += 1
    assert cases == 2 * (1 + 16 + 1 + 27)
    assert time.process_time() - start < 5


_HANDLES = "the default clause handles e.g."


def _table_program(ctors, width, drop=None) -> str:
    rows = list(itertools.product(ctors, repeat=width))
    if drop is not None:
        rows.pop(drop)
    clauses = "".join(f"    P({', '.join(r)}) => x,\n" for r in rows)
    return (
        f"data T = {' | '.join(ctors)};\ndata R = P({', '.join(['T'] * width)});\n"
        f"def f(x) :=\n  case x of {{\n{clauses}    default => x\n  }};\n"
    )


@pytest.mark.parametrize(
    "ctors, width, drop, note",
    [
        (("T", "F"), 4, None, "exhaustive"),
        (("Red", "Green", "Blue"), 3, None, "exhaustive"),
        (("T", "F"), 8, None, "exhaustive"),
        (("T", "F"), 8, 100, f"not exhaustive; {_HANDLES} P(T, F, F, T, T, F, T, T)"),
        (("Red", "Green", "Blue"), 5, 0, f"not exhaustive; {_HANDLES} P(Red, Red, Red, Red, Red)"),
    ],
)
def test_check_of_a_truth_table_is_quick(tmp_path, ctors, width, drop, note):
    (tmp_path / "table.pat").write_text(_table_program(ctors, width, drop))
    out = subprocess.run(
        [sys.executable, "-m", "patalg.cli", "check", "table.pat"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert out.returncode == 0, out.stderr
    assert f"clauses at <body> are {note}" in out.stdout


def test_witness_matcher_agrees_with_matching(patterns):
    for tau, ps in patterns.items():
        values = enumerate_values(STANDARD_DECLS, tau, 3)
        for p in ps[::4]:
            for v in values:
                assert _matches(p, v) == bool(match_pos(p, v)), (p, v)


def _random_decls(rng):
    names = [f"T{i}" for i in range(rng.randint(1, 4))]
    table = {}
    for t, name in enumerate(names):
        ctors = []
        for c in range(rng.randint(1, 3)):
            arity = rng.choice((0, 0, 1, 2, 2))
            ctors.append(
                (
                    CtorName(f"C{t}_{c}", arity),
                    tuple(Named(rng.choice(names)) for _ in range(arity)),
                )
            )
        table[name] = tuple(ctors)
    return DataDecls(table)


def test_least_values_agree_with_search():
    rng = random.Random(11)
    types = empty = 0
    for _ in range(600):
        decls = _random_decls(rng)
        for name in decls.types:
            try:
                want = min_value_by_search(decls, Named(name))
            except ValueError:
                want = None
            assert decls.least_value(Named(name)) is want
            types += 1
            empty += want is None
    assert types >= 1200 and empty >= 20


def test_many_binary_constructors_give_a_least_witness_at_once(tmp_path):
    ctors = " | ".join(f"C{i}(T, T)" for i in range(8))
    (tmp_path / "wide.pat").write_text(
        f"data T = Z | {ctors};\ndef f(x: T) := case x of {{ Z => Z, default => Z }};\n"
    )
    out = subprocess.run(
        [sys.executable, "-m", "patalg.cli", "check", "wide.pat"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert out.returncode == 0, out.stderr
    assert "the default clause handles e.g. C0(Z, Z)" in out.stdout
