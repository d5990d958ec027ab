"""One decision diagram answers overlap and exhaustiveness.

`overlap.decide` on source patterns agrees with the pairwise reference
loop on their normal forms in the open world, and with declarations it
differs only where the reference's answer depends on how a pattern is
written.  The diagram-based `exhaustiveness.useful_witness` agrees with
the usefulness recursion and with brute force on generated inputs and on
truth tables, and its witness is the least value no row matches;
`DataDecls.least_value` agrees with the values of the exhaustive search."""

import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest
from helpers import decide_by_pairs, min_value_by_search, useful_by_recursion

from patalg import diagram, overlap
from patalg.compiler import MatrixRow
from patalg.exhaustiveness import (
    SignatureError,
    _matches,
    non_exhaustiveness_witness,
)
from patalg.normalize import Ndnf, ndnf_wildcard, to_ndnf
from patalg.oracle import enumerate_values, gen_pattern, random_pattern
from patalg.pretty import format_value
from patalg.suites import _TAUS, STANDARD_DECLS
from patalg.syntax import Absurd, And, Ctor, CtorName, Neg, Or, Wild, match_pos
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


def _read_back(d):
    """The pattern a diagram reads back as: the disjunction of its paths to
    the true sink, each the constructor pattern of the heads it tests, an
    `other` edge read as none of the constructors its test names."""

    def at(path, occ):
        head = path.get(occ)
        if head is None:
            return Wild()
        if type(head) is frozenset:
            return Neg(_any_of(Ctor(c, (Wild(),) * c.arity) for c in sorted(head, key=str)))
        args = (at(path, diagram.Occ(occ, head, i)) for i in range(head.arity))
        return Ctor(head, tuple(args))

    paths, todo = [], [(d, {})]
    while todo:
        node, path = todo.pop()
        if type(node) is diagram.Sink:
            if node.matches:
                paths.append(at(path, diagram.ROOT))
            continue
        named = frozenset(c for c, _ in node.edges)
        todo.extend((child, {**path, node.occ: c}) for c, child in node.edges)
        todo.append((node.other, {**path, node.occ: named}))
    return _any_of(paths)


def _any_of(patterns):
    out = None
    for p in patterns:
        out = p if out is None else Or(out, p)
    return Absurd() if out is None else out


def _canonical(a, b):
    """`a & b` as the pattern its diagram reads back as."""
    d = diagram.Table().pattern(And(a, b), diagram.ROOT)
    return _read_back(d)


def _by_conjuncts(p, decls) -> list:
    """The reference's answers on the conjuncts of `p` each alone, in an
    order that does not matter: [True] if one has a value, else the errors
    of those that raise, else [False]."""
    wild = to_ndnf(Wild())
    outcomes = [_outcome(decide_by_pairs, Ndnf((k,)), wild, decls) for k in to_ndnf(p).conjuncts]
    if True in outcomes:
        return [True]
    return [o for o in outcomes if o is not False] or [False]


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
                # Only the typed reading differs, and only where the
                # reference's answer depends on how the pattern is written
                # or on the order of its conjuncts: asked of each conjunct of
                # the equivalent pattern that the diagram of `a & b` reads
                # back as, it gives `decide`'s answer.
                assert decls is not None, (a, b)
                assert got in _by_conjuncts(_canonical(a, b), decls), (a, b)
                differ[type(want).__name__, type(got).__name__] += 1
            raised += isinstance(want, str)
            pairs += 1
    assert pairs >= 20_000 * 2 and raised >= 50
    # By cause: the reference raises on a ban set that spans two types
    # where another conjunct has a value ("str", "bool"); it finds a value
    # through an alternative whose constructor the rest of the pattern
    # types out, as in `(Sa | _) & !(F | T)` ("bool", "bool"); the form it
    # reads has a ban set of one type where the diagram's test names
    # constructors of two ("bool", "str"); or both raise, on different
    # constructor sets ("str", "str").
    assert differ == {("str", "bool"): 122, ("bool", "bool"): 3, ("bool", "str"): 1, ("str", "str"): 3}


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


def _least_uncovered(rows, taus):
    """The first value vector of `enumerate_values` at depth 2 that no row
    matches: over types with finitely many values, the least one."""
    pools = [enumerate_values(STANDARD_DECLS, t, 2) for t in taus]
    return next((vs for vs in itertools.product(*pools) if not _covered(rows, vs)), None)


def _why_witnesses_differ(rows, taus, col_types, got, want) -> str:
    if "$any" in " ".join(map(format_value, got + want)):
        return "$any"  # one side has no type for a position the other types
    if col_types and Named("BList") not in taus:
        assert got == _least_uncovered(rows, taus)
        return "least value"  # the reference's is a later one
    return "search order"  # the reference tries constructors in its own order


def test_exhaustiveness_agrees_with_usefulness_and_brute_force():
    rng = random.Random(21)
    single = multi = compared = 0
    differ: Counter = Counter()
    for i in range(6_000):
        taus = _COLUMNS[i % len(_COLUMNS)]
        rows = tuple(
            tuple(random_pattern(rng, STANDARD_DECLS, tau, rng.randint(0, 3)) for tau in taus)
            for _ in range(rng.randint(1, 4))
        )
        for col_types in (taus, None):
            if (pair := _compare(rows, taus, col_types)) is None:
                continue
            got, want = pair
            compared += 1
            if got != want:
                differ[_why_witnesses_differ(rows, taus, col_types, got, want), col_types is None] += 1
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
        ("$any", True): 454,
        ("least value", False): 94,
        ("search order", False): 135,
        ("search order", True): 64,
    }


def test_witness_is_the_least_value_no_row_matches():
    """Over the types with finitely many values, the witness is the first
    value of `enumerate_values`, which lists them in declaration order of
    the heads and then of the arguments, left to right, that no row
    matches; with two columns, the first such pair.  So it depends on
    neither the order of the rows nor how they are written."""
    rng = random.Random(5)
    witnesses = 0
    columns = [(t,) for t in _TAUS if t != Named("BList")] + [(Named("B"), Named("Color"))]
    for i in range(3_000):
        taus = columns[i % len(columns)]
        rows = [
            tuple(random_pattern(rng, STANDARD_DECLS, t, rng.randint(0, 3)) for t in taus)
            for _ in range(rng.randint(1, 4))
        ]
        want = _least_uncovered(rows, taus)
        got = non_exhaustiveness_witness(tuple(rows), STANDARD_DECLS, taus)
        assert got == want, rows
        shuffled = rows[::-1]
        rewritten = [tuple(Neg(Neg(p)) for p in row) for row in shuffled]
        assert non_exhaustiveness_witness(tuple(rewritten), STANDARD_DECLS, taus) == want
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
