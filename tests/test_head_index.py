"""The head split and the one-pass facts: the overlap check splits a
case's clauses on their heads and decides the pairs left one at a time
on their decision diagrams, the matrix core specializes a column for
every constructor in one pass, and the wellformedness facts of a pattern
come from one post-order pass.  Each is checked against the reference it
replaces (`helpers`) and for its cost on wide inputs."""

import itertools
import random
import re
from collections import Counter

import pytest

from helpers import (
    cn,
    deterministic_by_recursion,
    linear_neg_by_recursion,
    linear_pos_by_recursion,
    pattern_matrix,
    specialize_rows,
    wf_expr_all_pairs,
    wf_matrix_all_pairs,
)

from patalg import diagram, oracle, overlap, wellformed
from patalg.compiler import ClauseMatrix, MatrixRow, head_ctors, specialize_each
from patalg.exhaustiveness import overlapping_pairs, overlaps
from patalg.normalize import to_ndnf
from patalg.overlap import OverlapTypeError
from patalg.semantics import Clause, ECase, EVar, Evaluated
from patalg.suites import STANDARD_DECLS
from patalg.syntax import (
    Absurd,
    And,
    Ctor,
    CtorName,
    Neg,
    Or,
    Value,
    Var,
    Wild,
    fv_even,
    fv_odd,
)
from patalg.typecheck import Named, signature_of
from patalg.wellformed import Violation

TAUS = ("Color", "Day", "B", "BPair", "BList")


def _outcome(check, e, decls):
    """The report's violations, or the exception a check raised."""
    try:
        return check(e, decls).violations
    except OverlapTypeError as err:
        return ("OverlapTypeError", str(err))


def _typed_differences(e) -> list:
    """Checks `wf_expr` against the all-pairs reference, and returns the
    violations that differ with declarations, as (pair, rule, reference's
    rule).  In the open world the reports are equal.  Typed, they hold the
    same violations in the same order but where `wf_expr` decides a pair
    of clauses its own way (`test_emptiness` counts the pairs by cause):
    there each names the same pair at the same path."""
    assert _outcome(wellformed.wf_expr, e, None) == _outcome(wf_expr_all_pairs, e, None)
    got = _outcome(wellformed.wf_expr, e, STANDARD_DECLS)
    want = _outcome(wf_expr_all_pairs, e, STANDARD_DECLS)
    if got == want:
        return []
    assert len(got) == len(want), (got, want)
    out = []
    for g, w in zip(got, want):
        if g != w:
            pair = re.match(r"clause patterns (.*?) (overlap$|cannot be compared)", g.message)
            named = f"clause patterns {pair.group(1)} " if pair else None
            assert named and g.path == w.path and w.message.startswith(named), (g, w)
            out.append((pair.group(1), g.rule, w.rule))
    return out


def _case(patterns, rhs=None):
    rhs = rhs if rhs is not None else Value(cn("T"), ())
    return ECase(EVar("s"), tuple(Clause(p, rhs) for p in patterns), Value(cn("F"), ()))


def test_wf_expr_agrees_with_all_pairs_on_generated_cases():
    for seed in range(300):
        tau = Named(TAUS[seed % len(TAUS)])
        assert _typed_differences(oracle.gen_case(STANDARD_DECLS, tau, seed, max_clauses=4)) == []


def test_wf_expr_agrees_with_all_pairs_on_mixed_clauses():
    """Unfiltered patterns overlap, bind nonlinearly and misbehave under
    determinism; cases of one type and of several types (whose negative
    pairs are reported in typed mode), nested in right-hand sides too."""
    rng = random.Random(7)
    seen = Counter()
    differ = Counter()
    for seed in range(300):
        taus = [TAUS[seed % len(TAUS)]] if seed % 3 else rng.sample(TAUS, 2)
        patterns = []
        for k in range(rng.randint(1, 6)):
            tau = Named(rng.choice(taus))
            p = oracle.gen_pattern(STANDARD_DECLS, tau, rng.randint(0, 4), seed * 10 + k)
            patterns.append(Neg(p) if rng.random() < 0.3 else p)
        inner = _case(patterns[:2])
        e = _case(patterns, inner if seed % 2 else None)
        differ.update(_typed_differences(e))
        for decls in (None, STANDARD_DECLS):
            outcome = _outcome(wellformed.wf_expr, e, decls)
            seen.update(v.rule for v in outcome if isinstance(v, Violation))
    # The mix reaches every rule, the typed report of ban sets that span
    # two types included, so the agreement above is not vacuous.
    assert {"overlap", "overlap-type", "nonlinear", "nondeterministic"} <= set(seen)
    # Two pairs that `wf_expr` finds overlap where the reference reports ban
    # sets of two types: `!(Sa & Tu)` and `!T`, where the reference bans Sa
    # and T together and the diagram reads `!(Sa & Tu)` as every value; and
    # `!MkPair(_, T)` and `!((# | z) & F)`, where the least-value walk finds
    # `MkPair($any, F)` before it types the `other` edge.
    assert differ == {
        ("!(Sa & Tu) and !T", "overlap", "overlap-type"): 1,
        ("!MkPair(_, T) and !((# | z) & F)", "overlap", "overlap-type"): 1,
    }


def test_wf_expr_agrees_on_hand_built_conjunct_mixes():
    red, green, blue = (Ctor(cn(c), ()) for c in ("Red", "Green", "Blue"))
    x = Var("x")
    cases = [
        # positive, negative and unsatisfiable conjuncts side by side
        [red, Neg(red), And(red, Neg(red)), green, Or(blue, Neg(Or(red, green))), x],
        [Absurd(), Absurd(), red, And(x, Neg(red)), And(Var("y"), Neg(green)), blue],
        [Or(red, green), Neg(Or(red, green)), Or(green, blue), Wild()],
        [And(Neg(red), Neg(green)), Neg(blue), red, Neg(Or(Or(red, green), blue))],
    ]
    for patterns in cases:
        assert _typed_differences(_case(patterns)) == []


def test_typed_negative_pairs_are_reported_at_their_pairs():
    red, green = Ctor(cn("Red"), ()), Ctor(cn("Green"), ())
    mo, tu = Ctor(cn("Mo"), ()), Ctor(cn("Tu"), ())
    # (1, 2) is the first pair whose ban sets span two types; (3, 4) spans
    # them with another message.  Each pair is reported where it is, and
    # the pairs after it are still decided.
    e = _case([red, Neg(red), Neg(mo), Neg(Or(green, tu)), Neg(tu)])
    report = wellformed.wf_expr(e, STANDARD_DECLS)
    assert report.violations == wf_expr_all_pairs(e, STANDARD_DECLS).violations
    typed = [v for v in report.violations if v.rule == "overlap-type"]
    assert typed[0].path == (2,) and "Mo/0, Red/0" in typed[0].message
    assert any(v.path == (4,) for v in typed)


def test_overlapping_pairs_are_the_pairs_that_overlap():
    """The head split finds the pairs that deciding every pair finds, on
    generated clauses of one or two types, negated, or a conjunction or
    disjunction with the clause before, so that some share subpatterns."""
    found = 0
    for seed in range(800):
        rng = random.Random(seed)
        taus = [TAUS[seed % len(TAUS)]] if seed % 3 else rng.sample(TAUS, 2)
        patterns = []
        for k in range(rng.randint(1, 9)):
            tau = Named(rng.choice(taus))
            p = oracle.gen_pattern(STANDARD_DECLS, tau, rng.randint(0, 4), seed * 10 + k)
            pick = rng.random()
            if patterns and pick < 0.2:
                p = (And if pick < 0.1 else Or)(p, patterns[-1])
            patterns.append(Neg(p) if rng.random() < 0.25 else p)
        pairs = itertools.combinations(range(len(patterns)), 2)
        want = [(i, j) for i, j in pairs if overlaps(patterns[i], patterns[j])]
        assert overlapping_pairs(patterns) == want, patterns
        found += len(want)
    assert found > 3000


def _random_rows(rng, taus, seed):
    rows = []
    for r in range(rng.randint(0, 6)):
        cells = []
        for c, t in enumerate(taus):
            p = oracle.gen_pattern(
                STANDARD_DECLS, Named(t), rng.randint(0, 3), seed * 100 + r * 10 + c
            )
            cells.append(to_ndnf(p))
        rows.append(cells)
    return pattern_matrix(rows)


def test_specialize_each_equals_specialize_rows_per_constructor():
    combos = (("BList", "B"), ("Color", "BPair"), ("BPair", "BList"), ("Day", "Color"))
    for seed in range(200):
        rng = random.Random(seed)
        taus = combos[seed % len(combos)]
        rows = _random_rows(rng, taus, seed)
        for col in (0, 1):
            heads = head_ctors([row.cells[col] for row in rows])
            sig = [c for c, _ in signature_of(Named(taus[col]), STANDARD_DECLS)]
            # the column's heads, other constructors of its type, and one
            # no row mentions
            ctors = list(dict.fromkeys([*sorted(heads, key=str), *sig, cn("Zz", 1)]))
            each = specialize_each(rows, col, ctors)
            assert list(each) == ctors
            for c in ctors:
                assert each[c] == specialize_rows(rows, col, c)


def test_wf_matrix_agrees_with_all_pairs_on_generated_matrices():
    """Every pair of rows is decided, and the verdicts and their order are
    those of the reference."""
    combos = (
        ("Color",),
        ("BList",),
        ("B", "Color"),
        ("BPair", "BList"),
        ("Day", "B", "BList"),
    )
    seen = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        taus = combos[seed % len(combos)]
        rows = tuple(
            MatrixRow(row.cells, Value(cn("T"), ())) for row in _random_rows(rng, taus, seed)
        )
        scrutinees = tuple(EVar(f"s{c}") for c in range(len(taus)))
        m = ClauseMatrix(scrutinees, rows, Value(cn("F"), ()))
        want = wf_matrix_all_pairs(m).violations
        assert wellformed.wf_matrix(m).violations == want
        seen.update(v.rule for v in want)
        seen["pairs"] += len(rows) * (len(rows) - 1) // 2
    # Rows overlap in some matrices and not in others.
    assert 0 < seen["overlap"] < seen["pairs"]
    # With no column, every pair of rows overlaps.
    m = ClauseMatrix((), (MatrixRow(()),) * 3, Value(cn("F"), ()))
    assert wellformed.wf_matrix(m).violations == wf_matrix_all_pairs(m).violations
    assert [v.path for v in wellformed.wf_matrix(m).violations] == [(0, 1), (0, 2), (1, 2)]


def test_pattern_facts_agree_with_recursive_definitions():
    for seed in range(600):
        tau = Named(TAUS[seed % len(TAUS)])
        p = oracle.gen_pattern(STANDARD_DECLS, tau, seed % 7, seed)
        facts = wellformed.pattern_facts(p)
        assert facts.linear_pos == linear_pos_by_recursion(p)
        assert facts.linear_neg == linear_neg_by_recursion(p)
        assert wellformed.linear_pos(p) == facts.linear_pos
        assert wellformed.linear_neg(p) == facts.linear_neg
        assert wellformed.deterministic(p) == deterministic_by_recursion(p)
        assert facts.fv_even == fv_even(p)
        assert facts.fv_odd == fv_odd(p)


def test_determinism_decides_side_conditions_in_recursion_order():
    """The first side condition that fails or raises is the recursion's:
    typed, `!Red & x | !Mo & x` raises (its sides' ban sets span two
    types), and `y | y` fails untyped and typed, so in a pair of the two
    the left one decides."""
    x, y = Var("x"), Var("y")
    raising = Or(And(Neg(Ctor(cn("Red"), ())), x), And(Neg(Ctor(cn("Mo"), ())), x))
    failing = Or(y, y)
    pair = CtorName("MkPair", 2)
    patterns = (
        raising,
        And(raising, y),
        Ctor(pair, (raising, failing)),
        Ctor(pair, (failing, raising)),
    )
    for pattern in patterns:
        for decls in (None, STANDARD_DECLS):
            try:
                want = deterministic_by_recursion(pattern, decls)
            except OverlapTypeError as err:
                want = str(err)
            try:
                got = wellformed.deterministic(pattern, decls)
            except OverlapTypeError as err:
                got = str(err)
            assert got == want
    with pytest.raises(OverlapTypeError):
        wellformed.deterministic(Ctor(pair, (raising, failing)), STANDARD_DECLS)
    assert not wellformed.deterministic(Ctor(pair, (failing, raising)), STANDARD_DECLS)


# --- cost on wide inputs ------------------------------------------------------


def test_wide_enum_decides_few_overlaps(monkeypatch):
    """One clause per constructor of a 1,200-constructor enum, and one
    clause repeating a head: splitting the clauses on their heads leaves
    the one pair with one head, and no other pair is decided."""
    k = 1200
    ks = [CtorName(f"K{i}", 0) for i in range(k)]
    clauses = [Clause(Ctor(c, ()), Value(ks[(i + 1) % k], ())) for i, c in enumerate(ks)]
    clauses.append(Clause(Ctor(ks[5], ()), Value(ks[0], ())))
    e = ECase(EVar("x"), tuple(clauses), Value(ks[0], ()))
    decided, applied = [], []
    decide, apply = overlap.decide, diagram.Table.apply
    monkeypatch.setattr(overlap, "decide", lambda *a: decided.append(a) or decide(*a))
    monkeypatch.setattr(diagram.Table, "apply", lambda *a: applied.append(a) or apply(*a))
    report = wellformed.wf_expr(e)
    # The one diagram built of two clauses is of the pair that both match K5.
    assert decided == [] and len(applied) == 1
    assert [(v.rule, v.path) for v in report.violations] == [("overlap", (6,))]


def test_fact_pass_visits_each_node_a_bounded_number_of_times(monkeypatch):
    """`!(K0 | ... | K999)` nests 1,000 deep; the recursive definitions
    walked each Or's left side again at every node above it.  Each check
    gets a pattern of its own, because a pattern keeps its facts from the
    second ask on; asked a third time, a check reads no operand."""

    def nested(prefix):
        nodes = [Ctor(CtorName(f"{prefix}{i}", 0), ()) for i in range(1000)]
        p = nodes[0]
        for leaf in nodes[1:]:
            p = Or(p, leaf)
            nodes.append(p)
        nodes.append(Neg(p))
        return nodes

    reads = Counter()

    def counting(self, name):
        if name in ("left", "right", "sub", "args", "name", "ctor"):
            reads[id(self)] += 1
        return object.__getattribute__(self, name)

    checks = (
        lambda p: wellformed.pattern_facts(p).linear_pos,
        wellformed.linear_pos,
        wellformed.linear_neg,
        wellformed.deterministic,
    )
    patterns = [nested(f"K{k}_") for k in range(len(checks))]
    for cls in (Or, Neg, Ctor):
        monkeypatch.setattr(cls, "__getattribute__", counting)
    for check, nodes in zip(checks, patterns):
        for _ in range(2):
            reads.clear()
            assert check(nodes[-1])
            assert len(reads) == len(nodes)
            assert max(reads.values()) <= 10
        reads.clear()
        assert check(nodes[-1])
        assert not reads


# --- deep values print --------------------------------------------------------


def test_repr_of_deep_value_does_not_recurse():
    v = Value(cn("Z"), ())
    for _ in range(5000):
        v = Value(CtorName("S", 1), (v,))
    text = repr(Evaluated(v))
    assert text.startswith("Evaluated(value=Value(S(S(")
    assert text.endswith("Z" + ")" * 5000 + "))")
    assert repr(Value(CtorName("Pair", 2), (Value(cn("A"), ()), Value(cn("B"), ())))) == (
        "Value(Pair(A, B))"
    )
