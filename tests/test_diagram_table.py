"""The diagram table outlives its questions, and no answer depends on it.

`diagram.table` keeps pattern diagrams and the n-ary apply
from one question to the next, bounded in two generations.  Each answer
of `overlap.decide`, `overlapping_pairs`, `useful_witness` and
`case_notes`, witnesses included, is the same from a cold table, from a
warm one and from one that a tiny bound makes rotate between questions,
and threads that share the table get the answers of one thread."""

import random
import sys
import threading

import pytest

from patalg import diagram, overlap, syntax
from patalg.exhaustiveness import (
    SignatureError,
    case_notes,
    non_exhaustiveness_witness,
    overlapping_pairs,
    overlaps,
    useful_witness,
)
from patalg.oracle import gen_case, gen_pattern
from patalg.suites import _TAUS, STANDARD_DECLS
from patalg.syntax import Neg, Var, Wild


def _patterns() -> dict:
    """`tests/test_emptiness.py`'s generator, at fewer seeds."""
    out = {}
    for tau in _TAUS:
        ps = [gen_pattern(STANDARD_DECLS, tau, seed % 8, seed) for seed in range(60)]
        out[tau] = ps + [Neg(p) for p in ps]
    return out


def _outcome(ask, *args):
    try:
        return ask(*args)
    except (overlap.OverlapTypeError, SignatureError) as err:
        return type(err).__name__, str(err)


def _notes(patterns):
    w, dead = case_notes(patterns, STANDARD_DECLS)
    return (str(w) if isinstance(w, SignatureError) else w), dead


def _questions():
    """(question, arguments) pairs over generated patterns and cases."""
    rng, patterns = random.Random(33), _patterns()
    taus, out = list(patterns), []
    for i in range(1500):
        ta = taus[i % len(taus)]
        tb = rng.choice(taus) if i % 3 == 0 else ta
        a, b = rng.choice(patterns[ta]), rng.choice(patterns[tb])
        out += [(overlap.decide, (a, b)), (overlap.decide, (a, b, STANDARD_DECLS))]
        out += [(useful_witness, ([(b,)], (a,), decls)) for decls in (None, STANDARD_DECLS)]
        group = rng.sample(patterns[ta], 4)
        out += [(overlapping_pairs, (group,)), (_notes, (group,))]
    for seed in range(200):
        tau = _TAUS[seed % len(_TAUS)]
        ps = [c.pattern for c in gen_case(STANDARD_DECLS, tau, seed, max_clauses=4).clauses]
        out += [(overlapping_pairs, (ps,)), (_notes, (ps,))]
        out.append((non_exhaustiveness_witness, ([(p,) for p in ps], STANDARD_DECLS, (tau,))))
    return out


def _answers(monkeypatch, questions, cold=False):
    monkeypatch.setattr(diagram, "table", diagram.Table())
    out = []
    for ask, args in questions:
        # `decide` memoizes open-world answers itself; a fresh memo per
        # question makes each one read the table.
        monkeypatch.setattr(overlap, "_decided", syntax.Generations({}))
        if cold:
            monkeypatch.setattr(diagram, "table", diagram.Table())
        out.append(_outcome(ask, *args))
    return out


def test_answers_do_not_depend_on_the_table(monkeypatch):
    questions = _questions()
    cold = _answers(monkeypatch, questions, cold=True)
    warm = _answers(monkeypatch, questions)
    assert diagram.table.built  # the warm table was shared
    monkeypatch.setattr(diagram, "DIAGRAMS", 16)
    rotations = 0
    start = diagram.Table.start

    def counting(ds):
        nonlocal rotations
        young = len(ds.built) + len(ds.applied)
        rotations += len(start(ds).built) + len(ds.applied) < young
        return ds

    monkeypatch.setattr(diagram.Table, "start", counting)
    rotated = _answers(monkeypatch, questions)
    assert rotations > 100, rotations
    assert cold == warm == rotated


def test_threads_sharing_the_table_get_the_answers_of_one(monkeypatch):
    # Eight threads at a 1 µs switch interval ask about shared patterns
    # through one table whose bound makes nearly every question rotate it,
    # so folds run while other threads rotate the table and fill its memos.
    patterns = _patterns()
    work = [(a, b) for ps in patterns.values() for a, b in zip(ps[::2], ps[1::2])]
    ask = lambda a, b: (overlaps(a, b), _outcome(useful_witness, [(b,)], (a,), STANDARD_DECLS))  # noqa: E731
    monkeypatch.setattr(diagram, "table", diagram.Table())
    want = [ask(a, b) for a, b in work]
    monkeypatch.setattr(diagram, "table", diagram.Table())
    monkeypatch.setattr(diagram, "DIAGRAMS", 4)
    got = [None] * 8

    def run(k):
        order = work[k:] + work[:k]
        answers = dict(zip(order, (ask(a, b) for a, b in order)))
        got[k] = [answers[pair] for pair in work]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(got))]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(answers == want for answers in got)


@pytest.mark.parametrize("bound", (0, diagram.DIAGRAMS))
def test_case_notes_find_the_diagrams_that_overlapping_pairs_built(monkeypatch, bound):
    # `check` asks `overlapping_pairs` and then `case_notes` of a case; the
    # second reads each clause's diagram from the table, from the old
    # generation when a rotation (every question, at bound 0) came between.
    monkeypatch.setattr(diagram, "table", diagram.Table())
    monkeypatch.setattr(diagram, "DIAGRAMS", bound)
    ps = [c.pattern for c in gen_case(STANDARD_DECLS, _TAUS[3], 5, max_clauses=4).clauses]
    ps = [p for p in ps if type(p) not in (Var, Wild)]  # no table holds a sink's pattern
    assert len(ps) > 1
    overlapping_pairs(ps)
    asked = []
    pattern = diagram.Table.pattern

    def recording(ds, p, occ, positive=True):
        key = (p, (occ, positive))
        asked.append((p, key in ds.built or key in ds.old))
        return pattern(ds, p, occ, positive)

    monkeypatch.setattr(diagram.Table, "pattern", recording)
    case_notes(ps, STANDARD_DECLS)
    assert asked[: len(ps)] == [(p, True) for p in ps]
