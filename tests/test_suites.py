"""Smoke runs of the fuzz suites at a reduced case count; the acceptance
module reruns the relevant ones at full scale."""

import os
import pathlib
import subprocess
import sys

from test_case_diagram import _fresh_counts, _within_budget

from patalg.suites import prop_congruence, run_suites


def test_all_suites_clean_at_small_scale():
    results = run_suites("all", seed=123, depth=3, cases=20)
    problems = [
        f"{r.name}: {ce}" for r in results for ce in r.counterexamples
    ]
    assert problems == []


def test_congruence_guards_idempotence_by_determinism():
    # `x | MkPair(x, _)` at this seed: `p & p` doubles the derivations of
    # a nondeterministic `p`, so idempotence is no law for it.
    result = prop_congruence(108, 4, 400)
    assert result.counterexamples == []


def test_suites_are_seed_deterministic():
    a = run_suites("algebra", seed=7, depth=2, cases=10)
    b = run_suites("algebra", seed=7, depth=2, cases=10)
    assert [(r.name, r.cases, r.counterexamples) for r in a] == [
        (r.name, r.cases, r.counterexamples) for r in b
    ]


# The body of `test_memos_stay_bounded_across_seeds`, run in a fresh
# interpreter: the intern table's size counts what earlier tests in the
# same process left alive, so in process the test passed or failed by the
# order that the tests ran in.
_MEMO_BOUNDS = """
import gc

from patalg import diagram, overlap, syntax
from patalg.suites import run_suites

summary = lambda results: [(r.name, r.cases, r.counterexamples) for r in results]
first = summary(run_suites("all", seed=1, depth=3, cases=100))
for seed in range(2, 7):
    run_suites("all", seed=seed, depth=3, cases=100)
    for memo in (syntax._match_memo, overlap._decided):
        assert len(memo.young) + len(memo.old) <= 2 * syntax.GENERATION
    table = diagram.table
    assert len(table.built) + len(table.applied) <= 2 * diagram.DIAGRAMS
    assert len(table.old) <= 2 * diagram.DIAGRAMS
    gc.collect()
    assert len(syntax._table) < 11_000
assert summary(run_suites("all", seed=1, depth=3, cases=100)) == first
"""


def test_memos_stay_bounded_across_seeds():
    # Six seeds in one process: each memo's two generations together hold
    # at most twice the bound, each generation of the diagram table, which
    # rotates only when a question starts, at most twice its own, the
    # intern table stops growing (without a bound it grew by about 2,000
    # nodes a seed, to 14,000 after six), and rotations change no result.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", _MEMO_BOUNDS], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]


# Python calls that `patc fuzz --suite algebra --depth 4` makes at three
# case counts, counted as `test_case_diagram` counts `check`, each in a
# fresh interpreter of its own, so that no count starts from the memos
# another left.  Counted 116,525, 192,937 and 345,471 on CPython 3.11;
# the budgets are about 1.5 times these.  The overlap property draws at
# least 500 cases whatever `--cases` is, so the counts grow less than
# linearly.
FUZZ_ALGEBRA = ((50, 100, 200), (175_000, 290_000, 520_000), 1.0)


def test_algebra_fuzz_cost_stays_within_budget():
    sizes, budgets, most = FUZZ_ALGEBRA
    argv = ("fuzz", "--suite", "algebra", "--depth", "4", "--cases")
    counted = [_fresh_counts([(*argv, str(n))])[0] for n in sizes]
    _within_budget(counted, sizes, budgets, most)
