"""One walk per case and no normal form in `check` or `compile`: `wf_expr`
checks every case of an expression in one walk on an explicit stack and
decides overlap and determinism on the source patterns, and `compile`
reads its tree off the clauses' decision diagrams, so neither command
normalizes."""

import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from patalg import cli, normalize
from patalg.cli import main
from patalg.semantics import Clause, subterms

DATA = pathlib.Path(__file__).resolve().parent / "data"
DEMOS = DATA.parent.parent / "demos"
# `check` and `compile` output on the nested programs, recorded before
# check, compile and exhaustiveness shared the clause rows.
PINNED = json.loads((DATA / "nested_outputs.json").read_text())


@pytest.mark.parametrize("command", sorted(PINNED))
def test_nested_case_output_is_unchanged(command, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code = main(command.split())
    out = capsys.readouterr()
    assert [code, out.out, out.err] == PINNED[command]


def _clause_patterns(prog) -> list:
    bodies = [d.body for d in prog.defs] + ([prog.main] if prog.main else [])
    return [n.pattern for b in bodies for n, _ in subterms(b) if isinstance(n, Clause)]


PROGRAMS = sorted(DEMOS.glob("*.pat")) + [DATA / "nested.pat", DATA / "nested_bad.pat"]
COMMANDS = (
    ["check"],
    ["check", "--typed"],
    ["check", "--type-aware-overlap"],
    ["check", "--untyped"],
    ["compile"],
    ["compile", "--format", "json"],
)
# Every program under every command.
RUNS = [
    pytest.param(path, command, id=f"{path.stem}-{'-'.join(command)}")
    for path in PROGRAMS
    for command in COMMANDS
]


@pytest.mark.parametrize("path, command", RUNS)
def test_each_clause_pattern_is_normalized_at_most_once(
    path, command, monkeypatch, capsys
):
    calls = Counter()
    to_ndnf = normalize.to_ndnf

    def counting(p):
        calls[p] += 1
        return to_ndnf(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("patalg"):
            for attr, value in list(vars(module).items()):
                if value is to_ndnf:
                    monkeypatch.setattr(module, attr, counting)
    programs = []  # the program the command parses, to find its clauses
    parse = cli.parse

    def keeping(text):
        programs.append(parse(text))
        return programs[-1]

    monkeypatch.setattr(cli, "parse", keeping)
    main([command[0], str(path), *command[1:]])
    capsys.readouterr()
    # Equal clause patterns are one object: each may be normalized once per
    # clause that has it.
    clauses = Counter(_clause_patterns(programs[0]))
    assert clauses
    if command[0] == "check":
        assert sum(calls.values()) == 0
    assert all(calls[p] <= n for p, n in clauses.items())


def test_one_normalization_per_clause_on_an_or_product(tmp_path, monkeypatch, capsys):
    # Two clauses, one of them T(A | B, A | B, A | B): neither check --typed
    # nor compile normalizes either of them.
    path = tmp_path / "orprod.pat"
    path.write_text(
        "data AB = A | B | C;\n"
        "data T = T(AB, AB, AB);\n"
        "def f(x: T) :=\n"
        "  case x of { T(A | B, A | B, A | B) => A, T(C, _, _) => B, default => C };\n"
    )
    calls = []
    to_ndnf = normalize.to_ndnf
    for name, module in list(sys.modules.items()):
        if name.startswith("patalg") and getattr(module, "to_ndnf", None) is to_ndnf:
            monkeypatch.setattr(module, "to_ndnf", lambda p: calls.append(p) or to_ndnf(p))
    for command, normalized in ((["check", str(path), "--typed"], 0), (["compile", str(path)], 0)):
        calls.clear()
        assert main(command) == 0
        assert len(calls) == normalized
    capsys.readouterr()


def test_check_of_a_deep_definition_body_does_not_recurse(tmp_path):
    # `def f(x) := S(S(...x...))`, 3000 deep: the wellformedness walk and
    # the undeclared-constructor scan run on explicit stacks.  A subprocess
    # gives the CLI its own stack depth.
    n = 3000
    path = tmp_path / "deep.pat"
    path.write_text(f"data N = Z | S(N);\ndef f(x) := {'S(' * n}x{')' * n};\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for flags in ([], ["--untyped"]):
        out = subprocess.run(
            [sys.executable, "-m", "patalg.cli", "check", str(path), *flags],
            env=env,
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in out.stderr, out.stderr[-500:]
        assert out.returncode == 0
        assert out.stdout == "ok\n"
