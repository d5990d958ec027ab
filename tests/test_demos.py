"""Every demo program parses, checks, compiles and evaluates per its
golden files."""

import pathlib

import pytest

from patalg.cli import main

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
NAMES = ("weekend", "isred", "access", "pairs", "lists")


def _golden(name: str) -> str:
    return (DEMOS / "golden" / name).read_text()


@pytest.mark.parametrize("name", NAMES)
def test_demo_check(name, capsys, monkeypatch):
    # Diagnostics quote the path as given, so run from the demo directory.
    monkeypatch.chdir(DEMOS)
    assert main(["check", f"{name}.pat"]) == 0
    assert capsys.readouterr().out == _golden(f"{name}.check.txt")


@pytest.mark.parametrize("name", NAMES)
def test_demo_check_typed(name, capsys, monkeypatch):
    # Typing adds notes and no type error: the plain check's lines stay, in order.
    monkeypatch.chdir(DEMOS)
    assert main(["check", "--typed", f"{name}.pat"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert not any("type error" in line for line in out)
    rest = iter(out)  # each `in` consumes up to the line it finds
    assert all(want in rest for want in _golden(f"{name}.check.txt").splitlines())


@pytest.mark.parametrize("name", NAMES)
def test_demo_compile_text(name, capsys):
    assert main(["compile", str(DEMOS / f"{name}.pat")]) == 0
    assert capsys.readouterr().out == _golden(f"{name}.compile.txt")


@pytest.mark.parametrize("name", NAMES)
def test_demo_compile_json(name, capsys):
    assert main(["compile", str(DEMOS / f"{name}.pat"), "--format", "json"]) == 0
    assert capsys.readouterr().out == _golden(f"{name}.compile.json")


@pytest.mark.parametrize("name", NAMES)
def test_demo_eval_main(name, capsys):
    assert main(["eval", str(DEMOS / f"{name}.pat"), "--entry", "main"]) == 0
    assert capsys.readouterr().out == _golden(f"{name}.eval.txt")
