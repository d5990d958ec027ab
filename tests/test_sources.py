"""Checks on the package sources themselves."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "patalg"


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check in the package may
    # rest on one; failed soundness checks raise SoundnessError instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 10
    assert found == []
