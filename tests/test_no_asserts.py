"""Internal invariants must raise typed errors: ``assert`` statements
vanish under ``python -O``, and a bare ``AssertionError`` escapes the
``ExptreeError`` hierarchy that callers and the CLI catch."""

import ast
from pathlib import Path

import exptree

SOURCES = sorted(Path(exptree.__file__).parent.glob("*.py"))


def _raises_assertion_error(node: ast.Raise) -> bool:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_asserts():
    assert SOURCES
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _raises_assertion_error(node)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"bare asserts in the library: {offenders}"
