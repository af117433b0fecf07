"""Library modules must not import the command-line front end: the
address grammar lives in ``notation``, and ``cli`` sits on top of the
library, not inside it."""

import ast
from pathlib import Path

import exptree

SOURCES = sorted(Path(exptree.__file__).parent.glob("*.py"))


def _imports_cli(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "exptree.cli" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    # ``from .cli import x`` / ``from exptree.cli import x``, or
    # ``from . import cli`` / ``from exptree import cli``.
    package = "" if node.level else "exptree"
    module = node.module or ""
    if module == (f"{package}.cli" if package else "cli"):
        return True
    return module == package and any(alias.name == "cli" for alias in node.names)


def test_library_does_not_import_cli():
    assert SOURCES
    offenders = []
    for path in SOURCES:
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if _imports_cli(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"library modules importing exptree.cli: {offenders}"
