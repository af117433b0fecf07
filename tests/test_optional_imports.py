"""The library needs no third-party package on its default path: no
module imports sympy, and numpy is imported only inside
``analysis.transition_matrix``, whose result is an ndarray (plus the
``TYPE_CHECKING`` import that its annotations use)."""

import ast
from pathlib import Path

import exptree

SOURCES = sorted(Path(exptree.__file__).parent.glob("*.py"))


def _imported(node: ast.AST) -> set[str]:
    """Top-level package names that an import statement loads."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and not node.level and node.module:
        return {node.module.split(".")[0]}
    return set()


def _numpy_allowed(path: Path, stack: list[ast.AST]) -> bool:
    if path.name != "analysis.py":
        return False
    for node in stack:
        if isinstance(node, ast.FunctionDef) and node.name == "transition_matrix":
            return True
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            return True
    return False


def _offenders(path: Path) -> list[str]:
    found = []

    def visit(node: ast.AST, stack: list[ast.AST]) -> None:
        names = _imported(node)
        if "sympy" in names or ("numpy" in names and not _numpy_allowed(path, stack)):
            found.append(f"{path.name}:{node.lineno} imports {sorted(names)}")
        for child in ast.iter_child_nodes(node):
            visit(child, stack + [node])

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return found


def test_no_sympy_and_numpy_only_in_transition_matrix():
    assert SOURCES
    offenders = [o for path in SOURCES for o in _offenders(path)]
    assert not offenders, f"third-party imports outside transition_matrix: {offenders}"


def test_guard_sees_a_stray_import(tmp_path):
    stray = tmp_path / "analysis.py"
    stray.write_text(
        "import numpy\n"
        "def transition_matrix():\n    import numpy as np\n"
        "def row_map():\n    from sympy import Matrix\n"
    )
    assert [o.split(" ")[0] for o in _offenders(stray)] == ["analysis.py:1", "analysis.py:5"]
