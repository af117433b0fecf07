"""The library parses at the oldest Python that ``pyproject.toml``
declares: ``requires-python`` names the floor, and no syntax newer than
it may enter ``src/exptree``.  The check parses with this interpreter's
grammar restricted to the floor, so no older interpreter is needed."""

import ast
import re
from pathlib import Path

import exptree

SOURCES = sorted(Path(exptree.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_floor() -> tuple[int, int]:
    match = re.search(
        r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', PYPROJECT.read_text(), re.M
    )
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


def test_library_parses_at_the_declared_floor():
    floor = declared_floor()
    assert SOURCES
    offenders = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            offenders.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    assert not offenders, f"syntax newer than Python {floor}: {offenders}"
