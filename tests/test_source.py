"""Rules the package's own source must keep."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "corm").glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise real exceptions
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/corm: {', '.join(found)}"
