"""No ``assert`` statement in the library.

``python -O`` strips assert statements, so a check written as one vanishes
under optimisation; invariants raise exceptions instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statement_under_src():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
