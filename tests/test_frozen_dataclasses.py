"""Every dataclass in the library is frozen.

A pipeline stage's record is complete when it is built and never changed
afterwards; ``dataclasses.replace`` makes a changed copy.  A ``@dataclass``
without ``frozen=True`` under ``src/qdyncost`` fails this test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qdyncost"


def _is_frozen(decorator) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords)


def _dataclass_decorators(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else \
                    getattr(target, "id", None)
                if name == "dataclass":
                    yield node.name, dec


def test_every_dataclass_is_frozen():
    found, mutable = [], []
    for path in sorted(SRC.glob("*.py")):
        for cls, dec in _dataclass_decorators(ast.parse(path.read_text())):
            found.append(cls)
            if not _is_frozen(dec):
                mutable.append(f"{path.stem}.{cls}")
    assert "ErrorBudget" in found and "CostReport" in found
    assert mutable == []
