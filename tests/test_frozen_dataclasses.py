"""Every record class in the library is a frozen ``model.Record``.

A pipeline stage's record is complete when it is built and never changed
afterwards; its ``replace`` makes a changed copy.  The package has one way to
declare a record: each top-level class under ``src/qdyncost`` that annotates
fields subclasses ``Record``, no module imports ``dataclasses``, and every
``Record`` subclass refuses assignment and deletion at runtime.  A
``NamedTuple`` (``verify``'s array tables, which callers index and iterate)
is an immutable tuple, not a record, and is exempt.
"""

import ast
import importlib
from pathlib import Path

import pytest

from qdyncost.model import Record

SRC = Path(__file__).resolve().parents[1] / "src" / "qdyncost"


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _base_names(node) -> set:
    return {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None)
            for b in node.bases}


def _record_classes() -> dict:
    """Each top-level class that annotates fields and is no NamedTuple, by
    name: whether it subclasses Record."""
    return {node.name: "Record" in _base_names(node)
            for tree in _trees().values() for node in tree.body
            if isinstance(node, ast.ClassDef) and "NamedTuple" not in _base_names(node)
            and any(isinstance(item, ast.AnnAssign) for item in node.body)}


def test_every_dataclass_is_frozen():
    classes = _record_classes()
    assert classes["ErrorBudget"] and classes["CostReport"]
    assert [name for name, is_record in classes.items() if not is_record] == []


def test_no_module_imports_dataclasses():
    imports = [(module, node.lineno) for module, tree in _trees().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert imports == []


def _subclasses(cls) -> list:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_every_record_refuses_assignment():
    for module in _trees():
        importlib.import_module(f"qdyncost.{module}")
    records = [cls for cls in _subclasses(Record) if cls.__module__.startswith("qdyncost.")]
    assert {cls.__name__ for cls in records} == set(_record_classes())
    for cls in records:
        record = object.__new__(cls)   # no field values: only the refusal is checked
        for name in (*cls._fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
