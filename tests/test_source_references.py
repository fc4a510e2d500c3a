"""Every public library function or class is used by the library itself.

A top-level name in ``src/qdyncost/*.py`` that no file under ``src/``
references (as a name, an attribute or an import alias) is code that only
tests call; it belongs in ``tests/`` or goes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# error terms that only tests evaluate today; ROADMAP item 3 wires them into
# the budget audit stage of the pipeline
ALLOWED_UNREFERENCED = {
    "budget.asp_error_bound",
    "budget.isp_error_bound",
    "budget.prop_error",
}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_public_definition_is_referenced_from_src():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    assert SRC / "qdyncost" / "cli.py" in trees
    referenced = set()
    for tree in trees.values():
        referenced.update(_referenced_names(tree))
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items() if path.parent.name == "qdyncost"
        for name in _public_definitions(tree)
        if name not in referenced and f"{path.stem}.{name}" not in ALLOWED_UNREFERENCED
    ]
    assert unused == []
