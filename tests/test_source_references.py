"""Every public library function, class, method or property is used by the
library itself.

A top-level name in ``src/qdyncost/*.py`` that no file under ``src/``
references (as a name, an attribute or an import alias), or a public method
or property of one of its classes that no file under ``src/`` reads as an
attribute, is code that only tests call; it belongs in ``tests/`` or goes.  A
field of a dataclass is read somewhere under ``src/``, as an attribute or named
in a string constant (the getattr lists that echo or check fields).  Each
``<module>.<function>`` layer that ``BENCHMARK.json`` reads from the tracer is
a public function of that module.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# error terms that only tests evaluate today; ROADMAP item 3 wires them into
# the budget audit stage of the pipeline
ALLOWED_UNREFERENCED = {
    "budget.asp_error_bound",
    "budget.isp_error_bound",
    "budget.prop_error",
    # the numpy oracle of the estimate's pure-Python SSCT shear (gram.udu);
    # the tests pin its bits, and it keeps lct.cholesky_unit in the harness
    "lct.ssct_program",
}

# budget leaves that ``budget.allocate`` sets and nothing reads yet; ROADMAP
# item 3's budget audit reads them when it composes the ISP error
ALLOWED_UNREAD_FIELDS = {
    "ErrorBudget.eps_asp",
    "ErrorBudget.eps_mps_quantum",
    "ErrorBudget.eps_trim",
}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name


def _public_members(tree):
    """(class, name) of each public method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("_"):
                    yield node.name, item.name


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


def test_every_public_member_is_referenced_from_src():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    unused = [
        f"{path.stem}.{cls}.{name}"
        for path, tree in trees.items() if path.parent.name == "qdyncost"
        for cls, name in _public_members(tree)
        if name not in attributes
    ]
    assert unused == []


def _is_dataclass(node) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def test_every_dataclass_field_is_read_in_src():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    dataclasses = [node for path, tree in trees.items() if path.parent.name == "qdyncost"
                   for node in tree.body if isinstance(node, ast.ClassDef) and _is_dataclass(node)]
    assert "SuccessProbs" in {cls.name for cls in dataclasses}
    fields = [(cls.name, item.target.id) for cls in dataclasses for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    unread = [f"{cls}.{name}" for cls, name in fields
              if name not in read and f"{cls}.{name}" not in ALLOWED_UNREAD_FIELDS]
    assert unread == []


def _traced_modules() -> tuple:
    """``TRACED_MODULES`` of the benchmark's tracer, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED_MODULES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED_MODULES")


def test_benchmark_layer_names_are_public_functions():
    # the tracer wraps each public function of its modules and the benchmark
    # reads "<module>.<function>.<metric>"; a renamed or moved function would
    # first show as a KeyError in a traced benchmark run
    traced = _traced_modules()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    layers = {name.rsplit(".", 1)[0] for name in names
              if name.split(".")[0] in traced and name.count(".") == 2
              and not name.startswith("verify.check.")}
    assert "costs.cost_total" in layers
    missing = []
    for layer in sorted(layers):
        module, function = layer.split(".")
        mod = importlib.import_module(f"qdyncost.{module}")
        fn = getattr(mod, function, None)
        if function.startswith("_") or not inspect.isfunction(fn) \
                or fn.__module__ != mod.__name__:
            missing.append(layer)
    assert missing == []
