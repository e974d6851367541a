"""Every name a stopset module imports is used in that module.

No linter runs on this repository, so this is its unused-import check.
A name counts as used when the module reads it or lists it in
``__all__``.  The only names a module may import without using are the
(module, name) pairs that the benchmark's span tracer wraps by getattr
(``perfbench/tracing.py``, ``BINDINGS``).  Those exceptions are pinned
exactly: once the tracer no longer needs one, its import goes and the
pinned list shrinks.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stopset"

# imports kept only for the tracer, today all in one line of construct
TRACER_ONLY_IMPORTS = {
    ("stopset.construct", "incorrigible_enumerator"),
    ("stopset.construct", "optimal_enumerators"),
}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def _tracer_bindings(monkeypatch) -> set[tuple[str, str]]:
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    return {(module, attr) for module, attr, _, _ in tracing.BINDINGS}


def test_every_imported_name_is_used(monkeypatch):
    bindings = _tracer_bindings(monkeypatch)
    unused = {
        (f"stopset.{path.stem}" if path.stem != "__init__" else "stopset", name)
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text()))
    }
    assert unused - bindings == set(), "imported but never used"
    assert unused & bindings == TRACER_ONLY_IMPORTS


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom a.b import c, d as e\n__all__ = ['c']\nnp.zeros(1)\n")
    assert _unused_imports(tree) == {"os", "e"}
