"""The benchmark's span tracer wraps stopset names by a bare getattr.

Some modules import a name only so that the tracer finds it (for
example ``stopset.construct.incorrigible_enumerator``).  Dropping such
an import would break ``perfbench/run.py --trace 1``; this test makes
it fail here as well.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.BINDINGS
    for module_name, attr, _, _ in tracing.BINDINGS:
        assert callable(getattr(importlib.import_module(module_name), attr)), f"{module_name}.{attr}"
