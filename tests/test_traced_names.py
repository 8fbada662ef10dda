"""Every name the benchmark's tracer wraps still exists in the package.

``perfbench/tracer.py`` looks each ``(module, attribute, span)`` entry of its
``TARGETS`` up with ``getattr``; a deleted or renamed function would break
every traced benchmark run, which the test suite never starts.  The tuple is
read from the file's syntax tree, so the tracer itself is not imported.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


TARGETS = _targets()


@pytest.mark.parametrize("module, attribute, span", TARGETS, ids=[f"{m}:{a}" for m, a, _ in TARGETS])
def test_traced_name_resolves(module, attribute, span):
    obj = functools.reduce(getattr, attribute.split("."), importlib.import_module(module))
    assert callable(obj), (module, attribute)
