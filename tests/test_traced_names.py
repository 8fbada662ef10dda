"""What the benchmark takes from the package still holds.

``perfbench/tracer.py`` looks each ``(module, attribute, span)`` entry of its
``TARGETS`` up with ``getattr``; a deleted or renamed function would break
every traced benchmark run, which the test suite never starts.
``perfbench/checks.py`` parses each ``check`` line of ``verify`` with its
``_VERIFY_LINE`` and expects ``VERIFY_CHECKS`` of them; a report it cannot
read fails the oracle-verify workload.  Those values are read from the files'
syntax trees, so the benchmark itself is not imported.
"""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

from asymsqueeze.cli import main
from asymsqueeze.verify import TOLERANCES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(path, name):
    """The value assigned to ``name`` at the top level of ``path``; a ``re.compile`` call gives its pattern."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            if isinstance(node.value, ast.Call):
                return re.compile(ast.literal_eval(node.value.args[0]))
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} assignment in {path}")


TARGETS = _assigned(PERFBENCH / "tracer.py", "TARGETS")
VERIFY_LINE = _assigned(PERFBENCH / "checks.py", "_VERIFY_LINE")
VERIFY_CHECKS = _assigned(PERFBENCH / "checks.py", "VERIFY_CHECKS")


@pytest.mark.parametrize("module, attribute, span", TARGETS, ids=[f"{m}:{a}" for m, a, _ in TARGETS])
def test_traced_name_resolves(module, attribute, span):
    obj = functools.reduce(getattr, attribute.split("."), importlib.import_module(module))
    assert callable(obj), (module, attribute)


def test_verify_runs_the_benchmark_check_count():
    assert len(TOLERANCES) == VERIFY_CHECKS


@pytest.mark.parametrize("argv, code", [
    (["verify", "--cutoff", "26", "--lambda", "0.3", "--gamma", "0.5"], 0),
    (["verify", "--cutoff", "30", "--lambda", "0.5", "--gamma", "1.0"], 2),
], ids=["passing", "breaching"])
def test_verify_check_lines_parse(argv, code, capsys):
    assert main(argv) == code
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("check ")]
    assert len(lines) == VERIFY_CHECKS
    assert all(VERIFY_LINE.match(line) for line in lines), lines
