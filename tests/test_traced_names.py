"""What the benchmark takes from the package still holds.

``perfbench/tracer.py`` looks each ``(module, attribute, span)`` entry of its
``TARGETS`` up with ``getattr``; a deleted or renamed function would break
every traced benchmark run, which the test suite never starts.
``perfbench/checks.py`` parses each ``check`` line of ``verify`` with its
``_VERIFY_LINE`` and expects ``VERIFY_CHECKS`` of them; a report it cannot
read fails the oracle-verify workload.  ``perfbench/workloads.py`` calls the
package through ``aq.<name>``, ``cli.<name>`` and the names it imports from
``asymsqueeze.errors``; each of them must resolve too.  Those values and names
are read from the files' syntax trees, so the benchmark itself is not imported.
"""

import ast
import functools
import importlib
import importlib.util
import re
import sys
import threading
from pathlib import Path

import pytest

from asymsqueeze import cli
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


def _package_names(path):
    """(module, attribute) for every package name ``path`` uses: the attributes it reads off an
    imported package module, and the names it imports from one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names if a.name.startswith("asymsqueeze"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("asymsqueeze"):
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if node.module == "asymsqueeze" and importlib.util.find_spec(submodule):
                    modules[alias.asname or alias.name] = submodule
                else:
                    names.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.append((modules[node.value.id], node.attr))
    return sorted(set(names))


TARGETS = _assigned(PERFBENCH / "tracer.py", "TARGETS")
WORKLOAD_NAMES = _package_names(PERFBENCH / "workloads.py")
VERIFY_LINE = _assigned(PERFBENCH / "checks.py", "_VERIFY_LINE")
VERIFY_CHECKS = _assigned(PERFBENCH / "checks.py", "VERIFY_CHECKS")


@pytest.mark.parametrize("module, attribute, span", TARGETS, ids=[f"{m}:{a}" for m, a, _ in TARGETS])
def test_traced_name_resolves(module, attribute, span):
    obj = functools.reduce(getattr, attribute.split("."), importlib.import_module(module))
    assert callable(obj), (module, attribute)


def test_traced_names_run_on_the_main_thread(tmp_path, monkeypatch):
    # the tracer keeps one span stack, so the sweep writer's own thread may call no traced name;
    # each is wrapped as the tracer wraps it, every package reference to it included
    threads = set()
    for module, attribute, _ in TARGETS:
        *outer, leaf = attribute.split(".")
        owner = functools.reduce(getattr, outer, importlib.import_module(module))
        original = getattr(owner, leaf)

        def traced(*args, _original=original, **kwargs):
            threads.add(threading.current_thread())
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, leaf, traced)
        for package_module in [m for name, m in sys.modules.items() if name.startswith("asymsqueeze")]:
            for key, value in list(vars(package_module).items()):
                if value is original:
                    monkeypatch.setattr(package_module, key, traced)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    argv = ["bell", "--lambda", "0:1.2:13", "--j", "0.01:0.5:9", "--clip-at-2", "--format", "json"]
    assert main(argv + ["--output", str(tmp_path / "bell.json")]) == 0
    assert threads == {threading.main_thread()}


@pytest.mark.parametrize("module, attribute", WORKLOAD_NAMES, ids=[f"{m}:{a}" for m, a in WORKLOAD_NAMES])
def test_workload_name_resolves(module, attribute):
    assert hasattr(importlib.import_module(module), attribute), (module, attribute)


def test_workload_names_are_found():
    # the nine names perfbench/workloads.py takes from the package today
    assert {attribute for _, attribute in WORKLOAD_NAMES} >= {
        "SqueezeParams", "maximize_bell", "Coherent", "SqueezedVacuum", "fidelity_quadrature",
        "build_state_exponential", "log_negativity_numeric", "main", "QuadratureDomainError",
    }


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
