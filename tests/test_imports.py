"""Import hygiene.

No module in ``src/`` or ``tests/`` imports a name it never uses.  The
project ships no linter, so this reads each file's syntax tree: every
name an import binds must be read somewhere in the module (string
annotations included) or be listed in ``__all__``.

The benchmark's workload modules import library names, private ones
included, so a change that deletes one of them fails here, in the main
suite, and not only when the benchmark runs.  The benchmark's own tests
run here too, in a subprocess, since their ``conftest.py`` would shadow
this suite's.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _imported(tree):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((name, line) for name, line in _imported(tree) if name not in used)


def test_the_check_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy as np\n"
        "from typing import Iterator, Sequence\n"
        "from .core import Kept\n"
        "__all__ = ['Kept']\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return np.size(x)\n"
    )
    assert unused_imports(source) == [("Iterator", 4), ("os", 2), ("osp", 2)]


def test_no_unused_imports_in_src_or_tests():
    files = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert len(files) > 20
    found = {
        str(path.relative_to(ROOT)): unused
        for path in files
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


@pytest.mark.parametrize("module", ["perfbench.static", "perfbench.dynamic_mixed"])
def test_the_benchmark_workloads_import(module, monkeypatch):
    """``perfbench.static`` imports ``bin_starts``, ``build_binning``,
    ``build_segments``, ``segments._fit_segments`` and
    ``BranchyBinarySearch``; ``perfbench.dynamic_mixed`` the dynamic
    dictionary and the stream generator."""
    monkeypatch.syspath_prepend(str(ROOT))
    importlib.import_module(module)


def test_the_benchmark_tests_pass():
    """``python -m pytest -q perfbench/tests``, which also runs a short
    traced benchmark pass over the library."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
