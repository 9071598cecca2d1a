"""The inference core stays below the algorithm layer.

The least-squares solve, the measurement currency, the compiled kernels and
the linear operators are what the algorithms are built on; none of them may
import :mod:`repro.algorithms` at run time.  Imports under ``if
TYPE_CHECKING:`` are annotations only and are allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CORE_MODULES = [
    "repro/core/gls.py",
    "repro/core/measurement.py",
    "repro/core/kernels.py",
    "repro/workload/linops.py",
    "repro/workload/prefix_sum.py",
]


def _is_type_checking_guard(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or \
        (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _runtime_imports(tree: ast.AST, package: str):
    """Absolute names of every module imported outside ``TYPE_CHECKING``
    blocks, function-level imports included."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking_guard(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{module}" if module else base
            yield module
            # ``from .. import algorithms`` names the package in the alias.
            yield from (f"{module}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("relpath", CORE_MODULES)
def test_core_module_does_not_import_algorithms(relpath):
    path = SRC / relpath
    package = ".".join(Path(relpath).with_suffix("").parts[:-1])
    imported = list(_runtime_imports(ast.parse(path.read_text(), str(path)), package))
    offending = sorted({m for m in imported
                        if m == "repro.algorithms" or m.startswith("repro.algorithms.")})
    assert not offending, f"{relpath} imports {offending} at run time"


def test_resolver_sees_relative_and_guarded_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from ..algorithms.tree import HierarchicalTree\n"
        "from .. import algorithms\n"
        "if TYPE_CHECKING:\n"
        "    from ..algorithms.base import Algorithm\n"
        "def lazy():\n"
        "    import repro.algorithms.dawa\n"
    )
    imported = set(_runtime_imports(ast.parse(source), "repro.core"))
    assert "repro.algorithms.tree" in imported
    assert "repro.algorithms" in imported
    assert "repro.algorithms.dawa" in imported
    assert "repro.algorithms.base" not in imported
