"""Every exported name resolves, and the package imports only the stdlib."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import wallkit

MODULES = ["wallkit"] + [
    f"wallkit.{m.name}" for m in pkgutil.iter_modules(wallkit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize(
    "path", sorted(Path(wallkit.__path__[0]).glob("*.py")), ids=lambda p: p.name
)
def test_absolute_imports_are_stdlib_or_wallkit(path):
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert sorted(roots - set(sys.stdlib_module_names) - {"wallkit"}) == []


@pytest.mark.parametrize(
    "path", sorted(Path(wallkit.__path__[0]).glob("*.py")), ids=lambda p: p.name
)
def test_no_assert_statements(path):
    # python -O strips asserts; invariant checks must raise InternalError
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []
