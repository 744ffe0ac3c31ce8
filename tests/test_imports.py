"""Every name a module of the package imports is used in that module, so
a deletion cannot leave a dead import behind. ``__init__.py`` is left
out: its imports are the package's public names."""

import ast
from pathlib import Path

import pytest

import ctgroup

MODULES = sorted(p for p in Path(ctgroup.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names an import statement binds that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    assert unused_imports("import math\nfrom typing import Iterable, Mapping\n"
                          "x: Mapping = math.pi\n") == ["Iterable"]
