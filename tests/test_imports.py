"""Every name a module of the package, a test file or a demo imports is
used in that file, so a deletion cannot leave a dead import behind.
``__init__.py`` is left out: its imports are the package's public names.

Every top-level function or class of the package is named somewhere
outside its own definition, in the package, the tests, the demos or the
benchmark, so a deletion cannot leave a dead helper behind either."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import ctgroup

MODULES = sorted(p for p in Path(ctgroup.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]
TESTS = sorted((REPO / "tests").glob("*.py"))
DEMOS = sorted((REPO / "demos").glob("*.py"))
READERS = sorted(p for folder in ("src", "tests", "demos", "perfbench")
                 for p in (REPO / folder).rglob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS + DEMOS, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    assert unused_imports("import math\nfrom typing import Iterable, Mapping\n"
                          "x: Mapping = math.pi\n") == ["Iterable"]


def named(tree) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_names(sources: dict[str, str], modules) -> list[str]:
    """The top-level functions and classes of ``modules`` (keys of
    ``sources``, which maps each file name to its text) that no file names
    outside their own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((named(tree) for tree in trees.values()), Counter())
    return sorted(f"{module}:{node.name}" for module in modules
                  for node in trees[module].body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and total[node.name] == named(node)[node.name])


def test_no_dead_names():
    sources = {str(p.relative_to(REPO)): p.read_text(encoding="utf-8") for p in READERS}
    modules = [str(p.relative_to(REPO)) for p in (REPO / "src" / "ctgroup").glob("*.py")]
    assert dead_names(sources, modules) == []


def test_finds_a_dead_name():
    sources = {"m.py": "def used():\n    pass\n\n\ndef dead(n):\n    return dead(n - 1)\n\n\n"
                       "class Kept:\n    pass\n",
               "t.py": "from m import used, Kept\nused()\n"}
    assert dead_names(sources, ["m.py"]) == ["m.py:dead"]
