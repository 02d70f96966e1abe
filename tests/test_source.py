"""Source hygiene the suite can check with the standard library alone."""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "temporag"


def unused_imports(tree: ast.Module) -> list[str]:
    """Each name a module imports and never reads, nor lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        future = getattr(node, "module", None) == "__future__"
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "__all__":
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def names_read(tree: ast.AST) -> set[str]:
    """Every name a tree reads or imports, and every string constant that is an identifier.

    The strings count because code looks some names up by string, as
    ``e2ebench/spans.py``'s ``TRACED`` table does.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


@functools.cache
def names_read_anywhere() -> frozenset[str]:
    paths = [path for top in ("src", "tests", "e2ebench") for path in (ROOT / top).rglob("*.py")]
    return frozenset().union(*(names_read(ast.parse(p.read_bytes())) for p in paths))


def dead_definitions(tree: ast.Module, read: frozenset[str]) -> list[str]:
    """Each function, class and method the tree defines whose name nothing reads.

    ``main`` dispatches the ``cmd_*`` functions by name, and Python calls
    the dunder methods, so neither needs a reader.
    """
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"line {node.lineno}: {node.name}"
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and node.name not in read
        and not node.name.startswith("cmd_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_dead_definition(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert dead_definitions(tree, names_read_anywhere()) == []
