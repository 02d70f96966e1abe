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


# The binary-table machinery: with ``struct``, only ``tables`` may name it.
TABLE_MACHINERY = frozenset({"IndexFileReader", "write_index_file", "pack_strings", "MAGIC"})


def table_machinery_names(tree: ast.Module) -> list[str]:
    """Each import of ``struct`` and each name of ``TABLE_MACHINERY`` the tree holds."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: struct" for a in node.names if a.name == "struct"]
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            found.append(f"line {node.lineno}: struct")
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
            name = node.name.rpartition(".")[2]
        if name in TABLE_MACHINERY:
            found.append(f"line {node.lineno}: {name}")
    return found


def top_level_names(tree: ast.Module, imports: bool = True) -> set[str]:
    """Every name a module defines or assigns at its top level, and those it imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.partition(".")[0] for a in node.names}
    return names


OTHER_MODULES = sorted(set(SRC.glob("*.py")) - {SRC / "tables.py"})


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda path: path.name)
def test_only_tables_knows_the_binary_layout(path):
    assert table_machinery_names(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda path: path.name)
def test_no_module_rebinds_a_tables_name(path):
    # So each file name, layout, reader and writer has one home: no re-export,
    # no copy. ``cli`` imports two readers and writers under names of its own.
    tables = ast.parse((SRC / "tables.py").read_text(encoding="utf-8"))
    tables_names = top_level_names(tables, imports=False)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(top_level_names(tree) & tables_names) == []
