"""Every name a package module imports is read somewhere in that module, and
every module-level private function or class is read somewhere in the package.

No lint tool ships with the package, so these are its guards against dead
imports and dead private code.  ``__init__.py`` is skipped for imports: its
imports are the public exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "randx"


def unused_imports(path: Path) -> list[str]:
    """Names an import binds in the module at path that no expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def names_read(tree: ast.AST) -> set[str]:
    """Every name, and every attribute name, that an expression in tree reads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def private_definitions(tree: ast.Module) -> list[str]:
    """The module-level functions and classes whose names start with one underscore."""
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    unused = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_private_definition_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    read = set().union(*(names_read(tree) for tree in trees.values()))
    defined = {name: private_definitions(tree) for name, tree in trees.items()}
    assert sum(len(names) for names in defined.values()) >= 80
    unread = {name: [d for d in names if d not in read] for name, names in defined.items()}
    assert {name: names for name, names in unread.items() if names} == {}
