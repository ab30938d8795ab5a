"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toruslie"


def unused_imports(path) -> list:
    """Names a module binds by import and never reads (re-exports aside)."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0]
                         for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names only to re-export them
    found = {path.name: unused_imports(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    assert len(found) >= 10
    assert {name: names for name, names in found.items() if names} == {}
