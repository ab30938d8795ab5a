"""Source hygiene: no module of the package imports a name it never uses,
and no function, class or method is defined that no module reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toruslie"


def module_trees() -> dict:
    """Module file name -> parsed tree, for every module but __init__.py,
    which imports names only to re-export them."""
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def unused_imports(tree) -> list:
    """Names a module binds by import and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0]
                         for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unreached_definitions(trees) -> list:
    """module.name for each def or class whose name no module reads, as a
    Name or an Attribute; dunder methods are reached by the language."""
    defined, read = {}, set()
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, Path(fname).stem)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted("%s.%s" % (defined[name], name) for name in set(defined) - read)


def test_no_module_imports_a_name_it_never_uses():
    found = {name: unused_imports(tree) for name, tree in module_trees().items()}
    assert len(found) >= 10
    assert {name: names for name, names in found.items() if names} == {}


def test_every_definition_is_reached_from_the_package():
    assert unreached_definitions(module_trees()) == []
