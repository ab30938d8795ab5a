"""Source hygiene: no module of the package or of its tests imports a
name it never uses, no function, class, method or module-level public
name is defined that no module reads, and the package binds no name that
no reader imports from it; every function the benchmark traces
exists under the name it traces; the cache fixture of conftest.py
clears every lru_cache of the package; and the names that README.md and
the tests' docstrings and comments cite still exist; the lattice-proof
runner is read only by _prove, which runs the rows of proofs.PROOFS; and
proofs imports none of the modules that run it, while no module imports
inside a function body."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

from conftest import PACKAGE_CACHES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toruslie"


def module_trees() -> dict:
    """Module file name -> parsed tree, for every module but __init__.py,
    whose imports serve readers outside the package (see
    package_names_no_reader_imports)."""
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
    """module.name for each def or class, and module.Class.name for each
    method, that no module reads; dunder methods are reached by the
    language. A read Class.attr, for a class of the package, reaches only
    the definition Python finds on that class or its bases; any other
    read of a name or an attribute reaches every definition of that name."""
    owner, bases = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        owner[item] = node.name
    defs, read, class_reads = [], set(), set()
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((Path(fname).stem, owner.get(node), node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if isinstance(node.value, ast.Name) and node.value.id in bases:
                    class_reads.add((node.value.id, node.attr))
                else:
                    read.add(node.attr)
    methods = {(cls, name) for _, cls, name in defs if cls}

    def resolve(cls, name):
        """The class that defines cls.name: cls itself or, depth first, a base."""
        if (cls, name) in methods:
            return cls
        for base in bases.get(cls, ()):
            found = resolve(base, name)
            if found:
                return found
        return None

    reached = {(resolve(cls, name), name) for cls, name in class_reads}
    return sorted(".".join(filter(None, (module, cls, name)))
                  for module, cls, name in defs
                  if name not in read and (cls is None or (cls, name) not in reached))


def unread_module_names(trees) -> list:
    """module.NAME for each public name a module assigns at its top level,
    or in a branch of a top-level if or try, that no module reads."""
    bound, read = [], set()
    for fname, tree in trees.items():
        todo = list(tree.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.If, ast.Try)):
                todo += node.body + node.orelse + getattr(node, "finalbody", [])
                for handler in getattr(node, "handlers", []):
                    todo += handler.body
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound += [(Path(fname).stem, target.id) for target in targets
                          if isinstance(target, ast.Name)
                          and not target.id.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted({"%s.%s" % (module, name) for module, name in bound
                   if name not in read})


def package_names_no_reader_imports(init_source, reader_texts) -> list:
    """Non-dunder names __init__.py binds at its top level that no
    `from toruslie import ...` in the reader texts reads."""
    bound = set()
    for node in ast.parse(init_source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    read = set()
    for text in reader_texts:
        for match in re.finditer(r"^\s*from toruslie import (\([^)]*\)|.*)$", text, re.M):
            read |= {name.split()[0] for name in match.group(1).strip("()").split(",")
                     if name.strip()}
    return sorted(name for name in bound - read
                  if not (name.startswith("__") and name.endswith("__")))


def benchmark_trace_targets() -> dict:
    """metric prefix -> (module, attribute) of every TIMED and COUNTED entry
    of perfbench/tracing.py, read from its source."""
    targets = {}
    for node in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED")
                for t in node.targets):
            targets.update(ast.literal_eval(node.value))
    return targets


def readers_of(trees, name) -> list:
    """module.top for each top-level def or class of a module (module.<module>
    for its other statements) whose code reads name, as a name or an attribute."""
    found = set()
    for fname, tree in trees.items():
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            if any(isinstance(node, ast.Name) and node.id == name
                   or isinstance(node, ast.Attribute) and node.attr == name
                   for node in ast.walk(top) if isinstance(getattr(node, "ctx", None), ast.Load)):
                found.add("%s.%s" % (Path(fname).stem, where))
    return sorted(found)


def package_imports(tree) -> set:
    """The package modules a tree imports, in any of the forms from . import a,
    from .a import x, from toruslie import a, from toruslie.a import x and
    import toruslie.a."""
    modules, found = {path.stem for path in SRC.glob("*.py")}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if not node.level:
                if path[0] != "toruslie":
                    continue
                path = path[1:] or [""]
            found |= {path[0]} if path[0] else {
                alias.name for alias in node.names if alias.name in modules}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("toruslie.")}
    return found


def imports_in_functions(trees) -> list:
    """module.function for each def whose body holds an import statement."""
    return sorted("%s.%s" % (Path(fname).stem, node.name)
                  for fname, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(isinstance(inner, (ast.Import, ast.ImportFrom))
                          for inner in ast.walk(node)))


def lru_cached_functions(trees) -> list:
    """module.name of each function a module memoises with functools'
    lru_cache or cache, bare or called, by name or as functools.name."""
    found = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
                    if name in ("lru_cache", "cache"):
                        found.append("%s.%s" % (Path(fname).stem, node.name))
    return sorted(found)


def defined_names(tree) -> set:
    """Every name a tree defines: def, class, argument, assigned name or
    assigned attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def prose_private_names(source) -> set:
    """The names led by one underscore that a module's docstrings and comments cite."""
    tree = ast.parse(source)
    texts = [ast.get_docstring(node) or "" for node in ast.walk(tree) if isinstance(
        node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    texts += [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.COMMENT]
    return {name for text in texts for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", text)}


def readme_module_references(text) -> set:
    """(module, name) for each module.name in text whose module is one of the
    package's; a file name such as suites.py is not a reference."""
    modules = "|".join(sorted(path.stem for path in SRC.glob("*.py")))
    return set(re.findall(r"\b(%s)\.(?!py\b)([A-Za-z_]\w*)" % modules, text))


def test_no_module_imports_a_name_it_never_uses():
    found = {name: unused_imports(tree) for name, tree in module_trees().items()}
    assert len(found) >= 10
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert len(tests) >= 10
    found.update({"tests/" + path.name: unused_imports(ast.parse(path.read_text()))
                  for path in tests})
    assert {name: names for name, names in found.items() if names} == {}


def test_every_definition_is_reached_from_the_package():
    assert unreached_definitions(module_trees()) == []


def test_every_module_level_public_name_is_read_from_the_package():
    assert unread_module_names(module_trees()) == []


def test_package_binds_only_names_its_readers_import():
    readers = [path.read_text() for folder in ("tests", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    readers.append((ROOT / "README.md").read_text())
    assert package_names_no_reader_imports((SRC / "__init__.py").read_text(),
                                           readers) == []


def test_every_benchmark_trace_target_exists():
    # the tracer skips a target it cannot find with only a warning, and
    # that layer's metrics then drop out of the bench files unnoticed;
    # like the tracer, a method must be defined on the class it names
    targets = benchmark_trace_targets()
    assert len(targets) >= 20
    missing = []
    for name, (module, attr) in sorted(targets.items()):
        owner = importlib.import_module(module)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or last not in vars(owner):
            missing.append(name)
    assert missing == []


def test_the_lattice_proof_runner_is_read_only_by_prove():
    # every lattice proof is a row of proofs.PROOFS, which the premise audit reads
    assert readers_of(module_trees(), "_lattice_proof") == ["proofs._prove"]


def test_the_proofs_module_imports_none_of_its_runners():
    # the suites run the proofs by name, so proofs stays below them; the
    # cycle between suites and certificates is laid out at module level
    trees = module_trees()
    assert package_imports(trees["proofs.py"]) & {"suites", "certificates", "cli"} == set()
    assert {"glmod", "tensor"} <= package_imports(trees["proofs.py"])
    assert imports_in_functions(trees) == []


def test_package_imports_are_found_in_every_form():
    tree = ast.parse("""
from . import glmod, rat
from .tensor import act
from toruslie import probe
from toruslie.weyl import WeylOp
import toruslie.linalg as la
import random
from itertools import product
def late():
    from . import suites
    return suites
""")
    assert package_imports(tree) == {"glmod", "tensor", "probe", "weyl", "linalg", "suites"}
    assert imports_in_functions({"m.py": tree}) == ["m.late"]


def test_readers_are_found_in_nested_code_and_by_attribute():
    tree = ast.parse("""
def a():
    def inner():
        return run()
    return inner
def b():
    return mod.run
def c(run):
    return 1
class K:
    go = staticmethod(run)
x = [run]
""")
    assert readers_of({"m.py": tree}, "run") == ["m.<module>", "m.K", "m.a", "m.b"]


def test_the_cache_fixture_clears_every_lru_cache_of_the_package():
    # a cache the fixture misses keeps what a monkeypatched test built
    cleared = sorted("%s.%s" % (f.__module__.rsplit(".", 1)[-1], f.__name__)
                     for f in PACKAGE_CACHES)
    assert cleared == lru_cached_functions(module_trees())
    assert len(cleared) >= 4


def test_lru_caches_are_found_in_every_decorator_form():
    tree = ast.parse("""
@lru_cache(maxsize=8)
def a(): pass
@functools.lru_cache
def b(): pass
@cache
def c(): pass
@cached_property
def d(): pass
class K:
    @functools.cache
    def e(self): pass
""")
    assert lru_cached_functions({"m.py": tree}) == ["m.a", "m.b", "m.c", "m.e"]


def test_package_names_are_matched_against_reader_imports():
    init = "from .a import (kept, Dropped)\nfrom .b import used as alias\n__all__ = []\n"
    readers = ["from toruslie import (kept,\n    other)", "  from toruslie import alias  # x"]
    assert package_names_no_reader_imports(init, readers) == ["Dropped"]


def test_module_level_names_in_branches_are_scanned():
    tree = ast.parse("""
try:
    from fast import mpq as rational
except ImportError:
    rational = float
if rational:
    TABLE: dict = {}
KEPT = _PRIVATE = 1
def use():
    return mod.KEPT
""")
    assert unread_module_names({"m.py": tree}) == ["m.TABLE"]


def test_class_qualified_reads_reach_that_class_only():
    tree = ast.parse("""
class Base:
    def make(self): pass
class A(Base):
    def monomial(self): pass
class B(Base):
    def monomial(self): pass
    def word(self): pass
def use(b):
    return B.monomial(), A.make(), b.word()
""")
    assert unreached_definitions({"m.py": tree}) == ["m.A.monomial", "m.use"]


def test_readme_references_to_the_package_resolve():
    refs = readme_module_references((ROOT / "README.md").read_text())
    assert len(refs) >= 20
    assert sorted("%s.%s" % (module, name) for module, name in refs if not hasattr(
        importlib.import_module("toruslie." + module), name)) == []


def test_private_names_in_test_prose_are_defined():
    # a docstring or comment that cites a helper a change renamed or removed
    package = set().union(*map(defined_names, module_trees().values()))
    stale = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        source = path.read_text()
        missing = prose_private_names(source) - package - defined_names(ast.parse(source))
        if missing:
            stale[path.name] = sorted(missing)
    assert stale == {}


def test_prose_names_and_readme_references_are_found():
    source = '''"""Reads _kept and _gone."""
x = 1  # after _other, not y_1 or __init__
def f(_arg):
    """See probe._deep."""
'''
    assert prose_private_names(source) == {"_kept", "_gone", "_other", "_deep"}
    assert {"f", "_arg", "x"} <= defined_names(ast.parse(source))
    assert readme_module_references("`suites.run_lattice`, suites.py, toruslie.cli, "
                                    "glmod.rank_one.") == {("suites", "run_lattice"),
                                                           ("glmod", "rank_one")}
