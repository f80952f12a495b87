"""Every module of the package uses each name it imports, every private
top-level function or class is used somewhere in the package, every
exported function is called from another module of the package, no
module imports scipy, the generic modules import no domain module, no
module raises a bare built-in exception, no domain function reads its
``pe0`` argument, and only ``FamsInstance.tables`` builds ``FamsTables``.

No linter runs on this repository, so this walks the syntax trees instead.
``__init__.py`` is left out of the import check: it imports names to
re-export them.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ara"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # forward references such as -> "CompiledGame" name their type in a string
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.isidentifier()}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_names():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n"
    assert unused_imports(source) == ["e (line 2)", "os (line 1)"]


def _references(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1  # forward references
    return names


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Private top-level functions and classes that nothing in ``sources``
    (module name -> text) refers to outside their own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, DEFINITIONS) and node.name.startswith("_")
                  and total[node.name] == _references(node)[node.name])


def test_no_unreferenced_private_helpers():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def test_checker_sees_unreferenced_helpers():
    sources = {
        "a": "def _used():\n    pass\n\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n\n"
             "class _Dead:\n    pass\n\n"
             "def _typed() -> '_Forward':\n    return _used()\n",
        "b": "from a import _typed\n\nclass _Forward:\n    pass\n\n"
             "def public():\n    return _typed()\n",
    }
    assert unreferenced_private(sources) == ["a._Dead", "a._recursive"]


def unused_exports(sources: dict[str, str]) -> list[str]:
    """Functions in ``__init__``'s ``__all__`` that no module of ``sources``
    (module name -> text) refers to, besides ``__init__`` and the module
    that defines them."""
    init = ast.parse(sources["__init__"])
    exported = next(ast.literal_eval(node.value) for node in init.body
                    if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")
    home = {alias.name: node.module.rsplit(".", 1)[-1] for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    trees = {name: ast.parse(text) for name, text in sources.items() if name != "__init__"}
    out = []
    for name in exported:
        defined = trees[home[name]].body
        if not any(isinstance(node, ast.FunctionDef) and node.name == name for node in defined):
            continue  # a class or a constant
        if not any(_references(tree)[name] for module, tree in trees.items()
                   if module != home[name]):
            out.append(f"{home[name]}.{name}")
    return sorted(out)


def test_every_exported_function_has_a_caller():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_exports(sources) == []


def test_checker_sees_unused_exports():
    sources = {
        "__init__": "from pkg.a import Kind, called, planted\nfrom pkg.b import run\n"
                    "__all__ = ['Kind', 'called', 'planted', 'run']\n",
        "a": "class Kind:\n    pass\n\n"
             "def called():\n    return planted()\n\n"
             "def planted():\n    return 1\n",
        "b": "from pkg.a import called\n\ndef run():\n    return called()\n",
    }
    assert unused_exports(sources) == ["a.planted", "b.run"]


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules that ``source`` imports, at any depth."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_import_scipy(path):
    # importing HiGHS (scipy.optimize) adds about 50 MB RSS, past the benchmark's
    # 10 % peak_rss_mb bound; tests and the benchmark's checks may use it
    assert "scipy" not in imported_modules(path.read_text())


def test_checker_sees_scipy_imports():
    source = ("import numpy as np\n"
              "def f():\n    from scipy.optimize import linprog\n    return linprog\n"
              "import scipy.sparse as sp\nfrom . import lp\n")
    assert imported_modules(source) == {"numpy", "scipy"}


GENERIC = ("core", "lp", "marginal", "sampling", "exact")
DOMAINS = ("ara.fams", "ara.tsg")


def domain_imports(source: str) -> list[str]:
    """The imports of a domain module (or of a name in one) in ``source``,
    at any depth, absolute or relative to the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module if node.level == 0 else ".".join(filter(None, ("ara", node.module)))
            names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            continue
        found.update(name for name in names
                     if any(name == d or name.startswith(d + ".") for d in DOMAINS))
    return sorted(found)


@pytest.mark.parametrize("name", GENERIC)
def test_generic_modules_import_no_domain(name):
    # the air-marshal and screening domains build on the generic layers,
    # never the other way round
    assert domain_imports((PACKAGE / f"{name}.py").read_text()) == []


def test_checker_sees_domain_imports():
    source = ("from ara.core import GameError\nimport ara.fams\n"
              "def f():\n    from ara import tsg\n    from .fams import FamsFixer\n"
              "from . import lp\nfrom ara.tsgx import y\n")
    assert domain_imports(source) == ["ara.fams", "ara.fams.FamsFixer", "ara.tsg"]


BUILTIN_ERRORS = ("ValueError", "TypeError", "KeyError", "RuntimeError", "AssertionError")


def builtin_raises(source: str) -> list[str]:
    """The ``raise`` statements in ``source`` of a bare built-in exception,
    called or not, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                found.append((node.lineno, exc.id))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_raises_named_errors(path):
    # the CLI turns only the package's named errors into exit codes; a bare
    # built-in one ends a command in a traceback
    assert builtin_raises(path.read_text()) == []


def test_checker_sees_builtin_raises():
    source = ("def f(x):\n    if x:\n        raise ValueError('x')\n"
              "    try:\n        g()\n    except KeyError:\n        raise\n"
              "    raise TypeError\n\nraise GameError('named')\nraise lib.KeyError()\n")
    assert builtin_raises(source) == ["ValueError (line 3)", "TypeError (line 8)"]


def pe0_readers(source: str) -> list[str]:
    """The functions in ``source`` that take a ``pe0`` argument and read it
    anywhere in their body, nested functions and lambdas included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            if "pe0" in {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)}:
                body = node.body if isinstance(node.body, list) else [node.body]
                if any(isinstance(n, ast.Name) and n.id == "pe0"
                       for stmt in body for n in ast.walk(stmt)):
                    found.append(f"{getattr(node, 'name', 'lambda')} (line {node.lineno})")
    return found


@pytest.mark.parametrize("name", ("fams", "tsg"))
def test_domain_fixers_do_not_read_pe0(name):
    # the PE0 slack column belongs to ara.sampling, which drops it before a
    # fixer runs; a fixer that reads ``pe0`` would learn of it again
    assert pe0_readers((PACKAGE / f"{name}.py").read_text()) == []


def test_checker_sees_pe0_readers():
    source = ("def reads(x, pe0, rng):\n    return x[:, :pe0.source_cols]\n\n"
              "def ignores(x, pe0: 'Pe0Form', rng):\n    return x\n\n"
              "class Fixer:\n    def nested(self, x, pe0):\n"
              "        return [lambda: pe0 for _ in x]\n\n"
              "def other(x):\n    return pe0\n")
    assert pe0_readers(source) == ["reads (line 1)", "nested (line 8)"]


def callers(source: str, name: str) -> list[str]:
    """The functions and methods of ``source`` that call ``name(...)`` or
    ``module.name(...)``, by dotted path and line of the call; a call
    outside any function is ``<module>``."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                visit(child, [*path, child.name])
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.append(f"{'.'.join(path) or '<module>'} (line {child.lineno})")
            visit(child, path)

    visit(ast.parse(source), [])
    return found


def test_fams_tables_are_built_only_by_the_instance():
    # one instance builds its tables once and every solve shares them; a
    # second builder would build them again
    found = [f"{p.stem}.{where}" for p in MODULES for where in callers(p.read_text(), "FamsTables")]
    assert [where.split(" (")[0] for where in found] == ["fams.FamsInstance.tables"]


def test_checker_sees_callers():
    source = ("class Inst:\n    def tables(self):\n        return Tables(self)\n\n"
              "def encode(inst):\n    t = [Tables(inst) for _ in ()]\n"
              "    def inner():\n        return mod.Tables(inst)\n    return Tables\n\n"
              "DEFAULT = Tables(None)\n")
    assert callers(source, "Tables") == ["Inst.tables (line 3)", "encode (line 6)",
                                         "encode.inner (line 8)", "<module> (line 11)"]
