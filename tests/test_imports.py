"""Every module of the package uses each name it imports.

No linter runs on this repository, so this walks the syntax trees instead.
``__init__.py`` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ara"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
