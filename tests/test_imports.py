"""Every name a library module imports is used in it."""

import ast
from pathlib import Path

import pytest

import collusioncore

# __init__ imports names to re-export them
MODULES = sorted(p for p in Path(collusioncore.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names ``source`` imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    # `np.array` reads the Name `np`, so attribute chains count too
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nimport numpy.linalg\nfrom pathlib import Path as P, PurePath\nos.sep\nP\n"
    assert unused_imports(source) == [(2, "numpy"), (3, "PurePath")]
