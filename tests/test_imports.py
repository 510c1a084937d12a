"""Rules read off each library module's source: every name it imports is
used in it, and only the modules that own a file format open files."""

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


# tables reads and writes every tab-separated table; the others own formats
# with rules of their own (record files, features.csv, model.npz, --config
# and manifest.json)
FILE_OPENERS = {"tables", "records", "features", "nurse", "cli"}
FILE_METHODS = {"open", "readline", "read_text", "write_text"}


def file_calls(source: str) -> list:
    """``(line, name)`` of each call of ``open`` or of a method in
    :data:`FILE_METHODS` in ``source``."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            calls.append((node.lineno, "open"))
        elif isinstance(node.func, ast.Attribute) and node.func.attr in FILE_METHODS:
            calls.append((node.lineno, node.func.attr))
    return sorted(calls)


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem not in FILE_OPENERS],
                         ids=lambda p: p.name)
def test_only_the_format_modules_open_files(path):
    assert file_calls(path.read_text(encoding="utf-8")) == []


def test_a_file_call_is_found():
    source = ("open(p)\nPath(p).open()\nh.readline()\np.read_text()\np.write_text(t)\n"
              "readline()\nos.path.join(a)\n")
    assert file_calls(source) == [(1, "open"), (2, "open"), (3, "readline"),
                                  (4, "read_text"), (5, "write_text")]
