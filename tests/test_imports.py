"""Rules read off each library module's source: every name it imports is
used in it, only the modules that own a file format open files, no graph
layer imports numpy, and only ``nurse`` imports a concurrency module. And
what the package loads: every public name, and no numpy in a process that
runs only graph commands."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import collusioncore
from collusioncore.records import write_dataset

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


# The layers a graph-only process runs load with the package; the numpy
# layers load on first use.
GRAPH_LAYERS = ("records", "tables", "settings", "graph", "kcore", "korse", "analysis",
                "centrality")
LAZY_LAYERS = ("embeddings", "features", "nurse", "synth")


def imported_modules(source: str) -> set:
    """What ``source`` imports, anywhere in it: the top-level name of each
    absolute import, and ``.name`` for each sibling module a relative import
    names (``from .x import y`` and ``from . import x`` both give ``.x``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add("." + node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            found |= {"." + alias.name for alias in node.names}
    return found


def reachable(sources: dict, start: str) -> set:
    """Every import an import chain from sibling ``start`` reaches;
    ``sources`` maps each sibling module's name to its source."""
    seen, todo = set(), [start]
    while todo:
        for name in imported_modules(sources[todo.pop()]) - seen:
            seen.add(name)
            if name[1:] in sources and name.startswith("."):
                todo.append(name[1:])
    return seen


@pytest.mark.parametrize("layer", GRAPH_LAYERS)
def test_no_import_chain_from_a_graph_layer_reaches_numpy(layer):
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert reachable(sources, layer) & {"numpy", *("." + m for m in LAZY_LAYERS)} == set()


def test_an_import_chain_is_followed():
    sources = {"a": "from .b import x\nimport json\n", "b": "def f():\n    from . import c\n",
               "c": "import numpy.linalg\n", "d": "import scipy\n"}
    assert reachable(sources, "a") == {".b", "json", ".c", "numpy"}
    assert reachable(sources, "c") == {"numpy"}


# nurse trains cross-validation folds in a process pool; every other layer
# runs in the caller's thread
CONCURRENT_MODULES = {"nurse"}
CONCURRENCY = {"multiprocessing", "concurrent", "threading", "subprocess"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem not in CONCURRENT_MODULES],
                         ids=lambda p: p.name)
def test_only_nurse_imports_a_concurrency_module(path):
    assert imported_modules(path.read_text(encoding="utf-8")) & CONCURRENCY == set()


@pytest.mark.parametrize("source,module", [
    ("import multiprocessing.pool\n", "multiprocessing"),
    ("from concurrent import futures\n", "concurrent"),
    ("def f():\n    import threading as t\n", "threading"),
    ("from subprocess import run\n", "subprocess"),
])
def test_a_concurrency_import_is_found(source, module):
    assert imported_modules(source) & CONCURRENCY == {module}


# Every name ``collusioncore`` exports, by the layer that defines it.
PUBLIC = {
    "analysis": ("CaseStudyReport", "CommunitySet", "InterplayRow", "RemovalCurve",
                 "case_study_report", "disintegration_fraction", "interplay_table", "louvain",
                 "modularity", "pearson", "periphery_largest_component", "removal_curve"),
    "centrality": ("wbc_baseline", "weighted_betweenness"),
    "embeddings": ("FileEmbedder", "HashEmbedder", "write_embedding_file"),
    "features": ("FeatureVector", "extract_all", "mfe", "stat5"),
    "graph": ("Ccn", "GraphStats", "build_ccn", "graph_stats"),
    "kcore": ("coreness",),
    "korse": ("CorePartition", "korse"),
    "nurse": ("EvalReport", "NurseConfig", "NurseModel", "ablations", "auc", "evaluate",
              "loss", "train"),
    "records": ("CommentRecord", "Dataset", "IngestError", "UserRecord", "VideoRecord",
                "ingest", "validate"),
    "synth": ("SynthConfig", "generate"),
}


@pytest.mark.parametrize("layer", sorted(PUBLIC))
def test_every_public_name_resolves_and_is_listed(layer):
    for name in PUBLIC[layer]:
        namespace = {}
        exec(f"from collusioncore import {name}", namespace)
        assert namespace[name] is getattr(sys.modules[f"collusioncore.{layer}"], name)
        assert name in dir(collusioncore)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        getattr(collusioncore, "bogus")
    with pytest.raises(ImportError, match="bogus"):
        exec("from collusioncore import bogus", {})


def test_star_import_and_dir_give_the_layers_and_their_public_names():
    expected = {*PUBLIC, "settings", "tables",
                *(name for names in PUBLIC.values() for name in names)}
    namespace = {}
    exec("from collusioncore import *", namespace)
    assert namespace.keys() - {"__builtins__"} == expected
    listed = {name for name in dir(collusioncore) if not name.startswith("_")}
    assert expected <= listed
    # beyond them, only submodules imported since, such as ``cli``
    assert all(f"collusioncore.{name}" in sys.modules for name in listed - expected)


# Run in a fresh interpreter: imports the package, then runs the graph
# commands given as JSON argv lists through the CLI.
GRAPH_RUN = """
import json, sys
import collusioncore
registered = sorted(m for m in sys.modules if m.startswith("collusioncore."))
from collusioncore.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"registered": registered, "codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_graph_commands_run_without_numpy(synth_default, tmp_path):
    files = [str(tmp_path / name) for name in ("comments.jsonl", "videos.jsonl", "users.jsonl")]
    write_dataset(synth_default[0], *files)
    data = [arg for pair in zip(("--comments", "--videos", "--users"), files) for arg in pair]
    graph = str(tmp_path / "ccn" / "ccn.tsv")
    commands = [
        ["ingest-check", *data, "--out", str(tmp_path / "check")],
        ["build-ccn", *data, "--out", str(tmp_path / "ccn")],
        ["kcore", "--graph", graph, "--out", str(tmp_path / "kcore")],
        ["korse", "--graph", graph, "--out", str(tmp_path / "korse")],
    ]
    src = str(Path(collusioncore.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", GRAPH_RUN, json.dumps(commands)], env=env,
                         capture_output=True, text=True, check=True)
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["registered"] == sorted(f"collusioncore.{m}"
                                          for m in PUBLIC.keys() | {"settings", "tables"})
    assert result["codes"] == [0, 0, 0, 0]
    assert result["numpy"] is False
    assert (tmp_path / "korse" / "partition.tsv").exists()
