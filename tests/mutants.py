"""Mutants of ``src/`` that the tests must catch, and their runner.

Each row of :data:`MUTANTS` names a module of ``src/collusioncore``, an exact
text that occurs once in it, the text that replaces it, and the pytest node
ids of which at least one must fail once it is replaced.

    python tests/mutants.py

first runs every listed node id on an unchanged copy of ``src/`` (they must
pass), then applies each mutant alone to a fresh temporary copy of ``src/``
and runs only that mutant's node ids, with ``-x``. It lists each mutant that
survives (its tests pass) or breaks (pytest cannot run its tests), and exits 1
if there is one. Each mutant costs a pytest process, so the runner stays out
of tier-1; ``test_mutants.py`` checks there only that each text still occurs
once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "collusioncore"


def refuses(*cases):
    return [f"tests/test_settings.py::test_the_library_refuses_a_value_past_the_bound[{case}]"
            for case in cases]


MUTANTS = [
    # each bound check the library makes, deleted
    ("korse.py", 'check("beta", beta)\n    if graph.n_edges', 'pass\n    if graph.n_edges',
     refuses("korse=0.0")),
    ("korse.py", 'check("beta", beta)\n    if not partition', 'pass\n    if not partition',
     refuses("write_sweep=0.0")),
    ("analysis.py", 'check("step", step_fraction, "step_fraction")', "pass",
     refuses("removal_curve=9.999999999999999e-301", "removal_curve=0.05000000000000001")),
    ("analysis.py", 'check("seed", seed)', "pass", refuses("louvain=-1")),
    ("centrality.py", 'check("threshold_k", k, "k")', "pass", refuses("wbc_baseline=-1")),
    ("embeddings.py", 'check("dim", dim)', "pass", refuses("HashEmbedder-dim=1")),
    ("embeddings.py", 'check("seed", seed)', "pass", refuses("HashEmbedder-seed=-1")),
    ("features.py", 'check("pair_cap", pair_cap)', "pass", refuses("extract_all=-1")),
    ("nurse.py", 'check("dim", self.embedding_dim, "embedding_dim")', "pass",
     refuses("NurseConfig-embedding_dim=1")),
    ("nurse.py", "check(name, getattr(self, name))", "pass",
     refuses("NurseConfig-learning_rate=nan", "NurseConfig-momentum=inf", "NurseConfig-epochs=0",
             "NurseConfig-batch_size=0", "NurseConfig-seed=-1")),
    ("nurse.py", 'check("folds", folds)', "pass", refuses("evaluate=1", "ablations=1")),
    ("synth.py", 'check("seed", self.seed)', "pass", refuses("SynthConfig=-1")),
    # and the one the CLI makes before a run
    ("cli.py", "check(name, settings[name])", "pass",
     refuses("korse=0.0") + ["tests/test_cli.py::test_bad_tunables_are_input_errors"]),
    # KORSE keeps the first of tied maxima, the higher threshold
    ("korse.py", "best = max(trace, key=lambda p: p.wicci)",
     "best = max(reversed(trace), key=lambda p: p.wicci)",
     ["tests/test_korse.py::test_a_tie_keeps_the_higher_threshold"]),
    # the break-even cutoff is the number of positives
    ("nurse.py", "curve[n_pos - 1]", "curve[n_pos - 2]",
     ["tests/test_nurse.py::test_fold_metrics_matches_prefix_sum_oracle"]),
]


def pytest_code(src: Path, node_ids) -> int:
    """The exit code of pytest running ``node_ids`` against the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *node_ids],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        code = pytest_code(copy_src(tmp), sorted({i for *_, ids in MUTANTS for i in ids}))
    if code != 0:
        print(f"the listed tests do not pass on unchanged sources (pytest exit {code})")
        return 1
    bad = []
    for path, old, new, node_ids in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            target = copy_src(tmp) / "collusioncore" / path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(old, new), encoding="utf-8")
            code = pytest_code(target.parents[1], node_ids) if text.count(old) == 1 else None
        verdict = {None: "BROKEN (the text does not occur once)", 0: "SURVIVED",
                   1: "caught"}.get(code, f"BROKEN (pytest exit {code})")
        print(f"{verdict}: {path}: {old!r} -> {new!r}")
        if code != 1:
            bad.append(path)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
