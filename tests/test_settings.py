"""The library refuses exactly what the CLI refuses: every entry point that
takes a tunable setting checks it against its bound in
``collusioncore.settings``, with the message the CLI gives for it."""

import math
import sys
from argparse import Namespace

import numpy as np
import pytest

from collusioncore import cli
from collusioncore.analysis import louvain, removal_curve
from collusioncore.centrality import wbc_baseline
from collusioncore.embeddings import HashEmbedder
from collusioncore.features import MFE_SIZE, SFE_SIZE, FeatureVector, extract_all
from collusioncore.korse import korse, write_sweep
from collusioncore.nurse import NurseConfig, ablations, evaluate
from collusioncore.settings import SETTINGS
from collusioncore.synth import SynthConfig

from conftest import clique, make_comment, make_dataset, make_user, make_video

GRAPH = clique("abcd")
DATASET = make_dataset(users=[make_user("u"), make_user("w")],
                       videos=[make_video("v", "u")],
                       comments=[make_comment("u", "v", "a b"), make_comment("w", "v", "b c")])
TINY = NurseConfig(embedding_dim=2, epochs=1, batch_size=4)


def labelled():
    """Four labelled users of each class, enough for 2-fold evaluation."""
    rng = np.random.default_rng(0)
    return [FeatureVector(user_id=f"u{i}", label=("core", "compromised")[i % 2],
                          mfe=rng.standard_normal(MFE_SIZE), sfe=rng.standard_normal(SFE_SIZE),
                          tfe=rng.standard_normal(2))
            for i in range(8)]


# entry point: (setting, the entry point's name for it, call with a value)
ENTRY_POINTS = {
    "korse": ("beta", "beta", lambda v, tmp: korse(GRAPH, beta=v)),
    "write_sweep": ("beta", "beta", lambda v, tmp: write_sweep(korse(GRAPH), tmp / "s.csv", v)),
    "removal_curve": ("step", "step_fraction",
                      lambda v, tmp: removal_curve(GRAPH, "weighted_degree", step_fraction=v)),
    "HashEmbedder-dim": ("dim", "dim", lambda v, tmp: HashEmbedder(dim=v)),
    "HashEmbedder-seed": ("seed", "seed", lambda v, tmp: HashEmbedder(dim=2, seed=v)),
    "extract_all": ("pair_cap", "pair_cap",
                    lambda v, tmp: extract_all(DATASET, provider=HashEmbedder(dim=2), pair_cap=v)),
    **{f"NurseConfig-{field}": (setting, field,
                                lambda v, tmp, field=field: NurseConfig(**{field: v}))
       for setting, field in [("dim", "embedding_dim"), ("learning_rate", "learning_rate"),
                              ("momentum", "momentum"), ("epochs", "epochs"),
                              ("batch_size", "batch_size"), ("seed", "seed")]},
    "evaluate": ("folds", "folds", lambda v, tmp: evaluate(labelled(), TINY, folds=v)),
    "ablations": ("folds", "folds", lambda v, tmp: ablations(labelled(), TINY, folds=v)),
    "wbc_baseline": ("threshold_k", "k", lambda v, tmp: wbc_baseline(GRAPH, k=v)),
    "louvain": ("seed", "seed", lambda v, tmp: louvain(GRAPH, seed=v)),
    "SynthConfig": ("seed", "seed", lambda v, tmp: SynthConfig(seed=v)),
}

BIGGEST = sys.float_info.max
# setting: (the value just past its bound, the bound's edge) pairs
BOUNDS = {
    "seed": [(-1, 0)],
    "beta": [(0.0, math.ulp(0.0))],
    "step": [(math.nextafter(1e-300, 0.0), 1e-300), (math.nextafter(0.05, 1.0), 0.05)],
    "dim": [(1, 2)],
    "pair_cap": [(-1, 0)],
    "epochs": [(0, 1)],
    "learning_rate": [(math.nan, BIGGEST), (math.inf, BIGGEST), (-math.inf, -BIGGEST)],
    "momentum": [(math.nan, BIGGEST), (math.inf, BIGGEST), (-math.inf, -BIGGEST)],
    "batch_size": [(0, 1)],
    "folds": [(1, 2)],
    "threshold_k": [(-1, 0)],
}
CASES = [pytest.param(entry, bad, edge, id=f"{entry}={bad!r}")
         for entry, (setting, _, _) in ENTRY_POINTS.items() for bad, edge in BOUNDS[setting]]


def test_every_setting_has_an_entry_point_and_bounds():
    covered = {setting for setting, _, _ in ENTRY_POINTS.values()}
    assert covered == SETTINGS.keys() == BOUNDS.keys()


def cli_refusal(setting, value):
    """The CLI's message for ``value`` given as ``setting``, or None if it takes it."""
    try:
        cli._resolve_settings(Namespace(config=None, **{setting: value}))
    except cli.InputError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("entry,bad,edge", CASES)
def test_the_library_refuses_a_value_past_the_bound(entry, bad, edge, tmp_path):
    setting, param, call = ENTRY_POINTS[entry]
    text = SETTINGS[setting].text
    with pytest.raises(ValueError) as refused:
        call(bad, tmp_path)
    assert str(refused.value) == f"{param} must be {text}, got {bad!r}"
    assert cli_refusal(setting, bad) == f"{setting} must be {text}, got {bad!r}"


@pytest.mark.parametrize("entry,bad,edge", CASES)
def test_the_library_accepts_the_bounds_edge(entry, bad, edge, tmp_path):
    setting, _, call = ENTRY_POINTS[entry]
    call(edge, tmp_path)
    assert cli_refusal(setting, edge) is None

