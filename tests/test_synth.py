import collections

import pytest

from collusioncore import synth
from collusioncore.records import validate
from collusioncore.synth import (
    SynthConfig,
    generate,
    read_labels,
    write_labels,
    write_meta,
)

from conftest import SYNTH_SEED


def test_same_seed_byte_identical(tmp_path):
    from collusioncore.records import write_dataset

    for run in ("one", "two"):
        d, labels = generate(SynthConfig(seed=SYNTH_SEED))
        out = tmp_path / run
        out.mkdir()
        write_dataset(d, out / "comments.jsonl", out / "videos.jsonl", out / "users.jsonl")
        write_labels(labels, out / "labels.tsv")
    for name in ("comments.jsonl", "videos.jsonl", "users.jsonl", "labels.tsv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_different_seeds_differ():
    a, _ = generate(SynthConfig(seed=1))
    b, _ = generate(SynthConfig(seed=2))
    assert a.comments != b.comments


def test_generated_dataset_validates(synth_default):
    dataset, _ = synth_default
    assert validate(dataset) == []


def test_labels_cover_all_users(synth_default):
    dataset, labels = synth_default
    assert set(labels) == {u.user_id for u in dataset.users}
    counts = collections.Counter(labels.values())
    assert counts["core"] == 20
    assert counts["compromised"] == 200


def test_no_core_config_runs():
    d, labels = generate(SynthConfig(n_core=0, n_videos=60, n_compromised=40,
                                     peripheral_community_count=4, seed=1))
    assert set(labels.values()) == {"compromised"}
    assert validate(d) == []


def test_infeasible_config_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        SynthConfig(n_videos=0)
    with pytest.raises(ValueError):
        SynthConfig(n_core=1, n_compromised=0)


def test_symmetric_multipliers_give_unit_ratios(monkeypatch):
    for name in ("CORE_CONTRIBUTION_MULTIPLIER", "PER_VIDEO_AGGRESSION_MULTIPLIER",
                 "SELF_COMMENT_MULTIPLIER_COMPROMISED"):
        monkeypatch.setattr(synth, name, 1.0)
    d, labels = generate(SynthConfig(seed=5))
    core = {u for u, l in labels.items() if l == "core"}
    comp = set(labels) - core
    made = collections.Counter(c.user_id for c in d.comments)
    ratio = (sum(made.get(u, 0) for u in core) / len(core)) / (
        sum(made.get(u, 0) for u in comp) / len(comp)
    )
    assert ratio == pytest.approx(1.0, rel=0.25)


def test_contribution_ratio_converges_at_scale():
    # law-of-large-numbers check: bigger classes, 10% relative tolerance
    cfg = SynthConfig(n_core=40, n_compromised=400, n_videos=800, seed=11)
    d, labels = generate(cfg)
    core = {u for u, l in labels.items() if l == "core"}
    comp = set(labels) - core
    made = collections.Counter(c.user_id for c in d.comments)
    ratio = (sum(made.get(u, 0) for u in core) / len(core)) / (
        sum(made.get(u, 0) for u in comp) / len(comp)
    )
    assert ratio == pytest.approx(2.665, rel=0.10)


def test_planted_core_is_dense_block(synth_graph, synth_default):
    g, _ = synth_graph
    _, labels = synth_default
    core = {u for u, l in labels.items() if l == "core"}
    pairs = 0
    present = 0
    core_list = sorted(core)
    for i, a in enumerate(core_list):
        for b in core_list[i + 1:]:
            pairs += 1
            if ((a, b) if a < b else (b, a)) in g.edges:
                present += 1
    assert present / pairs >= 0.95


def test_some_videos_have_only_core_or_only_compromised_commenters(synth_default):
    dataset, labels = synth_default
    roles = [{labels[u] for u in commenters} for commenters in dataset.video_commenters.values()]
    assert {"core"} in roles
    assert {"compromised"} in roles


def test_labels_file_roundtrip(tmp_path, synth_default):
    _, labels = synth_default
    path = tmp_path / "labels.tsv"
    write_labels(labels, path)
    assert read_labels(path) == labels


def test_meta_file_lists_config(tmp_path):
    cfg = SynthConfig(seed=3)
    path = tmp_path / "synth_meta"
    write_meta(cfg, path)
    assert path.read_bytes() == (b"n_compromised=200\nn_core=20\nn_videos=400\n"
                                 b"peripheral_community_count=8\nseed=3\n")
