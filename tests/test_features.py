from itertools import combinations

import numpy as np
import pytest

from collusioncore.embeddings import HashEmbedder
from collusioncore.features import (
    MFE_SIZE,
    SFE_SIZE,
    extract_all,
    feature_header,
    mfe,
    read_features,
    sfe,
    stat5,
    tfe,
    write_features,
)
from collusioncore.korse import CorePartition

from conftest import make_comment, make_dataset, make_user, make_video
from oracles import cosine, oracle_sfe, oracle_stat5


def test_stat5_examples():
    assert stat5([]).as_list() == [0, 0, 0, 0, 0]
    assert stat5([5]).as_list() == [5, 5, 5, 5, 0]
    s = stat5([1, 2, 3])
    assert (s.max, s.min, s.total, s.average) == (3, 1, 6, 2)
    assert s.variance == pytest.approx(2 / 3)


def test_stat5_matches_naive_recomputation():
    rng = np.random.default_rng(4)
    for _ in range(300):
        values = rng.normal(size=rng.integers(0, 12)).tolist()
        got = stat5(values)
        expected = oracle_stat5(values)
        assert np.allclose(got.as_list(), expected)
        if values:
            assert got.min <= got.average <= got.max
        assert got.variance >= 0


def test_mfe_no_uploads_all_zero():
    d = make_dataset(users=[make_user("u")])
    assert np.array_equal(mfe(d, "u"), np.zeros(26))


def test_mfe_single_video_layout():
    d = make_dataset(
        users=[make_user("u")],
        videos=[make_video("v", "u", duration=60, likes=10, dislikes=2, views=100)],
        comments=[make_comment("u", "v") for _ in range(3)],
    )
    expected = (
        [3, 3, 3, 3, 0]
        + [1]
        + [60, 60, 60, 60, 0]
        + [10, 10, 10, 10, 0]
        + [2, 2, 2, 2, 0]
        + [100, 100, 100, 100, 0]
    )
    assert np.array_equal(mfe(d, "u"), np.array(expected, dtype=float))


@pytest.fixture
def provider():
    return HashEmbedder(dim=64, seed=9)


def test_sfe_degenerate_sets_zero(provider):
    d = make_dataset(
        users=[make_user("u"), make_user("w")],
        videos=[make_video("v", "w")],
        comments=[make_comment("u", "v", text="only one comment")],
    )
    out = sfe(d, "u", provider)
    assert np.array_equal(out[:15], np.zeros(15))  # SC, OC, SCxOC all degenerate


def test_sfe_duplicate_other_comments_max_one(provider):
    d = make_dataset(
        users=[make_user("u"), make_user("w")],
        videos=[make_video("v", "w")],
        comments=[
            make_comment("u", "v", text="same words here"),
            make_comment("u", "v", text="same words here"),
        ],
    )
    out = sfe(d, "u", provider)
    assert out[5] == pytest.approx(1.0)  # max cosine within OC


def test_sfe_sc_block_matches_bruteforce(provider):
    texts = ["alpha beta", "beta gamma", "gamma delta alpha"]
    d = make_dataset(
        users=[make_user("u")],
        videos=[make_video("v", "u")],
        comments=[make_comment("u", "v", text=t) for t in texts],
    )
    out = sfe(d, "u", provider)
    emb = [provider.embed_text(t) for t in texts]
    cosines = [cosine(a, b) for a, b in combinations(emb, 2)]
    expected = [max(cosines), min(cosines), sum(cosines),
                np.mean(cosines), np.var(cosines)]
    assert np.allclose(out[:5], expected)


def reprs(values):
    return [repr(v) for v in values.tolist()]


@pytest.mark.parametrize("pair_cap", [200, 3])
def test_sfe_matches_per_pair_cosine_oracle(provider, synth_default, pair_cap):
    dataset, _ = synth_default
    for uid in sorted(u.user_id for u in dataset.users):
        got = sfe(dataset, uid, provider, pair_cap)
        assert reprs(got) == reprs(oracle_sfe(dataset, uid, provider, pair_cap)), uid


def test_sfe_with_an_empty_comment_matches_oracle(provider):
    d = make_dataset(
        users=[make_user("u"), make_user("w")],
        videos=[make_video("v1", "u"), make_video("v2", "w", title="other")],
        comments=[
            make_comment("u", "v1", text="", ts=3),
            make_comment("u", "v1", text="alpha beta", ts=2),
            make_comment("u", "v2", text="  ", ts=1),
            make_comment("u", "v2", text="beta gamma", ts=4),
        ],
    )
    got = sfe(d, "u", provider)
    assert got[10] > 0.0 and got[11] == 0.0  # SC x OC: every pair with a zero vector reads 0.0
    assert reprs(got) == reprs(oracle_sfe(d, "u", provider))


def test_sfe_entries_bounded(provider, synth_default):
    dataset, _ = synth_default
    for uid in list(sorted(u.user_id for u in dataset.users))[:5]:
        out = sfe(dataset, uid, provider)
        for block in range(5):
            base = block * 5
            assert -1 - 1e-9 <= out[base] <= 1 + 1e-9      # max
            assert -1 - 1e-9 <= out[base + 1] <= 1 + 1e-9  # min
            assert -1 - 1e-9 <= out[base + 3] <= 1 + 1e-9  # average


def test_tfe_mean_of_comment_embeddings(provider):
    d = make_dataset(
        users=[make_user("u"), make_user("w")],
        videos=[make_video("v", "w")],
        comments=[
            make_comment("u", "v", text="first text"),
            make_comment("u", "v", text="second text"),
        ],
    )
    expected = (provider.embed_text("first text") + provider.embed_text("second text")) / 2
    assert np.allclose(tfe(d, "u", provider), expected)
    assert np.array_equal(tfe(d, "w", provider), np.zeros(64))
    d1 = make_dataset(
        users=[make_user("u"), make_user("w")],
        videos=[make_video("v", "w")],
        comments=[make_comment("u", "v", text="first text")],
    )
    assert np.array_equal(tfe(d1, "u", provider), provider.embed_text("first text"))


def test_locality_under_unrelated_records(provider):
    base = make_dataset(
        users=[make_user("u"), make_user("w")],
        videos=[make_video("v1", "u"), make_video("v2", "w")],
        comments=[
            make_comment("u", "v1", text="mine own"),
            make_comment("u", "v2", text="on theirs"),
        ],
    )
    grown = make_dataset(
        users=list(base.users) + [make_user("zz")],
        videos=list(base.videos) + [make_video("v9", "zz")],
        comments=list(base.comments) + [make_comment("zz", "v9", text="noise"),
                                        make_comment("w", "v1", text="reply")],
    )
    assert np.array_equal(mfe(base, "u"), mfe(grown, "u"))
    assert np.array_equal(sfe(base, "u", provider), sfe(grown, "u", provider))
    assert np.array_equal(tfe(base, "u", provider), tfe(grown, "u", provider))


def test_extract_all_order_and_labels(provider):
    d = make_dataset(
        users=[make_user(u) for u in ("c", "a", "b")],
        videos=[make_video("v", "a")],
        comments=[make_comment("a", "v"), make_comment("b", "v"), make_comment("c", "v")],
    )
    feats = extract_all(d, provider=provider)
    assert [f.user_id for f in feats] == ["a", "b", "c"]
    assert all(f.label is None for f in feats)

    part = CorePartition(
        core=frozenset({"a"}), periphery=frozenset({"b", "c"}),
        core_threshold=1, normalized_threshold=1.0, peak_wicci=1.0, sweep_trace=(),
    )
    feats = extract_all(d, partition=part, provider=provider)
    assert [f.label for f in feats] == ["core", "compromised", "compromised"]


def test_extraction_deterministic(provider):
    d = make_dataset(
        users=[make_user("a"), make_user("b")],
        videos=[make_video("v", "a", duration=9)],
        comments=[make_comment("a", "v", text="one two"), make_comment("b", "v", text="two")],
    )
    first = extract_all(d, provider=provider)
    second = extract_all(d, provider=HashEmbedder(dim=64, seed=9))
    for x, y in zip(first, second):
        assert np.array_equal(x.mfe, y.mfe)
        assert np.array_equal(x.sfe, y.sfe)
        assert np.array_equal(x.tfe, y.tfe)


def test_extract_all_planted_label_counts(provider, synth_default):
    dataset, labels = synth_default
    from collusioncore.graph import build_ccn
    from collusioncore.korse import korse

    part = korse(build_ccn(dataset))
    feats = extract_all(dataset, partition=part, provider=provider)
    got_core = sum(1 for f in feats if f.label == "core")
    assert got_core == sum(1 for l in labels.values() if l == "core")


@pytest.mark.parametrize("rows", [["u1,periphery"], ["u1,core", "u1,"]],
                         ids=["unknown-label", "duplicate-user"])
def test_read_features_rejects_bad_rows(tmp_path, rows):
    values = ",".join(["0.0"] * (MFE_SIZE + SFE_SIZE + 2))
    path = tmp_path / "features.csv"
    path.write_text(",".join(feature_header(2)) + "\n" +
                    "".join(f"{row},{values}\n" for row in rows))
    with pytest.raises(ValueError):
        read_features(path)


def test_feature_csv_roundtrip(tmp_path, provider):
    d = make_dataset(
        users=[make_user("a"), make_user("b")],
        videos=[make_video("v", "a", duration=5, views=7)],
        comments=[make_comment("a", "v", text="x y"), make_comment("b", "v", text="z")],
    )
    feats = extract_all(d, provider=provider)
    path = tmp_path / "features.csv"
    write_features(feats, path)
    again = read_features(path)
    assert [f.user_id for f in again] == [f.user_id for f in feats]
    for x, y in zip(feats, again):
        assert np.array_equal(x.mfe, y.mfe)
        assert np.array_equal(x.sfe, y.sfe)
        assert np.array_equal(x.tfe, y.tfe)
        assert x.label == y.label
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("user_id,label,mfe_0,")
    assert header.endswith("tfe_63")
