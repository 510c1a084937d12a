import re
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from collusioncore.embeddings import HashEmbedder
from collusioncore.features import (
    MFE_SIZE,
    SFE_SIZE,
    FeatureVector,
    _cosines,
    _stacked,
    _video_text,
    extract_all,
    feature_header,
    mfe,
    read_features,
    stat5,
    write_features,
)
from collusioncore.graph import build_ccn
from collusioncore.korse import CorePartition, korse
from collusioncore.settings import SETTINGS
from collusioncore.tables import ID_RULE

from conftest import make_comment, make_dataset, make_user, make_video, odd_features
from oracles import cosine, oracle_sfe, oracle_stat5, oracle_tfe, oracle_write_features


def test_stat5_examples():
    assert stat5([]) == [0, 0, 0, 0, 0]
    assert stat5([5]) == [5, 5, 5, 5, 0]
    high, low, total, average, variance = stat5([1, 2, 3])
    assert (high, low, total, average) == (3, 1, 6, 2)
    assert variance == pytest.approx(2 / 3)


def test_stat5_matches_naive_recomputation():
    rng = np.random.default_rng(4)
    for _ in range(300):
        values = rng.normal(size=rng.integers(0, 12)).tolist()
        got = stat5(values)
        expected = oracle_stat5(values)
        assert np.allclose(got, expected)
        high, low, _, average, variance = got
        if values:
            assert low <= average <= high
        assert variance >= 0


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


PAIR_CAP = SETTINGS["pair_cap"].default


def features_of(dataset, user_id, provider, pair_cap=PAIR_CAP):
    """The FeatureVector of one user, from extract_all over every user."""
    by_id = {fv.user_id: fv for fv in extract_all(dataset, provider=provider, pair_cap=pair_cap)}
    return by_id[user_id]


def test_sfe_degenerate_sets_zero(provider):
    d = make_dataset(
        users=[make_user("u"), make_user("w")],
        videos=[make_video("v", "w")],
        comments=[make_comment("u", "v", text="only one comment")],
    )
    out = features_of(d, "u", provider).sfe
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
    out = features_of(d, "u", provider).sfe
    assert out[5] == pytest.approx(1.0)  # max cosine within OC


def test_sfe_sc_block_matches_bruteforce(provider):
    texts = ["alpha beta", "beta gamma", "gamma delta alpha"]
    d = make_dataset(
        users=[make_user("u")],
        videos=[make_video("v", "u")],
        comments=[make_comment("u", "v", text=t) for t in texts],
    )
    out = features_of(d, "u", provider).sfe
    emb = [provider.embed_text(t) for t in texts]
    cosines = [cosine(a, b) for a, b in combinations(emb, 2)]
    expected = [max(cosines), min(cosines), sum(cosines),
                np.mean(cosines), np.var(cosines)]
    assert np.allclose(out[:5], expected)


def reprs(values):
    return [repr(v) for v in values.tolist()]


@pytest.mark.parametrize("pair_cap,dim", [pytest.param(200, 64, id="200"),
                                          pytest.param(3, 64, id="3"),
                                          pytest.param(200, 768, id="200-dim768")])
def test_sfe_matches_per_pair_cosine_oracle(synth_default, pair_cap, dim):
    dataset, _ = synth_default
    provider = HashEmbedder(dim=dim, seed=9)
    for fv in extract_all(dataset, provider=provider, pair_cap=pair_cap):
        uid = fv.user_id
        assert reprs(fv.sfe) == reprs(oracle_sfe(dataset, uid, provider, pair_cap)), uid
        assert reprs(fv.tfe) == reprs(oracle_tfe(dataset, uid, provider)), uid


class CountingEmbedder(HashEmbedder):
    """A stub embedder that records every text it is asked to embed."""

    def __init__(self, dim, seed):
        super().__init__(dim=dim, seed=seed)
        self.texts = Counter()

    def embed_text(self, text):
        self.texts[text] += 1
        return super().embed_text(text)


@pytest.mark.parametrize("partitioned", [False, True], ids=["all-users", "partition"])
def test_extract_all_embeds_each_comment_and_video_once(synth_default, partitioned):
    dataset, _ = synth_default
    partition = korse(build_ccn(dataset)) if partitioned else None
    counting = CountingEmbedder(dim=8, seed=0)
    feats = extract_all(dataset, partition, provider=counting)
    expected = Counter()
    videos = set()
    for fv in feats:
        comments = dataset.comments_by_user.get(fv.user_id, ())
        expected.update(c.text for c in comments)
        own = sorted(v.video_id for v in dataset.videos_by_uploader.get(fv.user_id, ()))
        others = sorted({c.video_id for c in comments if c.video_id not in own})
        videos.update(own[:PAIR_CAP] + others[:PAIR_CAP])
    expected.update(_video_text(dataset.videos_by_id[vid]) for vid in videos)
    assert counting.texts == expected


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
    fv = features_of(d, "u", provider)
    assert fv.sfe[10] > 0.0 and fv.sfe[11] == 0.0  # SC x OC: a pair with a zero vector reads 0.0
    assert reprs(fv.sfe) == reprs(oracle_sfe(d, "u", provider))
    assert reprs(fv.tfe) == reprs(oracle_tfe(d, "u", provider))


def test_sfe_with_empty_members_in_every_set_matches_oracle(provider):
    blank = dict(title="", description="", genre="")  # a video text of spaces only
    d = make_dataset(
        users=[make_user("u"), make_user("w")],
        videos=[make_video("v1", "u", **blank), make_video("v2", "u", title="own video"),
                make_video("v3", "w", **blank), make_video("v4", "w", title="their video")],
        comments=[
            make_comment("u", "v1", text="", ts=1),
            make_comment("u", "v1", text="alpha beta", ts=2),
            make_comment("u", "v2", text="beta gamma", ts=3),
            make_comment("u", "v3", text=" ", ts=4),
            make_comment("u", "v4", text="gamma delta", ts=5),
            make_comment("u", "v4", text="delta alpha", ts=6),
        ],
    )
    # SC (v1, v2), OC (v3, v4), SV (v1, v2) and OV (v3, v4) each hold a zero vector
    assert not any(provider.embed_text(t).any() for t in ("", " ", _video_text(d.videos[0])))
    fv = features_of(d, "u", provider)
    assert reprs(fv.sfe) == reprs(oracle_sfe(d, "u", provider))
    assert reprs(fv.tfe) == reprs(oracle_tfe(d, "u", provider))


def row_sets(rng, dim):
    """Two sets of vectors with zero members, taken as rows and columns of
    non-contiguous arrays (views with strides other than one value)."""
    left = rng.standard_normal((9, 2 * dim)) * rng.uniform(0, 50, size=(9, 1))
    right = rng.standard_normal((3 * dim, 7))
    left[4] = 0.0
    right[:, 2] = 0.0
    return list(left[::2, ::2]), list(right[::3].T)


@pytest.mark.parametrize("dim", [2, 3, 7, 64, 768])
def test_cosine_rows_match_per_pair_dot(dim):
    """One vecdot call per row has the bits of one np.dot per pair.

    The reference dots contiguous copies, as providers return them: a
    strided ddot may sum in another order. Stacking copies the views, so
    the kernel's bits do not depend on the inputs' memory layout.
    """
    left, right = row_sets(np.random.default_rng(dim), dim)
    a, b = _stacked(left, dim), _stacked(right, dim)
    left, right = [np.ascontiguousarray(v) for v in left], [np.ascontiguousarray(v) for v in right]
    for got, pairs in ((_cosines(a), combinations(left, 2)),
                       (_cosines(a, b), product(left, right)),
                       (_cosines(b, a), product(right, left))):
        assert [repr(v) for v in got] == [repr(cosine(x, y)) for x, y in pairs]
    assert _cosines(_stacked(left[:1], dim)) == []
    assert _cosines(a, _stacked([], dim)) == [] == _cosines(_stacked([], dim), b)


def test_sfe_entries_bounded(provider, synth_default):
    dataset, _ = synth_default
    for fv in extract_all(dataset, provider=provider)[:5]:
        out = fv.sfe
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
    assert np.allclose(features_of(d, "u", provider).tfe, expected)
    assert np.array_equal(features_of(d, "w", provider).tfe, np.zeros(64))
    d1 = make_dataset(
        users=[make_user("u"), make_user("w")],
        videos=[make_video("v", "w")],
        comments=[make_comment("u", "v", text="first text")],
    )
    assert np.array_equal(features_of(d1, "u", provider).tfe, provider.embed_text("first text"))


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
    before, after = features_of(base, "u", provider), features_of(grown, "u", provider)
    assert np.array_equal(before.sfe, after.sfe)
    assert np.array_equal(before.tfe, after.tfe)


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
    part = korse(build_ccn(dataset))
    feats = extract_all(dataset, partition=part, provider=provider)
    got_core = sum(1 for f in feats if f.label == "core")
    assert got_core == sum(1 for l in labels.values() if l == "core")


VALUES = ",".join(["0.5"] * (MFE_SIZE + SFE_SIZE + 2))

# id: (rows after the dim-2 header, the line the error names, its message)
BAD_ROWS = {
    "unknown-label": ([f"u1,periphery,{VALUES}"], 2,
                      "column 'label' must be 'core' or 'compromised' or '', got 'periphery'"),
    "duplicate-user": ([f"u1,core,{VALUES}", f"u1,,{VALUES}"], 3, "user 'u1' listed twice"),
    "field-count": ([f"u1,core,{VALUES},0.5"], 2, "expected 55 fields"),
    "nan": ([f"u1,core,{VALUES[:-3]}nan"], 2, "column 'tfe_1' must be a finite float, got 'nan'"),
    "inf": ([f"u1,,inf{VALUES[3:]}"], 2, "column 'mfe_0' must be a finite float, got 'inf'"),
    "minus-inf": ([f"u1,,{VALUES[:-3]}-inf"], 2, "column 'tfe_1' must be a finite float, got '-inf'"),
    "past-the-largest": ([f"u1,,{VALUES[:-3]}1e+309"], 2,
                         "column 'tfe_1' must be a finite float, got '1e+309'"),
    "non-numeric": ([f"u1,,{VALUES[:-3]}abc"], 2, "column 'tfe_1' must be a finite float, got 'abc'"),
    "empty-cell": ([f"u1,,{VALUES[:-3]}"], 2, "column 'tfe_1' must be a finite float, got ''"),
    "tab-in-id": ([f"u1,core,{VALUES}", f'"a\tb",,{VALUES}'], 3, f"column 'user_id' {ID_RULE}"),
    # a quoted id holding a line end spans lines 2 and 3; the fault is named where it starts
    "lf-in-id": ([f'"a\nb",core,{VALUES}'], 2, f"column 'user_id' {ID_RULE}"),
    "cr-in-id": ([f'"a\rb",core,{VALUES}'], 2, f"column 'user_id' {ID_RULE}"),
    "empty-id": ([f",core,{VALUES}"], 2, f"column 'user_id' {ID_RULE}"),
}


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_read_features_rejects_bad_rows(tmp_path, case):
    rows, line, message = BAD_ROWS[case]
    path = tmp_path / "features.csv"
    path.write_text(",".join(feature_header(2)) + "\n" + "".join(f"{row}\n" for row in rows),
                    encoding="utf-8", newline="")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:{line}: {message}")):
        read_features(path)


@pytest.mark.parametrize("dim", [2, 768])
def test_write_features_matches_csv_writer_rows(tmp_path, dim):
    feats = odd_features(dim)
    write_features(feats, tmp_path / "features.csv")
    oracle_write_features(feats, tmp_path / "oracle.csv")
    assert (tmp_path / "features.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    again = read_features(tmp_path / "features.csv")
    assert [(f.user_id, f.label) for f in again] == [(f.user_id, f.label) for f in feats]
    for x, y in zip(feats, again):
        for block in ("mfe", "sfe", "tfe"):
            assert reprs(getattr(x, block)) == reprs(getattr(y, block))


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
