import numpy as np
import pytest

from collusioncore.embeddings import (
    FileEmbedder,
    HashEmbedder,
    text_key,
    write_embedding_file,
)
from collusioncore.features import _cosines, _stacked

from oracles import cosine


def test_stub_deterministic_bitwise():
    a = HashEmbedder(dim=64, seed=1)
    b = HashEmbedder(dim=64, seed=1)
    s = "Nice video bro subscribe"
    assert np.array_equal(a.embed_text(s), b.embed_text(s))
    assert np.array_equal(a.embed_text(s), a.embed_text(s))


def test_stub_duplicate_comments_cosine_one():
    e = HashEmbedder(dim=128, seed=0)
    assert cosine(e.embed_text("great vid"), e.embed_text("great vid")) == pytest.approx(1.0)


def test_stub_seed_changes_vectors():
    a = HashEmbedder(dim=64, seed=1)
    b = HashEmbedder(dim=64, seed=2)
    assert not np.array_equal(a.embed_text("hello"), b.embed_text("hello"))


def test_stub_shared_tokens_raise_cosine():
    e = HashEmbedder(dim=256, seed=0)
    base = e.embed_text("alpha beta gamma delta epsilon zeta")
    overlap = e.embed_text("alpha beta gamma theta iota kappa")
    disjoint = e.embed_text("lambda mu nu xi omicron pi")
    assert cosine(base, overlap) > cosine(base, disjoint)


def test_stub_token_order_irrelevant():
    e = HashEmbedder(dim=64, seed=0)
    assert np.allclose(e.embed_text("one two three"), e.embed_text("three one two"))


def test_stub_returns_a_fresh_array_each_call():
    e = HashEmbedder(dim=16, seed=0)
    for text in ("alpha beta", "alpha"):
        first = e.embed_text(text)
        expected = first.copy()
        first[:] = 7.0
        assert np.array_equal(e.embed_text(text), expected)


def test_stub_rejects_a_one_value_embedding():
    with pytest.raises(ValueError, match="dim must be >= 2"):
        HashEmbedder(dim=1)


def test_stub_empty_text_zero_vector_with_flag():
    e = HashEmbedder(dim=32, seed=0)
    out = e.embed_text("   ")
    assert np.array_equal(out, np.zeros(32))
    assert e.empty_text_count == 1


def kernel_cosine(a, b):
    """The similarity block's cosine of one pair, with norms taken as it takes them."""
    return _cosines(_stacked([a], len(a)), _stacked([b], len(b)))[0]


def test_cosine_identities():
    v = np.array([1.0, 2.0, -3.0])
    assert kernel_cosine(v, v) == pytest.approx(1.0)
    assert kernel_cosine(v, -v) == pytest.approx(-1.0)
    assert kernel_cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert kernel_cosine(np.zeros(3), v) == 0.0
    assert kernel_cosine(v, np.zeros(3)) == 0.0


def test_cosine_bounded():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.normal(size=8) * rng.uniform(0, 100)
        b = rng.normal(size=8) * rng.uniform(0, 100)
        assert abs(kernel_cosine(a, b)) <= 1 + 1e-12


def test_file_roundtrip_bit_exact(tmp_path):
    stub = HashEmbedder(dim=48, seed=5)
    texts = ["first comment", "second one", "first comment", "tri gram text"]
    path = tmp_path / "emb.tsv"
    write_embedding_file(path, texts, stub)
    loaded = FileEmbedder.load(path)
    assert loaded.dim == 48
    for t in set(texts):
        assert np.array_equal(loaded.embed_text(t), stub.embed_text(t))


def test_file_missing_entry_errors(tmp_path):
    stub = HashEmbedder(dim=16, seed=5)
    path = tmp_path / "emb.tsv"
    write_embedding_file(path, ["known text"], stub)
    loaded = FileEmbedder.load(path)
    with pytest.raises(KeyError, match=text_key("unknown text")):
        loaded.embed_text("unknown text")


def test_file_empty_text_zero_vector(tmp_path):
    stub = HashEmbedder(dim=16, seed=5)
    path = tmp_path / "emb.tsv"
    write_embedding_file(path, ["known text"], stub)
    loaded = FileEmbedder.load(path)
    assert np.array_equal(loaded.embed_text(""), np.zeros(16))
    assert loaded.empty_text_count == 1


@pytest.mark.parametrize("text", ["dim=0\n", "dim=4\n", "dim=-1\nk\t\n", "dim=1\nk\t0.5\n"],
                         ids=["zero-dim", "no-vectors", "negative-dim", "one-dim"])
def test_file_load_rejects_unusable_files(tmp_path, text):
    path = tmp_path / "emb.tsv"
    path.write_text(text)
    with pytest.raises(ValueError):
        FileEmbedder.load(path)
