"""Text embedding providers behind one small interface.

Two providers are shipped: a deterministic hashing stub that needs no model
at all, and a file-backed lookup for precomputed vectors. Both expose
``dim`` and ``embed_text``; all vectors from one provider share ``dim`` and
contain only finite values.
"""

import hashlib

import numpy as np

from .settings import SETTINGS, check
from .tables import ID, floats, integer, parse, read_table, unique, write_rows


def text_key(text: str) -> str:
    """Stable 64-bit content hash of a text, as 16 hex characters."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def _vector(text: str) -> np.ndarray:
    """The values of comma-joined finite floats."""
    if not np.isfinite(vector := np.fromstring(text, sep=",")).all():
        raise ValueError(text)
    return vector


class HashEmbedder:
    """Deterministic bag-of-tokens stub embedder.

    Each lowercase whitespace token maps to a fixed pseudo-random unit
    vector derived from a seeded hash, and a text embeds as the mean of its
    token vectors (bag semantics, so token order is irrelevant). Identical
    texts always produce identical vectors. Empty or whitespace-only text
    yields the zero vector and bumps ``empty_text_count`` as a warning flag.
    """

    def __init__(self, dim: int = SETTINGS["dim"].default, seed: int = 0):
        check("dim", dim)
        check("seed", seed)
        self.dim = dim
        self.seed = seed
        self.empty_text_count = 0
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        cached = self._token_cache.get(token)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(
            f"{self.seed}\x00{token}".encode("utf-8"), digest_size=8
        ).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "big")))
        vec = rng.standard_normal(self.dim)
        vec /= np.linalg.norm(vec)
        self._token_cache[token] = vec
        return vec

    def embed_text(self, text: str) -> np.ndarray:
        tokens = text.lower().split()
        if not tokens:
            self.empty_text_count += 1
            return np.zeros(self.dim)
        vec = np.zeros(self.dim)
        for token in tokens:
            vec += self._token_vector(token)
        vec /= len(tokens)
        return vec


class FileEmbedder:
    """Lookup of precomputed vectors keyed by text content hash."""

    def __init__(self, dim: int, table: dict[str, np.ndarray]):
        self.dim = dim
        self.empty_text_count = 0
        self._table = table

    @classmethod
    def load(cls, path) -> "FileEmbedder":
        def columns(text):  # the 'dim=<d>' header
            if not text[0].startswith("dim="):
                raise ValueError(f"{path}:1: expected 'dim=<d>' header")
            dim = parse(path, 1, "dim", integer(2), text[0][4:])
            return (("hash", ID), ([f"value_{i}" for i in range(dim)], floats(dim, _vector))), 1

        linenos, (keys, vectors) = read_table(path, header=columns)
        if not keys:
            raise ValueError(f"{path}: no embedding vectors")
        unique(path, linenos, keys, "hash '{}'")
        return cls(dim=len(vectors[0]), table=dict(zip(keys, vectors)))

    def embed_text(self, text: str) -> np.ndarray:
        if not text.strip():
            self.empty_text_count += 1
            return np.zeros(self.dim)
        key = text_key(text)
        if key not in self._table:
            raise KeyError(f"no precomputed embedding for text hash {key}")
        return self._table[key].copy()


def write_embedding_file(path, texts, provider) -> None:
    """Precompute embeddings for ``texts`` and write the lookup file.

    Identical texts collapse to one record because the key is a content
    hash. Float values are written via repr and read back bit-exactly.
    """
    seen: dict[str, np.ndarray] = {}
    for text in texts:
        if not text.strip():
            continue
        key = text_key(text)
        if key not in seen:
            seen[key] = provider.embed_text(text)
    write_rows(path, [(f"dim={provider.dim}",)] + [
        (key, ",".join(repr(float(x)) for x in seen[key])) for key in sorted(seen)], "\t")
