"""Text embedding providers behind one small interface.

Two providers are shipped: a deterministic hashing stub that needs no model
at all, and a file-backed lookup for precomputed vectors. Both expose
``dim`` and ``embed_text``; all vectors from one provider share ``dim`` and
contain only finite values.
"""

import hashlib
from pathlib import Path

import numpy as np


def text_key(text: str) -> str:
    """Stable 64-bit content hash of a text, as 16 hex characters."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


class HashEmbedder:
    """Deterministic bag-of-tokens stub embedder.

    Each lowercase whitespace token maps to a fixed pseudo-random unit
    vector derived from a seeded hash, and a text embeds as the mean of its
    token vectors (bag semantics, so token order is irrelevant). Identical
    texts always produce identical vectors. Empty or whitespace-only text
    yields the zero vector and bumps ``empty_text_count`` as a warning flag.
    """

    def __init__(self, dim: int = 768, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.seed = seed
        self.empty_text_count = 0
        self._token_cache: dict[str, np.ndarray] = {}
        self._text_cache: dict[str, np.ndarray] = {}

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
        cached = self._text_cache.get(text)
        if cached is not None:
            return cached.copy()
        vec = np.zeros(self.dim)
        for token in tokens:
            vec += self._token_vector(token)
        vec /= len(tokens)
        self._text_cache[text] = vec
        return vec.copy()


class FileEmbedder:
    """Lookup of precomputed vectors keyed by text content hash."""

    def __init__(self, dim: int, table: dict[str, np.ndarray]):
        self.dim = dim
        self.empty_text_count = 0
        self._table = table

    @classmethod
    def load(cls, path) -> "FileEmbedder":
        path = Path(path)
        table: dict[str, np.ndarray] = {}
        with path.open(encoding="utf-8") as handle:
            header = handle.readline().strip()
            if not header.startswith("dim="):
                raise ValueError(f"{path}: expected 'dim=<d>' header")
            dim = int(header[4:])
            if dim < 1:
                raise ValueError(f"{path}: dim must be >= 1")
            for lineno, line in enumerate(handle, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                key, _, values = line.partition("\t")
                vec = np.array([float(x) for x in values.split(",")])
                if vec.shape != (dim,):
                    raise ValueError(f"{path}:{lineno}: expected {dim} values")
                if not np.all(np.isfinite(vec)):
                    raise ValueError(f"{path}:{lineno}: non-finite entry")
                if key in table:
                    raise ValueError(f"{path}:{lineno}: hash '{key}' listed twice")
                table[key] = vec
        if not table:
            raise ValueError(f"{path}: no embedding vectors")
        return cls(dim=dim, table=table)

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
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(f"dim={provider.dim}\n")
        for key in sorted(seen):
            values = ",".join(repr(float(x)) for x in seen[key])
            handle.write(f"{key}\t{values}\n")
