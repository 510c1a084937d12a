"""Frozen reference definitions for the float outputs the benchmark checks.

These restate, independently of the library, the definitions the library
had when the benchmark was written: the hashing stub embedder, the three
per-user feature blocks, the classifier's evaluation-mode forward pass and
the ranking metrics. A later change that moves ``features.csv``,
``ranking.tsv`` or ``eval.csv`` by more than :data:`RTOL` / :data:`ATOL`
fails the benchmark's correctness check.
"""

import hashlib
from itertools import combinations

import numpy as np

RTOL = 1e-9
ATOL = 1e-9
PAIR_CAP = 200      # the CLI's default --pair-cap
EMBED_SEED = 7      # the CLI's default --seed, used by the stub embedder


class HashEmbedder:
    """Each token is a seeded unit normal vector; a text is their mean."""

    def __init__(self, dim: int, seed: int = EMBED_SEED):
        self.dim, self.seed, self.tokens = dim, seed, {}

    def token(self, token):
        if token not in self.tokens:
            digest = hashlib.blake2b(f"{self.seed}\x00{token}".encode("utf-8"),
                                     digest_size=8).digest()
            rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "big")))
            vec = rng.standard_normal(self.dim)
            self.tokens[token] = vec / np.linalg.norm(vec)
        return self.tokens[token]

    def embed(self, text):
        tokens = text.lower().split()
        if not tokens:
            return np.zeros(self.dim)
        vec = np.zeros(self.dim)
        for token in tokens:
            vec += self.token(token)
        return vec / len(tokens)


def _cosine(a, b):
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    return 0.0 if na == 0.0 or nb == 0.0 else float(np.dot(a, b) / (na * nb))


def _stat5(values):
    values = [float(v) for v in values]
    if not values:
        return [0.0] * 5
    mean = sum(values) / len(values)
    return [max(values), min(values), sum(values), mean,
            sum((v - mean) ** 2 for v in values) / len(values)]


def feature_row(log, user, embedder) -> np.ndarray:
    """mfe (26) + sfe (25) + tfe (dim) for one user of a generated log."""
    uploads = [v for v in log.videos if v["uploader_user_id"] == user]
    own = {v["video_id"] for v in uploads}
    comments = [c for c in log.comments if c["user_id"] == user]
    by_id = {v["video_id"]: v for v in log.videos}

    self_counts = [sum(1 for c in comments if c["video_id"] == v["video_id"]) for v in uploads]
    mfe = _stat5(self_counts) + [float(len(uploads))]
    for key in ("duration_sec", "likes", "dislikes", "views"):
        mfe += _stat5([v[key] for v in uploads])

    def recent(rows):
        return sorted(rows, key=lambda c: (-c["timestamp"], c["comment_id"]))[:PAIR_CAP]

    def video_text(v):
        return " ".join((v["title"], v["description"], v["genre"]))

    sc = [embedder.embed(c["text"]) for c in recent([c for c in comments if c["video_id"] in own])]
    oc = [embedder.embed(c["text"]) for c in recent([c for c in comments if c["video_id"] not in own])]
    sv = [embedder.embed(video_text(v)) for v in sorted(uploads, key=lambda v: v["video_id"])[:PAIR_CAP]]
    ov_ids = sorted({c["video_id"] for c in comments if c["video_id"] not in own})[:PAIR_CAP]
    ov = [embedder.embed(video_text(by_id[vid])) for vid in ov_ids if vid in by_id]
    sfe = []
    for left, right in ((sc, None), (oc, None), (sc, oc), (sv, None), (sv, ov)):
        if right is None:
            sfe += _stat5(_cosine(a, b) for a, b in combinations(left, 2))
        else:
            sfe += _stat5(_cosine(a, b) for a in left for b in right)

    tfe = np.zeros(embedder.dim)
    for c in comments:
        tfe += embedder.embed(c["text"])
    if comments:
        tfe /= len(comments)
    return np.concatenate([mfe, sfe, tfe])


def core_scores(model_path, rows: np.ndarray) -> np.ndarray:
    """Core-class probability of each feature row under a saved model."""
    data = np.load(model_path)
    p = {k[len("param_"):]: data[k] for k in data.files if k.startswith("param_")}
    blocks = {"mfe": rows[:, :26], "sfe": rows[:, 26:51], "tfe": rows[:, 51:]}
    x = {b: (blocks[b] - data[f"mean_{b}"]) / data[f"std_{b}"] for b in blocks}
    relu = lambda z: np.maximum(z, 0.0)  # noqa: E731
    t0, t1 = x["tfe"][:, :-1], x["tfe"][:, 1:]
    conv = relu(t0[:, None, :] * p["conv_w"][None, :, 0, None]
                + t1[:, None, :] * p["conv_w"][None, :, 1, None]
                + p["conv_b"][None, :, None])
    parts = [relu(conv.max(axis=2) @ p["tfe_w"].T + p["tfe_b"]),
             relu(x["sfe"] @ p["sfe_w"].T + p["sfe_b"]),
             relu(x["mfe"] @ p["mfe_w"].T + p["mfe_b"])]
    fused = relu(np.concatenate(parts, axis=1) @ p["fus_w"].T + p["fus_b"])
    logits = fused @ p["out_w"].T + p["out_b"]
    logits = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return probs[:, 1]


def auc(scores, labels) -> float:
    """O(n^2) pair count: a positive above a negative is 1, a tie is 1/2."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def eval_rows(scored) -> list:
    """eval.csv rows (fold 0) for (user, score, label) triples, as floats."""
    ranked = sorted(scored, key=lambda t: (-t[1], t[0]))
    labels = [1 if label == "core" else 0 for _, _, label in ranked]
    n_pos = sum(labels)
    area = auc([s for _, s, _ in ranked], labels)

    def prf(k):
        hits = sum(labels[:k])
        precision, recall = hits / k, hits / n_pos
        f1 = 2 * precision * recall / (precision + recall) if hits else 0.0
        return precision, recall, f1

    rows = [(0, k, *prf(k), area) for k in range(1, len(ranked) + 1)]
    rows.append(("mean", "breakeven", *prf(n_pos), area))
    return rows
