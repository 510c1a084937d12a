"""Independent reference implementations used to check the library.

These deliberately avoid the library's own algorithms: subset enumeration
for cores, union-find for components, direct formulas for statistics, the
paper's per-pair edge weight definition, one full cosine per vector pair for
the similarity block, and rational path lengths for betweenness. The NURSE kernels are the dense
conv-gradient versions the library used before its pooled-position rewrite.
"""

import heapq
from fractions import Fraction
from itertools import combinations

import numpy as np

from collusioncore.features import DEFAULT_PAIR_CAP, _recent, _video_text, stat5
from collusioncore.graph import Ccn
from collusioncore.nurse import FoldMetrics, NurseModel, auc, rank_users
from collusioncore.records import Dataset


def random_weighted_graph(rng, max_nodes=12, max_weight=5, edge_prob=0.35, min_nodes=4):
    n = int(rng.integers(min_nodes, max_nodes + 1))
    nodes = [f"n{i:02d}" for i in range(n)]
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                weights[(nodes[i], nodes[j])] = int(rng.integers(1, max_weight + 1))
    return Ccn.build(nodes, weights)


def comment_count(dataset: Dataset, user_id: str, video_id: str) -> int:
    """Number of comments by ``user_id`` on ``video_id`` (0 for unknown ids)."""
    return dataset.pair_counts.get((user_id, video_id), 0)


def iucc(dataset: Dataset, user_a: str, user_b: str, video_id: str) -> int:
    """Per-video co-commenting intensity: the smaller of the two users' counts."""
    if user_a == user_b:
        raise ValueError("iucc requires two distinct users")
    return min(comment_count(dataset, user_a, video_id), comment_count(dataset, user_b, video_id))


def edge_weight(dataset: Dataset, user_a: str, user_b: str) -> int:
    """Aggregate iucc over every video uploaded by neither user."""
    if user_a == user_b:
        raise ValueError("edge_weight requires two distinct users")
    total = 0
    for video in dataset.videos:
        if video.uploader_user_id in (user_a, user_b):
            continue
        total += iucc(dataset, user_a, user_b, video.video_id)
    return total


def _weight_matrix(graph, mode):
    nodes = sorted(graph.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    W = np.zeros((len(nodes), len(nodes)))
    for (a, b), w in graph.edges.items():
        W[index[a], index[b]] = w if mode == "weighted" else 1
        W[index[b], index[a]] = W[index[a], index[b]]
    return nodes, W


def subset_core_tables(graph, mode):
    """Enumerate all node subsets (n <= ~16) and their min induced degree.

    Returns (nodes, membership matrix, min induced degree per subset).
    """
    nodes, W = _weight_matrix(graph, mode)
    n = len(nodes)
    masks = np.arange(2 ** n)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    induced = member @ W
    masked = np.where(member > 0, induced, np.inf)
    min_degree = masked.min(axis=1)
    min_degree[0] = np.inf  # empty set imposes no constraint
    return nodes, member, min_degree


def oracle_k_core(graph, k, mode):
    """Union of every subset whose induced minimum degree is >= k."""
    nodes, member, min_degree = subset_core_tables(graph, mode)
    valid = member[min_degree >= k]
    if valid.size == 0:
        return set()
    union = valid.max(axis=0) > 0
    return {nodes[i] for i in range(len(nodes)) if union[i]}


def oracle_coreness(graph, mode):
    """coreness(v) = max over subsets containing v of the min induced degree."""
    nodes, member, min_degree = subset_core_tables(graph, mode)
    finite = np.where(np.isinf(min_degree), -1.0, min_degree)
    best = np.where(member > 0, finite[:, None], -1.0).max(axis=0)
    return {nodes[i]: int(max(best[i], 0)) for i in range(len(nodes))}


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def oracle_component_sizes(graph, alive):
    """Component size multiset of the induced subgraph, via union-find."""
    uf = UnionFind(alive)
    for (a, b) in graph.edges:
        if a in alive and b in alive:
            uf.union(a, b)
    counts = {}
    for node in alive:
        root = uf.find(node)
        counts[root] = counts.get(root, 0) + 1
    return sorted(counts.values(), reverse=True)


def oracle_removal_counts(n, step_fraction):
    """Removed-node counts at the breakage checkpoints, by the loop
    ``removal_curve`` used first: one iteration per multiple of the step."""
    checkpoints = []
    i = 1
    while True:
        count = min(n, round(i * step_fraction * n))
        if count > 0 and (not checkpoints or count > checkpoints[-1]):
            checkpoints.append(count)
        if count >= n:
            break
        i += 1
    return checkpoints


def oracle_stat5(values):
    values = [float(v) for v in values]
    if not values:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return (max(values), min(values), sum(values), mean, var)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def oracle_sfe(dataset, user_id, provider, pair_cap=DEFAULT_PAIR_CAP):
    """The similarity block with one :func:`cosine` call per pair, each of
    which converts both vectors and takes both norms afresh."""
    own_videos = {v.video_id for v in dataset.videos_by_uploader.get(user_id, ())}
    comments = dataset.comments_by_user.get(user_id, ())
    sc = _recent([c for c in comments if c.video_id in own_videos], pair_cap)
    oc = _recent([c for c in comments if c.video_id not in own_videos], pair_cap)
    sc_emb = [provider.embed_text(c.text) for c in sc]
    oc_emb = [provider.embed_text(c.text) for c in oc]
    sv = sorted(dataset.videos_by_uploader.get(user_id, ()), key=lambda v: v.video_id)[:pair_cap]
    ov_ids = sorted({c.video_id for c in comments if c.video_id not in own_videos})[:pair_cap]
    sv_emb = [provider.embed_text(_video_text(v)) for v in sv]
    ov_emb = [provider.embed_text(_video_text(dataset.videos_by_id[vid]))
              for vid in ov_ids if vid in dataset.videos_by_id]
    out = []
    for values in ([cosine(a, b) for a, b in combinations(sc_emb, 2)],
                   [cosine(a, b) for a, b in combinations(oc_emb, 2)],
                   [cosine(a, b) for a in sc_emb for b in oc_emb],
                   [cosine(a, b) for a, b in combinations(sv_emb, 2)],
                   [cosine(a, b) for a in sv_emb for b in ov_emb]):
        out.extend(stat5(values).as_list())
    return np.array(out)


def oracle_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = (sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys)) ** 0.5
    return num / den

def oracle_auc(scores, labels):
    """O(n^2) concordant-pair counting with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def _prf_at_k(ranked_labels, k: int, n_pos: int):
    hits = int(sum(ranked_labels[:k]))
    precision = hits / k
    recall = hits / n_pos if n_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def oracle_fold_metrics(fold: int, scored) -> FoldMetrics:
    """Fold metrics with a fresh prefix sum per cutoff (O(n^2))."""
    ranked = rank_users(scored)
    labels = [1 if lab == "core" else 0 for _, _, lab in ranked]
    scores = [s for _, s, _ in ranked]
    n = len(ranked)
    n_pos = sum(labels)
    p_at, r_at, f_at = [], [], []
    for k in range(1, n + 1):
        p, r, f = _prf_at_k(labels, k, n_pos)
        p_at.append(p)
        r_at.append(r)
        f_at.append(f)
    be_k = n_pos
    be_p, be_r, be_f = _prf_at_k(labels, be_k, n_pos) if be_k else (0.0, 0.0, 0.0)
    return FoldMetrics(
        fold=fold,
        n=n,
        n_core=n_pos,
        auc=auc(scores, labels),
        precision_at=tuple(p_at),
        recall_at=tuple(r_at),
        f1_at=tuple(f_at),
        break_even_k=be_k,
        break_even_precision=be_p,
        break_even_recall=be_r,
        break_even_f1=be_f,
    )


def fraction_betweenness(graph):
    """Brandes betweenness over exact rational path lengths 1/w.

    The ``Fraction`` implementation the library used before it scaled
    lengths to integers; the library's result must equal it repr for repr.
    """
    bc = {n: 0.0 for n in graph.nodes}
    for source in sorted(graph.nodes):
        dist = {source: Fraction(0)}
        sigma = {n: 0 for n in graph.nodes}
        sigma[source] = 1
        preds: dict = {n: [] for n in graph.nodes}
        settled: list = []
        heap = [(Fraction(0), source)]
        done: set = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            settled.append(node)
            for nbr, w in graph.adjacency[node]:
                nd = d + Fraction(1, w)
                if nbr not in dist or nd < dist[nbr]:
                    dist[nbr] = nd
                    sigma[nbr] = sigma[node]
                    preds[nbr] = [node]
                    heapq.heappush(heap, (nd, nbr))
                elif nd == dist[nbr] and node not in preds[nbr]:
                    sigma[nbr] += sigma[node]
                    preds[nbr].append(node)
        delta = {n: 0.0 for n in settled}
        while settled:
            node = settled.pop()
            for pred in preds[node]:
                delta[pred] += sigma[pred] / sigma[node] * (1.0 + delta[node])
            if node != source:
                bc[node] += delta[node]
    # undirected: every pair was counted from both endpoints
    return {n: v / 2.0 for n, v in bc.items()}


# The NURSE kernels as they were before the conv gradient was restricted to
# the pooled position; the library's kernels must equal them repr for repr.


def _relu(x):
    return np.maximum(x, 0.0)


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def forward_batch(model: NurseModel, X: dict, train_mode: bool = False, rng=None):
    """Run the network on standardized inputs; returns (probs, cache)."""
    cfg = model.config
    p = model.params
    if train_mode and rng is None:
        raise ValueError("train_mode forward needs an rng for dropout")
    cache: dict = {"X": X, "train": train_mode}
    parts = []
    if "tfe" in cfg.branches:
        T = X["tfe"]
        T0, T1 = T[:, :-1], T[:, 1:]
        z_conv = (
            T0[:, None, :] * p["conv_w"][None, :, 0, None]
            + T1[:, None, :] * p["conv_w"][None, :, 1, None]
            + p["conv_b"][None, :, None]
        )
        a_conv = _relu(z_conv)
        pool_idx = np.argmax(a_conv, axis=2)
        pooled = np.take_along_axis(a_conv, pool_idx[:, :, None], axis=2)[:, :, 0]
        z_tfe = pooled @ p["tfe_w"].T + p["tfe_b"]
        h_tfe = _relu(z_tfe)
        cache.update(T0=T0, T1=T1, z_conv=z_conv, pool_idx=pool_idx,
                     pooled=pooled, z_tfe=z_tfe)
        parts.append(h_tfe)
    if "sfe" in cfg.branches:
        z_sfe = X["sfe"] @ p["sfe_w"].T + p["sfe_b"]
        h_sfe = _relu(z_sfe)
        if train_mode and cfg.sfe_dropout > 0:
            mask = (rng.random(h_sfe.shape) >= cfg.sfe_dropout) / (1.0 - cfg.sfe_dropout)
        else:
            mask = np.ones_like(h_sfe)
        cache.update(z_sfe=z_sfe, sfe_mask=mask)
        parts.append(h_sfe * mask)
    if "mfe" in cfg.branches:
        z_mfe = X["mfe"] @ p["mfe_w"].T + p["mfe_b"]
        h_mfe = _relu(z_mfe)
        if train_mode and cfg.mfe_dropout > 0:
            mask = (rng.random(h_mfe.shape) >= cfg.mfe_dropout) / (1.0 - cfg.mfe_dropout)
        else:
            mask = np.ones_like(h_mfe)
        cache.update(z_mfe=z_mfe, mfe_mask=mask)
        parts.append(h_mfe * mask)

    fused_in = np.concatenate(parts, axis=1)
    z_fus = fused_in @ p["fus_w"].T + p["fus_b"]
    h_fus = _relu(z_fus)
    logits = h_fus @ p["out_w"].T + p["out_b"]
    probs = _softmax(logits)
    cache.update(fused_in=fused_in, z_fus=z_fus, h_fus=h_fus)
    return probs, cache


def backward_batch(model: NurseModel, cache: dict, d_logits) -> dict:
    """Gradients of the loss w.r.t. every parameter tensor."""
    cfg = model.config
    p = model.params
    g: dict = {}
    g["out_w"] = d_logits.T @ cache["h_fus"]
    g["out_b"] = d_logits.sum(axis=0)
    d_hfus = d_logits @ p["out_w"]
    d_zfus = d_hfus * (cache["z_fus"] > 0)
    g["fus_w"] = d_zfus.T @ cache["fused_in"]
    g["fus_b"] = d_zfus.sum(axis=0)
    d_fused = d_zfus @ p["fus_w"]

    offset = 0
    if "tfe" in cfg.branches:
        width = cfg.tfe_fc
        d_htfe = d_fused[:, offset:offset + width]
        offset += width
        d_ztfe = d_htfe * (cache["z_tfe"] > 0)
        g["tfe_w"] = d_ztfe.T @ cache["pooled"]
        g["tfe_b"] = d_ztfe.sum(axis=0)
        d_pooled = d_ztfe @ p["tfe_w"]
        d_aconv = np.zeros_like(cache["z_conv"])
        np.put_along_axis(d_aconv, cache["pool_idx"][:, :, None],
                          d_pooled[:, :, None], axis=2)
        d_zconv = d_aconv * (cache["z_conv"] > 0)
        g["conv_b"] = d_zconv.sum(axis=(0, 2))
        g["conv_w"] = np.stack(
            [
                np.einsum("bcl,bl->c", d_zconv, cache["T0"]),
                np.einsum("bcl,bl->c", d_zconv, cache["T1"]),
            ],
            axis=1,
        )
    if "sfe" in cfg.branches:
        width = cfg.sfe_fc
        d_hsfe = d_fused[:, offset:offset + width] * cache["sfe_mask"]
        offset += width
        d_zsfe = d_hsfe * (cache["z_sfe"] > 0)
        g["sfe_w"] = d_zsfe.T @ cache["X"]["sfe"]
        g["sfe_b"] = d_zsfe.sum(axis=0)
    if "mfe" in cfg.branches:
        width = cfg.mfe_fc
        d_hmfe = d_fused[:, offset:offset + width] * cache["mfe_mask"]
        d_zmfe = d_hmfe * (cache["z_mfe"] > 0)
        g["mfe_w"] = d_zmfe.T @ cache["X"]["mfe"]
        g["mfe_b"] = d_zmfe.sum(axis=0)
    return g
