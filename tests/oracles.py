"""Independent reference implementations used to check the library.

These deliberately avoid the library's own algorithms: subset enumeration
for cores, a scan of every edge for WICCI, union-find for components, direct
formulas for statistics, a neighbour-pair scan for clustering, a BFS from
every node for the diameter, the paper's per-pair edge weight definition,
one full cosine per vector pair for the similarity block, a separate
embedding pass for the mean comment embedding, one ``csv.writer`` row per
feature vector, and rational path lengths for betweenness. The NURSE
kernels are the dense conv-gradient versions the library used before its
pooled-position rewrite, the training loop keeps one array per parameter
and recomputes every conv and one-hot label block, the conv pool is the
conv at every position, and convex-hull boundaries come from supporting
lines tested in rational arithmetic. The record reader is ``json.loads`` of
every line, then the field validators, as ingest read each line before its
scanner shortcut; a file that is not UTF-8 is named at the first line that
does not decode on its own. The edges a prefix of an order induces come from a scan of
every edge at each checkpoint, and KORSE's sweep from its first loop, which
walked each joining node's neighbours against the nodes already in the core.
"""

import csv
import heapq
import json
import math
import re
from collections import deque
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from collusioncore.features import (
    _recent,
    _video_text,
    feature_header,
    stat5,
)
from collusioncore import nurse
from collusioncore.analysis import SIZE_BUCKETS, RemovalPoint
from collusioncore.graph import Ccn
from collusioncore.korse import SweepPoint
from collusioncore.nurse import (
    BRANCH_WIDTHS, DROPOUT, FoldMetrics, NurseConfig, NurseModel, auc, rank_users,
)
from collusioncore.records import (
    Dataset, IngestError, _parse_comment, _parse_user, _parse_video,
)
from collusioncore.settings import SETTINGS


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
    return sum(1 for c in dataset.comments if (c.user_id, c.video_id) == (user_id, video_id))


def _oracle_rows(path: Path):
    """(line number, row) of a .csv file by ``csv.DictReader``, of any other
    file by ``json.loads`` of each line that is not blank."""
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                yield reader.line_num, {k: v for k, v in row.items() if k is not None}
        return
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{path}:{lineno}: malformed line: {exc.msg}") from None
            except RecursionError:
                raise IngestError(f"{path}:{lineno}: malformed line: nested too deeply") from None
            if not isinstance(row, dict):
                raise IngestError(f"{path}:{lineno}: malformed line: expected an object")
            yield lineno, row


def _first_line_not_utf8(path: Path) -> int:
    """The number of the first line, split at LF, CR or CRLF, whose bytes do
    not decode as UTF-8 on their own."""
    for lineno, line in enumerate(re.split(rb"\r\n|\r|\n", path.read_bytes()), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno


def _oracle_records(path: Path, parse, id_field: str) -> tuple:
    if not path.exists():
        raise IngestError(f"{path}: file does not exist")
    records, seen = [], set()
    try:
        for lineno, row in _oracle_rows(path):
            record = parse(row, f"{path}:{lineno}")
            record_id = getattr(record, id_field)
            if record_id in seen:
                raise IngestError(f"{path}:{lineno}: duplicate {id_field} '{record_id}'")
            seen.add(record_id)
            records.append(record)
    except UnicodeDecodeError:
        raise IngestError(f"{path}:{_first_line_not_utf8(path)}: not valid UTF-8") from None
    return tuple(records)


def oracle_ingest(comments_path, videos_path, users_path) -> Dataset:
    """``records.ingest`` with every row read by the field validators."""
    users = _oracle_records(Path(users_path), _parse_user, "user_id")
    videos = _oracle_records(Path(videos_path), _parse_video, "video_id")
    comments = _oracle_records(Path(comments_path), _parse_comment, "comment_id")
    return Dataset(users=users, videos=videos, comments=comments)


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


def oracle_wicci(graph, core_nodes, beta=1.0):
    """WICCI of a candidate core from a scan of every edge: core weight over
    total weight, times the core's density to the power ``beta``; a core of
    fewer than two nodes scores 0."""
    core = set(core_nodes)
    if len(core) < 2:
        return 0.0
    inside = [w for (a, b), w in graph.edges.items() if a in core and b in core]
    pairs = len(core) * (len(core) - 1) / 2
    return sum(inside) / graph.total_weight * (len(inside) / pairs) ** beta


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


def oracle_avg_clustering(graph):
    """Mean local clustering by a scan of every neighbour pair, the
    coefficients summed with one rounding (``math.fsum``)."""
    neighbor_sets = {v: {u for u, _ in graph.adjacency[v]} for v in graph.nodes}
    clustering = []
    for v in graph.nodes:
        nbrs = graph.adjacency[v]
        deg = len(nbrs)
        if deg < 2:
            continue
        links = 0
        for i in range(deg):
            set_i = neighbor_sets[nbrs[i][0]]
            for j in range(i + 1, deg):
                if nbrs[j][0] in set_i:
                    links += 1
        clustering.append(2.0 * links / (deg * (deg - 1)))
    return math.fsum(clustering) / graph.n_nodes


def oracle_diameter(graph):
    """Diameter of the largest component (of equal sizes, the one holding
    the least id) by a BFS from every node; None for an empty graph."""
    far = {}  # (-component size, least id) -> largest eccentricity seen
    for start in graph.nodes:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nbr, _ in graph.adjacency[node]:
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    queue.append(nbr)
        key = (-len(dist), min(dist))
        far[key] = max(far.get(key, 0), max(dist.values()))
    return far[min(far)] if far else None


def oracle_induced_edges(graph, nodes):
    """(count, weight) of the edges of the subgraph induced by ``nodes``, by a
    scan of every edge, as ``removal_curve`` counted them at each checkpoint."""
    nodes = set(nodes)
    inside = [w for (a, b), w in graph.edges.items() if a in nodes and b in nodes]
    return len(inside), sum(inside)


def oracle_korse_sweep(graph, values, beta=1.0):
    """KORSE's sweep over the weighted coreness ``values``, by its first loop:
    walking thresholds down, each node that joins adds its edges to the nodes
    already in the core. Density and WICCI are written out as the paper gives
    them."""
    order = sorted(graph.nodes, key=lambda n: (-values[n], n))
    trace, in_core, core_edges, core_weight, idx = [], set(), 0, 0, 0
    for threshold in range(max(values.values()), -1, -1):
        while idx < len(order) and values[order[idx]] >= threshold:
            node = order[idx]
            idx += 1
            for nbr, w in graph.adjacency[node]:
                if nbr in in_core:
                    core_edges += 1
                    core_weight += w
            in_core.add(node)
        size = len(in_core)
        d = 2.0 * core_edges / (size * (size - 1)) if size >= 2 else 0.0
        fraction = core_weight / graph.total_weight
        trace.append(SweepPoint(threshold, size, d, fraction,
                                fraction * d ** beta if size >= 2 else 0.0))
    return tuple(trace)


def oracle_removal_points(graph, order_key, step_fraction):
    """``removal_curve``'s points: the order from a scan of every edge (the
    degrees) or from subset enumeration (the coreness), union-find components
    of what remains and a scan of every edge for what was removed."""
    if not graph.nodes:
        return ()
    mode, _, measure = order_key.partition("_")
    if measure == "coreness":
        values = oracle_coreness(graph, mode)
    else:
        values = dict.fromkeys(graph.nodes, 0)
        for (a, b), w in graph.edges.items():
            values[a] += w if mode == "weighted" else 1
            values[b] += w if mode == "weighted" else 1
    order = sorted(graph.nodes, key=lambda n: (-values[n], n))
    n = len(order)
    points = []
    for count in oracle_removal_counts(n, step_fraction):
        sizes = oracle_component_sizes(graph, set(order[count:]))
        buckets = {label: sum(1 for s in sizes if s >= low and (high is None or s <= high))
                   for low, high, label in SIZE_BUCKETS}
        edges, _ = oracle_induced_edges(graph, order[:count])
        points.append(RemovalPoint(count / n, sizes[0] if sizes else 0, buckets,
                                   2.0 * edges / (count * (count - 1)) if count >= 2 else 0.0))
    return tuple(points)


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


def oracle_sfe(dataset, user_id, provider, pair_cap=SETTINGS["pair_cap"].default):
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
        out.extend(stat5(values))
    return np.array(out)


def oracle_tfe(dataset, user_id, provider):
    """Mean embedding of every comment the user posted; zeros if none.

    Embeds the comments afresh, apart from the similarity block."""
    comments = dataset.comments_by_user.get(user_id, ())
    if not comments:
        return np.zeros(provider.dim)
    acc = np.zeros(provider.dim)
    for c in comments:
        acc += provider.embed_text(c.text)
    return acc / len(comments)


def oracle_write_features(features, path) -> None:
    """``features.csv`` written one ``csv.writer`` row per vector, every
    field (id, label and each value's repr) quoted as csv quotes it."""
    dim = len(features[0].tfe)
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(feature_header(dim))
        for fv in features:
            values = np.concatenate([fv.mfe, fv.sfe, fv.tfe]).tolist()
            writer.writerow([fv.user_id, fv.label or "", *map(repr, values)])


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
    be_p, be_r, be_f = _prf_at_k(labels, n_pos, n_pos) if n_pos else (0.0, 0.0, 0.0)
    return FoldMetrics(
        fold=fold,
        n=n,
        n_core=n_pos,
        auc=auc(scores, labels),
        precision_at=tuple(p_at),
        recall_at=tuple(r_at),
        f1_at=tuple(f_at),
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


def loss_and_grads(model: NurseModel, batch):
    """(loss, analytic parameter gradients) in evaluation mode, from the
    library's private passes.

    The backward pass pairs with the unweighted mean cross-entropy of
    :func:`collusioncore.nurse.loss`, so finite differences of that loss
    check these gradients.
    """
    y = nurse._labels_array(batch)
    X = nurse._standardize(model, nurse._raw_inputs(batch, model.config))
    if "tfe" in X:
        X["hull"] = nurse._convex_layers(X["tfe"])
    probs, cache = nurse._forward_batch(model, X, train_mode=False)
    grads = {k: np.empty(shape) for k, shape in nurse._param_shapes(model.config).items()}
    nurse._backward_batch(model, cache, d_logits(probs, y), grads)
    return nurse._cross_entropy(probs, y), grads


def conv_pool(T, conv_w, conv_b):
    """(pooled, t0, t1) per (user, channel): the width-2 conv at every
    position, max-pooled at the first-index argmax of the pre-activation."""
    z = (T[:, None, :-1] * conv_w[None, :, 0, None] + T[:, None, 1:] * conv_w[None, :, 1, None]
         + conv_b[None, :, None])
    idx = np.argmax(z, axis=2)
    pooled = _relu(np.take_along_axis(z, idx[:, :, None], axis=2)[:, :, 0])
    return pooled, np.take_along_axis(T, idx, axis=1), np.take_along_axis(T, idx + 1, axis=1)


def on_hull_boundary(points):
    """Per point, whether it lies on the boundary of the convex hull of
    ``points``: whether a line through it and another distinct point has
    every point on one side (all points do when there are at most two)."""
    exact = [tuple(map(Fraction, p)) for p in points]
    distinct = set(exact)

    def side(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    def supported(p):
        return len(distinct) <= 2 or any(
            all(side(p, q, r) >= 0 for r in distinct) or all(side(p, q, r) <= 0 for r in distinct)
            for q in distinct if q != p)

    return [supported(p) for p in exact]


def convex_layers(T):
    """(layer 1, layer 2) boolean masks over the conv positions of each row:
    the points (T[l], T[l+1]) on the hull boundary, then those on the hull
    boundary of the points left."""
    outer = np.zeros((len(T), T.shape[1] - 1), dtype=bool)
    inner = np.zeros_like(outer)
    for row, t in enumerate(T.tolist()):
        points = list(zip(t[:-1], t[1:]))
        outer[row] = on_hull_boundary(points)
        rest = [l for l in range(len(points)) if not outer[row, l]]
        inner[row, rest] = on_hull_boundary([points[l] for l in rest])
    return outer, inner


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
        if train_mode:
            mask = (rng.random(h_sfe.shape) >= DROPOUT["sfe"]) / (1.0 - DROPOUT["sfe"])
        else:
            mask = np.ones_like(h_sfe)
        cache.update(z_sfe=z_sfe, sfe_mask=mask)
        parts.append(h_sfe * mask)
    if "mfe" in cfg.branches:
        z_mfe = X["mfe"] @ p["mfe_w"].T + p["mfe_b"]
        h_mfe = _relu(z_mfe)
        if train_mode:
            mask = (rng.random(h_mfe.shape) >= DROPOUT["mfe"]) / (1.0 - DROPOUT["mfe"])
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
        width = BRANCH_WIDTHS["tfe"]
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
        width = BRANCH_WIDTHS["sfe"]
        d_hsfe = d_fused[:, offset:offset + width] * cache["sfe_mask"]
        offset += width
        d_zsfe = d_hsfe * (cache["z_sfe"] > 0)
        g["sfe_w"] = d_zsfe.T @ cache["X"]["sfe"]
        g["sfe_b"] = d_zsfe.sum(axis=0)
    if "mfe" in cfg.branches:
        width = BRANCH_WIDTHS["mfe"]
        d_hmfe = d_fused[:, offset:offset + width] * cache["mfe_mask"]
        d_zmfe = d_hmfe * (cache["z_mfe"] > 0)
        g["mfe_w"] = d_zmfe.T @ cache["X"]["mfe"]
        g["mfe_b"] = d_zmfe.sum(axis=0)
    return g


def d_logits(probs, y, sample_weight=None):
    """Gradient of the mean (weighted) cross-entropy w.r.t. the logits."""
    onehot = np.stack([1 - y, y], axis=1).astype(float)
    d = (probs - onehot) / len(y)
    if sample_weight is not None:
        d = d * sample_weight[:, None]
    return d


def train(features, config: NurseConfig) -> NurseModel:
    """:func:`collusioncore.nurse.train` as a loop over the kernels above:
    one array per parameter key, the velocity and the checkpoint as dicts of
    copies, and every batch's conv and one-hot labels computed afresh."""
    features = sorted(features, key=lambda fv: fv.user_id)
    y = nurse._labels_array(features)
    rng = np.random.default_rng(config.seed)
    model = nurse.init_model(config, rng)
    raw = nurse._raw_inputs(features, config)
    for branch in config.branches:
        model.norm_mean[branch] = raw[branch].mean(axis=0)
        std = raw[branch].std(axis=0)
        std[std == 0.0] = 1.0
        model.norm_std[branch] = std
    X = nurse._standardize(model, raw)
    if config.class_weight == "balanced":
        counts = np.bincount(y, minlength=2)
        weights = (len(y) / (2.0 * counts))[y]
    else:
        weights = None

    def objective():
        probs, _ = forward_batch(model, X, train_mode=False)
        return nurse._cross_entropy(probs, y, weights)

    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    best_loss = objective()
    best_params = {k: v.copy() for k, v in model.params.items()}
    n = len(features)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            probs, cache = forward_batch(model, {b: X[b][idx] for b in X}, True, rng)
            grads = backward_batch(model, cache, d_logits(
                probs, y[idx], None if weights is None else weights[idx]))
            for key, grad in grads.items():
                velocity[key] = config.momentum * velocity[key] - config.learning_rate * grad
                model.params[key] = model.params[key] + velocity[key]
        epoch_loss = objective()
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_params = {k: v.copy() for k, v in model.params.items()}
    model.params = best_params
    return model
