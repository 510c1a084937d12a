"""Independent reference implementations used to check the library.

These deliberately avoid the library's own algorithms: subset enumeration
for cores, union-find for components, direct formulas for statistics, and
rational path lengths for betweenness.
"""

import heapq
from fractions import Fraction

import numpy as np

from collusioncore.graph import Ccn


def random_weighted_graph(rng, max_nodes=12, max_weight=5, edge_prob=0.35, min_nodes=4):
    n = int(rng.integers(min_nodes, max_nodes + 1))
    nodes = [f"n{i:02d}" for i in range(n)]
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                weights[(nodes[i], nodes[j])] = int(rng.integers(1, max_weight + 1))
    return Ccn.build(nodes, weights)


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


def oracle_stat5(values):
    values = [float(v) for v in values]
    if not values:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return (max(values), min(values), sum(values), mean, var)


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
