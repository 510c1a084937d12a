"""Weighted betweenness centrality used as a ranking baseline.

Edge distance is the reciprocal of the edge weight, so heavy co-commenting
pairs are close. Every length 1/w is scaled by L = lcm(distinct weights),
which turns it into the integer L // w. Scaling all lengths by one positive
constant keeps the order of every pair of path lengths, and integer sums are
exact, so equal-length paths are detected exactly, as rational lengths would
detect them, without float comparisons (Brandes 2001). Components are
handled independently by construction (unreachable targets simply never
contribute).
"""

import heapq
import math

from .graph import Ccn
from .settings import check


def weighted_betweenness(graph: Ccn) -> dict:
    """Brandes accumulation over single-source shortest paths."""
    ids = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(ids)}
    scale = math.lcm(*set(graph.edges.values()))
    # node i's (neighbor, integer length) pairs, in ascending neighbor id
    adjacency = [[(index[nbr], scale // w) for nbr, w in graph.adjacency[node]] for node in ids]
    n = len(ids)
    bc = [0.0] * n
    for source in range(n):
        dist = [None] * n
        dist[source] = 0
        sigma = [0] * n
        sigma[source] = 1
        preds: list = [[] for _ in range(n)]
        settled: list = []
        done = [False] * n
        # (distance, id) pops equal distances in ascending node id
        heap = [(0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if done[node]:
                continue
            done[node] = True
            settled.append(node)
            for nbr, length in adjacency[node]:
                nd = d + length
                old = dist[nbr]
                if old is None or nd < old:
                    dist[nbr] = nd
                    sigma[nbr] = sigma[node]
                    preds[nbr] = [node]
                    heapq.heappush(heap, (nd, nbr))
                elif nd == old:
                    sigma[nbr] += sigma[node]
                    preds[nbr].append(node)
        delta = [0.0] * n
        while settled:
            node = settled.pop()
            for pred in preds[node]:
                delta[pred] += sigma[pred] / sigma[node] * (1.0 + delta[node])
            if node != source:
                bc[node] += delta[node]
    # undirected: every pair was counted from both endpoints
    return {node: bc[index[node]] / 2.0 for node in graph.nodes}


def wbc_baseline(graph: Ccn, k: int | None = None) -> list:
    """(node, betweenness) pairs by descending betweenness (ties by id),
    optionally only the top k."""
    if k is not None:
        check("threshold_k", k, "k")
    scores = weighted_betweenness(graph)
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
