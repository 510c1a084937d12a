"""Weighted and unweighted k-core decomposition by minimum-degree peeling.

One peel gives every node's coreness, and every k-core is the set of nodes
whose coreness reaches k (Batagelj & Zaversnik 2003).
"""

import heapq

from .graph import Ccn
from .tables import write_rows

MODES = ("weighted", "unweighted")


def _degree_map(graph: Ccn, mode: str) -> dict:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "weighted":
        return {n: sum(w for _, w in graph.adjacency[n]) for n in graph.nodes}
    return {n: len(graph.adjacency[n]) for n in graph.nodes}


def coreness(graph: Ccn, mode: str = "weighted") -> dict:
    """``{node: coreness}``: peel minimum-degree nodes and record the max
    threshold each survives.

    Ties on the minimum degree are broken by lexicographic node id, which
    fixes the peel order but not the resulting values (those are
    order-independent). Integer weights keep every degree integral. A graph
    never changes, so each mode is peeled once per graph and kept on it, like
    ``Ccn.total_weight``; each call returns a fresh copy.
    """
    peeled = vars(graph).setdefault("_coreness", {})
    if mode not in peeled:
        peeled[mode] = _peel(graph, mode)
    return dict(peeled[mode])


def _peel(graph: Ccn, mode: str) -> dict:
    degrees = _degree_map(graph, mode)
    heap = [(d, n) for n, d in degrees.items()]
    heapq.heapify(heap)
    alive = set(graph.nodes)
    values: dict = {}
    current = 0
    while heap:
        deg, node = heapq.heappop(heap)
        if node not in alive or deg != degrees[node]:
            continue  # stale entry
        current = max(current, deg)
        values[node] = current
        alive.discard(node)
        for nbr, w in graph.adjacency[node]:
            if nbr in alive:
                degrees[nbr] -= w if mode == "weighted" else 1
                heapq.heappush(heap, (degrees[nbr], nbr))
    return values


def write_coreness(values: dict, path) -> None:
    """Export ``user_id<TAB>coreness`` sorted by descending value, then id."""
    write_rows(path, sorted(values.items(), key=lambda kv: (-kv[1], kv[0])), "\t")
