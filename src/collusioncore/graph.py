"""Construction of the weighted co-commenting user graph.

Two users are linked when they commented on the same qualifying video that
neither of them uploaded; the edge weight aggregates, per shared video, the
smaller of the two users' comment counts.
"""

import math
from collections import deque
from dataclasses import asdict, dataclass
from functools import cached_property, reduce
from itertools import accumulate, combinations
from operator import or_
from pathlib import Path

from .records import Dataset
from .tables import ID, ID_RULE, format_rows, integer, read_table, unique, valid_id, write_rows


@dataclass(frozen=True)
class Ccn:
    """Weighted undirected user graph.

    ``edges`` maps sorted id pairs to positive integer weights; ``adjacency``
    lists (neighbor, weight) per node and is consistent with ``edges``.
    Instances are treated as immutable.
    """

    nodes: frozenset
    edges: dict
    adjacency: dict

    @classmethod
    def build(cls, nodes, pair_weights) -> "Ccn":
        """Create a graph from a node iterable and {(a, b): weight} mapping.

        :func:`read_edgelist` reads only ids and weights these checks pass,
        so its faults name their line and column.
        """
        node_set = frozenset(nodes)
        bad = sorted(n for n in node_set if not valid_id(n))
        if bad:
            raise ValueError(f"node {bad[0]!r} {ID_RULE}")
        edges = {}
        adjacency = {n: [] for n in node_set}
        for pair, weight in pair_weights.items():
            a, b = pair
            if a == b:
                raise ValueError(f"self-loop on '{a}'")
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(f"edge ({a}, {b}) weight must be a positive integer")
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge ({a}, {b}) references a node outside the node set")
            key = pair if a < b else (b, a)  # the caller's tuple when in order: no new one
            if key in edges:
                raise ValueError(f"duplicate edge {key}")
            edges[key] = weight
            adjacency[a].append((b, weight))
            adjacency[b].append((a, weight))
        frozen_adj = {n: tuple(sorted(nbrs)) for n, nbrs in adjacency.items()}
        return cls(nodes=node_set, edges=edges, adjacency=frozen_adj)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def total_weight(self) -> int:
        return sum(self.edges.values())

    def weighted_degree(self, node) -> int:
        return sum(w for _, w in self.adjacency[node])

    def degree(self, node) -> int:
        return len(self.adjacency[node])

    def induced(self, nodes) -> "Ccn":
        """Subgraph induced by ``nodes`` (must be a subset of the node set)."""
        keep = frozenset(nodes)
        missing = keep - self.nodes
        if missing:
            raise ValueError(f"nodes not in graph: {sorted(missing)[:3]}")
        weights = {
            (a, b): w for (a, b), w in self.edges.items() if a in keep and b in keep
        }
        return Ccn.build(keep, weights)


def build_ccn(dataset: Dataset, collusive_only: bool = True) -> Ccn:
    """Build the co-commenting graph.

    Nodes are users with at least one comment on a qualifying video
    (qualifying means ``is_collusive`` when ``collusive_only``, all videos
    otherwise). Users whose aggregated weights are all zero are kept as
    isolated nodes. Callers are expected to pass a dataset for which
    ``validate`` returns no violations.
    """
    qualifying = {
        v.video_id: v.uploader_user_id
        for v in dataset.videos
        if v.is_collusive or not collusive_only
    }
    nodes = {c.user_id for c in dataset.comments if c.video_id in qualifying}
    weights: dict = {}
    for video_id, uploader in qualifying.items():
        counts = dataset.video_commenters.get(video_id)
        if not counts or len(counts) < 2:
            continue
        for a, b in combinations(sorted(counts), 2):
            if uploader in (a, b):
                continue
            key = (a, b)
            weights[key] = weights.get(key, 0) + min(counts[a], counts[b])
    weights = {k: w for k, w in weights.items() if w > 0}
    return Ccn.build(nodes, weights)


def density(n_nodes: int, n_edges: int) -> float:
    """Unweighted density of a simple graph; 0.0 below two nodes."""
    if n_nodes < 2:
        return 0.0
    return 2.0 * n_edges / (n_nodes * (n_nodes - 1))


def prefix_edges(graph: Ccn, order) -> tuple[list, list]:
    """Edge count and edge weight of the subgraph induced by each prefix
    ``order[:k]`` of an order of every node, k = 0 .. n: each edge is tallied
    at the later of its endpoints' positions, then summed down the order."""
    position = {node: k for k, node in enumerate(order, start=1)}
    counts, weights = [0] * (len(order) + 1), [0] * (len(order) + 1)
    for (a, b), w in graph.edges.items():
        k = max(position[a], position[b])
        counts[k] += 1
        weights[k] += w
    return list(accumulate(counts)), list(accumulate(weights))


def components(graph: Ccn, nodes=None) -> list[set]:
    """Connected components (ignoring weights) of the subgraph induced by
    ``nodes`` (default every node), largest first, then by min id."""
    keep = graph.nodes if nodes is None else nodes
    seen: set = set()
    out = []
    for start in sorted(keep):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = {start}
        while queue:
            node = queue.popleft()
            for nbr, _ in graph.adjacency[node]:
                if nbr not in seen and nbr in keep:
                    seen.add(nbr)
                    comp.add(nbr)
                    queue.append(nbr)
        out.append(comp)
    out.sort(key=lambda c: (-len(c), min(c)))
    return out


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics; edge statistics are None for an edgeless graph."""

    node_count: int
    edge_count: int
    avg_edge_weight: float | None
    max_edge_weight: int | None
    min_edge_weight: int | None
    avg_weighted_degree: float | None
    max_weighted_degree: int | None
    min_weighted_degree: int | None
    density: float | None
    avg_clustering: float | None
    diameter: int | None


def graph_stats(graph: Ccn) -> GraphStats:
    """Compute the topology summary.

    Weighted degree sums incident edge weights; density and clustering are
    unweighted; the diameter is taken on the largest connected component.

    Clustering and diameter use neighbour bitmasks (bit i of ``mask[v]``:
    the i-th node in id order neighbours ``v``). ``v``'s neighbours share
    ``sum(popcount(mask[u] & mask[v]) for u in N(v)) / 2`` links; the
    diameter counts rounds of ``reach[v] |= reach[u]`` over the edges until
    each node of the largest component reaches all of it. Both are exact
    integer counts. Each map takes about n²/8 bytes (0.3 MiB at 1,603 nodes).
    """
    n = graph.n_nodes
    m = graph.n_edges
    if n == 0:
        return GraphStats(0, 0, None, None, None, None, None, None, None, None, None)
    weights = list(graph.edges.values())
    wdegs = [graph.weighted_degree(v) for v in graph.nodes]

    bit = {v: 1 << i for i, v in enumerate(sorted(graph.nodes))}
    mask = {v: sum(bit[u] for u, _ in graph.adjacency[v]) for v in graph.nodes}
    clustering = []
    for v in graph.nodes:
        deg = graph.degree(v)
        if deg < 2:
            continue
        links = sum((mask[u] & mask[v]).bit_count() for u, _ in graph.adjacency[v]) // 2
        clustering.append(2.0 * links / (deg * (deg - 1)))
    avg_clustering = math.fsum(clustering) / n  # one rounding: the node order is moot

    # reach[v]: the nodes within `diameter` hops of v, all in v's component
    largest = components(graph)[0]
    full = sum(bit[v] for v in largest)
    reach = {v: bit[v] for v in largest}
    diameter = 0
    while any(r != full for r in reach.values()):
        reach = {v: reduce(or_, (reach[u] for u, _ in graph.adjacency[v]), r)
                 for v, r in reach.items()}
        diameter += 1

    return GraphStats(
        node_count=n,
        edge_count=m,
        avg_edge_weight=(sum(weights) / m) if m else None,
        max_edge_weight=max(weights) if m else None,
        min_edge_weight=min(weights) if m else None,
        avg_weighted_degree=sum(wdegs) / n,
        max_weighted_degree=max(wdegs),
        min_weighted_degree=min(wdegs),
        density=density(n, m) if n >= 2 else None,
        avg_clustering=avg_clustering,
        diameter=diameter,
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

EDGELIST_HEADER = "# ccn v1"
NODES_HEADER = "# ccn nodes v1"


def nodes_sidecar(path) -> Path:
    """The node sidecar of the edge list at ``path``: ``<path>.nodes``."""
    return Path(str(path) + ".nodes")


def write_edgelist(graph: Ccn, path) -> None:
    """Write tab-separated sorted edges plus a node sidecar file.

    The sidecar (:func:`nodes_sidecar`) preserves isolated nodes, which the
    edge-list format alone cannot represent.
    """
    write_rows(path, [(EDGELIST_HEADER,)] + [
        (a, b, w) for (a, b), w in sorted(graph.edges.items())], "\t")
    write_rows(nodes_sidecar(path), [(NODES_HEADER,)] + [(n,) for n in sorted(graph.nodes)], "\t")


EDGES = (("source", ID), ("target", ID), ("weight", integer(1)))


def read_edgelist(path) -> Ccn:
    """Read a graph written by :func:`write_edgelist`.

    Without the node sidecar only edge endpoints become nodes.
    """
    linenos, (sources, targets, weights) = read_table(path, EDGES, EDGELIST_HEADER)
    edges = dict(zip(zip(sources, targets), weights))
    if len(edges) < len(weights) or not edges.keys().isdisjoint(zip(targets, sources)):
        for lineno, a, b in zip(linenos, sources, targets):  # a self-loop is its own reverse
            if a == b:
                raise ValueError(f"{path}:{lineno}: edge ({a}, {b}) is a self-loop")
        unique(path, linenos, list(map(frozenset, zip(sources, targets))), "edge ({}, {})",
               sources, targets)
    nodes = set(sources) | set(targets)
    sidecar = nodes_sidecar(path)
    if sidecar.exists():
        linenos, (listed,) = read_table(sidecar, (("node", ID),), NODES_HEADER)
        unique(sidecar, linenos, listed, "node '{}'")
        nodes.update(listed)
    return Ccn.build(nodes, edges)


def format_stats(stats: GraphStats) -> str:
    """Render statistics as ``name=value`` lines; undefined values are omitted."""
    return format_rows([(name, value) for name, value in asdict(stats).items()
                        if value is not None], "=")
