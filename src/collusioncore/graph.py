"""Construction of the weighted co-commenting user graph.

Two users are linked when they commented on the same qualifying video that
neither of them uploaded; the edge weight aggregates, per shared video, the
smaller of the two users' comment counts.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path

from .records import Dataset


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
        """Create a graph from a node iterable and {(a, b): weight} mapping."""
        node_set = frozenset(nodes)
        edges = {}
        adjacency = {n: [] for n in node_set}
        for (a, b), weight in pair_weights.items():
            if a == b:
                raise ValueError(f"self-loop on '{a}'")
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(f"edge ({a}, {b}) weight must be a positive integer")
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge ({a}, {b}) references a node outside the node set")
            key = (a, b) if a < b else (b, a)
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


def _bfs_eccentricity(graph: Ccn, start) -> int:
    dist = {start: 0}
    queue = deque([start])
    far = 0
    while queue:
        node = queue.popleft()
        for nbr, _ in graph.adjacency[node]:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                far = max(far, dist[nbr])
                queue.append(nbr)
    return far


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
    """
    n = graph.n_nodes
    m = graph.n_edges
    if n == 0:
        return GraphStats(0, 0, None, None, None, None, None, None, None, None, None)
    weights = list(graph.edges.values())
    wdegs = [graph.weighted_degree(v) for v in graph.nodes]

    clustering = []
    neighbor_sets = {v: {u for u, _ in graph.adjacency[v]} for v in graph.nodes}
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
    avg_clustering = math.fsum(clustering) / n  # one rounding: the node order is moot

    # a BFS from a node of the largest component never leaves it
    diameter = max(_bfs_eccentricity(graph, v) for v in components(graph)[0])

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


def write_edgelist(graph: Ccn, path) -> None:
    """Write tab-separated sorted edges plus a node sidecar file.

    The sidecar (``<path>.nodes``) preserves isolated nodes, which the
    edge-list format alone cannot represent.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(EDGELIST_HEADER + "\n")
        for (a, b) in sorted(graph.edges):
            handle.write(f"{a}\t{b}\t{graph.edges[(a, b)]}\n")
    with Path(str(path) + ".nodes").open("w", encoding="utf-8") as handle:
        handle.write(NODES_HEADER + "\n")
        for node in sorted(graph.nodes):
            handle.write(node + "\n")


def read_edgelist(path) -> Ccn:
    """Read a graph written by :func:`write_edgelist`.

    Without the node sidecar only edge endpoints become nodes.
    """
    path = Path(path)
    weights = {}
    nodes: set = set()
    with path.open(encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header != EDGELIST_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            a, b, w = parts
            if (a, b) in weights or (b, a) in weights:
                raise ValueError(f"{path}:{lineno}: edge ({a}, {b}) listed twice")
            weights[(a, b)] = int(w)
            nodes.add(a)
            nodes.add(b)
    sidecar = Path(str(path) + ".nodes")
    if sidecar.exists():
        with sidecar.open(encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n")
            if header != NODES_HEADER:
                raise ValueError(f"{sidecar}: unexpected header {header!r}")
            for line in handle:
                line = line.strip()
                if line:
                    nodes.add(line)
    return Ccn.build(nodes, weights)


def format_stats(stats: GraphStats) -> str:
    """Render statistics as ``name=value`` lines; undefined values are omitted."""
    lines = []
    for field_name in stats.__dataclass_fields__:
        value = getattr(stats, field_name)
        if value is None:
            continue
        lines.append(f"{field_name}={value!r}" if isinstance(value, float) else f"{field_name}={value}")
    return "\n".join(lines) + "\n"
