"""Structural analyses of the co-commenting graph and its core/periphery.

Covers node-removal breakage curves, seeded weighted Louvain communities,
video categorization by commenter roles, community/core interaction tables,
Pearson correlation, and the descriptive timeline statistics contrasting
core and compromised users.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path

from .graph import Ccn, components, density
from .kcore import coreness
from .korse import CorePartition
from .records import Dataset

ORDER_KEYS = (
    "weighted_degree",
    "unweighted_degree",
    "weighted_coreness",
    "unweighted_coreness",
)

# Component-size bands for breakage reporting.
SIZE_BUCKETS = ((1, 1, "1"), (2, 10, "2-10"), (11, 100, "11-100"),
                (101, 1000, "101-1000"), (1001, None, ">1000"))


@dataclass(frozen=True)
class RemovalPoint:
    fraction_removed: float
    largest_component: int
    component_buckets: dict
    removed_density: float


@dataclass(frozen=True)
class RemovalCurve:
    order_key: str
    n_nodes: int
    points: tuple


def _order_values(graph: Ccn, order_key: str) -> dict:
    if order_key == "weighted_degree":
        return {n: graph.weighted_degree(n) for n in graph.nodes}
    if order_key == "unweighted_degree":
        return {n: graph.degree(n) for n in graph.nodes}
    if order_key == "weighted_coreness":
        return dict(coreness(graph, "weighted").values)
    if order_key == "unweighted_coreness":
        return dict(coreness(graph, "unweighted").values)
    raise ValueError(f"order_key must be one of {ORDER_KEYS}")


def _bucket_counts(sizes) -> dict:
    counts = {label: 0 for _, _, label in SIZE_BUCKETS}
    for size in sizes:
        for low, high, label in SIZE_BUCKETS:
            if size >= low and (high is None or size <= high):
                counts[label] += 1
                break
    return counts


def _removal_counts(n: int, step_fraction: float) -> list[int]:
    """Distinct positive counts min(n, round(i * step_fraction * n)), i = 1, 2, ...,
    up to n.

    The count never decreases in i, so each checkpoint bisects for the first
    i that raises it: at most n searches, whatever ``step_fraction`` is.
    """
    def count(i):
        return min(n, round(i * step_fraction * n))

    counts, i, last = [], 0, 0
    while last < n:
        # count(lo) <= last throughout; start hi at an estimate of the next i
        lo, hi = i, max(i + 1, int((last + 0.5) / (step_fraction * n)))
        while count(hi) <= last:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if count(mid) > last else (mid, hi)
        i, last = hi, count(hi)
        counts.append(last)
    return counts


def removal_curve(graph: Ccn, order_key: str, step_fraction: float = 0.05) -> RemovalCurve:
    """Remove nodes by descending order key and record breakage checkpoints.

    At each multiple of ``step_fraction`` the remaining graph's component
    sizes and the unweighted density of the removed-so-far induced subgraph
    are recorded. Ties in the order key break by ascending node id. Steps
    below 1e-300 are rejected: they would overflow the checkpoint search.
    """
    if not (1e-300 <= step_fraction <= 0.05):
        raise ValueError("step_fraction must be in [1e-300, 0.05]")
    values = _order_values(graph, order_key)
    order = sorted(graph.nodes, key=lambda n: (-values[n], n))
    n = len(order)
    if n == 0:
        return RemovalCurve(order_key=order_key, n_nodes=0, points=())

    points = []
    for count in _removal_counts(n, step_fraction):
        removed = set(order[:count])
        sizes = [len(c) for c in components(graph, set(order[count:]))]
        removed_edges = sum(
            1 for (a, b) in graph.edges if a in removed and b in removed
        )
        points.append(
            RemovalPoint(
                fraction_removed=count / n,
                largest_component=max(sizes, default=0),
                component_buckets=_bucket_counts(sizes),
                removed_density=density(count, removed_edges),
            )
        )
    return RemovalCurve(order_key=order_key, n_nodes=n, points=tuple(points))


def disintegration_fraction(curve: RemovalCurve) -> float | None:
    """First removal fraction where the largest component drops below half
    of the remaining nodes; None if that never happens."""
    for point in curve.points:
        remaining = curve.n_nodes - round(point.fraction_removed * curve.n_nodes)
        if remaining > 0 and point.largest_component < 0.5 * remaining:
            return point.fraction_removed
    return None


# ---------------------------------------------------------------------------
# Louvain communities on the weighted modularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommunitySet:
    assignment: dict
    modularity: float


def modularity(graph: Ccn, assignment: dict) -> float:
    """Weighted modularity of a total partition of the graph's nodes."""
    if set(assignment) != set(graph.nodes):
        raise ValueError("assignment must cover exactly the graph nodes")
    m = graph.total_weight
    if m == 0:
        return 0.0
    internal: dict = {}
    degree: dict = {}
    for node in graph.nodes:
        degree[assignment[node]] = degree.get(assignment[node], 0) + graph.weighted_degree(node)
    for (a, b), w in graph.edges.items():
        if assignment[a] == assignment[b]:
            internal[assignment[a]] = internal.get(assignment[a], 0) + w
    # fsum rounds the exact sum once, so the (hash) order of the communities is moot
    return math.fsum(internal.get(c, 0) / m - (degree[c] / (2.0 * m)) ** 2 for c in degree)


def _one_level(adj, degrees, m, node_order, rng):
    """Local-move phase; returns (community assignment, improved flag)."""
    community = {n: n for n in node_order}
    comm_total = dict(degrees)  # sum of degrees per community
    order = list(node_order)
    rng.shuffle(order)
    improved = False
    moved = True
    while moved:
        moved = False
        for node in order:
            own = community[node]
            k = degrees[node]
            comm_total[own] -= k
            # weight from node to each neighboring community
            links: dict = {own: 0.0}
            for nbr, w in adj[node].items():
                if nbr == node:
                    continue
                links[community[nbr]] = links.get(community[nbr], 0.0) + w
            best, best_gain = own, links.get(own, 0.0) - comm_total[own] * k / (2.0 * m)
            for target in sorted(links):
                gain = links[target] - comm_total[target] * k / (2.0 * m)
                if gain > best_gain + 1e-12:
                    best, best_gain = target, gain
            comm_total[best] = comm_total.get(best, 0.0) + k
            if best != own:
                community[node] = best
                moved = True
                improved = True
    return community, improved


def _aggregate(adj, community):
    """Collapse communities into super-nodes, keeping self-loop weights."""
    new_adj: dict = {}
    for node, nbrs in adj.items():
        c = community[node]
        new_adj.setdefault(c, {})
        for nbr, w in nbrs.items():
            d = community[nbr]
            new_adj[c][d] = new_adj[c].get(d, 0.0) + w
    return new_adj


def louvain(graph: Ccn, seed: int = 0) -> CommunitySet:
    """Seeded two-phase greedy modularity optimization.

    Nodes are visited in a seeded shuffle of ascending-id order; the result
    is deterministic per seed. The stored modularity is recomputed directly
    from the final assignment on the input graph.
    """
    if graph.n_nodes == 0:
        raise ValueError("louvain requires a non-empty graph")
    if graph.total_weight == 0:
        assignment = {n: i for i, n in enumerate(sorted(graph.nodes))}
        return CommunitySet(assignment=assignment, modularity=0.0)

    rng = random.Random(seed)
    m = float(graph.total_weight)
    # adjacency with self-loop dict form; degrees count self-loops twice
    adj = {n: {nbr: float(w) for nbr, w in graph.adjacency[n]} for n in graph.nodes}
    mapping = {n: n for n in graph.nodes}  # original node -> current super-node

    while True:
        degrees = {
            n: sum(w for nbr, w in nbrs.items() if nbr != n) + 2.0 * nbrs.get(n, 0.0)
            for n, nbrs in adj.items()
        }
        node_order = sorted(adj)
        community, improved = _one_level(adj, degrees, m, node_order, rng)
        if not improved:
            break
        mapping = {n: community[mapping[n]] for n in mapping}
        adj = _aggregate(adj, community)

    ids = {}
    assignment = {}
    for node in sorted(graph.nodes):
        label = mapping[node]
        if label not in ids:
            ids[label] = len(ids)
        assignment[node] = ids[label]
    return CommunitySet(assignment=assignment, modularity=modularity(graph, assignment))


def periphery_largest_component(graph: Ccn, partition: CorePartition) -> Ccn:
    """Largest connected component of the periphery-induced subgraph."""
    periphery = partition.periphery & graph.nodes
    if not periphery:
        raise ValueError("the partition leaves no periphery user in the graph")
    return graph.induced(components(graph, periphery)[0])


# ---------------------------------------------------------------------------
# Videos, interplay, correlation
# ---------------------------------------------------------------------------

VIDEO_CATEGORIES = ("core_core", "core_periphery", "periphery_periphery", "uncommented")


def categorize_videos(dataset: Dataset, partition: CorePartition) -> dict:
    """Label each video by the roles of its partitioned commenters.

    Commenters outside the partition are not collusive and are ignored;
    a video with no partitioned commenters is labeled ``uncommented``.
    """
    out = {}
    for video in dataset.videos:
        commenters = set(dataset.video_commenters.get(video.video_id, ()))
        has_core = any(u in partition.core for u in commenters)
        has_periphery = any(u in partition.periphery for u in commenters)
        if has_core and has_periphery:
            out[video.video_id] = "core_periphery"
        elif has_core:
            out[video.video_id] = "core_core"
        elif has_periphery:
            out[video.video_id] = "periphery_periphery"
        else:
            out[video.video_id] = "uncommented"
    return out


@dataclass(frozen=True)
class InterplayRow:
    community_id: int
    size: int
    avg_weighted_degree: float
    weighted_size: int
    wcs: float
    small: bool  # size <= 40, outside the large-community focus


def interplay_table(graph: Ccn, partition: CorePartition, communities: CommunitySet) -> list[InterplayRow]:
    """Per-community internal activity and normalized cut weight to the core.

    ``communities`` must partition periphery nodes only (typically the
    largest periphery component); a community containing a core node is an
    error.
    """
    members: dict = {}
    for node, community in communities.assignment.items():
        if node in partition.core:
            raise ValueError(f"community {community} contains core node '{node}'")
        members.setdefault(community, set()).add(node)

    rows = []
    for community in sorted(members):
        nodes = members[community]
        internal = 0
        cut = 0
        for node in nodes:
            for nbr, w in graph.adjacency[node]:
                if nbr in nodes:
                    internal += w  # counted twice, halved below
                elif nbr in partition.core:
                    cut += w
        internal //= 2
        size = len(nodes)
        rows.append(
            InterplayRow(
                community_id=community,
                size=size,
                avg_weighted_degree=2.0 * internal / size,
                weighted_size=internal,
                wcs=cut / size,
                small=size <= 40,
            )
        )
    return rows


def pearson(xs, ys) -> float:
    """Sample Pearson correlation; errors on mismatch or zero variance."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("pearson requires equal-length inputs")
    if len(xs) < 2:
        raise ValueError("pearson requires at least two points")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    syy = sum((y - mean_y) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("pearson is undefined for zero-variance input")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


# ---------------------------------------------------------------------------
# Timeline statistics contrasting core and compromised users
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseStudyReport:
    """Ratios and shares; a statistic is None when its inputs are missing."""

    contribution_ratio: float | None
    core_in_top_30: int
    core_in_top_250: int
    per_video_ratio: float | None
    low_subscriber_share: float | None
    low_upload_share: float | None


def _mean(values) -> float | None:
    values = list(values)
    if not values:
        return None
    return sum(values) / len(values)


def case_study_report(dataset: Dataset, partition: CorePartition) -> CaseStudyReport:
    """Compare core and compromised behavior from timelines alone.

    Activity counts consider comments on videos flagged collusive, matching
    the market context. "Comments received" ranks users by the mean number
    of such comments per own collusive video.
    """
    core = set(partition.core)
    compromised = set(partition.periphery)
    if not core or not compromised:
        raise ValueError("both classes must be non-empty")
    collusive_videos = {v.video_id for v in dataset.videos if v.is_collusive}

    made: dict = {}
    engagements: dict = {}
    for (user, video), count in dataset.pair_counts.items():
        if video in collusive_videos:
            made[user] = made.get(user, 0) + count
            engagements[user] = engagements.get(user, 0) + 1

    core_mean = _mean(made.get(u, 0) for u in core)
    comp_mean = _mean(made.get(u, 0) for u in compromised)
    contribution = core_mean / comp_mean if comp_mean else None

    # mean comments per engaged collusive video, aggregated per class
    core_made = sum(made.get(u, 0) for u in core)
    core_eng = sum(engagements.get(u, 0) for u in core)
    comp_made = sum(made.get(u, 0) for u in compromised)
    comp_eng = sum(engagements.get(u, 0) for u in compromised)
    if core_eng and comp_eng and comp_made:
        per_video = (core_made / core_eng) / (comp_made / comp_eng)
    else:
        per_video = None

    received: dict = {}
    for user in core | compromised:
        own = [
            v for v in dataset.videos_by_uploader.get(user, ())
            if v.video_id in collusive_videos
        ]
        if not own:
            received[user] = 0.0
            continue
        total = sum(
            sum(dataset.video_commenters.get(v.video_id, {}).values()) for v in own
        )
        received[user] = total / len(own)
    ranking = sorted(received, key=lambda u: (-received[u], u))
    core_in_top_30 = sum(1 for u in ranking[:30] if u in core)
    core_in_top_250 = sum(1 for u in ranking[:250] if u in core)

    subs = [
        dataset.users_by_id[u].channel_subscriber_count
        for u in core
        if u in dataset.users_by_id
        and dataset.users_by_id[u].channel_subscriber_count is not None
    ]
    low_subs = sum(1 for s in subs if s < 1000) / len(subs) if subs else None

    uploads = [len(dataset.videos_by_uploader.get(u, ())) for u in core]
    low_uploads = sum(1 for c in uploads if c < 100) / len(uploads)

    return CaseStudyReport(
        contribution_ratio=contribution,
        core_in_top_30=core_in_top_30,
        core_in_top_250=core_in_top_250,
        per_video_ratio=per_video,
        low_subscriber_share=low_subs,
        low_upload_share=low_uploads,
    )


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def write_removal_curve(curve: RemovalCurve, path) -> None:
    labels = [label for _, _, label in SIZE_BUCKETS]
    with Path(path).open("w", encoding="utf-8") as handle:
        cols = ",".join("bucket_" + label.replace("-", "_").replace(">", "gt") for label in labels)
        handle.write(f"fraction_removed,largest_component,removed_density,{cols}\n")
        for p in curve.points:
            buckets = ",".join(str(p.component_buckets[label]) for label in labels)
            handle.write(
                f"{p.fraction_removed!r},{p.largest_component},{p.removed_density!r},{buckets}\n"
            )


def write_removal_curve_long(curve: RemovalCurve, path) -> None:
    """Long-format ``series,x,y`` rows for plotting."""
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write("series,x,y\n")
        for p in curve.points:
            handle.write(f"largest_component,{p.fraction_removed!r},{p.largest_component}\n")
        for p in curve.points:
            handle.write(f"removed_density,{p.fraction_removed!r},{p.removed_density!r}\n")
        for _, _, label in SIZE_BUCKETS:
            for p in curve.points:
                handle.write(
                    f"bucket:{label},{p.fraction_removed!r},{p.component_buckets[label]}\n"
                )


def write_communities(communities: CommunitySet, path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(f"# modularity={communities.modularity!r}\n")
        handle.write("user_id,community\n")
        for node in sorted(communities.assignment):
            handle.write(f"{node},{communities.assignment[node]}\n")


def write_interplay(rows, path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write("community_id,size,avg_weighted_degree,weighted_size,wcs,small\n")
        for row in rows:
            handle.write(
                f"{row.community_id},{row.size},{row.avg_weighted_degree!r},"
                f"{row.weighted_size},{row.wcs!r},{str(row.small).lower()}\n"
            )


def write_case_study(report: CaseStudyReport, path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for field_name in report.__dataclass_fields__:
            value = getattr(report, field_name)
            rendered = "unavailable" if value is None else (repr(value) if isinstance(value, float) else str(value))
            handle.write(f"{field_name}={rendered}\n")
