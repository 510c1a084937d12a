import random

import networkx as nx
import numpy as np
import pytest

from collusioncore.graph import (
    Ccn,
    build_ccn,
    components,
    format_stats,
    graph_stats,
    read_edgelist,
    write_edgelist,
)

from conftest import graph_from_edges, make_comment, make_dataset, make_user, make_video
from oracles import edge_weight, iucc, oracle_component_sizes, random_weighted_graph


def fixture_two_videos():
    # a and b comment twice each on v1 and once each on v2; both uploaded by c
    users = [make_user(u) for u in ("a", "b", "c")]
    videos = [make_video("v1", "c"), make_video("v2", "c")]
    comments = []
    for _ in range(2):
        comments.append(make_comment("a", "v1"))
        comments.append(make_comment("b", "v1"))
    comments.append(make_comment("a", "v2"))
    comments.append(make_comment("b", "v2"))
    return make_dataset(users, videos, comments)


def test_iucc_min_zero_and_symmetry():
    d = make_dataset(
        users=[make_user(u) for u in ("a", "b", "c")],
        videos=[make_video("v", "c")],
        comments=[make_comment("a", "v") for _ in range(3)]
        + [make_comment("b", "v") for _ in range(5)],
    )
    assert iucc(d, "a", "b", "v") == 3
    assert iucc(d, "b", "a", "v") == 3
    assert iucc(d, "a", "c", "v") == 0
    d2 = make_dataset(
        users=[make_user(u) for u in ("a", "b", "c")],
        videos=[make_video("v", "c")],
        comments=[make_comment(u, "v") for u in ("a", "a", "b", "b")],
    )
    assert iucc(d2, "a", "b", "v") == 2
    with pytest.raises(ValueError):
        iucc(d, "a", "a", "v")


def test_edge_weight_aggregates_third_party_videos():
    assert edge_weight(fixture_two_videos(), "a", "b") == 3


def test_edge_weight_excludes_own_videos():
    d = make_dataset(
        users=[make_user(u) for u in ("a", "b")],
        videos=[make_video("v", "a")],
        comments=[make_comment("a", "v"), make_comment("b", "v")],
    )
    assert edge_weight(d, "a", "b") == 0


def test_edge_weight_disjoint_videos_is_zero():
    d = make_dataset(
        users=[make_user(u) for u in ("a", "b", "c")],
        videos=[make_video("v1", "c"), make_video("v2", "c")],
        comments=[make_comment("a", "v1"), make_comment("b", "v2")],
    )
    assert edge_weight(d, "a", "b") == 0
    with pytest.raises(ValueError):
        edge_weight(d, "b", "b")


def test_build_ccn_triangle():
    users = [make_user(u) for u in ("a", "b", "c", "d")]
    videos = [make_video("v", "d")]
    comments = [make_comment(u, "v") for u in ("a", "b", "c")]
    g = build_ccn(make_dataset(users, videos, comments))
    assert g.nodes == frozenset({"a", "b", "c"})
    assert g.edges == {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}


def test_build_ccn_disjoint_videos_edgeless():
    users = [make_user(u) for u in ("a", "b", "c")]
    videos = [make_video("v1", "c"), make_video("v2", "c")]
    comments = [make_comment("a", "v1"), make_comment("b", "v2")]
    g = build_ccn(make_dataset(users, videos, comments))
    assert g.nodes == frozenset({"a", "b"})
    assert g.n_edges == 0


def test_build_ccn_collusive_only_filter():
    users = [make_user(u) for u in ("a", "b", "c")]
    videos = [make_video("v1", "c", collusive=False)]
    comments = [make_comment("a", "v1"), make_comment("b", "v1")]
    d = make_dataset(users, videos, comments)
    assert build_ccn(d, collusive_only=True).n_nodes == 0
    g = build_ccn(d, collusive_only=False)
    assert g.edges == {("a", "b"): 1}


def random_dataset(rng, max_users=6, max_videos=5, max_per_pair=3):
    n_users = rng.randint(2, max_users)
    n_videos = rng.randint(1, max_videos)
    users = [make_user(f"u{i}") for i in range(n_users)]
    videos = [
        make_video(f"v{j}", f"u{rng.randrange(n_users)}", collusive=rng.random() < 0.8)
        for j in range(n_videos)
    ]
    comments = []
    for u in users:
        for v in videos:
            for _ in range(rng.randint(0, max_per_pair) if rng.random() < 0.5 else 0):
                comments.append(make_comment(u.user_id, v.video_id))
    return make_dataset(users, videos, comments)


def oracle_ccn(dataset, collusive_only):
    """Direct per-pair recomputation of weights and node membership."""
    qualifying = [v for v in dataset.videos if v.is_collusive or not collusive_only]
    counts = {}
    for c in dataset.comments:
        counts[(c.user_id, c.video_id)] = counts.get((c.user_id, c.video_id), 0) + 1
    nodes = set()
    for v in qualifying:
        for u in dataset.users:
            if counts.get((u.user_id, v.video_id), 0) > 0:
                nodes.add(u.user_id)
    weights = {}
    ids = sorted(u.user_id for u in dataset.users)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            w = 0
            for v in qualifying:
                if v.uploader_user_id in (a, b):
                    continue
                w += min(counts.get((a, v.video_id), 0), counts.get((b, v.video_id), 0))
            if w > 0:
                weights[(a, b)] = w
    return nodes, weights


def test_build_ccn_matches_bruteforce_oracle():
    rng = random.Random(20240811)
    for trial in range(60):
        d = random_dataset(rng)
        for collusive_only in (True, False):
            g = build_ccn(d, collusive_only=collusive_only)
            nodes, weights = oracle_ccn(d, collusive_only)
            assert g.nodes == frozenset(nodes), f"trial {trial}"
            assert g.edges == weights, f"trial {trial}"


def test_edge_weight_symmetry_and_monotonicity():
    rng = random.Random(99)
    for _ in range(30):
        d = random_dataset(rng)
        ids = [u.user_id for u in d.users]
        a, b = rng.sample(ids, 2)
        assert edge_weight(d, a, b) == edge_weight(d, b, a)
        # adding a comment by a on a third-party video never decreases weights
        third = [v for v in d.videos if v.uploader_user_id not in (a, b)]
        if third:
            before = edge_weight(d, a, b)
            extra = make_comment(a, third[0].video_id)
            d2 = make_dataset(d.users, d.videos, list(d.comments) + [extra])
            assert edge_weight(d2, a, b) >= before
        # a third user's comment never decreases the (a, b) weight either
        others = [u for u in ids if u not in (a, b)]
        if others and d.videos:
            before = edge_weight(d, a, b)
            extra = make_comment(others[0], d.videos[0].video_id)
            d3 = make_dataset(d.users, d.videos, list(d.comments) + [extra])
            assert edge_weight(d3, a, b) >= before


def test_degree_sum_equals_twice_weight(synth_graph):
    g, _ = synth_graph
    assert sum(g.weighted_degree(n) for n in g.nodes) == 2 * g.total_weight


def test_graph_stats_triangle(triangle):
    s = graph_stats(triangle)
    assert s.node_count == 3 and s.edge_count == 3
    assert s.density == 1.0
    assert s.avg_clustering == 1.0
    assert s.diameter == 1
    assert s.max_weighted_degree == s.min_weighted_degree == 2


def test_graph_stats_path(path_abc):
    s = graph_stats(path_abc)
    assert s.density == pytest.approx(2 / 3)
    assert s.diameter == 2


def test_graph_stats_empty():
    s = graph_stats(Ccn.build([], {}))
    assert s.node_count == 0 and s.edge_count == 0
    assert s.avg_edge_weight is None and s.diameter is None
    assert "node_count=0" in format_stats(s)
    assert "avg_edge_weight" not in format_stats(s)


def test_components_and_induced():
    g = graph_from_edges([("a", "b", 2), ("c", "d", 1)], isolated=["e"])
    comps = components(g)
    assert sorted(map(len, comps), reverse=True) == [2, 2, 1]
    sub = g.induced({"a", "b", "e"})
    assert sub.edges == {("a", "b"): 2}
    assert sub.nodes == frozenset({"a", "b", "e"})


def test_edgelist_roundtrip_keeps_isolated_nodes(tmp_path, synth_graph):
    g, _ = synth_graph
    path = tmp_path / "ccn.tsv"
    write_edgelist(g, path)
    again = read_edgelist(path)
    assert again.nodes == g.nodes
    assert again.edges == g.edges
    first = path.read_text(encoding="utf-8").splitlines()
    assert first[0] == "# ccn v1"
    body = first[1:]
    assert body == sorted(body)


def test_components_of_node_subsets_match_union_find():
    rng = np.random.default_rng(31)
    for _ in range(150):
        g = random_weighted_graph(rng, max_nodes=30, min_nodes=1,
                                  edge_prob=float(rng.uniform(0.0, 0.4)))
        nodes = sorted(g.nodes)
        share = rng.uniform(0.2, 1.0)
        keep = {n for n in nodes if rng.random() < share}
        comps = components(g, keep)
        assert [len(c) for c in comps] == oracle_component_sizes(g, keep)
        assert set().union(*comps) == keep
        assert [(-len(c), min(c)) for c in comps] == sorted((-len(c), min(c)) for c in comps)
    assert components(g, set()) == []


def test_graph_stats_diameter_is_that_of_the_largest_component():
    """The longest shortest path sits in a smaller component; it must not count."""
    rng = np.random.default_rng(37)
    for trial in range(40):
        big = int(rng.integers(6, 16))
        path_len = int(rng.integers(4, big))  # fewer nodes than the largest component
        edges = {}
        hub = "b00"
        for i in range(1, big):  # a star keeps the largest component connected
            edges[(hub, f"b{i:02d}")] = int(rng.integers(1, 4))
            for j in range(i + 1, big):
                if rng.random() < 0.3:
                    edges[(f"b{i:02d}", f"b{j:02d}")] = 1
        for i in range(path_len - 1):
            edges[(f"p{i:02d}", f"p{i + 1:02d}")] = 1
        isolated = [f"z{i}" for i in range(int(rng.integers(0, 3)))]
        g = graph_from_edges([(a, b, w) for (a, b), w in edges.items()], isolated=isolated)

        G = nx.Graph()
        G.add_nodes_from(g.nodes)
        G.add_edges_from(g.edges)
        largest = max(nx.connected_components(G), key=len)
        expected = nx.diameter(G.subgraph(largest))
        assert expected < path_len - 1, trial
        assert graph_stats(g).diameter == expected
