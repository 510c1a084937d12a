from fractions import Fraction

import numpy as np
import pytest

from collusioncore.centrality import wbc_baseline, weighted_betweenness

from conftest import clique, graph_from_edges
from oracles import fraction_betweenness, random_weighted_graph


def oracle_betweenness(graph):
    """All-pairs enumeration of simple paths with exact rational lengths."""
    nodes = sorted(graph.nodes)
    bc = {n: 0.0 for n in nodes}
    adj = {n: dict(graph.adjacency[n]) for n in nodes}
    for i, s in enumerate(nodes):
        for t in nodes[i + 1:]:
            paths = []

            def dfs(node, dist, seen):
                if node == t:
                    paths.append((dist, tuple(seen)))
                    return
                for nbr, w in adj[node].items():
                    if nbr not in seen:
                        dfs(nbr, dist + Fraction(1, w), seen + [nbr])

            dfs(s, Fraction(0), [s])
            if not paths:
                continue
            best = min(d for d, _ in paths)
            shortest = [p for d, p in paths if d == best]
            for path in shortest:
                for v in path[1:-1]:
                    bc[v] += 1.0 / len(shortest)
    return bc


def test_path_middle_node_only():
    g = graph_from_edges([("a", "b", 1), ("b", "c", 1)])
    bc = weighted_betweenness(g)
    assert bc["b"] == pytest.approx(1.0)
    assert bc["a"] == bc["c"] == 0.0


def test_clique_all_zero():
    bc = weighted_betweenness(clique("abcde"))
    assert all(v == 0.0 for v in bc.values())


def test_weights_shift_shortest_paths():
    # heavy edges are short: a-b-c with heavy legs beats the direct light edge
    g = graph_from_edges([("a", "b", 10), ("b", "c", 10), ("a", "c", 1)])
    bc = weighted_betweenness(g)
    assert bc["b"] == pytest.approx(1.0)


def test_matches_bruteforce_enumeration():
    rng = np.random.default_rng(31)
    for trial in range(25):
        g = random_weighted_graph(rng, max_nodes=8, min_nodes=3, edge_prob=0.45)
        got = weighted_betweenness(g)
        expected = oracle_betweenness(g)
        for node in g.nodes:
            assert got[node] == pytest.approx(expected[node], abs=1e-9), f"trial {trial}"


def test_matches_fraction_brandes_exactly():
    # integer lengths scaled by lcm(weights) must reproduce the exact rational
    # kernel float for float, ties and summation order included
    rng = np.random.default_rng(2001)
    edge_probs = (0.0, 0.05, 0.15, 0.4, 0.9)
    max_weights = (1, 2, 5, 25)
    for trial in range(200):
        g = random_weighted_graph(
            rng, max_nodes=40, min_nodes=1,
            max_weight=max_weights[(trial // len(edge_probs)) % len(max_weights)],
            edge_prob=edge_probs[trial % len(edge_probs)],
        )
        assert repr(weighted_betweenness(g)) == repr(fraction_betweenness(g)), f"trial {trial}"


@pytest.mark.parametrize("graph", [
    graph_from_edges([], isolated=["solo"]),
    graph_from_edges([], isolated="abcde"),
    graph_from_edges([("a", "b", 3), ("b", "c", 7), ("x", "y", 25)], isolated=["z"]),
    graph_from_edges([], isolated=[]),
], ids=["single-node", "edgeless", "isolated-and-components", "empty"])
def test_degenerate_graphs_match_fraction_brandes(graph):
    assert repr(weighted_betweenness(graph)) == repr(fraction_betweenness(graph))


def test_matches_networkx_on_power_of_two_weights():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(8)
    nodes = [f"u{i:02d}" for i in range(60)]
    edges = [
        (nodes[i], nodes[j], int(rng.choice([1, 2, 4, 8])))
        for i in range(60) for j in range(i + 1, 60) if rng.random() < 0.12
    ]
    g = graph_from_edges(edges, isolated=nodes)
    ref = nx.Graph()
    ref.add_nodes_from(nodes)
    # reciprocals of powers of two, and their sums here, are exact floats,
    # so networkx sees the same equal-length ties
    ref.add_weighted_edges_from((a, b, 1.0 / w) for a, b, w in edges)
    expected = nx.betweenness_centrality(ref, weight="weight", normalized=False)
    got = weighted_betweenness(g)
    assert max(got.values()) > 0
    for node in nodes:
        assert got[node] == pytest.approx(expected[node], rel=1e-9, abs=1e-9), node


def test_disconnected_components_handled():
    g = graph_from_edges([("a", "b", 1), ("b", "c", 1), ("x", "y", 1)])
    bc = weighted_betweenness(g)
    assert bc["b"] == pytest.approx(1.0)
    assert bc["x"] == bc["y"] == 0.0


def test_wbc_baseline_ranking():
    g = graph_from_edges([("a", "b", 1), ("b", "c", 1)])
    assert wbc_baseline(g) == [("b", 1.0), ("a", 0.0), ("c", 0.0)]
    assert wbc_baseline(g, k=1) == [("b", 1.0)]
    assert wbc_baseline(g, k=10) == wbc_baseline(g)
    assert wbc_baseline(g, k=0) == []
    with pytest.raises(ValueError):
        wbc_baseline(g, k=-1)
