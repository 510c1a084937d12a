import numpy as np
import pytest

from collusioncore.kcore import coreness, write_coreness

from conftest import clique, graph_from_edges
from oracles import oracle_coreness, oracle_k_core, random_weighted_graph


def k_core(graph, k, mode):
    """The nodes whose coreness reaches ``k``."""
    return {n for n, c in coreness(graph, mode).items() if c >= k}


def degeneracy_core(graph, mode):
    """The k-core at the maximum coreness; empty when the graph has no edges."""
    values = coreness(graph, mode)
    top = max(values.values())
    return {n for n, c in values.items() if c == top} if top else set()


def test_k_core_triangle(triangle):
    assert k_core(triangle, 2, "unweighted") == {"a", "b", "c"}
    assert k_core(triangle, 3, "unweighted") == set()
    assert k_core(triangle, 0, "unweighted") == {"a", "b", "c"}


def test_coreness_is_a_fresh_copy_of_one_peel_per_mode():
    g = graph_from_edges([("a", "b", 2), ("b", "c", 1), ("a", "c", 3), ("c", "d", 1)])
    for mode in ("weighted", "unweighted"):
        first = coreness(g, mode)
        assert first == oracle_coreness(g, mode)
        first["a"] = 99
        del first["d"]
        assert coreness(g, mode) == oracle_coreness(g, mode)
        assert coreness(g, mode) is not coreness(g, mode)


def test_coreness_rejects_an_unknown_mode(triangle):
    with pytest.raises(ValueError):
        coreness(triangle, "nope")


def test_coreness_star_unit_weights():
    g = graph_from_edges([("hub", f"leaf{i}", 1) for i in range(5)])
    cm = coreness(g, "weighted")
    assert cm["hub"] == 1
    assert all(cm[f"leaf{i}"] == 1 for i in range(5))
    assert max(cm.values()) == 1


def test_coreness_k4():
    cm = coreness(clique("abcd"), "weighted")
    assert set(cm.values()) == {3}


def test_coreness_isolated_nodes_are_zero():
    g = graph_from_edges([("a", "b", 3)], isolated=["z"])
    cm = coreness(g, "weighted")
    assert cm["z"] == 0
    assert cm["a"] == cm["b"] == 3


def test_degeneracy_core_k4_plus_pendant():
    g = graph_from_edges(
        [("a", "b", 1), ("a", "c", 1), ("a", "d", 1),
         ("b", "c", 1), ("b", "d", 1), ("c", "d", 1), ("d", "e", 1)]
    )
    assert degeneracy_core(g, "unweighted") == {"a", "b", "c", "d"}


def test_degeneracy_core_edgeless_is_empty():
    g = graph_from_edges([], isolated=["a", "b"])
    assert degeneracy_core(g, "weighted") == set()


def test_degeneracy_core_is_planted_block(synth_default, synth_graph):
    _, labels = synth_default
    g, _ = synth_graph
    planted = {u for u, l in labels.items() if l == "core"}
    assert degeneracy_core(g, "weighted") == planted


def test_matches_subset_oracle_small_graphs():
    rng = np.random.default_rng(42)
    for trial in range(40):
        g = random_weighted_graph(rng, max_nodes=9)
        for mode in ("weighted", "unweighted"):
            cm = coreness(g, mode)
            assert cm == oracle_coreness(g, mode), f"trial {trial} {mode}"
            for k in range(0, max(cm.values()) + 2):
                assert k_core(g, k, mode) == oracle_k_core(g, k, mode), (
                    f"trial {trial} {mode} k={k}"
                )


def test_nested_cores_and_membership_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_weighted_graph(rng, max_nodes=10)
        for mode in ("weighted", "unweighted"):
            cm = coreness(g, mode)
            prev = set(g.nodes)
            for k in range(0, max(cm.values()) + 2):
                core = k_core(g, k, mode)
                assert core <= prev
                prev = core
                assert core == {n for n, v in cm.items() if v >= k}


def test_coreness_invariant_under_relabeling():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_weighted_graph(rng, max_nodes=10)
        nodes = sorted(g.nodes)
        shuffled = [nodes[i] for i in rng.permutation(len(nodes))]
        rename = {old: f"x{new}" for old, new in zip(nodes, shuffled)}
        g2 = type(g).build(
            [rename[n] for n in g.nodes],
            {tuple(sorted((rename[a], rename[b]))): w for (a, b), w in g.edges.items()},
        )
        for mode in ("weighted", "unweighted"):
            cm = coreness(g, mode)
            cm2 = coreness(g2, mode)
            assert {rename[n]: v for n, v in cm.items()} == cm2


def test_unit_weights_modes_agree():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_weighted_graph(rng, max_nodes=10, max_weight=1)
        assert coreness(g, "weighted") == coreness(g, "unweighted")


def test_coreness_bounded_by_degree(synth_graph):
    g, _ = synth_graph
    cm = coreness(g, "weighted")
    assert all(cm[n] <= g.weighted_degree(n) for n in g.nodes)
    cm_u = coreness(g, "unweighted")
    assert all(cm_u[n] <= g.degree(n) for n in g.nodes)


def test_write_coreness_sorted(tmp_path, triangle):
    cm = coreness(triangle, "weighted")
    path = tmp_path / "coreness.tsv"
    write_coreness(cm, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["a\t2", "b\t2", "c\t2"]
    # descending coreness first, then id; one LF-ended line per user
    write_coreness({"b": 1, "a": 1, "z": 5, "# c": 3}, path)
    assert path.read_bytes() == b"z\t5\n# c\t3\na\t1\nb\t1\n"
