import csv
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collusioncore.analysis import (
    ORDER_KEYS,
    SIZE_BUCKETS,
    CommunitySet,
    _removal_counts,
    case_study_report,
    disintegration_fraction,
    interplay_table,
    louvain,
    modularity,
    pearson,
    periphery_largest_component,
    removal_curve,
    write_communities,
    write_removal_curve,
)
from collusioncore.graph import Ccn, prefix_edges
from collusioncore.korse import CorePartition, korse

from conftest import clique, graph_from_edges, make_comment, make_dataset, make_user, make_video
from oracles import (
    oracle_component_sizes,
    oracle_coreness,
    oracle_induced_edges,
    oracle_korse_sweep,
    oracle_pearson,
    oracle_removal_counts,
    oracle_removal_points,
    random_weighted_graph,
)


def make_partition(core, periphery):
    return CorePartition(
        core=frozenset(core), periphery=frozenset(periphery),
        core_threshold=1, normalized_threshold=1.0, peak_wicci=0.0, sweep_trace=(),
    )


# ---------------------------------------------------------------- removal

def test_removal_path_splits_first(path_abc):
    curve = removal_curve(path_abc, "unweighted_degree", 0.05)
    # b (degree 2) is removed first; remaining a and c are singletons
    first_nonzero = next(p for p in curve.points if round(p.fraction_removed * 3) == 1)
    assert first_nonzero.largest_component == 1
    assert first_nonzero.component_buckets["1"] == 2


def test_removal_clique_shrinks_by_one():
    g = clique("abcde")
    curve = removal_curve(g, "unweighted_degree", 0.05)
    for p in curve.points:
        removed = round(p.fraction_removed * 5)
        assert p.largest_component == 5 - removed


def test_removal_curve_validates_step(triangle):
    for step in (0.2, 5e-324, 1e-310, 0.99e-300):
        with pytest.raises(ValueError):
            removal_curve(triangle, "unweighted_degree", step)
    with pytest.raises(ValueError):
        removal_curve(triangle, "not_a_key", 0.05)


def test_removal_fractions_strictly_increase_and_components_shrink(synth_graph):
    g, _ = synth_graph
    for key in ("weighted_degree", "weighted_coreness"):
        curve = removal_curve(g, key, 0.05)
        fracs = [p.fraction_removed for p in curve.points]
        assert all(b > a for a, b in zip(fracs, fracs[1:]))
        largest = [p.largest_component for p in curve.points]
        assert all(b <= a for a, b in zip(largest, largest[1:]))
        assert largest[-1] == 0  # everything removed at fraction 1.0


def test_removal_components_match_union_find(synth_graph):
    g, _ = synth_graph
    values = {n: g.weighted_degree(n) for n in g.nodes}
    order = sorted(g.nodes, key=lambda n: (-values[n], n))
    curve = removal_curve(g, "weighted_degree", 0.05)
    for p in curve.points:
        removed = round(p.fraction_removed * len(order))
        alive = set(order[removed:])
        sizes = oracle_component_sizes(g, alive)
        assert p.largest_component == (sizes[0] if sizes else 0)
        assert sum(sizes) == len(alive)


@pytest.mark.parametrize("step", [0.05, 0.013, 1e-3, 1e-5])
def test_removal_checkpoints_match_one_step_per_multiple(step):
    rng = np.random.default_rng(int(step * 1e6))
    for _ in range(12):
        g = random_weighted_graph(rng, max_nodes=50, min_nodes=1, edge_prob=0.1)
        curve = removal_curve(g, "weighted_degree", step)
        n = g.n_nodes
        assert [p.fraction_removed for p in curve.points] == [
            c / n for c in oracle_removal_counts(n, step)]


@st.composite
def small_graphs(draw):
    """Up to 9 nodes and edge weights 1-3, so order keys tie; isolated nodes
    and the empty graph included."""
    nodes = [f"n{i}" for i in range(draw(st.integers(0, 9)))]
    pairs = list(combinations(nodes, 2))
    weights = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3]),
                            min_size=len(pairs), max_size=len(pairs)))
    return Ccn.build(nodes, {pair: w for pair, w in zip(pairs, weights) if w})


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data(), graph=small_graphs(), step=st.floats(1e-3, 0.05))
def test_prefix_tallies_match_the_edge_scans(data, graph, step):
    order = data.draw(st.permutations(sorted(graph.nodes)))
    edges, weights = prefix_edges(graph, order)
    assert list(zip(edges, weights)) == [
        oracle_induced_edges(graph, order[:k]) for k in range(len(order) + 1)]
    for key in ORDER_KEYS:
        assert removal_curve(graph, key, step).points == oracle_removal_points(graph, key, step)
    if graph.n_edges:
        beta = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
        values = oracle_coreness(graph, "weighted")
        partition = korse(graph, beta)
        # the oracle has a point per integer threshold; the sweep keeps the
        # first, highest, threshold of each candidate
        oracle = oracle_korse_sweep(graph, values, beta)
        assert partition.sweep_trace == tuple(
            point for before, point in zip((None,) + oracle, oracle)
            if before is None or point.core_size != before.core_size)
        assert partition.core == {n for n, c in values.items() if c >= partition.core_threshold}


@pytest.mark.parametrize("n", [1, 3, 1603])
def test_smallest_step_keeps_the_checkpoint_search_in_float_range(n):
    # one checkpoint per node; a smaller step overflowed the search
    assert _removal_counts(n, 1e-300) == list(range(1, n + 1))


def test_removal_time_does_not_grow_with_one_over_step(triangle):
    start = time.perf_counter()
    curve = removal_curve(triangle, "weighted_degree", 1e-7)
    assert time.perf_counter() - start < 1.0
    assert [p.fraction_removed for p in curve.points] == [1 / 3, 2 / 3, 1.0]


def test_planted_periphery_outlives_core(synth_graph, synth_default):
    g, _ = synth_graph
    _, labels = synth_default
    core = {u for u, l in labels.items() if l == "core"}
    curve = removal_curve(g, "weighted_degree", 0.05)
    frac = disintegration_fraction(curve)
    core_share = len(core) / g.n_nodes
    # breakup happens well after the entire planted core is gone
    assert frac is not None and frac > 3 * core_share


# ---------------------------------------------------------------- louvain

def test_louvain_two_cliques():
    edges = []
    for ids in ("abcde", "fghij"):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((ids[i], ids[j], 1))
    edges.append(("a", "f", 1))
    g = graph_from_edges(edges)
    cs = louvain(g, seed=0)
    groups = {}
    for node, community in cs.assignment.items():
        groups.setdefault(community, set()).add(node)
    assert sorted(map(frozenset, groups.values()), key=min) == [
        frozenset("abcde"), frozenset("fghij")
    ]
    assert cs.modularity == pytest.approx(modularity(g, cs.assignment), abs=1e-12)
    # beats the single-community and the all-singleton partitions
    one = {n: 0 for n in g.nodes}
    singletons = {n: i for i, n in enumerate(sorted(g.nodes))}
    assert cs.modularity > modularity(g, one)
    assert cs.modularity > modularity(g, singletons)
    # no single-node move improves modularity
    for node in g.nodes:
        for target in set(cs.assignment.values()):
            if target == cs.assignment[node]:
                continue
            moved = dict(cs.assignment)
            moved[node] = target
            assert modularity(g, moved) <= cs.modularity + 1e-12


def test_louvain_single_clique_modularity_zero():
    cs = louvain(clique("abcdef"), seed=3)
    assert len(set(cs.assignment.values())) == 1
    assert cs.modularity == pytest.approx(0.0, abs=1e-12)


def test_louvain_deterministic_per_seed(synth_graph):
    g, _ = synth_graph
    part = korse(g)
    sub = periphery_largest_component(g, part)
    a = louvain(sub, seed=5)
    b = louvain(sub, seed=5)
    assert a.assignment == b.assignment
    assert a.modularity == b.modularity


def test_louvain_modularity_recomputable(synth_graph):
    g, _ = synth_graph
    cs = louvain(g, seed=1)
    assert cs.modularity == pytest.approx(modularity(g, cs.assignment), abs=1e-9)
    assert cs.modularity <= 1.0


def test_modularity_requires_total_partition(triangle):
    with pytest.raises(ValueError):
        modularity(triangle, {"a": 0})


# ---------------------------------------------------------------- interplay

def test_interplay_hand_fixture():
    # community {p1, p2}: one internal edge of weight 4, p1-core edge weight 6
    g = graph_from_edges([("p1", "p2", 4), ("core1", "p1", 6), ("core1", "core2", 9)])
    part = make_partition({"core1", "core2"}, {"p1", "p2"})
    from collusioncore.analysis import CommunitySet

    cs = CommunitySet(assignment={"p1": 0, "p2": 0}, modularity=0.0)
    rows = interplay_table(g, part, cs)
    assert len(rows) == 1
    row = rows[0]
    assert row.size == 2
    assert row.weighted_size == 4
    assert row.avg_weighted_degree == pytest.approx(4.0)
    assert row.wcs == pytest.approx(3.0)
    assert row.small is True


def test_interplay_no_core_edges_zero_wcs():
    g = graph_from_edges([("p1", "p2", 2), ("core1", "core2", 1)])
    part = make_partition({"core1", "core2"}, {"p1", "p2"})
    from collusioncore.analysis import CommunitySet

    rows = interplay_table(g, part, CommunitySet({"p1": 0, "p2": 0}, 0.0))
    assert rows[0].wcs == 0.0


def test_interplay_rejects_core_in_community():
    g = graph_from_edges([("a", "b", 1)])
    part = make_partition({"a"}, {"b"})
    from collusioncore.analysis import CommunitySet

    with pytest.raises(ValueError):
        interplay_table(g, part, CommunitySet({"a": 0, "b": 0}, 0.0))


def test_interplay_on_synth_weight_bound(synth_graph):
    g, _ = synth_graph
    part = korse(g)
    sub = periphery_largest_component(g, part)
    cs = louvain(sub, seed=0)
    rows = interplay_table(g, part, cs)
    periphery_weight = sum(
        w for (a, b), w in g.edges.items()
        if a in part.periphery and b in part.periphery
    )
    assert sum(r.weighted_size for r in rows) <= periphery_weight
    assert all(r.wcs >= 0 for r in rows)
    assert all(r.avg_weighted_degree == pytest.approx(2 * r.weighted_size / r.size) for r in rows)


# ---------------------------------------------------------------- pearson

def test_pearson_identities():
    xs = [1.0, 2.0, 4.0, 8.0]
    assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [1])
    with pytest.raises(ValueError):
        pearson([1, 1, 1], [1, 2, 3])


def test_pearson_matches_naive_and_affine_invariance():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        xs = rng.normal(size=n)
        if np.var(xs) == 0:
            continue
        ys = rng.normal(size=n)
        if np.var(ys) == 0:
            continue
        assert pearson(xs, ys) == pytest.approx(oracle_pearson(list(xs), list(ys)))
        a = float(rng.uniform(0.1, 5))
        assert pearson(xs, a * xs + 2.0) == pytest.approx(1.0)
        assert pearson(xs, -a * xs + 2.0) == pytest.approx(-1.0)


# ---------------------------------------------------------------- case study

def test_case_study_symmetric_classes():
    users = [make_user(f"u{i}", subs=500) for i in range(4)]
    videos = [make_video(f"v{i}", f"u{i}") for i in range(4)]
    comments = []
    # everyone comments once on everyone else's video: fully symmetric
    for i in range(4):
        for j in range(4):
            if i != j:
                comments.append(make_comment(f"u{i}", f"v{j}"))
    d = make_dataset(users, videos, comments)
    part = make_partition({"u0", "u1"}, {"u2", "u3"})
    report = case_study_report(d, part)
    assert report.contribution_ratio == pytest.approx(1.0)
    assert report.per_video_ratio == pytest.approx(1.0)
    assert report.low_subscriber_share == 1.0
    assert report.low_upload_share == 1.0


def test_case_study_requires_both_classes():
    users = [make_user("a"), make_user("b")]
    d = make_dataset(users, [make_video("v", "a")], [make_comment("b", "v")])
    with pytest.raises(ValueError):
        case_study_report(d, make_partition({"a", "b"}, set()))


def test_case_study_unavailable_subscribers():
    users = [make_user("a"), make_user("b")]  # no subscriber counts
    videos = [make_video("v", "a")]
    comments = [make_comment("a", "v"), make_comment("b", "v")]
    d = make_dataset(users, videos, comments)
    report = case_study_report(d, make_partition({"a"}, {"b"}))
    assert report.low_subscriber_share is None


def test_case_study_on_synth_ratios(synth_default, synth_graph):
    dataset, labels = synth_default
    g, _ = synth_graph
    part = korse(g)
    report = case_study_report(dataset, part)
    assert report.contribution_ratio == pytest.approx(2.665, rel=0.15)
    assert report.per_video_ratio == pytest.approx(1.997, rel=0.15)
    assert report.low_subscriber_share is not None and report.low_subscriber_share > 0.85
    assert report.low_upload_share > 0.9
    # heavy contributors are not the top beneficiaries
    assert report.core_in_top_30 <= 2


def test_write_removal_curve(tmp_path, synth_graph):
    g, _ = synth_graph
    curve = removal_curve(g, "weighted_degree", 0.05)
    path = tmp_path / "curve.csv"
    write_removal_curve(curve, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == ("fraction_removed,largest_component,removed_density,"
                      "bucket_1,bucket_2_10,bucket_11_100,bucket_101_1000,bucket_gt1000")
    # each float is its repr, so it reads back bit for bit
    assert [row.split(",") for row in rows] == [
        [repr(p.fraction_removed), str(p.largest_component), repr(p.removed_density)]
        + [str(p.component_buckets[label]) for _, _, label in SIZE_BUCKETS]
        for p in curve.points]


def test_communities_csv_quotes_an_id_with_a_comma_or_quote(tmp_path):
    path = tmp_path / "communities.csv"
    write_communities(CommunitySet(assignment={"u0000,x": 0, 'a"b': 1, "u1": 1},
                                   modularity=0.25), path)
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["# modularity=0.25"], ["user_id", "community"],
                    ['a"b', "1"], ["u0000,x", "0"], ["u1", "1"]]
