"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 11 needs the released real dataset and is skipped unless
COLLUSIONCORE_REAL_DATA points at a directory with comments.jsonl,
videos.jsonl and users.jsonl.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from collusioncore.analysis import louvain, modularity, periphery_largest_component, removal_curve
from collusioncore.centrality import weighted_betweenness
from collusioncore.embeddings import HashEmbedder
from collusioncore.features import extract_all, stat5
from collusioncore.graph import Ccn, build_ccn, graph_stats
from collusioncore.kcore import coreness
from collusioncore.korse import korse
from collusioncore.analysis import pearson
from collusioncore.nurse import NurseConfig, auc, evaluate, init_model, loss
from collusioncore.records import ingest, validate
from collusioncore.synth import SynthConfig, generate

from conftest import SYNTH_SEED, clique, graph_from_edges
from oracles import (
    loss_and_grads,
    oracle_auc,
    oracle_component_sizes,
    oracle_coreness,
    oracle_k_core,
    oracle_pearson,
    oracle_stat5,
    oracle_wicci,
    random_weighted_graph,
)
from test_graph import oracle_ccn, random_dataset


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def planted():
    dataset, labels = generate(SynthConfig(seed=SYNTH_SEED))
    graph = build_ccn(dataset)
    return dataset, labels, graph


def test_criterion_01_kcore_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(10_001)
    for trial in range(200):
        g = random_weighted_graph(rng, max_nodes=12, max_weight=5)
        for mode in ("weighted", "unweighted"):
            cm = coreness(g, mode)
            assert cm == oracle_coreness(g, mode), f"trial {trial} ({mode})"
            for k in range(0, max(cm.values()) + 2):
                assert {n for n, c in cm.items() if c >= k} == oracle_k_core(g, k, mode), (
                    f"trial {trial} ({mode}), k={k}"
                )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, f"200 graphs, both modes, {elapsed:.1f}s")


def test_criterion_02_edge_weight_oracle_equivalence():
    import random as pyrandom

    rng = pyrandom.Random(10_002)
    for trial in range(100):
        dataset = random_dataset(rng)
        for collusive_only in (True, False):
            got = build_ccn(dataset, collusive_only=collusive_only)
            nodes, weights = oracle_ccn(dataset, collusive_only)
            assert got.nodes == frozenset(nodes), f"trial {trial}"
            assert got.edges == weights, f"trial {trial}"
    report(2, "100 datasets, exact match incl. uploader exclusion")


def test_criterion_03_planted_core_recovery(planted):
    start = time.monotonic()
    dataset, labels, graph = planted
    partition = korse(graph)
    planted_core = {u for u, l in labels.items() if l == "core"}
    tp = len(partition.core & planted_core)
    fp = len(partition.core - planted_core)
    fn = len(planted_core - partition.core)
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.95
    core_edges = sum(
        1 for (a, b) in graph.edges if a in partition.core and b in partition.core
    )
    n = len(partition.core)
    density = 2 * core_edges / (n * (n - 1))
    assert density >= 0.9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, f"F1 {f1:.3f}, core density {density:.3f}, {elapsed:.1f}s")


def test_criterion_04_wicci_identities():
    rng = np.random.default_rng(10_004)
    checked = 0
    while checked < 50:
        g = random_weighted_graph(rng, max_nodes=12)
        if g.n_edges == 0:
            continue
        checked += 1
        stats = graph_stats(g)
        partition = korse(g)
        # the last candidate, at threshold 0, is the whole graph
        assert abs(partition.sweep_trace[-1].wicci - stats.density) <= 1e-12
        cm = coreness(g, "weighted")
        previous = None
        for point in partition.sweep_trace:
            candidate = frozenset(n for n, v in cm.items() if v >= point.threshold)
            assert abs(point.wicci - oracle_wicci(g, candidate)) <= 1e-12
            if previous is not None:
                assert previous <= candidate  # nested as the threshold falls
                assert point.weight_fraction >= previous_fraction - 1e-15
            previous, previous_fraction = candidate, point.weight_fraction
    report(4, "identities & nested sweeps on 50 graphs")


def test_criterion_05_argmax_scale_invariance():
    rng = np.random.default_rng(10_005)
    checked = 0
    while checked < 50:
        g = random_weighted_graph(rng, max_nodes=12)
        if g.n_edges == 0:
            continue
        checked += 1
        scaled = Ccn.build(g.nodes, {k: 7 * w for k, w in g.edges.items()})
        assert korse(g).core == korse(scaled).core
    report(5, "50 graphs, weights x7, identical core sets")


def test_criterion_06_breakage_consistency(planted):
    dataset, labels, graph = planted
    planted_core = {u for u, l in labels.items() if l == "core"}
    n = graph.n_nodes
    from collusioncore.analysis import _order_values

    for key in ("weighted_degree", "unweighted_degree",
                "weighted_coreness", "unweighted_coreness"):
        values = _order_values(graph, key)
        order = sorted(graph.nodes, key=lambda x: (-values[x], x))
        curve = removal_curve(graph, key, 0.05)
        for point in curve.points:
            removed = round(point.fraction_removed * n)
            alive = set(order[removed:])
            sizes = oracle_component_sizes(graph, alive)
            assert point.largest_component == (sizes[0] if sizes else 0)
            buckets = point.component_buckets
            assert sum(buckets.values()) == len(sizes)
    # density of the removed set declines once the core is fully removed
    values = _order_values(graph, "weighted_degree")
    order = sorted(graph.nodes, key=lambda x: (-values[x], x))
    curve = removal_curve(graph, "weighted_degree", 0.05)
    core_gone = next(
        p for p in curve.points
        if planted_core <= set(order[: round(p.fraction_removed * n)])
    )
    tail = [p.removed_density for p in curve.points
            if p.fraction_removed >= core_gone.fraction_removed]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    report(6, f"4 orders vs union-find; density tail of {len(tail)} points declines")


def test_criterion_07_louvain_sanity():
    edges = []
    for ids in ("abcde", "fghij"):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((ids[i], ids[j], 1))
    edges.append(("a", "f", 1))
    two_cliques = graph_from_edges(edges)
    cs = louvain(two_cliques, seed=0)
    groups = {}
    for node, community in cs.assignment.items():
        groups.setdefault(community, set()).add(node)
    assert sorted(map(frozenset, groups.values()), key=min) == [
        frozenset("abcde"), frozenset("fghij")
    ]
    assert abs(cs.modularity - modularity(two_cliques, cs.assignment)) <= 1e-9

    single = louvain(clique("abcdef"), seed=1)
    assert len(set(single.assignment.values())) == 1
    assert abs(single.modularity) <= 1e-12
    report(7, "two-K5 split recovered; single clique modularity 0")


def test_criterion_08_gradient_check():
    from collusioncore.features import FeatureVector

    config = NurseConfig(embedding_dim=8, seed=5)
    model = init_model(config)
    rng = np.random.default_rng(10_008)
    batch = [
        FeatureVector(
            user_id=f"u{i}",
            mfe=rng.normal(size=26),
            sfe=rng.normal(size=25),
            tfe=rng.normal(size=8),
            label="core" if i % 2 else "compromised",
        )
        for i in range(4)
    ]
    _, grads = loss_and_grads(model, batch)
    step = 1e-5
    worst = 0.0
    count = 0
    for key in sorted(model.params):
        flat = model.params[key].reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            plus = loss(model, batch)
            flat[idx] = original - step
            minus = loss(model, batch)
            flat[idx] = original
            numeric = (plus - minus) / (2 * step)
            analytic = grads[key].reshape(-1)[idx]
            # absolute floor keeps zero-gradient entries from comparing
            # against pure central-difference noise (~1e-11 here)
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
            worst = max(worst, rel)
            count += 1
            assert rel <= 1e-4, f"{key}[{idx}]: rel err {rel:.2e}"
    report(8, f"{count} parameters across all tensors, worst rel err {worst:.1e}")


def test_criterion_09_desk_scale_learning(planted):
    start = time.monotonic()
    dataset, labels, graph = planted
    partition = korse(graph)
    provider = HashEmbedder(dim=64, seed=0)
    feats = extract_all(dataset, partition=partition, provider=provider)

    rng = np.random.default_rng(123)
    core = [f for f in feats if f.label == "core"]
    comp = [f for f in feats if f.label == "compromised"]
    keep = sorted(rng.choice(len(comp), size=len(core), replace=False))
    balanced = sorted(core + [comp[i] for i in keep], key=lambda f: f.user_id)

    config = NurseConfig(embedding_dim=64, seed=0)
    result = evaluate(balanced, config, mode="balanced", folds=10)
    assert result.mean_auc >= 0.90
    assert result.mean_break_even_f1 >= 0.85

    bc = weighted_betweenness(graph)
    ids = [f.user_id for f in balanced]
    wbc_auc = auc(
        [bc.get(u, 0.0) for u in ids],
        [1 if f.label == "core" else 0 for f in balanced],
    )
    margin = result.mean_auc - wbc_auc
    assert margin >= 0.10
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(
        9,
        f"AUC {result.mean_auc:.3f}, break-even F1 {result.mean_break_even_f1:.3f}, "
        f"WBC margin {margin:.3f}, {elapsed:.0f}s",
    )


def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(10_010)
    auc_checked = 0
    while auc_checked < 1000:
        n = int(rng.integers(2, 25))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        auc_checked += 1
        scores = np.round(rng.random(size=n), 1)
        assert auc(scores, labels) == pytest.approx(oracle_auc(scores, labels), abs=1e-12)
    for _ in range(1000):
        values = rng.normal(size=int(rng.integers(0, 15))).tolist()
        assert np.allclose(stat5(values), oracle_stat5(values))
    pearson_checked = 0
    while pearson_checked < 1000:
        n = int(rng.integers(2, 15))
        xs = rng.normal(size=n)
        ys = rng.normal(size=n)
        if np.var(xs) == 0 or np.var(ys) == 0:
            continue
        pearson_checked += 1
        assert pearson(xs, ys) == pytest.approx(oracle_pearson(list(xs), list(ys)), abs=1e-9)
    report(10, "1000 auc sets, 1000 stat5 inputs, 1000 pearson inputs")


REAL_DATA = os.environ.get("COLLUSIONCORE_REAL_DATA", "")


@pytest.mark.skipif(
    not (REAL_DATA and Path(REAL_DATA).is_dir()),
    reason="optional: set COLLUSIONCORE_REAL_DATA to the released dataset directory",
)
def test_criterion_11_real_dataset_reproduction():
    base = Path(REAL_DATA)
    dataset = ingest(base / "comments.jsonl", base / "videos.jsonl", base / "users.jsonl")
    assert validate(dataset) == []
    graph = build_ccn(dataset)
    stats = graph_stats(graph)
    assert stats.node_count == 1603
    assert stats.edge_count == 51424
    assert stats.avg_edge_weight == pytest.approx(1.392, abs=0.001)
    assert stats.max_edge_weight == 78
    assert stats.density == pytest.approx(0.040, abs=0.001)
    assert stats.avg_clustering == pytest.approx(0.737, abs=0.001)
    assert stats.diameter == 8
    partition = korse(graph)
    assert len(partition.core) == 148
    assert partition.normalized_threshold == pytest.approx(0.73, abs=0.01)
    assert partition.peak_wicci == pytest.approx(0.294, abs=0.005)
    sub = periphery_largest_component(graph, partition)
    communities = louvain(sub, seed=0)
    assert communities.modularity == pytest.approx(0.397, abs=0.02)
    report(11, "real dataset reproduction")
