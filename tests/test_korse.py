import numpy as np
import pytest

from collusioncore.graph import Ccn, density, graph_stats
from collusioncore.kcore import coreness
from collusioncore.korse import (
    _wicci,
    korse,
    read_partition,
    write_partition,
    write_sweep,
)

from conftest import clique, graph_from_edges
from oracles import oracle_wicci, random_weighted_graph


def sweep_rows(partition, path, beta=1.0):
    """The rows :func:`write_sweep` writes, as (norm, size, density, fraction, wicci)."""
    write_sweep(partition, path, beta)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [(float(n), int(size), float(d), float(f), float(w))
            for n, size, d, f, w in (line.split(",") for line in lines)]


def test_wicci_whole_graph_equals_density(triangle):
    # the sweep's last candidate, at the smallest coreness, is the whole graph
    g = graph_from_edges([("a", "b", 2), ("b", "c", 1), ("c", "d", 5)])
    assert korse(g).sweep_trace[-1].wicci == pytest.approx(graph_stats(g).density, abs=1e-15)
    assert korse(triangle).sweep_trace[-1].wicci == 1.0


def test_wicci_degenerate_core_is_zero():
    for size in (0, 1):
        assert _wicci(size, 1.0, 1.0, 1.0) == 0.0


def test_wicci_triangle_plus_pendant():
    g = graph_from_edges([("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("c", "d", 1)])
    part = korse(g)
    assert part.core == frozenset("abc")
    assert part.peak_wicci == pytest.approx(0.75)


def test_wicci_errors(tmp_path, triangle):
    for beta in (0, -1.0):
        with pytest.raises(ValueError, match="beta"):
            korse(triangle, beta)
        with pytest.raises(ValueError, match="beta"):
            write_sweep(korse(triangle), tmp_path / "sweep.csv", beta)


def test_korse_k5():
    part = korse(clique("abcde"))
    assert part.core == frozenset("abcde")
    assert part.core_threshold == 4
    assert part.peak_wicci == 1.0
    assert part.normalized_threshold == 1.0
    assert part.periphery == frozenset()


def test_korse_requires_an_edge():
    with pytest.raises(ValueError):
        korse(graph_from_edges([], isolated=["a", "b"]))


def test_korse_recovers_planted_core(synth_default, synth_graph):
    _, labels = synth_default
    g, _ = synth_graph
    planted = {u for u, l in labels.items() if l == "core"}
    part = korse(g)
    assert set(part.core) == planted
    assert part.core | part.periphery == g.nodes
    assert not part.core & part.periphery


def test_sweep_trace_matches_independent_recomputation(synth_graph):
    g, _ = synth_graph
    part = korse(g)
    cm = coreness(g, "weighted")
    for point in part.sweep_trace[:: max(1, len(part.sweep_trace) // 12)]:
        candidate = {n for n, v in cm.items() if v >= point.threshold}
        assert len(candidate) == point.core_size
        if len(candidate) >= 2:
            assert oracle_wicci(g, candidate) == pytest.approx(point.wicci, abs=1e-12)


def test_sweep_monotonicity_and_nesting_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_weighted_graph(rng, max_nodes=11)
        if g.n_edges == 0:
            continue
        part = korse(g)
        trace = part.sweep_trace
        # one point per coreness value, descending; candidates grow; weight
        # fraction non-decreasing
        assert [p.threshold for p in trace] == sorted(
            set(coreness(g, "weighted").values()), reverse=True)
        for earlier, later in zip(trace, trace[1:]):
            assert earlier.core_size < later.core_size
            assert earlier.weight_fraction <= later.weight_fraction + 1e-15
        assert part.peak_wicci == max(p.wicci for p in trace)


def test_korse_scale_invariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_weighted_graph(rng, max_nodes=10)
        if g.n_edges == 0:
            continue
        scaled = Ccn.build(g.nodes, {k: 7 * w for k, w in g.edges.items()})
        assert korse(g).core == korse(scaled).core


def test_korse_relabel_invariance():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_weighted_graph(rng, max_nodes=9)
        if g.n_edges == 0:
            continue
        nodes = sorted(g.nodes)
        rename = {n: f"y{i}" for i, n in zip(rng.permutation(len(nodes)), nodes)}
        g2 = Ccn.build(
            [rename[n] for n in g.nodes],
            {tuple(sorted((rename[a], rename[b]))): w for (a, b), w in g.edges.items()},
        )
        assert {rename[n] for n in korse(g).core} == set(korse(g2).core)


def test_a_tie_keeps_the_higher_threshold():
    # the core {a, c} scores 2/3 * 1 and the whole path 1 * 2/3
    part = korse(graph_from_edges([("a", "c", 2), ("b", "c", 1)]))
    assert [p.wicci for p in part.sweep_trace] == [2 / 3, 2 / 3]
    assert (part.core, part.core_threshold) == ({"a", "c"}, 2)


def test_sweep_cost_is_set_by_the_graph_not_its_weights():
    # one candidate, so one point: not one per integer threshold below 10**5
    part = korse(graph_from_edges([("a", "b", 10**5)]))
    assert [(p.threshold, p.core_size) for p in part.sweep_trace] == [(10**5, 2)]
    assert (part.core, part.normalized_threshold) == ({"a", "b"}, 1.0)


def test_sweep_curves_k5_single_row(tmp_path):
    part = korse(clique("abcde"))
    rows = sweep_rows(part, tmp_path / "sweep.csv")
    assert rows == [(1.0, 5, 1.0, 1.0, 1.0)]


def test_sweep_curves_zero_threshold_row(tmp_path):
    # pendant-free graph plus one isolated node: candidate at threshold 0
    # gains the isolated node, so a dedicated row appears with fraction 1.0
    g = graph_from_edges([("a", "b", 2), ("b", "c", 1), ("a", "c", 1)], isolated=["z"])
    rows = sweep_rows(korse(g), tmp_path / "sweep.csv")
    assert rows[-1][0] == 0.0
    assert rows[-1][3] == 1.0  # weight fraction at threshold zero
    fracs = [r[3] for r in rows]
    assert fracs == sorted(fracs)  # non-increasing as the threshold rises
    densities = [r[2] for r in rows]
    assert densities == sorted(densities, reverse=True)


def test_partition_file_roundtrip(tmp_path, synth_graph):
    g, _ = synth_graph
    part = korse(g)
    path = tmp_path / "partition.tsv"
    write_partition(part, path)
    again = read_partition(path)
    assert again.core == part.core
    assert again.periphery == part.periphery
    assert again.core_threshold == part.core_threshold
    assert again.normalized_threshold == pytest.approx(part.normalized_threshold)
    assert again.peak_wicci == pytest.approx(part.peak_wicci)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# core_threshold=")


def test_read_partition_rejects_user_listed_twice(tmp_path):
    path = tmp_path / "partition.tsv"
    path.write_text("a\tcore\nb\tperiphery\na\tperiphery\n")
    with pytest.raises(ValueError, match="twice"):
        read_partition(path)


def test_write_sweep_header(tmp_path):
    g = graph_from_edges([("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("c", "d", 1)])
    part = korse(g)
    path = tmp_path / "sweep.csv"
    write_sweep(part, path, 1.0)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "norm_threshold,core_size,density,weight_fraction,wicci"
    # each float is its repr, so it reads back bit for bit
    top = max(coreness(g, "weighted").values())
    assert [line.split(",")[0] for line in lines[1:]] == ["1.0", "0.5"]
    assert [line.split(",") for line in lines[1:]] == [
        [repr(p.threshold / top), str(p.core_size), repr(p.density), repr(p.weight_fraction),
         repr(_wicci(p.core_size, p.weight_fraction, p.density, 1.0))]
        for p in part.sweep_trace]


def test_partition_roundtrips_ids_that_start_like_a_summary_line(tmp_path):
    g = graph_from_edges([("# a", "# core_threshold=9", 3), ("# a", "b", 3),
                          ("# core_threshold=9", "b", 3), ("b", "c", 1)])
    part = korse(g)
    path = tmp_path / "partition.tsv"
    write_partition(part, path)
    again = read_partition(path)
    assert (again.core, again.periphery) == (part.core, part.periphery)
    assert part.core == {"# a", "# core_threshold=9", "b"}
    assert again.core_threshold == part.core_threshold
    assert again.peak_wicci == part.peak_wicci


def test_one_korse_run_writes_the_sweep_of_every_beta(tmp_path, synth_graph):
    rng = np.random.default_rng(17)
    graphs = [synth_graph[0]]
    while len(graphs) < 121:
        g = random_weighted_graph(rng, max_nodes=30, max_weight=6,
                                  edge_prob=float(rng.uniform(0.05, 0.7)), min_nodes=2)
        if g.n_edges:
            graphs.append(g)
    path = tmp_path / "sweep.csv"

    def sweep_bytes(partition, beta):
        write_sweep(partition, path, beta)
        return path.read_bytes()

    for g in graphs:
        once = korse(g)
        for beta in (0.5, 1.5, 2.0):
            run = korse(g, beta)
            text = sweep_bytes(once, beta)
            assert text == sweep_bytes(run, beta)
            # the scores written are those the sweep at beta chose by
            written = [line.rsplit(",", 1)[1] for line in text.decode().splitlines()[1:]]
            assert written == [repr(point.wicci) for point in run.sweep_trace]


def test_partition_core_density_is_that_of_the_core_subgraph(tmp_path):
    rng = np.random.default_rng(23)
    path = tmp_path / "partition.tsv"
    for _ in range(40):
        g = random_weighted_graph(rng, max_nodes=25, edge_prob=float(rng.uniform(0.1, 0.6)))
        if not g.n_edges:
            continue
        part = korse(g)
        write_partition(part, path)
        core = g.induced(part.core)
        expected = density(core.n_nodes, core.n_edges)
        assert f"# core_density={expected!r}" in path.read_text(encoding="utf-8").splitlines()
    with pytest.raises(ValueError, match="sweep trace"):
        write_partition(read_partition(path), tmp_path / "again.tsv")
    with pytest.raises(ValueError, match="write_sweep needs the sweep trace of a korse run"):
        write_sweep(read_partition(path), tmp_path / "sweep.csv", 1.0)
