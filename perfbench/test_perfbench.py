"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

import pytest

from perfbench import checks, inputs, run


@pytest.mark.parametrize("generate", [inputs.quickstart, inputs.paper_graph, inputs.timeline])
def test_same_seed_gives_byte_identical_inputs(generate, tmp_path):
    first = inputs.write_log(generate(3), tmp_path / "a")
    again = inputs.write_log(generate(3), tmp_path / "b")
    other = inputs.write_log(generate(4), tmp_path / "c")
    assert first == again
    for name in ("users.jsonl", "videos.jsonl", "comments.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert first["comments.jsonl"] != other["comments.jsonl"]


def test_paper_graph_has_the_paper_shape():
    shape = inputs.shape(inputs.paper_graph(1))
    assert 1590 <= shape["nodes"] <= 1603
    assert 48_000 <= shape["edges"] <= 54_000
    assert 0.037 <= shape["density"] <= 0.043
    assert 1.3 <= shape["mean_edge_weight"] <= 1.5
    assert shape["giant_component"] >= 1590
    assert shape["planted_core"] == 80


def test_timeline_texts_are_unique():
    shape = inputs.shape(inputs.timeline(1))
    assert shape["distinct_texts"] == shape["comments"]


def _write_ccn(path, nodes, edges):
    path.write_text("# ccn v1\n" + "".join(f"{a}\t{b}\t{w}\n" for (a, b), w in sorted(edges.items())))
    (path.parent / (path.name + ".nodes")).write_text(
        "# ccn nodes v1\n" + "".join(f"{n}\n" for n in sorted(nodes)))


def test_flipped_edge_weight_fails_the_ccn_check(tmp_path):
    log = inputs.quickstart(7)
    nodes, edges = inputs.ccn(log)
    path = tmp_path / "ccn.tsv"
    _write_ccn(path, nodes, edges)
    assert checks.ccn_weights(log, path)[1]
    first = min(edges)
    edges[first] += 1
    _write_ccn(path, nodes, edges)
    assert not checks.ccn_weights(log, path)[1]


def test_partition_must_match_its_coreness_threshold(tmp_path):
    coreness = tmp_path / "coreness.tsv"
    coreness.write_text("a\t5\nb\t5\nc\t2\n")
    partition = tmp_path / "partition.tsv"
    partition.write_text("# core_threshold=5\na\tcore\nb\tcore\nc\tperiphery\n")
    assert checks.partition_threshold(partition, coreness)[1]
    partition.write_text("# core_threshold=5\na\tcore\nb\tperiphery\nc\tperiphery\n")
    assert not checks.partition_threshold(partition, coreness)[1]


def test_self_time_goes_to_the_nearest_metric_of_the_same_layer():
    spans = [
        ["korse.korse", 0.0, 10.0, -1],
        ["kcore.coreness", 1.0, 4.0, 0],
        ["graph.graph_stats", 10.0, 16.0, -1],
        ["graph.components", 11.0, 13.0, 2],
    ]
    trace = {"spans": spans, "values": {}, "counts": {"embeddings.cosine": 4},
             "distinct_texts": 0, "wall_s": 20.0, "cpu_s": 19.0, "wrapper_cost_s": 0.5}
    metrics = run.layer_metrics(trace, 0)
    assert metrics["korse.sweep_s"][0] == 7.0
    assert metrics["kcore.coreness_s"][0] == 3.0
    assert metrics["graph.stats_s"][0] == 6.0
    assert metrics["cli.self_s"][0] == 4.0
    assert metrics["kcore.calls"][0] == 1
    assert metrics["trace.overhead_s"][0] == 0.5 * 8
