import argparse
import csv
import hashlib
import importlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collusioncore
from collusioncore import cli, nurse
from collusioncore.cli import main
from collusioncore.embeddings import HashEmbedder, text_key, write_embedding_file
from collusioncore.features import feature_header
from collusioncore.graph import nodes_sidecar
from collusioncore.records import ingest

from conftest import SYNTH_SEED


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    assert main(["synth", "--seed", str(SYNTH_SEED), "--out", str(out)]) == 0
    return out


def dataset_args(d):
    return [
        "--comments", str(d / "comments.jsonl"),
        "--videos", str(d / "videos.jsonl"),
        "--users", str(d / "users.jsonl"),
    ]


def test_synth_writes_expected_files(synth_dir):
    for name in ("comments.jsonl", "videos.jsonl", "users.jsonl",
                 "labels.tsv", "synth_meta", "manifest.json"):
        assert (synth_dir / name).exists(), name
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["settings"]["seed"] == SYNTH_SEED


def test_ingest_check_ok(synth_dir, capsys):
    assert main(["ingest-check"] + dataset_args(synth_dir)) == 0
    out = capsys.readouterr().out
    assert "violations=0" in out


def test_ingest_check_missing_file(tmp_path):
    code = main([
        "ingest-check",
        "--comments", str(tmp_path / "nope.jsonl"),
        "--videos", str(tmp_path / "nope2.jsonl"),
        "--users", str(tmp_path / "nope3.jsonl"),
    ])
    assert code == 3


def dangling_dataset(d) -> list:
    """Dataset arguments for records whose one comment is by an unknown user."""
    (d / "comments.jsonl").write_text(
        '{"comment_id": "c1", "user_id": "ghost", "video_id": "v1", "text": "x"}\n'
    )
    (d / "videos.jsonl").write_text(
        '{"video_id": "v1", "uploader_user_id": "u1", "title": "t", "description": "d",'
        ' "genre": "g", "duration_sec": 1, "likes": 0, "dislikes": 0, "views": 0,'
        ' "is_collusive": true}\n'
    )
    (d / "users.jsonl").write_text('{"user_id": "u1"}\n')
    return dataset_args(d)


def test_ingest_check_validation_failure(tmp_path, capsys):
    code = main(["ingest-check", *dangling_dataset(tmp_path)])
    assert code == 4


def test_ingest_check_keeps_its_report_on_exit_4(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["ingest-check", *dangling_dataset(tmp_path), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "validation error: 1 referential-integrity violations\n"
    assert sorted(p.name for p in out.iterdir()) == ["ingest_check.txt", "manifest.json"]
    assert (out / "ingest_check.txt").read_text() == captured.out
    assert json.loads((out / "manifest.json").read_text())["outputs"] == ["ingest_check.txt"]


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


@pytest.fixture(scope="module")
def ccn_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ccn")
    assert main(["build-ccn"] + dataset_args(synth_dir) + ["--out", str(out)]) == 0
    return out


def test_build_ccn_outputs(ccn_dir):
    assert (ccn_dir / "ccn.tsv").exists()
    assert (ccn_dir / "ccn.tsv.nodes").exists()
    stats = (ccn_dir / "stats.txt").read_text()
    assert "node_count=" in stats and "density=" in stats


def test_manifest_lists_only_what_the_run_wrote(ccn_dir, tmp_path):
    out = tmp_path / "ccn"
    shutil.copytree(ccn_dir, out)
    assert main(["kcore", "--graph", str(out / "ccn.tsv"), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["outputs"] == ["coreness_weighted.tsv"]
    assert sorted(p.name for p in out.iterdir()) == [
        "ccn.tsv", "ccn.tsv.nodes", "coreness_weighted.tsv", "manifest.json", "stats.txt"]


def test_manifest_digests_the_graph_sidecar(ccn_dir, tmp_path):
    graph = tmp_path / "graph" / "ccn.tsv"
    shutil.copytree(ccn_dir, graph.parent)
    manifests = []
    for name, extra in (("a", ""), ("b", "isolated-user\n")):
        with nodes_sidecar(graph).open("a", encoding="utf-8") as handle:
            handle.write(extra)
        assert main(["kcore", "--graph", str(graph), "--out", str(tmp_path / name)]) == 0
        manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
    a, b = (m["inputs"] for m in manifests)
    assert a[str(graph)] == b[str(graph)]
    assert a[str(nodes_sidecar(graph))] != b[str(nodes_sidecar(graph))]


def test_kcore_triangle_fixture(tmp_path):
    graph_file = tmp_path / "tri.tsv"
    graph_file.write_text("# ccn v1\na\tb\t1\na\tc\t1\nb\tc\t1\n")
    out = tmp_path / "out"
    assert main(["kcore", "--graph", str(graph_file), "--out", str(out)]) == 0
    lines = (out / "coreness_weighted.tsv").read_text().splitlines()
    assert lines == ["a\t2", "b\t2", "c\t2"]


@pytest.fixture(scope="module")
def korse_dir(ccn_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("korse")
    assert main(["korse", "--graph", str(ccn_dir / "ccn.tsv"), "--out", str(out)]) == 0
    return out


def test_korse_outputs(korse_dir, synth_dir):
    text = (korse_dir / "partition.tsv").read_text()
    assert text.startswith("# core_threshold=")
    for b in ("0.5", "1", "2"):
        assert (korse_dir / f"sweep_beta_{b}.csv").exists()
    # recovered core matches the planted labels exactly on this seed
    planted = {
        line.split("\t")[0]
        for line in (synth_dir / "labels.tsv").read_text().splitlines()
        if line.endswith("\tcore")
    }
    got = {
        line.split("\t")[0]
        for line in text.splitlines()
        if not line.startswith("#") and line.endswith("\tcore")
    }
    assert got == planted


def test_breakage_and_communities_and_interplay(ccn_dir, korse_dir, tmp_path):
    out = tmp_path / "breakage"
    assert main(["breakage", "--graph", str(ccn_dir / "ccn.tsv"),
                 "--order-key", "weighted_degree", "--out", str(out)]) == 0
    assert (out / "breakage_weighted_degree.csv").exists()
    assert (out / "disintegration.txt").exists()

    out2 = tmp_path / "interplay"
    assert main(["interplay", "--graph", str(ccn_dir / "ccn.tsv"),
                 "--partition", str(korse_dir / "partition.tsv"),
                 "--seed", "0", "--out", str(out2)]) == 0
    assert (out2 / "communities.csv").exists()
    for seed in (0, 1, 2):
        assert (out2 / f"interplay_seed{seed}.csv").exists()
    assert (out2 / "correlations.txt").exists()


def test_case_study_cli(synth_dir, korse_dir, tmp_path):
    out = tmp_path / "case"
    assert main(["case-study"] + dataset_args(synth_dir) +
                ["--partition", str(korse_dir / "partition.tsv"), "--out", str(out)]) == 0
    text = (out / "case_study.txt").read_text()
    assert "contribution_ratio=" in text


@pytest.fixture(scope="module")
def features_dir(synth_dir, korse_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("features")
    assert main(["features"] + dataset_args(synth_dir) +
                ["--partition", str(korse_dir / "partition.tsv"),
                 "--dim", "32", "--seed", "0", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def model_dir(features_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert main(["nurse-train", "--features", str(features_dir / "features.csv"),
                 "--epochs", "1", "--out", str(out)]) == 0
    return out


def test_nurse_train_eval_roundtrip(features_dir, tmp_path):
    model_dir = tmp_path / "model"
    assert main(["nurse-train", "--features", str(features_dir / "features.csv"),
                 "--epochs", "30", "--seed", "1", "--out", str(model_dir)]) == 0
    assert (model_dir / "model.npz").exists()

    eval_dir = tmp_path / "eval"
    assert main(["nurse-eval", "--model", str(model_dir / "model.npz"),
                 "--features", str(features_dir / "features.csv"),
                 "--mode", "balanced", "--out", str(eval_dir)]) == 0
    header = (eval_dir / "eval.csv").read_text().splitlines()[0]
    assert header == "fold,k,precision,recall,f1,auc"


def test_nurse_eval_without_model_is_missing_input(features_dir, tmp_path):
    code = main(["nurse-eval", "--features", str(features_dir / "features.csv"),
                 "--mode", "balanced", "--out", str(tmp_path / "x")])
    assert code == 3


def test_bad_tunables_are_input_errors(ccn_dir, tmp_path):
    assert main(["breakage", "--graph", str(ccn_dir / "ccn.tsv"),
                 "--step", "0.5", "--out", str(tmp_path / "x")]) == 3
    assert main(["korse", "--graph", str(ccn_dir / "ccn.tsv"),
                 "--beta", "-1", "--out", str(tmp_path / "y")]) == 3


FEATURE_HEADER = ",".join(feature_header(4))


@pytest.mark.parametrize("text", [
    "user_id,label,x\nu1,core,1.0\n",
    "",
    f"{FEATURE_HEADER}\nu1\n",
    f"{FEATURE_HEADER}\nu1,core,1.0,2.0\n",
], ids=["bad-header", "empty", "id-only-row", "short-row"])
def test_malformed_features_file_is_input_error(tmp_path, text):
    bad = tmp_path / "features.csv"
    bad.write_text(text)
    assert main(["nurse-train", "--features", str(bad), "--out", str(tmp_path / "x")]) == 3


def test_malformed_config_value_is_input_error(features_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("epochs=abc\n")
    assert main(["--config", str(config), "nurse-train",
                 "--features", str(features_dir / "features.csv"),
                 "--out", str(tmp_path / "x")]) == 3


def test_malformed_embeddings_file_is_input_error(synth_dir, tmp_path):
    bad = tmp_path / "embeddings.txt"
    bad.write_text("abc\t0.1,0.2\n")
    assert main(["features"] + dataset_args(synth_dir) +
                ["--embeddings", str(bad), "--out", str(tmp_path / "x")]) == 3


def test_baseline_wbc_cli(ccn_dir, tmp_path):
    out = tmp_path / "wbc"
    assert main(["baseline-wbc", "--graph", str(ccn_dir / "ccn.tsv"),
                 "--k", "10", "--out", str(out)]) == 0
    lines = (out / "wbc_ranking.tsv").read_text().splitlines()
    assert len(lines) == 10


def test_baseline_wbc_k0_ranks_every_node(ccn_dir, tmp_path):
    graph = str(ccn_dir / "ccn.tsv")
    assert main(["baseline-wbc", "--graph", graph, "--k", "0", "--out", str(tmp_path / "k0")]) == 0
    assert main(["baseline-wbc", "--graph", graph, "--out", str(tmp_path / "all")]) == 0
    ranking = (tmp_path / "k0" / "wbc_ranking.tsv").read_bytes()
    assert ranking == (tmp_path / "all" / "wbc_ranking.tsv").read_bytes()
    nodes = (ccn_dir / "ccn.tsv.nodes").read_text().splitlines()[1:]
    assert sorted(line.split("\t")[1] for line in ranking.decode().splitlines()) == nodes


def test_korse_command_peels_and_sweeps_once(ccn_dir, tmp_path, monkeypatch):
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(importlib.import_module("collusioncore.korse"), "coreness")
    count(cli, "korse")
    out = tmp_path / "korse"
    assert main(["korse", "--graph", str(ccn_dir / "ccn.tsv"), "--beta", "1.5",
                 "--out", str(out)]) == 0
    assert calls == {"coreness": 1, "korse": 1}
    assert sorted(p.name for p in out.glob("sweep_beta_*.csv")) == [
        "sweep_beta_0.5.csv", "sweep_beta_1.5.csv", "sweep_beta_1.csv", "sweep_beta_2.csv"]


def test_pipeline_peels_each_mode_once(synth_dir, tmp_path, monkeypatch):
    kcore = importlib.import_module("collusioncore.kcore")
    degree_map, peels = kcore._degree_map, []

    def counted(graph, mode):  # inside kcore, one degree map starts each peel
        peels.append(mode)
        return degree_map(graph, mode)
    monkeypatch.setattr(kcore, "_degree_map", counted)
    assert main(["pipeline", *dataset_args(synth_dir), "--dim", "8", "--epochs", "1",
                 "--folds", "2", "--out", str(tmp_path / "pipe")]) == 0
    assert sorted(peels) == ["unweighted", "weighted"]


def test_korse_sweep_files_name_each_beta_once(ccn_dir, korse_dir, tmp_path):
    out = tmp_path / "korse"
    assert main(["korse", "--graph", str(ccn_dir / "ccn.tsv"), "--beta", "1.0000001",
                 "--out", str(out)]) == 0
    sweeps = sorted(p.name for p in out.glob("sweep_beta_*.csv"))
    assert sweeps == ["sweep_beta_0.5.csv", "sweep_beta_1.0000001.csv", "sweep_beta_1.csv",
                      "sweep_beta_2.csv"]
    assert (out / "sweep_beta_1.csv").read_bytes() == (korse_dir / "sweep_beta_1.csv").read_bytes()
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(name for name in listed if name.startswith("sweep_beta_")) == sweeps


def test_config_file_supplies_defaults(synth_dir, features_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("seed=3\nepochs=3\n")
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["--config", str(config), "synth", "--out", str(out1)]) == 0
    assert main(["synth", "--seed", "3", "--out", str(out2)]) == 0
    assert (out1 / "comments.jsonl").read_bytes() == (out2 / "comments.jsonl").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["inputs"][str(config)] == hashlib.sha256(config.read_bytes()).hexdigest()
    assert manifest["settings"] == {"seed": 3}  # synth reads no epochs
    out4 = tmp_path / "model"
    assert main(["--config", str(config), "nurse-train",
                 "--features", str(features_dir / "features.csv"), "--out", str(out4)]) == 0
    assert json.loads((out4 / "manifest.json").read_text())["settings"]["epochs"] == 3
    # explicit flag beats the config file
    out3 = tmp_path / "s3"
    assert main(["--config", str(config), "synth", "--seed", "4", "--out", str(out3)]) == 0
    assert (out3 / "comments.jsonl").read_bytes() != (out2 / "comments.jsonl").read_bytes()


def test_pipeline_end_to_end(synth_dir, tmp_path, capsys):
    out = tmp_path / "pipe"
    code = main(["pipeline"] + dataset_args(synth_dir) +
                ["--labels", str(synth_dir / "labels.tsv"),
                 "--dim", "32", "--epochs", "60", "--folds", "5",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    values = dict(line.split("=", 1) for line in summary.splitlines())
    assert float(values["planted_core_f1"]) >= 0.95
    assert float(values["nurse_mean_auc"]) > float(values["wbc_auc"])


def test_pipeline_matches_manual_composition(synth_dir, tmp_path):
    pipe = tmp_path / "pipe"
    assert main(["pipeline"] + dataset_args(synth_dir) +
                ["--dim", "16", "--epochs", "5", "--folds", "3",
                 "--seed", "1", "--out", str(pipe)]) == 0
    manual = tmp_path / "manual"
    graph = ["--graph", str(manual / "ccn.tsv")]
    partition = ["--partition", str(manual / "partition.tsv")]
    composed = {"eval.csv"}
    for argv in (["build-ccn", *dataset_args(synth_dir)],
                 ["kcore", *graph, "--mode", "weighted"],
                 ["kcore", *graph, "--mode", "unweighted"],
                 ["korse", *graph],
                 ["breakage", *graph],
                 ["interplay", *graph, *partition, "--seed", "1"],
                 ["case-study", *dataset_args(synth_dir), *partition],
                 ["features", *dataset_args(synth_dir), *partition, "--dim", "16", "--seed", "1"],
                 ["ablate", "--features", str(manual / "features.csv"),
                  "--epochs", "5", "--folds", "3", "--seed", "1"]):
        assert main(argv + ["--out", str(manual)]) == 0, argv[0]
        if argv[0] != "ablate":  # of ablate's outputs, pipeline writes eval_all.csv as eval.csv
            composed.update(json.loads((manual / "manifest.json").read_text())["outputs"])
    outputs = set(json.loads((pipe / "manifest.json").read_text())["outputs"])
    assert outputs - {"summary.txt"} == composed  # summary.txt: the one file only pipeline writes
    for name in composed:
        other = "eval_all.csv" if name == "eval.csv" else name
        assert (pipe / name).read_bytes() == (manual / other).read_bytes(), name


def test_rerun_is_byte_identical(synth_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["build-ccn"] + dataset_args(synth_dir) + ["--out", str(out)]) == 0
        outs.append(out)
    for fname in ("ccn.tsv", "ccn.tsv.nodes", "stats.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_outputs_do_not_depend_on_the_hash_seed(synth_dir, ccn_dir, korse_dir, tmp_path):
    src = str(Path(collusioncore.__file__).parents[1])
    commands = [
        ["build-ccn", *dataset_args(synth_dir)],
        ["communities", "--graph", str(ccn_dir / "ccn.tsv"),
         "--partition", str(korse_dir / "partition.tsv")],
    ]
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for argv in commands:
            subprocess.run([sys.executable, "-m", "collusioncore.cli", *argv,
                            "--out", str(tmp_path / hash_seed / argv[0])], env=env, check=True)
    for name in ("build-ccn/stats.txt", "communities/communities.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_pipeline_outputs_do_not_depend_on_the_hash_seed_or_the_cpus(synth_dir, tmp_path):
    """At one usable CPU one worker trains every fold as one stack; at more,
    each worker trains a run of folds. Every output is the same bytes, the
    manifest apart from its ``out``."""
    src = str(Path(collusioncore.__file__).parents[1])
    argv = ["pipeline", *dataset_args(synth_dir), "--labels", str(synth_dir / "labels.tsv"),
            "--dim", "8", "--epochs", "20"]
    one_cpu = min(os.sched_getaffinity(0))
    runs = {"hash-1": ("1", None), "hash-2": ("2", None),
            "one-cpu": ("1", lambda: os.sched_setaffinity(0, {one_cpu}))}
    outputs = {}
    for name, (hash_seed, preexec) in runs.items():
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "collusioncore.cli", *argv, "--out", str(out)],
                       env=env, preexec_fn=preexec, check=True)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["args"]["out"]
        outputs[name] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        outputs[name]["manifest.json"] = manifest
    assert "eval.csv" in outputs["hash-1"]
    assert outputs["hash-1"] == outputs["hash-2"] == outputs["one-cpu"]


def write(path, content) -> str:
    if isinstance(content, str):
        content = content.encode("utf-8")
    path.write_bytes(content)
    return str(path)


def subdirs(path) -> list:
    """Names of the directories in ``path``."""
    return sorted(p.name for p in path.iterdir() if p.is_dir())


def npz_bytes(tmp_path, **arrays) -> bytes:
    path = tmp_path / "scratch.npz"
    np.savez(path, **arrays)
    return path.read_bytes()


def with_value(features, tmp, line, cell, value) -> str:
    """A copy of a features file with ``value`` in one cell of line ``line``."""
    lines = Path(features).read_text(encoding="utf-8").splitlines(keepends=True)
    row = lines[line - 1].rstrip("\n").split(",")
    row[cell] = value
    lines[line - 1] = ",".join(row) + "\n"
    return write(tmp / "bad.csv", "".join(lines))


def with_byte_ff(features, tmp, line) -> str:
    """A copy of a features file whose line ``line`` starts with the byte FF,
    which is not UTF-8."""
    lines = Path(features).read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    return write(tmp / "bad.csv", b"".join(lines))


def one_embedding_column(features, tmp) -> str:
    """A copy of a features file cut to its first embedding column."""
    width = len(feature_header(1))
    lines = Path(features).read_text(encoding="utf-8").splitlines()
    return write(tmp / "narrow.csv", "".join(",".join(line.split(",")[:width]) + "\n"
                                             for line in lines))


def format_1_model(model, tmp) -> str:
    """A copy of a saved model whose meta says format 1."""
    with np.load(model) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["format"] = 1
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    return write(tmp / "model.npz", npz_bytes(tmp, **arrays))


def unknown_compression_model(model, tmp) -> str:
    """A copy of a saved model whose first entry names zip compression method 99,
    in its local header and in the central directory."""
    data = bytearray(Path(model).read_bytes())
    eocd = data.rfind(b"PK\x05\x06")
    central = int.from_bytes(data[eocd + 16:eocd + 20], "little")
    assert data[:4] == b"PK\x03\x04" and data[central:central + 4] == b"PK\x01\x02"
    data[8:10] = data[central + 10:central + 12] = (99).to_bytes(2, "little")
    return write(tmp / "model.npz", bytes(data))


def cut_model(model, tmp, offset) -> str:
    """A copy of a saved model with 6 bytes deleted at ``offset``."""
    data = Path(model).read_bytes()
    return write(tmp / "model.npz", data[:offset] + data[offset + 6:])


def deeply_nested_meta_model(model, tmp) -> str:
    """A copy of a saved model whose meta is 100,000 '['."""
    with np.load(model) as data:
        arrays = {key: data[key] for key in data.files}
    arrays["meta"] = np.frombuffer(b"[" * 100_000, dtype=np.uint8)
    return write(tmp / "model.npz", npz_bytes(tmp, **arrays))


def dataset_texts(data_dir) -> list:
    """Every comment text and video text of a dataset."""
    dataset = ingest(data_dir / "comments.jsonl", data_dir / "videos.jsonl",
                     data_dir / "users.jsonl")
    texts = [c.text for c in dataset.comments]
    return texts + [" ".join((v.title, v.description, v.genre)) for v in dataset.videos]


def write_all_embeddings(data_dir, path, dim) -> str:
    """Embeddings of every comment text and video text of a dataset."""
    write_embedding_file(path, dataset_texts(data_dir), HashEmbedder(dim=dim, seed=0))
    return str(path)


def every_text_embeddings(data_dir, tmp, header="dim=1\n", values="0.5") -> str:
    """An embeddings file of every text of a dataset: ``header``, then
    ``values`` (one value by default) for each text."""
    keys = sorted({text_key(t) for t in dataset_texts(data_dir) if t.strip()})
    return write(tmp / "emb.txt", header + "".join(f"{key}\t{values}\n" for key in keys))


def with_first_row(data, tmp, flag, field, value) -> list:
    """Dataset arguments whose ``flag`` file (``--comments``, ``--videos`` or
    ``--users``) has ``field`` of its first row set to ``value``, written by
    ``json.dumps`` (so a lone surrogate is a JSON escape)."""
    args = list(data)
    i = args.index(flag) + 1
    lines = Path(args[i]).read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[0])
    row[field] = value
    lines[0] = json.dumps(row) + "\n"
    args[i] = write(tmp / Path(args[i]).name, "".join(lines))
    return args


def with_second_line(data, tmp, flag, line) -> list:
    """Dataset arguments whose ``flag`` file is its first line and then ``line``."""
    args = list(data)
    i = args.index(flag) + 1
    first = Path(args[i]).read_text(encoding="utf-8").splitlines(keepends=True)[0]
    args[i] = write(tmp / Path(args[i]).name, first + line + "\n")
    return args


def with_sidecar(tmp, edges, nodes) -> str:
    """An edge list ``edges`` whose node sidecar is ``nodes``."""
    write(tmp / "ccn.tsv.nodes", nodes)
    return write(tmp / "ccn.tsv", edges)


def partition_of(graph, tmp, summary) -> str:
    """A partition file of every node of ``graph``, its first node the core,
    after the lines ``summary``."""
    nodes = Path(graph + ".nodes").read_text(encoding="utf-8").split("\n")[1:-1]
    return write(tmp / "partition.tsv", summary + "".join(
        f"{node}\t{'periphery' if i else 'core'}\n" for i, node in enumerate(nodes)))


def with_file(data, tmp, flag, name, content) -> list:
    """Dataset arguments whose ``flag`` file is ``content``, written as ``name``."""
    args = list(data)
    args[args.index(flag) + 1] = write(tmp / name, content)
    return args


# id: argv before --out over the fixture paths
REJECTED = {
    "pipeline-beta": lambda p: ["pipeline", *p.data, "--beta", "-1"],
    "pipeline-step": lambda p: ["pipeline", *p.data, "--step", "0.5"],
    "breakage-subnormal-step": (
        lambda p: ["breakage", "--graph", p.graph, "--step", "5e-324"]),
    "pipeline-epochs": lambda p: ["pipeline", *p.data, "--epochs", "0"],
    "pipeline-folds": lambda p: ["pipeline", *p.data, "--folds", "1"],
    "nurse-train-batch-size": (
        lambda p: ["nurse-train", "--features", p.features, "--batch-size", "0"]),
    "ablate-folds": lambda p: ["ablate", "--features", p.features, "--folds", "0"],
    "features-dim": lambda p: ["features", *p.data, "--dim", "0"],
    "features-dim-1": lambda p: ["features", *p.data, "--dim", "1"],
    "pipeline-dim-1": lambda p: ["pipeline", *p.data, "--dim", "1"],
    "nurse-train-one-embedding-column": (
        lambda p: ["nurse-train", "--features", one_embedding_column(p.features, p.tmp)]),
    "ablate-one-embedding-column": (
        lambda p: ["ablate", "--features", one_embedding_column(p.features, p.tmp)]),
    "nurse-eval-format-1-model": (
        lambda p: ["nurse-eval", "--model", format_1_model(p.model, p.tmp),
                   "--features", p.features]),
    "nurse-eval-unknown-compression-model": (
        lambda p: ["nurse-eval", "--model", unknown_compression_model(p.model, p.tmp),
                   "--features", p.features]),
    "nurse-eval-deeply-nested-meta-model": (
        lambda p: ["nurse-eval", "--model", deeply_nested_meta_model(p.model, p.tmp),
                   "--features", p.features]),
    "nurse-eval-cut-entry-model": (  # zipfile seeks before the file's start
        lambda p: ["nurse-eval", "--model", cut_model(p.model, p.tmp, 303),
                   "--features", p.features]),
    "nurse-eval-cut-header-model": (  # neither a zip nor an array: np.load's ValueError
        lambda p: ["nurse-eval", "--model", cut_model(p.model, p.tmp, 0),
                   "--features", p.features]),
    "ingest-check-deeply-nested-comment": (
        lambda p: ["ingest-check", *with_second_line(p.data, p.tmp, "--comments",
                                                     "[" * 100_000)]),
    "ingest-check-not-utf8-jsonl": (  # ED A0 80: a surrogate, encoded
        lambda p: ["ingest-check", *with_file(p.data, p.tmp, "--users", "users.jsonl",
                                              b'{"user_id": "u1"}\n{"user_id": "u\xed\xa0\x80"}\n')]),
    "ingest-check-not-utf8-csv": (
        lambda p: ["ingest-check", *with_file(p.data, p.tmp, "--users", "users.csv",
                                              b"user_id\nu1\nu\xed\xa0\x80\n")]),
    "korse-not-utf8-graph": (
        lambda p: ["korse", "--graph",
                   write(p.tmp / "ccn.tsv", b"# ccn v1\na\tb\t1\nb\tc\xed\xa0\x80\t1\n")]),
    "nurse-train-not-utf8-features": (
        lambda p: ["nurse-train", "--features", with_byte_ff(p.features, p.tmp, 2)]),
    "nurse-eval-not-utf8-features": (
        lambda p: ["nurse-eval", "--model", p.model,
                   "--features", with_byte_ff(p.features, p.tmp, 4)]),
    "config-not-utf8": (
        lambda p: ["--config", write(p.tmp / "run.cfg", b"epochs=2\n\xff=3\n"),
                   "korse", "--graph", p.graph]),
    "synth-no-videos": lambda p: ["synth", "--n-videos", "0"],
    "synth-no-communities": lambda p: ["synth", "--communities", "0"],
    "synth-negative-core": lambda p: ["synth", "--n-core", "-1"],
    "synth-one-user": lambda p: ["synth", "--n-core", "1", "--n-compromised", "0"],
    "features-pair-cap": lambda p: ["features", *p.data, "--pair-cap", "-5"],
    "baseline-wbc-k": lambda p: ["baseline-wbc", "--graph", p.graph, "--k", "-1"],
    "nurse-eval-garbage-model": (
        lambda p: ["nurse-eval", "--model", write(p.tmp / "model.npz", "garbage"),
                   "--features", p.features]),
    "nurse-eval-model-without-meta": (
        lambda p: ["nurse-eval", "--features", p.features, "--model",
                   write(p.tmp / "model.npz", npz_bytes(p.tmp, x=np.zeros(2)))]),
    "pipeline-labels": (
        lambda p: ["pipeline", *p.data, "--labels", write(p.tmp / "labels.tsv", "u1 core\n")]),
    "config-unknown-key": (
        lambda p: ["--config", write(p.tmp / "run.cfg", "bogus=3\n"),
                   "nurse-train", "--features", p.features]),
    "features-embedding-missing": (
        lambda p: ["features", *p.data, "--embeddings",
                   write(p.tmp / "emb.txt", f"dim=2\n{text_key('unused')}\t0.5,0.5\n")]),
    "pipeline-impossible-stratification": (
        lambda p: ["pipeline", *p.data, "--dim", "8", "--folds", "500"]),
    "ablate-impossible-stratification": (
        lambda p: ["ablate", "--features", p.features, "--folds", "500"]),
    "nurse-train-learning-rate-nan": (
        lambda p: ["nurse-train", "--features", p.features, "--learning-rate", "nan"]),
    "nurse-train-learning-rate-inf": (
        lambda p: ["nurse-train", "--features", p.features, "--learning-rate", "inf"]),
    "nurse-train-momentum-nan": (
        lambda p: ["nurse-train", "--features", p.features, "--momentum", "nan"]),
    "config-learning-rate-inf": (
        lambda p: ["--config", write(p.tmp / "run.cfg", "learning_rate=inf\n"),
                   "nurse-train", "--features", p.features]),
    "config-momentum-nan": (
        lambda p: ["--config", write(p.tmp / "run.cfg", "momentum=nan\n"),
                   "nurse-train", "--features", p.features]),
    "config-repeated-key": (
        lambda p: ["--config", write(p.tmp / "run.cfg", "epochs=2\nepochs=3\n"),
                   "nurse-train", "--features", p.features]),
    "config-form-feed-in-value": (  # one line: only LF, CR and CRLF end one
        lambda p: ["--config", write(p.tmp / "run.cfg", "epochs=2\fx"),
                   "nurse-train", "--features", p.features]),
    "pipeline-repeated-label": (
        lambda p: ["pipeline", *p.data, "--labels",
                   write(p.tmp / "labels.tsv", "u1\tcore\nu1\tcompromised\n")]),
    "korse-repeated-edge": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t3\na\tb\t7\n")]),
    "korse-reversed-repeated-edge": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t3\nb\ta\t7\n")]),
    "nurse-train-features-nan": (
        lambda p: ["nurse-train", "--features", with_value(p.features, p.tmp, 2, 2, "nan")]),
    "nurse-eval-features-inf": (
        lambda p: ["nurse-eval", "--model", p.model,
                   "--features", with_value(p.features, p.tmp, 4, -1, "inf")]),
    "ablate-features-nan": (
        lambda p: ["ablate", "--features", with_value(p.features, p.tmp, 3, 30, "nan")]),
    "ablate-features-inf": (
        lambda p: ["ablate", "--features", with_value(p.features, p.tmp, 2, -1, "-inf")]),
    "nurse-train-features-non-numeric": (
        lambda p: ["nurse-train", "--features", with_value(p.features, p.tmp, 3, 7, "0.5x")]),
    "nurse-eval-tab-in-features-id": (
        lambda p: ["nurse-eval", "--model", p.model, "--mode", "complete",
                   "--features", with_value(p.features, p.tmp, 3, 0, '"a\tb"')]),
    "nurse-eval-lf-in-features-id": (
        lambda p: ["nurse-eval", "--model", p.model, "--mode", "complete",
                   "--features", with_value(p.features, p.tmp, 3, 0, '"a\nb"')]),
    "features-empty-id-in-partition": (
        lambda p: ["features", *p.data, "--dim", "8", "--partition",
                   write(p.tmp / "partition.tsv", "u0001\tcore\n\tcore\n")]),
    "pipeline-empty-id-in-labels": (
        lambda p: ["pipeline", *p.data, "--dim", "8", "--epochs", "1", "--folds", "2",
                   "--labels", write(p.tmp / "labels.tsv", "\tcompromised\n")]),
    "korse-self-loop-edge": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t1\nc\tc\t2\n")]),
    "korse-short-edge-line": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\n")]),
    "korse-long-edge-line": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t1\t2\n")]),
    "korse-two-cell-sidecar-line": (
        lambda p: ["korse", "--graph", with_sidecar(p.tmp, "# ccn v1\na\tb\t3\n",
                                                    "# ccn nodes v1\na\tb\n")]),
    "pipeline-three-cell-label-line": (
        lambda p: ["pipeline", *p.data, "--labels",
                   write(p.tmp / "labels.tsv", "u0001\tcore\tx\n")]),
    "communities-three-cell-partition-line": (
        lambda p: ["communities", "--graph", p.graph, "--partition",
                   write(p.tmp / "partition.tsv", "# core_threshold=1\nu0001\tcore\tx\n")]),
    "korse-underscore-weight": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t1_0\n")]),
    "korse-spaced-weight": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t3\nb\tc\t 3\n")]),
    "korse-non-ascii-digit-weight": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t\u0663\n")]),
    "korse-repeated-sidecar-node": (
        lambda p: ["korse", "--graph", with_sidecar(p.tmp, "# ccn v1\na\tb\t3\n",
                                                    "# ccn nodes v1\na\nb\na\n")]),
    "communities-repeated-summary-key": (
        lambda p: ["communities", "--graph", p.graph, "--partition",
                   partition_of(p.graph, p.tmp, "# core_threshold=3\n# core_threshold=1_2\n")]),
    "features-embeddings-non-ascii-dim": (  # ARABIC-INDIC DIGIT TWO, then a tab
        lambda p: ["features", *p.data, "--embeddings",
                   every_text_embeddings(p.dir, p.tmp, "dim=\u0662\t\n", "0.5,0.5")]),
    "nurse-train-features-underscore-value": (
        lambda p: ["nurse-train", "--features", with_value(p.features, p.tmp, 2, 2, "1_0")]),
    "korse-fractional-weight": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t1.5\n")]),
    "korse-zero-weight": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t0\n")]),
    "kcore-negative-weight": (
        lambda p: ["kcore", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t2\nb\tc\t-1\n")]),
    "korse-empty-first-endpoint": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\n\tb\t1\n")]),
    "breakage-empty-second-endpoint": (
        lambda p: ["breakage", "--graph",
                   write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t1\nc\t\t1\n")]),
    "communities-non-numeric-core-threshold": (
        lambda p: ["communities", "--graph", p.graph, "--partition",
                   write(p.tmp / "partition.tsv", "# core_threshold=x\nu0001\tcore\n")]),
    "features-embeddings-dim-x": (
        lambda p: ["features", *p.data, "--embeddings",
                   write(p.tmp / "emb.txt", f"dim=x\n{text_key('a')}\t0.5,0.5\n")]),
    "features-embeddings-line-without-tab": (
        lambda p: ["features", *p.data, "--embeddings",
                   write(p.tmp / "emb.txt", f"dim=2\n{text_key('a')} 0.5,0.5\n")]),
    "features-embeddings-non-numeric-value": (
        lambda p: ["features", *p.data, "--embeddings",
                   write(p.tmp / "emb.txt", f"dim=2\n\n{text_key('a')}\t0.5,x\n")]),
    "features-repeated-embedding": (
        lambda p: ["features", *p.data, "--embeddings",
                   write(p.tmp / "emb.txt", f"dim=2\n{text_key('a')}\t0.5,0.5\n"
                                            f"{text_key('a')}\t0.1,0.2\n")]),
    "features-embeddings-dim-1": (
        lambda p: ["features", *p.data, "--embeddings", every_text_embeddings(p.dir, p.tmp)]),
    "pipeline-embeddings-dim-1": (
        lambda p: ["pipeline", *p.data, "--embeddings", every_text_embeddings(p.dir, p.tmp)]),
    "features-surrogate-text": (
        lambda p: ["features", *with_first_row(p.data, p.tmp, "--comments", "text",
                                               "nice \ud800 video")]),
    "build-ccn-tab-in-comment-user-id": (
        lambda p: ["build-ccn", *with_first_row(p.data, p.tmp, "--comments", "user_id", "u\t1")]),
    "features-tab-in-comment-id": (
        lambda p: ["features", *with_first_row(p.data, p.tmp, "--comments",
                                               "comment_id", "c\t1")]),
    "pipeline-lf-in-video-id": (
        lambda p: ["pipeline", *with_first_row(p.data, p.tmp, "--videos", "video_id", "v\n1")]),
    "ingest-check-cr-in-uploader-id": (
        lambda p: ["ingest-check", *with_first_row(p.data, p.tmp, "--videos",
                                                   "uploader_user_id", "u\r1")]),
    "build-ccn-cr-in-user-id": (
        lambda p: ["build-ccn", *with_first_row(p.data, p.tmp, "--users", "user_id", "u1\r")]),
    "features-embeddings-file-absent": (
        lambda p: ["features", *p.data, "--embeddings", str(p.tmp / "absent.txt")]),
    "features-embeddings-empty-path": lambda p: ["features", *p.data, "--embeddings", ""],
    "kcore-out-is-a-file": (
        lambda p: ["kcore", "--graph", p.graph, "--out", write(p.tmp / "notadir", "kept\n")]),
    "kcore-out-parent-is-a-file": (
        lambda p: ["kcore", "--graph", p.graph,
                   "--out", str(Path(write(p.tmp / "notadir", "kept\n")) / "out")]),
}

# what the error message of a rejected case must contain
REJECTED_MESSAGE = {
    "config-unknown-key": "bogus",
    "features-embedding-missing": "text hash",
    "nurse-train-learning-rate-nan": "learning_rate must be finite, got nan",
    "nurse-train-learning-rate-inf": "learning_rate must be finite, got inf",
    "nurse-train-momentum-nan": "momentum must be finite, got nan",
    "config-learning-rate-inf": "learning_rate must be finite, got inf",
    "config-momentum-nan": "momentum must be finite, got nan",
    "config-repeated-key": "run.cfg:2: key 'epochs' listed twice",
    "config-form-feed-in-value": "config: epochs='2\\x0cx' is not a valid int",
    "pipeline-repeated-label": "labels.tsv:2: user 'u1' listed twice",
    "korse-repeated-edge": "ccn.tsv:3: edge (a, b) listed twice",
    "korse-reversed-repeated-edge": "ccn.tsv:3: edge (b, a) listed twice",
    "features-repeated-embedding": f"emb.txt:3: hash '{text_key('a')}' listed twice",
    "nurse-train-features-nan": "bad.csv:2: column 'mfe_0' must be a finite float, got 'nan'",
    "nurse-eval-features-inf": "bad.csv:4: column 'tfe_31' must be a finite float, got 'inf'",
    "ablate-features-nan": "bad.csv:3: column 'sfe_2' must be a finite float, got 'nan'",
    "ablate-features-inf": "bad.csv:2: column 'tfe_31' must be a finite float, got '-inf'",
    "nurse-train-features-non-numeric":
        "bad.csv:3: column 'mfe_5' must be a finite float, got '0.5x'",
    "nurse-train-features-underscore-value":
        "bad.csv:2: column 'mfe_0' must be a finite float, got '1_0'",
    "nurse-eval-tab-in-features-id":
        "bad.csv:3: column 'user_id' must be non-empty, without tab, CR or LF",
    # the quoted id spans lines 3 and 4; the fault is named where the record starts
    "nurse-eval-lf-in-features-id":
        "bad.csv:3: column 'user_id' must be non-empty, without tab, CR or LF",
    "features-empty-id-in-partition":
        "partition.tsv:2: column 'user_id' must be non-empty, without tab, CR or LF, got ''",
    "pipeline-empty-id-in-labels":
        "labels.tsv:1: column 'user_id' must be non-empty, without tab, CR or LF, got ''",
    "korse-self-loop-edge": "ccn.tsv:3: edge (c, c) is a self-loop",
    "korse-short-edge-line": "ccn.tsv:2: expected 3 fields",
    "korse-long-edge-line": "ccn.tsv:2: expected 3 fields",
    "korse-two-cell-sidecar-line": "ccn.tsv.nodes:2: expected 1 field",
    "pipeline-three-cell-label-line": "labels.tsv:1: expected 2 fields",
    "communities-three-cell-partition-line": "partition.tsv:2: expected 2 fields",
    "korse-underscore-weight": "ccn.tsv:2: column 'weight' must be an integer >= 1, got '1_0'",
    "korse-spaced-weight": "ccn.tsv:3: column 'weight' must be an integer >= 1, got ' 3'",
    "korse-non-ascii-digit-weight":
        "ccn.tsv:2: column 'weight' must be an integer >= 1, got '\u0663'",
    "korse-repeated-sidecar-node": "ccn.tsv.nodes:4: node 'a' listed twice",
    "korse-fractional-weight": "ccn.tsv:2: column 'weight' must be an integer >= 1, got '1.5'",
    "korse-zero-weight": "ccn.tsv:2: column 'weight' must be an integer >= 1, got '0'",
    "kcore-negative-weight": "ccn.tsv:3: column 'weight' must be an integer >= 1, got '-1'",
    "korse-empty-first-endpoint":
        "ccn.tsv:2: column 'source' must be non-empty, without tab, CR or LF, got ''",
    "breakage-empty-second-endpoint":
        "ccn.tsv:3: column 'target' must be non-empty, without tab, CR or LF, got ''",
    "communities-non-numeric-core-threshold":
        "partition.tsv:1: column 'core_threshold' must be an integer >= 0, got 'x'",
    "communities-repeated-summary-key": "partition.tsv:2: key 'core_threshold' listed twice",
    "features-embeddings-dim-x": "emb.txt:1: column 'dim' must be an integer >= 2, got 'x'",
    "features-embeddings-non-ascii-dim":
        "emb.txt:1: column 'dim' must be an integer >= 2, got '\u0662\\t'",
    "features-embeddings-line-without-tab": "emb.txt:2: expected 3 fields",
    "features-embeddings-non-numeric-value":
        "emb.txt:3: column 'value_1' must be a finite float, got 'x'",
    "features-dim-1": "dim must be >= 2, got 1",
    "pipeline-dim-1": "dim must be >= 2, got 1",
    "nurse-train-one-embedding-column": "embedding_dim must be >= 2",
    "ablate-one-embedding-column": "embedding_dim must be >= 2",
    "nurse-eval-format-1-model": "unsupported model format 1",
    "nurse-eval-unknown-compression-model":
        "model.npz: not a model file (NotImplementedError: That compression method is not "
        "supported)",
    "nurse-eval-deeply-nested-meta-model": "model.npz: not a model file (RecursionError: ",
    "nurse-eval-cut-entry-model": "model.npz: not a model file (OSError: ",
    "nurse-eval-cut-header-model": "model.npz: not a model file (ValueError: ",
    "ingest-check-deeply-nested-comment": "comments.jsonl:2: malformed line: nested too deeply",
    "ingest-check-not-utf8-jsonl": "users.jsonl:2: not valid UTF-8",
    "ingest-check-not-utf8-csv": "users.csv:3: not valid UTF-8",
    "korse-not-utf8-graph": "ccn.tsv:3: not valid UTF-8",
    "nurse-train-not-utf8-features": "bad.csv:2: not valid UTF-8",
    "nurse-eval-not-utf8-features": "bad.csv:4: not valid UTF-8",
    "config-not-utf8": "run.cfg:2: not valid UTF-8",
    "synth-no-videos": "zero videos",
    "synth-no-communities": "peripheral community",
    "synth-negative-core": "counts must be >= 0",
    "synth-one-user": "at least 2 users",
    "features-embeddings-dim-1": "emb.txt:1: column 'dim' must be an integer >= 2, got '1'",
    "pipeline-embeddings-dim-1": "emb.txt:1: column 'dim' must be an integer >= 2, got '1'",
    "features-surrogate-text": "comments.jsonl:1: field 'text' is not valid Unicode",
    "build-ccn-tab-in-comment-user-id":
        "comments.jsonl:1: field 'user_id' must be non-empty, without tab, CR or LF",
    "features-tab-in-comment-id":
        "comments.jsonl:1: field 'comment_id' must be non-empty, without tab, CR or LF",
    "pipeline-lf-in-video-id":
        "videos.jsonl:1: field 'video_id' must be non-empty, without tab, CR or LF",
    "ingest-check-cr-in-uploader-id":
        "videos.jsonl:1: field 'uploader_user_id' must be non-empty, without tab, CR or LF",
    "build-ccn-cr-in-user-id":
        "users.jsonl:1: field 'user_id' must be non-empty, without tab, CR or LF",
    "features-embeddings-file-absent": "embeddings: [Errno 2] No such file or directory",
    "features-embeddings-empty-path": "embeddings file is required (--embeddings)",
    "kcore-out-is-a-file": "notadir is not a directory",
    "kcore-out-parent-is-a-file": "notadir is not a directory",
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_exits_3(case, synth_dir, ccn_dir, features_dir, model_dir, tmp_path,
                               capsys):
    argv = REJECTED[case]
    paths = type("Paths", (), dict(dir=synth_dir, data=dataset_args(synth_dir),
                                  graph=str(ccn_dir / "ccn.tsv"),
                                  features=str(features_dir / "features.csv"),
                                  model=str(model_dir / "model.npz"), tmp=tmp_path))
    out = tmp_path / "out"
    argv = argv(paths)
    if "--out" not in argv:  # the cases of a bad --out name their own
        argv += ["--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal" not in err
    assert not out.exists()
    assert subdirs(tmp_path) == []  # no staging directory left behind
    assert REJECTED_MESSAGE.get(case, "") in err


# id: (the module the handler calls a late stage through, the stage's name there, made
# to raise, argv before --out over the fixture paths)
FAULTS = {
    "pipeline-weighted_betweenness": (
        cli, "weighted_betweenness",
        lambda p: ["pipeline", *p.data, "--dim", "8", "--epochs", "1", "--folds", "2"]),
    "pipeline-train": (  # raises in a cross-validation worker process
        nurse, "_train_stack", lambda p: ["pipeline", *p.data, "--labels", p.labels, "--dim", "8",
                                   "--epochs", "1", "--folds", "2"]),
    "nurse-train-train": (
        nurse, "train", lambda p: ["nurse-train", "--features", p.features, "--epochs", "1"]),
    "nurse-train-loss": (  # raises after model.npz is written
        nurse, "loss", lambda p: ["nurse-train", "--features", p.features, "--epochs", "1"]),
    "nurse-train-_sha256": (  # raises in the manifest write, after the handler returns
        cli, "_sha256", lambda p: ["nurse-train", "--features", p.features, "--epochs", "1"]),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize("case", sorted(FAULTS))
def test_failed_run_leaves_out_as_it_was(case, existing, synth_dir, features_dir, tmp_path,
                                         monkeypatch, capsys):
    module, name, argv = FAULTS[case]
    argv = argv(type("Paths", (), dict(data=dataset_args(synth_dir),
                                       features=str(features_dir / "features.csv"),
                                       labels=str(synth_dir / "labels.tsv"))))
    out = tmp_path / "out"
    before = {}
    if existing:
        out.mkdir()
        (out / "notes.txt").write_bytes(b"kept\n")
        before = {"notes.txt": b"kept\n"}

    def fault(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(module, name, fault)
    assert main(argv + ["--out", str(out)]) == 5
    assert "internal error: RuntimeError: injected fault" in capsys.readouterr().err
    if existing:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    else:
        assert not out.exists()
    assert subdirs(tmp_path) == (["out"] if existing else [])

    monkeypatch.undo()
    assert main(argv + ["--out", str(out)]) == 0
    assert subdirs(tmp_path) == ["out"]
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*before, *listed, "manifest.json"])
    assert all((out / n).read_bytes() == data for n, data in before.items())


@pytest.mark.parametrize("name", ["ccn.tsv", "manifest.json", "stats.txt"])
def test_a_directory_with_an_output_name_leaves_out_as_it_was(name, synth_dir, tmp_path,
                                                              capsys):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    (out / "notes.txt").write_bytes(b"kept\n")
    assert main(["build-ccn", *dataset_args(synth_dir), "--out", str(out)]) == 3
    assert f"{out / name} is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == sorted([name, "notes.txt"])
    assert (out / "notes.txt").read_bytes() == b"kept\n" and not any((out / name).iterdir())
    assert subdirs(tmp_path) == ["out"]  # no staging directory left behind


def test_staged_files_move_in_name_order_manifest_last(ccn_dir, tmp_path, monkeypatch):
    moved, replace = [], os.replace
    monkeypatch.setattr(cli.os, "replace",
                        lambda src, dst: (moved.append(Path(dst).name), replace(src, dst)))
    assert main(["korse", "--graph", str(ccn_dir / "ccn.tsv"), "--out", str(tmp_path)]) == 0
    assert moved == sorted(moved[:-1]) + ["manifest.json"] and len(moved) == 5


def test_manifest_hashes_embeddings_file(synth_dir, tmp_path):
    emb = write_all_embeddings(synth_dir, tmp_path / "emb.txt", dim=4)
    out = tmp_path / "out"
    assert main(["features"] + dataset_args(synth_dir) +
                ["--embeddings", emb, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    digest = hashlib.sha256((tmp_path / "emb.txt").read_bytes()).hexdigest()
    assert manifest["inputs"][emb] == digest
    assert sorted(manifest["settings"]) == ["pair_cap"]  # no stub, so no dim and no seed


TRAINING = ["batch_size", "epochs", "learning_rate", "momentum"]

# id: (the settings the run reads, argv before --out over the fixture paths)
MANIFEST_SETTINGS = {
    "ingest-check": ([], lambda p: ["ingest-check", *p.data]),
    "build-ccn": ([], lambda p: ["build-ccn", *p.data]),
    "kcore": ([], lambda p: ["kcore", "--graph", p.graph]),
    "korse": (["beta"], lambda p: ["korse", "--graph", p.graph]),
    "breakage": (["step"], lambda p: ["breakage", "--graph", p.graph,
                                      "--order-key", "weighted_degree"]),
    "communities": (["seed"], lambda p: ["communities", "--graph", p.graph,
                                         "--partition", p.partition]),
    "interplay": (["seed"], lambda p: ["interplay", "--graph", p.graph,
                                       "--partition", p.partition]),
    "case-study": ([], lambda p: ["case-study", *p.data, "--partition", p.partition]),
    "features": (["dim", "pair_cap", "seed"], lambda p: ["features", *p.data, "--dim", "4"]),
    "features-file-provider": (["pair_cap"],
                               lambda p: ["features", *p.data, "--embeddings", p.embeddings]),
    "nurse-train": (["seed", *TRAINING],
                    lambda p: ["nurse-train", "--features", p.features, "--epochs", "1"]),
    "nurse-eval": (["seed"], lambda p: ["nurse-eval", "--model", p.model,
                                        "--features", p.features]),
    "nurse-eval-complete": ([], lambda p: ["nurse-eval", "--model", p.model,
                                           "--features", p.features, "--mode", "complete"]),
    "ablate": (["folds", "seed", *TRAINING],
               lambda p: ["ablate", "--features", p.features, "--epochs", "1", "--folds", "2"]),
    "baseline-wbc": (["threshold_k"], lambda p: ["baseline-wbc", "--graph", p.graph]),
    "synth": (["seed"], lambda p: ["synth", "--n-core", "4", "--n-compromised", "16",
                                   "--n-videos", "24", "--communities", "2"]),
    "pipeline": (["beta", "dim", "folds", "pair_cap", "seed", "step", *TRAINING],
                 lambda p: ["pipeline", *p.data, "--dim", "8", "--epochs", "1", "--folds", "2"]),
}


def test_manifest_table_names_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    names = type("Paths", (), dict(data=[], graph="", partition="", features="", model="",
                                   embeddings=""))
    assert {argv(names)[0] for _, argv in MANIFEST_SETTINGS.values()} == set(sub.choices)


@pytest.fixture(scope="module")
def embeddings_file(synth_dir, tmp_path_factory):
    return write_all_embeddings(synth_dir, tmp_path_factory.mktemp("emb") / "emb.txt", dim=4)


@pytest.mark.parametrize("case", sorted(MANIFEST_SETTINGS))
def test_manifest_lists_the_settings_the_run_read(case, synth_dir, ccn_dir, korse_dir,
                                                 features_dir, model_dir, embeddings_file,
                                                 tmp_path):
    read, argv = MANIFEST_SETTINGS[case]
    argv = argv(type("Paths", (), dict(data=dataset_args(synth_dir),
                                       graph=str(ccn_dir / "ccn.tsv"),
                                       partition=str(korse_dir / "partition.tsv"),
                                       features=str(features_dir / "features.csv"),
                                       model=str(model_dir / "model.npz"),
                                       embeddings=embeddings_file)))
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert sorted(manifest) == ["args", "command", "inputs", "outputs", "settings", "version"]
    assert sorted(manifest["settings"]) == sorted(read)
    rows = [re.sub(r"<\w+>", ".+", re.escape(name)) for name, commands, _ in cli.OUTPUTS
            if commands is None or manifest["command"] in commands]
    names = manifest["outputs"] + ["manifest.json"]
    for name in names:
        assert sum(bool(re.fullmatch(row, name)) for row in rows) == 1, name
    for row in rows:
        assert any(re.fullmatch(row, name) for name in names), row


@pytest.mark.parametrize("command", ["features", "pipeline"])
def test_embeddings_and_dim_together_is_a_usage_error(command, synth_dir, tmp_path):
    with pytest.raises(SystemExit) as err:
        main([command, *dataset_args(synth_dir), "--embeddings", str(tmp_path / "emb.txt"),
              "--dim", "4", "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()


def test_seed_with_embeddings_is_a_usage_error_on_features_only(synth_dir, tmp_path):
    def run(command):
        return main([command, *dataset_args(synth_dir), "--embeddings",
                     str(tmp_path / "absent.txt"), "--seed", "9", "--out", str(tmp_path / "out")])

    with pytest.raises(SystemExit) as err:
        run("features")
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()
    # pipeline's Louvain reads --seed: the run gets as far as the absent file
    assert run("pipeline") == 3
    assert not (tmp_path / "out").exists()


def test_file_provider_matches_the_stub_it_was_written_from(synth_dir, tmp_path):
    emb = write_all_embeddings(synth_dir, tmp_path / "emb.txt", dim=4)
    for name, provider in (("file", ["--embeddings", emb]),
                           ("stub", ["--dim", "4", "--seed", "0"])):
        assert main(["features"] + dataset_args(synth_dir) + provider +
                    ["--out", str(tmp_path / name)]) == 0
    written = [(tmp_path / name / "features.csv").read_bytes() for name in ("file", "stub")]
    assert written[0] == written[1]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small valid run's input files, keyed by the kind of file."""
    d = tmp_path_factory.mktemp("fuzzinputs")
    data = d / "data"
    assert main(["synth", "--n-core", "4", "--n-compromised", "16", "--n-videos", "24",
                 "--communities", "2", "--seed", "3", "--out", str(data)]) == 0
    assert main(["build-ccn"] + dataset_args(data) + ["--out", str(d / "ccn")]) == 0
    assert main(["korse", "--graph", str(d / "ccn" / "ccn.tsv"), "--out", str(d / "korse")]) == 0
    assert main(["features"] + dataset_args(data) +
                ["--partition", str(d / "korse" / "partition.tsv"), "--dim", "4",
                 "--out", str(d / "features")]) == 0
    assert main(["nurse-train", "--features", str(d / "features" / "features.csv"),
                 "--epochs", "1", "--out", str(d / "model")]) == 0
    paths = {
        "comments": data / "comments.jsonl",
        "videos": data / "videos.jsonl",
        "users": data / "users.jsonl",
        "graph": d / "ccn" / "ccn.tsv",
        "partition": d / "korse" / "partition.tsv",
        "features": d / "features" / "features.csv",
        "labels": data / "labels.tsv",
        "model": d / "model" / "model.npz",
        "embeddings": write_all_embeddings(data, d / "emb.txt", dim=4),
        "config": write(d / "run.cfg", "seed=3\nepochs=2\n"),
    }
    records = ("comments", "videos", "users")
    for name in records:
        paths[f"{name}.csv"] = jsonl_as_csv(paths[name], d / f"{name}.csv")
    assert ingest(*(paths[f"{n}.csv"] for n in records)) == ingest(*(paths[n] for n in records))
    files = {kind: str(path) for kind, path in paths.items()}
    files["data"] = dataset_args(data)
    files["valid"] = {kind: Path(path).read_bytes() for kind, path in paths.items()}
    files["dir"] = d
    return files


def jsonl_as_csv(source, path) -> Path:
    """A .csv copy of a .jsonl record file, columns in its first record's order."""
    rows = [json.loads(line) for line in source.read_text(encoding="utf-8").splitlines()]

    def cell(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return "" if value is None else str(value)

    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(rows[0])
        writer.writerows([cell(row[key]) for key in rows[0]] for row in rows)
    return path


def records_with(valid, kind, path) -> list:
    """Dataset arguments over the valid record files, with ``path`` as ``kind``."""
    return [arg for name in ("comments", "videos", "users")
            for arg in (f"--{name}", path if name == kind else valid[name])]


# (kind of file fuzzed, argv before --out given the valid files and the fuzzed path)
FUZZ_TARGETS = [
    ("graph", lambda v, f: ["korse", "--graph", f]),
    ("graph", lambda v, f: ["breakage", "--graph", f]),
    ("graph", lambda v, f: ["baseline-wbc", "--graph", f]),
    ("graph", lambda v, f: ["interplay", "--graph", f, "--partition", v["partition"]]),
    ("partition", lambda v, f: ["interplay", "--graph", v["graph"], "--partition", f]),
    ("partition", lambda v, f: ["case-study", *v["data"], "--partition", f]),
    ("partition", lambda v, f: ["features", *v["data"], "--partition", f, "--dim", "4"]),
    ("features", lambda v, f: ["nurse-train", "--features", f, "--epochs", "1"]),
    ("features", lambda v, f: ["nurse-eval", "--model", v["model"], "--features", f]),
    ("features", lambda v, f: ["ablate", "--features", f, "--folds", "2", "--epochs", "1"]),
    ("labels", lambda v, f: ["pipeline", *v["data"], "--labels", f, "--dim", "4",
                             "--epochs", "1", "--folds", "2"]),
    ("model", lambda v, f: ["nurse-eval", "--model", f, "--features", v["features"]]),
    ("embeddings", lambda v, f: ["features", *v["data"], "--embeddings", f]),
    ("config", lambda v, f: ["--config", f, "kcore", "--graph", v["graph"]]),
    ("comments", lambda v, f: ["features", *records_with(v, "comments", f), "--dim", "4"]),
    ("videos", lambda v, f: ["features", *records_with(v, "videos", f), "--dim", "4"]),
    ("users", lambda v, f: ["features", *records_with(v, "users", f), "--dim", "4"]),
    ("comments", lambda v, f: ["build-ccn", *records_with(v, "comments", f)]),
    ("videos", lambda v, f: ["build-ccn", *records_with(v, "videos", f)]),
    ("users", lambda v, f: ["build-ccn", *records_with(v, "users", f)]),
]


def fuzzed(valid: bytes, tmp_path, kind):
    """Arbitrary text, or the valid file with arbitrary text spliced in; a
    model may also be a well-formed archive around an arbitrary meta entry."""
    text = st.text(max_size=120).map(lambda t: t.encode("utf-8"))
    spliced = st.tuples(st.integers(0, len(valid)), st.integers(0, 12), text).map(
        lambda t: valid[:t[0]] + t[2] + valid[t[0] + t[1]:])
    options = [text, spliced]
    if kind == "model":
        options.append(text.map(lambda meta: npz_bytes(
            tmp_path, meta=np.frombuffer(meta, dtype=np.uint8))))
    return st.one_of(options)


@pytest.mark.parametrize("target", FUZZ_TARGETS,
                         ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(FUZZ_TARGETS)])
def test_fuzzed_input_file_never_exits_5(fuzz_inputs, tmp_path_factory, target):
    kind, argv = target
    work = tmp_path_factory.mktemp("fuzz")
    path, out = work / f"fuzzed.{kind}", work / "out"

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(content=fuzzed(fuzz_inputs["valid"][kind], work, kind))
    def run(content):
        path.write_bytes(content)
        shutil.rmtree(out, ignore_errors=True)
        assert main(argv(fuzz_inputs, str(path)) + ["--out", str(out)]) in (0, 3, 4)

    run()


# what a seeded mutation may insert: control and separator characters, a
# comment mark, numbers that are not finite, and bytes that are not UTF-8
INSERTS = [b"\x00", b"\r", b"\n", b"\t", b"#", b"nan", b"1e999", b"\xed\xa0\x80", b"\xff",
           b"\xc3"]


def mutant(valid: bytes, rng) -> bytes:
    """``valid`` after one to three seeded byte flips, deletions, truncations
    or insertions."""
    data = bytearray(valid)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        op = rng.choice(("flip", "delete", "truncate", "insert"))
        if op == "flip" and at < len(data):
            data[at] ^= 1 << rng.randrange(8)
        elif op == "delete":
            del data[at:at + rng.randint(1, 8)]
        elif op == "truncate":
            del data[at:]
        else:
            data[at:at] = rng.choice(INSERTS)
    return bytes(data)


# argv before --out, given the graph and partition paths
GRAPH_COMMANDS = {
    "kcore": lambda graph, partition: ["kcore", "--graph", graph],
    "korse": lambda graph, partition: ["korse", "--graph", graph],
    "breakage": lambda graph, partition: ["breakage", "--graph", graph],
    "interplay": lambda graph, partition: ["interplay", "--graph", graph,
                                           "--partition", partition],
}
GRAPH_MUTANTS = 20


@pytest.mark.parametrize("seed, name", [(1, "ccn.tsv"), (2, "ccn.tsv.nodes"),
                                        (3, "partition.tsv")])
def test_mutated_graph_inputs_exit_0_3_or_4_and_leave_out_as_it_was(fuzz_inputs, tmp_path,
                                                                   seed, name):
    graph = Path(fuzz_inputs["graph"])
    valid = {"ccn.tsv": graph.read_bytes(), "ccn.tsv.nodes": nodes_sidecar(graph).read_bytes(),
             "partition.tsv": Path(fuzz_inputs["partition"]).read_bytes()}
    commands = ["interplay"] if name == "partition.tsv" else sorted(GRAPH_COMMANDS)
    rng = random.Random(seed)
    out = tmp_path / "out"
    for _ in range(GRAPH_MUTANTS):
        for file, content in valid.items():
            (tmp_path / file).write_bytes(mutant(content, rng) if file == name else content)
        for command in commands:
            argv = GRAPH_COMMANDS[command](str(tmp_path / "ccn.tsv"),
                                           str(tmp_path / "partition.tsv"))
            code = main(argv + ["--out", str(out)])
            assert code in (0, 3, 4), (command, (tmp_path / name).read_bytes())
            assert code == 0 or not out.exists()
            shutil.rmtree(out, ignore_errors=True)
            assert subdirs(tmp_path) == []  # no staging directory left behind


# kind of file mutated: argv before --out, given the fixture's files and the
# mutated file, for each command that reads it
MUTATED_INPUT_COMMANDS = {
    "comments": [lambda v, f: ["build-ccn", *records_with(v, "comments", f)]],
    "videos": [lambda v, f: ["build-ccn", *records_with(v, "videos", f)]],
    "users": [lambda v, f: ["build-ccn", *records_with(v, "users", f)]],
    "comments.csv": [lambda v, f: ["build-ccn", *records_with(v, "comments", f)]],
    "videos.csv": [lambda v, f: ["build-ccn", *records_with(v, "videos", f)]],
    "users.csv": [lambda v, f: ["build-ccn", *records_with(v, "users", f)]],
    "labels": [lambda v, f: ["pipeline", *v["data"], "--labels", f, "--dim", "4",
                             "--epochs", "1", "--folds", "2"]],
    "features": [lambda v, f: ["nurse-train", "--features", f, "--epochs", "1"],
                 lambda v, f: ["nurse-eval", "--model", v["model"], "--features", f]],
    "model": [lambda v, f: ["nurse-eval", "--model", f, "--features", v["features"]]],
    "embeddings": [lambda v, f: ["features", *v["data"], "--embeddings", f]],
    "config": [lambda v, f: ["--config", f, "korse", "--graph", v["graph"]],
               lambda v, f: ["--config", f, "nurse-train", "--features", v["features"]]],
}
INPUT_MUTANTS = 20


@pytest.mark.parametrize("seed, kind", list(enumerate(MUTATED_INPUT_COMMANDS, start=4)))
def test_mutated_inputs_exit_0_3_or_4_and_leave_out_as_it_was(fuzz_inputs, tmp_path, seed,
                                                               kind):
    path = tmp_path / Path(fuzz_inputs[kind]).name  # the suffix picks the record format
    rng = random.Random(seed)
    out = tmp_path / "out"
    for _ in range(INPUT_MUTANTS):
        path.write_bytes(mutant(fuzz_inputs["valid"][kind], rng))
        for argv in MUTATED_INPUT_COMMANDS[kind]:
            code = main(argv(fuzz_inputs, str(path)) + ["--out", str(out)])
            assert code in (0, 3, 4), (argv(fuzz_inputs, str(path)), path.read_bytes())
            assert code == 0 or not out.exists()
            shutil.rmtree(out, ignore_errors=True)
            assert subdirs(tmp_path) == []  # no staging directory left behind
