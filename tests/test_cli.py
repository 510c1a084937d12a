import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collusioncore
from collusioncore import cli
from collusioncore.cli import main
from collusioncore.embeddings import HashEmbedder, text_key, write_embedding_file
from collusioncore.features import feature_header
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
    assert manifest["seeds"] == {"generator": SYNTH_SEED}


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


def test_ingest_check_validation_failure(tmp_path, capsys):
    (tmp_path / "comments.jsonl").write_text(
        '{"comment_id": "c1", "user_id": "ghost", "video_id": "v1", "text": "x"}\n'
    )
    (tmp_path / "videos.jsonl").write_text(
        '{"video_id": "v1", "uploader_user_id": "u1", "title": "t", "description": "d",'
        ' "genre": "g", "duration_sec": 1, "likes": 0, "dislikes": 0, "views": 0,'
        ' "is_collusive": true}\n'
    )
    (tmp_path / "users.jsonl").write_text('{"user_id": "u1"}\n')
    code = main([
        "ingest-check",
        "--comments", str(tmp_path / "comments.jsonl"),
        "--videos", str(tmp_path / "videos.jsonl"),
        "--users", str(tmp_path / "users.jsonl"),
    ])
    assert code == 4


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
                ["--provider", "file", "--embeddings", str(bad),
                 "--out", str(tmp_path / "x")]) == 3


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


def test_config_file_supplies_defaults(synth_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("seed=3\n")
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["--config", str(config), "synth", "--out", str(out1)]) == 0
    assert main(["synth", "--seed", "3", "--out", str(out2)]) == 0
    assert (out1 / "comments.jsonl").read_bytes() == (out2 / "comments.jsonl").read_bytes()
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
    for name in ("ccn.tsv", "stats.txt", "coreness_weighted.tsv",
                 "coreness_unweighted.tsv", "partition.tsv",
                 "breakage_weighted_degree.csv", "communities.csv",
                 "interplay_seed0.csv", "correlations.txt", "case_study.txt",
                 "features.csv", "eval.csv", "manifest.json"):
        assert (out / name).exists(), name


def test_pipeline_matches_manual_composition(synth_dir, tmp_path):
    pipe = tmp_path / "pipe"
    assert main(["pipeline"] + dataset_args(synth_dir) +
                ["--dim", "16", "--epochs", "5", "--folds", "3",
                 "--seed", "1", "--out", str(pipe)]) == 0
    manual = tmp_path / "manual"
    assert main(["build-ccn"] + dataset_args(synth_dir) + ["--out", str(manual)]) == 0
    assert main(["kcore", "--graph", str(manual / "ccn.tsv"), "--mode", "weighted",
                 "--out", str(manual)]) == 0
    assert main(["korse", "--graph", str(manual / "ccn.tsv"), "--out", str(manual)]) == 0
    assert main(["interplay", "--graph", str(manual / "ccn.tsv"),
                 "--partition", str(manual / "partition.tsv"),
                 "--seed", "1", "--out", str(manual)]) == 0
    assert main(["features"] + dataset_args(synth_dir) +
                ["--partition", str(manual / "partition.tsv"),
                 "--dim", "16", "--seed", "1", "--out", str(manual)]) == 0
    for name in ("ccn.tsv", "ccn.tsv.nodes", "stats.txt", "coreness_weighted.tsv",
                 "partition.tsv", "sweep_beta_1.csv", "communities.csv",
                 "interplay_seed1.csv", "correlations.txt", "features.csv"):
        assert (pipe / name).read_bytes() == (manual / name).read_bytes(), name


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


def write(path, content) -> str:
    if isinstance(content, str):
        content = content.encode("utf-8")
    path.write_bytes(content)
    return str(path)


def npz_bytes(tmp_path, **arrays) -> bytes:
    path = tmp_path / "scratch.npz"
    np.savez(path, **arrays)
    return path.read_bytes()


def write_all_embeddings(data_dir, path, dim) -> str:
    """Embeddings of every comment text and video text of a dataset."""
    dataset = ingest(data_dir / "comments.jsonl", data_dir / "videos.jsonl",
                     data_dir / "users.jsonl")
    texts = [c.text for c in dataset.comments]
    texts += [" ".join((v.title, v.description, v.genre)) for v in dataset.videos]
    write_embedding_file(path, texts, HashEmbedder(dim=dim, seed=0))
    return str(path)


# id: (argv before --out over the fixture paths, fails before --out is created)
REJECTED = {
    "pipeline-beta": (lambda p: ["pipeline", *p.data, "--beta", "-1"], True),
    "pipeline-step": (lambda p: ["pipeline", *p.data, "--step", "0.5"], True),
    "breakage-subnormal-step": (
        lambda p: ["breakage", "--graph", p.graph, "--step", "5e-324"], True),
    "pipeline-epochs": (lambda p: ["pipeline", *p.data, "--epochs", "0"], True),
    "pipeline-folds": (lambda p: ["pipeline", *p.data, "--folds", "1"], True),
    "nurse-train-batch-size": (
        lambda p: ["nurse-train", "--features", p.features, "--batch-size", "0"], True),
    "ablate-folds": (lambda p: ["ablate", "--features", p.features, "--folds", "0"], True),
    "features-dim": (lambda p: ["features", *p.data, "--dim", "0"], True),
    "features-pair-cap": (lambda p: ["features", *p.data, "--pair-cap", "-5"], True),
    "baseline-wbc-k": (lambda p: ["baseline-wbc", "--graph", p.graph, "--k", "-1"], True),
    "nurse-eval-garbage-model": (
        lambda p: ["nurse-eval", "--model", write(p.tmp / "model.npz", "garbage"),
                   "--features", p.features], True),
    "nurse-eval-model-without-meta": (
        lambda p: ["nurse-eval", "--features", p.features, "--model",
                   write(p.tmp / "model.npz", npz_bytes(p.tmp, x=np.zeros(2)))], True),
    "pipeline-labels": (
        lambda p: ["pipeline", *p.data, "--labels", write(p.tmp / "labels.tsv", "u1 core\n")],
        True),
    "config-unknown-key": (
        lambda p: ["--config", write(p.tmp / "run.cfg", "bogus=3\n"),
                   "nurse-train", "--features", p.features], True),
    "features-embedding-missing": (
        lambda p: ["features", *p.data, "--provider", "file", "--embeddings",
                   write(p.tmp / "emb.txt", f"dim=2\n{text_key('unused')}\t0.5,0.5\n")],
        False),
    "pipeline-impossible-stratification": (
        lambda p: ["pipeline", *p.data, "--dim", "8", "--folds", "500"], False),
    "ablate-impossible-stratification": (
        lambda p: ["ablate", "--features", p.features, "--folds", "500"], False),
    "nurse-train-learning-rate-nan": (
        lambda p: ["nurse-train", "--features", p.features, "--learning-rate", "nan"], True),
    "nurse-train-learning-rate-inf": (
        lambda p: ["nurse-train", "--features", p.features, "--learning-rate", "inf"], True),
    "nurse-train-momentum-nan": (
        lambda p: ["nurse-train", "--features", p.features, "--momentum", "nan"], True),
    "config-learning-rate-inf": (
        lambda p: ["--config", write(p.tmp / "run.cfg", "learning_rate=inf\n"),
                   "nurse-train", "--features", p.features], True),
    "config-momentum-nan": (
        lambda p: ["--config", write(p.tmp / "run.cfg", "momentum=nan\n"),
                   "nurse-train", "--features", p.features], True),
    "config-repeated-key": (
        lambda p: ["--config", write(p.tmp / "run.cfg", "epochs=2\nepochs=3\n"),
                   "nurse-train", "--features", p.features], True),
    "pipeline-repeated-label": (
        lambda p: ["pipeline", *p.data, "--labels",
                   write(p.tmp / "labels.tsv", "u1\tcore\nu1\tcompromised\n")], True),
    "korse-repeated-edge": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t3\na\tb\t7\n")],
        True),
    "korse-reversed-repeated-edge": (
        lambda p: ["korse", "--graph", write(p.tmp / "ccn.tsv", "# ccn v1\na\tb\t3\nb\ta\t7\n")],
        True),
    "features-repeated-embedding": (
        lambda p: ["features", *p.data, "--provider", "file", "--embeddings",
                   write(p.tmp / "emb.txt", f"dim=2\n{text_key('a')}\t0.5,0.5\n"
                                            f"{text_key('a')}\t0.1,0.2\n")], True),
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
    "pipeline-repeated-label": "labels.tsv:2: user 'u1' listed twice",
    "korse-repeated-edge": "ccn.tsv:3: edge (a, b) listed twice",
    "korse-reversed-repeated-edge": "ccn.tsv:3: edge (b, a) listed twice",
    "features-repeated-embedding": f"emb.txt:3: hash '{text_key('a')}' listed twice",
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_exits_3(case, synth_dir, ccn_dir, features_dir, tmp_path, capsys):
    argv, before_out = REJECTED[case]
    paths = type("Paths", (), dict(data=dataset_args(synth_dir), graph=str(ccn_dir / "ccn.tsv"),
                                  features=str(features_dir / "features.csv"), tmp=tmp_path))
    out = tmp_path / "out"
    assert main(argv(paths) + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal" not in err
    if before_out:
        assert not out.exists()
    assert REJECTED_MESSAGE.get(case, "") in err


def test_manifest_hashes_embeddings_file(synth_dir, tmp_path):
    emb = write_all_embeddings(synth_dir, tmp_path / "emb.txt", dim=4)
    out = tmp_path / "out"
    assert main(["features"] + dataset_args(synth_dir) +
                ["--provider", "file", "--embeddings", emb, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    digest = hashlib.sha256((tmp_path / "emb.txt").read_bytes()).hexdigest()
    assert manifest["inputs"][emb] == digest


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
        "graph": d / "ccn" / "ccn.tsv",
        "partition": d / "korse" / "partition.tsv",
        "features": d / "features" / "features.csv",
        "labels": data / "labels.tsv",
        "model": d / "model" / "model.npz",
        "embeddings": write_all_embeddings(data, d / "emb.txt", dim=4),
        "config": write(d / "run.cfg", "seed=3\nepochs=2\n"),
    }
    files = {kind: str(path) for kind, path in paths.items()}
    files["data"] = dataset_args(data)
    files["valid"] = {kind: Path(path).read_bytes() for kind, path in paths.items()}
    files["dir"] = d
    return files


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
    ("embeddings", lambda v, f: ["features", *v["data"], "--provider", "file",
                                 "--embeddings", f]),
    ("config", lambda v, f: ["--config", f, "kcore", "--graph", v["graph"]]),
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
