#!/usr/bin/env python3
"""Benchmark of the collusioncore CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. The benchmark generates the workload's inputs from ``--seed``
(see ``perfbench/inputs.py``), then:

- ``--trace 0`` times ``collusioncore ingest-check`` on the inputs
  (``setup_s``, median of :data:`SETUP_REPS` fresh processes) and then the
  workload's CLI job, one fresh process per command, repeated until
  ``--seconds`` have passed (at least once). It reports the end-to-end
  metrics: median job wall time, median set-up time, median peak RSS of the
  job's processes and ``quality`` (the smaller of the planted-core F1 and
  the classifier AUC, of those the workload computes).
- ``--trace 1`` runs the set-up command and the job once, in one process
  through ``collusioncore.cli.main``, with every public function of each
  layer wrapped (``perfbench/tracer.py``), and reports per-layer metrics.

Every run checks the job's outputs (``perfbench/checks.py``); a nonzero exit
or a failed check counts in ``failed``. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Child processes run with BLAS/OpenMP threads pinned to 1 and a fixed hash
seed; outputs go to ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import checks, inputs  # noqa: E402

SETUP_REPS = 3
TIMELINE_EPOCHS = 10
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS")}
DATA = ["--comments", "data/comments.jsonl", "--videos", "data/videos.jsonl",
        "--users", "data/users.jsonl"]


# ---------------------------------------------------------------------------
# Workloads: inputs, CLI job, output checks
# ---------------------------------------------------------------------------

def quickstart_job():
    return [["pipeline", *DATA, "--dim", "64", "--labels", "data/labels.tsv", "--out", "out"]]


def quickstart_check(log, seed):
    _, roles = checks.read_partition("out/partition.tsv")
    results = [
        checks.ccn_weights(log, "out/ccn.tsv"),
        checks.partition_threshold("out/partition.tsv", "out/coreness_weighted.tsv"),
        checks.communities_cover(log, "out/partition.tsv", "out/communities.csv"),
        checks.features_reference(log, roles, "out/features.csv", 64, seed),
        checks.eval_consistency("out/eval.csv"),
    ]
    scores = {"core_f1": checks.core_f1(log, "out/partition.tsv"),
              "nurse_auc": checks.mean_auc("out/eval.csv")}
    return results, scores


GRAPH = "out/ccn/ccn.tsv"
PARTITION = "out/korse/partition.tsv"


def paper_graph_job():
    return [
        ["build-ccn", *DATA, "--out", "out/ccn"],
        ["kcore", "--graph", GRAPH, "--mode", "weighted", "--out", "out/kcore-weighted"],
        ["kcore", "--graph", GRAPH, "--mode", "unweighted", "--out", "out/kcore-unweighted"],
        ["korse", "--graph", GRAPH, "--out", "out/korse"],
        ["breakage", "--graph", GRAPH, "--out", "out/breakage"],
        ["communities", "--graph", GRAPH, "--partition", PARTITION, "--out", "out/communities"],
        ["interplay", "--graph", GRAPH, "--partition", PARTITION, "--out", "out/interplay"],
    ]


def paper_graph_check(log, seed):
    results = [
        checks.ccn_weights(log, GRAPH),
        checks.partition_threshold(PARTITION, "out/kcore-weighted/coreness_weighted.tsv"),
        checks.communities_cover(log, PARTITION, "out/communities/communities.csv"),
        checks.communities_cover(log, PARTITION, "out/interplay/communities.csv"),
    ]
    return results, {"core_f1": checks.core_f1(log, PARTITION)}


def timeline_prepare(log, seed):
    train, held = inputs.split(log.labels, seed)
    inputs.write_partition(log.labels, train, "data/train.tsv")
    inputs.write_partition(log.labels, held, "data/heldout.tsv")


def timeline_job():
    return [
        ["features", *DATA, "--partition", "data/train.tsv", "--dim", "768", "--out", "out/train"],
        ["features", *DATA, "--partition", "data/heldout.tsv", "--dim", "768", "--out", "out/heldout"],
        ["nurse-train", "--features", "out/train/features.csv",
         "--epochs", str(TIMELINE_EPOCHS), "--out", "out/model"],
        ["nurse-eval", "--model", "out/model/model.npz", "--features",
         "out/heldout/features.csv", "--mode", "complete", "--out", "out/eval"],
    ]


def timeline_check(log, seed):
    results = []
    for split in ("train", "heldout"):
        roles = checks.read_tsv(f"data/{split}.tsv")
        results.append(checks.features_reference(log, roles, f"out/{split}/features.csv", 768, seed))
    results.append(checks.ranking_reference("out/model/model.npz", "out/heldout/features.csv",
                                            "out/eval/ranking.tsv", "out/eval/eval.csv"))
    return results, {"nurse_auc": checks.mean_auc("out/eval/eval.csv")}


WORKLOADS = {
    "quickstart": (inputs.quickstart, None, quickstart_job, quickstart_check),
    "paper-graph": (inputs.paper_graph, None, paper_graph_job, paper_graph_check),
    "timeline-768": (inputs.timeline, timeline_prepare, timeline_job, timeline_check),
}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env(pythonpath) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), PYTHONHASHSEED="0")
    env.update(THREADS)
    return env


def run_process(argv, env, log_path):
    """(exit code, wall seconds, CPU seconds, peak RSS MiB) of one fresh process."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_checks(check, log, seed):
    """Check results, or one failed result if the outputs cannot be read."""
    try:
        return check(log, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [("outputs_readable", False, f"{type(exc).__name__}: {exc}")], {}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "threads": THREADS,
            "hash_seed": "0"}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def timed_run(name, log, seed, seconds, env):
    _, _, job, check = WORKLOADS[name]
    cli = [sys.executable, "-m", "collusioncore.cli"]
    attempted = failed = 0
    setups = []
    for _ in range(SETUP_REPS):
        code, wall, _, _ = run_process(cli + ["ingest-check", *DATA], env, "setup.log")
        setups.append(wall)
        attempted += 1
        failed += code != 0
    walls, cpus, peaks, scores = [], [], [], {}
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        shutil.rmtree("out", ignore_errors=True)
        wall = cpu = peak = 0.0
        for argv in job():
            code, took, used, rss = run_process(cli + argv, env, "job.log")
            wall += took
            cpu += used
            peak = max(peak, rss)
            attempted += 1
            failed += code != 0
        walls.append(wall)
        cpus.append(cpu)
        peaks.append(peak)
        results, scores = run_checks(check, log, seed)
        for check_name, ok, detail in results:
            print(f"check {check_name}: {'ok' if ok else 'FAILED'} ({detail})")
        attempted += len(results)
        failed += sum(1 for _, ok, _ in results if not ok)
    quality = min(scores.values()) if scores else 0.0
    for metric, values, unit in (("wall_s", walls, "s"), ("job cpu_s", cpus, "s"), ("setup_s", setups, "s"),
                                 ("peak_rss_mb", peaks, "MiB")):
        q1, q3 = quartiles(values)
        print(f"{name} {metric}: median {statistics.median(values):.4f} {unit}, "
              f"quartiles {q1:.4f}..{q3:.4f}, max {max(values):.4f}, n={len(values)}")
    for score, value in sorted(scores.items()):
        print(f"{name} {score}: {value!r} ratio")
    print(f"{name} failed_frac: {failed / attempted!r} ratio ({failed} of {attempted})")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
        "quality": (quality, "ratio"),
    }
    return attempted, failed, metrics


METRIC_OF = {
    "records.ingest": "records.ingest_s",
    "records.validate": "records.validate_s",
    "graph.build_ccn": "graph.build_ccn_s",
    "graph.graph_stats": "graph.stats_s",
    "graph.write_edgelist": "graph.io_s",
    "graph.read_edgelist": "graph.io_s",
    "kcore.coreness": "kcore.coreness_s",
    "korse.korse": "korse.sweep_s",
    "analysis.removal_curve": "analysis.removal_s",
    "analysis.louvain": "analysis.louvain_s",
    "analysis.interplay_table": "analysis.interplay_s",
    "analysis.case_study_report": "analysis.case_study_s",
    "embeddings.HashEmbedder.embed_text": "embeddings.embed_s",
    "embeddings.FileEmbedder.embed_text": "embeddings.embed_s",
    "features.extract_all": "features.extract_s",
    "features.write_features": "features.io_s",
    "features.read_features": "features.io_s",
    "nurse.train": "nurse.train_s",
    "nurse.evaluate": "nurse.evaluate_s",
    "nurse.ablations": "nurse.evaluate_s",
    "nurse.predict_proba": "nurse.predict_s",
    "nurse.forward": "nurse.predict_s",
    "nurse.loss": "nurse.predict_s",
    "centrality.weighted_betweenness": "centrality.wbc_s",
}


def layer_metrics(trace, bytes_written) -> dict:
    """Per-layer metrics from the spans of one traced run.

    A span's self time is its duration minus that of its child spans. It is
    credited to the span's own metric or, failing that, to the nearest
    enclosing span of the same layer that has one.
    """
    spans = trace["spans"]
    child = [0.0] * len(spans)
    owner = []
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
        metric = METRIC_OF.get(name)
        if metric is None and parent >= 0 and spans[parent][0].split(".")[0] == name.split(".")[0]:
            metric = owner[parent]
        owner.append(metric)
    times = Counter()
    inclusive = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        if owner[i]:
            times[owner[i]] += end - start - child[i]
        inclusive[name] += end - start
    calls = Counter(name for name, *_ in spans)
    values, counts = trace["values"], trace["counts"]
    embed_calls = calls["embeddings.HashEmbedder.embed_text"] + calls["embeddings.FileEmbedder.embed_text"]
    top_level = sum(end - start for _, start, end, parent in spans if parent < 0)
    rate = lambda work, seconds: work / seconds if seconds > 0 else 0.0  # noqa: E731
    metrics = {name: (float(times[name]), "s") for name in sorted(set(METRIC_OF.values()))}
    metrics.update({
        "records.comments": (values.get("comments", 0), "count"),
        "graph.nodes": (values.get("nodes", 0), "count"),
        "graph.edges": (values.get("edges", 0), "count"),
        "graph.lcc_nodes": (values.get("lcc_nodes", 0), "count"),
        "kcore.calls": (calls["kcore.coreness"], "count"),
        "korse.calls": (calls["korse.korse"], "count"),
        "korse.thresholds": (values.get("thresholds", 0), "count"),
        "analysis.checkpoints": (values.get("checkpoints", 0), "count"),
        "analysis.louvain_calls": (calls["analysis.louvain"], "count"),
        "embeddings.embed_calls": (embed_calls, "count"),
        "embeddings.distinct_texts": (trace["distinct_texts"], "count"),
        "embeddings.reuse_ratio": (1.0 - trace["distinct_texts"] / embed_calls if embed_calls else 0.0, "ratio"),
        "embeddings.cosine_calls": (counts.get("embeddings.cosine", 0), "count"),
        "features.users": (values.get("users", 0), "count"),
        "nurse.models": (calls["nurse.train"], "count"),
        "nurse.example_epochs": (values.get("example_epochs", 0), "count"),
        "nurse.example_epochs_per_s": (rate(values.get("example_epochs", 0), inclusive["nurse.train"]), "1/s"),
        "centrality.sources_per_s": (rate(values.get("sources", 0), inclusive["centrality.weighted_betweenness"]), "1/s"),
        "cli.self_s": (trace["wall_s"] - top_level, "s"),
        "cli.cpu_s": (trace["cpu_s"], "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "trace.overhead_s": (trace["wrapper_cost_s"] * (len(spans) + sum(counts.values())), "s"),
    })
    return metrics


def traced_run(name, log, seed, env):
    _, _, job, check = WORKLOADS[name]
    plan = {"cwd": os.getcwd(), "spans": "spans.json",
            "commands": [["ingest-check", *DATA]] + job()}
    Path("plan.json").write_text(json.dumps(plan), encoding="utf-8")
    code, _, _, _ = run_process([sys.executable, "-m", "perfbench.tracer", "plan.json"], env, "trace.log")
    trace = json.loads(Path("spans.json").read_text(encoding="utf-8")) if code == 0 else None
    codes = trace["codes"] if trace else [code]
    attempted, failed = len(codes), sum(1 for c in codes if c != 0)
    results, _ = run_checks(check, log, seed)
    for check_name, ok, detail in results:
        print(f"check {check_name}: {'ok' if ok else 'FAILED'} ({detail})")
    attempted += len(results)
    failed += sum(1 for _, ok, _ in results if not ok)
    if trace is None:
        return attempted, failed, {}
    written = sum(p.stat().st_size for p in Path("out").rglob("*") if p.is_file())
    metrics = layer_metrics(trace, written)
    print(f"{name} traced wall {trace['wall_s']:.4f} s over {len(trace['spans'])} spans")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "collusioncore" / "cli.py").is_file():
        print(f"error: no collusioncore sources under {src}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)

    generate, prepare, _, _ = WORKLOADS[args.workload]
    log = generate(args.seed)
    digests = inputs.write_log(log, "data")
    if prepare:
        prepare(log, args.seed)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "shape": inputs.shape(log), "sha256": digests}))

    if args.trace:
        env = child_env([str(src), str(ROOT)])
        attempted, failed, metrics = traced_run(args.workload, log, args.seed, env)
    else:
        env = child_env([str(src)])
        attempted, failed, metrics = timed_run(args.workload, log, args.seed, args.seconds, env)
    if not metrics:
        print("error: the traced run did not finish", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
