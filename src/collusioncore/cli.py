"""Command-line pipeline: ingest, build, decompose, analyze, train, report.

Every subcommand reads and writes the documented file formats, writes a
``manifest.json`` next to its outputs, and exits with: 0 ok, 2 usage,
3 missing or malformed input, 4 data validation failure, 5 internal error.
A flat ``key=value`` config file can supply tunable settings; command-line
flags win over the config file.

All randomness flows from one ``--seed`` (default 7). Stages derive from
it deterministically: the generator and the stub embedder use it directly,
community detection runs at seed, seed+1 and seed+2, and fold models train
at seed + 7919 * (fold + 1). The derivations are recorded per run in the
manifest.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    ORDER_KEYS,
    case_study_report,
    disintegration_fraction,
    interplay_table,
    louvain,
    pearson,
    periphery_largest_component,
    removal_curve,
    write_case_study,
    write_communities,
    write_interplay,
    write_removal_curve,
    write_removal_curve_long,
)
from .centrality import weighted_betweenness
from .embeddings import FileEmbedder, HashEmbedder
from .features import extract_all, read_features, write_features
from .graph import build_ccn, format_stats, graph_stats, read_edgelist, write_edgelist
from .kcore import MODES, coreness, write_coreness
from .korse import WicciParams, korse, read_partition, write_partition, write_sweep
from .nurse import (
    CORE,
    NurseConfig,
    ablations,
    auc,
    evaluate,
    load_model,
    loss,
    predict_proba,
    rank_users,
    save_model,
    train,
    write_eval_report,
    write_method_curves,
    _fold_metrics,
)
from .records import IngestError, ingest, validate, write_dataset
from .synth import SynthConfig, generate, read_labels, write_labels, write_meta

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_VALIDATION = 4
EXIT_INTERNAL = 5


class InputError(Exception):
    """Missing or malformed input; maps to exit code 3."""


class ValidationError(Exception):
    """Referential-integrity failure; maps to exit code 4."""


# Tunable settings; a config file may provide any of them, flags win.
TUNABLE_DEFAULTS = {
    "seed": 7,
    "beta": 1.0,
    "step": 0.05,
    "dim": 768,
    "pair_cap": 200,
    "epochs": 300,
    "learning_rate": 0.01,
    "momentum": 0.9,
    "batch_size": 32,
    "folds": 10,
    "threshold_k": 0,
}


def _read_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    values = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _setting(args, name: str):
    """Flag value if given, else config file value, else built-in default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    config = getattr(args, "_config_values", {})
    default = TUNABLE_DEFAULTS[name]
    if name in config:
        try:
            return type(default)(config[name])
        except ValueError:
            raise InputError(
                f"config: {name}={config[name]!r} is not a valid {type(default).__name__}"
            ) from None
    return default


def _sha256(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, command, args, inputs, outputs, seeds, settings=None) -> None:
    manifest = {
        "command": command,
        "args": {
            k: v for k, v in sorted(vars(args).items())
            if not k.startswith("_") and k != "func" and v is not None
        },
        "inputs": {str(p): _sha256(p) for p in inputs if Path(p).exists()},
        "outputs": sorted(str(o) for o in outputs),
        "seeds": seeds,
        "settings": settings or {},
        "version": __version__,
    }
    with (Path(out_dir) / "manifest.json").open("w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(args):
    for name in ("comments", "videos", "users"):
        path = getattr(args, name)
        if not Path(path).exists():
            raise InputError(f"missing input file: {path}")
    try:
        return ingest(args.comments, args.videos, args.users)
    except IngestError as exc:
        raise InputError(str(exc)) from None


def _load_graph(path):
    if not Path(path).exists():
        raise InputError(f"missing graph file: {path}")
    try:
        return read_edgelist(path)
    except (ValueError, OSError) as exc:
        raise InputError(str(exc)) from None


def _load_partition(path):
    if not Path(path).exists():
        raise InputError(f"missing partition file: {path}")
    try:
        return read_partition(path)
    except (ValueError, OSError) as exc:
        raise InputError(str(exc)) from None


def _load_features(path):
    if not path or not Path(path).exists():
        raise InputError(f"missing features file: {path}")
    try:
        return read_features(path)
    except (ValueError, OSError) as exc:
        raise InputError(str(exc)) from None


def _provider(args, seed):
    dim = _setting(args, "dim")
    if getattr(args, "provider", "stub") == "file":
        if not getattr(args, "embeddings", None):
            raise InputError("--embeddings is required with --provider file")
        if not Path(args.embeddings).exists():
            raise InputError(f"missing embeddings file: {args.embeddings}")
        try:
            return FileEmbedder.load(args.embeddings)
        except (ValueError, OSError) as exc:
            raise InputError(str(exc)) from None
    return HashEmbedder(dim=dim, seed=seed)


def _nurse_config(args, dim, seed) -> NurseConfig:
    return NurseConfig(
        embedding_dim=dim,
        learning_rate=_setting(args, "learning_rate"),
        momentum=_setting(args, "momentum"),
        epochs=_setting(args, "epochs"),
        batch_size=_setting(args, "batch_size"),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Subcommand implementations (shared by `pipeline`)
# ---------------------------------------------------------------------------

def _do_build_ccn(dataset, collusive_only, out):
    problems = validate(dataset)
    if problems:
        raise ValidationError("; ".join(problems[:5]) + (" ..." if len(problems) > 5 else ""))
    graph = build_ccn(dataset, collusive_only=collusive_only)
    write_edgelist(graph, out / "ccn.tsv")
    (out / "stats.txt").write_text(format_stats(graph_stats(graph)), encoding="utf-8")
    return graph, ["ccn.tsv", "ccn.tsv.nodes", "stats.txt"]


def _do_kcore(graph, mode, out):
    cm = coreness(graph, mode)
    name = f"coreness_{mode}.tsv"
    write_coreness(cm, out / name)
    return cm, [name]


def _do_korse(graph, beta, out):
    partition = korse(graph, WicciParams(beta=beta))
    write_partition(partition, graph, out / "partition.tsv")
    outputs = ["partition.tsv"]
    for b in sorted({0.5, 1.0, 2.0} | {beta}):
        sweep = partition if b == beta else korse(graph, WicciParams(beta=b))
        name = f"sweep_beta_{b:g}.csv"
        write_sweep(sweep, out / name)
        outputs.append(name)
    return partition, outputs


def _do_breakage(graph, keys, step, out):
    outputs = []
    summary = []
    for key in keys:
        curve = removal_curve(graph, key, step)
        write_removal_curve(curve, out / f"breakage_{key}.csv")
        write_removal_curve_long(curve, out / f"breakage_{key}_long.csv")
        outputs += [f"breakage_{key}.csv", f"breakage_{key}_long.csv"]
        frac = disintegration_fraction(curve)
        summary.append(f"{key}={'none' if frac is None else repr(frac)}")
    (out / "disintegration.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    outputs.append("disintegration.txt")
    return outputs


def _do_communities(graph, partition, seed, out):
    sub = periphery_largest_component(graph, partition)
    communities = louvain(sub, seed=seed)
    write_communities(communities, out / "communities.csv")
    return communities, ["communities.csv"]


def _do_interplay(graph, partition, seed, out):
    """Interaction tables over several community runs, pooled correlations.

    Returns the communities of the first run (at ``seed``) and the outputs.
    """
    sub = periphery_largest_component(graph, partition)
    outputs = []
    pooled = []
    for offset in range(3):
        communities = louvain(sub, seed=seed + offset)
        if offset == 0:
            first = communities
            write_communities(communities, out / "communities.csv")
            outputs.append("communities.csv")
        rows = interplay_table(graph, partition, communities)
        name = f"interplay_seed{seed + offset}.csv"
        write_interplay(rows, out / name)
        outputs.append(name)
        pooled += rows
    large = [r for r in pooled if not r.small]
    chosen = large if len(large) >= 2 else pooled
    lines = []
    for metric in ("avg_weighted_degree", "weighted_size"):
        xs = [r.wcs for r in chosen]
        ys = [getattr(r, metric) for r in chosen]
        try:
            lines.append(f"wcs_vs_{metric}={pearson(xs, ys)!r}")
        except ValueError as exc:
            lines.append(f"wcs_vs_{metric}=undefined ({exc})")
    (out / "correlations.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs.append("correlations.txt")
    return first, outputs


def _do_features(dataset, partition, provider, pair_cap, out):
    feats = extract_all(dataset, partition=partition, provider=provider, pair_cap=pair_cap)
    write_features(feats, out / "features.csv")
    return feats, ["features.csv"]


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def cmd_ingest_check(args):
    dataset = _load_dataset(args)
    problems = validate(dataset)
    report = [
        f"users={len(dataset.users)}",
        f"videos={len(dataset.videos)}",
        f"comments={len(dataset.comments)}",
        f"violations={len(problems)}",
    ] + problems
    text = "\n".join(report) + "\n"
    if args.out:
        out = _out_dir(args)
        (out / "ingest_check.txt").write_text(text, encoding="utf-8")
        _write_manifest(out, "ingest-check", args,
                        [args.comments, args.videos, args.users],
                        ["ingest_check.txt"], {})
    sys.stdout.write(text)
    if problems:
        raise ValidationError(f"{len(problems)} referential-integrity violations")
    return EXIT_OK


def cmd_build_ccn(args):
    dataset = _load_dataset(args)
    out = _out_dir(args)
    _, outputs = _do_build_ccn(dataset, not args.all_videos, out)
    _write_manifest(out, "build-ccn", args,
                    [args.comments, args.videos, args.users], outputs, {})
    return EXIT_OK


def cmd_kcore(args):
    graph = _load_graph(args.graph)
    out = _out_dir(args)
    _, outputs = _do_kcore(graph, args.mode, out)
    _write_manifest(out, "kcore", args, [args.graph], outputs, {})
    return EXIT_OK


def cmd_korse(args):
    graph = _load_graph(args.graph)
    if graph.n_edges == 0:
        raise InputError("graph has no edges; cannot sweep")
    beta = _setting(args, "beta")
    if beta <= 0:
        raise InputError("beta must be > 0")
    out = _out_dir(args)
    _, outputs = _do_korse(graph, beta, out)
    _write_manifest(out, "korse", args, [args.graph], outputs, {})
    return EXIT_OK


def cmd_breakage(args):
    graph = _load_graph(args.graph)
    keys = ORDER_KEYS if args.order_key == "all" else (args.order_key,)
    step = _setting(args, "step")
    if not 0 < step <= 0.05:
        raise InputError("step must be in (0, 0.05]")
    out = _out_dir(args)
    outputs = _do_breakage(graph, keys, step, out)
    _write_manifest(out, "breakage", args, [args.graph], outputs, {})
    return EXIT_OK


def cmd_communities(args):
    graph = _load_graph(args.graph)
    partition = _load_partition(args.partition)
    seed = _setting(args, "seed")
    out = _out_dir(args)
    _, outputs = _do_communities(graph, partition, seed, out)
    _write_manifest(out, "communities", args, [args.graph, args.partition],
                    outputs, {"louvain": seed})
    return EXIT_OK


def cmd_interplay(args):
    graph = _load_graph(args.graph)
    partition = _load_partition(args.partition)
    seed = _setting(args, "seed")
    out = _out_dir(args)
    _, outputs = _do_interplay(graph, partition, seed, out)
    _write_manifest(out, "interplay", args, [args.graph, args.partition],
                    outputs, {"louvain": seed})
    return EXIT_OK


def cmd_case_study(args):
    dataset = _load_dataset(args)
    partition = _load_partition(args.partition)
    out = _out_dir(args)
    report = case_study_report(dataset, partition)
    write_case_study(report, out / "case_study.txt")
    _write_manifest(out, "case-study", args,
                    [args.comments, args.videos, args.users, args.partition],
                    ["case_study.txt"], {})
    return EXIT_OK


def cmd_features(args):
    dataset = _load_dataset(args)
    partition = _load_partition(args.partition) if args.partition else None
    seed = _setting(args, "seed")
    provider = _provider(args, seed)
    out = _out_dir(args)
    pair_cap = _setting(args, "pair_cap")
    _, outputs = _do_features(dataset, partition, provider, pair_cap, out)
    inputs = [args.comments, args.videos, args.users]
    if args.partition:
        inputs.append(args.partition)
    _write_manifest(out, "features", args, inputs, outputs, {"embedder": seed},
                    settings={"pair_cap": pair_cap, "dim": provider.dim})
    return EXIT_OK


def cmd_nurse_train(args):
    feats = _load_features(args.features)
    labeled = [f for f in feats if f.label]
    if not labeled:
        raise InputError("features file has no labeled rows")
    seed = _setting(args, "seed")
    config = _nurse_config(args, dim=len(labeled[0].tfe), seed=seed)
    model = train(labeled, config)
    out = _out_dir(args)
    save_model(model, out / "model.npz")
    (out / "train_report.txt").write_text(
        f"examples={len(labeled)}\nfinal_loss={loss(model, labeled)!r}\n", encoding="utf-8"
    )
    _write_manifest(out, "nurse-train", args, [args.features],
                    ["model.npz", "train_report.txt"], {"train": seed})
    return EXIT_OK


def cmd_nurse_eval(args):
    if not args.model:
        raise InputError("a trained model is required (--model)")
    if not Path(args.model).exists():
        raise InputError(f"missing model file: {args.model}")
    feats = _load_features(args.features)
    model = load_model(args.model)
    feats = sorted(
        (f for f in feats if f.label),
        key=lambda f: f.user_id,
    )
    if not feats:
        raise InputError("features file has no labeled rows")
    seed = _setting(args, "seed")
    if args.mode == "balanced":
        import numpy as np

        rng = np.random.default_rng(seed)
        core = [f for f in feats if f.label == "core"]
        comp = [f for f in feats if f.label == "compromised"]
        target = min(len(core), len(comp))
        if len(core) > target:
            core = [core[i] for i in sorted(rng.choice(len(core), target, replace=False))]
        if len(comp) > target:
            comp = [comp[i] for i in sorted(rng.choice(len(comp), target, replace=False))]
        feats = sorted(core + comp, key=lambda f: f.user_id)
    probs = predict_proba(model, feats)
    scored = [(f.user_id, float(probs[i, CORE]), f.label) for i, f in enumerate(feats)]
    metrics = _fold_metrics(0, scored)
    out = _out_dir(args)
    with (out / "eval.csv").open("w", encoding="utf-8") as handle:
        handle.write("fold,k,precision,recall,f1,auc\n")
        for k in range(1, metrics.n + 1):
            handle.write(
                f"0,{k},{metrics.precision_at[k - 1]!r},{metrics.recall_at[k - 1]!r},"
                f"{metrics.f1_at[k - 1]!r},{metrics.auc!r}\n"
            )
        handle.write(
            f"mean,breakeven,{metrics.break_even_precision!r},"
            f"{metrics.break_even_recall!r},{metrics.break_even_f1!r},{metrics.auc!r}\n"
        )
    ranked = rank_users(scored)
    with (out / "ranking.tsv").open("w", encoding="utf-8") as handle:
        for user, score, label in ranked:
            handle.write(f"{user}\t{score!r}\t{label}\n")
    _write_manifest(out, "nurse-eval", args, [args.model, args.features],
                    ["eval.csv", "ranking.tsv"], {"sampling": seed})
    return EXIT_OK


def cmd_ablate(args):
    feats = [f for f in _load_features(args.features) if f.label]
    if not feats:
        raise InputError("features file has no labeled rows")
    seed = _setting(args, "seed")
    folds = _setting(args, "folds")
    config = _nurse_config(args, dim=len(feats[0].tfe), seed=seed)
    mode = "balanced_1to1" if args.mode == "balanced" else "complete"
    reports = ablations(feats, config, mode=mode, folds=folds, seed=seed)
    out = _out_dir(args)
    outputs = []
    with (out / "ablation_summary.csv").open("w", encoding="utf-8") as handle:
        handle.write("method,mean_f1_breakeven,mean_auc\n")
        for name in sorted(reports):
            r = reports[name]
            handle.write(f"{name},{r.mean_break_even_f1!r},{r.mean_auc!r}\n")
    outputs.append("ablation_summary.csv")
    write_method_curves(reports, out / "curves_f1.csv", out / "curves_auc.csv")
    outputs += ["curves_f1.csv", "curves_auc.csv"]
    for name, report in reports.items():
        fname = f"eval_{name.replace('+', '_')}.csv"
        write_eval_report(report, out / fname)
        outputs.append(fname)
    _write_manifest(out, "ablate", args, [args.features], outputs,
                    {"cv": seed, "folds": folds})
    return EXIT_OK


def cmd_baseline_wbc(args):
    graph = _load_graph(args.graph)
    out = _out_dir(args)
    scores = weighted_betweenness(graph)
    ranked = sorted(scores, key=lambda n: (-scores[n], n))
    k = _setting(args, "threshold_k")
    if k:
        ranked = ranked[:k]
    with (out / "wbc_ranking.tsv").open("w", encoding="utf-8") as handle:
        for rank, node in enumerate(ranked, start=1):
            handle.write(f"{rank}\t{node}\t{scores[node]!r}\n")
    _write_manifest(out, "baseline-wbc", args, [args.graph], ["wbc_ranking.tsv"], {})
    return EXIT_OK


def cmd_synth(args):
    seed = _setting(args, "seed")
    config = SynthConfig(
        n_core=args.n_core,
        n_compromised=args.n_compromised,
        n_videos=args.n_videos,
        peripheral_community_count=args.communities,
        seed=seed,
    )
    try:
        dataset, labels = generate(config)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    out = _out_dir(args)
    write_dataset(dataset, out / "comments.jsonl", out / "videos.jsonl", out / "users.jsonl")
    write_labels(labels, out / "labels.tsv")
    write_meta(config, out / "synth_meta")
    _write_manifest(out, "synth", args, [],
                    ["comments.jsonl", "videos.jsonl", "users.jsonl", "labels.tsv", "synth_meta"],
                    {"generator": seed})
    return EXIT_OK


def cmd_pipeline(args):
    dataset = _load_dataset(args)
    seed = _setting(args, "seed")
    out = _out_dir(args)
    outputs = []

    graph, produced = _do_build_ccn(dataset, not args.all_videos, out)
    outputs += produced
    if graph.n_edges == 0:
        raise ValidationError("built graph has no edges; pipeline cannot continue")
    for mode in MODES:
        _, produced = _do_kcore(graph, mode, out)
        outputs += produced
    partition, produced = _do_korse(graph, _setting(args, "beta"), out)
    outputs += produced
    outputs += _do_breakage(graph, ORDER_KEYS, _setting(args, "step"), out)
    communities, produced = _do_interplay(graph, partition, seed, out)
    outputs += produced
    report = case_study_report(dataset, partition)
    write_case_study(report, out / "case_study.txt")
    outputs.append("case_study.txt")

    provider = _provider(args, seed)
    feats, produced = _do_features(dataset, partition, provider, _setting(args, "pair_cap"), out)
    outputs += produced

    folds = _setting(args, "folds")
    config = _nurse_config(args, dim=provider.dim, seed=seed)
    mode = "balanced_1to1" if args.mode == "balanced" else "complete"
    eval_report = evaluate(feats, config, mode=mode, folds=folds, seed=seed)
    write_eval_report(eval_report, out / "eval.csv")
    outputs.append("eval.csv")

    bc = weighted_betweenness(graph)
    in_eval = sorted({f.user_id for f in feats})
    wbc_scores = [bc.get(u, 0.0) for u in in_eval]
    wbc_labels = [1 if u in partition.core else 0 for u in in_eval]
    summary = [
        f"nodes={graph.n_nodes}",
        f"edges={graph.n_edges}",
        f"core_size={len(partition.core)}",
        f"normalized_threshold={partition.normalized_threshold!r}",
        f"peak_wicci={partition.peak_wicci!r}",
        f"louvain_modularity={communities.modularity!r}",
        f"nurse_mean_auc={eval_report.mean_auc!r}",
        f"nurse_mean_breakeven_f1={eval_report.mean_break_even_f1!r}",
        f"wbc_auc={auc(wbc_scores, wbc_labels)!r}",
    ]

    if args.labels:
        if not Path(args.labels).exists():
            raise InputError(f"missing labels file: {args.labels}")
        planted = read_labels(args.labels)
        planted_core = {u for u, l in planted.items() if l == "core"}
        tp = len(partition.core & planted_core)
        fp = len(partition.core - planted_core)
        fn = len(planted_core - partition.core)
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        summary.append(f"planted_core_f1={f1!r}")
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    outputs.append("summary.txt")

    inputs = [args.comments, args.videos, args.users]
    if args.labels:
        inputs.append(args.labels)
    _write_manifest(out, "pipeline", args, inputs, outputs,
                    {"seed": seed, "folds": folds})
    sys.stdout.write("\n".join(summary) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_dataset_args(p):
    p.add_argument("--comments", required=True, help="comments .jsonl/.csv file")
    p.add_argument("--videos", required=True, help="videos .jsonl/.csv file")
    p.add_argument("--users", required=True, help="users .jsonl/.csv file")


def _add_provider_args(p):
    p.add_argument("--provider", choices=("stub", "file"), default="stub",
                   help="embedding source (default stub)")
    p.add_argument("--embeddings", help="precomputed embedding file for --provider file")
    p.add_argument("--dim", type=int, help="stub embedding dimension (default 768)")
    p.add_argument("--pair-cap", dest="pair_cap", type=int,
                   help="cap per similarity set (default 200)")


def _add_train_args(p):
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collusioncore",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes: 0 ok, 2 usage, 3 missing/malformed input, "
            "4 data validation failure, 5 internal error\n\n"
            "file formats:\n"
            "  comments/videos/users   one JSON object per line (.jsonl) or CSV\n"
            "                          with the same column names (.csv)\n"
            "  ccn.tsv                 '# ccn v1' header, then a<TAB>b<TAB>weight,\n"
            "                          sorted; isolated nodes in ccn.tsv.nodes\n"
            "  coreness_<mode>.tsv     user<TAB>coreness, descending coreness\n"
            "  partition.tsv           '# key=value' summary lines, then\n"
            "                          user<TAB>core|periphery\n"
            "  sweep_beta_<b>.csv      norm_threshold,core_size,density,\n"
            "                          weight_fraction,wicci\n"
            "  features.csv            user_id,label,mfe_0..25,sfe_0..24,tfe_0..d-1\n"
            "  labels.tsv              user<TAB>core|compromised\n"
            "  embeddings file         'dim=<d>' header, then hash<TAB>csv floats\n"
            "  eval.csv                fold,k,precision,recall,f1,auc + summary row\n"
            "  manifest.json           per-run inputs/outputs/seeds snapshot"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="flat key=value settings file (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="parse the dataset and report violations")
    _add_dataset_args(p)
    p.add_argument("--out", help="optional output directory for the report")
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("build-ccn", help="build the co-commenting graph")
    _add_dataset_args(p)
    p.add_argument("--all-videos", action="store_true",
                   help="use every video, not only collusive ones")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_ccn)

    p = sub.add_parser("kcore", help="coreness decomposition of a graph file")
    p.add_argument("--graph", required=True, help="edge list from build-ccn")
    p.add_argument("--mode", choices=MODES, default="weighted")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kcore)

    p = sub.add_parser("korse", help="threshold sweep core/periphery split")
    p.add_argument("--graph", required=True)
    p.add_argument("--beta", type=float, help="density exponent (default 1.0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_korse)

    p = sub.add_parser("breakage", help="node-removal breakage curves")
    p.add_argument("--graph", required=True)
    p.add_argument("--order-key", dest="order_key", default="all",
                   choices=("all",) + ORDER_KEYS)
    p.add_argument("--step", type=float, help="checkpoint fraction (default 0.05)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_breakage)

    p = sub.add_parser("communities", help="louvain communities of the periphery")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("interplay", help="community/core interaction table")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_interplay)

    p = sub.add_parser("case-study", help="core vs compromised timeline statistics")
    _add_dataset_args(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_case_study)

    p = sub.add_parser("features", help="extract classifier feature blocks")
    _add_dataset_args(p)
    p.add_argument("--partition", help="optional partition for labels")
    _add_provider_args(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("nurse-train", help="train the fusion classifier")
    p.add_argument("--features", required=True)
    _add_train_args(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_nurse_train)

    p = sub.add_parser("nurse-eval", help="rank users with a trained model")
    p.add_argument("--model", help="model file from nurse-train")
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=("balanced", "complete"), default="balanced")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_nurse_eval)

    p = sub.add_parser("ablate", help="cross-validated branch ablations")
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=("balanced", "complete"), default="balanced")
    p.add_argument("--folds", type=int)
    _add_train_args(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("baseline-wbc", help="weighted betweenness ranking")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", dest="threshold_k", type=int, help="truncate to top k")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline_wbc)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--n-core", dest="n_core", type=int, default=20)
    p.add_argument("--n-compromised", dest="n_compromised", type=int, default=200)
    p.add_argument("--n-videos", dest="n_videos", type=int, default=400)
    p.add_argument("--communities", type=int, default=8)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="run the whole analysis end to end")
    _add_dataset_args(p)
    p.add_argument("--labels", help="planted labels for recovery scoring")
    p.add_argument("--all-videos", action="store_true")
    _add_provider_args(p)
    _add_train_args(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--mode", choices=("balanced", "complete"), default="balanced")
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config_values = _read_config(args.config) if args.config else {}
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - boundary: map to documented code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
