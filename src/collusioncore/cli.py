"""Command-line pipeline: ingest, build, decompose, analyze, train, report.

Every subcommand reads and writes the documented file formats, writes a
``manifest.json`` next to its outputs, and exits with: 0 ok, 2 usage,
3 missing or malformed input or a setting out of bounds, 4 data validation
failure, 5 internal error. A flat ``key=value`` config file can supply
tunable settings; command-line flags win over the config file.

All randomness flows from one ``--seed`` (default 7). Stages derive from
it deterministically: the generator and the stub embedder use it directly,
community detection runs at seed, seed+1 and seed+2, and fold models train
at seed + 7919 * (fold + 1). The derivations are recorded per run in the
manifest.
"""

import argparse
import hashlib
import json
import math
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
from .centrality import wbc_baseline, weighted_betweenness
from .embeddings import FileEmbedder, HashEmbedder
from .features import extract_all, read_features, write_features
from .graph import build_ccn, format_stats, graph_stats, read_edgelist, write_edgelist
from .kcore import MODES, coreness, write_coreness
from .korse import WicciParams, korse, read_partition, write_partition, write_sweep
from .nurse import (
    NurseConfig,
    ablations,
    auc,
    class_split,
    evaluate,
    fold_metrics,
    load_model,
    loss,
    min_class_size,
    rank_users,
    save_model,
    score_users,
    summarize_folds,
    train,
    write_eval_report,
    write_method_curves,
)
from .records import ingest, validate, write_dataset
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


# Tunable settings: name -> (default, bound the library enforces, its text).
# A config file may provide any of them; flags win over the config file.
TUNABLE_DEFAULTS = {
    "seed": (7, lambda v: v >= 0, ">= 0"),
    "beta": (1.0, lambda v: v > 0, "> 0"),
    "step": (0.05, lambda v: 1e-300 <= v <= 0.05, "in [1e-300, 0.05]"),
    "dim": (768, lambda v: v >= 1, ">= 1"),
    "pair_cap": (200, lambda v: v >= 0, ">= 0"),
    "epochs": (300, lambda v: v >= 1, ">= 1"),
    "learning_rate": (0.01, math.isfinite, "finite"),
    "momentum": (0.9, math.isfinite, "finite"),
    "batch_size": (32, lambda v: v >= 1, ">= 1"),
    "folds": (10, lambda v: v >= 2, ">= 2"),
    "threshold_k": (0, lambda v: v >= 0, ">= 0"),
}

# Argument names of input files; the manifest records a digest of each one given.
INPUT_ARGS = ("comments", "videos", "users", "graph", "partition", "labels",
              "features", "model", "embeddings")


def _read(reader, path, what):
    """``reader(path)``, with an absent, missing or malformed file as InputError."""
    if not path:
        raise InputError(f"a {what} file is required (--{what})")
    try:
        return reader(path)
    except (ValueError, OSError) as exc:
        raise InputError(f"{what}: {exc}") from None


def _read_config(path) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise ValueError(f"{path}:{lineno}: key '{key}' listed twice")
        values[key] = value.strip()
    return values


def _resolve_settings(args) -> dict:
    """Every tunable setting: flag, else config file value, else default.

    Unknown config keys and given values outside their bound are InputErrors.
    """
    config = _read(_read_config, args.config, "config") if args.config else {}
    unknown = sorted(set(config) - set(TUNABLE_DEFAULTS))
    if unknown:
        raise InputError(f"config: unknown key(s) {', '.join(unknown)}")
    settings = {}
    for name, (default, ok, bound) in TUNABLE_DEFAULTS.items():
        value = getattr(args, name, None)
        if value is None and name in config:
            try:
                value = type(default)(config[name])
            except ValueError:
                raise InputError(
                    f"config: {name}={config[name]!r} is not a valid {type(default).__name__}"
                ) from None
        if value is None:
            value = default
        elif not ok(value):
            raise InputError(f"{name} must be {bound}, got {value!r}")
        settings[name] = value
    return settings


def _setting(args, name: str):
    return args._settings[name]


def _sha256(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, args, outputs, seeds, settings=None) -> None:
    inputs = (getattr(args, name, None) for name in INPUT_ARGS)
    manifest = {
        "command": args.command,
        "args": {
            k: v for k, v in sorted(vars(args).items())
            if not k.startswith("_") and k != "func" and v is not None
        },
        "inputs": {str(p): _sha256(p) for p in inputs if p and Path(p).is_file()},
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
    return _read(lambda paths: ingest(*paths), (args.comments, args.videos, args.users),
                 "dataset")


def _provider(args, seed):
    if args.provider == "file":
        return _read(FileEmbedder.load, args.embeddings, "embeddings")
    return HashEmbedder(dim=_setting(args, "dim"), seed=seed)


def _labeled(feats, per_class: int) -> list:
    """The labelled feature rows, at least ``per_class`` of each class."""
    labeled = [f for f in feats if f.label]
    core = sum(1 for f in labeled if f.label == "core")
    if min(core, len(labeled) - core) < per_class:
        raise InputError(
            f"too few labelled users: need >= {per_class} per class, "
            f"have {core} core / {len(labeled) - core} compromised"
        )
    return labeled


def _nurse_config(args, dim, seed) -> NurseConfig:
    return NurseConfig(
        embedding_dim=dim,
        learning_rate=_setting(args, "learning_rate"),
        momentum=_setting(args, "momentum"),
        epochs=_setting(args, "epochs"),
        batch_size=_setting(args, "batch_size"),
        seed=seed,
    )


def _eval_mode(args) -> str:
    return "balanced_1to1" if args.mode == "balanced" else "complete"


def _cross_validate(run, args, feats, seed):
    """``run`` (evaluate or ablations) on the labelled ``feats``, once they
    are known to fill every fold."""
    folds = _setting(args, "folds")
    feats = _labeled(feats, min_class_size(folds))
    config = _nurse_config(args, dim=len(feats[0].tfe), seed=seed)
    return run(feats, config, mode=_eval_mode(args), folds=folds, seed=seed)


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
    name = f"coreness_{mode}.tsv"
    write_coreness(coreness(graph, mode), out / name)
    return [name]


def _do_korse(graph, beta, out):
    partition = korse(graph, WicciParams(beta=beta))
    write_partition(partition, out / "partition.tsv")
    outputs = ["partition.tsv"]
    for b in sorted({0.5, 1.0, 2.0} | {beta}):
        name = f"sweep_beta_{b:g}.csv"
        write_sweep(partition, out / name, WicciParams(beta=b))
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


def _periphery(graph, partition):
    """Largest periphery component, whose communities the analyses study."""
    try:
        return periphery_largest_component(graph, partition)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _do_communities(graph, partition, seed, out):
    communities = louvain(_periphery(graph, partition), seed=seed)
    write_communities(communities, out / "communities.csv")
    return communities, ["communities.csv"]


def _do_interplay(graph, partition, seed, out):
    """Interaction tables over several community runs, pooled correlations.

    Returns the communities of the first run (at ``seed``) and the outputs.
    """
    sub = _periphery(graph, partition)
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


def _do_case_study(dataset, partition, out):
    if not partition.core or not partition.periphery:
        raise InputError("the partition needs both core and periphery users")
    write_case_study(case_study_report(dataset, partition), out / "case_study.txt")
    return ["case_study.txt"]


def _do_features(dataset, partition, provider, pair_cap, out):
    try:
        feats = extract_all(dataset, partition=partition, provider=provider, pair_cap=pair_cap)
    except KeyError as exc:  # a text the embeddings file lacks
        raise InputError(f"embeddings: {exc.args[0]}") from None
    if not feats:
        raise InputError("no users to extract features for")
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
        _write_manifest(out, args, ["ingest_check.txt"], {})
    sys.stdout.write(text)
    if problems:
        raise ValidationError(f"{len(problems)} referential-integrity violations")
    return EXIT_OK


def cmd_build_ccn(args):
    dataset = _load_dataset(args)
    out = _out_dir(args)
    _, outputs = _do_build_ccn(dataset, not args.all_videos, out)
    _write_manifest(out, args, outputs, {})
    return EXIT_OK


def cmd_kcore(args):
    graph = _read(read_edgelist, args.graph, "graph")
    out = _out_dir(args)
    outputs = _do_kcore(graph, args.mode, out)
    _write_manifest(out, args, outputs, {})
    return EXIT_OK


def cmd_korse(args):
    graph = _read(read_edgelist, args.graph, "graph")
    if graph.n_edges == 0:
        raise InputError("graph has no edges; cannot sweep")
    out = _out_dir(args)
    _, outputs = _do_korse(graph, _setting(args, "beta"), out)
    _write_manifest(out, args, outputs, {})
    return EXIT_OK


def cmd_breakage(args):
    graph = _read(read_edgelist, args.graph, "graph")
    keys = ORDER_KEYS if args.order_key == "all" else (args.order_key,)
    out = _out_dir(args)
    outputs = _do_breakage(graph, keys, _setting(args, "step"), out)
    _write_manifest(out, args, outputs, {})
    return EXIT_OK


def cmd_communities(args):
    """`communities`, and `interplay`, which adds tables over the same communities."""
    graph = _read(read_edgelist, args.graph, "graph")
    partition = _read(read_partition, args.partition, "partition")
    seed = _setting(args, "seed")
    out = _out_dir(args)
    stage = _do_interplay if args.command == "interplay" else _do_communities
    _, outputs = stage(graph, partition, seed, out)
    _write_manifest(out, args, outputs, {"louvain": seed})
    return EXIT_OK


def cmd_case_study(args):
    dataset = _load_dataset(args)
    partition = _read(read_partition, args.partition, "partition")
    out = _out_dir(args)
    outputs = _do_case_study(dataset, partition, out)
    _write_manifest(out, args, outputs, {})
    return EXIT_OK


def cmd_features(args):
    dataset = _load_dataset(args)
    partition = _read(read_partition, args.partition, "partition") if args.partition else None
    seed = _setting(args, "seed")
    provider = _provider(args, seed)
    out = _out_dir(args)
    pair_cap = _setting(args, "pair_cap")
    _, outputs = _do_features(dataset, partition, provider, pair_cap, out)
    _write_manifest(out, args, outputs, {"embedder": seed},
                    settings={"pair_cap": pair_cap, "dim": provider.dim})
    return EXIT_OK


def cmd_nurse_train(args):
    labeled = _labeled(_read(read_features, args.features, "features"), 2)
    seed = _setting(args, "seed")
    config = _nurse_config(args, dim=len(labeled[0].tfe), seed=seed)
    model = train(labeled, config)
    out = _out_dir(args)
    save_model(model, out / "model.npz")
    (out / "train_report.txt").write_text(
        f"examples={len(labeled)}\nfinal_loss={loss(model, labeled)!r}\n", encoding="utf-8"
    )
    _write_manifest(out, args, ["model.npz", "train_report.txt"], {"train": seed})
    return EXIT_OK


def cmd_nurse_eval(args):
    model = _read(load_model, args.model, "model")
    feats = _labeled(_read(read_features, args.features, "features"), 1)
    if "tfe" in model.config.branches and len(feats[0].tfe) != model.config.embedding_dim:
        raise InputError(f"features have {len(feats[0].tfe)} embedding values, "
                         f"the model expects {model.config.embedding_dim}")
    seed = _setting(args, "seed")
    feats = sorted(feats, key=lambda f: f.user_id)
    core, comp = class_split(feats, seed if args.mode == "balanced" else None)
    feats = sorted(core + comp, key=lambda f: f.user_id)
    scored = score_users(model, feats)
    out = _out_dir(args)
    write_eval_report(summarize_folds(_eval_mode(args), [fold_metrics(0, scored)]),
                      out / "eval.csv")
    with (out / "ranking.tsv").open("w", encoding="utf-8") as handle:
        for user, score, label in rank_users(scored):
            handle.write(f"{user}\t{score!r}\t{label}\n")
    _write_manifest(out, args, ["eval.csv", "ranking.tsv"], {"sampling": seed})
    return EXIT_OK


def cmd_ablate(args):
    feats = _read(read_features, args.features, "features")
    seed = _setting(args, "seed")
    reports = _cross_validate(ablations, args, feats, seed)
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
    _write_manifest(out, args, outputs, {"cv": seed, "folds": _setting(args, "folds")})
    return EXIT_OK


def cmd_baseline_wbc(args):
    graph = _read(read_edgelist, args.graph, "graph")
    out = _out_dir(args)
    ranked = wbc_baseline(graph, _setting(args, "threshold_k") or None)  # --k 0: every node
    with (out / "wbc_ranking.tsv").open("w", encoding="utf-8") as handle:
        for rank, (node, score) in enumerate(ranked, start=1):
            handle.write(f"{rank}\t{node}\t{score!r}\n")
    _write_manifest(out, args, ["wbc_ranking.tsv"], {})
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
    _write_manifest(out, args,
                    ["comments.jsonl", "videos.jsonl", "users.jsonl", "labels.tsv", "synth_meta"],
                    {"generator": seed})
    return EXIT_OK


def cmd_pipeline(args):
    dataset = _load_dataset(args)
    planted = _read(read_labels, args.labels, "labels") if args.labels else None
    seed = _setting(args, "seed")
    provider = _provider(args, seed)
    out = _out_dir(args)
    outputs = []

    graph, produced = _do_build_ccn(dataset, not args.all_videos, out)
    outputs += produced
    if graph.n_edges == 0:
        raise ValidationError("built graph has no edges; pipeline cannot continue")
    for mode in MODES:
        outputs += _do_kcore(graph, mode, out)
    partition, produced = _do_korse(graph, _setting(args, "beta"), out)
    outputs += produced
    outputs += _do_breakage(graph, ORDER_KEYS, _setting(args, "step"), out)
    communities, produced = _do_interplay(graph, partition, seed, out)
    outputs += produced
    outputs += _do_case_study(dataset, partition, out)

    feats, produced = _do_features(dataset, partition, provider, _setting(args, "pair_cap"), out)
    outputs += produced

    eval_report = _cross_validate(evaluate, args, feats, seed)
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
    if planted is not None:
        planted_core = {u for u, l in planted.items() if l == "core"}
        tp = len(partition.core & planted_core)
        fp = len(partition.core - planted_core)
        fn = len(planted_core - partition.core)
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        summary.append(f"planted_core_f1={f1!r}")
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    outputs.append("summary.txt")

    _write_manifest(out, args, outputs, {"seed": seed, "folds": _setting(args, "folds")})
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
            "exit codes: 0 ok, 2 usage, 3 missing/malformed input or a setting out\n"
            "of bounds, 4 data validation failure, 5 internal error\n\n"
            "settings (--config key; its flag is the key with dashes, threshold_k is --k;\n"
            "an unknown or repeated config key is an error):\n"
            + "".join(f"  {name:<24}default {default!r}, {bound}\n"
                      for name, (default, _, bound) in TUNABLE_DEFAULTS.items())
            + "\nfile formats:\n"
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
            "  manifest.json           per-run snapshot: args, sha256 of every input\n"
            "                          file given (--embeddings too), outputs, seeds"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="flat key=value settings file (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, out_help=None):
        """Subcommand parser; its --out is required unless ``out_help`` is given."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=out_help is None, help=out_help)
        p.set_defaults(func=func)
        return p

    p = command("ingest-check", cmd_ingest_check, "parse the dataset and report violations",
                out_help="optional output directory for the report")
    _add_dataset_args(p)

    p = command("build-ccn", cmd_build_ccn, "build the co-commenting graph")
    _add_dataset_args(p)
    p.add_argument("--all-videos", action="store_true",
                   help="use every video, not only collusive ones")

    p = command("kcore", cmd_kcore, "coreness decomposition of a graph file")
    p.add_argument("--graph", required=True, help="edge list from build-ccn")
    p.add_argument("--mode", choices=MODES, default="weighted")

    p = command("korse", cmd_korse, "threshold sweep core/periphery split")
    p.add_argument("--graph", required=True)
    p.add_argument("--beta", type=float, help="density exponent (default 1.0)")

    p = command("breakage", cmd_breakage, "node-removal breakage curves")
    p.add_argument("--graph", required=True)
    p.add_argument("--order-key", dest="order_key", default="all",
                   choices=("all",) + ORDER_KEYS)
    p.add_argument("--step", type=float, help="checkpoint fraction (default 0.05)")

    p = command("communities", cmd_communities, "louvain communities of the periphery")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--seed", type=int)

    p = command("interplay", cmd_communities, "community/core interaction table")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--seed", type=int)

    p = command("case-study", cmd_case_study, "core vs compromised timeline statistics")
    _add_dataset_args(p)
    p.add_argument("--partition", required=True)

    p = command("features", cmd_features, "extract classifier feature blocks")
    _add_dataset_args(p)
    p.add_argument("--partition", help="optional partition for labels")
    _add_provider_args(p)
    p.add_argument("--seed", type=int)

    p = command("nurse-train", cmd_nurse_train, "train the fusion classifier")
    p.add_argument("--features", required=True)
    _add_train_args(p)
    p.add_argument("--seed", type=int)

    p = command("nurse-eval", cmd_nurse_eval, "rank users with a trained model")
    p.add_argument("--model", help="model file from nurse-train")
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=("balanced", "complete"), default="balanced")
    p.add_argument("--seed", type=int)

    p = command("ablate", cmd_ablate, "cross-validated branch ablations")
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=("balanced", "complete"), default="balanced")
    p.add_argument("--folds", type=int)
    _add_train_args(p)
    p.add_argument("--seed", type=int)

    p = command("baseline-wbc", cmd_baseline_wbc, "weighted betweenness ranking")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", dest="threshold_k", type=int, help="truncate to top k")

    p = command("synth", cmd_synth, "generate a planted synthetic dataset")
    p.add_argument("--n-core", dest="n_core", type=int, default=20)
    p.add_argument("--n-compromised", dest="n_compromised", type=int, default=200)
    p.add_argument("--n-videos", dest="n_videos", type=int, default=400)
    p.add_argument("--communities", type=int, default=8)
    p.add_argument("--seed", type=int)

    p = command("pipeline", cmd_pipeline, "run the whole analysis end to end")
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._settings = _resolve_settings(args)
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
