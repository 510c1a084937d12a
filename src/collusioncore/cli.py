"""Command-line pipeline: ingest, build, decompose, analyze, train, report.

Every subcommand reads and writes the documented file formats, gets a
``manifest.json`` next to its outputs, and exits with: 0 ok, 2 usage,
3 missing or malformed input or a setting out of bounds, 4 data validation
failure, 5 internal error. A command writes into a staging directory beside
``--out``; its files move into ``--out`` only once it has finished, so a run
that exits non-zero leaves ``--out`` as it was (the missing parents of
``--out`` may be created). ``ingest-check`` keeps its report on exit 4.
A flat ``key=value`` config file can supply the tunable settings of
``collusioncore.settings``, checked as the library checks them; flags win.

All randomness flows from one ``--seed`` (default 7). Stages derive from
it deterministically: the generator and the stub embedder use it directly,
community detection runs at seed, seed+1 and seed+2, and fold models train
at seed + 7919 * (fold + 1). The manifest lists each setting the run read,
``seed`` among them (there is no separate ``seeds`` field), and the sha256
of each file it read, ``--config`` and a graph's ``.nodes`` sidecar included.
"""

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import textwrap
from pathlib import Path

from . import __version__
from . import embeddings, features, nurse, synth  # numpy layers, loaded on first use
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
)
from .centrality import wbc_baseline, weighted_betweenness
from .graph import (
    build_ccn,
    format_stats,
    graph_stats,
    nodes_sidecar,
    read_edgelist,
    write_edgelist,
)
from .kcore import MODES, coreness, write_coreness
from .korse import korse, read_partition, write_partition, write_sweep
from .records import ingest, validate, write_dataset
from .settings import SETTINGS, check
from .tables import format_rows, lines, write_rows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_VALIDATION = 4
EXIT_INTERNAL = 5


class InputError(Exception):
    """Missing or malformed input; maps to exit code 3."""


class ValidationError(Exception):
    """Referential-integrity failure; maps to exit code 4."""


# Argument names of input files; the manifest records a digest of each one given.
INPUT_ARGS = ("config", "comments", "videos", "users", "graph", "partition", "labels",
              "features", "model", "embeddings")

# Every output file: name (<...> stands for a value), the commands that write
# it (None: every command) and its format. --help and the README show this
# table; the tests check each command's manifest against it.
OUTPUTS = (
    ("comments.jsonl", ("synth",), "comment records, one JSON object per line"),
    ("videos.jsonl", ("synth",), "video records, one JSON object per line"),
    ("users.jsonl", ("synth",), "user records, one JSON object per line"),
    ("labels.tsv", ("synth",), "user TAB core or compromised, sorted by user"),
    ("synth_meta", ("synth",), "name=value lines, the five synth settings"),
    ("ingest_check.txt", ("ingest-check",),
     "users=, videos=, comments= and violations= counts, then one violation a line; "
     "also printed"),
    ("ccn.tsv", ("build-ccn", "pipeline"),
     "'# ccn v1' header, then sorted a TAB b TAB weight edges"),
    ("ccn.tsv.nodes", ("build-ccn", "pipeline"),
     "'# ccn nodes v1' header, then every node of ccn.tsv, isolated ones too, sorted"),
    ("stats.txt", ("build-ccn", "pipeline"),
     "name=value graph statistics; an undefined one is left out"),
    ("coreness_<mode>.tsv", ("kcore", "pipeline"),
     "user TAB coreness, descending coreness; pipeline writes both modes"),
    ("partition.tsv", ("korse", "pipeline"),
     "'# key=value' summary lines, then user TAB core or periphery"),
    ("sweep_beta_<b>.csv", ("korse", "pipeline"),
     "norm_threshold,core_size,density,weight_fraction,wicci; b for 0.5, 1, 2 and "
     "--beta, as %g unless that rounds it"),
    ("breakage_<key>.csv", ("breakage", "pipeline"),
     "fraction_removed,largest_component,removed_density and one count per "
     "component-size bucket, for removal in order of key"),
    ("disintegration.txt", ("breakage", "pipeline"),
     "key=fraction for each removal order: the first fraction removed at which the "
     "largest component holds under half the remaining nodes, or none"),
    ("communities.csv", ("communities", "interplay", "pipeline"),
     "'# modularity=' line, then user_id,community; an id holding a comma or quote is "
     "csv-quoted"),
    ("interplay_seed<N>.csv", ("interplay", "pipeline"),
     "community_id,size,avg_weighted_degree,weighted_size,wcs,small; Louvain "
     "seeds seed, seed+1, seed+2"),
    ("correlations.txt", ("interplay", "pipeline"),
     "wcs_vs_avg_weighted_degree= and wcs_vs_weighted_size= Pearson r, or undefined"),
    ("case_study.txt", ("case-study", "pipeline"),
     "name=value core timeline statistics, unavailable when undefined"),
    ("features.csv", ("features", "pipeline"), "user_id,label,mfe_0..25,sfe_0..24,tfe_0..d-1"),
    ("model.npz", ("nurse-train",), "numpy archive: model format 2, parameters, scaling"),
    ("train_report.txt", ("nurse-train",), "examples= and final_loss= lines"),
    ("eval.csv", ("nurse-eval", "pipeline"),
     "fold,k,precision,recall,f1,auc, then a mean,breakeven row"),
    ("ranking.tsv", ("nurse-eval",), "user TAB score TAB label, descending score"),
    ("ablation_summary.csv", ("ablate",), "method,mean_f1_breakeven,mean_auc"),
    ("curves_f1.csv", ("ablate",), "method,k,f1: each method's mean F1@k"),
    ("eval_<method>.csv", ("ablate",),
     "eval.csv of one branch subset: mfe, sfe, tfe, mfe_sfe, mfe_tfe, sfe_tfe or all"),
    ("wbc_ranking.tsv", ("baseline-wbc",), "rank TAB user TAB weighted betweenness"),
    ("summary.txt", ("pipeline",), "name=value headline results, also printed"),
    ("manifest.json", None,
     "args, sha256 of every input file read (--config, --embeddings and a graph's "
     ".nodes sidecar too), the settings read (seed included), outputs"),
)


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
    for lineno, line in lines(path):
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

    Unknown config keys and values outside their bound are InputErrors.
    """
    config = _read(_read_config, args.config, "config") if args.config else {}
    unknown = sorted(set(config) - set(SETTINGS))
    if unknown:
        raise InputError(f"config: unknown key(s) {', '.join(unknown)}")
    settings = {}
    for name, (default, _, _) in SETTINGS.items():
        value = getattr(args, name, None)
        if value is None and name in config:
            try:
                value = type(default)(config[name])
            except ValueError:
                raise InputError(
                    f"config: {name}={config[name]!r} is not a valid {type(default).__name__}"
                ) from None
        settings[name] = default if value is None else value
        try:
            check(name, settings[name])
        except ValueError as exc:
            raise InputError(str(exc)) from None
    return settings


def _setting(args, name: str):
    """The resolved value of a tunable setting; the manifest lists each one read."""
    value = args._read[name] = args._settings[name]
    return value


def _sha256(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out, args) -> None:
    """``manifest.json`` in ``out``, listing every file already written there."""
    inputs = [getattr(args, name, None) for name in INPUT_ARGS]
    if getattr(args, "graph", None):  # read_edgelist reads the sidecar when it exists
        inputs.append(nodes_sidecar(args.graph))
    manifest = {
        "command": args.command,
        "args": {
            k: v for k, v in sorted(vars(args).items())
            if not k.startswith("_") and k != "func" and v is not None
        },
        "inputs": {str(p): _sha256(p) for p in inputs if p and Path(p).is_file()},
        "outputs": sorted(p.name for p in out.iterdir()),
        "settings": args._read,
        "version": __version__,
    }
    with (out / "manifest.json").open("w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load_dataset(args):
    return _read(lambda paths: ingest(*paths), (args.comments, args.videos, args.users),
                 "dataset")


def _provider(args):
    if args.embeddings is not None:
        return _read(embeddings.FileEmbedder.load, args.embeddings, "embeddings")
    return embeddings.HashEmbedder(dim=_setting(args, "dim"), seed=_setting(args, "seed"))


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


def _nurse_config(args, dim):
    try:
        return nurse.NurseConfig(embedding_dim=dim,
                                 **{name: _setting(args, name) for name in nurse.TRAIN_SETTINGS})
    except ValueError as exc:
        raise InputError(f"features: {exc}") from None  # too few embedding values


def _cross_validate(run, args, feats):
    """``run`` (evaluate or ablations) on the labelled ``feats``, once they
    are known to fill every fold."""
    folds = _setting(args, "folds")
    feats = _labeled(feats, nurse.min_class_size(folds))
    config = _nurse_config(args, dim=len(feats[0].tfe))
    return run(feats, config, mode=args.mode, folds=folds)


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
    return graph


def _do_kcore(graph, mode, out):
    write_coreness(coreness(graph, mode), out / f"coreness_{mode}.tsv")


def _do_korse(graph, beta, out):
    partition = korse(graph, beta)
    write_partition(partition, out / "partition.tsv")
    for b in sorted({0.5, 1.0, 2.0} | {beta}):
        short = f"{b:g}"  # 1.0 is "1"; the repr where %g would round b
        name = f"sweep_beta_{short if float(short) == b else repr(b)}.csv"
        write_sweep(partition, out / name, b)
    return partition


def _do_breakage(graph, keys, step, out):
    summary = []
    for key in keys:
        curve = removal_curve(graph, key, step)
        write_removal_curve(curve, out / f"breakage_{key}.csv")
        frac = disintegration_fraction(curve)
        summary.append((key, "none" if frac is None else frac))
    write_rows(out / "disintegration.txt", summary, "=")


def _periphery(graph, partition):
    """Largest periphery component, whose communities the analyses study."""
    try:
        return periphery_largest_component(graph, partition)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _do_communities(graph, partition, seed, out):
    write_communities(louvain(_periphery(graph, partition), seed=seed), out / "communities.csv")


def _do_interplay(graph, partition, seed, out):
    """Interaction tables over several community runs, pooled correlations.

    Returns the communities of the first run (at ``seed``).
    """
    sub = _periphery(graph, partition)
    pooled = []
    for offset in range(3):
        communities = louvain(sub, seed=seed + offset)
        if offset == 0:
            first = communities
            write_communities(communities, out / "communities.csv")
        rows = interplay_table(graph, partition, communities)
        write_interplay(rows, out / f"interplay_seed{seed + offset}.csv")
        pooled += rows
    large = [r for r in pooled if not r.small]
    chosen = large if len(large) >= 2 else pooled
    lines = []
    for metric in ("avg_weighted_degree", "weighted_size"):
        xs = [r.wcs for r in chosen]
        ys = [getattr(r, metric) for r in chosen]
        try:
            lines.append((f"wcs_vs_{metric}", pearson(xs, ys)))
        except ValueError as exc:
            lines.append((f"wcs_vs_{metric}", f"undefined ({exc})"))
    write_rows(out / "correlations.txt", lines, "=")
    return first


def _do_case_study(dataset, partition, out):
    if not partition.core or not partition.periphery:
        raise InputError("the partition needs both core and periphery users")
    write_case_study(case_study_report(dataset, partition), out / "case_study.txt")


def _do_features(dataset, partition, provider, pair_cap, out):
    try:
        feats = features.extract_all(dataset, partition=partition, provider=provider,
                                     pair_cap=pair_cap)
    except KeyError as exc:  # a text the embeddings file lacks
        raise InputError(f"embeddings: {exc.args[0]}") from None
    if not feats:
        raise InputError("no users to extract features for")
    features.write_features(feats, out / "features.csv")
    return feats


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def cmd_ingest_check(args, out):
    dataset = _load_dataset(args)
    problems = validate(dataset)
    text = format_rows([
        ("users", len(dataset.users)),
        ("videos", len(dataset.videos)),
        ("comments", len(dataset.comments)),
        ("violations", len(problems)),
    ] + [(problem,) for problem in problems], "=")
    if out is not None:
        (out / "ingest_check.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    if problems:  # the report is the product, so it is kept on exit 4
        print(f"validation error: {len(problems)} referential-integrity violations",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_build_ccn(args, out):
    dataset = _load_dataset(args)
    _do_build_ccn(dataset, not args.all_videos, out)
    return EXIT_OK


def cmd_kcore(args, out):
    graph = _read(read_edgelist, args.graph, "graph")
    _do_kcore(graph, args.mode, out)
    return EXIT_OK


def cmd_korse(args, out):
    graph = _read(read_edgelist, args.graph, "graph")
    if graph.n_edges == 0:
        raise InputError("graph has no edges; cannot sweep")
    _do_korse(graph, _setting(args, "beta"), out)
    return EXIT_OK


def cmd_breakage(args, out):
    graph = _read(read_edgelist, args.graph, "graph")
    keys = ORDER_KEYS if args.order_key == "all" else (args.order_key,)
    _do_breakage(graph, keys, _setting(args, "step"), out)
    return EXIT_OK


def cmd_communities(args, out):
    """`communities`, and `interplay`, which adds tables over the same communities."""
    graph = _read(read_edgelist, args.graph, "graph")
    partition = _read(read_partition, args.partition, "partition")
    stage = _do_interplay if args.command == "interplay" else _do_communities
    stage(graph, partition, _setting(args, "seed"), out)
    return EXIT_OK


def cmd_case_study(args, out):
    dataset = _load_dataset(args)
    partition = _read(read_partition, args.partition, "partition")
    _do_case_study(dataset, partition, out)
    return EXIT_OK


def cmd_features(args, out):
    dataset = _load_dataset(args)
    partition = _read(read_partition, args.partition, "partition") if args.partition else None
    provider = _provider(args)
    _do_features(dataset, partition, provider, _setting(args, "pair_cap"), out)
    return EXIT_OK


def cmd_nurse_train(args, out):
    labeled = _labeled(_read(features.read_features, args.features, "features"), 2)
    config = _nurse_config(args, dim=len(labeled[0].tfe))
    model = nurse.train(labeled, config)
    nurse.save_model(model, out / "model.npz")
    write_rows(out / "train_report.txt",
               [("examples", len(labeled)), ("final_loss", nurse.loss(model, labeled))], "=")
    return EXIT_OK


def cmd_nurse_eval(args, out):
    model = _read(nurse.load_model, args.model, "model")
    feats = _labeled(_read(features.read_features, args.features, "features"), 1)
    if "tfe" in model.config.branches and len(feats[0].tfe) != model.config.embedding_dim:
        raise InputError(f"features have {len(feats[0].tfe)} embedding values, "
                         f"the model expects {model.config.embedding_dim}")
    feats = sorted(feats, key=lambda f: f.user_id)
    seed = _setting(args, "seed") if args.mode == "balanced" else None
    core, comp = nurse.class_split(feats, seed)
    feats = sorted(core + comp, key=lambda f: f.user_id)
    scored = nurse.score_users(model, feats)
    report = nurse.summarize_folds([nurse.fold_metrics(0, scored)])
    nurse.write_eval_report(report, out / "eval.csv")
    write_rows(out / "ranking.tsv", nurse.rank_users(scored), "\t")
    return EXIT_OK


def cmd_ablate(args, out):
    feats = _read(features.read_features, args.features, "features")
    reports = _cross_validate(nurse.ablations, args, feats)
    write_rows(out / "ablation_summary.csv", [("method", "mean_f1_breakeven", "mean_auc")] + [
        (name, r.mean_break_even_f1, r.mean_auc) for name, r in sorted(reports.items())], ",")
    nurse.write_method_curves(reports, out / "curves_f1.csv")
    for name, report in reports.items():
        nurse.write_eval_report(report, out / f"eval_{name.replace('+', '_')}.csv")
    return EXIT_OK


def cmd_baseline_wbc(args, out):
    graph = _read(read_edgelist, args.graph, "graph")
    ranked = wbc_baseline(graph, _setting(args, "threshold_k") or None)  # --k 0: every node
    write_rows(out / "wbc_ranking.tsv",
               [(rank, node, score) for rank, (node, score) in enumerate(ranked, start=1)], "\t")
    return EXIT_OK


def cmd_synth(args, out):
    try:
        config = synth.SynthConfig(
            n_core=args.n_core,
            n_compromised=args.n_compromised,
            n_videos=args.n_videos,
            peripheral_community_count=args.communities,
            seed=_setting(args, "seed"),
        )
        dataset, labels = synth.generate(config)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    write_dataset(dataset, out / "comments.jsonl", out / "videos.jsonl", out / "users.jsonl")
    synth.write_labels(labels, out / "labels.tsv")
    synth.write_meta(config, out / "synth_meta")
    return EXIT_OK


def cmd_pipeline(args, out):
    dataset = _load_dataset(args)
    planted = _read(synth.read_labels, args.labels, "labels") if args.labels else None
    seed = _setting(args, "seed")
    provider = _provider(args)

    graph = _do_build_ccn(dataset, not args.all_videos, out)
    if graph.n_edges == 0:
        raise ValidationError("built graph has no edges; pipeline cannot continue")
    for mode in MODES:
        _do_kcore(graph, mode, out)
    partition = _do_korse(graph, _setting(args, "beta"), out)
    _do_breakage(graph, ORDER_KEYS, _setting(args, "step"), out)
    communities = _do_interplay(graph, partition, seed, out)
    _do_case_study(dataset, partition, out)

    feats = _do_features(dataset, partition, provider, _setting(args, "pair_cap"), out)

    eval_report = _cross_validate(nurse.evaluate, args, feats)
    nurse.write_eval_report(eval_report, out / "eval.csv")

    bc = weighted_betweenness(graph)
    in_eval = sorted({f.user_id for f in feats})
    wbc_scores = [bc.get(u, 0.0) for u in in_eval]
    wbc_labels = [1 if u in partition.core else 0 for u in in_eval]
    summary = [
        ("nodes", graph.n_nodes),
        ("edges", graph.n_edges),
        ("core_size", len(partition.core)),
        ("normalized_threshold", partition.normalized_threshold),
        ("peak_wicci", partition.peak_wicci),
        ("louvain_modularity", communities.modularity),
        ("nurse_mean_auc", eval_report.mean_auc),
        ("nurse_mean_breakeven_f1", eval_report.mean_break_even_f1),
        ("wbc_auc", nurse.auc(wbc_scores, wbc_labels)),
    ]
    if planted is not None:
        planted_core = {u for u, l in planted.items() if l == "core"}
        tp = len(partition.core & planted_core)
        fp = len(partition.core - planted_core)
        fn = len(planted_core - partition.core)
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        summary.append(("planted_core_f1", f1))
    text = format_rows(summary, "=")
    (out / "summary.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_dataset_args(p):
    p.add_argument("--comments", required=True, help="comments .jsonl/.csv file")
    p.add_argument("--videos", required=True, help="videos .jsonl/.csv file")
    p.add_argument("--users", required=True, help="users .jsonl/.csv file")


def _add_provider_args(p):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--embeddings",
                        help="precomputed embedding file, read in place of the stub")
    source.add_argument("--dim", type=int,
                        help=f"stub embedding dimension (default {SETTINGS['dim'].default})")
    p.add_argument("--pair-cap", dest="pair_cap", type=int,
                   help=f"cap per similarity set (default {SETTINGS['pair_cap'].default})")


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
            "outputs: a run that exits non-zero leaves --out as it was (the missing\n"
            "parents of --out may be created); ingest-check keeps its report on exit 4\n\n"
            "settings (--config key; its flag is the key with dashes, threshold_k is --k;\n"
            "an unknown or repeated config key is an error):\n"
            + "".join(f"  {name:<24}default {default!r}, {bound}\n"
                      for name, (default, _, bound) in SETTINGS.items())
            + "\ninput formats (graph, partition, labels, features and model files are\n"
            "outputs below):\n"
            "  comments/videos/users   one JSON object per line (.jsonl) or CSV\n"
            "                          with the same column names (.csv)\n"
            "  embeddings file         'dim=<d>' header, then hash<TAB>csv floats\n"
            "\noutputs (file, commands that write it, format):\n"
            + "".join(f"  {name:<24}{', '.join(commands or ['every command'])}\n"
                      + textwrap.fill(text, 79, initial_indent=" " * 26,
                                      subsequent_indent=" " * 26, break_long_words=False,
                                      break_on_hyphens=False) + "\n"
                      for name, commands, text in OUTPUTS)
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
    p.add_argument("--beta", type=float,
                   help=f"density exponent (default {SETTINGS['beta'].default})")

    p = command("breakage", cmd_breakage, "node-removal breakage curves")
    p.add_argument("--graph", required=True)
    p.add_argument("--order-key", dest="order_key", default="all",
                   choices=("all",) + ORDER_KEYS)
    p.add_argument("--step", type=float,
                   help=f"checkpoint fraction (default {SETTINGS['step'].default})")

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
    p.add_argument("--seed", type=int, help="stub embedding seed; not with --embeddings")

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


def _run(args) -> int:
    """The handler's exit code. The handler writes into a fresh staging
    directory beside ``--out``; once it returns, ``manifest.json`` is written
    there and, unless a directory in ``--out`` has the name of one of them,
    the staged files move into ``--out`` in name order, ``manifest.json``
    last. The staging directory is always removed."""
    if args.out is None:
        return args.func(args, None)
    out = Path(args.out)
    # the nearest existing path of --out and its parents must be a directory
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise InputError(f"--out {args.out}: {existing} is not a directory")
    out.parent.mkdir(parents=True, exist_ok=True)
    # beside --out, on its filesystem, so each move is a rename, never a copy
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        code = args.func(args, staging)
        _write_manifest(staging, args)
        names = sorted((p.name for p in staging.iterdir()),
                       key=lambda name: (name == "manifest.json", name))
        for name in names:
            if (out / name).is_dir():
                raise InputError(f"--out {args.out}: {out / name} is a directory")
        out.mkdir(exist_ok=True)
        for name in names:
            os.replace(staging / name, out / name)
        return code
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # only the stub reads features' --seed; pipeline's Louvain reads it too
    if args.command == "features" and args.embeddings is not None and args.seed is not None:
        parser.error("features: argument --seed: not allowed with argument --embeddings")
    try:
        args._settings, args._read = _resolve_settings(args), {}
        return _run(args)
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
