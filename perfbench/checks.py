"""Output checks: every timed run is compared with the benchmark's own
recomputation from the generated log, or with :mod:`reference` within its
stated tolerance. Each check returns ``(name, ok, detail)``."""

import csv
import math

import numpy as np

from . import inputs, reference

FEATURE_SAMPLE = 6   # users per features.csv whose rows are recomputed


def read_ccn(path):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    edges = {}
    for line in lines[1:]:
        a, b, w = line.split("\t")
        edges[(a, b)] = int(w)
    with open(f"{path}.nodes", encoding="utf-8") as handle:
        nodes = set(handle.read().split("\n")[1:]) - {""}
    return nodes, edges


def read_tsv(path) -> dict:
    """First column -> second column, skipping '# ' comment lines."""
    with open(path, encoding="utf-8") as handle:
        return dict(line.rstrip("\n").split("\t")[:2] for line in handle
                    if line.strip() and not line.startswith("# "))


def read_partition(path):
    with open(path, encoding="utf-8") as handle:
        meta = dict(line[2:].strip().split("=", 1) for line in handle if line.startswith("# "))
    return int(meta["core_threshold"]), read_tsv(path)


def read_communities(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        rows = [line.strip().split(",") for line in handle if not line.startswith("#")]
    return {user: community for user, community in rows[1:]}


def read_features(path) -> dict:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return {r[0]: (r[1], np.array([float(x) for x in r[2:]])) for r in rows[1:] if r}


def read_eval(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [line.strip().split(",") for line in handle][1:]


# ---------------------------------------------------------------------------
# Graph outputs: exact
# ---------------------------------------------------------------------------

def ccn_weights(log, ccn_path):
    nodes, edges = log.network
    got_nodes, got_edges = read_ccn(ccn_path)
    wrong = sum(1 for k in edges.keys() | got_edges.keys() if edges.get(k) != got_edges.get(k))
    ok = wrong == 0 and nodes == got_nodes
    return "ccn_weights", ok, f"{wrong} edge weights differ, nodes {'match' if nodes == got_nodes else 'differ'}"


def partition_threshold(partition_path, coreness_path):
    threshold, roles = read_partition(partition_path)
    coreness = {u: int(c) for u, c in read_tsv(coreness_path).items()}
    core = {u for u, role in roles.items() if role == "core"}
    expected = {u for u, c in coreness.items() if c >= threshold}
    ok = core == expected and roles.keys() == coreness.keys()
    return "partition_threshold", ok, f"core {len(core)}, coreness >= {threshold}: {len(expected)}"


def communities_cover(log, partition_path, communities_path):
    _, roles = read_partition(partition_path)
    periphery = {u for u, role in roles.items() if role == "periphery"}
    _, edges = log.network
    sub = [e for e in edges if e[0] in periphery and e[1] in periphery]
    lcc = inputs.largest_component(periphery, sub)
    got = set(read_communities(communities_path))
    return ("communities_cover", got == lcc,
            f"{len(got)} assigned, periphery giant component {len(lcc)}")


def core_f1(log, partition_path) -> float:
    _, roles = read_partition(partition_path)
    found = {u for u, role in roles.items() if role == "core"}
    planted = {u for u, label in log.labels.items() if label == "core"}
    tp = len(found & planted)
    return 2 * tp / (len(found) + len(planted))


# ---------------------------------------------------------------------------
# Float outputs: against the frozen reference, within its tolerance
# ---------------------------------------------------------------------------

def features_reference(log, roles: dict, features_path, dim: int, seed: int):
    """Labels of every row, and the full rows of a seeded user sample."""
    rows = read_features(features_path)
    expected_labels = {u: "core" if r == "core" else "compromised" for u, r in roles.items()}
    if {u: label for u, (label, _) in rows.items()} != expected_labels:
        return "features_reference", False, "user set or labels differ from the partition"
    users = sorted(rows)
    rng = np.random.default_rng(seed)
    sample = [users[i] for i in sorted(rng.choice(len(users), min(FEATURE_SAMPLE, len(users)),
                                                  replace=False))]
    embedder = reference.HashEmbedder(dim)
    worst = 0.0
    for user in sample:
        want = reference.feature_row(log, user, embedder)
        got = rows[user][1]
        if got.shape != want.shape:
            return "features_reference", False, f"{user}: {got.size} values, want {want.size}"
        worst = max(worst, float(np.max(np.abs(got - want) / (reference.ATOL + reference.RTOL * np.abs(want)))))
    return ("features_reference", worst <= 1.0,
            f"{len(sample)} rows recomputed, worst error {worst:.3g} x tolerance")


def ranking_reference(model_path, features_path, ranking_path, eval_path):
    """Held-out scores from the frozen forward pass, and eval.csv from them."""
    rows = read_features(features_path)
    users = sorted(u for u, (label, _) in rows.items() if label)
    scores = reference.core_scores(model_path, np.stack([rows[u][1] for u in users]))
    with open(ranking_path, encoding="utf-8") as handle:
        ranking = {u: float(s) for u, s, _ in (line.rstrip("\n").split("\t") for line in handle)}
    if set(ranking) != set(users):
        return "ranking_reference", False, "ranked users differ from the features file"
    got = np.array([ranking[u] for u in users])
    if not np.allclose(got, scores, rtol=reference.RTOL, atol=reference.ATOL):
        return "ranking_reference", False, f"max score error {np.max(np.abs(got - scores)):.3g}"
    want = reference.eval_rows([(u, ranking[u], rows[u][0]) for u in users])
    have = read_eval(eval_path)
    ok = len(have) == len(want) and all(
        str(h[0]) == str(w[0]) and str(h[1]) == str(w[1])
        and np.allclose([float(x) for x in h[2:]], w[2:], rtol=reference.RTOL, atol=reference.ATOL)
        for h, w in zip(have, want))
    return "ranking_reference", ok, f"{len(users)} scores and {len(want)} eval rows recomputed"


def eval_consistency(eval_path):
    """Cross-validated eval.csv: every value in [0, 1], the mean AUC is the fold mean."""
    rows = read_eval(eval_path)
    fold_auc = {r[0]: float(r[5]) for r in rows if r[0] != "mean"}
    values = [float(x) for r in rows for x in r[2:]]
    mean = float(rows[-1][5])
    ok = (rows[-1][0] == "mean" and all(0.0 <= v <= 1.0 for v in values)
          and math.isclose(mean, sum(fold_auc.values()) / len(fold_auc), rel_tol=1e-12))
    return "eval_consistency", ok, f"{len(fold_auc)} folds, mean auc {mean!r}"


def mean_auc(eval_path) -> float:
    return float(read_eval(eval_path)[-1][5])
