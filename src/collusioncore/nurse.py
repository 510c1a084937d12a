"""Three-branch fusion classifier over per-user feature blocks.

The embedding block runs through a width-2 convolution (32 channels, no
padding), ReLU and a global max-pool per channel. Each branch then takes
one path: a fully connected layer (64, 32 and 16 units) on the pooled row,
the similarity or the metadata block, ReLU, and dropout at train time on
the latter two. Active branch outputs are concatenated, fused through a
16-unit layer and classified by a 2-way softmax. Forward, backward and the
training loop are implemented directly in numpy; training is deterministic
per seed. Feature z-scoring is fitted on the training set and stored inside
the model. Evaluation ranks users by core probability and reports
precision, recall and F1 at every cutoff and at the break-even cutoff, and
the AUC.

The conv is the only dense (users, channels, positions) work: the forward
pass keeps just the pooled value and the two inputs at the pooled position
of each channel, and the conv gradient flows through that position alone.
Training evaluates the full-set objective after every epoch under exactly
the parameters the next epoch's first batch uses, so that batch takes its
conv rows from the objective's pass instead of recomputing them.
"""

import json
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .features import MFE_SIZE, SFE_SIZE

BRANCH_ORDER = ("tfe", "sfe", "mfe")  # concatenation order of branch outputs
ALL_BRANCHES = ("mfe", "sfe", "tfe")
CORE = 1  # class index of the core label in softmax outputs
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class NurseConfig:
    embedding_dim: int = 768
    conv_channels: int = 32
    conv_filter: int = 2
    tfe_fc: int = 64
    sfe_fc: int = 32
    sfe_dropout: float = 0.3
    mfe_fc: int = 16
    mfe_dropout: float = 0.25
    fusion_fc: int = 16
    classes: int = 2
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 300
    batch_size: int = 32
    seed: int = 0
    branches: tuple = ALL_BRANCHES
    class_weight: str = "none"  # "none" | "balanced"

    def __post_init__(self):
        for name in ("embedding_dim", "conv_channels", "tfe_fc", "sfe_fc", "mfe_fc",
                     "fusion_fc", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("conv_filter", "classes"):  # the kernels are width-2 and 2-way
            if getattr(self, name) != 2:
                raise ValueError(f"{name} must be 2")
        for name in ("sfe_dropout", "mfe_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if not self.branches or any(b not in ALL_BRANCHES for b in self.branches):
            raise ValueError(f"branches must be a non-empty subset of {ALL_BRANCHES}")
        if self.class_weight not in ("none", "balanced"):
            raise ValueError("class_weight must be 'none' or 'balanced'")

    @property
    def branch_widths(self) -> dict:
        return {"tfe": self.tfe_fc, "sfe": self.sfe_fc, "mfe": self.mfe_fc}

    @property
    def fusion_input(self) -> int:
        return sum(self.branch_widths[b] for b in BRANCH_ORDER if b in self.branches)


@dataclass
class NurseModel:
    config: NurseConfig
    params: dict
    norm_mean: dict
    norm_std: dict


def _relu(x):
    return np.maximum(x, 0.0)


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _param_shapes(config: NurseConfig) -> dict:
    """Shape of every parameter tensor, in initialization order."""
    layers = []  # (name, outputs, inputs): weight (outputs, inputs), bias (outputs,)
    if "tfe" in config.branches:
        layers.append(("conv", config.conv_channels, config.conv_filter))
    # a branch's dense layer reads its input block, except tfe's: the conv pool
    inputs = dict(_input_sizes(config), tfe=config.conv_channels)
    layers += [(b, config.branch_widths[b], inputs[b])
               for b in BRANCH_ORDER if b in config.branches]
    layers += [("fus", config.fusion_fc, config.fusion_input),
               ("out", config.classes, config.fusion_fc)]
    shapes = {}
    for name, n_out, n_in in layers:
        shapes[f"{name}_w"] = (n_out, n_in)
        shapes[f"{name}_b"] = (n_out,)
    return shapes


def _input_sizes(config: NurseConfig) -> dict:
    sizes = {"mfe": MFE_SIZE, "sfe": SFE_SIZE, "tfe": config.embedding_dim}
    return {branch: sizes[branch] for branch in config.branches}


def init_model(config: NurseConfig, rng=None) -> NurseModel:
    """Fresh parameters (He-scaled normals, zero biases), identity scaling."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape in _param_shapes(config).items():
        if name.endswith("_w"):  # fan-in is the second axis of every weight
            params[name] = rng.standard_normal(shape) * np.sqrt(2.0 / shape[1])
        else:
            params[name] = np.zeros(shape)
    sizes = _input_sizes(config)
    norm_mean = {branch: np.zeros(size) for branch, size in sizes.items()}
    norm_std = {branch: np.ones(size) for branch, size in sizes.items()}
    return NurseModel(config=config, params=params, norm_mean=norm_mean, norm_std=norm_std)


def _raw_inputs(features, config: NurseConfig) -> dict:
    X = {}
    for branch, size in _input_sizes(config).items():
        X[branch] = np.stack([np.asarray(getattr(fv, branch), dtype=float) for fv in features])
        if X[branch].shape[1] != size:
            raise ValueError(f"{branch} block must have {size} entries, "
                             f"got {X[branch].shape[1]}")
    return X


def _standardize(model: NurseModel, X: dict) -> dict:
    return {
        b: (X[b] - model.norm_mean[b]) / model.norm_std[b] for b in X
    }


def _conv_pool(T, conv_w, conv_b):
    """(pooled, t0, t1) per (user, channel): the max-pooled ReLU of the width-2
    conv over ``T`` and the two inputs at the pooled position.

    The argmax runs on the pre-activation. Wherever a channel's maximum is
    positive it is the argmax of the ReLU; elsewhere the pooled value is 0
    and no gradient flows, so the position does not matter.
    """
    z = np.multiply(T[:, None, :-1], conv_w[None, :, 0, None])
    z += T[:, None, 1:] * conv_w[None, :, 1, None]
    z += conv_b[None, :, None]
    idx = np.argmax(z, axis=2)
    pooled = _relu(np.take_along_axis(z, idx[:, :, None], axis=2)[:, :, 0])
    return pooled, np.take_along_axis(T, idx, axis=1), np.take_along_axis(T, idx + 1, axis=1)


def _forward_batch(model: NurseModel, X: dict, train_mode: bool = False, rng=None,
                   conv=None):
    """Run the network on standardized inputs; returns (probs, cache).

    ``conv`` may give the :func:`_conv_pool` rows of ``X["tfe"]`` under the
    current conv parameters, computed by an earlier pass, to skip the conv.
    """
    cfg = model.config
    p = model.params
    if train_mode and rng is None:
        raise ValueError("train_mode forward needs an rng for dropout")
    cache: dict = {}
    parts = []
    for branch in (b for b in BRANCH_ORDER if b in cfg.branches):
        if branch == "tfe":
            if conv is None:
                conv = _conv_pool(X["tfe"], p["conv_w"], p["conv_b"])
            cache["conv"] = conv
            x = conv[0]
        else:
            x = X[branch]
        z = x @ p[f"{branch}_w"].T + p[f"{branch}_b"]
        h = _relu(z)
        rate = getattr(cfg, f"{branch}_dropout", 0.0)  # tfe has no dropout
        mask = None
        if train_mode and rate > 0:
            mask = (rng.random(h.shape) >= rate) / (1.0 - rate)
            h = h * mask
        cache[branch] = (x, z, mask)
        parts.append(h)

    fused_in = np.concatenate(parts, axis=1)
    z_fus = fused_in @ p["fus_w"].T + p["fus_b"]
    h_fus = _relu(z_fus)
    logits = h_fus @ p["out_w"].T + p["out_b"]
    probs = _softmax(logits)
    cache.update(fused_in=fused_in, z_fus=z_fus, h_fus=h_fus)
    return probs, cache


def _backward_batch(model: NurseModel, cache: dict, d_logits) -> dict:
    """Gradients of the loss w.r.t. every parameter tensor."""
    cfg = model.config
    p = model.params
    g: dict = {}
    g["out_w"] = d_logits.T @ cache["h_fus"]
    g["out_b"] = d_logits.sum(axis=0)
    d_hfus = d_logits @ p["out_w"]
    d_zfus = d_hfus * (cache["z_fus"] > 0)
    g["fus_w"] = d_zfus.T @ cache["fused_in"]
    g["fus_b"] = d_zfus.sum(axis=0)
    d_fused = d_zfus @ p["fus_w"]

    offset = 0
    for branch in (b for b in BRANCH_ORDER if b in cfg.branches):
        x, z, mask = cache[branch]
        d_h = d_fused[:, offset:offset + z.shape[1]]
        offset += z.shape[1]
        if mask is not None:
            d_h = d_h * mask
        d_z = d_h * (z > 0)
        g[f"{branch}_w"] = d_z.T @ x
        g[f"{branch}_b"] = d_z.sum(axis=0)
        if branch == "tfe":
            pooled, t0, t1 = cache["conv"]
            d_zconv = (d_z @ p["tfe_w"]) * (pooled > 0)  # only the pooled position
            g["conv_b"] = d_zconv.sum(axis=0)
            g["conv_w"] = np.stack(
                [np.einsum("bc,bc->c", d_zconv, t0), np.einsum("bc,bc->c", d_zconv, t1)],
                axis=1,
            )
    return g


def _labels_array(features) -> np.ndarray:
    labels = []
    for fv in features:
        if fv.label not in ("core", "compromised"):
            raise ValueError(f"user '{fv.user_id}' has no core/compromised label")
        labels.append(1 if fv.label == "core" else 0)
    return np.array(labels, dtype=int)


def _cross_entropy(probs, y, sample_weight=None):
    p_core = np.clip(probs[:, CORE], PROB_FLOOR, 1.0 - PROB_FLOOR)
    ce = -(y * np.log(p_core) + (1 - y) * np.log(1.0 - p_core))
    if sample_weight is not None:
        ce = ce * sample_weight
    return float(ce.mean())


def _d_logits(probs, y, sample_weight=None):
    """Gradient of the mean (weighted) cross-entropy w.r.t. the logits."""
    onehot = np.stack([1 - y, y], axis=1).astype(float)
    d_logits = (probs - onehot) / len(y)
    if sample_weight is not None:
        d_logits = d_logits * sample_weight[:, None]
    return d_logits


def predict_proba(model: NurseModel, features) -> np.ndarray:
    """Per-user (compromised, core) probability rows, evaluation mode."""
    X = _standardize(model, _raw_inputs(features, model.config))
    probs, _ = _forward_batch(model, X, train_mode=False)
    return probs


def score_users(model: NurseModel, features) -> list:
    """(user_id, core probability, label) triples, in input order."""
    probs = predict_proba(model, features)
    return [(fv.user_id, float(probs[i, CORE]), fv.label) for i, fv in enumerate(features)]


def loss(model: NurseModel, batch) -> float:
    """Mean binary cross-entropy of the core-class probability on a batch."""
    if not batch:
        raise ValueError("loss requires a non-empty batch")
    y = _labels_array(batch)
    probs = predict_proba(model, batch)
    return _cross_entropy(probs, y)


def loss_and_grads(model: NurseModel, batch):
    """(loss, analytic parameter gradients) in evaluation mode.

    The backward pass pairs with the unweighted mean cross-entropy used by
    :func:`loss`, which makes it directly comparable to finite differences.
    """
    y = _labels_array(batch)
    X = _standardize(model, _raw_inputs(batch, model.config))
    probs, cache = _forward_batch(model, X, train_mode=False)
    return _cross_entropy(probs, y), _backward_batch(model, cache, _d_logits(probs, y))


def train(features, config: NurseConfig) -> NurseModel:
    """Mini-batch momentum SGD, returning the best-loss checkpoint.

    Deterministic for a fixed seed. The z-scoring constants are fitted on
    the given training features and stored in the model; the checkpoint is
    chosen by the full-set training objective evaluated after every epoch
    (the untrained state included).
    """
    if not features:
        raise ValueError("train requires a non-empty feature list")
    features = sorted(features, key=lambda fv: fv.user_id)
    y = _labels_array(features)
    n_core = int(y.sum())
    if n_core < 2 or len(y) - n_core < 2:
        raise ValueError("train requires at least 2 examples of each class")

    rng = np.random.default_rng(config.seed)
    model = init_model(config, rng)
    raw = _raw_inputs(features, config)
    for branch in config.branches:
        model.norm_mean[branch] = raw[branch].mean(axis=0)
        std = raw[branch].std(axis=0)
        std[std == 0.0] = 1.0
        model.norm_std[branch] = std
    X = _standardize(model, raw)

    if config.class_weight == "balanced":
        counts = np.bincount(y, minlength=2)
        weights = (len(y) / (2.0 * counts))[y]
    else:
        weights = None

    def objective():
        """Full-set loss under the current parameters, and the pass's cache."""
        probs, cache = _forward_batch(model, X, train_mode=False)
        return _cross_entropy(probs, y, weights), cache

    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    best_loss, full = objective()
    best_params = {k: v.copy() for k, v in model.params.items()}
    n = len(features)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch_X = {b: X[b][idx] for b in X}
            # The epoch's first batch runs under the parameters of the last
            # objective pass, and the conv has no dropout: reuse its rows.
            conv = tuple(a[idx] for a in full["conv"]) if start == 0 and "conv" in full else None
            probs, cache = _forward_batch(model, batch_X, train_mode=True, rng=rng, conv=conv)
            d_logits = _d_logits(probs, y[idx], None if weights is None else weights[idx])
            grads = _backward_batch(model, cache, d_logits)
            for key, grad in grads.items():
                velocity[key] = config.momentum * velocity[key] - config.learning_rate * grad
                model.params[key] = model.params[key] + velocity[key]
        epoch_loss, full = objective()
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_params = {k: v.copy() for k, v in model.params.items()}
    model.params = best_params
    return model


# ---------------------------------------------------------------------------
# Ranking evaluation
# ---------------------------------------------------------------------------

def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Rank-sum formulation; tied scores contribute one half.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc requires both classes")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=float)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0  # average rank, 1-based
        i = j + 1
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _prf(hits: int, k: int, n_pos: int):
    """(precision, recall, F1) of a top-k cut holding ``hits`` of ``n_pos`` positives."""
    precision = hits / k
    recall = hits / n_pos
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    n: int
    n_core: int
    auc: float
    precision_at: tuple
    recall_at: tuple
    f1_at: tuple
    break_even_k: int
    break_even_precision: float
    break_even_recall: float
    break_even_f1: float


@dataclass(frozen=True)
class EvalReport:
    mode: str
    folds: tuple
    mean_auc: float
    mean_break_even_precision: float
    mean_break_even_recall: float
    mean_break_even_f1: float
    curve_ks: tuple
    mean_f1_at: tuple


def rank_users(scored) -> list:
    """Sort (user_id, score, label) triples by descending score, then id."""
    return sorted(scored, key=lambda t: (-t[1], t[0]))


def fold_metrics(fold: int, scored) -> FoldMetrics:
    """Ranking metrics of one held-out set of (user_id, core score, label) triples."""
    ranked = rank_users(scored)
    labels = [1 if lab == "core" else 0 for _, _, lab in ranked]
    fold_auc = auc([s for _, s, _ in ranked], labels)  # checks both classes are present
    n_pos = sum(labels)
    curve, hits = [], 0
    for k, label in enumerate(labels, 1):
        hits += label
        curve.append(_prf(hits, k, n_pos))
    p_at, r_at, f_at = zip(*curve)
    be_p, be_r, be_f = curve[n_pos - 1]
    return FoldMetrics(
        fold=fold,
        n=len(ranked),
        n_core=n_pos,
        auc=fold_auc,
        precision_at=p_at,
        recall_at=r_at,
        f1_at=f_at,
        break_even_k=n_pos,
        break_even_precision=be_p,
        break_even_recall=be_r,
        break_even_f1=be_f,
    )


def min_class_size(folds: int) -> int:
    """Fewest users per class for ``folds``-fold evaluation: one per fold held
    out, and two left in every fold's training set (see :func:`train`)."""
    return max(folds, -(-2 * folds // (folds - 1)))


def class_split(features, rng=None) -> tuple:
    """(core, compromised) feature lists, each in input order.

    With ``rng`` (a numpy Generator or a seed) the larger class is
    undersampled to the size of the smaller one; kept users stay in order.
    """
    core = [fv for fv in features if fv.label == "core"]
    comp = [fv for fv in features if fv.label == "compromised"]
    if rng is not None:
        rng = np.random.default_rng(rng)
        target = min(len(core), len(comp))
        core, comp = (
            [group[i] for i in sorted(rng.choice(len(group), size=target, replace=False))]
            if len(group) > target else group
            for group in (core, comp)
        )
    return core, comp


def summarize_folds(mode: str, per_fold) -> EvalReport:
    """Report of per-fold metrics: fold means, curves cut to the smallest fold."""
    min_n = min(fm.n for fm in per_fold)
    ks = tuple(range(1, min_n + 1))

    def mean(values):
        return float(np.mean(list(values)))

    return EvalReport(
        mode=mode,
        folds=tuple(per_fold),
        mean_auc=mean(fm.auc for fm in per_fold),
        mean_break_even_precision=mean(fm.break_even_precision for fm in per_fold),
        mean_break_even_recall=mean(fm.break_even_recall for fm in per_fold),
        mean_break_even_f1=mean(fm.break_even_f1 for fm in per_fold),
        curve_ks=ks,
        mean_f1_at=tuple(mean(fm.f1_at[k - 1] for fm in per_fold) for k in ks),
    )


def evaluate(features, config: NurseConfig, mode: str = "balanced_1to1",
             folds: int = 10, seed: int = 0) -> EvalReport:
    """Stratified cross-validated ranking evaluation.

    ``balanced_1to1`` undersamples the majority class to parity (seeded)
    before folding; ``complete`` keeps every user and trains fold models
    with class-balanced loss. Per fold, a fresh model is trained on the
    other folds (training seed = config.seed + 7919 * (fold + 1)) and the
    held-out users are ranked by core probability. The break-even cutoff
    per fold equals its number of true core users.
    """
    if mode not in ("balanced_1to1", "complete"):
        raise ValueError("mode must be 'balanced_1to1' or 'complete'")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    features = sorted(features, key=lambda fv: fv.user_id)
    _labels_array(features)  # validates labels
    rng = np.random.default_rng(seed)
    core, comp = class_split(features, rng if mode == "balanced_1to1" else None)
    if min(len(core), len(comp)) < min_class_size(folds):
        raise ValueError(
            f"impossible stratification: need >= {min_class_size(folds)} users per class "
            f"for {folds} folds, have {len(core)} core / {len(comp)} compromised"
        )
    assignments: dict = {}
    for group in (core, comp):
        for position, index in enumerate(rng.permutation(len(group))):
            assignments[group[index].user_id] = position % folds
    pool = sorted(core + comp, key=lambda fv: fv.user_id)

    fold_config = config if mode == "balanced_1to1" else replace(config, class_weight="balanced")
    per_fold = []
    for fold in range(folds):
        train_set = [fv for fv in pool if assignments[fv.user_id] != fold]
        test_set = [fv for fv in pool if assignments[fv.user_id] == fold]
        model = train(train_set, replace(fold_config, seed=config.seed + 7919 * (fold + 1)))
        per_fold.append(fold_metrics(fold, score_users(model, test_set)))
    return summarize_folds(mode, per_fold)


ABLATION_SUBSETS = (
    ("mfe", ("mfe",)),
    ("sfe", ("sfe",)),
    ("tfe", ("tfe",)),
    ("mfe+sfe", ("mfe", "sfe")),
    ("mfe+tfe", ("mfe", "tfe")),
    ("sfe+tfe", ("sfe", "tfe")),
    ("all", ALL_BRANCHES),
)


def ablations(features, config: NurseConfig, mode: str = "balanced_1to1",
              folds: int = 10, seed: int = 0) -> dict:
    """Cross-validated reports per branch subset, keyed by subset name.

    Absent branches are removed from the architecture entirely, shrinking
    the fusion layer input accordingly.
    """
    out = {}
    for name, branches in ABLATION_SUBSETS:
        out[name] = evaluate(features, replace(config, branches=branches),
                             mode=mode, folds=folds, seed=seed)
    return out


# ---------------------------------------------------------------------------
# Model and report files
# ---------------------------------------------------------------------------

MODEL_FORMAT = 1


def save_model(model: NurseModel, path) -> None:
    """Versioned dump of config, parameters and scaling constants."""
    arrays = {f"param_{k}": v for k, v in model.params.items()}
    arrays.update({f"mean_{k}": v for k, v in model.norm_mean.items()})
    arrays.update({f"std_{k}": v for k, v in model.norm_std.items()})
    cfg = {k: (list(v) if isinstance(v, tuple) else v)
           for k, v in model.config.__dict__.items()}
    meta = json.dumps({"format": MODEL_FORMAT, "config": cfg}, sort_keys=True)
    np.savez(path, meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8), **arrays)


def load_model(path) -> NurseModel:
    """Inverse of :func:`save_model`; predictions round-trip bit-exactly.

    A file that is not such a model, or whose arrays do not fit its config,
    raises ValueError.
    """
    try:
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
        if meta.get("format") != MODEL_FORMAT:
            raise ValueError(f"unsupported model format {meta.get('format')}")
        cfg_dict = dict(meta["config"])
        cfg_dict["branches"] = tuple(cfg_dict["branches"])
        config = NurseConfig(**cfg_dict)
    except (AttributeError, EOFError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a model file ({type(exc).__name__}: {exc})") from None
    shapes = {f"param_{k}": shape for k, shape in _param_shapes(config).items()}
    for branch, size in _input_sizes(config).items():
        shapes[f"mean_{branch}"] = shapes[f"std_{branch}"] = (size,)
    if {k: (a.shape, a.dtype.kind) for k, a in arrays.items()} != {
            k: (shape, "f") for k, shape in shapes.items()}:
        raise ValueError(f"{path}: arrays do not match the model config")

    def strip(prefix):
        return {k[len(prefix):]: a for k, a in arrays.items() if k.startswith(prefix)}

    return NurseModel(config=config, params=strip("param_"),
                      norm_mean=strip("mean_"), norm_std=strip("std_"))


def write_eval_report(report: EvalReport, path) -> None:
    """CSV with one row per fold and cutoff, plus a break-even summary row."""
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write("fold,k,precision,recall,f1,auc\n")
        for fm in report.folds:
            for k in range(1, fm.n + 1):
                handle.write(
                    f"{fm.fold},{k},{fm.precision_at[k - 1]!r},"
                    f"{fm.recall_at[k - 1]!r},{fm.f1_at[k - 1]!r},{fm.auc!r}\n"
                )
        handle.write(
            f"mean,breakeven,{report.mean_break_even_precision!r},"
            f"{report.mean_break_even_recall!r},{report.mean_break_even_f1!r},"
            f"{report.mean_auc!r}\n"
        )


def write_method_curves(reports: dict, f1_path, auc_path) -> None:
    """Per-method mean F1@k and AUC rows for comparison plots."""
    with Path(f1_path).open("w", encoding="utf-8") as handle:
        handle.write("method,k,f1\n")
        for method in sorted(reports):
            report = reports[method]
            for i, k in enumerate(report.curve_ks):
                handle.write(f"{method},{k},{report.mean_f1_at[i]!r}\n")
    with Path(auc_path).open("w", encoding="utf-8") as handle:
        handle.write("method,k,auc\n")
        for method in sorted(reports):
            report = reports[method]
            for k in report.curve_ks:
                handle.write(f"{method},{k},{report.mean_auc!r}\n")
