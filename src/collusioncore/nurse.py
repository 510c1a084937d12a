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

The conv pre-activation at position l is linear in the point
(T[l], T[l+1]), so its maximum over l lies on the convex hull of the
user's points. Training therefore finds, once per user, the positions on
the two outer convex layers (exact orientation tests, Akl-Toussaint
pruning, Andrew's monotone chain), and every step evaluates the conv at
those candidates only. Only training builds them, because only its many
steps pay the build back: ``predict_proba`` makes one pass, and runs the
dense kernel over blocks of users instead. A (user, channel) cell is
certified when the second layer's maximum, plus a rounding bound, stays
below the first layer's: then the dense kernel's first-index argmax lies
on layer 1, whose values are the dense values bit for bit. A user with
any uncertified cell takes the dense kernel over all positions. The
forward pass keeps just the pooled value and the two inputs at the pooled
position of each channel, and the conv gradient flows through that
position alone. Training evaluates the full-set objective after every
epoch under exactly the parameters the next epoch's first batch uses, so
that batch takes its conv rows from the objective's pass instead of
recomputing them.

Training runs a stack of models at once: ``train`` is a stack of one, and
cross-validation stacks the folds whose training sets are equally large.
The parameters, their velocity, the batch gradient and the best
checkpoint are (models, P) float64 arrays; the parameters and gradients
the passes see are reshaped views of theirs with a leading model axis, so
the backward pass writes every gradient in place, a momentum step is four
in-place operations over whole arrays, and each step pays numpy's per-call
cost once for the whole stack. The conv candidates of all the stack's
rows are laid out (channel, candidate, row) in two buffers allocated once,
so its elementwise passes run along long contiguous rows. Every operation
is elementwise, a reduction each model takes along its own axis in the
same order, or one BLAS call per model on the arguments of a one-model
pass, so each model is the same bit for bit as trained alone.

Cross-validation folds are independent (each trains from its own seed), so
``evaluate`` splits them into contiguous runs, one per forked worker
process, one worker per CPU the process may run on, at most one per fold.
Each worker trains its run as stacks and the results are collected in
fold order, so the report does not depend on the number of workers.
"""

import json
import math
import multiprocessing
import os
import zipfile
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .features import MFE_SIZE, SFE_SIZE
from .settings import SETTINGS, check
from .tables import write_rows

BRANCH_ORDER = ("tfe", "sfe", "mfe")  # concatenation order of branch outputs
CORE = 1  # class index of the core label in softmax outputs
PROB_FLOOR = 1e-12
PREDICT_BLOCK = 32  # users per dense conv pass in predict_proba
HULL_BLOCK = 128  # rows per convex-layer search in training
# the NurseConfig fields named as their settings (embedding_dim is the "dim" setting)
TRAIN_SETTINGS = ("learning_rate", "momentum", "epochs", "batch_size", "seed")

# The paper's fixed architecture (NurseConfig holds the training settings):
# conv channels, one dense layer per branch, train-time dropout on the
# similarity and metadata branches, the fusion layer.
CONV_CHANNELS = 32
BRANCH_WIDTHS = {"tfe": 64, "sfe": 32, "mfe": 16}
FUSION_WIDTH = 16
DROPOUT = {"sfe": 0.3, "mfe": 0.25}


@dataclass(frozen=True)
class NurseConfig:
    embedding_dim: int = SETTINGS["dim"].default
    learning_rate: float = SETTINGS["learning_rate"].default
    momentum: float = SETTINGS["momentum"].default
    epochs: int = SETTINGS["epochs"].default
    batch_size: int = SETTINGS["batch_size"].default
    seed: int = 0
    branches: tuple = BRANCH_ORDER
    class_weight: str = "none"  # "none" | "balanced"

    def __post_init__(self):
        check("dim", self.embedding_dim, "embedding_dim")
        for name in TRAIN_SETTINGS:
            check(name, getattr(self, name))
        if not self.branches or any(b not in BRANCH_ORDER for b in self.branches):
            raise ValueError(f"branches must be a non-empty subset of {BRANCH_ORDER}")
        if self.class_weight not in ("none", "balanced"):
            raise ValueError("class_weight must be 'none' or 'balanced'")


@dataclass
class NurseModel:
    config: NurseConfig
    params: dict
    norm_mean: dict
    norm_std: dict


def _relu(x):
    return np.maximum(x, 0.0)


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _param_shapes(config: NurseConfig) -> dict:
    """Shape of every parameter tensor, in initialization order."""
    layers = []  # (name, outputs, inputs): weight (outputs, inputs), bias (outputs,)
    active = [b for b in BRANCH_ORDER if b in config.branches]
    if "tfe" in active:
        layers.append(("conv", CONV_CHANNELS, 2))  # width-2 filters
    # a branch's dense layer reads its input block, except tfe's: the conv pool
    inputs = dict(_input_sizes(config), tfe=CONV_CHANNELS)
    layers += [(b, BRANCH_WIDTHS[b], inputs[b]) for b in active]
    layers += [("fus", FUSION_WIDTH, sum(BRANCH_WIDTHS[b] for b in active)),
               ("out", 2, FUSION_WIDTH)]  # 2-way softmax
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
    """Each block z-scored."""
    return {b: (X[b] - model.norm_mean[b]) / model.norm_std[b] for b in X}


# ---------------------------------------------------------------------------
# The conv over each user's two outer convex layers
# ---------------------------------------------------------------------------

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)  # smallest normal: covers products that underflow
ORIENT_BOUND = (3.0 + 8.0 * EPS) * EPS / 2  # Shewchuk's ccwerrboundA


def _orient_float(ax, ay, bx, by, cx, cy):
    """(det, bound): det > 0 when a, b, c turn counter-clockwise, and the
    sign of det is exact wherever |det| > bound (Shewchuk 1997)."""
    left = (ax - cx) * (by - cy)
    right = (ay - cy) * (bx - cx)
    return left - right, ORIENT_BOUND * (abs(left) + abs(right)) + TINY


def _orient(a, b, c) -> int:
    """Exact sign of the turn a -> b -> c of float points: 1, 0 or -1."""
    det, bound = _orient_float(*a, *b, *c)
    if abs(det) > bound:  # false for nan, so overflow goes exact
        return 1 if det > 0 else -1
    (ax, ay), (bx, by), (cx, cy) = (map(Fraction, p) for p in (a, b, c))
    exact = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (exact > 0) - (exact < 0)


def _hull_boundary(points) -> set:
    """The distinct points that lie on the boundary of their convex hull:
    vertices and the points on its edges (Andrew's monotone chain, popping
    only on a strict clockwise turn)."""
    ordered = sorted(points)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _orient(out[-2], out[-1], p) < 0:
                out.pop()
            out.append(p)
        return out

    return set(chain(ordered)) | set(chain(reversed(ordered)))


def _octagon_interior(x, y, alive):
    """Mask of the alive points strictly inside the polygon of each row's
    extreme alive points in 8 directions (Akl & Toussaint 1978).

    The polygon's vertices are points of the row, so a point strictly inside
    it is strictly inside the row's hull. A point counts as inside only when
    every orientation test says so beyond its error bound.
    """
    rows = np.arange(len(x))[:, None]
    keys = (x, x + y, y, y - x, -x, -x - y, -y, x - y)  # counter-clockwise
    ext = np.stack([np.argmax(np.where(alive, k, -np.inf), axis=1) for k in keys], axis=1)
    vx, vy = x[rows, ext], y[rows, ext]
    inside = alive.copy()
    proper = np.zeros(len(x), dtype=bool)  # has an edge of nonzero length
    for k in range(8):
        ax, ay = vx[:, k, None], vy[:, k, None]
        bx, by = vx[:, (k + 1) % 8, None], vy[:, (k + 1) % 8, None]
        degenerate = (ax == bx) & (ay == by)
        proper |= ~degenerate[:, 0]
        det, bound = _orient_float(ax, ay, bx, by, x, y)
        inside &= (det > bound) | degenerate
    return inside & proper[:, None]


def _layer(x, y, alive):
    """Mask of the alive points on the hull boundary of each row's alive
    points, duplicates included."""
    rows, cols = np.nonzero(alive & ~_octagon_interior(x, y, alive))
    xs, ys = x[rows, cols].tolist(), y[rows, cols].tolist()
    starts = np.searchsorted(rows, np.arange(len(x) + 1)).tolist()
    on = np.zeros_like(alive)
    for row, (lo, hi) in enumerate(zip(starts, starts[1:])):
        points = list(zip(xs[lo:hi], ys[lo:hi]))
        boundary = _hull_boundary(set(points))
        on[row, cols[lo:hi][[p in boundary for p in points]]] = True
    return on


def _padded_positions(mask):
    """(users, K) positions of each row's True entries, ascending, padded
    with the row's first one (0 for an empty row); K is at least 1."""
    counts = mask.sum(axis=1)
    rows, cols = np.nonzero(mask)
    idx = np.zeros((len(mask), max(int(counts.max(initial=0)), 1)), dtype=np.intp)
    idx[rows, np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]] = cols
    return np.where(np.arange(idx.shape[1]) < counts[:, None], idx, idx[:, :1])


@dataclass(frozen=True)
class _ConvexLayers:
    """Conv candidates of a standardized TFE block, one column per row.

    ``t0``/``t1`` are (candidates, rows): the two inputs at the positions
    of the row's first convex layer (candidates before ``split``) and of
    its second layer (the rest), each layer in ascending position order and
    padded by repeating its first entry. ``work`` is the two flat buffers
    :func:`_conv_pool` writes its (channel, candidate, row) pre-activation
    into, sized for every row, so a batch of the rows reuses them.
    """
    t0: np.ndarray
    t1: np.ndarray
    split: int
    has_inner: np.ndarray  # the row has points off layer 1
    scale: np.ndarray  # max |T| of the row
    work: tuple

    def __getitem__(self, rows):
        return _ConvexLayers(self.t0.take(rows, axis=1), self.t1.take(rows, axis=1), self.split,
                            self.has_inner[rows], self.scale[rows], self.work)


def _layer_masks(T):
    """(layer 1, layer 2) masks over the conv positions of each row of ``T``:
    the points (T[l], T[l+1]) on the boundary of their convex hull, then
    those on the hull boundary of the points left. A non-finite row puts
    every position in layer 1."""
    x, y = T[:, :-1], T[:, 1:]
    alive = np.repeat(np.isfinite(T).all(axis=1)[:, None], x.shape[1], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan tests never prune
        outer = _layer(x, y, alive) | ~alive
        return outer, _layer(x, y, ~outer)


def _convex_layers(T) -> _ConvexLayers:
    """The candidates of every row of ``T``; the masks are found a block of
    ``HULL_BLOCK`` rows at a time, which bounds their float temporaries."""
    blocks = [_layer_masks(T[i:i + HULL_BLOCK]) for i in range(0, len(T), HULL_BLOCK)]
    outer, inner = (np.concatenate(masks) for masks in zip(*blocks))
    outer_idx = _padded_positions(outer)
    idx = np.concatenate([outer_idx, _padded_positions(inner)], axis=1)
    size = CONV_CHANNELS * idx.size
    return _ConvexLayers(
        t0=np.take_along_axis(T, idx, axis=1).T.copy(),
        t1=np.take_along_axis(T, idx + 1, axis=1).T.copy(),
        split=outer_idx.shape[1],
        has_inner=inner.any(axis=1),
        scale=np.abs(T).max(axis=1),
        work=(np.empty(size), np.empty(size)),
    )


def _dense_pool(T, conv_w, conv_b):
    """(pooled, t0, t1) per (user, channel) from the conv at every position.

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


def _conv_pool(T, hull: _ConvexLayers, conv_w, conv_b):
    """(pooled, t0, t1) per (row, channel): the max-pooled ReLU of the width-2
    conv over ``T`` and the two inputs at the pooled position, equal to
    :func:`_dense_pool` bit for bit.

    ``conv_w``/``conv_b`` are one model's (channels, 2) and (channels,)
    parameters, or a stack's (models, channels, 2) and (models, channels):
    then the rows of ``T`` are one equal run per model, in model order.

    The candidates are laid out (channel, candidate, row) in ``hull.work``,
    so every elementwise pass runs along rows, and evaluated with the dense
    kernel's multiply, add, add under each row's own parameters, so layer 1
    holds the dense values of its positions. Its top is the maximum over
    the candidate axis, at the first candidate equal to it (or the first
    nan), as the dense argmax takes it. Rounding bound: a
    value is fl(fl(fl(w0 t0) + fl(t1 w1)) + b), within 1.5 eps (R + |b|)
    of the exact w0 t0 + w1 t1 + b, where R = max|T| (|w0| + |w1|). A
    position off layer 1 lies in the hull of layer 2, so its exact value is
    at most layer 2's exact maximum and its computed value at most
    max(layer 2) + 3 eps (R + |b|). The slack of 8 eps (R + |b|) also covers
    the rounding of R, of the slack and of its sum with max(layer 2); TINY
    covers products that underflow. Where max(layer 2) + slack is below
    max(layer 1), every position off layer 1 computes strictly below the
    pooled value, so the dense first-index argmax is layer 1's.
    """
    conv_w, conv_b = conv_w.reshape(-1, CONV_CHANNELS, 2), conv_b.reshape(-1, CONV_CHANNELS)
    rows = len(T)
    run = rows // len(conv_w)
    # (channel, row) parameters: each model's, repeated over its run of rows
    w0, w1, b = (np.repeat(a.T, run, axis=1) for a in (conv_w[:, :, 0], conv_w[:, :, 1], conv_b))
    shape = (CONV_CHANNELS,) + hull.t0.shape
    z, work = (buf[:math.prod(shape)].reshape(shape) for buf in hull.work)
    # each weight spread over the candidates first: then every product runs
    # one channel's (candidate, row) block at a time
    np.copyto(z, w0[:, None])
    z *= hull.t0
    np.copyto(work, w1[:, None])
    work *= hull.t1
    z += work
    z += b[:, None]
    layer1 = z[:, :hull.split]
    top = layer1.max(axis=1)
    first = layer1 == top[:, None]
    if np.isnan(top).any():
        first |= np.isnan(layer1)
    # the first True is the one of the largest rank split - k
    rank = np.arange(hull.split, 0, -1, dtype=np.min_scalar_type(hull.split))[:, None]
    idx = hull.split - np.multiply(first, rank).max(axis=1).astype(np.intp)
    reach = hull.scale * (np.abs(w0) + np.abs(w1))
    slack = 8 * EPS * (reach + np.abs(b)) + TINY
    certified = (z[:, hull.split:].max(axis=1) + slack < top) | ~hull.has_inner
    at = idx.T * rows + np.arange(rows)[:, None]  # (row, channel) into (candidate, row)
    pooled, t0, t1 = _relu(top.T.copy()), hull.t0.take(at), hull.t1.take(at)
    dense = np.flatnonzero(~certified.all(axis=0))
    for m in dict.fromkeys((dense // run).tolist()):
        mine = dense[dense // run == m]
        pooled[mine], t0[mine], t1[mine] = _dense_pool(T[mine], conv_w[m], conv_b[m])
    return pooled, t0, t1


def _forward_batch(model: NurseModel, X: dict, train_mode: bool = False, rng=None,
                   conv=None):
    """Run the network on the inputs of :func:`_standardize`; returns (probs, cache).

    ``model`` may be a stack: parameters with a leading model axis, and the
    rows of each block one equal run per model, in model order. Every array
    of the pass then has that leading axis, and in train mode ``rng`` is one
    generator per model, each drawing its model's dropout masks.

    ``conv`` may give the :func:`_conv_pool` rows of ``X["tfe"]`` under the
    current conv parameters, computed by an earlier pass or by the dense
    kernel, to skip the conv; without it the conv runs over ``X["hull"]``.
    """
    cfg = model.config
    p = model.params
    if train_mode and rng is None:
        raise ValueError("train_mode forward needs an rng for dropout")
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    lead = p["out_b"].shape[:-1]  # (models,) for a stack, () for one model
    cache: dict = {}
    parts = []
    for branch in (b for b in BRANCH_ORDER if b in cfg.branches):
        if branch == "tfe":
            if conv is None:
                conv = _conv_pool(X["tfe"], X["hull"], p["conv_w"], p["conv_b"])
            conv = cache["conv"] = tuple(a.reshape(lead + (-1, CONV_CHANNELS)) for a in conv)
            x = conv[0]
        else:
            x = X[branch].reshape(lead + (-1, X[branch].shape[-1]))
        z = x @ p[f"{branch}_w"].swapaxes(-1, -2) + p[f"{branch}_b"][..., None, :]
        h = _relu(z)
        rate = DROPOUT.get(branch, 0.0)  # tfe has no dropout
        mask = None
        if train_mode and rate > 0:
            mask = np.empty(h.shape)
            for gen, draws in zip(rngs, mask.reshape((-1,) + h.shape[-2:])):
                gen.random(out=draws)
            mask = (mask >= rate) / (1.0 - rate)
            h = h * mask
        cache[branch] = (x, z, mask)
        parts.append(h)

    fused_in = np.concatenate(parts, axis=-1)
    z_fus = fused_in @ p["fus_w"].swapaxes(-1, -2) + p["fus_b"][..., None, :]
    h_fus = _relu(z_fus)
    logits = h_fus @ p["out_w"].swapaxes(-1, -2) + p["out_b"][..., None, :]
    probs = _softmax(logits)
    cache.update(fused_in=fused_in, z_fus=z_fus, h_fus=h_fus)
    return probs, cache


def _backward_batch(model: NurseModel, cache: dict, d_logits, g: dict) -> None:
    """Gradients of the loss w.r.t. every parameter tensor, written into the
    arrays of ``g``, one per parameter key, each of its parameter's shape
    (with the leading model axis of a stack)."""
    cfg = model.config
    p = model.params
    np.matmul(d_logits.swapaxes(-1, -2), cache["h_fus"], out=g["out_w"])
    d_logits.sum(axis=-2, out=g["out_b"])
    d_hfus = d_logits @ p["out_w"]
    d_zfus = d_hfus * (cache["z_fus"] > 0)
    np.matmul(d_zfus.swapaxes(-1, -2), cache["fused_in"], out=g["fus_w"])
    d_zfus.sum(axis=-2, out=g["fus_b"])
    d_fused = d_zfus @ p["fus_w"]

    offset = 0
    for branch in (b for b in BRANCH_ORDER if b in cfg.branches):
        x, z, mask = cache[branch]
        d_h = d_fused[..., offset:offset + z.shape[-1]]
        offset += z.shape[-1]
        if mask is not None:
            d_h = d_h * mask
        d_z = d_h * (z > 0)
        np.matmul(d_z.swapaxes(-1, -2), x, out=g[f"{branch}_w"])
        d_z.sum(axis=-2, out=g[f"{branch}_b"])
        if branch == "tfe":
            pooled, t0, t1 = cache["conv"]
            d_zconv = (d_z @ p["tfe_w"]) * (pooled > 0)  # only the pooled position
            d_zconv.sum(axis=-2, out=g["conv_b"])
            np.einsum("...bc,...bc->...c", d_zconv, t0, out=g["conv_w"][..., 0])
            np.einsum("...bc,...bc->...c", d_zconv, t1, out=g["conv_w"][..., 1])


def _labels_array(features) -> np.ndarray:
    labels = []
    for fv in features:
        if fv.label not in ("core", "compromised"):
            raise ValueError(f"user '{fv.user_id}' has no core/compromised label")
        labels.append(1 if fv.label == "core" else 0)
    return np.array(labels, dtype=int)


def _cross_entropy(probs, y, sample_weight=None):
    """Mean cross-entropy along the last axis: per model for a stack."""
    p_core = np.clip(probs[..., CORE], PROB_FLOOR, 1.0 - PROB_FLOOR)
    ce = -(y * np.log(p_core) + (1 - y) * np.log(1.0 - p_core))
    if sample_weight is not None:
        ce = ce * sample_weight
    return ce.mean(axis=-1)


def predict_proba(model: NurseModel, features) -> np.ndarray:
    """Per-user (compromised, core) probability rows, evaluation mode.

    One pass builds no conv candidates: the dense kernel runs over blocks of
    ``PREDICT_BLOCK`` users, which bounds its (users, channels, positions)
    buffer, and gives the rows :func:`_conv_pool` would give.
    """
    X = _standardize(model, _raw_inputs(features, model.config))
    conv = None
    if "tfe" in X:
        T, conv_w, conv_b = X["tfe"], model.params["conv_w"], model.params["conv_b"]
        blocks = [_dense_pool(T[i:i + PREDICT_BLOCK], conv_w, conv_b)
                  for i in range(0, len(T), PREDICT_BLOCK)]
        conv = tuple(np.concatenate(parts) for parts in zip(*blocks))
    probs, _ = _forward_batch(model, X, train_mode=False, conv=conv)
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
    return float(_cross_entropy(probs, y))


def _views(flat, shapes: dict) -> dict:
    """Consecutive reshaped views along the last axis of ``flat``, one per
    entry of ``shapes``, each with the axes ``flat`` has before its last."""
    views, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[..., start:start + size].reshape(flat.shape[:-1] + shape)
        start += size
    return views


def train(features, config: NurseConfig) -> NurseModel:
    """Mini-batch momentum SGD, returning the best-loss checkpoint.

    Deterministic for a fixed seed. The z-scoring constants are fitted on
    the given training features and stored in the model; the checkpoint is
    chosen by the full-set training objective evaluated after every epoch
    (the untrained state included). It is the one-model stack of
    :func:`_train_stack`.
    """
    return _train_stack([features], [config])[0]


def _stack_inputs(feature_sets, configs) -> tuple:
    """(models, rngs, X, y, weights) of a stack: each model initialized from
    its own seed's generator and given its set's z-scoring; every set's
    standardized blocks, one run of rows per model in model order, with the
    TFE block's conv candidates under ``"hull"`` (training's many steps pay
    back their build); and the (models, users) labels and class weights (or
    None). Each set's raw and standardized blocks are freed once stacked."""
    models, rngs, blocks, labels, weights = [], [], [], [], []
    for features, config in zip(feature_sets, configs):
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
        models.append(model)
        rngs.append(rng)
        blocks.append(_standardize(model, raw))
        labels.append(y)
        if config.class_weight == "balanced":
            counts = np.bincount(y, minlength=2)
            weights.append((len(y) / (2.0 * counts))[y])
    X = {b: np.concatenate([block[b] for block in blocks]) for b in blocks[0]}
    if "tfe" in X:
        X["hull"] = _convex_layers(X["tfe"])
    return models, rngs, X, np.stack(labels), np.stack(weights) if weights else None


def _train_stack(feature_sets, configs) -> list:
    """The models :func:`train` returns for each training set under the
    matching config, trained as one stack (see the module docstring).

    The sets must be equally large and the configs equal but for their
    seeds. Each model draws from its own generator in the order of a lone
    model: the initialization, then per epoch a permutation, then per batch
    the dropout masks; and each copies its own checkpoint when its loss
    improves. Each returned model owns its parameter vector.
    """
    config = configs[0]
    assert all(replace(c, seed=config.seed) == config for c in configs), \
        "a stack's configs differ in more than their seeds"
    models, rngs, X, y, weights = _stack_inputs(feature_sets, configs)
    onehot = np.stack([1 - y, y], axis=-1).astype(float).reshape(-1, 2)

    def objective():
        """Each model's full-set loss under the current parameters, and the
        pass's cache."""
        probs, cache = _forward_batch(stacked, X, train_mode=False)
        return _cross_entropy(probs, y, weights), cache

    shapes = _param_shapes(config)
    params = np.stack([np.concatenate([m.params[k].ravel() for k in shapes]) for m in models])
    stacked = NurseModel(config, _views(params, shapes), None, None)
    grad = np.empty_like(params)
    grads = _views(grad, shapes)
    velocity = np.zeros_like(params)
    best_loss, full = objective()
    best = params.copy()
    n = y.shape[1]
    offsets = np.arange(len(models))[:, None] * n  # each model's first row
    for _ in range(config.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs]) + offsets
        for start in range(0, n, config.batch_size):
            batch = order[:, start:start + config.batch_size]
            rows = batch.ravel()
            # The epoch's first batch runs under the parameters of the last
            # objective pass, and the conv has no dropout: reuse its rows,
            # and gather only the blocks the dense branches read.
            conv = (tuple(a.reshape(-1, CONV_CHANNELS)[rows] for a in full["conv"])
                    if start == 0 and "conv" in full else None)
            batch_X = {b: X[b][rows] for b in X if conv is None or b in ("sfe", "mfe")}
            probs, cache = _forward_batch(stacked, batch_X, train_mode=True, rng=rngs, conv=conv)
            # of the mean cross-entropy over each model's batch
            d_logits = (probs.reshape(-1, 2) - onehot[rows]) / batch.shape[1]
            if weights is not None:
                d_logits *= weights.reshape(-1, 1)[rows]
            _backward_batch(stacked, cache, d_logits.reshape(probs.shape), grads)
            velocity *= config.momentum
            grad *= config.learning_rate
            velocity -= grad
            params += velocity
        epoch_loss, full = objective()
        improved = epoch_loss < best_loss
        best_loss = np.where(improved, epoch_loss, best_loss)
        np.copyto(best, params, where=improved[:, None])
    for model, vector in zip(models, best):
        model.params = _views(vector.copy(), shapes)
    return models


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
    break_even_precision: float
    break_even_recall: float
    break_even_f1: float


@dataclass(frozen=True)
class EvalReport:
    folds: tuple
    mean_auc: float
    mean_break_even_precision: float
    mean_break_even_recall: float
    mean_break_even_f1: float
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


def summarize_folds(per_fold) -> EvalReport:
    """Report of per-fold metrics: fold means, curves cut to the smallest fold."""
    min_n = min(fm.n for fm in per_fold)

    def mean(values):
        return float(np.mean(list(values)))

    return EvalReport(
        folds=tuple(per_fold),
        mean_auc=mean(fm.auc for fm in per_fold),
        mean_break_even_precision=mean(fm.break_even_precision for fm in per_fold),
        mean_break_even_recall=mean(fm.break_even_recall for fm in per_fold),
        mean_break_even_f1=mean(fm.break_even_f1 for fm in per_fold),
        mean_f1_at=tuple(mean(fm.f1_at[i] for fm in per_fold) for i in range(min_n)),
    )


def evaluate(features, config: NurseConfig, mode: str = "balanced",
             folds: int = SETTINGS["folds"].default) -> EvalReport:
    """Stratified cross-validated ranking evaluation.

    ``balanced`` undersamples the majority class to parity before folding;
    ``complete`` keeps every user and trains fold models with class-balanced
    loss. The sampling and the fold assignment draw from ``config.seed``.
    Per fold, a fresh model is trained on the other folds
    (training seed = config.seed + 7919 * (fold + 1)) and the
    held-out users are ranked by core probability. The break-even cutoff
    per fold equals its number of true core users.

    The folds run in a ``fork`` pool of ``min(folds, usable CPUs)`` worker
    processes, where the usable CPUs are ``os.sched_getaffinity(0)``; so
    ``taskset -c 0`` gives one worker. Each worker takes one contiguous run
    of folds and trains the folds of its run whose training sets are
    equally large as one stack (see :func:`_train_stack`), each model the
    same bit for bit as trained alone. Results are taken in fold order: the
    report is the same at any worker count, a failure raises the exception
    of the lowest failing fold, and no worker outlives the call. Forked
    workers see the module as the caller left it, patches included.
    """
    if mode not in ("balanced", "complete"):
        raise ValueError("mode must be 'balanced' or 'complete'")
    check("folds", folds)
    features = sorted(features, key=lambda fv: fv.user_id)
    _labels_array(features)  # validates labels
    rng = np.random.default_rng(config.seed)
    core, comp = class_split(features, rng if mode == "balanced" else None)
    if min(len(core), len(comp)) < min_class_size(folds):
        raise ValueError(
            f"impossible stratification: need >= {min_class_size(folds)} users per class "
            f"for {folds} folds, have {len(core)} core / {len(comp)} compromised"
        )
    assignments: dict = {}
    for group in (core, comp):
        for position, index in enumerate(rng.permutation(len(group))):
            assignments[group[index].user_id] = position % folds
    users = sorted(core + comp, key=lambda fv: fv.user_id)

    fold_config = config if mode == "balanced" else replace(config, class_weight="balanced")
    jobs = [(fold,
             [fv for fv in users if assignments[fv.user_id] != fold],
             [fv for fv in users if assignments[fv.user_id] == fold],
             replace(fold_config, seed=config.seed + 7919 * (fold + 1)))
            for fold in range(folds)]
    workers = min(folds, len(os.sched_getaffinity(0)))
    runs = [jobs[run[0]:run[-1] + 1] for run in np.array_split(range(folds), workers)]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return summarize_folds([fm for run in pool.imap(_fold_run, runs, chunksize=1)
                                for fm in run])


def _fold_run(jobs) -> list:
    """Metrics of a run of cross-validation folds, in fold order: the folds
    with equally large training sets train as one stack, stacks in the
    order of their first fold, then each fold ranks its held-out set."""
    stacks: dict = {}
    for job in jobs:
        stacks.setdefault(len(job[1]), []).append(job)
    models = {}
    for stack in stacks.values():
        folds, train_sets, _, configs = zip(*stack)
        models.update(zip(folds, _train_stack(train_sets, configs)))
    return [fold_metrics(fold, score_users(models[fold], test_set))
            for fold, _, test_set, _ in jobs]


ABLATION_SUBSETS = (
    ("mfe", ("mfe",)),
    ("sfe", ("sfe",)),
    ("tfe", ("tfe",)),
    ("mfe+sfe", ("mfe", "sfe")),
    ("mfe+tfe", ("mfe", "tfe")),
    ("sfe+tfe", ("sfe", "tfe")),
    ("all", BRANCH_ORDER),
)


def ablations(features, config: NurseConfig, mode: str = "balanced",
              folds: int = SETTINGS["folds"].default) -> dict:
    """Cross-validated reports per branch subset, keyed by subset name.

    Absent branches are removed from the architecture entirely, shrinking
    the fusion layer input accordingly.
    """
    out = {}
    for name, branches in ABLATION_SUBSETS:
        out[name] = evaluate(features, replace(config, branches=branches),
                             mode=mode, folds=folds)
    return out


# ---------------------------------------------------------------------------
# Model and report files
# ---------------------------------------------------------------------------

MODEL_FORMAT = 2


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
    with open(path, "rb") as handle:  # outside the try: a missing file keeps its message
        try:
            # np.load leaves a file it opened unclosed when it refuses it as a zip
            with np.load(handle) as data:
                arrays = {key: data[key] for key in data.files}
            meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
            version = meta.get("format")
            if version == MODEL_FORMAT:
                cfg_dict = dict(meta["config"])
                cfg_dict["branches"] = tuple(cfg_dict["branches"])
                config = NurseConfig(**cfg_dict)
        # zipfile raises NotImplementedError for an unknown compression method and
        # OSError for a cut entry, np.load ValueError for a file that is no archive,
        # and json RecursionError for a meta nested too deeply
        except (AttributeError, EOFError, KeyError, NotImplementedError, OSError, RecursionError,
                TypeError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: not a model file ({type(exc).__name__}: {exc})") from None
    if version != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {version}")
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
    rows = [("fold", "k", "precision", "recall", "f1", "auc")]
    rows += [(fm.fold, k, fm.precision_at[k - 1], fm.recall_at[k - 1], fm.f1_at[k - 1], fm.auc)
             for fm in report.folds for k in range(1, fm.n + 1)]
    rows.append(("mean", "breakeven", report.mean_break_even_precision,
                 report.mean_break_even_recall, report.mean_break_even_f1, report.mean_auc))
    write_rows(path, rows, ",")


def write_method_curves(reports: dict, path) -> None:
    """``method,k,f1`` rows: each method's mean F1@k, for comparison plots.

    A method's mean AUC does not depend on k; ``ablation_summary.csv`` holds it.
    """
    write_rows(path, [("method", "k", "f1")] + [
        (method, k, f1)
        for method in sorted(reports) for k, f1 in enumerate(reports[method].mean_f1_at, 1)], ",")
