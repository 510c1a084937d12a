import hashlib
import json
import math
import multiprocessing
import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collusioncore import nurse
from collusioncore.features import FeatureVector
from collusioncore.nurse import (
    BRANCH_WIDTHS,
    CONV_CHANNELS,
    DROPOUT,
    FUSION_WIDTH,
    NurseConfig,
    ablations,
    auc,
    class_split,
    evaluate,
    fold_metrics,
    init_model,
    load_model,
    loss,
    min_class_size,
    predict_proba,
    save_model,
    summarize_folds,
    train,
)

import oracles
from oracles import loss_and_grads, oracle_auc

TINY = NurseConfig(embedding_dim=8, epochs=40, batch_size=8, seed=3)


def blob_features(n_per_class=20, dim=8, seed=0, separation=3.0):
    """Linearly separable two-class features with signal in every block."""
    rng = np.random.default_rng(seed)
    out = []
    for cls, label in ((0, "compromised"), (1, "core")):
        shift = separation if cls else 0.0
        for i in range(n_per_class):
            out.append(
                FeatureVector(
                    user_id=f"{label[:4]}{i:03d}",
                    mfe=rng.normal(size=26) + (shift if cls else 0.0) * np.r_[np.ones(5), np.zeros(21)],
                    sfe=rng.normal(size=25) + shift * np.r_[np.zeros(20), np.ones(5)] / 2,
                    tfe=rng.normal(size=dim) + shift * np.r_[np.ones(dim // 2), np.zeros(dim - dim // 2)] / 2,
                    label=label,
                )
            )
    return out


def params_digest(model):
    h = hashlib.sha256()
    for key in sorted(model.params):
        h.update(f"{key}{model.params[key].shape}".encode())
        h.update(model.params[key].tobytes())
    return h.hexdigest()


# ------------------------------------------------------------------ predict_proba

def test_softmax_outputs_sum_to_one():
    model = init_model(TINY)
    rng = np.random.default_rng(0)
    for _ in range(20):
        fv = FeatureVector("u", rng.normal(size=26), rng.normal(size=25), rng.normal(size=8))
        p_comp, p_core = predict_proba(model, [fv])[0]
        assert p_core + p_comp == pytest.approx(1.0, abs=1e-12)


def test_zero_input_gives_even_split():
    model = init_model(TINY)
    fv = FeatureVector("u", np.zeros(26), np.zeros(25), np.zeros(8))
    assert predict_proba(model, [fv]).tolist() == [[0.5, 0.5]]


def scalar_forward(model, fv):
    """Independent loop-based recomputation of the forward pass, as a
    (core, compromised) pair."""
    p = model.params
    t = (np.asarray(fv.tfe, float) - model.norm_mean["tfe"]) / model.norm_std["tfe"]
    s = (np.asarray(fv.sfe, float) - model.norm_mean["sfe"]) / model.norm_std["sfe"]
    m = (np.asarray(fv.mfe, float) - model.norm_mean["mfe"]) / model.norm_std["mfe"]
    pooled = []
    for c in range(CONV_CHANNELS):
        acts = []
        for i in range(len(t) - 1):
            z = p["conv_w"][c, 0] * t[i] + p["conv_w"][c, 1] * t[i + 1] + p["conv_b"][c]
            acts.append(max(z, 0.0))
        pooled.append(max(acts))
    h_t = [max(sum(p["tfe_w"][o, c] * pooled[c] for c in range(CONV_CHANNELS)) + p["tfe_b"][o], 0.0)
           for o in range(BRANCH_WIDTHS["tfe"])]
    h_s = [max(sum(p["sfe_w"][o, i] * s[i] for i in range(25)) + p["sfe_b"][o], 0.0)
           for o in range(BRANCH_WIDTHS["sfe"])]
    h_m = [max(sum(p["mfe_w"][o, i] * m[i] for i in range(26)) + p["mfe_b"][o], 0.0)
           for o in range(BRANCH_WIDTHS["mfe"])]
    fused = h_t + h_s + h_m
    h_f = [max(sum(p["fus_w"][o, i] * fused[i] for i in range(len(fused))) + p["fus_b"][o], 0.0)
           for o in range(FUSION_WIDTH)]
    logits = [sum(p["out_w"][o, i] * h_f[i] for i in range(FUSION_WIDTH)) + p["out_b"][o]
              for o in range(2)]
    exp = [math.exp(z - max(logits)) for z in logits]
    return exp[1] / sum(exp), exp[0] / sum(exp)


def test_predict_proba_matches_scalar_recomputation():
    model = init_model(NurseConfig(embedding_dim=4, seed=12))
    rng = np.random.default_rng(5)
    for _ in range(5):
        fv = FeatureVector("u", rng.normal(size=26), rng.normal(size=25), rng.normal(size=4))
        p_comp, p_core = predict_proba(model, [fv])[0]
        expected = scalar_forward(model, fv)
        assert p_core == pytest.approx(expected[0], abs=1e-12)
        assert p_comp == pytest.approx(expected[1], abs=1e-12)


def test_predict_proba_rejects_wrong_dim():
    model = init_model(TINY)
    fv = FeatureVector("u", np.zeros(26), np.zeros(25), np.zeros(99))
    with pytest.raises(ValueError):
        predict_proba(model, [fv])


def test_architecture_is_the_papers():
    assert CONV_CHANNELS == 32
    assert BRANCH_WIDTHS == {"tfe": 64, "sfe": 32, "mfe": 16}
    assert FUSION_WIDTH == 16
    assert DROPOUT == {"sfe": 0.3, "mfe": 0.25}
    shapes = nurse._param_shapes(NurseConfig(embedding_dim=8))
    assert shapes["conv_w"] == (32, 2) and shapes["fus_w"] == (16, 64 + 32 + 16)
    assert shapes["out_w"] == (2, 16)


def test_config_rejects_an_embedding_narrower_than_the_conv():
    NurseConfig(embedding_dim=2)
    with pytest.raises(ValueError, match="embedding_dim must be >= 2"):
        NurseConfig(embedding_dim=1)


# ------------------------------------------------------------------ loss

def test_loss_half_probability_is_ln2():
    model = init_model(TINY)
    batch = [
        FeatureVector("a", np.zeros(26), np.zeros(25), np.zeros(8), label="core"),
        FeatureVector("b", np.zeros(26), np.zeros(25), np.zeros(8), label="compromised"),
    ]
    assert loss(model, batch) == pytest.approx(math.log(2), abs=1e-12)


def test_loss_matches_direct_formula():
    model = init_model(TINY)
    feats = blob_features(6, seed=2)
    probs = predict_proba(model, feats)
    y = np.array([1 if f.label == "core" else 0 for f in feats])
    p = np.clip(probs[:, 1], 1e-12, 1 - 1e-12)
    expected = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert loss(model, feats) == pytest.approx(expected, abs=1e-12)


def test_gradients_match_finite_differences():
    model = init_model(NurseConfig(embedding_dim=8, seed=1))
    batch = blob_features(2, dim=8, seed=9)
    _, grads = loss_and_grads(model, batch)
    step = 1e-5
    for key in sorted(model.params):
        tensor = model.params[key]
        flat = tensor.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            plus = loss(model, batch)
            flat[idx] = original - step
            minus = loss(model, batch)
            flat[idx] = original
            numeric = (plus - minus) / (2 * step)
            analytic = grads[key].reshape(-1)[idx]
            # floor guards the ratio where both gradients sit at the
            # central-difference noise level (~1e-11 for this loss/step)
            denom = max(abs(numeric), abs(analytic), 1e-6)
            assert abs(numeric - analytic) / denom <= 1e-4, f"{key}[{idx}]"


# ------------------------------------------------------------------ kernel oracle

BRANCH_SUBSETS = [branches for _, branches in nurse.ABLATION_SUBSETS]


def kernel_case(branches, batch, dim, seed, integer_inputs=False, dead_channels=False):
    """A model and a standardized batch; integer inputs force argmax ties and
    dead channels have every conv pre-activation <= 0."""
    rng = np.random.default_rng(seed)
    model = init_model(NurseConfig(embedding_dim=dim, branches=branches, seed=seed))
    X = {}
    for branch, size in nurse._input_sizes(model.config).items():
        X[branch] = (rng.integers(-2, 3, size=(batch, size)).astype(float) if integer_inputs
                     else rng.standard_normal((batch, size)))
    if "tfe" in branches:
        model.params["conv_b"] = rng.standard_normal(CONV_CHANNELS)
        if dead_channels:
            model.params["conv_b"][::2] = -1e3
        X["hull"] = nurse._convex_layers(X["tfe"])
    return model, X


def nan_grads(config):
    """Gradient views of one NaN-filled flat vector, as :func:`train` lays
    them out, so an entry the backward pass leaves unwritten shows."""
    shapes = nurse._param_shapes(config)
    return nurse._views(np.full(sum(math.prod(s) for s in shapes.values()), np.nan), shapes)


def assert_kernels_match_oracle(model, X, seed):
    d_logits = np.random.default_rng(seed).standard_normal((len(next(iter(X.values()))), 2))
    for train_mode in (False, True):
        probs, cache = nurse._forward_batch(model, X, train_mode, np.random.default_rng(seed))
        want_probs, want_cache = oracles.forward_batch(model, X, train_mode,
                                                       np.random.default_rng(seed))
        assert repr(probs.tolist()) == repr(want_probs.tolist())
        grads = nan_grads(model.config)
        nurse._backward_batch(model, cache, d_logits, grads)
        want = oracles.backward_batch(model, want_cache, d_logits)
        assert {k: repr(g.tolist()) for k, g in grads.items()} == {
            k: repr(g.tolist()) for k, g in want.items()}


@pytest.mark.parametrize("branches", BRANCH_SUBSETS, ids=lambda b: "+".join(sorted(b)))
@pytest.mark.parametrize("batch,dim", [(1, 2), (1, 9), (7, 2), (13, 16), (32, 33)])
def test_kernels_match_dense_oracle(branches, batch, dim):
    for seed, (integer_inputs, dead) in enumerate(
            [(False, False), (True, False), (False, True), (True, True)]):
        model, X = kernel_case(branches, batch, dim, seed, integer_inputs, dead)
        assert_kernels_match_oracle(model, X, seed)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data(), batch=st.integers(1, 6), dim=st.integers(2, 7),
       branches=st.sampled_from(BRANCH_SUBSETS))
def test_kernels_match_oracle_on_small_integers(data, batch, dim, branches):
    model, X = kernel_case(branches, batch, dim, seed=0)
    small = st.lists(st.integers(-2, 2), min_size=batch * dim, max_size=batch * dim)
    if "tfe" in branches:
        X["tfe"] = np.array(data.draw(small), dtype=float).reshape(batch, dim)
        X["hull"] = nurse._convex_layers(X["tfe"])
        model.params["conv_w"] = np.array(
            data.draw(st.lists(st.integers(-2, 2), min_size=2 * CONV_CHANNELS,
                               max_size=2 * CONV_CHANNELS)),
            dtype=float).reshape(CONV_CHANNELS, 2)
        model.params["conv_b"] = np.array(
            data.draw(st.lists(st.integers(-3, 1), min_size=CONV_CHANNELS,
                               max_size=CONV_CHANNELS)), dtype=float)
    assert_kernels_match_oracle(model, X, seed=batch)


def dense_rows(T, conv_w, conv_b):
    """The rows of ``T`` that took the dense kernel in :func:`nurse._conv_pool`,
    after asserting that its output equals the dense oracle repr for repr."""
    taken = []
    dense = nurse._dense_pool
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nurse, "_dense_pool", lambda rows, w, b: taken.append(rows) or dense(rows, w, b))
        got = nurse._conv_pool(T, nurse._convex_layers(T), conv_w, conv_b)
    want = oracles.conv_pool(T, conv_w, conv_b)
    assert [repr(a.tolist()) for a in got] == [repr(a.tolist()) for a in want]
    return [row for rows in taken for row in rows.tolist()]


def conv_params(seed, zero_channel=None, bias=None):
    rng = np.random.default_rng(seed)
    conv_w, conv_b = rng.standard_normal((CONV_CHANNELS, 2)), rng.standard_normal(CONV_CHANNELS)
    if zero_channel is not None:
        conv_w[zero_channel] = 0.0
    if bias is not None:
        conv_b[bias[0]] = bias[1]
    return conv_w, conv_b


_rng = np.random.default_rng(17)
_GAUSS = _rng.standard_normal((5, 12))

# id: (T, conv params, the rows of T that must take the dense kernel)
CONV_CASES = {
    # every point on one line, so every position is on layer 1
    "collinear": (np.stack([np.arange(9) * 3.0 - 7, 2.0 ** -np.arange(9), -np.arange(9.0)]),
                  conv_params(0), []),
    "all-equal": (np.array([[0.7] * 8, [0.0] * 8, [-3.0] * 8]), conv_params(1), []),
    "duplicate-points": (np.tile(_rng.standard_normal((3, 4)), 5), conv_params(2), []),
    "dim-2": (_rng.standard_normal((4, 2)), conv_params(3), []),
    "dim-3": (_rng.standard_normal((4, 3)), conv_params(4), []),
    # every position ties in channel 3, and layer 1 cannot be certified
    "zero-weight-channel": (_GAUSS, conv_params(5, zero_channel=3), _GAUSS.tolist()),
    # |b| >> |w| |T|: fl(s + b) collapses every position of channel 6 to b
    "tie-collapse": (_GAUSS, conv_params(6, bias=(6, 1e17)), _GAUSS.tolist()),
    "dead-channels": (_GAUSS, conv_params(7, bias=(slice(None, None, 2), -1e3)), []),
    "non-finite-row": (np.array([[1.0, np.inf, 2.0, -1.0, 0.5], [1.0, -2.0, 2.0, -1.0, 0.5]]),
                       conv_params(8), []),
}


@pytest.mark.parametrize("case", sorted(CONV_CASES))
def test_conv_pool_matches_dense_oracle(case):
    T, (conv_w, conv_b), fallback = CONV_CASES[case]
    with np.errstate(over="ignore", invalid="ignore"):
        assert dense_rows(T, conv_w, conv_b) == fallback


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data(), users=st.integers(1, 5), dim=st.integers(2, 9))
def test_conv_pool_matches_dense_oracle_on_small_integers(data, users, dim):
    def ints(n, low, high):
        return np.array(data.draw(st.lists(st.integers(low, high), min_size=n, max_size=n)),
                        dtype=float)

    T = ints(users * dim, -2, 2).reshape(users, dim)
    conv_w, conv_b = ints(2 * CONV_CHANNELS, -2, 2).reshape(CONV_CHANNELS, 2), ints(
        CONV_CHANNELS, -3, 1)
    outer, inner = oracles.convex_layers(T)
    assert [m.tolist() for m in nurse._layer_masks(T)] == [outer.tolist(), inner.tolist()]
    # exact integer values: a user falls back iff some channel's layer-2
    # maximum ties its layer-1 maximum
    z = T[:, None, :-1] * conv_w[None, :, 0, None] + T[:, None, 1:] * conv_w[None, :, 1, None] \
        + conv_b[None, :, None]
    ties = [inner[u].any() and any(z[u, c, inner[u]].max() == z[u, c, outer[u]].max()
                                   for c in range(CONV_CHANNELS)) for u in range(users)]
    assert dense_rows(T, conv_w, conv_b) == T[ties].tolist()


@pytest.mark.parametrize("users,dim", [(32, 64), (400, 64), (32, 768), (400, 768)])
def test_gaussian_rows_never_take_the_dense_kernel(monkeypatch, users, dim):
    """Guards the speed: a certificate too strict would keep the bytes."""
    rng = np.random.default_rng(users * dim)
    T = rng.standard_normal((users, dim))
    model = init_model(NurseConfig(embedding_dim=dim, seed=users))

    def dense(*args):
        raise AssertionError("a user took the dense kernel")

    monkeypatch.setattr(nurse, "_dense_pool", dense)
    nurse._conv_pool(T, nurse._convex_layers(T), model.params["conv_w"],
                     rng.standard_normal(CONV_CHANNELS))


def as_features(X):
    """Feature vectors whose blocks are the rows of a kernel case's inputs."""
    return [FeatureVector(f"u{i:03d}", mfe, sfe, tfe)
            for i, (mfe, sfe, tfe) in enumerate(zip(X["mfe"], X["sfe"], X["tfe"]))]


def no_candidates(*args):
    raise AssertionError("the conv candidates were built")


# id: kernel_case arguments; 45 users span a full and a partial block
PREDICT_CASES = {
    "gaussian-400x768": dict(batch=400, dim=768),
    "small-integer-ties": dict(batch=45, dim=9, integer_inputs=True),
    "dead-channels": dict(batch=45, dim=33, dead_channels=True),
}


@pytest.mark.parametrize("case", sorted(PREDICT_CASES))
def test_predict_proba_equals_the_conv_pool_pass_without_building_candidates(
        monkeypatch, case):
    model, X = kernel_case(nurse.BRANCH_ORDER, seed=5, **PREDICT_CASES[case])
    want, _ = nurse._forward_batch(model, X)  # _conv_pool over X["hull"]
    monkeypatch.setattr(nurse, "_convex_layers", no_candidates)
    got = predict_proba(model, as_features(X))  # identity scaling: the same inputs
    assert repr(got.tolist()) == repr(want.tolist())


def test_loss_and_scoring_build_no_candidates(monkeypatch):
    feats = blob_features(n_per_class=20)
    model = train(feats, replace(TINY, epochs=3))
    monkeypatch.setattr(nurse, "_convex_layers", no_candidates)
    assert math.isfinite(loss(model, feats))
    assert len(nurse.score_users(model, feats)) == len(feats)


def test_predict_proba_memory_is_bounded_by_its_blocks():
    model, X = kernel_case(nurse.BRANCH_ORDER, batch=400, dim=768, seed=6)
    feats = as_features(X)
    tracemalloc.start()
    try:
        predict_proba(model, feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense pass over all 400 users holds (400, 32, 767) floats, 78.5 MB
    assert peak < 40e6


@pytest.mark.parametrize("n_per_class,config", [
    (3, replace(TINY, batch_size=8)),                           # n < batch size
    (8, replace(TINY, batch_size=8)),                           # n a multiple of it
    (11, replace(TINY, batch_size=8)),                          # n > batch size
    (11, replace(TINY, batch_size=8, class_weight="balanced")),
    (11, replace(TINY, batch_size=8, branches=("mfe", "sfe"))),
    (5, replace(TINY, batch_size=4, embedding_dim=2, branches=("tfe",))),
])
def test_train_matches_oracle_kernels(n_per_class, config):
    feats = blob_features(n_per_class, dim=config.embedding_dim, seed=n_per_class)
    config = replace(config, epochs=12)
    assert params_digest(train(feats, config)) == params_digest(oracles.train(feats, config))


def test_train_at_learning_rate_zero_returns_the_initial_parameters():
    feats = blob_features(8, seed=2)
    config = replace(TINY, learning_rate=0.0, epochs=5)
    got = params_digest(train(feats, config))
    assert got == params_digest(init_model(config, np.random.default_rng(config.seed)))
    assert got == params_digest(oracles.train(feats, config))


@pytest.mark.parametrize("mode", ["balanced", "complete"])
def test_evaluate_matches_oracle_kernels(monkeypatch, mode):
    feats = blob_features(12, seed=3, separation=0.5)[:-5]  # 12 compromised, 7 core
    config = replace(TINY, epochs=6, batch_size=5)
    got = evaluate(feats, config, mode=mode, folds=3)
    monkeypatch.setattr(nurse, "_train_stack", lambda train_sets, configs: [
        oracles.train(train_set, config) for train_set, config in zip(train_sets, configs)])
    monkeypatch.setattr(nurse, "_forward_batch",  # scoring recomputes every conv
                        lambda model, X, train_mode=False, rng=None, conv=None:
                        oracles.forward_batch(model, X, train_mode, rng))
    assert repr(got) == repr(evaluate(feats, config, mode=mode, folds=3))


def test_trained_parameters_are_separate_arrays(tmp_path):
    feats = blob_features(6, seed=7)
    models = [train(feats, replace(TINY, epochs=3, seed=seed)) for seed in (3, 4)]
    for model in models:
        shapes = nurse._param_shapes(model.config)
        assert {k: v.shape for k, v in model.params.items()} == shapes
        for v in model.params.values():
            assert v.dtype == np.float64 and v.flags.c_contiguous
        arrays = list(model.params.values())
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])
        save_model(model, tmp_path / "model.npz")
        assert params_digest(load_model(tmp_path / "model.npz")) == params_digest(model)
    assert not any(np.shares_memory(a, b) for a in models[0].params.values()
                   for b in models[1].params.values())


def test_first_batch_of_each_epoch_reuses_the_objective_conv(monkeypatch):
    calls = []
    conv_pool = nurse._conv_pool
    monkeypatch.setattr(nurse, "_conv_pool", lambda *a: calls.append(len(a[0])) or conv_pool(*a))
    feats = blob_features(6, seed=1)  # 12 users: batches of 8 and 4
    train(feats, replace(TINY, epochs=5, batch_size=8))
    assert calls == [12] + [4, 12] * 5  # the objective, then only the second batch


# ------------------------------------------------------------------ training

def test_train_separable_reaches_high_f1():
    feats = blob_features(20, seed=4)
    config = replace(TINY, epochs=200, seed=0)
    model = train(feats, config)
    probs = predict_proba(model, sorted(feats, key=lambda f: f.user_id))
    y = np.array([1 if f.label == "core" else 0
                  for f in sorted(feats, key=lambda f: f.user_id)])
    pred = (probs[:, 1] >= 0.5).astype(int)
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.99


def test_train_deterministic_same_seed():
    feats = blob_features(10, seed=5)
    a = train(feats, replace(TINY, epochs=15))
    b = train(feats, replace(TINY, epochs=15))
    assert params_digest(a) == params_digest(b)


def test_train_more_epochs_never_raises_checkpoint_loss():
    feats = blob_features(10, seed=6)
    short = train(feats, replace(TINY, epochs=10))
    long = train(feats, replace(TINY, epochs=20))
    assert loss(long, feats) <= loss(short, feats) + 1e-12


def test_train_requires_two_per_class():
    feats = blob_features(1, seed=0)
    with pytest.raises(ValueError):
        train(feats, TINY)
    only_core = [f for f in blob_features(5, seed=0) if f.label == "core"]
    with pytest.raises(ValueError):
        train(only_core, TINY)


def test_parameters_finite_after_training():
    model = train(blob_features(12, seed=7), replace(TINY, epochs=30))
    for key, tensor in model.params.items():
        assert np.all(np.isfinite(tensor)), key


def test_loss_decreases_on_separable_data():
    feats = blob_features(15, seed=8)
    before = loss(init_model(replace(TINY, seed=2)), feats)
    after = loss(train(feats, replace(TINY, epochs=5, seed=2)), feats)
    assert after < before


# ------------------------------------------------------------------ stacks

def model_bytes(model):
    """Every array a saved model holds, as bytes, by kind and key."""
    return {(kind, key): a.tobytes() for kind in ("params", "norm_mean", "norm_std")
            for key, a in getattr(model, kind).items()}


def stack_member(n, dim, seed, twist=None):
    """``n`` users of both classes (at least 2 each), classes alternating.

    ``"fallback"``: TFE columns 4 and 5 repeat columns 0 and 1, one ulp off
    in one user, whose conv then takes the dense kernel (layer 2 ties layer
    1 within the rounding bound). ``"non-finite"``: one TFE value is inf."""
    comp, core = blob_features(7, dim=dim, seed=seed)[:7], blob_features(7, dim=dim, seed=seed)[7:]
    users = [fv for pair in zip(comp, core) for fv in pair][:n]
    if twist == "fallback":
        for i, fv in enumerate(users):
            t = np.array(fv.tfe)
            t[4:6] = t[0:2]
            if i == 1:
                t[4] = np.nextafter(t[4], np.inf)
            users[i] = replace(fv, tfe=t)
    elif twist == "non-finite":
        users[0] = replace(users[0], tfe=np.r_[users[0].tfe[:1], np.inf, users[0].tfe[2:]])
    return users


def test_the_fallback_member_takes_the_dense_kernel(monkeypatch):
    taken = []
    dense = nurse._dense_pool
    monkeypatch.setattr(nurse, "_dense_pool",
                        lambda rows, w, b: taken.append(len(rows)) or dense(rows, w, b))
    train(stack_member(10, 8, seed=1, twist="fallback"), replace(TINY, epochs=3))
    assert taken


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(n=st.integers(4, 14), batch_size=st.sampled_from([1, 2, 3, 4, 8, 32]),
       dim=st.sampled_from([2, 8, 33]), branches=st.sampled_from(
           [("tfe",), ("sfe", "mfe"), nurse.BRANCH_ORDER]),
       class_weight=st.sampled_from(["none", "balanced"]), size=st.integers(2, 4),
       twist=st.sampled_from([None, "fallback", "non-finite"]))
@example(n=9, batch_size=4, dim=8, branches=nurse.BRANCH_ORDER, class_weight="none", size=3,
         twist=None)  # a tail batch of 1
@example(n=10, batch_size=1, dim=8, branches=nurse.BRANCH_ORDER, class_weight="balanced",
         size=2, twist="fallback")
@example(n=6, batch_size=4, dim=2, branches=("tfe",), class_weight="none", size=4,
         twist="non-finite")
def test_a_model_trained_in_a_stack_equals_it_trained_alone(n, batch_size, dim, branches,
                                                          class_weight, size, twist):
    config = NurseConfig(embedding_dim=dim, epochs=3, batch_size=batch_size, seed=5,
                         branches=branches, class_weight=class_weight)
    twist = None if twist == "fallback" and dim < 8 else twist  # it rewrites TFE columns 4-5
    sets = [stack_member(n, dim, seed, twist if seed == size - 1 else None)
            for seed in range(size)]
    configs = [replace(config, seed=config.seed + 7919 * i) for i in range(size)]
    with np.errstate(all="ignore"):  # the non-finite member trains to nan
        alone = [model_bytes(train(s, c)) for s, c in zip(sets, configs)]
        stacked = [model_bytes(m) for m in nurse._train_stack(sets, configs)]
    assert stacked == alone


# ------------------------------------------------------------------ auc

def test_auc_examples():
    assert auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(0.75)
    assert auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        auc([0.1], [1, 0])


def test_auc_matches_pair_counting():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        scores = np.round(rng.random(size=n), 1)  # coarse grid forces ties
        assert auc(scores, labels) == pytest.approx(oracle_auc(scores, labels))


def test_auc_monotone_transform_invariant():
    rng = np.random.default_rng(13)
    scores = rng.random(20)
    labels = np.array([1, 0] * 10)
    base = auc(scores, labels)
    assert auc(np.exp(scores * 3), labels) == pytest.approx(base)
    assert auc(2 * scores + 5, labels) == pytest.approx(base)


def test_random_scores_near_half_auc():
    rng = np.random.default_rng(14)
    values = []
    for _ in range(10):
        labels = np.array([1] * 100 + [0] * 100)
        scores = rng.random(200)
        values.append(auc(scores, labels))
    assert abs(float(np.mean(values)) - 0.5) <= 0.05


# ------------------------------------------------------------------ evaluate

EVAL_CFG = replace(TINY, epochs=60, seed=1)


def test_evaluate_balanced_on_separable_data():
    feats = blob_features(25, seed=20)
    report = evaluate(feats, EVAL_CFG, mode="balanced", folds=5)
    assert report.mean_auc > 0.9
    assert report.mean_break_even_f1 > 0.8
    for fold in report.folds:
        p, r, f = fold.break_even_precision, fold.break_even_recall, fold.break_even_f1
        if p + r:
            assert f == pytest.approx(2 * p * r / (p + r), abs=1e-9)


def test_evaluate_balanced_undersamples():
    feats = blob_features(12, seed=21) + [
        FeatureVector(f"extra{i}", np.zeros(26), np.zeros(25), np.zeros(8), label="compromised")
        for i in range(20)
    ]
    report = evaluate(feats, EVAL_CFG, mode="balanced", folds=4)
    total = sum(f.n for f in report.folds)
    cores = sum(f.n_core for f in report.folds)
    assert total == 2 * cores  # exactly 1:1 after sampling


def test_evaluate_complete_keeps_everyone():
    feats = blob_features(12, seed=22) + [
        FeatureVector(f"extra{i}", np.ones(26), np.ones(25), np.ones(8), label="compromised")
        for i in range(12)
    ]
    report = evaluate(feats, EVAL_CFG, mode="complete", folds=4)
    assert sum(f.n for f in report.folds) == len(feats)


def test_evaluate_impossible_stratification():
    feats = blob_features(3, seed=23)
    with pytest.raises(ValueError, match="stratification"):
        evaluate(feats, EVAL_CFG, mode="balanced", folds=10)


def test_min_class_size_matches_fold_arithmetic():
    # every fold holds out one user of the class and leaves two for training
    for folds in range(2, 12):
        want = next(n for n in range(1, 100) if n >= folds and n - math.ceil(n / folds) >= 2)
        assert min_class_size(folds) == want


def test_evaluate_runs_at_min_class_size_and_rejects_one_less():
    cfg = replace(TINY, epochs=2)
    for folds in (2, 3):
        n = min_class_size(folds)
        evaluate(blob_features(n, seed=27), cfg, folds=folds)
        with pytest.raises(ValueError, match="stratification"):
            evaluate(blob_features(n - 1, seed=27), cfg, folds=folds)


def test_evaluate_rejects_fewer_than_two_folds():
    with pytest.raises(ValueError, match="folds"):
        evaluate(blob_features(5), TINY, folds=1)


def test_class_split_undersamples_the_larger_class():
    feats = sorted(blob_features(5, seed=28) + blob_features(9, seed=29)[:9],
                   key=lambda f: f.user_id)
    feats = [replace(f, user_id=f"u{i:02d}") for i, f in enumerate(feats)]
    core = [f.user_id for f in feats if f.label == "core"]
    comp = [f.user_id for f in feats if f.label == "compromised"]
    assert [[f.user_id for f in group] for group in class_split(feats)] == [core, comp]
    keep = sorted(np.random.default_rng(11).choice(len(comp), size=len(core), replace=False))
    got_core, got_comp = class_split(feats, 11)
    assert [f.user_id for f in got_core] == core
    assert [f.user_id for f in got_comp] == [comp[i] for i in keep]


def test_summary_of_one_fold_is_that_fold():
    fm = fold_metrics(0, [("a", 0.9, "core"), ("b", 0.2, "compromised"), ("c", 0.6, "core")])
    report = summarize_folds([fm])
    assert report.folds == (fm,)
    assert (report.mean_auc, report.mean_break_even_precision, report.mean_break_even_f1) == (
        fm.auc, fm.break_even_precision, fm.break_even_f1)
    assert report.mean_f1_at == fm.f1_at


def test_fold_metrics_matches_prefix_sum_oracle():
    rng = np.random.default_rng(5)
    for n in range(2, 41):
        for n_pos in sorted({1, n - 1, int(rng.integers(1, n))}):
            labels = ["core"] * n_pos + ["compromised"] * (n - n_pos)
            scores = (rng.integers(0, 4, size=n) / 4).tolist()  # four values: many ties
            ids = [f"u{i:02d}" for i in rng.permutation(n)]
            scored = list(zip(ids, scores, labels))
            assert repr(fold_metrics(n, scored)) == repr(oracles.oracle_fold_metrics(n, scored))


def test_evaluate_permutation_invariant():
    feats = blob_features(10, seed=24)
    cfg = replace(TINY, epochs=10)
    a = evaluate(feats, cfg, folds=3)
    rng = np.random.default_rng(0)
    shuffled = [feats[i] for i in rng.permutation(len(feats))]
    b = evaluate(shuffled, cfg, folds=3)
    assert a.mean_auc == b.mean_auc
    assert [f.auc for f in a.folds] == [f.auc for f in b.folds]


def test_ablation_all_equals_full_model():
    feats = blob_features(8, seed=25)
    cfg = replace(TINY, epochs=8)
    reports = ablations(feats, cfg, folds=3)
    assert set(reports) == {"mfe", "sfe", "tfe", "mfe+sfe", "mfe+tfe", "sfe+tfe", "all"}
    full = evaluate(feats, cfg, folds=3)
    assert reports["all"].mean_auc == full.mean_auc
    assert reports["all"].mean_break_even_f1 == full.mean_break_even_f1


def test_ablation_noise_branch_scores_lower():
    # signal only in sfe and tfe; mfe is pure noise
    rng = np.random.default_rng(26)
    feats = []
    for cls, label in ((0, "compromised"), (1, "core")):
        for i in range(16):
            feats.append(FeatureVector(
                user_id=f"{label[:4]}{i:02d}",
                mfe=rng.normal(size=26),
                sfe=rng.normal(size=25) + (3.0 if cls else 0.0),
                tfe=rng.normal(size=8) + (3.0 if cls else 0.0),
                label=label,
            ))
    cfg = replace(TINY, epochs=30)
    reports = ablations(feats, cfg, folds=4)
    assert reports["all"].mean_auc > reports["mfe"].mean_auc


# ------------------------------------------------------------------ fold workers

CPUS = sorted(os.sched_getaffinity(0))  # the CPUs this process may run on


def use_cpus(monkeypatch, n):
    """Let ``evaluate`` see only the first ``n`` of :data:`CPUS`, so it
    starts at most ``n`` workers; never more than there are CPUs."""
    if len(CPUS) < n:
        pytest.skip(f"needs {n} usable CPUs, has {len(CPUS)}")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(CPUS[:n]))


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every fork pool asked for while the test runs; a
    pool of more workers than :data:`CPUS` fails the test unstarted."""
    sizes = []
    context = type(multiprocessing.get_context("fork"))
    make = context.Pool

    def pool(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        assert processes <= len(CPUS), f"a pool of {processes} workers on {len(CPUS)} CPUs"
        return make(self, processes, *args, **kwargs)

    monkeypatch.setattr(context, "Pool", pool)
    return sizes


def fold_of(config, base=TINY):
    """The fold whose training seed ``config`` holds (see ``evaluate``)."""
    return (config.seed - base.seed) // 7919 - 1


@pytest.mark.parametrize("mode", ["balanced", "complete"])
def test_evaluate_is_the_same_at_one_and_two_workers(monkeypatch, pool_sizes, mode):
    feats = blob_features(9, seed=31)[:-2]  # 9 compromised, 7 core
    config = replace(TINY, epochs=5)
    reports = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        reports.append(repr(evaluate(feats, config, mode=mode, folds=3)))
        assert multiprocessing.active_children() == []
    assert reports[0] == reports[1]
    assert pool_sizes == [1, 2]


def test_ablations_are_the_same_at_one_and_two_workers(monkeypatch, pool_sizes):
    feats = blob_features(6, seed=32)
    reports = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        reports.append(repr(ablations(feats, replace(TINY, epochs=3), folds=2)))
    assert reports[0] == reports[1]
    assert pool_sizes == [1] * 7 + [2] * 7


def test_workers_are_capped_at_the_folds(monkeypatch, pool_sizes):
    folds = len(CPUS)
    if folds < 2:
        pytest.skip("needs 2 usable CPUs, has 1")
    # one CPU more than there are: only the cap keeps the pool at the folds
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(folds + 1)))
    evaluate(blob_features(6, seed=33), replace(TINY, epochs=2), folds=folds)
    assert pool_sizes == [folds]


def test_report_keeps_fold_order_when_fold_0_finishes_last(monkeypatch, tmp_path):
    feats = blob_features(6, seed=34)  # every training set holds 8 users
    config = replace(TINY, epochs=4)
    use_cpus(monkeypatch, 1)
    want = repr(evaluate(feats, config, folds=3))
    finished = tmp_path / "finished.txt"
    finished.touch()
    train_stack = nurse._train_stack

    def fold_0_last(train_sets, fold_configs):
        folds = ",".join(str(fold_of(c)) for c in fold_configs)
        deadline = time.monotonic() + 30
        while (folds.startswith("0") and time.monotonic() < deadline
               and not finished.read_text(encoding="utf-8")):
            time.sleep(0.01)  # the other worker trains fold 2 meanwhile
        models = train_stack(train_sets, fold_configs)
        with open(finished, "a", encoding="utf-8") as handle:
            handle.write(f"{folds}\n")
        return models

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(nurse, "_train_stack", fold_0_last)
    assert repr(evaluate(feats, config, folds=3)) == want
    # the two workers take the runs of folds 0-1 and 2, each one stack
    assert finished.read_text(encoding="utf-8").split() == ["2", "0,1"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failure_raises_the_lowest_failing_folds_exception(monkeypatch, cpus):
    train_stack = nurse._train_stack

    def faulty(train_sets, fold_configs):
        folds = [fold_of(c) for c in fold_configs]
        if 1 in folds:
            time.sleep(0.5)  # at two workers, the stack of fold 2 fails first
            raise LookupError("injected fault in fold 1")
        if 2 in folds:
            raise RuntimeError("injected fault in fold 2")
        return train_stack(train_sets, fold_configs)

    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(nurse, "_train_stack", faulty)
    with pytest.raises(Exception) as raised:
        evaluate(blob_features(6, seed=35), replace(TINY, epochs=2), folds=3)
    assert (raised.type, str(raised.value)) == (LookupError, "injected fault in fold 1")
    assert multiprocessing.active_children() == []


# ------------------------------------------------------------------ model io

def test_model_roundtrip_identical_predictions(tmp_path):
    feats = blob_features(10, seed=30)
    model = train(feats, replace(TINY, epochs=10))
    path = tmp_path / "model.npz"
    save_model(model, path)
    again = load_model(path)
    assert again.config == model.config
    p1 = predict_proba(model, feats)
    p2 = predict_proba(again, feats)
    assert np.array_equal(p1, p2)


def test_saved_meta_is_format_2_with_the_training_settings(tmp_path):
    path = tmp_path / "model.npz"
    save_model(init_model(TINY), path)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    assert meta["format"] == 2
    assert meta["config"] == {
        "embedding_dim": 8, "learning_rate": 0.01, "momentum": 0.9, "epochs": 40,
        "batch_size": 8, "seed": 3, "branches": ["tfe", "sfe", "mfe"], "class_weight": "none"}


def test_load_model_rejects_other_files(tmp_path):
    good = tmp_path / "model.npz"
    save_model(train(blob_features(5, seed=31), replace(TINY, epochs=2)), good)
    arrays = dict(np.load(good))
    wrong_shape = dict(arrays, param_out_b=np.zeros(3))
    missing = {k: v for k, v in arrays.items() if k != "param_fus_w"}
    cases = [b"", b"not a model", b"PK\x05\x06" + bytes(18)]
    for content in cases:
        good.write_bytes(content)
        with pytest.raises(ValueError):
            load_model(good)
    for bad in ({"x": np.zeros(2)}, wrong_shape, missing):
        np.savez(good, **bad)
        with pytest.raises(ValueError):
            load_model(good)
