import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collusioncore import nurse
from collusioncore.features import FeatureVector
from collusioncore.nurse import (
    NurseConfig,
    ablations,
    auc,
    class_split,
    evaluate,
    fold_metrics,
    init_model,
    load_model,
    loss,
    loss_and_grads,
    min_class_size,
    predict_proba,
    save_model,
    summarize_folds,
    train,
)

import oracles
from oracles import oracle_auc

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
        h.update(key.encode())
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
    cfg = model.config
    p = model.params
    t = (np.asarray(fv.tfe, float) - model.norm_mean["tfe"]) / model.norm_std["tfe"]
    s = (np.asarray(fv.sfe, float) - model.norm_mean["sfe"]) / model.norm_std["sfe"]
    m = (np.asarray(fv.mfe, float) - model.norm_mean["mfe"]) / model.norm_std["mfe"]
    pooled = []
    for c in range(cfg.conv_channels):
        acts = []
        for i in range(len(t) - 1):
            z = p["conv_w"][c, 0] * t[i] + p["conv_w"][c, 1] * t[i + 1] + p["conv_b"][c]
            acts.append(max(z, 0.0))
        pooled.append(max(acts))
    h_t = [max(sum(p["tfe_w"][o, c] * pooled[c] for c in range(cfg.conv_channels)) + p["tfe_b"][o], 0.0)
           for o in range(cfg.tfe_fc)]
    h_s = [max(sum(p["sfe_w"][o, i] * s[i] for i in range(25)) + p["sfe_b"][o], 0.0)
           for o in range(cfg.sfe_fc)]
    h_m = [max(sum(p["mfe_w"][o, i] * m[i] for i in range(26)) + p["mfe_b"][o], 0.0)
           for o in range(cfg.mfe_fc)]
    fused = h_t + h_s + h_m
    h_f = [max(sum(p["fus_w"][o, i] * fused[i] for i in range(len(fused))) + p["fus_b"][o], 0.0)
           for o in range(cfg.fusion_fc)]
    logits = [sum(p["out_w"][o, i] * h_f[i] for i in range(cfg.fusion_fc)) + p["out_b"][o]
              for o in range(2)]
    exp = [math.exp(z - max(logits)) for z in logits]
    return exp[1] / sum(exp), exp[0] / sum(exp)


def test_predict_proba_matches_scalar_recomputation():
    cfg = NurseConfig(embedding_dim=4, conv_channels=2, tfe_fc=3, sfe_fc=3,
                      mfe_fc=2, fusion_fc=3, seed=12)
    model = init_model(cfg)
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


@pytest.mark.parametrize("field", ["conv_filter", "classes"])
@pytest.mark.parametrize("size", [1, 3])
def test_config_rejects_sizes_the_kernels_do_not_implement(field, size):
    with pytest.raises(ValueError, match=f"{field} must be 2"):
        NurseConfig(**{field: size})


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
    cfg = NurseConfig(embedding_dim=8, conv_channels=4, tfe_fc=5, sfe_fc=4,
                      mfe_fc=3, fusion_fc=4, seed=1)
    model = init_model(cfg)
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
        model.params["conv_b"] = rng.standard_normal(model.config.conv_channels)
        if dead_channels:
            model.params["conv_b"][::2] = -1e3
    return model, X


def assert_kernels_match_oracle(model, X, seed):
    d_logits = np.random.default_rng(seed).standard_normal((len(next(iter(X.values()))), 2))
    for train_mode in (False, True):
        probs, cache = nurse._forward_batch(model, X, train_mode, np.random.default_rng(seed))
        want_probs, want_cache = oracles.forward_batch(model, X, train_mode,
                                                       np.random.default_rng(seed))
        assert repr(probs.tolist()) == repr(want_probs.tolist())
        grads = nurse._backward_batch(model, cache, d_logits)
        want = oracles.backward_batch(model, want_cache, d_logits)
        assert {k: repr(g.tolist()) for k, g in grads.items()} == {
            k: repr(g.tolist()) for k, g in want.items()}


@pytest.mark.parametrize("branches", BRANCH_SUBSETS, ids="+".join)
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
        model.params["conv_w"] = np.array(
            data.draw(st.lists(st.integers(-2, 2), min_size=64, max_size=64)),
            dtype=float).reshape(32, 2)
        model.params["conv_b"] = np.array(
            data.draw(st.lists(st.integers(-3, 1), min_size=32, max_size=32)), dtype=float)
    assert_kernels_match_oracle(model, X, seed=batch)


def use_oracle_kernels(monkeypatch):
    def forward_batch(model, X, train_mode=False, rng=None, conv=None):
        return oracles.forward_batch(model, X, train_mode, rng)  # recomputes every conv

    monkeypatch.setattr(nurse, "_forward_batch", forward_batch)
    monkeypatch.setattr(nurse, "_backward_batch", oracles.backward_batch)


@pytest.mark.parametrize("n_per_class,config", [
    (3, replace(TINY, batch_size=8)),                           # n < batch size
    (8, replace(TINY, batch_size=8)),                           # n a multiple of it
    (11, replace(TINY, batch_size=8)),                          # n > batch size
    (11, replace(TINY, batch_size=8, class_weight="balanced")),
    (11, replace(TINY, batch_size=8, branches=("mfe", "sfe"))),
    (5, replace(TINY, batch_size=4, embedding_dim=2, branches=("tfe",))),
])
def test_train_matches_oracle_kernels(monkeypatch, n_per_class, config):
    feats = blob_features(n_per_class, dim=config.embedding_dim, seed=n_per_class)
    config = replace(config, epochs=12)
    got = train(feats, config)
    use_oracle_kernels(monkeypatch)
    want = train(feats, config)
    assert {k: repr(v.tolist()) for k, v in got.params.items()} == {
        k: repr(v.tolist()) for k, v in want.params.items()}


@pytest.mark.parametrize("mode", ["balanced_1to1", "complete"])
def test_evaluate_matches_oracle_kernels(monkeypatch, mode):
    feats = blob_features(12, seed=3, separation=0.5)[:-5]  # 12 compromised, 7 core
    config = replace(TINY, epochs=6, batch_size=5)
    got = evaluate(feats, config, mode=mode, folds=3, seed=2)
    use_oracle_kernels(monkeypatch)
    assert repr(got) == repr(evaluate(feats, config, mode=mode, folds=3, seed=2))


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
    report = evaluate(feats, EVAL_CFG, mode="balanced_1to1", folds=5, seed=2)
    assert report.mean_auc > 0.9
    assert report.mean_break_even_f1 > 0.8
    for fold in report.folds:
        assert fold.break_even_k == fold.n_core
        p, r, f = fold.break_even_precision, fold.break_even_recall, fold.break_even_f1
        if p + r:
            assert f == pytest.approx(2 * p * r / (p + r), abs=1e-9)


def test_evaluate_balanced_undersamples():
    feats = blob_features(12, seed=21) + [
        FeatureVector(f"extra{i}", np.zeros(26), np.zeros(25), np.zeros(8), label="compromised")
        for i in range(20)
    ]
    report = evaluate(feats, EVAL_CFG, mode="balanced_1to1", folds=4, seed=0)
    total = sum(f.n for f in report.folds)
    cores = sum(f.n_core for f in report.folds)
    assert total == 2 * cores  # exactly 1:1 after sampling


def test_evaluate_complete_keeps_everyone():
    feats = blob_features(12, seed=22) + [
        FeatureVector(f"extra{i}", np.ones(26), np.ones(25), np.ones(8), label="compromised")
        for i in range(12)
    ]
    report = evaluate(feats, EVAL_CFG, mode="complete", folds=4, seed=0)
    assert sum(f.n for f in report.folds) == len(feats)


def test_evaluate_impossible_stratification():
    feats = blob_features(3, seed=23)
    with pytest.raises(ValueError, match="stratification"):
        evaluate(feats, EVAL_CFG, mode="balanced_1to1", folds=10, seed=0)


def test_min_class_size_matches_fold_arithmetic():
    # every fold holds out one user of the class and leaves two for training
    for folds in range(2, 12):
        want = next(n for n in range(1, 100) if n >= folds and n - math.ceil(n / folds) >= 2)
        assert min_class_size(folds) == want


def test_evaluate_runs_at_min_class_size_and_rejects_one_less():
    cfg = replace(TINY, epochs=2)
    for folds in (2, 3):
        n = min_class_size(folds)
        evaluate(blob_features(n, seed=27), cfg, folds=folds, seed=0)
        with pytest.raises(ValueError, match="stratification"):
            evaluate(blob_features(n - 1, seed=27), cfg, folds=folds, seed=0)


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
    report = summarize_folds("complete", [fm])
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
    a = evaluate(feats, cfg, folds=3, seed=5)
    rng = np.random.default_rng(0)
    shuffled = [feats[i] for i in rng.permutation(len(feats))]
    b = evaluate(shuffled, cfg, folds=3, seed=5)
    assert a.mean_auc == b.mean_auc
    assert [f.auc for f in a.folds] == [f.auc for f in b.folds]


def test_ablation_all_equals_full_model():
    feats = blob_features(8, seed=25)
    cfg = replace(TINY, epochs=8)
    reports = ablations(feats, cfg, folds=3, seed=4)
    assert set(reports) == {"mfe", "sfe", "tfe", "mfe+sfe", "mfe+tfe", "sfe+tfe", "all"}
    full = evaluate(feats, cfg, folds=3, seed=4)
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
    reports = ablations(feats, cfg, folds=4, seed=1)
    assert reports["all"].mean_auc > reports["mfe"].mean_auc


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
