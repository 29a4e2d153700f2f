"""Model tests: forward shapes, whole-model gradient vs finite differences,
optimizer behavior, freeze invariant, determinism, classification stats."""

import numpy as np
import pytest

from lobkit.metrics import LossConfig, WeightProfile, cross_entropy, l_all, masked_mse
from lobkit.models import (
    IMPUTATION,
    PREDICTION,
    RECONSTRUCTION,
    AdamState,
    LinearAutoencoder,
    TaskHead,
    TrainConfig,
    _batch_backward,
    _batch_forward,
    evaluate_classification,
    finetune_frozen,
    predict_labels,
    train,
)
from lobkit.preprocess import Window

TINY_L = 1  # 4 columns per snapshot row in the tiny fixtures
TINY_T = 2  # input_dim = 8


def tiny_cfg(**kw):
    defaults = dict(
        epochs=3, batch_size=4, lr=1e-3, seed=0,
        loss=LossConfig(weights=WeightProfile.inverse_level(TINY_L)),
        levels=TINY_L,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_windows(n, seed=0, labeled=False, masked=False):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        w = Window(data=rng.normal(size=(TINY_T, 4 * TINY_L)))
        if labeled:
            w.label = int(rng.integers(-1, 2))
        if masked:
            w.mask = np.array([int(rng.integers(TINY_T))])
        out.append(w)
    return out


# ----------------------------------------------------------------- forward

def test_autoencoder_shapes_default():
    model = LinearAutoencoder()
    x = np.zeros(4000)
    r = model.encode(x)
    assert r.shape == (256,)
    assert model.decode(r).shape == (4000,)
    batch = model.encode(np.zeros((5, 4000)))
    assert batch.shape == (5, 256)


def test_encode_rejects_wrong_width():
    model = LinearAutoencoder(input_dim=8, latent=2)
    with pytest.raises(ValueError):
        model.encode(np.zeros(7))
    with pytest.raises(ValueError):
        model.decode(np.zeros(3))


def test_zero_weights_give_zero_output():
    model = LinearAutoencoder(input_dim=8, latent=2)
    for p in model.params.values():
        p[:] = 0.0
    assert np.all(model.decode(model.encode(np.ones(8))) == 0.0)


def test_head_kinds_and_output_dims():
    assert TaskHead(PREDICTION).out_dim == 3
    assert TaskHead(IMPUTATION).out_dim == 4000
    assert TaskHead(IMPUTATION, out_dim=8).out_dim == 8
    with pytest.raises(ValueError):
        TaskHead("segmentation")


def test_relu_latent_clips_negatives():
    model = LinearAutoencoder(input_dim=4, latent=4, relu=True, seed=0)
    r = model.encode(np.array([10.0, -10.0, 3.0, -3.0]))
    assert np.all(r >= 0.0)


# ----------------------------------------------- whole-model gradient check

def flat_params(dicts):
    return np.concatenate([v.ravel() for d in dicts for v in d.values()])


def whole_model_loss(model, head, windows, task, cfg):
    total = 0.0
    for w in windows:
        x_in = (w.masked_input() if task == IMPUTATION else w.data).ravel()
        Y, _ = _batch_forward(model, head, x_in[None, :])
        if task == PREDICTION:
            total += cross_entropy(Y[0], w.label)
        elif task == IMPUTATION:
            total += masked_mse(w.data, Y[0].reshape(TINY_T, -1), w.mask)
        else:
            total += l_all(w.data, Y[0].reshape(TINY_T, -1), cfg.loss, TINY_L)
    return total / len(windows)


@pytest.mark.parametrize("task", [RECONSTRUCTION, PREDICTION, IMPUTATION])
def test_full_backward_pass_matches_finite_differences(task):
    cfg = tiny_cfg(task=task)
    model = LinearAutoencoder(input_dim=8, latent=3, seed=1)
    if task == PREDICTION:
        head = TaskHead(PREDICTION, latent=3, seed=2)
    elif task == IMPUTATION:
        head = TaskHead(IMPUTATION, latent=3, out_dim=8, seed=2)
    else:
        head = None
    windows = tiny_windows(3, seed=3, labeled=task == PREDICTION,
                           masked=task == IMPUTATION)

    # analytic gradients via the training internals
    from lobkit.models import _model_input, _task_loss_grad

    X = np.stack([_model_input(task, w) for w in windows])
    Y, cache = _batch_forward(model, head, X)
    _, GY = _task_loss_grad(task, np.atleast_2d(Y), windows, cfg)
    grads = _batch_backward(model, head, cache, np.atleast_2d(GY), False)

    # numeric check of every parameter entry
    h = 1e-5
    targets = [model.params] if head is None else [model.params, head.params]
    for pdict in targets:
        for name, arr in pdict.items():
            if name not in grads:
                continue
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                hi = whole_model_loss(model, head, windows, task, cfg)
                arr[idx] = orig - h
                lo = whole_model_loss(model, head, windows, task, cfg)
                arr[idx] = orig
                num = (hi - lo) / (2 * h)
                ana = grads[name][idx]
                assert abs(ana - num) <= 1e-5 * max(abs(num), 1e-6), (
                    f"{name}{idx}: analytic {ana} vs numeric {num}"
                )
                it.iternext()


# -------------------------------------------------------------------- adam

def test_adam_zero_gradient_leaves_params_unchanged():
    adam = AdamState(lr=0.1)
    params = {"w": np.ones(4)}
    adam.update(params, {"w": np.zeros(4)})
    assert np.all(params["w"] == 1.0)


def test_adam_zero_lr_leaves_params_unchanged():
    adam = AdamState(lr=0.0)
    params = {"w": np.ones(4)}
    adam.update(params, {"w": np.full(4, 3.0)})
    assert np.all(params["w"] == 1.0)


def test_adam_first_step_is_signed_lr():
    # with bias correction, step 1 moves each entry by lr * sign(g)
    adam = AdamState(lr=0.5)
    params = {"w": np.zeros(3)}
    adam.update(params, {"w": np.array([2.0, -7.0, 0.1])})
    assert np.allclose(params["w"], [-0.5, 0.5, -0.5], atol=1e-6)


# ----------------------------------------------------------------- training

def test_train_loss_decreases_on_tiny_problem():
    model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
    trace = train(model, None, tiny_windows(16, seed=4),
                  tiny_cfg(epochs=30, lr=1e-2))
    assert trace[-1] < trace[0]


def test_train_is_bit_deterministic():
    def run():
        model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
        trace = train(model, None, tiny_windows(16, seed=4),
                      tiny_cfg(epochs=5, lr=1e-2))
        return trace, {k: v.copy() for k, v in model.params.items()}

    t1, p1 = run()
    t2, p2 = run()
    assert t1 == t2
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)


def test_train_empty_data_raises():
    with pytest.raises(ValueError):
        train(LinearAutoencoder(input_dim=8, latent=2), None, [], tiny_cfg())


def test_train_max_batches_stops_early():
    model = LinearAutoencoder(input_dim=8, latent=2, seed=0)
    trace = train(model, None, tiny_windows(16, seed=5),
                  tiny_cfg(epochs=10), max_batches=3)
    # 16 windows / batch 4 = 4 batches per epoch; 3 batches < 1 epoch
    assert trace == []


# ------------------------------------------------------------------- freeze

def test_finetune_frozen_never_touches_encoder():
    model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
    head = TaskHead(PREDICTION, latent=4, seed=1)
    data = tiny_windows(20, seed=6, labeled=True)
    enc_before = {k: model.params[k].copy() for k in ("enc.W", "enc.b")}
    trace = finetune_frozen(model, head, data,
                            tiny_cfg(task=PREDICTION, epochs=10), budget=12)
    assert trace  # some training happened
    for k, v in enc_before.items():
        assert np.array_equal(model.params[k], v)  # byte-for-byte equal


def test_finetune_frozen_keeps_every_caller_config_field(monkeypatch):
    import lobkit.models

    seen = []
    monkeypatch.setattr(lobkit.models, "train",
                        lambda *args, **kw: seen.append(args[3]))
    cfg = tiny_cfg(task=PREDICTION, lr_schedule="cosine", warmup_epochs=1,
                   beta1=0.5, beta2=0.9)
    finetune_frozen(LinearAutoencoder(input_dim=8, latent=4, seed=0),
                    TaskHead(PREDICTION, latent=4, seed=1),
                    tiny_windows(8, seed=7, labeled=True), cfg, budget=3)
    (got,) = seen
    assert got.freeze_encoder and not cfg.freeze_encoder
    assert (got.lr_schedule, got.warmup_epochs, got.beta1, got.beta2) == (
        "cosine", 1, 0.5, 0.9)


def test_finetune_budget_zero_is_a_noop():
    model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
    head = TaskHead(PREDICTION, latent=4, seed=1)
    head_before = {k: v.copy() for k, v in head.params.items()}
    trace = finetune_frozen(model, head, tiny_windows(8, seed=7, labeled=True),
                            tiny_cfg(task=PREDICTION), budget=0)
    assert trace == []
    assert all(np.array_equal(head.params[k], v) for k, v in head_before.items())


def test_frozen_training_still_updates_head():
    model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
    head = TaskHead(PREDICTION, latent=4, seed=1)
    head_before = {k: v.copy() for k, v in head.params.items()}
    finetune_frozen(model, head, tiny_windows(8, seed=8, labeled=True),
                    tiny_cfg(task=PREDICTION, epochs=2), budget=4)
    assert any(
        not np.array_equal(head.params[k], v) for k, v in head_before.items()
    )


# --------------------------------------------------------------- evaluation

def test_predict_labels_are_argmax_minus_one():
    model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
    head = TaskHead(PREDICTION, latent=4, seed=1)
    # force deterministic logits: zero everything, bias picks class index 2
    for p in model.params.values():
        p[:] = 0.0
    head.params["head.W"][:] = 0.0
    head.params["head.b"][:] = [0.0, 0.0, 1.0]
    preds = predict_labels(model, head, tiny_windows(5, seed=9))
    assert np.all(preds == 1)


def test_evaluate_classification_perfect_predictions():
    labels = np.array([-1, 0, 1, -1, 0, 1])
    stats = evaluate_classification(labels.copy(), labels)
    assert stats["accuracy"] == 1.0
    assert stats["macro_precision"] == 1.0 and stats["macro_recall"] == 1.0
    assert all(stats["recall"][c] == 1.0 for c in (-1, 0, 1))


def test_evaluate_classification_single_class_predictor():
    labels = np.array([-1, -1, 0, 0, 1, 1])  # balanced three classes
    preds = np.zeros(6, dtype=int)
    stats = evaluate_classification(preds, labels)
    assert stats["recall"] == {-1: 0.0, 0: 1.0, 1: 0.0}
    assert stats["macro_recall"] == pytest.approx(1 / 3)
    # never-predicted classes have undefined precision, skipped by the macro
    assert stats["precision"][-1] is None and stats["precision"][1] is None
    assert stats["macro_precision"] == pytest.approx(2 / 6)


def test_evaluate_classification_absent_label_class():
    labels = np.array([1, 1, 0])
    preds = np.array([1, 0, 0])
    stats = evaluate_classification(preds, labels)
    assert stats["recall"][-1] is None  # class absent from labels
    assert stats["macro_recall"] == pytest.approx((0.5 + 1.0) / 2)


def test_evaluate_classification_shape_errors():
    with pytest.raises(ValueError):
        evaluate_classification(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        evaluate_classification(np.array([1]), np.array([1, 0]))
