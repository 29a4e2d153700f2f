"""Model tests: forward shapes, whole-model gradient vs finite differences,
optimizer behavior, freeze invariant, determinism, predicted labels."""

import sys
import threading
import time

import numpy as np
import pytest

from lobkit.metrics import (
    LossConfig,
    MetricError,
    cross_entropy,
    cross_entropy_gradient,
    l_all,
    l_all_gradient,
    l_reg,
    masked_mse,
    masked_mse_gradient,
    report,
)
from lobkit.models import (
    ADAM_CHUNK,
    IMPUTATION,
    PREDICTION,
    RECONSTRUCTION,
    REPORT_BLOCK,
    AdamState,
    LinearAutoencoder,
    NumericError,
    TaskHead,
    TrainConfig,
    _batch_backward,
    _batch_forward,
    _clip,
    _init,
    _model_input,
    _task_loss_grad,
    _two_lanes,
    encode_windows,
    finetune_frozen,
    predict,
    predict_labels,
    train,
)
from lobkit.preprocess import Windows, masked_input
from tests.test_metrics import mae, mse, price_volume_losses, wmse

TINY_L = 1  # 4 columns per snapshot row in the tiny fixtures
TINY_T = 2  # input_dim = 8


def tiny_cfg(**kw):
    defaults = dict(
        epochs=3, batch_size=4, lr=1e-3, seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def autoencoder(input_dim=4000, latent=256, relu=False, seed=0):
    """A model and its reconstruction head, the decoder, drawn as `train`
    draws them: the head's W right after enc.W, from one generator."""
    rng = np.random.default_rng(seed)
    return (LinearAutoencoder(input_dim, latent, relu, seed=rng),
            TaskHead(RECONSTRUCTION, latent, out_dim=input_dim, seed=rng))


def tiny_windows(n, seed=0, labeled=False, masked=False):
    """n independent tiny windows; the view holds them one per row."""
    rng = np.random.default_rng(seed)
    view = rng.normal(size=(n, TINY_T, 4 * TINY_L))
    labels = rng.integers(-1, 2, size=n) if labeled else None
    masks = rng.integers(TINY_T, size=(n, 1)) if masked else None
    return Windows(view, np.arange(n), labels, masks)


# ----------------------------------------------------------------- forward

def test_autoencoder_shapes_default():
    model, head = autoencoder()
    x = np.zeros(4000)
    r = model.encode(x)
    assert r.shape == (1, 256)
    assert head.forward(r).shape == (1, 4000)
    batch = model.encode(np.zeros((5, 4000)))
    assert batch.shape == (5, 256)


def test_encode_rejects_wrong_width():
    model, head = autoencoder(input_dim=8, latent=2)
    with pytest.raises(ValueError):
        model.encode(np.zeros(7))
    with pytest.raises(ValueError):
        head.forward(np.zeros(3))


def test_zero_weights_give_zero_output():
    model, head = autoencoder(input_dim=8, latent=2)
    for p in (*model.params.values(), *head.params.values()):
        p[:] = 0.0
    assert np.all(head.forward(model.encode(np.ones(8))) == 0.0)


def test_head_kinds_and_output_dims():
    assert TaskHead(RECONSTRUCTION).out_dim == 4000
    assert TaskHead(PREDICTION).out_dim == 3
    assert TaskHead(IMPUTATION).out_dim == 4000
    assert TaskHead(IMPUTATION, out_dim=8).out_dim == 8
    with pytest.raises(ValueError):
        TaskHead("segmentation")


def test_model_holds_only_the_encoder_and_the_decoder_draws_after_it():
    """The encoder's arrays are enc.W and enc.b. A reconstruction head
    built from the encoder's generator draws its W right after enc.W, as
    the encoder's own decoder once did, so every value stays the same."""
    model, head = autoencoder(input_dim=8, latent=2, seed=4)
    assert list(model.params) == ["enc.W", "enc.b"]
    assert list(head.params) == ["head.W", "head.b"]
    rng = np.random.default_rng(4)
    assert np.array_equal(model.params["enc.W"], _init((8, 2), 8, rng))
    assert np.array_equal(head.params["head.W"], _init((2, 8), 2, rng))
    assert not head.params["head.b"].any() and not model.params["enc.b"].any()


def test_relu_latent_clips_negatives():
    model = LinearAutoencoder(input_dim=4, latent=4, relu=True, seed=0)
    r = model.encode(np.array([10.0, -10.0, 3.0, -3.0]))
    assert np.all(r >= 0.0)


# ----------------------------------------------- whole-model gradient check

def flat_params(dicts):
    return np.concatenate([v.ravel() for d in dicts for v in d.values()])


def model_inputs(task, windows):
    X = windows.data()
    X_in = masked_input(X, windows.masks) if task == IMPUTATION else X
    return X_in.reshape(len(X), -1)


def loop_loss_grad(task, Y, windows, cfg):
    """Batch loss and dLoss/dY from one-window loss calls, in window order."""
    B = len(windows)
    X = windows.data()
    loss = 0.0
    GY = np.empty_like(Y)
    for i in range(B):
        if task == PREDICTION:
            label = int(windows.labels[i])
            loss += cross_entropy(Y[i], label)
            GY[i] = cross_entropy_gradient(Y[i], label)
        else:
            xh = Y[i].reshape(X[i].shape)
            if task == IMPUTATION:
                loss += masked_mse(X[i], xh, windows.masks[i])
                g = masked_mse_gradient(X[i], xh, windows.masks[i])
            else:
                loss += l_all(X[i], xh, cfg.loss)
                g = l_all_gradient(X[i], xh, cfg.loss)
            GY[i] = g.ravel()
    return loss / B, GY / B


def whole_model_loss(model, head, windows, task, cfg):
    Y, _ = _batch_forward(model, head, model_inputs(task, windows))
    return loop_loss_grad(task, Y, windows, cfg)[0]


@pytest.mark.parametrize("task", [RECONSTRUCTION, PREDICTION, IMPUTATION])
def test_full_backward_pass_matches_finite_differences(task):
    assert_gradients_match_finite_differences(task, latent=3)


def test_chained_backward_matches_finite_differences():
    """A 3-logit head under a 5-wide linear latent takes the chained path."""
    assert_gradients_match_finite_differences(PREDICTION, latent=5)


def test_chained_overcomplete_decoder_matches_finite_differences():
    """So does an 8-wide decoder under an overcomplete 9-wide latent."""
    assert_gradients_match_finite_differences(RECONSTRUCTION, latent=9)


def assert_gradients_match_finite_differences(task, latent):
    cfg = tiny_cfg()
    model = LinearAutoencoder(input_dim=8, latent=latent, seed=1)
    head = TaskHead(task, latent=latent,
                    out_dim=3 if task == PREDICTION else 8, seed=2)
    windows = tiny_windows(3, seed=3, labeled=task == PREDICTION,
                           masked=task == IMPUTATION)

    # analytic gradients via the training internals
    Y, cache = _batch_forward(model, head, model_inputs(task, windows))
    assert (cache[1] is None) == (head.out_dim < latent)
    _, GY = _task_loss_grad(task, Y, windows.data(), windows, cfg)
    grads = _batch_backward(model, head, cache, GY, False)

    # numeric check of every parameter entry
    h = 1e-5
    for pdict in (model.params, head.params):
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


def real_windows(T=100, n=64, seed=0):
    """n windows of a real normalized day series, at scattered starts."""
    from lobkit.preprocess import fit_group_stats, normalize, window_view
    from lobkit.synth import PROFILES, generate_day, replay_check

    raw, _ = replay_check(generate_day(PROFILES["sz000001"], 0))
    data = normalize(raw, fit_group_stats(raw))
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.choice(len(data) - T + 1, size=n, replace=False))
    masks = np.sort(np.stack([rng.choice(T, size=T // 5, replace=False)
                              for _ in range(n)]), axis=1)
    return Windows(window_view(data, T), starts,
                   rng.integers(-1, 2, size=n), masks)


@pytest.fixture(scope="module")
def day_windows():
    return real_windows()


@pytest.mark.parametrize("task", [RECONSTRUCTION, PREDICTION, IMPUTATION])
def test_batched_loss_grad_equals_per_window_loop(task, day_windows):
    """The batched loss path is bit-identical to one loss call per window."""
    cfg = TrainConfig()
    out_dim = 3 if task == PREDICTION else 4000
    rng = np.random.default_rng(11)
    X = day_windows.data()
    Y = (rng.normal(size=(len(X), out_dim)) if task == PREDICTION
         else X.reshape(len(X), -1) + 0.3 * rng.normal(size=(len(X), out_dim)))
    loss, GY = _task_loss_grad(task, Y, X, day_windows, cfg)
    want_loss, want_GY = loop_loss_grad(task, Y, day_windows, cfg)
    assert type(loss) is float
    assert loss == want_loss
    assert np.array_equal(GY, want_GY)


def serial_backward(model, head, cache, GY, frozen):
    """The backward pass as serial products on the calling thread: the
    oracle for _batch_backward, which runs the output layer's on the
    helper thread. After a chained forward (a linear model under a head
    narrower than its latent; R is None) the gradients are the chained
    products of Z = X.T @ GY, formed as its transpose."""
    X, R = cache
    if R is None:
        W = head.params["head.W"]
        ZT = GY.T @ X
        grads = {"head.W": ((ZT @ model.params["enc.W"]).T
                            + np.outer(model.params["enc.b"],
                                       GY.sum(axis=0))),
                 "head.b": GY.sum(axis=0)}
        if not frozen:
            grads["enc.W"] = ZT.T @ W.T
            grads["enc.b"] = GY.sum(axis=0) @ W.T
        return grads
    grads = {"head.W": R.T @ GY, "head.b": GY.sum(axis=0)}
    if frozen:
        return grads
    GR = GY @ head.params["head.W"].T
    GH = GR * (R > 0) if model.relu else GR
    grads["enc.W"] = X.T @ GH
    grads["enc.b"] = GH.sum(axis=0)
    return grads


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("task", [RECONSTRUCTION, PREDICTION, IMPUTATION])
def test_two_lane_backward_equals_serial_products(task, relu, frozen,
                                                  day_windows):
    """Every gradient, in the same key order, byte for byte, at the
    default model size."""
    model = LinearAutoencoder(relu=relu, seed=1)
    head = TaskHead(task, seed=2)
    X = day_windows.data()
    Y, cache = _batch_forward(model, head, _model_input(X, (
        day_windows.masks if task == IMPUTATION else None)))
    _, GY = _task_loss_grad(task, Y, X, day_windows, TrainConfig())
    assert (cache[1] is None) == (task == PREDICTION and not relu)
    got = _batch_backward(model, head, cache, GY, frozen)
    want = serial_backward(model, head, cache, GY, frozen)
    assert list(got) == list(want)
    for k in want:
        assert got[k].tobytes() == want[k].tobytes(), k


@pytest.mark.parametrize("frozen", [False, True])
def test_chained_prediction_step_equals_encode_then_head(frozen,
                                                         day_windows):
    """At the default model size, the chained logits and every gradient,
    in the same key order, equal the products of encoding first and then
    applying the head, within rtol 1e-12 of each array's largest magnitude.
    (Re-associated, an element that cancels to near zero can differ by
    more than that relative to itself: about 2e-4 of enc.W's elements do,
    by up to about 1e-9.)"""
    model = LinearAutoencoder(seed=1)
    head = TaskHead(PREDICTION, seed=2)
    for p in (model.params["enc.b"], head.params["head.b"]):
        p[:] = np.random.default_rng(3).normal(size=p.shape)
    X = _model_input(day_windows.data(), None)
    Y, cache = _batch_forward(model, head, X)
    assert cache[1] is None
    R = model.encode(X)
    assert_close_in_scale(Y, head.forward(R), "Y")

    _, GY = _task_loss_grad(PREDICTION, Y, None, day_windows, TrainConfig())
    got = _batch_backward(model, head, cache, GY, frozen)
    GR = GY @ head.params["head.W"].T
    want = {"head.W": R.T @ GY, "head.b": GY.sum(axis=0)}
    if not frozen:
        want.update({"enc.W": X.T @ GR, "enc.b": GR.sum(axis=0)})
    assert list(got) == list(want)
    for k in want:
        assert_close_in_scale(got[k], want[k], k)


def assert_close_in_scale(got, want, name, rtol=1e-12):
    assert got.shape == want.shape, name
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want)), name


def in_blocks(X, Xh, masks=None):
    """(x, xh, mask) triples of REPORT_BLOCK windows, as predict yields."""
    return [(X[i:i + REPORT_BLOCK], Xh[i:i + REPORT_BLOCK],
             None if masks is None else masks[i:i + REPORT_BLOCK])
            for i in range(0, len(X), REPORT_BLOCK)]


def assert_report_equals_per_window_means(X, Xh, items, cfg, masks=None):
    sums = dict.fromkeys(
        ("mse", "mae", "wmse", "l_price", "l_volume", "l_reg", "l_all"), 0.0)
    for x, xh in zip(X, Xh):
        sums["mse"] += mse(x, xh)
        sums["mae"] += mae(x, xh)
        sums["wmse"] += wmse(x, xh, cfg.weights)
        lp, lv = price_volume_losses(x, xh)
        sums["l_price"] += lp
        sums["l_volume"] += lv
        sums["l_reg"] += l_reg(xh)
        sums["l_all"] += l_all(x, xh, cfg)
    rep = dict(items)
    assert rep["count"] == len(X)
    for key, total in sums.items():
        got = rep[key]
        assert type(got) is float and got == total / len(X), key
    if masks is None:
        assert "masked_mse" not in rep
    else:
        assert rep["masked_mse"] == float(np.mean(
            [masked_mse(x, xh, m) for x, xh, m in zip(X, Xh, masks)]))


def noisy(X):
    return X + 0.3 * np.random.default_rng(12).normal(size=X.shape)


def test_report_equals_per_window_means(day_windows):
    X = day_windows.data()
    Xh = noisy(X)
    cfg = LossConfig()
    assert_report_equals_per_window_means(
        X, Xh, report([(X, Xh, None)], cfg), cfg)


def test_report_blocks_equal_per_window_means():
    """report fed REPORT_BLOCK windows at a time: several blocks and a short
    last one still equal one call per window."""
    X = real_windows(n=2 * REPORT_BLOCK + 7, seed=1).data()
    Xh = noisy(X)
    cfg = LossConfig()
    assert_report_equals_per_window_means(X, Xh, report(in_blocks(X, Xh), cfg),
                                          cfg)


@pytest.mark.parametrize("n, sizes", [
    (2 * REPORT_BLOCK + 7, [REPORT_BLOCK, REPORT_BLOCK, 7]),
    (2 * REPORT_BLOCK + 1, [REPORT_BLOCK, REPORT_BLOCK + 1]),
], ids=["short-last", "lone-last"])
def test_report_of_predict_equals_whole_split_forward(n, sizes):
    """Masked windows scored through predict, REPORT_BLOCK at a time and a
    lone last window folded into the block before it, give the encodings
    and the report of one encode/head pass over the whole masked split. (At
    the default latent; at latents such as 4 or 16, OpenBLAS computes a
    short block's encodings with its small-matrix kernel, which rounds
    apart.)"""
    windows = real_windows(n=n, seed=2)
    model = LinearAutoencoder(input_dim=4000, relu=True, seed=0)
    head = TaskHead(IMPUTATION, out_dim=4000, seed=1)
    cfg = LossConfig()
    blocks = list(predict(model, head, windows))
    assert [len(x) for x, _, _ in blocks] == sizes
    X = windows.data()
    R = model.encode(masked_input(X, windows.masks).reshape(len(X), -1))
    Xh = head.forward(R).reshape(X.shape)
    assert np.array_equal(encode_windows(model, windows), R)
    assert np.array_equal(np.concatenate([xh for _, xh, _ in blocks]), Xh)
    assert_report_equals_per_window_means(
        X, Xh, report(blocks, cfg), cfg, masks=windows.masks)


@pytest.mark.parametrize("masked", [False, True])
def test_train_predict_and_encode_windows_build_one_encoder_input(masked,
                                                                  monkeypatch):
    """Whichever of the three runs the encoder, windows that carry masks
    have their masked steps zeroed and windows without masks are read
    whole; the task does not enter into it."""
    data = tiny_windows(6, seed=10, masked=masked)
    X = data.data()
    want = (masked_input(X, data.masks) if masked else X).reshape(6, -1)
    seen = []
    encode = LinearAutoencoder.encode
    monkeypatch.setattr(LinearAutoencoder, "encode",
                        lambda self, x: seen.append(x) or encode(self, x))
    model, head = autoencoder(input_dim=8, latent=4)
    encode_windows(model, data)
    list(predict(model, head, data))
    train(model, head, data, tiny_cfg(batch_size=6, epochs=1))
    order = np.random.default_rng(0).permutation(6)
    assert [x.shape for x in seen] == [(6, 8)] * 3
    assert np.array_equal(seen[0], want) and np.array_equal(seen[1], want)
    assert np.array_equal(seen[2], want[order])


def test_report_of_no_windows_is_a_metric_error():
    with pytest.raises(MetricError, match="non-empty"):
        report([], LossConfig())


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


def reference_adam_update(adam, params, grads):
    """Adam as whole-array expressions, one temporary per operation: the
    oracle that the blocked AdamState.update must equal bit for bit."""
    adam.t += 1
    b1t = 1 - adam.beta1**adam.t
    b2t = 1 - adam.beta2**adam.t
    for name, g in grads.items():
        p = params[name]
        if name not in adam.m:
            adam.m[name] = np.zeros_like(p)
            adam.v[name] = np.zeros_like(p)
        m = adam.m[name]
        v = adam.v[name]
        m += (1 - adam.beta1) * (g - m)
        v += (1 - adam.beta2) * (g * g - v)
        p -= adam.lr * (m / b1t) / (np.sqrt(v / b2t) + adam.eps)


ADAM_SHAPES = {
    "enc.W": (4000, 256),
    "enc.b": (ADAM_CHUNK + 1,),
    "head.W": (3,),
    "head.b": (2, 5),
}


def cosine_lr(step, steps=40, warmup=5, lr=1e-2):
    """Warmup then cosine annealing, as train's schedule moves lr by epoch."""
    if step < warmup:
        return lr * (step + 1) / warmup
    return lr * 0.5 * (1 + np.cos(np.pi * (step - warmup) / (steps - warmup)))


@pytest.mark.parametrize("case", ["constant", "schedule", "frozen", "clipped",
                                  "three-blocks"])
def test_blocked_adam_equals_reference_update(case):
    """Blocks are shared between the caller and the helper thread, except
    in the frozen case: its head (2 blocks, 13 elements) steps inline. The
    three-blocks case gives the two lanes an odd block count."""
    rng = np.random.default_rng(21)
    start = {k: rng.uniform(-0.1, 0.1, size=s) for k, s in ADAM_SHAPES.items()}
    params, want = ({k: v.copy() for k, v in start.items()} for _ in range(2))
    adam = AdamState(lr=1e-2, beta1=0.8, beta2=0.99)
    oracle = AdamState(lr=1e-2, beta1=0.8, beta2=0.99)
    if case == "three-blocks":
        trained = ["enc.b", "head.W"]  # ADAM_CHUNK + 1, then 3 elements
    else:
        trained = [k for k in ADAM_SHAPES
                   if case != "frozen" or not k.startswith("enc.")]
    for step in range(40):
        grads = {k: rng.normal(scale=10.0 ** (step % 5 - 2),
                               size=ADAM_SHAPES[k]) for k in trained}
        if case == "clipped":
            _clip(grads, 1.0)
        if case == "schedule":
            adam.lr = oracle.lr = cosine_lr(step)
        adam.update(params, grads)
        reference_adam_update(oracle, want, grads)
    assert adam.t == oracle.t == 40
    assert list(adam.m) == list(oracle.m) == trained
    for k in ADAM_SHAPES:
        assert np.array_equal(params[k], want[k]), k
    for k in trained:
        assert np.array_equal(adam.m[k], oracle.m[k]), k
        assert np.array_equal(adam.v[k], oracle.v[k]), k
    for k in ADAM_SHAPES:
        if k not in trained:
            assert np.array_equal(params[k], start[k]), k


def test_adam_rejects_a_non_contiguous_parameter():
    """A rejected step moves nothing: not t, the moments or any parameter,
    including those listed before the rejected one."""
    adam = AdamState(lr=0.1)
    params = {"a": np.zeros(3), "w": np.zeros((4, 6))[:, ::2]}
    adam.update(params, {"a": np.array([1.0, -2.0, 0.5])})
    before = {k: v.copy() for k, v in params.items()}
    moments = (adam.m["a"].copy(), adam.v["a"].copy())
    with pytest.raises(ValueError, match="'w' must be C-contiguous"):
        adam.update(params, {"a": np.ones(3), "w": np.ones((4, 3))})
    assert adam.t == 1
    assert list(adam.m) == list(adam.v) == ["a"]
    assert adam.m["a"].tobytes() == moments[0].tobytes()
    assert adam.v["a"].tobytes() == moments[1].tobytes()
    for k, v in before.items():
        assert params[k].tobytes() == v.tobytes(), k


def test_a_helper_job_that_raises_reaches_the_caller():
    with pytest.raises(ZeroDivisionError):
        _two_lanes(lambda: 1 / 0, lambda: "mine")
    assert _two_lanes(lambda: "theirs", lambda: "mine") == ("theirs", "mine")


def test_the_helper_keeps_nothing_of_a_finished_step():
    """A finished job and its result hold none of a step's arrays alive:
    they are gradients and moments the size of the model. A job's error
    holds them only until the garbage collector frees its traceback."""
    import gc
    import weakref

    def step(job):
        arr = np.ones(8)
        try:
            _two_lanes(lambda: job(arr), lambda: None)
        except ZeroDivisionError:
            pass
        return weakref.ref(arr)

    assert step(np.sum)() is None
    ref = step(lambda a: 1 / (a.size - 8))
    gc.collect()
    assert ref() is None


def test_a_callers_own_error_waits_for_the_helper():
    """An error raised on the caller's lane reaches the caller only once the
    helper's job has finished, so no step returns while the helper still
    writes its arrays."""
    started, finished = threading.Event(), threading.Event()

    def theirs():
        started.set()
        time.sleep(0.2)
        finished.set()

    def mine():
        assert started.wait(timeout=60)
        raise KeyError("mine")

    with pytest.raises(KeyError, match="mine"):
        _two_lanes(theirs, mine)
    assert finished.is_set()


def _one_adam_step():
    """One Adam step over three blocks, which runs on both lanes."""
    AdamState().update({"w": np.zeros(3 * ADAM_CHUNK)},
                       {"w": np.ones(3 * ADAM_CHUNK)})


def test_a_forked_child_still_trains():
    """The helper is started again in a forked child, which inherits the
    parent's executor but not its thread."""
    import multiprocessing

    _one_adam_step()  # the parent's helper now exists
    child = multiprocessing.get_context("fork").Process(target=_one_adam_step)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_concurrent_callers_share_the_helper_without_lost_updates():
    """More callers than CPUs, switching threads every few microseconds:
    the callers queue on the one helper, every caller's Adam steps equal
    the reference update, and once they finish at most one helper thread
    is alive."""
    rng = np.random.default_rng(5)
    shape = (3 * ADAM_CHUNK + 7,)
    grads = [rng.normal(size=shape) for _ in range(6)]
    want, oracle = np.zeros(shape), AdamState(lr=1e-2)
    for g in grads:
        reference_adam_update(oracle, {"w": want}, {"w": g})
    got = [np.zeros(shape) for _ in range(4)]

    def steps(params):
        adam = AdamState(lr=1e-2)
        for g in grads:
            adam.update({"w": params}, {"w": g})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=steps, args=(p,)) for p in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for params in got:
        assert params.tobytes() == want.tobytes()
    helpers = [t for t in threading.enumerate()
               if t.name.startswith("lobkit-helper")]
    assert len(helpers) <= 1


# ----------------------------------------------------------------- training

def test_train_loss_decreases_on_tiny_problem():
    model, head = autoencoder(input_dim=8, latent=4)
    trace = train(model, head, tiny_windows(16, seed=4),
                  tiny_cfg(epochs=30, lr=1e-2))
    assert trace[-1] < trace[0]


def test_train_is_bit_deterministic():
    def run():
        model, head = autoencoder(input_dim=8, latent=4)
        trace = train(model, head, tiny_windows(16, seed=4),
                      tiny_cfg(epochs=5, lr=1e-2))
        return trace, {k: v.copy() for d in (model.params, head.params)
                       for k, v in d.items()}

    t1, p1 = run()
    t2, p2 = run()
    assert t1 == t2
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)


def test_train_empty_data_raises():
    with pytest.raises(ValueError):
        train(*autoencoder(input_dim=8, latent=2), [], tiny_cfg())


def test_train_max_batches_stops_early():
    model, head = autoencoder(input_dim=8, latent=2)
    trace = train(model, head, tiny_windows(16, seed=5),
                  tiny_cfg(epochs=10), max_batches=3)
    # 16 windows / batch 4 = 4 batches per epoch; 3 batches < 1 epoch
    assert trace == []


def test_train_takes_the_task_from_the_head():
    """A prediction head with a plain TrainConfig trains as prediction: the
    trace is the one that stating task=prediction on the config gave."""
    model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
    head = TaskHead(PREDICTION, latent=4, seed=1)
    trace = train(model, head, tiny_windows(12, seed=9, labeled=True),
                  TrainConfig(epochs=3, batch_size=4))
    assert trace == [0.9906763320480808, 0.9852701036396502,
                     0.9810191778236588]


def test_divergence_norm_covers_the_encoder_and_its_head_only():
    """A prediction run that meets an inf window reports the norm of
    enc.* and head.*, the only arrays it trains: no decoder is drawn."""
    model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
    head = TaskHead(PREDICTION, latent=4, seed=1)
    data = tiny_windows(8, seed=3, labeled=True)
    data.view[:] = np.inf
    with pytest.raises(NumericError) as err:
        train(model, head, data, tiny_cfg())
    params = [*model.params.values(), *head.params.values()]
    assert list(model.params) == ["enc.W", "enc.b"]
    assert err.value.batch_id == 0
    assert err.value.param_norm == float(np.sqrt(sum(
        float((p * p).sum()) for p in params)))


def test_default_train_config_trains_on_80_column_rows():
    """A plain TrainConfig on 20-level windows gives the trace that the
    20-level inverse-level weight array gave."""
    view = np.random.default_rng(7).normal(size=(6, 2, 80))
    model, head = autoencoder(input_dim=160, latent=4)
    trace = train(model, head, Windows(view, np.arange(6)),
                  TrainConfig(epochs=2, batch_size=4))
    assert trace == [1.4515584857190196, 1.4020287303419354]


# ------------------------------------------------------------------- freeze

def test_finetune_frozen_never_touches_encoder():
    model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
    head = TaskHead(PREDICTION, latent=4, seed=1)
    data = tiny_windows(20, seed=6, labeled=True)
    enc_before = {k: model.params[k].copy() for k in ("enc.W", "enc.b")}
    trace = finetune_frozen(model, head, data,
                            tiny_cfg(epochs=10), budget=12)
    assert trace  # some training happened
    for k, v in enc_before.items():
        assert np.array_equal(model.params[k], v)  # byte-for-byte equal


def test_finetune_frozen_encodes_each_window_once():
    """Every batch reads its rows of the one representation, a lone
    window at the end of each epoch included: the encoder never runs on
    a batch."""
    model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
    head = TaskHead(PREDICTION, latent=4, seed=1)
    encode, calls = model.encode, []

    def spy(X):
        calls.append(len(X))
        return encode(X)

    model.encode = spy
    trace = finetune_frozen(model, head, tiny_windows(21, seed=6, labeled=True),
                            tiny_cfg(batch_size=4), budget=100)
    assert len(trace) == 3  # three epochs, each ending on one window
    assert sum(calls) == 21 and 1 not in calls


def test_finetune_frozen_keeps_every_caller_config_field(monkeypatch):
    """The caller's config reaches train as it is; freezing comes from the
    fixed latents passed beside it."""
    import lobkit.models

    seen = []
    monkeypatch.setattr(lobkit.models, "train",
                        lambda *args, **kw: seen.append((args[3], kw)))
    fields = dict(lr_schedule="cosine", warmup_epochs=1, beta1=0.5,
                  beta2=0.9, clip_norm=0.5)
    cfg = tiny_cfg(**fields)
    finetune_frozen(LinearAutoencoder(input_dim=8, latent=4, seed=0),
                    TaskHead(PREDICTION, latent=4, seed=1),
                    tiny_windows(8, seed=7, labeled=True), cfg, budget=3)
    ((got, kw),) = seen
    assert got is cfg and got == tiny_cfg(**fields)
    assert kw["max_batches"] == 3 and kw["latents"].shape == (8, 4)


def frozen_oracle(model, head, data, cfg, budget):
    """The frozen fit written out as a byte-equality oracle for
    finetune_frozen: the whole set is encoded in one call before the first
    epoch, every batch reads its rows of that representation, and only the
    head's gradients reach Adam."""
    task = head.kind
    with np.errstate(over="ignore", invalid="ignore"):
        latents = model.encode(model_inputs(task, data))
    rng = np.random.default_rng(cfg.seed)
    adam = AdamState(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    trace, batch_id = [], 0
    all_params = {**model.params, **head.params}
    for epoch in range(cfg.epochs):
        if epoch < cfg.warmup_epochs:
            adam.lr = cfg.lr * (epoch + 1) / cfg.warmup_epochs
        elif cfg.lr_schedule == "cosine":
            t = (epoch - cfg.warmup_epochs) / max(
                cfg.epochs - cfg.warmup_epochs, 1)
            adam.lr = cfg.lr * 0.5 * (1 + np.cos(np.pi * t))
        order = rng.permutation(len(data))
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(data), cfg.batch_size):
            if batch_id >= budget:
                return trace
            idx = order[start : start + cfg.batch_size]
            batch = data.take(idx)
            R = latents[idx]
            with np.errstate(over="ignore", invalid="ignore"):
                Y = head.forward(R)
                loss, GY = _task_loss_grad(task, Y, batch.data(), batch, cfg)
            if not np.isfinite(loss):
                with np.errstate(over="ignore", invalid="ignore"):
                    norm = float(np.sqrt(sum(
                        float((p * p).sum()) for p in all_params.values())))
                raise NumericError(batch_id, norm)
            grads = {"head.W": R.T @ GY, "head.b": GY.sum(axis=0)}
            if cfg.clip_norm is not None:
                _clip(grads, cfg.clip_norm)
            adam.update(all_params, grads)
            epoch_loss += loss
            n_batches += 1
            batch_id += 1
        trace.append(epoch_loss / max(n_batches, 1))
    return trace


def frozen_pair(kind, relu, n, shape=(TINY_T, 4 * TINY_L), latent=4):
    """Two identical (model, head) pairs and n windows for kind."""
    rng = np.random.default_rng(n)
    view = rng.normal(size=(n, *shape))
    labels = rng.integers(-1, 2, size=n) if kind == PREDICTION else None
    masks = rng.integers(shape[0], size=(n, 1)) if kind == IMPUTATION else None
    data = Windows(view, np.arange(n), labels, masks)
    d = shape[0] * shape[1]
    out_dim = 3 if kind == PREDICTION else d
    return [(LinearAutoencoder(input_dim=d, latent=latent, relu=relu, seed=0),
             TaskHead(kind, latent=latent, out_dim=out_dim, seed=1))
            for _ in range(2)], data


def run_both(kind, relu, n, cfg, budget, poison=None, **shape):
    """finetune_frozen's and the oracle's traces (or NumericErrors), after
    checking that both leave the same head bytes and the encoder as it was.
    A `poison` window is set to inf."""
    ((model, head), (o_model, o_head)), data = frozen_pair(kind, relu, n,
                                                           **shape)
    if poison is not None:
        data.view[poison] = np.inf
    enc = {k: model.params[k].copy() for k in ("enc.W", "enc.b")}
    results = []
    for fit, m, h in ((finetune_frozen, model, head),
                      (frozen_oracle, o_model, o_head)):
        try:
            results.append(fit(m, h, data, cfg, budget))
        except NumericError as exc:
            results.append((exc.batch_id, exc.param_norm))
    for k in ("head.W", "head.b"):
        assert np.array_equal(head.params[k], o_head.params[k]), k
    for k, v in enc.items():
        assert np.array_equal(model.params[k], v), k
    return results


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("kind", [PREDICTION, IMPUTATION])
@pytest.mark.parametrize("n, cfg, budget", [
    (21, tiny_cfg(batch_size=4), 100),  # each epoch ends on a lone window
    (6, tiny_cfg(batch_size=1, epochs=2), 100),
    (65, tiny_cfg(batch_size=10, epochs=2), 100),  # 65 % REPORT_BLOCK == 1
    (129, tiny_cfg(batch_size=16, epochs=2), 100),
    (20, tiny_cfg(batch_size=4, epochs=4), 7),  # budget ends mid-epoch
    (21, tiny_cfg(batch_size=4, epochs=4, lr=1e-2, lr_schedule="cosine",
                  warmup_epochs=1, clip_norm=0.05), 100),
], ids=["lone-last-batch", "batch-1", "block-remainder", "two-blocks+1",
        "mid-epoch-budget", "cosine-warmup-clip"])
def test_finetune_frozen_matches_per_batch_oracle(kind, relu, n, cfg,
                                                  budget):
    """Fitting the head on latents encoded block by block gives the bytes
    of the fit on one whole-set encoding, lone batches included."""
    got, want = run_both(kind, relu, n, cfg, budget)
    assert got == want and len(got) == min(cfg.epochs,
                                           budget // -(-n // cfg.batch_size))


def test_finetune_frozen_matches_per_batch_oracle_at_default_width():
    """The benchmark's shapes (4000 inputs, 256 latents, batches of 64) with
    a lone last batch and a lone row past the last encode block."""
    got, want = run_both(PREDICTION, False, 129,
                         tiny_cfg(batch_size=64, epochs=2), 100,
                         shape=(100, 40), latent=256)
    assert got == want and len(got) == 2


@pytest.mark.parametrize("kind", [PREDICTION, IMPUTATION])
@pytest.mark.parametrize("lr, poison, batch_id", [(1e308, None, 1),
                                                  (1e-3, 13, 3)])
def test_finetune_frozen_divergence_matches_per_batch_oracle(kind, lr,
                                                             poison, batch_id):
    """A fit whose loss turns non-finite, from a huge step (the norm
    overflows) or from an inf window (it does not), raises NumericError at
    the oracle's batch and parameter norm."""
    got, want = run_both(kind, False, 21, tiny_cfg(lr=lr), 100, poison)
    assert got == want and got[0] == batch_id
    assert np.isfinite(got[1]) == (poison is not None)


@pytest.mark.parametrize("name, bad, good, message", [
    ("lr_schedule", ["cosin", "Cosine", ""], ["constant", "cosine"],
     "lr_schedule must be one of ('constant', 'cosine'), got {!r}"),
    ("warmup_epochs", [-1], [0, 5], "warmup_epochs must be >= 0, got {}"),
    ("beta1", [1.0, -0.1, float("nan"), float("inf")], [0.0, 0.5],
     "beta1 must be in [0, 1), got {}"),
    ("beta2", [1.0, 1.5, float("nan"), -float("inf")], [0.0, 0.999],
     "beta2 must be in [0, 1), got {}"),
])
def test_train_config_rejects_out_of_range_schedule_fields(name, bad, good,
                                                           message):
    for value in bad:
        with pytest.raises(ValueError) as err:
            tiny_cfg(**{name: value})
        assert str(err.value) == message.format(value)
    for value in good:
        assert getattr(tiny_cfg(**{name: value}), name) == value


def test_finetune_budget_zero_is_a_noop():
    model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
    head = TaskHead(PREDICTION, latent=4, seed=1)
    head_before = {k: v.copy() for k, v in head.params.items()}
    trace = finetune_frozen(model, head, tiny_windows(8, seed=7, labeled=True),
                            tiny_cfg(), budget=0)
    assert trace == []
    assert all(np.array_equal(head.params[k], v) for k, v in head_before.items())


def test_frozen_training_still_updates_head():
    model = LinearAutoencoder(input_dim=8, latent=4, seed=0)
    head = TaskHead(PREDICTION, latent=4, seed=1)
    head_before = {k: v.copy() for k, v in head.params.items()}
    finetune_frozen(model, head, tiny_windows(8, seed=8, labeled=True),
                    tiny_cfg(epochs=2), budget=4)
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
    preds = predict_labels(head,
                           encode_windows(model, tiny_windows(5, seed=9)))
    assert np.all(preds == 1)

