"""Acceptance suite: the ten headline guarantees of the toolkit.

Each test is numbered, self-contained, deterministic, and ends by printing a
single PASS line (visible with ``pytest -s`` or on failure). Runtime budgets
are asserted where the guarantee includes one.
"""

import time

import numpy as np
import pytest

from lobkit.book import price_cols
from lobkit.cli import _block_labels, _labeled, _split_blocks, main
from lobkit.metrics import (
    LossConfig,
    cross_entropy,
    evaluate_classification,
    l_all,
    l_all_gradient,
    level_weights,
    masked_mse,
    l_reg,
)
from lobkit.models import (
    PREDICTION,
    LinearAutoencoder,
    TaskHead,
    TrainConfig,
    encode_windows,
    finetune_frozen,
    predict_labels,
    train,
)
from lobkit.preprocess import (
    LabelConfig,
    Windows,
    balance_classes,
    fit_feature_stats,
    fit_group_stats,
    label_trend,
    make_windows,
    mask_for_imputation,
    normalize,
    split_train_test,
    window_view,
)
from lobkit.synth import PROFILES, generate_day, replay_check
from tests.test_metrics import (
    central_fd,
    mse,
    oracle_cross_entropy,
    oracle_l_reg,
    oracle_mae,
    oracle_masked_mse,
    oracle_mse,
    oracle_price_volume,
    oracle_wmse,
    window_report,
)
from tests.test_models import autoencoder
from tests.test_preprocess import valid_rows


def one_day(profile="sz000001", seed=0):
    stream = generate_day(PROFILES[profile], seed)
    data, rep = replay_check(stream)
    return stream, data, rep


def day_windows(profile, seed, label_cfg):
    """Normalized labeled train and test windows for one synthetic day, none
    crossing a session block, built with the CLI's own split, label and
    window helpers."""
    _, raw, _ = one_day(profile, seed)
    train_raw, test_raw = split_train_test(raw)
    stats = fit_group_stats(train_raw)
    splits = _split_blocks([(0, 2400), (2400, len(raw))], len(train_raw))
    out = []
    for data_raw, blocks in zip((train_raw, test_raw), splits):
        normed = normalize(data_raw, stats)
        labels = _block_labels(data_raw, blocks, label_cfg)
        starts = make_windows(normed, T=100, blocks=blocks)
        out.append(_labeled(Windows(window_view(normed, 100), starts,
                                    labels[starts + 99])))
    return tuple(out)


# --------------------------------------------------------------------------

def test_criterion_01_engine_invariants_over_50_days():
    """50 seeded days: zero invariant violations, exact volume conservation."""
    t0 = time.time()
    total_orders = 0
    for profile in sorted(PROFILES):
        for seed in range(10):
            stream = generate_day(PROFILES[profile], seed)
            total_orders += len(stream.orders)
            # replay_check raises on any invariant violation or imbalance
            _, rep = replay_check(stream)
            assert rep.balanced(), f"conservation failed {profile}/{seed}"
            assert rep.cancel_misses == 0
    elapsed = time.time() - t0
    assert 1e5 <= total_orders <= 2e6
    assert elapsed < 120, f"50-day replay took {elapsed:.0f}s"
    print(f"ACCEPTANCE 1 PASS: 50 days, {total_orders} orders, zero "
          f"violations, conservation exact, {elapsed:.0f}s")


def test_criterion_02_day_series_cardinality():
    """Every complete synthetic day yields exactly 4740 snapshots."""
    for profile, seed in [("sz000001", 0), ("sz000858", 3), ("sz300147", 7)]:
        _, data, _ = one_day(profile, seed)
        assert len(data) == 4740
        assert data.shape == (4740, 40)
    print("ACCEPTANCE 2 PASS: 4740 snapshots per complete day")


def test_criterion_03_normalization_ordering():
    """(a) global z-score preserves within-row price argsort on 1e4
    snapshots, exactly; (b) feature-wise z-score inversion witness."""
    rows = valid_rows(10_000, seed=11)
    normed = normalize(rows, fit_group_stats(rows))
    cols = price_cols()
    for i in range(rows.shape[0]):
        assert np.array_equal(
            np.argsort(normed[i, cols], kind="stable"),
            np.argsort(rows[i, cols], kind="stable"),
        )
    # (b) two valid books whose per-column z-scores invert an ask ordering
    l = 10
    witness = np.empty((2, 4 * l))
    for r, spread1 in enumerate([1, 30]):  # gap best ask -> second ask
        bid0 = 1000 + r * 10
        witness[r, 0:l] = (bid0 - np.arange(l)) * 0.01
        asks = bid0 + 1 + np.concatenate(
            [[0, spread1], spread1 + np.arange(1, l - 1)]
        )
        witness[r, 2 * l : 3 * l] = asks * 0.01
        witness[r, l : 2 * l] = 100
        witness[r, 3 * l : 4 * l] = 100
    from lobkit.book import validate_snapshot

    assert all(validate_snapshot(w) == [] for w in witness)
    fw = normalize(witness, fit_feature_stats(witness))
    assert np.all(witness[:, 20] < witness[:, 21])  # raw asks ascending
    assert np.any(fw[:, 20] >= fw[:, 21])  # feature-wise order inverted
    print("ACCEPTANCE 3 PASS: global scheme order-preserving on 1e4 rows; "
          "feature-wise inversion witness holds")


def test_criterion_04_losses_match_loop_oracles():
    """Every metric matches a brute-force loop oracle within 1e-12 on 100
    random instances; l_all equals its composition."""
    rng = np.random.default_rng(404)
    cfg = LossConfig()
    for _ in range(100):
        T = int(rng.integers(1, 6))
        x = rng.normal(size=(T, 40))
        xh = rng.normal(size=(T, 40))
        rep = window_report(x, xh, cfg)
        assert abs(rep["mse"] - oracle_mse(x, xh)) < 1e-12
        assert abs(rep["mae"] - oracle_mae(x, xh)) < 1e-12
        assert abs(rep["wmse"] - oracle_wmse(
            x, xh, level_weights(cfg.weights, 10))) < 1e-12
        olp, olv = oracle_price_volume(x, xh)
        assert abs(rep["l_price"] - olp) < 1e-12
        assert abs(rep["l_volume"] - olv) < 1e-12
        assert abs(l_reg(xh) - oracle_l_reg(xh)) < 1e-12
        composed = (cfg.alpha * rep["mse"] + (1 - cfg.alpha) * rep["wmse"]
                    + cfg.lam * l_reg(xh))
        assert abs(l_all(x, xh, cfg) - composed) < 1e-12
        logits = rng.normal(size=3)
        label = int(rng.integers(-1, 2))
        assert abs(cross_entropy(logits, label)
                   - oracle_cross_entropy(logits, label)) < 1e-12
        mask = np.sort(rng.choice(T, size=max(1, T // 2), replace=False))
        assert abs(masked_mse(x, xh, mask)
                   - oracle_masked_mse(x, xh, mask)) < 1e-12
    print("ACCEPTANCE 4 PASS: all metrics within 1e-12 of loop oracles "
          "on 100 instances")


def test_criterion_05_gradients_match_finite_differences():
    """l_all_gradient and the full backward pass match central differences
    (h=1e-5) within 1e-5 relative, hinge-active cases included."""
    from lobkit.book import ladder_cols

    lad = list(ladder_cols())

    def kink_free(xh, h=1e-5):
        # central differences are only valid away from the hinge kink
        gaps = xh[:, lad[:-1]] - xh[:, lad[1:]]
        return float(np.min(np.abs(gaps))) > 10 * h

    rng = np.random.default_rng(505)
    cfg = LossConfig()
    hinge_active = 0
    for k in range(100):
        T = int(rng.integers(1, 4))
        while True:
            x = rng.normal(size=(T, 40))
            xh = rng.normal(size=(T, 40)) if k % 2 else x + 0.2 * rng.normal(
                size=(T, 40)
            )
            if kink_free(xh):
                break
        if l_reg(xh) > 0:
            hinge_active += 1
        analytic = l_all_gradient(x, xh, cfg)
        numeric = central_fd(lambda v: l_all(x, v, cfg), xh.copy())
        scale = max(np.max(np.abs(numeric)), 1e-8)
        assert np.max(np.abs(analytic - numeric)) <= 1e-5 * scale
    assert hinge_active >= 50  # the sample genuinely exercises the hinge

    # full-model backward pass on a small instance, every parameter entry
    from lobkit.models import _batch_backward, _batch_forward

    model, head = autoencoder(input_dim=8, latent=3, seed=5)
    w_data = rng.normal(size=(2, 4))
    tiny = LossConfig()

    def loss_fn():
        Y, _ = _batch_forward(model, head, w_data.ravel()[None, :])
        return l_all(w_data, Y[0].reshape(2, 4), tiny)

    Y, cache = _batch_forward(model, head, w_data.ravel()[None, :])
    GY = l_all_gradient(w_data, Y[0].reshape(2, 4), tiny).ravel()[None, :]
    grads = _batch_backward(model, head, cache, GY, False)
    h = 1e-5
    for name, arr in {**model.params, **head.params}.items():
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            hi = loss_fn()
            arr[idx] = orig - h
            lo = loss_fn()
            arr[idx] = orig
            num = (hi - lo) / (2 * h)
            assert abs(grads[name][idx] - num) <= 1e-5 * max(abs(num), 1e-6)
            it.iternext()
    print("ACCEPTANCE 5 PASS: loss and full-model gradients match central "
          f"differences (hinge active in {hinge_active}/100 instances)")


def test_criterion_06_pipeline_closed_forms():
    """Split 3792/948, window count N-99, mask count floor(0.2*T), balanced
    class counts equal to the minority — all exact on synthetic data."""
    _, data, _ = one_day("sz000001", 1)
    train_raw, test_raw = split_train_test(data)
    assert train_raw.shape[0] == 3792 and test_raw.shape[0] == 948

    morning = data[:2400]
    ws = make_windows(morning, T=100)
    assert len(ws) == 2400 - 99

    masked = mask_for_imputation(1, 100, ratio=0.2, seed=0)
    assert len(masked[0]) == 20  # floor(0.2 * 100)

    cfg = LabelConfig(horizon=5, delta=0.0001)
    mids = (morning[:, 0] + morning[:, 20]) / 2.0
    labeled = np.array([label_trend(mids, s + 99, cfg) for s in ws
                        if s + 99 + cfg.horizon < len(mids)])
    counts = {c: sum(1 for w in labeled if w == c) for c in (-1, 0, 1)}
    balanced = labeled[balance_classes(labeled, seed=2)]
    minority = min(counts.values())
    assert minority > 0
    for c in (-1, 0, 1):
        assert sum(1 for w in balanced if w == c) == minority
    print(f"ACCEPTANCE 6 PASS: split 3792/948, windows N-99, masks "
          f"floor(0.2T)=20, balanced classes = minority ({minority})")


def test_criterion_07_end_to_end_learnability():
    """Reference autoencoder (latent 256, Adam, 100 epochs) on one day:
    held-out reconstruction MSE <= 50% of the predict-the-mean baseline, and
    a single window overfits to L_All < 1e-3. Budget < 10 minutes."""
    t0 = time.time()
    _, data, _ = one_day("sz000001", 0)
    train_raw, _ = split_train_test(data)
    stats = fit_group_stats(train_raw)
    tr = normalize(train_raw, stats)
    ws = Windows(window_view(tr, 100), make_windows(
        tr, T=100, step=10, blocks=[(0, 2400), (2400, len(tr))]))
    val_w = ws.data(slice(3, None, 4))  # every 4th window held out for validation
    tr_w = ws.take(np.arange(len(ws)) % 4 != 3)

    model, decoder = autoencoder(seed=0)
    train(model, decoder, tr_w,
          TrainConfig(epochs=100, batch_size=64, lr=1e-3, seed=0))
    mu = np.vstack(tr_w.data()).mean(axis=0)
    val = np.mean([
        mse(w, decoder.forward(model.encode(w.ravel())).reshape(100, 40))
        for w in val_w
    ])
    base = np.mean([mse(w, np.tile(mu, (100, 1))) for w in val_w])
    assert val <= 0.5 * base, f"val {val:.4f} vs baseline {base:.4f}"

    overfit, decoder = autoencoder(seed=0)
    train(overfit, decoder, tr_w.take([0]),
          TrainConfig(epochs=100, batch_size=1, lr=2e-3, seed=0,
                      lr_schedule="cosine", warmup_epochs=5, beta1=0.5))
    w0 = tr_w.data(0)
    xh = decoder.forward(overfit.encode(w0.ravel())).reshape(100, 40)
    final = l_all(w0, xh, LossConfig())
    assert final < 1e-3, f"single-sample L_All {final:.3e}"

    elapsed = time.time() - t0
    assert elapsed < 600
    print(f"ACCEPTANCE 7 PASS: val/baseline MSE ratio {val / base:.3f} "
          f"<= 0.5, single-sample L_All {final:.1e} < 1e-3, {elapsed:.0f}s")


def test_criterion_08_frozen_encoder_transfer():
    """Frozen-encoder fine-tuning (budget 100 batches) changes zero encoder
    bytes and reaches macro recall >= the untransferred head's on target data."""
    label_cfg = LabelConfig(horizon=5, delta=0.0001)
    src_train, _ = day_windows("sz000001", 31, label_cfg)
    tgt_train, tgt_test = day_windows("sz000002", 32, label_cfg)

    model = LinearAutoencoder(seed=0)
    head = TaskHead(PREDICTION, seed=1)
    train(model, head, src_train.take(balance_classes(src_train.labels, 5)),
          TrainConfig(epochs=30, batch_size=64, lr=1e-3, seed=2,
                      lr_schedule="cosine", warmup_epochs=3, beta1=0.5))

    labels = tgt_test.labels
    latents = encode_windows(model, tgt_test)
    before = evaluate_classification(predict_labels(head, latents), labels)
    encoder_bytes = {
        k: model.params[k].tobytes() for k in ("enc.W", "enc.b")
    }
    finetune_frozen(model, head,
                    tgt_train.take(balance_classes(tgt_train.labels, 6)),
                    TrainConfig(epochs=100, batch_size=64, lr=1e-3, seed=3),
                    budget=100)
    for k, raw in encoder_bytes.items():
        assert model.params[k].tobytes() == raw, f"{k} changed"
    after = evaluate_classification(predict_labels(head, latents), labels)
    assert after["macro_recall"] >= before["macro_recall"], (
        f"after {after['macro_recall']:.4f} < before "
        f"{before['macro_recall']:.4f}"
    )
    # pinned by value: the pair holds under OPENBLAS_CORETYPE=Haswell and
    # SandyBridge too
    assert (before["macro_recall"], after["macro_recall"]) == pytest.approx(
        (0.3196376356133687, 0.37367164940471315), rel=1e-10)
    print(f"ACCEPTANCE 8 PASS: encoder byte-identical; macro recall "
          f"{before['macro_recall']:.4f} -> {after['macro_recall']:.4f}")


def test_criterion_09_byte_identical_reruns(tmp_path):
    """The full command pipeline re-run with identical config and seed
    produces byte-identical data files and metric records."""
    def run(root):
        root.mkdir()
        assert main(["generate", "--profile", "sz300147", "--seed", "5",
                     "--out", str(root / "flow.csv")]) == 0
        assert main(["build", "--flow", str(root / "flow.csv"),
                     "--out", str(root / "series.bin")]) == 0
        assert main(["preprocess", "--series", str(root / "series.bin"),
                     "--out", str(root / "data")]) == 0
        assert main(["train", "--data", str(root / "data"),
                     "--task", "reconstruction", "--out", str(root / "run"),
                     "--epochs", "2", "--step", "50", "--latent", "16"]) == 0
        assert main(["evaluate", "--data", str(root / "data"),
                     "--checkpoint", str(root / "run" / "checkpoint.bin"),
                     "--step", "50", "--out", str(root / "eval")]) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    files = [
        "flow.csv", "series.bin", "series.meta.txt",
        "data/train_series.bin", "data/test_series.bin",
        "data/train_labels.bin", "data/test_labels.bin",
        "data/norm_stats.txt", "data/meta.txt",
        "run/checkpoint.bin", "run/trace.txt", "run/config.txt",
        "eval/report.txt", "eval/config.txt",
    ]
    for rel in files:
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, f"{rel} differs between re-runs"
    print(f"ACCEPTANCE 9 PASS: {len(files)} pipeline outputs byte-identical "
          "across re-runs")


def test_criterion_10_label_semantics_both_presets():
    """Hand-built mid sequences produce exact trend labels at both presets,
    including boundary-equality cases mapping to 0."""
    coarse = LabelConfig(horizon=5, delta=0.001)
    fine = LabelConfig(horizon=5, delta=0.0001)

    flat = np.full(6, 10.0)
    up_small = np.array([10.0] + [10.0005] * 5)   # +0.005%
    up_mid = np.array([10.0] + [10.005] * 5)      # +0.05%
    up_large = np.array([10.0] + [10.02] * 5)     # +0.2%
    down_small = np.array([10.0] + [9.9995] * 5)
    down_mid = np.array([10.0] + [9.995] * 5)
    down_large = np.array([10.0] + [9.98] * 5)

    cases = [
        (flat, 0, 0),
        (up_small, 0, 0),      # +0.005%: inside both bands
        (up_mid, 0, 1),        # +0.05%: above fine, inside coarse
        (up_large, 1, 1),      # +0.2%: above both
        (down_small, 0, 0),
        (down_mid, 0, -1),
        (down_large, -1, -1),
    ]
    for mids, want_coarse, want_fine in cases:
        assert label_trend(mids, 0, coarse) == want_coarse
        assert label_trend(mids, 0, fine) == want_fine

    # non-constant lookahead: mean over (t, t+5], not the endpoint
    wavy = np.array([10.0, 10.1, 9.9, 10.1, 9.9, 10.0])
    assert np.mean(wavy[1:6]) == 10.0
    assert label_trend(wavy, 0, coarse) == 0

    # boundary equality at the threshold maps exactly to 0 on both sides
    boundary = LabelConfig(horizon=2, delta=0.01)
    up_edge = np.array([100.0, 101.0, 101.0])
    down_edge = np.array([100.0, 99.0, 99.0])
    assert np.mean(up_edge[1:3]) == (1 + boundary.delta) * 100.0
    assert label_trend(up_edge, 0, boundary) == 0
    assert np.mean(down_edge[1:3]) == (1 - boundary.delta) * 100.0
    assert label_trend(down_edge, 0, boundary) == 0
    print("ACCEPTANCE 10 PASS: exact labels at both presets, boundary "
          "equality -> 0")
