"""Metric/loss tests: brute-force loop oracles (1e-12) and central
finite-difference gradient checks (1e-5 relative) on random instances."""

import hashlib

import numpy as np
import pytest

from lobkit.book import ladder_cols, price_cols, volume_cols
from lobkit.metrics import (
    WEIGHTS,
    LossConfig,
    MetricError,
    cross_entropy,
    cross_entropy_gradient,
    evaluate_classification,
    l_all,
    l_all_gradient,
    l_reg,
    l_reg_gradient,
    level_weights,
    masked_mse,
    masked_mse_gradient,
    prediction_report,
    report,
    transfer_report,
)

L = 10
N_COLS = 4 * L


def rand_pair(rng, T=6):
    x = rng.normal(size=(T, N_COLS))
    xh = rng.normal(size=(T, N_COLS))
    return x, xh


# ------------------------------------------------------ per-window formulas
# Whole-array formulas of the per-window report metrics, each forming its own
# error: oracles for report, which forms one error and one square per block.

def _value(v):
    return float(v) if np.ndim(v) == 0 else v


def mse(x, xh):
    return _value(np.mean((x - xh) ** 2, axis=(-2, -1)))


def mae(x, xh):
    return _value(np.mean(np.abs(x - xh), axis=(-2, -1)))


def wmse(x, xh, weights):
    w = level_weights(weights, x.shape[-1] // 4)
    col_sq = ((x - xh) ** 2).sum(axis=-2)
    return _value(np.vecdot(col_sq, w) / float(w.sum()))


def price_volume_losses(x, xh):
    levels = x.shape[-1] // 4
    sq = (x - xh) ** 2

    def part(cols):
        sel = np.ascontiguousarray(np.swapaxes(sq[..., cols], -2, -1))
        return _value(np.mean(sel, axis=(-2, -1)))

    return part(price_cols(levels)), part(volume_cols(levels))


def window_report(x, xh, cfg):
    """report's record of one (T, C) window x and its reconstruction xh."""
    return dict(report([(x[None], xh[None], None)], cfg))


# -------------------------------------------------------------- loop oracles

def oracle_mse(x, xh):
    total = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            total += (x[i, j] - xh[i, j]) ** 2
    return total / (x.shape[0] * x.shape[1])


def oracle_mae(x, xh):
    total = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            total += abs(x[i, j] - xh[i, j])
    return total / (x.shape[0] * x.shape[1])


def oracle_wmse(x, xh, w):
    total = 0.0
    for j in range(x.shape[1]):
        col = 0.0
        for i in range(x.shape[0]):
            col += (x[i, j] - xh[i, j]) ** 2
        total += w[j] * col
    return total / sum(w)


def oracle_l_reg(xh, l=L):
    cols = list(ladder_cols(l))
    total = 0.0
    for i in range(xh.shape[0]):
        row = 0.0
        for k in range(len(cols) - 1):
            gap = xh[i, cols[k]] - xh[i, cols[k + 1]]
            if gap > 0:
                row += gap
        total += row / (2 * l - 1)
    return total / xh.shape[0]


def oracle_price_volume(x, xh, l=L):
    p_total, v_total = 0.0, 0.0
    for i in range(x.shape[0]):
        for j in range(l):
            p_total += (x[i, j] - xh[i, j]) ** 2
            p_total += (x[i, 2 * l + j] - xh[i, 2 * l + j]) ** 2
            v_total += (x[i, l + j] - xh[i, l + j]) ** 2
            v_total += (x[i, 3 * l + j] - xh[i, 3 * l + j]) ** 2
    n = x.shape[0] * 2 * l
    return p_total / n, v_total / n


def oracle_cross_entropy(logits, label):
    import math

    denom = sum(math.exp(z) for z in logits)
    return -math.log(math.exp(logits[label + 1]) / denom)


def oracle_masked_mse(x, xh, mask):
    total = 0.0
    for i in mask:
        for j in range(x.shape[1]):
            total += (x[i, j] - xh[i, j]) ** 2
    return total / (len(mask) * x.shape[1])


def test_all_metrics_match_loop_oracles_on_100_instances():
    rng = np.random.default_rng(42)
    cfg = LossConfig()
    w = level_weights(cfg.weights, L)
    for _ in range(100):
        x, xh = rand_pair(rng)
        rep = window_report(x, xh, cfg)
        assert abs(rep["mse"] - oracle_mse(x, xh)) < 1e-12
        assert abs(rep["mae"] - oracle_mae(x, xh)) < 1e-12
        assert abs(rep["wmse"] - oracle_wmse(x, xh, w)) < 1e-12
        assert abs(l_reg(xh) - oracle_l_reg(xh)) < 1e-12
        olp, olv = oracle_price_volume(x, xh)
        assert abs(rep["l_price"] - olp) < 1e-12
        assert abs(rep["l_volume"] - olv) < 1e-12
        expected = (
            cfg.alpha * oracle_mse(x, xh)
            + (1 - cfg.alpha) * oracle_wmse(x, xh, w)
            + cfg.lam * oracle_l_reg(xh)
        )
        assert abs(l_all(x, xh, cfg) - expected) < 1e-12
        logits = rng.normal(size=3)
        label = int(rng.integers(-1, 2))
        assert abs(
            cross_entropy(logits, label) - oracle_cross_entropy(logits, label)
        ) < 1e-12
        mask = np.sort(rng.choice(x.shape[0], size=2, replace=False))
        assert abs(
            masked_mse(x, xh, mask) - oracle_masked_mse(x, xh, mask)
        ) < 1e-12


# -------------------------------------------------------------- byte oracles

def formula_l_all(x, xh, cfg):
    """l_all from the per-window formulas, each term forming its own error."""
    return (cfg.alpha * mse(x, xh) + (1 - cfg.alpha) * wmse(x, xh, cfg.weights)
            + cfg.lam * l_reg(xh))


def formula_l_all_gradient(x, xh, cfg):
    """d l_all / d xh as whole-array expressions, one temporary each."""
    e = xh - x
    w = level_weights(cfg.weights, x.shape[-1] // 4)
    g_mse = 2.0 * e / (e.shape[-2] * e.shape[-1])
    g_wmse = 2.0 * e * (w / float(w.sum()))
    grad = cfg.alpha * g_mse + (1 - cfg.alpha) * g_wmse
    if cfg.lam != 0:
        grad = grad + cfg.lam * l_reg_gradient(xh)
    return grad


def byte_oracle_cases(l):
    """(x, xh) pairs of 4l-column windows: a noisy batch, two batches whose
    reconstruction is exact (the second with zeros of the opposite sign),
    and one (T, C) window."""
    rng = np.random.default_rng(100 + l)
    x = rng.normal(size=(5, 7, 4 * l))
    noisy = x + 0.3 * rng.normal(size=x.shape)
    zeros = x.copy()
    zeros[..., ::3] = 0.0
    signed = zeros.copy()
    signed[..., ::3] = -0.0
    return [(x, noisy), (x, x.copy()), (zeros, signed), (x[0], noisy[0])]


@pytest.mark.parametrize("l", [1, 10, 20])
@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("lam", [0.0, 1.5])
def test_l_all_and_its_gradient_equal_the_formulas_byte_for_byte(l, weights,
                                                                  alpha, lam):
    """Compared by bytes: array_equal would let a -0.0 pass for a 0.0."""
    cfg = LossConfig(alpha=alpha, lam=lam, weights=weights)
    for x, xh in byte_oracle_cases(l):
        got, want = l_all(x, xh, cfg), formula_l_all(x, xh, cfg)
        assert type(got) is (float if x.ndim == 2 else np.ndarray)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        grad = l_all_gradient(x, xh, cfg)
        assert grad.shape == xh.shape and grad.dtype == np.float64
        assert grad.tobytes() == formula_l_all_gradient(x, xh, cfg).tobytes()


# -------------------------------------------------------------- closed forms

def test_wmse_with_uniform_weights_is_T_times_mse():
    rng = np.random.default_rng(0)
    x, xh = rand_pair(rng, T=7)
    rep = window_report(x, xh, LossConfig(weights="uniform"))
    assert rep["wmse"] == pytest.approx(7 * rep["mse"], rel=1e-12)


def test_inverse_level_weights():
    w = level_weights("inverse-level", L)
    assert w.shape == (40,)
    assert w[0] == 1.0 and w[9] == pytest.approx(0.1)
    assert np.array_equal(w[:10], w[10:20])  # same decay per field
    assert w.sum() == pytest.approx(4 * sum(1 / k for k in range(1, 11)))


def test_l_reg_single_inversion_closed_form():
    # one row, valid ladder except best bid 0.19 above best ask
    xh = np.zeros((1, N_COLS))
    xh[0, :10] = 13.90 - 0.01 * np.arange(10)
    xh[0, 20:30] = 13.71 + 0.01 * np.arange(10)  # best ask below best bid
    expected = (13.90 - 13.71) / 19
    assert l_reg(xh) == pytest.approx(expected, abs=1e-12)


def test_l_reg_zero_on_valid_ladder_and_shift_invariant():
    xh = np.zeros((3, N_COLS))
    for i in range(3):
        xh[i, :10] = 13.84 - 0.01 * np.arange(10)
        xh[i, 20:30] = 13.85 + 0.01 * np.arange(10)
    assert l_reg(xh) == 0.0
    assert l_reg(xh + 5.0) == 0.0  # adding a constant to prices changes nothing


def test_l_reg_ignores_volume_columns():
    rng = np.random.default_rng(1)
    xh = np.zeros((2, N_COLS))
    for i in range(2):
        xh[i, :10] = 14.0 - 0.01 * np.arange(10)
        xh[i, 20:30] = 14.01 + 0.01 * np.arange(10)
    base = l_reg(xh)
    xh[:, 10:20] = rng.normal(size=(2, 10))
    xh[:, 30:40] = rng.normal(size=(2, 10))
    assert l_reg(xh) == base


def test_cross_entropy_uniform_logits_is_ln3():
    assert cross_entropy(np.zeros(3), 0) == pytest.approx(np.log(3), abs=1e-12)


def test_cross_entropy_stability_under_large_logits():
    val = cross_entropy(np.array([1000.0, 1000.0, 1000.0]), 1)
    assert np.isfinite(val) and val == pytest.approx(np.log(3), abs=1e-12)


@pytest.mark.parametrize("bad", [-2, 2, 0.5])
def test_a_label_outside_the_trend_classes_is_a_metric_error(bad):
    """Neither taken as another class (-2 would pick class +1) nor left to
    an IndexError: every loss and the prediction record name the value."""
    logits = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 0.0]])
    labels = np.array([0, bad])
    for score in (cross_entropy, cross_entropy_gradient, prediction_report):
        with pytest.raises(MetricError, match=f"got {bad!r}$"):
            score(logits, labels)
    with pytest.raises(MetricError, match=f"got {bad!r}$"):
        cross_entropy(logits[0], bad)


def test_mse_scaling_property():
    rng = np.random.default_rng(2)
    x, xh = rand_pair(rng)
    cfg = LossConfig()
    assert window_report(3 * x, 3 * xh, cfg)["mse"] == pytest.approx(
        9 * window_report(x, xh, cfg)["mse"], rel=1e-12)


def test_shape_mismatch_raises():
    x, xh = np.zeros((2, 40)), np.zeros((3, 40))
    cfg = LossConfig()
    for score in (l_all, l_all_gradient,
                  lambda x, xh, cfg: report([(x[None], xh[None], None)], cfg)):
        with pytest.raises(MetricError):
            score(x, xh, cfg)
    with pytest.raises(MetricError):
        masked_mse(np.zeros((2, 40)), np.zeros((2, 40)), np.array([], dtype=int))


def test_report_aggregates_means():
    rng = np.random.default_rng(3)
    cfg = LossConfig()
    pairs = [rand_pair(rng) for _ in range(5)]
    rep = dict(report([(np.array([p[0] for p in pairs]),
                        np.array([p[1] for p in pairs]), None)], cfg))
    assert rep["count"] == 5
    assert rep["mse"] == pytest.approx(np.mean([mse(*p) for p in pairs]),
                                       rel=1e-12)
    assert rep["l_all"] == pytest.approx(
        np.mean([l_all(p[0], p[1], cfg) for p in pairs]), rel=1e-12
    )
    assert "masked_mse" not in rep


# -------------------------------------------------------- prediction records

def oracle_prediction_items(logits, labels):
    """The prediction record as evaluate built it by hand: nested per-class
    confusion statistics, then each item listed by name."""
    preds = logits.argmax(axis=1) - 1
    precision, recall = {}, {}
    for c in (-1, 0, 1):
        tp = int(np.sum((preds == c) & (labels == c)))
        pred_c = int(np.sum(preds == c))
        true_c = int(np.sum(labels == c))
        precision[c] = tp / pred_c if pred_c else None
        recall[c] = tp / true_c if true_c else None
    defined_p = [v for v in precision.values() if v is not None]
    defined_r = [v for v in recall.values() if v is not None]
    stats = {
        "precision": precision,
        "recall": recall,
        "macro_precision": float(np.mean(defined_p)) if defined_p else None,
        "macro_recall": float(np.mean(defined_r)) if defined_r else None,
        "accuracy": float(np.mean(preds == labels)),
    }
    items = [("count", len(labels)),
             ("ce", float(np.mean(cross_entropy(logits, labels))))]
    items += [(k, stats[k])
              for k in ("accuracy", "macro_precision", "macro_recall")]
    items += [(f"{k}[{c}]", stats[k][c])
              for c in (-1, 0, 1) for k in ("precision", "recall")]
    return items


def logits_for(preds, rng):
    """Random (N, 3) logits whose argmax picks each trend class in preds."""
    logits = rng.normal(size=(len(preds), 3))
    logits[np.arange(len(preds)), np.asarray(preds) + 1] += 10.0
    return logits


@pytest.mark.parametrize("case", ["random", "all-correct", "never-predicted",
                                  "absent-label"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prediction_report_equals_the_hand_built_record(case, seed):
    """Every item's name, order, type and repr equal the hand-built list's:
    report.txt writes key=repr(value)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(-1, 2, size=50)
    preds = {"random": rng.integers(-1, 2, size=50),
             "all-correct": labels,
             "never-predicted": np.where(labels == 1, 0, labels),
             "absent-label": rng.integers(-1, 2, size=50)}[case]
    if case == "absent-label":
        labels = np.where(labels == -1, 0, labels)
    logits = (rng.normal(size=(50, 3)) if case == "random"
              else logits_for(preds, rng))
    got = prediction_report(logits, labels)
    want = oracle_prediction_items(logits, labels)
    assert repr(got) == repr(want)
    record = dict(got)
    if case == "all-correct":
        assert record["accuracy"] == 1.0
    if case == "never-predicted":
        assert record["precision[1]"] is None
    if case == "absent-label":
        assert record["recall[-1]"] is None


def test_transfer_report_takes_each_macro_from_the_statistics():
    rng = np.random.default_rng(7)
    labels = rng.integers(-1, 2, size=40)
    before, after = rng.integers(-1, 2, size=40), labels.copy()
    b, a = (evaluate_classification(p, labels) for p in (before, after))
    assert transfer_report(labels, before, after) == [
        ("macro_recall_before", b["macro_recall"]),
        ("macro_recall_after", a["macro_recall"]),
        ("macro_precision_before", b["macro_precision"]),
        ("macro_precision_after", a["macro_precision"])]


def test_evaluate_classification_perfect_predictions():
    labels = np.array([-1, 0, 1, -1, 0, 1])
    stats = evaluate_classification(labels.copy(), labels)
    assert stats["accuracy"] == 1.0
    assert stats["macro_precision"] == 1.0 and stats["macro_recall"] == 1.0
    assert all(stats[f"recall[{c}]"] == 1.0 for c in (-1, 0, 1))


def test_evaluate_classification_single_class_predictor():
    labels = np.array([-1, -1, 0, 0, 1, 1])  # balanced three classes
    preds = np.zeros(6, dtype=int)
    stats = evaluate_classification(preds, labels)
    assert [stats[f"recall[{c}]"] for c in (-1, 0, 1)] == [0.0, 1.0, 0.0]
    assert stats["macro_recall"] == pytest.approx(1 / 3)
    # never-predicted classes have undefined precision, skipped by the macro
    assert stats["precision[-1]"] is None and stats["precision[1]"] is None
    assert stats["macro_precision"] == pytest.approx(2 / 6)


def test_evaluate_classification_absent_label_class():
    labels = np.array([1, 1, 0])
    preds = np.array([1, 0, 0])
    stats = evaluate_classification(preds, labels)
    assert stats["recall[-1]"] is None  # class absent from labels
    assert stats["macro_recall"] == pytest.approx((0.5 + 1.0) / 2)


def test_evaluate_classification_shape_errors():
    with pytest.raises(MetricError):
        evaluate_classification(np.array([]), np.array([]))
    with pytest.raises(MetricError):
        evaluate_classification(np.array([1]), np.array([1, 0]))


@pytest.mark.parametrize("n_logits, n_labels", [(0, 0), (3, 2), (2, 3)])
def test_prediction_report_rejects_empty_or_mismatched_arrays(n_logits,
                                                              n_labels):
    with pytest.raises(MetricError, match="matching non-empty"):
        prediction_report(np.zeros((n_logits, 3)), np.zeros(n_labels))


@pytest.mark.parametrize("l", [1, 3, 20])
def test_losses_read_the_levels_from_the_row_width(l):
    """On (B, T, 4l) windows the ladder and price/volume losses, and report,
    take l from the width and match the loop oracles at that l."""
    rng = np.random.default_rng(l)
    x, xh = rng.normal(size=(2, 5, 6, 4 * l))
    cfg = LossConfig(weights="uniform")
    reg = [oracle_l_reg(w, l) for w in xh]
    pv = np.array([oracle_price_volume(a, b, l) for a, b in zip(x, xh)])
    assert np.max(np.abs(l_reg(xh) - reg)) < 1e-12
    per_window = [window_report(a, b, cfg) for a, b in zip(x, xh)]
    lp = [r["l_price"] for r in per_window]
    lv = [r["l_volume"] for r in per_window]
    assert np.max(np.abs(lp - pv[:, 0])) < 1e-12
    assert np.max(np.abs(lv - pv[:, 1])) < 1e-12
    rep = dict(report([(x, xh, None)], cfg))
    composed = [cfg.alpha * oracle_mse(a, b)
                + (1 - cfg.alpha)
                * oracle_wmse(a, b, level_weights(cfg.weights, l))
                + cfg.lam * r for a, b, r in zip(x, xh, reg)]
    for got, want in [(rep["l_reg"], np.mean(reg)),
                      (rep["l_price"], pv[:, 0].mean()),
                      (rep["l_volume"], pv[:, 1].mean()),
                      (rep["l_all"], np.mean(composed))]:
        assert abs(got - want) < 1e-12


def test_default_loss_config_sizes_its_weights_from_80_column_rows():
    """A plain LossConfig on 20-level rows gives what the 20-level
    inverse-level weight array gave: l_all per window, the gradient's
    bytes and every report field."""
    rng = np.random.default_rng(2020)
    x, xh = rng.normal(size=(2, 3, 5, 80))
    cfg = LossConfig()
    assert l_all(x, xh, cfg).tolist() == [
        5.907629434818886, 5.779849025174704, 7.5935108314151405]
    assert hashlib.sha256(l_all_gradient(x, xh, cfg).tobytes()).hexdigest() \
        == "a23765192fa72db6477ca25ca61644701f85017c0aae8fdcfb1dd4c8f464585c"
    assert report([(x, xh, None)], cfg) == [
        ("count", 3), ("mse", 1.943607051454535), ("mae", 1.1195743060579533),
        ("wmse", 9.84498830827591), ("l_price", 1.9636531981065304),
        ("l_volume", 1.9235609048025382), ("l_reg", 0.5326987506043539),
        ("l_all", 6.426996430469576)]


@pytest.mark.parametrize("weights", ["Uniform", "", None, np.ones(40)],
                         ids=["Uniform", "empty", "None", "array"])
def test_loss_config_rejects_a_weights_value_outside_the_names(weights):
    with pytest.raises(MetricError, match="weights must be one of"):
        LossConfig(weights=weights)


# -------------------------------------------------- finite-difference checks

def central_fd(f, xh, h=1e-5):
    grad = np.zeros_like(xh)
    it = np.nditer(xh, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = xh[idx]
        xh[idx] = orig + h
        hi = f(xh)
        xh[idx] = orig - h
        lo = f(xh)
        xh[idx] = orig
        grad[idx] = (hi - lo) / (2 * h)
        it.iternext()
    return grad


def assert_close(analytic, numeric, rel=1e-5):
    scale = max(np.max(np.abs(numeric)), 1e-8)
    assert np.max(np.abs(analytic - numeric)) <= rel * scale


def test_l_all_gradient_matches_fd_on_100_instances():
    rng = np.random.default_rng(7)
    cfg = LossConfig()
    for k in range(100):
        T = int(rng.integers(1, 4))
        x = rng.normal(size=(T, N_COLS))
        # mix of hinge-active and hinge-inactive ladders: half the instances
        # start from a valid ladder, half from pure noise (mostly active)
        if k % 2 == 0:
            xh = x + 0.3 * rng.normal(size=(T, N_COLS))
        else:
            xh = rng.normal(size=(T, N_COLS))
        analytic = l_all_gradient(x, xh, cfg)
        numeric = central_fd(lambda v: l_all(x, v, cfg), xh.copy())
        assert_close(analytic, numeric)


def test_l_reg_gradient_matches_fd_with_active_hinges():
    rng = np.random.default_rng(8)
    for _ in range(20):
        xh = rng.normal(size=(2, N_COLS))  # noise: many inversions active
        analytic = l_reg_gradient(xh)
        numeric = central_fd(l_reg, xh.copy())
        assert_close(analytic, numeric)


def test_l_reg_subgradient_at_zero_gap_is_zero():
    xh = np.zeros((1, N_COLS))  # every adjacent gap exactly 0
    assert np.all(l_reg_gradient(xh) == 0.0)


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(9)
    for _ in range(100):
        logits = rng.normal(size=3)
        label = int(rng.integers(-1, 2))
        analytic = cross_entropy_gradient(logits, label)
        numeric = np.zeros(3)
        h = 1e-5
        for j in range(3):
            zp, zm = logits.copy(), logits.copy()
            zp[j] += h
            zm[j] -= h
            numeric[j] = (
                cross_entropy(zp, label) - cross_entropy(zm, label)
            ) / (2 * h)
        assert_close(analytic, numeric)


def test_masked_mse_gradient_matches_fd_and_is_zero_off_mask():
    rng = np.random.default_rng(10)
    for _ in range(30):
        x, xh = rand_pair(rng, T=5)
        mask = np.sort(rng.choice(5, size=2, replace=False))
        analytic = masked_mse_gradient(x, xh, mask)
        numeric = central_fd(lambda v: masked_mse(x, v, mask), xh.copy())
        assert_close(analytic, numeric)
        off = np.setdiff1d(np.arange(5), mask)
        assert np.all(analytic[off] == 0.0)
