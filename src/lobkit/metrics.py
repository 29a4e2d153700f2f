"""Evaluation metrics and training losses for T x 4l snapshot windows.

The composite loss is alpha*MSE + (1-alpha)*wMSE + lambda*L_reg. Note the
weighted MSE sums over time without dividing by T (so it is not on the same
scale as MSE), and L_reg is a hinge penalty on adjacent-price inversions
across the merged bid/ask ladder, averaged over time steps. Gradients are
exact; the hinge subgradient at zero is taken as 0.

Each loss maps one (T, C) window to a float and a (B, T, C) batch to its (B,)
per-window values, bit-identical to one call per window; gradients keep their
input's shape. Logits, labels and masks gain the same leading batch axis.
`report` scores MSE, MAE, wMSE and the price and volume MSEs from one error
and one square per block, formed by the helper that `l_all` uses too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .book import ladder_cols, levels_of, price_cols, volume_cols

WEIGHTS = ("inverse-level", "uniform")  # wMSE column weight profiles


class MetricError(Exception):
    pass


def _check(x: np.ndarray, xh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    xh = np.asarray(xh, dtype=float)
    if x.shape != xh.shape or x.ndim not in (2, 3):
        raise MetricError(f"shape mismatch: {x.shape} vs {xh.shape}")
    return x, xh


def _per_window(v):
    """A float for one window, the (B,) array of values for a batch."""
    return float(v) if np.ndim(v) == 0 else v


def level_weights(kind: str, levels: int) -> np.ndarray:
    """The 4l wMSE column weights: 1/level per field, or all ones."""
    if not isinstance(kind, str) or kind not in WEIGHTS:
        raise MetricError(f"weights must be one of {WEIGHTS}, got {kind!r}")
    if kind == "uniform":
        return np.ones(4 * levels)
    return np.tile(1.0 / np.arange(1, levels + 1), 4)


@dataclass
class LossConfig:
    alpha: float = 0.5
    lam: float = 1.0
    weights: str = "inverse-level"  # one of WEIGHTS, sized by the rows

    def __post_init__(self):
        level_weights(self.weights, 0)  # rejects a name not in WEIGHTS
        if not 0 <= self.alpha <= 1:
            raise MetricError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0 <= self.lam < np.inf:
            raise MetricError(f"lam must be finite and >= 0, got {self.lam}")


def _errors(x: np.ndarray, xh: np.ndarray):
    """The error x - xh and its square, formed once for every loss on them."""
    x, xh = _check(x, xh)
    d = x - xh
    return d, d ** 2


def _mse(sq):
    return _per_window(np.mean(sq, axis=(-2, -1)))


def _mae(d):
    return _per_window(np.mean(np.abs(d), axis=(-2, -1)))


def _wmse(sq, weights: str):
    """(1/W) sum_j w_j sum_i e_ij^2; the time sum is not divided by T."""
    w = level_weights(weights, levels_of(sq))
    return _per_window(np.vecdot(sq.sum(axis=-2), w) / float(w.sum()))


def _price_volume(sq) -> tuple:
    """Mean squared error over the 2l price and 2l volume columns separately."""
    levels = levels_of(sq)

    def part(cols):
        # each window's selected columns laid out column-major, as the
        # one-window fancy index lays them out, so the sums add alike
        sel = np.ascontiguousarray(np.swapaxes(sq[..., cols], -2, -1))
        return _per_window(np.mean(sel, axis=(-2, -1)))

    return part(price_cols(levels)), part(volume_cols(levels))


def l_reg(xh: np.ndarray):
    """Hinge penalty on adjacent inversions of the expected-ascending ladder.

    Per time step the 2l prices are taken in the order b_p[l..1],
    a_p[1..l]; each adjacent pair contributes max(0, prev - next) / (2l - 1);
    the result is averaged over time steps.
    """
    xh = np.asarray(xh, dtype=float)
    ladder = xh[..., ladder_cols(levels_of(xh))]
    gaps = ladder[..., :-1] - ladder[..., 1:]  # 2l - 1 adjacent pairs
    # summed left to right along the ladder whatever the memory layout
    hinge = np.cumsum(np.maximum(gaps, 0.0), axis=-1)[..., -1]
    return _per_window(np.mean(hinge / gaps.shape[-1], axis=-1))


def l_reg_gradient(xh: np.ndarray) -> np.ndarray:
    xh = np.asarray(xh, dtype=float)
    T = xh.shape[-2]
    cols = ladder_cols(levels_of(xh))
    ladder = xh[..., cols]
    active = (ladder[..., :-1] - ladder[..., 1:]) > 0  # subgradient at 0 is 0
    g_ladder = np.zeros_like(ladder)
    scale = 1.0 / (active.shape[-1] * T)
    g_ladder[..., :-1] += active * scale
    g_ladder[..., 1:] -= active * scale
    grad = np.zeros_like(xh)
    grad[..., cols] = g_ladder
    return grad


def _compose(cfg: LossConfig, mse_, wmse_, l_reg_):
    """L_All from its three parts."""
    return cfg.alpha * mse_ + (1 - cfg.alpha) * wmse_ + cfg.lam * l_reg_


def l_all(x: np.ndarray, xh: np.ndarray, cfg: LossConfig):
    sq = _errors(x, xh)[1]
    return _compose(cfg, _mse(sq), _wmse(sq, cfg.weights), l_reg(xh))


def l_all_gradient(x: np.ndarray, xh: np.ndarray,
                   cfg: LossConfig) -> np.ndarray:
    """Exact d l_all / d xh, same shape as xh.

    The error xh - x is formed once and the terms are built in place, with
    the ufuncs and operand order of ``a * (2e / TC) + (1 - a) * (2e * w/W)
    + lam * d l_reg``, so every element is that expression's."""
    x, xh = _check(x, xh)
    w = level_weights(cfg.weights, levels_of(x))
    grad = np.subtract(xh, x)
    np.multiply(grad, 2.0, out=grad)  # 2e
    g_wmse = np.multiply(grad, w / float(w.sum()))
    np.divide(grad, grad.shape[-2] * grad.shape[-1], out=grad)  # g_mse
    np.multiply(grad, cfg.alpha, out=grad)
    np.multiply(g_wmse, 1 - cfg.alpha, out=g_wmse)
    np.add(grad, g_wmse, out=grad)
    if cfg.lam != 0:
        g_reg = l_reg_gradient(xh)
        np.multiply(g_reg, cfg.lam, out=g_reg)
        np.add(grad, g_reg, out=grad)
    return grad


def _softmax_parts(logits, label):
    """Max-subtracted logits and the one-hot of class index label + 1; a
    label that is not one of the ints -1, 0, 1 is a MetricError."""
    label = np.asarray(label)
    bad = label[(label < -1) | (label > 1) | (label != np.round(label))]
    if bad.size or label.dtype.kind not in "iu":
        got = repr(bad.flat[0].item()) if bad.size else f"{label.dtype} labels"
        raise MetricError(f"trend labels must be the ints -1, 0, 1, got {got}")
    logits = np.asarray(logits, dtype=float)
    z = logits - logits.max(axis=-1, keepdims=True)
    return z, np.eye(z.shape[-1], dtype=bool)[label + 1]


def cross_entropy(logits: np.ndarray, label):
    """Softmax cross-entropy for a trend label in {-1, 0, +1} (class index
    label + 1), computed with max-subtraction for stability."""
    z, onehot = _softmax_parts(logits, label)
    picked = z[onehot].reshape(z.shape[:-1])
    return _per_window(np.log(np.exp(z).sum(axis=-1)) - picked)


def cross_entropy_gradient(logits: np.ndarray, label) -> np.ndarray:
    z, onehot = _softmax_parts(logits, label)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True) - onehot


def logit_classes(logits: np.ndarray) -> np.ndarray:
    """Trend class per logit row; columns are classes -1, 0, +1 in order."""
    return logits.argmax(axis=1) - 1


def evaluate_classification(preds, labels) -> dict:
    """Confusion-matrix statistics over trend classes {-1, 0, +1}, keyed by
    their record names in record order: accuracy, macro_precision,
    macro_recall, then precision[c] and recall[c] for c = -1, 0, 1.

    Recall is absent (None) for classes missing from the labels, precision
    for classes never predicted; macro averages skip absent entries.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.size == 0 or preds.shape != labels.shape:
        raise MetricError("need matching non-empty prediction/label arrays, "
                          f"got shapes {preds.shape} and {labels.shape}")
    per_class = {}
    for c in (-1, 0, 1):
        tp = int(np.sum((preds == c) & (labels == c)))
        pred_c = int(np.sum(preds == c))
        true_c = int(np.sum(labels == c))
        per_class[f"precision[{c}]"] = tp / pred_c if pred_c else None
        per_class[f"recall[{c}]"] = tp / true_c if true_c else None

    def macro(kind):
        defined = [v for k, v in per_class.items()
                   if k.startswith(kind) and v is not None]
        return float(np.mean(defined)) if defined else None

    return {"accuracy": float(np.mean(preds == labels)),
            "macro_precision": macro("precision"),
            "macro_recall": macro("recall"), **per_class}


def prediction_report(logits, labels) -> list[tuple[str, object]]:
    """The (name, value) items of a prediction record over (N, 3) logits
    and their N trend labels: count, the mean cross-entropy ce, then the
    confusion statistics of the logits' classes."""
    logits = np.asarray(logits, dtype=float)
    stats = evaluate_classification(logit_classes(logits), labels)
    return [("count", len(logits)),
            ("ce", float(np.mean(cross_entropy(logits, labels)))),
            *stats.items()]


def transfer_report(labels, before, after) -> list[tuple[str, object]]:
    """The macro recall and precision of a head's predicted classes before
    and after a fit, over the same labels: macro_recall_before,
    macro_recall_after, macro_precision_before, macro_precision_after."""
    stats = {"before": evaluate_classification(before, labels),
             "after": evaluate_classification(after, labels)}
    return [(f"macro_{k}_{when}", stats[when][f"macro_{k}"])
            for k in ("recall", "precision") for when in ("before", "after")]


def _masked_error(x, xh, mask):
    """The int mask and xh - x at the masked time steps, (k, C) or (B, k, C)."""
    x, xh = _check(x, xh)
    mask = np.asarray(mask, dtype=int)[..., None]
    if mask.size == 0:
        raise MetricError("mask must be non-empty")
    return mask, (np.take_along_axis(xh, mask, axis=-2)
                  - np.take_along_axis(x, mask, axis=-2))


def masked_mse(x: np.ndarray, xh: np.ndarray, mask: np.ndarray):
    """Mean squared error over the masked time steps (all columns)."""
    _, err = _masked_error(x, xh, mask)
    return _per_window(np.mean(err ** 2, axis=(-2, -1)))


def masked_mse_gradient(x: np.ndarray, xh: np.ndarray,
                        mask: np.ndarray) -> np.ndarray:
    mask, err = _masked_error(x, xh, mask)
    grad = np.zeros(np.shape(xh))
    k_cells = err.shape[-2] * err.shape[-1]
    np.put_along_axis(grad, mask, 2.0 * err / k_cells, axis=-2)
    return grad


REPORT_METRICS = ("mse", "mae", "wmse", "l_price", "l_volume", "l_reg",
                  "l_all", "masked_mse")


def _block_values(x, xh, mask, cfg: LossConfig) -> list:
    """Each metric's per-window values over one block, REPORT_METRICS order."""
    d, sq = _errors(x, xh)
    m, w, r = _mse(sq), _wmse(sq, cfg.weights), l_reg(xh)
    return [m, _mae(d), w, *_price_volume(sq), r, _compose(cfg, m, w, r),
            *([] if mask is None else [masked_mse(x, xh, mask)])]


def report(blocks, cfg: LossConfig) -> list[tuple[str, object]]:
    """The (name, value) items of one evaluation record over (x, xh, mask)
    blocks of (B, T, C) true and predicted windows, mask None or each
    window's masked time steps: count, then each metric's mean over the
    windows, masked_mse only where the windows carry masks."""
    values = [_block_values(x, xh, mask, cfg) for x, xh, mask in blocks]
    per_window = [np.concatenate(v) for v in zip(*values)]
    if not per_window or not len(per_window[0]):
        raise MetricError("need a non-empty (N, T, C) evaluation set")
    n = len(per_window[0])
    # each mean but masked_mse sums its per-window values one after another
    means = [float(np.cumsum(v)[-1]) / n for v in per_window[:7]]
    means += [float(np.mean(v)) for v in per_window[7:]]
    return [("count", n), *zip(REPORT_METRICS, means)]
