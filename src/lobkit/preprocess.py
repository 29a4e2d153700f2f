"""Normalization, chronological splitting, windowing, labeling and masking.

A split's windows are arrays (see Windows); a batch is view[starts[idx]].

Two z-score schemes are supported. Feature-wise standardizes each of the 40
columns independently and is known to break price-level ordering; the global
scheme pools all 20 price columns into one (mu, sigma) pair and all 20 volume
columns into another, which preserves within-row ordering of prices and of
volumes (a shared strictly increasing affine map).

Trend labels are always computed on raw, unnormalized mid-prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .book import levels_of, price_cols, volume_cols

FEATURE_WISE = "feature-wise"
GLOBAL = "global"

SIGMA_FLOOR = 1e-8


class PreprocessError(Exception):
    pass


@dataclass
class NormStats:
    """Fitted normalization parameters."""

    scheme: str
    mu: np.ndarray  # feature-wise: (40,); global: [mu_price, mu_volume]
    sigma: np.ndarray  # same shape; floored at SIGMA_FLOOR
    levels: int

    def column_mu_sigma(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-column (mu, sigma) vectors regardless of scheme."""
        n = 4 * self.levels
        if self.scheme == FEATURE_WISE:
            return self.mu, self.sigma
        mu = np.empty(n)
        sigma = np.empty(n)
        pc, vc = price_cols(self.levels), volume_cols(self.levels)
        mu[pc], sigma[pc] = self.mu[0], self.sigma[0]
        mu[vc], sigma[vc] = self.mu[1], self.sigma[1]
        return mu, sigma


@dataclass(frozen=True)
class LabelConfig:
    """Trend-label parameters: lookahead in snapshots, relative threshold."""

    horizon: int = 5
    delta: float = 0.001

    def __post_init__(self):
        if self.horizon < 1:
            raise PreprocessError(f"horizon must be >= 1, got {self.horizon}")
        if not 0 <= self.delta < math.inf:
            raise PreprocessError(
                f"delta must be finite and >= 0, got {self.delta}")


@dataclass(frozen=True)
class Windows:
    """A split's windows as arrays: window i is view[starts[i]]."""

    view: np.ndarray  # (n-T+1, T, C), usually window_view(series, T)
    starts: np.ndarray  # (N,) int start rows into the series
    labels: np.ndarray | None = None  # (N,) trend labels
    masks: np.ndarray | None = None  # (N, k) sorted masked time steps

    def __len__(self) -> int:
        return len(self.starts)

    def data(self, idx=slice(None)) -> np.ndarray:
        """(len(idx), T, C) copy of the windows at positions idx."""
        return self.view[self.starts[idx]]

    def take(self, idx) -> "Windows":
        """The windows at positions idx (an index array, mask or slice)."""
        rest = (None if a is None else a[idx] for a in (self.labels, self.masks))
        return Windows(self.view, self.starts[idx], *rest)


def _fit(values: np.ndarray, what: str, axis=None):
    """Mean and floored population sigma along axis. A NaN, or a value
    whose square leaves the float range, raises naming what was fit
    (`what`, its {} filled with the column) when it makes a mean or sigma
    non-finite, with no NumPy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sigma = np.mean(values, axis=axis), np.std(values, axis=axis)
    bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(sigma)))
    if bad.size:
        i = bad[0]
        raise PreprocessError(
            f"{what.format(i)} fit a non-finite mean or sigma: "
            f"mu = {float(np.ravel(mu)[i])!r}, "
            f"sigma = {float(np.ravel(sigma)[i])!r}")
    return mu, np.maximum(sigma, SIGMA_FLOOR)


def fit_feature_stats(data: np.ndarray) -> NormStats:
    """Per-column mean/std of the data."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise PreprocessError("cannot fit stats on empty data")
    mu, sigma = _fit(data, "column {}", axis=0)
    return NormStats(FEATURE_WISE, mu, sigma, levels_of(data))


def fit_group_stats(data: np.ndarray) -> NormStats:
    """Pooled (mu, sigma) over all price columns and over all volume columns."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise PreprocessError("cannot fit stats on empty data")
    levels = levels_of(data)
    mu_p, sig_p = _fit(data[:, price_cols(levels)], "the price columns")
    mu_v, sig_v = _fit(data[:, volume_cols(levels)], "the volume columns")
    return NormStats(GLOBAL, np.array([mu_p, mu_v]),
                     np.array([sig_p, sig_v]), levels)


def normalize(data: np.ndarray, stats: NormStats) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    mu, sigma = stats.column_mu_sigma()
    if data.shape[-1] != mu.shape[0]:
        raise PreprocessError(
            f"data has {data.shape[-1]} columns, stats expect {mu.shape[0]}"
        )
    return (data - mu) / sigma


def split_train_test(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chronological 4:1 split: first ceil(0.8 N) rows train, rest test."""
    n = data.shape[0]
    if n < 5:
        raise PreprocessError(f"need at least 5 snapshots, got {n}")
    cut = math.ceil(0.8 * n)
    return data[:cut], data[cut:]


def window_view(series: np.ndarray, T: int) -> np.ndarray:
    """Read-only (n-T+1, T, C) view of every T-row window of a series."""
    view = np.lib.stride_tricks.sliding_window_view(series, T, axis=0)
    return view.swapaxes(1, 2)


def make_windows(series: np.ndarray, T: int = 100, step: int = 1,
                 blocks=None) -> np.ndarray:
    """Start rows a, a+step, ..., up to b-T of the T-row windows of each block
    [a, b) (the whole series by default); no window crosses a block."""
    for name, v in (("window", T), ("step", step)):
        if v < 1:
            raise PreprocessError(f"{name} must be >= 1, got {v}")
    blocks = [(0, len(series))] if blocks is None else blocks
    return np.concatenate([np.arange(a, b - T + 1, step) for a, b in blocks],
                          dtype=np.intp)


def label_trend(mids: np.ndarray, t: int, cfg: LabelConfig) -> int:
    """Trend of the mean mid over (t, t+horizon] vs mid at t, threshold delta."""
    if t + cfg.horizon >= len(mids):
        raise PreprocessError(
            f"index {t} needs {cfg.horizon} lookahead in a series of {len(mids)}"
        )
    m_t = mids[t]
    m_bar = float(np.mean(mids[t + 1 : t + cfg.horizon + 1]))
    if m_bar > (1 + cfg.delta) * m_t:
        return 1
    if m_bar < (1 - cfg.delta) * m_t:
        return -1
    return 0


def balance_classes(labels: np.ndarray, seed: int) -> np.ndarray:
    """Down-sample each label class to the minority count, without
    replacement; returns the sorted positions of the kept labels."""
    labels = np.asarray(labels)
    if np.isnan(labels).any():
        raise PreprocessError("every window needs a label")
    classes, counts = np.unique(labels, return_counts=True)
    for lbl in (-1, 0, 1):
        if lbl not in classes:
            raise PreprocessError(f"class {lbl} has no samples")
    rng = np.random.default_rng(seed)
    keep = [rng.choice(np.flatnonzero(labels == lbl), size=counts.min(),
                       replace=False) for lbl in classes]
    return np.sort(np.concatenate(keep))


def mask_for_imputation(n: int, T: int, ratio: float = 0.2,
                        seed: int = 0) -> np.ndarray:
    """(n, floor(ratio*T)) masked time steps: row i holds distinct steps of a
    T-row window, sorted, drawn uniformly with seed + i."""
    if not 0 < ratio < 1:
        raise PreprocessError(f"ratio must be in (0, 1), got {ratio}")
    k = int(ratio * T)
    if k == 0:
        raise PreprocessError(f"mask ratio {ratio} masks no step of a "
                              f"window of T={T}")
    draws = [np.random.default_rng(seed + i).choice(T, size=k, replace=False)
             for i in range(n)]
    return np.sort(np.array(draws, dtype=np.intp).reshape(n, k), axis=1)


def masked_input(X: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Model input: the (B, T, C) windows X with their masked rows zeroed."""
    out = X.copy()
    out[np.arange(len(X))[:, None], masks] = 0.0
    return out
