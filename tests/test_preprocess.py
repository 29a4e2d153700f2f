"""Normalization, splitting, windowing, labeling and masking tests.

Includes the two-scheme contrast: feature-wise z-scores can invert price
ordering within a row (constructive witness), while the pooled global scheme
is a shared strictly increasing affine map and preserves it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobkit.book import ladder_cols, price_cols
from lobkit.preprocess import (
    SIGMA_FLOOR,
    LabelConfig,
    PreprocessError,
    Windows,
    balance_classes,
    fit_feature_stats,
    fit_group_stats,
    label_trend,
    make_windows,
    mask_for_imputation,
    masked_input,
    normalize,
    split_train_test,
    window_view,
)


def valid_rows(n, seed=0, l=10):
    """n valid snapshot rows with a random-walking mid."""
    rng = np.random.default_rng(seed)
    rows = np.empty((n, 4 * l))
    mid = 1384.0
    for i in range(n):
        mid += rng.integers(-2, 3)
        bid0 = int(mid)
        rows[i, 0:l] = (bid0 - np.arange(l)) * 0.01
        rows[i, 2 * l : 3 * l] = (bid0 + 1 + np.arange(l)) * 0.01
        rows[i, l : 2 * l] = rng.integers(1, 2000, size=l)
        rows[i, 3 * l : 4 * l] = rng.integers(1, 2000, size=l)
    return rows


# ---------------------------------------------------------------- fitting

def test_feature_stats_simple_example():
    data = np.array([[1.0, 10.0, 2.0, 5.0], [3.0, 10.0, 2.0, 7.0]])
    stats = fit_feature_stats(data)  # one level: 4 columns
    # population convention: std of {1, 3} is 1, not sqrt(2)
    assert stats.mu[0] == 2.0 and stats.sigma[0] == 1.0
    # constant column hits the sigma floor instead of zero
    assert stats.sigma[1] == SIGMA_FLOOR


def test_feature_stats_match_two_pass_oracle():
    data = valid_rows(500, seed=1)
    stats = fit_feature_stats(data)
    for j in range(data.shape[1]):
        mu = sum(data[:, j]) / len(data)
        var = sum((x - mu) ** 2 for x in data[:, j]) / len(data)
        assert abs(stats.mu[j] - mu) < 1e-12 * max(1, abs(mu))
        assert abs(stats.sigma[j] - max(var**0.5, SIGMA_FLOOR)) < 1e-9


def test_group_stats_pool_price_and_volume_columns():
    data = valid_rows(200, seed=2)
    stats = fit_group_stats(data)
    pooled_prices = data[:, price_cols()].ravel()
    assert stats.mu[0] == pytest.approx(pooled_prices.mean(), abs=1e-12)
    assert stats.sigma[0] == pytest.approx(pooled_prices.std(), abs=1e-12)
    # column expansion assigns the same pair to every price column
    mu, sigma = stats.column_mu_sigma()
    assert np.all(mu[price_cols()] == stats.mu[0])
    assert np.all(sigma[price_cols()] == stats.sigma[0])


def test_fit_on_empty_data_raises():
    with pytest.raises(PreprocessError):
        fit_feature_stats(np.empty((0, 40)))
    with pytest.raises(PreprocessError):
        fit_group_stats(np.empty((0, 40)))


# ---------------------------------------------------------------- normalize

def test_normalize_shape_mismatch_raises():
    stats = fit_group_stats(valid_rows(10))
    with pytest.raises(PreprocessError):
        normalize(np.zeros((5, 39)), stats)


def test_global_scheme_preserves_price_ordering():
    data = valid_rows(1000, seed=4)
    stats = fit_group_stats(data)
    normed = normalize(data, stats)
    cols = ladder_cols()
    for i in range(len(data)):
        assert np.array_equal(
            np.argsort(normed[i, cols]), np.argsort(data[i, cols])
        )


def test_feature_wise_scheme_can_invert_price_ordering():
    """Constructive witness: two valid rows whose feature-wise z-scores
    swap the order of best bid vs second bid."""
    l = 10
    rows = np.empty((2, 4 * l))
    for r, (bid0, spread1) in enumerate([(1000, 1), (1010, 30)]):
        # second bid sits `spread1` ticks below best in row r
        bids = bid0 - np.concatenate([[0, spread1], spread1 + np.arange(1, l - 1)])
        asks = bid0 + 1 + np.arange(l)
        rows[r, 0:l] = bids * 0.01
        rows[r, 2 * l : 3 * l] = asks * 0.01
        rows[r, l : 2 * l] = 100
        rows[r, 3 * l : 4 * l] = 100
    stats = fit_feature_stats(rows)
    normed = normalize(rows, stats)
    # raw: column 0 > column 1 in both rows (best bid above second bid)
    assert np.all(rows[:, 0] > rows[:, 1])
    # normalized: the ordering flips in at least one row
    assert np.any(normed[:, 0] <= normed[:, 1])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(20, 200))
def test_global_ordering_preservation_property(seed, n):
    data = valid_rows(n, seed=seed)
    normed = normalize(data, fit_group_stats(data))
    cols = ladder_cols()
    i = seed % n
    assert np.array_equal(
        np.argsort(normed[i, cols]), np.argsort(data[i, cols])
    )


# -------------------------------------------------------------------- split

def test_split_4740_gives_3792_948():
    data = np.arange(4740 * 2).reshape(4740, 2)
    train, test = split_train_test(data)
    assert train.shape[0] == 3792 and test.shape[0] == 948
    # chronological: train is a prefix, test the complementary suffix
    assert np.array_equal(np.vstack([train, test]), data)


def test_split_ceil_convention_and_minimum():
    train, test = split_train_test(np.zeros((5, 1)))
    assert train.shape[0] == 4 and test.shape[0] == 1
    train, test = split_train_test(np.zeros((6, 1)))
    assert train.shape[0] == 5 and test.shape[0] == 1
    with pytest.raises(PreprocessError):
        split_train_test(np.zeros((4, 1)))


# ------------------------------------------------------------------ windows

def test_make_windows_counts_and_content():
    data = valid_rows(150, seed=5)
    starts = make_windows(data, T=100)
    view = window_view(data, 100)
    assert len(starts) == 150 - 100 + 1
    assert view.shape == (len(starts), 100, 40)
    assert np.array_equal(view[starts[7]], data[7:107])
    assert starts[7] == 7
    assert not view.flags.writeable and np.shares_memory(view, data)


def test_make_windows_short_series_and_step():
    assert len(make_windows(valid_rows(99), T=100)) == 0
    assert len(make_windows(valid_rows(100), T=100)) == 1
    assert len(make_windows(valid_rows(120), T=100, step=10)) == 3  # 0,10,20


def test_make_windows_never_cross_a_block():
    starts = make_windows(valid_rows(30), T=4, step=3,
                          blocks=[(0, 10), (10, 11), (11, 30)])
    assert starts.tolist() == [0, 3, 6, 11, 14, 17, 20, 23, 26]


def test_windows_gather_and_take():
    data = valid_rows(20, seed=1)
    ws = Windows(window_view(data, 5), np.array([0, 4, 9, 15]),
                 labels=np.array([1, -1, 0, 1]))
    assert len(ws) == 4
    assert np.array_equal(ws.data([2]), data[None, 9:14])
    part = ws.take(np.array([False, True, False, True]))
    assert part.starts.tolist() == [4, 15] and part.labels.tolist() == [-1, 1]
    assert part.masks is None


# ------------------------------------------------------------------- labels

def test_label_trend_worked_examples():
    cfg = LabelConfig(horizon=5, delta=0.001)
    mids = np.array([10.0, 10.02, 10.02, 10.02, 10.02, 10.02])
    assert label_trend(mids, 0, cfg) == 1  # mean 10.02 > 10.0 * 1.001
    mids = np.array([10.0, 9.98, 9.98, 9.98, 9.98, 9.98])
    assert label_trend(mids, 0, cfg) == -1
    mids = np.array([10.0, 10.005, 10.005, 10.005, 10.005, 10.005])
    assert label_trend(mids, 0, cfg) == 0  # inside the +-0.1% band


def test_label_trend_boundary_equality_is_flat():
    # mean lookahead exactly (1 +- delta) * m_t -> strict inequality fails -> 0
    cfg = LabelConfig(horizon=2, delta=0.01)
    up = np.array([100.0, 101.0, 101.0])
    assert np.mean(up[1:3]) == (1 + cfg.delta) * up[0]
    assert label_trend(up, 0, cfg) == 0
    down = np.array([100.0, 99.0, 99.0])
    assert np.mean(down[1:3]) == (1 - cfg.delta) * down[0]
    assert label_trend(down, 0, cfg) == 0


def test_label_trend_fine_threshold_preset():
    cfg = LabelConfig(horizon=5, delta=0.0001)
    mids = np.array([10.0, 10.002, 10.002, 10.002, 10.002, 10.002])
    assert label_trend(mids, 0, cfg) == 1
    mids = np.array([10.0, 9.9989, 9.9989, 9.9989, 9.9989, 9.9989])
    assert label_trend(mids, 0, cfg) == -1


def test_label_trend_insufficient_lookahead_raises():
    cfg = LabelConfig(horizon=5, delta=0.001)
    with pytest.raises(PreprocessError):
        label_trend(np.ones(6), 1, cfg)


# ---------------------------------------------------------------- balancing

def _labels(counts, seed=0):
    rng = np.random.default_rng(seed)
    out = np.concatenate([np.full(n, lbl) for lbl, n in counts.items()])
    rng.shuffle(out)
    return out


def test_balance_downsamples_to_minority_count():
    labels = _labels({-1: 100, 0: 50, 1: 80})
    balanced = labels[balance_classes(labels, seed=7)]
    counts = {c: int(np.sum(balanced == c)) for c in (-1, 0, 1)}
    assert counts == {-1: 50, 0: 50, 1: 50}


def test_balance_is_deterministic_and_without_replacement():
    labels = _labels({-1: 30, 0: 10, 1: 20})
    a = balance_classes(labels, seed=3)
    b = balance_classes(labels, seed=3)
    assert np.array_equal(a, b)
    assert len(np.unique(a)) == len(a)
    assert np.all(np.diff(a) > 0)  # kept positions, in window order


def test_balance_missing_class_raises():
    with pytest.raises(PreprocessError):
        balance_classes(_labels({-1: 5, 1: 5}), seed=0)
    with pytest.raises(PreprocessError):
        balance_classes(np.array([-1.0, 0.0, 1.0, np.nan]), seed=0)


# ------------------------------------------------------------------ masking

def test_mask_count_is_floor_of_ratio_times_T():
    assert mask_for_imputation(1, 100, ratio=0.2, seed=1).shape == (1, 20)
    assert mask_for_imputation(3, 103, ratio=0.2, seed=1).shape == (3, 20)


def test_mask_rows_are_distinct_sorted_and_deterministic():
    a = mask_for_imputation(4, 100, ratio=0.2, seed=9)
    b = mask_for_imputation(4, 100, ratio=0.2, seed=9)
    assert np.array_equal(a, b)
    for row in a:
        assert len(set(row.tolist())) == len(row)
        assert np.all(np.diff(row) > 0)
    # row i is drawn with seed + i alone, so it does not depend on n
    assert np.array_equal(mask_for_imputation(1, 100, 0.2, seed=11)[0], a[2])


def test_masked_input_zeroes_whole_time_steps_only():
    X = np.stack([valid_rows(50, seed=s) for s in (2, 3)])
    masks = mask_for_imputation(2, 50, ratio=0.2, seed=2)
    x = masked_input(X, masks)
    for i in range(2):
        assert np.all(x[i, masks[i]] == 0.0)
        untouched = np.setdiff1d(np.arange(50), masks[i])
        assert np.array_equal(x[i, untouched], X[i, untouched])
    assert not np.any(X == 0.0)  # the input is left as it was


def test_mask_ratio_bounds():
    with pytest.raises(PreprocessError):
        mask_for_imputation(1, 50, ratio=0.0)
    with pytest.raises(PreprocessError):
        mask_for_imputation(1, 50, ratio=1.0)
    with pytest.raises(PreprocessError, match="masks no step of a window "
                                              "of T=10"):
        mask_for_imputation(1, 10, ratio=0.05)
