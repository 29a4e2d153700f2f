"""Data-model tests: orders, snapshots, invariants, canonical layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobkit.book import (
    ASK,
    BID,
    CANCEL,
    LIMIT,
    MARKET,
    BookError,
    BookState,
    Order,
    ask_price_cols,
    ask_volume_cols,
    bid_price_cols,
    bid_volume_cols,
    invalid_rows,
    ladder_cols,
    mid_prices,
    price_cols,
    validate_snapshot,
    volume_cols,
)
from lobkit.engine import submit
from lobkit.metrics import LossConfig, l_reg, report
from lobkit.sampling import snapshot_padded


def make_snapshot(l=10, bid0=1383, ask0=1385, tick=0.01, vol=100):
    """A strictly valid (4l,) row: one-tick ladders on both sides."""
    i = np.arange(l)
    return np.concatenate([(bid0 - i) * tick, vol + i,
                           (ask0 + i) * tick, vol + 2 * i]).astype(float)


# ------------------------------------------------------------------- orders

def test_order_limit_requires_price_and_volume():
    Order(1, BID, LIMIT, 0, price=100, volume=5)  # ok
    with pytest.raises(BookError):
        Order(1, BID, LIMIT, 0, volume=5)
    with pytest.raises(BookError):
        Order(1, BID, LIMIT, 0, price=100)
    with pytest.raises(BookError):
        Order(1, BID, LIMIT, 0, price=0, volume=5)
    with pytest.raises(BookError):
        Order(1, BID, LIMIT, 0, price=100, volume=0)


def test_order_market_requires_volume_only():
    Order(1, ASK, MARKET, 0, volume=5)
    with pytest.raises(BookError):
        Order(1, ASK, MARKET, 0)
    with pytest.raises(BookError):
        Order(1, ASK, MARKET, 0, volume=-1)


def test_order_cancel_requires_target_only():
    Order(1, BID, CANCEL, 0, target_id=7)
    with pytest.raises(BookError):
        Order(1, BID, CANCEL, 0)
    with pytest.raises(BookError):
        Order(1, BID, CANCEL, 0, target_id=7, volume=3)


def test_order_rejects_bad_side_and_kind():
    with pytest.raises(BookError):
        Order(1, "buy", LIMIT, 0, price=1, volume=1)
    with pytest.raises(BookError):
        Order(1, BID, "stop", 0, price=1, volume=1)


# ---------------------------------------------------------------- snapshots

def test_valid_snapshot_has_no_violations():
    assert validate_snapshot(make_snapshot()) == []


def test_bid_order_violation_detected_with_magnitude():
    s = make_snapshot()
    s[3] = s[2] + 0.05  # bid level 4 above level 3
    v = validate_snapshot(s)
    kinds = {x.kind for x in v}
    assert "bid-order" in kinds
    worst = [x for x in v if x.kind == "bid-order"][0]
    assert worst.magnitude == pytest.approx(0.05)


def test_ask_order_and_cross_violations():
    s = make_snapshot()
    s[21] = s[20] - 0.01  # ask level 2 below level 1
    assert any(x.kind == "ask-order" for x in validate_snapshot(s))
    s2 = make_snapshot(bid0=1400, ask0=1399)
    assert any(x.kind == "cross" for x in validate_snapshot(s2))


def test_non_positive_violation():
    s = make_snapshot()
    s[15] = 0.0  # bid volume of level 6
    v = [x for x in validate_snapshot(s) if x.kind == "non-positive"]
    assert len(v) == 1 and v[0].level == 6
    s[32] = -2.0  # ask volume of level 3: reported first, in level order
    v = validate_snapshot(s)
    assert [(x.kind, x.level, x.magnitude) for x in v] == [
        ("non-positive", 3, 2.0), ("non-positive", 6, 0.0)]


def test_validate_snapshot_rejects_wrong_length():
    with pytest.raises(ValueError):
        validate_snapshot(np.zeros(39), l=10)
    with pytest.raises(ValueError):
        validate_snapshot(make_snapshot().reshape(4, 10), l=10)


def test_mid_price_is_mean_of_best_quotes():
    s = make_snapshot(bid0=1383, ask0=1385)
    assert mid_prices(s) == pytest.approx(13.84)
    rows = np.stack([s, make_snapshot(bid0=1384, ask0=1386)])
    assert np.allclose(mid_prices(rows), [13.84, 13.85])


@pytest.mark.parametrize("f", [
    invalid_rows, mid_prices, l_reg,
    lambda rows: report([(rows[None], rows[None], None)], LossConfig()),
], ids=["invalid_rows", "mid_prices", "l_reg", "report"])
def test_a_width_that_is_not_4l_is_named_not_floored(f):
    """41-column rows are not read as 10 levels: the error names the width."""
    with pytest.raises(ValueError, match="width 41"):
        f(np.ones((3, 41)))


def test_mid_price_ignores_deep_levels():
    a = make_snapshot()
    b = make_snapshot()
    b.reshape(4, 10)[:, 5:] *= 3  # perturb deep levels of every field only
    assert mid_prices(a) == mid_prices(b)


# ----------------------------------------------------------------- layout

def test_snapshot_row_layout_field_major():
    book = BookState()
    for i in range(10):
        submit(book, Order(2 * i + 1, BID, LIMIT, 0, price=1000 - i,
                           volume=10 + i))
        submit(book, Order(2 * i + 2, ASK, LIMIT, 0, price=1001 + i,
                           volume=50 + i))
    vec = snapshot_padded(book, 10)
    assert vec.shape == (40,)
    assert np.allclose(vec[0:10], (1000 - np.arange(10)) * 0.01)  # bid prices
    assert np.array_equal(vec[10:20], 10 + np.arange(10))  # bid volumes
    assert np.allclose(vec[20:30], (1001 + np.arange(10)) * 0.01)  # ask prices
    assert np.array_equal(vec[30:40], 50 + np.arange(10))  # ask volumes


def test_column_helpers_partition_the_40_columns():
    l = 10
    assert np.array_equal(bid_price_cols(l), np.arange(0, 10))
    assert np.array_equal(bid_volume_cols(l), np.arange(10, 20))
    assert np.array_equal(ask_price_cols(l), np.arange(20, 30))
    assert np.array_equal(ask_volume_cols(l), np.arange(30, 40))
    every = np.sort(np.concatenate([price_cols(l), volume_cols(l)]))
    assert np.array_equal(every, np.arange(40))


def test_ladder_cols_orders_prices_ascending_on_valid_book():
    vec = make_snapshot()
    ladder = vec[ladder_cols(10)]
    assert np.all(np.diff(ladder) > 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_invalid_rows_flags_exactly_the_scalar_violations(l, n, seed):
    """Valid ladders with random corruptions: non-monotone, crossed,
    non-positive, NaN and infinite entries, zero to three per row."""
    rng = np.random.default_rng(seed)
    base = make_snapshot(l=l)
    data = np.tile(base, (n, 1))
    specials = [np.nan, 0.0, -1.0, np.inf, -np.inf]
    for row in data:
        for _ in range(rng.integers(0, 4)):
            j = rng.integers(4 * l)
            pick = rng.integers(4)
            if pick == 0:
                row[j] = specials[rng.integers(len(specials))]
            elif pick == 1:  # a neighbouring or opposite-side value
                row[j] = row[rng.integers(4 * l)]
            else:
                row[j] = base[j] + rng.normal(0.0, 0.02)
    with np.errstate(invalid="ignore"):  # inf - inf in a magnitude
        want = [bool(validate_snapshot(row, l)) for row in data]
    assert invalid_rows(data).tolist() == want
