"""Sampling-grid tests: calendar arithmetic, latest-at-or-before semantics
(which forward-fills quiet periods), the day series as an (N, 4l) array,
thin-book padding, and the volume tally kept as the replay submits."""

import tracemalloc

import numpy as np
import pytest

from lobkit.book import (
    ASK,
    BID,
    LIMIT,
    BookState,
    Order,
    mid_prices,
    validate_snapshot,
)
from lobkit.engine import submit
from lobkit.io import load_tensor, save_tensor
from lobkit.sampling import (
    NS_PER_SEC,
    SamplingError,
    SessionCalendar,
    hms,
    sample,
    snapshot_padded,
)
from lobkit.synth import PROFILES, generate_day, replay_check
from tests.test_book import make_snapshot
from tests.test_engine import account, replay


def tiny_calendar(start=0, seconds=30, period=3):
    return SessionCalendar(
        intervals=((start, start + seconds * NS_PER_SEC),),
        period=period * NS_PER_SEC,
    )


def seed_orders(n_levels=12, bid0=1000, t=0):
    orders = []
    oid = 1
    for i in range(n_levels):
        orders.append(Order(oid, BID, LIMIT, t, price=bid0 - i, volume=10))
        oid += 1
        orders.append(Order(oid, ASK, LIMIT, t, price=bid0 + 1 + i, volume=10))
        oid += 1
    return orders, oid


# ----------------------------------------------------------------- calendar

def test_default_calendar_has_4740_points():
    cal = SessionCalendar()
    assert cal.points_per_day == 4740
    grid = cal.grid()
    assert len(grid) == 4740
    assert grid[0] == hms(9, 30)
    assert grid[2399] == hms(11, 30) - 3 * NS_PER_SEC
    assert grid[2400] == hms(13, 0)
    assert grid[-1] == hms(14, 57) - 3 * NS_PER_SEC
    assert np.all(np.diff(grid[:2400]) == 3 * NS_PER_SEC)
    assert np.all(np.diff(grid[2400:]) == 3 * NS_PER_SEC)


def test_calendar_rejects_overlapping_or_indivisible_intervals():
    with pytest.raises(SamplingError):
        SessionCalendar(intervals=((0, 10 * NS_PER_SEC), (5 * NS_PER_SEC, 20 * NS_PER_SEC)))
    with pytest.raises(SamplingError):
        SessionCalendar(intervals=((0, 10 * NS_PER_SEC),), period=3 * NS_PER_SEC)


# ------------------------------------------------------------------- sample

def test_sample_takes_latest_state_at_or_before_each_grid_point():
    cal = tiny_calendar(seconds=9)  # grid points at t = 0, 3, 6 s
    orders, oid = seed_orders()
    # at exactly t=3s a new best bid appears; at 4s (between grids) another
    orders.append(Order(oid, BID, LIMIT, 3 * NS_PER_SEC, price=1000, volume=5))
    orders.append(
        Order(oid + 1, ASK, LIMIT, 4 * NS_PER_SEC, price=1001, volume=5)
    )
    data, _ = sample(BookState(), orders, cal, l=3)
    assert len(data) == 3
    # t=0: seed book; t=3: includes the order stamped exactly at the grid
    assert data[0, 3] == 10  # best bid volume
    assert data[1, 3] == 15
    # t=6: the 4s order is included (latest at or before)
    assert data[2, 9] == 15  # best ask volume


def test_sample_quiet_periods_repeat_previous_state():
    cal = tiny_calendar(seconds=15)
    orders, _ = seed_orders()
    data, _ = sample(BookState(), orders, cal, l=3)
    assert len(data) == 5
    for i in range(1, 5):
        assert np.array_equal(data[i], data[0])


def test_sample_unseeded_book_raises():
    cal = tiny_calendar(seconds=9)
    with pytest.raises(SamplingError):
        sample(BookState(), [], cal, l=3)


def test_sample_snapshots_are_valid_even_when_sides_go_thin():
    cal = tiny_calendar(seconds=9)
    orders, oid = seed_orders(n_levels=2)  # thinner than l=5 -> padding
    data, _ = sample(BookState(), orders, cal, l=5)
    for i in range(len(data)):
        assert validate_snapshot(data[i], l=5) == []


def test_day_series_roundtrip_and_mid_prices(tmp_path):
    # a sampled day is its (N, 4l) array: it survives the tensor format as is
    cal = tiny_calendar(seconds=9)
    orders, _ = seed_orders()
    data, _ = sample(BookState(), orders, cal, l=3)
    save_tensor(tmp_path / "day.bin", data)
    back = load_tensor(tmp_path / "day.bin")
    assert back.shape == (3, 12)
    assert np.array_equal(back, data)
    assert np.allclose(mid_prices(back), 10.005)
    rows = np.stack([make_snapshot(bid0=1383 + i, ask0=1385 + i)
                     for i in range(4)])
    save_tensor(tmp_path / "rows.bin", rows)
    back = load_tensor(tmp_path / "rows.bin")
    assert np.array_equal(back[2], rows[2])
    assert np.allclose(mid_prices(back),
                       [13.84 + 0.01 * i for i in range(4)])


# ----------------------------------------------------------------- padding

def test_snapshot_padded_extends_one_tick_past_worst_level():
    book = BookState()
    submit(book, Order(1, BID, LIMIT, 0, price=1000, volume=9))
    submit(book, Order(2, ASK, LIMIT, 0, price=1001, volume=9))
    s = snapshot_padded(book, l=3)
    assert validate_snapshot(s, l=3) == []
    assert np.allclose(s[0:3], [10.00, 9.99, 9.98])  # bid prices
    assert np.allclose(s[6:9], [10.01, 10.02, 10.03])  # ask prices
    assert np.allclose(s[4:6], 1)  # padded bid levels carry volume 1
    assert np.allclose(s[10:12], 1)  # and so do padded ask levels
    assert s[3] == 9 and s[9] == 9


def test_snapshot_padded_one_sided_book_raises():
    book = BookState()
    submit(book, Order(1, BID, LIMIT, 0, price=1000, volume=9))
    with pytest.raises(SamplingError):
        snapshot_padded(book, l=3)


# ------------------------------------------------------------- replay tally

@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_full_day_tally_equals_the_per_event_account(profile):
    stream = generate_day(PROFILES[profile], 0)
    _, rep = sample(BookState(tick_size=stream.tick_size), stream.orders)
    assert rep == account(stream.orders, *replay(stream.orders))
    assert rep.balanced()


def test_replay_check_holds_no_event_list_of_a_deep_day():
    """The replay keeps its book and its rows, not the day's 92k engine
    events nor maps over its 62.6k order ids."""
    stream = generate_day(PROFILES["sz000858"], 0)
    tracemalloc.start()
    try:
        replay_check(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
