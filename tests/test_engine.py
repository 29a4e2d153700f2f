"""Matching-engine tests: worked examples, conservation fuzz, determinism,
and a differential fuzz against a naive reference book."""

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
    PriceLevel,
)
from lobkit.engine import EngineEvent, submit
from lobkit.sampling import (
    ConservationReport,
    SamplingError,
    SessionCalendar,
    sample,
    snapshot_padded,
)


def seeded_book(levels=12, bid0=1000, ask0=1001, vol=50):
    book = BookState()
    oid = 1
    for i in range(levels):
        submit(book, Order(oid, BID, LIMIT, 0, price=bid0 - i, volume=vol))
        oid += 1
        submit(book, Order(oid, ASK, LIMIT, 0, price=ask0 + i, volume=vol))
        oid += 1
    return book, oid


# ----------------------------------------------------------------- records

def test_engine_records_are_slotted():
    """The engine builds an Order, an EngineEvent and a PriceLevel per order,
    outcome and level; a per-instance dict would double their cost."""
    for record in (Order(1, BID, LIMIT, 0, price=100, volume=10),
                   EngineEvent("rest", 1, price=100, volume=10),
                   PriceLevel()):
        assert not hasattr(record, "__dict__"), type(record).__name__


# ------------------------------------------------------------ worked cases

def test_limit_rests_when_not_crossing():
    book = BookState()
    _, ev = submit(book, Order(1, BID, LIMIT, 0, price=100, volume=10))
    assert [e.kind for e in ev] == ["rest"]
    assert book.bid_prices == [100] and book.bids[100].total_volume == 10


def test_crossing_limit_trades_at_maker_price_then_rests_remainder():
    book = BookState()
    submit(book, Order(1, ASK, LIMIT, 0, price=101, volume=50))
    _, ev = submit(book, Order(2, BID, LIMIT, 1, price=102, volume=80))
    kinds = [e.kind for e in ev]
    assert kinds == ["trade", "rest"]
    tr = ev[0]
    assert (tr.price, tr.volume, tr.maker_id, tr.order_id) == (101, 50, 1, 2)
    # remainder rests at the taker's own limit price
    assert ev[1].price == 102 and ev[1].volume == 30
    assert book.bid_prices == [102] and not book.ask_prices


def test_fifo_within_price_level():
    book = BookState()
    submit(book, Order(1, ASK, LIMIT, 0, price=101, volume=30))
    submit(book, Order(2, ASK, LIMIT, 1, price=101, volume=30))
    _, ev = submit(book, Order(3, BID, MARKET, 2, volume=40))
    trades = [(e.maker_id, e.volume) for e in ev if e.kind == "trade"]
    assert trades == [(1, 30), (2, 10)]  # earlier arrival filled first


def test_market_sweeps_best_first_and_discards_remainder():
    book = BookState()
    submit(book, Order(1, ASK, LIMIT, 0, price=102, volume=10))
    submit(book, Order(2, ASK, LIMIT, 0, price=101, volume=10))
    _, ev = submit(book, Order(3, BID, MARKET, 1, volume=30))
    prices = [e.price for e in ev if e.kind == "trade"]
    assert prices == [101, 102]
    unfilled = [e for e in ev if e.kind == "market_unfilled"]
    assert len(unfilled) == 1 and unfilled[0].volume == 10
    assert not book.asks  # nothing rested, remainder discarded


def test_cancel_removes_full_remaining_volume():
    book = BookState()
    submit(book, Order(1, BID, LIMIT, 0, price=100, volume=40))
    submit(book, Order(2, ASK, LIMIT, 1, price=100, volume=15))  # partial fill
    _, ev = submit(book, Order(3, BID, CANCEL, 2, target_id=1))
    assert [e.kind for e in ev] == ["cancel_ok"]
    assert ev[0].volume == 25  # the remaining, not the original, volume
    assert not book.bids


def test_cancel_miss_for_unknown_or_filled_order():
    book = BookState()
    _, ev = submit(book, Order(1, BID, CANCEL, 0, target_id=99))
    assert [e.kind for e in ev] == ["cancel_miss"]
    submit(book, Order(2, ASK, LIMIT, 1, price=101, volume=10))
    submit(book, Order(3, BID, LIMIT, 2, price=101, volume=10))  # fills 2
    _, ev = submit(book, Order(4, ASK, CANCEL, 3, target_id=2))
    assert [e.kind for e in ev] == ["cancel_miss"]


def test_stale_timestamp_rejected():
    book = BookState()
    submit(book, Order(1, BID, LIMIT, 10, price=100, volume=1))
    with pytest.raises(BookError):
        submit(book, Order(2, BID, LIMIT, 9, price=100, volume=1))


def test_limit_reusing_a_live_id_is_rejected_before_touching_the_book():
    book = BookState()
    submit(book, Order(1, BID, LIMIT, 0, price=100, volume=10))
    with pytest.raises(BookError):
        submit(book, Order(1, BID, LIMIT, 5, price=99, volume=4))
    assert book.clock == 0 and list(book.bids) == [100]
    # the first order's volume stays reachable by its id
    _, ev = submit(book, Order(2, BID, CANCEL, 6, target_id=1))
    assert [(e.kind, e.volume) for e in ev] == [("cancel_ok", 10)]
    assert not book.bids


# ------------------------------------------ top-l export (snapshot_padded)

def test_top_levels_exports_real_units_best_first():
    book, _ = seeded_book(levels=12)
    s = snapshot_padded(book, 10)
    assert s.shape == (40,)
    assert s[0] == pytest.approx(10.00)
    assert s[20] == pytest.approx(10.01)
    assert np.all(np.diff(s[0:10]) < 0)  # bids descending
    assert np.all(np.diff(s[20:30]) > 0)  # asks ascending


def test_top_levels_aggregates_level_volume():
    book = BookState()
    submit(book, Order(1, BID, LIMIT, 0, price=100, volume=10))
    submit(book, Order(2, BID, LIMIT, 0, price=100, volume=7))
    submit(book, Order(3, ASK, LIMIT, 0, price=101, volume=4))
    s = snapshot_padded(book, 1)
    assert s[1] == 17  # best bid volume


def test_top_levels_empty_side():
    book = BookState()
    submit(book, Order(1, BID, LIMIT, 0, price=100, volume=1))
    with pytest.raises(SamplingError):
        snapshot_padded(book, 1)


# ------------------------------------------------------------------- fuzz

def random_stream(seed, n):
    """A random but always-submittable order stream around price 1000."""
    rng = np.random.default_rng(seed)
    book = BookState()
    orders = []
    oid = 1
    for t in range(n):
        kind = rng.choice([LIMIT, MARKET, CANCEL], p=[0.7, 0.15, 0.15])
        side = BID if rng.random() < 0.5 else ASK
        if kind == CANCEL:
            if not book.live:
                continue
            target = list(book.live)[rng.integers(len(book.live))]
            o = Order(oid, side, CANCEL, t, target_id=target)
        elif kind == MARKET:
            o = Order(oid, side, MARKET, t, volume=int(rng.integers(1, 50)))
        else:
            price = int(1000 + rng.integers(-20, 21))
            o = Order(oid, side, LIMIT, t, price=price,
                      volume=int(rng.integers(1, 50)))
        oid += 1
        submit(book, o)
        orders.append(o)
    return orders


def replay(orders):
    book = BookState()
    events = []
    for o in orders:
        _, ev = submit(book, o)
        events.extend(ev)
    return book, events


def account(orders, book, events):
    """Per-side volume account of a whole replay, event by event, booking
    each event to a side through maps over the stream's ids: the oracle
    for the tally `sample` keeps as it submits."""
    side_of = {o.id: o.side for o in orders}
    target_of = {o.id: o.target_id for o in orders if o.kind == CANCEL}
    rep = ConservationReport(*({BID: 0, ASK: 0} for _ in range(5)), 0)
    for o in orders:
        if o.kind in (LIMIT, MARKET):
            rep.submitted[o.side] += o.volume
    for e in events:
        if e.kind == "trade":
            rep.executed[side_of[e.order_id]] += e.volume
            rep.executed[side_of[e.maker_id]] += e.volume
        elif e.kind == "cancel_ok":
            rep.cancelled[side_of[target_of[e.order_id]]] += e.volume
        elif e.kind == "market_unfilled":
            rep.market_unfilled[side_of[e.order_id]] += e.volume
        elif e.kind == "cancel_miss":
            rep.cancel_misses += 1
    for side in (BID, ASK):
        rep.resting[side] = sum(lvl.total_volume
                                for lvl in book.side_levels(side).values())
    return rep


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(50, 400))
def test_fuzz_conservation_no_cross_determinism(seed, n):
    orders = random_stream(seed, n)
    book, events = replay(orders)
    check_invariants(book)  # includes the no-cross check
    assert account(orders, book, events).balanced()
    # byte-for-byte determinism of a second replay
    book2, events2 = replay(orders)
    assert events == events2
    assert sorted(book.live) == sorted(book2.live)


# a calendar whose one interval is empty: sample submits without snapshots
NO_GRID = SessionCalendar(intervals=((0, 0),))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(50, 400))
def test_fuzz_sample_tallies_the_per_event_account(seed, n):
    """sample's report, tallied submit by submit, equals the per-event
    account of the same stream, a cancel of an id never seen included."""
    orders = random_stream(seed, n)
    last = orders[-1]
    orders.append(Order(last.id + 1, BID, CANCEL, last.timestamp,
                        target_id=last.id + 2))
    rows, rep = sample(BookState(), orders, NO_GRID)
    assert rows.shape == (0, 40)
    assert rep == account(orders, *replay(orders))
    assert rep.cancel_misses >= 1


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_fuzz_price_time_priority(seed):
    """Every trade hits the best opposite price, FIFO within the level."""
    orders = random_stream(seed, 200)
    book = BookState()
    for o in orders:
        # snapshot the opposite-side queues before the order is applied
        before = {
            side: {p: [e[0] for e in lvl.queue] for p, lvl in levels.items()}
            for side, levels in ((BID, book.bids), (ASK, book.asks))
        }
        _, ev = submit(book, o)
        trades = [e for e in ev if e.kind == "trade"]
        if trades and o.kind in (LIMIT, MARKET):
            opp = ASK if o.side == BID else BID
            # first trade must be at the pre-submit best opposite price
            best = min(before[opp]) if opp == ASK else max(before[opp])
            assert trades[0].price == best
            # trade prices never improve backwards for the maker side
            prices = [t.price for t in trades]
            assert prices == sorted(prices, reverse=(opp == BID))
            # maker sequence within one price level must be FIFO
            for price in set(prices):
                makers = [t.maker_id for t in trades if t.price == price]
                # consecutive duplicates collapse (maker filled in one go here)
                assert makers == before[opp][price][: len(makers)]


# ------------------------------------------------ differential engine oracle

def check_invariants(book):
    """Raise BookError on any structural violation of a BookState: price
    lists out of step with the levels, a crossed book, an empty level kept,
    or a level total that is not the sum of its queue. A level holds no
    price of its own: its dict key is its price."""
    for name, levels, prices in (("bid", book.bids, book.bid_prices),
                                 ("ask", book.asks, book.ask_prices)):
        if prices != sorted(levels):
            raise BookError(f"{name} price list out of step with levels")
    if book.bid_prices and book.ask_prices:
        bb, ba = book.bid_prices[-1], book.ask_prices[0]
        if bb >= ba:
            raise BookError(f"crossed book: best bid {bb} >= best ask {ba}")
    for levels in (book.bids, book.asks):
        for price, lvl in levels.items():
            if lvl.total_volume <= 0:
                raise BookError(f"empty level retained at {price}")
            if lvl.total_volume != sum(v for _, v in lvl.queue):
                raise BookError(f"volume mismatch at {price}")


class NaiveBook:
    """A deliberately naive reference book: each side is one list of resting
    [id, price, remaining] in arrival order, searched in full for every
    match, cancel and snapshot."""

    def __init__(self):
        self.resting = {BID: [], ASK: []}
        self.clock = None

    def live_ids(self):
        return [e[0] for side in (BID, ASK) for e in self.resting[side]]

    def submit(self, o):
        if self.clock is not None and o.timestamp < self.clock:
            raise BookError("stale timestamp")
        if o.kind == LIMIT and o.id in self.live_ids():
            raise BookError("live id")
        self.clock = o.timestamp
        if o.kind == CANCEL:
            for side in (BID, ASK):
                for e in self.resting[side]:
                    if e[0] == o.target_id:
                        self.resting[side].remove(e)
                        return [EngineEvent("cancel_ok", o.id, price=e[1],
                                            volume=e[2])]
            return [EngineEvent("cancel_miss", o.id)]
        opp = self.resting[ASK if o.side == BID else BID]
        events, remaining = [], o.volume
        while remaining > 0 and opp:
            prices = [e[1] for e in opp]
            best = min(prices) if o.side == BID else max(prices)
            if o.kind == LIMIT and (best > o.price if o.side == BID
                                    else best < o.price):
                break
            maker = next(e for e in opp if e[1] == best)  # earliest arrival
            take = min(remaining, maker[2])
            maker[2] -= take
            remaining -= take
            events.append(EngineEvent("trade", o.id, price=best, volume=take,
                                      maker_id=maker[0]))
            if maker[2] == 0:
                opp.remove(maker)
        if remaining > 0 and o.kind == MARKET:
            events.append(EngineEvent("market_unfilled", o.id,
                                      volume=remaining))
        elif remaining > 0:
            self.resting[o.side].append([o.id, o.price, remaining])
            events.append(EngineEvent("rest", o.id, price=o.price,
                                      volume=remaining))
        return events

    def snapshot_levels(self, l, tick):
        """(l, 4) top-l levels, padded as documented by snapshot_padded."""
        cols = []
        for side, step in ((BID, -1), (ASK, 1)):
            volume = {}
            for _, price, rem in self.resting[side]:
                volume[price] = volume.get(price, 0) + rem
            prices = sorted(volume, reverse=(side == BID))[:l]
            vols = [volume[p] for p in prices]
            while len(prices) < l:
                prices.append(prices[-1] + step)
                vols.append(1)
            cols += [[p * tick for p in prices], vols]
        return np.array(cols, dtype=float).T


ORDER_SPECS = st.lists(
    st.tuples(
        st.sampled_from([LIMIT, LIMIT, LIMIT, MARKET, CANCEL]),
        st.sampled_from([BID, ASK]),
        st.integers(-4, 4),  # limit price offset from the centre: crosses
        st.integers(1, 60),  # volume
        st.integers(0, 2**16),  # picks a cancel target or a reused id
        st.integers(0, 2),  # timestamp step
    ),
    min_size=20, max_size=150,
)


@settings(max_examples=60, deadline=None)
@given(ORDER_SPECS, st.integers(3, 1000), st.integers(1, 5))
def test_engine_matches_naive_reference_book(specs, centre, l):
    book, ref = BookState(), NaiveBook()
    next_id, t = 1, 0
    for kind, side, offset, volume, pick, dt in specs:
        t += dt
        if kind == CANCEL:
            # any id issued so far (filled or cancelled ones miss), or 0
            o = Order(next_id, side, CANCEL, t, target_id=pick % next_id)
        elif kind == MARKET:
            o = Order(next_id, side, MARKET, t, volume=volume)
        else:
            live = ref.live_ids()
            oid = live[pick % len(live)] if live and pick % 7 == 0 else next_id
            o = Order(oid, side, LIMIT, t, price=max(1, centre + offset),
                      volume=volume)
        next_id += 1
        try:
            expected = ref.submit(o)
        except BookError:
            with pytest.raises(BookError):
                submit(book, o)
            continue
        _, got = submit(book, o)
        assert got == expected
        check_invariants(book)
        assert book.bid_prices == sorted(book.bids)
        assert book.ask_prices == sorted(book.asks)
        if ref.resting[BID] and ref.resting[ASK]:
            want = ref.snapshot_levels(l, book.tick_size)
            if want[-1, 0] <= 0:
                with pytest.raises(SamplingError):
                    snapshot_padded(book, l)
            else:  # the (l, 4) levels laid out field-major
                assert np.array_equal(snapshot_padded(book, l),
                                      want.T.ravel())
        else:
            with pytest.raises(SamplingError):
                snapshot_padded(book, l)


def test_check_invariants_rejects_price_lists_out_of_step():
    book, _ = seeded_book(levels=3)
    check_invariants(book)
    book.ask_prices.append(book.ask_prices[0] - 5)
    with pytest.raises(BookError, match="ask price list"):
        check_invariants(book)
    book.ask_prices.pop()
    book.bid_prices.remove(book.bid_prices[-1])
    with pytest.raises(BookError, match="bid price list"):
        check_invariants(book)
