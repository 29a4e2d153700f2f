"""Regular-grid snapshot sampling over the continuous-auction sessions.

The exchange day is sampled on a 3-second grid restricted to the morning
[09:30, 11:30) and afternoon [13:00, 14:57) continuous sessions, which gives
(120 + 117) minutes * 20 samples/minute = 4740 snapshots per complete day.
Each grid point takes the latest book state at or before that instant, so
quiet periods are forward-filled and call-auction instants are never sampled,
both by construction. `snapshot_padded` is the one top-l book exporter: it
writes each snapshot straight as a row of the (N, 4l) series.

`sample` is the replay, the only code that sees each submit's events. It
keeps no event list: it tallies them into a `ConservationReport` as they
come. A trade meets the opposite side, so its volume is executed on both;
a cancel's volume is booked to the side `book.live` names for its target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .book import ASK, BID, CANCEL, DEFAULT_LEVELS, BookState
from .engine import submit

NS_PER_SEC = 1_000_000_000


def hms(h: int, m: int, s: int = 0) -> int:
    """Exchange-local time of day as integer nanoseconds."""
    return (h * 3600 + m * 60 + s) * NS_PER_SEC


class SamplingError(Exception):
    pass


@dataclass(frozen=True)
class SessionCalendar:
    """Continuous-auction intervals (half-open, ns of day) and sample period."""

    intervals: tuple = ((hms(9, 30), hms(11, 30)), (hms(13, 0), hms(14, 57)))
    period: int = 3 * NS_PER_SEC

    def __post_init__(self):
        prev_end = -1
        for start, end in self.intervals:
            if start <= prev_end:
                raise SamplingError("intervals must be disjoint and ordered")
            if (end - start) % self.period != 0:
                raise SamplingError("period must divide each interval length")
            prev_end = end

    def grid(self) -> np.ndarray:
        """All sampling instants, one per period, session-restricted."""
        parts = [
            np.arange(start, end, self.period, dtype=np.int64)
            for start, end in self.intervals
        ]
        return np.concatenate(parts)

    def blocks(self) -> list:
        """(first, end) rows of each session in the day's series."""
        edges = np.cumsum([0] + [(end - start) // self.period
                                 for start, end in self.intervals]).tolist()
        return list(zip(edges[:-1], edges[1:]))


def snapshot_padded(book: BookState, l: int = DEFAULT_LEVELS) -> np.ndarray:
    """Best l levels per side as one (4l,) row in real currency units.

    A side thinner than l is padded one tick past its worst level with
    volume 1, which keeps every exported snapshot strictly positive and
    strictly monotone.
    """
    bids = book.bid_prices[:-l - 1:-1]
    asks = book.ask_prices[:l]
    if not bids or not asks:
        raise SamplingError("cannot pad a one-sided book")
    bid_vols = [book.bids[p].total_volume for p in bids]
    ask_vols = [book.asks[p].total_volume for p in asks]
    for prices, vols, step in ((bids, bid_vols, -1), (asks, ask_vols, 1)):
        while len(prices) < l:
            prices.append(prices[-1] + step)
            vols.append(1)
    if bids[-1] <= 0:
        raise SamplingError("bid padding reached non-positive prices")
    tick = book.tick_size
    return np.array([p * tick for p in bids] + bid_vols
                    + [p * tick for p in asks] + ask_vols, dtype=float)


@dataclass
class ConservationReport:
    """Volume accounting per side across one replayed stream."""

    submitted: dict
    executed: dict
    cancelled: dict
    resting: dict
    market_unfilled: dict
    cancel_misses: int

    def balanced(self) -> bool:
        return all(
            self.submitted[s]
            == self.executed[s] + self.cancelled[s] + self.resting[s]
            + self.market_unfilled[s]
            for s in (BID, ASK)
        )


def _grid_row(book: BookState, t: int, l: int) -> np.ndarray:
    if not book.bids or not book.asks:
        raise SamplingError(f"no book state at grid point {t}")
    return snapshot_padded(book, l)


def sample(
    book: BookState,
    orders,
    calendar: SessionCalendar = SessionCalendar(),
    l: int = DEFAULT_LEVELS,
) -> tuple[np.ndarray, ConservationReport]:
    """Replay orders through the engine, snapshotting at every grid point.

    Each grid point reflects the latest applied state at or before it: the
    points earlier than an order's timestamp are taken before it is
    submitted. The book must be populated (e.g. by pre-open seed orders)
    before the first grid point. Returns the (N, 4l) rows, one per grid
    point, and the volume accounting.
    """
    if l < 1:
        raise SamplingError(f"levels must be >= 1, got {l}")
    grid = calendar.grid().tolist()
    data = np.empty((len(grid), 4 * l))
    submitted, cancelled, unfilled = ({BID: 0, ASK: 0} for _ in range(3))
    traded = misses = i = 0
    for o in orders:
        while i < len(grid) and grid[i] < o.timestamp:
            data[i] = _grid_row(book, grid[i], l)
            i += 1
        if o.kind == CANCEL:
            target = book.live.get(o.target_id)
        else:
            submitted[o.side] += o.volume
        for ev in submit(book, o)[1]:
            if ev.kind == "trade":
                traded += ev.volume
            elif ev.kind == "cancel_ok":
                cancelled[target[0]] += ev.volume
            elif ev.kind == "market_unfilled":
                unfilled[o.side] += ev.volume
            elif ev.kind == "cancel_miss":
                misses += 1
    for i in range(i, len(grid)):
        data[i] = _grid_row(book, grid[i], l)
    resting = {side: sum(lvl.total_volume
                         for lvl in book.side_levels(side).values())
               for side in (BID, ASK)}
    return data, ConservationReport(submitted, {BID: traded, ASK: traded},
                                    cancelled, resting, unfilled, misses)
