"""Seeded synthetic order flow calibrated to published A-share statistics.

The generator walks a target mid-price on the tick grid (bounded, with mild
momentum so short-horizon trends are learnable), places limit orders around
it, occasionally crosses the spread, sends market orders, and cancels live
resting orders. It runs its own matching engine while generating, so every
emitted stream replays without invariant violations and cancels always
reference real live ids.

This is pipeline fuel, not a market model: depth shapes and offsets are
invented and the same for every ticker (the module constants below); only
the headline price/volume statistics in a `FlowProfile` are calibrated.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .book import (
    ASK,
    BID,
    CANCEL,
    DEFAULT_LEVELS,
    DEFAULT_TICK_SIZE,
    LIMIT,
    MARKET,
    BookState,
    Order,
    invalid_rows,
    validate_snapshot,
)
from .engine import paused_gc, submit
from .sampling import (
    NS_PER_SEC,
    ConservationReport,
    SamplingError,
    SessionCalendar,
    sample,
)


# The generator's invented shape, the same for every ticker.
OFFSET_MEAN_TICKS = 3.0  # mean limit placement distance from the target mid
CROSS_PROB = 0.15  # chance a limit is placed through the target mid
MOMENTUM = 0.5  # AR(1) coefficient of mid-walk steps
SEED_LEVELS = 15  # resting levels kept on each side of the target mid
ORDER_VOLUME_DIVISOR = 20  # per-order volume = side mean / divisor


@dataclass(frozen=True)
class FlowProfile:
    """One instrument-like stream: calibration targets, its arrival rate
    and its order mix."""

    name: str
    mid_mean: float  # currency units
    mid_std: float  # daily mid-price standard deviation
    price_min: float
    price_max: float
    bid_volume_mean: int  # per-order volume scale
    ask_volume_mean: int
    arrival_rate: float = 0.3  # orders per second
    mix: tuple = (0.70, 0.10, 0.20)  # P(limit), P(market), P(cancel)

    def __post_init__(self):
        if len(self.mix) != 3 or not all(0 <= m < np.inf for m in self.mix):
            raise ValueError("mix must be three finite, non-negative "
                             "probabilities")
        if abs(sum(self.mix) - 1.0) > 1e-9:
            raise ValueError("mix probabilities must sum to 1")
        if min(self.mid_std, self.bid_volume_mean, self.ask_volume_mean,
               self.arrival_rate) <= 0:
            raise ValueError("scale parameters must be positive")


# Headline 2019 statistics of the five reference tickers (mean/std/min/max
# price in RMB, mean resting volume per side). Per-order volumes are scaled
# down to desk size.
PROFILES = {
    "sz000001": FlowProfile("sz000001", 13.83, 1.91, 9.10, 18.29, 1864, 1964),
    "sz000002": FlowProfile("sz000002", 27.88, 1.72, 23.68, 33.70, 483, 542),
    "sz000858": FlowProfile("sz000858", 108.06, 26.52, 46.06, 154.00, 63, 62),
    "sz002415": FlowProfile("sz002415", 31.01, 3.16, 22.77, 38.61, 303, 248),
    "sz300147": FlowProfile("sz300147", 7.00, 0.83, 3.71, 10.10, 496, 305),
}


@dataclass
class FlowStream:
    """One trading day of orders, timestamp-sorted, replayable from scratch."""

    profile: str
    seed: int
    orders: list = field(default_factory=list)
    tick_size: float = DEFAULT_TICK_SIZE


def _refill_ladder(book: BookState, p: FlowProfile, anchor: int, t: int,
                   next_id: int, orders: list) -> int:
    """Rest the profile's side volume mean at each of the SEED_LEVELS prices
    on either side of anchor that has no level, bid before ask per distance;
    submit and append each order, and return the next free id."""
    bids, asks = book.bids, book.asks
    bid_volume, ask_volume = p.bid_volume_mean, p.ask_volume_mean
    for i in range(1, SEED_LEVELS + 1):
        bid_px = anchor - i
        if bid_px >= 1 and bid_px not in bids:
            o = Order(next_id, BID, LIMIT, t, bid_px, bid_volume)
            next_id += 1
            submit(book, o)
            orders.append(o)
        ask_px = anchor + i
        if ask_px not in asks:
            o = Order(next_id, ASK, LIMIT, t, ask_px, ask_volume)
            next_id += 1
            submit(book, o)
            orders.append(o)
    return next_id


def _kind_cdf(mix) -> list:
    """The cumulative mix as Generator.choice builds it, so that
    bisect_right(cdf, rng.random()) draws what rng.choice(3, p=mix) draws,
    from the same one random()."""
    cdf = np.cumsum(mix, dtype=np.double)
    return (cdf / cdf[-1]).tolist()


def _cancel_target(live: dict, seed_ids: set, rng) -> int | None:
    """A uniformly drawn live id that is not a seed, or None (drawing
    nothing) if only seeds rest. Ids rest in increasing order, so live's
    insertion order is id order and the live seeds, the smallest ids, come
    first: the k-th cancellable id sits at position live_seeds + k."""
    live_seeds = sum(oid in live for oid in seed_ids)
    n = len(live) - live_seeds
    if not n:
        return None
    return next(islice(live, live_seeds + int(rng.integers(n)), None))


@paused_gc()
def generate_day(
    p: FlowProfile,
    seed: int,
    calendar: SessionCalendar = SessionCalendar(),
) -> FlowStream:
    """One deterministic synthetic trading day of order flow."""
    rng = np.random.default_rng(seed)
    tick = DEFAULT_TICK_SIZE
    lo, hi = round(p.price_min / tick), round(p.price_max / tick)
    mid = round(p.mid_mean / tick)
    grid = calendar.grid().tolist()
    # Per-3-second-step stddev in ticks, sized so a day's walk has roughly
    # the profile's daily stddev; momentum inflates variance, compensate.
    step_std = (p.mid_std / tick) / np.sqrt(len(grid)) * (1 - MOMENTUM)

    book = BookState()
    orders = []
    t0 = calendar.intervals[0][0] - 60 * NS_PER_SEC  # pre-open seeding
    next_id = _refill_ladder(book, p, mid, t0, 1, orders)
    seed_ids = set(book.live)
    cdf = _kind_cdf(p.mix)
    drift = 0.0
    target = float(mid)
    for t_grid in grid:
        drift = MOMENTUM * drift + rng.normal(0.0, step_std)
        target += drift
        if not lo + SEED_LEVELS < target < hi - SEED_LEVELS:
            target = float(min(max(target, lo + SEED_LEVELS),
                               hi - SEED_LEVELS))
            drift = 0.0
        n_orders = rng.poisson(p.arrival_rate * calendar.period / NS_PER_SEC)
        if n_orders == 0:
            continue
        times = sorted(rng.integers(
            t_grid - calendar.period + 1, t_grid, size=n_orders, endpoint=True
        ).tolist())
        for ts in times:
            kind = bisect_right(cdf, rng.random())
            side = BID if rng.random() < 0.5 else ASK
            vol_mean = p.bid_volume_mean if side == BID else p.ask_volume_mean
            vol_mean = max(1.0, vol_mean / ORDER_VOLUME_DIVISOR)
            volume = int(rng.geometric(1.0 / vol_mean))
            if kind == 2:
                target_id = _cancel_target(book.live, seed_ids, rng)
                if target_id is None:
                    continue
                o = Order(next_id, side, CANCEL, ts, None, None, target_id)
            elif kind == 1:
                opp = book.asks if side == BID else book.bids
                if not opp:
                    continue
                o = Order(next_id, side, MARKET, ts, None, volume)
            else:
                offset = int(rng.geometric(1.0 / OFFSET_MEAN_TICKS))
                if rng.random() < CROSS_PROB:
                    offset = -offset  # place through the target mid
                price = (
                    round(target) - offset if side == BID
                    else round(target) + offset
                )
                price = min(max(price, 1), hi + SEED_LEVELS)
                o = Order(next_id, side, LIMIT, ts, price, volume)
            next_id += 1
            submit(book, o)
            orders.append(o)
        # Liquidity maintenance: keep a ladder of SEED_LEVELS resting levels
        # on each side of the target mid so the book tracks the walk and
        # never goes one-sided. Refills that cross simply execute, which is
        # what pulls the book mid toward the target after a fast move.
        next_id = _refill_ladder(book, p, round(target), t_grid, next_id,
                                 orders)
    return FlowStream(profile=p.name, seed=seed, orders=orders)


@paused_gc()
def replay_check(
    stream: FlowStream,
    calendar: SessionCalendar = SessionCalendar(),
    l: int = DEFAULT_LEVELS,
) -> tuple[np.ndarray, ConservationReport]:
    """Replay a stream end to end, asserting book invariants and conservation.

    Returns the (N, 4l) snapshot rows and the volume accounting. Raises on
    any snapshot invariant violation, identifying nothing subtler than the
    first bad grid point (violations cannot occur by engine construction),
    then SamplingError if volume is not conserved. One array check covers
    the whole series; the scalar validator only describes the first bad row.
    """
    data, report = sample(BookState(tick_size=stream.tick_size),
                          stream.orders, calendar, l=l)
    bad_rows = np.flatnonzero(invalid_rows(data))
    if bad_rows.size:
        i = int(bad_rows[0])
        bad = validate_snapshot(data[i])
        raise RuntimeError(f"invariant violation at grid index {i}: {bad[0]}")
    if not report.balanced():
        raise SamplingError("volume conservation failed on replay")
    return data, report
