"""Core limit-order-book data model.

Prices are integer tick counts everywhere inside the engine; they are
converted to real currency units only when a snapshot is exported. This keeps
every ordering comparison exact.

A snapshot is one row of 4*l floats in the canonical field-major layout:
bid prices best-first, bid volumes, ask prices best-first, ask volumes. For
l=10 that is columns 0-9 / 10-19 / 20-29 / 30-39. `validate_snapshot`
checks one row (the scalar oracle); `invalid_rows` runs the same checks
over an (N, 4l) series at once.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field

import numpy as np

BID = "bid"
ASK = "ask"

LIMIT = "limit"
MARKET = "market"
CANCEL = "cancel"

DEFAULT_TICK_SIZE = 0.01
DEFAULT_LEVELS = 10


class BookError(Exception):
    """Invalid operation against a book (stale timestamp, bad order, ...)."""


@dataclass(slots=True)
class Order:
    """One inbound market event.

    Limit orders carry price and volume; market orders carry volume only;
    cancels carry only the target order id. Timestamps are integer
    nanoseconds on the exchange-local clock.
    """

    id: int
    side: str
    kind: str
    timestamp: int
    price: int | None = None
    volume: int | None = None
    target_id: int | None = None

    def __post_init__(self):
        if self.side not in (BID, ASK):
            raise BookError(f"bad side {self.side!r}")
        if self.kind == LIMIT:
            if self.price is None or self.price <= 0:
                raise BookError(f"limit order {self.id} needs price > 0")
            if self.volume is None or self.volume <= 0:
                raise BookError(f"limit order {self.id} needs volume > 0")
        elif self.kind == MARKET:
            if self.volume is None or self.volume <= 0:
                raise BookError(f"market order {self.id} needs volume > 0")
        elif self.kind == CANCEL:
            if self.target_id is None:
                raise BookError(f"cancel order {self.id} needs target_id")
            if self.price is not None or self.volume is not None:
                raise BookError(f"cancel order {self.id} carries price/volume")
        else:
            raise BookError(f"bad kind {self.kind!r}")


@dataclass(slots=True)
class PriceLevel:
    """All resting volume at one price, queued in arrival order."""

    price: int
    queue: deque = field(default_factory=deque)  # entries: [order_id, remaining]
    total_volume: int = 0

    def append(self, order_id: int, volume: int):
        self.queue.append([order_id, volume])
        self.total_volume += volume


class BookState:
    """Full-depth two-sided book with price-time priority queues.

    Single-writer: one engine mutates one instance. `bids` and `asks` map
    price ticks to PriceLevel; `bid_prices` and `ask_prices` hold the same
    prices in ascending order, so the best bid is `bid_prices[-1]`, the best
    ask is `ask_prices[0]` and the top l of a side is a slice. Levels are
    added and dropped only through `add_level`/`drop_level`, which keep both
    views in step by bisection (synthetic sz000858 days reach 700-1100
    levels on a side: 872 for seed 0, 1103 for seed 1).
    """

    def __init__(self, tick_size: float = DEFAULT_TICK_SIZE):
        if tick_size <= 0:
            raise BookError("tick_size must be positive")
        self.bids: dict[int, PriceLevel] = {}
        self.asks: dict[int, PriceLevel] = {}
        self.bid_prices: list[int] = []  # ascending
        self.ask_prices: list[int] = []  # ascending
        self.tick_size = tick_size
        self.clock: int | None = None  # timestamp of the last applied order
        # live order id -> (side, price) so cancels find their level
        self.live: dict[int, tuple[str, int]] = {}

    def side_levels(self, side: str) -> dict[int, PriceLevel]:
        return self.bids if side == BID else self.asks

    def side_prices(self, side: str) -> list[int]:
        return self.bid_prices if side == BID else self.ask_prices

    def add_level(self, side: str, price: int) -> PriceLevel:
        """A new empty level at price, which must not exist on side yet."""
        lvl = self.side_levels(side)[price] = PriceLevel(price=price)
        insort(self.side_prices(side), price)
        return lvl

    def drop_level(self, side: str, price: int):
        """Remove the level at price from side."""
        del self.side_levels(side)[price]
        prices = self.side_prices(side)
        del prices[bisect_left(prices, price)]


@dataclass(frozen=True)
class Violation:
    """One broken snapshot constraint, with the size of the breach."""

    kind: str  # bid-order | ask-order | cross | non-positive
    level: int
    magnitude: float


def validate_snapshot(row: np.ndarray,
                      l: int = DEFAULT_LEVELS) -> list[Violation]:
    """Check one (4l,) row: bid/ask price monotonicity, no cross, strict
    positivity. The scalar oracle behind `invalid_rows`.

    Raises ValueError only for a row whose shape is not (4l,); otherwise
    returns one record per violated constraint, empty iff valid.
    """
    row = np.asarray(row, dtype=float)
    if row.shape != (4 * l,):
        raise ValueError(f"expected length {4 * l}, got shape {row.shape}")
    out = []
    lv = row.reshape(4, l)  # rows: b_p, b_v, a_p, a_v
    b_p, a_p = lv[0], lv[2]
    for i in range(1, l):
        if b_p[i] >= b_p[i - 1]:
            out.append(Violation("bid-order", i + 1, float(b_p[i] - b_p[i - 1])))
        if a_p[i] <= a_p[i - 1]:
            out.append(Violation("ask-order", i + 1, float(a_p[i - 1] - a_p[i])))
    if b_p[0] >= a_p[0]:
        out.append(Violation("cross", 1, float(b_p[0] - a_p[0])))
    for i in range(l):
        for j in range(4):
            if lv[j, i] <= 0:
                out.append(Violation("non-positive", i + 1, float(-lv[j, i])))
    return out


def invalid_rows(data: np.ndarray) -> np.ndarray:
    """(N,) bool: which rows of an (N, 4l) series break a
    constraint of `validate_snapshot`, by the same comparisons (so a NaN
    entry breaks none, exactly as in the scalar check)."""
    l = levels_of(data)
    b_p, a_p = data[:, :l], data[:, 2 * l:3 * l]
    return ((b_p[:, 1:] >= b_p[:, :-1]).any(axis=1)
            | (a_p[:, 1:] <= a_p[:, :-1]).any(axis=1)
            | (b_p[:, 0] >= a_p[:, 0])
            | (data <= 0).any(axis=1))


def levels_of(rows) -> int:
    """The l of (..., 4l) rows: the only place l is read from a width."""
    width = np.shape(rows)[-1]
    if width % 4:
        raise ValueError(f"rows of width {width} are not (..., 4l) rows")
    return width // 4


# Column index helpers for the canonical 40-column layout.

def bid_price_cols(l: int = DEFAULT_LEVELS) -> np.ndarray:
    return np.arange(0, l)


def bid_volume_cols(l: int = DEFAULT_LEVELS) -> np.ndarray:
    return np.arange(l, 2 * l)


def ask_price_cols(l: int = DEFAULT_LEVELS) -> np.ndarray:
    return np.arange(2 * l, 3 * l)


def ask_volume_cols(l: int = DEFAULT_LEVELS) -> np.ndarray:
    return np.arange(3 * l, 4 * l)


def price_cols(l: int = DEFAULT_LEVELS) -> np.ndarray:
    return np.concatenate([bid_price_cols(l), ask_price_cols(l)])


def volume_cols(l: int = DEFAULT_LEVELS) -> np.ndarray:
    return np.concatenate([bid_volume_cols(l), ask_volume_cols(l)])


def mid_prices(data: np.ndarray) -> np.ndarray:
    """Mean of best bid and best ask of each (..., 4l) row."""
    return (data[..., 0] + data[..., 2 * levels_of(data)]) / 2.0


def ladder_cols(l: int = DEFAULT_LEVELS) -> np.ndarray:
    """Price columns in expected ascending order: b_p[l..1] then a_p[1..l]."""
    return np.concatenate([bid_price_cols(l)[::-1], ask_price_cols(l)])
