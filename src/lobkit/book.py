"""Core limit-order-book data model.

Prices are integer tick counts everywhere inside the engine; they are
converted to real currency units only when a Snapshot is exported. This keeps
every ordering comparison exact.

Canonical flattened column layout for an l-level snapshot (4*l columns,
field-major): bid prices best-first, bid volumes, ask prices best-first,
ask volumes. For l=10 that is columns 0-9 / 10-19 / 20-29 / 30-39.
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


class EmptySideError(BookError):
    """An operation needed a populated book side and found none."""


@dataclass(frozen=True)
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


@dataclass
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

    def best_bid(self) -> int | None:
        return self.bid_prices[-1] if self.bid_prices else None

    def best_ask(self) -> int | None:
        return self.ask_prices[0] if self.ask_prices else None

    def check_invariants(self):
        """Raise BookError on any structural violation. O(levels log levels)."""
        for name, levels, prices in (("bid", self.bids, self.bid_prices),
                                     ("ask", self.asks, self.ask_prices)):
            if prices != sorted(levels):
                raise BookError(f"{name} price list out of step with levels")
        bb, ba = self.best_bid(), self.best_ask()
        if bb is not None and ba is not None and bb >= ba:
            raise BookError(f"crossed book: best bid {bb} >= best ask {ba}")
        for levels in (self.bids, self.asks):
            for price, lvl in levels.items():
                if lvl.price != price:
                    raise BookError(f"level keyed {price} holds price {lvl.price}")
                if lvl.total_volume <= 0:
                    raise BookError(f"empty level retained at {price}")
                if lvl.total_volume != sum(v for _, v in lvl.queue):
                    raise BookError(f"volume mismatch at {price}")


@dataclass(frozen=True)
class Snapshot:
    """The best-l view of the book: rows of (b_p, b_v, a_p, a_v), real units."""

    levels: np.ndarray  # (l, 4) float64
    time: int = 0

    @property
    def l(self) -> int:
        return self.levels.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, Snapshot)
            and self.time == other.time
            and np.array_equal(self.levels, other.levels)
        )


@dataclass(frozen=True)
class Violation:
    """One broken snapshot constraint, with the size of the breach."""

    kind: str  # bid-order | ask-order | cross | non-positive
    level: int
    magnitude: float


def validate_snapshot(s: Snapshot) -> list[Violation]:
    """Check bid/ask price monotonicity, no cross, strict positivity.

    Never raises; returns one record per violated constraint, empty iff valid.
    """
    out = []
    lv = s.levels
    b_p, a_p = lv[:, 0], lv[:, 2]
    for i in range(1, s.l):
        if b_p[i] >= b_p[i - 1]:
            out.append(Violation("bid-order", i + 1, float(b_p[i] - b_p[i - 1])))
        if a_p[i] <= a_p[i - 1]:
            out.append(Violation("ask-order", i + 1, float(a_p[i - 1] - a_p[i])))
    if b_p[0] >= a_p[0]:
        out.append(Violation("cross", 1, float(b_p[0] - a_p[0])))
    for i in range(s.l):
        for j in range(4):
            if lv[i, j] <= 0:
                out.append(Violation("non-positive", i + 1, float(-lv[i, j])))
    return out


def invalid_rows(data: np.ndarray, l: int = DEFAULT_LEVELS) -> np.ndarray:
    """(N,) bool: which rows of an (N, 4l) flattened series break a
    constraint of `validate_snapshot`, by the same comparisons (so a NaN
    entry breaks none, exactly as in the scalar check)."""
    b_p, a_p = data[:, :l], data[:, 2 * l:3 * l]
    return ((b_p[:, 1:] >= b_p[:, :-1]).any(axis=1)
            | (a_p[:, 1:] <= a_p[:, :-1]).any(axis=1)
            | (b_p[:, 0] >= a_p[:, 0])
            | (data <= 0).any(axis=1))


def mid_price(s: Snapshot) -> float:
    """Mean of best bid and best ask prices."""
    if s.l < 1:
        raise EmptySideError("snapshot has no levels")
    return (s.levels[0, 0] + s.levels[0, 2]) / 2.0


def flatten(s: Snapshot) -> np.ndarray:
    """Snapshot -> 4*l vector in the canonical field-major layout."""
    return s.levels.T.ravel().copy()


def unflatten(vec: np.ndarray, l: int = DEFAULT_LEVELS, time: int = 0) -> Snapshot:
    """Inverse of flatten; rejects vectors whose length is not 4*l."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (4 * l,):
        raise ValueError(f"expected length {4 * l}, got shape {vec.shape}")
    return Snapshot(levels=vec.reshape(4, l).T.copy(), time=time)


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


def ladder_cols(l: int = DEFAULT_LEVELS) -> np.ndarray:
    """Price columns in expected ascending order: b_p[l..1] then a_p[1..l]."""
    return np.concatenate([bid_price_cols(l)[::-1], ask_price_cols(l)])
