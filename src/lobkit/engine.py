"""Continuous double auction matching with price-time priority.

Limit orders match against the opposite side while they cross, at the resting
(maker) order's price, earliest arrival first within a level; any remainder
rests. Market orders sweep the opposite side best-first and discard whatever
cannot fill. Cancels remove the target's full remaining volume.

The engine's records (`Order`, `EngineEvent`, `PriceLevel` and its queue
entries) hold ints, strings and a level's own queue; none refers to a book
or to another record, so they form no reference cycle and reference
counting frees each one. `paused_gc` lets the code that builds a day's
records skip the cyclic collector's rescans of them.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass

from .book import (
    ASK,
    BID,
    CANCEL,
    LIMIT,
    MARKET,
    BookError,
    BookState,
    Order,
)


@contextmanager
def paused_gc():
    """Run the block, or the decorated function, with the cyclic garbage
    collector disabled, and restore the state found on entry on the way
    out, whether the block returns or raises; nested uses keep the outer
    state. Only for code whose objects form no reference cycle: the
    collector is what frees a cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(slots=True)
class EngineEvent:
    """One engine outcome. A trade's order_id is the taker, price the
    maker's resting price, volume the executed volume and maker_id the
    maker."""

    kind: str  # trade | rest | cancel_ok | cancel_miss | market_unfilled
    order_id: int
    price: int | None = None
    volume: int | None = None
    maker_id: int | None = None


def _match(book: BookState, o: Order, events: list[EngineEvent]) -> int:
    """Sweep the opposite side while o crosses; returns unfilled volume."""
    opposite = ASK if o.side == BID else BID
    levels = book.side_levels(opposite)
    prices = book.side_prices(opposite)
    end = 0 if opposite == ASK else -1  # the best price's end of the list
    remaining = o.volume
    while remaining > 0 and prices:
        best = prices[end]
        if o.kind == LIMIT:
            crosses = best <= o.price if o.side == BID else best >= o.price
            if not crosses:
                break
        lvl = levels[best]
        while remaining > 0 and lvl.queue:
            entry = lvl.queue[0]
            take = min(remaining, entry[1])
            entry[1] -= take
            lvl.total_volume -= take
            remaining -= take
            events.append(EngineEvent("trade", o.id, best, take, entry[0]))
            if entry[1] == 0:
                lvl.queue.popleft()
                book.live.pop(entry[0], None)
        if lvl.total_volume == 0:
            book.drop_level(opposite, best)
    return remaining


def submit(book: BookState, o: Order) -> tuple[BookState, list[EngineEvent]]:
    """Apply one order; mutates and returns the book plus its events.

    Rejects, before touching the book, a stale timestamp and a limit order
    whose id is still resting (it would orphan the first order's volume).
    """
    if book.clock is not None and o.timestamp < book.clock:
        raise BookError(
            f"stale timestamp {o.timestamp} < book clock {book.clock}"
        )
    if o.kind == LIMIT and o.id in book.live:
        raise BookError(f"limit order id {o.id} is already live")
    book.clock = o.timestamp
    events: list[EngineEvent] = []

    if o.kind == CANCEL:
        loc = book.live.pop(o.target_id, None)
        if loc is None:
            events.append(EngineEvent("cancel_miss", o.id))
            return book, events
        side, price = loc
        lvl = book.side_levels(side)[price]
        for i, entry in enumerate(lvl.queue):
            if entry[0] == o.target_id:
                lvl.total_volume -= entry[1]
                events.append(
                    EngineEvent("cancel_ok", o.id, price=price, volume=entry[1])
                )
                del lvl.queue[i]
                break
        if lvl.total_volume == 0:
            book.drop_level(side, price)
        return book, events

    remaining = _match(book, o, events)

    if remaining > 0:
        if o.kind == MARKET:
            events.append(
                EngineEvent("market_unfilled", o.id, volume=remaining)
            )
        else:
            lvl = book.side_levels(o.side).get(o.price)
            if lvl is None:
                lvl = book.add_level(o.side, o.price)
            lvl.append(o.id, remaining)
            book.live[o.id] = (o.side, o.price)
            events.append(
                EngineEvent("rest", o.id, price=o.price, volume=remaining)
            )
    return book, events
