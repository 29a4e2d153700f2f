"""Synthetic flow generator tests: determinism, replay validity,
conservation, calibration plumbing."""

import copy
import dataclasses
import math
from bisect import bisect_right

import numpy as np
import pytest

from lobkit import sampling, synth
from lobkit.book import CANCEL, LIMIT, MARKET, mid_prices
from lobkit.sampling import NS_PER_SEC, SamplingError, SessionCalendar
from lobkit.synth import (
    PROFILES,
    generate_day,
    replay_check,
)

SMALL_CAL = SessionCalendar(
    intervals=((0, 300 * NS_PER_SEC),), period=3 * NS_PER_SEC
)


def small_profile(**kw):
    kw.setdefault("arrival_rate", 1.0)
    return dataclasses.replace(PROFILES["sz000001"], **kw)


def test_profiles_cover_the_five_reference_tickers():
    assert sorted(PROFILES) == [
        "sz000001", "sz000002", "sz000858", "sz002415", "sz300147"
    ]
    assert PROFILES["sz000001"].mid_mean == 13.83
    assert PROFILES["sz000858"].price_max == 154.00


def test_profile_validation():
    """A mix is exactly three finite, non-negative probabilities summing to
    1: a fourth entry would draw as a limit order and a NaN passes the sum
    check."""
    for mix in [
        (0.5, 0.2, 0.2),  # sums to 0.9
        (0.5, 0.5),
        (0.5, 0.2, 0.2, 0.1),
        (1.1, -0.1, 0.0),
        (0.5, math.nan, 0.5),
        (0.5, 0.5, math.inf),
    ]:
        with pytest.raises(ValueError):
            dataclasses.replace(PROFILES["sz000001"], mix=mix)
    with pytest.raises(ValueError):
        dataclasses.replace(PROFILES["sz000001"], mid_std=0.0)


MIXES = sorted({p.mix for p in PROFILES.values()}
               | {(1, 0, 0), (0, 0, 1), (0.5, 0, 0.5)})


@pytest.mark.parametrize("mix", MIXES)
def test_kind_draw_is_generator_choice(mix):
    """bisect_right on the day's cdf draws what rng.choice(3, p=mix) draws,
    from the same one random(), so the stream after it is the same."""
    cdf = synth._kind_cdf(mix)
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(500):
            assert bisect_right(cdf, a.random()) == b.choice(3, p=mix)
        assert a.random() == b.random()


def test_cancel_target_is_the_list_scan_pick(monkeypatch):
    """On the live books of many small days, the cancel pick equals the
    draw from the list of every live non-seed id, and draws as many
    numbers; some picks see seeds already gone, and some find none."""
    real = synth._cancel_target
    seen = {"calls": 0, "seeds_gone": 0, "none": 0}

    def checked(live, seed_ids, rng):
        twin = copy.deepcopy(rng)
        got = real(live, seed_ids, rng)
        cancellable = [oid for oid in live if oid not in seed_ids]
        want = (cancellable[twin.integers(len(cancellable))]
                if cancellable else None)
        assert got == want
        assert rng.bit_generator.state == twin.bit_generator.state
        seen["calls"] += 1
        seen["seeds_gone"] += not seed_ids <= live.keys()
        seen["none"] += got is None
        return got

    monkeypatch.setattr(synth, "_cancel_target", checked)
    p = small_profile(mix=(0.4, 0.2, 0.4), arrival_rate=2.0)
    for seed in range(12):
        generate_day(p, seed=seed, calendar=SMALL_CAL)
    generate_day(small_profile(mix=(0.0, 0.0, 1.0)), seed=0,
                 calendar=SMALL_CAL)
    assert seen["calls"] > 1000
    assert seen["seeds_gone"] > 0 and seen["none"] > 0


def test_generation_is_deterministic_per_seed():
    p = small_profile()
    a = generate_day(p, seed=5, calendar=SMALL_CAL)
    b = generate_day(p, seed=5, calendar=SMALL_CAL)
    assert a.orders == b.orders
    c = generate_day(p, seed=6, calendar=SMALL_CAL)
    assert a.orders != c.orders


def test_orders_are_timestamp_sorted_with_unique_ids():
    stream = generate_day(small_profile(), seed=1, calendar=SMALL_CAL)
    ts = [o.timestamp for o in stream.orders]
    assert ts == sorted(ts)
    ids = [o.id for o in stream.orders]
    assert len(set(ids)) == len(ids)


def test_replay_is_valid_and_conserves_volume():
    stream = generate_day(small_profile(), seed=2, calendar=SMALL_CAL)
    data, rep = replay_check(stream, SMALL_CAL)
    assert len(data) == SMALL_CAL.points_per_day
    assert rep.balanced()
    assert rep.cancel_misses == 0  # cancels always target live orders


def test_replay_check_names_the_first_corrupted_grid_index(monkeypatch):
    real_sample = synth.sample

    def corrupted(*args, **kwargs):
        data, events = real_sample(*args, **kwargs)
        data[17, 2] = data[17, 1]  # bid level 3 ties level 2
        data[40, 25] = 0.0
        return data, events

    monkeypatch.setattr(synth, "sample", corrupted)
    stream = generate_day(small_profile(), seed=2, calendar=SMALL_CAL)
    with pytest.raises(RuntimeError) as exc:
        replay_check(stream, SMALL_CAL)
    assert str(exc.value) == (
        "invariant violation at grid index 17: "
        "Violation(kind='bid-order', level=3, magnitude=0.0)"
    )


@pytest.mark.parametrize("kind", ["trade", "cancel_ok"])
def test_replay_check_raises_when_volume_is_not_conserved(monkeypatch, kind):
    """One trade or one cancel that reports a unit more than it took off
    the book breaks the tally's balance."""
    real_submit = sampling.submit
    misreported = []

    def misreporting(book, order):
        book, events = real_submit(book, order)
        for ev in events:
            if ev.kind == kind and not misreported:
                ev.volume += 1
                misreported.append(ev)
        return book, events

    monkeypatch.setattr(sampling, "submit", misreporting)
    stream = generate_day(small_profile(), seed=2, calendar=SMALL_CAL)
    with pytest.raises(SamplingError, match="volume conservation failed"):
        replay_check(stream, SMALL_CAL)
    assert len(misreported) == 1


def test_no_cancels_when_mix_disables_them():
    p = small_profile(mix=(0.85, 0.15, 0.0))
    stream = generate_day(p, seed=3, calendar=SMALL_CAL)
    assert all(o.kind != CANCEL for o in stream.orders)


def test_mid_prices_stay_within_profile_bounds():
    p = small_profile()
    stream = generate_day(p, seed=4, calendar=SMALL_CAL)
    data, _ = replay_check(stream, SMALL_CAL)
    mids = mid_prices(data)
    assert mids.min() >= p.price_min - 1.0  # padding slack of a few ticks
    assert mids.max() <= p.price_max + 1.0


def test_order_mix_roughly_matches_profile():
    p = small_profile(arrival_rate=3.0)
    stream = generate_day(p, seed=5, calendar=SMALL_CAL)
    kinds = [o.kind for o in stream.orders if o.timestamp > 0]
    # refills are limit orders too, so limits exceed their mix share; market
    # and cancel fractions stay near the requested mix relative to non-refill
    n_market = sum(1 for k in kinds if k == MARKET)
    n_cancel = sum(1 for k in kinds if k == CANCEL)
    n_limit = sum(1 for k in kinds if k == LIMIT)
    assert n_limit > n_market and n_limit > n_cancel
    assert n_market > 0 and n_cancel > 0


def test_full_day_replay_sz000001():
    stream = generate_day(PROFILES["sz000001"], seed=0)
    data, rep = replay_check(stream)
    assert len(data) == 4740
    assert rep.balanced()
    mids = mid_prices(data)
    # headline statistics are in a loose per-day band around the targets
    assert abs(mids.mean() - 13.83) < 3 * 1.91
    assert 9.10 - 1 <= mids.min() and mids.max() <= 18.29 + 1
