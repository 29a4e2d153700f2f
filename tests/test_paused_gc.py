"""The cyclic garbage collector is paused while a day's records are built
(generate, read, replay), restored afterwards however the call ends, and the
records it skips form no reference cycle."""

import dataclasses
import gc

import pytest

from lobkit import io as lio
from lobkit import sampling, synth
from lobkit.book import BID, LIMIT, Order
from lobkit.engine import paused_gc
from lobkit.sampling import NS_PER_SEC, SamplingError, SessionCalendar
from lobkit.synth import PROFILES, FlowStream, generate_day, replay_check

SMALL_CAL = SessionCalendar(
    intervals=((0, 300 * NS_PER_SEC),), period=3 * NS_PER_SEC
)
PROFILE = dataclasses.replace(PROFILES["sz000858"], arrival_rate=1.0)


def set_collector(enabled: bool):
    (gc.enable if enabled else gc.disable)()


@pytest.fixture
def collector():
    """Restore the collector's state on the way out of the test."""
    enabled = gc.isenabled()
    yield
    set_collector(enabled)


def build_day(path):
    """generate -> write -> read -> replay of one small day, keeping
    nothing alive afterwards."""
    lio.write_flow(generate_day(PROFILE, 0, SMALL_CAL), path)
    replay_check(lio.read_flow(path), SMALL_CAL)


@pytest.mark.parametrize("enabled", [True, False])
def test_paused_gc_restores_the_state_it_found(collector, tmp_path, enabled):
    set_collector(enabled)
    with paused_gc():
        assert not gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() is enabled
    build_day(tmp_path / "flow.csv")
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_a_raising_call_restores_the_state_it_found(collector, tmp_path,
                                                     enabled):
    flow = tmp_path / "flow.csv"
    flow.write_text("# seed = 1\n"
                    "0,1,bid,limit,100,5,\n"
                    "1,2,bid,limit,100,x,\n"
                    "2,3,ask,limit,101,5,\n")
    one_sided = FlowStream("demo", 0, [Order(1, BID, LIMIT, 0, 100, 5)])
    set_collector(enabled)
    with pytest.raises(lio.FormatError, match="at byte 32"):
        lio.read_flow(flow)
    assert gc.isenabled() is enabled
    with pytest.raises(SamplingError, match="no book state"):
        replay_check(one_sided, SMALL_CAL)
    assert gc.isenabled() is enabled
    with paused_gc():
        with pytest.raises(SamplingError):
            replay_check(one_sided, SMALL_CAL)
        assert not gc.isenabled()
    assert gc.isenabled() is enabled


def test_a_days_records_are_built_paused_and_form_no_cycle(
        collector, tmp_path, monkeypatch):
    """Pausing is safe only because reference counting frees every record:
    with the collector off throughout, nothing is left for it to find."""
    seen = {}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen.setdefault(name, set()).add(gc.isenabled())
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(synth, "submit", spy("generate", synth.submit))
    monkeypatch.setattr(sampling, "submit", spy("replay", sampling.submit))
    monkeypatch.setattr(lio, "Order", spy("read", lio.Order))
    gc.enable()
    build_day(tmp_path / "flow.csv")
    assert seen == {"generate": {False}, "read": {False}, "replay": {False}}

    gc.collect()
    gc.disable()
    build_day(tmp_path / "flow.csv")
    assert gc.collect() == 0
