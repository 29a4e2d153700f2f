"""The benchmark's traced run finds every name it wraps, and gives them back.

``perfbench/tracer.py`` replaces public lobkit names where their callers look
them up. A rename or deletion in ``src/`` makes it record nothing for that
layer, so this test installs the tracer (without running a walk) and checks
that no name is missing and that uninstalling restores every original.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    patches = list(tr._patches)  # (owner, attribute, original)
    try:
        assert tr.missing == []
        assert patches and all(getattr(o, a) is not fn for o, a, fn in patches)
    finally:
        tr.uninstall()
    assert all(getattr(o, a) is fn for o, a, fn in patches)
