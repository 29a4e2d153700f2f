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


def test_traced_training_counts_every_batch_and_keeps_the_checkpoint(
        monkeypatch, tmp_path):
    """Training runs half its work on a helper thread, which must never
    enter a wrapped name: the tracer's span stack is not thread-safe.
    Traced, every batch of a reconstruction head is one forward pass, one
    Adam step and one backward pass, the stack ends empty, and the
    checkpoint is the untraced run's byte for byte."""
    import numpy as np

    import lobkit.models as models
    from lobkit.io import save_checkpoint
    from lobkit.preprocess import Windows

    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    view = np.random.default_rng(3).normal(size=(40, 10, 40))
    cfg = models.TrainConfig(epochs=2, batch_size=8)
    batches = cfg.epochs * -(-len(view) // cfg.batch_size)

    def checkpoint(tag):
        rng = np.random.default_rng(0)
        model = models.LinearAutoencoder(input_dim=400, latent=96, seed=rng)
        head = models.TaskHead(models.RECONSTRUCTION, latent=96, out_dim=400,
                               seed=rng)
        models.train(model, head, Windows(view, np.arange(len(view))), cfg)
        save_checkpoint(tmp_path / tag, {**model.params, **head.params})
        return (tmp_path / tag).read_bytes()

    untraced = checkpoint("untraced.bin")
    tr = Tracer()
    tr.install()
    try:
        traced = checkpoint("traced.bin")
    finally:
        tr.uninstall()
    assert (tr.calls["models.forward"] == tr.calls["models.adam"]
            == tr.calls["models.backward"] == batches)
    assert tr._stack == []
    assert traced == untraced
