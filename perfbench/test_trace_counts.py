"""The traced run's counts repeat exactly, and it emits every per-layer metric.

    python3 -m pytest perfbench -q

Counts (units other than timings) are read from the arguments and return
values of the wrapped calls, so two traced walks of the same day must give
identical values, and identical artifacts.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import walks  # noqa: E402
from tracer import TIMING_UNITS, Tracer  # noqa: E402

PER_LAYER = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
SEED = walks.day_seed(3, 0)


def traced_walk(workload: str, d: Path):
    tr = Tracer()
    tr.install()
    try:
        walk = walks.run_walk(tr.main, workload, SEED, d,
                              lambda c: tr.invoke(workload, SEED, c))
    finally:
        tr.uninstall()
    assert not walk.failures
    assert not tr.missing
    return tr.walk_metrics(), walk.digests


@pytest.mark.parametrize("workload", list(walks.WORKLOADS))
def test_counts_repeat_exactly(workload, tmp_path):
    first, digests = traced_walk(workload, tmp_path / "a")
    second, digests_again = traced_walk(workload, tmp_path / "b")
    assert set(first) | {"trace.overhead_ratio"} == set(PER_LAYER)
    counts = [k for k in first if PER_LAYER[k] not in TIMING_UNITS]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert digests == digests_again
    if workload == "deep-day":
        assert first["models.batches"] == 0
        assert first["models.adam_s"] == 0
        assert first["engine.submit_calls"] > 100_000
    else:
        assert first["models.adam_params"] > 0
        assert first["metrics.loss_calls_per_batch"] > 0


def test_uninstall_restores_every_name():
    import lobkit.cli
    import lobkit.models
    import lobkit.sampling

    before = (lobkit.sampling.submit, lobkit.cli.train,
              lobkit.models.AdamState.update)
    tr = Tracer()
    tr.install()
    assert lobkit.sampling.submit is not before[0]
    tr.uninstall()
    assert (lobkit.sampling.submit, lobkit.cli.train,
            lobkit.models.AdamState.update) == before
