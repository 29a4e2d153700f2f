"""Smoke tests: each script under scripts/ runs to exit 0 on a small input;
bench.py, which runs the benchmark for minutes, is tested on canned output."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "scripts" / name), *args]
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=300)


def test_calibration_report_runs():
    proc = run_script("calibration_report.py", "--profiles", "sz000001")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[2].startswith("sz000001")


def test_run_end_to_end_runs(tmp_path):
    proc = run_script("run_end_to_end.py", "--epochs", "1",
                      "--out", str(tmp_path / "e2e"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "e2e" / "transfer" / "report.txt").is_file()


def load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


ENV_LINE = ("environment: cpus=2 python=3.11.7 numpy=2.4.6 "
            "blas=scipy-openblas 0.3.31 blas_threads=1 blas_threads_pinned=1 "
            "machine=x86_64")


def canned_run(metrics, failed=0):
    """perfbench --workload all output: workload logs, then the JSON line."""
    result = {"correct": not failed, "attempted": 538, "failed": failed,
              "metrics": metrics}
    return "\n".join(["== deep-day", ENV_LINE, "walk 0 day 0: walk_s=1.2",
                      "== recon-walk", ENV_LINE, json.dumps(result)]) + "\n"


def test_bench_assembles_metrics_per_workload():
    bench = load_bench()
    untraced = canned_run({
        "deep-day.walk_cal": {"value": 43.8, "unit": "cal"},
        "recon-walk.walk_cal": {"value": 170.7, "unit": "cal"},
        "recon-walk.peak_rss_mb": {"value": 265.0, "unit": "MB"},
    })
    traced = canned_run({
        "recon-walk.models.adam_s": {"value": 1.6, "unit": "s"},
        "recon-walk.book.depth_bid.p50": {"value": 42, "unit": "levels"},
    }, failed=1)
    doc = bench.assemble("x1", untraced, traced)
    assert doc["tag"] == "x1"
    assert doc["environment"] == {
        "cpus": 2, "python": "3.11.7", "numpy": "2.4.6",
        "blas": "scipy-openblas 0.3.31", "blas_threads": 1,
        "blas_threads_pinned": 1, "machine": "x86_64"}
    assert doc["end_to_end"] == {
        "deep-day": {"walk_cal": {"value": 43.8, "unit": "cal"}},
        "recon-walk": {"walk_cal": {"value": 170.7, "unit": "cal"},
                       "peak_rss_mb": {"value": 265.0, "unit": "MB"}},
    }
    assert doc["per_layer"] == {"recon-walk": {
        "models.adam_s": {"value": 1.6, "unit": "s"},
        "book.depth_bid.p50": {"value": 42, "unit": "levels"}}}
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (
        False, 1076, 1)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert doc["command"] == ("perfbench/run.py --workload all --seed 0 "
                              f"--seconds {seconds:g} --trace 0|1")
    json.dumps(doc)  # the document is plain JSON


def test_bench_rejects_output_without_environment_line():
    bench = load_bench()
    with pytest.raises(ValueError, match="no environment line"):
        bench.parse_run(json.dumps({"metrics": {}}) + "\n")
