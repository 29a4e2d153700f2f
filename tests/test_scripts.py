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


def test_bench_pairs_each_end_to_end_metric_with_its_bound():
    bench = load_bench()

    def run(walk_cal, rss):
        return canned_run({"deep-day.walk_cal": {"value": walk_cal,
                                                  "unit": "cal"},
                           "deep-day.peak_rss_mb": {"value": rss,
                                                    "unit": "MB"},
                           "deep-day.walk_s": {"value": 9.0, "unit": "s"}})

    runs = [("parent", run(40.0, 150.0), run(30.0, 145.0)),
            ("change", run(44.0, 150.0), run(33.0, 200.0)),
            ("parent", run(48.0, 151.0), run(48.0, 144.0))]
    section = bench.paired("../parent", runs)
    assert (section["against"], section["pairs"], section["correct"]) == (
        "../parent", 3, True)
    # a sibling checkout shares this tree's parent directory; one inside
    # this tree does not
    assert bench.paired(str(bench.ROOT.parent / "parent"), runs)[
        "same_parent"]
    assert not bench.paired(str(bench.ROOT / "parent"), runs)["same_parent"]
    assert list(section["workloads"]) == ["deep-day"]
    deep = section["workloads"]["deep-day"]
    assert list(deep) == ["walk_cal", "peak_rss_mb"]  # BENCHMARK.json order
    cal = deep["walk_cal"]
    assert cal["pairs"] == [
        {"first": "parent", "parent": 40.0, "change": 30.0},
        {"first": "change", "parent": 44.0, "change": 33.0},
        {"first": "parent", "parent": 48.0, "change": 48.0}]
    assert cal["parent"] == {"median": 44.0, "q1": 42.0, "q3": 46.0}
    assert cal["change"] == {"median": 33.0, "q1": 31.5, "q3": 40.5}
    assert cal["ratio"] == 0.75  # 33 / 44
    assert cal["change_won"] == 2  # a tie is no win
    assert (cal["unit"], cal["better"], cal["within_bound"],
            cal["unresolved"]) == ("cal", "lower", True, False)
    rss = deep["peak_rss_mb"]
    assert rss["ratio"] == 145.0 / 150.0
    assert rss["change_won"] == 2
    bound = next(m["bound"] for m in bench.BENCHMARK["end_to_end"]
                 if m["name"] == "peak_rss_mb")
    assert rss["bound"] == bound
    runs[0] = ("parent", run(40.0, 100.0), run(30.0, 200.0))
    runs[2] = ("parent", run(48.0, 100.0), run(48.0, 200.0))
    assert not bench.paired("p", runs)["workloads"]["deep-day"][
        "peak_rss_mb"]["within_bound"]

    def cal_of(pairs):
        runs = [("parent", run(p, 150.0), run(c, 150.0)) for p, c in pairs]
        return bench.paired("p", runs)["workloads"]["deep-day"]["walk_cal"]

    # The per-pair ratios 2.6, 0.95 and 29/30 have a median below 1, but
    # the change's median is 1.3 times the parent's: beyond the 0.25 bound.
    cal = cal_of([(10.0, 26.0), (20.0, 19.0), (30.0, 29.0)])
    assert (cal["change_won"], cal["ratio"], cal["within_bound"]) == (
        2, 1.3, False)
    assert cal["unresolved"]  # the parent's (25 - 15) / 20 exceeds 0.25
    # as wide a parent spread, but every change run beats every parent run
    cal = cal_of([(10.0, 5.0), (20.0, 6.0), (30.0, 7.0)])
    assert (cal["within_bound"], cal["unresolved"]) == (True, False)


def test_bench_paired_is_not_correct_when_a_run_fails():
    bench = load_bench()
    good = canned_run({"deep-day.walk_cal": {"value": 40.0, "unit": "cal"}})
    bad = canned_run({"deep-day.walk_cal": {"value": 40.0, "unit": "cal"}},
                     failed=1)
    assert not bench.paired("p", [("parent", bad, good),
                                  ("change", good, good)])["correct"]


def test_bench_paired_counts_both_trees_source_lines(tmp_path, monkeypatch):
    """src_lines: the newlines of src/lobkit/*.py in the parent tree and in
    this one, and the change's net; other files in src/ do not count."""
    bench = load_bench()
    for tree, files in (("parent", {"a.py": "x\ny\nz\n", "b.py": "q\n"}),
                        ("change", {"a.py": "x\ny\n", "b.py": "q\nr"})):
        pkg = tmp_path / tree / "src" / "lobkit"
        pkg.mkdir(parents=True)
        for name, text in files.items():
            (pkg / name).write_text(text)
    (tmp_path / "change/src/lobkit/notes.txt").write_text("1\n2\n")
    (tmp_path / "change/src/setup.py").write_text("1\n")
    monkeypatch.setattr(bench, "ROOT", tmp_path / "change")
    run = canned_run({"deep-day.walk_cal": {"value": 40.0, "unit": "cal"}})
    section = bench.paired(str(tmp_path / "parent"),
                           [("parent", run, run), ("change", run, run)])
    assert section["src_lines"] == {"parent": 4, "change": 3, "net": -1}
    assert bench.src_lines(tmp_path / "missing") == 0
