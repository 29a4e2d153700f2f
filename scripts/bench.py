#!/usr/bin/env python3
"""Run the benchmark on every workload and keep its numbers in BENCH_<tag>.json.

Runs ``perfbench/run.py --workload all`` twice in a subprocess, untraced
(end-to-end metrics) and traced (per-layer metrics), and writes one JSON file
at the repository root: the environment line perfbench printed, the end-to-end
and the per-layer metrics of each workload, and whether every check passed.
Every run uses seed 0 and the run length fixed by ``BENCHMARK.json``, so
that BENCH files of different changes compare. perfbench's own results stay
in the git-ignored ``.perfbench/``; the BENCH files are the ones meant to be
committed, one per measured change.

With ``--against DIR`` it also runs ``DIR/perfbench/run.py`` (another
checkout, say the parent commit) and this tree's untraced, PAIRS times each,
alternating which side runs first, and adds a "paired" section: per workload
and end-to-end metric, every pair's values, both sides' medians and
quartiles, the ratio of the change's median to the parent's, how many pairs
the change won, whether that ratio is inside the metric's bound in
``BENCHMARK.json``, and whether the parent's own spread is too wide to tell.
It also records whether DIR and this tree lie in the same directory
("same_parent"), since where a checkout lies moves some readings, and the
lines of ``src/lobkit/*.py`` in both trees and their difference
("src_lines"), so a change's net source lines are measured.

Usage:
    python3 scripts/bench.py --tag NAME [--against DIR]
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
ENV_PREFIX = "environment: "
SEED = 0
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
SIDES = ("parent", "change")
PAIRS = 10


def parse_environment(line: str) -> dict:
    """The ``key=value`` pairs of perfbench's environment line; a value may
    hold spaces (the BLAS name and version), so it runs to the next key."""
    pairs = re.findall(r"(\w+)=(.*?)(?= \w+=|$)", line[len(ENV_PREFIX):])
    return {k: int(v) if re.fullmatch(r"-?\d+", v) else v for k, v in pairs}


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The environment (from the first environment line) and the result
    object (the last line) of one ``--workload all`` run."""
    lines = stdout.rstrip("\n").split("\n")
    envs = [parse_environment(x) for x in lines if x.startswith(ENV_PREFIX)]
    if not envs:
        raise ValueError("perfbench printed no environment line")
    return envs[0], json.loads(lines[-1])


def by_workload(metrics: dict) -> dict:
    """``{"recon-walk.walk_cal": m}`` -> ``{"recon-walk": {"walk_cal": m}}``;
    workload names hold no dot, metric names may."""
    out: dict = {}
    for key, value in metrics.items():
        workload, name = key.split(".", 1)
        out.setdefault(workload, {})[name] = value
    return out


def assemble(tag: str, untraced_stdout: str, traced_stdout: str) -> dict:
    """The BENCH document of one untraced and one traced run."""
    env, end_to_end = parse_run(untraced_stdout)
    _, per_layer = parse_run(traced_stdout)
    return {
        "tag": tag,
        "command": f"perfbench/run.py --workload all --seed {SEED} "
                   f"--seconds {SECONDS:g} --trace 0|1",
        "environment": env,
        "correct": end_to_end["correct"] and per_layer["correct"],
        "attempted": end_to_end["attempted"] + per_layer["attempted"],
        "failed": end_to_end["failed"] + per_layer["failed"],
        "end_to_end": by_workload(end_to_end["metrics"]),
        "per_layer": by_workload(per_layer["metrics"]),
    }


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def src_lines(root) -> int:
    """The newline count of ``src/lobkit/*.py`` under root, as ``wc -l``
    counts it; 0 for a tree without those files."""
    return sum(path.read_bytes().count(b"\n")
               for path in Path(root).glob("src/lobkit/*.py"))


def paired(against: str, runs: list) -> dict:
    """The "paired" section from (first side, parent stdout, change stdout)
    triples of untraced runs, one per pair.

    A metric is within its bound when the change's median is worse than the
    parent's by no more than the bound. It is unresolved when the parent's
    quartile spread, relative to its median, is wider than the bound and not
    every change run beats every parent run: such runs cannot tell a move
    inside the bound from one beyond it."""
    results = [(first, parse_run(p)[1], parse_run(c)[1])
               for first, p, c in runs]
    workloads: dict = {}
    for metric in BENCHMARK["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for workload, metrics in by_workload(results[0][2]["metrics"]).items():
            if name not in metrics:
                continue
            key = f"{workload}.{name}"
            pairs = [{"first": first,
                      "parent": p["metrics"][key]["value"],
                      "change": c["metrics"][key]["value"]}
                     for first, p, c in results]
            parent, change = (spread([x[side] for x in pairs])
                              for side in SIDES)
            ratio = change["median"] / parent["median"]
            worst_change = max(sign * x["change"] for x in pairs)
            best_parent = min(sign * x["parent"] for x in pairs)
            workloads.setdefault(workload, {})[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": bound,
                "pairs": pairs,
                "parent": parent,
                "change": change,
                "ratio": ratio,
                "change_won": sum(sign * x["change"] < sign * x["parent"]
                                  for x in pairs),
                "within_bound": sign * (ratio - 1) <= bound,
                "unresolved": ((parent["q3"] - parent["q1"])
                               / parent["median"] > bound
                               and worst_change >= best_parent),
            }
    lines = {side: src_lines(tree)
             for side, tree in zip(SIDES, (against, ROOT))}
    return {
        "against": against,
        # the checkout's location moves recon-walk's peak_rss_mb readings
        "same_parent": Path(against).resolve().parent == ROOT.parent,
        "src_lines": {**lines, "net": lines["change"] - lines["parent"]},
        "pairs": len(runs),
        "correct": all(p["correct"] and c["correct"]
                       for _, p, c in results),
        "workloads": workloads,
    }


def run_pairs(parent_run: Path) -> list:
    """(first side, parent stdout, change stdout) of each of PAIRS pairs of
    untraced runs; the side that runs first alternates."""
    runs = []
    for i in range(PAIRS):
        first, second = SIDES if i % 2 == 0 else SIDES[::-1]
        out = {}
        for side in (first, second):
            print(f"== pair {i + 1}/{PAIRS}: {side}", flush=True)
            out[side] = run_perfbench(0, parent_run if side == "parent"
                                      else RUN)
        runs.append((first, out["parent"], out["change"]))
    return runs


def run_perfbench(trace: int, run: Path = RUN) -> str:
    """perfbench's standard output, echoed line by line as it runs."""
    argv = [sys.executable, str(run), "--workload", "all", "--seed",
            str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    lines = []
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            print(line, end="", flush=True)
            lines.append(line)
    if proc.returncode != 0:
        raise SystemExit(f"error: perfbench exited {proc.returncode}")
    return "".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True,
                    help="names the output file BENCH_<tag>.json")
    ap.add_argument("--against", metavar="DIR",
                    help="a checkout to run untraced in pairs with this tree")
    args = ap.parse_args()
    if not re.fullmatch(r"[\w.-]+", args.tag):
        ap.error(f"--tag must be letters, digits, '_', '.' or '-', "
                 f"got {args.tag!r}")
    if args.against is not None:
        parent_run = Path(args.against) / "perfbench" / "run.py"
        if not parent_run.is_file():
            ap.error(f"--against: no {parent_run}")

    untraced = run_perfbench(0)
    traced = run_perfbench(1)
    doc = assemble(args.tag, untraced, traced)
    if args.against is not None:
        doc["paired"] = paired(args.against, run_pairs(parent_run))
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
