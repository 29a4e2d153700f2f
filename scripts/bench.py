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

Usage:
    python3 scripts/bench.py --tag NAME
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
ENV_PREFIX = "environment: "
SEED = 0
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


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


def run_perfbench(trace: int) -> str:
    """perfbench's standard output, echoed line by line as it runs."""
    argv = [sys.executable, str(RUN), "--workload", "all", "--seed",
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
    args = ap.parse_args()
    if not re.fullmatch(r"[\w.-]+", args.tag):
        ap.error(f"--tag must be letters, digits, '_', '.' or '-', "
                 f"got {args.tag!r}")

    untraced = run_perfbench(0)
    traced = run_perfbench(1)
    doc = assemble(args.tag, untraced, traced)
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
