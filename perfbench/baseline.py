"""Cross-check against the "Baseline" table of the repository's ROADMAP.

    python3 perfbench/baseline.py

Times the entries of that table once each, with the benchmark's pinned BLAS
threads: generate and replay for sz000001 and sz000858 (seed 0), each CLI
command on sz000001, and one reconstruction epoch split by phase with the
benchmark's tracer. Prints every entry beside the table's value and flags
those more than the table's stated noise (15 %) away. The table's epoch
split came from cProfile, which inflates Python-level calls; the tracer here
wraps only the named calls.
"""

from __future__ import annotations

import run  # noqa: F401  (pins the BLAS threads before NumPy loads)

import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

NOISE = 0.15
TABLE = {  # seconds, as listed in the ROADMAP baseline
    "generate sz000001": 0.48,
    "replay sz000001": 0.46,
    "generate sz000858": 2.8,
    "replay sz000858": 2.7,
    "cli build": 0.56,
    "cli preprocess": 0.06,
    "cli train reconstruction 1 epoch": 5.0,
    "cli train prediction 1 epoch": 1.7,
    "cli train imputation 1 epoch": 4.2,
    "cli evaluate": 0.35,
    "cli transfer": 0.65,
    "epoch AdamState.update": 2.5,
    "epoch loss+grad loop": 0.84,
    "epoch backward": 0.55,
    "epoch forward": 0.34,
}


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def measure(d) -> dict[str, float]:
    from lobkit.cli import main
    from lobkit.synth import PROFILES, generate_day, replay_check
    from tracer import Tracer

    got = {}
    for profile in ("sz000001", "sz000858"):
        got[f"generate {profile}"], stream = timed(
            generate_day, PROFILES[profile], 0)
        got[f"replay {profile}"], _ = timed(replay_check, stream)

    def cli(*argv):
        seconds, code = timed(main, list(argv))
        if code != 0:
            raise SystemExit(f"{argv[0]} exited {code}")
        return seconds

    cli("generate", "--profile", "sz000001", "--seed", "0",
        "--out", f"{d}/flow.csv")
    got["cli build"] = cli("build", "--flow", f"{d}/flow.csv",
                           "--out", f"{d}/series.bin")
    got["cli preprocess"] = cli("preprocess", "--series", f"{d}/series.bin",
                                "--out", f"{d}/data")
    for task in ("reconstruction", "prediction", "imputation"):
        got[f"cli train {task} 1 epoch"] = cli(
            "train", "--data", f"{d}/data", "--task", task, "--epochs", "1",
            "--out", f"{d}/{task}")
    got["cli evaluate"] = cli(
        "evaluate", "--data", f"{d}/data",
        "--checkpoint", f"{d}/reconstruction/checkpoint.bin",
        "--out", f"{d}/eval")
    got["cli transfer"] = cli(
        "transfer", "--data", f"{d}/data",
        "--checkpoint", f"{d}/prediction/checkpoint.bin", "--out", f"{d}/xfer")

    tr = Tracer()
    tr.install()
    try:
        got["epoch total (traced)"] = cli(
            "train", "--data", f"{d}/data", "--task", "reconstruction",
            "--epochs", "1", "--out", f"{d}/traced")
    finally:
        tr.uninstall()
    m = tr.walk_metrics()
    got["epoch AdamState.update"] = m["models.adam_s"]
    got["epoch loss+grad loop"] = m["metrics.loss_s"]
    got["epoch backward"] = m["models.backward_s"]
    got["epoch forward"] = m["models.forward_s"]
    return got


def main() -> int:
    if not (run.ROOT / "src" / "lobkit" / "cli.py").is_file():
        print("error: no lobkit sources", file=sys.stderr)
        return 2
    d = run.WORK / "baseline"
    run.setup(d)
    print("environment: " + " ".join(
        f"{k}={v}" for k, v in run.environment().items()))
    got = measure(d)
    shutil.rmtree(d, ignore_errors=True)
    print(f"{'entry':<36} {'table s':>8} {'now s':>8} {'ratio':>6}")
    off = []
    for name, value in got.items():
        ref = TABLE.get(name)
        if ref is None:
            print(f"{name:<36} {'':>8} {value:>8.3f}")
            continue
        ratio = value / ref
        flag = "" if abs(ratio - 1) <= NOISE else "  differs by more than 15%"
        if flag:
            off.append(name)
        print(f"{name:<36} {ref:>8.3f} {value:>8.3f} {ratio:>6.2f}{flag}")
    print(f"{len(off)} of {len(TABLE)} entries differ by more than 15%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
