"""lobkit benchmark: times the CLI walk of a workload and checks its outputs.

    python3 perfbench/run.py --workload deep-day --seed 0 --seconds 35 --trace 0

--trace 0 runs whole walks untraced until --seconds have passed and prints
the end-to-end metrics. --trace 1 alternates an untraced and a traced walk
of the same day and prints the per-layer metrics from the traced walks.
--workload all runs every workload, one process each. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Metric names, units and directions come from BENCHMARK.json.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads, identically on every run: the forward and
# backward matmuls depend on the BLAS thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

T_PROCESS = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_WALKS = 2  # walks 0 and 1 share a day, so every run checks parity
WORKLOAD_NAMES = ("deep-day", "recon-walk", "predict-walk")
PERCENTILES = (99.9, 99, 90, 50)


def setup(workdir: Path) -> Calibration:
    """Imports, the work directory and the warm-up; returns the calibration
    the run times around every command."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np

    import lobkit.cli  # noqa: F401
    import tracer  # noqa: F401
    import walks  # noqa: F401

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = np.random.default_rng(0)
    # one training-shaped matmul, so BLAS is loaded before the first command
    rng.random((64, 4000)) @ rng.random((4000, 256))
    # Freeing one mmapped 24 MB block raises glibc's mmap threshold, as a
    # process's first training walk otherwise does; without this, that first
    # walk trained about 25 % slower than the ones after it.
    block = np.ones(3 << 20)
    del block
    return Calibration()


def setup_probes(workload: str) -> list[float]:
    """Wall seconds of SETUP_REPEATS fresh processes, each from its start
    until setup() returns."""
    times = []
    for i in range(SETUP_REPEATS):
        probe = WORK / f"{workload}.probe{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-probe", str(probe)],
                       check=True)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(probe, ignore_errors=True)
    return times


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_threads_pinned": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def _blas_threads(np) -> int | None:
    """The thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Calibration:
    """A fixed mix of interpreter and NumPy work, timed around every command
    to track how fast the machine runs during the walk: dict scans like the
    engine's, two Adam-like steps over two 32 MB arrays (together with the
    neighbours' traffic they spill the shared cache, as Adam does), small
    matmuls. Its arrays stay allocated, so it adds a constant to peak RSS
    instead of a peak of its own."""

    CHUNK = 1 << 17  # doubles per in-place slice: no 32 MB temporaries

    def __init__(self):
        import numpy as np

        self.a, self.b = np.ones(4 << 20), np.full(4 << 20, 2.0)
        self.t = np.empty(self.CHUNK)
        self.x, self.w = np.ones((64, 2000)), np.ones((2000, 256))

    def __call__(self) -> float:
        import numpy as np

        a, b, t = self.a, self.b, self.t
        t0 = time.perf_counter()
        levels: dict[int, list[int]] = {}
        for i in range(20000):
            levels.setdefault((i * 7919) % 4001, []).append(i)
        for _ in range(40):
            min(levels)
            max(levels)
        for _ in range(2):
            for start in range(0, a.size, self.CHUNK):
                part = slice(start, start + self.CHUNK)
                np.subtract(b[part], a[part], out=t)
                t *= 1e-3
                a[part] += t
        for _ in range(4):
            self.x @ self.w
        return time.perf_counter() - t0


# --------------------------------------------------------------- statistics

def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g}={q[round(p * 10) - 1]:.6g}"
    return "no percentile with 10 samples beyond it"


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def show(name: str, unit: str, values, note: str = "") -> float:
    """Print one metric line: median, unit, sample count and tail."""
    value = median(values)
    print(f"  {name:<32} {value:>14.6g} {unit:<8} n={len(values):<3} "
          f"{tail(values) if len(values) > 1 else ''} {note}".rstrip())
    return value


def more(t0: float, seconds: float, durations) -> bool:
    """Whether to start another walk: runs end within half a walk of
    --seconds, on average at --seconds."""
    return time.perf_counter() - t0 + median(durations) / 2 < seconds


# ---------------------------------------------------------------- workloads

class Run:
    """Walks of one workload run, with parity across walks of one day."""

    def __init__(self, workload: str, seed: int, workdir: Path, calibrate):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.calibrate = calibrate
        self.walks = []
        self.first_digests: dict[int, dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def walk(self, main, index: int, seed: int, on_command=None):
        import walks

        calibration = []

        def before(command: str):
            calibration.append(self.calibrate())
            if on_command is not None:
                on_command(command)

        w = walks.run_walk(main, self.workload, seed,
                           self.workdir / f"walk{index}", before)
        calibration.append(self.calibrate())
        w.calibration_s = median(calibration)
        self.walks.append(w)
        self.attempted += w.attempted
        self.failures += [f"day {seed}: {f}" for f in w.failures]
        if not w.failures:
            self.attempted += 1  # byte parity with the first walk of the day
            first = self.first_digests.setdefault(seed, w.digests)
            if w.digests != first:
                diff = sorted(k for k in first if w.digests.get(k) != first[k])
                self.failures.append(f"day {seed}: not byte-identical: {diff}")
        return w

    def write_digests(self):
        lines = [f"{seed} {rel} {sha}"
                 for seed, digests in sorted(self.first_digests.items())
                 for rel, sha in sorted(digests.items())]
        path = self.workdir / "digests.txt"
        path.write_text("\n".join(lines) + "\n")
        print(f"digests: {path.relative_to(ROOT)}")
        for seed, digests in sorted(self.first_digests.items()):
            joined = "".join(f"{r}={s}\n" for r, s in sorted(digests.items()))
            combined = hashlib.sha256(joined.encode()).hexdigest()
            print(f"  day {seed}: {len(digests)} artifacts, "
                  f"sha256 of list {combined}")

    def result(self, metrics: dict) -> dict:
        for f in self.failures:
            print(f"FAILED {f}")
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }


def untraced(run: Run, seconds: float, setup_s: list[float], spec) -> dict:
    import walks
    from lobkit.cli import main

    t0 = time.perf_counter()
    i = 0
    while i < MIN_WALKS or more(t0, seconds, [w.walk_s for w in run.walks]):
        w = run.walk(main, i, walks.day_seed(run.seed, max(0, i - 1)))
        print(f"walk {i} day {w.seed}: walk_s={w.walk_s:.4f} "
              f"calibration_s={w.calibration_s:.4f} " + " ".join(
            f"{c}={t:.4f}" for c, t in w.seconds.items()), flush=True)
        i += 1
    good = [w for w in run.walks if not w.failures]
    print(f"end-to-end, {len(good)} of {len(run.walks)} walks (median, unit, "
          f"sample count, tail); *_cal is *_s over the calibration_s of the "
          f"same walk")
    m = {"setup_s": show("setup_s", "s", setup_s, "(fresh processes)")}

    def timing(name: str, per_walk):
        """Show a per-walk timing raw and in calibration units."""
        raw = [per_walk(w) for w in good]
        m[f"{name}_s"] = show(f"{name}_s", "s", raw)
        m[f"{name}_cal"] = show(f"{name}_cal", "cal", [
            r / w.calibration_s for r, w in zip(raw, good)])

    show("calibration_s", "s", [w.calibration_s for w in good],
         "(fixed work around each command, median per walk)")
    timing("walk", lambda w: w.walk_s)
    for command in ("generate", "build", "preprocess", "train", "evaluate",
                    "transfer"):
        if good and command in good[0].seconds:
            timing(command, lambda w, c=command: w.seconds[c])
    gen_build = [w.seconds["generate"] + w.seconds["build"] for w in good]
    m["orders_per_s"] = show(
        "orders_per_s", "1/s",
        [w.values["orders"] / t for w, t in zip(good, gen_build)],
        f"(day 0: {good[0].values['orders'] if good else 0} orders)")
    m["orders_per_cal"] = show("orders_per_cal", "1/cal", [
        w.values["orders"] / t * w.calibration_s
        for w, t in zip(good, gen_build)])
    if good and "windows" in good[0].values:
        m["train_windows_per_s"] = show(
            "train_windows_per_s", "1/s",
            [w.values["windows"] / w.seconds["train"] for w in good],
            f"(day 0: {good[0].values['windows']} windows x epochs)")
    for key, name, unit in (("mse", "eval_mse", "mse"),
                            ("accuracy", "eval_accuracy", "ratio")):
        if good and key in good[0].values:
            m[name] = good[0].values[key]
            print(f"  {name:<32} {m[name]:>14.6g} {unit:<8} "
                  f"(report.txt of day {good[0].seed}; deterministic)")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m["peak_rss_mb"] = show("peak_rss_mb", "MB", [peak])
    m["failed_ratio"] = len(run.failures) / run.attempted
    print(f"  {'failed_ratio':<32} {m['failed_ratio']:>14.6g} ratio    "
          f"({len(run.failures)} of {run.attempted} commands and checks)")
    run.write_digests()
    return run.result({k: {"value": m[k], "unit": u} for k, u in spec})


def traced(run: Run, seconds: float, spec) -> dict:
    import walks
    from lobkit.cli import main
    from tracer import TIMING_UNITS, Tracer

    tr = Tracer()

    def traced_walk(index: int, seed: int):
        # installed only around this walk, so the untraced walks run plain
        tr.new_walk()
        tr.install()
        try:
            w = run.walk(tr.main, index, seed,
                         on_command=lambda c: tr.invoke(run.workload, seed, c))
        finally:
            tr.uninstall()
        return w, tr.walk_metrics()

    pairs = []  # (untraced walk, traced walk, per-layer metrics)
    t0 = time.perf_counter()
    j = 0
    while j == 0 or more(t0, seconds,
                         [p[0].walk_s + p[1].walk_s for p in pairs]):
        seed = walks.day_seed(run.seed, j)
        # alternate which goes first, so neither always runs after the other
        if j % 2 == 0:
            plain = run.walk(main, 2 * j, seed)
            marked, layers = traced_walk(2 * j + 1, seed)
        else:
            marked, layers = traced_walk(2 * j, seed)
            plain = run.walk(main, 2 * j + 1, seed)
        if not (plain.failures or marked.failures):
            pairs.append((plain, marked, layers))
        j += 1
    for name in tr.missing:
        print(f"trace: {name} not found; its metrics fall back or read 0")
    tr.save(run.workdir / "spans.npz")
    print(f"spans: {len(tr.span_name)} written to "
          f"{(run.workdir / 'spans.npz').relative_to(ROOT)}")
    if not pairs:
        return run.result({})

    per_walk = [p[2] for p in pairs]
    overhead = [(t.walk_s / t.calibration_s) / (u.walk_s / u.calibration_s)
                - 1 for u, t, _ in pairs]
    units = dict(spec)
    print(f"per-layer, {len(pairs)} traced walks; timings are medians over "
          f"them, counts are of day {pairs[0][1].seed} and repeat exactly:")
    values = {}
    for name in per_walk[0]:
        unit = units.get(name, "")
        if unit in TIMING_UNITS:
            values[name] = show(name, unit, [w[name] for w in per_walk])
        else:
            values[name] = per_walk[0][name]
            print(f"  {name:<32} {values[name]:>14.6g} {unit:<8} (count)")
    values["trace.overhead_ratio"] = show(
        "trace.overhead_ratio", "ratio", overhead,
        "(traced walk_cal / untraced walk_cal - 1)")
    for u, t, _ in pairs:
        print(f"  day {t.seed}: untraced walk_s={u.walk_s:.4f} "
              f"traced walk_s={t.walk_s:.4f}")
    walk_s = median([t.walk_s for _, t, _ in pairs])
    print(f"shares of traced walk_s ({walk_s:.4f} s):")
    for name in ("engine.submit_s.generate", "engine.submit_s.replay",
                 "models.adam_s", "metrics.loss_s", "models.forward_s",
                 "models.backward_s", "sampling.snapshot_s", "book.validate_s"):
        print(f"  {name:<32} {values[name] / walk_s:>8.1%}")
    commands = pairs[0][1].seconds
    if "train" in commands and "transfer" not in commands:
        train_s = median([t.seconds["train"] for _, t, _ in pairs])
        print(f"shares of traced train_s ({train_s:.4f} s):")
        for name in ("models.adam_s", "models.backward_s", "metrics.loss_s",
                     "models.forward_s", "models.train_self_s"):
            print(f"  {name:<32} {values[name] / train_s:>8.1%}")
    run.write_digests()
    return run.result({k: {"value": values[k], "unit": u} for k, u in spec})


def run_all(args) -> int:
    """Every workload in its own process; metrics are prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"{workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{workload}.{k}"] = v
    print(json.dumps(total))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (ROOT / "src" / "lobkit" / "cli.py").is_file():
        print(f"error: no lobkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(Path(args.setup_probe))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    spec = [(m["name"], m["unit"]) for m in bench[key]]
    workdir = WORK / args.workload
    calibrate = setup(workdir)
    own_setup = time.perf_counter() - T_PROCESS
    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: closed loop, one "
          f"caller, lobkit.cli.main in this process; own setup "
          f"{own_setup:.4f} s")
    (workdir / "environment.json").write_text(json.dumps(env, indent=1))

    run = Run(args.workload, args.seed, workdir, calibrate)
    if args.trace:
        result = traced(run, args.seconds, spec)
    else:
        result = untraced(run, args.seconds, setup_probes(args.workload),
                          spec)
    (workdir / "result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
