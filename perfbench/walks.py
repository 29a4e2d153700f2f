"""The three workloads: CLI command sequences, their timings and output checks.

A walk is one complete command sequence of a workload on one synthetic day.
Commands go through ``lobkit.cli.main`` in this process, one after another
(closed loop, one caller). After every command the walk checks its exit code
and its artifacts; every artifact of the walk is digested with sha256 so that
two walks of the same day can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SNAPSHOTS, COLUMNS = 4740, 40
TRAIN_ROWS, TEST_ROWS = 3792, 948
WINDOW = 100  # the CLI default --window; windows are counted with it

RECON_EPOCHS = 2
PREDICT_EPOCHS = 2
TRANSFER_BUDGET = 300

WORKLOADS = {
    "deep-day": "sz000858",
    "recon-walk": "sz000001",
    "predict-walk": "sz000001",
}

# Artifacts each command leaves, relative to the walk directory.
ARTIFACTS = {
    "generate": ["flow.csv"],
    "build": ["series.bin", "series.meta.txt"],
    "preprocess": [
        "data/train_series.bin", "data/test_series.bin",
        "data/train_labels.bin", "data/test_labels.bin",
        "data/norm_stats.txt", "data/meta.txt",
    ],
    "train": ["run/checkpoint.bin", "run/trace.txt", "run/config.txt"],
    "evaluate": ["eval/report.txt", "eval/config.txt"],
    "transfer": ["xfer/head_delta.bin", "xfer/report.txt", "xfer/config.txt"],
}


def day_seed(seed: int, index: int) -> int:
    """Seed of the index-th day of a run: consecutive seeds from seed*1000."""
    return seed * 1000 + index


def commands(workload: str, seed: int, d: Path) -> list[tuple[str, list[str]]]:
    """The workload's command sequence for one day, as (name, argv) pairs."""
    s = str(seed)
    cmds = [
        ("generate", ["generate", "--profile", WORKLOADS[workload],
                      "--seed", s, "--out", str(d / "flow.csv")]),
        ("build", ["build", "--flow", str(d / "flow.csv"),
                   "--out", str(d / "series.bin")]),
        ("preprocess", ["preprocess", "--series", str(d / "series.bin"),
                        "--out", str(d / "data")]),
    ]
    ckpt = str(d / "run" / "checkpoint.bin")
    evaluate = ("evaluate", ["evaluate", "--data", str(d / "data"),
                             "--checkpoint", ckpt, "--seed", s,
                             "--out", str(d / "eval")])
    if workload == "recon-walk":
        cmds += [
            ("train", ["train", "--data", str(d / "data"),
                       "--task", "reconstruction",
                       "--epochs", str(RECON_EPOCHS), "--seed", s,
                       "--out", str(d / "run")]),
            evaluate,
        ]
    elif workload == "predict-walk":
        cmds += [
            ("train", ["train", "--data", str(d / "data"),
                       "--task", "prediction",
                       "--epochs", str(PREDICT_EPOCHS), "--seed", s,
                       "--out", str(d / "run")]),
            evaluate,
            ("transfer", ["transfer", "--checkpoint", ckpt,
                          "--data", str(d / "data"),
                          "--budget", str(TRANSFER_BUDGET), "--seed", s,
                          "--out", str(d / "xfer")]),
        ]
    return cmds


class CheckError(Exception):
    pass


def _tensor_shape(path: Path) -> tuple[int, ...]:
    """Shape of a tensor file, read from its header without lobkit, after
    checking that the payload has that many finite float64 values."""
    raw = path.read_bytes()
    if raw[:4] != b"LOBT":
        raise CheckError(f"{path.name}: bad magic")
    _version, ndim = struct.unpack_from("<II", raw, 4)
    dims = struct.unpack_from(f"<{ndim}I", raw, 12)
    payload = np.frombuffer(raw, dtype="<f8", offset=12 + 4 * ndim)
    if payload.size != math.prod(dims):
        raise CheckError(f"{path.name}: payload does not match {dims}")
    return tuple(dims)


def _finite_series(path: Path, shape: tuple[int, ...]):
    if _tensor_shape(path) != shape:
        raise CheckError(f"{path.name}: shape is not {shape}")
    raw = path.read_bytes()
    values = np.frombuffer(raw, dtype="<f8", offset=12 + 4 * len(shape))
    if not np.isfinite(values).all():
        raise CheckError(f"{path.name}: non-finite values")


def _report(path: Path) -> dict[str, float | None]:
    """key=value tokens of a report.txt; values finite, or None where the
    report documents an undefined statistic."""
    out = {}
    for token in path.read_text().split():
        key, sep, value = token.partition("=")
        if not sep:
            raise CheckError(f"{path.name}: token {token!r} is not key=value")
        if value == "None":
            out[key] = None
            continue
        v = float(value)
        if not math.isfinite(v):
            raise CheckError(f"{path.name}: {key} is not finite")
        out[key] = v
    if not out:
        raise CheckError(f"{path.name}: empty report")
    return out


def _count_orders(path: Path) -> int:
    with path.open() as f:
        return sum(1 for line in f if not line.startswith("#"))


def _train_windows(d: Path, task: str) -> int:
    """Windows one training epoch sees: WINDOW-row windows per session block
    of the train split; for prediction, the labeled ones balanced down to
    three times the smallest class."""
    blocks = []
    for line in (d / "data" / "meta.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "train_blocks":
            blocks = [tuple(map(int, b.split(":")))
                      for b in value.strip().split(",")]
    raw = (d / "data" / "train_labels.bin").read_bytes()
    labels = np.frombuffer(raw, dtype="<f8", offset=16)
    ends = [t for a, b in blocks for t in range(a + WINDOW - 1, b)]
    if task == "reconstruction":
        return len(ends)
    last = labels[ends]
    last = last[~np.isnan(last)]
    return 3 * min(int((last == c).sum()) for c in (-1, 0, 1))


def check(command: str, d: Path, workload: str) -> dict:
    """Output checks of one command; returns values read from its outputs."""
    for rel in ARTIFACTS[command]:
        if not (d / rel).is_file():
            raise CheckError(f"{rel} missing")
    if command == "generate":
        n = _count_orders(d / "flow.csv")
        if n == 0:
            raise CheckError("flow.csv holds no orders")
        return {"orders": n}
    if command == "build":
        _finite_series(d / "series.bin", (SNAPSHOTS, COLUMNS))
    elif command == "preprocess":
        _finite_series(d / "data/train_series.bin", (TRAIN_ROWS, COLUMNS))
        _finite_series(d / "data/test_series.bin", (TEST_ROWS, COLUMNS))
        if _tensor_shape(d / "data/train_labels.bin") != (TRAIN_ROWS,):
            raise CheckError("train_labels.bin: wrong length")
        if _tensor_shape(d / "data/test_labels.bin") != (TEST_ROWS,):
            raise CheckError("test_labels.bin: wrong length")
    elif command == "train":
        epochs = RECON_EPOCHS if workload == "recon-walk" else PREDICT_EPOCHS
        lines = (d / "run/trace.txt").read_text().splitlines()
        if len(lines) != epochs:
            raise CheckError(f"trace.txt has {len(lines)} epochs")
        for line in lines:
            loss = float(line.rpartition("loss=")[2])
            if not math.isfinite(loss):
                raise CheckError("trace.txt: non-finite loss")
        if (d / "run/checkpoint.bin").read_bytes()[:4] != b"LOBC":
            raise CheckError("checkpoint.bin: bad magic")
        task = "reconstruction" if workload == "recon-walk" else "prediction"
        return {"windows": _train_windows(d, task) * epochs}
    elif command == "evaluate":
        rep = _report(d / "eval/report.txt")
        key = "mse" if workload == "recon-walk" else "accuracy"
        if rep.get(key) is None:
            raise CheckError(f"report.txt has no {key}")
        return {key: rep[key]}
    elif command == "transfer":
        _report(d / "xfer/report.txt")
        if (d / "xfer/head_delta.bin").read_bytes()[:4] != b"LOBC":
            raise CheckError("head_delta.bin: bad magic")
    return {}


@dataclass
class Walk:
    """Timings, output values, digests and failures of one walk."""

    workload: str
    seed: int
    seconds: dict[str, float] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    calibration_s: float = 0.0  # the machine's speed around this walk

    @property
    def walk_s(self) -> float:
        return sum(self.seconds.values())


def run_walk(main, workload: str, seed: int, d: Path, on_command=None) -> Walk:
    """Run one walk in a fresh directory d, timing each command.

    main is lobkit.cli.main (or a traced wrapper of it). on_command(name) is
    called before each command starts. A failed command or check ends the
    walk; its failure is recorded, not raised.
    """
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    walk = Walk(workload, seed)
    for name, argv in commands(workload, seed, d):
        if on_command is not None:
            on_command(name)
        walk.attempted += 2  # the command, then the check of its outputs
        t0 = time.perf_counter()
        code = main(argv)
        walk.seconds[name] = time.perf_counter() - t0
        if code != 0:
            walk.failures.append(f"{name} exited {code}")
            break
        try:
            walk.values.update(check(name, d, workload))
        except (CheckError, OSError, ValueError) as exc:
            walk.failures.append(f"{name} check: {exc}")
            break
        for rel in ARTIFACTS[name]:
            walk.digests[rel] = hashlib.sha256((d / rel).read_bytes()).hexdigest()
    shutil.rmtree(d, ignore_errors=True)
    return walk
