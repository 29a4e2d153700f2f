"""Command-line pipeline: generate -> build -> preprocess -> train -> evaluate,
plus frozen-encoder transfer.

Every command is deterministic given its inputs, config and seed; outputs
carry the resolved config and input hashes (never timestamps or absolute
paths), so re-runs are byte-identical. Exit codes: 0 success, 2 validation
failure, 3 I/O failure, 4 numeric abort.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import io as lio
from .book import DEFAULT_LEVELS, BookError, mid_prices
from .metrics import (
    WEIGHTS,
    LossConfig,
    MetricError,
    prediction_report,
    report,
    transfer_report,
)
from .models import (
    HEAD_KINDS,
    IMPUTATION,
    PREDICTION,
    RECONSTRUCTION,
    ConfigError,
    LinearAutoencoder,
    NumericError,
    TaskHead,
    TrainConfig,
    encode_windows,
    finetune_frozen,
    predict,
    predict_labels,
    train,
)
from .preprocess import (
    LabelConfig,
    PreprocessError,
    Windows,
    balance_classes,
    fit_feature_stats,
    fit_group_stats,
    label_trend,
    make_windows,
    mask_for_imputation,
    normalize,
    split_train_test,
    window_view,
)
from .sampling import SamplingError, SessionCalendar
from .synth import PROFILES, generate_day, replay_check


def _out_path(p: str) -> Path:
    """The argparse type of every path flag: rooted under LOBKIT_OUT."""
    root = os.environ.get("LOBKIT_OUT")
    path = Path(p)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _blocks_str(blocks) -> str:
    return ",".join(f"{a}:{b}" for a, b in blocks)


# ----------------------------------------------------------------- commands

def cmd_generate(args) -> int:
    stream = generate_day(PROFILES[args.profile], args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    lio.write_flow(stream, args.out)
    return 0


def cmd_build(args) -> int:
    stream = lio.read_flow(args.flow)
    calendar = SessionCalendar()
    data, _ = replay_check(stream, calendar, l=args.levels)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    lio.save_tensor(args.out, data)
    lio.write_kv(args.out.with_suffix(".meta.txt"), {"series": {
        "instrument": stream.profile,
        "day": args.day,
        "levels": args.levels,
        "snapshots": len(data),
        "blocks": _blocks_str(calendar.blocks()),
        "flow_file": args.flow.name,
        "flow_sha256": lio.file_sha256(args.flow),
    }})
    return 0


def _split_blocks(blocks, cut):
    """Session blocks of the rows before cut, and of the rows from cut on."""
    return ([(a, min(b, cut)) for a, b in blocks if a < cut],
            [(max(a, cut) - cut, b - cut) for a, b in blocks if b > cut])


def _read_rows(path: Path, meta_path: Path, section: str, blocks_key: str,
               keys=()):
    """The rows in path, the [section] of meta_path, its levels l and the
    session blocks under blocks_key. Exits 2 naming meta_path when a key,
    one of keys too, is missing, when levels or the blocks are not whole
    numbers, when the rows are not (N, 4l), or unless the blocks a:b are
    ordered, disjoint and 0 <= a < b <= N; and at a non-finite row value."""
    rows, name = lio.load_tensor(path), meta_path.name
    meta = lio.read_kv(meta_path).get(section, {})
    for key in ("levels", blocks_key, *keys):
        if key not in meta:
            raise PreprocessError(f"{name}: [{section}] has no {key}")
    try:
        levels = int(meta["levels"])
    except ValueError:
        raise PreprocessError(f"{name}: levels = {meta['levels']} is not a "
                              "whole number") from None
    if rows.ndim != 2 or rows.shape[1] != 4 * levels:
        raise PreprocessError(
            f"{name}: levels = {levels} needs {4 * levels} columns, "
            f"but {path.name} has shape {rows.shape}")
    i = lio.first_non_finite(rows)
    if i is not None:
        row, col = divmod(i, rows.shape[1])
        raise lio.FormatError(
            f"{path.name}: row {row}, column {col} holds "
            f"{float(rows[row, col])!r}, not a finite value",
            offset=lio.element_offset(2, i))
    value = meta[blocks_key]
    try:
        blocks = [(int(a), int(b))
                  for a, b in (part.split(":") for part in value.split(","))]
    except ValueError:  # not whole numbers, or not a:b
        blocks = []
    ends = [0] + [b for _, b in blocks]
    if not blocks or not all(end <= a < b <= len(rows)
                             for end, (a, b) in zip(ends, blocks)):
        raise PreprocessError(
            f"{name}: {blocks_key} = {value} must be ordered, disjoint "
            f"blocks a:b of whole numbers with 0 <= a < b <= {len(rows)} "
            f"(the rows of {path.name})")
    return rows, meta, levels, blocks


def _block_labels(series_raw, blocks, label_cfg):
    """Per-snapshot trend labels (NaN where the lookahead is unavailable or
    would cross a session-block boundary)."""
    labels = np.full(series_raw.shape[0], np.nan)
    for a, b in blocks:
        mids = mid_prices(series_raw[a:b])
        for t in range(b - a - label_cfg.horizon):
            labels[a + t] = label_trend(mids, t, label_cfg)
    return labels


def cmd_preprocess(args) -> int:
    raw, meta, levels, blocks = _read_rows(
        args.series, args.series.with_suffix(".meta.txt"), "series",
        "blocks", keys=("instrument", "day"))
    train_raw, test_raw = split_train_test(raw)
    cut = train_raw.shape[0]
    train_blocks, test_blocks = _split_blocks(blocks, cut)

    fit = fit_group_stats if args.scheme == "global" else fit_feature_stats
    stats = fit(train_raw if args.scope == "train" else raw)

    label_cfg = LabelConfig(horizon=args.horizon, delta=args.delta)
    args.out.mkdir(parents=True, exist_ok=True)
    lio.save_tensor(args.out / "train_series.bin", normalize(train_raw, stats))
    lio.save_tensor(args.out / "test_series.bin", normalize(test_raw, stats))
    lio.save_tensor(
        args.out / "train_labels.bin",
        _block_labels(train_raw, train_blocks, label_cfg),
    )
    lio.save_tensor(
        args.out / "test_labels.bin",
        _block_labels(test_raw, test_blocks, label_cfg),
    )
    lio.write_kv(args.out / "norm_stats.txt", {"norm": {
        "scheme": stats.scheme,
        "scope": args.scope,
        "levels": stats.levels,
        "mu": ",".join(map(repr, stats.mu.tolist())),
        "sigma": ",".join(map(repr, stats.sigma.tolist())),
    }})
    lio.write_kv(args.out / "meta.txt", {"preprocess": {
        "scheme": args.scheme,
        "scope": args.scope,
        "levels": levels,
        "instrument": meta["instrument"],
        "day": meta["day"],
        "label_horizon": label_cfg.horizon,
        "label_delta": repr(label_cfg.delta),
        "train_snapshots": train_raw.shape[0],
        "test_snapshots": test_raw.shape[0],
        "train_blocks": _blocks_str(train_blocks),
        "test_blocks": _blocks_str(test_blocks),
        "series_file": args.series.name,
        "series_sha256": lio.file_sha256(args.series),
    }})
    return 0


def _load_split(data_dir: Path, split: str, T: int, step: int, labeled=False):
    """The split's windows (none crossing a session block), each carrying
    the label of its last row: NaN where that row has none, or, if labeled,
    only the windows that carry one, with int labels; and the split's
    levels. Exits 2 at the first label that is not -1, 0, 1 or NaN."""
    series, _, levels, blocks = _read_rows(
        data_dir / f"{split}_series.bin", data_dir / "meta.txt",
        "preprocess", f"{split}_blocks")
    labels = lio.load_tensor(data_dir / f"{split}_labels.bin")
    if labels.shape != (len(series),):
        raise PreprocessError(
            f"{split}_labels.bin has shape {labels.shape}, but "
            f"{split}_series.bin has {len(series)} rows")
    bad = np.flatnonzero(~(np.isnan(labels) | np.isin(labels, (-1, 0, 1))))
    if len(bad):
        row = int(bad[0])
        raise lio.FormatError(
            f"{split}_labels.bin: row {row} holds {float(labels[row])!r}, "
            "not a trend label -1, 0, 1 or NaN",
            offset=lio.element_offset(labels.ndim, row))
    if len(series) < T:
        raise PreprocessError(f"{split} split has {len(series)} rows, fewer "
                              f"than the window T={T}")
    starts = make_windows(series, T=T, step=step, blocks=blocks)
    windows = Windows(window_view(series, T), starts, labels[starts + T - 1])
    windows = _labeled(windows) if labeled else windows
    if not windows:
        raise PreprocessError(f"{split} split has no {'labeled ' * labeled}"
                              f"window of T={T} inside a session block")
    return windows, levels


def _labeled(windows: Windows) -> Windows:
    """The windows that carry a label, with int labels."""
    keep = ~np.isnan(windows.labels)
    return Windows(windows.view, windows.starts[keep],
                   windows.labels[keep].astype(int))


def _prepare_task_data(windows: Windows, task, seed, mask_ratio):
    if task == PREDICTION:
        return windows.take(balance_classes(windows.labels, seed))
    if task == IMPUTATION:
        masks = mask_for_imputation(len(windows), windows.view.shape[1],
                                    ratio=mask_ratio, seed=seed)
        return Windows(windows.view, windows.starts, masks=masks)
    return windows


def _loss_config(args) -> LossConfig:
    return LossConfig(alpha=args.alpha, lam=args.lam, weights=args.weights)


def _model_arrays(model, head, T, levels):
    meta = {"relu": model.relu, "input_dim": model.input_dim,
            "latent": model.latent, "T": T, "levels": levels,
            "head_kind": HEAD_KINDS.index(head.kind)}
    return {**model.params, **head.params,
            **{f"meta.{k}": np.array(float(v)) for k, v in meta.items()}}


def _write_record(args, items):
    """report.txt, the (name, value) items as key=repr(value), and
    config.txt, in --out."""
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "report.txt").write_text(
        " ".join(f"{k}={v!r}" for k, v in items) + "\n")
    _write_config(args)


def _write_config(args):
    """config.txt: every parsed flag but --out, in parser order, floats by
    repr and input paths by the last name of their absolute path (symlinks
    kept), so `--data .` records the directory's name; a checkpoint read
    adds its sha256."""
    entries = {}
    for key, val in vars(args).items():
        if key in ("command", "func", "out"):
            continue
        if key in ("data", "checkpoint"):
            val = os.path.basename(os.path.abspath(val))
        entries[key] = repr(val) if isinstance(val, float) else val
    if "checkpoint" in entries:
        entries["checkpoint_sha256"] = lio.file_sha256(args.checkpoint)
    lio.write_kv(args.out / "config.txt", {args.command: entries})


def _meta_int(arrays, name: str, key: str, lo: int, hi: float = np.inf):
    """The checkpoint's meta.<key>: one finite whole number in [lo, hi]."""
    field = f"meta.{key}"
    if field not in arrays:
        raise lio.FormatError(f"{name}: missing {field}", field=field)
    a = np.asarray(arrays[field])
    v = float(a.ravel()[0]) if a.size == 1 else np.nan
    if not (np.isfinite(v) and v == int(v) and lo <= v <= hi):
        raise lio.FormatError(
            f"{name}: {field} must be one whole number in [{lo}, {hi}], "
            f"got {a.ravel().tolist()}", field=field)
    return int(v)


def _load_model(path: Path):
    """The checkpoint's model, head, T and levels, its values checked
    finite as it loads and its metadata and shapes checked against each
    other; an array that meta.head_kind's task does not read is
    rejected."""
    arrays, name = lio.load_checkpoint(path), path.name
    d, k, T, levels = (_meta_int(arrays, name, key, 1) for key in
                       ("input_dim", "latent", "T", "levels"))
    relu = _meta_int(arrays, name, "relu", 0, 1)
    kind = HEAD_KINDS[_meta_int(arrays, name, "head_kind", 0, 2)]
    if d != T * 4 * levels:
        raise lio.FormatError(
            f"{name}: meta.input_dim = {d}, but meta.T * 4 * meta.levels = "
            f"{T * 4 * levels}", field="meta.input_dim")
    out_dim = 3 if kind == PREDICTION else d
    shapes = {"enc.W": (d, k), "enc.b": (k,), "head.W": (k, out_dim),
              "head.b": (out_dim,)}
    stray = [key for key in arrays if key not in shapes and key not in (
        "meta.input_dim", "meta.latent", "meta.T", "meta.levels",
        "meta.relu", "meta.head_kind")]
    if stray:
        raise lio.FormatError(
            f"{name}: {stray[0]} is not read by the {kind} task",
            field=stray[0])
    for key, shape in shapes.items():
        got = arrays[key].shape if key in arrays else "missing"
        if got != shape:
            raise lio.FormatError(
                f"{name}: {key} is {got}, but meta.input_dim = {d} and "
                f"meta.latent = {k} need shape {shape}", field=key)
    model = LinearAutoencoder.from_params(arrays, bool(relu))
    return model, TaskHead.from_params(kind, arrays), T, levels


def _check_levels(args, levels: int, data_levels):
    """Reject a checkpoint trained on rows of another level count."""
    if levels != data_levels:
        raise PreprocessError(
            f"{args.checkpoint.name} has meta.levels = {levels}, but "
            f"{args.data.name}/meta.txt has levels = {data_levels}")


def cmd_train(args) -> int:
    task = args.task
    windows, levels = _load_split(args.data, "train", args.window, args.step,
                                  labeled=task == PREDICTION)
    data = _prepare_task_data(windows, task, args.seed, args.mask_ratio)
    input_dim = args.window * 4 * levels

    # one Generator: the reconstruction head (decoder) draws after enc.W
    rng = np.random.default_rng(args.seed)
    model = LinearAutoencoder(input_dim=input_dim, latent=args.latent,
                              relu=args.relu, seed=rng)
    head = TaskHead(task, latent=args.latent,
                    out_dim=3 if task == PREDICTION else input_dim,
                    seed=rng if task == RECONSTRUCTION else args.seed + 1)
    cfg = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        seed=args.seed, loss=_loss_config(args),
        clip_norm=args.clip_norm,
    )
    trace = train(model, head, data, cfg)

    args.out.mkdir(parents=True, exist_ok=True)
    lio.save_checkpoint(args.out / "checkpoint.bin",
                        _model_arrays(model, head, args.window, levels))
    (args.out / "trace.txt").write_text(
        "".join(f"epoch={i} loss={v!r}\n" for i, v in enumerate(trace))
    )
    _write_config(args)
    return 0


def cmd_evaluate(args) -> int:
    model, head, T, levels = _load_model(args.checkpoint)
    windows, data_levels = _load_split(args.data, args.split, T, args.step,
                                       labeled=head.kind == PREDICTION)
    _check_levels(args, levels, data_levels)
    cfg = _loss_config(args)  # rejected for every task, read by report

    if head.kind == PREDICTION:
        items = prediction_report(head.forward(encode_windows(model, windows)),
                                  windows.labels)
    else:
        data = _prepare_task_data(windows, head.kind, args.seed,
                                  args.mask_ratio)
        items = report(predict(model, head, data), cfg)
    _write_record(args, items)
    return 0


def cmd_transfer(args) -> int:
    model, head, T, levels = _load_model(args.checkpoint)
    if head.kind != PREDICTION:
        raise PreprocessError("transfer requires a prediction checkpoint")
    windows, data_levels = _load_split(args.data, "train", T, args.step,
                                       labeled=True)
    _check_levels(args, levels, data_levels)
    data = windows.take(balance_classes(windows.labels, args.seed))

    usable = _load_split(args.data, "test", T, args.step, labeled=True)[0]
    latents = encode_windows(model, usable)
    before = predict_labels(head, latents)

    encoder_sha256 = {k: hashlib.sha256(model.params[k]).digest()
                      for k in ("enc.W", "enc.b")}
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                      lr=args.lr, seed=args.seed)
    finetune_frozen(model, head, data, cfg, budget=args.budget)
    for k, digest in encoder_sha256.items():
        if hashlib.sha256(model.params[k]).digest() != digest:
            raise RuntimeError(f"frozen fine-tune changed {k}")

    after = predict_labels(head, latents)
    _write_record(args, [("budget", args.budget),
                         *transfer_report(usable.labels, before, after)])
    # head-only delta checkpoint
    arrays = _model_arrays(model, head, T, levels)
    lio.save_checkpoint(args.out / "head_delta.bin", {
        k: arrays[k]
        for k in ("head.W", "head.b", "meta.head_kind", "meta.latent")})
    return 0


# -------------------------------------------------------------------- parser

def _bounded(cast, ok, bound: str):
    """An argparse type: cast the string, with argparse's own message for
    one that does not parse, then require ok(value)."""
    def parse(s: str):
        try:
            v = cast(s)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {s!r}") from None
        if not ok(v):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {v}")
        return v
    return parse


# --seed seeds NumPy, which takes no negative seed, and --day numbers a
# trading day; --mask-ratio is checked for every task, not only where masks
# are drawn.
_nonnegative_int = _bounded(int, lambda v: v >= 0, ">= 0")
_mask_ratio = _bounded(float, lambda v: 0 < v < 1, "in (0, 1)")


def _add_fit_flags(p):
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--seed", type=_nonnegative_int, default=TrainConfig.seed)


def _add_loss_flags(p):
    p.add_argument("--alpha", type=float, default=LossConfig.alpha)
    p.add_argument("--lam", type=float, default=LossConfig.lam)
    p.add_argument("--weights", choices=WEIGHTS, default=LossConfig.weights)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lobkit",
        description="LOB benchmarking pipeline (synthetic flow -> book replay"
                    " -> preprocessing -> reference models)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize one day of order flow")
    p.add_argument("--profile", choices=sorted(PROFILES), required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="replay flow into a sampled day series")
    p.add_argument("--flow", type=_out_path, required=True)
    p.add_argument("--levels", type=int, default=DEFAULT_LEVELS)
    p.add_argument("--day", type=_nonnegative_int, default=0)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("preprocess",
                       help="split, normalize and label a day series")
    p.add_argument("--series", type=_out_path, required=True)
    p.add_argument("--scheme", choices=["global", "feature"],
                   default="global")
    p.add_argument("--scope", choices=["train", "all"], default="train")
    p.add_argument("--horizon", type=int, default=LabelConfig.horizon)
    p.add_argument("--delta", type=float, default=LabelConfig.delta)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a reference model")
    p.add_argument("--data", type=_out_path, required=True)
    p.add_argument("--task", choices=sorted(HEAD_KINDS), required=True)
    _add_fit_flags(p)
    p.add_argument("--window", type=int, default=100)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--latent", type=int, default=256)
    p.add_argument("--relu", action="store_true")
    p.add_argument("--mask-ratio", type=_mask_ratio, default=0.2)
    p.add_argument("--clip-norm", type=float, default=TrainConfig.clip_norm)
    _add_loss_flags(p)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="write metric records for a checkpoint")
    p.add_argument("--data", type=_out_path, required=True)
    p.add_argument("--checkpoint", type=_out_path, required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--mask-ratio", type=_mask_ratio, default=0.2)
    _add_loss_flags(p)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("transfer",
                       help="frozen-encoder fine-tune on a target dataset")
    p.add_argument("--checkpoint", type=_out_path, required=True)
    p.add_argument("--data", type=_out_path, required=True)
    p.add_argument("--budget", type=int, default=100)
    _add_fit_flags(p)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_transfer)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (lio.FormatError, PreprocessError, BookError, MetricError,
            SamplingError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
