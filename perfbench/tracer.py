"""Spans and counts around the calls into each lobkit module.

The tracer replaces public names where their caller looks them up (for
example ``lobkit.sampling.submit`` for the replay path, ``lobkit.synth.submit``
for the generate path) with wrappers that record a span: name, start, end,
parent span and the command invocation it belongs to. Spans are kept in
arrays in memory and written out by ``save``. Counts are read from the
arguments and return values of the wrapped calls, never from program state.

Three module-private helpers (``engine._match``, ``models._batch_forward``,
``models._batch_backward``) are wrapped when present; without them the
metrics they feed fall back to their parent span's self time.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import lobkit.book
import lobkit.cli
import lobkit.engine
import lobkit.io
import lobkit.models
import lobkit.sampling
import lobkit.synth

TIMING_UNITS = {"s", "ms", "us", "GB/s", "GFLOP/s"}
LEVELS = 10  # the CLI default --levels; a side thinner than this is padded
LOSS_NAMES = ("l_all", "l_all_gradient", "cross_entropy",
              "cross_entropy_gradient", "masked_mse", "masked_mse_gradient")


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Tracer:
    """Records spans and per-walk aggregates for the wrapped calls."""

    def __init__(self):
        self.names: list[str] = []
        self.invocations: list[tuple[str, int, str]] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_invocation = array("i")
        self._stack: list[list] = []  # [span index, seconds of children]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.new_walk()

    # ------------------------------------------------------------ recording

    def new_walk(self):
        """Start fresh per-walk aggregates (spans are kept across walks)."""
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list] = defaultdict(list)
        self._batch_start: float | None = None

    def invoke(self, workload: str, seed: int, command: str):
        """Spans recorded from now on belong to this command invocation."""
        self.invocations.append((workload, seed, command))

    def _wrap(self, name: str, fn, observe=None, on_start=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, invs = self.span_parent, self.span_invocation
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [len(names), 0.0]
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            invs.append(len(tracer.invocations) - 1)
            ends.append(0.0)
            stack.append(frame)
            if on_start is not None:
                on_start()
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[frame[0]] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_s[name] += dur - frame[1]
            if observe is not None:
                observe(args, kwargs, result, t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, observe=None, on_start=None):
        """Replace owner.attr by a span-recording wrapper, if it exists."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, fn, observe, on_start))
        return True

    def install(self):
        """Wrap the calls into every layer where their callers look them up."""
        cli, io, models = lobkit.cli, lobkit.io, lobkit.models
        self.missing = []
        self.main = self._wrap("cli.command", cli.main)
        # engine: split by caller
        self.patch(lobkit.synth, "submit", "engine.submit.generate")
        self.patch(lobkit.sampling, "submit", "engine.submit.replay",
                   observe=self._on_replay_submit)
        self.patch(lobkit.engine, "_match", "engine.match")
        # sampling and book
        if not self.patch(lobkit.sampling, "snapshot_padded",
                          "sampling.snapshot", observe=self._on_snapshot):
            self.patch(lobkit.sampling, "top_levels", "sampling.snapshot",
                       observe=self._on_snapshot)
        self.patch(lobkit.book, "validate_snapshot", "book.validate")
        # synth
        self.patch(cli, "generate_day", "synth.generate_day",
                   observe=lambda a, k, r, t: self.counts.update(
                       {"synth.orders": len(r.orders)}))
        self.patch(cli, "replay_check", "synth.replay_check")
        # io
        self.patch(io, "write_flow", "io.write_flow",
                   observe=lambda a, k, r, t: self.counts.update(
                       {"io.flow_bytes": Path(a[1]).stat().st_size}))
        self.patch(io, "read_flow", "io.read_flow")
        self.patch(io, "save_tensor", "io.tensor")
        self.patch(io, "load_tensor", "io.tensor")
        self.patch(io, "save_checkpoint", "io.checkpoint",
                   observe=lambda a, k, r, t: self.counts.update(
                       {"io.checkpoint_bytes": Path(a[0]).stat().st_size}))
        self.patch(io, "load_checkpoint", "io.checkpoint")
        # preprocess
        self.patch(cli, "normalize", "preprocess.normalize")
        self.patch(cli, "label_trend", "preprocess.label",
                   observe=lambda a, k, r, t: self.counts.update(
                       {f"preprocess.labels.{r:+d}": 1}))
        self.patch(cli, "make_windows", "preprocess.windows",
                   observe=lambda a, k, r, t: self.counts.update(
                       {"preprocess.windows": len(r)}))
        self.patch(cli, "balance_classes", "preprocess.balance",
                   observe=lambda a, k, r, t: self.counts.update(
                       {"preprocess.balance_in": len(a[0]),
                        "preprocess.balance_kept": len(r)}))
        # metrics: the training losses where models looks them up
        for loss in LOSS_NAMES:
            self.patch(models, loss, "metrics.loss")
        self.patch(cli, "report", "metrics.report")
        # models
        self.patch(cli, "train", "models.train")
        self.patch(models, "train", "models.train")
        self.patch(cli, "predict_labels", "models.predict")
        self.patch(models.AdamState, "update", "models.adam",
                   observe=self._on_adam)
        self.patch(models, "_batch_forward", "models.forward",
                   observe=self._on_forward,
                   on_start=self._on_batch_start)
        self.patch(models, "_batch_backward", "models.backward",
                   observe=self._on_backward)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # ------------------------------------------------------------- observers

    def _on_replay_submit(self, args, kwargs, result, t):
        order = args[1]
        c = self.counts
        c[f"engine.orders.{order.kind}"] += 1
        for ev in result[1]:
            c[f"engine.events.{ev.kind}"] += 1
            if ev.kind == "market_unfilled":
                c["engine.market_unfilled_volume"] += ev.volume

    def _on_snapshot(self, args, kwargs, result, t):
        book = args[0]
        bids, asks = len(book.bids), len(book.asks)
        self.samples["depth_bid"].append(bids)
        self.samples["depth_ask"].append(asks)
        if bids < LEVELS or asks < LEVELS:
            self.counts["sampling.padded"] += 1

    def _on_batch_start(self):
        self._batch_start = perf_counter()

    def _on_adam(self, args, kwargs, result, t):
        n = sum(int(g.size) for g in args[2].values())
        self.counts["models.adam_steps"] += 1
        self.counts["models.adam_param_updates"] += n
        self.samples["adam_params"].append(n)
        if self._batch_start is not None:
            self.samples["batch_ms"].append((t - self._batch_start) * 1e3)
            self._batch_start = None

    def _on_forward(self, args, kwargs, result, t):
        model, head, X = args[0], args[1], args[2]
        out_w = (model.params["dec.W"] if head is None
                 else head.params["head.W"])
        B, n_in = X.shape
        latent, n_out = out_w.shape
        self.counts["models.forward_flop"] += 2 * B * latent * (n_in + n_out)

    def _on_backward(self, args, kwargs, result, t):
        model, head, cache, GY, frozen = args[:5]
        X = cache[0]
        B, n_out = np.atleast_2d(GY).shape
        latent = model.latent
        flop = 4 * B * latent * n_out  # output-weight grad and latent grad
        if not frozen:
            flop += 2 * B * X.shape[1] * latent  # encoder-weight grad
        self.counts["models.backward_flop"] += flop

    # --------------------------------------------------------------- metrics

    def walk_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current walk."""
        tot, slf, calls, c = self.total, self.self_s, self.calls, self.counts
        sub_gen = tot["engine.submit.generate"]
        sub_rep = tot["engine.submit.replay"]
        submits = calls["engine.submit.generate"] + calls["engine.submit.replay"]
        match_s = (tot["engine.match"] if "engine.match" in self.names
                   else slf["engine.submit.generate"]
                   + slf["engine.submit.replay"])
        ok, miss = c["engine.events.cancel_ok"], c["engine.events.cancel_miss"]
        depth_bid, depth_ask = self.samples["depth_bid"], self.samples["depth_ask"]
        batches = c["models.adam_steps"]
        adam_bytes = 7 * 8 * c["models.adam_param_updates"]
        adam_s = tot["models.adam"]
        has_fwd = "models.forward" in self.names
        has_bwd = "models.backward" in self.names
        forward_s = tot["models.forward"] if has_fwd else slf["models.train"]
        backward_s = tot["models.backward"] if has_bwd else slf["models.train"]
        adam_params = self.samples["adam_params"]
        balance_in = c["preprocess.balance_in"]
        return {
            "engine.submit_calls": submits,
            "engine.submit_s.generate": sub_gen,
            "engine.submit_s.replay": sub_rep,
            "engine.us_per_order": (
                (sub_gen + sub_rep) / submits * 1e6 if submits else 0.0),
            "engine.match_s": match_s,
            "engine.orders.limit": c["engine.orders.limit"],
            "engine.orders.market": c["engine.orders.market"],
            "engine.orders.cancel": c["engine.orders.cancel"],
            "engine.trades": c["engine.events.trade"],
            "engine.rests": c["engine.events.rest"],
            "engine.cancel_ok": ok,
            "engine.cancel_miss": miss,
            "engine.market_unfilled_volume": c["engine.market_unfilled_volume"],
            "engine.cancel_hit_ratio": ok / (ok + miss) if ok + miss else 0.0,
            "book.depth_bid.p50": _percentile(depth_bid, 50),
            "book.depth_bid.max": max(depth_bid, default=0),
            "book.depth_ask.p50": _percentile(depth_ask, 50),
            "book.depth_ask.max": max(depth_ask, default=0),
            "book.validate_s": tot["book.validate"],
            "book.validate_calls": calls["book.validate"],
            "sampling.snapshot_s": tot["sampling.snapshot"],
            "sampling.snapshots": calls["sampling.snapshot"],
            "sampling.padded": c["sampling.padded"],
            "synth.generate_self_s": slf["synth.generate_day"],
            "synth.orders": c["synth.orders"],
            "synth.replay_check_self_s": slf["synth.replay_check"],
            "io.write_flow_s": tot["io.write_flow"],
            "io.read_flow_s": tot["io.read_flow"],
            "io.flow_bytes": c["io.flow_bytes"],
            "io.tensor_s": tot["io.tensor"],
            "io.checkpoint_s": tot["io.checkpoint"],
            "io.checkpoint_bytes": c["io.checkpoint_bytes"],
            "preprocess.normalize_s": tot["preprocess.normalize"],
            "preprocess.label_s": tot["preprocess.label"],
            "preprocess.label_calls": calls["preprocess.label"],
            "preprocess.labels.down": c["preprocess.labels.-1"],
            "preprocess.labels.flat": c["preprocess.labels.+0"],
            "preprocess.labels.up": c["preprocess.labels.+1"],
            "preprocess.windows_s": tot["preprocess.windows"],
            "preprocess.windows": c["preprocess.windows"],
            "preprocess.balance_s": tot["preprocess.balance"],
            "preprocess.balance_kept_ratio": (
                c["preprocess.balance_kept"] / balance_in if balance_in
                else 0.0),
            "metrics.loss_s": tot["metrics.loss"],
            "metrics.loss_calls_per_batch": (
                calls["metrics.loss"] / batches if batches else 0.0),
            "metrics.report_s": tot["metrics.report"],
            "models.batches": batches,
            "models.batch_ms.p50": _percentile(self.samples["batch_ms"], 50),
            "models.batch_ms.p90": _percentile(self.samples["batch_ms"], 90),
            "models.forward_s": forward_s,
            "models.backward_s": backward_s,
            "models.adam_s": adam_s,
            "models.adam_params": adam_params[0] if adam_params else 0,
            "models.adam_bytes_computed": adam_bytes,
            "models.adam_gbps": adam_bytes / adam_s / 1e9 if adam_s else 0.0,
            "models.forward_flop_computed": c["models.forward_flop"],
            "models.forward_gflops": (
                c["models.forward_flop"] / forward_s / 1e9
                if has_fwd and forward_s else 0.0),
            "models.backward_flop_computed": c["models.backward_flop"],
            "models.backward_gflops": (
                c["models.backward_flop"] / backward_s / 1e9
                if has_bwd and backward_s else 0.0),
            "models.train_self_s": slf["models.train"],
            "models.predict_s": tot["models.predict"],
            "cli.self_s": slf["cli.command"],
        }

    # ---------------------------------------------------------------- output

    def save(self, path: Path):
        """Write every span recorded so far (arrays plus a JSON index)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            invocation=np.frombuffer(self.span_invocation, dtype=np.int32),
        )
        path.with_suffix(".json").write_text(json.dumps({
            "names": self.names,
            "invocations": self.invocations,
        }))
