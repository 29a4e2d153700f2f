"""Reference encoder, task heads and from-scratch training loops.

Every task trains a linear (optionally single-ReLU) encoder to a 256-wide
latent and one affine task head, the decoder for reconstruction, so every
gradient is hand-derivable and checkable against finite differences. Adam
and the backward pass are implemented here directly; training is
bit-deterministic per seed.

A training step runs on two lanes: the caller and a helper, a one-worker
``ThreadPoolExecutor`` started on first use and again in a forked child. The
helper takes half of Adam's blocks and, in the backward pass, the output
layer's gradient products, while the caller does the rest; NumPy releases
the GIL inside these ufuncs and matmuls. Concurrent callers queue on the one
helper. Each element is computed by the same operations in the same order
on either lane, so the outputs do not depend on the CPU count.

A training step whose model has no ReLU and whose head is narrower than the
latent (a prediction head, or any head of an overcomplete latent) contracts
its linear chain: the forward computes X @ (E @ W) rather than (X @ E) @ W,
and the backward forms every gradient from one Z = X.T @ GY, on the caller.
Its values equal the encode-then-head products to rounding, not bit for
bit. Wider heads, a ReLU latent and the frozen fit keep the encode-then-head
path, and scoring (evaluate, transfer) still reads block encodings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .metrics import (
    LossConfig,
    cross_entropy,
    cross_entropy_gradient,
    l_all,
    l_all_gradient,
    logit_classes,
    masked_mse,
    masked_mse_gradient,
)
from .preprocess import Windows, masked_input

RECONSTRUCTION = "reconstruction"
PREDICTION = "prediction"
IMPUTATION = "imputation"
HEAD_KINDS = (RECONSTRUCTION, PREDICTION, IMPUTATION)  # meta.head_kind order
LR_SCHEDULES = ("constant", "cosine")


class ConfigError(ValueError):
    """A model size, training setting or fine-tune budget out of range."""


class NumericError(Exception):
    """Training hit a non-finite loss; carries batch id and parameter norm."""

    def __init__(self, batch_id: int, param_norm: float):
        super().__init__(
            f"non-finite loss at batch {batch_id} (param norm {param_norm:.3e})"
        )
        self.batch_id = batch_id
        self.param_norm = param_norm


def _init(shape, fan_in: int, rng) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class LinearAutoencoder:
    """Affine encoder 4000->256, optional ReLU latent; a TaskHead decodes."""

    def __init__(self, input_dim: int = 4000, latent: int = 256,
                 relu: bool = False, seed: int | np.random.Generator = 0):
        for name, v in (("input_dim", input_dim), ("latent", latent)):
            if v < 1:
                raise ConfigError(f"{name} must be >= 1, got {v}")
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.latent = latent
        self.relu = relu
        self.params = {
            "enc.W": _init((input_dim, latent), input_dim, rng),
            "enc.b": np.zeros(latent),
        }

    @classmethod
    def from_params(cls, params: dict, relu: bool) -> "LinearAutoencoder":
        """The model whose parameters are these arrays; no init is drawn."""
        model = cls.__new__(cls)
        model.input_dim, model.latent = params["enc.W"].shape
        model.relu = relu
        model.params = {k: params[k] for k in ("enc.W", "enc.b")}
        return model

    def encode(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} inputs, got {x.shape[1]}")
        h = x @ self.params["enc.W"] + self.params["enc.b"]
        return np.maximum(h, 0.0) if self.relu else h


class TaskHead:
    """Single affine map (head.W, head.b) from the latent to the task output.

    Prediction: 256 -> 3 logits (classes -1, 0, +1 in index order).
    Reconstruction (the decoder) and imputation: 256 -> input_dim.
    """

    def __init__(self, kind: str, latent: int = 256, out_dim: int | None = None,
                 seed: int | np.random.Generator = 0):
        if kind not in HEAD_KINDS:
            raise ValueError(f"bad head kind {kind!r}")
        if out_dim is None:
            out_dim = 3 if kind == PREDICTION else 4000
        rng = np.random.default_rng(seed)
        self.kind = kind
        self.latent = latent
        self.out_dim = out_dim
        self.params = {
            "head.W": _init((latent, out_dim), latent, rng),
            "head.b": np.zeros(out_dim),
        }

    @classmethod
    def from_params(cls, kind: str, params: dict) -> "TaskHead":
        """The head whose parameters are these arrays; no init is drawn."""
        head = cls.__new__(cls)
        head.kind = kind
        head.latent, head.out_dim = params["head.W"].shape
        head.params = {k: params[k] for k in ("head.W", "head.b")}
        return head

    def forward(self, r: np.ndarray) -> np.ndarray:
        r = np.atleast_2d(np.asarray(r, dtype=float))
        if r.shape[1] != self.latent:
            raise ValueError(f"expected {self.latent} latents, got {r.shape[1]}")
        return r @ self.params["head.W"] + self.params["head.b"]


ADAM_CHUNK = 1 << 15  # float64 per block: six 256 KB blocks stay in L2
REPORT_BLOCK = 64  # windows per block when a model is scored


_HELPER = None  # (pid that made it, its one-worker executor)


def _two_lanes(theirs, mine):
    """(theirs(), mine()), with theirs run on the helper, a one-worker
    executor started on first use and again in a forked child, while the
    caller runs mine. Concurrent callers queue on the helper. An error
    raised by either lane reaches the caller only after theirs has finished.
    A helper job never calls _two_lanes, which would wait on itself, nor a
    module-level name that a tracer may wrap."""
    global _HELPER
    if _HELPER is None or _HELPER[0] != os.getpid():
        # imported here: it pulls in logging, too slow for every CLI start
        from concurrent.futures import ThreadPoolExecutor
        _HELPER = os.getpid(), ThreadPoolExecutor(
            1, thread_name_prefix="lobkit-helper")
    job = _HELPER[1].submit(theirs)
    try:
        own = mine()
    finally:
        job.exception()  # waits, so no step returns while the helper writes
    return job.result(), own


def _adam_blocks(blocks, s1, s2, c1, c2, b1t, b2t, lr, eps):
    """Adam's step over (p, g, m, v) blocks of flat views, in place, through
    the scratch blocks s1 and s2."""
    for pc, gc, mc, vc in blocks:
        a, b = s1[: pc.size], s2[: pc.size]
        np.subtract(gc, mc, out=a)
        np.multiply(a, c1, out=a)
        np.add(mc, a, out=mc)
        np.multiply(gc, gc, out=a)
        np.subtract(a, vc, out=a)
        np.multiply(a, c2, out=a)
        np.add(vc, a, out=vc)
        np.divide(mc, b1t, out=a)
        np.multiply(a, lr, out=a)
        np.divide(vc, b2t, out=b)
        np.sqrt(b, out=b)
        np.add(b, eps, out=b)
        np.divide(a, b, out=a)
        np.subtract(pc, a, out=pc)


def _scratch():
    return field(default_factory=lambda: np.empty(ADAM_CHUNK), init=False,
                 repr=False, compare=False)


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter array.

    `update` cuts each parameter's flat view into ADAM_CHUNK-sized blocks
    and writes every step into two scratch blocks or in place, so a step
    allocates nothing the size of a parameter. The helper of _two_lanes, a
    one-worker executor started on first use and again in a forked child,
    takes the first half of the blocks, with its own scratch blocks, unless
    the step has no more than one block's worth of elements; concurrent
    callers queue on it. Per element either lane applies the same ufuncs to
    the same operands, in the same order, as ``m += (1-b1)*(g-m);
    v += (1-b2)*(g*g-v); p -= lr*(m/b1t) / (sqrt(v/b2t)+eps)``, so the
    result is bit-identical whatever the CPU count.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    _s1: np.ndarray = _scratch()
    _s2: np.ndarray = _scratch()
    _h1: np.ndarray = _scratch()  # the helper thread's
    _h2: np.ndarray = _scratch()

    def update(self, params: dict, grads: dict):
        for name in grads:  # a rejected step moves nothing
            if not params[name].flags.c_contiguous:
                raise ValueError(f"parameter {name!r} must be C-contiguous")
        self.t += 1
        b1t = 1 - self.beta1**self.t
        b2t = 1 - self.beta2**self.t
        step = (1 - self.beta1, 1 - self.beta2, b1t, b2t, self.lr, self.eps)
        blocks = []
        for name, g in grads.items():
            p = params[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
            p, g = p.reshape(-1), np.ravel(g)
            blocks += [(p[i:i + ADAM_CHUNK], g[i:i + ADAM_CHUNK],
                        m[i:i + ADAM_CHUNK], v[i:i + ADAM_CHUNK])
                       for i in range(0, p.size, ADAM_CHUNK)]
        if sum(b[0].size for b in blocks) <= ADAM_CHUNK:  # a small head
            _adam_blocks(blocks, self._s1, self._s2, *step)
            return
        half = len(blocks) // 2
        _two_lanes(
            lambda: _adam_blocks(blocks[:half], self._h1, self._h2, *step),
            lambda: _adam_blocks(blocks[half:], self._s1, self._s2, *step))


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    clip_norm: float | None = None
    lr_schedule: str = "constant"  # one of LR_SCHEDULES; warmup comes first
    warmup_epochs: int = 0
    beta1: float = 0.9
    beta2: float = 0.999

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.clip_norm is not None and not 0 < self.clip_norm < np.inf:
            raise ConfigError(
                f"clip_norm must be finite and > 0, got {self.clip_norm}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ConfigError(f"lr_schedule must be one of {LR_SCHEDULES}, "
                              f"got {self.lr_schedule!r}")
        if self.warmup_epochs < 0:
            raise ConfigError(
                f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        for name in ("beta1", "beta2"):
            beta = getattr(self, name)
            if not 0 <= beta < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {beta}")


def _batch_forward(model, head, X):
    """The model's own forward, caching (X, R) for the backward pass. With
    no ReLU and a head narrower than the latent, the chain X·E·W is cheaper
    as X·(E·W): it computes X @ (E @ W) + (b @ W + hb) and caches
    (X, None)."""
    if not model.relu and head.out_dim < model.latent:
        W = head.params["head.W"]
        Y = X @ (model.params["enc.W"] @ W) + (
            model.params["enc.b"] @ W + head.params["head.b"])
        return Y, (X, None)
    R = model.encode(X)
    return head.forward(R), (X, R)


def _batch_backward(model, head, cache, GY, frozen: bool):
    """Gradients of the head, and of the encoder unless frozen. After an
    encode-then-head forward, a frozen backward reads no X, and an unfrozen
    one runs the head's products on the helper thread while the caller
    forms the encoder's. After a chained forward (R is None) every gradient
    follows from one Z = X.T @ GY, on the caller:
    head.W = E.T @ Z + outer(b, ΣGY), head.b = ΣGY, enc.W = Z @ W.T and
    enc.b = ΣGY @ W.T."""
    X, R = cache
    if R is None:
        E, b = model.params["enc.W"], model.params["enc.b"]
        W = head.params["head.W"]
        ZT = GY.T @ X  # Z's transpose: E.T @ Z runs faster as (ZT @ E).T
        gb = GY.sum(axis=0)
        grads = {"head.W": (ZT @ E).T + np.outer(b, gb), "head.b": gb}
        if not frozen:
            grads["enc.W"] = ZT.T @ W.T
            grads["enc.b"] = gb @ W.T
        return grads
    # allocated by the caller, so the helper's malloc arena holds no copy
    gW = np.empty((R.shape[1], GY.shape[1]))

    def output_layer():
        return np.matmul(R.T, GY, out=gW), GY.sum(axis=0)

    def encoder():
        GR = GY @ head.params["head.W"].T
        GH = GR * (R > 0) if model.relu else GR  # R > 0 iff H > 0
        return X.T @ GH, GH.sum(axis=0)

    if frozen:
        gW, gb = output_layer()
        return {"head.W": gW, "head.b": gb}
    (gW, gb), (eW, eb) = _two_lanes(output_layer, encoder)
    return {"head.W": gW, "head.b": gb, "enc.W": eW, "enc.b": eb}


def _model_input(X, masks):
    """The (B, T*C) encoder input of the (B, T, C) windows X: their masked
    time steps zeroed where the windows carry masks."""
    X_in = X if masks is None else masked_input(X, masks)
    return X_in.reshape(len(X), -1)


def _task_loss_grad(task, Y, X, batch: Windows, cfg):
    """Mean loss over the batch and dLoss/dY, per task kind; X is the batch's
    (B, T, C) windows."""
    B = Y.shape[0]
    if task == PREDICTION:
        losses = cross_entropy(Y, batch.labels)
        GY = cross_entropy_gradient(Y, batch.labels)
    else:
        Xh = Y.reshape(X.shape)
        if task == IMPUTATION:
            losses = masked_mse(X, Xh, batch.masks)
            GY = masked_mse_gradient(X, Xh, batch.masks)
        else:
            losses = l_all(X, Xh, cfg.loss)
            GY = l_all_gradient(X, Xh, cfg.loss)
        GY = GY.reshape(B, -1)
    GY /= B
    # the per-window losses are summed one after another, in batch order
    return float(np.cumsum(losses)[-1]) / B, GY


def _clip(grads: dict, max_norm: float):
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def train(model: LinearAutoencoder, head: TaskHead, data: Windows,
          cfg: TrainConfig, max_batches: int | None = None,
          latents: np.ndarray | None = None):
    """Mini-batch Adam over the given windows; returns per-epoch loss trace.

    The task is the head's kind. `data` carries labels for prediction,
    masks for imputation, neither for reconstruction. Each batch is gathered
    from its view as it is used, so the split is never copied whole.
    Shuffling and batching are deterministic per cfg.seed. Model and head
    are updated in place.

    Given `latents`, the encoder's fixed (len(data), latent) output for
    `data`, only the head is fitted: every batch, one window or more,
    gathers its rows of `latents` and never runs or updates the encoder.
    """
    if not data:
        raise ValueError("no training data")
    rng = np.random.default_rng(cfg.seed)
    adam = AdamState(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    trace = []
    batch_id = 0
    all_params = {**model.params, **head.params}
    for epoch in range(cfg.epochs):
        if epoch < cfg.warmup_epochs:
            adam.lr = cfg.lr * (epoch + 1) / cfg.warmup_epochs
        elif cfg.lr_schedule == "cosine":
            t = (epoch - cfg.warmup_epochs) / max(
                cfg.epochs - cfg.warmup_epochs, 1
            )
            adam.lr = cfg.lr * 0.5 * (1 + np.cos(np.pi * t))
        order = rng.permutation(len(data))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(data), cfg.batch_size):
            if max_batches is not None and batch_id >= max_batches:
                return trace
            idx = order[start : start + cfg.batch_size]
            batch = data.take(idx)
            # a prediction loss reads no window, so none is gathered
            X = (None if latents is not None and head.kind == PREDICTION
                 else batch.data())
            # divergence is detected from the loss, so let overflow propagate
            # to inf/nan silently instead of spamming warnings first
            with np.errstate(over="ignore", invalid="ignore"):
                if latents is not None:
                    R = latents[idx]
                    Y, cache = head.forward(R), (None, R)
                else:
                    Y, cache = _batch_forward(model, head,
                                              _model_input(X, batch.masks))
                loss, GY = _task_loss_grad(head.kind, Y, X, batch, cfg)
            if not np.isfinite(loss):
                with np.errstate(over="ignore", invalid="ignore"):
                    norm = float(np.sqrt(sum(
                        float((p * p).sum()) for p in all_params.values()
                    )))
                raise NumericError(batch_id, norm)
            grads = _batch_backward(model, head, cache, GY,
                                    latents is not None)
            if cfg.clip_norm is not None:
                _clip(grads, cfg.clip_norm)
            adam.update(all_params, grads)
            # freed now, so the next step's arrays are never made beside them
            del grads, GY, Y, cache
            epoch_loss += loss
            n_batches += 1
            batch_id += 1
        trace.append(epoch_loss / max(n_batches, 1))
    return trace


def _encoded_blocks(model: LinearAutoencoder, windows: Windows):
    """Yield each scoring block's row slice, (B, T, C) windows, masks and
    (B, latent) encodings: REPORT_BLOCK windows at a time, masked input rows
    zeroed, a lone last window folded into the block before it."""
    n = len(windows)
    starts = list(range(0, n, REPORT_BLOCK))
    if n > 1 and n % REPORT_BLOCK == 1:
        del starts[-1]  # a lone row would encode bitwise unlike a block's
    for i, j in zip(starts, starts[1:] + [n]):
        block = windows.take(slice(i, j))
        X = block.data()
        with np.errstate(over="ignore", invalid="ignore"):
            R = model.encode(_model_input(X, block.masks))
        yield slice(i, j), X, block.masks, R


def encode_windows(model: LinearAutoencoder, windows: Windows) -> np.ndarray:
    """The encoder's (N, latent) representations of the windows, masked
    input rows zeroed, computed one scoring block at a time."""
    latents = np.empty((len(windows), model.latent))
    for rows, _, _, R in _encoded_blocks(model, windows):
        latents[rows] = R
    return latents


def finetune_frozen(model: LinearAutoencoder, head: TaskHead, data: Windows,
                    cfg: TrainConfig, budget: int):
    """Fit only the head, for at most `budget` optimizer steps, on the
    encoder's fixed representations of `data`: each computed once, before
    the fit, and read by every batch that holds its window."""
    if budget < 0:
        raise ConfigError(f"budget must be >= 0, got {budget}")
    if budget == 0:
        return []
    return train(model, head, data, cfg, max_batches=budget,
                 latents=encode_windows(model, data))


def predict(model: LinearAutoencoder, head: TaskHead, windows: Windows):
    """Yield each scoring block's (X, Xh, masks): the (B, T, C) windows and
    the reconstruction or imputation head's output from its encodings."""
    for _, X, masks, R in _encoded_blocks(model, windows):
        yield X, head.forward(R).reshape(X.shape), masks


def predict_labels(head: TaskHead, latents: np.ndarray) -> np.ndarray:
    """Trend class of each row of the encoder's (N, latent) output."""
    return logit_classes(head.forward(latents))
