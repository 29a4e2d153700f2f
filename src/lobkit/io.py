"""Canonical file formats.

* Order flow: delimited text, one order per line,
  ``timestamp_ns,id,side,kind,price_ticks,volume,target_id`` with empty
  fields where a column does not apply; ``#`` lines carry metadata (an int
  ``seed``, a finite ``tick_size`` > 0). Timestamps never decrease and every
  order id, cancels' included, is unique within a flow.
* Tensors (day series, window datasets): versioned binary with a
  self-describing header (magic, version, dims) and row-major little-endian
  float64 payload.
* Configs / sidecars: plain-text ``key = value`` lines under ``[section]``
  headers, order-preserving so canonical files round-trip byte-identically.
* Checkpoints: versioned binary of named arrays (model and Adam state).
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .book import BookError, Order
from .preprocess import NormStats
from .synth import FlowStream

TENSOR_MAGIC = b"LOBT"
CHECKPOINT_MAGIC = b"LOBC"
FORMAT_VERSION = 1


class FormatError(Exception):
    """Malformed file; carries the byte offset and field name when known."""

    def __init__(self, msg: str, offset: int | None = None,
                 field: str | None = None):
        loc = ""
        if offset is not None:
            loc += f" at byte {offset}"
        if field is not None:
            loc += f" (field {field})"
        super().__init__(msg + loc)
        self.offset = offset
        self.field = field


# ---------------------------------------------------------------- order flow

_FLOW_COLUMNS = "timestamp_ns,id,side,kind,price_ticks,volume,target_id"


def write_flow(stream: FlowStream, path):
    lines = [
        f"# profile = {stream.profile}",
        f"# seed = {stream.seed}",
        f"# tick_size = {stream.tick_size!r}",
        f"# columns = {_FLOW_COLUMNS}",
    ]
    for o in stream.orders:
        lines.append(
            f"{o.timestamp},{o.id},{o.side},{o.kind},"
            f"{'' if o.price is None else o.price},"
            f"{'' if o.volume is None else o.volume},"
            f"{'' if o.target_id is None else o.target_id}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _lines(path):
    """(byte offset, line) for each line of a UTF-8 text file, split as
    str.splitlines splits, read in blocks of whole lines; a byte that is not
    UTF-8 raises FormatError at the offset of its line."""
    offset = 0
    with open(path, "rb") as f:
        while block := b"".join(f.readlines(1 << 16)):
            try:
                text, bad = block.decode(), None
            except UnicodeDecodeError as exc:
                # keep the lines before the bad byte's line, the line that a
                # character appended to the text before the byte would end
                head = (block[:exc.start].decode() + "x").splitlines(True)
                text, bad = "".join(head[:-1]), block[exc.start]
            for line, kept in zip(text.splitlines(), text.splitlines(True)):
                yield offset, line
                offset += len(kept.encode())
            if bad is not None:
                raise FormatError(f"byte 0x{bad:02x} is not UTF-8",
                                  offset=offset)


def _header_value(key: str, val: str, offset: int):
    """A header's seed as an int or tick_size as a finite float > 0."""
    try:
        value = int(val) if key == "seed" else float(val)
        if key == "seed" or 0 < value < math.inf:
            return value
    except ValueError:
        pass
    kind = "an int" if key == "seed" else "a finite float > 0"
    raise FormatError(f"{key} must be {kind}, got {val!r}", offset=offset,
                      field=key)


def read_flow(path) -> FlowStream:
    """The flow in a file; a malformed line raises FormatError at the byte
    offset where the line starts."""
    profile, seed, tick = "", 0, 0.01
    orders = []
    seen_ids = set()
    for offset, line in _lines(path):
        if line.startswith("#"):
            if "=" in line:
                key, _, val = line[1:].partition("=")
                key, val = key.strip(), val.strip()
                if key == "profile":
                    profile = val
                elif key == "seed":
                    seed = _header_value(key, val, offset)
                elif key == "tick_size":
                    tick = _header_value(key, val, offset)
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise FormatError(f"expected 7 fields, got {len(parts)}",
                              offset=offset)
        try:
            order = Order(
                timestamp=int(parts[0]),
                id=int(parts[1]),
                side=parts[2],
                kind=parts[3],
                price=int(parts[4]) if parts[4] else None,
                volume=int(parts[5]) if parts[5] else None,
                target_id=int(parts[6]) if parts[6] else None,
            )
        except (ValueError, BookError) as exc:
            raise FormatError(str(exc), offset=offset) from exc
        if orders and order.timestamp < orders[-1].timestamp:
            raise FormatError(f"timestamp {order.timestamp} precedes the "
                              f"previous order's {orders[-1].timestamp}",
                              offset=offset, field="timestamp")
        if order.id in seen_ids:
            raise FormatError(f"order id {order.id} is reused",
                              offset=offset, field="id")
        seen_ids.add(order.id)
        orders.append(order)
    return FlowStream(profile=profile, seed=seed, orders=orders,
                      tick_size=tick)


# ------------------------------------------------------------------- tensors

def _read(f, size: int, fmt: str, field: str) -> tuple:
    """The struct fields of fmt at the position of f, a file of size bytes;
    a short file is a FormatError at that position."""
    pos = f.tell()
    try:
        return struct.unpack(fmt, f.read(min(struct.calcsize(fmt),
                                             size - pos)))
    except struct.error as exc:
        raise FormatError(f"unreadable header: {exc}", offset=pos,
                          field=field) from None


def save_tensor(path, array: np.ndarray):
    array = np.ascontiguousarray(array, dtype="<f8")
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, array.ndim))
        f.write(struct.pack(f"<{array.ndim}I", *array.shape))
        f.write(array.tobytes())


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(4) != TENSOR_MAGIC:
            raise FormatError("bad tensor magic", offset=0, field="magic")
        version, ndim = _read(f, size, "<II", "version")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported version {version}", offset=4,
                              field="version")
        dims = _read(f, size, f"<{ndim}I", "dims")
        start = 12 + 4 * ndim
        expected = math.prod(dims) * 8
        if size - start != expected:
            raise FormatError(
                f"payload is {size - start} bytes, expected {expected}",
                offset=start, field="data",
            )
        payload = f.read()
    try:
        # the payload is copied out of one transient buffer: read straight
        # into a fresh array, the split that training reads left glibc's
        # heap so laid out that a prediction walk's peak RSS rose 6-7 MB
        # (perfbench predict-walk, 2 vCPUs)
        return np.frombuffer(payload, "<f8").reshape(dims).copy()
    except ValueError as exc:  # e.g. over 64 dims
        raise FormatError(f"bad shape: {exc}", offset=12,
                          field="dims") from None


# --------------------------------------------------------------- key / value

def write_kv(path, sections: dict):
    """sections: {section_name: {key: value}}; order preserved."""
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        for key, val in entries.items():
            lines.append(f"{key} = {val}")
        lines.append("")
    Path(path).write_text("\n".join(lines))


def read_kv(path) -> dict:
    sections: dict = {}
    current = None
    for offset, line in _lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
        elif "=" in line:
            if current is None:
                raise FormatError("entry before any section", offset=offset)
            key, _, val = line.partition("=")
            sections[current][key.strip()] = val.strip()
        else:
            raise FormatError(f"unparseable line {line!r}", offset=offset)
    return sections


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def save_norm_stats(path, stats: NormStats):
    write_kv(path, {"norm": {
        "scheme": stats.scheme,
        "scope": stats.scope,
        "levels": stats.levels,
        "mu": _floats(stats.mu),
        "sigma": _floats(stats.sigma),
    }})


# --------------------------------------------------------------- checkpoints

def save_checkpoint(path, arrays: dict):
    """Named float64 arrays -> versioned binary, names sorted for stability."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            if arr.ndim:
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """The named arrays of a checkpoint, each read straight from the file
    into its own array, so the file's bytes are never held twice."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(4) != CHECKPOINT_MAGIC:
            raise FormatError("bad checkpoint magic", offset=0, field="magic")
        version, count = _read(f, size, "<II", "version")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported version {version}", offset=4,
                              field="version")
        arrays = {}
        for _ in range(count):
            (namelen,) = _read(f, size, "<H", "name")
            pos = f.tell()
            try:
                name = f.read(namelen).decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("array name is not UTF-8", offset=pos,
                                  field="name") from None
            (ndim,) = _read(f, size, "<B", "ndim")
            dims = _read(f, size, f"<{ndim}I", "dims")
            pos = f.tell()
            n = math.prod(dims)
            if pos + 8 * n > size:
                raise FormatError(
                    f"payload of {name!r} is {size - pos} bytes, "
                    f"expected {8 * n}", offset=pos, field="data",
                )
            try:
                arrays[name] = np.empty(dims, "<f8")
            except ValueError as exc:  # e.g. over 64 dims, or a size overflow
                raise FormatError(f"bad shape of {name!r}: {exc}",
                                  offset=pos - 4 * ndim,
                                  field="dims") from None
            f.readinto(arrays[name])
        pos = f.tell()
    if pos != size:
        raise FormatError("trailing bytes", offset=pos, field="data")
    return arrays


def file_sha256(path) -> str:
    """The file's sha256, read in blocks: a checkpoint is hashed while the
    model loaded from it is alive."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()
