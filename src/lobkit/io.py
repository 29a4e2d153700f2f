"""Canonical file formats.

* Order flow: delimited text, one order per line,
  ``timestamp_ns,id,side,kind,price_ticks,volume,target_id`` with empty
  fields where a column does not apply; ``#`` lines carry metadata (an int
  ``seed``, a finite ``tick_size`` > 0). Timestamps never decrease and every
  order id, cancels' included, is unique within a flow.
* Configs / sidecars: plain-text ``key = value`` lines under ``[section]``
  headers, order-preserving so canonical files round-trip byte-identically.
* Tensors (day series, labels): magic, ``<I`` version, one array.
* Checkpoints (model, head, metadata): magic, ``<I`` version, ``<I`` count,
  then per array a ``<H`` name length, the UTF-8 name and the array.

An array is its ndim (``<I`` in a tensor, ``<B`` in a checkpoint), ndim
``<u4`` dims and its row-major ``<f8`` payload.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .book import DEFAULT_TICK_SIZE, BookError, Order
from .engine import paused_gc
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
            kept = text.splitlines(True)
            sizes = (map(len, kept) if block.isascii()
                     else (len(k.encode()) for k in kept))
            for line, size in zip(text.splitlines(), sizes):
                yield offset, line
                offset += size
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


@paused_gc()
def read_flow(path) -> FlowStream:
    """The flow in a file; a malformed line raises FormatError at the byte
    offset where the line starts."""
    profile, seed, tick = "", 0, DEFAULT_TICK_SIZE
    orders = []
    seen_ids = set()
    previous = -math.inf  # the last order's timestamp
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
        ts, oid, side, kind, price, volume, target_id = parts
        try:
            timestamp = int(ts)
            order = Order(int(oid), side, kind, timestamp,
                          int(price) if price else None,
                          int(volume) if volume else None,
                          int(target_id) if target_id else None)
        except (ValueError, BookError) as exc:
            raise FormatError(str(exc), offset=offset) from exc
        if timestamp < previous:
            raise FormatError(f"timestamp {timestamp} precedes the "
                              f"previous order's {previous}",
                              offset=offset, field="timestamp")
        n_ids = len(seen_ids)
        seen_ids.add(order.id)
        if len(seen_ids) == n_ids:
            raise FormatError(f"order id {order.id} is reused",
                              offset=offset, field="id")
        previous = timestamp
        orders.append(order)
    return FlowStream(profile=profile, seed=seed, orders=orders,
                      tick_size=tick)


# ------------------------------------------------------------- binary arrays

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


def _write_array(f, array, ndim_fmt: str):
    """The array at the position of f, its ndim packed as ndim_fmt and its
    payload written from its own buffer."""
    array = np.ascontiguousarray(array, dtype="<f8")
    f.write(struct.pack(f"{ndim_fmt}{array.ndim}I", array.ndim,
                        *array.shape))
    f.write(array)


def _read_array(f, size: int, ndim_fmt: str, of: str = "") -> np.ndarray:
    """The array at the position of f, a file of size bytes, its payload
    read straight into it; a short payload, or a shape NumPy cannot build,
    is a FormatError at its offset. of names the array in the message."""
    (ndim,) = _read(f, size, ndim_fmt, "ndim")
    dims = _read(f, size, f"<{ndim}I", "dims")
    pos, n = f.tell(), math.prod(dims)
    if pos + 8 * n > size:
        raise FormatError(f"payload{of} is {size - pos} bytes, expected "
                          f"{8 * n}", offset=pos, field="data")
    try:
        array = np.empty(dims, "<f8")
    except ValueError as exc:  # e.g. over 64 dims
        raise FormatError(f"bad shape{of}: {exc}", offset=pos - 4 * ndim,
                          field="dims") from None
    f.readinto(array)
    return array


@contextmanager
def _open_binary(path, magic: bytes, kind: str):
    """The open file and its size, read past its magic and version; a byte
    left unread on leaving is a FormatError."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(4) != magic:
            raise FormatError(f"bad {kind} magic", offset=0, field="magic")
        (version,) = _read(f, size, "<I", "version")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported version {version}", offset=4,
                              field="version")
        yield f, size
        if f.tell() != size:
            raise FormatError("trailing bytes", offset=f.tell(),
                              field="data")


def first_non_finite(a: np.ndarray) -> int | None:
    """The flat index of a's first NaN or infinity, or None."""
    finite = np.isfinite(a)
    return None if finite.all() else int(np.argmin(finite))


def element_offset(ndim: int, i: int) -> int:
    """Byte offset of row-major element i in a tensor file of ndim dims."""
    return 12 + 4 * ndim + 8 * i


def save_tensor(path, array: np.ndarray):
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC + struct.pack("<I", FORMAT_VERSION))
        _write_array(f, array, "<I")


def load_tensor(path) -> np.ndarray:
    with _open_binary(path, TENSOR_MAGIC, "tensor") as (f, size):
        return _read_array(f, size, "<I")


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
            current = line[1:-1].strip()
            if current in sections:
                raise FormatError(f"repeated section [{current}]",
                                  offset=offset)
            sections[current] = {}
        elif "=" in line:
            if current is None:
                raise FormatError("entry before any section", offset=offset)
            key, _, val = line.partition("=")
            key = key.strip()
            if key in sections[current]:
                raise FormatError(f"repeated key {key!r} in [{current}]",
                                  offset=offset)
            sections[current][key] = val.strip()
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
        f.write(CHECKPOINT_MAGIC
                + struct.pack("<II", FORMAT_VERSION, len(arrays)))
        for name in sorted(arrays):
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)) + encoded)
            _write_array(f, arrays[name], "<B")


def load_checkpoint(path) -> dict:
    """The named arrays of a checkpoint, each read straight from the file
    into its own array, so the file's bytes are never held twice. A NaN or
    infinity raises FormatError at its byte, naming the array and the
    element."""
    with _open_binary(path, CHECKPOINT_MAGIC, "checkpoint") as (f, size):
        (count,) = _read(f, size, "<I", "count")
        arrays = {}
        for _ in range(count):
            (namelen,) = _read(f, size, "<H", "name")
            pos, raw = f.tell(), f.read(namelen)
            if len(raw) < namelen:
                raise FormatError(f"array name is {len(raw)} bytes, expected "
                                  f"{namelen}", offset=pos, field="name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("array name is not UTF-8", offset=pos,
                                  field="name") from None
            if name in arrays:
                raise FormatError(f"repeated array {name!r}", offset=pos,
                                  field="name")
            arrays[name] = array = _read_array(f, size, "<B", f" of {name!r}")
            i = first_non_finite(array)
            if i is not None:
                at = ", ".join(map(str, np.unravel_index(i, array.shape)))
                element = f"{name}[{at}]" if array.ndim else name
                raise FormatError(
                    f"{Path(path).name}: {element} holds "
                    f"{float(array.flat[i])!r}, not a finite value",
                    offset=f.tell() - 8 * (array.size - i), field=name)
    return arrays


def file_sha256(path) -> str:
    """The file's sha256, read in blocks: a checkpoint is hashed while the
    model loaded from it is alive."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()
