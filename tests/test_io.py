"""File-format tests: round-trips, byte stability, malformed-input errors."""

import math
import struct
from contextlib import nullcontext
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobkit import io as lio
from lobkit.book import ASK, BID, CANCEL, LIMIT, MARKET, Order
from lobkit.synth import FlowStream


# --------------------------------------------------------------- order flow

def sample_stream():
    return FlowStream(
        profile="demo",
        seed=7,
        orders=[
            Order(1, BID, LIMIT, 0, price=1000, volume=5),
            Order(2, ASK, MARKET, 3, volume=2),
            Order(3, ASK, CANCEL, 9, target_id=1),
        ],
        tick_size=0.01,
    )


def test_flow_roundtrip(tmp_path):
    path = tmp_path / "flow.csv"
    stream = sample_stream()
    lio.write_flow(stream, path)
    back = lio.read_flow(path)
    assert back.profile == "demo" and back.seed == 7
    assert back.tick_size == 0.01
    assert back.orders == stream.orders


def test_flow_write_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    lio.write_flow(sample_stream(), a)
    lio.write_flow(sample_stream(), b)
    assert a.read_bytes() == b.read_bytes()


def test_flow_malformed_line_reports_offset(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# columns = x\n1,2,bid\n")
    with pytest.raises(lio.FormatError) as exc:
        lio.read_flow(path)
    assert exc.value.offset == len("# columns = x\n")


def test_flow_bad_field_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,bid,limit,abc,5,\n")
    with pytest.raises(lio.FormatError):
        lio.read_flow(path)


def test_flow_invalid_order_reports_offset(tmp_path):
    path = tmp_path / "bad.csv"
    good = "0,1,bid,limit,100,5,\n"
    path.write_text(good + "1,2,buy,limit,100,5,\n")
    with pytest.raises(lio.FormatError) as exc:
        lio.read_flow(path)
    assert exc.value.offset == len(good)
    assert "bad side" in str(exc.value)


def test_flow_out_of_order_timestamp_reports_offset(tmp_path):
    path = tmp_path / "late.csv"
    head = "10,1,bid,limit,100,5,\n20,2,ask,limit,101,5,\n"
    path.write_text(head + "15,3,bid,limit,99,5,\n")
    with pytest.raises(lio.FormatError) as exc:
        lio.read_flow(path)
    assert exc.value.offset == len(head)
    assert exc.value.field == "timestamp"
    # equal timestamps are in order
    path.write_text(head + "20,3,bid,limit,99,5,\n")
    assert len(lio.read_flow(path).orders) == 3


def test_flow_reused_order_id_reports_offset(tmp_path):
    path = tmp_path / "reused.csv"
    head = "10,1,bid,limit,100,5,\n11,2,ask,market,,3,\n"
    path.write_text(head + "12,2,bid,limit,99,5,\n")
    with pytest.raises(lio.FormatError) as exc:
        lio.read_flow(path)
    assert exc.value.offset == len(head)
    assert exc.value.field == "id"


def test_flow_offsets_count_crlf_line_ends_as_two_bytes(tmp_path):
    path = tmp_path / "crlf.csv"
    head = (b"# profile = x\r\n10,1,bid,limit,100,5,\r\n"
            b"20,2,ask,limit,101,5,\r\n")
    path.write_bytes(head + b"15,3,bid,limit,99,5,\r\n")
    with pytest.raises(lio.FormatError) as exc:
        lio.read_flow(path)
    assert (exc.value.offset, exc.value.field) == (len(head), "timestamp")


def test_flow_offsets_count_utf8_bytes_not_characters(tmp_path):
    path = tmp_path / "utf8.csv"
    head = "# profile = \u00e9\n10,1,bid,limit,100,5,\n".encode()
    path.write_bytes(head + b"11,1,ask,limit,101,5,\n")
    with pytest.raises(lio.FormatError) as exc:
        lio.read_flow(path)
    assert (exc.value.offset, exc.value.field) == (len(head), "id")
    assert len(head) == len(head.decode()) + 1


def test_flow_undecodable_byte_reports_its_line_offset(tmp_path):
    path = tmp_path / "bytes.csv"
    head = b"# profile = x\n10,1,bid,limit,100,5,\n"
    path.write_bytes(head + b"11,2,ask,limit,1\xff01,5,\n")
    with pytest.raises(lio.FormatError) as exc:
        lio.read_flow(path)
    assert exc.value.offset == len(head)
    assert "0xff" in str(exc.value)


def test_flow_offsets_span_ascii_and_utf8_blocks(tmp_path):
    """A flow over one 64 KiB read: the first block is ASCII, a later one
    holds multi-byte characters, and the malformed line after them is
    reported at its byte offset, not its character count."""
    path = tmp_path / "long.csv"
    ascii_lines = "".join(f"{i},{i},bid,limit,100,5,\n"
                          for i in range(1, 4001))
    later = "# profile = été €\n4001,4001,ask,limit,101,5,\n"
    head = (ascii_lines + later).encode()
    path.write_bytes(head + b"4002,4002,bid\n")
    assert len(ascii_lines) > 2**16 and len(head) == len(head.decode()) + 4
    with pytest.raises(lio.FormatError) as exc:
        lio.read_flow(path)
    assert exc.value.offset == len(head)
    assert "expected 7 fields" in str(exc.value)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12),
       st.text(alphabet="ab,#\u00e9\u20ac\n\r\v\f\x1c\x1d\x1e\x85"
                        "\u2028\u2029", max_size=40),
       st.none() | st.integers(0, 60))
@example(1, "\r\nb", None)  # a line end across 64 KiB
@example(1, "\u00e9\nb", None)  # a character across 64 KiB
def test_line_walker_splits_as_splitlines_at_byte_offsets(
        tmp_path_factory, pad, text, bad):
    """The lines are splitlines() of the text, each at the count of UTF-8
    bytes before it, also past the walker's first 64 KiB block; a byte
    that is not UTF-8 ends the walk at the offset of its line."""
    raw = ("a" * (2**16 - pad) + text).encode()
    if bad is not None:
        at = min(2**16 - pad + bad, len(raw))
        raw = raw[:at] + b"\xff" + raw[at:]
    path = tmp_path_factory.mktemp("lines") / "t.txt"
    path.write_bytes(raw)
    try:
        text, fault = raw.decode(), None
    except UnicodeDecodeError as exc:
        # the bad byte's line is the one a character appended to the text
        # before the byte ends
        text = "".join(
            (raw[:exc.start].decode() + "x").splitlines(True)[:-1])
        fault = (f"byte 0x{raw[exc.start]:02x} is not UTF-8 "
                 f"at byte {len(text.encode())}")
    sizes = [len(line.encode()) for line in text.splitlines(True)]
    want = list(zip(accumulate([0] + sizes[:-1]), text.splitlines()))
    got = []
    with pytest.raises(lio.FormatError) if fault else nullcontext() as exc:
        got.extend(lio._lines(path))
    assert got == want
    assert fault is None or str(exc.value) == fault


def test_flow_fault_reads_the_file_once(tmp_path, monkeypatch):
    """The offset of a bad line comes from the one pass over the file."""
    path = tmp_path / "reused.csv"
    path.write_text("0,1,bid,limit,100,5,\n1,1,bid,limit,100,5,\n")
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(lio, "open", counting_open, raising=False)
    with pytest.raises(lio.FormatError) as exc:
        lio.read_flow(path)
    assert (exc.value.offset, opened) == (21, [path])


# ------------------------------------------------------------------ tensors

@pytest.mark.parametrize("shape", [(7,), (4, 40), (2, 3, 5)])
def test_tensor_roundtrip(tmp_path, shape):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=shape)
    path = tmp_path / "t.bin"
    lio.save_tensor(path, arr)
    back = lio.load_tensor(path)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)  # float64 is exact through the format


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "t.bin"
    lio.save_tensor(path, np.zeros(3))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(lio.FormatError) as exc:
        lio.load_tensor(path)
    assert exc.value.field == "magic"


def test_tensor_shape_numpy_cannot_build_reports_the_dims_offset(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(lio.TENSOR_MAGIC + struct.pack("<II", 1, 65)
                     + struct.pack("<65I", *[1] * 65) + struct.pack("<d", 1))
    with pytest.raises(lio.FormatError) as exc:
        lio.load_tensor(path)
    assert (exc.value.offset, exc.value.field) == (12, "dims")
    assert "maximum supported dimension" in str(exc.value)


def test_tensor_bad_version_and_truncated_payload(tmp_path):
    path = tmp_path / "t.bin"
    lio.save_tensor(path, np.zeros(3))
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(lio.FormatError) as exc:
        lio.load_tensor(path)
    assert exc.value.field == "version"
    lio.save_tensor(path, np.zeros(3))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(lio.FormatError) as exc:
        lio.load_tensor(path)
    assert exc.value.field == "data"


def test_tensor_trailing_bytes_reported_at_the_first_extra_byte(tmp_path):
    path = tmp_path / "t.bin"
    lio.save_tensor(path, np.zeros(3))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(lio.FormatError, match="trailing bytes") as exc:
        lio.load_tensor(path)
    assert (exc.value.offset, exc.value.field) == (size, "data")


@pytest.mark.parametrize("cut", range(8, 12))
@pytest.mark.parametrize("kind, field", [("tensor", "ndim"),
                                         ("checkpoint", "count")])
def test_cut_after_the_version_names_the_next_field(tmp_path, kind, field,
                                                    cut):
    """The <I after the version is a tensor's ndim, a checkpoint's count."""
    path = tmp_path / "t.bin"
    if kind == "tensor":
        lio.save_tensor(path, np.zeros(3))
        load = lio.load_tensor
    else:
        lio.save_checkpoint(path, {"w": np.zeros(2)})
        load = lio.load_checkpoint
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(lio.FormatError) as exc:
        load(path)
    assert (exc.value.offset, exc.value.field) == (8, field)


@pytest.mark.parametrize("shape", [(7,), (2, 3, 4)])
def test_element_offset_is_where_the_element_is_stored(tmp_path, shape):
    path = tmp_path / "t.bin"
    lio.save_tensor(path, np.arange(math.prod(shape), dtype=float)
                    .reshape(shape))
    raw = path.read_bytes()
    for i in range(math.prod(shape)):
        offset = lio.element_offset(len(shape), i)
        assert struct.unpack_from("<d", raw, offset) == (i,)
    assert lio.element_offset(len(shape), math.prod(shape)) == len(raw)


# -------------------------------------------------------------- key / value

def test_kv_roundtrip_preserves_order_and_bytes(tmp_path):
    sections = {"alpha": {"x": "1", "y": "2.5"}, "beta": {"z": "hello"}}
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    lio.write_kv(a, sections)
    back = lio.read_kv(a)
    assert back == sections
    lio.write_kv(b, back)
    assert a.read_bytes() == b.read_bytes()


def test_kv_entry_before_section_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"# note\r\nx = 1\n")
    with pytest.raises(lio.FormatError) as exc:
        lio.read_kv(path)
    assert str(exc.value) == "entry before any section at byte 8"


def test_kv_unparseable_line_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes("[s]\na = \u00e9\n\nnot an entry\n".encode())
    with pytest.raises(lio.FormatError) as exc:
        lio.read_kv(path)
    assert str(exc.value) == "unparseable line 'not an entry' at byte 12"


@pytest.mark.parametrize("text, message", [
    ("[s]\na = 1\n a=2\n", "repeated key 'a' in [s] at byte 10"),
    ("[s]\na = 1\n\n[t]\n[s]\n", "repeated section [s] at byte 15"),
])
def test_kv_repeated_name_raises(tmp_path, text, message):
    """A later key or [section] would silently replace the earlier one."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(lio.FormatError) as exc:
        lio.read_kv(path)
    assert str(exc.value) == message


def test_kv_section_names_are_stripped(tmp_path):
    """[ s ] and [s] name one section, so a padded header repeats it."""
    path = tmp_path / "kv.txt"
    path.write_text("[ s ]\na = 1\n")
    assert lio.read_kv(path) == {"s": {"a": "1"}}
    path.write_text("[s]\na = 1\n[ s\t]\n")
    with pytest.raises(lio.FormatError) as exc:
        lio.read_kv(path)
    assert str(exc.value) == "repeated section [s] at byte 10"


# -------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {
        "enc.W": rng.normal(size=(8, 3)),
        "enc.b": rng.normal(size=3),
        "meta.T": np.array(100.0),
    }
    path = tmp_path / "ckpt.bin"
    lio.save_checkpoint(path, arrays)
    back = lio.load_checkpoint(path)
    assert set(back) == set(arrays)
    for k in arrays:
        assert np.array_equal(np.asarray(back[k]).ravel(),
                              np.asarray(arrays[k]).ravel())


def test_checkpoint_write_order_is_name_sorted_and_stable(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    arrs = {"b": np.ones(2), "a": np.zeros(2)}
    lio.save_checkpoint(a, arrs)
    lio.save_checkpoint(b, dict(reversed(list(arrs.items()))))
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    lio.save_checkpoint(path, {"w": np.zeros(2)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(lio.FormatError) as exc:
        lio.load_checkpoint(path)
    assert exc.value.field == "data"


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "ckpt.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(lio.FormatError):
        lio.load_checkpoint(path)


def test_checkpoint_undecodable_name_reports_offset(tmp_path):
    path = tmp_path / "ckpt.bin"
    lio.save_checkpoint(path, {"w": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[14] = 0xFF  # first byte of the first array's name
    path.write_bytes(bytes(raw))
    with pytest.raises(lio.FormatError) as exc:
        lio.load_checkpoint(path)
    assert (exc.value.offset, exc.value.field) == (14, "name")


@pytest.mark.parametrize("present", range(5))
def test_checkpoint_cut_inside_a_name_reports_the_name(tmp_path, present):
    """A file that ends inside an array's name is a fault in that name, at
    its first byte, not in the field after it."""
    path = tmp_path / "ckpt.bin"
    lio.save_checkpoint(path, {"enc.W": np.zeros(2)})
    path.write_bytes(path.read_bytes()[:14 + present])  # 12 + namelen's 2
    with pytest.raises(lio.FormatError) as exc:
        lio.load_checkpoint(path)
    assert (exc.value.offset, exc.value.field) == (14, "name")
    assert f"is {present} bytes, expected 5" in str(exc.value)


def test_checkpoint_repeated_name_reports_offset(tmp_path):
    """A later array of the same name would silently replace the first."""
    entry = struct.pack("<H", 1) + b"x" + struct.pack("<BId", 1, 1, 0.0)
    path = tmp_path / "ckpt.bin"
    path.write_bytes(lio.CHECKPOINT_MAGIC + struct.pack("<II", 1, 2)
                     + entry + entry)
    with pytest.raises(lio.FormatError) as exc:
        lio.load_checkpoint(path)
    assert (exc.value.offset, exc.value.field) == (12 + len(entry) + 2,
                                                   "name")


@pytest.mark.parametrize("kind", ["tensor", "checkpoint"])
def test_binary_load_holds_few_copies_of_the_file(tmp_path, kind):
    """Every array is read straight from the file into its own memory, so
    loading a tensor or a checkpoint peaks near the file's size. Every array
    is a writable, aligned, C-contiguous copy of what was saved."""
    import tracemalloc

    w = np.random.default_rng(2).normal(size=(1000, 256))
    path = tmp_path / f"{kind}.bin"
    if kind == "tensor":
        lio.save_tensor(path, w)
        load = lio.load_tensor
    else:
        lio.save_checkpoint(path, {"w": w, "meta.T": np.array(100.0)})
        load = lio.load_checkpoint
    tracemalloc.start()
    try:
        back = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.stat().st_size
    back = back if kind == "tensor" else back["w"]
    assert back.tobytes() == w.tobytes()
    assert back.flags.writeable and back.flags.aligned
    assert back.flags.c_contiguous


def header_offsets(raw: bytes) -> list[int]:
    """Offsets of every header byte of a tensor or checkpoint file: the file
    header, and for a checkpoint each array's name, ndim and dims."""
    if raw[:4] == lio.TENSOR_MAGIC:
        return list(range(12 + 4 * struct.unpack_from("<I", raw, 8)[0]))
    out, pos = list(range(12)), 12
    for _ in range(struct.unpack_from("<I", raw, 8)[0]):
        (namelen,) = struct.unpack_from("<H", raw, pos)
        ndim = raw[pos + 2 + namelen]
        end = pos + 3 + namelen + 4 * ndim
        out += range(pos, end)
        pos = end + 8 * math.prod(
            struct.unpack_from(f"<{ndim}I", raw, end - 4 * ndim))
    return out


@pytest.fixture(scope="module")
def real_binaries(tmp_path_factory):
    """A day's series.bin and a prediction checkpoint made by the CLI."""
    from lobkit.cli import main

    d = tmp_path_factory.mktemp("binaries")
    assert main(["generate", "--profile", "sz000001", "--seed", "2",
                 "--out", str(d / "flow.csv")]) == 0
    assert main(["build", "--flow", str(d / "flow.csv"),
                 "--out", str(d / "series.bin")]) == 0
    assert main(["preprocess", "--series", str(d / "series.bin"),
                 "--out", str(d / "data")]) == 0
    assert main(["train", "--data", str(d / "data"), "--task", "prediction",
                 "--epochs", "1", "--step", "50", "--latent", "4",
                 "--out", str(d / "run")]) == 0
    return {
        "tensor": (d / "series.bin").read_bytes(),
        "checkpoint": (d / "run" / "checkpoint.bin").read_bytes(),
        "dir": d,
    }


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["tensor", "checkpoint"]),
       pick=st.integers(min_value=0), flip=st.integers(1, 255))
def test_header_bit_flip_loads_or_reports_offset(real_binaries, kind, pick,
                                                  flip):
    raw = bytearray(real_binaries[kind])
    offsets = header_offsets(bytes(raw))
    raw[offsets[pick % len(offsets)]] ^= flip
    path = real_binaries["dir"] / f"flipped.{kind}"
    path.write_bytes(bytes(raw))
    load = lio.load_tensor if kind == "tensor" else lio.load_checkpoint
    try:
        load(path)
    except lio.FormatError as exc:
        assert exc.offset is not None


def test_file_sha256_matches_hashlib(tmp_path):
    """Empty, one block, and several blocks with a short last one."""
    import hashlib

    path = tmp_path / "x.bin"
    for data in (b"", b"abc123", np.random.default_rng(0).bytes(3 << 20 | 5)):
        path.write_bytes(data)
        assert lio.file_sha256(path) == hashlib.sha256(data).hexdigest()


def test_file_sha256_never_holds_the_whole_file(tmp_path):
    """A checkpoint is hashed while the model loaded from it is alive."""
    import tracemalloc

    path = tmp_path / "x.bin"
    path.write_bytes(bytes(8 << 20))
    tracemalloc.start()
    try:
        lio.file_sha256(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2
