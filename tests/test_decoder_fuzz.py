"""Fuzzing the two binary decoders: CMTW weight files and binary PGM/PPM.

Whatever the bytes, ``load_weights`` may only return a store of finite
tensors or raise a ``WeightFileError``; ``load_image`` may only return a
uint8 array and the corpus reader ``synthdata._load_gray`` a 2-D one, or
raise a ``PnmError``.  Any other exception escaping is a decoder bug: the
CLI maps those two families to its model and data exit codes, and
everything else to the wrong one.
"""

import io
import struct
import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chestkit.imaging import PnmError, load_image, save_image
from chestkit.models import (
    ModelConfig,
    ParamStore,
    WeightFileError,
    load_weights,
    model_config_fields,
    save_weights,
)
from chestkit.synthdata import _load_gray
from chestkit.tensor import Tensor

from test_models import one_tensor_file, with_config_text

FUZZ = settings(max_examples=150, deadline=None)

# u32 field values at the edges: zero, one, sign bit, all ones
U32_EDGES = st.sampled_from([0, 1, 2, 3, 2 ** 16, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1])


CONFIG = ModelConfig("irrcnn", (1, 32, 32), width_scale=0.125, num_classes=2)


def _weights_blob() -> bytes:
    """A CMTW v2 file of three tensors under ``CONFIG``."""
    store = ParamStore(CONFIG)
    store.add("enc1.weight", Tensor(np.arange(12.0).reshape(2, 1, 2, 3) / 7))
    store.add("enc1.bias", Tensor([0.5, -0.25]))
    store.add("head", Tensor([[1.0]]))
    buf = io.BytesIO()
    save_weights(store, buf)
    return buf.getvalue()


def _u32_fields(blob: bytes) -> tuple[int, ...]:
    """Byte offsets of every u32 field of a well-formed CMTW file: version,
    count, the config length of a version 2 file, then per tensor its name
    length, rank and dims."""
    offsets = [4, 8]
    pos = 12
    if struct.unpack_from("<I", blob, 4)[0] == 2:
        offsets.append(pos)
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        offsets.append(pos)
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
        offsets.append(pos)
        ndim = struct.unpack_from("<I", blob, pos)[0]
        dims = struct.unpack_from(f"<{ndim}I", blob, pos + 4)
        offsets.extend(pos + 4 + 4 * i for i in range(ndim))
        pos += 4 + 4 * ndim + 4 * int(np.prod(dims))
    assert pos == len(blob)
    return tuple(offsets)


WEIGHTS = _weights_blob()
WEIGHT_FIELDS = _u32_fields(WEIGHTS)
CONFIG_END = 16 + struct.unpack_from("<I", WEIGHTS, 12)[0]
GRAY = save_image(np.arange(12, dtype=np.uint8).reshape(3, 4) * 20)
RGB = save_image(np.arange(36, dtype=np.uint8).reshape(3, 4, 3) * 7)


def _check_weights(blob: bytes) -> None:
    try:
        store = load_weights(io.BytesIO(blob))
    except WeightFileError:
        return
    for _, t in store.items():
        assert t.data.dtype == np.float64 and np.isfinite(t.data).all()
    assert store.config is None or isinstance(store.config, ModelConfig)


def _check_pnm(blob: bytes) -> None:
    try:
        img = load_image(blob)
    except PnmError:
        pass
    else:
        assert img.dtype == np.uint8 and img.ndim in (2, 3)
    try:
        # the corpus loaders read a mask file as _load_gray(path) > 0
        mask = _load_gray(types.SimpleNamespace(read_bytes=lambda: blob)) > 0
    except PnmError:
        return
    assert mask.dtype == bool and mask.ndim == 2


def _flip(blob: bytes, flips) -> bytes:
    raw = bytearray(blob)
    for pos, bits in flips:
        raw[pos % len(raw)] ^= bits
    return bytes(raw)


FLIPS = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                 min_size=1, max_size=4)


# ---------------------------------------------------------------------------
# CMTW


def test_weights_blob_round_trips():
    store = load_weights(io.BytesIO(WEIGHTS))
    assert store.names() == ["enc1.weight", "enc1.bias", "head"]
    assert store.config == CONFIG


@FUZZ
@given(st.integers(0, len(WEIGHTS) - 1))
def test_truncated_weight_file_is_typed(n):
    _check_weights(WEIGHTS[:n])


@FUZZ
@given(FLIPS)
def test_flipped_weight_bytes_are_typed(flips):
    _check_weights(_flip(WEIGHTS, flips))


@FUZZ
@given(st.sampled_from(WEIGHT_FIELDS), st.one_of(U32_EDGES, st.integers(0, 2 ** 32 - 1)))
def test_overwritten_weight_field_is_typed(offset, value):
    raw = bytearray(WEIGHTS)
    struct.pack_into("<I", raw, offset, value)
    _check_weights(bytes(raw))


CONFIG_VALUE = st.one_of(
    st.sampled_from(["irrcnn", "nabla3", "-", "", "0", "1", "-1", "2", "1x32x32", "1x30x30",
                     "0x32x32", "1x32", "1x32x32x1", "x", "nan", "inf", "-inf", "1e400",
                     "9" * 5000, "1_0", "0.125", "true"]),
    st.text(max_size=8))


@FUZZ
@given(st.lists(st.tuples(st.sampled_from([*model_config_fields(CONFIG), "preset", ""]),
                          st.one_of(st.none(), CONFIG_VALUE)), min_size=1, max_size=4),
       st.sampled_from(["\n", " ", "\t", "=", ""]))
def test_mutated_config_text_is_typed(edits, sep):
    # fields dropped, added or given bad values; separators that split or
    # merge tokens; text that is not UTF-8 once encoded
    fields = model_config_fields(CONFIG)
    for key, value in edits:
        if value is None:
            fields.pop(key, None)
        else:
            fields[key] = value
    text = sep.join(f"{k}={v}" for k, v in fields.items())
    _check_weights(with_config_text(WEIGHTS, text.encode("utf-8", "surrogatepass")))


@FUZZ
@given(FLIPS)
def test_flipped_config_bytes_are_typed(flips):
    raw = bytearray(WEIGHTS)
    for pos, bits in flips:
        raw[16 + pos % (CONFIG_END - 16)] ^= bits
    _check_weights(bytes(raw))


@FUZZ
@given(st.binary(min_size=1, max_size=12),
       st.lists(st.one_of(U32_EDGES, st.integers(0, 64)), min_size=1, max_size=4),
       st.binary(max_size=64))
def test_generated_weight_file_is_typed(name, dims, values):
    # names that are not UTF-8, zero or huge dims, payloads of any length
    # and content (NaN and Inf bit patterns included)
    _check_weights(one_tensor_file(name, tuple(dims), values))


@FUZZ
@given(st.lists(st.sampled_from([b"a", b"b", b"\xc3", b"\xc3\xa9"]), min_size=1, max_size=4))
def test_generated_multi_tensor_file_is_typed(names):
    # repeated names, and names that are UTF-8 only in one spelling
    blob = b"CMTW" + struct.pack("<II", 1, len(names))
    for name in names:
        blob += (struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 1)
                 + struct.pack("<f", 1.0))
    _check_weights(blob)


@FUZZ
@given(st.binary(max_size=64))
def test_arbitrary_bytes_as_weight_file_are_typed(tail):
    _check_weights(b"CMTW" + tail)
    _check_weights(tail)


# ---------------------------------------------------------------------------
# PGM / PPM


@FUZZ
@given(st.sampled_from([GRAY, RGB]), st.integers(0, len(RGB)))
def test_truncated_pnm_is_typed(blob, n):
    _check_pnm(blob[:n])


@FUZZ
@given(st.sampled_from([GRAY, RGB]), FLIPS)
def test_flipped_pnm_bytes_are_typed(blob, flips):
    _check_pnm(_flip(blob, flips))


HEADER_FIELD = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from(["0", "255", "65535", "4294967296", "9" * 5000, "-0", "+4",
                     "1_0", "0x10", "1e3", "", "#c\n7"]),
    st.text(max_size=6),
)


@FUZZ
@given(st.sampled_from([b"P5", b"P6", b"P2", b"P4", b""]),
       st.lists(HEADER_FIELD, min_size=0, max_size=4),
       st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"", b"\xff"]),
       st.binary(max_size=40))
def test_generated_pnm_header_is_typed(magic, fields, sep, payload):
    # huge, zero, negative and non-numeric dims; bad UTF-8 and comments
    header = magic
    for field in fields:
        header += sep + field.encode("utf-8", "surrogatepass")
    _check_pnm(header + b"\n" + payload)
