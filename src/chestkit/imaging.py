"""Image ingestion: binary PGM/PPM codecs, grayscale conversion, resizing.

Images are plain numpy arrays: grayscale is uint8 of shape (H, W), RGB is
uint8 of shape (H, W, 3), and binary masks elsewhere in the package are
bool arrays of shape (H, W).

Only the binary netpbm formats with maxval 255 are supported.  The writer
emits the canonical header ``P5\\n<w> <h>\\n255\\n`` (``P6`` for RGB)
followed by the raw payload, so save -> load is a bit-exact bijection.
The reader additionally tolerates standard netpbm whitespace and ``#``
comments in the header.
"""

from __future__ import annotations

import numpy as np


class PnmError(ValueError):
    """Base class for netpbm decode failures."""


class PnmFormatError(PnmError):
    """Unrecognized magic or malformed header."""


class PnmMaxvalError(PnmError):
    """Header declares a maxval other than 255."""


class PnmTruncatedError(PnmError):
    """Payload shorter than width * height (* channels)."""


def _ensure_uint8(image: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        raise ValueError(f"{what} must be uint8, got {arr.dtype}")
    return arr


def _read_header_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Parse ``count`` whitespace-separated ints after the magic, skipping
    comments; returns the values and the payload offset."""
    tokens: list[int] = []
    pos = 2  # past the magic
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos:pos + 1].isspace():
            pos += 1
        if pos < n and data[pos:pos + 1] == b"#":
            while pos < n and data[pos] not in (0x0A, 0x0D):
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PnmFormatError("header ended before all fields were read")
        try:
            tokens.append(int(data[start:pos]))
        except ValueError as exc:
            raise PnmFormatError(f"non-numeric header field {data[start:pos]!r}") from exc
    if pos >= n or not data[pos:pos + 1].isspace():
        raise PnmFormatError("missing whitespace after header")
    return tokens, pos + 1


def load_image(data: bytes) -> np.ndarray:
    """Decode binary PGM (P5) to (H, W) or binary PPM (P6) to (H, W, 3)."""
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise PnmFormatError(f"unsupported magic {magic!r}; need binary P5 or P6")
    (width, height, maxval), offset = _read_header_tokens(data, 3)
    if width < 1 or height < 1:
        raise PnmFormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PnmMaxvalError(f"only maxval 255 is supported, got {maxval}")
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    payload = data[offset:offset + expected]
    if len(payload) < expected:
        raise PnmTruncatedError(
            f"payload has {len(payload)} bytes, header promises {expected}")
    pixels = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return pixels.reshape(height, width).copy()
    return pixels.reshape(height, width, 3).copy()


def save_image(image: np.ndarray) -> bytes:
    """Encode (H, W) as P5 or (H, W, 3) as P6 with maxval 255."""
    arr = _ensure_uint8(image, "image")
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError(f"cannot encode array of shape {arr.shape}")
    h, w = arr.shape[:2]
    header = magic + b"\n" + f"{w} {h}".encode() + b"\n255\n"
    return header + np.ascontiguousarray(arr).tobytes()


def save_mask(mask: np.ndarray) -> bytes:
    """Persist a boolean mask as a 0/255 PGM."""
    return save_image(np.multiply(np.asarray(mask, dtype=bool), 255, dtype=np.uint8))


def to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """Luminance 0.299 R + 0.587 G + 0.114 B, rounded half-up to uint8."""
    arr = _ensure_uint8(rgb, "rgb image")
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3), got {arr.shape}")
    y = (0.299 * arr[..., 0] + 0.587 * arr[..., 1] + 0.114 * arr[..., 2])
    return np.floor(y + 0.5).astype(np.uint8)


def resize(image: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor resize; source index is floor((i + 0.5) * src / dst).

    Works for grayscale, RGB, and boolean masks; resizing to the original
    dimensions is the identity.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    arr = np.asarray(image)
    h, w = arr.shape[:2]
    if (out_h, out_w) == (h, w):
        return arr.copy()
    rows = np.minimum(((np.arange(out_h) + 0.5) * h / out_h).astype(np.int64), h - 1)
    cols = np.minimum(((np.arange(out_w) + 0.5) * w / out_w).astype(np.int64), w - 1)
    return arr[np.ix_(rows, cols)].copy()
