import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chestkit.imaging import (
    PnmFormatError,
    PnmMaxvalError,
    PnmTruncatedError,
    load_image,
    resize,
    save_image,
    save_mask,
    to_grayscale,
)
from chestkit.rng import DetRng


def random_gray(seed, h, w):
    return DetRng(seed).integers(h * w, 256).reshape(h, w).astype(np.uint8)


def random_rgb(seed, h, w):
    return DetRng(seed).integers(h * w * 3, 256).reshape(h, w, 3).astype(np.uint8)


# ---------------------------------------------------------------------------
# decoding


def test_load_p5_decodes_exact_pixels():
    data = b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
    img = load_image(data)
    assert img.shape == (2, 2)
    assert np.array_equal(img, [[0, 85], [170, 255]])


def test_load_p6_gives_rgb():
    data = b"P6\n1 2\n255\n" + bytes([1, 2, 3, 4, 5, 6])
    img = load_image(data)
    assert img.shape == (2, 1, 3)
    assert np.array_equal(img[0, 0], [1, 2, 3])
    assert np.array_equal(img[1, 0], [4, 5, 6])


def test_load_accepts_comments_and_whitespace():
    data = b"P5 # comment\n# another\n 2\t1 \n255\n" + bytes([7, 8])
    img = load_image(data)
    assert np.array_equal(img, [[7, 8]])


def test_load_rejects_bad_magic():
    with pytest.raises(PnmFormatError):
        load_image(b"P3\n1 1\n255\n0")


def test_load_rejects_wrong_maxval():
    with pytest.raises(PnmMaxvalError):
        load_image(b"P5\n1 1\n65535\n\x00\x00")


def test_load_rejects_truncated_payload():
    with pytest.raises(PnmTruncatedError):
        load_image(b"P5\n4 4\n255\n" + bytes(5))


def test_error_categories_are_distinct():
    assert not issubclass(PnmMaxvalError, PnmTruncatedError)
    assert not issubclass(PnmTruncatedError, PnmMaxvalError)
    assert issubclass(PnmFormatError, ValueError)


# ---------------------------------------------------------------------------
# encoding


def test_save_header_is_pinned():
    img = np.zeros((3, 5), dtype=np.uint8)
    data = save_image(img)
    assert data.startswith(b"P5\n5 3\n255\n")
    assert len(data) == len(b"P5\n5 3\n255\n") + 15


def test_gray_roundtrip_bit_exact():
    img = random_gray(1, 16, 16)
    assert np.array_equal(load_image(save_image(img)), img)


def test_rgb_roundtrip_bit_exact():
    img = random_rgb(2, 7, 9)
    out = load_image(save_image(img))
    assert out.shape == img.shape
    assert np.array_equal(out, img)


def test_save_load_bijection_on_bytes():
    img = random_gray(3, 5, 8)
    once = save_image(img)
    again = save_image(load_image(once))
    assert once == again


def test_mask_roundtrip():
    mask = random_gray(4, 12, 10) > 128
    assert np.array_equal(load_image(save_mask(mask)) > 0, mask)


def test_save_rejects_non_uint8():
    with pytest.raises(ValueError):
        save_image(np.zeros((4, 4), dtype=np.float64))


# ---------------------------------------------------------------------------
# grayscale conversion


def test_grayscale_white_is_255():
    rgb = np.full((2, 2, 3), 255, dtype=np.uint8)
    assert np.all(to_grayscale(rgb) == 255)


def test_grayscale_pure_red():
    rgb = np.zeros((1, 1, 3), dtype=np.uint8)
    rgb[..., 0] = 255
    assert to_grayscale(rgb)[0, 0] == 76  # floor(0.299*255 + 0.5)


def test_grayscale_of_gray_input_is_identity():
    v = np.arange(256, dtype=np.uint8).reshape(16, 16)
    rgb = np.stack([v, v, v], axis=-1)
    assert np.array_equal(to_grayscale(rgb), v)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_grayscale_within_one_of_real_luminance(r, g, b):
    rgb = np.array([[[r, g, b]]], dtype=np.uint8)
    exact = 0.299 * r + 0.587 * g + 0.114 * b
    assert abs(int(to_grayscale(rgb)[0, 0]) - exact) <= 1.0


# ---------------------------------------------------------------------------
# resizing


def test_resize_same_size_is_identity():
    img = random_gray(5, 9, 13)
    assert np.array_equal(resize(img, 13, 9), img)


def test_resize_checkerboard_halving_uses_index_formula():
    img = random_gray(6, 4, 4)
    out = resize(img, 2, 2)
    for i in range(2):
        for j in range(2):
            assert out[i, j] == img[2 * i + 1, 2 * j + 1]


def test_resize_constant_stays_constant():
    img = np.full((8, 8), 77, dtype=np.uint8)
    assert np.all(resize(img, 3, 5) == 77)


def test_resize_upscale_replicates_nearest():
    img = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    out = resize(img, 4, 4)
    assert np.array_equal(out, np.array([[1, 1, 2, 2], [1, 1, 2, 2],
                                         [3, 3, 4, 4], [3, 3, 4, 4]]))


def test_resize_keeps_masks_binary():
    mask = random_gray(7, 32, 32) > 100
    out = resize(mask, 16, 16)
    assert out.dtype == bool


def test_resize_rgb():
    img = random_rgb(8, 6, 6)
    out = resize(img, 3, 3)
    assert out.shape == (3, 3, 3)
    assert np.array_equal(out[0, 0], img[1, 1])


def test_resize_rejects_bad_dims():
    with pytest.raises(ValueError):
        resize(random_gray(9, 4, 4), 0, 4)
