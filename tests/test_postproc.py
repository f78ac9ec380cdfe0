import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chestkit import postproc, synthdata
from chestkit.postproc import (
    InfectionReport,
    OracleSegmenter,
    Region,
    adaptive_threshold,
    apply_mask,
    binarize,
    close_mask,
    connected_components,
    dilate,
    erode,
    heatmap_overlay,
    infection_percentage,
    open_mask,
    report_from_text,
    report_to_text,
    run_pipeline,
    select_largest,
)
from chestkit.rng import DetRng
from chestkit.tensor import Tensor


def random_mask(seed, h=16, w=16, density=0.5):
    return DetRng(seed).random(h * w).reshape(h, w) < density


def box(radius=1):
    return np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)


# ---------------------------------------------------------------------------
# brute-force oracles (definition-level, independent of the implementations)


def erode_brute(mask, se):
    r = se.shape[0] // 2
    h, w = mask.shape
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            ok = True
            for a in range(-r, r + 1):
                for b in range(-r, r + 1):
                    if not se[a + r, b + r]:
                        continue
                    ii, jj = i + a, j + b
                    value = mask[ii, jj] if 0 <= ii < h and 0 <= jj < w else False
                    if not value:
                        ok = False
            out[i, j] = ok
    return out


def dilate_brute(mask, se):
    r = se.shape[0] // 2
    h, w = mask.shape
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            hit = False
            for a in range(-r, r + 1):
                for b in range(-r, r + 1):
                    if not se[a + r, b + r]:
                        continue
                    ii, jj = i - a, j - b
                    if 0 <= ii < h and 0 <= jj < w and mask[ii, jj]:
                        hit = True
            out[i, j] = hit
    return out


_OFFSETS_4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_OFFSETS_8 = _OFFSETS_4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def connected_components_brute(mask: np.ndarray, connectivity: int = 8) -> list[Region]:
    """Label components; largest first, ties by bounding-box top-left."""
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    mask = np.asarray(mask).astype(bool)
    h, w = mask.shape
    offsets = _OFFSETS_4 if connectivity == 4 else _OFFSETS_8
    seen = np.zeros_like(mask)
    raw: list[tuple[int, tuple[int, int, int, int], list[int]]] = []
    for sr in range(h):
        for sc in range(w):
            if not mask[sr, sc] or seen[sr, sc]:
                continue
            stack = [(sr, sc)]
            seen[sr, sc] = True
            members: list[int] = []
            top, left, bottom, right = sr, sc, sr, sc
            while stack:
                r, c = stack.pop()
                members.append(r * w + c)
                top, bottom = min(top, r), max(bottom, r)
                left, right = min(left, c), max(right, c)
                for dr, dc in offsets:
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not seen[nr, nc]:
                        seen[nr, nc] = True
                        stack.append((nr, nc))
            raw.append((len(members), (top, left, bottom, right), members))
    raw.sort(key=lambda item: (-item[0], item[1][0], item[1][1]))
    return [
        Region(id=i + 1, pixel_count=count, bbox=bbox,
               pixels=np.array(sorted(members), dtype=np.int64),
               image_shape=(h, w))
        for i, (count, bbox, members) in enumerate(raw)
    ]


def adaptive_brute(img, roi, window, offset):
    r = window // 2
    h, w = img.shape
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            if not roi[i, j]:
                continue
            total = 0.0
            count = 0
            for a in range(max(0, i - r), min(h, i + r + 1)):
                for b in range(max(0, j - r), min(w, j + r + 1)):
                    if roi[a, b]:
                        total += float(img[a, b])
                        count += 1
            out[i, j] = float(img[i, j]) > total / count + offset
    return out


# ---------------------------------------------------------------------------
# binarize


def test_binarize_all_high():
    probs = np.full((4, 4), 0.9)
    assert np.all(binarize(probs))


def test_binarize_straddles_threshold():
    out = binarize(np.array([[0.4, 0.6]]))
    assert np.array_equal(out, [[False, True]])


def test_binarize_exactly_half_is_false():
    assert not binarize(np.array([[0.5]]))[0, 0]


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_binarize_rejects_a_threshold_that_is_not_finite(threshold):
    # a NaN threshold would mark nothing, and report every lung empty
    with pytest.raises(ValueError, match="threshold must be finite"):
        binarize(np.full((2, 2), 0.9), threshold)


# ---------------------------------------------------------------------------
# morphology


def test_dilate_center_pixel_becomes_block():
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 2] = True
    out = dilate(mask)
    expected = np.zeros((5, 5), dtype=bool)
    expected[1:4, 1:4] = True
    assert np.array_equal(out, expected)


def test_morphology_of_empty_mask_is_empty():
    empty = np.zeros((6, 6), dtype=bool)
    assert not erode(empty).any()
    assert not dilate(empty).any()


def test_erode_dilate_match_brute_force_on_100_random_masks():
    for seed in range(100):
        mask = random_mask(seed)
        assert np.array_equal(erode(mask), erode_brute(mask, box())), seed
        assert np.array_equal(dilate(mask), dilate_brute(mask, box())), seed


def open_brute(mask, se):
    r = se.shape[0] // 2
    h, w = mask.shape
    padded = np.pad(mask, r, constant_values=False)
    return dilate_brute(erode_brute(padded, se), se)[r:r + h, r:r + w]


def close_brute(mask, se):
    r = se.shape[0] // 2
    h, w = mask.shape
    padded = np.pad(mask, r, constant_values=False)
    return erode_brute(dilate_brute(padded, se), se)[r:r + h, r:r + w]


def test_open_close_match_brute_force_composition():
    for seed in range(100, 200):
        mask = random_mask(seed)
        assert np.array_equal(open_mask(mask), open_brute(mask, box())), seed
        assert np.array_equal(close_mask(mask), close_brute(mask, box())), seed


def test_open_removes_isolated_pixel():
    mask = np.zeros((7, 7), dtype=bool)
    mask[3, 3] = True
    assert not open_mask(mask).any()


def test_close_fills_single_pixel_hole():
    mask = np.zeros((9, 9), dtype=bool)
    mask[2:7, 2:7] = True
    mask[4, 4] = False
    out = close_mask(mask)
    assert out[4, 4]
    assert np.array_equal(out, close_brute(mask, box()))


def test_open_close_idempotent_on_random_masks():
    for seed in range(50):
        mask = random_mask(seed + 300, 32, 32)
        opened = open_mask(mask)
        closed = close_mask(mask)
        assert np.array_equal(open_mask(opened), opened)
        assert np.array_equal(close_mask(closed), closed)


def test_open_anti_extensive_close_extensive():
    for seed in range(100):
        mask = random_mask(seed + 400, 32, 32)
        assert not (open_mask(mask) & ~mask).any()     # open(m) subset of m
        assert not (mask & ~close_mask(mask)).any()    # m subset of close(m)


def test_duality_on_interior_of_padded_masks():
    for seed in range(20):
        inner = random_mask(seed + 500, 12, 12)
        mask = np.zeros((18, 18), dtype=bool)
        mask[3:15, 3:15] = inner
        lhs = erode(mask)
        rhs = ~dilate(~mask)
        assert np.array_equal(lhs[1:-1, 1:-1], rhs[1:-1, 1:-1]), seed


def test_bigger_structuring_element():
    # the synthetic corpora erode at radius 3 (lung inset) and 5 or 6 (blob
    # margins); overlapping rectangles with pin holes leave each erosion non-empty
    for seed in range(10):
        mask = np.zeros((30, 30), dtype=bool)
        for top, left, height, width in DetRng(seed + 600).integers(16, 18).reshape(4, 4):
            mask[top:top + height + 12, left:left + width + 12] = True
        mask &= random_mask(seed + 650, 30, 30, density=0.995)
        for radius in (0, 2, 3, 5, 6):
            assert np.array_equal(erode(mask, radius), erode_brute(mask, box(radius))), \
                (seed, radius)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_morphology_of_zero_size_mask_is_empty(shape):
    mask = np.zeros(shape, dtype=bool)
    outs = [erode(mask, radius) for radius in (0, 1, 3)]
    outs += [dilate(mask), open_mask(mask), close_mask(mask)]
    for out in outs:
        assert out.shape == shape and out.dtype == bool


def test_erode_rejects_negative_radius():
    with pytest.raises(ValueError, match="radius"):
        erode(np.ones((4, 4), dtype=bool), -1)


# ---------------------------------------------------------------------------
# connected components


def test_two_disjoint_blocks_are_two_regions():
    mask = np.zeros((8, 8), dtype=bool)
    mask[1:3, 1:3] = True
    mask[5:7, 5:7] = True
    regions = connected_components(mask)
    assert len(regions) == 2
    assert all(r.pixel_count == 4 for r in regions)


def test_empty_mask_yields_no_regions():
    assert connected_components(np.zeros((4, 4), dtype=bool)) == []


def test_diagonal_pixels_depend_on_connectivity():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    mask[2, 2] = True
    assert len(connected_components(mask, connectivity=8)) == 1
    assert len(connected_components(mask, connectivity=4)) == 2


def test_region_pixel_counts_partition_the_mask():
    for seed in range(20):
        mask = random_mask(seed + 700, 24, 24, density=0.4)
        regions = connected_components(mask)
        assert sum(r.pixel_count for r in regions) == int(mask.sum())
        union = np.zeros((24, 24), dtype=bool)
        for r in regions:
            piece = r.mask()
            assert not (union & piece).any()   # disjoint
            union |= piece
        assert np.array_equal(union, mask)


def test_regions_ordered_by_size_then_topleft():
    mask = np.zeros((10, 10), dtype=bool)
    mask[0:2, 0:2] = True        # 4 px at (0,0)
    mask[5:7, 5:8] = True        # 6 px at (5,5)
    mask[8:9, 0:4] = True        # 4 px at (8,0)
    regions = connected_components(mask)
    assert [r.pixel_count for r in regions] == [6, 4, 4]
    assert regions[1].bbox[:2] == (0, 0)
    assert regions[2].bbox[:2] == (8, 0)
    assert [r.id for r in regions] == [1, 2, 3]


def test_region_bbox_matches_extent():
    mask = np.zeros((6, 6), dtype=bool)
    mask[2:5, 1:4] = True
    region = connected_components(mask)[0]
    assert region.bbox == (2, 1, 4, 3)


def assert_same_regions(got, want):
    assert len(got) == len(want)
    for g, e in zip(got, want):
        assert (g.id, g.pixel_count, g.bbox, g.image_shape) == \
            (e.id, e.pixel_count, e.bbox, e.image_shape)
        assert g.pixels.dtype == e.pixels.dtype == np.int64
        assert np.array_equal(g.pixels, e.pixels)


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 5), (33, 17), (64, 64)])
def test_connected_components_match_brute_force(shape, connectivity):
    for k, density in enumerate((0.0, 0.1, 0.3, 0.45, 0.6, 0.9, 1.0)):
        for seed in range(3):
            mask = random_mask(3000 + 10 * k + seed, *shape, density=density)
            assert_same_regions(connected_components(mask, connectivity),
                                connected_components_brute(mask, connectivity))


@pytest.mark.parametrize("density", [0.3, 0.45, 0.6])
def test_connected_components_match_brute_force_at_256(density):
    mask = random_mask(3100, 256, 256, density=density)
    for connectivity in (4, 8):
        assert_same_regions(connected_components(mask, connectivity),
                            connected_components_brute(mask, connectivity))


def serpentine(h, w):
    """Even rows filled, joined at alternating ends: one long 4-connected chain."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    for r in range(1, h, 2):
        mask[r, w - 1 if r % 4 == 1 else 0] = True
    return mask


def test_connected_components_serpentine_is_one_chain():
    mask = serpentine(63, 64)
    for connectivity in (4, 8):
        regions = connected_components(mask, connectivity)
        assert len(regions) == 1
        assert regions[0].pixel_count == int(mask.sum())
        assert_same_regions(regions, connected_components_brute(mask, connectivity))


def test_connected_components_tie_goes_to_first_pixel_in_raster_order():
    mask = np.zeros((5, 5), dtype=bool)
    mask[0:3, 0:3] = True        # block: 9 px, bbox (0, 0, 2, 2)
    mask[0:5, 4] = True          # L: 9 px, bbox (0, 0, 4, 4)
    mask[4, 0:4] = True
    for connectivity in (4, 8):
        regions = connected_components(mask, connectivity)
        assert [r.pixel_count for r in regions] == [9, 9]
        assert [r.bbox for r in regions] == [(0, 0, 2, 2), (0, 0, 4, 4)]
        assert regions[0].pixels[0] == 0 and regions[1].pixels[0] == 4
        assert_same_regions(regions, connected_components_brute(mask, connectivity))


def test_connected_components_edge_cases_match_brute_force():
    wrap = np.zeros((4, 6), dtype=bool)       # (r, w-1) and (r+1, 0)
    wrap[1, 5] = wrap[2, 0] = True
    borders = np.zeros((4, 6), dtype=bool)    # a run at the right border
    borders[1, 3:] = True                     # above one at the left border
    borders[2, :2] = True
    for connectivity in (4, 8):
        for mask in (wrap, borders):
            regions = connected_components(mask, connectivity)
            assert len(regions) == 2
            assert_same_regions(regions, connected_components_brute(mask, connectivity))
        for k, shape in enumerate(((256, 7), (7, 256))):
            for density in (0.3, 0.6):
                mask = random_mask(3200 + k, *shape, density=density)
                assert_same_regions(connected_components(mask, connectivity),
                                    connected_components_brute(mask, connectivity))
        for shape in ((0, 5), (5, 0), (0, 0)):
            assert connected_components(np.zeros(shape, dtype=bool), connectivity) == []
            assert connected_components_brute(np.zeros(shape, dtype=bool), connectivity) == []


def test_connected_components_rejects_bad_connectivity():
    with pytest.raises(ValueError):
        connected_components(np.ones((3, 3), dtype=bool), connectivity=6)


# ---------------------------------------------------------------------------
# region selection and extraction


def test_select_largest_keeps_biggest():
    mask = np.zeros((20, 20), dtype=bool)
    mask[0:10, 0:10] = True      # 100 px
    mask[15, 0:7] = True         # 7 px
    mask[19, 17:20] = True       # 3 px
    regions = connected_components(mask)
    out = select_largest(regions, 1, mask.shape)
    assert out.sum() == 100


def test_select_largest_with_k_above_region_count():
    mask = random_mask(800, 12, 12, density=0.3)
    regions = connected_components(mask)
    assert np.array_equal(select_largest(regions, len(regions) + 5, shape=mask.shape),
                          mask)


def test_select_largest_tie_keeps_both_fifties():
    mask = np.zeros((30, 30), dtype=bool)
    mask[0:5, 0:10] = True       # 50 px
    mask[10:15, 10:20] = True    # 50 px
    mask[25, 0:3] = True         # 3 px
    regions = connected_components(mask)
    out = select_largest(regions, 2, mask.shape)
    assert out.sum() == 100
    assert not out[25, 0]


def test_select_largest_empty_regions_with_shape():
    out = select_largest([], 2, shape=(5, 5))
    assert not out.any()


def test_apply_mask_full_empty_half():
    img = DetRng(1).integers(64, 256).reshape(8, 8).astype(np.uint8)
    full = np.ones((8, 8), dtype=bool)
    assert np.array_equal(apply_mask(img, full), img)
    empty = np.zeros((8, 8), dtype=bool)
    assert not apply_mask(img, empty).any()
    half = np.zeros((8, 8), dtype=bool)
    half[:, :4] = True
    out = apply_mask(img, half)
    assert np.array_equal(out[:, :4], img[:, :4])
    assert not out[:, 4:].any()


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint16, bool])
def test_apply_mask_integer_bytes_equal_to_a_select(dtype):
    rng = DetRng(2)
    offset = 0 if dtype in (np.uint8, np.uint16) else 128
    img = (rng.integers(32 * 32, 256).reshape(32, 32) - offset).astype(dtype)
    mask = rng.random(32 * 32).reshape(32, 32) < 0.5
    out = apply_mask(img, mask)
    want = np.where(mask, img, 0).astype(img.dtype)
    assert out.dtype == want.dtype and out.tobytes() == want.tobytes()


def test_apply_mask_float_outside_is_positive_zero():
    # a multiply would leave -0.0 for -1.0 and NaN for NaN outside the mask
    img = np.array([[-1.0, np.nan], [2.5, -3.0]])
    mask = np.array([[False, False], [True, True]])
    out = apply_mask(img, mask)
    assert out.tobytes() == np.array([[0.0, 0.0], [2.5, -3.0]]).tobytes()


def test_apply_mask_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        apply_mask(np.zeros((4, 4), dtype=np.uint8), np.zeros((5, 5), dtype=bool))


# ---------------------------------------------------------------------------
# adaptive threshold


def test_adaptive_threshold_uniform_image_is_empty():
    img = np.full((20, 20), 120, dtype=np.uint8)
    roi = np.ones((20, 20), dtype=bool)
    assert not adaptive_threshold(img, roi, window=5, offset=1.0).any()


def test_adaptive_threshold_finds_bright_square():
    img = np.full((24, 24), 50, dtype=np.uint8)
    img[10:14, 10:14] = 200
    roi = np.ones((24, 24), dtype=bool)
    out = adaptive_threshold(img, roi, window=15, offset=5.0)
    expected = np.zeros((24, 24), dtype=bool)
    expected[10:14, 10:14] = True
    assert np.array_equal(out, expected)


def test_adaptive_threshold_window_covering_roi_equals_global_rule():
    rng = DetRng(2)
    img = (rng.random(81).reshape(9, 9) * 200).astype(np.uint8)
    roi = random_mask(900, 9, 9, density=0.7)
    out = adaptive_threshold(img, roi, window=19, offset=3.0)
    mean = img[roi].astype(float).mean()
    expected = roi & (img.astype(float) > mean + 3.0)
    assert np.array_equal(out, expected)


def test_adaptive_threshold_matches_brute_force_on_20_random_images():
    for seed in range(20):
        rng = DetRng(seed + 1000)
        img = (rng.random(18 * 18).reshape(18, 18) * 255).astype(np.uint8)
        roi = random_mask(seed + 2000, 18, 18, density=0.8)
        for window, offset in ((3, 1.0), (7, 5.0)):
            got = adaptive_threshold(img, roi, window=window, offset=offset)
            want = adaptive_brute(img, roi, window, offset)
            assert np.array_equal(got, want), (seed, window)


@pytest.mark.parametrize("shape,windows", [
    ((1, 30), (3, 7, 61)),         # 61 exceeds both sides
    ((30, 1), (3, 7, 61)),
    ((5, 40), (3, 7, 15, 81)),     # 7 and 15 exceed the height only
])
def test_adaptive_threshold_matches_brute_force_on_non_square_images(shape, windows):
    h, w = shape
    for seed in range(5):
        img = (DetRng(seed + 1050).random(h * w).reshape(h, w) * 255).astype(np.uint8)
        roi = random_mask(seed + 2050, h, w, density=0.8)
        for window in windows:
            got = adaptive_threshold(img, roi, window=window, offset=2.0)
            assert np.array_equal(got, adaptive_brute(img, roi, window, 2.0)), (seed, window)


def test_adaptive_threshold_matches_brute_force_at_256_with_default_window():
    sample = synthdata.gen_infection_set(synthdata.SynthSpec(count=1, size=256, seed=7))[0]
    roi = sample.lung_mask
    extracted = apply_mask(sample.image, roi)
    got = adaptive_threshold(extracted, roi)
    assert got.any()
    assert np.array_equal(got, adaptive_brute(extracted, roi, 15, 5.0))


@pytest.mark.parametrize("img", [
    np.floor(DetRng(1100).random(20 * 24).reshape(20, 24) * 1024) / 4 - 64,
    np.arange(20 * 24, dtype=np.int16).reshape(20, 24),
    random_mask(1101, 20, 24),
], ids=["dyadic-float64", "int16", "bool"])
def test_adaptive_threshold_rejects_an_image_that_is_not_uint8(img):
    with pytest.raises(ValueError, match="uint8"):
        adaptive_threshold(img, random_mask(2100, 20, 24, density=0.7))


def test_adaptive_threshold_respects_roi():
    img = np.full((10, 10), 50, dtype=np.uint8)
    img[5, 5] = 255
    roi = np.zeros((10, 10), dtype=bool)
    roi[0:3, 0:3] = True
    out = adaptive_threshold(img, roi)
    assert not out[5, 5]


def test_adaptive_threshold_rejects_even_window():
    with pytest.raises(ValueError):
        adaptive_threshold(np.zeros((5, 5), dtype=np.uint8),
                           np.ones((5, 5), dtype=bool), window=4)


@pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
def test_adaptive_threshold_rejects_an_offset_that_is_not_finite(offset):
    with pytest.raises(ValueError, match="offset must be finite"):
        adaptive_threshold(np.zeros((5, 5), dtype=np.uint8),
                           np.ones((5, 5), dtype=bool), offset=offset)


@pytest.mark.parametrize("shape", [(1, 1), (3, 100), (17, 5), (64, 64)])
@pytest.mark.parametrize("dtype", [np.uint8])
def test_adaptive_threshold_window_wider_than_the_image_runs_as_the_image(shape, dtype):
    # a window of 2 * max(h, w) + 1 covers the image from every pixel, so
    # any wider one gives the same bytes; 10**6 + 1 unclamped would ask
    # numpy for a (h + 10**6)**2 table
    h, w = shape
    img = (DetRng(50).random(h * w).reshape(h, w) * 256).astype(dtype)
    roi = random_mask(51, h, w, density=0.7)
    want = adaptive_threshold(img, roi, 2 * max(h, w) + 1, 1.0)
    for window in (2 * max(h, w) + 3, 1001, 10 ** 6 + 1):
        assert adaptive_threshold(img, roi, window, 1.0).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# property tests against the oracles, on drawn shapes and densities


@st.composite
def drawn_masks(draw, max_side=24):
    h = draw(st.integers(0, max_side))
    w = draw(st.integers(0, max_side))
    density = draw(st.floats(0.0, 1.0))
    return random_mask(draw(st.integers(0, 2 ** 31)), h, w, density=density)


@settings(max_examples=300, deadline=None)
@given(drawn_masks(), st.sampled_from((4, 8)))
def test_connected_components_property(mask, connectivity):
    assert_same_regions(connected_components(mask, connectivity),
                        connected_components_brute(mask, connectivity))


@settings(max_examples=150, deadline=None)
@given(drawn_masks(), st.integers(0, 3))
def test_morphology_property(mask, radius):
    assert np.array_equal(erode(mask, radius), erode_brute(mask, box(radius)))
    assert np.array_equal(dilate(mask), dilate_brute(mask, box()))
    assert np.array_equal(open_mask(mask), open_brute(mask, box()))
    assert np.array_equal(close_mask(mask), close_brute(mask, box()))


@settings(max_examples=150, deadline=None)
@given(drawn_masks(), st.integers(1, 25),
       st.sampled_from((-2.0, 0.0, 1.0, 5.0)), st.integers(0, 2 ** 31))
def test_adaptive_threshold_property(roi, half_window, offset, seed):
    h, w = roi.shape
    img = (DetRng(seed).random(h * w).reshape(h, w) * 256).astype(np.uint8)
    window = 2 * half_window + 1
    assert np.array_equal(adaptive_threshold(img, roi, window, offset),
                          adaptive_brute(img, roi, window, offset))


@settings(max_examples=150, deadline=None)
@given(drawn_masks(), st.integers(1, 25),
       st.one_of(st.sampled_from((-2.0, 0.0, 1.0, 5.0)),
                 st.floats(-300.0, 300.0, allow_nan=False)),
       st.integers(0, 2 ** 31))
@example(random_mask(5, 1, 23), 3, 0.0, 7)
@example(random_mask(6, 23, 1), 2, 1.0, 8)
@example(random_mask(7, 1, 1), 1, -2.0, 9)
def test_adaptive_threshold_packed_equals_float_path(roi, half_window, offset, seed):
    # the packed int64 table against the oracle's float64 sums, which are
    # exact: every sum of a uint8 image is an integer below 2^53
    h, w = roi.shape
    img = (DetRng(seed).random(h * w).reshape(h, w) * 256).astype(np.uint8)
    window = 2 * half_window + 1
    assert np.array_equal(adaptive_threshold(img, roi, window, offset),
                          adaptive_brute(img, roi, window, offset))


def count_cumsum_calls(monkeypatch):
    calls = []
    cumsum = np.cumsum

    def spy(*args, **kwargs):
        calls.append(args[0].dtype)
        return cumsum(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", spy)
    return calls


def test_adaptive_threshold_uint8_takes_one_packed_table(monkeypatch):
    img = DetRng(40).integers(30 * 20, 256).reshape(30, 20).astype(np.uint8)
    roi = random_mask(41, 30, 20, density=0.7)
    want = adaptive_brute(img, roi, 7, 2.0)
    calls = count_cumsum_calls(monkeypatch)
    assert np.array_equal(adaptive_threshold(img, roi, 7, 2.0), want)
    assert calls == [np.int64, np.int64]
    # a float64 image, or one past the packing bound, raises before any sum
    calls.clear()
    with pytest.raises(ValueError):
        adaptive_threshold(img.astype(np.float64), roi, 7, 2.0)
    monkeypatch.setattr(postproc, "_packing_shift", lambda size: None)
    with pytest.raises(ValueError):
        adaptive_threshold(img, roi, 7, 2.0)
    assert calls == []


@pytest.mark.parametrize("size", [1, 2, 3, 255, 73441, 2 ** 20, 2 ** 27 - 1, 2 ** 27,
                                  2 ** 28 - 1, 11585 ** 2, 11586 ** 2, 2 ** 40])
def test_packing_shift_keeps_every_packed_sum_exact(size):
    shift = postproc._packing_shift(size)
    if shift is None:
        # refused only when the largest packed sum could pass int64
        s = size.bit_length()
        assert (255 * (2 ** s - 1) << s) + 2 ** s - 1 > 2 ** 63 - 1
        return
    # every count (at most ``size``) fits in the low bits, and the largest
    # packed sum, every pixel 255 and in the roi, fits in int64
    assert size < 2 ** shift
    assert (255 * size << shift) + size <= 2 ** 63 - 1


def test_packing_shift_bound_is_about_11k_a_side():
    assert postproc._packing_shift(2 ** 27 - 1) == 27
    assert postproc._packing_shift(2 ** 27) is None
    assert postproc._packing_shift(11585 ** 2) is not None
    assert postproc._packing_shift(11586 ** 2) is None


# ---------------------------------------------------------------------------
# quantification


def mask_with_count(count, shape=(100, 100)):
    out = np.zeros(shape, dtype=bool)
    out.reshape(-1)[:count] = True
    return out


@pytest.mark.parametrize("lung,infected,expected", [
    (6696, 2245, "33.52"),
    (9601, 3609, "37.58"),
    (5184, 1599, "30.84"),
])
def test_infection_percentage_worked_examples(lung, infected, expected):
    report = infection_percentage(mask_with_count(lung), mask_with_count(infected))
    assert report.lung_pixels == lung
    assert report.infected_pixels == infected
    assert report.percent_text == expected
    assert report.percent == float(expected)
    assert not report.degenerate


def test_infection_percentage_truncates_not_rounds():
    # 2245/6696 = 33.527...%, round-half-up would print 33.53
    report = infection_percentage(mask_with_count(6696), mask_with_count(2245))
    assert report.percent_text == "33.52"


def test_infection_percentage_zero_infected():
    report = infection_percentage(mask_with_count(500), mask_with_count(0))
    assert report.percent == 0.0
    assert report.percent_text == "0.00"
    assert not report.degenerate


def test_infection_percentage_empty_lung_degenerate():
    report = infection_percentage(mask_with_count(0), mask_with_count(0))
    assert report.degenerate
    assert report.percent == 0.0


def test_infection_percentage_enforces_containment():
    lung = np.zeros((10, 10), dtype=bool)
    lung[:5] = True
    infected = np.ones((10, 10), dtype=bool)   # spills outside the lung
    report = infection_percentage(lung, infected)
    assert report.infected_pixels == 50
    assert report.percent == 100.0


def test_infection_percentage_monotone_in_infected_count():
    lung = mask_with_count(4000)
    last = -1.0
    for infected in range(0, 4001, 397):
        report = infection_percentage(lung, mask_with_count(infected))
        assert report.percent >= last
        last = report.percent


@pytest.mark.parametrize("lung", [np.ones((4, 4), dtype=bool), np.zeros((4, 4), dtype=bool)],
                         ids=["diagonal-infected", "empty-lung"])
def test_infection_report_holds_python_numbers(lung):
    report = infection_percentage(lung, np.eye(4, dtype=bool))
    assert type(report.lung_pixels) is int and type(report.infected_pixels) is int
    assert type(report.percent) is float and type(report.degenerate) is bool
    text = json.dumps(dataclasses.asdict(report))
    assert InfectionReport(**json.loads(text)) == report


def test_infection_percentage_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        infection_percentage(np.zeros((4, 4), dtype=bool), np.zeros((5, 5), dtype=bool))


def test_report_text_roundtrip():
    report = InfectionReport(6696, 2245, 33.52)
    text = report_to_text(report)
    assert "percent=33.52" in text
    parsed = report_from_text(text)
    assert parsed == report


# ---------------------------------------------------------------------------
# heatmap


def test_heatmap_empty_mask_replicates_gray():
    img = DetRng(3).integers(64, 256).reshape(8, 8).astype(np.uint8)
    rgb = heatmap_overlay(img, np.zeros((8, 8), dtype=bool))
    for c in range(3):
        assert np.array_equal(rgb[..., c], img)


def test_heatmap_full_mask_on_black():
    img = np.zeros((4, 4), dtype=np.uint8)
    rgb = heatmap_overlay(img, np.ones((4, 4), dtype=bool))
    assert np.all(rgb[..., 0] == 127)
    assert np.all(rgb[..., 1] == 0)
    assert np.all(rgb[..., 2] == 0)


def test_heatmap_leaves_unmasked_pixels_untouched():
    img = DetRng(4).integers(36, 256).reshape(6, 6).astype(np.uint8)
    mask = random_mask(1100, 6, 6)
    rgb = heatmap_overlay(img, mask)
    outside = ~mask
    for c in range(3):
        assert np.array_equal(rgb[..., c][outside], img[outside])
    inside = mask
    assert np.array_equal(rgb[..., 0][inside],
                          ((img.astype(np.uint16) + 255) // 2)[inside].astype(np.uint8))


@pytest.mark.parametrize("pattern", ["none", "all", "checker"])
def test_heatmap_matches_uint16_formula_for_every_gray(pattern):
    img = np.arange(256, dtype=np.uint8).reshape(16, 16)
    mask = {"none": np.zeros((16, 16), dtype=bool),
            "all": np.ones((16, 16), dtype=bool),
            "checker": (np.indices((16, 16)).sum(axis=0) % 2).astype(bool)}[pattern]
    g16 = img.astype(np.uint16)
    red = np.where(mask, (g16 + 255) // 2, g16).astype(np.uint8)
    green_blue = np.where(mask, g16 // 2, g16).astype(np.uint8)
    want = np.stack([red, green_blue, green_blue], axis=-1)
    got = heatmap_overlay(img, mask)
    assert got.dtype == np.uint8 and got.shape == (16, 16, 3)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the full pipeline


def blob_image(seed, size=64):
    """Grayscale image with two dark elliptical blobs and a bright spot."""
    rng = DetRng(seed)
    img = (rng.random(size * size).reshape(size, size) * 30).astype(np.uint8) + 150
    yy, xx = np.mgrid[0:size, 0:size]
    left = ((yy - size / 2) / (size * 0.3)) ** 2 + ((xx - size * 0.3) / (size * 0.14)) ** 2 <= 1
    right = ((yy - size / 2) / (size * 0.3)) ** 2 + ((xx - size * 0.7) / (size * 0.14)) ** 2 <= 1
    lungs = left | right
    img[lungs] = 100
    img[int(size / 2) - 2:int(size / 2) + 2, int(size * 0.3) - 2:int(size * 0.3) + 2] = 190
    return img, lungs


def test_pipeline_equals_hand_chained_stages():
    from chestkit.training import minmax_normalize

    for seed in range(5):
        img, lungs = blob_image(seed + 1200)
        seg = OracleSegmenter(lungs)
        result = run_pipeline(img, seg, mode="lung")

        probs = seg.forward(Tensor(minmax_normalize(img)[None, None]))
        mask = binarize(probs.data[0, 0], 0.5)
        refined = open_mask(close_mask(mask))
        regions = connected_components(refined, 8)
        region_mask = select_largest(regions, 2, shape=img.shape)
        extracted = apply_mask(img, region_mask)
        infected = adaptive_threshold(extracted, region_mask, 15, 5.0)
        report = infection_percentage(region_mask, infected)
        heat = heatmap_overlay(img, infected)

        assert np.array_equal(result.region_mask, region_mask)
        assert np.array_equal(result.infected_mask, infected)
        assert result.report == report
        assert np.array_equal(result.heatmap, heat)


@pytest.mark.parametrize("size, seed", [(64, 31), (256, 32)])
@pytest.mark.parametrize("mode", ["chest", "lung"])
def test_pipeline_reads_no_pixel_outside_the_kept_regions(size, seed, mode):
    # the threshold's roi is the chain's only masking of the image: pixels
    # outside the regions kept change the heatmap and nothing else
    for sample in synthdata.gen_infection_set(synthdata.SynthSpec(count=2, size=size,
                                                                  seed=seed)):
        seg = OracleSegmenter(sample.lung_mask)
        want = run_pipeline(sample.image, seg, mode=mode)
        outside = ~want.region_mask
        scrambled = sample.image.copy()
        scrambled[outside] = DetRng(seed).integers(int(outside.sum()), 256)
        got = run_pipeline(scrambled, seg, mode=mode)
        assert not np.array_equal(scrambled, sample.image)
        assert got.region_mask.tobytes() == want.region_mask.tobytes()
        assert got.infected_mask.tobytes() == want.infected_mask.tobytes()
        assert report_to_text(got.report) == report_to_text(want.report)


def test_oracle_segmenter_keeps_its_own_copy_of_the_mask():
    _, lungs = blob_image(1600)
    seg = OracleSegmenter(lungs)
    batch = Tensor(np.zeros((1, 1) + lungs.shape))
    want = seg.forward(batch).data.tobytes()
    lungs[:] = ~lungs
    assert seg.forward(batch).data.tobytes() == want


def test_pipeline_is_deterministic():
    img, lungs = blob_image(1300)
    seg = OracleSegmenter(lungs)
    a = run_pipeline(img, seg, mode="lung")
    b = run_pipeline(img, seg, mode="lung")
    assert np.array_equal(a.region_mask, b.region_mask)
    assert np.array_equal(a.infected_mask, b.infected_mask)
    assert a.report == b.report
    assert np.array_equal(a.heatmap, b.heatmap)


def test_pipeline_modes_differ_only_in_region_count():
    img, lungs = blob_image(1400)
    seg = OracleSegmenter(lungs)
    chest = run_pipeline(img, seg, mode="chest")
    lung = run_pipeline(img, seg, mode="lung")
    assert not (chest.region_mask & ~lung.region_mask).any()
    assert chest.region_mask.sum() < lung.region_mask.sum()


def test_pipeline_rejects_unknown_mode():
    img, lungs = blob_image(1500)
    with pytest.raises(ValueError):
        run_pipeline(img, OracleSegmenter(lungs), mode="torso")
