"""Classical post-processing: from a probability map to an infection report.

The chain refines the segmenter's sigmoid output into a clean region
mask, pulls the bright pixels inside it with a local-mean adaptive
threshold, quantifies the infected fraction, and renders a red-blend
heatmap:

    binarize -> close -> open -> connected components -> keep k largest
    -> adaptive threshold inside them -> percentage -> heatmap

The chain takes a uint8 image. The threshold's roi masks it to the kept
regions: no pixel outside them is read, so no masked copy is made.

Conventions: binarization is strict ``> threshold`` (0.5 by default);
refinement closes before opening with a 3x3 box element, the only element
``dilate``, ``open_mask`` and ``close_mask`` use (``erode`` also takes a
larger square box, by radius, for the synthetic corpora); chest masks keep
the single largest region, lung masks the two largest; the infected
percentage is truncated (not rounded) to two decimals, the only rule
consistent with the published worked examples; out-of-image pixels count
as background for both erosion and dilation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kvtext
from .imaging import resize
from .tensor import ShapeError, Tensor
from .training import to_batch

DEFAULT_THRESHOLD = 0.5
DEFAULT_WINDOW = 15
DEFAULT_OFFSET = 5.0
REGIONS_PER_MODE = {"chest": 1, "lung": 2}


def _as_mask(mask: np.ndarray, what: str = "mask") -> np.ndarray:
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be 2-D, got shape {arr.shape}")
    return arr


def binarize(prob_map: np.ndarray, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """True where an [H,W] probability map strictly exceeds the threshold,
    which must be finite: a NaN threshold would mark nothing."""
    data = np.asarray(prob_map)
    if data.ndim != 2:
        raise ValueError(f"expected [H,W], got shape {data.shape}")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    return data > threshold


def _false_border(mask: np.ndarray, width: int) -> np.ndarray:
    """The mask inside a false border ``width`` pixels wide: ``np.zeros``
    and one slice copy, about 4x as fast as ``np.pad`` at 256 px."""
    h, w = mask.shape
    out = np.zeros((h + 2 * width, w + 2 * width), dtype=bool)
    out[width:width + h, width:width + w] = mask
    return out


def _box_reduce(padded: np.ndarray, radius: int, op) -> np.ndarray:
    """``op`` (logical and/or) over every square box of side 2 * radius + 1
    that fits in ``padded``: a row pass, then a column pass. The result is
    ``2 * radius`` smaller on each axis; the caller pads the canvas.

    The passes take 4 * radius slice operations and hold no (2r+1)^2
    window axis, which for a radius-6 erosion at 256 px is 11 MB."""
    h, w = padded.shape[0] - 2 * radius, padded.shape[1] - 2 * radius
    rows = padded[:, :w].copy()
    for k in range(1, 2 * radius + 1):
        op(rows, padded[:, k:k + w], out=rows)
    out = rows[:h].copy()
    for k in range(1, 2 * radius + 1):
        op(out, rows[k:k + h], out=out)
    return out


def erode(mask: np.ndarray, radius: int = 1) -> np.ndarray:
    """Erosion by the square box of side 2 * radius + 1; pixels beyond the
    border count as background."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return _box_reduce(_false_border(_as_mask(mask), radius), radius, np.logical_and)


def dilate(mask: np.ndarray) -> np.ndarray:
    """Dilation by the 3x3 box."""
    return _box_reduce(_false_border(_as_mask(mask), 1), 1, np.logical_or)


def open_mask(mask: np.ndarray) -> np.ndarray:
    """Erosion then dilation by the 3x3 box: removes specks it cannot hold.
    Anti-extensive: each pixel it keeps lies in a box wholly in the mask."""
    eroded = _box_reduce(_false_border(_as_mask(mask), 2), 1, np.logical_and)
    return _box_reduce(eroded, 1, np.logical_or)


def close_mask(mask: np.ndarray) -> np.ndarray:
    """Dilation then erosion by the 3x3 box: fills holes it cannot hold.
    Extensive: on the mask padded by 2, the dilation marks each mask pixel's
    whole box, the ring outside the image included, and erosion keeps it."""
    dilated = _box_reduce(_false_border(_as_mask(mask), 2), 1, np.logical_or)
    return _box_reduce(dilated, 1, np.logical_and)


@dataclass(frozen=True)
class Region:
    """One connected component of true pixels."""

    id: int
    pixel_count: int
    bbox: tuple[int, int, int, int]     # top, left, bottom, right (inclusive)
    pixels: np.ndarray                  # sorted flat indices
    image_shape: tuple[int, int]

    def mask(self) -> np.ndarray:
        out = np.zeros(self.image_shape, dtype=bool)
        out.reshape(-1)[self.pixels] = True
        return out


def _row_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the first and last pixel of every horizontal run of
    true pixels, in raster order."""
    h, w = mask.shape
    # one false column on each side: every run starts and ends inside its row
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # the changes alternate between the last false pixel before a run and
    # the run's last pixel; every row above adds two padding columns
    changes = np.flatnonzero(np.diff(padded.reshape(-1)))
    shift = 2 * (changes[0::2] // (w + 2))
    return changes[0::2] - shift, changes[1::2] - shift - 1


def _run_pairs(first: np.ndarray, last: np.ndarray, w: int,
               connectivity: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (a, b) of every pair of runs in adjacent rows that touch."""
    reach = 1 if connectivity == 8 else 0
    # the columns of the row above that touch each run, clipped to that row
    # so a run ending at column w - 1 never reaches the next row's column 0
    row_above = first // w * w - w
    lo = np.maximum(first - w - reach, row_above)
    hi = np.minimum(last - w + reach, row_above + w - 1)
    # runs are disjoint and sorted, so the runs that overlap [lo, hi] are
    # those ending at or after lo and starting at or before hi
    begin = np.searchsorted(last, lo, side="left")
    end = np.searchsorted(first, hi, side="right")
    counts = np.maximum(end - begin, 0)
    b = np.repeat(np.arange(first.size), counts)
    offsets = np.cumsum(counts) - counts
    a = begin[b] + np.arange(b.size) - offsets[b]
    return a, b


def connected_components(mask: np.ndarray, connectivity: int = 8) -> list[Region]:
    """Label the components of true pixels.

    Regions come largest first; ties go to the smaller bounding-box top,
    then the smaller bounding-box left, then the region whose first pixel
    comes first in raster order. Ids count from 1 in that order.

    Labelling is run-based (He, Chao & Suzuki 2008): each row's runs of
    true pixels are the nodes, and two runs in adjacent rows are joined
    when their columns overlap (or touch diagonally, at 8-connectivity).
    Whole-array union-find (Shiloach & Vishkin's hook and pointer jump)
    then merges them. Each round hooks every root that a joined pair
    links to a smaller root onto the smallest such root, then jumps
    pointers until every run points at its root; rounds repeat until no
    pair joins two roots. Runs are numbered in raster order, so the root
    of a component is the run holding its first pixel in raster order.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    mask = _as_mask(mask)
    h, w = mask.shape
    first, last = _row_runs(mask)
    if first.size == 0:
        return []
    a, b = _run_pairs(first, last, w, connectivity)
    parent = np.arange(first.size, dtype=np.int64)
    while True:
        root_a, root_b = parent[a], parent[b]
        apart = root_a != root_b
        if not apart.any():
            break
        a, b, root_a, root_b = a[apart], b[apart], root_a[apart], root_b[apart]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped

    roots, label = np.unique(parent, return_inverse=True)
    by_region = np.argsort(label, kind="stable")     # raster order within each
    first, last = first[by_region], last[by_region]
    lengths = last - first + 1
    run_starts = np.flatnonzero(np.diff(label[by_region], prepend=-1))
    counts = np.add.reduceat(lengths, run_starts)
    # pixels of the sorted runs, one after another: each region's pixels
    # sorted and contiguous
    ends = np.cumsum(lengths)
    grouped = np.repeat(first - (ends - lengths), lengths) + np.arange(ends[-1])
    starts = ends[run_starts] - lengths[run_starts]
    top = first[run_starts] // w
    bottom = last[np.append(run_starts[1:], first.size) - 1] // w
    left = np.minimum.reduceat(first % w, run_starts)
    right = np.maximum.reduceat(last % w, run_starts)
    order = np.lexsort((roots, left, top, -counts))
    return [
        Region(id=i + 1, pixel_count=int(counts[k]),
               bbox=(int(top[k]), int(left[k]), int(bottom[k]), int(right[k])),
               pixels=grouped[starts[k]:starts[k] + counts[k]],
               image_shape=(h, w))
        for i, k in enumerate(order.tolist())
    ]


def select_largest(regions: list[Region], k: int, shape: tuple[int, int]) -> np.ndarray:
    """Union mask, of the given shape, of the k largest regions (all of them
    if fewer exist)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = np.zeros(shape, dtype=bool)
    for region in regions[:k]:
        out.reshape(-1)[region.pixels] = True
    return out


def apply_mask(image: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero every pixel outside the mask.

    A select, not a multiply: ``-1.0 * False`` is -0.0 and ``nan * False``
    is NaN.
    """
    img = np.asarray(image)
    mask = _as_mask(mask)
    if img.shape != mask.shape:
        raise ValueError(f"image {img.shape} and mask {mask.shape} differ")
    return np.where(mask, img, 0).astype(img.dtype)


def _packing(count: int) -> tuple[int, type] | None:
    """``(s, unsigned type)`` in which box sums of ``count`` uint8 pixels, each
    ``(value << s) + 1``, stay exact below ``2 ** (8 + 2 * s)``; None past 64."""
    s = count.bit_length()
    return None if 8 + 2 * s > 64 else (s, np.uint32 if 8 + 2 * s <= 32 else np.uint64)


def adaptive_threshold(image: np.ndarray, roi: np.ndarray,
                       window: int = DEFAULT_WINDOW,
                       offset: float = DEFAULT_OFFSET) -> np.ndarray:
    """Local-mean thresholding of a uint8 image inside a region of interest.

    A pixel is marked iff it lies in the roi and its value strictly
    exceeds the mean of the roi pixels inside its window x window
    neighborhood (clipped at the image border) plus the offset, which must
    be finite.  A window wider than twice the roi's bounding box covers
    the whole box from every pixel, so it runs as that width.  No pixel
    outside the roi is read.  Any dtype but uint8, which is every image
    chestkit loads, resizes or synthesises, raises ``ValueError``.

    The window sums and counts are box sums of one integral image (Crow
    1984) of the roi's zero-padded bounding box, each roi pixel packed as
    ``(value << s) + 1``: the sum is ``>> s``, the count the low ``s`` bits.
    No count passes ``window ** 2`` or the box's area, whatever the image's
    size, so ``s`` is the smaller's bit length. The table's running sums
    wrap in uint32 up to window 63, uint64 past it, and its box sums come
    out exact; a window over 16383 on a 2^28-pixel box raises ``ValueError``.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset}")
    img = np.asarray(image)
    if img.dtype != np.uint8:
        raise ValueError(f"adaptive threshold needs a uint8 image, got {img.dtype}")
    roi = _as_mask(roi, "roi")
    if img.shape != roi.shape:
        raise ValueError(f"image {img.shape} and roi {roi.shape} differ")
    out = np.zeros(roi.shape, dtype=bool)
    rows, cols = np.flatnonzero(roi.any(axis=1)), np.flatnonzero(roi.any(axis=0))
    if rows.size == 0:
        return out
    crop = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
    img, roi, out_box = img[crop], roi[crop], out[crop]
    h, w = img.shape
    r = min(window // 2, max(h, w))
    window = 2 * r + 1
    packing = _packing(min(window * window, h * w))
    if packing is None:
        raise ValueError(f"a {window}-px window over a {h}x{w} roi is too large to threshold")
    shift, dtype = packing
    # a leading zero row and column make each box sum four slices; packed
    # and summed in place in the table's own type: 0.5 ms at 256 px, not 0.8
    ii = np.zeros((h + window, w + window), dtype=dtype)
    packed = ii[r + 1:r + 1 + h, r + 1:r + 1 + w]
    np.copyto(packed, img, where=roi)
    packed <<= shift
    packed += roi
    np.cumsum(ii, axis=0, dtype=dtype, out=ii)
    np.cumsum(ii, axis=1, dtype=dtype, out=ii)
    box = ii[window:, window:] - ii[:h, window:]
    box -= ii[window:, :w]
    box += ii[:h, :w]
    box = box[roi]
    # a roi pixel's own window holds it, so its count is at least 1
    out_box[roi] = img[roi] > ((box >> shift) / (box & ((1 << shift) - 1))) + offset
    return out


@dataclass(frozen=True)
class InfectionReport:
    """Pixel counts and the truncated infection percentage."""

    lung_pixels: int
    infected_pixels: int
    percent: float
    degenerate: bool = False

    @property
    def percent_text(self) -> str:
        hundredths = int(round(self.percent * 100))
        return f"{hundredths // 100}.{hundredths % 100:02d}"


def infection_percentage(lung: np.ndarray, infected: np.ndarray) -> InfectionReport:
    """Infected share of the lung area, truncated to two decimals.

    The infected mask is intersected with the lung mask first, so the
    report never counts pixels outside the lungs.  An empty lung mask
    yields 0.00 with the degenerate flag set.
    """
    lung = _as_mask(lung, "lung mask")
    infected = _as_mask(infected, "infected mask")
    if lung.shape != infected.shape:
        raise ValueError(f"masks differ in shape: {lung.shape} vs {infected.shape}")
    lung_count = int(np.count_nonzero(lung))
    infected_count = int(np.count_nonzero(infected & lung))
    if lung_count == 0:
        return InfectionReport(0, 0, 0.0, degenerate=True)
    hundredths = (10000 * infected_count) // lung_count
    return InfectionReport(lung_count, infected_count, hundredths / 100.0)


def report_to_text(report: InfectionReport) -> str:
    return kvtext.to_text({"lung_pixels": str(report.lung_pixels),
                           "infected_pixels": str(report.infected_pixels),
                           "percent": report.percent_text,
                           "degenerate": "true" if report.degenerate else "false"})


def report_from_text(text: str) -> InfectionReport:
    """Raises :class:`kvtext.TextFormatError` on malformed text."""
    return InfectionReport(**kvtext.parse(kvtext.from_text(text), {
        "lung_pixels": int, "infected_pixels": int, "percent": float,
        "degenerate": kvtext.flag}))


def heatmap_overlay(image: np.ndarray, infected: np.ndarray) -> np.ndarray:
    """Replicate to RGB and blend infected pixels 50% toward pure red."""
    img = np.asarray(image)
    if img.dtype != np.uint8 or img.ndim != 2:
        raise ValueError("heatmap needs a uint8 grayscale image")
    infected = _as_mask(infected, "infected mask")
    if img.shape != infected.shape:
        raise ValueError(f"image {img.shape} and mask {infected.shape} differ")
    out = np.empty(img.shape + (3,), dtype=np.uint8)
    for channel in range(3):
        out[..., channel] = img
    where = np.flatnonzero(infected)
    gray = img.reshape(-1)[where]
    half = gray >> 1
    pixels = out.reshape(-1, 3)
    # (g + 255) // 2 without leaving uint8: g // 2 + g % 2 + 127 <= 255
    pixels[where, 0] = half + (gray & 1) + 127
    pixels[where, 1:] = half[:, None]
    return out


class OracleSegmenter:
    """Stand-in segmenter that returns a fixed mask as probabilities.

    Used to drive the pipeline with ground truth injected in place of a
    trained model.
    """

    def __init__(self, mask: np.ndarray):
        # a copy: the caller may change its mask after building this
        self.mask = _as_mask(mask).copy()
        self.input_shape = (1, *self.mask.shape)

    def forward(self, batch: Tensor) -> Tensor:
        if batch.ndim != 4:
            raise ShapeError(f"oracle segmenter expects [B,C,H,W], got {batch.shape}")
        # repeat the bool mask and cast once: one float64 allocation
        return Tensor(np.repeat(self.mask[None, None], batch.shape[0], axis=0)
                      .astype(np.float64))


@dataclass(frozen=True)
class PipelineResult:
    region_mask: np.ndarray
    infected_mask: np.ndarray
    report: InfectionReport
    heatmap: np.ndarray


def _model_input_hw(seg_model) -> tuple[int, int]:
    shape = getattr(seg_model, "input_shape", None)
    if shape is None:
        shape = seg_model.config.input_shape
    return shape[1], shape[2]


def run_pipeline(image: np.ndarray, seg_model, mode: str = "chest",
                 threshold: float = DEFAULT_THRESHOLD,
                 window: int = DEFAULT_WINDOW,
                 offset: float = DEFAULT_OFFSET) -> PipelineResult:
    """Full chain from grayscale image to report and heatmap.

    ``mode`` picks how many regions survive selection: chest keeps 1, lung
    keeps 2.  All stages equal the hand-chained calls; nothing is fused.
    """
    if mode not in REGIONS_PER_MODE:
        raise ValueError(f"mode must be one of {sorted(REGIONS_PER_MODE)}")
    h, w = _model_input_hw(seg_model)
    resized = resize(np.asarray(image), w, h)
    # the probability map is freed once binarized: later stages reuse its pages
    mask = binarize(seg_model.forward(to_batch([resized])).data[0, 0], threshold)
    refined = open_mask(close_mask(mask))
    regions = connected_components(refined, connectivity=8)
    region_mask = select_largest(regions, REGIONS_PER_MODE[mode], (h, w))
    infected = adaptive_threshold(resized, region_mask, window, offset)
    report = infection_percentage(region_mask, infected)
    heatmap = heatmap_overlay(resized, infected)
    return PipelineResult(region_mask=region_mask, infected_mask=infected,
                          report=report, heatmap=heatmap)
