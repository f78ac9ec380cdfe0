"""Classical post-processing: from a probability map to an infection report.

The chain refines the segmenter's sigmoid output into a clean region
mask, pulls the bright pixels inside it with a local-mean adaptive
threshold, quantifies the infected fraction, and renders a red-blend
heatmap:

    binarize -> close -> open -> connected components -> keep k largest
    -> mask the image -> adaptive threshold -> percentage -> heatmap

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
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be 2-D, got shape {arr.shape}")
    return arr.astype(bool)


def binarize(prob_map: np.ndarray, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """True where an [H,W] probability map strictly exceeds the threshold."""
    data = np.asarray(prob_map)
    if data.ndim != 2:
        raise ValueError(f"expected [H,W], got shape {data.shape}")
    return data > threshold


def _windows(mask: np.ndarray, r: int) -> np.ndarray:
    """[H, W, (2r+1)^2]: each pixel's square neighbourhood, background outside."""
    padded = np.pad(mask, r, constant_values=False)
    side = 2 * r + 1
    # the boolean index copies each window into one contiguous axis: a 3x3
    # erosion of a 256-px mask then takes under 0.2 ms, against 3-5 ms for
    # all() over the strided view or its reshape (one x86 core, numpy 2.4)
    return np.lib.stride_tricks.sliding_window_view(padded, (side, side))[
        :, :, np.ones((side, side), dtype=bool)]


def erode(mask: np.ndarray, radius: int = 1) -> np.ndarray:
    """Erosion by the square box of side 2 * radius + 1; pixels beyond the
    border count as background."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return _windows(_as_mask(mask), radius).all(axis=-1)


def dilate(mask: np.ndarray) -> np.ndarray:
    """Dilation by the 3x3 box."""
    return _windows(_as_mask(mask), 1).any(axis=-1)


def _padded_composition(mask: np.ndarray, first, second) -> np.ndarray:
    # run the two steps on a canvas extended by the box radius so the
    # intermediate result is not clipped at the border; this makes opening
    # anti-extensive and closing extensive, matching unbounded morphology
    mask = _as_mask(mask)
    h, w = mask.shape
    padded = np.pad(mask, 1, constant_values=False)
    return second(first(padded))[1:h + 1, 1:w + 1]


def open_mask(mask: np.ndarray) -> np.ndarray:
    """Erosion then dilation by the 3x3 box: removes specks it cannot hold."""
    return _padded_composition(mask, erode, dilate)


def close_mask(mask: np.ndarray) -> np.ndarray:
    """Dilation then erosion by the 3x3 box: fills holes it cannot hold."""
    return _padded_composition(mask, dilate, erode)


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


# neighbours that come later in raster order: right and down, then the
# two lower diagonals; each adjacent pair is listed once, from its first pixel
_LATER_NEIGHBOURS = {4: ((0, 1), (1, 0)), 8: ((0, 1), (1, 0), (1, 1), (1, -1))}


def _adjacent_pairs(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (a, b), a < b, of every pair of adjacent true pixels."""
    h, w = mask.shape
    index = np.arange(h * w, dtype=np.int64).reshape(h, w)
    firsts, seconds = [], []
    for dr, dc in _LATER_NEIGHBOURS[connectivity]:
        lo, hi = max(0, -dc), w - max(0, dc)     # columns whose neighbour is inside
        both = mask[:h - dr, lo:hi] & mask[dr:, lo + dc:hi + dc]
        first = index[:h - dr, lo:hi][both]
        firsts.append(first)
        seconds.append(first + (dr * w + dc))
    return np.concatenate(firsts), np.concatenate(seconds)


def connected_components(mask: np.ndarray, connectivity: int = 8) -> list[Region]:
    """Label the components of true pixels.

    Regions come largest first; ties go to the smaller bounding-box top,
    then the smaller bounding-box left, then the region whose first pixel
    comes first in raster order. Ids count from 1 in that order.

    Labelling is whole-array union-find (Shiloach & Vishkin's hook and
    pointer jump). Each round hooks every root that an adjacent pair joins
    to a smaller root onto the smallest such root, then jumps pointers
    until every pixel points at its root; rounds repeat until no adjacent
    pair joins two roots. The root of a component is then its first pixel
    in raster order.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    mask = _as_mask(mask)
    h, w = mask.shape
    a, b = _adjacent_pairs(mask, connectivity)
    parent = np.arange(h * w, dtype=np.int64)
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

    pixels = np.flatnonzero(mask)
    if pixels.size == 0:
        return []
    roots, label, counts = np.unique(parent[pixels], return_inverse=True,
                                     return_counts=True)
    grouped = pixels[np.argsort(label, kind="stable")]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rows, cols = np.divmod(grouped, w)
    top, bottom = rows[starts], rows[starts + counts - 1]
    left = np.minimum.reduceat(cols, starts)
    right = np.maximum.reduceat(cols, starts)
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
    """Zero every pixel outside the mask."""
    img = np.asarray(image)
    mask = _as_mask(mask)
    if img.shape != mask.shape:
        raise ValueError(f"image {img.shape} and mask {mask.shape} differ")
    return np.where(mask, img, 0).astype(img.dtype)


def adaptive_threshold(image: np.ndarray, roi: np.ndarray,
                       window: int = DEFAULT_WINDOW,
                       offset: float = DEFAULT_OFFSET) -> np.ndarray:
    """Local-mean thresholding restricted to a region of interest.

    A pixel is marked iff it lies in the roi and its value strictly
    exceeds the mean of the roi pixels inside its window x window
    neighborhood (clipped at the image border) plus the offset.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    img = np.asarray(image, dtype=np.float64)
    roi = _as_mask(roi, "roi")
    if img.shape != roi.shape:
        raise ValueError(f"image {img.shape} and roi {roi.shape} differ")
    h, w = img.shape
    r = window // 2

    # integral images give exact windowed sums of values and roi counts
    vals = np.where(roi, img, 0.0)
    sum_ii = np.zeros((h + 1, w + 1))
    cnt_ii = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(vals, axis=0), axis=1, out=sum_ii[1:, 1:])
    np.cumsum(np.cumsum(roi.astype(np.int64), axis=0), axis=1, out=cnt_ii[1:, 1:])

    rows = np.arange(h)
    cols = np.arange(w)
    top = np.maximum(rows - r, 0)
    bottom = np.minimum(rows + r, h - 1) + 1
    left = np.maximum(cols - r, 0)
    right = np.minimum(cols + r, w - 1) + 1

    def boxed(ii):
        return (ii[bottom[:, None], right[None, :]]
                - ii[top[:, None], right[None, :]]
                - ii[bottom[:, None], left[None, :]]
                + ii[top[:, None], left[None, :]])

    counts = boxed(cnt_ii)
    sums = boxed(sum_ii)
    out = np.zeros((h, w), dtype=bool)
    inside = roi & (counts > 0)
    out[inside] = img[inside] > (sums[inside] / counts[inside]) + offset
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
    lung_count = int(lung.sum())
    infected_count = int((infected & lung).sum())
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
    g16 = img.astype(np.uint16)
    rgb = np.stack([img, img, img], axis=-1)
    rgb[..., 0] = np.where(infected, ((g16 + 255) // 2).astype(np.uint8), img)
    rgb[..., 1] = np.where(infected, (g16 // 2).astype(np.uint8), img)
    rgb[..., 2] = np.where(infected, (g16 // 2).astype(np.uint8), img)
    return rgb


class OracleSegmenter:
    """Stand-in segmenter that returns a fixed mask as probabilities.

    Used to drive the pipeline with ground truth injected in place of a
    trained model.
    """

    def __init__(self, mask: np.ndarray):
        mask = _as_mask(mask)
        self.mask = mask
        h, w = mask.shape
        self.input_shape = (1, h, w)

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
    probs = seg_model.forward(to_batch([resized]))
    mask = binarize(probs.data[0, 0], threshold)
    refined = open_mask(close_mask(mask))
    regions = connected_components(refined, connectivity=8)
    region_mask = select_largest(regions, REGIONS_PER_MODE[mode], (h, w))
    extracted = apply_mask(resized, region_mask)
    infected = adaptive_threshold(extracted, region_mask, window, offset)
    report = infection_percentage(region_mask, infected)
    heatmap = heatmap_overlay(resized, infected)
    return PipelineResult(region_mask=region_mask, infected_mask=infected,
                          report=report, heatmap=heatmap)
