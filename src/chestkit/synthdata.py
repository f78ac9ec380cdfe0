"""Deterministic synthetic corpora with exact ground truth.

Three generators stand in for clinical data:

* classification: smooth radial-gradient chests, where the positive class
  carries extra bright soft blobs, so the class means differ by
  construction;
* segmentation: two dark elliptical "lungs" on a bright textured
  background with the exact rasterized ellipses as masks;
* infection: lungs as above plus small bright disks strictly inside
  them, with pixel-exact lung/infected masks and the truncated-percentage
  report precomputed.

The infection images are built so the default post-processing chain
(close/open with a 3x3 box, window-15 offset-5 adaptive threshold)
recovers the ground truth exactly: lung masks are fixpoints of the
refinement, lung interiors vary too gently (base 100, +/-4 at a long
wavelength) for the offset to fire on their own, and blob disks (radius
2..3, +80 above the lung base, >= 3 px inside the boundary, one per
lung) always leave enough lung pixels in every window for their local
mean to stay low.  Everything is a pure function of the SynthSpec seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kvtext
from .imaging import PnmFormatError, load_image, save_image, save_mask
from .postproc import (
    InfectionReport,
    close_mask,
    connected_components,
    erode,
    infection_percentage,
    open_mask,
    report_from_text,
    report_to_text,
)
from .rng import DetRng, derive_seed
from .training import LabeledDataset, split_dataset

LUNG_BASE = 100
BLOB_GAIN = 80
LUNG_WOBBLE = 4.0
BACKGROUND_LO, BACKGROUND_HI = 150, 210       # bright chest wall (segmentation set)
INFECTION_BG_LO, INFECTION_BG_HI = 20, 50     # dark surround (infection set)
INFECTION_GT_INSET = 3                        # lung ground truth sits this many
                                              # pixels inside the visible lung, so
                                              # a near-miss predicted mask still
                                              # windows only flat lung interior and
                                              # the mean+offset rule sees no edge
TRAIN_FRACTION = 0.8                          # on-disk classification corpus split


@dataclass(frozen=True)
class SynthSpec:
    count: int
    size: int = 64
    seed: int = 0
    class_ratio: tuple[int, int] = (1, 1)
    blob_count: tuple[int, int] = (2, 5)
    blob_amplitude: float = 60.0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.size < 32 or self.size % 32:
            raise ValueError(f"size must be a positive multiple of 32, got {self.size}")
        if min(self.class_ratio) < 1:
            raise ValueError("class ratio parts must be >= 1")
        if not 1 <= self.blob_count[0] <= self.blob_count[1]:
            raise ValueError("blob_count must be an increasing positive range")


# ---------------------------------------------------------------------------
# classification


def _radial_background(size: int, rng: DetRng) -> np.ndarray:
    cy = size / 2 + rng.uniform(-size / 10, size / 10, 1)[0]
    cx = size / 2 + rng.uniform(-size / 10, size / 10, 1)[0]
    inner = rng.uniform(120, 160, 1)[0]
    outer = rng.uniform(40, 70, 1)[0]
    yy, xx = np.mgrid[0:size, 0:size]
    r = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2) / (size * 0.7)
    img = outer + (inner - outer) * np.exp(-r * r * 2.0)
    img += rng.normal(size * size).reshape(size, size) * 3.0
    return img


def _soft_blob(img: np.ndarray, cy: float, cx: float, sigma: float, gain: float):
    size = img.shape[0]
    yy, xx = np.mgrid[0:size, 0:size]
    img += gain * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma)))


def gen_classification_set(spec: SynthSpec) -> LabeledDataset:
    """Two-class corpus; class 1 is class 0 plus bright soft opacities."""
    parts = sum(spec.class_ratio)
    if spec.count % parts:
        raise ValueError(
            f"count {spec.count} not divisible by ratio total {parts}")
    images: list[np.ndarray] = []
    labels: list[int] = []
    for i in range(spec.count):
        label = 0 if (i % parts) < spec.class_ratio[0] else 1
        rng = DetRng(derive_seed(spec.seed, 101, i))
        img = _radial_background(spec.size, rng)
        if label == 1:
            lo, hi = spec.blob_count
            n_blobs = lo + int(rng.integers(1, hi - lo + 1)[0])
            for _ in range(n_blobs):
                cy = rng.uniform(spec.size * 0.2, spec.size * 0.8, 1)[0]
                cx = rng.uniform(spec.size * 0.2, spec.size * 0.8, 1)[0]
                sigma = rng.uniform(spec.size / 16, spec.size / 8, 1)[0]
                _soft_blob(img, cy, cx, sigma, spec.blob_amplitude)
        images.append(np.clip(np.rint(img), 0, 255).astype(np.uint8))
        labels.append(label)
    return LabeledDataset(images=images, labels=labels,
                          class_names=("normal", "opacity"))


# ---------------------------------------------------------------------------
# lungs


def _ellipse(size: int, cy: float, cx: float, semi_y: float, semi_x: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    return ((yy - cy) / semi_y) ** 2 + ((xx - cx) / semi_x) ** 2 <= 1.0


@dataclass(frozen=True)
class LungGeometry:
    """Sampled ellipse parameters: (cy, cx, semi_y, semi_x) per lung."""

    left: tuple[float, float, float, float]
    right: tuple[float, float, float, float]


def sample_lung_geometry(size: int, rng: DetRng, wide: bool = False) -> LungGeometry:
    """Two lung ellipses; the wide variant leaves room for inset + blobs."""
    if wide:
        semi_y = rng.uniform(size * 0.26, size * 0.33, 2)
        semi_x = rng.uniform(size * 0.17, size * 0.20, 2)
        cx = (size * 0.26, size * 0.74)
    else:
        semi_y = rng.uniform(size * 0.22, size * 0.30, 2)
        semi_x = rng.uniform(size * 0.10, size * 0.14, 2)
        cx = (size * 0.28, size * 0.72)
    cy = size / 2 + rng.uniform(-size * 0.04, size * 0.04, 2)
    return LungGeometry(
        left=(float(cy[0]), cx[0], float(semi_y[0]), float(semi_x[0])),
        right=(float(cy[1]), cx[1], float(semi_y[1]), float(semi_x[1])),
    )


def rasterize_lungs(geometry: LungGeometry, size: int) -> np.ndarray:
    masks = [_ellipse(size, cy, cx, sy, sx)
             for cy, cx, sy, sx in (geometry.left, geometry.right)]
    return masks[0] | masks[1]


def segmentation_sample_rng(spec: SynthSpec, index: int) -> DetRng:
    """The stream sample ``index`` of a segmentation corpus draws from."""
    return DetRng(derive_seed(spec.seed, 202, index))


def _textured_background(size: int, rng: DetRng, lo: float = BACKGROUND_LO,
                         hi: float = BACKGROUND_HI) -> np.ndarray:
    return rng.uniform(lo, hi, size * size).reshape(size, size)


def gen_segmentation_set(spec: SynthSpec) -> LabeledDataset:
    """Images of two dark lung ellipses with the exact masks as targets."""
    images: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for i in range(spec.count):
        rng = segmentation_sample_rng(spec, i)
        lungs = rasterize_lungs(sample_lung_geometry(spec.size, rng), spec.size)
        img = _textured_background(spec.size, rng)
        wobble = rng.normal(spec.size * spec.size).reshape(spec.size, spec.size)
        img[lungs] = 70.0 + 6.0 * wobble[lungs]
        images.append(np.clip(np.rint(img), 0, 255).astype(np.uint8))
        masks.append(lungs)
    return LabeledDataset(images=images, masks=masks)


# ---------------------------------------------------------------------------
# infection corpus


@dataclass(frozen=True)
class InfectionSample:
    image: np.ndarray
    lung_mask: np.ndarray
    infected_mask: np.ndarray
    report: InfectionReport


def _refinement_fixpoint(mask: np.ndarray, max_iter: int = 8) -> np.ndarray:
    """Iterate close-then-open until the mask is stable under refinement."""
    current = mask
    for _ in range(max_iter):
        refined = open_mask(close_mask(current))
        if np.array_equal(refined, current):
            return current
        current = refined
    return current


def _lung_interior(size: int, rng: DetRng) -> np.ndarray:
    """Base 100 with a gentle long-wavelength wave, far below the offset."""
    yy, xx = np.mgrid[0:size, 0:size]
    phase = rng.uniform(0.0, 2.0 * math.pi, 1)[0]
    direction = rng.uniform(0.0, 2.0 * math.pi, 1)[0]
    wavelength = 2.0 * size
    wave = np.sin(2.0 * math.pi * (yy * math.sin(direction) + xx * math.cos(direction))
                  / wavelength + phase)
    return LUNG_BASE + LUNG_WOBBLE * wave


def _disk(size: int, cy: int, cx: int, radius: int) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius


def _place_blob(lung: np.ndarray, rng: DetRng, radius: int) -> np.ndarray | None:
    """Pick a blob center at least radius + 3 pixels inside the lung."""
    candidates = np.flatnonzero(erode(lung, radius + 3))
    if candidates.size == 0:
        return None
    pick = candidates[int(rng.integers(1, candidates.size)[0])]
    size = lung.shape[0]
    return _disk(size, pick // size, pick % size, radius)


def gen_infection_set(spec: SynthSpec) -> list[InfectionSample]:
    """Lungs plus bright infected disks, with exact masks and reports.

    The image paints the full lung ellipses; the ground-truth lung mask
    is their erosion by INFECTION_GT_INSET, refined to a close/open
    fixpoint, so the mask boundary lies in flat interior texture.
    """
    samples: list[InfectionSample] = []
    for i in range(spec.count):
        rng = DetRng(derive_seed(spec.seed, 303, i))
        visible = rasterize_lungs(sample_lung_geometry(spec.size, rng, wide=True),
                                  spec.size)
        lungs = _refinement_fixpoint(erode(visible, INFECTION_GT_INSET))
        regions = connected_components(lungs, 8)
        if len(regions) != 2:
            raise RuntimeError("lung construction must yield exactly two regions")

        img = _textured_background(spec.size, rng, INFECTION_BG_LO, INFECTION_BG_HI)
        interior = _lung_interior(spec.size, rng)
        img[visible] = interior[visible]

        infected = np.zeros_like(lungs)
        for region in regions:               # at most one blob per lung
            if rng.random(1)[0] < 0.85:
                radius = 2 + int(rng.integers(1, 2)[0])
                blob = _place_blob(region.mask(), rng, radius)
                if blob is not None:
                    infected |= blob
        img[infected] = LUNG_BASE + BLOB_GAIN

        image = np.clip(np.rint(img), 0, 255).astype(np.uint8)
        report = infection_percentage(lungs, infected)
        samples.append(InfectionSample(image=image, lung_mask=lungs,
                                       infected_mask=infected, report=report))
    return samples


# ---------------------------------------------------------------------------
# on-disk corpus layout


def _manifest_text(kind: str, spec: SynthSpec, extra: dict[str, str]) -> str:
    return kvtext.to_text({"kind": kind, "count": str(spec.count), "size": str(spec.size),
                           "seed": str(spec.seed),
                           "class_ratio": f"{spec.class_ratio[0]}:{spec.class_ratio[1]}",
                           **extra})


def write_classification_corpus(root, spec: SynthSpec) -> None:
    """Generate and lay out root/{train,test}/{class_name}/NNNN.pgm, with
    TRAIN_FRACTION of each class under train/."""
    root = Path(root)
    ds = gen_classification_set(spec)
    train_ds, test_ds = split_dataset(ds, TRAIN_FRACTION, seed=spec.seed)
    counts: dict[str, str] = {}
    for part, part_ds in (("train", train_ds), ("test", test_ds)):
        for cls, name in enumerate(part_ds.class_names):
            directory = root / part / name
            directory.mkdir(parents=True, exist_ok=True)
            members = [i for i, lab in enumerate(part_ds.labels) if lab == cls]
            for j, idx in enumerate(members):
                (directory / f"{j:04d}.pgm").write_bytes(save_image(part_ds.images[idx]))
            counts[f"{part}_{name}"] = str(len(members))
    (root / "manifest.txt").write_text(_manifest_text("classification", spec, counts))


def _load_gray(path: Path) -> np.ndarray:
    """The corpus image or mask at ``path``; ``PnmFormatError`` names a colour one."""
    img = load_image(path.read_bytes())
    if img.ndim != 2:
        raise PnmFormatError(f"{path}: corpus images and masks must be single-channel PGM")
    return img


def load_classification_corpus(root, part: str = "train") -> LabeledDataset:
    root = Path(root)
    base = root / part
    if not base.is_dir():
        raise FileNotFoundError(f"missing corpus directory {base}")
    class_dirs = sorted(p for p in base.iterdir() if p.is_dir())
    if not class_dirs:
        raise FileNotFoundError(f"no class directories under {base}")
    images: list[np.ndarray] = []
    labels: list[int] = []
    for cls, directory in enumerate(class_dirs):
        for path in sorted(directory.glob("*.pgm")):
            images.append(_load_gray(path))
            labels.append(cls)
    if not images:
        raise FileNotFoundError(f"no .pgm samples under {base}")
    return LabeledDataset(images=images, labels=labels,
                          class_names=tuple(d.name for d in class_dirs))


def write_segmentation_corpus(root, spec: SynthSpec) -> None:
    """Generate and lay out root/images/NNNN.pgm + root/masks/NNNN.pgm."""
    root = Path(root)
    ds = gen_segmentation_set(spec)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    for i, (img, mask) in enumerate(zip(ds.images, ds.masks)):
        (root / "images" / f"{i:04d}.pgm").write_bytes(save_image(img))
        (root / "masks" / f"{i:04d}.pgm").write_bytes(save_mask(mask))
    (root / "manifest.txt").write_text(_manifest_text("segmentation", spec, {}))


def load_segmentation_corpus(root) -> LabeledDataset:
    root = Path(root)
    image_dir = root / "images"
    mask_dir = root / "masks"
    if not image_dir.is_dir() or not mask_dir.is_dir():
        raise FileNotFoundError(f"missing images/ or masks/ under {root}")
    images: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for path in sorted(image_dir.glob("*.pgm")):
        mask_path = mask_dir / path.name
        if not mask_path.exists():
            raise FileNotFoundError(f"no mask for {path.name}")
        images.append(_load_gray(path))
        masks.append(_load_gray(mask_path) > 0)
    if not images:
        raise FileNotFoundError(f"no .pgm samples under {image_dir}")
    return LabeledDataset(images=images, masks=masks)


def write_infection_corpus(root, spec: SynthSpec) -> None:
    """Images plus lung masks, infected masks, and per-sample reports."""
    root = Path(root)
    samples = gen_infection_set(spec)
    for sub in ("images", "masks", "infected", "reports"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    for i, sample in enumerate(samples):
        (root / "images" / f"{i:04d}.pgm").write_bytes(save_image(sample.image))
        (root / "masks" / f"{i:04d}.pgm").write_bytes(save_mask(sample.lung_mask))
        (root / "infected" / f"{i:04d}.pgm").write_bytes(save_mask(sample.infected_mask))
        (root / "reports" / f"{i:04d}.txt").write_text(report_to_text(sample.report))
    (root / "manifest.txt").write_text(_manifest_text("infection", spec, {}))


def load_infection_corpus(root) -> list[InfectionSample]:
    root = Path(root)
    samples: list[InfectionSample] = []
    image_dir = root / "images"
    if not image_dir.is_dir():
        raise FileNotFoundError(f"missing images/ under {root}")
    for path in sorted(image_dir.glob("*.pgm")):
        stem = path.stem
        samples.append(InfectionSample(
            image=_load_gray(path),
            lung_mask=_load_gray(root / "masks" / f"{stem}.pgm") > 0,
            infected_mask=_load_gray(root / "infected" / f"{stem}.pgm") > 0,
            report=report_from_text((root / "reports" / f"{stem}.txt").read_text()),
        ))
    if not samples:
        raise FileNotFoundError(f"no samples under {image_dir}")
    return samples
