import numpy as np
import pytest

from chestkit import synthdata
from chestkit.postproc import (
    OracleSegmenter,
    connected_components,
    infection_percentage,
    run_pipeline,
)
from chestkit.rng import DetRng, derive_seed
from chestkit.synthdata import (
    InfectionSample,
    SynthSpec,
    gen_classification_set,
    gen_infection_set,
    gen_segmentation_set,
    load_classification_corpus,
    load_infection_corpus,
    load_segmentation_corpus,
    rasterize_lungs,
    sample_lung_geometry,
    segmentation_sample_rng,
    write_classification_corpus,
    write_infection_corpus,
    write_segmentation_corpus,
)

from test_postproc import connected_components_brute


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(count=0)
    with pytest.raises(ValueError):
        SynthSpec(count=4, size=40)
    for size in (0, -32):
        with pytest.raises(ValueError, match="size must be a positive multiple of 32"):
            SynthSpec(count=4, size=size)
    with pytest.raises(ValueError):
        SynthSpec(count=4, class_ratio=(0, 1))


# ---------------------------------------------------------------------------
# classification corpus


def test_classification_deterministic_per_seed():
    spec = SynthSpec(count=8, size=32, seed=5)
    a = gen_classification_set(spec)
    b = gen_classification_set(spec)
    assert all(np.array_equal(x, y) for x, y in zip(a.images, b.images))
    assert a.labels == b.labels
    c = gen_classification_set(SynthSpec(count=8, size=32, seed=6))
    assert any(not np.array_equal(x, y) for x, y in zip(a.images, c.images))


def test_classification_exact_imbalance_ratio():
    spec = SynthSpec(count=100, size=32, seed=1, class_ratio=(1, 3))
    ds = gen_classification_set(spec)
    assert ds.class_counts() == [25, 75]


def test_classification_ratio_must_divide_count():
    with pytest.raises(ValueError):
        gen_classification_set(SynthSpec(count=10, size=32, class_ratio=(1, 3)))


def test_classification_positive_class_is_brighter():
    ds = gen_classification_set(SynthSpec(count=100, size=32, seed=2))
    mean0 = np.mean([img.mean() for img, lab in zip(ds.images, ds.labels) if lab == 0])
    mean1 = np.mean([img.mean() for img, lab in zip(ds.images, ds.labels) if lab == 1])
    assert mean1 > mean0


# ---------------------------------------------------------------------------
# segmentation corpus


def test_segmentation_mask_matches_independent_rasterizer():
    spec = SynthSpec(count=5, size=64, seed=3)
    ds = gen_segmentation_set(spec)
    for i, mask in enumerate(ds.masks):
        geometry = sample_lung_geometry(spec.size, segmentation_sample_rng(spec, i))
        count = 0
        for y in range(spec.size):
            for x in range(spec.size):
                hit = False
                for cy, cx, sy, sx in (geometry.left, geometry.right):
                    if ((y - cy) / sy) ** 2 + ((x - cx) / sx) ** 2 <= 1.0:
                        hit = True
                count += hit
        assert count == int(mask.sum()), i
        assert np.array_equal(mask, rasterize_lungs(geometry, spec.size))


def test_segmentation_masks_have_two_components():
    ds = gen_segmentation_set(SynthSpec(count=20, size=64, seed=4))
    for mask in ds.masks:
        assert len(connected_components(mask, 8)) == 2


def test_segmentation_masks_have_no_isolated_pixels():
    ds = gen_segmentation_set(SynthSpec(count=20, size=64, seed=5))
    for mask in ds.masks:
        for region in connected_components(mask, 8):
            assert region.pixel_count > 1


def test_segmentation_deterministic():
    spec = SynthSpec(count=4, size=64, seed=6)
    a = gen_segmentation_set(spec)
    b = gen_segmentation_set(spec)
    assert all(np.array_equal(x, y) for x, y in zip(a.images, b.images))
    assert all(np.array_equal(x, y) for x, y in zip(a.masks, b.masks))


def test_segmentation_lungs_darker_than_background():
    ds = gen_segmentation_set(SynthSpec(count=10, size=64, seed=7))
    for img, mask in zip(ds.images, ds.masks):
        assert img[mask].mean() < img[~mask].mean()


# ---------------------------------------------------------------------------
# infection corpus


def test_infection_reports_self_consistent():
    samples = gen_infection_set(SynthSpec(count=20, size=64, seed=8))
    for s in samples:
        assert infection_percentage(s.lung_mask, s.infected_mask) == s.report


def test_infection_infected_inside_lungs():
    samples = gen_infection_set(SynthSpec(count=20, size=64, seed=9))
    for s in samples:
        assert not (s.infected_mask & ~s.lung_mask).any()


def test_infection_blobs_bright_over_lung_texture():
    samples = gen_infection_set(SynthSpec(count=10, size=64, seed=10))
    for s in samples:
        if s.infected_mask.any():
            lung_only = s.lung_mask & ~s.infected_mask
            margin = int(s.image[s.infected_mask].min()) - int(s.image[lung_only].max())
            assert margin >= 60


def test_infection_pipeline_recovers_ground_truth_exactly():
    samples = gen_infection_set(SynthSpec(count=20, size=64, seed=11))
    for s in samples:
        result = run_pipeline(s.image, OracleSegmenter(s.lung_mask), mode="lung")
        assert np.array_equal(result.region_mask, s.lung_mask)
        assert np.array_equal(result.infected_mask, s.infected_mask)
        assert result.report == s.report


def test_infection_deterministic():
    spec = SynthSpec(count=5, size=64, seed=12)
    a = gen_infection_set(spec)
    b = gen_infection_set(spec)
    for x, y in zip(a, b):
        assert np.array_equal(x.image, y.image)
        assert x.report == y.report


def test_infection_set_unchanged_under_flood_fill_labelling(monkeypatch):
    spec = SynthSpec(count=4, size=128, seed=31)
    fast = gen_infection_set(spec)
    monkeypatch.setattr(synthdata, "connected_components", connected_components_brute)
    slow = gen_infection_set(spec)
    assert len(fast) == len(slow) == 4
    for x, y in zip(fast, slow):
        assert x.image.tobytes() == y.image.tobytes()
        assert x.lung_mask.tobytes() == y.lung_mask.tobytes()
        assert x.infected_mask.tobytes() == y.infected_mask.tobytes()
        assert x.report == y.report


def exact_count_sample(lung_pixels: int, infected_pixels: int, size: int,
                       seed: int = 0) -> InfectionSample:
    """Oracle sample whose masks have exactly the requested pixel counts.

    Pixels are ranked by (distance from a fixed center, angle); the lung
    mask is the first ``lung_pixels`` of that ranking and the infected
    mask the first ``infected_pixels``, so containment is automatic and
    both counts are exact.
    """
    if infected_pixels > lung_pixels:
        raise ValueError("infected count cannot exceed lung count")
    if lung_pixels > size * size:
        raise ValueError(f"cannot fit {lung_pixels} pixels in a {size}x{size} image")
    cy = cx = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    dist = (yy - cy) ** 2 + (xx - cx) ** 2
    angle = np.arctan2(yy - cy, xx - cx)
    order = np.lexsort((angle.reshape(-1), dist.reshape(-1)))
    lung = np.zeros(size * size, dtype=bool)
    lung[order[:lung_pixels]] = True
    infected = np.zeros(size * size, dtype=bool)
    infected[order[:infected_pixels]] = True
    lung = lung.reshape(size, size)
    infected = infected.reshape(size, size)

    rng = DetRng(derive_seed(seed, 404))
    img = synthdata._textured_background(size, rng, synthdata.INFECTION_BG_LO,
                                         synthdata.INFECTION_BG_HI)
    img[lung] = synthdata.LUNG_BASE
    img[infected] = synthdata.LUNG_BASE + synthdata.BLOB_GAIN
    image = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return InfectionSample(image=image, lung_mask=lung, infected_mask=infected,
                           report=infection_percentage(lung, infected))


def test_exact_count_sample_reenacts_published_numbers():
    sample = exact_count_sample(6696, 2245, size=96)
    assert int(sample.lung_mask.sum()) == 6696
    assert int(sample.infected_mask.sum()) == 2245
    assert sample.report.percent_text == "33.52"


def test_exact_count_sample_validates():
    with pytest.raises(ValueError):
        exact_count_sample(10, 20, size=32)
    with pytest.raises(ValueError):
        exact_count_sample(9999999, 1, size=32)


# ---------------------------------------------------------------------------
# disk layout


def test_classification_corpus_roundtrip(tmp_path):
    spec = SynthSpec(count=20, size=32, seed=13)
    write_classification_corpus(tmp_path, spec)
    assert (tmp_path / "manifest.txt").exists()
    train_ds = load_classification_corpus(tmp_path, "train")
    test_ds = load_classification_corpus(tmp_path, "test")
    assert len(train_ds) == 16 and len(test_ds) == 4
    assert train_ds.class_names == ("normal", "opacity")
    original = gen_classification_set(spec)
    originals = {img.tobytes() for img in original.images}
    for img in train_ds.images + test_ds.images:
        assert img.tobytes() in originals


def test_segmentation_corpus_roundtrip(tmp_path):
    spec = SynthSpec(count=6, size=64, seed=14)
    write_segmentation_corpus(tmp_path, spec)
    loaded = load_segmentation_corpus(tmp_path)
    original = gen_segmentation_set(spec)
    assert len(loaded) == 6
    for got_img, got_mask, img, mask in zip(loaded.images, loaded.masks,
                                            original.images, original.masks):
        assert np.array_equal(got_img, img)
        assert np.array_equal(got_mask, mask)


def test_infection_corpus_roundtrip(tmp_path):
    spec = SynthSpec(count=4, size=64, seed=15)
    write_infection_corpus(tmp_path, spec)
    loaded = load_infection_corpus(tmp_path)
    original = gen_infection_set(spec)
    assert len(loaded) == 4
    for got, want in zip(loaded, original):
        assert np.array_equal(got.image, want.image)
        assert np.array_equal(got.lung_mask, want.lung_mask)
        assert np.array_equal(got.infected_mask, want.infected_mask)
        assert got.report == want.report


def test_load_missing_corpus_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_classification_corpus(tmp_path / "nope")
    with pytest.raises(FileNotFoundError):
        load_segmentation_corpus(tmp_path / "nope")
