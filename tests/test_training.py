import gc
import hashlib
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from chestkit import training
from chestkit.models import ModelConfig, ParamStore, build_model, save_weights
from chestkit.rng import DetRng
from chestkit.synthdata import SynthSpec, gen_classification_set
from chestkit.tensor import ShapeError, Tape, Tensor, apply_op
from chestkit.training import (
    CROSS_ENTROPY_CLAMP,
    LR_DECAY_EVERY,
    LR_DECAY_FACTOR,
    ROTATION_LIMIT_DEG,
    SHIFT_LIMIT_FRAC,
    AdamState,
    LabeledDataset,
    TrainConfig,
    TrainingDivergedError,
    _divergence,
    adam_step,
    augment,
    balance_classes,
    cross_entropy_loss,
    dice_loss,
    get_preset,
    history_to_text,
    lr_schedule,
    minmax_normalize,
    split_dataset,
    to_batch,
    train,
    transfer_init,
)

from conftest import numeric_grad, rel_error
from oracles import history_from_text

TINY_CLS = ModelConfig("irrcnn", (1, 32, 32), width_scale=0.03125, num_classes=2)


def gray(seed, size=32, lo=0, hi=255):
    vals = DetRng(seed).integers(size * size, hi - lo) + lo
    return vals.reshape(size, size).astype(np.uint8)


def two_class_dataset(n, seed, size=32):
    # class 1 images carry a bright square, class 0 are plain noise
    images, labels = [], []
    rng = DetRng(seed)
    for i in range(n):
        img = (rng.random(size * size).reshape(size, size) * 80).astype(np.uint8) + 40
        label = i % 2
        if label == 1:
            img[8:20, 8:20] = 230
        images.append(img)
        labels.append(label)
    return LabeledDataset(images=images, labels=labels, class_names=("normal", "marked"))


# ---------------------------------------------------------------------------
# losses


def test_cross_entropy_perfect_prediction_is_zero():
    probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = cross_entropy_loss(probs, [0, 1])
    assert loss.item() <= 1e-9


def test_cross_entropy_uniform_two_classes_is_ln2():
    probs = Tensor(np.array([[0.5, 0.5]]))
    assert abs(cross_entropy_loss(probs, [0]).item() - math.log(2.0)) < 1e-12


def test_cross_entropy_rejects_out_of_range_label():
    probs = Tensor(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        cross_entropy_loss(probs, [2])


def test_cross_entropy_gradient_matches_finite_differences():
    rng = DetRng(1)
    raw = rng.random(8).reshape(2, 4) + 0.1
    probs = Tensor(raw / raw.sum(axis=1, keepdims=True), requires_grad=True)
    labels = [1, 3]
    with Tape() as tape:
        loss = cross_entropy_loss(probs, labels)
    grads = tape.backward(loss)

    def forward():
        return cross_entropy_loss(probs, labels).item()

    assert rel_error(grads[probs], numeric_grad(forward, probs)) < 1e-3


def test_dice_loss_perfect_overlap_near_zero():
    ones = Tensor(np.ones((1, 1, 4, 4)))
    loss = dice_loss(ones, Tensor(np.ones((1, 1, 4, 4))))
    assert 0.0 <= loss.item() <= 1.0 / (2 * 16 + 1)


def test_dice_loss_empty_prediction_on_full_target():
    pred = Tensor(np.zeros((1, 1, 4, 4)))
    target = Tensor(np.ones((1, 1, 4, 4)))
    assert abs(dice_loss(pred, target).item() - (1.0 - 1.0 / 17.0)) < 1e-12


def test_dice_loss_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        dice_loss(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))


def test_dice_loss_symmetric_for_binary_masks():
    rng = DetRng(2)
    a = (rng.random(64).reshape(1, 1, 8, 8) > 0.5).astype(float)
    b = (rng.random(64).reshape(1, 1, 8, 8) > 0.5).astype(float)
    assert abs(dice_loss(Tensor(a), Tensor(b)).item()
               - dice_loss(Tensor(b), Tensor(a)).item()) < 1e-15


def test_dice_loss_gradient_matches_finite_differences():
    rng = DetRng(3)
    pred = Tensor(rng.random(32).reshape(1, 1, 4, 8) * 0.8 + 0.1, requires_grad=True)
    target = Tensor((rng.random(32).reshape(1, 1, 4, 8) > 0.5).astype(float))
    with Tape() as tape:
        loss = dice_loss(pred, target)
    grads = tape.backward(loss)

    def forward():
        return dice_loss(pred, target).item()

    assert rel_error(grads[pred], numeric_grad(forward, pred)) < 1e-3


def test_dice_loss_value_in_unit_interval():
    rng = DetRng(4)
    for trial in range(10):
        pred = Tensor(rng.random(64).reshape(1, 1, 8, 8))
        target = Tensor((rng.random(64).reshape(1, 1, 8, 8) > 0.3).astype(float))
        v = dice_loss(pred, target).item()
        assert 0.0 <= v < 1.0


# ---------------------------------------------------------------------------
# optimizer


def make_store(values):
    from chestkit.models import ParamStore

    store = ParamStore()
    for i, v in enumerate(values):
        store.add(f"p{i}", Tensor(np.asarray(v, dtype=float), requires_grad=True))
    return store


def test_adam_first_step_magnitude_is_learning_rate():
    store = make_store([np.zeros(4)])
    g = np.full(4, 0.37)
    adam_step(store, {"p0": g.copy()}, AdamState(), lr=1e-2)
    update = -store["p0"].data
    assert np.allclose(update, 1e-2 * g / (np.abs(g) + 1e-8), rtol=1e-9)
    assert np.all(np.abs(np.abs(update) - 1e-2) < 1e-8)


def test_adam_zero_gradient_leaves_parameters_unchanged():
    store = make_store([np.arange(5.0)])
    before = store["p0"].data.copy()
    state = AdamState()
    for _ in range(3):
        adam_step(store, {"p0": np.zeros(5)}, state, lr=0.1)
    assert np.array_equal(store["p0"].data, before)


def test_adam_missing_gradient_rejected():
    store = make_store([np.zeros(2), np.zeros(2)])
    with pytest.raises(KeyError):
        adam_step(store, {"p0": np.zeros(2)}, AdamState(), lr=0.1)


def test_adam_two_identical_runs_bit_identical():
    results = []
    for _ in range(2):
        store = make_store([np.ones(3), np.full(2, -0.5)])
        state = AdamState()
        rng = DetRng(77)
        for step in range(10):
            grads = {"p0": rng.normal(3), "p1": rng.normal(2)}
            adam_step(store, grads, state, lr=1e-3)
        results.append((store["p0"].data.copy(), store["p1"].data.copy()))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def adam_oracle(params, grads, m, v, t, lr):
    """One Adam step as a whole-array formula per parameter, in place."""
    bc1 = 1.0 - training.ADAM_BETA1 ** t
    bc2 = 1.0 - training.ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m[name] *= training.ADAM_BETA1
        m[name] += (1.0 - training.ADAM_BETA1) * g
        v[name] *= training.ADAM_BETA2
        v[name] += (1.0 - training.ADAM_BETA2) * (g * g)
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + training.ADAM_EPS)


def adam_shapes():
    chunk = training._ADAM_CHUNK
    # a 0-d parameter, sizes around the block edge, and a kernel that
    # spans two blocks
    return [(), (1,), (chunk - 1,), (chunk,), (chunk + 1,), (160, 32, 3, 3)]


def adam_store(values):
    """``make_store``, except that a 0-d value stays 0-d: ``Tensor`` makes
    a 0-d array shape (1,), so that parameter's array is set afterwards."""
    store = make_store(values)
    for name, v in zip(store.names(), values):
        if np.ndim(v) == 0:
            store[name].data = np.asarray(v, dtype=float)
    return store


def adam_gradient(rng, shape, scale):
    """A normal draw; a 4-D one is laid out as conv2d's ``dw`` is, a
    strided view of [kH*kW, C_out, C_in]."""
    g = rng.normal(int(np.prod(shape))) * scale
    if len(shape) == 4:
        c_out, c_in, kh, kw = shape
        return g.reshape(kh * kw, c_out, c_in).transpose(1, 2, 0).reshape(shape)
    return g.reshape(shape)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_adam_step_byte_equal_to_whole_array_oracle(workers, monkeypatch, switch_often):
    # every update is dealt to the workers (four is more than the cores
    # here), chunk by chunk, with threads switched every microsecond
    monkeypatch.setattr("chestkit.tensor._WORKERS", workers)
    monkeypatch.setattr("chestkit.tensor._SPLIT_BYTES", 0)
    rng = DetRng(91)
    shapes = adam_shapes()
    store = adam_store([rng.normal(int(np.prod(s))).reshape(s) for s in shapes])
    want = {name: p.data.copy() for name, p in store.items()}
    assert store["p0"].data.shape == ()
    m = {name: np.zeros_like(p) for name, p in want.items()}
    v = {name: np.zeros_like(p) for name, p in want.items()}
    state = AdamState()
    for t in range(1, 5):
        # gradients over many orders of magnitude, so any change in the
        # order of operations shows in the last bits
        grads = {name: adam_gradient(rng, p.shape, 10.0 ** (t * 3 - 6))
                 for name, p in want.items()}
        assert not grads["p5"].flags.c_contiguous
        adam_step(store, {name: g.copy(order="K") for name, g in grads.items()}, state,
                  lr=1e-3 * t)
        adam_oracle(want, grads, m, v, t, lr=1e-3 * t)
        for name in want:
            assert store[name].data.tobytes() == want[name].tobytes(), (t, name)
            assert state.m[name].tobytes() == m[name].tobytes()
            assert state.v[name].tobytes() == v[name].tobytes()
    assert state.step == 4


@pytest.mark.parametrize("fault,error", [("missing", KeyError), ("wrong-shape", ShapeError)])
def test_adam_rejected_gradients_leave_everything_untouched(fault, error, monkeypatch):
    # the last parameter's gradient is at fault, so a check made while
    # updating would already have written the others
    monkeypatch.setattr("chestkit.tensor._WORKERS", 2)
    monkeypatch.setattr("chestkit.tensor._SPLIT_BYTES", 0)
    shapes = adam_shapes()
    store = adam_store([np.full(s, 0.5) for s in shapes])
    state = AdamState()
    adam_step(store, {name: np.full(p.shape, 0.25) for name, p in store.items()}, state, lr=0.1)
    before = [(p.data.tobytes(), state.m[name].tobytes(), state.v[name].tobytes())
              for name, p in store.items()]
    grads = {name: np.ones(p.shape) for name, p in store.items()}
    last = store.names()[-1]
    if fault == "missing":
        del grads[last]
    else:
        grads[last] = np.ones((160, 32, 9))   # the kernel's size, not its shape
    with pytest.raises(error, match=last):
        adam_step(store, grads, state, lr=0.1)
    assert state.step == 1
    assert [(p.data.tobytes(), state.m[name].tobytes(), state.v[name].tobytes())
            for name, p in store.items()] == before


# ---------------------------------------------------------------------------
# schedule


def test_lr_schedule_default_preset_waypoints():
    cfg = TrainConfig(base_lr=1e-3, batch_size=32, epochs=75)
    assert lr_schedule(cfg, 0) == 1e-3
    assert lr_schedule(cfg, 25) == 1e-4
    assert lr_schedule(cfg, 50) == 1e-5


def test_lr_schedule_floor_boundary():
    cfg = TrainConfig(base_lr=1e-3, batch_size=32, epochs=75)
    assert lr_schedule(cfg, 24) == 1e-3


def test_lr_schedule_non_increasing():
    cfg = TrainConfig(base_lr=1e-2, batch_size=8, epochs=60)
    values = [lr_schedule(cfg, e) for e in range(3 * LR_DECAY_EVERY)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == 1e-2 / LR_DECAY_FACTOR ** 2


@pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_train_config_rejects_a_learning_rate_that_is_not_positive_and_finite(lr):
    # a nan or inf rate would train to weights that cannot be loaded
    with pytest.raises(ValueError, match="learning rate must be positive and finite"):
        TrainConfig(base_lr=lr, batch_size=8, epochs=1)
    assert TrainConfig(base_lr=1e300, batch_size=8, epochs=1).base_lr == 1e300


# ---------------------------------------------------------------------------
# normalization / augmentation


def test_minmax_full_byte_range():
    img = np.arange(256, dtype=np.uint8).reshape(16, 16)
    out = minmax_normalize(img)
    assert out.min() == 0.0 and out.max() == 1.0
    assert out.reshape(-1)[255] == 1.0


def test_minmax_constant_image_maps_to_zero():
    assert np.array_equal(minmax_normalize(np.full((4, 4), 7)), np.zeros((4, 4)))


def test_minmax_simple_triple():
    assert np.array_equal(minmax_normalize(np.array([10.0, 20.0, 30.0])),
                          [0.0, 0.5, 1.0])


def minmax_reference(image):
    img = np.asarray(image, dtype=np.float64)
    lo, hi = img.min(), img.max()
    return np.zeros_like(img) if hi == lo else (img - lo) / (hi - lo)


@pytest.mark.parametrize("kind", ["uint8", "float64", "float32", "int64", "constant"])
def test_to_batch_matches_stacked_reference_byte_for_byte(kind):
    rng = DetRng(42)
    images = []
    for _ in range(3):
        values = rng.random(12 * 9).reshape(12, 9)
        images.append({"uint8": (values * 256).astype(np.uint8),
                       "float64": values * 7.5 - 3.0,
                       "float32": (values * 3.0 - 1.0).astype(np.float32),
                       "int64": (values * 1e6).astype(np.int64) - 500_000,
                       "constant": np.full((12, 9), 9, dtype=np.uint8)}[kind])
    images.append(np.full((12, 9), 200, dtype=images[0].dtype))
    want = np.stack([minmax_reference(img)[None] for img in images])
    got = to_batch(images)
    assert got.shape == (4, 1, 12, 9) and got.data.dtype == np.float64
    assert got.data.tobytes() == want.tobytes()
    for img, row in zip(images, want):
        assert minmax_normalize(img).tobytes() == row[0].tobytes()


def test_to_batch_raises_like_stack():
    with pytest.raises(ValueError, match="same shape"):
        to_batch([np.zeros((4, 4)), np.zeros((4, 5))])
    with pytest.raises(ValueError, match="at least one array"):
        to_batch([])


def test_augment_deterministic_per_seed():
    img = gray(5)
    a1 = augment(img, seed=42)
    assert np.array_equal(a1, augment(img, seed=42))
    assert not np.array_equal(a1, augment(img, seed=43))


def augment_brute(image, seed, invert_flip=False):
    """``augment`` pixel by pixel, and its flip draw: flip, then rotate about
    the centre, then shift, each read back from the output to the nearest
    source pixel. ``invert_flip`` turns the flip draw over."""
    rng = DetRng(seed)
    flip = (rng.random(1)[0] < 0.5) != invert_flip
    angle = rng.uniform(-ROTATION_LIMIT_DEG, ROTATION_LIMIT_DEG, 1)[0]
    h, w = image.shape[:2]
    dy = int(round(rng.uniform(-SHIFT_LIMIT_FRAC, SHIFT_LIMIT_FRAC, 1)[0] * h))
    dx = int(round(rng.uniform(-SHIFT_LIMIT_FRAC, SHIFT_LIMIT_FRAC, 1)[0] * w))
    cos_t = math.cos(math.radians(angle))
    sin_t = math.sin(math.radians(angle))
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    out = np.zeros_like(image)
    for y in range(h):
        for x in range(w):
            ry, rx = y - dy, x - dx        # the rotated image's pixel
            if not (0 <= ry < h and 0 <= rx < w):
                continue
            # Python's round is round-half-even, as np.rint is
            fy = round(cos_t * (ry - cy) + sin_t * (rx - cx) + cy)
            fx = round(-sin_t * (ry - cy) + cos_t * (rx - cx) + cx)
            if 0 <= fy < h and 0 <= fx < w:
                out[y, x] = image[fy, w - 1 - fx if flip else fx]
    return out, flip


@pytest.mark.parametrize("shape,dtype", [
    ((1, 1), np.uint8), ((2, 9), np.uint8), ((7, 7), np.uint8), ((15, 22), np.uint8),
    ((31, 40), np.float64), ((20, 13), bool), ((12, 17, 3), np.uint8),
])
def test_augment_equals_a_per_pixel_oracle(shape, dtype):
    img = DetRng(sum(shape)).random(math.prod(shape)).reshape(shape) * 255
    img = (img > 127) if dtype is bool else img.astype(dtype)
    flips = set()
    for seed in range(12):
        out = augment(img, seed=seed)
        want, flip = augment_brute(img, seed)
        flips.add(flip)
        assert out.dtype == img.dtype and out.shape == img.shape
        assert out.tobytes() == want.tobytes(), seed
    assert flips == {False, True}


def test_rotation_preserves_convex_blob_area():
    # an ellipse about augment's centre of rotation, clear of the border by
    # more than the largest shift
    yy, xx = np.mgrid[0:64, 0:64]
    ellipse = (((yy - 31.5) / 20.0) ** 2 + ((xx - 31.5) / 12.0) ** 2 <= 1.0)
    area = ellipse.sum()
    for seed in range(20):
        moved = augment(ellipse.astype(np.uint8), seed=seed)
        assert abs(int(moved.sum()) - area) <= 0.05 * area


def test_flip_is_involution():
    # mirroring the input undoes a flip draw and makes up for a missing one
    img = gray(6, size=16)
    for seed in range(12):
        want, _ = augment_brute(img, seed, invert_flip=True)
        assert augment(img[:, ::-1], seed=seed).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# balancing / splitting


def test_balance_classes_pneumonia_counts():
    images = [np.zeros((4, 4), dtype=np.uint8)] * (1341 + 3875)
    labels = [0] * 1341 + [1] * 3875
    ds = LabeledDataset(images=images, labels=labels)
    out = balance_classes(ds, seed=1)
    assert out.class_counts() == [3875, 3875]


def test_balance_classes_digest():
    # the originals, then each minority class's augmented copies: any change
    # to the order, the seeds or the resampling of augment moves this digest
    ds = gen_classification_set(SynthSpec(count=40, size=32, seed=3, class_ratio=(1, 3)))
    out = balance_classes(ds, seed=5)
    assert out.class_counts() == [30, 30]
    digest = hashlib.sha256(bytes(out.labels))
    for img in out.images:
        digest.update(img.tobytes())
    assert digest.hexdigest() == (
        "dba6b2d1b3bdd14dfacdee0a31259927221165e56558ac9f41349d0a44579647")


def test_balance_classes_already_balanced_unchanged():
    ds = two_class_dataset(10, seed=7)
    out = balance_classes(ds, seed=2)
    assert len(out) == len(ds)
    assert all(np.array_equal(a, b) for a, b in zip(out.images, ds.images))


def test_balance_classes_small_counts():
    images = [gray(i) for i in range(4)]
    ds = LabeledDataset(images=images, labels=[0, 1, 1, 1])
    out = balance_classes(ds, seed=3)
    assert out.class_counts() == [3, 3]
    assert len(out) == 6
    # originals retained unchanged, in order
    for i in range(4):
        assert np.array_equal(out.images[i], images[i])


def test_balance_classes_rejects_empty_class():
    ds = LabeledDataset(images=[gray(1)], labels=[0], class_names=("a", "b"))
    with pytest.raises(ValueError):
        balance_classes(ds)


def test_split_dataset_80_20():
    ds = two_class_dataset(100, seed=8)
    train_ds, rest = split_dataset(ds, 0.8, seed=4)
    assert len(train_ds) == 80 and len(rest) == 20
    assert train_ds.class_counts() == [40, 40]


def test_split_dataset_single_class():
    ds = LabeledDataset(images=[gray(i) for i in range(10)], labels=[0] * 10,
                        class_names=("only",))
    train_ds, rest = split_dataset(ds, 0.8, seed=5)
    assert len(train_ds) == 8 and len(rest) == 2


def test_split_dataset_is_a_partition():
    ds = two_class_dataset(37, seed=9)
    train_ds, rest = split_dataset(ds, 0.7, seed=6)
    assert len(train_ds) + len(rest) == len(ds)
    seen = [img.tobytes() for img in train_ds.images + rest.images]
    original = [img.tobytes() for img in ds.images]
    assert sorted(seen) == sorted(original)
    for cls, total in enumerate(ds.class_counts()):
        got = train_ds.class_counts()[cls]
        assert got in (math.floor(0.7 * total), math.ceil(0.7 * total))


def test_split_dataset_seed_changes_membership_not_sizes():
    ds = two_class_dataset(40, seed=10)
    t1, _ = split_dataset(ds, 0.8, seed=1)
    t2, _ = split_dataset(ds, 0.8, seed=2)
    assert len(t1) == len(t2)
    assert [i.tobytes() for i in t1.images] != [i.tobytes() for i in t2.images]


def test_split_dataset_rejects_empty_side():
    ds = LabeledDataset(images=[gray(1)], labels=[0])
    with pytest.raises(ValueError):
        split_dataset(ds, 0.5, seed=0)


# ---------------------------------------------------------------------------
# transfer


def test_transfer_identical_architecture_copies_forward_behavior():
    donor = build_model(TINY_CLS, seed=11)
    target = build_model(TINY_CLS, seed=12)
    transfer_init(target, donor.params, reinit_head=False)
    x = Tensor(DetRng(13).normal(32 * 32).reshape(1, 1, 32, 32))
    assert np.array_equal(target.forward(x).data, donor.forward(x).data)


def test_transfer_reinit_head_changes_only_head():
    donor = build_model(TINY_CLS, seed=14)
    target = build_model(TINY_CLS, seed=15)
    transfer_init(target, donor.params, reinit_head=True, seed=16)
    for name, param in target.params.items():
        if name in target.head_names:
            if name.endswith("weight"):
                assert not np.array_equal(param.data, donor.params[name].data)
        else:
            assert np.array_equal(param.data, donor.params[name].data), name


def test_transfer_missing_tensor_names_it():
    donor = build_model(TINY_CLS, seed=17)
    target = build_model(TINY_CLS, seed=18)
    del donor.params._params["unit3.br1.fwd.weight"]
    with pytest.raises(KeyError, match="unit3.br1.fwd.weight"):
        transfer_init(target, donor.params)


def test_transfer_shape_mismatch_names_tensor():
    donor = build_model(ModelConfig("irrcnn", (1, 32, 32), width_scale=0.0625,
                                     num_classes=2), seed=19)
    target = build_model(TINY_CLS, seed=20)
    with pytest.raises(ValueError, match="unit1"):
        transfer_init(target, donor.params)


# ---------------------------------------------------------------------------
# the loop


def test_train_loss_decreases_on_separable_toy():
    ds = LabeledDataset(
        images=[np.full((32, 32), 30, dtype=np.uint8) + gray(1, 32, 0, 20) // 4,
                np.full((32, 32), 200, dtype=np.uint8)],
        labels=[0, 1],
    )
    model = build_model(TINY_CLS, seed=21)
    cfg = TrainConfig(base_lr=1e-3, batch_size=2, epochs=10, seed=1)
    _, history = train(model, ds, cfg)
    losses = [rec.loss for rec in history]
    assert len(losses) == 10
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_train_zero_epochs_leaves_parameters():
    ds = two_class_dataset(4, seed=22)
    model = build_model(TINY_CLS, seed=23)
    before = {name: t.data.copy() for name, t in model.params.items()}
    _, history = train(model, ds, TrainConfig(base_lr=1e-3, batch_size=2, epochs=0))
    assert history == []
    for name, t in model.params.items():
        assert np.array_equal(t.data, before[name])


def test_train_same_seed_reproduces_history_and_weights(tmp_path):
    import io

    blobs = []
    histories = []
    for _ in range(2):
        ds = two_class_dataset(8, seed=24)
        model = build_model(TINY_CLS, seed=25)
        store, history = train(model, ds,
                               TrainConfig(base_lr=1e-3, batch_size=4, epochs=3, seed=7))
        buf = io.BytesIO()
        save_weights(store, buf)
        blobs.append(buf.getvalue())
        histories.append(history)
    assert blobs[0] == blobs[1]
    assert histories[0] == histories[1]


def test_train_dice_on_tiny_segmentation_set():
    rng = DetRng(26)
    images, masks = [], []
    for i in range(4):
        img = (rng.random(32 * 32).reshape(32, 32) * 60).astype(np.uint8) + 150
        mask = np.zeros((32, 32), dtype=bool)
        mask[8:24, 6 + i:20 + i] = True
        img[mask] = 40
        images.append(img)
        masks.append(mask)
    ds = LabeledDataset(images=images, masks=masks)
    model = build_model(ModelConfig("nabla3", (1, 32, 32), width_scale=0.125), seed=27)
    cfg = TrainConfig(base_lr=1e-3, batch_size=2, epochs=4, loss="dice", seed=2)
    _, history = train(model, ds, cfg)
    assert history[-1].loss < history[0].loss
    assert 0.0 <= history[-1].metric <= 1.0
    assert history[-1].grad_norm > 0.0
    assert history[-1].clamped is None


def test_train_rejects_mismatched_loss():
    ds = two_class_dataset(4, seed=28)
    model = build_model(TINY_CLS, seed=29)
    with pytest.raises(ValueError):
        train(model, ds, TrainConfig(base_lr=1e-3, batch_size=2, epochs=1, loss="dice"))


def test_train_frees_each_steps_gradients_before_the_next_forward(monkeypatch):
    preset = get_preset("xray-det-desk", epochs=1, batch_size=2)
    model = build_model(preset.model, seed=36)
    forward, adam = model.forward, training.adam_step
    held = []   # weakrefs to the last step's gradient arrays

    def checked_forward(batch):
        assert all(ref() is None for ref in held), "a gradient outlived its step"
        return forward(batch)

    def watched_adam(params, grads, state, lr):
        held[:] = [weakref.ref(g) for g in grads.values()]
        adam(params, grads, state, lr)

    model.forward = checked_forward
    monkeypatch.setattr(training, "adam_step", watched_adam)
    # with the cyclic collector off, an array dies only when nothing holds it
    gc.disable()
    try:
        _, history = train(model, two_class_dataset(4, seed=37), preset.train)
    finally:
        gc.enable()
    assert len(history) == 1 and held
    assert all(ref() is None for ref in held)


# sha256 of the float64 gradient bytes, in parameter order, of one seeded
# forward and backward of each network at its desk preset's input size.
# The trained-weight hashes CI pins are of float32 weights, which cannot
# see a last-bit change in a gradient; this can.  Like those hashes it is
# a figure of the BLAS build; one or two BLAS threads and one or two
# conv2d workers give the same bytes at these sizes
GRADIENT_SHA256 = {
    "xray-det-desk": "2f37f6a4210d3c910e38a107bb49f1f60e505746108de91e263c2a299590e429",
    "seg-desk": "7cdd6a5dc0ff807154a1d126d07fd8fe9ea5f4c8217e0f6cb7bb74a0a6e959d7",
}
# the full-width networks at the paper's input sizes, seg at batch 1 and
# xray-det at batch 2: the float32 weight hashes missed last-bit changes to
# seven of seg's gradients here
PAPER_GRADIENT_SHA256 = {
    ("seg", 1): "7796e1d43d9d234f8e39f7154191b70839a0b55fb1e1dbb35f50ba6c617d46e9",
    ("xray-det", 2): "8816894bc2c79f0e0392e82b7dd3d9833135eaf016675cd65fc959a08421792a",
}


def float64_gradient_digest(preset: str, batch: int) -> str:
    """sha256 of the float64 gradients, in parameter order, of one seeded
    forward and backward of ``preset``'s network on ``batch`` samples."""
    config = get_preset(preset).model
    model = build_model(config, seed=38)
    rng = DetRng(39)
    shape = (batch, *config.input_shape)
    x = Tensor(rng.random(int(np.prod(shape))).reshape(shape))
    with Tape() as tape:
        probs = model.forward(x)
        if config.architecture == "irrcnn":
            loss = cross_entropy_loss(probs, [i % 2 for i in range(batch)])
        else:
            target = (rng.random(probs.size) < 0.3).astype(float).reshape(probs.shape)
            loss = dice_loss(probs, Tensor(target))
    grads = tape.backward(loss)
    digest = hashlib.sha256()
    for _, param in model.params.items():
        digest.update(grads[param].tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("preset", sorted(GRADIENT_SHA256))
def test_desk_float64_gradient_bytes_pinned(preset):
    assert float64_gradient_digest(preset, 2) == GRADIENT_SHA256[preset]


@pytest.mark.parametrize("preset, batch", sorted(PAPER_GRADIENT_SHA256),
                         ids=[preset for preset, _ in sorted(PAPER_GRADIENT_SHA256)])
def test_paper_scale_float64_gradient_bytes_pinned(preset, batch):
    # in a child process whose BLAS runs on one thread: at two, OpenBLAS
    # gives other last bits for some of these GEMM shapes
    paths = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(training.__file__)),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = ("from test_training import float64_gradient_digest; "
            f"print(float64_gradient_digest({preset!r}, {batch}))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == [PAPER_GRADIENT_SHA256[preset, batch]]


# ---------------------------------------------------------------------------
# divergence guard


def test_train_stuck_at_probability_clamp_raises():
    # lr 1e3 saturates the softmax after one step: each true-class
    # probability is then 0 or 1 and the gradient is exactly zero
    ds = two_class_dataset(8, seed=30)
    model = build_model(TINY_CLS, seed=31)
    with pytest.raises(TrainingDivergedError, match="at the clamp"):
        train(model, ds, TrainConfig(base_lr=1e3, batch_size=4, epochs=3, seed=1))


def test_train_non_finite_loss_raises_before_updating():
    ds = two_class_dataset(4, seed=32)
    model = build_model(TINY_CLS, seed=33)
    model.params["fc.bias"].data[:] = np.nan
    before = {name: t.data.copy() for name, t in model.params.items()}
    with pytest.raises(TrainingDivergedError, match="loss is nan"):
        train(model, ds, TrainConfig(base_lr=1e-3, batch_size=2, epochs=1))
    for name, t in model.params.items():
        assert np.array_equal(t.data, before[name], equal_nan=True), name


class InfiniteGradientModel:
    """Constant probabilities (a finite loss) with an infinite gradient."""

    def __init__(self):
        self.params = ParamStore()
        self.w = self.params.add("w", Tensor(np.zeros(2), requires_grad=True))

    def forward(self, batch):
        n = batch.shape[0]
        return apply_op(np.full((n, 2), 0.5), (self.w,),
                        lambda g: (np.array([np.inf, 0.0]),))


class FixedGradientModel:
    """The first sample of each batch at probability 0 for both classes,
    the rest at 0.5, and a gradient of norm 5 per sample in the batch."""

    def __init__(self):
        self.params = ParamStore()
        self.w = self.params.add("w", Tensor(np.zeros(2), requires_grad=True))

    def forward(self, batch):
        n = batch.shape[0]
        probs = np.full((n, 2), 0.5)
        probs[0] = 0.0
        return apply_op(probs, (self.w,), lambda g: (np.array([3.0, 4.0]) * n,))


def test_train_records_gradient_norm_and_clamp_fraction():
    ds = two_class_dataset(6, seed=35)
    _, history = train(FixedGradientModel(), ds,
                       TrainConfig(base_lr=1e-3, batch_size=4, epochs=2))
    for rec in history:
        # batches of 4 and 2: norms 20 and 10, one sample clamped in each
        assert rec.grad_norm == 15.0
        assert rec.clamped == 2 / 6


def test_train_non_finite_gradient_raises():
    ds = two_class_dataset(4, seed=34)
    with pytest.raises(TrainingDivergedError, match="gradient of w is not finite"):
        train(InfiniteGradientModel(), ds,
              TrainConfig(base_lr=1e-3, batch_size=2, epochs=1))


@pytest.mark.parametrize("picked,stuck", [
    ([CROSS_ENTROPY_CLAMP, 0.0], True),      # all at the clamp
    ([1e-300, 1.0, 1.0], True),              # clamped or certain: no gradient
    ([1.0, 1.0], False),                     # a perfect fit is not a divergence
    ([0.0, 0.5], False),                     # one sample still carries gradient
    ([2e-12, 1.0], False),
])
def test_divergence_clamp_rule(picked, stuck):
    reason = _divergence(Tensor([0.5]), {"w": np.zeros(3)}, [0.0], np.array(picked))
    assert (reason is not None) == stuck


class NanGradientModel:
    """Constant probabilities with a finite gradient for ``a`` and a NaN
    one for ``b``."""

    def __init__(self):
        self.params = ParamStore()
        self.a = self.params.add("a", Tensor(np.zeros(2), requires_grad=True))
        self.b = self.params.add("b", Tensor(np.zeros(2), requires_grad=True))

    def forward(self, batch):
        n = batch.shape[0]
        return apply_op(np.full((n, 2), 0.5), (self.a, self.b),
                        lambda g: (np.ones(2), np.array([0.0, np.nan])))


def test_train_nan_gradient_is_named():
    ds = two_class_dataset(4, seed=35)
    with pytest.raises(TrainingDivergedError, match="gradient of b is not finite"):
        train(NanGradientModel(), ds, TrainConfig(base_lr=1e-3, batch_size=2, epochs=1))


def test_divergence_reads_sums_of_squares():
    big = np.full(3, 1e200)          # finite, but its sum of squares overflows
    squares = [float(np.vdot(big, big))]
    assert squares == [math.inf]
    assert _divergence(Tensor([0.5]), {"w": big}, squares, None) is None
    grads = {"a": np.zeros(2), "b": np.array([np.inf, 1.0]), "c": np.array([np.nan])}
    squares = [float(np.vdot(g, g)) for g in grads.values()]
    assert _divergence(Tensor([0.5]), grads, squares, None) == "gradient of b is not finite"


# ---------------------------------------------------------------------------
# presets and text formats


def test_preset_xray_det_matches_published_hyperparameters():
    preset = get_preset("xray-det")
    assert preset.train.base_lr == 1e-3
    assert preset.train.batch_size == 32
    assert preset.train.epochs == 75
    assert LR_DECAY_EVERY == 25
    assert LR_DECAY_FACTOR == 10.0
    assert preset.model.input_shape == (1, 128, 128)


def test_preset_seg_uses_dice_and_3e4():
    preset = get_preset("seg")
    assert preset.train.base_lr == 3e-4
    assert preset.train.loss == "dice"
    assert preset.train.batch_size == 8


def test_preset_ct_det_epoch_and_batch():
    preset = get_preset("ct-det")
    assert preset.train.epochs == 150
    assert preset.train.batch_size == 16


def test_preset_override_and_unknown():
    preset = get_preset("xray-det-desk", epochs=3, lr=5e-3, seed=9)
    assert preset.train.epochs == 3
    assert preset.train.base_lr == 5e-3
    assert preset.train.seed == 9
    with pytest.raises(KeyError):
        get_preset("nope")


def test_history_text_roundtrip():
    from chestkit.training import EpochRecord

    history = [EpochRecord(0, 1e-3, 0.693141, 0.5, grad_norm=1.25e-5, clamped=0.125),
               EpochRecord(1, 1e-3, 0.512345, 0.75, grad_norm=3.5)]
    text = history_to_text(history)
    parsed = history_from_text(text)
    assert len(parsed) == 2
    assert parsed[0].epoch == 0
    assert abs(parsed[1].loss - 0.512345) < 1e-9
    assert parsed[0].grad_norm == 1.25e-5 and parsed[0].clamped == 0.125
    assert parsed[1].grad_norm == 3.5 and parsed[1].clamped is None
    assert "clamped=-" in text.splitlines()[2]
