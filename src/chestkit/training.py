"""Losses, optimizer, schedules, data handling, and the training loop.

Training is a pure function of (initial weights, dataset, config, seed):
shuffling and initialization draw from the deterministic generator in
:mod:`chestkit.rng`, so two runs with the same inputs produce
byte-identical weight files. ``train`` does not augment: augmentation runs
only in ``balance_classes``, which tops up the minority classes with
augmented copies (seeded the same way) before training starts.

Fixed constants (the source material names the methods but not the
numbers): the learning rate falls 10x every 25 epochs; Adam uses beta1
0.9, beta2 0.999, eps 1e-8; cross-entropy clamps probabilities at 1e-12;
the Dice loss carries a smoothing term of 1; augmentation is a horizontal
flip (p = 0.5), then a rotation within +/-10 degrees, then a shift within
+/-5% of the image size, resampled in one nearest-neighbor gather with
zero fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kvtext, tensor
from .models import ModelConfig, ParamStore, copy_params, init_layer, model_config_fields
from .rng import DetRng, derive_seed
from .tensor import ShapeError, Tape, Tensor, apply_op

CROSS_ENTROPY_CLAMP = 1e-12
DICE_SMOOTHING = 1.0
ROTATION_LIMIT_DEG = 10.0
SHIFT_LIMIT_FRAC = 0.05
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_DECAY_EVERY = 25
LR_DECAY_FACTOR = 10.0
# about as many elements of a parameter as adam_step updates at once
_ADAM_CHUNK = 1 << 15


class TrainingDivergedError(RuntimeError):
    """Raised by :func:`train` when a batch leaves nothing to learn from.

    That is a non-finite loss or gradient, or a cross-entropy batch stuck
    at the probability clamp.
    """


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float
    batch_size: int
    epochs: int
    loss: str = "cross_entropy"          # "cross_entropy" | "dice"
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.base_lr < math.inf or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("learning rate must be positive and finite, batch size "
                             "positive, epochs >= 0")
        if self.loss not in ("cross_entropy", "dice"):
            raise ValueError(f"unknown loss {self.loss!r}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


@dataclass
class LabeledDataset:
    """Images plus either class labels or masks (never both)."""

    images: list[np.ndarray]
    labels: list[int] | None = None
    masks: list[np.ndarray] | None = None
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if (self.labels is None) == (self.masks is None):
            raise ValueError("dataset needs exactly one of labels or masks")
        n = len(self.images)
        if self.labels is not None:
            if len(self.labels) != n:
                raise ValueError("labels and images differ in length")
            k = self.num_classes
            for lab in self.labels:
                if not 0 <= lab < k:
                    raise ValueError(f"label {lab} outside [0, {k})")
        else:
            if len(self.masks) != n:
                raise ValueError("masks and images differ in length")
            for img, m in zip(self.images, self.masks):
                if m.shape != img.shape:
                    raise ValueError("mask size differs from its image")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def num_classes(self) -> int:
        if self.class_names is not None:
            return len(self.class_names)
        if self.labels is None:
            return 0
        return max(self.labels) + 1 if self.labels else 0

    def class_indices(self) -> list[list[int]]:
        """The indices of each class's samples, in sample order."""
        return [[i for i, lab in enumerate(self.labels) if lab == cls]
                for cls in range(self.num_classes)]

    def class_counts(self) -> list[int]:
        return [len(members) for members in self.class_indices()]

    def subset(self, indices) -> "LabeledDataset":
        idx = list(indices)
        return LabeledDataset(
            images=[self.images[i] for i in idx],
            labels=None if self.labels is None else [self.labels[i] for i in idx],
            masks=None if self.masks is None else [self.masks[i] for i in idx],
            class_names=self.class_names,
        )


# ---------------------------------------------------------------------------
# losses (fused differentiable ops)


def cross_entropy_loss(probs: Tensor, labels) -> Tensor:
    """Mean negative log-probability of the true class.

    ``probs`` rows must already be probabilities (softmax output); values
    are clamped at 1e-12 before the log, and the gradient is zero inside
    the clamped region.
    """
    if probs.ndim != 2:
        raise ShapeError(f"cross_entropy_loss expects [B,K], got {probs.shape}")
    pd = probs.data
    n, k = pd.shape
    labels = list(labels)
    if len(labels) != n:
        raise ValueError(f"{n} rows but {len(labels)} labels")
    for lab in labels:
        if not 0 <= lab < k:
            raise ValueError(f"label {lab} out of range [0, {k})")
    idx = np.arange(n)
    picked = pd[idx, labels]
    clamped = np.maximum(picked, CROSS_ENTROPY_CLAMP)
    value = -np.log(clamped).mean()

    def backward(g):
        grad = np.zeros_like(pd)
        live = picked > CROSS_ENTROPY_CLAMP
        grad[idx[live], np.asarray(labels)[live]] = -1.0 / (n * clamped[live])
        grad *= g.reshape(-1)[0]
        return (grad,)

    return apply_op(np.array([value]), (probs,), backward)


def dice_loss(pred: Tensor, target: Tensor) -> Tensor:
    """1 - (2*sum(p*t) + s) / (sum(p) + sum(t) + s) with s = 1."""
    if pred.shape != target.shape:
        raise ShapeError(f"dice_loss: shapes {pred.shape} and {target.shape} differ")
    p, t = pred.data, target.data
    s = DICE_SMOOTHING
    inter = float((p * t).sum())
    denom = float(p.sum() + t.sum() + s)
    value = 1.0 - (2.0 * inter + s) / denom

    def backward(g):
        scale = g.reshape(-1)[0]
        dp = -(2.0 * t * denom - (2.0 * inter + s)) / (denom * denom)
        return (scale * dp, None)

    return apply_op(np.array([value]), (pred, target), backward)


def dice_coefficient_soft(pred: np.ndarray, target: np.ndarray) -> float:
    """Smoothed overlap of a probability map with a binary mask (metric only)."""
    s = DICE_SMOOTHING
    return float((2.0 * (pred * target).sum() + s) / (pred.sum() + target.sum() + s))


# ---------------------------------------------------------------------------
# optimizer and schedule


def adam_step(params: ParamStore, grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place on the parameter tensors.

    Every gradient is checked for presence and shape before anything is
    written.  Each parameter is updated a block of leading-axis rows (about
    ``_ADAM_CHUNK`` elements) at a time, so that a block's parameter,
    moments, gradient and temporaries stay in cache; every element sees
    the same expression in the same order as on the whole array, so the
    bytes do not depend on the blocking.  A block is a view whatever the
    layout, so a strided gradient (conv2d's ``dw``) is read in place.
    ``tensor.deal_memory`` deals the blocks to conv2d's worker threads,
    each writing only its own blocks, when the parameters are large
    enough (full-width Nabla-3, not the desk presets).  A 0-d parameter
    is one block.
    """
    missing = [name for name in params.names() if name not in grads]
    if missing:
        raise KeyError(f"missing gradients for {missing}")
    for name, param in params.items():
        if np.shape(grads[name]) != param.shape:
            raise ShapeError(f"gradient for {name!r} is {np.shape(grads[name])}, "
                             f"the parameter {param.shape}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    blocks, nbytes = [], 0
    for name, param in params.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(param.data)
            state.v[name] = np.zeros_like(param.data)
        data = param.data
        arrays = (data, state.m[name], state.v[name], grads[name])
        n = len(data) if data.ndim else 0
        rows = max(1, _ADAM_CHUNK * n // max(1, data.size))
        if rows >= n:
            blocks.append(arrays)
        else:
            blocks += [[a[lo:lo + rows] for a in arrays] for lo in range(0, len(data), rows)]
        nbytes += data.nbytes

    def update(part):
        for p, m, v, g in part:
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    tensor.deal_memory(update, blocks, nbytes)


def lr_schedule(cfg: TrainConfig, epoch: int) -> float:
    """Step decay: base / LR_DECAY_FACTOR^(epoch // LR_DECAY_EVERY)."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return cfg.base_lr / LR_DECAY_FACTOR ** (epoch // LR_DECAY_EVERY)


# ---------------------------------------------------------------------------
# normalization and augmentation


def _minmax_into(image: np.ndarray, out: np.ndarray) -> None:
    # min and max are read on the input's dtype: the cast to float64 keeps
    # order, so they cast to the min and max of the float64 copy, and
    # (x - lo) / (hi - lo) runs in float64 as on that copy, with no copy
    lo, hi = float(image.min()), float(image.max())
    if hi == lo:
        out.fill(0.0)
        return
    np.subtract(image, lo, out=out, dtype=np.float64)
    out /= hi - lo


def minmax_normalize(image: np.ndarray) -> np.ndarray:
    """(x - min) / (max - min) as float64; a constant image maps to zeros."""
    img = np.asarray(image)
    out = np.empty(img.shape)
    _minmax_into(img, out)
    return out


def to_batch(images: list[np.ndarray]) -> Tensor:
    """Min-max normalise each image and stack them to ``[B, 1, H, W]``."""
    arrays = [np.asarray(img) for img in images]
    if len({a.shape for a in arrays}) != 1:
        np.stack(arrays)    # raises numpy's error for no images or mixed shapes
    out = np.empty((len(arrays), 1) + arrays[0].shape)
    for img, slot in zip(arrays, out):
        _minmax_into(img, slot[0])
    return Tensor(out)


# perfbench's tracer wraps train's batching by this name; without it training.batch_s reads 0
_batch_tensor = to_batch


def augment(image: np.ndarray, seed: int = 0) -> np.ndarray:
    """Seeded flip, rotation about the centre and whole-pixel shift, in that
    order, as one nearest-neighbor gather: each output pixel reads back
    through the shift, the rotation (rounded) and the flip, and reads 0
    where the shifted point or its source falls outside the image."""
    rng = DetRng(seed)
    do_flip = rng.random(1)[0] < 0.5
    angle = rng.uniform(-ROTATION_LIMIT_DEG, ROTATION_LIMIT_DEG, 1)[0]
    h, w = image.shape[:2]
    dy = int(round(rng.uniform(-SHIFT_LIMIT_FRAC, SHIFT_LIMIT_FRAC, 1)[0] * h))
    dx = int(round(rng.uniform(-SHIFT_LIMIT_FRAC, SHIFT_LIMIT_FRAC, 1)[0] * w))
    theta = math.radians(angle)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.arange(h) - dy, np.arange(w) - dx
    ry, rx = (rows - cy)[:, None], cols - cx
    # inverse rotation: source = R(-theta) . (point - center) + center
    src_r = np.rint(cos_t * ry + sin_t * rx + cy).astype(np.int64)
    src_c = np.rint(-sin_t * ry + cos_t * rx + cx).astype(np.int64)
    inside = (((rows >= 0) & (rows < h))[:, None] & (cols >= 0) & (cols < w)
              & (src_r >= 0) & (src_r < h) & (src_c >= 0) & (src_c < w))
    if do_flip:
        src_c = w - 1 - src_c
    out = np.zeros_like(image)
    out[inside] = image[src_r[inside], src_c[inside]]
    return out


# ---------------------------------------------------------------------------
# dataset surgery


def balance_classes(ds: LabeledDataset, seed: int = 0) -> LabeledDataset:
    """Top up every class to the majority count with augmented copies."""
    if ds.labels is None:
        raise ValueError("balance_classes needs a labeled classification set")
    by_class = ds.class_indices()
    counts = [len(members) for members in by_class]
    if 0 in counts:
        raise ValueError(f"class {counts.index(0)} has no samples")
    target = max(counts)
    images = list(ds.images)
    labels = list(ds.labels)
    for cls, members in enumerate(by_class):
        for j in range(target - len(members)):
            src = members[j % len(members)]
            images.append(augment(ds.images[src], seed=derive_seed(seed, cls, j)))
            labels.append(cls)
    return LabeledDataset(images=images, labels=labels, class_names=ds.class_names)


def split_dataset(ds: LabeledDataset, train_fraction: float,
                  seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded stratified partition into (train, rest)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    strata = ds.class_indices() if ds.labels is not None else [list(range(len(ds)))]
    train_idx: list[int] = []
    rest_idx: list[int] = []
    for s, members in enumerate(strata):
        order = DetRng(derive_seed(seed, s)).permutation(len(members))
        n_train = int(math.floor(train_fraction * len(members) + 0.5))
        shuffled = [members[i] for i in order]
        train_idx.extend(shuffled[:n_train])
        rest_idx.extend(shuffled[n_train:])
    if not train_idx or not rest_idx:
        raise ValueError(
            f"fraction {train_fraction} leaves an empty side for {len(ds)} samples")
    return ds.subset(sorted(train_idx)), ds.subset(sorted(rest_idx))


def transfer_init(model, pretrained: ParamStore, reinit_head: bool = True,
                  seed: int = 0) -> None:
    """Copy donor weights into the model; optionally re-draw the head.

    Every non-head model parameter must be present in the donor with an
    identical shape; extra donor tensors (such as a differently-sized
    head) are ignored.
    """
    head = set(model.head_names)
    copy_params(model.params, pretrained,
                [name for name in model.params.names() if name not in head],
                "donor store is missing parameter", "donor")
    if reinit_head:
        fresh = init_layer(ParamStore(), "head", model.params[model.head_names[0]].shape,
                           derive_seed(seed, 5000))
        for name, drawn in zip(model.head_names, fresh):
            model.params[name].data = drawn.data
    else:
        copy_params(model.params, pretrained, model.head_names,
                    "donor store is missing head parameter", "donor")


# ---------------------------------------------------------------------------
# the loop


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of :func:`train`.

    ``grad_norm`` is the mean over the epoch's batches of the global L2
    norm of the gradient; ``clamped`` is the fraction of the epoch's
    true-class probabilities at the cross-entropy clamp, None for Dice
    runs.  Both are None when read from a history written without them.
    """

    epoch: int
    lr: float
    loss: float
    metric: float
    grad_norm: float | None = None
    clamped: float | None = None


def _divergence(loss: Tensor, grads: dict[str, np.ndarray], squares: list[float],
                picked: np.ndarray | None) -> str | None:
    """Why a batch diverged, or None; reads values only.

    ``squares`` holds each gradient's sum of squares, in the order of
    ``grads``. A finite one means every entry is finite, so only a
    gradient whose sum is not finite is scanned: it may be finite
    entries whose squares overflow."""
    if not math.isfinite(loss.item()):
        return f"loss is {loss.item()}"
    for (name, g), square in zip(grads.items(), squares):
        if not math.isfinite(square) and not np.isfinite(g).all():
            return f"gradient of {name} is not finite"
    if picked is not None:
        clamped = picked <= CROSS_ENTROPY_CLAMP
        # a clamped sample passes no gradient through the log, and a
        # certain one (probability 1 in float64) none beyond rounding
        # through the softmax
        if clamped.any() and (clamped | (picked == 1.0)).all():
            return (f"{int(clamped.sum())} of {picked.size} true-class "
                    "probabilities are at the clamp and the rest are 1, "
                    "so the gradient vanishes")
    return None


def train(model, ds: LabeledDataset, cfg: TrainConfig,
          on_epoch_end=None) -> tuple[ParamStore, list[EpochRecord]]:
    """Deterministic Adam training; returns the (mutated) store and history.

    The per-epoch metric is training accuracy for cross-entropy runs and
    the smoothed Dice coefficient of the epoch's predictions for Dice
    runs, both aggregated over the same forward passes as the loss; each
    record also carries the gradient norm and clamp fraction
    (:class:`EpochRecord`), which only read values.
    ``on_epoch_end(epoch, model)``, if given, runs after each epoch's
    update; it must not mutate the model.

    Raises :class:`TrainingDivergedError`, before that batch's update, on
    a non-finite loss or gradient, or on a cross-entropy batch whose
    true-class probabilities are each at the 1e-12 clamp or exactly 1
    with at least one at the clamp: such a batch has a positive loss but
    no gradient beyond rounding, so training cannot leave it.
    """
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    if cfg.loss == "cross_entropy" and ds.labels is None:
        raise ValueError("cross-entropy training needs class labels")
    if cfg.loss == "dice" and ds.masks is None:
        raise ValueError("dice training needs masks")

    state = AdamState()
    history: list[EpochRecord] = []
    n = len(ds)
    for epoch in range(cfg.epochs):
        lr = lr_schedule(cfg, epoch)
        order = DetRng(derive_seed(cfg.seed, epoch)).permutation(n)
        epoch_loss = 0.0
        hits = 0.0
        grad_norms = 0.0
        clamped = 0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x = _batch_tensor([ds.images[i] for i in idx])
            with Tape() as tape:
                out = model.forward(x)
                if cfg.loss == "cross_entropy":
                    labels = [ds.labels[i] for i in idx]
                    loss = cross_entropy_loss(out, labels)
                else:
                    target = Tensor(np.stack(
                        [ds.masks[i][None].astype(np.float64) for i in idx]))
                    loss = dice_loss(out, target)
            grads_by_tensor = tape.backward(loss)
            grads = {name: grads_by_tensor[param] if param in grads_by_tensor
                     else np.zeros_like(param.data)
                     for name, param in model.params.items()}
            picked = None
            if cfg.loss == "cross_entropy":
                picked = out.data[np.arange(len(idx)), labels]
            squares = [float(np.vdot(g, g)) for g in grads.values()]
            reason = _divergence(loss, grads, squares, picked)
            if reason is not None:
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch}, batch "
                    f"{start // cfg.batch_size}: {reason}")
            grad_norms += math.sqrt(sum(squares))
            adam_step(model.params, grads, state, lr)
            del grads, grads_by_tensor   # spent: free them before the next forward
            epoch_loss += loss.item()
            if cfg.loss == "cross_entropy":
                hits += float((out.data.argmax(axis=1) == np.asarray(labels)).sum())
                clamped += int((picked <= CROSS_ENTROPY_CLAMP).sum())
            else:
                hits += dice_coefficient_soft(out.data, target.data) * len(idx)
            batches += 1
        history.append(EpochRecord(
            epoch=epoch, lr=lr, loss=epoch_loss / batches, metric=hits / n,
            grad_norm=grad_norms / batches,
            clamped=clamped / n if cfg.loss == "cross_entropy" else None))
        if on_epoch_end is not None:
            on_epoch_end(epoch, model)
    return model.params, history


# ---------------------------------------------------------------------------
# presets and the text formats for history / config files


@dataclass(frozen=True)
class Preset:
    name: str
    model: ModelConfig
    train: TrainConfig


PRESETS = {preset.name: preset for preset in (
    # chest X-ray detection: lr 1e-3, batch 32, 75 epochs, 10x decay every
    # 25 epochs, cross-entropy on the softmax pair
    Preset("xray-det", ModelConfig("irrcnn", (1, 128, 128), num_classes=2),
           TrainConfig(base_lr=1e-3, batch_size=32, epochs=75)),
    # CT detection: 150 epochs at batch 16
    Preset("ct-det", ModelConfig("irrcnn", (1, 192, 192), num_classes=2),
           TrainConfig(base_lr=3e-4, batch_size=16, epochs=150)),
    # segmentation: lr 3e-4 with Dice loss, batch 8
    Preset("seg", ModelConfig("nabla3", (1, 256, 256)),
           TrainConfig(base_lr=3e-4, batch_size=8, epochs=150, loss="dice")),
    # desk variants: 1/8 width, small inputs, few epochs
    Preset("xray-det-desk",
           ModelConfig("irrcnn", (1, 32, 32), width_scale=0.125, num_classes=2),
           TrainConfig(base_lr=1e-3, batch_size=32, epochs=15)),
    Preset("ct-det-desk",
           ModelConfig("irrcnn", (1, 32, 32), width_scale=0.125, num_classes=2),
           TrainConfig(base_lr=3e-4, batch_size=16, epochs=15)),
    Preset("seg-desk", ModelConfig("nabla3", (1, 64, 64), width_scale=0.125),
           TrainConfig(base_lr=3e-4, batch_size=8, epochs=20, loss="dice")),
)}


def get_preset(name: str, epochs: int | None = None, batch_size: int | None = None,
               lr: float | None = None, seed: int | None = None) -> Preset:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    preset = PRESETS[name]
    train_cfg = preset.train
    updates = {}
    if epochs is not None:
        updates["epochs"] = epochs
    if batch_size is not None:
        updates["batch_size"] = batch_size
    if lr is not None:
        updates["base_lr"] = lr
    if seed is not None:
        updates["seed"] = seed
    if updates:
        train_cfg = replace(train_cfg, **updates)
    return Preset(preset.name, preset.model, train_cfg)


def _optional(value: float | None, spec: str) -> str:
    return "-" if value is None else format(value, spec)


def _optional_float(text: str) -> float | None:
    return None if text == "-" else float(text)


_HISTORY_COLUMNS = {"epoch": int, "lr": float, "loss": float, "metric": float,
                    "grad_norm": _optional_float, "clamped": _optional_float}


def history_to_text(history: list[EpochRecord]) -> str:
    """One line per epoch; a missing ``grad_norm`` or ``clamped`` prints ``-``."""
    return "# " + " ".join(_HISTORY_COLUMNS) + "\n" + "".join(kvtext.to_text({
        "epoch": str(rec.epoch), "lr": f"{rec.lr:.10g}", "loss": f"{rec.loss:.6f}",
        "metric": f"{rec.metric:.6f}", "grad_norm": _optional(rec.grad_norm, ".6g"),
        "clamped": _optional(rec.clamped, ".6f")}, " ") for rec in history)


def history_from_text(text: str) -> list[EpochRecord]:
    """Reads :func:`history_to_text`, and files without the last two columns;
    raises :class:`kvtext.TextFormatError` on a malformed line."""
    out = []
    for line in text.splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            fields = {"grad_norm": "-", "clamped": "-", **kvtext.from_text(line)}
            out.append(EpochRecord(**kvtext.parse(fields, _HISTORY_COLUMNS)))
    return out


def preset_to_text(preset: Preset) -> str:
    m, t = preset.model, preset.train
    return kvtext.to_text({
        "preset": preset.name, **model_config_fields(m), "base_lr": f"{t.base_lr:.10g}",
        "batch_size": str(t.batch_size), "epochs": str(t.epochs),
        "lr_decay_every": str(LR_DECAY_EVERY),
        "lr_decay_factor": f"{LR_DECAY_FACTOR:.10g}", "loss": t.loss, "seed": str(t.seed)})
