"""Losses, optimizer, schedules, data handling, and the training loop.

Training is a pure function of (initial weights, dataset, config, seed):
shuffling and initialization draw from the deterministic generator in
:mod:`chestkit.rng`, so two runs with the same inputs produce
byte-identical weight files. ``train`` does not augment: augmentation runs
only in ``balance_classes``, which tops up the minority classes with
augmented copies (seeded the same way) before training starts.

Fixed constants (the source material names the methods but not the
numbers): Adam uses beta1 0.9, beta2 0.999, eps 1e-8; cross-entropy clamps
probabilities at 1e-12; the Dice loss carries a smoothing term of 1;
augmentation is horizontal flip (p = 0.5), rotation within +/-10 degrees,
and shift within +/-5% of the image size, all nearest-neighbor resampled
with zero fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kvtext
from .models import ModelConfig, ParamStore, copy_params
from .rng import DetRng, derive_seed
from .tensor import ShapeError, Tape, Tensor, apply_op, he_init

CROSS_ENTROPY_CLAMP = 1e-12
DICE_SMOOTHING = 1.0
ROTATION_LIMIT_DEG = 10.0
SHIFT_LIMIT_FRAC = 0.05
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    lr_decay_every: int = 25
    lr_decay_factor: float = 10.0
    loss: str = "cross_entropy"          # "cross_entropy" | "dice"
    seed: int = 0

    def __post_init__(self):
        if self.base_lr <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("learning rate and batch size must be positive, epochs >= 0")
        if self.lr_decay_every < 1 or self.lr_decay_factor <= 1.0:
            raise ValueError("decay interval must be >= 1 and factor > 1")
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

    def class_counts(self) -> list[int]:
        counts = [0] * self.num_classes
        for lab in self.labels:
            counts[lab] += 1
        return counts

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
    pd = probs.data if probs.ndim == 2 else probs.data[None]
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
        return (grad if probs.ndim == 2 else grad[0],)

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
    """One bias-corrected Adam update, in place on the parameter tensors."""
    missing = [name for name in params.names() if name not in grads]
    if missing:
        raise KeyError(f"missing gradients for {missing}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, param in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(param.data)
            state.v[name] = np.zeros_like(param.data)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        param.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def lr_schedule(cfg: TrainConfig, epoch: int) -> float:
    """Step decay: base / factor^(epoch // every)."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return cfg.base_lr / cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


# ---------------------------------------------------------------------------
# normalization and augmentation


def minmax_normalize(image: np.ndarray) -> np.ndarray:
    """(x - min) / (max - min) as float64; a constant image maps to zeros."""
    img = np.asarray(image, dtype=np.float64)
    lo = img.min()
    hi = img.max()
    if hi == lo:
        return np.zeros_like(img)
    return (img - lo) / (hi - lo)


def to_batch(images: list[np.ndarray]) -> Tensor:
    """Min-max normalise each image and stack them to ``[B, 1, H, W]``."""
    return Tensor(np.stack([minmax_normalize(img)[None] for img in images]))


# perfbench's tracer wraps train's batching by this name; without it training.batch_s reads 0
_batch_tensor = to_batch


def flip_horizontal(image: np.ndarray) -> np.ndarray:
    return image[:, ::-1].copy()


def rotate_nearest(image: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate about the center, nearest-neighbor, zero fill outside."""
    h, w = image.shape[:2]
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy, dx = rr - cy, cc - cx
    # inverse map: source = R(-theta) . (dest - center) + center
    src_r = np.rint(cos_t * dy + sin_t * dx + cy).astype(np.int64)
    src_c = np.rint(-sin_t * dy + cos_t * dx + cx).astype(np.int64)
    inside = (src_r >= 0) & (src_r < h) & (src_c >= 0) & (src_c < w)
    out = np.zeros_like(image)
    out[inside] = image[src_r[inside], src_c[inside]]
    return out


def shift_image(image: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate by whole pixels with zero fill."""
    out = np.zeros_like(image)
    h, w = image.shape[:2]
    ys = slice(max(0, dy), min(h, h + dy))
    xs = slice(max(0, dx), min(w, w + dx))
    ys_src = slice(max(0, -dy), min(h, h - dy))
    xs_src = slice(max(0, -dx), min(w, w - dx))
    out[ys, xs] = image[ys_src, xs_src]
    return out


def augment(image: np.ndarray, mask: np.ndarray | None = None,
            seed: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """Seeded flip/rotate/shift; the mask gets the identical transform."""
    if mask is not None and mask.shape != image.shape:
        raise ValueError("mask size differs from image")
    rng = DetRng(seed)
    do_flip = rng.random(1)[0] < 0.5
    angle = rng.uniform(-ROTATION_LIMIT_DEG, ROTATION_LIMIT_DEG, 1)[0]
    h, w = image.shape[:2]
    dy = int(round(rng.uniform(-SHIFT_LIMIT_FRAC, SHIFT_LIMIT_FRAC, 1)[0] * h))
    dx = int(round(rng.uniform(-SHIFT_LIMIT_FRAC, SHIFT_LIMIT_FRAC, 1)[0] * w))

    def apply(arr):
        if do_flip:
            arr = flip_horizontal(arr)
        arr = rotate_nearest(arr, angle)
        return shift_image(arr, dy, dx)

    return apply(image), (None if mask is None else apply(mask))


# ---------------------------------------------------------------------------
# dataset surgery


def balance_classes(ds: LabeledDataset, seed: int = 0) -> LabeledDataset:
    """Top up every class to the majority count with augmented copies."""
    if ds.labels is None:
        raise ValueError("balance_classes needs a labeled classification set")
    counts = ds.class_counts()
    if any(c == 0 for c in counts):
        empty = counts.index(0)
        raise ValueError(f"class {empty} has no samples")
    target = max(counts)
    images = list(ds.images)
    labels = list(ds.labels)
    by_class = [[i for i, lab in enumerate(ds.labels) if lab == cls]
                for cls in range(ds.num_classes)]
    for cls, members in enumerate(by_class):
        for j in range(target - counts[cls]):
            src = members[j % len(members)]
            img, _ = augment(ds.images[src], seed=derive_seed(seed, cls, j))
            images.append(img)
            labels.append(cls)
    return LabeledDataset(images=images, labels=labels, class_names=ds.class_names)


def split_dataset(ds: LabeledDataset, train_fraction: float,
                  seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded stratified partition into (train, rest)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    if ds.labels is not None:
        strata = [[i for i, lab in enumerate(ds.labels) if lab == cls]
                  for cls in range(ds.num_classes)]
    else:
        strata = [list(range(len(ds)))]
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
        for i, name in enumerate(model.head_names):
            param = model.params[name]
            if name.endswith("bias"):
                param.data = np.zeros_like(param.data)
            else:
                fan_in = param.shape[0] if param.ndim == 2 else int(
                    np.prod(param.shape[1:]))
                param.data = he_init(param.shape, fan_in,
                                     derive_seed(seed, 5000 + i)).data
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


def _divergence(loss: Tensor, grads: dict[str, np.ndarray],
                picked: np.ndarray | None) -> str | None:
    """Why a batch diverged, or None; reads values only."""
    if not math.isfinite(loss.item()):
        return f"loss is {loss.item()}"
    for name, g in grads.items():
        if not np.isfinite(g).all():
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
            grads = {}
            for name, param in model.params.items():
                g = grads_by_tensor.get(param)
                grads[name] = g if g is not None else np.zeros_like(param.data)
            picked = None
            if cfg.loss == "cross_entropy":
                picked = out.data[np.arange(len(idx)), labels]
            reason = _divergence(loss, grads, picked)
            if reason is not None:
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch}, batch "
                    f"{start // cfg.batch_size}: {reason}")
            grad_norms += math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
            adam_step(model.params, grads, state, lr)
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
        "preset": preset.name, "architecture": m.architecture,
        "input_shape": "x".join(str(n) for n in m.input_shape),
        "width_scale": f"{m.width_scale:.10g}", "num_classes": _optional(m.num_classes, "d"),
        "recurrence_steps": str(m.recurrence_steps), "base_lr": f"{t.base_lr:.10g}",
        "batch_size": str(t.batch_size), "epochs": str(t.epochs),
        "lr_decay_every": str(t.lr_decay_every),
        "lr_decay_factor": f"{t.lr_decay_factor:.10g}", "loss": t.loss, "seed": str(t.seed)})
