"""Network builders: the recurrent-residual classifier and the
encoder/three-decoder segmentation network.

Both models are assembled from the ops in :mod:`chestkit.tensor` and keep
every parameter in a :class:`ParamStore`, an ordered name -> Tensor map
that round-trips bit-exactly through the CMTW weight file format defined
at the bottom of this module.

Architecture conventions (documented because the source material leaves
them open):

* A recurrent convolution applies its forward kernel once, then refines
  the response ``t`` times through a shared recurrent kernel:
  ``z0 = conv(x, Wf)``, ``zk = relu(conv(x, Wf) + conv(z(k-1), Wr))``.
  ``t = 0`` degenerates to ``relu(conv(x, Wf))``.  Default ``t = 2``.
* A classifier unit runs one recurrent convolution per branch kernel
  (1x1 and 3x3 by default, channels split as evenly as possible with the
  remainder on the largest kernel), concatenates the branches, and adds
  the input back, projected through a 1x1 convolution when the channel
  counts differ.
* The classifier stacks five such units with 2x2 max-pooling in between,
  then global average pooling, a fully-connected layer, and softmax.
  Per-unit widths at width_scale 1 are 64, 128, 256, 512, 1024.
* The segmenter encodes through six 3x3 conv stages (16..512 feature
  maps, pooling between stages) and decodes along three independent
  paths starting at the bottleneck and the two deepest encoder stages;
  each path alternates nearest 2x upsampling with a 3x3 convolution down
  the width sequence until full resolution.  The three full-resolution
  maps are concatenated and reduced by a 1x1 convolution with sigmoid.
* Kernels use He initialization; biases start at zero.
"""

from __future__ import annotations

import io
import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .rng import derive_seed
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat_channels,
    conv2d,
    dense,
    global_avg_pool,
    he_init,
    max_pool2d,
    relu,
    sigmoid,
    softmax,
    upsample2x,
)

IRRCNN_UNIT_WIDTHS = (64, 128, 256, 512, 1024)
NABLA_ENCODER_WIDTHS = (16, 32, 64, 128, 256, 512)
POOL_STAGES = 5  # both nets shrink by 2**5, so inputs must divide by 32


@dataclass(frozen=True)
class IRRUConfig:
    in_channels: int
    out_channels: int
    recurrence_steps: int = 2
    branch_kernels: tuple[int, ...] = (1, 3)

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.recurrence_steps < 0:
            raise ValueError("recurrence_steps must be >= 0")
        if self.out_channels < len(self.branch_kernels):
            raise ValueError(
                f"cannot split {self.out_channels} channels over "
                f"{len(self.branch_kernels)} branches")


@dataclass(frozen=True)
class ModelConfig:
    architecture: str              # "irrcnn" | "nabla3"
    input_shape: tuple[int, int, int]
    width_scale: float = 1.0
    num_classes: int | None = None
    recurrence_steps: int = 2
    irru_widths: tuple[int, ...] = IRRCNN_UNIT_WIDTHS
    encoder_widths: tuple[int, ...] = NABLA_ENCODER_WIDTHS

    def __post_init__(self):
        if self.architecture not in ("irrcnn", "nabla3"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ValueError(f"input_shape must be [C,H,W], got {self.input_shape}")
        if self.width_scale <= 0:
            raise ValueError("width_scale must be positive")
        if self.architecture == "irrcnn" and (self.num_classes or 0) < 2:
            raise ValueError("irrcnn needs num_classes >= 2")


def scaled_width(base: int, width_scale: float) -> int:
    """Channel count after shrinking: rounds up, never below 1."""
    return max(1, math.ceil(base * width_scale))


class DuplicateNameError(ValueError):
    """A parameter name was registered or read twice."""


class ParamStore:
    """Ordered, uniquely-named map of parameter tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if not name:
            raise ValueError("parameter name must be non-empty")
        if name in self._params:
            raise DuplicateNameError(f"duplicate parameter name {name!r}")
        tensor.name = name
        self._params[name] = tensor
        return tensor

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self):
        return iter(self._params)


# ---------------------------------------------------------------------------
# building blocks


def recurrent_conv(x: Tensor, forward_kernel: Tensor, forward_bias: Tensor,
                   recurrent_kernel: Tensor, recurrent_bias: Tensor,
                   t: int) -> Tensor:
    """Same-padded convolution refined ``t`` times through a recurrent kernel.

    ``z0 = conv(x, Wf)``; ``zk = relu(conv(x, Wf) + conv(z(k-1), Wr))`` for
    k = 1..t.  ``t = 0`` reduces to ``relu(conv(x, Wf))``.  The recurrent
    kernel must map the output channels onto themselves.
    """
    if t < 0:
        raise ValueError("recurrence steps must be >= 0")
    pad_f = forward_kernel.shape[2] // 2
    pad_r = recurrent_kernel.shape[2] // 2
    if recurrent_kernel.shape[0] != recurrent_kernel.shape[1] \
            or recurrent_kernel.shape[0] != forward_kernel.shape[0]:
        raise ShapeError(
            f"recurrent kernel {recurrent_kernel.shape} must map the forward "
            f"kernel's {forward_kernel.shape[0]} output channels onto themselves")
    f = conv2d(x, forward_kernel, forward_bias, padding=pad_f)
    if t == 0:
        return relu(f)
    z = f
    for _ in range(t):
        z = relu(add(f, conv2d(z, recurrent_kernel, recurrent_bias, padding=pad_r)))
    return z


class RecurrentConv:
    """Forward conv refined ``steps`` times through a recurrent kernel."""

    def __init__(self, store: ParamStore, prefix: str, c_in: int, c_out: int,
                 kernel: int, steps: int, seed: int, init_gain: float = 1.0):
        self.steps = steps
        self.pad = kernel // 2
        fwd = he_init((c_out, c_in, kernel, kernel), c_in * kernel * kernel,
                      derive_seed(seed, 1), requires_grad=True)
        fwd.data *= init_gain
        self.fwd_w = store.add(f"{prefix}.fwd.weight", fwd)
        self.fwd_b = store.add(f"{prefix}.fwd.bias",
                               Tensor(np.zeros(c_out), requires_grad=True))
        rec = he_init((c_out, c_out, kernel, kernel), c_out * kernel * kernel,
                      derive_seed(seed, 2), requires_grad=True)
        rec.data *= init_gain
        self.rec_w = store.add(f"{prefix}.rec.weight", rec)
        self.rec_b = store.add(f"{prefix}.rec.bias",
                               Tensor(np.zeros(c_out), requires_grad=True))

    def forward(self, x: Tensor) -> Tensor:
        return recurrent_conv(x, self.fwd_w, self.fwd_b,
                              self.rec_w, self.rec_b, self.steps)


def _branch_split(out_channels: int, kernels: tuple[int, ...]) -> list[int]:
    # as even as possible; remainder goes to the largest kernel
    n = len(kernels)
    base, rem = divmod(out_channels, n)
    counts = [base] * n
    counts[max(range(n), key=lambda i: kernels[i])] += rem
    if any(c < 1 for c in counts):
        raise ValueError(
            f"cannot split {out_channels} channels over {n} branches")
    return counts


class IRRU:
    """Parallel recurrent-conv branches, concatenated, plus a residual add.

    Weights start at half the He scale: He's variance target assumes a
    plain conv-relu chain, but here every unit adds the (projected) input
    back on top of the branch output, so a full-scale draw compounds to
    activations large enough to pin the softmax head at depth five.  The
    halved gain keeps stacked units near variance-neutral.
    """

    INIT_GAIN = 0.5

    def __init__(self, cfg: IRRUConfig, store: ParamStore | None = None,
                 prefix: str = "irru", seed: int = 0):
        self.cfg = cfg
        self.params = store if store is not None else ParamStore()
        counts = _branch_split(cfg.out_channels, cfg.branch_kernels)
        self.branches = [
            RecurrentConv(self.params, f"{prefix}.br{k}", cfg.in_channels, c,
                          k, cfg.recurrence_steps, derive_seed(seed, 10 + i),
                          init_gain=self.INIT_GAIN)
            for i, (k, c) in enumerate(zip(cfg.branch_kernels, counts))
        ]
        if cfg.in_channels != cfg.out_channels:
            proj = he_init((cfg.out_channels, cfg.in_channels, 1, 1),
                           cfg.in_channels, derive_seed(seed, 99),
                           requires_grad=True)
            proj.data *= self.INIT_GAIN
            self.proj_w = self.params.add(f"{prefix}.proj.weight", proj)
            self.proj_b = self.params.add(f"{prefix}.proj.bias", Tensor(
                np.zeros(cfg.out_channels), requires_grad=True))
        else:
            self.proj_w = None
            self.proj_b = None

    def forward(self, x: Tensor) -> Tensor:
        cat = concat_channels([br.forward(x) for br in self.branches])
        if self.proj_w is None:
            residual = x
        else:
            residual = conv2d(x, self.proj_w, self.proj_b)
        return add(cat, residual)


def build_irru(cfg: IRRUConfig, seed: int = 0) -> IRRU:
    return IRRU(cfg, seed=seed)


# ---------------------------------------------------------------------------
# the two model graphs


def _check_pool_divisibility(h: int, w: int):
    div = 2 ** POOL_STAGES
    if h % div or w % div:
        raise ValueError(
            f"input spatial dims must be divisible by {div}, got {h}x{w}")


class Irrcnn:
    """Five recurrent-residual units, GAP, fully-connected softmax head."""

    head_names = ("fc.weight", "fc.bias")

    def __init__(self, config: ModelConfig, seed: int = 0):
        if config.architecture != "irrcnn":
            raise ValueError("config is not an irrcnn config")
        c, h, w = config.input_shape
        _check_pool_divisibility(h, w)
        self.config = config
        self.params = ParamStore()

        widths = [scaled_width(b, config.width_scale) for b in config.irru_widths]
        self.units = []
        c_in = c
        for i, c_out in enumerate(widths, start=1):
            unit = IRRU(IRRUConfig(c_in, c_out, config.recurrence_steps),
                        store=self.params, prefix=f"unit{i}",
                        seed=derive_seed(seed, i))
            self.units.append(unit)
            c_in = c_out
        k = config.num_classes
        self.fc_w = self.params.add("fc.weight", he_init(
            (c_in, k), c_in, derive_seed(seed, 1000), requires_grad=True))
        self.fc_b = self.params.add("fc.bias", Tensor(np.zeros(k), requires_grad=True))

    def forward(self, batch: Tensor) -> Tensor:
        _check_batch_shape(batch, self.config.input_shape, "irrcnn")
        h = batch
        for unit in self.units:
            h = max_pool2d(unit.forward(h))
        return softmax(dense(global_avg_pool(h), self.fc_w, self.fc_b))


class Nabla3:
    """Six-stage encoder with three decoder paths fused into a sigmoid mask."""

    head_names = ("head.weight", "head.bias")

    def __init__(self, config: ModelConfig, seed: int = 0):
        if config.architecture != "nabla3":
            raise ValueError("config is not a nabla3 config")
        c, h, w = config.input_shape
        _check_pool_divisibility(h, w)
        self.config = config
        self.params = ParamStore()

        widths = [scaled_width(b, config.width_scale) for b in config.encoder_widths]
        self.widths = widths
        self.enc = []
        c_in = c
        for i, c_out in enumerate(widths, start=1):
            wt = self.params.add(f"enc{i}.weight", he_init(
                (c_out, c_in, 3, 3), c_in * 9, derive_seed(seed, i),
                requires_grad=True))
            bt = self.params.add(f"enc{i}.bias", Tensor(np.zeros(c_out), requires_grad=True))
            self.enc.append((wt, bt))
            c_in = c_out

        # decoder paths start at the bottleneck (stage 6) and stages 5 and 4;
        # a path starting at stage s needs s-1 upsample+conv steps
        self.decoders = []
        for d, start_stage in enumerate((6, 5, 4), start=1):
            steps = []
            c_prev = widths[start_stage - 1]
            for j, c_out in enumerate(reversed(widths[:start_stage - 1]), start=1):
                wt = self.params.add(f"dec{d}.step{j}.weight", he_init(
                    (c_out, c_prev, 3, 3), c_prev * 9,
                    derive_seed(seed, 100 * d + j), requires_grad=True))
                bt = self.params.add(f"dec{d}.step{j}.bias",
                                     Tensor(np.zeros(c_out), requires_grad=True))
                steps.append((wt, bt))
                c_prev = c_out
            self.decoders.append((start_stage, steps))

        self.head_w = self.params.add("head.weight", he_init(
            (1, 3 * widths[0], 1, 1), 3 * widths[0], derive_seed(seed, 9000),
            requires_grad=True))
        self.head_b = self.params.add("head.bias", Tensor(np.zeros(1), requires_grad=True))

    def forward(self, batch: Tensor) -> Tensor:
        _check_batch_shape(batch, self.config.input_shape, "nabla3")
        h = batch
        stage_out = []
        for i, (wt, bt) in enumerate(self.enc, start=1):
            h = relu(conv2d(h, wt, bt, padding=1))
            stage_out.append(h)
            if i <= POOL_STAGES:
                h = max_pool2d(h)

        maps = []
        for start_stage, steps in self.decoders:
            z = stage_out[start_stage - 1]
            for wt, bt in steps:
                z = relu(conv2d(upsample2x(z), wt, bt, padding=1))
            maps.append(z)
        fused = concat_channels(maps)
        return sigmoid(conv2d(fused, self.head_w, self.head_b))


ModelGraph = Irrcnn | Nabla3


def _check_batch_shape(batch: Tensor, input_shape: tuple[int, int, int], arch: str):
    if batch.ndim == 3:
        got = batch.shape
    elif batch.ndim == 4:
        got = batch.shape[1:]
    else:
        raise ShapeError(f"{arch} expects [C,H,W] or [B,C,H,W], got {batch.shape}")
    if tuple(got) != tuple(input_shape):
        raise ShapeError(
            f"{arch} built for input {tuple(input_shape)}, got {tuple(got)}")


def build_irrcnn(config: ModelConfig, seed: int = 0) -> Irrcnn:
    return Irrcnn(config, seed=seed)


def build_nabla3(config: ModelConfig, seed: int = 0) -> Nabla3:
    return Nabla3(config, seed=seed)


def build_model(config: ModelConfig, seed: int = 0) -> ModelGraph:
    if config.architecture == "irrcnn":
        return Irrcnn(config, seed=seed)
    return Nabla3(config, seed=seed)


def param_count(model) -> int:
    store = model.params if hasattr(model, "params") else model
    return sum(t.size for _, t in store.items())


# ---------------------------------------------------------------------------
# weight persistence (CMTW format)
#
# magic "CMTW" | u32 version=1 | u32 tensor count | per tensor:
#   u32 name length | utf-8 name | u32 ndim | ndim * u32 dims |
#   prod(dims) * float32 little-endian values


WEIGHT_MAGIC = b"CMTW"
WEIGHT_VERSION = 1


class WeightFileError(ValueError):
    """Base class for weight file problems."""


class WeightFormatError(WeightFileError):
    """Bad magic bytes or malformed structure."""


class WeightVersionError(WeightFileError):
    """Unsupported format version."""


class WeightTruncatedError(WeightFileError):
    """File ended before the declared payload."""


class DuplicateWeightNameError(WeightFormatError, DuplicateNameError):
    """A weight file names one parameter twice."""


def save_weights(store: ParamStore, destination) -> None:
    """Write a ParamStore to a path or binary stream (float32 payload)."""
    buf = io.BytesIO()
    buf.write(WEIGHT_MAGIC)
    buf.write(struct.pack("<II", WEIGHT_VERSION, len(store)))
    for name, t in store.items():
        encoded = name.encode("utf-8")
        if not encoded:
            raise ValueError("cannot save a parameter with an empty name")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", t.ndim))
        buf.write(struct.pack(f"<{t.ndim}I", *t.shape))
        buf.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
    payload = buf.getvalue()
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(destination, "wb") as fh:
            fh.write(payload)


def load_weights(source) -> ParamStore:
    """Read a CMTW file back into a ParamStore (values upcast to float64)."""
    if hasattr(source, "read"):
        raw = source.read()
    else:
        with open(source, "rb") as fh:
            raw = fh.read()

    view = memoryview(raw)
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise WeightTruncatedError(f"file truncated while reading {what}")
        piece = view[pos:pos + n]
        pos += n
        return piece

    if bytes(take(4, "magic")) != WEIGHT_MAGIC:
        raise WeightFormatError("not a CMTW weight file (bad magic)")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != WEIGHT_VERSION:
        raise WeightVersionError(f"unsupported weight file version {version}")

    store = ParamStore()
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        if name_len == 0:
            raise WeightFormatError("zero-length parameter name")
        try:
            name = bytes(take(name_len, "name")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightFormatError(f"parameter name is not UTF-8: {exc}") from exc
        (ndim,) = struct.unpack("<I", take(4, "rank"))
        if ndim == 0:
            raise WeightFormatError(f"parameter {name!r} has empty shape")
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "dims"))
        if 0 in dims:
            raise WeightFormatError(f"parameter {name!r} has zero-size shape {dims}")
        # Python ints: a product of u32 dims cannot wrap, so a huge shape
        # fails the length check in take() instead of a reshape
        n_values = math.prod(dims)
        values = np.frombuffer(take(4 * n_values, f"values of {name!r}"),
                               dtype="<f4").astype(np.float64).reshape(dims)
        if not np.isfinite(values).all():
            raise WeightFormatError(f"parameter {name!r} holds NaN or Inf values")
        if name in store:
            raise DuplicateWeightNameError(f"duplicate parameter name {name!r} in file")
        store.add(name, Tensor(values))
    return store


def copy_params(params: ParamStore, source: ParamStore, names: Iterable[str],
                missing: str, holder: str) -> None:
    """Copy ``source[name]`` into ``params[name]`` for each of ``names``.

    A name absent from ``source`` raises ``KeyError`` with the message
    ``f"{missing} {name!r}"``; a shape that differs raises ``ShapeError``
    saying what ``holder`` has and what the model needs.
    """
    for name in names:
        if name not in source:
            raise KeyError(f"{missing} {name!r}")
        src, param = source[name], params[name]
        if src.shape != param.shape:
            raise ShapeError(
                f"parameter {name!r}: {holder} has {src.shape}, model needs {param.shape}")
        param.data = src.data.copy()


def assign_weights(model: ModelGraph, store: ParamStore) -> None:
    """Copy a loaded store into a built model; names and shapes must match."""
    copy_params(model.params, store, model.params.names(),
                "weight file is missing parameter", "file")


def irrcnn_config_from_store(store: ParamStore, input_shape: tuple[int, int, int],
                             recurrence_steps: int = 2) -> ModelConfig:
    """Recover a buildable classifier config from saved tensor shapes."""
    widths = []
    i = 1
    while f"unit{i}.br1.fwd.weight" in store:
        out = sum(store[f"unit{i}.br{k}.fwd.weight"].shape[0]
                  for k in (1, 3) if f"unit{i}.br{k}.fwd.weight" in store)
        widths.append(out)
        i += 1
    if not widths or "fc.weight" not in store:
        raise WeightFormatError("store does not contain an irrcnn parameter set")
    num_classes = store["fc.weight"].shape[1]
    return ModelConfig("irrcnn", input_shape, width_scale=1.0,
                       num_classes=num_classes, recurrence_steps=recurrence_steps,
                       irru_widths=tuple(widths))


def nabla3_config_from_store(store: ParamStore,
                             input_shape: tuple[int, int, int]) -> ModelConfig:
    """Recover a buildable segmenter config from saved tensor shapes."""
    widths = []
    i = 1
    while f"enc{i}.weight" in store:
        widths.append(store[f"enc{i}.weight"].shape[0])
        i += 1
    if len(widths) != len(NABLA_ENCODER_WIDTHS):
        raise WeightFormatError("store does not contain a nabla3 parameter set")
    return ModelConfig("nabla3", input_shape, width_scale=1.0,
                       encoder_widths=tuple(widths))
