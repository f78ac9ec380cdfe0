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
* A classifier unit (:class:`IRRU`) runs :func:`recurrent_conv` once per
  branch kernel (1x1 and 3x3, ``IRRU_BRANCH_KERNELS``; channels split as
  evenly as possible with the remainder on the largest kernel),
  concatenates the branches, and adds the input back, projected through
  a 1x1 convolution when the channel counts differ.
* The classifier stacks five such units with 2x2 max-pooling in between,
  then global average pooling, a fully-connected layer, and softmax.
  Per-unit widths at width_scale 1 are 64, 128, 256, 512, 1024.
* The segmenter encodes through six 3x3 conv stages (16..512 feature
  maps, pooling between stages) and decodes along three independent
  paths starting at the bottleneck and the two deepest encoder stages;
  each path alternates nearest 2x upsampling with a 3x3 convolution down
  the width sequence until full resolution.  The three full-resolution
  maps are concatenated and reduced by a 1x1 convolution with sigmoid.
* Every layer is made by :func:`init_layer`: a He-initialized kernel
  whose fan-in comes from its shape, and a zero bias.
"""

from __future__ import annotations

import io
import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import kvtext
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
)

IRRCNN_UNIT_WIDTHS = (64, 128, 256, 512, 1024)
NABLA_ENCODER_WIDTHS = (16, 32, 64, 128, 256, 512)
IRRU_BRANCH_KERNELS = (1, 3)
POOL_STAGES = 5  # both nets shrink by 2**5, so inputs must divide by 32


@dataclass(frozen=True)
class ModelConfig:
    architecture: str              # "irrcnn" | "nabla3"
    input_shape: tuple[int, int, int]
    width_scale: float = 1.0
    num_classes: int | None = None
    recurrence_steps: int = 2

    def __post_init__(self):
        if self.architecture not in ("irrcnn", "nabla3"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ValueError(f"input_shape must be [C,H,W], got {self.input_shape}")
        # every corpus and training.to_batch are grayscale
        if self.input_shape[0] != 1:
            raise ValueError(f"input_shape must have 1 channel, got {self.input_shape[0]}")
        div = 2 ** POOL_STAGES
        if self.input_shape[1] % div or self.input_shape[2] % div:
            raise ValueError(f"input spatial dims must be divisible by {div}, "
                             f"got {self.input_shape[1]}x{self.input_shape[2]}")
        if not 0 < self.width_scale < math.inf:
            raise ValueError("width_scale must be positive and finite")
        # model_config_fields writes it with .10g, and a weight file must
        # load back to an equal config
        if float(f"{self.width_scale:.10g}") != self.width_scale:
            raise ValueError(f"width_scale {self.width_scale!r} has more than "
                             "10 significant digits")
        if self.architecture == "irrcnn" and (self.num_classes or 0) < 2:
            raise ValueError("irrcnn needs num_classes >= 2")
        if self.recurrence_steps < 0:
            raise ValueError("recurrence_steps must be >= 0")


def model_config_fields(config: ModelConfig) -> dict[str, str]:
    """The ``key=value`` fields of a config, as ``config.txt`` and CMTW v2
    write them; :func:`load_weights` reads them back."""
    return {"architecture": config.architecture,
            "input_shape": "x".join(str(n) for n in config.input_shape),
            "width_scale": f"{config.width_scale:.10g}",
            "num_classes": "-" if config.num_classes is None else str(config.num_classes),
            "recurrence_steps": str(config.recurrence_steps)}


_MODEL_CONFIG_FIELDS = {
    "architecture": str,
    "input_shape": lambda text: tuple(int(n) for n in text.split("x")),
    "width_scale": float,
    "num_classes": lambda text: None if text == "-" else int(text),
    "recurrence_steps": int}


def scaled_width(base: int, width_scale: float) -> int:
    """Channel count after shrinking: rounds up, never below 1."""
    return max(1, math.ceil(base * width_scale))


class DuplicateNameError(ValueError):
    """A parameter name was registered or read twice."""


class ParamStore:
    """Ordered, uniquely-named map of parameter tensors, with the config of
    the model they belong to (None for a store no model built)."""

    def __init__(self, config: ModelConfig | None = None):
        self._params: dict[str, Tensor] = {}
        self.config = config

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if not name:
            raise ValueError("parameter name must be non-empty")
        if name in self._params:
            raise DuplicateNameError(f"duplicate parameter name {name!r}")
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


def init_layer(store: ParamStore, prefix: str, shape: tuple[int, ...], seed: int,
               gain: float = 1.0) -> tuple[Tensor, Tensor]:
    """Register ``prefix.weight``, a He draw scaled by ``gain``, and a zero
    ``prefix.bias`` in ``store``; return both.

    ``shape`` is ``[F, K]`` for a dense layer (fan-in F, K outputs) or
    ``[C_out, C_in, kH, kW]`` for a convolution (fan-in C_in*kH*kW).
    """
    is_dense = len(shape) == 2
    weight = he_init(shape, shape[0] if is_dense else math.prod(shape[1:]), seed,
                     requires_grad=True)
    weight.data *= gain
    bias = Tensor(np.zeros(shape[1] if is_dense else shape[0]), requires_grad=True)
    return store.add(f"{prefix}.weight", weight), store.add(f"{prefix}.bias", bias)


def recurrent_conv(x: Tensor, forward_kernel: Tensor, forward_bias: Tensor,
                   recurrent_kernel: Tensor, recurrent_bias: Tensor,
                   t: int) -> Tensor:
    """Same-padded convolution refined ``t`` times through a recurrent kernel.

    ``z0 = conv(x, Wf)``; ``zk = relu(conv(x, Wf) + conv(z(k-1), Wr))`` for
    k = 1..t.  ``t = 0`` reduces to ``relu(conv(x, Wf))``, a conv with its
    relu fused.  The recurrent kernel must map the output channels onto
    themselves.
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
    f = conv2d(x, forward_kernel, forward_bias, padding=pad_f, relu=(t == 0))
    z = f
    for _ in range(t):
        z = relu(add(f, conv2d(z, recurrent_kernel, recurrent_bias, padding=pad_r)))
    return z


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

    def __init__(self, store: ParamStore, prefix: str, c_in: int, c_out: int,
                 steps: int, seed: int):
        self.steps = steps
        # one (fwd_w, fwd_b, rec_w, rec_b) per branch kernel
        self.branches = []
        counts = _branch_split(c_out, IRRU_BRANCH_KERNELS)
        for i, (k, c) in enumerate(zip(IRRU_BRANCH_KERNELS, counts)):
            branch_seed = derive_seed(seed, 10 + i)
            self.branches.append(
                init_layer(store, f"{prefix}.br{k}.fwd", (c, c_in, k, k),
                           derive_seed(branch_seed, 1), self.INIT_GAIN)
                + init_layer(store, f"{prefix}.br{k}.rec", (c, c, k, k),
                             derive_seed(branch_seed, 2), self.INIT_GAIN))
        self.proj = None if c_in == c_out else init_layer(
            store, f"{prefix}.proj", (c_out, c_in, 1, 1), derive_seed(seed, 99),
            self.INIT_GAIN)

    def forward(self, x: Tensor) -> Tensor:
        cat = concat_channels([recurrent_conv(x, *br, self.steps) for br in self.branches])
        return add(cat, x if self.proj is None else conv2d(x, *self.proj))


# ---------------------------------------------------------------------------
# the two model graphs


class Irrcnn:
    """Five recurrent-residual units, GAP, fully-connected softmax head."""

    head_names = ("fc.weight", "fc.bias")

    def __init__(self, config: ModelConfig, seed: int = 0):
        if config.architecture != "irrcnn":
            raise ValueError("config is not an irrcnn config")
        self.config = config
        self.params = ParamStore(config)

        widths = [scaled_width(b, config.width_scale) for b in IRRCNN_UNIT_WIDTHS]
        self.units = []
        c_in = config.input_shape[0]
        for i, c_out in enumerate(widths, start=1):
            self.units.append(IRRU(self.params, f"unit{i}", c_in, c_out,
                                   config.recurrence_steps, derive_seed(seed, i)))
            c_in = c_out
        self.fc = init_layer(self.params, "fc", (c_in, config.num_classes),
                             derive_seed(seed, 1000))

    def forward(self, batch: Tensor) -> Tensor:
        _check_batch_shape(batch, self.config.input_shape, "irrcnn")
        h = batch
        for unit in self.units:
            h = max_pool2d(unit.forward(h))
        return softmax(dense(global_avg_pool(h), *self.fc))


class Nabla3:
    """Six-stage encoder with three decoder paths fused into a sigmoid mask."""

    head_names = ("head.weight", "head.bias")

    def __init__(self, config: ModelConfig, seed: int = 0):
        if config.architecture != "nabla3":
            raise ValueError("config is not a nabla3 config")
        self.config = config
        self.params = ParamStore(config)

        widths = [scaled_width(b, config.width_scale) for b in NABLA_ENCODER_WIDTHS]
        self.enc = []
        c_in = config.input_shape[0]
        for i, c_out in enumerate(widths, start=1):
            self.enc.append(init_layer(self.params, f"enc{i}", (c_out, c_in, 3, 3),
                                       derive_seed(seed, i)))
            c_in = c_out

        # decoder paths start at the bottleneck (stage 6) and stages 5 and 4;
        # a path starting at stage s needs s-1 steps, each a 3x3 conv over
        # the 2x upsample of the step before; conv2d fuses the upsample
        # (upsample=True) as four 2x2 phase convs of the step's input, so no
        # 4x map is made and the tape keeps the input at its own size
        self.decoders = []
        for d, start_stage in enumerate((6, 5, 4), start=1):
            steps = []
            c_prev = widths[start_stage - 1]
            for j, c_out in enumerate(reversed(widths[:start_stage - 1]), start=1):
                steps.append(init_layer(self.params, f"dec{d}.step{j}", (c_out, c_prev, 3, 3),
                                        derive_seed(seed, 100 * d + j)))
                c_prev = c_out
            self.decoders.append((start_stage, steps))

        self.head = init_layer(self.params, "head", (1, 3 * widths[0], 1, 1),
                               derive_seed(seed, 9000))

    def forward(self, batch: Tensor) -> Tensor:
        _check_batch_shape(batch, self.config.input_shape, "nabla3")
        # every conv but the head is relu(conv), fused into one tape node and
        # one output map (relu=True)
        h = batch
        stage_out = []
        for i, (wt, bt) in enumerate(self.enc, start=1):
            h = conv2d(h, wt, bt, padding=1, relu=True)
            stage_out.append(h)
            if i <= POOL_STAGES:
                h = max_pool2d(h)

        maps = []
        for start_stage, steps in self.decoders:
            z = stage_out[start_stage - 1]
            for wt, bt in steps:
                z = conv2d(z, wt, bt, padding=1, upsample=True, relu=True)
            maps.append(z)
        fused = concat_channels(maps)
        return sigmoid(conv2d(fused, *self.head))


ModelGraph = Irrcnn | Nabla3


def _check_batch_shape(batch: Tensor, input_shape: tuple[int, int, int], arch: str):
    if batch.ndim != 4:
        raise ShapeError(f"{arch} expects [B,C,H,W], got {batch.shape}")
    if batch.shape[1:] != tuple(input_shape):
        raise ShapeError(
            f"{arch} built for input {tuple(input_shape)}, got {batch.shape[1:]}")


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
# magic "CMTW" | u32 version | u32 tensor count |
#   version 2 only: u32 config length | utf-8 config text |
# per tensor:
#   u32 name length | utf-8 name | u32 ndim | ndim * u32 dims |
#   prod(dims) * float32 little-endian values
#
# The config text is the ``key=value`` lines of model_config_fields, so a
# version 2 file says which network it holds.  A store without a config
# (one no model built) is written as version 1, and a version 1 file loads
# as a store without one.


WEIGHT_MAGIC = b"CMTW"


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
    if store.config is None:
        buf.write(struct.pack("<II", 1, len(store)))
    else:
        config = kvtext.to_text(model_config_fields(store.config)).encode("utf-8")
        buf.write(struct.pack("<III", 2, len(store), len(config)))
        buf.write(config)
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
    """Read a CMTW file back into a ParamStore (values upcast to float64);
    its ``config`` is the file's model config, None for version 1."""
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
    if version not in (1, 2):
        raise WeightVersionError(f"unsupported weight file version {version}")

    store = ParamStore()
    if version == 2:
        (config_len,) = struct.unpack("<I", take(4, "config length"))
        text = bytes(take(config_len, "model config"))
        try:
            fields = kvtext.from_text(text.decode("utf-8"))
            store.config = ModelConfig(**kvtext.parse(fields, _MODEL_CONFIG_FIELDS))
        except ValueError as exc:   # TextFormatError and UnicodeDecodeError too
            raise WeightFormatError(f"bad model config: {exc}") from exc
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
        values = np.frombuffer(take(4 * n_values, f"values of {name!r}"), dtype="<f4")
        # checked before the cast: casting a signalling NaN warns
        if not np.isfinite(values).all():
            raise WeightFormatError(f"parameter {name!r} holds NaN or Inf values")
        if name in store:
            raise DuplicateWeightNameError(f"duplicate parameter name {name!r} in file")
        store.add(name, Tensor(values.reshape(dims)))
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

