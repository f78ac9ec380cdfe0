"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a :class:`Tensor` wraps a contiguous
float64 numpy array (weights are persisted as float32, but all arithmetic
runs in double precision so finite-difference gradient checks are
meaningful), and a :class:`Tape` records every operation executed while it
is active.  ``tape.backward(loss)`` replays the record in reverse and
returns gradients for every ``requires_grad`` tensor that contributed to
the loss.

The tape keeps only what backward reads.  A node holds its backward
closure, which keeps the arrays that op's gradient needs, and its parents
as keys; it holds its output only if that output ``requires_grad``.  So a
forward intermediate that no closure saved (a conv's pre-activation, a
relu output) is freed as soon as the forward drops it, and backward
releases each node, closure and saved arrays included, once it has run.

Ops are pure functions: they never mutate their inputs and identical
inputs produce bit-identical outputs.  Batched forwards and input
gradients compute each sample on its own: ``dense`` with a GEMV per
sample, ``conv2d`` with GEMMs over blocks of several whole samples or of
rows of one large sample.  So each sample's result is independent of the
rest of the batch to the last bit; a weight gradient sums over it.

Conventions fixed here and relied on elsewhere:

* ``relu`` has gradient 0 at exactly 0 (subgradient choice).
* ``max_pool2d`` breaks ties toward the first maximum in row-major order.
* ``upsample2x`` is nearest-neighbor replication, so a 2x2 max-pool of an
  upsampled map recovers the original exactly.
* A scalar is a tensor of shape ``(1,)``; shapes are never empty.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .rng import DetRng


class ShapeError(ValueError):
    """Raised when tensor shapes cannot be combined as requested."""


class Tensor:
    """n-dimensional float64 array plus autodiff bookkeeping."""

    __slots__ = ("data", "requires_grad", "name", "grad", "_tape", "_node")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.grad: np.ndarray | None = None
        self._tape: object | None = None   # the recording Tape's marker
        self._node: int | None = None      # index of its node on that tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag})"


_tls = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_tls, "tape", None)


class Tape:
    """Single-use record of executed ops for one forward/backward pass.

    Use as a context manager around the forward computation::

        with Tape() as tape:
            probs = model.forward(batch)
            loss = cross_entropy_loss(probs, labels)
        grads = tape.backward(loss)

    Each recorded op is one node: its backward closure, a key per parent
    (the parent's node index if it was recorded on this tape, the parent
    itself if it is a leaf that ``requires_grad``, else None) and its
    output only if that output ``requires_grad``.  Gradients are buffered
    by those keys, never by ``id()``: a freed intermediate's id can come
    back later in the same forward.  ``backward`` sets each node's slot to
    None as it reaches it, so a closure and the arrays it saved are freed
    once it has run, while backward goes on; ``len(tape)`` still counts
    the recorded nodes.

    A tape is single-owner: it must not be shared across threads, and
    ``backward`` may run at most once.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor | None, tuple, Callable] | None] = []
        self._spent = False
        # recorded outputs point at this marker, not at the tape: the tape
        # holds outputs that require grad, so a back-reference would make a
        # cycle that keeps a spent tape alive until the cyclic collector runs
        self._mark = object()

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("another Tape is already recording on this thread")
        _tls.tape = self
        return self

    def __exit__(self, *exc) -> bool:
        _tls.tape = None
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def _key(self, t: Tensor) -> "int | Tensor | None":
        """The gradient buffer key of ``t``, or None if no gradient goes to it."""
        if t._tape is self._mark:
            return t._node
        return t if t.requires_grad else None

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Propagate from a scalar loss; returns grads per requires_grad tensor.

        Backward over an empty tape (or a loss neither produced on this
        tape nor requiring grad) is a no-op yielding an empty map; a loss
        that is a ``requires_grad`` leaf maps to ones.  Calling backward
        twice on the same tape is an error.
        """
        if self._spent:
            raise RuntimeError("backward already ran on this tape; record a new Tape")
        self._spent = True
        if loss.size != 1:
            raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")

        root = self._key(loss)
        buffers: dict[int | Tensor, np.ndarray] = (
            {} if root is None else {root: np.ones_like(loss.data)})
        result: dict[Tensor, np.ndarray] = {}

        nodes = self._nodes
        for index in range(len(nodes) - 1, -1, -1):
            out, keys, backward_fn = nodes[index]
            nodes[index] = None
            g = buffers.pop(index, None)
            if g is None:
                continue
            if out is not None:
                out.grad = g
                result[out] = g
            for key, pg in zip(keys, backward_fn(g)):
                if key is None or pg is None:
                    continue
                held = buffers.get(key)
                buffers[key] = pg if held is None else held + pg

        # every node index has been popped; what is left are the leaves
        for t, g in buffers.items():
            t.grad = g
            result[t] = g
        return result


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    tape = _active_tape()
    if tape is not None:
        keys = tuple(tape._key(p) for p in parents)
        if any(key is not None for key in keys):
            out._tape = tape._mark
            out._node = len(tape._nodes)
            tape._nodes.append((out if out.requires_grad else None, keys, backward_fn))
    return out


def apply_op(out_data: np.ndarray, parents: tuple[Tensor, ...],
             backward_fn: Callable) -> Tensor:
    """Wrap a precomputed forward result as a recorded differentiable op.

    ``backward_fn(grad_out)`` must return one gradient array (or None) per
    parent.  This is the extension point other modules use to define fused
    ops such as the losses.
    """
    return _record(Tensor(out_data), parents, backward_fn)


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return _record(Tensor(a.data + b.data), (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    return _record(Tensor(ad * bd), (a, b), lambda g: (g * bd, g * ad))


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return _record(Tensor(np.array([x.data.sum()])), (x,),
                   lambda g: (np.full(shape, g.reshape(-1)[0]),))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return _record(Tensor(np.where(mask, x.data, 0.0)), (x,),
                   lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    # two-branch form stays finite for |x| up to ~1e3 and beyond
    out = np.empty_like(xd)
    pos = xd >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _record(Tensor(out), (x,), lambda g: (g * out * (1.0 - out),))


def softmax(x: Tensor) -> Tensor:
    """Normalized exponentials over the last axis (1-D vector or 2-D batch)."""
    if x.ndim not in (1, 2):
        raise ShapeError(f"softmax expects a vector or batch of vectors, got {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _record(Tensor(out), (x,), backward)


# ---------------------------------------------------------------------------
# spatial ops; tensors are [C,H,W] or batched [B,C,H,W]


def _spatial(x: Tensor, op: str) -> tuple[np.ndarray, bool]:
    if x.ndim == 3:
        return x.data[None], False
    if x.ndim == 4:
        return x.data, True
    raise ShapeError(f"{op} expects [C,H,W] or [B,C,H,W], got {x.shape}")


# bytes of im2col columns that conv2d holds at once
_COLS_BYTES = 1 << 20


def _conv_matmul(wmat: np.ndarray, xp: np.ndarray, kh: int, kw: int,
                 oh: int, ow: int) -> np.ndarray:
    """``wmat @ im2col(xp)`` as [B, M, oh*ow], for ``xp`` [B, C, H, W] and
    ``wmat`` [M, C*kh*kw].

    im2col row ``(c*kh + a)*kw + b``, column ``i*ow + j`` holds
    ``xp[:, c, i + a, j + b]``.  The columns are built a block at a time
    in one buffer of about ``_COLS_BYTES`` and multiplied into their slice
    of the output.  A block is as many whole samples as fit, each with its
    own GEMM of the same shape and operands for any batch size; a sample
    larger than the buffer goes through it a block of output rows at a
    time, split by its own shape alone.  So each sample's result is
    independent of the rest of the batch to the last bit.  For 1x1 kernels
    the columns are ``xp`` itself as a reshape: on conv2d's channel-major
    buffer, a strided view of [C, H*W] matrices that BLAS reads in place.
    """
    b, c = xp.shape[:2]
    if kh == kw == 1:
        return np.matmul(wmat, xp.reshape(b, c, oh * ow))
    k = c * kh * kw
    out = np.empty((b, wmat.shape[0], oh * ow))
    # [B, C, kh, kw, oh, ow]: the columns of every sample, as a view
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (kh, kw), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
    row_bytes = k * ow * out.itemsize
    if row_bytes * oh <= _COLS_BYTES:
        samples, rows = min(b, _COLS_BYTES // (row_bytes * oh)), oh
    else:
        samples, rows = 1, max(1, _COLS_BYTES // row_bytes)
    buf = np.empty(samples * k * rows * ow)
    for s in range(0, b, samples):
        for i in range(0, oh, rows):
            n, r = min(samples, b - s), min(rows, oh - i)
            cols = buf[:n * k * r * ow].reshape(n, c, kh, kw, r, ow)
            cols[...] = windows[s:s + n, :, :, :, i:i + r]
            np.matmul(wmat, cols.reshape(n, k, r * ow),
                      out=out[s:s + n, :, i * ow:(i + r) * ow])
    return out


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, padding: int = 0) -> Tensor:
    """2-D cross-correlation at stride 1 with zero padding; ``kernels`` is
    [C_out, C_in, kH, kW], ``bias`` [C_out], output H + 2*padding - kH + 1.

    The input is padded once into a channel-major buffer ``xc``, [C_in,
    B*Hp*Wp + (kH-1)*Wp + kW-1]: sample s, padded pixel (i, j) is column
    s*Hp*Wp + i*Wp + j, and the tail is zeros.  The forward is
    ``_conv_matmul`` of the kernels and ``xc``: im2col columns built and
    multiplied one block of whole samples, or of one sample's rows, at a
    time, so each sample's output is independent of the batch.
    ``dw[:, :, a, b]`` is one GEMM over the batch: the output gradient,
    laid out like ``xc`` and zero outside each oh x ow corner, times ``xc``
    shifted by a*Wp + b; columns that wrap into the next row or sample
    meet those zeros.  ``dx`` correlates the output gradient with the
    flipped, channel-swapped kernels through ``_conv_matmul`` too; it is
    None for an input that neither requires grad nor was recorded.  The
    closure retains only ``xc``.
    """
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    xd, batched = _spatial(x, "conv2d")
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be 4-D, got {kernels.shape}")
    c_out, c_in, kh, kw = kernels.shape
    if bias.shape != (c_out,):
        raise ShapeError(f"bias must be [{c_out}], got {bias.shape}")
    b, c, h, w = xd.shape
    if c != c_in:
        raise ShapeError(
            f"conv2d: kernels expect {c_in} input channels, input has {c}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    oh, ow = hp - kh + 1, wp - kw + 1
    n = b * hp * wp

    xc = np.zeros((c, n + (kh - 1) * wp + kw - 1))
    xp = xc[:, :n].reshape(c, b, hp, wp).transpose(1, 0, 2, 3)
    xp[:, :, padding:padding + h, padding:padding + w] = xd
    out = _conv_matmul(kernels.data.reshape(c_out, c_in * kh * kw), xp, kh, kw, oh, ow)
    out += bias.data[:, None]
    out = out.reshape(b, c_out, oh, ow)
    need_dx = x.requires_grad or x._tape is not None

    def backward(g):
        g = g.reshape(b, c_out, oh, ow)
        gc = np.zeros((c_out, n))
        gc.reshape(c_out, b, hp, wp)[:, :, :oh, :ow] = g.transpose(1, 0, 2, 3)
        dw = np.empty((kh * kw, c_out, c_in))
        for tap in range(kh * kw):
            shift = (tap // kw) * wp + tap % kw
            np.matmul(gc, xc[:, shift:shift + n].T, out=dw[tap])
        dw = dw.transpose(1, 2, 0).reshape(kernels.shape)
        db = g.reshape(b, c_out, oh * ow).sum(axis=(0, 2))
        if not need_dx:
            return None, dw, db
        # dx is the full correlation of the gradient, zero-padded by k-1,
        # with the flipped kernels; the crop drops the rows and columns
        # that fall on the input's zero padding
        gz = np.zeros((b, c_out, hp + kh - 1, wp + kw - 1))
        gz[:, :, kh - 1:kh - 1 + oh, kw - 1:kw - 1 + ow] = g
        gz = gz[:, :, padding:padding + h + kh - 1, padding:padding + w + kw - 1]
        wflip = kernels.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = _conv_matmul(wflip.reshape(c_in, c_out * kh * kw), gz,
                          kh, kw, h, w).reshape(b, c_in, h, w)
        return (dx if batched else dx[0]), dw, db

    return _record(Tensor(out if batched else out[0]), (x, kernels, bias), backward)


def _quadrants(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four strided views ``a[..., r::2, c::2]`` in row-major window order."""
    return (a[..., 0::2, 0::2], a[..., 0::2, 1::2],
            a[..., 1::2, 0::2], a[..., 1::2, 1::2])


def _first_max(b: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(later, value)``: whether ``b`` beats the earlier ``a`` as argmax
    would rule (strictly larger, or NaN where ``a`` is not), and the winner."""
    later = np.less_equal(b, a)
    np.logical_not(later, out=later)
    later &= a == a
    return later, np.where(later, b, a)


def max_pool2d(x: Tensor) -> Tensor:
    """2x2/stride-2 max pooling; even spatial dims required.

    The gradient routes to the first maximum of each window in row-major
    order, so pooling is deterministic even under ties; a window holding a
    NaN routes to its first NaN and outputs it, as ``argmax`` would.

    The four window positions are strided views of the input, made
    contiguous and compared in a tree: left against right in each row,
    then the top winner against the bottom one.  Each pooled value is a
    bitwise copy of its winning input (``np.maximum`` is not used: which
    of two equal zeros it returns differs between platforms).  The
    backward closure keeps only the winner's position, 0-3 in row-major
    order, as an ``int8`` map.
    """
    xd, batched = _spatial(x, "max_pool2d")
    b, c, h, w = xd.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2d needs even spatial dims, got {h}x{w}")
    q = [np.ascontiguousarray(v) for v in _quadrants(xd)]
    right_top, top = _first_max(q[1], q[0])
    right_bottom, bottom = _first_max(q[3], q[2])
    lower, out = _first_max(bottom, top)
    winner = np.where(lower, right_bottom.view(np.int8) + np.int8(2),
                      right_top.view(np.int8))

    def backward(g):
        gb = g if batched else g[None]
        dx = np.empty((b, c, h, w))
        for k, quadrant in enumerate(_quadrants(dx)):
            quadrant[...] = np.where(winner == k, gb, 0.0)
        return ((dx if batched else dx[0]),)

    return _record(Tensor(out if batched else out[0]), (x,), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    xd, batched = _spatial(x, "global_avg_pool")
    b, c, h, w = xd.shape
    out = xd.mean(axis=(2, 3))

    def backward(g):
        gb = g if batched else g[None]
        dx = np.broadcast_to(gb[:, :, None, None] / (h * w), (b, c, h, w))
        return ((dx if batched else dx[0]).copy(),)

    return _record(Tensor(out if batched else out[0]), (x,), backward)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling; each pixel becomes a 2x2 block.

    Forward writes the input into the output's four strided quadrants.
    Backward adds the gradient's quadrants as
    ``0.0 + ((g00 + g01) + (g10 + g11))``: bit for bit the order of the
    numpy reduction ``g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5))``,
    whose +0.0 start turns an all-negative-zero sum into +0.0.  At width
    1 numpy fuses the two length-2 axes into one sequential sum, so there
    the order is ``0.0 + (((g00 + g01) + g10) + g11)``.
    """
    xd, batched = _spatial(x, "upsample2x")
    b, c, h, w = xd.shape
    out = np.empty((b, c, 2 * h, 2 * w))
    for quadrant in _quadrants(out):
        quadrant[...] = xd

    def backward(g):
        g00, g01, g10, g11 = _quadrants(g)
        dx = g00 + g01
        if w == 1:
            dx += g10
            dx += g11
        else:
            dx += g10 + g11
        dx += 0.0
        return (dx,)

    return _record(Tensor(out if batched else out[0]), (x,), backward)


def concat_channels(xs: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis; spatial (and batch) dims must agree."""
    if not xs:
        raise ValueError("concat_channels needs at least one tensor")
    ndim = xs[0].ndim
    if ndim not in (3, 4):
        raise ShapeError(f"concat_channels expects 3-D or 4-D tensors, got {xs[0].shape}")
    axis = 0 if ndim == 3 else 1
    ref = xs[0].shape
    for t in xs[1:]:
        if t.ndim != ndim or t.shape[:axis] != ref[:axis] or t.shape[axis + 1:] != ref[axis + 1:]:
            raise ShapeError(
                f"concat_channels: {t.shape} incompatible with {ref}")
    sizes = [t.shape[axis] for t in xs]
    out = np.concatenate([t.data for t in xs], axis=axis)
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(piece.copy() for piece in np.split(g, splits, axis=axis))

    return _record(Tensor(out), tuple(xs), backward)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: [B,F] @ [F,K] + [K] (or a single [F] vector)."""
    if weight.ndim != 2:
        raise ShapeError(f"dense weight must be 2-D, got {weight.shape}")
    f, k = weight.shape
    if bias.shape != (k,):
        raise ShapeError(f"dense bias must be [{k}], got {bias.shape}")
    if x.ndim == 1:
        xd, batched = x.data[None], False
    elif x.ndim == 2:
        xd, batched = x.data, True
    else:
        raise ShapeError(f"dense expects [F] or [B,F], got {x.shape}")
    if xd.shape[1] != f:
        raise ShapeError(f"dense: input has {xd.shape[1]} features, weight expects {f}")
    # per-sample GEMV keeps each row bit-identical for any batch size
    out = np.matmul(xd[:, None, :], weight.data)[:, 0, :] + bias.data

    def backward(g):
        gb = g if batched else g[None]
        dx = np.matmul(gb[:, None, :], weight.data.T)[:, 0, :]
        dw = xd.T @ gb
        db = gb.sum(axis=0)
        return ((dx if batched else dx[0]), dw, db)

    return _record(Tensor(out if batched else out[0]), (x, weight, bias), backward)


def he_init(shape: Sequence[int], fan_in: int, seed: int,
            requires_grad: bool = False, name: str | None = None) -> Tensor:
    """Zero-mean normal draw with std sqrt(2/fan_in), seeded and reproducible."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    shape = tuple(int(s) for s in shape)
    n = int(np.prod(shape)) if shape else 1
    std = np.sqrt(2.0 / fan_in)
    data = DetRng(seed).normal(n).reshape(shape) * std
    return Tensor(data, requires_grad=requires_grad, name=name)
