"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a :class:`Tensor` wraps a contiguous
float64 numpy array (weights are persisted as float32, but all arithmetic
runs in double precision so finite-difference gradient checks are
meaningful), and a :class:`Tape` records every operation executed while it
is active.  ``tape.backward(loss)`` replays the record in reverse and
returns the gradient of every ``requires_grad`` leaf that contributed to
the loss; that map is the only place a gradient is kept.

The tape keeps only what backward reads.  A node holds its parents as
keys and its backward closure, which keeps the arrays that op's gradient
needs; it never holds its output.  So a forward intermediate that no
closure saved (a conv's pre-activation, a relu output) is freed as soon
as the forward drops it, and backward releases each node, closure and
saved arrays included, once it has run.  A conv keeps its padded input
buffer; ``conv2d(..., upsample=True)``, a conv over the 2x upsample of its
input, keeps the quarter-size input instead and rebuilds the buffer in
backward, so the 4x map is never held.

Ops take batches: the spatial ops and ``concat_channels`` take
[B, C, H, W], ``dense`` [B, F] and ``softmax`` [B, K]; one sample is a
batch of one.  ``conv2d`` alone also takes one [C, H, W] image.  Ops are
pure functions: they never mutate their inputs and identical inputs
produce bit-identical outputs.  Forwards and input
gradients compute each sample on its own: ``dense`` with a GEMV per
sample, ``conv2d`` with GEMMs over blocks of several whole samples or of
rows of one large sample.  So each sample's result is independent of the
rest of the batch to the last bit; a weight gradient sums over it.

A ``conv2d`` call with at least ``_SPLIT_FLOPS`` of GEMM work deals its
independent GEMMs (the column blocks of the forward and of ``dx``, the
kernel taps of ``dw``) to a pool of ``_WORKERS`` threads: one per CPU the
process may run on, at most two.
Its memory passes go to the same pool, one contiguous channel slab per
worker, when the pass's largest array has at least ``_SPLIT_BYTES``: the
copies into the padded buffers of the input and of the output gradient
(``_padded``) and ``_sum_quadrants``.  ``deal_memory`` offers the same
rule to other modules; ``training.adam_step`` deals its blocks of
parameter rows through it.  These passes call no BLAS, and their large
arrays are made on the calling thread.  Each unit of work keeps its
shape and operands and writes only its own slice of the output, so every
byte is the same as on one thread, whatever the worker count; numpy
releases the GIL in ``matmul``, in array copies and in arithmetic.
Workers run numpy only: the tape belongs to the calling thread and they
never record.  The pool starts on first use, and a forked child starts a
pool of its own.

Conventions fixed here and relied on elsewhere:

* ``relu`` has gradient 0 at exactly 0 (subgradient choice).
* ``max_pool2d`` breaks ties toward the first maximum in row-major order.
* ``upsample2x`` is nearest-neighbor replication, so a 2x2 max-pool of an
  upsampled map recovers the original exactly.
* A scalar is a tensor of shape ``(1,)``; shapes are never empty.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

import numpy as np

from .rng import DetRng


class ShapeError(ValueError):
    """Raised when tensor shapes cannot be combined as requested."""


class Tensor:
    """n-dimensional float64 array plus autodiff bookkeeping."""

    __slots__ = ("data", "requires_grad", "_tape", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._tape: object | None = None   # the marker of the Tape that recorded it
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

    Each recorded op is one node: a key per parent (the parent's node
    index if it was recorded on this tape, the parent itself if it is a
    leaf that ``requires_grad``, else None) and its backward closure; an
    op's output never requires grad, so only leaves get a gradient back.
    Gradients are buffered by those keys, never by ``id()``: a freed
    intermediate's id can come back later in the same forward.
    ``backward`` sets each node's slot to None as it reaches it, so a
    closure and the arrays it saved are freed once it has run, while
    backward goes on; ``len(tape)`` still counts the recorded nodes.

    A tape is single-owner: it must not be shared across threads, and
    ``backward`` may run at most once.
    """

    def __init__(self):
        self._nodes: list[tuple[tuple, Callable] | None] = []
        self._spent = False
        # recorded outputs point at this marker, not at the tape: an output
        # kept past backward, or saved by a closure, would otherwise keep
        # the tape alive or close a cycle only the cyclic collector frees
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
        """Propagate from a scalar loss; returns the grad of each
        ``requires_grad`` leaf it reaches.

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

        nodes = self._nodes
        for index in range(len(nodes) - 1, -1, -1):
            keys, backward_fn = nodes[index]
            nodes[index] = None
            g = buffers.pop(index, None)
            if g is None:
                continue
            for key, pg in zip(keys, backward_fn(g)):
                if key is None or pg is None:
                    continue
                held = buffers.get(key)
                buffers[key] = pg if held is None else held + pg

        # every node index has been popped; what is left are the leaves
        return buffers


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    tape = _active_tape()
    if tape is not None:
        keys = tuple(tape._key(p) for p in parents)
        if any(key is not None for key in keys):
            out._tape = tape._mark
            out._node = len(tape._nodes)
            tape._nodes.append((keys, backward_fn))
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
    """Normalized exponentials over each row of a [B, K] batch."""
    if x.ndim != 2:
        raise ShapeError(f"softmax expects [B,K], got {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _record(Tensor(out), (x,), backward)


# ---------------------------------------------------------------------------
# spatial ops; tensors are batches [B,C,H,W]


def _spatial(x: Tensor, op: str) -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError(f"{op} expects [B,C,H,W], got {x.shape}")
    return x.data


# bytes of im2col columns that conv2d holds at once, per worker
_COLS_BYTES = 1 << 20
# conv2d's GEMMs go to worker threads, one per CPU this process may run on
# and at most two, when a call does at least _SPLIT_FLOPS of them.  Timed
# per call on a 2-core VM, the desk presets' calls (at most 38 MFLOP) ran
# 0.4-1.2x as fast on two threads, the full-width seg preset's from
# 150 MFLOP up 1.1-1.9x
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
_SPLIT_FLOPS = 1 << 26
# a memory pass (conv2d's padded buffers, the quadrant sum, adam_step by
# its parameters' bytes) goes to the same workers when its largest array
# has at least _SPLIT_BYTES.  Timed per call on the same VM, full-width seg
# passes of 4 MB and up ran 1.1-2.1x as fast on two threads, those of
# 2-2.4 MB 0.8-1.5x and smaller ones slower: a split costs 0.1-0.5 ms.
# The desk presets' passes are at most 1.5 MB
_SPLIT_BYTES = 1 << 22
_pool = None   # a concurrent.futures.ThreadPoolExecutor, from the first split
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child has none of its parent's threads, so work handed to the
    # parent's pool would never run, and a lock one of them held stays held;
    # the child makes its own pool on first use
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _deal(work: Callable[[Sequence], None], units: Sequence, split: bool) -> None:
    """Run ``work(units)`` on this thread or, when ``split`` and for two or
    more units, ``work(units[w::_WORKERS])`` on each worker w.  Return once
    every worker has finished; raise the first worker's exception.
    ``work`` must write each unit's slice of the output alone, so the
    result does not depend on the thread that ran it.
    """
    global _pool
    if not split or _WORKERS < 2 or len(units) < 2:
        work(units)
        return
    # imported here: the desk presets never split, and the import alone
    # adds 0.6 MB to a process
    from concurrent import futures

    with _pool_lock:
        if _pool is None:
            _pool = futures.ThreadPoolExecutor(_WORKERS, thread_name_prefix="chestkit")
        pool = _pool
    running = [pool.submit(work, units[w::_WORKERS]) for w in range(_WORKERS)]
    futures.wait(running)
    for future in running:
        future.result()


def deal_memory(work: Callable[[Sequence], None], units: Sequence, nbytes: int) -> None:
    """``_deal`` for a memory pass over ``nbytes``: ``work(units)`` on this
    thread below ``_SPLIT_BYTES``, else the units shared among the workers
    under the same contract."""
    _deal(work, units, nbytes >= _SPLIT_BYTES)


def _by_channel(work: Callable[[slice], None], c: int, nbytes: int) -> None:
    """``work(s)`` for channel slices ``s`` that cover ``range(c)``: one
    contiguous slab per worker when ``nbytes`` is at least
    ``_SPLIT_BYTES`` and there are channels enough, else one slice on this
    thread.  Contiguous slabs keep each worker on memory pages of its own."""
    slabs = min(_WORKERS, c) if nbytes >= _SPLIT_BYTES else 1
    if slabs < 2:
        work(slice(0, c))
        return
    bounds = [c * i // slabs for i in range(slabs + 1)]
    _deal(lambda part: [work(slice(lo, hi)) for lo, hi in part],
          list(zip(bounds, bounds[1:])), True)


def _padded(shape: tuple[int, ...], as_maps: Callable[[np.ndarray], np.ndarray],
            src: np.ndarray, top: int, left: int, upsample: bool = False) -> np.ndarray:
    """``np.zeros(shape)`` whose channel-first view ``as_maps(buf)``, [C, B,
    H, W], holds ``src`` [C, B, h, w], or its 2x upsample, at (top, left).
    ``_by_channel`` deals the copy."""
    buf = np.zeros(shape)
    maps = as_maps(buf)
    h, w = src.shape[2:]
    if upsample:
        h, w = 2 * h, 2 * w
    inner = maps[..., top:top + h, left:left + w]
    views = _quadrants(inner) if upsample else (inner,)

    def part(s):
        for view in views:
            view[s] = src[s]

    _by_channel(part, len(maps), buf.nbytes)
    return buf


def _conv_matmul(wmat: np.ndarray, xp: np.ndarray, kh: int, kw: int,
                 oh: int, ow: int) -> np.ndarray:
    """``wmat @ im2col(xp)`` as [B, M, oh*ow], for ``xp`` [B, C, H, W] and
    ``wmat`` [M, C*kh*kw].

    im2col row ``(c*kh + a)*kw + b``, column ``i*ow + j`` holds
    ``xp[:, c, i + a, j + b]``.  The columns are built a block at a time
    in a buffer of about ``_COLS_BYTES`` and multiplied into their slice
    of the output; ``_deal`` may share the blocks among workers, each with
    a buffer of its own.  A block is as many whole samples as fit, each with its
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

    def blocks(starts):
        buf = np.empty(samples * k * rows * ow)
        for s, i in starts:
            n, r = min(samples, b - s), min(rows, oh - i)
            cols = buf[:n * k * r * ow].reshape(n, c, kh, kw, r, ow)
            cols[...] = windows[s:s + n, :, :, :, i:i + r]
            np.matmul(wmat, cols.reshape(n, k, r * ow),
                      out=out[s:s + n, :, i * ow:(i + r) * ow])

    _deal(blocks, [(s, i) for s in range(0, b, samples) for i in range(0, oh, rows)],
          2 * out.size * k >= _SPLIT_FLOPS)
    return out


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, padding: int = 0, *,
           upsample: bool = False) -> Tensor:
    """2-D cross-correlation at stride 1 with zero padding; ``kernels`` is
    [C_out, C_in, kH, kW], ``bias`` [C_out], output H + 2*padding - kH + 1.
    With ``upsample`` the input [B, C, h, w] stands for its nearest-neighbour
    2x upsample [B, C, 2h, 2w], bit for bit ``conv2d(upsample2x(x), ...)``.

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
    flipped, channel-swapped kernels through ``_conv_matmul`` too, and
    with ``upsample`` goes through ``_sum_quadrants``; it is None for an
    input that neither requires grad nor was recorded.  The closure
    retains only ``xc``.  With ``upsample`` the upsample is written straight
    into ``xc``'s four interior quadrants, so the 4x map is never made, and
    the closure retains the quarter-size input instead, rebuilding ``xc``
    for the ``dw`` GEMMs.  A 1x1 conv of one sample with no padding uses the
    input itself as ``xc``, since it has that layout already.
    """
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    # one [C,H,W] image runs as a batch of one, the one exception to the
    # batch-only layout: perfbench's tracer self-test passes one
    single = x.ndim == 3
    xd = x.data[None] if single else _spatial(x, "conv2d")
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be 4-D, got {kernels.shape}")
    c_out, c_in, kh, kw = kernels.shape
    if bias.shape != (c_out,):
        raise ShapeError(f"bias must be [{c_out}], got {bias.shape}")
    b, c, h, w = xd.shape
    if c != c_in:
        raise ShapeError(
            f"conv2d: kernels expect {c_in} input channels, input has {c}")
    if upsample:
        h, w = 2 * h, 2 * w
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    oh, ow = hp - kh + 1, wp - kw + 1
    n = b * hp * wp
    tail = (kh - 1) * wp + kw - 1

    def fill(src):
        # xc for src; one unpadded sample under a 1x1 kernel is xc already
        if b == 1 and padding == 0 and tail == 0 and not upsample:
            return src[0].reshape(c, n)
        return _padded((c, n + tail), lambda a: a[:, :n].reshape(c, b, hp, wp),
                       src.transpose(1, 0, 2, 3), padding, padding, upsample)

    xc = fill(xd)
    xp = xc[:, :n].reshape(c, b, hp, wp).transpose(1, 0, 2, 3)
    out = _conv_matmul(kernels.data.reshape(c_out, c_in * kh * kw), xp, kh, kw, oh, ow)
    out += bias.data[:, None]
    out = out.reshape(b, c_out, oh, ow)
    need_dx = x.requires_grad or x._tape is not None
    saved = xd if upsample else xc   # the quarter-size map, not its 4x buffer

    def backward(g):
        g = g.reshape(b, c_out, oh, ow)
        gc = _padded((c_out, n), lambda a: a.reshape(c_out, b, hp, wp),
                     g.transpose(1, 0, 2, 3), 0, 0)
        xc = fill(saved) if upsample else saved
        dw = np.empty((kh * kw, c_out, c_in))

        def taps(part):
            for tap in part:
                shift = (tap // kw) * wp + tap % kw
                np.matmul(gc, xc[:, shift:shift + n].T, out=dw[tap])

        _deal(taps, range(kh * kw), 2 * dw.size * n >= _SPLIT_FLOPS)
        del gc, xc
        dw = dw.transpose(1, 2, 0).reshape(kernels.shape)
        db = g.reshape(b, c_out, oh * ow).sum(axis=(0, 2))
        if not need_dx:
            return None, dw, db
        # dx is the full correlation of the gradient, zero-padded by k-1,
        # with the flipped kernels; the crop drops the rows and columns
        # that fall on the input's zero padding
        gz = _padded((b, c_out, hp + kh - 1, wp + kw - 1), lambda a: a.transpose(1, 0, 2, 3),
                     g.transpose(1, 0, 2, 3), kh - 1, kw - 1)
        gz = gz[:, :, padding:padding + h + kh - 1, padding:padding + w + kw - 1]
        wflip = kernels.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = _conv_matmul(wflip.reshape(c_in, c_out * kh * kw), gz,
                          kh, kw, h, w).reshape(b, c_in, h, w)
        if upsample:
            dx = _sum_quadrants(dx)
        return (dx[0] if single else dx), dw, db

    return _record(Tensor(out[0] if single else out), (x, kernels, bias), backward)


def _quadrants(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four strided views ``a[..., r::2, c::2]`` in row-major window order."""
    return (a[..., 0::2, 0::2], a[..., 0::2, 1::2],
            a[..., 1::2, 0::2], a[..., 1::2, 1::2])


def _sum_quadrants(g: np.ndarray) -> np.ndarray:
    """Each 2x2 block of ``g`` [B, C, 2h, 2w] summed to [B, C, h, w], as
    ``0.0 + ((g00 + g01) + (g10 + g11))``: bit for bit the order of the
    numpy reduction ``g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5))``,
    whose +0.0 start turns an all-negative-zero sum into +0.0.  At width
    1 numpy fuses the two length-2 axes into one sequential sum, so there
    the order is ``0.0 + (((g00 + g01) + g10) + g11)``.
    """
    b, c, h, w = g.shape
    dx = np.empty((b, c, h // 2, w // 2))
    # g10 + g11 is made here rather than on the workers: memory a worker
    # allocates stays in its own malloc arena, raising the peak RSS
    lower = None if w == 2 else np.empty_like(dx)
    g00, g01, g10, g11 = _quadrants(g)

    def part(s):
        d = dx[:, s]
        np.add(g00[:, s], g01[:, s], out=d)
        if lower is None:
            d += g10[:, s]
            d += g11[:, s]
        else:
            d += np.add(g10[:, s], g11[:, s], out=lower[:, s])
        d += 0.0

    _by_channel(part, c, g.nbytes)
    return dx


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
    xd = _spatial(x, "max_pool2d")
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
        dx = np.empty((b, c, h, w))
        for k, quadrant in enumerate(_quadrants(dx)):
            quadrant[...] = np.where(winner == k, g, 0.0)
        return (dx,)

    return _record(Tensor(out), (x,), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    xd = _spatial(x, "global_avg_pool")
    b, c, h, w = xd.shape
    out = xd.mean(axis=(2, 3))

    def backward(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (b, c, h, w)).copy(),)

    return _record(Tensor(out), (x,), backward)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling; each pixel becomes a 2x2 block.

    Forward writes the input into the output's four strided quadrants;
    backward is ``_sum_quadrants``.  ``conv2d(..., upsample=True)`` does
    both inside the conv, without making the 4x map.
    """
    xd = _spatial(x, "upsample2x")
    b, c, h, w = xd.shape
    out = np.empty((b, c, 2 * h, 2 * w))
    for quadrant in _quadrants(out):
        quadrant[...] = xd

    return _record(Tensor(out), (x,), lambda g: (_sum_quadrants(g),))


def concat_channels(xs: Sequence[Tensor]) -> Tensor:
    """Concatenate [B,C,H,W] batches along C; B, H and W must agree."""
    if not xs:
        raise ValueError("concat_channels needs at least one tensor")
    ref = _spatial(xs[0], "concat_channels").shape
    for t in xs[1:]:
        shape = _spatial(t, "concat_channels").shape
        if shape[0] != ref[0] or shape[2:] != ref[2:]:
            raise ShapeError(
                f"concat_channels: {t.shape} incompatible with {ref}")
    out = np.concatenate([t.data for t in xs], axis=1)
    splits = np.cumsum([t.shape[1] for t in xs])[:-1]

    def backward(g):
        return tuple(piece.copy() for piece in np.split(g, splits, axis=1))

    return _record(Tensor(out), tuple(xs), backward)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map of a batch: [B,F] @ [F,K] + [K]."""
    if weight.ndim != 2:
        raise ShapeError(f"dense weight must be 2-D, got {weight.shape}")
    f, k = weight.shape
    if bias.shape != (k,):
        raise ShapeError(f"dense bias must be [{k}], got {bias.shape}")
    if x.ndim != 2:
        raise ShapeError(f"dense expects [B,F], got {x.shape}")
    xd = x.data
    if xd.shape[1] != f:
        raise ShapeError(f"dense: input has {xd.shape[1]} features, weight expects {f}")
    # per-sample GEMV keeps each row bit-identical for any batch size
    out = np.matmul(xd[:, None, :], weight.data)[:, 0, :] + bias.data

    def backward(g):
        dx = np.matmul(g[:, None, :], weight.data.T)[:, 0, :]
        dw = xd.T @ g
        db = g.sum(axis=0)
        return dx, dw, db

    return _record(Tensor(out), (x, weight, bias), backward)


def he_init(shape: Sequence[int], fan_in: int, seed: int,
            requires_grad: bool = False) -> Tensor:
    """Zero-mean normal draw with std sqrt(2/fan_in), seeded and reproducible."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    shape = tuple(int(s) for s in shape)
    n = int(np.prod(shape)) if shape else 1
    std = np.sqrt(2.0 / fan_in)
    data = DetRng(seed).normal(n).reshape(shape) * std
    return Tensor(data, requires_grad=requires_grad)
