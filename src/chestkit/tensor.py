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
buffer, and lets go of it once its weight gradient is made.
``conv2d(..., upsample=True)``, a conv over the 2x upsample of its input,
runs as four convs of the quarter-size input, one per output phase, so no
4x map is ever made.

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
(``_padded``), and with ``upsample`` the making of the phase kernels and
the fold of ``dw``'s phase taps; ``upsample2x`` deals ``_sum_quadrants``
the same way.  ``deal_memory`` offers the same rule to other modules;
``training.adam_step`` deals its blocks of parameter rows through it.
The large arrays of these passes are made on the calling thread.  Each
unit of work keeps its shape and operands and writes only its own slice
of the output, so every byte is the same as on one thread, whatever the
worker count; numpy releases the GIL in ``matmul``, in array copies and
in arithmetic.
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


def _padded(shape: tuple[int, ...], as_maps: Callable[[np.ndarray], Sequence[np.ndarray]],
            places: Sequence[tuple[np.ndarray, int, int]]) -> np.ndarray:
    """``np.zeros(shape)`` that holds each ``(src, top, left)`` of ``places``,
    ``src`` [C, B, h, w], at (top, left) of the matching channel-first view
    of ``as_maps(buf)``, [C, B, H, W]; rows and columns of ``src`` that
    fall outside the view are left out.  ``_by_channel`` deals the copies."""
    buf = np.zeros(shape)
    copies = []
    for maps, (src, top, left) in zip(as_maps(buf), places):
        (h, w), (hb, wb) = src.shape[2:], maps.shape[2:]
        i0, j0 = max(0, -top), max(0, -left)
        i1, j1 = max(i0, min(h, hb - top)), max(j0, min(w, wb - left))
        copies.append((maps[..., top + i0:top + i1, left + j0:left + j1],
                       src[..., i0:i1, j0:j1]))

    def part(s):
        for view, src in copies:
            view[s] = src[s]

    _by_channel(part, len(copies[0][0]), buf.nbytes)
    return buf


def _conv_matmul(wmat: np.ndarray, xp: np.ndarray, kh: int, kw: int,
                 oh: int, ow: int, emit: Callable | None = None) -> np.ndarray | None:
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

    With ``emit`` nothing is returned and no [B, M, oh*ow] array is made:
    the product of samples s.. and output rows i.., [n, M, r*ow], goes to
    ``emit(s, i, product)`` from a buffer of the worker's own, and
    ``emit`` must write it to its own place.
    """
    b, c = xp.shape[:2]
    m = wmat.shape[0]
    if kh == kw == 1:
        product = np.matmul(wmat, xp.reshape(b, c, oh * ow))
        return product if emit is None else emit(0, 0, product)
    out = np.empty((b, m, oh * ow)) if emit is None else None
    k = c * kh * kw
    # [B, C, kh, kw, oh, ow]: the columns of every sample, as a view
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (kh, kw), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
    row_bytes = k * ow * wmat.itemsize
    if row_bytes * oh <= _COLS_BYTES:
        samples, rows = min(b, _COLS_BYTES // (row_bytes * oh)), oh
    else:
        samples, rows = 1, max(1, _COLS_BYTES // row_bytes)

    def blocks(starts):
        buf = np.empty(samples * k * rows * ow)
        products = None if emit is None else np.empty(samples * m * rows * ow)
        for s, i in starts:
            n, r = min(samples, b - s), min(rows, oh - i)
            cols = buf[:n * k * r * ow].reshape(n, c, kh, kw, r, ow)
            cols[...] = windows[s:s + n, :, :, :, i:i + r]
            if emit is None:
                np.matmul(wmat, cols.reshape(n, k, r * ow),
                          out=out[s:s + n, :, i * ow:(i + r) * ow])
            else:
                product = products[:n * m * r * ow].reshape(n, m, r * ow)
                emit(s, i, np.matmul(wmat, cols.reshape(n, k, r * ow), out=product))

    _deal(blocks, [(s, i) for s in range(0, b, samples) for i in range(0, oh, rows)],
          2 * b * m * oh * ow * k >= _SPLIT_FLOPS)
    return out


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, padding: int = 0, *,
           upsample: bool = False) -> Tensor:
    """2-D cross-correlation at stride 1 with zero padding; ``kernels`` is
    [C_out, C_in, kH, kW], ``bias`` [C_out], output H + 2*padding - kH + 1.
    With ``upsample`` the input [B, C, h, w] stands for its nearest-neighbour
    2x upsample [B, C, 2h, 2w]: ``conv2d(upsample2x(x), ...)`` in sub-pixel
    form (``_upsample_conv2d``).

    The input is padded once into a channel-major buffer ``xc``, [C_in,
    B*Hp*Wp + (kH-1)*Wp + kW-1]: sample s, padded pixel (i, j) is column
    s*Hp*Wp + i*Wp + j, and the tail is zeros.  The forward is
    ``_conv_matmul`` of the kernels and ``xc``: im2col columns built and
    multiplied one block of whole samples, or of one sample's rows, at a
    time, so each sample's output is independent of the batch.
    ``dw[:, :, a, b]`` is one GEMM over the batch (``_tap_grads``): the
    output gradient, laid out like ``xc`` and zero outside each oh x ow
    corner, times ``xc`` shifted by a*Wp + b; columns that wrap into the
    next row or sample meet those zeros.  ``dx`` correlates the output
    gradient with the flipped, channel-swapped kernels through
    ``_conv_matmul`` too; it is None for an input that neither requires
    grad nor was recorded.  The closure retains only ``xc``, and lets go of
    it once ``dw`` is made.  A 1x1 conv of one sample with no padding uses
    the input itself as ``xc``, since it has that layout already.
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
    scale = 2 if upsample else 1
    hp, wp = scale * h + 2 * padding, scale * w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    if upsample:
        return _upsample_conv2d(x, xd, kernels, bias, padding, single)
    oh, ow = hp - kh + 1, wp - kw + 1
    n = b * hp * wp
    tail = (kh - 1) * wp + kw - 1
    if b == 1 and padding == 0 and tail == 0:
        xc = xd[0].reshape(c, n)   # one unpadded sample under a 1x1 kernel
    else:
        xc = _padded((c, n + tail), lambda a: [a[:, :n].reshape(c, b, hp, wp)],
                     [(xd.transpose(1, 0, 2, 3), padding, padding)])
    xp = xc[:, :n].reshape(c, b, hp, wp).transpose(1, 0, 2, 3)
    out = _conv_matmul(kernels.data.reshape(c_out, c_in * kh * kw), xp, kh, kw, oh, ow)
    out += bias.data[:, None]
    out = out.reshape(b, c_out, oh, ow)
    need_dx = x.requires_grad or x._tape is not None

    def backward(g):
        nonlocal xc
        g = g.reshape(b, c_out, oh, ow)
        gt = g.transpose(1, 0, 2, 3)
        gc = _padded((c_out, n), lambda a: [a.reshape(c_out, b, hp, wp)], [(gt, 0, 0)])
        dw = _tap_grads(gc, xc, kh, kw, wp)
        del gc
        dw = dw.transpose(1, 2, 0).reshape(kernels.shape)
        db = g.reshape(b, c_out, oh * ow).sum(axis=(0, 2))
        if not need_dx:
            return None, dw, db
        # xc is read no more: the closure lets go of it before dx's buffers
        # are made, so an input nothing else holds is freed in time (at
        # 256 px, the head's 25 MB input makes room for its 25 MB dx)
        xc = None
        # dx is the full correlation of the gradient, zero-padded by k-1,
        # with the flipped kernels; the rows and columns that fall on the
        # input's zero padding are left out
        gz = _padded((b, c_out, h + kh - 1, w + kw - 1), lambda a: [a.transpose(1, 0, 2, 3)],
                     [(gt, kh - 1 - padding, kw - 1 - padding)])
        wflip = kernels.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = _conv_matmul(wflip.reshape(c_in, c_out * kh * kw), gz,
                          kh, kw, h, w).reshape(b, c_in, h, w)
        return (dx[0] if single else dx), dw, db

    return _record(Tensor(out[0] if single else out), (x, kernels, bias), backward)


def _tap_grads(gc: np.ndarray, xc: np.ndarray, kh: int, kw: int, wp: int) -> np.ndarray:
    """[kh*kw, M, C]: tap (a, b) is ``gc`` [M, n] times the transpose of
    ``xc`` [C, n + tail] shifted by a*wp + b, one GEMM a tap; ``_deal``
    shares the taps."""
    n = gc.shape[1]
    dw = np.empty((kh * kw, gc.shape[0], xc.shape[0]))

    def taps(part):
        for tap in part:
            shift = (tap // kw) * wp + tap % kw
            np.matmul(gc, xc[:, shift:shift + n].T, out=dw[tap])

    _deal(taps, range(kh * kw), 2 * dw.size * n >= _SPLIT_FLOPS)
    return dw


# bytes of row sums that _phase_kernels makes at once
_KERNEL_BLOCK_BYTES = 1 << 18


def _phase_axis(n: int, k: int, p: int):
    """One axis of a size-``k``, padding-``p`` conv over the 2x upsample of
    ``n`` input pixels, split by output phase r (output 2i + r) into two
    convs of the input itself.

    Upsampled tap a of output 2i + r reads input i + (r + a - p) // 2.
    With m = (r - p) % 2 that is tap (a + m) // 2 of a phase window that
    starts at input i + (r - p) // 2, so at most two taps share a phase tap.
    Returns ``(kq, lo, size, starts, counts, fold)``: ``kq`` phase
    taps, with zero taps at the end of a phase that has fewer; the input
    sits at ``lo`` on a zero-padded axis of ``size``, over which phase r's
    outputs are windows ``starts[r]`` to ``starts[r] + counts[r] - 1``;
    and ``fold[r][a]`` is the phase tap of tap a.
    """
    m = [(r - p) % 2 for r in (0, 1)]
    kq = max((k - 1 + mr) // 2 for mr in m) + 1
    lo = (p + 1) // 2
    starts = [(r - p) // 2 + lo for r in (0, 1)]
    o = 2 * n + 2 * p - k + 1
    counts = [(o - r + 1) // 2 for r in (0, 1)]
    size = max(lo + n, max(s + c for s, c in zip(starts, counts)) + kq - 1)
    fold = [[(a + mr) // 2 for a in range(k)] for mr in m]
    return kq, lo, size, starts, counts, fold


def _phase_kernels(k: np.ndarray, fold_h: list, fold_w: list, flip: bool = False) -> np.ndarray:
    """The phase kernels of ``k`` [C_out, C_in, kH, kW], [C_out, 2, 2, C_in,
    kqh, kqw]: tap (t, u) of phase (r, s) is ``(k[a0, b0] + k[a1, b0]) +
    (k[a0, b1] + k[a1, b1])`` over the taps a with ``fold_h[r][a] == t``
    and b with ``fold_w[s][b] == u``.  With ``flip`` each phase's taps are
    reversed and the layout is [C_in, C_out, 2, 2, kqh, kqw], as ``dx``
    multiplies them.

    Two GEMMs with 0/1 matrices form the sums, the rows' and then the
    columns': each product is exact and each sum has at most two terms
    that are not zero, so no order of summation changes a bit, and both
    layouts hold the same values.  They run a block of channels at a time,
    output channels (input channels with ``flip``) whose row sums take
    about ``_KERNEL_BLOCK_BYTES``, so ``k`` is read once, in place, and
    the row sums stay in cache; ``_by_channel`` deals the blocks.
    """
    c_out, c_in, kh, kw = k.shape
    kqh, kqw = max(map(max, fold_h)) + 1, max(map(max, fold_w)) + 1
    # tap (a, b) to row sum (r, t, b), and row sum (r, t, b) to phase tap
    # (r, s, t, u), t and u reversed with flip
    to_rows = np.zeros((kh, kw, 2, kqh, kw))
    to_phases = np.zeros((2, kqh, kw, 2, 2, kqh, kqw))
    for r in (0, 1):
        for a, t in enumerate(fold_h[r]):
            to_rows[a, :, r, t] = np.eye(kw)
        for s in (0, 1):
            for b, u in enumerate(fold_w[s]):
                for t in range(kqh):
                    if flip:
                        to_phases[r, t, b, r, s, kqh - 1 - t, kqw - 1 - u] = 1.0
                    else:
                        to_phases[r, t, b, r, s, t, u] = 1.0
    width = 2 * kqh * kw
    to_rows = to_rows.reshape(kh * kw, width)
    taps = k.reshape(c_out, c_in, kh * kw)
    if flip:
        out = np.empty((c_in, c_out, 2, 2, kqh, kqw))
        to_phases = to_phases.reshape(width, -1)
        step = max(1, _KERNEL_BLOCK_BYTES // (c_out * width * k.itemsize))

        def part(ch):
            for lo in range(ch.start, ch.stop, step):
                hi = min(lo + step, ch.stop)
                rows = np.matmul(taps[:, lo:hi].transpose(1, 0, 2), to_rows)
                np.matmul(rows.reshape(-1, width), to_phases,
                          out=out[lo:hi].reshape(-1, to_phases.shape[1]))

        _by_channel(part, c_in, k.nbytes)
        return out
    out = np.empty((c_out, 2, 2, c_in, kqh, kqw))
    to_phases = to_phases.reshape(width, 2, 2, kqh * kqw)
    step = max(1, _KERNEL_BLOCK_BYTES // (c_in * width * k.itemsize))

    def part(ch):
        for lo in range(ch.start, ch.stop, step):
            hi = min(lo + step, ch.stop)
            rows = np.matmul(taps[lo:hi].reshape(-1, kh * kw), to_rows)
            rows = rows.reshape(hi - lo, c_in, width)
            for r in (0, 1):
                for s in (0, 1):
                    np.matmul(rows, to_phases[:, r, s],
                              out=out[lo:hi, r, s].reshape(hi - lo, c_in, kqh * kqw))

    _by_channel(part, c_out, k.nbytes)
    return out


def _upsample_conv2d(x: Tensor, xd: np.ndarray, kernels: Tensor, bias: Tensor,
                     padding: int, single: bool) -> Tensor:
    """``conv2d(x, kernels, bias, padding, upsample=True)`` for ``xd``
    [B, C_in, h, w], the batch of ``x``: output pixel (2i + r, 2j + s) is
    phase (r, s), a conv of ``xd`` itself with kernels that sum the taps
    landing on one input pixel (``_phase_axis``).  For a 3x3 kernel with
    padding 1 the phase kernels are 2x2, with rows ``[k0, k1 + k2]`` for
    r = 0 and ``[k0 + k1, k2]`` for r = 1, and columns alike: 4/9 of the
    GEMM work, on im2col columns of the quarter-size map.

    ``xc`` is ``xd`` padded as ``_phase_axis`` says, laid out as in
    ``conv2d``.  The forward is ``_conv_matmul`` of the four phase kernels
    stacked, [C_out*4, C_in*kqh*kqw], over ``xc``; each block of its
    product goes straight to ``out[..., r::2, s::2]``, plus the bias, so
    no phase-major copy of the output is made.  In backward the four
    phases' gradients are stacked the same way, each at the place of its
    windows: ``dw`` is ``_tap_grads`` of that over ``xc``, one GEMM per
    phase tap for all four phases, and each kernel tap is then the sum of
    the four phase taps it went into.  ``dx`` is one ``_conv_matmul`` of
    the stacked gradient, zero-padded by kq-1, with the flipped phase
    kernels, at quarter size.  The closure keeps only ``xc``, as
    ``conv2d`` does; the phase kernels are made again in backward,
    flipped.  Results differ from ``conv2d(upsample2x(x), ...)`` only in
    the rounding of sums grouped differently: they are equal on integer
    data.
    """
    c_out, c_in, kh, kw = kernels.shape
    b, _, h, w = xd.shape
    kqh, top, hp, rows, row_counts, fold_h = _phase_axis(h, kh, padding)
    kqw, left, wp, cols, col_counts, fold_w = _phase_axis(w, kw, padding)
    oh, ow = 2 * h + 2 * padding - kh + 1, 2 * w + 2 * padding - kw + 1
    n = b * hp * wp
    xc = _padded((c_in, n + (kqh - 1) * wp + kqw - 1),
                 lambda a: [a[:, :n].reshape(c_in, b, hp, wp)],
                 [(xd.transpose(1, 0, 2, 3), top, left)])
    xp = xc[:, :n].reshape(c_in, b, hp, wp).transpose(1, 0, 2, 3)
    wh, ww = hp - kqh + 1, wp - kqw + 1
    phases = [(r, s) for r in (0, 1) for s in (0, 1)]
    out = np.empty((b, c_out, oh, ow))

    def into_out(s0, i, product):
        # window rows i.. of samples s0.., [n, C_out x 4 phases, r*ww]
        product = product.reshape(len(product), c_out, 2, 2, -1, ww)
        for r, s in phases:
            first = max(i, rows[r])
            last = min(i + product.shape[4], rows[r] + row_counts[r])
            if first < last:
                np.add(product[:, :, r, s, first - i:last - i, cols[s]:cols[s] + col_counts[s]],
                       bias.data[:, None, None],
                       out=out[s0:s0 + len(product), :,
                               2 * (first - rows[r]) + r:2 * (last - rows[r]) + r:2, s::2])

    wmat = _phase_kernels(kernels.data, fold_h, fold_w).reshape(4 * c_out, -1)
    _conv_matmul(wmat, xp, kqh, kqw, wh, ww, into_out)
    need_dx = x.requires_grad or x._tape is not None

    def backward(g):
        nonlocal xc
        g = g.reshape(b, c_out, oh, ow)
        by_phase = [g[:, :, r::2, s::2].transpose(1, 0, 2, 3) for r, s in phases]
        gc = _padded((4 * c_out, n),
                     lambda a: a.reshape(c_out, 4, b, hp, wp).transpose(1, 0, 2, 3, 4),
                     [(gp, rows[r], cols[s]) for gp, (r, s) in zip(by_phase, phases)])
        dq = _tap_grads(gc, xc, kqh, kqw, wp).reshape(kqh, kqw, c_out, 2, 2, c_in)
        del gc
        dw = np.empty((kh, kw, c_out, c_in))

        def fold(ch):
            for a, (t0, t1) in enumerate(zip(*fold_h)):
                for a2, (u0, u1) in enumerate(zip(*fold_w)):
                    d = dw[a, a2, ch]
                    np.add(dq[t0, u0, ch, 0, 0], dq[t0, u1, ch, 0, 1], out=d)
                    d += dq[t1, u0, ch, 1, 0]
                    d += dq[t1, u1, ch, 1, 1]

        _by_channel(fold, c_out, dq.nbytes)
        del dq
        dw = dw.transpose(2, 3, 0, 1)
        db = g.reshape(b, c_out, oh * ow).sum(axis=(0, 2))
        if not need_dx:
            return None, dw, db
        xc = None   # as in conv2d
        hz, wz = h + kqh - 1, w + kqw - 1
        gz = _padded((b, 4 * c_out, hz, wz),
                     lambda a: a.reshape(b, c_out, 4, hz, wz).transpose(2, 1, 0, 3, 4),
                     [(gp, rows[r] - top + kqh - 1, cols[s] - left + kqw - 1)
                      for gp, (r, s) in zip(by_phase, phases)])
        wflip = _phase_kernels(kernels.data, fold_h, fold_w, flip=True).reshape(c_in, -1)
        dx = _conv_matmul(wflip, gz, kqh, kqw, h, w).reshape(b, c_in, h, w)
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
    backward is ``_sum_quadrants``.  ``conv2d(..., upsample=True)``
    convolves the upsample without making it, in sub-pixel form.
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
