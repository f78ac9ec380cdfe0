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
buffer until its weight gradient is made; both its gradients read one
padded copy of the output gradient.  A relu keeps its bool mask, whether
it is its own node or fused into the conv before it (``conv2d(...,
relu=True)``), which applies it in place on the conv's fresh output and
so makes neither a second map nor a second node.
``conv2d(..., upsample=True)``, a conv over the 2x upsample of its input,
runs as four convs of the input itself, one per output phase, so no 4x map
is ever made; a plain conv is the one-phase case of the same code.

Ops take batches: the spatial ops and ``concat_channels`` take
[B, C, H, W], ``dense`` [B, F] and ``softmax`` [B, K]; one sample is a
batch of one.  ``conv2d`` alone also takes one [C, H, W] image.  Ops are
pure functions: they never mutate their inputs and identical inputs
produce bit-identical outputs.  Forwards and input gradients compute each
sample on its own: ``dense`` with a GEMV per sample, ``conv2d`` with GEMMs
over blocks of several whole samples or of rows of one large sample.  So
each sample's result is independent of the rest of the batch to the last
bit; a weight gradient sums over it.

A ``conv2d`` call with at least ``_SPLIT_FLOPS`` of GEMM work deals its
independent GEMMs (the column blocks of the forward and of ``dx``, the
kernel taps of ``dw``) to a pool of ``_WORKERS`` threads: one per CPU the
process may run on, at most two.  Its memory passes go to the same pool,
one contiguous channel slab per worker, when the pass's largest array has
at least ``_SPLIT_BYTES``: the copies into the padded buffers of the input
and, once a backward, of the output gradient (``_padded``), and with
``upsample`` the making of the phase kernels and the fold of ``dw``'s
phase taps.  ``deal_memory`` offers the same rule to other modules;
``training.adam_step`` deals its blocks of parameter rows through it.  The
large arrays of these passes are made on the calling thread.  Each unit of
work keeps its shape and operands and writes only its own slice of the
output, so every byte is the same as on one thread, whatever the worker
count; numpy releases the GIL in ``matmul``, in array copies and in
arithmetic.  Workers run numpy only: the tape belongs to the calling
thread and they never record.  The pool starts on first use, and a forked
child starts a pool of its own.

Conventions fixed here and relied on elsewhere:

* ``relu`` has gradient 0 at exactly 0 (subgradient choice).
* ``max_pool2d`` breaks ties toward the first maximum in row-major order.
* ``conv2d(..., upsample=True)`` upsamples nearest-neighbour: each input
  pixel stands for a 2x2 block, so a 2x2 max-pool of its output under a
  1x1 identity kernel recovers the input exactly.
* A scalar is a tensor of shape ``(1,)``; shapes are never empty.
"""

from __future__ import annotations

import functools
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
# a memory pass (conv2d's padded buffers, phase kernels and dw folds,
# adam_step by its parameters' bytes) goes to the same workers when its
# largest array has at least _SPLIT_BYTES.  Timed per call on the same
# VM, full-width seg passes of 4 MB and up ran 1.1-2.1x as fast on two
# threads, those of 2-2.4 MB 0.8-1.5x and smaller ones slower: a split
# costs 0.1-0.5 ms.  The desk presets' passes are at most 1.5 MB
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
    of ``as_maps(buf)``, [C, B, H, W].  ``_by_channel`` deals the copies."""
    buf = np.zeros(shape)

    def part(s):
        for maps, (src, top, left) in zip(as_maps(buf), places):
            maps[s, :, top:top + src.shape[2], left:left + src.shape[3]] = src[s]

    _by_channel(part, len(places[0][0]), buf.nbytes)
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
    sb, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (b, c, kh, kw, oh, ow), (sb, sc, sh, sw, sh, sw), writeable=False)
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
           upsample: bool = False, relu: bool = False) -> Tensor:
    """2-D cross-correlation at stride 1 with zero padding; ``kernels`` is
    [C_out, C_in, kH, kW], ``bias`` [C_out], output H + 2*padding - kH + 1.
    With ``upsample`` the input [B, C, h, w] stands for its nearest-neighbour
    2x upsample [B, C, 2h, 2w], each pixel a 2x2 block, which is never made.

    Both run in the sub-pixel form of Shi et al. (2016): output pixel
    (scale*i + r, scale*j + s) is phase (r, s), a conv of the input itself
    with kernels that sum the taps landing on one input pixel
    (``_phase_axis``, ``_phase_kernels``).  A plain conv is scale 1: one
    phase, whose kernels are ``kernels`` and whose windows are the output.
    At scale 2 a 3x3 kernel with padding 1 has 2x2 phase kernels, rows
    ``[k0, k1 + k2]`` for r = 0 and ``[k0 + k1, k2]`` for r = 1, columns
    alike: 4/9 of the GEMM work.  The results differ from a conv of the made
    upsample only in the rounding of sums grouped differently: they are
    equal on integer data.

    The input is padded once into a channel-major buffer ``xc``, [C_in,
    B*Hp*Wp + (kqH-1)*Wp + kqW-1]: sample s, padded pixel (i, j) is column
    s*Hp*Wp + i*Wp + j, and the tail is zeros.  The forward is
    ``_conv_matmul`` of the stacked phase kernels over ``xc``, so each
    sample's output is independent of the batch; at scale 2 each block of
    the product goes straight to ``out[..., r::2, s::2]``, plus the bias.
    Backward stacks the phases' gradients the same way, each at the place
    of its windows, in one buffer ``gc`` with zeros in front.  ``dw`` is one
    GEMM per phase tap over the batch (``_tap_grads``): that stack times
    ``xc`` shifted by the tap, where columns that wrap into the next row or
    sample meet its zeros; at scale 2 each kernel tap is then the sum of the
    four phase taps it went into.  ``dx``, None for an input that neither
    requires grad nor was recorded, is one ``_conv_matmul`` of the flipped
    phase kernels over ``gc`` seen from kq-1 rows and columns before the
    input.  The closure keeps only ``xc``, and lets go of it once ``dw`` is
    made.  A 1x1 conv of one sample with no padding uses the input as ``xc``.

    With ``relu`` the result is ``relu(conv2d(...))`` to the last bit, in
    one tape node: after the bias add, ``mask = out > 0`` and every other
    entry of the conv's own output, NaN and -0.0 included, is set to +0.0
    in place.  The closure keeps the bool mask, as ``relu``'s node does,
    and backward starts from ``g * mask``.
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
    hu, wu = scale * h + 2 * padding, scale * w + 2 * padding
    if kh > hu or kw > wu:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than padded input {hu}x{wu}")
    oh, ow = hu - kh + 1, wu - kw + 1
    kqh, top, hp, rows, row_counts, fold_h = _phase_axis(h, kh, padding, scale)
    kqw, left, wp, cols, col_counts, fold_w = _phase_axis(w, kw, padding, scale)
    n = b * hp * wp
    tail = (kqh - 1) * wp + kqw - 1
    if b == 1 and padding == 0 and tail == 0:
        xc = xd[0].reshape(c, n)   # one unpadded sample under a 1x1 kernel
    else:
        xc = _padded((c, n + tail), lambda a: [a[:, :n].reshape(c, b, hp, wp)],
                     [(xd.transpose(1, 0, 2, 3), top, left)])
    xp = xc[:, :n].reshape(c, b, hp, wp).transpose(1, 0, 2, 3)
    wh, ww = hp - kqh + 1, wp - kqw + 1
    phases = [(r, s) for r in range(scale) for s in range(scale)]
    q = len(phases)
    wmat = _phase_kernels(kernels.data, fold_h, fold_w).reshape(q * c_out, -1)
    if scale == 1:   # the windows are the output
        out = _conv_matmul(wmat, xp, kqh, kqw, wh, ww).reshape(b, c_out, oh, ow)
        out += bias.data[:, None, None]
    else:
        out = np.empty((b, c_out, oh, ow))

        def into_out(s0, i, product):
            # window rows i.. of samples s0.., [n, C_out x phases, r*ww]
            product = product.reshape(len(product), c_out, scale, scale, -1, ww)
            for r, s in phases:
                first = max(i, rows[r])
                last = min(i + product.shape[4], rows[r] + row_counts[r])
                if first < last:
                    np.add(product[:, :, r, s, first - i:last - i,
                                   cols[s]:cols[s] + col_counts[s]],
                           bias.data[:, None, None],
                           out=out[s0:s0 + len(product), :,
                                   scale * (first - rows[r]) + r:
                                   scale * (last - rows[r]) + r:scale, s::scale])

        _conv_matmul(wmat, xp, kqh, kqw, wh, ww, into_out)
    mask = out > 0.0 if relu else None
    if relu:   # in place on the fresh output, as np.where(mask, out, 0.0)
        np.copyto(out, 0.0, where=~mask)
    need_dx = x.requires_grad or x._tape is not None

    def backward(g):
        nonlocal xc
        g = g.reshape(b, c_out, oh, ow)
        if relu:
            g = g * mask
        shift = (kqh - 1 - top) * wp + kqw - 1 - left
        lead = max(0, shift)   # dx's maps start `shift` columns before the gradient
        gc = _padded((q * c_out, lead + n),
                     lambda a: [a[:, lead:].reshape(c_out, q, b, hp, wp)[:, i] for i in range(q)],
                     [(g[:, :, r::scale, s::scale].transpose(1, 0, 2, 3), rows[r], cols[s])
                      for r, s in phases])
        dq = _tap_grads(gc[:, lead:], xc, kqh, kqw, wp).reshape(kqh, kqw, c_out, q, c_in)
        if scale == 1:
            dw = dq[:, :, :, 0]
        else:
            dw = np.empty((kh, kw, c_out, c_in))

            def fold(ch):
                for a, ts in enumerate(zip(*fold_h)):
                    for a2, us in enumerate(zip(*fold_w)):
                        terms = [dq[ts[r], us[s], ch, i] for i, (r, s) in enumerate(phases)]
                        d = np.add(terms[0], terms[1], out=dw[a, a2, ch])
                        for term in terms[2:]:
                            d += term

            _by_channel(fold, c_out, dq.nbytes)
        del dq
        dw = dw.transpose(2, 3, 0, 1)
        db = g.reshape(b, c_out, oh * ow).sum(axis=(0, 2))
        if not need_dx:
            return None, dw, db
        # xc goes before dx is made, so an input nothing else holds is freed in
        # time (at 256 px, the head's 25 MB input makes room for its 25 MB dx)
        xc = None
        # dx sums the full correlation of each phase's gradient with its
        # flipped phase kernels, less the rows and columns of the padding;
        # gc's maps end in kq-1 zero rows and columns (_phase_axis)
        gmaps = np.lib.stride_tricks.as_strided(
            gc[:, lead - shift:], (b, q * c_out, h + kqh - 1, w + kqw - 1),
            (hp * wp * gc.itemsize, gc.strides[0], wp * gc.itemsize, gc.itemsize),
            writeable=False)
        wflip = _phase_kernels(kernels.data, fold_h, fold_w, flip=True).reshape(c_in, -1)
        dx = _conv_matmul(wflip, gmaps, kqh, kqw, h, w).reshape(b, c_in, h, w)
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


@functools.lru_cache(maxsize=None)
def _phase_axis(n: int, k: int, p: int, scale: int):
    """One axis of a size-``k``, padding-``p`` conv over the ``scale``-fold
    nearest-neighbour upsample of ``n`` input pixels, split by output phase
    r (output scale*i + r) into ``scale`` convs of the input itself; cached,
    as every conv2d call asks for two.

    Upsampled tap a of output scale*i + r reads input i + (r + a - p) //
    scale.  With m = (r - p) % scale that is tap (a + m) // scale of a
    phase window that starts at input i + (r - p) // scale.  Returns
    ``(kq, lo, size, starts, counts, fold)``: ``kq`` phase taps, with zero
    taps at the end of a phase that has fewer; the input sits at ``lo`` on
    a zero-padded axis of ``size``, over which phase r's outputs are
    windows ``starts[r]`` to ``starts[r] + counts[r] - 1``; and
    ``fold[r][a]`` is the phase tap of tap a.  At scale 1 that is the conv
    itself: ``(k, p, n + 2p, (0,), (n + 2p - k + 1,), (tuple(range(k)),))``.
    """
    m = [(r - p) % scale for r in range(scale)]
    kq = max((k - 1 + mr) // scale for mr in m) + 1
    lo = (p + scale - 1) // scale
    starts = tuple((r - p) // scale + lo for r in range(scale))
    o = scale * n + 2 * p - k + 1
    counts = tuple((o - r + scale - 1) // scale for r in range(scale))
    size = max(lo + n, max(s + c for s, c in zip(starts, counts)) + kq - 1)
    fold = tuple(tuple((a + mr) // scale for a in range(k)) for mr in m)
    return kq, lo, size, starts, counts, fold


@functools.lru_cache(maxsize=None)
def _phase_maps(fold_h: tuple, fold_w: tuple, flip: bool) -> tuple[np.ndarray, np.ndarray]:
    """The two 0/1 matrices ``_phase_kernels`` multiplies by: ``to_rows``
    [kH*kW, S*kqh*kW] takes tap (a, b) to row sum (r, t, b), and
    ``to_phases`` [S*kqh*kW, S, S, kqh, kqw] row sum (r, t, b) to phase tap
    (r, s, t, u), t and u reversed with ``flip``.  They depend on the
    geometry alone, so they are built once per geometry and cached, and
    are read-only, as every caller and worker shares them.
    """
    scale, kh, kw = len(fold_h), len(fold_h[0]), len(fold_w[0])
    kqh, kqw = max(map(max, fold_h)) + 1, max(map(max, fold_w)) + 1
    to_rows = np.zeros((kh, kw, scale, kqh, kw))
    to_phases = np.zeros((scale, kqh, kw, scale, scale, kqh, kqw))
    for r in range(scale):
        for a, t in enumerate(fold_h[r]):
            to_rows[a, :, r, t] = np.eye(kw)
        for s in range(scale):
            for b, u in enumerate(fold_w[s]):
                for t in range(kqh):
                    if flip:
                        to_phases[r, t, b, r, s, kqh - 1 - t, kqw - 1 - u] = 1.0
                    else:
                        to_phases[r, t, b, r, s, t, u] = 1.0
    maps = to_rows.reshape(kh * kw, -1), to_phases.reshape(-1, scale, scale, kqh, kqw)
    for m in maps:
        m.flags.writeable = False
    return maps


def _phase_kernels(k: np.ndarray, fold_h: Sequence, fold_w: Sequence,
                   flip: bool = False) -> np.ndarray:
    """The phase kernels of ``k`` [C_out, C_in, kH, kW], [C_out, S, S, C_in,
    kqh, kqw] for ``S = len(fold_h)`` phases an axis: tap (t, u) of phase
    (r, s) is the sum of ``k[a, b]`` over the taps a with ``fold_h[r][a] ==
    t`` and b with ``fold_w[s][b] == u``.  With ``flip`` each phase's taps
    are reversed and the layout is [C_in, C_out, S, S, kqh, kqw], as ``dx``
    multiplies them.  At scale 1 that is ``k`` itself, or ``k`` flipped
    and transposed, with no arithmetic, so a -0.0 weight stays -0.0.

    At scale 2, tap (t, u) is ``(k[a0, b0] + k[a1, b0]) + (k[a0, b1] +
    k[a1, b1])``.  Two GEMMs with 0/1 matrices form the sums, the rows'
    and then the columns': each product is exact and each sum has at most
    two terms that are not zero, so no order of summation changes a bit,
    and both layouts hold the same values.  They run a block of channels
    at a time, output channels (input channels with ``flip``) whose row
    sums take about ``_KERNEL_BLOCK_BYTES``, so ``k`` is read once, in
    place, and the row sums stay in cache; ``_by_channel`` deals the
    blocks.  The 0/1 matrices depend on the geometry alone and come from
    the cache of ``_phase_maps``.
    """
    scale = len(fold_h)
    if scale == 1:
        return k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3) if flip else k
    c_out, c_in, kh, kw = k.shape
    to_rows, to_phases = _phase_maps(fold_h, fold_w, flip)
    width, _, _, kqh, kqw = to_phases.shape
    taps = k.reshape(c_out, c_in, kh * kw)
    if flip:
        out = np.empty((c_in, c_out, scale, scale, kqh, kqw))
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
    out = np.empty((c_out, scale, scale, c_in, kqh, kqw))
    to_phases = to_phases.reshape(width, scale, scale, kqh * kqw)
    step = max(1, _KERNEL_BLOCK_BYTES // (c_in * width * k.itemsize))

    def part(ch):
        for lo in range(ch.start, ch.stop, step):
            hi = min(lo + step, ch.stop)
            rows = np.matmul(taps[lo:hi].reshape(-1, kh * kw), to_rows)
            rows = rows.reshape(hi - lo, c_in, width)
            for r in range(scale):
                for s in range(scale):
                    np.matmul(rows, to_phases[:, r, s],
                              out=out[lo:hi, r, s].reshape(hi - lo, c_in, kqh * kqw))

    _by_channel(part, c_out, k.nbytes)
    return out


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
