import gc
import math
import os
import select
import signal
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chestkit.rng import DetRng
from chestkit.tensor import (
    ShapeError,
    Tape,
    Tensor,
    _active_tape,
    _conv_matmul,
    _deal,
    add,
    apply_op,
    concat_channels,
    conv2d,
    dense,
    global_avg_pool,
    he_init,
    max_pool2d,
    mul,
    relu,
    sigmoid,
    softmax,
    sum_all,
    upsample2x,
)

from conftest import numeric_grad, rel_error


def rand_tensor(shape, seed, requires_grad=False, scale=1.0):
    rng = DetRng(seed)
    data = rng.normal(int(np.prod(shape))).reshape(shape) * scale
    return Tensor(data, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel_reproduces_input():
    img = rand_tensor((1, 1, 3, 3), seed=1)
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    out = conv2d(img, Tensor(k), Tensor(np.zeros(1)), padding=1)
    assert np.array_equal(out.data, img.data)


def test_conv2d_ones_window_sums_to_nine():
    img = Tensor(np.ones((1, 1, 4, 4)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(img, k, Tensor(np.zeros(1)))
    assert out.shape == (1, 1, 2, 2)
    assert np.array_equal(out.data, np.full((1, 1, 2, 2), 9.0))


def test_conv2d_pointwise_affine():
    img = rand_tensor((1, 1, 5, 4), seed=2)
    k = Tensor(np.full((1, 1, 1, 1), 2.0))
    out = conv2d(img, k, Tensor(np.ones(1)))
    assert np.allclose(out.data, 2.0 * img.data + 1.0, atol=0, rtol=0)


def test_conv2d_channel_mismatch_names_both_dims():
    img = Tensor(np.zeros((1, 3, 4, 4)))
    k = Tensor(np.zeros((2, 5, 3, 3)))
    with pytest.raises(ShapeError, match=r"5.*3|3.*5"):
        conv2d(img, k, Tensor(np.zeros(2)), padding=1)


def test_conv2d_kernel_larger_than_padded_input_rejected():
    img = Tensor(np.zeros((1, 1, 2, 2)))
    k = Tensor(np.zeros((1, 1, 5, 5)))
    with pytest.raises(ShapeError, match="kernel 5x5 larger than padded input 2x2"):
        conv2d(img, k, Tensor(np.zeros(1)))


def test_conv2d_is_linear_with_zero_bias():
    rng = DetRng(3)
    x = Tensor(rng.normal(2 * 6 * 6).reshape(1, 2, 6, 6))
    y = Tensor(rng.normal(2 * 6 * 6).reshape(1, 2, 6, 6))
    k = Tensor(rng.normal(3 * 2 * 9).reshape(3, 2, 3, 3))
    zero = Tensor(np.zeros(3))
    alpha, beta = 0.7, -1.3
    mix = Tensor(alpha * x.data + beta * y.data)
    lhs = conv2d(mix, k, zero, padding=1).data
    rhs = alpha * conv2d(x, k, zero, padding=1).data + beta * conv2d(y, k, zero, padding=1).data
    assert np.max(np.abs(lhs - rhs)) < 1e-9


# column buffer sizes for the batch-invariance tests below, where a sample's
# forward columns take 9216 bytes (1152 a row) and its input-gradient
# columns 13824 (1728 a row): one row per block, rows of a sample, and
# two or three samples per block in the forward (one or two in dx)
SMALL_COLS_BYTES = [1, 5000, 20000, 30000]


def check_conv2d_forward_batch_invariance(upsample=False):
    # with upsample the 4x4 input is conv'd at 8x8, so the columns match
    side = 4 if upsample else 8
    rng = DetRng(4)
    batch = Tensor(rng.normal(4 * 2 * side * side).reshape(4, 2, side, side))
    k = rand_tensor((3, 2, 3, 3), seed=5)
    b = rand_tensor((3,), seed=6)
    full = conv2d(batch, k, b, padding=1, upsample=upsample).data
    if upsample:
        assert full.tobytes() == conv2d(upsample2x(batch), k, b, padding=1).data.tobytes()
    for i in range(4):
        single = conv2d(Tensor(batch.data[i:i + 1]), k, b, padding=1, upsample=upsample).data
        assert np.array_equal(full[i], single[0])


def test_conv2d_batched_matches_per_sample_bitwise():
    check_conv2d_forward_batch_invariance()


@pytest.mark.parametrize("cols_bytes", SMALL_COLS_BYTES)
def test_conv2d_batched_matches_per_sample_bitwise_in_blocks(cols_bytes, monkeypatch):
    monkeypatch.setattr("chestkit.tensor._COLS_BYTES", cols_bytes)
    check_conv2d_forward_batch_invariance()


@pytest.mark.parametrize("cols_bytes", [None, *SMALL_COLS_BYTES])
def test_upsample_conv2d_batched_matches_per_sample_bitwise(cols_bytes, monkeypatch):
    if cols_bytes is not None:
        monkeypatch.setattr("chestkit.tensor._COLS_BYTES", cols_bytes)
    check_conv2d_forward_batch_invariance(upsample=True)


def test_conv2d_gradients_match_finite_differences():
    x = rand_tensor((1, 1, 5, 5), seed=7, requires_grad=True)
    k = rand_tensor((2, 1, 3, 3), seed=8, requires_grad=True)
    b = rand_tensor((2,), seed=9, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(conv2d(x, k, b, padding=1))
    grads = tape.backward(loss)

    def forward():
        return conv2d(x, k, b, padding=1).data.sum()

    for t in (x, k, b):
        assert rel_error(grads[t], numeric_grad(forward, t)) < 1e-3


def test_conv2d_output_size():
    img = Tensor(np.arange(49, dtype=float).reshape(1, 1, 7, 7))
    out = conv2d(img, Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
    assert out.shape == (1, 1, 5, 5)
    out = conv2d(img, Tensor(np.ones((1, 1, 5, 5))), Tensor(np.zeros(1)), padding=2)
    assert out.shape == (1, 1, 7, 7)


# (kernel, stride, padding, input side); conv2d runs at stride 1 only, so the
# stride column is always 1.  1x1/pad 0 is the segmenter head; 3x3/pad 2 and
# 1x1/pad 1 crop gradient rows that fall on the zero padding
GRADIENT_GEOMETRIES = [(3, 1, 1, 6), (1, 1, 0, 5), (3, 1, 2, 4), (1, 1, 1, 5)]


@pytest.mark.parametrize("k,stride,padding,side", GRADIENT_GEOMETRIES)
def test_conv2d_geometry_gradients_match_finite_differences(k, stride, padding, side):
    x = rand_tensor((1, 2, side, side), seed=10, requires_grad=True)
    kern = rand_tensor((3, 2, k, k), seed=11, requires_grad=True)
    b = rand_tensor((3,), seed=12, requires_grad=True)
    oh = (side + 2 * padding - k) // stride + 1
    # a non-uniform upstream gradient, so each output pixel weighs differently
    upstream = rand_tensor((1, 3, oh, oh), seed=13)
    with Tape() as tape:
        loss = sum_all(mul(conv2d(x, kern, b, padding=padding), upstream))
    grads = tape.backward(loss)

    def forward():
        out = conv2d(x, kern, b, padding=padding)
        return float((out.data * upstream.data).sum())

    for t in (x, kern, b):
        assert rel_error(grads[t], numeric_grad(forward, t)) < 1e-3


def test_conv2d_skips_input_gradient_nobody_reads():
    # an image batch: it neither requires grad nor was recorded on the tape
    x = rand_tensor((2, 2, 6, 5), seed=40)
    k = rand_tensor((3, 2, 3, 3), seed=41, requires_grad=True)
    b = rand_tensor((3,), seed=42, requires_grad=True)
    upstream = rand_tensor((2, 3, 6, 5), seed=43)
    with Tape() as tape:
        out = conv2d(x, k, b, padding=1)
        loss = sum_all(mul(out, upstream))
    _, closure = tape._nodes[0]
    assert closure(upstream.data)[0] is None
    grads = tape.backward(loss)
    assert x not in grads

    def forward():
        return float((conv2d(x, k, b, padding=1).data * upstream.data).sum())

    for t in (k, b):
        assert rel_error(grads[t], numeric_grad(forward, t)) < 1e-3


def check_conv2d_input_gradient_batch_invariance(upsample=False):
    side = 4 if upsample else 8
    batch = rand_tensor((4, 2, side, side), seed=14)
    k = rand_tensor((3, 2, 3, 3), seed=15, requires_grad=True)
    b = rand_tensor((3,), seed=16, requires_grad=True)
    upstream = rand_tensor((4, 3, 8, 8), seed=17)

    def input_grad(x, g, fused=True):
        x = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = (conv2d(x, k, b, padding=1, upsample=upsample) if fused
                   else conv2d(upsample2x(x), k, b, padding=1))
            loss = sum_all(mul(out, Tensor(g)))
        return out.data, tape.backward(loss)[x]

    out, full = input_grad(batch.data, upstream.data)
    if upsample:
        want = input_grad(batch.data, upstream.data, fused=False)
        assert out.tobytes() == want[0].tobytes() and full.tobytes() == want[1].tobytes()
    for i in range(4):
        single = input_grad(batch.data[i:i + 1], upstream.data[i:i + 1])[1]
        assert np.array_equal(full[i], single[0])


def test_conv2d_input_gradient_batched_matches_per_sample_bitwise():
    check_conv2d_input_gradient_batch_invariance()


@pytest.mark.parametrize("cols_bytes", SMALL_COLS_BYTES)
def test_conv2d_input_gradient_batched_matches_per_sample_bitwise_in_blocks(
        cols_bytes, monkeypatch):
    monkeypatch.setattr("chestkit.tensor._COLS_BYTES", cols_bytes)
    check_conv2d_input_gradient_batch_invariance()


@pytest.mark.parametrize("cols_bytes", [None, *SMALL_COLS_BYTES])
def test_upsample_conv2d_input_gradient_batched_matches_per_sample_bitwise(
        cols_bytes, monkeypatch):
    if cols_bytes is not None:
        monkeypatch.setattr("chestkit.tensor._COLS_BYTES", cols_bytes)
    check_conv2d_input_gradient_batch_invariance(upsample=True)


# ---------------------------------------------------------------------------
# conv2d on worker threads


def deal_to(monkeypatch, workers):
    """Every conv2d GEMM call with two or more units goes to ``workers``
    threads, however little work it does."""
    monkeypatch.setattr("chestkit.tensor._WORKERS", workers)
    monkeypatch.setattr("chestkit.tensor._SPLIT_FLOPS", 0)


def within(seconds, fn):
    """Run ``fn()`` on a daemon thread and raise what it raised; fail the
    test if it is still running after ``seconds``."""
    raised = []

    def run():
        try:
            fn()
        except BaseException as exc:  # raised again on the test's thread
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"still running after {seconds} s"
    if raised:
        raise raised[0]


def conv_bytes_and_nodes(upsample):
    """The bytes of a conv's output and of its input, kernel and bias
    gradients, and the number of nodes its tape recorded."""
    side = 4 if upsample else 8
    x = rand_tensor((4, 2, side, side), seed=60, requires_grad=True)
    k = rand_tensor((3, 2, 3, 3), seed=61, requires_grad=True)
    b = rand_tensor((3,), seed=62, requires_grad=True)
    upstream = rand_tensor((4, 3, 8, 8), seed=63)
    with Tape() as tape:
        out = conv2d(x, k, b, padding=1, upsample=upsample)
        loss = sum_all(mul(out, upstream))
    grads = tape.backward(loss)
    return [out.data.tobytes(), *(grads[t].tobytes() for t in (x, k, b))], len(tape)


@pytest.mark.parametrize("upsample", [False, True])
@pytest.mark.parametrize("cols_bytes", [None, *SMALL_COLS_BYTES])
def test_conv2d_on_two_workers_byte_equal_to_one(cols_bytes, upsample, monkeypatch):
    # the dw taps are always split; the forward and dx blocks are split at
    # the small buffer sizes, where each takes several
    if cols_bytes is not None:
        monkeypatch.setattr("chestkit.tensor._COLS_BYTES", cols_bytes)
    results = []
    for workers in (1, 2):
        deal_to(monkeypatch, workers)
        results.append(conv_bytes_and_nodes(upsample))
    assert results[0] == results[1]


@pytest.mark.parametrize("upsample", [False, True])
@pytest.mark.parametrize("cols_bytes", [None, *SMALL_COLS_BYTES])
def test_conv2d_batched_matches_per_sample_bitwise_on_two_workers(
        cols_bytes, upsample, monkeypatch):
    # the batch-invariance checks above run on one thread, below the split
    # threshold; here every call they make is split
    if cols_bytes is not None:
        monkeypatch.setattr("chestkit.tensor._COLS_BYTES", cols_bytes)
    deal_to(monkeypatch, 2)
    check_conv2d_forward_batch_invariance(upsample)
    check_conv2d_input_gradient_batch_invariance(upsample)


def test_conv2d_workers_see_no_tape(monkeypatch):
    deal_to(monkeypatch, 2)
    caller = threading.current_thread()
    seen = []

    def work(units):
        seen.append((threading.current_thread() is caller, _active_tape(), list(units)))

    with Tape() as tape:
        _deal(work, range(5), 0)
        assert _active_tape() is tape
    assert sorted(seen, key=lambda s: s[2]) == [(False, None, [0, 2, 4]),
                                                (False, None, [1, 3])]


def test_conv2d_worker_exception_reaches_the_caller(monkeypatch):
    deal_to(monkeypatch, 2)
    done = []

    def work(units):
        if 0 in units:
            raise ZeroDivisionError("unit 0")
        time.sleep(0.05)
        done.extend(units)

    with pytest.raises(ZeroDivisionError, match="unit 0"):
        within(20, lambda: _deal(work, range(4), 0))
    # the caller waited for the other worker, and the pool still runs work
    assert done == [1, 3]
    done.clear()
    within(20, lambda: _deal(work, [1, 3], 0))
    assert sorted(done) == [1, 3]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_conv2d_in_a_forked_child_makes_its_own_workers(monkeypatch):
    # a child forked after the pool started has none of its threads; handed
    # to the parent's pool, the child's next split conv would never finish
    deal_to(monkeypatch, 2)
    monkeypatch.setattr("chestkit.tensor._COLS_BYTES", 1)
    x = rand_tensor((2, 2, 8, 8), seed=64)
    k = rand_tensor((3, 2, 3, 3), seed=65)
    b = rand_tensor((3,), seed=66)
    want = conv2d(x, k, b, padding=1).data.tobytes()
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 and later warn that forking a threaded process can deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                pipe.write(conv2d(x, k, b, padding=1).data.tobytes())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    got = b""
    deadline = time.monotonic() + 20
    with os.fdopen(read, "rb", buffering=0) as pipe:
        while select.select([pipe], [], [], max(0.0, deadline - time.monotonic()))[0]:
            chunk = pipe.read(1 << 16)
            if not chunk:
                break
            got += chunk
        else:  # select timed out
            os.kill(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    assert status == 0, "the child's conv did not finish within 20 s"
    assert got == want


def test_conv2d_one_image_equals_a_batch_of_one():
    # conv2d's one unbatched entry: [C,H,W] in, [C_out,H,W] out and an
    # input gradient shaped like the image, each equal to a batch of one
    image = rand_tensor((2, 6, 5), seed=44)
    k = rand_tensor((3, 2, 3, 3), seed=45, requires_grad=True)
    b = rand_tensor((3,), seed=46, requires_grad=True)
    upstream = rand_tensor((3, 6, 5), seed=47)

    def run(x, g):
        x = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = conv2d(x, k, b, padding=1)
            loss = sum_all(mul(out, Tensor(g)))
        grads = tape.backward(loss)
        return out.data, grads[x], grads[k], grads[b]

    one = run(image.data, upstream.data)
    batch = run(image.data[None], upstream.data[None])
    assert one[0].shape == (3, 6, 5) and one[1].shape == (2, 6, 5)
    for got, want in zip(one, batch):
        assert np.array_equal(got, want.reshape(got.shape))
    with pytest.raises(ShapeError, match=r"conv2d expects \[B,C,H,W\], got \(6, 5\)"):
        conv2d(Tensor(np.zeros((6, 5))), k, b, padding=1)


# ---------------------------------------------------------------------------
# im2col, forward and weight gradient against brute-force oracles


def conv_cols_brute(xp, kh, kw, oh, ow):
    """Fancy-index gather: row (c*kh + a)*kw + b, column i*ow + j holds
    xp[:, c, i + a, j + b]."""
    b, c = xp.shape[:2]
    i0 = np.repeat(np.arange(kh), kw)
    j0 = np.tile(np.arange(kw), kh)
    i1 = np.repeat(np.arange(oh), ow)
    j1 = np.tile(np.arange(ow), oh)
    rows = i0[:, None] + i1[None, :]
    cols = j0[:, None] + j1[None, :]
    patches = np.ascontiguousarray(xp[:, :, rows, cols])  # [B, C, kh*kw, oh*ow]
    return patches.reshape(b, c * kh * kw, oh * ow)


def pad_spatial(x, padding):
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def conv_dw_brute(x, g, kh, kw, padding):
    """Kernel gradient as per-sample GEMMs over the im2col columns of the
    padded input, summed over the batch."""
    b, c_out, oh, ow = g.shape
    cols = conv_cols_brute(pad_spatial(x, padding), kh, kw, oh, ow)
    dw = np.matmul(g.reshape(b, c_out, oh * ow), cols.transpose(0, 2, 1)).sum(axis=0)
    return dw.reshape(c_out, x.shape[1], kh, kw)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("k,stride,padding", [(1, 1, 0), (3, 1, 1), (3, 1, 2),
                                              (3, 1, 0), (5, 1, 2)])
def test_conv_cols_byte_equal_to_brute_gather(k, stride, padding, batch):
    # _conv_matmul's product with its im2col columns, at the default buffer
    # size, against a GEMM over the brute gather; conv2d runs at stride 1
    # only, so the stride column is always 1
    x = rand_tensor((batch, 3, 9, 7), seed=18).data
    xp = pad_spatial(x, padding)
    oh = (9 + 2 * padding - k) // stride + 1
    ow = (7 + 2 * padding - k) // stride + 1
    wmat = rand_tensor((5, 3 * k * k), seed=19).data
    fast = _conv_matmul(wmat, xp, k, k, oh, ow)
    brute = np.matmul(wmat, conv_cols_brute(xp, k, k, oh, ow))
    assert fast.shape == brute.shape and fast.flags.c_contiguous
    assert fast.tobytes() == brute.tobytes()


@pytest.mark.parametrize("k,padding", [(3, 1), (5, 2)])
@pytest.mark.parametrize("blocks", ["batch", "samples", "sample", "rows", "row"])
def test_conv_matmul_blocks_match_brute_gemm(blocks, k, padding, monkeypatch):
    # 5 samples: one block of all five, blocks of 2, 2 and 1, one sample per
    # block, blocks of 4 rows (the last one shorter) and of one row
    x = rand_tensor((5, 3, 9, 7), seed=51).data
    xp = pad_spatial(x, padding)
    oh, ow = 9 + 2 * padding - k + 1, 7 + 2 * padding - k + 1
    depth = 3 * k * k
    row_bytes = depth * ow * 8
    cols_bytes = {"batch": 5 * oh * row_bytes, "samples": 2 * oh * row_bytes + 7,
                  "sample": oh * row_bytes, "rows": 4 * row_bytes + 7, "row": 1}[blocks]
    monkeypatch.setattr("chestkit.tensor._COLS_BYTES", cols_bytes)
    wmat = rand_tensor((4, depth), seed=52).data
    fast = _conv_matmul(wmat, xp, k, k, oh, ow)
    cols = conv_cols_brute(xp, k, k, oh, ow)
    whole = np.matmul(wmat, cols)
    assert fast.shape == whole.shape
    if blocks in ("batch", "samples", "sample"):
        assert fast.tobytes() == whole.tobytes()
        return
    step = 4 if blocks == "rows" else 1
    for s in range(5):
        for i in range(0, oh, step):
            span = slice(i * ow, min(i + step, oh) * ow)
            brute = np.matmul(wmat, np.ascontiguousarray(cols[s, :, span]))
            assert fast[s, :, span].tobytes() == brute.tobytes()
    # BLAS may round a shorter GEMM differently in the last bits
    assert np.max(np.abs(fast - whole)) <= 1e-12 * np.max(np.abs(whole))


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("k,padding", [(1, 0), (3, 1), (5, 2)])
def test_conv2d_forward_byte_equal_to_brute_gemm(k, padding, batch):
    x = rand_tensor((batch, 3, 9, 7), seed=44).data
    kern = rand_tensor((5, 3, k, k), seed=45)
    b = rand_tensor((5,), seed=46)
    oh, ow = 9 + 2 * padding - k + 1, 7 + 2 * padding - k + 1
    cols = conv_cols_brute(pad_spatial(x, padding), k, k, oh, ow)
    expected = np.matmul(kern.data.reshape(5, 3 * k * k), cols)
    expected += b.data[:, None]
    out = conv2d(Tensor(x), kern, b, padding=padding).data
    assert out.tobytes() == expected.reshape(batch, 5, oh, ow).tobytes()


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("k,padding", [(1, 0), (1, 1), (3, 0), (3, 1), (3, 2), (5, 2)])
def test_conv2d_kernel_gradient_matches_per_sample_oracle(k, padding, batch):
    # C_in != C_out on a non-square input: a wrapped read that missed its
    # zero in the gradient buffer would land on real pixels and show here
    x = rand_tensor((batch, 3, 9, 7), seed=47)
    kern = rand_tensor((5, 3, k, k), seed=48, requires_grad=True)
    b = rand_tensor((5,), seed=49, requires_grad=True)
    oh, ow = 9 + 2 * padding - k + 1, 7 + 2 * padding - k + 1
    upstream = rand_tensor((batch, 5, oh, ow), seed=50)
    with Tape() as tape:
        loss = sum_all(mul(conv2d(x, kern, b, padding=padding), upstream))
    dw = tape.backward(loss)[kern]
    # the two sum each entry's B*oh*ow products in different orders; measured
    # against the largest entry, since one entry can be a near-cancellation
    brute = conv_dw_brute(x.data, upstream.data, k, k, padding)
    assert np.max(np.abs(dw - brute)) <= 1e-12 * np.max(np.abs(brute))


# ---------------------------------------------------------------------------
# max_pool2d


def test_max_pool_picks_window_max():
    out = max_pool2d(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 4.0


def test_max_pool_constant_image_halves_resolution():
    img = Tensor(np.full((1, 3, 8, 6), 2.5))
    out = max_pool2d(img)
    assert out.shape == (1, 3, 4, 3)
    assert np.all(out.data == 2.5)


def test_max_pool_rejects_odd_dims():
    with pytest.raises(ShapeError, match="even spatial dims, got 3x4"):
        max_pool2d(Tensor(np.zeros((1, 1, 3, 4))))


def test_max_pool_gradient_is_one_hot_per_window():
    x = rand_tensor((1, 2, 6, 6), seed=11, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(max_pool2d(x))
    grads = tape.backward(loss)
    g = grads[x].reshape(2, 3, 2, 3, 2)
    per_window = g.transpose(0, 1, 3, 2, 4).reshape(2, 3, 3, 4)
    assert np.all(per_window.sum(axis=-1) == 1.0)
    assert np.all((g == 0.0) | (g == 1.0))

    def forward():
        return max_pool2d(x).data.sum()

    assert rel_error(grads[x], numeric_grad(forward, x)) < 1e-3


def test_max_pool_tie_routes_to_first_in_row_major():
    x = Tensor(np.full((1, 1, 2, 2), 7.0), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(max_pool2d(x))
    grads = tape.backward(loss)
    expected = np.zeros((1, 1, 2, 2))
    expected[0, 0, 0, 0] = 1.0
    assert np.array_equal(grads[x], expected)


def max_pool2d_brute(x, g):
    """Reshape/transpose to [..., 4] windows, argmax, one-hot scatter:
    the pooled values and the input gradient for upstream ``g``."""
    b, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    flat = x.reshape(b, c, oh, 2, ow, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, 4)
    winner = flat.argmax(axis=-1)                 # first max in row-major order
    out = np.take_along_axis(flat, winner[..., None], axis=-1)[..., 0]
    hot = np.zeros((b, c, oh, ow, 4))
    np.put_along_axis(hot, winner[..., None], g[..., None], axis=-1)
    dx = hot.reshape(b, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)
    return out, dx


def pool_case(batch, c, h, w, seed):
    """Input with planted ties, one all-NaN and one part-NaN window, signed
    zeros, and an upstream gradient with signed zeros."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((batch, c, h, w)) * 2) / 2   # many ties
    x[0, 0, :2, :2] = 7.0                                         # a full tie
    x[-1, -1, -2:, -2:] = np.nan
    x[0, -1, -2, -1] = np.nan
    x[rng.random(x.shape) < 0.05] = -0.0
    g = rng.standard_normal((batch, c, h // 2, w // 2))
    g[rng.random(g.shape) < 0.1] = -0.0
    return x, g


def input_grad(op, x, g):
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = op(xt)
        loss = sum_all(mul(out, Tensor(g)))
    return out.data, tape.backward(loss)[xt]


SIDES = [(2, 2), (2, 6), (4, 4), (6, 2), (8, 14), (16, 16), (30, 18), (64, 64)]


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("h,w", SIDES)
def test_max_pool_byte_equal_to_brute(batch, h, w):
    x, g = pool_case(batch, 3, h, w, seed=h * 100 + w + batch)
    want_out, want_dx = max_pool2d_brute(x, g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)      # NaN * g in the loss
        out, dx = input_grad(max_pool2d, x, g)
    assert out.tobytes() == want_out.tobytes()
    assert dx.tobytes() == want_dx.tobytes()


def test_max_pool_input_gradient_batched_matches_per_sample_bitwise():
    x, g = pool_case(6, 4, 16, 12, seed=23)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, full = input_grad(max_pool2d, x, g)
        for i in range(6):
            assert full[i].tobytes() == input_grad(max_pool2d, x[i:i + 1], g[i:i + 1])[1][0].tobytes()


# ---------------------------------------------------------------------------
# activations


def test_relu_clamps_negatives():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_idempotent():
    x = rand_tensor((50,), seed=12)
    once = relu(x)
    twice = relu(once)
    assert np.array_equal(once.data, twice.data)


def test_relu_gradient_zero_at_zero():
    x = Tensor([0.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(relu(x))
    grads = tape.backward(loss)
    assert grads[x][0] == 0.0


def test_relu_gradient_matches_finite_differences_away_from_kink():
    rng = DetRng(13)
    data = rng.normal(40)
    data = data[np.abs(data) > 1e-3][:20]
    x = Tensor(data, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(relu(x))
    grads = tape.backward(loss)

    def forward():
        return relu(x).data.sum()

    assert rel_error(grads[x], numeric_grad(forward, x)) < 1e-4


def test_sigmoid_midpoint():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5


def test_sigmoid_symmetry():
    x = rand_tensor((64,), seed=14, scale=5.0)
    neg = Tensor(-x.data)
    total = sigmoid(x).data + sigmoid(neg).data
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_sigmoid_large_inputs_stable():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hi = sigmoid(Tensor([500.0, 1000.0])).data
        lo = sigmoid(Tensor([-500.0, -1000.0])).data
    assert np.all(hi >= 1.0 - 1e-12)
    assert np.all(lo <= 1e-12)
    assert np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))


def test_sigmoid_gradient_matches_finite_differences():
    x = rand_tensor((25,), seed=15, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(sigmoid(x))
    grads = tape.backward(loss)

    def forward():
        return sigmoid(x).data.sum()

    assert rel_error(grads[x], numeric_grad(forward, x)) < 1e-3


def test_softmax_uniform_input():
    out = softmax(Tensor(np.zeros((1, 7))))
    assert np.allclose(out.data, 1.0 / 7.0, atol=1e-15)


def test_softmax_closed_form_quarter_three_quarters():
    out = softmax(Tensor([[0.0, math.log(3.0)]]))
    assert abs(out.data[0, 0] - 0.25) < 1e-12
    assert abs(out.data[0, 1] - 0.75) < 1e-12


def test_softmax_shift_invariance():
    x = rand_tensor((1, 9), seed=16, scale=10.0)
    shifted = Tensor(x.data + 123.456)
    assert np.max(np.abs(softmax(x).data - softmax(shifted).data)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
def test_softmax_sums_to_one(values):
    out = softmax(Tensor([values]))
    assert abs(out.data.sum() - 1.0) <= 1e-9
    assert np.all(out.data > 0.0)


def test_softmax_gradient_matches_finite_differences():
    x = rand_tensor((2, 5), seed=17, requires_grad=True)
    w = Tensor(DetRng(18).random(10).reshape(2, 5))
    with Tape() as tape:
        # weighted sum makes the Jacobian non-trivial
        loss = sum_all(mul(softmax(x), Tensor(w.data)))
    grads = tape.backward(loss)

    def forward():
        return (softmax(x).data * w.data).sum()

    assert rel_error(grads[x], numeric_grad(forward, x)) < 1e-3


# ---------------------------------------------------------------------------
# pooling / upsampling / concat / add


def test_global_avg_pool_constant_channel():
    img = Tensor(np.full((1, 4, 5, 5), 3.25))
    assert np.array_equal(global_avg_pool(img).data, np.full((1, 4), 3.25))


def test_global_avg_pool_mean_value():
    img = Tensor(np.array([[[[0.0, 2.0], [4.0, 6.0]]]]))
    assert global_avg_pool(img).data[0, 0] == 3.0


def test_global_avg_pool_gradient_uniform():
    x = rand_tensor((1, 2, 4, 4), seed=19, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(global_avg_pool(x))
    grads = tape.backward(loss)
    assert np.allclose(grads[x], 1.0 / 16.0, atol=1e-15)


def test_upsample2x_replicates_blocks():
    out = upsample2x(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
    expected = np.array([[[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]]], dtype=float)
    assert np.array_equal(out.data, expected)


def test_upsample_then_pool_roundtrip():
    x = rand_tensor((1, 3, 5, 4), seed=20)
    back = max_pool2d(upsample2x(x))
    assert np.array_equal(back.data, x.data)


def test_upsample2x_gradient_matches_finite_differences():
    x = rand_tensor((1, 1, 3, 3), seed=21, requires_grad=True)
    w = DetRng(22).random(36).reshape(1, 1, 6, 6)
    with Tape() as tape:
        loss = sum_all(mul(upsample2x(x), Tensor(w)))
    grads = tape.backward(loss)

    def forward():
        return (upsample2x(x).data * w).sum()

    assert rel_error(grads[x], numeric_grad(forward, x)) < 1e-3


def upsample2x_backward_brute(g):
    """Sum each 2x2 block of the upstream gradient with one numpy reduction."""
    b, c, h2, w2 = g.shape
    return g.reshape(b, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))


def upsample_grad_case(batch, c, h, w, seed):
    """An upstream gradient spanning 40 orders of magnitude, so the
    summation order shows in the last bits, plus signed zeros and an
    all-negative-zero block."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((batch, c, h, w)) * np.exp(rng.uniform(-46, 46, (batch, c, h, w)))
    g[rng.random(g.shape) < 0.1] = 0.0
    g[rng.random(g.shape) < 0.1] = -0.0
    g[0, 0, :2, :2] = -0.0
    return g


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("h,w", SIDES)
def test_upsample2x_byte_equal_to_brute(batch, h, w):
    x = rand_tensor((batch, 3, h // 2, w // 2), seed=h + w).data
    g = upsample_grad_case(batch, 3, h, w, seed=h * 100 + w + batch)
    out, dx = input_grad(upsample2x, x, g)
    assert out.tobytes() == x.repeat(2, axis=2).repeat(2, axis=3).tobytes()
    assert dx.tobytes() == upsample2x_backward_brute(g).tobytes()


def test_upsample2x_input_gradient_batched_matches_per_sample_bitwise():
    x = rand_tensor((6, 4, 8, 5), seed=24).data
    g = upsample_grad_case(6, 4, 16, 10, seed=25)
    _, full = input_grad(upsample2x, x, g)
    for i in range(6):
        assert full[i].tobytes() == input_grad(upsample2x, x[i:i + 1], g[i:i + 1])[1][0].tobytes()


# ---------------------------------------------------------------------------
# conv2d with a fused 2x upsample, against upsample2x + conv2d


# (batch, h, w, kernel, padding) for input [batch, 2, h, w]; a 3x3 kernel
# needs padding on a 1-row input, whose upsample is 2 rows
UPSAMPLE_CONV_GEOMETRIES = [
    (batch, h, w, k, padding)
    for batch in (1, 3)
    for h, w in ((1, 1), (1, 3), (2, 3), (4, 5))
    for k in (1, 3)
    for padding in (0, 1)
    if k <= 2 * h + 2 * padding
]


@pytest.mark.parametrize("batch,h,w,k,padding", UPSAMPLE_CONV_GEOMETRIES)
def test_upsample_conv2d_byte_equal_to_composition(batch, h, w, k, padding):
    seed = batch * 1000 + h * 100 + w * 10 + k + padding
    x = upsample_grad_case(batch, 2, h, w, seed=seed)
    kern = rand_tensor((3, 2, k, k), seed=seed + 1).data
    b = rand_tensor((3,), seed=seed + 2).data
    side_h, side_w = 2 * h + 2 * padding - k + 1, 2 * w + 2 * padding - k + 1
    g = upsample_grad_case(batch, 3, side_h, side_w, seed=seed + 3)

    def run(fused):
        xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, kern, b))
        with Tape() as tape:
            out = (conv2d(xt, kt, bt, padding=padding, upsample=True) if fused
                   else conv2d(upsample2x(xt), kt, bt, padding=padding))
            loss = sum_all(mul(out, Tensor(g)))
        grads = tape.backward(loss)
        return out.data, grads[xt], grads[kt], grads[bt]

    for got, want in zip(run(True), run(False)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_upsample_conv2d_input_gradient_keeps_the_width_1_order():
    # through an identity 1x1 conv, dx is the quadrant sum of the upstream
    # gradient itself; 1 + 0 + 1e16 - 1e16 is 0 added in sequence, as numpy
    # sums at width 1, and 1 added in pairs
    g = np.array([[[[1.0, 0.0], [1e16, -1e16]]]])
    _, dx = input_grad(
        lambda x: conv2d(x, Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1)), upsample=True),
        np.zeros((1, 1, 1, 1)), g)
    assert dx.tobytes() == upsample2x_backward_brute(g).tobytes() == np.zeros((1, 1, 1, 1)).tobytes()


def test_upsample_conv2d_kernel_checked_against_the_upsampled_size():
    # [a, b] upsamples to [[a, a, b, b], [a, a, b, b]]: a 2x2 kernel fits
    # that but not the 1x2 input, and a 3x3 kernel fits neither
    x = Tensor(np.array([[[[1.0, 10.0]]]]))
    k = Tensor(np.array([[[[1.0, 2.0], [4.0, 8.0]]]]))
    out = conv2d(x, k, Tensor(np.zeros(1)), upsample=True)
    assert out.data.tobytes() == np.array([[[[15.0, 105.0, 150.0]]]]).tobytes()
    with pytest.raises(ShapeError, match="kernel 3x3 larger than padded input 2x4"):
        conv2d(x, Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)), upsample=True)


def test_concat_channels_shapes_and_order():
    a = rand_tensor((1, 1, 2, 2), seed=23)
    b = rand_tensor((1, 2, 2, 2), seed=24)
    out = concat_channels([a, b])
    assert out.shape == (1, 3, 2, 2)
    assert np.array_equal(out.data[:, :1], a.data)
    assert np.array_equal(out.data[:, 1:], b.data)


def test_concat_single_tensor_is_identity():
    a = rand_tensor((1, 2, 3, 3), seed=25)
    assert np.array_equal(concat_channels([a]).data, a.data)


def test_concat_split_roundtrip():
    a = rand_tensor((1, 2, 3, 3), seed=26)
    b = rand_tensor((1, 3, 3, 3), seed=27)
    merged = concat_channels([a, b]).data
    assert np.array_equal(merged[:, :2], a.data)
    assert np.array_equal(merged[:, 2:], b.data)


def test_concat_rejects_mismatched_spatial_dims():
    with pytest.raises(ShapeError, match="incompatible"):
        concat_channels([Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 2)))])


def test_concat_gradient_splits_back():
    a = rand_tensor((1, 1, 2, 2), seed=28, requires_grad=True)
    b = rand_tensor((1, 2, 2, 2), seed=29, requires_grad=True)
    w = DetRng(30).random(12).reshape(1, 3, 2, 2)
    with Tape() as tape:
        loss = sum_all(mul(concat_channels([a, b]), Tensor(w)))
    grads = tape.backward(loss)
    assert np.array_equal(grads[a], w[:, :1])
    assert np.array_equal(grads[b], w[:, 1:])


def test_add_zero_identity_and_commutativity():
    a = rand_tensor((3, 4), seed=31)
    zero = Tensor(np.zeros((3, 4)))
    assert np.array_equal(add(a, zero).data, a.data)
    b = rand_tensor((3, 4), seed=32)
    assert np.array_equal(add(a, b).data, add(b, a).data)


def test_add_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_add_gradient_matches_finite_differences():
    a = rand_tensor((6,), seed=33, requires_grad=True)
    b = rand_tensor((6,), seed=34, requires_grad=True)
    w = DetRng(35).random(6)
    with Tape() as tape:
        loss = sum_all(mul(add(a, b), Tensor(w)))
    grads = tape.backward(loss)

    def forward():
        return ((a.data + b.data) * w).sum()

    for t in (a, b):
        assert rel_error(grads[t], numeric_grad(forward, t)) < 1e-3


# ---------------------------------------------------------------------------
# tape semantics


def test_backward_sum_of_squares():
    x = Tensor([1.0, -2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], [2.0, -4.0])


def test_backward_rejects_non_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_backward_rejects_second_call():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_detached_input_absent_from_gradient_map():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])  # constant
    with Tape() as tape:
        loss = sum_all(mul(x, c))
    grads = tape.backward(loss)
    assert x in grads
    assert c not in grads


def test_backward_over_empty_tape_is_noop():
    loss = Tensor([5.0])
    with Tape() as tape:
        pass
    assert tape.backward(loss) == {}


def test_grad_shapes_match_values():
    x = rand_tensor((2, 3, 4, 4), seed=36, requires_grad=True)
    k = rand_tensor((5, 3, 3, 3), seed=37, requires_grad=True)
    b = rand_tensor((5,), seed=38, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(conv2d(x, k, b, padding=1))
    grads = tape.backward(loss)
    for t in (x, k, b):
        assert grads[t].shape == t.shape


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_ops_do_not_record_without_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    out = relu(x)
    assert out._tape is None


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees objects while the test runs."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_spent_tape_is_freed_by_reference_counting(no_cyclic_gc):
    x = rand_tensor((2, 1, 6, 6), seed=39)
    k = rand_tensor((2, 1, 3, 3), seed=40, requires_grad=True)
    b = rand_tensor((2,), seed=41, requires_grad=True)

    def step():
        with Tape() as tape:
            loss = sum_all(relu(conv2d(x, k, b, padding=1)))
        tape.backward(loss)
        return weakref.ref(tape)

    assert step()() is None


def test_forward_frees_what_no_backward_reads(no_cyclic_gc):
    x = rand_tensor((2, 1, 6, 6), seed=42)
    k = rand_tensor((2, 1, 3, 3), seed=43, requires_grad=True)
    b = rand_tensor((2,), seed=44, requires_grad=True)
    pre_activation = []

    def forward():
        pre = conv2d(x, k, b, padding=1)
        pre_activation.append(weakref.ref(pre.data))
        return sum_all(relu(pre))

    with Tape() as tape:
        loss = forward()
        # relu's backward reads only its mask, conv2d's its padded input
        assert pre_activation[0]() is None
    assert set(tape.backward(loss)) == {k, b}


def test_backward_releases_each_node_after_it_runs(monkeypatch, no_cyclic_gc):
    import chestkit.tensor as tensor_module

    x = rand_tensor((2, 1, 6, 6), seed=45, requires_grad=True)
    k = rand_tensor((2, 1, 3, 3), seed=46, requires_grad=True)
    b = rand_tensor((2,), seed=47, requires_grad=True)
    record = tensor_module._record
    padded = []      # weak references to the padded input conv2d's closure saved
    # its channel-major buffer: [C_in, B*Hp*Wp + (kH-1)*Wp + kW-1]
    padded_shape = (1, 2 * 8 * 8 + 2 * 8 + 2)
    seen_by_first_node = []

    def spy(out, parents, backward_fn):
        for cell in backward_fn.__closure__ or ():
            if getattr(cell.cell_contents, "shape", None) == padded_shape:
                padded.append(weakref.ref(cell.cell_contents))
        return record(out, parents, backward_fn)

    def first_backward(g):
        # the first node recorded runs last, after the conv's node
        seen_by_first_node.append(padded[0]())
        return (g,)

    monkeypatch.setattr(tensor_module, "_record", spy)
    with Tape() as tape:
        xin = apply_op(x.data.copy(), (x,), first_backward)
        loss = sum_all(relu(conv2d(xin, k, b, padding=1)))
    assert len(padded) == 1 and padded[0]() is not None
    grads = tape.backward(loss)
    assert seen_by_first_node == [None]
    assert padded[0]() is None
    assert len(tape) == 4
    assert set(grads) == {x, k, b}


def test_gradients_hold_when_a_freed_intermediate_id_comes_back():
    # each step drops its intermediates, then makes a new leaf that requires
    # grad; CPython gives the leaf a freed intermediate's memory, and so its
    # id, which a tape buffering gradients by id() would mix up
    x = rand_tensor((4,), seed=48, requires_grad=True)
    weights = Tensor(1.0 + rand_tensor((8, 4), seed=49, scale=0.1).data)
    steps = weights.shape[0]

    def forward(leaves=None, dropped_ids=None):
        h = x
        for i in range(steps):
            t = sigmoid(mul(h, h))
            h = add(h, t)
            if dropped_ids is not None:
                dropped_ids.add(id(t))
            del t
            w = Tensor(weights.data[i], requires_grad=True)
            if leaves is not None:
                leaves.append(w)
            h = mul(h, w)
        return sum_all(h)

    leaves, dropped_ids = [], set()
    with Tape() as tape:
        loss = forward(leaves, dropped_ids)
    grads = tape.backward(loss)
    # leaves stay alive, so a shared id means the leaf took a freed one
    assert dropped_ids & {id(w) for w in leaves}

    def value():
        return forward().item()

    assert rel_error(grads[x], numeric_grad(value, x)) < 1e-5
    assert rel_error(np.stack([grads[w] for w in leaves]),
                     numeric_grad(value, weights)) < 1e-5


def test_backward_from_a_leaf_or_foreign_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    leaf = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        sum_all(mul(x, x))
    grads = tape.backward(leaf)
    assert list(grads) == [leaf] and np.array_equal(grads[leaf], [1.0])
    assert len(tape) == 2
    # the returned map is the one holder of a gradient
    held = weakref.ref(grads[leaf])
    del grads
    assert held() is None

    # a loss recorded on an earlier tape, or on none, is not this tape's
    with Tape():
        earlier = sum_all(mul(x, x))
    unrecorded = sum_all(mul(x, x))
    for loss in (earlier, unrecorded):
        with Tape() as tape:
            sum_all(mul(x, x))
        assert tape.backward(loss) == {}


# ---------------------------------------------------------------------------
# he_init and determinism


def test_he_init_deterministic_per_seed():
    a = he_init((4, 3, 3, 3), fan_in=27, seed=99)
    b = he_init((4, 3, 3, 3), fan_in=27, seed=99)
    assert np.array_equal(a.data, b.data)
    c = he_init((4, 3, 3, 3), fan_in=27, seed=100)
    assert not np.array_equal(a.data, c.data)


def test_he_init_variance_tracks_fan_in():
    t = he_init((100000,), fan_in=50, seed=7)
    var = t.data.var()
    assert 0.9 * 0.04 < var < 1.1 * 0.04


def test_he_init_std_ratio_between_fan_ins():
    narrow = he_init((100000,), fan_in=2, seed=8)
    wide = he_init((100000,), fan_in=200, seed=8)
    ratio = narrow.data.std() / wide.data.std()
    assert abs(ratio - 10.0) < 0.5


def test_he_init_rejects_bad_fan_in():
    with pytest.raises(ValueError):
        he_init((3,), fan_in=0, seed=1)


def test_ops_are_pure():
    x = rand_tensor((1, 2, 4, 4), seed=40)
    k = rand_tensor((3, 2, 3, 3), seed=41)
    b = rand_tensor((3,), seed=42)
    first = conv2d(x, k, b, padding=1).data
    second = conv2d(x, k, b, padding=1).data
    assert np.array_equal(first, second)
    assert np.array_equal(relu(x).data, relu(x).data)


def test_scalar_tensor_has_shape_one():
    assert Tensor(3.0).shape == (1,)
    assert Tensor(np.float64(2.0)).shape == (1,)


# ---------------------------------------------------------------------------
# blanket finite-difference sweep over every differentiable op


def _fd_cases():
    zero3 = Tensor(np.zeros(3))
    return {
        "conv2d": (
            lambda ts: conv2d(ts[0], ts[1], ts[2], padding=1),
            [(1, 2, 5, 5), (3, 2, 3, 3), (3,)],
        ),
        "max_pool2d": (lambda ts: max_pool2d(ts[0]), [(1, 2, 4, 4)]),
        "relu_shifted": (lambda ts: relu(add(ts[0], Tensor(np.full((3, 3), 0.05)))), [(3, 3)]),
        "sigmoid": (lambda ts: sigmoid(ts[0]), [(7,)]),
        "softmax": (lambda ts: mul(softmax(ts[0]), Tensor(np.arange(1.0, 6.0)[None])),
                    [(1, 5)]),
        "global_avg_pool": (lambda ts: global_avg_pool(ts[0]), [(1, 3, 4, 4)]),
        "upsample2x": (
            lambda ts: mul(upsample2x(ts[0]), Tensor(np.arange(16.0).reshape(1, 1, 4, 4))),
            [(1, 1, 2, 2)],
        ),
        "upsample_conv2d": (
            lambda ts: mul(conv2d(ts[0], ts[1], ts[2], padding=1, upsample=True),
                           Tensor(np.arange(108.0).reshape(1, 3, 6, 6))),
            [(1, 2, 3, 3), (3, 2, 3, 3), (3,)],
        ),
        "concat_channels": (
            lambda ts: mul(concat_channels([ts[0], ts[1]]),
                           Tensor(np.arange(12.0).reshape(1, 3, 2, 2))),
            [(1, 1, 2, 2), (1, 2, 2, 2)],
        ),
        "add": (lambda ts: add(ts[0], ts[1]), [(6,), (6,)]),
        "mul": (lambda ts: mul(ts[0], ts[1]), [(6,), (6,)]),
        "dense": (lambda ts: dense(ts[0], ts[1], ts[2]), [(2, 4), (4, 3), (3,)]),
    }


@pytest.mark.parametrize("name", sorted(_fd_cases()))
def test_finite_difference_sweep(name):
    build, shapes = _fd_cases()[name]
    for trial in range(20):
        tensors = [rand_tensor(s, seed=1000 + 31 * trial + j, requires_grad=True)
                   for j, s in enumerate(shapes)]
        with Tape() as tape:
            loss = sum_all(build(tensors))
        grads = tape.backward(loss)

        def forward():
            return build(tensors).data.sum()

        for t in tensors:
            assert rel_error(grads[t], numeric_grad(forward, t)) < 1e-3, (
                f"{name} trial {trial} gradient mismatch")
