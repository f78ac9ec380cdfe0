import dataclasses
import hashlib
import io
import struct
import warnings

import numpy as np
import pytest

from chestkit import kvtext
from chestkit.models import (
    IRRU,
    ModelConfig,
    ParamStore,
    DuplicateNameError,
    WeightFormatError,
    WeightTruncatedError,
    WeightVersionError,
    assign_weights,
    build_model,
    load_weights,
    model_config_fields,
    recurrent_conv,
    param_count,
    save_weights,
)
from chestkit.postproc import OracleSegmenter
from chestkit.rng import DetRng
from chestkit.tensor import (
    ShapeError,
    Tape,
    Tensor,
    concat_channels,
    conv2d,
    dense,
    global_avg_pool,
    max_pool2d,
    relu,
    softmax,
    sum_all,
)
from chestkit.training import PRESETS, cross_entropy_loss, get_preset, transfer_init

from conftest import rel_error
from oracles import upsample2x


def rand_image(shape, seed):
    return Tensor(DetRng(seed).normal(int(np.prod(shape))).reshape(shape))


DESK_CLS = ModelConfig("irrcnn", (1, 32, 32), width_scale=0.125, num_classes=2)
DESK_SEG = ModelConfig("nabla3", (1, 32, 32), width_scale=0.125)


# ---------------------------------------------------------------------------
# recurrent convolution


def rand_branch(c_in, c_out, kernel, seed):
    """A random (fwd_w, fwd_b, rec_w, rec_b) for :func:`recurrent_conv`."""
    return (rand_image((c_out, c_in, kernel, kernel), seed),
            rand_image((c_out,), seed + 1),
            rand_image((c_out, c_out, kernel, kernel), seed + 2),
            rand_image((c_out,), seed + 3))


def test_recurrent_conv_zero_steps_is_plain_conv_relu():
    fwd_w, fwd_b, rec_w, rec_b = rand_branch(2, 3, 3, seed=5)
    x = rand_image((1, 2, 8, 8), seed=1)
    expected = relu(conv2d(x, fwd_w, fwd_b, padding=1))
    assert np.array_equal(recurrent_conv(x, fwd_w, fwd_b, rec_w, rec_b, 0).data,
                          expected.data)


def test_recurrent_conv_zero_recurrent_kernel_matches_zero_steps():
    fwd_w, fwd_b, rec_w, rec_b = rand_branch(1, 2, 3, seed=6)
    rec_w.data[:] = 0.0
    rec_b.data[:] = 0.0
    x = rand_image((1, 1, 6, 6), seed=2)
    expected = relu(conv2d(x, fwd_w, fwd_b, padding=1))
    assert np.array_equal(recurrent_conv(x, fwd_w, fwd_b, rec_w, rec_b, 1).data,
                          expected.data)


def test_recurrent_conv_function_rejects_channel_mismatch():
    x = rand_image((1, 2, 6, 6), seed=1)
    fwd_w = rand_image((3, 2, 3, 3), seed=2)
    fwd_b = Tensor(np.zeros(3))
    rec_w = rand_image((4, 4, 3, 3), seed=3)   # wrong: must be 3 -> 3
    rec_b = Tensor(np.zeros(4))
    with pytest.raises(ValueError):
        recurrent_conv(x, fwd_w, fwd_b, rec_w, rec_b, t=1)
    with pytest.raises(ValueError):
        recurrent_conv(x, fwd_w, fwd_b, rand_image((3, 3, 3, 3), seed=4),
                       Tensor(np.zeros(3)), t=-1)


def test_recurrent_conv_matches_scalar_unroll():
    branch = rand_branch(1, 1, 1, seed=7)
    x_val = 0.37
    wf, bf, wr, br = (float(t.data.flat[0]) for t in branch)
    f = wf * x_val + bf
    z = f
    for _ in range(2):
        z = max(0.0, f + wr * z + br)
    out = recurrent_conv(Tensor(np.array([[[[x_val]]]])), *branch, 2)
    assert abs(out.data[0, 0, 0, 0] - z) < 1e-12


# ---------------------------------------------------------------------------
# IRRU


def test_irru_preserves_shape_when_channels_match():
    unit = IRRU(ParamStore(), "irru", 8, 8, steps=2, seed=3)
    x = rand_image((1, 8, 16, 16), seed=4)
    assert unit.forward(x).shape == (1, 8, 16, 16)


@pytest.mark.parametrize("c_in,c_out,hw", [(1, 6, 8), (4, 4, 12), (3, 10, 16)])
def test_irru_preserves_spatial_dims(c_in, c_out, hw):
    unit = IRRU(ParamStore(), "irru", c_in, c_out, steps=2, seed=8)
    x = rand_image((1, c_in, hw, hw), seed=9)
    assert unit.forward(x).shape == (1, c_out, hw, hw)


def test_irru_dead_branches_leave_residual_projection():
    unit = IRRU(ParamStore(), "irru", 2, 6, steps=2, seed=10)
    for branch in unit.branches:
        for param in branch:
            param.data[:] = 0.0
    x = rand_image((1, 2, 8, 8), seed=11)
    expected = conv2d(x, *unit.proj)
    assert np.array_equal(unit.forward(x).data, expected.data)


def test_irru_channel_split_remainder_to_three_by_three():
    unit = IRRU(ParamStore(), "irru", 2, 7, steps=2, seed=12)
    by_kernel = {fwd_w.shape[2]: fwd_w.shape[0] for fwd_w, *_ in unit.branches}
    assert by_kernel == {1: 3, 3: 4}


def test_irru_infeasible_split_rejected():
    with pytest.raises(ValueError, match="cannot split 1 channels over 2 branches"):
        IRRU(ParamStore(), "irru", 2, 1, steps=2, seed=0)


def test_irru_gradient_reaches_every_branch_kernel():
    store = ParamStore()
    unit = IRRU(store, "irru", 2, 4, steps=2, seed=13)
    x = rand_image((1, 2, 8, 8), seed=14)
    with Tape() as tape:
        loss = sum_all(unit.forward(x))
    grads = tape.backward(loss)
    for name, t in store.items():
        if name.endswith("weight"):
            assert t in grads, name
            assert np.any(grads[t] != 0.0), name


# ---------------------------------------------------------------------------
# IRRCNN


def test_irrcnn_at_128_input_gives_probability_pair():
    cfg = ModelConfig("irrcnn", (1, 128, 128), width_scale=0.125, num_classes=2)
    model = build_model(cfg, seed=15)
    out = model.forward(rand_image((1, 1, 128, 128), seed=16))
    assert out.shape == (1, 2)
    assert abs(out.data.sum() - 1.0) < 1e-9
    assert np.all(out.data >= 0.0)


def test_irrcnn_batched_rows_are_probabilities():
    model = build_model(DESK_CLS, seed=17)
    out = model.forward(rand_image((4, 1, 32, 32), seed=18))
    assert out.shape == (4, 2)
    assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-9


def test_irrcnn_desk_config_builds_and_runs():
    model = build_model(DESK_CLS, seed=19)
    out = model.forward(rand_image((1, 1, 32, 32), seed=20))
    assert out.shape == (1, 2)


def test_irrcnn_rejects_indivisible_input():
    with pytest.raises(ValueError):
        build_model(ModelConfig("irrcnn", (1, 48, 48), num_classes=2))


def test_irrcnn_batch_of_one_matches_row_of_batch_bitwise():
    model = build_model(DESK_CLS, seed=21)
    batch = rand_image((4, 1, 32, 32), seed=22)
    full = model.forward(batch).data
    for i in range(4):
        row = model.forward(Tensor(batch.data[i:i + 1])).data
        assert np.array_equal(full[i], row[0])


def test_irrcnn_eval_mode_allocates_no_tape():
    model = build_model(DESK_CLS, seed=23)
    out = model.forward(rand_image((1, 1, 32, 32), seed=24))
    assert out._tape is None


def test_irrcnn_forward_is_pure():
    model = build_model(DESK_CLS, seed=25)
    x = rand_image((1, 1, 32, 32), seed=26)
    assert np.array_equal(model.forward(x).data, model.forward(x).data)


def test_irrcnn_rejects_wrong_batch_shape():
    model = build_model(DESK_CLS, seed=27)
    with pytest.raises(ShapeError, match=r"built for input \(1, 32, 32\), got \(1, 64, 64\)"):
        model.forward(rand_image((1, 1, 64, 64), seed=28))


# ---------------------------------------------------------------------------
# NABLA-3


def test_nabla3_xray_input_size():
    cfg = ModelConfig("nabla3", (1, 192, 192), width_scale=0.125)
    model = build_model(cfg, seed=29)
    out = model.forward(rand_image((1, 1, 192, 192), seed=30))
    assert out.shape == (1, 1, 192, 192)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_nabla3_ct_input_size():
    cfg = ModelConfig("nabla3", (1, 256, 256), width_scale=0.125)
    model = build_model(cfg, seed=31)
    out = model.forward(rand_image((1, 1, 256, 256), seed=32))
    assert out.shape == (1, 1, 256, 256)


def test_nabla3_desk_config():
    model = build_model(DESK_SEG, seed=33)
    out = model.forward(rand_image((1, 1, 32, 32), seed=34))
    assert out.shape == (1, 1, 32, 32)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_nabla3_seg_desk_batch_of_one_matches_row_of_batch_bitwise():
    model = build_model(get_preset("seg-desk").model, seed=36)
    batch = rand_image((4, 1, 64, 64), seed=37)
    full = model.forward(batch).data
    for i in range(4):
        assert np.array_equal(full[i], model.forward(Tensor(batch.data[i:i + 1])).data[0])


def test_nabla3_seg_desk_forward_records_one_node_a_conv():
    # 19 convs (18 with their relu fused), 5 pools, the concat and the
    # sigmoid; a relu split back out of its conv would add 18
    model = build_model(get_preset("seg-desk").model, seed=38)
    with Tape() as tape:
        model.forward(rand_image((2, 1, 64, 64), seed=39))
    assert len(tape) == 26


def test_nabla3_rejects_indivisible_input():
    with pytest.raises(ValueError):
        build_model(ModelConfig("nabla3", (1, 100, 100)))


@pytest.mark.parametrize("changes, match", [
    ({"input_shape": (3, 32, 32)}, "1 channel, got 3"),
    ({"width_scale": 1 / 3}, "more than 10 significant digits"),
    ({"recurrence_steps": -1}, "recurrence_steps must be >= 0"),
], ids=["three-channels", "width-scale-past-10-digits", "negative-recurrence-steps"])
def test_model_config_rejects_what_a_weight_file_cannot_rebuild(changes, match):
    # every corpus is grayscale, a v2 file writes width_scale with .10g,
    # and a recurrent convolution cannot refine a negative number of times
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(DESK_CLS, **changes)


UNBATCHED_IMAGE = Tensor(np.zeros((1, 32, 32)))   # [C,H,W]


@pytest.mark.parametrize("call, layout", [
    pytest.param(lambda: max_pool2d(UNBATCHED_IMAGE), "[B,C,H,W]", id="max_pool2d"),
    pytest.param(lambda: global_avg_pool(UNBATCHED_IMAGE), "[B,C,H,W]", id="global_avg_pool"),
    pytest.param(lambda: upsample2x(UNBATCHED_IMAGE), "[B,C,H,W]", id="upsample2x"),
    pytest.param(lambda: concat_channels([UNBATCHED_IMAGE, UNBATCHED_IMAGE]), "[B,C,H,W]",
                 id="concat_channels"),
    pytest.param(lambda: dense(Tensor(np.zeros(4)), Tensor(np.zeros((4, 3))),
                               Tensor(np.zeros(3))), "[B,F]", id="dense"),
    pytest.param(lambda: softmax(Tensor(np.zeros(3))), "[B,K]", id="softmax"),
    pytest.param(lambda: cross_entropy_loss(Tensor([0.25, 0.75]), [1]), "[B,K]",
                 id="cross_entropy_loss"),
    pytest.param(lambda: build_model(DESK_CLS).forward(UNBATCHED_IMAGE), "[B,C,H,W]",
                 id="irrcnn"),
    pytest.param(lambda: build_model(DESK_SEG).forward(UNBATCHED_IMAGE), "[B,C,H,W]",
                 id="nabla3"),
    pytest.param(lambda: OracleSegmenter(np.ones((32, 32), bool)).forward(UNBATCHED_IMAGE),
                 "[B,C,H,W]", id="oracle_segmenter"),
])
def test_unbatched_input_is_rejected_naming_the_layout(call, layout):
    with pytest.raises(ShapeError) as caught:
        call()
    assert f"expects {layout}, got" in str(caught.value)


def test_nabla3_decoder_layout():
    model = build_model(DESK_SEG, seed=35)
    starts = [s for s, _ in model.decoders]
    depths = [len(steps) for _, steps in model.decoders]
    assert starts == [6, 5, 4]
    assert depths == [5, 4, 3]


# ---------------------------------------------------------------------------
# parameter counting


def test_param_count_hand_counted_conv():
    store = ParamStore()
    store.add("conv.weight", Tensor(np.zeros((16, 3, 3, 3))))
    store.add("conv.bias", Tensor(np.zeros(16)))
    assert param_count(store) == 3 * 16 * 9 + 16


def test_param_count_empty_store():
    assert param_count(ParamStore()) == 0


def test_param_count_matches_brute_force_traversal():
    model = build_model(DESK_SEG, seed=36)
    brute = sum(int(np.prod(t.shape)) for _, t in model.params.items())
    assert param_count(model) == brute


def test_full_scale_reference_counts_reported():
    # informational: the reference designs are quoted at ~34M (classifier)
    # and 18.98M (segmenter); the wiring behind those totals is not public,
    # so we only report what this implementation yields
    cls = build_model(ModelConfig("irrcnn", (1, 128, 128), num_classes=2), seed=0)
    seg = build_model(ModelConfig("nabla3", (1, 192, 192)), seed=0)
    n_cls, n_seg = param_count(cls), param_count(seg)
    print(f"full-scale parameter counts: classifier {n_cls:,}, segmenter {n_seg:,}")
    assert n_cls > 1_000_000
    assert n_seg > 1_000_000


# ---------------------------------------------------------------------------
# weight persistence


def random_store(seed, n_tensors=5):
    rng = DetRng(seed)
    store = ParamStore()
    for i in range(n_tensors):
        shape = tuple(int(d) for d in rng.integers(2, 5) + 1)
        values = rng.normal(int(np.prod(shape))).astype(np.float32).astype(np.float64)
        store.add(f"t{i}.weight", Tensor(values.reshape(shape)))
    return store


def test_weight_roundtrip_bit_exact(tmp_path):
    store = random_store(seed=40)
    path = tmp_path / "w.cmtw"
    save_weights(store, path)
    loaded = load_weights(path)
    assert loaded.names() == store.names()
    for name, t in store.items():
        assert np.array_equal(loaded[name].data.astype(np.float32),
                              t.data.astype(np.float32))
        assert loaded[name].shape == t.shape
    # a second save of the loaded store is byte-identical
    buf1, buf2 = io.BytesIO(), io.BytesIO()
    save_weights(store, buf1)
    save_weights(loaded, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_weight_file_truncation_detected(tmp_path):
    store = random_store(seed=41)
    buf = io.BytesIO()
    save_weights(store, buf)
    clipped = buf.getvalue()[:-7]
    with pytest.raises(WeightTruncatedError):
        load_weights(io.BytesIO(clipped))


def test_weight_file_bad_magic_detected():
    with pytest.raises(WeightFormatError):
        load_weights(io.BytesIO(b"NOPE" + b"\x00" * 16))


def test_weight_file_bad_version_detected():
    buf = io.BytesIO()
    save_weights(random_store(seed=42, n_tensors=1), buf)
    raw = bytearray(buf.getvalue())
    raw[4:8] = struct.pack("<I", 9)
    with pytest.raises(WeightVersionError):
        load_weights(io.BytesIO(bytes(raw)))


def test_weight_file_duplicate_names_detected():
    buf = io.BytesIO()
    store = ParamStore()
    store.add("same", Tensor(np.zeros(2)))
    save_weights(store, buf)
    body = buf.getvalue()
    entry = body[12:]
    doubled = body[:8] + struct.pack("<I", 2) + entry + entry
    with pytest.raises(DuplicateNameError):
        load_weights(io.BytesIO(doubled))


def test_weight_file_zero_length_name_rejected():
    payload = b"CMTW" + struct.pack("<II", 1, 1) + struct.pack("<I", 0)
    with pytest.raises(WeightFormatError):
        load_weights(io.BytesIO(payload))


def one_tensor_file(name: bytes, dims: tuple[int, ...], values: bytes) -> bytes:
    """A CMTW file holding one tensor, written field by field."""
    return (b"CMTW" + struct.pack("<II", 1, 1) + struct.pack("<I", len(name)) + name
            + struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
            + values)


def with_config_text(blob: bytes, text: bytes) -> bytes:
    """A CMTW v2 file's tensor records behind another config text."""
    config_len = struct.unpack_from("<I", blob, 12)[0]
    return blob[:12] + struct.pack("<I", len(text)) + text + blob[16 + config_len:]


def test_weight_file_overflowing_dims_are_truncation():
    # 2**31 * 2**31 * 4 wraps to 0 in int64
    payload = one_tensor_file(b"w", (2 ** 31, 2 ** 31, 4), b"")
    with pytest.raises(WeightTruncatedError):
        load_weights(io.BytesIO(payload))


def test_weight_file_non_utf8_name_rejected():
    payload = one_tensor_file(b"\xff", (1,), struct.pack("<f", 1.0))
    with pytest.raises(WeightFormatError):
        load_weights(io.BytesIO(payload))


def test_weight_file_zero_size_dims_rejected():
    with pytest.raises(WeightFormatError):
        load_weights(io.BytesIO(one_tensor_file(b"w", (0,), b"")))
    with pytest.raises(WeightFormatError):
        load_weights(io.BytesIO(one_tensor_file(b"w", (3, 0), b"")))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_weight_file_non_finite_values_rejected(bad):
    payload = one_tensor_file(b"w", (2,), struct.pack("<2f", 1.0, bad))
    with pytest.raises(WeightFormatError):
        load_weights(io.BytesIO(payload))


def test_weight_file_signalling_nan_is_typed_without_warning():
    # a float32 signalling NaN warns "invalid value" when cast to float64
    config = kvtext.to_text(model_config_fields(DESK_CLS)).encode()
    record = one_tensor_file(b"w", (2,), struct.pack("<2I", 0x3F800000, 0x7FA00000))[12:]
    payload = b"CMTW" + struct.pack("<III", 2, 1, len(config)) + config + record
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WeightFormatError, match="NaN or Inf"):
            load_weights(io.BytesIO(payload))


def test_weight_file_writer_helper_loads_when_well_formed():
    payload = one_tensor_file(b"w", (2,), struct.pack("<2f", 1.0, -2.0))
    store = load_weights(io.BytesIO(payload))
    assert np.array_equal(store["w"].data, [1.0, -2.0])


def test_store_rejects_duplicate_and_empty_names():
    store = ParamStore()
    store.add("a", Tensor(np.zeros(1)))
    with pytest.raises(DuplicateNameError):
        store.add("a", Tensor(np.zeros(1)))
    with pytest.raises(ValueError):
        store.add("", Tensor(np.zeros(1)))


def test_assign_weights_roundtrip_preserves_forward(tmp_path):
    model = build_model(DESK_CLS, seed=43)
    x = rand_image((1, 1, 32, 32), seed=44)
    before = model.forward(x).data
    path = tmp_path / "m.cmtw"
    save_weights(model.params, path)
    clone = build_model(DESK_CLS, seed=999)
    assign_weights(clone, load_weights(path))
    after = clone.forward(x).data
    # float32 persistence: equal after one float32 round of the donor
    donor32 = build_model(DESK_CLS, seed=43)
    for name, t in donor32.params.items():
        t.data = t.data.astype(np.float32).astype(np.float64)
    assert np.array_equal(after, donor32.forward(x).data)
    assert rel_error(after, before) < 1e-6


def test_assign_weights_reports_shape_mismatch():
    model = build_model(DESK_CLS, seed=45)
    store = ParamStore()
    for name, t in model.params.items():
        store.add(name, Tensor(t.data.copy()))
    store._params["fc.weight"] = Tensor(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="fc.weight"):
        assign_weights(model, store)


def test_assign_weights_reports_missing_name():
    model = build_model(DESK_CLS, seed=46)
    store = ParamStore()
    with pytest.raises(KeyError):
        assign_weights(model, store)


def test_weight_file_carries_model_config(tmp_path):
    for cfg in (DESK_CLS, DESK_SEG):
        model = build_model(cfg, seed=47)
        path = tmp_path / f"{cfg.architecture}.cmtw"
        save_weights(model.params, path)
        assert path.read_bytes()[4:8] == struct.pack("<I", 2)
        store = load_weights(path)
        assert store.config == model.config
        rebuilt = build_model(store.config, seed=0)
        assign_weights(rebuilt, store)
        x = rand_image((1, *cfg.input_shape), seed=48)
        assert rebuilt.forward(x).shape == model.forward(x).shape


def test_initial_weights_digest():
    # every preset's fresh weights, and a desk model whose head transfer_init
    # re-drew: a change to any layer's shape, name, order, seed key or draw
    # moves this digest
    digest = hashlib.sha256()
    for name in sorted(PRESETS):
        config = PRESETS[name].model
        models = [build_model(config, seed=7)]
        if name.endswith("-desk"):
            models.append(build_model(config, seed=7))
            transfer_init(models[-1], build_model(config, seed=3).params, seed=11)
        for model in models:
            buf = io.BytesIO()
            save_weights(model.params, buf)
            digest.update(buf.getvalue())
    assert digest.hexdigest() == (
        "4dc87f63581725e79cb79ccb3ee55741678183f8296a74563df608ded77038eb")
