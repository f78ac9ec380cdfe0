"""Acceptance gate: one test per acceptance criterion, at the stated
tolerance, printing one PASS line each (run with ``pytest -s`` to see
them).  Module-level property tests throughout the rest of the suite back
the final determinism criterion; this file re-runs its load-bearing
parts directly.
"""

import time

import numpy as np
import pytest

from chestkit.metrics import evaluate_classifier, evaluate_segmenter, roc_auc
from chestkit.models import (
    ModelConfig,
    build_model,
    load_weights,
    save_weights,
)
from chestkit.postproc import (
    OracleSegmenter,
    adaptive_threshold,
    dilate,
    erode,
    close_mask,
    infection_percentage,
    open_mask,
    run_pipeline,
)
from chestkit.rng import DetRng, derive_seed
from chestkit.synthdata import (
    SynthSpec,
    gen_classification_set,
    gen_infection_set,
    gen_segmentation_set,
)
from chestkit.tensor import Tape, Tensor, sum_all
from chestkit.training import (
    LabeledDataset,
    TrainConfig,
    cross_entropy_loss,
    dice_loss,
    get_preset,
    lr_schedule,
    split_dataset,
    train,
    transfer_init,
)

from conftest import numeric_grad, rel_error
from test_metrics import auc_pairwise
from test_postproc import (
    adaptive_brute,
    close_brute,
    dilate_brute,
    erode_brute,
    open_brute,
    random_mask,
)
from test_tensor import _fd_cases, rand_tensor

DESK_CLS = ModelConfig("irrcnn", (1, 32, 32), width_scale=0.125, num_classes=2)
DESK_SEG = ModelConfig("nabla3", (1, 32, 32), width_scale=0.125)


def mask_with_count(count, shape=(100, 100)):
    out = np.zeros(shape, dtype=bool)
    out.reshape(-1)[:count] = True
    return out


# ---------------------------------------------------------------------------
# 1. quantification fidelity


def test_acceptance_quantification_fidelity():
    cases = [(6696, 2245, "33.52"), (9601, 3609, "37.58"), (5184, 1599, "30.84")]
    for lung_n, infected_n, expected in cases:
        lung = mask_with_count(lung_n)
        infected = mask_with_count(infected_n)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            report = infection_percentage(lung, infected)
            best = min(best, time.perf_counter() - start)
        assert report.percent_text == expected
        assert report.percent == float(expected)
        assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    print("ACCEPTANCE quantification fidelity: PASS")


# ---------------------------------------------------------------------------
# 2. schedule fidelity


def test_acceptance_schedule_fidelity():
    cfg = get_preset("xray-det").train
    assert lr_schedule(cfg, 0) == 1e-3
    assert lr_schedule(cfg, 25) == 1e-4
    assert lr_schedule(cfg, 50) == 1e-5
    print("ACCEPTANCE schedule fidelity: PASS")


# ---------------------------------------------------------------------------
# 3. gradient correctness


def _probe_model_gradients(model, loss_fn, n_probes, seed, h=1e-5, tol=1e-3):
    with Tape() as tape:
        loss = loss_fn()
    grads = tape.backward(loss)
    named = sorted(model.params.items())
    rng = DetRng(seed)
    checked = 0
    while checked < n_probes:
        name, param = named[int(rng.integers(1, len(named))[0])]
        flat = param.data.reshape(-1)
        idx = int(rng.integers(1, flat.size)[0])
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_fn().item()
        flat[idx] = orig - h
        down = loss_fn().item()
        flat[idx] = orig
        fd = (up - down) / (2.0 * h)
        auto = grads[param].reshape(-1)[idx]
        scale = max(abs(fd), abs(auto), 1e-6)
        assert abs(fd - auto) / scale < tol, (
            f"{name}[{idx}]: autodiff {auto:.6e} vs fd {fd:.6e}")
        checked += 1


def test_acceptance_gradient_correctness():
    start = time.monotonic()

    # every differentiable op, 20 random probes each
    for name, (build, shapes) in sorted(_fd_cases().items()):
        for trial in range(20):
            tensors = [rand_tensor(s, seed=derive_seed(11, trial, j),
                                   requires_grad=True)
                       for j, s in enumerate(shapes)]
            with Tape() as tape:
                loss = sum_all(build(tensors))
            grads = tape.backward(loss)

            def forward():
                return build(tensors).data.sum()

            for t in tensors:
                assert rel_error(grads[t], numeric_grad(forward, t)) < 1e-3, (
                    f"{name} trial {trial}")

    # end-to-end: two stacked classifier units through the softmax loss
    from chestkit.models import IRRU, ParamStore, init_layer
    from chestkit.tensor import dense, global_avg_pool, max_pool2d, softmax

    store = ParamStore()
    unit1 = IRRU(store, "u1", 1, 4, steps=2, seed=21)
    unit2 = IRRU(store, "u2", 4, 8, steps=2, seed=22)
    fc_w, fc_b = init_layer(store, "fc", (8, 2), 23)
    x_cls = Tensor(DetRng(24).random(2 * 1 * 8 * 8).reshape(2, 1, 8, 8))

    class TwoUnitModel:
        params = store

    def cls_loss():
        h = max_pool2d(unit1.forward(x_cls))
        h = max_pool2d(unit2.forward(h))
        probs = softmax(dense(global_avg_pool(h), fc_w, fc_b))
        return cross_entropy_loss(probs, [0, 1])

    _probe_model_gradients(TwoUnitModel(), cls_loss, n_probes=20, seed=25)

    # end-to-end: eighth-width segmenter on 32x32 through the Dice loss
    seg = build_model(DESK_SEG, seed=26)
    x_seg = Tensor(DetRng(27).random(1 * 1 * 32 * 32).reshape(1, 1, 32, 32))
    target = Tensor((DetRng(28).random(32 * 32).reshape(1, 1, 32, 32) > 0.6)
                    .astype(float))

    def seg_loss():
        return dice_loss(seg.forward(x_seg), target)

    _probe_model_gradients(seg, seg_loss, n_probes=20, seed=29)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE gradient correctness: PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. oracle equivalence


def test_acceptance_oracle_equivalence():
    box = np.ones((3, 3), dtype=bool)
    for seed in range(100):
        mask = random_mask(derive_seed(31, seed), 16, 16)
        assert np.array_equal(erode(mask), erode_brute(mask, box))
        assert np.array_equal(dilate(mask), dilate_brute(mask, box))
        assert np.array_equal(open_mask(mask), open_brute(mask, box))
        assert np.array_equal(close_mask(mask), close_brute(mask, box))

    for seed in range(100):
        rng = DetRng(derive_seed(32, seed))
        n = int(rng.integers(1, 40)[0]) + 8
        scores = np.round(rng.random(n) * 8.0) / 8.0
        labels = (rng.random(n) > 0.5).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        _, auc = roc_auc(scores, labels.tolist())
        assert abs(auc - auc_pairwise(scores, labels)) < 1e-12

    for seed in range(20):
        rng = DetRng(derive_seed(33, seed))
        img = (rng.random(20 * 20).reshape(20, 20) * 255).astype(np.uint8)
        roi = random_mask(derive_seed(34, seed), 20, 20, density=0.75)
        got = adaptive_threshold(img, roi, window=15, offset=5.0)
        assert np.array_equal(got, adaptive_brute(img, roi, 15, 5.0))
    print("ACCEPTANCE oracle equivalence: PASS")


# ---------------------------------------------------------------------------
# 5. learning smoke


def test_acceptance_learning_smoke_classifier():
    start = time.monotonic()
    corpus = gen_classification_set(SynthSpec(count=400, size=32, seed=42))
    train_ds, test_ds = split_dataset(corpus, 0.8, seed=42)
    preset = get_preset("xray-det-desk", seed=7)
    assert preset.train.epochs <= 15
    model = build_model(preset.model, seed=7)
    train(model, train_ds, preset.train)
    report = evaluate_classifier(model, test_ds)
    elapsed = time.monotonic() - start
    assert report.accuracy >= 0.95, f"test accuracy {report.accuracy:.4f}"
    assert elapsed < 300.0, f"classifier smoke took {elapsed:.0f}s"
    print(f"ACCEPTANCE learning smoke (classifier): PASS "
          f"(acc {report.accuracy:.3f}, {elapsed:.0f}s)")


def test_acceptance_learning_smoke_segmenter():
    start = time.monotonic()
    corpus = gen_segmentation_set(SynthSpec(count=200, size=64, seed=43))
    train_ds, test_ds = split_dataset(corpus, 0.8, seed=43)
    preset = get_preset("seg-desk", seed=9)
    assert preset.train.epochs <= 20
    model = build_model(preset.model, seed=9)
    train(model, train_ds, preset.train)
    report = evaluate_segmenter(model, test_ds)
    elapsed = time.monotonic() - start
    assert report.dice >= 0.90, f"mean dice {report.dice:.4f}"
    assert elapsed < 600.0, f"segmenter smoke took {elapsed:.0f}s"
    print(f"ACCEPTANCE learning smoke (segmenter): PASS "
          f"(dice {report.dice:.3f}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 6. transfer benefit


def test_acceptance_transfer_benefit():
    task_a = gen_classification_set(SynthSpec(count=400, size=32, seed=100))
    donor = build_model(DESK_CLS, seed=50)
    train(donor, task_a, TrainConfig(base_lr=1e-3, batch_size=32, epochs=10, seed=50))

    task_b = gen_classification_set(SynthSpec(count=80, size=32, seed=200,
                                              blob_count=(1, 2),
                                              blob_amplitude=45.0))
    train_b, test_b = split_dataset(task_b, 0.8, seed=200)
    max_epochs = 15

    def epochs_to_90(model, seed):
        accs = []

        def hook(epoch, m):
            accs.append(evaluate_classifier(m, test_b).accuracy)

        train(model, train_b, TrainConfig(base_lr=1e-3, batch_size=16,
                                          epochs=max_epochs, seed=seed),
              on_epoch_end=hook)
        for i, acc in enumerate(accs):
            if acc >= 0.90:
                return i + 1
        return max_epochs + 1

    tl_epochs, rnd_epochs = [], []
    for seed in (1, 2, 3):
        tuned = build_model(DESK_CLS, seed=seed)
        transfer_init(tuned, donor.params, reinit_head=True, seed=seed)
        tl_epochs.append(epochs_to_90(tuned, seed))
        scratch = build_model(DESK_CLS, seed=seed)
        rnd_epochs.append(epochs_to_90(scratch, seed))

    mean_tl = float(np.mean(tl_epochs))
    mean_rnd = float(np.mean(rnd_epochs))
    assert mean_tl < mean_rnd, (
        f"transfer {tl_epochs} vs random {rnd_epochs}")
    print(f"ACCEPTANCE transfer benefit: PASS "
          f"(epochs to 90%: transfer {mean_tl:.2f} vs random {mean_rnd:.2f})")


# ---------------------------------------------------------------------------
# 7. pipeline ground truth


@pytest.fixture(scope="module")
def infection_eval_samples():
    return gen_infection_set(SynthSpec(count=50, size=64, seed=72))


def test_acceptance_pipeline_oracle_exact(infection_eval_samples):
    for sample in infection_eval_samples:
        result = run_pipeline(sample.image, OracleSegmenter(sample.lung_mask),
                              mode="lung")
        assert result.report == sample.report
        assert np.array_equal(result.infected_mask, sample.infected_mask)
    print("ACCEPTANCE pipeline ground truth (oracle segmenter): PASS")


def test_acceptance_pipeline_trained_segmenter(infection_eval_samples):
    train_samples = gen_infection_set(SynthSpec(count=100, size=64, seed=70))
    train_ds = LabeledDataset(images=[s.image for s in train_samples],
                              masks=[s.lung_mask for s in train_samples])
    model = build_model(ModelConfig("nabla3", (1, 64, 64), width_scale=0.125),
                         seed=71)
    train(model, train_ds, TrainConfig(base_lr=3e-4, batch_size=8, epochs=15,
                                       loss="dice", seed=71))
    within = 0
    for sample in infection_eval_samples:
        result = run_pipeline(sample.image, model, mode="lung")
        if abs(result.report.percent - sample.report.percent) <= 3.0:
            within += 1
    assert within >= 45, f"only {within}/50 within 3 percentage points"
    print(f"ACCEPTANCE pipeline ground truth (trained segmenter): PASS "
          f"({within}/50 within 3pp)")


# ---------------------------------------------------------------------------
# 8. determinism and persistence


def test_acceptance_determinism_and_persistence(tmp_path):
    corpus = gen_classification_set(SynthSpec(count=40, size=32, seed=55))
    blobs = []
    for run_idx in range(2):
        model = build_model(DESK_CLS, seed=56)
        store, _ = train(model, corpus,
                         TrainConfig(base_lr=1e-3, batch_size=8, epochs=2, seed=56))
        path = tmp_path / f"run{run_idx}.cmtw"
        save_weights(store, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]

    loaded = load_weights(tmp_path / "run0.cmtw")
    repath = tmp_path / "resaved.cmtw"
    save_weights(loaded, repath)
    assert repath.read_bytes() == blobs[0]
    print("ACCEPTANCE determinism and persistence: PASS "
          "(module property tests run with the full suite)")
