import numpy as np
import pytest

from chestkit.metrics import (
    MetricsReport,
    accuracy,
    confusion_matrix,
    dice,
    evaluate_classifier,
    evaluate_segmenter,
    iou,
    metrics_to_text,
    precision_recall_f1,
    roc_auc,
)
from chestkit.rng import DetRng
from chestkit.tensor import Tensor
from chestkit.training import LabeledDataset

from oracles import metrics_from_text


def random_mask(seed, h=16, w=16, density=0.5):
    return DetRng(seed).random(h * w).reshape(h, w) < density


def auc_pairwise(scores, labels):
    """O(P*N) oracle: P(pos > neg) + half credit for ties."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# confusion-matrix scores


def test_accuracy_diagonal_only():
    assert accuracy(np.diag([3, 4, 5])) == 1.0


def test_accuracy_three_quarters():
    assert accuracy(np.array([[3, 1], [1, 3]])) == 0.75


def test_accuracy_all_off_diagonal():
    assert accuracy(np.array([[0, 2], [2, 0]])) == 0.0


def test_accuracy_rejects_empty_matrix():
    with pytest.raises(ValueError):
        accuracy(np.zeros((2, 2), dtype=int))


def test_accuracy_invariant_under_simultaneous_permutation():
    rng = DetRng(1)
    cm = rng.integers(9, 20).reshape(3, 3)
    perm = [2, 0, 1]
    permuted = cm[np.ix_(perm, perm)]
    assert accuracy(cm) == accuracy(permuted)


def test_confusion_matrix_builder():
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    assert np.array_equal(cm, [[1, 1], [0, 2]])
    with pytest.raises(ValueError):
        confusion_matrix([0, 2], [0, 0], 2)


def test_precision_recall_f1_perfect():
    prf = precision_recall_f1(np.diag([5, 5]), 1)
    assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)
    assert not prf.degenerate


def test_precision_recall_f1_worked_example():
    # positive class 1: TP=2, FP=2, FN=0
    cm = np.array([[4, 2], [0, 2]])
    prf = precision_recall_f1(cm, 1)
    assert prf.precision == 0.5
    assert prf.recall == 1.0
    assert abs(prf.f1 - 2.0 / 3.0) < 1e-12


def test_precision_recall_f1_degenerate_flagged():
    cm = np.array([[0, 0], [3, 0]])   # TP=0 with FN>0
    prf = precision_recall_f1(cm, 1)
    assert prf == (0.0, 0.0, 0.0, True)
    cm2 = np.array([[2, 3], [0, 0]])  # TP=0 with FP>0
    assert precision_recall_f1(cm2, 1).degenerate


def test_precision_recall_f1_rejects_bad_class():
    with pytest.raises(ValueError):
        precision_recall_f1(np.diag([1, 1]), 5)


# ---------------------------------------------------------------------------
# mask overlap


def test_iou_identical_nonempty():
    m = random_mask(2)
    assert iou(m, m) == 1.0


def test_iou_disjoint_nonempty():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0, 0] = True
    b[3, 3] = True
    assert iou(a, b) == 0.0


def test_iou_counting_example():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a.reshape(-1)[:4] = True
    b.reshape(-1)[2:6] = True
    assert abs(iou(a, b) - 2.0 / 6.0) < 1e-12


def test_iou_dice_empty_masks_are_perfect():
    empty = np.zeros((3, 3), dtype=bool)
    assert iou(empty, empty) == 1.0
    assert dice(empty, empty) == 1.0


def test_dice_counting_example():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a.reshape(-1)[:4] = True
    b.reshape(-1)[2:6] = True
    assert dice(a, b) == 0.5


def test_dice_equals_algebraic_identity_on_random_pairs():
    for seed in range(50):
        a = random_mask(seed)
        b = random_mask(seed + 1000)
        i = iou(a, b)
        assert abs(dice(a, b) - 2.0 * i / (1.0 + i)) < 1e-12


def test_iou_below_dice_with_equality_at_extremes():
    for seed in range(50):
        a = random_mask(seed + 2000)
        b = random_mask(seed + 3000)
        i, d = iou(a, b), dice(a, b)
        assert i <= d + 1e-15
        if i not in (0.0, 1.0):
            assert i < d


def test_mask_metrics_reject_shape_mismatch():
    with pytest.raises(ValueError):
        iou(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        dice(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


# ---------------------------------------------------------------------------
# ROC / AUC


def test_roc_auc_perfect_separation():
    _, auc = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert auc == 1.0


def test_roc_auc_all_ties_is_half():
    _, auc = roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert auc == 0.5


def test_roc_auc_worked_example():
    _, auc = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert abs(auc - 0.75) < 1e-12


def test_roc_auc_rejects_single_class():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2], [1, 1])


def test_roc_curve_endpoints():
    points, _ = roc_auc([0.3, 0.7, 0.5], [0, 1, 1])
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)


def test_roc_auc_matches_pairwise_oracle_with_ties():
    for seed in range(100):
        rng = DetRng(seed + 4000)
        n = int(rng.integers(1, 30)[0]) + 10
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n) * 10.0) / 10.0
        labels = (rng.random(n) > 0.5).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        _, auc = roc_auc(scores, labels.tolist())
        assert abs(auc - auc_pairwise(scores, labels)) < 1e-12, seed


def test_roc_auc_invariant_under_sample_permutation():
    rng = DetRng(5)
    scores = rng.random(40)
    labels = (rng.random(40) > 0.4).astype(int).tolist()
    _, base = roc_auc(scores, labels)
    order = DetRng(6).permutation(40)
    _, shuffled = roc_auc(scores[order], [labels[i] for i in order])
    assert base == shuffled


# ---------------------------------------------------------------------------
# dataset-level evaluation


class MeanBrightnessClassifier:
    """Scores class 1 by the mean of the normalized image."""

    def forward(self, batch: Tensor) -> Tensor:
        p1 = batch.data.mean(axis=(1, 2, 3))
        return Tensor(np.stack([1.0 - p1, p1], axis=1))


class ConstantClassifier:
    def forward(self, batch: Tensor) -> Tensor:
        out = np.zeros((batch.shape[0], 2))
        out[:, 0] = 1.0
        return Tensor(out)


def brightness_dataset(n, seed):
    images, labels = [], []
    rng = DetRng(seed)
    for i in range(n):
        label = i % 2
        if label:
            img = np.full((8, 8), 200, dtype=np.uint8)
            img[0, 0] = 0       # keep normalization non-degenerate
        else:
            img = np.zeros((8, 8), dtype=np.uint8)
            img[0, 0] = 200
        images.append(img)
        labels.append(label)
    return LabeledDataset(images=images, labels=labels)


def test_evaluate_classifier_oracle_scores_ones():
    ds = brightness_dataset(10, seed=7)
    report = evaluate_classifier(MeanBrightnessClassifier(), ds)
    assert report.accuracy == 1.0
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.f1 == 1.0
    assert report.auc == 1.0


def test_evaluate_classifier_constant_model_on_balanced_set():
    ds = brightness_dataset(12, seed=8)
    report = evaluate_classifier(ConstantClassifier(), ds)
    assert report.accuracy == 0.5
    assert report.degenerate          # no true positives for class 1
    assert report.auc == 0.5          # all scores tie


def test_evaluate_classifier_matches_per_sample_composition():
    ds = brightness_dataset(5 * 2, seed=9)
    model = MeanBrightnessClassifier()
    report = evaluate_classifier(model, ds)

    from chestkit.training import minmax_normalize

    preds, scores = [], []
    for img in ds.images:
        probs = model.forward(Tensor(minmax_normalize(img)[None][None])).data[0]
        preds.append(int(probs.argmax()))
        scores.append(probs[1])
    cm = confusion_matrix(ds.labels, preds, 2)
    assert report.accuracy == accuracy(cm)
    _, auc = roc_auc(scores, ds.labels)
    assert report.auc == auc


def test_evaluate_classifier_order_invariant():
    ds = brightness_dataset(16, seed=10)
    order = DetRng(11).permutation(16)
    shuffled = ds.subset(order.tolist())
    a = evaluate_classifier(MeanBrightnessClassifier(), ds)
    b = evaluate_classifier(MeanBrightnessClassifier(), shuffled)
    assert a == b


def test_evaluate_segmenter_oracle_scores_ones():
    masks = [random_mask(seed + 5000, 16, 16, 0.4) for seed in range(4)]
    rng = DetRng(12)
    images = []
    for m in masks:
        img = (rng.random(256).reshape(16, 16) * 100).astype(np.uint8) + 50
        images.append(img)
    ds = LabeledDataset(images=images, masks=masks)

    class PerfectSegmenter:
        def __init__(self):
            self.calls = 0

        def forward(self, batch):
            idx = self.calls
            self.calls += batch.shape[0]
            return Tensor(np.stack([masks[idx + i][None].astype(float)
                                    for i in range(batch.shape[0])]))

    report = evaluate_segmenter(PerfectSegmenter(), ds, batch_size=2)
    assert report.accuracy == 1.0
    assert report.f1 == 1.0
    assert report.iou == 1.0
    assert report.dice == 1.0


def test_evaluate_segmenter_against_manual_pixel_counts():
    truth = np.zeros((8, 8), dtype=bool)
    truth[2:6, 2:6] = True            # 16 true pixels
    pred = np.zeros((8, 8), dtype=bool)
    pred[2:6, 2:4] = True             # half of them

    class FixedSegmenter:
        def forward(self, batch):
            return Tensor(np.broadcast_to(pred[None, None].astype(float),
                                          (batch.shape[0], 1, 8, 8)).copy())

    img = np.zeros((8, 8), dtype=np.uint8)
    img[0, 0] = 255
    ds = LabeledDataset(images=[img], masks=[truth])
    report = evaluate_segmenter(FixedSegmenter(), ds)
    assert report.accuracy == (64 - 8) / 64
    assert abs(report.f1 - 2 * 8 / (2 * 8 + 0 + 8)) < 1e-12
    assert abs(report.iou - 8 / 16) < 1e-12
    assert abs(report.dice - 2 * 8 / 24) < 1e-12


@pytest.mark.parametrize("threshold", [np.nan, np.inf])
def test_evaluate_segmenter_rejects_a_threshold_that_is_not_finite(threshold):
    # a NaN threshold would mark nothing and score every mask 0
    class HalfSegmenter:
        def forward(self, batch):
            return Tensor(np.full((batch.shape[0], 1, 4, 4), 0.5))

    ds = LabeledDataset(images=[np.zeros((4, 4), dtype=np.uint8)],
                        masks=[np.ones((4, 4), dtype=bool)])
    with pytest.raises(ValueError, match="threshold must be finite"):
        evaluate_segmenter(HalfSegmenter(), ds, threshold=threshold)


# ---------------------------------------------------------------------------
# serialization


def test_metrics_text_four_decimals():
    report = MetricsReport(accuracy=0.9452, f1=0.9466, iou=0.865, dice=0.8846)
    text = metrics_to_text(report)
    assert "accuracy=0.9452" in text
    assert "f1=0.9466" in text
    assert "iou=0.8650" in text
    assert "dice=0.8846" in text
    assert "auc" not in text


def test_metrics_text_roundtrip():
    report = MetricsReport(accuracy=1.0, precision=0.5, recall=0.25,
                           f1=1 / 3, auc=0.75)
    parsed = metrics_from_text(metrics_to_text(report))
    assert parsed.accuracy == 1.0
    assert parsed.precision == 0.5
    assert abs(parsed.f1 - 0.3333) < 1e-9
    assert parsed.iou is None
