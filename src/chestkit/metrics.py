"""Classification and segmentation scoring.

Confusion matrices are plain integer arrays with rows indexed by the true
class and columns by the prediction.  ROC/AUC follows the tie-aware
convention: the curve steps through thresholds at the distinct scores and
the trapezoidal area equals the probability that a random positive
outscores a random negative, ties counted half.

For mask pairs, a correct empty prediction scores 1.0 for both IoU and
Dice; reports flag the case rather than hiding it.  Segmentation
"accuracy" and "f1" are pixelwise over every evaluated pixel, while IoU
and Dice are averaged per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import kvtext
from .training import to_batch

SCORES = ("accuracy", "precision", "recall", "f1", "iou", "dice", "auc")


def confusion_matrix(true_labels: Sequence[int], pred_labels: Sequence[int],
                     num_classes: int) -> np.ndarray:
    if len(true_labels) != len(pred_labels):
        raise ValueError("label sequences differ in length")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(true_labels, pred_labels):
        if not (0 <= t < num_classes and 0 <= p < num_classes):
            raise ValueError(f"label pair ({t}, {p}) outside [0, {num_classes})")
        cm[t, p] += 1
    return cm


def accuracy(cm: np.ndarray) -> float:
    cm = np.asarray(cm)
    total = int(cm.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm)) / total


class PrecisionRecallF1(NamedTuple):
    precision: float
    recall: float
    f1: float
    degenerate: bool = False


def precision_recall_f1(cm: np.ndarray, positive_class: int) -> PrecisionRecallF1:
    """Scores for one class; zero denominators give 0.0 with the flag set."""
    cm = np.asarray(cm)
    k = cm.shape[0]
    if not 0 <= positive_class < k:
        raise ValueError(f"positive_class {positive_class} outside [0, {k})")
    tp = float(cm[positive_class, positive_class])
    fp = float(cm[:, positive_class].sum() - tp)
    fn = float(cm[positive_class, :].sum() - tp)
    if tp == 0.0:
        # every zero-denominator case has tp == 0 (at minimum the f1 one)
        return PrecisionRecallF1(0.0, 0.0, 0.0, degenerate=True)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    f1 = 2.0 * precision * recall / (precision + recall)
    return PrecisionRecallF1(precision, recall, f1)


def _mask_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"masks differ in shape: {a.shape} vs {b.shape}")
    return a, b


def iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union; two empty masks count as a perfect 1.0."""
    a, b = _mask_pair(a, b)
    union = int((a | b).sum())
    if union == 0:
        return 1.0
    return int((a & b).sum()) / union


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """2|A∩B| / (|A|+|B|); two empty masks count as a perfect 1.0."""
    a, b = _mask_pair(a, b)
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / total


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> tuple[list[tuple[float, float]], float]:
    """ROC points (FPR, TPR) and trapezoidal AUC with half-credit ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    if pos + neg != len(labels):
        raise ValueError("labels must be 0 or 1")
    if pos == 0 or neg == 0:
        raise ValueError("need at least one positive and one negative label")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]

    points = [(0.0, 0.0)]
    area_numerator = 0.0          # in units of TP * FP counts
    tp = fp = 0
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        group = sorted_labels[i:j]
        new_tp = tp + int((group == 1).sum())
        new_fp = fp + int((group == 0).sum())
        area_numerator += (new_fp - fp) * (tp + new_tp) / 2.0
        tp, fp = new_tp, new_fp
        points.append((fp / neg, tp / pos))
        i = j
    return points, area_numerator / (pos * neg)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    iou: float | None = None
    dice: float | None = None
    auc: float | None = None
    degenerate: bool = False

    def present(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in SCORES
                if getattr(self, name) is not None}


def metrics_to_text(report: MetricsReport) -> str:
    fields = {name: f"{value:.4f}" for name, value in report.present().items()}
    if report.degenerate:
        fields["degenerate"] = "true"
    return kvtext.to_text(fields)


def metrics_from_text(text: str) -> MetricsReport:
    """Raises :class:`kvtext.TextFormatError` on malformed text or an unknown key."""
    fields = kvtext.from_text(text)
    schema = {**dict.fromkeys(SCORES, float), "degenerate": kvtext.flag}
    unknown = [key for key in fields if key not in schema]
    if unknown:
        raise kvtext.TextFormatError(f"unknown metric {unknown[0]!r}")
    return MetricsReport(**kvtext.parse(fields, {key: schema[key] for key in fields}))


# ---------------------------------------------------------------------------
# whole-dataset evaluation


def _forward_batches(model, images, batch_size):
    return np.concatenate([model.forward(to_batch(images[start:start + batch_size])).data
                           for start in range(0, len(images), batch_size)], axis=0)


def evaluate_classifier(model, ds, positive_class: int = 1,
                        batch_size: int = 32) -> MetricsReport:
    """Accuracy, precision/recall/F1 for the positive class, and ROC-AUC."""
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    if ds.labels is None:
        raise ValueError("classifier evaluation needs class labels")
    probs = _forward_batches(model, ds.images, batch_size)
    preds = probs.argmax(axis=1)
    cm = confusion_matrix(ds.labels, preds.tolist(), ds.num_classes)
    prf = precision_recall_f1(cm, positive_class)
    scores = probs[:, positive_class]
    binary_labels = [1 if lab == positive_class else 0 for lab in ds.labels]
    try:
        _, auc = roc_auc(scores, binary_labels)
    except ValueError:
        auc = None
    return MetricsReport(accuracy=accuracy(cm), precision=prf.precision,
                         recall=prf.recall, f1=prf.f1, auc=auc,
                         degenerate=prf.degenerate)


def evaluate_segmenter(model, ds, threshold: float = 0.5,
                       batch_size: int = 8) -> MetricsReport:
    """Pixelwise accuracy and F1 plus per-sample mean IoU and Dice."""
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    if ds.masks is None:
        raise ValueError("segmenter evaluation needs masks")
    probs = _forward_batches(model, ds.images, batch_size)
    preds = probs[:, 0] > threshold
    tp = fp = fn = tn = 0
    ious = []
    dices = []
    degenerate = False
    for pred, truth in zip(preds, ds.masks):
        truth = truth.astype(bool)
        tp += int((pred & truth).sum())
        fp += int((pred & ~truth).sum())
        fn += int((~pred & truth).sum())
        tn += int((~pred & ~truth).sum())
        ious.append(iou(pred, truth))
        dices.append(dice(pred, truth))
        if not truth.any() and not pred.any():
            degenerate = True
    pixel_accuracy = (tp + tn) / (tp + tn + fp + fn)
    f1 = 2.0 * tp / (2.0 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    return MetricsReport(accuracy=pixel_accuracy, f1=f1,
                         iou=float(np.mean(ious)), dice=float(np.mean(dices)),
                         degenerate=degenerate)
