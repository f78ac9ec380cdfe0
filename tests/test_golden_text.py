"""Golden bytes of every ``key=value`` file chestkit writes, and the typed
error its readers raise on malformed text.

The round-trip and substring tests elsewhere would pass under a change of
field order, separator or number format; these pin the exact text.
"""

import re

import numpy as np
import pytest

from chestkit.cli import run
from chestkit.kvtext import TextFormatError
from chestkit.metrics import MetricsReport, metrics_from_text, metrics_to_text
from chestkit.models import build_model, save_weights
from chestkit.postproc import InfectionReport, report_from_text, report_to_text
from chestkit.synthdata import SynthSpec, load_infection_corpus, write_infection_corpus
from chestkit.training import (
    EpochRecord,
    get_preset,
    history_from_text,
    history_to_text,
    preset_to_text,
)

MANIFESTS = {
    "classification": (
        ["--count", "8", "--size", "32", "--imbalance", "1:3"],
        "kind=classification\ncount=8\nsize=32\nseed=4\nclass_ratio=1:3\n"
        "train_normal=2\ntrain_opacity=5\ntest_normal=0\ntest_opacity=1\n"),
    "segmentation": (
        ["--count", "2", "--size", "32"],
        "kind=segmentation\ncount=2\nsize=32\nseed=4\nclass_ratio=1:1\n"),
    "infection": (
        ["--count", "2", "--size", "64"],
        "kind=infection\ncount=2\nsize=64\nseed=4\nclass_ratio=1:1\n"),
}

XRAY_CONFIG = (
    "preset=xray-det-desk\narchitecture=irrcnn\ninput_shape=1x32x32\n"
    "width_scale=0.125\nnum_classes=2\nrecurrence_steps=2\nbase_lr=0.001\n"
    "batch_size=32\nepochs=0\nlr_decay_every=25\nlr_decay_factor=10\n"
    "loss=cross_entropy\nseed=7\n")


def gen(tmp_path, kind):
    flags, _ = MANIFESTS[kind]
    root = tmp_path / kind
    assert run(["gen-data", "--kind", kind, "--seed", "4", "--out", str(root), *flags]) == 0
    return root


@pytest.mark.parametrize("kind", sorted(MANIFESTS))
def test_manifest_bytes(tmp_path, kind):
    root = gen(tmp_path, kind)
    assert (root / "manifest.txt").read_bytes() == MANIFESTS[kind][1].encode()


def test_infection_corpus_report_bytes(tmp_path):
    root = gen(tmp_path, "infection")
    assert ((root / "reports" / "0000.txt").read_bytes()
            == b"lung_pixels=759\ninfected_pixels=13\npercent=1.71\ndegenerate=false\n")


def test_train_config_and_empty_history_bytes(tmp_path):
    data = gen(tmp_path, "classification")
    out = tmp_path / "run"
    assert run(["train", "--dataset", str(data), "--preset", "xray-det-desk",
                "--epochs", "0", "--seed", "7", "--out", str(out)]) == 0
    assert (out / "config.txt").read_bytes() == XRAY_CONFIG.encode()
    assert (out / "history.txt").read_bytes() == b"# epoch lr loss metric grad_norm clamped\n"


def test_segmenter_preset_text():
    assert preset_to_text(get_preset("seg", epochs=3, seed=7)) == (
        "preset=seg\narchitecture=nabla3\ninput_shape=1x256x256\nwidth_scale=1\n"
        "num_classes=-\nrecurrence_steps=2\nbase_lr=0.0003\nbatch_size=8\n"
        "epochs=3\nlr_decay_every=25\nlr_decay_factor=10\nloss=dice\nseed=7\n")


def test_history_text_bytes():
    history = [EpochRecord(0, 1e-3, 0.693147, 0.5, 1.25, 0.0),
               EpochRecord(1, 1e-4, 0.5, 0.75, None, None)]
    assert history_to_text(history) == (
        "# epoch lr loss metric grad_norm clamped\n"
        "epoch=0 lr=0.001 loss=0.693147 metric=0.500000 grad_norm=1.25 clamped=0.000000\n"
        "epoch=1 lr=0.0001 loss=0.500000 metric=0.750000 grad_norm=- clamped=-\n")


@pytest.mark.parametrize("report, text", [
    (MetricsReport(accuracy=0.875, precision=1.0, recall=0.75, f1=6 / 7, auc=0.9375),
     "accuracy=0.8750\nprecision=1.0000\nrecall=0.7500\nf1=0.8571\nauc=0.9375\n"),
    (MetricsReport(accuracy=0.5, precision=0.0, recall=0.0, f1=0.0, degenerate=True),
     "accuracy=0.5000\nprecision=0.0000\nrecall=0.0000\nf1=0.0000\ndegenerate=true\n"),
    (MetricsReport(accuracy=0.99, f1=0.5, iou=1 / 3, dice=0.5, degenerate=True),
     "accuracy=0.9900\nf1=0.5000\niou=0.3333\ndice=0.5000\ndegenerate=true\n"),
], ids=["classifier", "classifier-degenerate", "segmenter-degenerate"])
def test_metrics_text_bytes(report, text):
    assert metrics_to_text(report) == text


@pytest.mark.parametrize("report, text", [
    (InfectionReport(1234, 56, 4.53),
     "lung_pixels=1234\ninfected_pixels=56\npercent=4.53\ndegenerate=false\n"),
    (InfectionReport(0, 0, 0.0, degenerate=True),
     "lung_pixels=0\ninfected_pixels=0\npercent=0.00\ndegenerate=true\n"),
], ids=["plain", "degenerate"])
def test_report_text_bytes(report, text):
    assert report_to_text(report) == text


def test_pipeline_summary_and_report_bytes(tmp_path):
    # every weight zero and the head bias at +10: every pixel scores
    # sigmoid(10) > 0.5 whatever the BLAS, so the region is the whole image
    model = build_model(get_preset("seg-desk").model)
    for _, param in model.params.items():
        param.data = np.zeros_like(param.data)
    model.params["head.bias"].data = np.array([10.0])
    weights = tmp_path / "w.cmtw"
    save_weights(model.params, weights)
    images = gen(tmp_path, "infection") / "images"
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for name in ("0000.pgm", "0001.pgm"):
        (mixed / name).write_bytes((images / name).read_bytes())
    (mixed / "bad.pgm").write_bytes(b"P5\n9 9\n255\nshort")
    out = tmp_path / "pipe"
    assert run(["pipeline", "--weights", str(weights), "--dataset", str(mixed),
                "--out", str(out)]) == 0
    assert (out / "summary.txt").read_bytes() == (
        b"file=0000.pgm lung_pixels=4096 infected_pixels=1461 percent=35.66\n"
        b"file=0001.pgm lung_pixels=4096 infected_pixels=1408 percent=34.37\n"
        b"file=bad.pgm error=payload has 5 bytes, header promises 81\n"
        b"processed=2 failed=1 mean_percent=35.02\n")
    assert (out / "0000_report.txt").read_bytes() == (
        b"lung_pixels=4096\ninfected_pixels=1461\npercent=35.66\ndegenerate=false\n")


def corrupted_corpus_report(tmp_path, text):
    root = tmp_path / "corpus"
    write_infection_corpus(root, SynthSpec(count=1, size=64, seed=4))
    (root / "reports" / "0000.txt").write_text(text)
    return load_infection_corpus(root)


READERS = {
    "metrics": lambda tmp_path, text: metrics_from_text(text),
    "history": lambda tmp_path, text: history_from_text(text),
    "report": lambda tmp_path, text: report_from_text(text),
    "corpus": corrupted_corpus_report,
}


@pytest.mark.parametrize("reader, text, named", [
    ("metrics", "accuracy\n", "'accuracy'"),
    ("metrics", "accuracy=0.5\nbogus=1\n", "'bogus'"),
    ("metrics", "accuracy=0.5\naccuracy=0.6\n", "'accuracy=0.6'"),
    ("metrics", "=0.5\n", "'=0.5'"),
    ("metrics", "accuracy=high\n", "accuracy=high"),
    ("metrics", "accuracy=0.5\ndegenerate=maybe\n", "degenerate=maybe"),
    ("history", "epoch0\n", "'epoch0'"),
    ("history", "epoch=0 lr=1\n", "'loss'"),
    ("history", "epoch=0.5 lr=1 loss=1 metric=1\n", "epoch=0.5"),
    ("history", "epoch=0 lr=1 loss=1 metric=1 grad_norm=big\n", "grad_norm=big"),
    ("report", "lung_pixels=3\n", "'infected_pixels'"),
    ("report", "lung_pixels=3\ninfected_pixels=1\npercent=33.33\n", "'degenerate'"),
    ("corpus", "lung_pixels=759\ninfected_pixels=thirteen\npercent=1.71\ndegenerate=false\n",
     "infected_pixels=thirteen"),
], ids=["metrics-no-equals", "metrics-unknown-key", "metrics-repeated-key",
        "metrics-empty-key", "metrics-bad-number", "metrics-bad-flag",
        "history-no-equals", "history-missing-field", "history-bad-int",
        "history-bad-optional", "report-missing-field", "report-missing-flag",
        "corpus-report-bad-number"])
def test_malformed_text_raises_typed_error_naming_it(tmp_path, reader, text, named):
    with pytest.raises(TextFormatError, match=re.escape(named)):
        READERS[reader](tmp_path, text)
