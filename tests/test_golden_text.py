"""Golden bytes of every ``key=value`` file chestkit writes, and the typed
error its readers raise on malformed text.

The round-trip and substring tests elsewhere would pass under a change of
field order, separator or number format; these pin the exact text.
"""

import hashlib
import re

import numpy as np
import pytest

from chestkit.cli import run
from chestkit.kvtext import TextFormatError, from_text, to_text
from chestkit.metrics import MetricsReport, metrics_to_text
from chestkit.imaging import save_image, save_mask
from chestkit.models import build_model, save_weights
from chestkit.postproc import (
    InfectionReport,
    OracleSegmenter,
    close_mask,
    open_mask,
    report_from_text,
    report_to_text,
    run_pipeline,
)
from chestkit.rng import DetRng
from chestkit.synthdata import (
    SynthSpec,
    gen_infection_set,
    load_infection_corpus,
    write_infection_corpus,
)
from chestkit.training import (
    EpochRecord,
    get_preset,
    history_to_text,
    preset_to_text,
)

from oracles import history_from_text, metrics_from_text

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


def test_pipeline_summary_and_report_bytes(tmp_path, capsys):
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
        b"file=bad.pgm error=PnmTruncatedError\n"
        b"processed=2 failed=1 mean_percent=35.02\n")
    for line in (out / "summary.txt").read_text().splitlines():
        from_text(line)
    assert "bad.pgm: payload has 5 bytes, header promises 81" in capsys.readouterr().err
    assert (out / "0000_report.txt").read_bytes() == (
        b"lung_pixels=4096\ninfected_pixels=1461\npercent=35.66\ndegenerate=false\n")


def test_postprocessing_chain_digest():
    # the infection corpus and the oracle-driven lung-mode chain over it, at a
    # desk and at the paper's size: any change to synthesis, morphology,
    # selection, thresholding or the heatmap moves this digest
    digest = hashlib.sha256()
    for spec in (SynthSpec(count=6, size=64, seed=5), SynthSpec(count=6, size=256, seed=6)):
        for sample in gen_infection_set(spec):
            result = run_pipeline(sample.image, OracleSegmenter(sample.lung_mask),
                                  mode="lung")
            for blob in (save_image(sample.image), save_mask(sample.lung_mask),
                         save_mask(sample.infected_mask),
                         report_to_text(sample.report).encode(),
                         save_mask(result.region_mask), save_mask(result.infected_mask),
                         save_image(result.heatmap)):
                digest.update(blob)
    assert digest.hexdigest() == (
        "7028b79e248e46411eef5c14e05f79d3fae7a16c1831fd032ae0df6650512dc9")


def speckled(mask, seed):
    """``mask`` with seeded 1-px holes inside it, 1-px specks outside it, and
    a disc on the left border that reaches the left lung."""
    h, w = mask.shape
    u = DetRng(seed).random(h * w).reshape(h, w)
    yy, xx = np.mgrid[0:h, 0:w]
    disc = (yy - h // 2) ** 2 + xx ** 2 < (h // 6) ** 2
    return (mask & (u >= 0.02)) | (~mask & (u < 0.002)) | disc


def test_postprocessing_chain_digest_with_refinement():
    # the lung masks above come out of closing and opening unchanged; these
    # oracle masks do not, so the digest covers what refinement, at the
    # border too, does to the regions kept in either mode at the paper's size
    digest = hashlib.sha256()
    for i, sample in enumerate(gen_infection_set(SynthSpec(count=3, size=256, seed=8))):
        mask = speckled(sample.lung_mask, 100 + i)
        assert not np.array_equal(open_mask(close_mask(mask)), mask)
        for mode in ("chest", "lung"):
            result = run_pipeline(sample.image, OracleSegmenter(mask), mode=mode)
            for blob in (save_mask(result.region_mask), save_mask(result.infected_mask),
                         report_to_text(result.report).encode(),
                         save_image(result.heatmap)):
                digest.update(blob)
    assert digest.hexdigest() == (
        "4c557e5f97bcfec8c17bb309a6769f5789d09fb7fbe4887c3f24bf0e3a2d30a3")


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


@pytest.mark.parametrize("fields, named", [
    ({"": "1"}, "'=1'"),
    ({"a=b": "1"}, "'a=b=1'"),
    ({"file": "my scan.pgm"}, "'file=my scan.pgm'"),
    ({"file": "tab\tname"}, "'file=tab\\tname'"),
    ({"two words": "1"}, "'two words=1'"),
    ({"note": ""}, None),
    ({"eq": "a=b"}, None),
], ids=["empty-key", "key-with-equals", "space-in-value", "tab-in-value",
        "space-in-key", "empty-value", "equals-in-value"])
@pytest.mark.parametrize("sep", ["\n", " "], ids=["lines", "one-line"])
def test_writer_refuses_what_the_reader_cannot_read_back(fields, named, sep):
    if named is None:
        assert from_text(to_text(fields, sep)) == fields
    else:
        with pytest.raises(TextFormatError, match=re.escape(named)):
            to_text({"first": "1", **fields}, sep)
