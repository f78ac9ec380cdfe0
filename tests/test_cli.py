import argparse
import importlib
import io
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chestkit import kvtext
from chestkit.cli import build_parser, run
from chestkit.imaging import load_image, save_image
from chestkit.models import ModelConfig, build_model, load_weights, save_weights
from chestkit.postproc import report_from_text
from chestkit.metrics import evaluate_classifier, metrics_to_text
from chestkit.synthdata import load_classification_corpus
from chestkit.training import get_preset

from oracles import metrics_from_text
from test_models import one_tensor_file, with_config_text


def gen(tmp_path, kind="classification", count=16, size=32, seed=3, name="data"):
    root = tmp_path / name
    code = run(["gen-data", "--kind", kind, "--count", str(count),
                "--size", str(size), "--seed", str(seed), "--out", str(root)])
    assert code == 0
    return root


def model_file(config) -> bytes:
    """A CMTW v2 file of a freshly built model."""
    buf = io.BytesIO()
    save_weights(build_model(config).params, buf)
    return buf.getvalue()


def as_v1(blob: bytes) -> bytes:
    """The CMTW v1 file with a v2 file's tensor records and no config."""
    config_len = struct.unpack_from("<I", blob, 12)[0]
    return blob[:4] + struct.pack("<I", 1) + blob[8:12] + blob[16 + config_len:]


def with_config(blob: bytes, **changes) -> bytes:
    """A v2 file's records behind its config text with fields changed
    (a value of None drops the field)."""
    config_len = struct.unpack_from("<I", blob, 12)[0]
    fields = kvtext.from_text(blob[16:16 + config_len].decode("utf-8"))
    fields.update(changes)
    text = kvtext.to_text({k: v for k, v in fields.items() if v is not None})
    return with_config_text(blob, text.encode("utf-8"))


DESK_CLS_FILE = model_file(get_preset("xray-det-desk").model)


def three_channel_file() -> bytes:
    """The desk classifier's file made to fit a three-channel input: its
    config says 3x32x32 and its first unit's kernels take three channels."""
    model = build_model(get_preset("xray-det-desk").model)
    for _, param in model.params.items():
        if param.ndim == 4 and param.shape[1] == 1:
            param.data = np.repeat(param.data, 3, axis=1)
    buf = io.BytesIO()
    save_weights(model.params, buf)
    return with_config(buf.getvalue(), input_shape="3x32x32")


def train_tiny(tmp_path, data, preset="xray-det-desk", epochs=1, name="run", seed=5):
    out = tmp_path / name
    code = run(["train", "--dataset", str(data), "--preset", preset,
                "--epochs", str(epochs), "--seed", str(seed), "--out", str(out)])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_layout_and_manifest(tmp_path):
    root = gen(tmp_path)
    assert (root / "manifest.txt").exists()
    assert (root / "train" / "normal").is_dir()
    assert (root / "train" / "opacity").is_dir()
    assert (root / "test" / "normal").is_dir()
    sample = next((root / "train" / "normal").glob("*.pgm"))
    img = load_image(sample.read_bytes())
    assert img.shape == (32, 32)


def test_gen_data_rejects_bad_size(tmp_path):
    code = run(["gen-data", "--kind", "classification", "--count", "4",
                "--size", "40", "--out", str(tmp_path / "x")])
    assert code == 2


def test_gen_data_segmentation_layout(tmp_path):
    root = gen(tmp_path, kind="segmentation", count=4, size=64)
    images = sorted((root / "images").glob("*.pgm"))
    masks = sorted((root / "masks").glob("*.pgm"))
    assert len(images) == 4 and len(masks) == 4
    mask = load_image(masks[0].read_bytes()) > 0
    assert mask.dtype == bool


def test_gen_data_infection_layout(tmp_path):
    root = gen(tmp_path, kind="infection", count=3, size=64)
    for sub in ("images", "masks", "infected", "reports"):
        assert (root / sub).is_dir()
    report = report_from_text((root / "reports" / "0000.txt").read_text())
    assert report.lung_pixels > 0


def test_gen_data_unknown_kind_is_argument_error(tmp_path):
    code = run(["gen-data", "--kind", "volumetric", "--out", str(tmp_path / "x")])
    assert code == 2


def test_module_form_runs_the_cli(tmp_path):
    # `python -m chestkit.cli` exits as the installed `chestkit` script does
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "chestkit.cli", "gen-data", "--kind", "classification",
         "--count", "0", "--out", str(tmp_path / "a")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 2
    assert "count must be >= 1" in proc.stderr
    assert not (tmp_path / "a").exists()


# ---------------------------------------------------------------------------
# train


def test_train_writes_weights_history_config(tmp_path):
    data = gen(tmp_path)
    out = train_tiny(tmp_path, data)
    assert (out / "weights.cmtw").exists()
    history = (out / "history.txt").read_text().splitlines()
    assert history[1].startswith("epoch=0 ")
    assert " grad_norm=" in history[1] and " clamped=" in history[1]
    config = (out / "config.txt").read_text()
    assert "preset=xray-det-desk" in config
    assert "epochs=1" in config
    store = load_weights(out / "weights.cmtw")
    assert "fc.weight" in store


def test_train_same_seed_gives_byte_identical_weights(tmp_path):
    data = gen(tmp_path)
    out1 = train_tiny(tmp_path, data, name="a", seed=9)
    out2 = train_tiny(tmp_path, data, name="b", seed=9)
    assert (out1 / "weights.cmtw").read_bytes() == (out2 / "weights.cmtw").read_bytes()
    out3 = train_tiny(tmp_path, data, name="c", seed=10)
    assert (out1 / "weights.cmtw").read_bytes() != (out3 / "weights.cmtw").read_bytes()


def test_train_unknown_preset_is_argument_error(tmp_path):
    data = gen(tmp_path)
    code = run(["train", "--dataset", str(data), "--preset", "nope",
                "--out", str(tmp_path / "o")])
    assert code == 2


def test_train_missing_dataset_is_data_error(tmp_path):
    code = run(["train", "--dataset", str(tmp_path / "absent"),
                "--preset", "xray-det-desk", "--out", str(tmp_path / "o")])
    assert code == 3


def test_train_segmentation_preset(tmp_path):
    data = gen(tmp_path, kind="segmentation", count=4, size=64)
    out = tmp_path / "segrun"
    code = run(["train", "--dataset", str(data), "--preset", "seg-desk",
                "--epochs", "1", "--out", str(out)])
    assert code == 0
    store = load_weights(out / "weights.cmtw")
    assert "head.weight" in store


def test_train_diverged_run_exits_5_and_writes_nothing(tmp_path, capsys):
    data = gen(tmp_path)
    out = tmp_path / "o"
    code = run(["train", "--dataset", str(data), "--preset", "xray-det-desk",
                "--epochs", "3", "--lr", "1000", "--out", str(out)])
    assert code == 5
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# transfer


def test_transfer_zero_epochs_keeps_donor_body(tmp_path):
    data = gen(tmp_path)
    donor_out = train_tiny(tmp_path, data, name="donor", epochs=1)
    out = tmp_path / "tl"
    code = run(["transfer", "--dataset", str(data), "--preset", "xray-det-desk",
                "--donor-weights", str(donor_out / "weights.cmtw"),
                "--epochs", "0", "--seed", "5", "--out", str(out)])
    assert code == 0
    donor = load_weights(donor_out / "weights.cmtw")
    tuned = load_weights(out / "weights.cmtw")
    for name in donor.names():
        if name.startswith("fc."):
            continue
        assert np.array_equal(donor[name].data, tuned[name].data), name
    assert not np.array_equal(donor["fc.weight"].data, tuned["fc.weight"].data)


def test_v1_weights_are_refused_and_migrate_through_transfer(tmp_path, capsys):
    data = gen(tmp_path)
    old = tmp_path / "old.cmtw"
    old.write_bytes(as_v1(DESK_CLS_FILE))
    assert run(["eval", "--dataset", str(data), "--weights", str(old),
                "--out", str(tmp_path / "e")]) == 4
    err = capsys.readouterr().err
    assert "version 1" in err
    assert f"chestkit transfer --donor-weights {old} --preset <preset> --epochs 0 --keep-head" in err
    new = tmp_path / "new"
    assert run(["transfer", "--donor-weights", str(old), "--preset", "xray-det-desk",
                "--epochs", "0", "--keep-head", "--dataset", str(data),
                "--out", str(new)]) == 0
    assert (new / "weights.cmtw").read_bytes() == DESK_CLS_FILE


def test_transfer_diverged_run_exits_5(tmp_path):
    data = gen(tmp_path)
    donor_out = train_tiny(tmp_path, data, name="donor", epochs=1)
    code = run(["transfer", "--dataset", str(data), "--preset", "xray-det-desk",
                "--donor-weights", str(donor_out / "weights.cmtw"),
                "--epochs", "3", "--lr", "1000", "--out", str(tmp_path / "tl")])
    assert code == 5
    assert not (tmp_path / "tl").exists()


def test_transfer_architecture_mismatch_is_model_error(tmp_path):
    cls_data = gen(tmp_path)
    seg_data = gen(tmp_path, kind="segmentation", count=4, size=64, name="segdata")
    seg_out = tmp_path / "seg"
    assert run(["train", "--dataset", str(seg_data), "--preset", "seg-desk",
                "--epochs", "0", "--out", str(seg_out)]) == 0
    code = run(["transfer", "--dataset", str(cls_data), "--preset", "xray-det-desk",
                "--donor-weights", str(seg_out / "weights.cmtw"),
                "--epochs", "0", "--out", str(tmp_path / "bad")])
    assert code == 4


def test_transfer_unreadable_donor_is_model_error(tmp_path):
    data = gen(tmp_path)
    bad = tmp_path / "junk.cmtw"
    bad.write_bytes(b"not a weight file")
    code = run(["transfer", "--dataset", str(data), "--preset", "xray-det-desk",
                "--donor-weights", str(bad), "--epochs", "0",
                "--out", str(tmp_path / "o")])
    assert code == 4


@pytest.mark.parametrize("command", ["train", "transfer"])
def test_empty_class_directory_is_data_error_naming_it(tmp_path, capsys, command):
    data = gen(tmp_path, count=8)
    (data / "train" / "zzz").mkdir()
    donor = tmp_path / "donor.cmtw"
    donor.write_bytes(DESK_CLS_FILE)
    donor_flags = ["--donor-weights", str(donor)] if command == "transfer" else []
    out = tmp_path / "o"
    code = run([command, "--dataset", str(data), "--preset", "xray-det-desk",
                "--epochs", "1", *donor_flags, "--out", str(out)])
    assert code == 3
    assert str(data / "train" / "zzz") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change, count", [
    (lambda part: shutil.rmtree(part / "normal"), 1),
    (lambda part: shutil.copytree(part / "normal", part / "zzz"), 3),
], ids=["missing-class", "extra-class"])
@pytest.mark.parametrize("command", ["train", "transfer"])
def test_class_count_mismatch_is_data_error_naming_the_counts(tmp_path, capsys, command,
                                                               change, count):
    data = gen(tmp_path, count=8)
    change(data / "train")
    donor = tmp_path / "donor.cmtw"
    donor.write_bytes(DESK_CLS_FILE)
    donor_flags = ["--donor-weights", str(donor)] if command == "transfer" else []
    out = tmp_path / "o"
    code = run([command, "--dataset", str(data), "--preset", "xray-det-desk",
                "--epochs", "1", *donor_flags, "--out", str(out)])
    assert code == 3
    assert (f"train/ of {data} holds {count} class(es); preset xray-det-desk scores 2"
            in capsys.readouterr().err)
    assert not out.exists()


# ---------------------------------------------------------------------------
# pipeline


@pytest.fixture(scope="module")
def seg_weights(tmp_path_factory):
    base = tmp_path_factory.mktemp("segmodel")
    data_root = base / "data"
    assert run(["gen-data", "--kind", "infection", "--count", "6", "--size", "64",
                "--seed", "21", "--out", str(data_root)]) == 0
    out = base / "run"
    assert run(["train", "--dataset", str(data_root), "--preset", "seg-desk",
                "--epochs", "2", "--seed", "21", "--out", str(out)]) == 0
    return out / "weights.cmtw", data_root


def test_pipeline_directory_outputs(tmp_path, seg_weights):
    weights, data_root = seg_weights
    out = tmp_path / "pipe"
    code = run(["pipeline", "--weights", str(weights), "--dataset", str(data_root),
                "--mode", "lung", "--out", str(out)])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "processed=6" in summary
    for stem in ("0000", "0005"):
        assert (out / f"{stem}_region.pgm").exists()
        assert (out / f"{stem}_infected.pgm").exists()
        assert (out / f"{stem}_heatmap.ppm").exists()
        report = report_from_text((out / f"{stem}_report.txt").read_text())
        assert report.lung_pixels >= 0


def test_pipeline_single_image_matches_directory_run(tmp_path, seg_weights):
    weights, data_root = seg_weights
    full = tmp_path / "full"
    single = tmp_path / "single"
    assert run(["pipeline", "--weights", str(weights), "--dataset", str(data_root),
                "--mode", "lung", "--out", str(full)]) == 0
    image_path = data_root / "images" / "0002.pgm"
    assert run(["pipeline", "--weights", str(weights), "--image", str(image_path),
                "--mode", "lung", "--out", str(single)]) == 0
    for suffix in ("region.pgm", "infected.pgm", "heatmap.ppm", "report.txt"):
        assert ((full / f"0002_{suffix}").read_bytes()
                == (single / f"0002_{suffix}").read_bytes())


def test_pipeline_is_deterministic(tmp_path, seg_weights):
    weights, data_root = seg_weights
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["pipeline", "--weights", str(weights), "--dataset",
                    str(data_root), "--mode", "lung", "--out", str(out)]) == 0
    assert (a / "summary.txt").read_bytes() == (b / "summary.txt").read_bytes()
    assert (a / "0001_infected.pgm").read_bytes() == (b / "0001_infected.pgm").read_bytes()


def test_pipeline_empty_directory_is_data_error(tmp_path, seg_weights):
    weights, _ = seg_weights
    empty = tmp_path / "empty"
    empty.mkdir()
    code = run(["pipeline", "--weights", str(weights), "--dataset", str(empty),
                "--out", str(tmp_path / "o")])
    assert code == 3


def test_pipeline_bad_file_recorded_but_not_fatal(tmp_path, seg_weights):
    weights, data_root = seg_weights
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    good = (data_root / "images" / "0000.pgm").read_bytes()
    (mixed / "good.pgm").write_bytes(good)
    (mixed / "bad.pgm").write_bytes(b"P5\n9 9\n255\nshort")
    out = tmp_path / "o"
    code = run(["pipeline", "--weights", str(weights), "--dataset", str(mixed),
                "--out", str(out)])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "file=bad.pgm error=" in summary
    assert "processed=1 failed=1" in summary


def test_pipeline_file_name_with_whitespace_is_data_error(tmp_path, seg_weights, capsys):
    # summary.txt could not record the name, so nothing is written
    weights, data_root = seg_weights
    spaced = tmp_path / "spaced"
    spaced.mkdir()
    good = (data_root / "images" / "0000.pgm").read_bytes()
    for name in ("a.pgm", "my scan.pgm", "z.pgm"):
        (spaced / name).write_bytes(good)
    out = tmp_path / "o"
    code = run(["pipeline", "--weights", str(weights), "--dataset", str(spaced),
                "--out", str(out)])
    assert code == 3
    assert "'my scan.pgm'" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_requires_exactly_one_input(tmp_path, seg_weights):
    weights, data_root = seg_weights
    code = run(["pipeline", "--weights", str(weights), "--out", str(tmp_path / "o")])
    assert code == 2
    code = run(["pipeline", "--weights", str(weights), "--image", "x.pgm",
                "--dataset", str(data_root), "--out", str(tmp_path / "o")])
    assert code == 2


def test_pipeline_window_wider_than_the_image_runs_as_the_image(tmp_path, seg_weights):
    # at 64 px a 129-px window already covers the whole image from every
    # pixel; a window of a million pixels must not ask for a table that size
    weights, data_root = seg_weights
    outputs = []
    for window in ("1000001", "129"):
        out = tmp_path / window
        code = run(["pipeline", "--weights", str(weights), "--dataset", str(data_root),
                    "--mode", "lung", "--window", window, "--out", str(out)])
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


def test_pipeline_bad_weights_is_model_error(tmp_path, seg_weights):
    _, data_root = seg_weights
    bad = tmp_path / "bad.cmtw"
    bad.write_bytes(b"XXXX")
    code = run(["pipeline", "--weights", str(bad), "--dataset", str(data_root),
                "--out", str(tmp_path / "o")])
    assert code == 4


PIPELINE = ["pipeline", "--weights", "seg.cmtw", "--image", "missing.pgm"]
TRAIN = ["train", "--dataset", "data", "--preset", "seg-desk"]


# a bad flag exits 2 before any file is read: with one the check missed,
# the missing image or dataset would exit 3 instead.  A colour image in a
# corpus is a data error, 3, whichever command reads it; a colour mask too,
# and the error names the mask
@pytest.mark.parametrize("argv, code", [
    (["train", "--dataset", "rgb", "--preset", "xray-det-desk", "--epochs", "1"], 3),
    (["train", "--dataset", "rgb-mask", "--preset", "seg-desk", "--epochs", "1"], 3),
    (["eval", "--dataset", "rgb", "--weights", "det.cmtw"], 3),
    (PIPELINE, 3),
    (["gen-data", "--kind", "classification", "--count", "5"], 2),
    (TRAIN + ["--lr", "nan"], 2),
    (TRAIN + ["--lr", "inf"], 2),
    (PIPELINE + ["--threshold", "nan"], 2),
    (PIPELINE + ["--offset", "inf"], 2),
    (PIPELINE + ["--window", "4"], 2),
    (["eval", "--dataset", "data", "--weights", "seg.cmtw", "--threshold", "nan"], 2),
    (["gen-data", "--kind", "infection", "--count", "2", "--size", "0"], 2),
    (["gen-data", "--kind", "segmentation", "--count", "2", "--size", "-32"], 2),
], ids=["train-rgb-image", "train-rgb-mask", "eval-rgb-image",
        "pipeline-no-input-loads", "gen-data-count-off-ratio", "train-lr-nan",
        "train-lr-inf", "pipeline-threshold-nan", "pipeline-offset-inf",
        "pipeline-window-even", "eval-threshold-nan", "gen-data-size-0",
        "gen-data-size-negative"])
def test_failed_command_leaves_no_out(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seg.cmtw").write_bytes(model_file(get_preset("seg-desk").model))
    if "rgb" in argv:
        (tmp_path / "det.cmtw").write_bytes(model_file(get_preset("xray-det-desk").model))
        rgb = gen(tmp_path, count=10, name="rgb")
        for part in ("train", "test"):
            (rgb / part / "normal" / "0000.pgm").write_bytes(
                save_image(np.zeros((32, 32, 3), np.uint8)))
    if "rgb-mask" in argv:
        masks = gen(tmp_path, kind="segmentation", count=2, name="rgb-mask") / "masks"
        (masks / "0000.pgm").write_bytes(save_image(np.zeros((32, 32, 3), np.uint8)))
    assert run(argv + ["--out", "o"]) == code
    assert not (tmp_path / "o").exists()
    if "rgb-mask" in argv:
        assert "masks/0000.pgm" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_classification_report_keys(tmp_path):
    data = gen(tmp_path, count=20)
    out = train_tiny(tmp_path, data, epochs=1)
    eval_out = tmp_path / "eval"
    code = run(["eval", "--dataset", str(data),
                "--weights", str(out / "weights.cmtw"), "--out", str(eval_out)])
    assert code == 0
    report = metrics_from_text((eval_out / "metrics.txt").read_text())
    present = report.present()
    assert set(present) == {"accuracy", "precision", "recall", "f1", "auc"}


def test_eval_segmentation_report_keys(tmp_path, seg_weights):
    weights, data_root = seg_weights
    eval_out = tmp_path / "eval"
    code = run(["eval", "--dataset", str(data_root),
                "--weights", str(weights), "--out", str(eval_out)])
    assert code == 0
    report = metrics_from_text((eval_out / "metrics.txt").read_text())
    assert set(report.present()) == {"accuracy", "f1", "iou", "dice"}


def test_eval_scores_the_saved_recurrence_depth(tmp_path):
    # t = 1, not the default 2: eval must build the network the file names
    config = ModelConfig("irrcnn", (1, 32, 32), width_scale=0.125, num_classes=2,
                         recurrence_steps=1)
    model = build_model(config, seed=7)
    for _, param in model.params.items():
        param.data = param.data.astype(np.float32).astype(np.float64)
    weights = tmp_path / "t1.cmtw"
    save_weights(model.params, weights)
    data = gen(tmp_path, count=40)
    assert run(["eval", "--dataset", str(data), "--weights", str(weights),
                "--part", "train", "--out", str(tmp_path / "e")]) == 0
    # rebuilt with t = 2, this model scores auc 0.9648 here instead of 0.8789
    expected = evaluate_classifier(model, load_classification_corpus(data, "train"))
    assert (tmp_path / "e" / "metrics.txt").read_text() == metrics_to_text(expected)


@pytest.mark.parametrize("change, counts", [
    (lambda part: shutil.rmtree(part / "normal"), "1 class(es); the weights score 2"),
    (lambda part: shutil.copytree(part / "normal", part / "other"),
     "3 class(es); the weights score 2"),
], ids=["missing-class", "extra-class"])
def test_eval_class_count_mismatch_is_data_error(tmp_path, capsys, change, counts):
    data = gen(tmp_path)
    change(data / "test")
    weights = tmp_path / "cls.cmtw"
    weights.write_bytes(DESK_CLS_FILE)
    out = tmp_path / "e"
    code = run(["eval", "--dataset", str(data), "--weights", str(weights),
                "--out", str(out)])
    assert code == 3
    assert counts in capsys.readouterr().err
    assert not out.exists()


def test_eval_missing_labels_is_data_error(tmp_path):
    # segmenter weights pick a segmentation corpus; this one has no masks
    data = gen(tmp_path)
    weights = tmp_path / "seg.cmtw"
    weights.write_bytes(model_file(get_preset("seg-desk").model))
    code = run(["eval", "--dataset", str(data), "--weights", str(weights),
                "--out", str(tmp_path / "e")])
    assert code == 3


@pytest.mark.parametrize("command, payload", [
    ("eval", one_tensor_file(b"w", (2 ** 31, 2 ** 31, 4), b"")),
    ("eval", one_tensor_file(b"\xff", (1,), struct.pack("<f", 1.0))),
    ("eval", one_tensor_file(b"w", (0,), b"")),
    ("eval", one_tensor_file(b"w", (2,), struct.pack("<2f", 1.0, float("nan")))),
    ("eval", b"CMTW" + struct.pack("<II", 1, 2)
     + 2 * (struct.pack("<I", 1) + b"w" + struct.pack("<II", 1, 1) + struct.pack("<f", 1.0))),
    ("eval", with_config(DESK_CLS_FILE, architecture="resnet")),
    ("eval", with_config(DESK_CLS_FILE, input_shape="1x30x30")),
    ("eval", with_config(DESK_CLS_FILE, recurrence_steps=None)),
    ("eval", with_config(model_file(get_preset("seg-desk").model),
                         recurrence_steps="-1")),
    ("eval", three_channel_file()),
    # the same widths as 0.125, but .10g writes it as 0.125
    ("eval", with_config(DESK_CLS_FILE, width_scale="0.1249999999999999")),
    ("pipeline", DESK_CLS_FILE),
    ("eval", as_v1(DESK_CLS_FILE)),
], ids=["overflowing-dims", "non-utf8-name", "zero-size", "nan", "duplicate-name",
        "unknown-architecture", "indivisible-input", "missing-recurrence-steps",
        "negative-recurrence-steps", "three-channels", "width-scale-past-10-digits",
        "pipeline-on-classifier", "v1-file"])
def test_eval_malformed_weights_is_model_error(tmp_path, command, payload):
    data = gen(tmp_path, kind="segmentation", count=4, size=32)
    bad = tmp_path / "bad.cmtw"
    bad.write_bytes(payload)
    code = run([command, "--dataset", str(data),
                "--weights", str(bad), "--out", str(tmp_path / "e")])
    assert code == 4


# ---------------------------------------------------------------------------
# docs


def test_every_flag_the_readme_names_exists():
    # the CI walkthrough runs only the fenced commands; this covers the prose
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    known = {option for sub in subparsers.choices.values()
             for action in sub._actions for option in action.option_strings}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert named, "README names no flags"
    assert named <= known, sorted(named - known)


def test_every_name_the_readme_module_table_lists_exists():
    # a row reads | `chestkit.module` | contents naming `identifiers` |
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(chestkit\.\w+)` \| (.*) \|$", table, flags=re.M)
    assert len(rows) >= 10, "README module table not found"
    missing = [f"{module}.{name}" for module, contents in rows
               for name in re.findall(r"`([A-Za-z_]\w*)`", contents)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing
