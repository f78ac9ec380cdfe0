"""Command-line entry point.

Subcommands: gen-data, train, transfer, pipeline, eval.  Exit codes are a
stable contract: 0 success, 2 argument error, 3 data error, 4
model/weights error, 5 training diverged.  Every command is deterministic
given identical arguments, files, and seed, and writes only under --out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import kvtext
from .imaging import PnmError, load_image, resize, save_mask, save_image, to_grayscale
from .metrics import evaluate_classifier, evaluate_segmenter, metrics_to_text
from .models import (
    WeightFileError,
    assign_weights,
    build_model,
    irrcnn_config_from_store,
    load_weights,
    nabla3_config_from_store,
    save_weights,
)
from .postproc import report_to_text, run_pipeline
from .synthdata import (
    SynthSpec,
    load_classification_corpus,
    load_segmentation_corpus,
    write_classification_corpus,
    write_infection_corpus,
    write_segmentation_corpus,
)
from .training import (
    LabeledDataset,
    TrainingDivergedError,
    balance_classes,
    get_preset,
    history_to_text,
    preset_to_text,
    train,
    transfer_init,
)

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_DATA = 3
EXIT_MODEL = 4
EXIT_DIVERGED = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_ratio(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError as exc:
        raise CliError(EXIT_ARGS, f"bad ratio {text!r}; expected like 1:3") from exc


def _resize_dataset(ds: LabeledDataset, size: int) -> LabeledDataset:
    if all(img.shape == (size, size) for img in ds.images):
        return ds
    return LabeledDataset(
        images=[resize(img, size, size) for img in ds.images],
        labels=ds.labels,
        masks=None if ds.masks is None else [resize(m, size, size) for m in ds.masks],
        class_names=ds.class_names,
    )


def _load_dataset(root: str, masks: bool, part: str = "train") -> LabeledDataset:
    try:
        if masks:
            return load_segmentation_corpus(root)
        return load_classification_corpus(root, part)
    except (FileNotFoundError, PnmError, ValueError) as exc:
        raise CliError(EXIT_DATA, f"cannot load dataset: {exc}") from exc


def _load_model(path: str, build, what: str = "weights", failure: str = "bad weights"):
    """``build(store)`` on the weight file at ``path``; an unreadable or
    malformed file, or one that does not fit, exits with code 4."""
    try:
        return build(load_weights(path))
    except OSError as exc:
        raise CliError(EXIT_MODEL, f"cannot read {what}: {exc}") from exc
    except WeightFileError as exc:
        raise CliError(EXIT_MODEL, f"bad {what}: {exc}") from exc
    except (KeyError, ValueError) as exc:       # ShapeError is a ValueError
        raise CliError(EXIT_MODEL, f"{failure}: {exc}") from exc


def _rebuild(config_from_store, size: int):
    """A ``build`` for :func:`_load_model`: the network the stored shapes
    describe, for ``size`` x ``size`` input, holding the stored weights."""
    def build(store):
        model = build_model(config_from_store(store, (1, size, size)), seed=0)
        assign_weights(model, store)
        return model
    return build


def _fit(args, preset, model) -> None:
    """Train ``model`` on ``--dataset`` and write the outputs to ``--out``;
    a diverged run writes nothing."""
    ds = _load_dataset(args.dataset, preset.train.loss == "dice")
    if preset.train.loss == "cross_entropy":
        ds = balance_classes(ds, seed=preset.train.seed)
    ds = _resize_dataset(ds, preset.model.input_shape[1])
    try:
        store, history = train(model, ds, preset.train)
    except TrainingDivergedError as exc:
        raise CliError(EXIT_DIVERGED, str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_weights(store, out / "weights.cmtw")
    (out / "history.txt").write_text(history_to_text(history))
    (out / "config.txt").write_text(preset_to_text(preset))


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    try:
        spec = SynthSpec(count=args.count, size=args.size, seed=args.seed,
                         class_ratio=_parse_ratio(args.imbalance))
    except ValueError as exc:
        raise CliError(EXIT_ARGS, str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.kind == "classification":
            write_classification_corpus(out, spec)
        elif args.kind == "segmentation":
            write_segmentation_corpus(out, spec)
        else:
            write_infection_corpus(out, spec)
    except ValueError as exc:
        raise CliError(EXIT_ARGS, str(exc)) from exc
    print(f"wrote {args.kind} corpus of {spec.count} samples to {out}")
    return EXIT_OK


def _resolve_preset(args):
    try:
        return get_preset(args.preset, epochs=args.epochs,
                          batch_size=args.batch, lr=args.lr, seed=args.seed)
    except KeyError as exc:
        raise CliError(EXIT_ARGS, str(exc)) from exc


def cmd_train(args) -> int:
    preset = _resolve_preset(args)
    _fit(args, preset, build_model(preset.model, seed=preset.train.seed))
    print(f"trained {preset.name} for {preset.train.epochs} epochs; "
          f"weights in {args.out}")
    return EXIT_OK


def cmd_transfer(args) -> int:
    preset = _resolve_preset(args)

    def build(donor):
        model = build_model(preset.model, seed=preset.train.seed)
        transfer_init(model, donor, reinit_head=not args.keep_head,
                      seed=preset.train.seed)
        return model

    _fit(args, preset, _load_model(args.donor_weights, build, "donor weights",
                                   "transfer failed"))
    print(f"fine-tuned from {args.donor_weights} for {preset.train.epochs} epochs")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    if bool(args.image) == bool(args.dataset):
        raise CliError(EXIT_ARGS, "give exactly one of --image or --dataset")
    model = _load_model(args.weights, _rebuild(nabla3_config_from_store, args.size))
    if args.image:
        paths = [Path(args.image)]
    else:
        root = Path(args.dataset)
        base = root / "images" if (root / "images").is_dir() else root
        paths = sorted(p for p in base.glob("*.p[gp]m"))
        if not paths:
            raise CliError(EXIT_DATA, f"no .pgm/.ppm images under {base}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary_lines = []
    percents = []
    failures = 0
    for path in paths:
        try:
            img = load_image(path.read_bytes())
        except (OSError, PnmError) as exc:
            summary_lines.append(kvtext.to_text({"file": path.name, "error": str(exc)}, " "))
            failures += 1
            continue
        if img.ndim == 3:
            img = to_grayscale(img)
        result = run_pipeline(img, model, mode=args.mode,
                              threshold=args.threshold, window=args.window,
                              offset=args.offset, regions_k=args.regions_k)
        stem = path.stem
        (out / f"{stem}_region.pgm").write_bytes(save_mask(result.region_mask))
        (out / f"{stem}_infected.pgm").write_bytes(save_mask(result.infected_mask))
        (out / f"{stem}_heatmap.ppm").write_bytes(save_image(result.heatmap))
        (out / f"{stem}_report.txt").write_text(report_to_text(result.report))
        summary_lines.append(kvtext.to_text({
            "file": path.name, "lung_pixels": str(result.report.lung_pixels),
            "infected_pixels": str(result.report.infected_pixels),
            "percent": result.report.percent_text}, " "))
        percents.append(result.report.percent)
    if failures == len(paths):
        raise CliError(EXIT_DATA, "every input failed to load")
    mean_percent = float(np.mean(percents)) if percents else 0.0
    summary_lines.append(kvtext.to_text({
        "processed": str(len(percents)), "failed": str(failures),
        "mean_percent": f"{mean_percent:.2f}"}, " "))
    (out / "summary.txt").write_text("".join(summary_lines))
    print(f"processed {len(percents)} image(s); summary in {out / 'summary.txt'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds = _load_dataset(args.dataset, args.task == "segmentation", args.part)
    if args.size is None:
        h, w = ds.images[0].shape[:2]
        if h != w or h % 32:
            raise CliError(EXIT_ARGS,
                           f"images are {w}x{h}; pass --size (multiple of 32)")
        args.size = h
    ds = _resize_dataset(ds, args.size)
    config_from_store = (irrcnn_config_from_store if args.task == "classification"
                         else nabla3_config_from_store)
    model = _load_model(args.weights, _rebuild(config_from_store, args.size))
    if args.task == "classification":
        report = evaluate_classifier(model, ds)
    else:
        report = evaluate_segmenter(model, ds, threshold=args.threshold)
    text = metrics_to_text(report)
    (out / "metrics.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chestkit",
        description="Chest image classification, lung segmentation, and "
                    "infection quantification on synthetic corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic corpus to disk")
    gen.add_argument("--kind", choices=("classification", "segmentation", "infection"),
                     required=True)
    gen.add_argument("--count", type=int, default=100)
    gen.add_argument("--size", type=int, default=64)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--imbalance", default="1:1", help="class ratio, e.g. 1:3")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_data)

    def add_train_flags(p):
        p.add_argument("--dataset", required=True)
        p.add_argument("--preset", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--batch", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)

    tr = sub.add_parser("train", help="train a preset on a corpus")
    add_train_flags(tr)
    tr.set_defaults(func=cmd_train)

    tf = sub.add_parser("transfer", help="fine-tune from donor weights")
    add_train_flags(tf)
    tf.add_argument("--donor-weights", required=True)
    tf.add_argument("--keep-head", action="store_true",
                    help="copy the donor head instead of re-initializing it")
    tf.set_defaults(func=cmd_transfer)

    pl = sub.add_parser("pipeline", help="segment, quantify, and render heatmaps")
    pl.add_argument("--weights", required=True)
    pl.add_argument("--image", default=None)
    pl.add_argument("--dataset", default=None)
    pl.add_argument("--out", required=True)
    pl.add_argument("--mode", choices=("chest", "lung"), default="chest")
    pl.add_argument("--threshold", type=float, default=0.5)
    pl.add_argument("--window", type=int, default=15)
    pl.add_argument("--offset", type=float, default=5.0)
    pl.add_argument("--regions-k", type=int, default=None)
    pl.add_argument("--size", type=int, default=64,
                    help="model input size; images are resized to it")
    pl.set_defaults(func=cmd_pipeline)

    ev = sub.add_parser(
        "eval", help="score weights against a labeled corpus",
        description="Score weights against a labeled corpus. A CMTW v1 file does not store "
                    "a classifier's recurrence steps t, so eval rebuilds it with "
                    "recurrence_steps=2; weights trained with another t load but score wrong.")
    ev.add_argument("--task", choices=("classification", "segmentation"),
                    required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--weights", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--part", choices=("train", "test"), default="test")
    ev.add_argument("--size", type=int, default=None)
    ev.add_argument("--threshold", type=float, default=0.5)
    ev.set_defaults(func=cmd_eval)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS


def main() -> None:
    sys.exit(run())
