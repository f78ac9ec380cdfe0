"""The four workloads and the loop that times them.

A run sets a workload up several times, checks what needs checking before
timing, runs one untimed warm-up round, and then runs whole rounds of
operations until ``seconds`` have passed.  One operation is one training
step or one image; every round of a workload is the same list of operations
on the same inputs, so every round must give the same answers.  Cyclic
garbage is collected between rounds, never inside one.

Every operation and every set-up is bracketed by readings of the
workload's calibration probe and timed in reference seconds (see
``calibration.py``); the throughput comes from the median operation, the
set-up time from the median set-up.
"""

from __future__ import annotations

import gc
import hashlib
import io
import math
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from chestkit import imaging, models, postproc, synthdata, training
from chestkit.tensor import Tape, Tensor

import checks
from calibration import Calibrator
from tracing import in_windows, summarize

FD_STEP = 1e-6
SETUP_PROBE_REPEATS = 10
BIAS_SHIFT = 0.01


def derive(workload: str, seed: int, role: str) -> int:
    """A 64-bit input seed for one role, from the benchmark's ``--seed``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{role}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class Round:
    durations: list[float] = field(default_factory=list)   # wall s, NaN if failed
    scaled: list[float] = field(default_factory=list)      # reference s, NaN if failed
    windows: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str | None = None


# ---------------------------------------------------------------------------
# training workloads


@dataclass(frozen=True)
class TrainingSpec:
    preset: str
    count: int                   # corpus images
    epochs: int                  # per round
    batch_size: int | None = None
    loss_must_fall: bool = True


class TrainingWorkload:
    """Rounds of ``training.train`` from the same initial weights."""

    setups = 9

    def __init__(self, name: str, spec: TrainingSpec, seed: int,
                 calibrator: Calibrator | None = None,
                 setup_calibrator: Calibrator | None = None):
        self.name = name
        self.notes: list[str] = []
        self.calibrator = calibrator or Calibrator("array")
        # desk set-ups are generator and builder loops of many small numpy
        # calls, whose speed the interpreter probe follows
        self.setup_calibrator = setup_calibrator or Calibrator(
            "interpreter", SETUP_PROBE_REPEATS)
        self.spec = spec
        self.seed = seed
        self.preset = training.get_preset(spec.preset, epochs=spec.epochs,
                                          batch_size=spec.batch_size,
                                          seed=derive(name, seed, "train"))
        self.samples_per_op = self.preset.train.batch_size
        self.steps = spec.epochs * math.ceil(spec.count / self.samples_per_op)
        self.dataset = None
        self.model = None

    def setup(self) -> None:
        generate = (synthdata.gen_segmentation_set if self.preset.train.loss == "dice"
                    else synthdata.gen_classification_set)
        size = self.preset.model.input_shape[1]
        self.dataset = generate(synthdata.SynthSpec(
            count=self.spec.count, size=size, seed=derive(self.name, self.seed, "corpus")))
        self.model = self._build()

    def _build(self):
        return models.build_model(self.preset.model, seed=derive(self.name, self.seed, "model"))

    def _loss(self, model, batch: Tensor, indices):
        out = model.forward(batch)
        if self.preset.train.loss == "cross_entropy":
            return training.cross_entropy_loss(out, [self.dataset.labels[i] for i in indices])
        target = np.stack([self.dataset.masks[i][None] for i in indices]).astype(np.float64)
        return training.dice_loss(out, Tensor(target))

    def pre_checks(self) -> list[str]:
        """Gradient of the first batch against central differences along one
        seeded all-parameter direction.

        Biases start at zero, so wherever a patch of the previous layer is all
        zero the pre-activation sits exactly on the relu kink, and central
        differences average the two one-sided slopes that backward rightly
        does not; on some seeds that alone puts them 60% apart.  The check
        therefore runs at the initial weights with every bias moved off zero
        by a seeded N(0, 0.01^2) draw, where the two agree to about 1e-7.
        """
        model = self.model
        rng = np.random.default_rng(derive(self.name, self.seed, "direction"))
        params = list(model.params.items())
        initial = {name: p.data.copy() for name, p in params}
        for name, p in params:
            if p.ndim == 1:
                p.data = p.data + BIAS_SHIFT * rng.standard_normal(p.shape)
        point = {name: p.data.copy() for name, p in params}

        indices = list(range(min(self.samples_per_op, len(self.dataset))))
        batch = Tensor(np.stack([training.minmax_normalize(self.dataset.images[i])[None]
                                 for i in indices]))
        with Tape() as tape:
            loss = self._loss(model, batch, indices)
        grads = tape.backward(loss)

        direction = {name: rng.standard_normal(p.shape) for name, p in params}
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        analytic = sum(float((grads[p] * direction[name]).sum())
                       for name, p in params if p in grads) / norm

        def loss_at(step: float) -> float:
            for name, p in params:
                p.data = point[name] + (step / norm) * direction[name]
            return self._loss(model, batch, indices).item()

        numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2.0 * FD_STEP)
        for name, p in params:
            p.data = initial[name]
        self.notes.append(f"gradient_check backward={analytic:.9g} "
                          f"central_differences={numeric:.9g}")
        return checks.gradient_problems(analytic, numeric)

    def round(self) -> Round:
        model = self._build()
        marks: list[tuple[float, float, float]] = []   # probe start, reading, end
        forward = model.forward

        def mark():
            start = time.perf_counter()
            reading = self.calibrator.measure()
            marks.append((start, reading, time.perf_counter()))

        def marked_forward(batch):
            mark()
            return forward(batch)

        model.forward = marked_forward
        result = Round(attempted=self.steps)
        start = time.perf_counter()
        try:
            store, history = training.train(model, self.dataset, self.preset.train)
        except Exception as exc:  # a failed round fails all of its steps
            result.failed = self.steps
            result.durations = result.scaled = [math.nan] * self.steps
            result.problems.append(f"train raised {type(exc).__name__}: {exc}")
            return result
        mark()
        result.windows.append((start, marks[-1][0]))
        for (_, before, step_start), (step_end, after, _) in zip(marks, marks[1:]):
            result.durations.append(step_end - step_start)
            result.scaled.append(self.calibrator.scale(step_end - step_start, before, after))
        if len(result.durations) != self.steps:
            result.problems.append(
                f"expected {self.steps} steps per round, saw {len(result.durations)}")
        result.problems += checks.loss_problems([rec.loss for rec in history],
                                                self.spec.loss_must_fall)
        buf = io.BytesIO()
        models.save_weights(store, buf)
        result.digest = hashlib.sha256(buf.getvalue()).hexdigest()
        return result


# ---------------------------------------------------------------------------
# quantification workload


class QuantifyWorkload:
    """``postproc.run_pipeline`` in lung mode over a 256-px infection corpus,
    with PGM decode before and mask/heatmap/report encoding after, as the
    ``chestkit pipeline`` command does, all in memory."""

    samples_per_op = 1
    count = 16
    size = 256
    setups = 5

    def __init__(self, name: str, seed: int):
        self.name = name
        self.notes: list[str] = []
        self.calibrator = Calibrator("interpreter")
        # the infection generator is bound by connected_components, as is
        # the pipeline; a set-up lasts 1.5 s, so a reading spans 0.1 s
        self.setup_calibrator = Calibrator("interpreter", 5 * SETUP_PROBE_REPEATS)
        self.seed = seed
        self.samples = []
        self.files: list[bytes] = []
        self.segmenters = []

    def setup(self) -> None:
        self.samples = synthdata.gen_infection_set(synthdata.SynthSpec(
            count=self.count, size=self.size, seed=derive(self.name, self.seed, "corpus")))
        self.files = [imaging.save_image(s.image) for s in self.samples]
        self.segmenters = [postproc.OracleSegmenter(s.lung_mask) for s in self.samples]

    def pre_checks(self) -> list[str]:
        return []

    def round(self) -> Round:
        result = Round(attempted=len(self.files))
        before = self.calibrator.measure()
        for i, (data, segmenter) in enumerate(zip(self.files, self.segmenters)):
            start = time.perf_counter()
            try:
                out = postproc.run_pipeline(imaging.load_image(data), segmenter, mode="lung")
                outputs = {"region": imaging.save_mask(out.region_mask),
                           "infected": imaging.save_mask(out.infected_mask),
                           "heatmap": imaging.save_image(out.heatmap),
                           "report": postproc.report_to_text(out.report)}
            except Exception as exc:  # one image fails, the round goes on
                result.durations.append(math.nan)
                result.scaled.append(math.nan)
                result.failed += 1
                result.problems.append(f"image {i} raised {type(exc).__name__}: {exc}")
                before = self.calibrator.measure()
                continue
            end = time.perf_counter()
            after = self.calibrator.measure()
            result.windows.append((start, end))
            result.durations.append(end - start)
            result.scaled.append(self.calibrator.scale(end - start, before, after))
            before = after
            sample = self.samples[i]
            result.problems += checks.pipeline_problems(
                f"image {i}", outputs, sample.image, sample.lung_mask, sample.infected_mask)
        return result


def make(name: str, seed: int):
    if name == "seg-train":
        return TrainingWorkload(name, TrainingSpec("seg-desk", count=24, epochs=3), seed)
    if name == "cls-train":
        return TrainingWorkload(name, TrainingSpec("xray-det-desk", count=96, epochs=3), seed)
    if name == "seg-full-step":
        # Two steps per round: the second forward runs while the first
        # step's tape is still uncollected.  Its convolutions stream tens of
        # MB of fresh pages, so its probe does too, 25 times per reading
        # (0.5 s), because a 4 s step spans seconds of drift.  Its set-up is mostly build_model drawing 3.6M
        # parameters into fresh pages, so the same probe times it.
        return TrainingWorkload(name, TrainingSpec("seg", count=2, epochs=1, batch_size=1,
                                                   loss_must_fall=False), seed,
                                Calibrator("memory", repeats=25),
                                Calibrator("memory", repeats=5))
    if name == "quantify-256":
        return QuantifyWorkload(name, seed)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# the run


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: list[str]
    problems: list[str]


def run(name: str, seed: int, seconds: float, tracer=None) -> RunResult:
    workload = make(name, seed)
    # one set-up lasts up to 2 s, so a reading averages several probes
    setup_calibrator = workload.setup_calibrator
    setup_wall: list[float] = []
    setup_scaled: list[float] = []
    setup_windows: list[tuple[float, float]] = []
    before = setup_calibrator.measure()
    for _ in range(workload.setups):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        end = time.perf_counter()
        after = setup_calibrator.measure()
        setup_wall.append(end - start)
        setup_scaled.append(setup_calibrator.scale(end - start, before, after))
        setup_windows.append((start, end))
        before = after

    problems = workload.pre_checks()
    gc.collect()
    gc_starts = array("d")

    def on_gc(phase, info):
        if phase == "start":
            gc_starts.append(time.perf_counter())

    gc.callbacks.append(on_gc)
    warm = workload.round()
    problems += warm.problems
    digests = [warm.digest]
    gc.collect()

    timed: list[Round] = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        r = workload.round()
        timed.append(r)
        problems += r.problems
        digests.append(r.digest)
        gc.collect()
    gc.callbacks.remove(on_gc)

    if digests[0] is not None:
        problems += checks.digest_problems(digests)
    durations = [d for r in timed for d in r.durations if not math.isnan(d)]
    scaled = [d for r in timed for d in r.scaled if not math.isnan(d)]
    attempted = sum(r.attempted for r in timed)
    failed = sum(r.failed for r in timed)
    ops = len(durations)
    windows = sorted(w for r in timed for w in r.windows)
    gc_in_ops = sum(in_windows(t, windows) for t in gc_starts)
    samples_per_s = workload.samples_per_op / statistics.median(scaled) if scaled else 0.0

    notes = [f"workload={name} seed={seed} rounds={len(timed)} ops={ops} "
             f"samples_per_op={workload.samples_per_op}"]
    if durations:
        for label, times in (("op_ms", durations), ("op_reference_ms", scaled)):
            text = f"{label} median={1e3 * statistics.median(times):.3f}"
            high = checks.tail(times)
            if high is not None:
                text += f" p{high[0]:.1f}={1e3 * high[1]:.3f} (10 of {ops} beyond)"
            notes.append(text)
    if digests[0] is not None:
        notes.append(f"weights_sha256={digests[0]}")
    notes.append("setup_wall_s=" + ",".join(f"{s:.4f}" for s in setup_wall))
    calibrator = workload.calibrator
    notes.append(f"probe_ms median={1e3 * statistics.median(calibrator.readings):.3f} "
                 f"reference={1e3 * calibrator.reference:.3f}")
    notes.append(f"gc_collections_per_op={gc_in_ops / max(ops, 1):.3f}")
    notes += workload.notes

    if tracer is None:
        metrics = {
            "samples_per_s": {"value": samples_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        }
    else:
        tracer.uninstall()
        metrics = summarize(tracer.spans, windows, ops, setup_windows, workload.setups)
        metrics["trace.samples_per_s"] = {"value": samples_per_s, "unit": "1/s"}
    return RunResult(correct=not problems, attempted=attempted, failed=failed,
                     metrics=metrics, notes=notes, problems=problems)
