"""Self-tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest perfbench -q

Each check must pass a right answer and reject a planted wrong one.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chestkit import imaging, models, postproc, synthdata, tensor  # noqa: E402


# ---------------------------------------------------------------------------
# pipeline outputs against the ground truth


@pytest.fixture(scope="module")
def pipeline_case():
    sample = synthdata.gen_infection_set(synthdata.SynthSpec(count=1, size=64, seed=7))[0]
    out = postproc.run_pipeline(sample.image, postproc.OracleSegmenter(sample.lung_mask),
                                mode="lung")
    outputs = {"region": imaging.save_mask(out.region_mask),
               "infected": imaging.save_mask(out.infected_mask),
               "heatmap": imaging.save_image(out.heatmap),
               "report": postproc.report_to_text(out.report)}
    return sample, out, outputs


def _problems(sample, outputs):
    return checks.pipeline_problems("img", outputs, sample.image, sample.lung_mask,
                                    sample.infected_mask)


def test_pipeline_check_accepts_the_programs_right_answer(pipeline_case):
    sample, _, outputs = pipeline_case
    assert sample.infected_mask.any()
    assert _problems(sample, outputs) == []


def test_pipeline_check_rejects_a_report_one_pixel_off(pipeline_case):
    sample, out, outputs = pipeline_case
    report = out.report
    off = postproc.InfectionReport(report.lung_pixels, report.infected_pixels + 1,
                                   report.percent)
    bad = dict(outputs, report=postproc.report_to_text(off))
    assert _problems(sample, bad) == ["img: report differs from the ground truth"]


@pytest.mark.parametrize("key", ["region", "infected"])
def test_pipeline_check_rejects_a_mask_one_pixel_off(pipeline_case, key):
    sample, out, outputs = pipeline_case
    mask = (out.region_mask if key == "region" else out.infected_mask).copy()
    mask[0, 0] = ~mask[0, 0]
    bad = dict(outputs, **{key: imaging.save_mask(mask)})
    assert _problems(sample, bad) == [f"img: {key} differs from the ground truth"]


def test_pipeline_check_rejects_a_heatmap_one_level_off(pipeline_case):
    sample, out, outputs = pipeline_case
    heat = out.heatmap.copy()
    heat[0, 0, 1] ^= 1
    bad = dict(outputs, heatmap=imaging.save_image(heat))
    assert _problems(sample, bad) == ["img: heatmap differs from the ground truth"]


# ---------------------------------------------------------------------------
# gradients, losses and weight hashes


def test_gradient_check_rejects_a_gradient_scaled_by_1_01():
    assert checks.gradient_problems(0.0123, 0.0123 * (1 + 5e-4)) == []
    assert checks.gradient_problems(0.0123 * 1.01, 0.0123) != []
    assert checks.gradient_problems(float("nan"), 0.0123) != []


def test_gradient_check_on_a_desk_model_rejects_a_scaled_backward(monkeypatch):
    workload = workloads.make("seg-train", 3)
    workload.setup()
    assert workload.pre_checks() == []

    backward = tensor.Tape.backward

    def scaled(tape, loss):
        return {t: 1.01 * g for t, g in backward(tape, loss).items()}

    monkeypatch.setattr(tensor.Tape, "backward", scaled)
    problems = workload.pre_checks()
    assert len(problems) == 1 and problems[0].startswith("gradient check")


def test_loss_check_rejects_a_loss_that_does_not_fall():
    assert checks.loss_problems([0.7, 0.6, 0.5], must_fall=True) == []
    assert checks.loss_problems([0.7, 0.71], must_fall=True) != []
    assert checks.loss_problems([0.7, 0.71], must_fall=False) == []
    assert checks.loss_problems([0.7, float("inf")], must_fall=False) != []


def test_digest_check_rejects_a_hash_that_differs_between_rounds():
    assert checks.digest_problems(["ab", "ab", "ab"]) == []
    assert checks.digest_problems(["ab", "ab", "ac"]) != []


def test_training_rounds_hash_the_same_weights():
    workload = workloads.TrainingWorkload(
        "cls-train", workloads.TrainingSpec("xray-det-desk", count=32, epochs=2), 5)
    workload.setup()
    first, second = workload.round(), workload.round()
    assert first.problems == [] and second.problems == []
    assert first.digest == second.digest
    assert len(first.durations) == workload.steps == 2


# ---------------------------------------------------------------------------
# statistics and span arithmetic


def test_tail_needs_forty_samples_and_leaves_ten_beyond():
    assert checks.tail([1.0] * 39) is None
    pct, value = checks.tail([float(i) for i in range(40)])
    assert pct == 75.0 and value == 29.0


def test_calibrator_scales_by_the_mean_of_the_readings_around_an_operation():
    cal = calibration.Calibrator("interpreter")
    ref = cal.reference
    # probes read 1.5 and 2.5 reference times around an operation of 120
    # reference times: the machine ran at half speed, so it costs 60
    assert cal.scale(120 * ref, 1.5 * ref, 2.5 * ref) == pytest.approx(60 * ref)
    reading = cal.measure()
    assert reading > 0 and cal.readings == [reading]


@pytest.mark.parametrize("kind", ["array", "memory"])
def test_array_probes_allocate_nothing_on_the_heap(kind):
    probe = calibration.PROBES[kind][0]()
    probe()
    tracemalloc.start()
    try:
        probe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_self_time_subtracts_the_union_of_children():
    #   root [0,10]: a [1,4] (with grandchild [2,3]) and b [3,6] overlap,
    #   so the children cover [1,6] and root's self time is 5
    spans = [["root", 0.0, 10.0, -1, 0.0],
             ["a", 1.0, 4.0, 0, 0.0],
             ["g", 2.0, 3.0, 1, 0.0],
             ["b", 3.0, 6.0, 0, 0.0]]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 3.0]
    assert tracing.union_length([(0.0, 2.0), (5.0, 9.0)], 1.0, 6.0) == 2.0


def test_summarize_counts_only_spans_in_timed_windows():
    spans = [["tensor.conv2d", 1.0, 1.5, -1, 2.0 * tracing.MB],
             ["tensor.conv2d", 2.0, 2.25, -1, 2.0 * tracing.MB],
             ["tensor.conv2d", 9.0, 9.5, -1, 2.0 * tracing.MB],   # outside
             ["synthdata.gen", 20.0, 21.0, -1, 0.0]]
    metrics = tracing.summarize(spans, [(0.0, 3.0)], 2, [(19.0, 22.0)], 1)
    assert metrics["tensor.conv2d.fwd_s"]["value"] == 0.375
    assert metrics["tensor.conv2d.calls"]["value"] == 1.0
    assert metrics["tensor.out_mb"]["value"] == 2.0
    assert metrics["synthdata.gen_s"]["value"] == 1.0
    assert set(metrics) == set(tracing.PER_OP) | set(tracing.PER_SETUP)


def test_tracer_times_backward_under_tape_backward_and_uninstalls():
    original = tensor.conv2d
    tracer = tracing.Tracer()
    tracer.install()
    try:
        x = tensor.Tensor(np.ones((1, 4, 4)), requires_grad=True)
        k = tensor.Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        b = tensor.Tensor(np.zeros(1), requires_grad=True)
        with tensor.Tape() as tape:
            loss = tensor.sum_all(tensor.conv2d(x, k, b, padding=1))
        tape.backward(loss)
    finally:
        tracer.uninstall()
    assert tensor.conv2d is original and models.conv2d is original
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["tensor.conv2d", "tensor.sum_all"]
    backward = names.index("tensor.backward")
    conv_bwd = tracer.spans[names.index("tensor.conv2d.bwd")]
    assert conv_bwd[3] == backward
    assert tracer.spans[backward][4] == 2.0          # tape nodes
    assert tracer.spans[0][4] == 16 * 8              # output bytes
