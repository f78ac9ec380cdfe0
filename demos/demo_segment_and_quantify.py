"""End-to-end: segment lungs, refine, find infected pixels, quantify.

Trains the desk segmenter on synthetic infection images, then runs the
full classical chain and compares the reported infection percentage with
the exact ground truth.

Run:  python demos/demo_segment_and_quantify.py   (about 5 s)
"""

from pathlib import Path

from chestkit import SynthSpec, gen_infection_set, train
from chestkit.imaging import save_image
from chestkit.models import build_model
from chestkit.postproc import OracleSegmenter, run_pipeline
from chestkit.training import LabeledDataset, get_preset

train_samples = gen_infection_set(SynthSpec(count=60, size=64, seed=2))
eval_samples = gen_infection_set(SynthSpec(count=8, size=64, seed=3))

# ground truth drives the pipeline exactly: injected GT masks reproduce
# the stored reports bit for bit
sample = eval_samples[0]
oracle = run_pipeline(sample.image, OracleSegmenter(sample.lung_mask), mode="lung")
print(f"oracle pipeline: reported {oracle.report.percent_text}% "
      f"vs ground truth {sample.report.percent_text}%")

# now the same chain behind a trained segmenter
preset = get_preset("seg-desk", epochs=10, seed=2)
model = build_model(preset.model, seed=2)
ds = LabeledDataset(images=[s.image for s in train_samples],
                    masks=[s.lung_mask for s in train_samples])
_, history = train(model, ds, preset.train)
print(f"segmenter trained; final epoch soft dice {history[-1].metric:.3f}")

out = Path("quantified")
out.mkdir(exist_ok=True)
for i, s in enumerate(eval_samples):
    result = run_pipeline(s.image, model, mode="lung")
    err = abs(result.report.percent - s.report.percent)
    print(f"  sample {i}: reported {result.report.percent_text}% "
          f"(truth {s.report.percent_text}%, off by {err:.2f} points)")
    (out / f"{i}_heatmap.ppm").write_bytes(save_image(result.heatmap))
print(f"heatmaps written under {out}/")
