"""Train the desk-scale recurrent-residual classifier on synthetic chests.

Class 0 images are smooth radial-gradient backgrounds; class 1 adds
bright soft opacities.  A few epochs separate them completely.

Run:  python demos/demo_train_classifier.py   (about 5 s)
"""

from chestkit import SynthSpec, gen_classification_set, split_dataset, train
from chestkit.metrics import evaluate_classifier, metrics_to_text
from chestkit.models import build_model, param_count, save_weights
from chestkit.training import get_preset

corpus = gen_classification_set(SynthSpec(count=200, size=32, seed=1))
train_set, test_set = split_dataset(corpus, 0.8, seed=1)
print(f"{len(train_set)} training / {len(test_set)} test samples, "
      f"class counts {train_set.class_counts()}")

preset = get_preset("xray-det-desk", epochs=8, seed=1)
model = build_model(preset.model, seed=1)
print(f"classifier has {param_count(model):,} parameters at width 1/8")

_, history = train(model, train_set, preset.train)
for record in history:
    print(f"  epoch {record.epoch}: lr {record.lr:.0e} "
          f"loss {record.loss:.4f} train acc {record.metric:.3f}")

report = evaluate_classifier(model, test_set)
print("held-out metrics:")
print(metrics_to_text(report), end="")

save_weights(model.params, "classifier.cmtw")
print("weights saved to classifier.cmtw")
