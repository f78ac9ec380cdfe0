"""Transfer learning: a donor pretrained on one synthetic task reaches 90%
on a related task in fewer epochs than training from scratch.

Run:  python demos/demo_transfer_learning.py   (about 20 s)
"""

from chestkit import SynthSpec, gen_classification_set, split_dataset, train, transfer_init
from chestkit.metrics import evaluate_classifier
from chestkit.models import ModelConfig, build_model
from chestkit.training import TrainConfig

CONFIG = ModelConfig("irrcnn", (1, 32, 32), width_scale=0.125, num_classes=2)

# task A: plentiful, strong opacities
task_a = gen_classification_set(SynthSpec(count=400, size=32, seed=100))
donor = build_model(CONFIG, seed=50)
train(donor, task_a, TrainConfig(base_lr=1e-3, batch_size=32, epochs=10, seed=50))
print("donor trained on task A")

# task B: scarce, fainter opacities
task_b = gen_classification_set(SynthSpec(count=80, size=32, seed=200,
                                          blob_count=(1, 2), blob_amplitude=45.0))
train_b, test_b = split_dataset(task_b, 0.8, seed=200)


def epochs_to_reach_90(model, seed):
    accuracies = []
    train(model, train_b,
          TrainConfig(base_lr=1e-3, batch_size=16, epochs=15, seed=seed),
          on_epoch_end=lambda e, m: accuracies.append(
              evaluate_classifier(m, test_b).accuracy))
    for epoch, acc in enumerate(accuracies, start=1):
        if acc >= 0.90:
            return epoch
    return None


seed = 1
warm = build_model(CONFIG, seed=seed)
transfer_init(warm, donor.params, reinit_head=True, seed=seed)
cold = build_model(CONFIG, seed=seed)

warm_epochs = epochs_to_reach_90(warm, seed)
cold_epochs = epochs_to_reach_90(cold, seed)
print(f"epochs to 90% on task B: transferred {warm_epochs}, "
      f"from scratch {cold_epochs or '>15'}")
