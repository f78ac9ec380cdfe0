"""chestkit: chest-image classification, lung segmentation, and infection
quantification, self-contained on a numpy reverse-mode autodiff core.

The package trains a recurrent-residual convolutional classifier and an
encoder/three-decoder segmentation network on deterministic synthetic
corpora, refines predicted masks with classical morphology, extracts
infected pixels with local-mean adaptive thresholding, and reports the
infected share of the lung area truncated to two decimals.
"""

from .imaging import load_image, resize, save_image, to_grayscale
from .kvtext import TextFormatError
from .metrics import (
    MetricsReport,
    accuracy,
    dice,
    evaluate_classifier,
    evaluate_segmenter,
    iou,
    precision_recall_f1,
    roc_auc,
)
from .models import (
    IRRUConfig,
    ModelConfig,
    ParamStore,
    build_irrcnn,
    build_irru,
    build_nabla3,
    load_weights,
    param_count,
    recurrent_conv,
    save_weights,
)
from .postproc import (
    InfectionReport,
    OracleSegmenter,
    adaptive_threshold,
    apply_mask,
    binarize,
    close_mask,
    connected_components,
    dilate,
    erode,
    heatmap_overlay,
    infection_percentage,
    open_mask,
    run_pipeline,
    select_largest,
)
from .rng import DetRng
from .synthdata import (
    SynthSpec,
    gen_classification_set,
    gen_infection_set,
    gen_segmentation_set,
)
from .tensor import Tape, Tensor, he_init
from .training import (
    LabeledDataset,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    augment,
    balance_classes,
    cross_entropy_loss,
    dice_loss,
    lr_schedule,
    minmax_normalize,
    split_dataset,
    train,
    transfer_init,
)

__version__ = "0.1.0"
