"""patchbag: multi-head gated patch attention for multi-tag bag classification.

A desk-scale numpy stack: the gated / scaled-dot-product attention model
with per-task attention pooling, each layer an array function with a
hand-written backward, chained into one backward per bag or stack of bags;
a synthetic patch-bag generator, an image preprocessing path (Otsu
masking, patch sampling, augmentation, featurizing), multi-task training
with one lambda-weighted cross-entropy loss and Adam, Macro/Micro F1
evaluation, and attention-ranking export.
"""

from .autodiff import Tensor, backward
from .bagio import read_bags, write_bags
from .metrics import MetricsReport, build_report, task_metrics
from .model import (
    DEFAULT_SCHEMA,
    AttentionRecord,
    ModelDims,
    ModelParams,
    TagSchema,
    forward,
    head_attention,
    load_checkpoint,
    patch_transform,
    predict_probs,
    predict_tag,
    save_checkpoint,
    sdpa_transform,
    tag_attention,
)
from .preprocess import (
    FeaturizerParams,
    OtsuResult,
    PatchImage,
    augment,
    featurize,
    foreground_mask,
    gray_histogram,
    otsu_threshold,
    read_pnm,
    sample_patches,
    to_grayscale,
    write_pnm,
)
from .synth import (
    CorrelationRule,
    PatchBag,
    SynthConfig,
    generate,
    generate_with_trace,
    split,
)
from .training import (
    Adam,
    TrainConfig,
    TrainResult,
    evaluate,
    export_attention,
    multi_task_loss,
    train,
    write_history_csv,
)

__version__ = "0.1.0"
