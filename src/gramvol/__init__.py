"""Volume-based similarity and contrastive alignment for multimodal embeddings."""

from . import errors
from .encoders import ToyEncoder
from .losses import (
    DamHead,
    LossReport,
    Temperature,
    gram_contrastive_loss,
    hard_negative_mine,
    loss_report,
    total_loss,
)
from .metrics import (
    AlignmentScore,
    alignment_metric,
    pearson,
    retrieval_recall,
)
from .optim import AdamState, adam_step
from .similarity import (
    ModalityBatch,
    MultimodalBatch,
    cross_volume_matrix,
    cross_volumes,
)
from .synth import MultimodalDataset, SyntheticSpec, generate_dataset, split_dataset
from .train import (
    EvalStats,
    TraceRow,
    TrainConfig,
    TrainingTrace,
    TrainResult,
    cosine_pairwise_report,
    evaluate,
    train,
)
from .volume import (
    Volume,
    VolumeGradient,
    gramian_volume,
    normalize,
    volume_gradient,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AlignmentScore",
    "DamHead",
    "EvalStats",
    "LossReport",
    "ModalityBatch",
    "MultimodalBatch",
    "MultimodalDataset",
    "SyntheticSpec",
    "Temperature",
    "ToyEncoder",
    "TraceRow",
    "TrainConfig",
    "TrainResult",
    "TrainingTrace",
    "Volume",
    "VolumeGradient",
    "adam_step",
    "alignment_metric",
    "cosine_pairwise_report",
    "cross_volume_matrix",
    "cross_volumes",
    "errors",
    "evaluate",
    "generate_dataset",
    "gram_contrastive_loss",
    "gramian_volume",
    "hard_negative_mine",
    "loss_report",
    "normalize",
    "pearson",
    "retrieval_recall",
    "split_dataset",
    "total_loss",
    "train",
    "volume_gradient",
]
