"""Pseudo-label debiasing for weakly-supervised segmentation.

Pipeline: per-image spherical K-means over pixel embeddings builds class
centroid banks; centroids far from the dataset-wide background bank are
aggregated into one debiased centroid per class; a per-pixel similarity
threshold rewrites impostor foreground pixels to the -1 sentinel; a
teacher-student loop fills the sentinels back in with confidence-weighted
cross-entropy.
"""

from .core import (
    DatasetManifest,
    FeatureMap,
    ImageRecord,
    LabelMap,
    cosine_distance,
    cosine_similarity,
)
from .bank import Centroid, CentroidBank, build_centroid_bank, kmeans_spherical
from .selection import DebiasedCentroidSet, background_distance, select_debiased
from .debiasing import binarize, debias_label, similarity_map
from .trainloop import (
    SegHead,
    TrainConfig,
    TrainResult,
    complement_label,
    certainty_mask,
    ema_update,
    forward,
    teacher_label,
    train,
    wce_gradient,
    wce_loss,
)
from .evaluation import ConfusionMatrix, EvalReport, accumulate, report
from .synth import SynthConfig, SynthCorpus, generate, oracle_biased_pixels
from .pipeline import PipelineParams, run_pipeline, sweep

__version__ = "0.1.0"

__all__ = [
    "DatasetManifest",
    "FeatureMap",
    "ImageRecord",
    "LabelMap",
    "cosine_distance",
    "cosine_similarity",
    "Centroid",
    "CentroidBank",
    "build_centroid_bank",
    "kmeans_spherical",
    "DebiasedCentroidSet",
    "background_distance",
    "select_debiased",
    "binarize",
    "debias_label",
    "similarity_map",
    "SegHead",
    "TrainConfig",
    "TrainResult",
    "complement_label",
    "certainty_mask",
    "ema_update",
    "forward",
    "teacher_label",
    "train",
    "wce_gradient",
    "wce_loss",
    "ConfusionMatrix",
    "EvalReport",
    "accumulate",
    "report",
    "SynthConfig",
    "SynthCorpus",
    "generate",
    "oracle_biased_pixels",
    "PipelineParams",
    "run_pipeline",
    "sweep",
]
