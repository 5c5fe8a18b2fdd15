"""Pseudo-label debiasing for weakly-supervised segmentation.

Pipeline: per-image spherical K-means over pixel embeddings builds class
centroid banks; centroids far from the dataset-wide background bank are
aggregated into one debiased centroid per class; a per-pixel similarity
threshold rewrites impostor foreground pixels to the -1 sentinel; a
teacher-student loop fills the sentinels back in with confidence-weighted
cross-entropy.
"""

from .core import DatasetManifest, FeatureMap, ImageRecord, LabelMap
from .bank import Centroid, CentroidBank, build_centroid_bank, kmeans_spherical
from .selection import DebiasedCentroidSet, select_debiased
from .trainloop import SegHead, TrainConfig, TrainResult, train
from .evaluation import EvalReport
from .synth import SynthConfig, SynthCorpus, generate
from .pipeline import PipelineParams, run_pipeline, sweep

__version__ = "0.1.0"

__all__ = [
    "DatasetManifest",
    "FeatureMap",
    "ImageRecord",
    "LabelMap",
    "Centroid",
    "CentroidBank",
    "build_centroid_bank",
    "kmeans_spherical",
    "DebiasedCentroidSet",
    "select_debiased",
    "SegHead",
    "TrainConfig",
    "TrainResult",
    "train",
    "EvalReport",
    "SynthConfig",
    "SynthCorpus",
    "generate",
    "PipelineParams",
    "run_pipeline",
    "sweep",
]
