"""In-memory orchestration of the full chain plus the sweep harness.

cluster -> select -> debias -> train -> evaluate, all pure functions of the
loaded corpus and a parameter bundle, so sweeps and ablations rerun the
chain cheaply without touching disk.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .analysis import selection_accuracy
from .bank import CentroidBank, build_centroid_bank
from .core import DatasetManifest, FeatureMap, LabelMap, number_field
from .debiasing import THRESHOLD_RANGE, debias_image
from .evaluation import EvalReport, check_ground_truth
from .selection import ALPHA_RANGE, DebiasedCentroidSet, select_debiased
from .trainloop import TrainConfig, TrainResult, train

__all__ = [
    "PipelineParams",
    "PipelineResult",
    "debias_all",
    "run_pipeline",
    "sweep",
]

# CLI flag -> PipelineParams field, for every flag that takes a hyperparameter value
FLAG_FIELDS = {
    "kfg": "k_fg",
    "kbg": "k_bg",
    "alpha": "alpha",
    "threshold": "threshold",
    "epochs": "epochs",
    "lr": "learning_rate",
    "ema": "ema_momentum",
    "seed": "seed",
}
SWEEPABLE = ("alpha", "kbg", "threshold")


@dataclass(frozen=True)
class PipelineParams(TrainConfig):
    """Every hyperparameter of the chain with its default and its range; the
    training fields and their checks come from TrainConfig."""

    k_fg: int = number_field(2, minimum=1)
    k_bg: int = number_field(2, minimum=1)
    alpha: float = number_field(0.40, **ALPHA_RANGE)
    threshold: float = number_field(0.30, **THRESHOLD_RANGE)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


@dataclass(frozen=True)
class PipelineResult:
    bank: CentroidBank
    centroid_set: DebiasedCentroidSet
    debiased: Mapping[str, LabelMap]
    train_result: TrainResult
    report: EvalReport


def debias_all(
    manifest: DatasetManifest,
    features: Mapping[str, FeatureMap],
    pseudo_labels: Mapping[str, LabelMap],
    centroid_set: DebiasedCentroidSet,
    threshold: float,
) -> dict[str, LabelMap]:
    """Every record's debiased label, in manifest order; the records are
    visited one at a time, so a lazy `features` holds one map at a time."""
    return {
        r.image_id: debias_image(
            r,
            features[r.image_id],
            pseudo_labels[r.image_id],
            centroid_set,
            threshold,
            embedding_dim=manifest.embedding_dim,
        )
        for r in manifest.records
    }


def run_pipeline(
    manifest: DatasetManifest,
    features: Mapping[str, FeatureMap],
    pseudo_labels: Mapping[str, LabelMap],
    params: PipelineParams,
    ground_truth: Mapping[str, LabelMap],
) -> PipelineResult:
    """cluster -> select -> debias -> train; the report is train's score of
    its final predictions.  The ground truth is held to
    `evaluation.check_ground_truth` against the pseudo labels before clustering."""
    pseudo = {r.image_id: pseudo_labels[r.image_id] for r in manifest.records}
    check_ground_truth(ground_truth, pseudo, manifest.num_classes)
    bank = build_centroid_bank(
        manifest,
        pseudo_labels,
        k_fg=params.k_fg,
        k_bg=params.k_bg,
        seed=params.seed,
        features=features,
    )
    centroid_set = select_debiased(bank, params.alpha)
    debiased = debias_all(manifest, features, pseudo_labels, centroid_set, params.threshold)
    result = train(
        manifest,
        debiased,
        params.train_config(),
        features=features,
        ground_truth=ground_truth,
    )
    return PipelineResult(
        bank=bank,
        centroid_set=centroid_set,
        debiased=debiased,
        train_result=result,
        report=result.report,
    )


def sweep(
    manifest: DatasetManifest,
    features: Mapping[str, FeatureMap],
    pseudo_labels: Mapping[str, LabelMap],
    ground_truth: Mapping[str, LabelMap],
    param: str,
    values: Sequence[float],
    base: PipelineParams,
) -> list[dict]:
    """One pipeline run per value; each row carries the value as the run used
    it (k_bg as an int), the final mIoU/FP/FN and the mean selection accuracy
    over classes.  The ground truth is checked as in `run_pipeline`, before any run."""
    if param not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {param!r}; choose from {SWEEPABLE}")
    pseudo = {r.image_id: pseudo_labels[r.image_id] for r in manifest.records}
    check_ground_truth(ground_truth, pseudo, manifest.num_classes)
    # build every run's parameters first, so an invalid value fails before any run
    runs = [replace(base, **{FLAG_FIELDS[param]: value}) for value in values]
    rows = []
    for params in runs:
        result = run_pipeline(manifest, features, pseudo_labels, params, ground_truth)
        acc = selection_accuracy(result.bank, params.alpha, features, pseudo_labels, ground_truth)
        rows.append(
            {
                "param": param,
                "value": getattr(params, FLAG_FIELDS[param]),
                "miou": result.report.miou,
                "fp_rate": result.report.fp_rate,
                "fn_rate": result.report.fn_rate,
                "selection_accuracy": float(np.mean(list(acc.values()))),
            }
        )
    return rows
