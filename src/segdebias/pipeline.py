"""In-memory orchestration of the full chain plus the sweep harness.

cluster -> select -> debias -> train -> evaluate, all pure functions of the
loaded corpus and a parameter bundle, so sweeps and ablations rerun the
chain cheaply without touching disk.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .analysis import selection_accuracy
from .bank import CentroidBank, build_centroid_bank
from .core import DatasetManifest, FeatureMap, LabelMap
from .debiasing import debias_image
from .evaluation import EvalReport, evaluate_predictions
from .selection import DebiasedCentroidSet, select_debiased
from .trainloop import TrainConfig, TrainResult, train

__all__ = ["PipelineParams", "PipelineResult", "debias_all", "run_pipeline", "sweep"]

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

    k_fg: int = 2
    k_bg: int = 2
    alpha: float = 0.40
    threshold: float = 0.30

    def __post_init__(self) -> None:
        super().__post_init__()
        self._set_whole("k_fg", 1)
        self._set_whole("k_bg", 1)
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (0.0 <= self.threshold <= 1.0):
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


@dataclass(frozen=True)
class PipelineResult:
    bank: CentroidBank
    centroid_set: DebiasedCentroidSet
    debiased: Mapping[str, LabelMap]
    train_result: TrainResult
    report: Optional[EvalReport]


def debias_all(
    manifest: DatasetManifest,
    features: Mapping[str, FeatureMap],
    pseudo_labels: Mapping[str, LabelMap],
    centroid_set: DebiasedCentroidSet,
    threshold: float,
) -> dict[str, LabelMap]:
    return {
        r.image_id: debias_image(
            features[r.image_id],
            pseudo_labels[r.image_id],
            centroid_set,
            r.truth_classes,
            threshold,
        )
        for r in manifest.records
    }


def run_pipeline(
    manifest: DatasetManifest,
    features: Mapping[str, FeatureMap],
    pseudo_labels: Mapping[str, LabelMap],
    params: PipelineParams,
    ground_truth: Optional[Mapping[str, LabelMap]] = None,
) -> PipelineResult:
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
        ground_truth=ground_truth or {},
    )
    rep = None
    if ground_truth:
        rep = evaluate_predictions(ground_truth, result.predictions, manifest.num_classes)
    return PipelineResult(
        bank=bank,
        centroid_set=centroid_set,
        debiased=debiased,
        train_result=result,
        report=rep,
    )


def sweep(
    manifest: DatasetManifest,
    features: Mapping[str, FeatureMap],
    pseudo_labels: Mapping[str, LabelMap],
    ground_truth: Optional[Mapping[str, LabelMap]],
    param: str,
    values: Sequence[float],
    base: Optional[PipelineParams] = None,
) -> list[dict]:
    """One pipeline run per value; rows carry final mIoU/FP/FN and, when
    ground truth is available, the mean selection accuracy over classes."""
    if param not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {param!r}; choose from {SWEEPABLE}")
    base = base or PipelineParams()
    # build every run's parameters first, so an invalid value fails before any run
    runs = [(value, replace(base, **{FLAG_FIELDS[param]: value})) for value in values]
    rows = []
    for value, params in runs:
        result = run_pipeline(manifest, features, pseudo_labels, params, ground_truth)
        row: dict = {"param": param, "value": value}
        if result.report is not None:
            row["miou"] = result.report.miou
            row["fp_rate"] = result.report.fp_rate
            row["fn_rate"] = result.report.fn_rate
        else:
            row["miou"] = row["fp_rate"] = row["fn_rate"] = ""
        if ground_truth:
            acc = selection_accuracy(
                result.bank, params.alpha, features, pseudo_labels, ground_truth
            )
            row["selection_accuracy"] = float(np.mean(list(acc.values()))) if acc else ""
        else:
            row["selection_accuracy"] = ""
        rows.append(row)
    return rows
