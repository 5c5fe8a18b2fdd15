"""Confusion-matrix evaluation: per-class IoU, mIoU, and foreground FP/FN rates.

Rows index ground truth, columns predictions; gt pixels labeled -1 are
ignored.  The FP (FN) rate is the count of foreground false positives
(negatives) over all evaluated pixels, so both are small fractions on
mostly-background data.  Classes absent from both gt and prediction are
excluded from the mean rather than scored 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import LabelMap

__all__ = [
    "ConfusionMatrix",
    "EvalReport",
    "accumulate",
    "report",
    "evaluate_predictions",
    "report_text",
    "report_json",
    "per_class_fp_rows",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    """(C+1, C+1) pixel counts; rows = ground truth, cols = prediction."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or counts.shape[0] < 2:
            raise ValueError("confusion matrix must be square with >= 2 channels")
        if (counts < 0).any():
            raise ValueError("confusion counts must be non-negative")
        if counts.flags.writeable:
            counts = counts.copy()
            counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def empty(cls, num_classes: int) -> "ConfusionMatrix":
        return cls(np.zeros((num_classes + 1, num_classes + 1), dtype=np.int64))

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0] - 1

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if self.counts.shape != other.counts.shape:
            raise ValueError("confusion matrix shapes differ")
        return ConfusionMatrix(self.counts + other.counts)


def accumulate(cm: ConfusionMatrix, gt: LabelMap, pred: LabelMap) -> ConfusionMatrix:
    """Add one image's gt/pred pixel tally; gt == -1 pixels are skipped."""
    if gt.spatial_shape != pred.spatial_shape:
        raise ValueError(f"gt shape {gt.spatial_shape} != pred shape {pred.spatial_shape}")
    if pred.has_sentinel():
        raise ValueError("prediction must not contain -1")
    k = cm.num_classes + 1
    if gt.num_classes > cm.num_classes or pred.num_classes > cm.num_classes:
        raise ValueError("label num_classes exceeds confusion matrix size")
    valid = gt.data != -1
    flat = gt.data[valid].astype(np.int64) * k + pred.data[valid].astype(np.int64)
    tally = np.bincount(flat, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(cm.counts + tally)


@dataclass(frozen=True)
class EvalReport:
    per_class_iou: Mapping[int, float]
    miou: float
    fp_rate: float
    fn_rate: float
    per_class_fp: Mapping[int, float]


def report(cm: ConfusionMatrix) -> EvalReport:
    counts = cm.counts
    tp = np.diag(counts).astype(np.float64)
    gt_totals = counts.sum(axis=1).astype(np.float64)
    pred_totals = counts.sum(axis=0).astype(np.float64)
    fp = pred_totals - tp
    fn = gt_totals - tp
    union = tp + fp + fn

    per_class_iou = {
        int(c): float(tp[c] / union[c]) for c in range(counts.shape[0]) if union[c] > 0
    }
    miou = float(np.mean(list(per_class_iou.values()))) if per_class_iou else 0.0
    total = float(counts.sum())
    fp_rate = float(fp[1:].sum() / total) if total > 0 else 0.0
    fn_rate = float(fn[1:].sum() / total) if total > 0 else 0.0
    per_class_fp = {
        int(c): (float(fp[c] / total) if total > 0 else 0.0)
        for c in range(1, counts.shape[0])
    }
    return EvalReport(
        per_class_iou=per_class_iou,
        miou=miou,
        fp_rate=fp_rate,
        fn_rate=fn_rate,
        per_class_fp=per_class_fp,
    )


def evaluate_predictions(
    ground_truth: Mapping[str, LabelMap],
    predictions: Mapping[str, LabelMap],
    num_classes: int,
) -> EvalReport:
    """Accumulate over every image and report; both mappings must cover the
    same non-empty set of image ids."""
    unshared = sorted(set(ground_truth) ^ set(predictions))
    if unshared:
        lacking = "prediction" if unshared[0] in ground_truth else "ground truth"
        raise ValueError(
            f"image ids not shared between ground truth and predictions: "
            f"{unshared[0]} has no {lacking}"
        )
    if not ground_truth:
        raise ValueError("no image ids shared between ground truth and predictions")
    cm = ConfusionMatrix.empty(num_classes)
    for image_id in sorted(ground_truth):
        cm = accumulate(cm, ground_truth[image_id], predictions[image_id])
    return report(cm)


def report_text(rep: EvalReport) -> str:
    lines = [f"{'class':>8}  {'iou':>10}  {'fp_share':>10}"]
    for c in sorted(rep.per_class_iou):
        fp = rep.per_class_fp.get(c, 0.0)
        lines.append(f"{c:>8}  {rep.per_class_iou[c]:>10.6f}  {fp:>10.6f}")
    lines.append(f"{'miou':>8}  {rep.miou:>10.6f}")
    lines.append(f"{'fp_rate':>8}  {rep.fp_rate:>10.6f}")
    lines.append(f"{'fn_rate':>8}  {rep.fn_rate:>10.6f}")
    return "\n".join(lines)


def report_json(rep: EvalReport) -> str:
    payload = {
        "per_class_iou": {str(c): rep.per_class_iou[c] for c in sorted(rep.per_class_iou)},
        "miou": rep.miou,
        "fp_rate": rep.fp_rate,
        "fn_rate": rep.fn_rate,
        "per_class_fp": {str(c): rep.per_class_fp[c] for c in sorted(rep.per_class_fp)},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def per_class_fp_rows(rep: EvalReport) -> list[dict]:
    return [
        {"class_id": c, "fp_share": rep.per_class_fp[c]} for c in sorted(rep.per_class_fp)
    ]
