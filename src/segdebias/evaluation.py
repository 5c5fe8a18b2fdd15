"""Confusion-matrix evaluation: per-class IoU, mIoU, and foreground FP/FN rates.

`check_ground_truth` is the one statement of what valid ground truth is, for
every stage that scores against it: it covers exactly the scored images, each
map has the shape of the label it scores, and none declares more classes than
the manifest.  `run_pipeline` and `sweep` check it against the pseudo labels
before clustering, `train` against the debiased labels before the first step,
and `evaluate_predictions` against the predictions.

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
    "EvalReport",
    "evaluate_predictions",
    "check_ground_truth",
    "report_text",
    "report_json",
    "per_class_fp_rows",
]


def _tally(gt: LabelMap, pred: LabelMap, num_classes: int) -> np.ndarray:
    """One image's (C+1, C+1) gt/pred pixel counts; gt == -1 pixels are skipped.
    The ground truth must already hold to `check_ground_truth`."""
    if pred.has_sentinel():
        raise ValueError("prediction must not contain -1")
    if pred.num_classes > num_classes:
        raise ValueError(
            f"prediction num_classes {pred.num_classes} exceeds manifest num_classes {num_classes}"
        )
    k = num_classes + 1
    return _pair_counts(_truth_codes(gt.data, k), pred.data, k).reshape(k, k)


def _truth_codes(gt: np.ndarray, k: int) -> np.ndarray:
    """Each pixel's gt * k, flat, with the gt == -1 pixels sent to k * k, the
    row of bins past the k*k pairs.  int16 while every bin fits (k <= 180), so a
    record's codes cost 2 bytes a pixel."""
    dtype = np.int16 if k * (k + 1) <= np.iinfo(np.int16).max + 1 else np.int64
    codes = np.multiply(gt.ravel(), k, dtype=dtype)
    codes[gt.ravel() == -1] = k * k
    return codes


def _pair_counts(codes: np.ndarray, pred: np.ndarray, k: int) -> np.ndarray:
    """The flat (k*k,) count of gt/pred value pairs, from `_truth_codes` and a
    prediction in [0, k) per pixel, over the pixels where gt != -1; the one
    counting kernel behind every score."""
    return np.bincount(codes + pred.ravel(), minlength=k * (k + 1))[: k * k]


@dataclass(frozen=True)
class EvalReport:
    per_class_iou: Mapping[int, float]
    miou: float
    fp_rate: float
    fn_rate: float
    per_class_fp: Mapping[int, float]


def _report(counts: np.ndarray) -> EvalReport:
    """Scores from a (C+1, C+1) count matrix; rows = ground truth, cols = prediction."""
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


def check_ground_truth(
    ground_truth: Mapping[str, LabelMap], labels: Mapping[str, LabelMap], num_classes: int
) -> None:
    """The ground-truth contract: ground truth and `labels`, the labels a stage
    scores or ties to its feature maps, share a non-empty set of image ids; each
    ground-truth map has its label's shape; and none declares more than
    `num_classes` classes.  A ValueError names the first image that breaks it."""
    unshared = sorted(set(ground_truth) ^ set(labels))
    if unshared:
        lacking = "prediction" if unshared[0] in ground_truth else "ground truth"
        raise ValueError(
            f"{unshared[0]} has no {lacking}; every image id must be shared by "
            f"ground truth and predictions"
        )
    if not ground_truth:
        raise ValueError("no image ids shared between ground truth and predictions")
    for image_id in sorted(ground_truth):
        gt, shape = ground_truth[image_id], labels[image_id].spatial_shape
        if gt.spatial_shape != shape:
            breach = f"shape {gt.spatial_shape} != label shape {shape}"
        elif gt.num_classes > num_classes:
            breach = f"num_classes {gt.num_classes} exceeds manifest num_classes {num_classes}"
        else:
            continue
        raise ValueError(f"{image_id}: ground truth {breach}")


def evaluate_predictions(
    ground_truth: Mapping[str, LabelMap],
    predictions: Mapping[str, LabelMap],
    num_classes: int,
) -> EvalReport:
    """Accumulate over every image and report; the ground truth must hold to
    `check_ground_truth` against the predictions."""
    check_ground_truth(ground_truth, predictions, num_classes)
    counts = np.zeros((num_classes + 1, num_classes + 1), dtype=np.int64)
    for image_id in sorted(ground_truth):
        try:
            counts += _tally(ground_truth[image_id], predictions[image_id], num_classes)
        except ValueError as exc:
            raise ValueError(f"{image_id}: {exc}") from None
    return _report(counts)


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
