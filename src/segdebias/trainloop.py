"""Student/teacher training on complemented labels.

The segmentation head is a per-pixel linear softmax over the embedding
vectors with an explicit background channel 0.  Each step the teacher fills
the -1 pixels of the debiased label with its own prediction, a certainty
mask down-weights those filled pixels by the teacher's confidence, and the
student takes one gradient-descent step on the weighted cross-entropy before
the teacher absorbs it through an exponential moving average.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from . import formats
from .core import DatasetManifest, FeatureMap, LabelMap
from .evaluation import ConfusionMatrix, accumulate, report

logger = logging.getLogger(__name__)

LOG_CLAMP = 1e-12

__all__ = [
    "SegHead",
    "TrainConfig",
    "EpochMetrics",
    "TrainResult",
    "forward",
    "teacher_label",
    "certainty_mask",
    "complement_label",
    "wce_loss",
    "wce_gradient",
    "ema_update",
    "train",
    "write_metrics_csv",
]


@dataclass(frozen=True)
class SegHead:
    """Linear softmax head: (C+1, D) weights and a (C+1,) bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        if weights.ndim != 2 or bias.ndim != 1 or bias.shape[0] != weights.shape[0]:
            raise ValueError("head must be (C+1, D) weights with a (C+1,) bias")
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ValueError("head parameters must be finite")
        for arr, name in ((weights, "weights"), (bias, "bias")):
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def initialize(cls, num_classes: int, embedding_dim: int, rng, scale: float = 0.01) -> "SegHead":
        """Small random weights, zero bias; rng may be a seed or a Generator."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        weights = rng.normal(0.0, scale, size=(num_classes + 1, embedding_dim))
        return cls(weights=weights, bias=np.zeros(num_classes + 1))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    learning_rate: float = 1e-3
    ema_momentum: float = 0.99
    seed: int = 0
    complement: bool = True
    certainty_weighting: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if not (0.0 <= self.ema_momentum < 1.0):
            raise ValueError("ema_momentum must lie in [0, 1)")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    loss: float
    miou: Optional[float] = None
    fp_rate: Optional[float] = None
    fn_rate: Optional[float] = None


@dataclass(frozen=True)
class TrainResult:
    teacher: SegHead
    student: SegHead
    metrics: tuple[EpochMetrics, ...]
    predictions: Mapping[str, LabelMap]


def forward(head: SegHead, fmap: FeatureMap) -> np.ndarray:
    """Per-pixel softmax probabilities, shape (C+1, H, W), channel 0 = background."""
    if head.embedding_dim != fmap.embedding_dim:
        raise ValueError(
            f"head dim {head.embedding_dim} != feature dim {fmap.embedding_dim}"
        )
    logits = np.tensordot(head.weights, fmap.data.astype(np.float64), axes=([1], [0]))
    logits += head.bias[:, None, None]
    logits -= logits.max(axis=0, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0, keepdims=True)
    return logits


def teacher_label(probs: np.ndarray, truth_classes: Iterable[int]) -> LabelMap:
    """Argmax restricted to {0} plus the truth classes, ties to the smallest index."""
    probs = np.asarray(probs)
    num_classes = probs.shape[0] - 1
    allowed = [0] + sorted(
        {int(c) for c in truth_classes if 1 <= int(c) <= num_classes}
    )
    sub = probs[allowed]
    winners = np.argmax(sub, axis=0)
    labels = np.asarray(allowed, dtype=np.int16)[winners]
    return LabelMap(labels, num_classes)


def certainty_mask(
    ydb: LabelMap, teacher_probs: np.ndarray, truth_classes: Iterable[int]
) -> np.ndarray:
    """1 on decided pixels; the teacher's max foreground-truth probability on
    sentinel pixels.  Background channel 0 never contributes."""
    teacher_probs = np.asarray(teacher_probs, dtype=np.float64)
    if teacher_probs.shape[1:] != ydb.spatial_shape:
        raise ValueError("probability map and label dims differ")
    num_classes = teacher_probs.shape[0] - 1
    fg = sorted({int(c) for c in truth_classes})
    if any(c < 1 or c > num_classes for c in fg):
        raise ValueError(f"truth classes must lie in [1, {num_classes}]")
    if not fg:
        raise ValueError("truth_classes must be non-empty")
    confidence = teacher_probs[fg].max(axis=0)
    return np.where(ydb.data == -1, confidence, 1.0)


def complement_label(ydb: LabelMap, yte: LabelMap) -> LabelMap:
    """Fill sentinel pixels with the teacher's label; everything else is kept."""
    if yte.spatial_shape != ydb.spatial_shape:
        raise ValueError("label dims differ")
    if yte.has_sentinel():
        raise ValueError("teacher label must not contain -1")
    out = np.where(ydb.data == -1, yte.data, ydb.data).astype(np.int16)
    return LabelMap(out, ydb.num_classes)


def _picked_probs(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    h, w = labels.shape
    return probs[labels, np.arange(h)[:, None], np.arange(w)[None, :]]


def wce_loss(probs: np.ndarray, yco: LabelMap, weights: np.ndarray) -> float:
    """Sum over pixels of w * -log p(assigned class); log clamped at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if yco.has_sentinel():
        raise ValueError("complemented label must not contain -1")
    if probs.shape[1:] != yco.spatial_shape or weights.shape != yco.spatial_shape:
        raise ValueError("probability map, label, and weight dims differ")
    picked = _picked_probs(probs, yco.data.astype(np.int64))
    return float(np.sum(weights * -np.log(np.maximum(picked, LOG_CLAMP))))


def _head_gradient(
    probs: np.ndarray, fmap: FeatureMap, yco: LabelMap, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    grad_logits = np.array(probs, dtype=np.float64)
    labels = yco.data.astype(np.int64)
    h, w = labels.shape
    grad_logits[labels, np.arange(h)[:, None], np.arange(w)[None, :]] -= 1.0
    grad_logits *= np.asarray(weights, dtype=np.float64)
    grad_w = np.tensordot(grad_logits, fmap.data.astype(np.float64), axes=([1, 2], [1, 2]))
    grad_b = grad_logits.sum(axis=(1, 2))
    return grad_w, grad_b


def wce_gradient(
    head: SegHead, fmap: FeatureMap, yco: LabelMap, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of wce_loss w.r.t. (weights, bias) through the softmax."""
    return _head_gradient(forward(head, fmap), fmap, yco, weights)


def ema_update(teacher: SegHead, student: SegHead, momentum: float) -> SegHead:
    """teacher' = momentum * teacher + (1 - momentum) * student, element-wise."""
    if not (0.0 <= momentum < 1.0):
        raise ValueError("momentum must lie in [0, 1)")
    if teacher.weights.shape != student.weights.shape:
        raise ValueError("teacher and student shapes differ")
    return SegHead(
        weights=momentum * teacher.weights + (1.0 - momentum) * student.weights,
        bias=momentum * teacher.bias + (1.0 - momentum) * student.bias,
    )


def _excluded_sentinel_target(ydb: LabelMap) -> tuple[LabelMap, np.ndarray]:
    """No-complement ablation: sentinel pixels get weight 0 and a dummy class."""
    weights = (ydb.data != -1).astype(np.float64)
    labels = np.where(ydb.data == -1, 0, ydb.data).astype(np.int16)
    return LabelMap(labels, ydb.num_classes), weights


def train(
    manifest: DatasetManifest,
    debiased_labels: Mapping[str, LabelMap],
    config: TrainConfig,
    *,
    features: Optional[Mapping[str, FeatureMap]] = None,
    ground_truth: Optional[Mapping[str, LabelMap]] = None,
) -> TrainResult:
    """Run the full teacher-student loop and return the final heads.

    Image order is a seeded shuffle per epoch; with epochs == 0 the
    initialized head is returned untouched.  Per-epoch mIoU/FP/FN are logged
    whenever ground truth covers every record.
    """
    if features is None:
        features = formats.load_features(manifest)
    if ground_truth is None:
        ground_truth = formats.load_ground_truth(manifest)
    for record in manifest.records:
        if record.image_id not in debiased_labels:
            raise ValueError(f"missing debiased label for {record.image_id}")

    rng = np.random.default_rng(config.seed)
    student = SegHead.initialize(manifest.num_classes, manifest.embedding_dim, rng)
    teacher = student
    records = manifest.records
    have_gt = all(r.image_id in ground_truth for r in records) and len(records) > 0

    metrics: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(records))
        epoch_loss = 0.0
        for idx in order:
            record = records[int(idx)]
            fmap = features[record.image_id]
            ydb = debiased_labels[record.image_id]
            if config.complement:
                teacher_probs = forward(teacher, fmap)
                yte = teacher_label(teacher_probs, record.truth_classes)
                yco = complement_label(ydb, yte)
                if config.certainty_weighting:
                    weights = certainty_mask(ydb, teacher_probs, record.truth_classes)
                else:
                    weights = np.ones(ydb.spatial_shape, dtype=np.float64)
            else:
                yco, weights = _excluded_sentinel_target(ydb)

            probs = forward(student, fmap)
            loss = wce_loss(probs, yco, weights)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss {loss} at epoch {epoch}, image {record.image_id}"
                )
            grad_w, grad_b = _head_gradient(probs, fmap, yco, weights)
            student = SegHead(
                weights=student.weights - config.learning_rate * grad_w,
                bias=student.bias - config.learning_rate * grad_b,
            )
            teacher = ema_update(teacher, student, config.ema_momentum)
            epoch_loss += loss

        if have_gt:
            cm = ConfusionMatrix.empty(manifest.num_classes)
            for record in records:
                pred = teacher_label(forward(teacher, features[record.image_id]), record.truth_classes)
                cm = accumulate(cm, ground_truth[record.image_id], pred)
            rep = report(cm)
            metrics.append(
                EpochMetrics(epoch, epoch_loss, rep.miou, rep.fp_rate, rep.fn_rate)
            )
        else:
            metrics.append(EpochMetrics(epoch, epoch_loss))

    predictions = {
        r.image_id: teacher_label(forward(teacher, features[r.image_id]), r.truth_classes)
        for r in records
    }
    return TrainResult(
        teacher=teacher, student=student, metrics=tuple(metrics), predictions=predictions
    )


def write_metrics_csv(path, metrics: Iterable[EpochMetrics]) -> None:
    formats.write_csv(
        path,
        ["epoch", "loss", "miou", "fp", "fn"],
        (
            {
                "epoch": m.epoch,
                "loss": repr(m.loss),
                "miou": "" if m.miou is None else repr(m.miou),
                "fp": "" if m.fp_rate is None else repr(m.fp_rate),
                "fn": "" if m.fn_rate is None else repr(m.fn_rate),
            }
            for m in metrics
        ),
    )
