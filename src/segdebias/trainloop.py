"""Student/teacher training on complemented labels.

The segmentation head is a per-pixel linear softmax over the embedding
vectors with an explicit background channel 0.  Each step the teacher fills
the -1 pixels of the debiased label with its own prediction, a certainty
mask down-weights those filled pixels by the teacher's confidence, and the
student takes one gradient-descent step on the weighted cross-entropy before
the teacher absorbs it through an exponential moving average.  The teacher
is read only on the -1 pixels, so its softmax runs on those columns alone.
Each scored epoch labels every image with the teacher once and adds the
labels to one confusion count, from which the epoch's metrics come.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import formats
from .core import DatasetManifest, FeatureMap, LabelMap, _frozen_array, check_image
from . import evaluation
from .evaluation import EvalReport

LOG_CLAMP = 1e-12

__all__ = [
    "SegHead",
    "TrainConfig",
    "EpochMetrics",
    "TrainResult",
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
        _require_finite(weights, bias)
        object.__setattr__(self, "weights", _frozen_array(weights))
        object.__setattr__(self, "bias", _frozen_array(bias))

    @classmethod
    def initialize(
        cls, num_classes: int, embedding_dim: int, rng: np.random.Generator
    ) -> "SegHead":
        """Small random weights, zero bias."""
        weights = rng.normal(0.0, 0.01, size=(num_classes + 1, embedding_dim))
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
        self._set_whole("epochs", 0)
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not (0.0 <= self.ema_momentum < 1.0):
            raise ValueError(f"ema_momentum must lie in [0, 1), got {self.ema_momentum}")
        self._set_whole("seed", 0)

    def _set_whole(self, name: str, minimum: int) -> None:
        """Store the field as an int; it must be a whole number >= minimum."""
        value = getattr(self, name)
        if not (float(value).is_integer() and value >= minimum):
            raise ValueError(f"{name} must be a whole number >= {minimum}, got {value}")
        object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    loss: float
    miou: Optional[float] = None
    fp_rate: Optional[float] = None
    fn_rate: Optional[float] = None


@dataclass(frozen=True)
class TrainResult:
    """The final teacher, the per-epoch metrics, the teacher's predictions and
    their score; the report is None only when training had no ground truth."""

    teacher: SegHead
    metrics: tuple[EpochMetrics, ...]
    predictions: Mapping[str, LabelMap]
    report: Optional[EvalReport]


def _flat64(fmap: FeatureMap) -> np.ndarray:
    """The map's one float64 cast, as a (D, H*W) array."""
    return fmap.data.reshape(fmap.embedding_dim, -1).astype(np.float64)


def _softmax(weights: np.ndarray, bias: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """(C+1, N) softmax of weights @ flat + bias over the channel axis."""
    return _normalize(np.dot(weights, flat), bias)


def _normalize(logits: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Softmax of logits + bias over the channel axis, in place.  Each column
    is worked on alone, so normalising a C-ordered copy of some columns gives
    those columns of the whole."""
    logits += bias[:, None]
    logits -= logits.max(axis=0, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0, keepdims=True)
    return logits


def _gradient(
    probs: np.ndarray, flat: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradient of the weighted cross-entropy; overwrites probs,
    which must be C-ordered, as `_softmax` returns it."""
    np.subtract.at(probs.reshape(-1), _picks(labels), 1.0)
    probs *= weights
    return np.dot(probs, flat.T), probs.sum(axis=1)


def _wce(probs: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> float:
    """Sum over pixels of w * -log p(assigned class); log clamped at 1e-12."""
    picked = probs.take(_picks(labels))
    return float(np.sum(weights * -np.log(np.maximum(picked, LOG_CLAMP))))


def _picks(labels: np.ndarray) -> np.ndarray:
    """The flat indices of the entries (labels[j], j) of a C-ordered (C+1, N) array."""
    picks = np.multiply(labels, labels.size, dtype=np.intp)
    picks += _columns(labels.size)
    return picks


@functools.lru_cache(maxsize=8)
def _columns(n: int) -> np.ndarray:
    """arange(n), read-only and shared by every image of n pixels."""
    columns = np.arange(n)
    columns.setflags(write=False)
    return columns


def _restricted_argmax(probs: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per-pixel argmax over the allowed channels, ties to the smallest index."""
    return allowed[np.argmax(probs[allowed], axis=0)]


def _require_finite(weights: np.ndarray, bias: np.ndarray) -> None:
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValueError("head parameters must be finite")


@dataclass(frozen=True, slots=True)
class _Target:
    """What one record contributes to every step besides its map: its flat
    debiased label, the flat indices of its -1 pixels, and the class sets the
    teacher may use."""

    image_id: str
    labels: np.ndarray
    sentinel: np.ndarray
    allowed: np.ndarray
    foreground: list[int]


def _targets(
    manifest: DatasetManifest,
    debiased_labels: Mapping[str, LabelMap],
    features: Mapping[str, FeatureMap],
    truth: Mapping[str, LabelMap],
) -> list[_Target]:
    """Check every record, and its ground truth if there is any, once and
    precompute its per-step constants.  No map is kept: each step and each
    teacher pass looks its map up again."""
    targets = []
    for record in manifest.records:
        if record.image_id not in debiased_labels:
            raise ValueError(f"missing debiased label for {record.image_id}")
        fmap = features[record.image_id]
        ydb = debiased_labels[record.image_id]
        check_image(record, fmap, ydb, manifest.embedding_dim)
        if truth:
            _check_truth(record.image_id, truth[record.image_id], fmap, manifest.num_classes)
        # ImageRecord and DatasetManifest keep truth classes non-empty and in [1, C]
        foreground = sorted(record.truth_classes)
        labels = ydb.data.ravel()
        targets.append(
            _Target(
                image_id=record.image_id,
                labels=labels,
                sentinel=np.flatnonzero(labels == -1),
                allowed=np.asarray([0] + foreground, dtype=np.int16),
                foreground=foreground,
            )
        )
    return targets


def _check_truth(image_id: str, gt: LabelMap, fmap: FeatureMap, num_classes: int) -> None:
    """The ground truth fits the map and the manifest's classes."""
    if gt.spatial_shape != fmap.spatial_shape:
        raise ValueError(
            f"{image_id}: ground truth shape {gt.spatial_shape} != feature shape "
            f"{fmap.spatial_shape}"
        )
    if gt.num_classes > num_classes:
        raise ValueError(
            f"{image_id}: ground truth num_classes {gt.num_classes} exceeds manifest "
            f"num_classes {num_classes}"
        )


def _teacher_pass(
    weights: np.ndarray,
    bias: np.ndarray,
    targets: Sequence[_Target],
    features: Mapping[str, FeatureMap],
    truth: Mapping[str, LabelMap],
    num_classes: int,
    keep: bool,
) -> tuple[Optional[dict[str, LabelMap]], Optional[EvalReport]]:
    """Label every image with the teacher once.  The labels are added to one
    confusion count when there is ground truth, and kept as the predictions
    only when `keep`; the report scores exactly these labels."""
    k = num_classes + 1
    counts = np.zeros(k * k, dtype=np.int64)
    predictions = {} if keep else None
    for t in targets:
        fmap = features[t.image_id]
        probs = _softmax(weights, bias, _flat64(fmap))
        labels = _restricted_argmax(probs, t.allowed).reshape(fmap.spatial_shape)
        if truth:
            counts += evaluation._pair_counts(truth[t.image_id].data, labels, k)
        if keep:
            predictions[t.image_id] = LabelMap(labels, num_classes)
    report = evaluation._report(counts.reshape(k, k)) if truth else None
    return predictions, report


def _step(
    t: _Target,
    fmap: FeatureMap,
    student_w: np.ndarray,
    student_b: np.ndarray,
    teacher_w: np.ndarray,
    teacher_b: np.ndarray,
    config: TrainConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """The student's weighted cross-entropy on one image and its gradient.

    The map is cast to float64 once, for the teacher, the student and the
    gradient.  The teacher's logits are normalised only on the sentinel
    columns, the only ones read.  The copy and every per-pixel temporary die
    when this returns, before the next map is cast.
    """
    flat = _flat64(fmap)
    labels = t.labels.copy()
    weights = np.ones(labels.size)
    if config.complement:
        # the product covers every column, as a column subset's would round
        # differently; `take` keeps the columns C-ordered, so the channel sums
        # add in the order they do over the whole map
        logits = np.dot(teacher_w, flat).take(t.sentinel, axis=1)
        teacher_probs = _normalize(logits, teacher_b)
        labels[t.sentinel] = _restricted_argmax(teacher_probs, t.allowed)
        if config.certainty_weighting:
            # the max probability over the foreground truth classes; never background
            weights[t.sentinel] = teacher_probs[t.foreground].max(axis=0)
    else:  # sentinel pixels get weight 0 and a dummy class
        labels[t.sentinel] = 0
        weights[t.sentinel] = 0.0
    probs = _softmax(student_w, student_b, flat)
    loss = _wce(probs, labels, weights)
    return (loss, *_gradient(probs, flat, labels, weights))


def train(
    manifest: DatasetManifest,
    debiased_labels: Mapping[str, LabelMap],
    config: TrainConfig,
    *,
    features: Mapping[str, FeatureMap],
    ground_truth: Mapping[str, LabelMap],
) -> TrainResult:
    """Run the full teacher-student loop and return the final teacher.

    Image order is a seeded shuffle per epoch; with epochs == 0 the
    initialized head is returned untouched.  Per-epoch mIoU/FP/FN are logged,
    and the final predictions scored, unless ground truth is empty, and then
    it must cover every record with a label of the map's shape; ids outside
    the manifest are ignored.  `features` is looked up again for every step
    and every scored image, so given a `formats.FeatureFiles` the loop holds
    one map at a time.
    """
    records = manifest.records
    missing = [r.image_id for r in records if r.image_id not in ground_truth]
    if ground_truth and missing:
        raise ValueError(f"{missing[0]} has no ground truth; per-epoch scoring needs every record")
    truth = {r.image_id: ground_truth[r.image_id] for r in records} if ground_truth else {}
    targets = _targets(manifest, debiased_labels, features, truth)
    rng = np.random.default_rng(config.seed)
    initial = SegHead.initialize(manifest.num_classes, manifest.embedding_dim, rng)
    student_w, student_b = teacher_w, teacher_b = initial.weights, initial.bias
    lr, momentum = config.learning_rate, config.ema_momentum

    metrics: list[EpochMetrics] = []
    predictions: Optional[dict[str, LabelMap]] = None
    report: Optional[EvalReport] = None
    for epoch in range(config.epochs):
        order = rng.permutation(len(records))
        epoch_loss = 0.0
        for idx in order:
            t = targets[int(idx)]
            loss, grad_w, grad_b = _step(
                t, features[t.image_id], student_w, student_b, teacher_w, teacher_b, config
            )
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss {loss} at epoch {epoch}, image {t.image_id}"
                )
            student_w = student_w - lr * grad_w
            student_b = student_b - lr * grad_b
            _require_finite(student_w, student_b)
            teacher_w = momentum * teacher_w + (1.0 - momentum) * student_w
            teacher_b = momentum * teacher_b + (1.0 - momentum) * student_b
            _require_finite(teacher_w, teacher_b)
            epoch_loss += loss

        if truth:  # the last epoch's labels are the returned predictions
            predictions, report = _teacher_pass(
                teacher_w, teacher_b, targets, features, truth, manifest.num_classes,
                keep=epoch == config.epochs - 1,
            )
            metrics.append(
                EpochMetrics(epoch, epoch_loss, report.miou, report.fp_rate, report.fn_rate)
            )
        else:
            metrics.append(EpochMetrics(epoch, epoch_loss))

    if predictions is None:  # no epoch was scored
        predictions, report = _teacher_pass(
            teacher_w, teacher_b, targets, features, truth, manifest.num_classes, keep=True
        )
    return TrainResult(
        teacher=SegHead(teacher_w, teacher_b),
        metrics=tuple(metrics),
        predictions=predictions,
        report=report,
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
