"""Student/teacher training on complemented labels.

The segmentation head is a per-pixel linear softmax over the embedding
vectors with an explicit background channel 0.  Each step the teacher fills
the -1 pixels of the debiased label with its own prediction, a certainty
mask down-weights those filled pixels by the teacher's confidence, and the
student takes one gradient-descent step on the weighted cross-entropy before
the teacher absorbs it through an exponential moving average.  The teacher
is read only on the -1 pixels, so its softmax runs on those columns alone.
Training makes epochs + 1 passes over the images and casts each map to
float64 once per pass.  Pass p labels every image, from that cast, with the
teacher the epoch before it ended with; with ground truth the labels go into
one confusion count, from which epoch p - 1's metrics come.  Every pass but
the last then takes the steps; the last only labels, and its labels are the
predictions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from . import formats
from .core import DatasetManifest, FeatureMap, LabelMap, _frozen_array, check_image
from .core import number_field, set_number_fields
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
    epochs: int = number_field(40, minimum=0)
    learning_rate: float = number_field(1e-3, low=0.0, high=np.inf, open_low=True, open_high=True)
    ema_momentum: float = number_field(0.99, low=0.0, high=1.0, open_high=True)
    seed: int = number_field(0, minimum=0)
    complement: bool = True
    certainty_weighting: bool = True

    def __post_init__(self) -> None:
        set_number_fields(self)


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


def _restricted_argmax(scores: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per-pixel argmax over the ascending allowed channels, ties to the
    smallest index, as `np.argmax` picks on finite scores.  One comparison per
    channel over whole rows: `np.argmax` along the channel axis works column
    by column, and at 2 or 3 channels over 960-4096 pixels took 1.6-4.4x as
    long."""
    best = scores[allowed[0]]
    labels = np.full(best.size, allowed[0])
    for c in allowed[1:]:
        labels[scores[c] > best] = c
        best = np.maximum(best, scores[c])
    return labels


def _teacher_labels(
    weights: np.ndarray, bias: np.ndarray, flat: np.ndarray, allowed: np.ndarray
) -> np.ndarray:
    """The scored label of each pixel: the argmax of logits + bias over the
    allowed channels, ties to the smallest index, with no softmax.

    The softmax keeps each column's order, so this is the argmax of the
    probabilities too, except where exp and the division round two different
    logits to one probability (two logits an ulp apart, or two that underflow
    to 0): those probabilities tie and go to the smaller index, while the
    logits still pick the larger.  The product is the whole map's, the one
    `_softmax` takes, so the logits are the ones the softmax would normalise.
    """
    logits = np.dot(weights, flat)
    logits += bias[:, None]
    return _restricted_argmax(logits, allowed)


def _require_finite(weights: np.ndarray, bias: np.ndarray) -> None:
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValueError("head parameters must be finite")


@dataclass(frozen=True, slots=True)
class _Target:
    """What one record contributes to every pass besides its map: its flat
    debiased label and the label's shape, the flat indices of its -1 pixels,
    the classes the teacher may pick (background, then the truth classes), and
    its ground truth as `evaluation._truth_codes`, None without ground truth."""

    image_id: str
    labels: np.ndarray
    shape: tuple[int, int]
    sentinel: np.ndarray
    allowed: np.ndarray
    codes: Optional[np.ndarray]


def _targets(
    manifest: DatasetManifest,
    debiased_labels: Mapping[str, LabelMap],
    features: Mapping[str, FeatureMap],
    truth: Mapping[str, LabelMap],
) -> list[_Target]:
    """Check every record, then its ground truth if there is any, once, and
    precompute its per-step constants.  No map is kept."""
    k = manifest.num_classes + 1
    for record in manifest.records:
        if record.image_id not in debiased_labels:
            raise ValueError(f"missing debiased label for {record.image_id}")
        ydb = debiased_labels[record.image_id]
        check_image(record, features[record.image_id], ydb, manifest.embedding_dim)
    if truth:
        scored = {r.image_id: debiased_labels[r.image_id] for r in manifest.records}
        evaluation.check_ground_truth(truth, scored, manifest.num_classes)
    targets = []
    for record in manifest.records:
        ydb = debiased_labels[record.image_id]
        labels = ydb.data.ravel()
        targets.append(
            _Target(
                image_id=record.image_id,
                labels=labels,
                shape=ydb.spatial_shape,
                sentinel=np.flatnonzero(labels == -1),
                # ImageRecord and DatasetManifest keep truth classes non-empty and in [1, C]
                allowed=np.asarray([0, *sorted(record.truth_classes)], dtype=np.int16),
                codes=evaluation._truth_codes(truth[record.image_id].data, k) if truth else None,
            )
        )
    return targets


def _step(
    t: _Target,
    flat: np.ndarray,
    student_w: np.ndarray,
    student_b: np.ndarray,
    teacher_w: np.ndarray,
    teacher_b: np.ndarray,
    config: TrainConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """The student's weighted cross-entropy on one image and its gradient.

    `flat` is the map's one float64 cast, read by the teacher, the student and
    the gradient.  The teacher's logits are normalised only on the sentinel
    columns, the only ones read.  Every per-pixel temporary dies when this
    returns.
    """
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
            weights[t.sentinel] = teacher_probs[t.allowed[1:]].max(axis=0)
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

    The loop makes epochs + 1 passes over the images.  Pass p casts each map
    once and labels the image with the teacher epoch p - 1 ended with (at
    p = 0 the initialized head); every pass but the last then takes the step,
    in a seeded shuffle of the images.  The last pass takes no step and draws
    no shuffle: it walks the manifest in order, and its labels are the
    predictions, so with epochs == 0 the initialized head is returned
    untouched and labels them.  Unless ground truth is empty, the labels of
    pass p >= 1 score epoch p - 1 into its metrics, and the last pass's score
    is the report; the ground truth must then hold to
    `evaluation.check_ground_truth` against the debiased labels, which is
    checked after every label is checked against its map.  Each map is
    looked up epochs + 2 times: to check it, then once per pass.  So given a
    `formats.FeatureFiles` the loop holds one map at a time.
    """
    records = manifest.records
    targets = _targets(manifest, debiased_labels, features, ground_truth)
    rng = np.random.default_rng(config.seed)
    initial = SegHead.initialize(manifest.num_classes, manifest.embedding_dim, rng)
    student_w, student_b = teacher_w, teacher_b = initial.weights, initial.bias
    lr, momentum = config.learning_rate, config.ema_momentum
    k = manifest.num_classes + 1

    metrics: list[EpochMetrics] = []
    predictions: dict[str, LabelMap] = {}  # filled by the last pass
    for p in range(config.epochs + 1):
        stepping = p < config.epochs
        scoring = bool(ground_truth) and (p > 0 or not stepping)
        order = rng.permutation(len(records)) if stepping else range(len(records))
        labeled_w, labeled_b = teacher_w, teacher_b  # the teacher epoch p - 1 ended with
        counts = np.zeros(k * k, dtype=np.int64)
        epoch_loss = 0.0
        for idx in order:
            t = targets[int(idx)]
            flat = _flat64(features[t.image_id])
            if scoring or not stepping:
                labels = _teacher_labels(labeled_w, labeled_b, flat, t.allowed)
                if scoring:
                    counts += evaluation._pair_counts(t.codes, labels, k)
                if not stepping:
                    predictions[t.image_id] = LabelMap(
                        labels.reshape(t.shape), manifest.num_classes
                    )
            if stepping:
                loss, grad_w, grad_b = _step(
                    t, flat, student_w, student_b, teacher_w, teacher_b, config
                )
            del flat  # before the next map is cast, in every pass
            if not stepping:
                continue
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite loss {loss} at epoch {p}, image {t.image_id}")
            student_w = student_w - lr * grad_w
            student_b = student_b - lr * grad_b
            _require_finite(student_w, student_b)
            teacher_w = momentum * teacher_w + (1.0 - momentum) * student_w
            teacher_b = momentum * teacher_b + (1.0 - momentum) * student_b
            _require_finite(teacher_w, teacher_b)
            epoch_loss += loss
        report = evaluation._report(counts.reshape(k, k)) if scoring else None
        if p:  # this pass scored epoch p - 1
            scores = (report.miou, report.fp_rate, report.fn_rate) if scoring else ()
            metrics.append(EpochMetrics(p - 1, previous_loss, *scores))
        previous_loss = epoch_loss
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
