"""Shared domain types and the row normalization the clustering builds on.

All tensors are stored float32 / int16; every accumulation (distance sums,
loss sums) runs in float64.  Types are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "FeatureMap",
    "LabelMap",
    "ImageRecord",
    "DatasetManifest",
    "check_image",
    "unit_rows",
    "number_field",
    "real_number",
    "set_number_fields",
    "whole_number",
]


def unit_rows(vectors: np.ndarray) -> np.ndarray:
    """L2-normalize each row of a (n, D) matrix in float64.

    The norms are `np.linalg.norm(axis=-1)`'s arithmetic, and the input is
    cast inside the square and the division instead of copied first, so a
    float32 region holds one float64 (n, D) buffer at a time, not two.  With
    two, each bank build on 64x64, D=128 maps faulted its heap in again on
    every region: 100 000 to 246 000 minor page faults per 100-image bank,
    against under 3 000 with one."""
    vectors = np.asarray(vectors)
    norms = np.sqrt(np.add.reduce(np.square(vectors, dtype=np.float64), axis=-1, keepdims=True))
    if np.any(norms == 0.0):
        raise ValueError("degenerate vector: zero norm")
    return np.divide(vectors, norms, dtype=np.float64)


def _is_real(value) -> bool:
    """A real number and not a bool, which JSON's true would pass for 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def whole_number(name: str, value, minimum: Optional[int] = None) -> int:
    """The value as an int, if it is a whole number of at least `minimum`.
    A bool, a string or a fraction is refused, not cast: int() would read
    JSON's true as 1, "12" as 12 and 2.7 as 2."""
    if not (_is_real(value) and value % 1 == 0):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def real_number(
    name: str, value, low: float, high: float, *, open_low=False, open_high=False
) -> float:
    """The value as a float, if it is a real number in the interval from low
    to high, each end closed unless it is marked open.  A bool, a string, NaN
    and any value outside are refused."""
    inside = _is_real(value) and (
        (low < value if open_low else low <= value)
        and (value < high if open_high else value <= high)
    )
    if not inside:
        interval = ("(" if open_low else "[") + f"{low:g}, {high:g}" + (")" if open_high else "]")
        raise ValueError(f"{name} must lie in {interval}, got {value!r}")
    return float(value)


def number_field(default=MISSING, **bounds):
    """A dataclass field that set_number_fields checks: a whole number when
    the bounds name a `minimum` (None for none), else a real number within
    real_number's bounds."""
    return field(default=default, metadata={"bounds": bounds})


def set_number_fields(obj) -> None:
    """Check each number_field of a frozen dataclass and store it as an int
    or a float; an error names the field."""
    for f in fields(obj):
        if "bounds" in f.metadata:
            bounds = f.metadata["bounds"]
            check = whole_number if "minimum" in bounds else real_number
            object.__setattr__(obj, f.name, check(f.name, getattr(obj, f.name), **bounds))


def _frozen_array(data: np.ndarray) -> np.ndarray:
    if data.flags.writeable:
        data = data.copy()
        data.setflags(write=False)
    return data


def _unit_vector(vec, what: str) -> np.ndarray:
    """The vector as a read-only float64 array, if it is 1-D and unit-norm.
    A NaN or infinite entry fails the norm check."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"{what} must be 1-D")
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"{what} must be unit-norm, got |v|={norm}")
    return _frozen_array(vec)


@dataclass(frozen=True)
class FeatureMap:
    """Per-pixel embedding tensor, shape (D, H, W), stored float32.

    Zero-norm pixel vectors are rejected at construction: they make every
    cosine downstream undefined.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise ValueError(f"feature map must be (D, H, W), got shape {data.shape}")
        if min(data.shape) < 1:
            raise ValueError(f"feature map dims must be >= 1, got {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("feature map contains non-finite values")
        # every value is finite here, and a nonzero float32 squared never
        # underflows in float64, so a pixel has zero norm iff all its entries are ±0
        if not (data != 0).any(axis=0).all():
            raise ValueError("degenerate vector: zero-norm pixel embedding")
        object.__setattr__(self, "data", _frozen_array(data))

    @property
    def embedding_dim(self) -> int:
        return self.data.shape[0]

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return self.data.shape[1:]


@dataclass(frozen=True)
class LabelMap:
    """Integer label grid over {-1, 0, 1..C}; -1 is the biased/ignore sentinel."""

    data: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValueError(f"label map must be (H, W), got shape {data.shape}")
        if min(data.shape) < 1:
            raise ValueError(f"label map dims must be >= 1, got {data.shape}")
        if not np.issubdtype(data.dtype, np.integer):
            raise ValueError("label values must be integers")
        object.__setattr__(self, "num_classes", whole_number("num_classes", self.num_classes, 1))
        if data.size and (data.min() < -1 or data.max() > self.num_classes):
            raise ValueError(
                f"label out of range: values must lie in [-1, {self.num_classes}]"
            )
        object.__setattr__(self, "data", _frozen_array(data.astype(np.int16)))

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return self.data.shape

    def has_sentinel(self) -> bool:
        return bool(np.any(self.data == -1))

    def foreground_classes(self) -> tuple[int, ...]:
        present = np.unique(self.data)
        return tuple(int(v) for v in present if v > 0)


@dataclass(frozen=True)
class ImageRecord:
    """One dataset entry: tensor paths plus the image-level truth classes."""

    image_id: str
    feature_path: Path
    label_path: Path
    truth_classes: frozenset[int]
    gt_path: Optional[Path] = None
    bias_path: Optional[Path] = None

    def __post_init__(self) -> None:
        if not self.image_id:
            raise ValueError("image_id must be non-empty")
        truth = frozenset(
            whole_number(f"{self.image_id}: truth class", c) for c in self.truth_classes
        )
        if not truth:
            raise ValueError(f"{self.image_id}: truth_classes must be non-empty")
        if any(c <= 0 for c in truth):
            raise ValueError(
                f"{self.image_id}: truth_classes must not contain background or the sentinel"
            )
        object.__setattr__(self, "truth_classes", truth)
        object.__setattr__(self, "feature_path", Path(self.feature_path))
        object.__setattr__(self, "label_path", Path(self.label_path))
        if self.gt_path is not None:
            object.__setattr__(self, "gt_path", Path(self.gt_path))
        if self.bias_path is not None:
            object.__setattr__(self, "bias_path", Path(self.bias_path))


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered image records plus the dataset-wide class count and embedding dim."""

    records: tuple[ImageRecord, ...]
    num_classes: int = number_field(minimum=1)
    embedding_dim: int = number_field(minimum=1)

    def __post_init__(self) -> None:
        records = tuple(self.records)
        set_number_fields(self)
        if not records:
            raise ValueError("manifest has no records")
        ids = [r.image_id for r in records]
        if len(set(ids)) != len(ids):
            raise ValueError("manifest image_ids must be unique")
        for r in records:
            if any(c > self.num_classes for c in r.truth_classes):
                raise ValueError(
                    f"{r.image_id}: truth class exceeds num_classes={self.num_classes}"
                )
        object.__setattr__(self, "records", records)


def check_image(
    record: ImageRecord, fmap: FeatureMap, label: LabelMap, embedding_dim: int
) -> None:
    """The per-image contract of cluster, debias and train: the map has the manifest's
    embedding dim, the label has the map's shape, and the label has no
    foreground class outside the record's truth set.  Errors name the image."""
    if fmap.embedding_dim != embedding_dim:
        raise ValueError(
            f"{record.image_id}: feature dim {fmap.embedding_dim} != manifest "
            f"embedding_dim {embedding_dim}"
        )
    if label.spatial_shape != fmap.spatial_shape:
        raise ValueError(
            f"{record.image_id}: label shape {label.spatial_shape} != feature shape "
            f"{fmap.spatial_shape}"
        )
    extra = set(label.foreground_classes()) - record.truth_classes
    if extra:
        raise ValueError(f"{record.image_id}: label classes {sorted(extra)} outside truth set")
