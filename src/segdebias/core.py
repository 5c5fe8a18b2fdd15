"""Shared domain types and the cosine kernels every pipeline stage builds on.

All tensors are stored float32 / int16; every accumulation (distance sums,
loss sums) runs in float64.  Types are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "FeatureMap",
    "LabelMap",
    "ImageRecord",
    "DatasetManifest",
    "cosine_similarity",
    "cosine_distance",
    "unit_rows",
]


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1].

    Clamping absorbs rounding so downstream ReLU/argsort never see 1 + eps.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("degenerate vector: zero norm")
    return float(np.clip(float(a @ b) / (norm_a * norm_b), -1.0, 1.0))


def cosine_distance(a, b) -> float:
    """(1 - cosine_similarity(a, b)) / 2: 0 for parallel, 1 for antipodal."""
    return (1.0 - cosine_similarity(a, b)) / 2.0


def unit_rows(vectors: np.ndarray) -> np.ndarray:
    """L2-normalize each row of a (n, D) matrix in float64."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.size == 0:
        return vectors.reshape(0, vectors.shape[-1] if vectors.ndim == 2 else 0)
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("degenerate vector: zero norm")
    return vectors / norms


def _frozen_array(data: np.ndarray) -> np.ndarray:
    if data.flags.writeable:
        data = data.copy()
        data.setflags(write=False)
    return data


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
        norms = np.linalg.norm(data.astype(np.float64), axis=0)
        if np.any(norms == 0.0):
            raise ValueError("degenerate vector: zero-norm pixel embedding")
        object.__setattr__(self, "data", _frozen_array(data))

    @property
    def embedding_dim(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def pixel_vector(self, y: int, x: int) -> np.ndarray:
        """The D embedding values at (y, x), as a fresh float64 vector."""
        if not (0 <= y < self.height and 0 <= x < self.width):
            raise IndexError(
                f"pixel ({y}, {x}) out of bounds for {self.height}x{self.width} map"
            )
        return self.data[:, y, x].astype(np.float64)


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
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if data.size and (data.min() < -1 or data.max() > self.num_classes):
            raise ValueError(
                f"label out of range: values must lie in [-1, {self.num_classes}]"
            )
        object.__setattr__(self, "data", _frozen_array(data.astype(np.int16)))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return (self.height, self.width)

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
        truth = frozenset(int(c) for c in self.truth_classes)
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
    num_classes: int
    embedding_dim: int

    def __post_init__(self) -> None:
        records = tuple(self.records)
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        ids = [r.image_id for r in records]
        if len(set(ids)) != len(ids):
            raise ValueError("manifest image_ids must be unique")
        for r in records:
            if any(c > self.num_classes for c in r.truth_classes):
                raise ValueError(
                    f"{r.image_id}: truth class exceeds num_classes={self.num_classes}"
                )
        object.__setattr__(self, "records", records)

    def __len__(self) -> int:
        return len(self.records)
