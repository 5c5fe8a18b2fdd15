"""Rewriting impostor foreground pixels to the -1 sentinel, one image at a time.

A pixel's similarity is its max cosine to the debiased centroids of the
image's truth classes, negatives clipped to zero; foreground pixels whose
similarity stays below one global threshold become -1.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

from .core import FeatureMap, ImageRecord, LabelMap, check_image, real_number
from .selection import DebiasedCentroidSet

logger = logging.getLogger(__name__)

__all__ = ["debias_image"]

# a foreground pixel whose similarity falls below the threshold becomes -1
THRESHOLD_RANGE = {"low": 0.0, "high": 1.0}


def _similarity(
    fmap: FeatureMap, centroids: DebiasedCentroidSet, classes: Sequence[int]
) -> np.ndarray:
    """Per-pixel max cosine similarity over the given classes, each of which
    has a debiased centroid, negatives clipped to zero.  Returns a (H, W)
    float64 array in [0, 1].

    One float64 copy of the map is made.  The centroid products are taken
    from it first; then it is squared in place and summed over the channels,
    which is how `np.linalg.norm(flat, axis=0)` computes the pixel norms, bit
    for bit, without the norm's own second map-sized temporary.  Freeing and
    faulting in that second 4 MB buffer on every 64x64, D=128 map cost more
    than the arithmetic."""
    d, h, w = fmap.data.shape
    flat = fmap.data.reshape(d, h * w).astype(np.float64)
    dots = [centroids.per_class[class_id] @ flat for class_id in classes]
    np.multiply(flat, flat, out=flat)
    norms = np.sqrt(np.add.reduce(flat, axis=0))
    del flat
    best = np.full(h * w, -1.0)
    for class_id, dot in zip(classes, dots):
        vec_norm = float(np.linalg.norm(centroids.per_class[class_id]))
        sims = np.clip(dot / (norms * vec_norm), -1.0, 1.0)
        np.maximum(best, sims, out=best)
    return np.maximum(best, 0.0).reshape(h, w)


def debias_image(
    record: ImageRecord,
    fmap: FeatureMap,
    pseudo: LabelMap,
    centroids: DebiasedCentroidSet,
    threshold: float,
    *,
    embedding_dim: int,
) -> LabelMap:
    """Rewrite to -1 every foreground pixel of the record's image whose
    similarity does not reach the threshold.  The map must have the
    manifest's embedding_dim, and so must every centroid vector.

    Background pixels are never touched, so every output value is either the
    input value or -1 on a formerly-foreground pixel.  A NaN similarity never
    reaches the threshold.  Truth classes without a debiased centroid are
    skipped with a warning; if none remain the image cannot be debiased.  The
    warning and every error name the image.
    """
    image_id = record.image_id
    truth = sorted(record.truth_classes)
    usable = [c for c in truth if c in centroids.per_class]
    skipped = [c for c in truth if c not in centroids.per_class]
    if skipped:
        logger.warning("%s: no debiased centroid for classes %s; skipping them", image_id, skipped)
    threshold = real_number(f"{image_id}: threshold", threshold, **THRESHOLD_RANGE)
    check_image(record, fmap, pseudo, embedding_dim)
    if pseudo.has_sentinel():
        raise ValueError(f"{image_id}: pseudo label must not contain -1")
    for vec in centroids.per_class.values():
        if vec.shape[0] != fmap.embedding_dim:
            raise ValueError(
                f"{image_id}: centroid vector length {vec.shape[0]} != feature dim "
                f"{fmap.embedding_dim}"
            )
    if not usable:
        raise ValueError(f"{image_id}: no usable centroids: none for truth classes {truth}")
    keep = _similarity(fmap, centroids, usable) >= threshold
    out = pseudo.data.copy()
    out[(pseudo.data > 0) & ~keep] = -1
    return LabelMap(out, pseudo.num_classes)
