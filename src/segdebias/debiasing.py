"""Rewriting impostor foreground pixels to the -1 sentinel, one image at a time.

A pixel's similarity is its max cosine to the debiased centroids of the
image's truth classes, negatives clipped to zero; foreground pixels whose
similarity stays below one global threshold become -1.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import FeatureMap, LabelMap
from .selection import DebiasedCentroidSet

__all__ = ["debias_image"]


def _similarity(
    fmap: FeatureMap, centroids: DebiasedCentroidSet, truth_classes: Iterable[int]
) -> np.ndarray:
    """Per-pixel max cosine similarity over the image's truth classes,
    negatives clipped to zero.  Returns a (H, W) float64 array in [0, 1].

    Truth classes without a debiased centroid are skipped; if none remain the
    map is undefined and an error is raised.
    """
    truth = sorted(set(int(c) for c in truth_classes))
    usable = [c for c in truth if c in centroids.per_class]
    if not usable:
        raise ValueError(f"no usable centroids: none for truth classes {truth}")

    d, h, w = fmap.data.shape
    flat = fmap.data.reshape(d, h * w).astype(np.float64)
    norms = np.linalg.norm(flat, axis=0)
    best = np.full(h * w, -1.0)
    for class_id in usable:
        vec = centroids.per_class[class_id]
        vec_norm = float(np.linalg.norm(vec))
        sims = np.clip((vec @ flat) / (norms * vec_norm), -1.0, 1.0)
        np.maximum(best, sims, out=best)
    return np.maximum(best, 0.0).reshape(h, w)


def debias_image(
    fmap: FeatureMap,
    pseudo: LabelMap,
    centroids: DebiasedCentroidSet,
    truth_classes: Iterable[int],
    threshold: float,
) -> LabelMap:
    """Rewrite to -1 every foreground pixel whose similarity does not reach
    the threshold.

    Background pixels are never touched, so every output value is either the
    input value or -1 on a formerly-foreground pixel.  A NaN similarity never
    reaches the threshold.
    """
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    if pseudo.spatial_shape != fmap.spatial_shape:
        raise ValueError(
            f"label shape {pseudo.spatial_shape} != feature shape {fmap.spatial_shape}"
        )
    if pseudo.has_sentinel():
        raise ValueError("pseudo label must not already contain -1")
    for vec in centroids.per_class.values():
        if vec.shape[0] != fmap.embedding_dim:
            raise ValueError(
                f"centroid vector length {vec.shape[0]} != feature dim {fmap.embedding_dim}"
            )
    keep = _similarity(fmap, centroids, truth_classes) >= threshold
    out = pseudo.data.copy()
    out[(pseudo.data > 0) & ~keep] = -1
    return LabelMap(out, pseudo.num_classes)
