"""Per-image similarity maps against the debiased centroids, binarization,
and rewriting of impostor foreground pixels to the -1 sentinel.

The similarity map is binarized with one global threshold; foreground
pixels below it become -1.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import FeatureMap, LabelMap
from .selection import DebiasedCentroidSet

__all__ = [
    "similarity_map",
    "binarize",
    "debias_label",
    "debias_image",
]


def similarity_map(
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


def binarize(sim: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean keep-mask: True wherever the similarity reaches the threshold."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    sim = np.asarray(sim)
    if sim.ndim != 2:
        raise ValueError("similarity map must be (H, W)")
    return sim >= threshold


def debias_label(pseudo: LabelMap, mask: np.ndarray) -> LabelMap:
    """Rewrite foreground pixels the keep-mask rejects to -1.

    Background pixels are never touched, so every output value is either the
    input value or -1 on a formerly-foreground pixel.
    """
    mask = np.asarray(mask)
    if mask.shape != pseudo.spatial_shape:
        raise ValueError(f"mask shape {mask.shape} != label shape {pseudo.spatial_shape}")
    if mask.dtype != bool:
        mask = mask.astype(bool)
    if pseudo.has_sentinel():
        raise ValueError("pseudo label must not already contain -1")
    out = pseudo.data.copy()
    out[(pseudo.data > 0) & ~mask] = -1
    return LabelMap(out, pseudo.num_classes)


def debias_image(
    fmap: FeatureMap,
    pseudo: LabelMap,
    centroids: DebiasedCentroidSet,
    truth_classes: Iterable[int],
    threshold: float,
) -> LabelMap:
    """similarity_map -> binarize -> sentinel rewrite, for one image."""
    sim = similarity_map(fmap, centroids, truth_classes)
    return debias_label(pseudo, binarize(sim, threshold))
