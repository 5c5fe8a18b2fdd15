"""Scoring foreground centroids against the background bank and aggregating
the top fraction into one debiased centroid per class.

A centroid's score is its mean cosine distance to every background centroid
in the dataset; impostor clusters that echo background textures score low,
true object clusters score high.  Per class, the highest-scoring ceil(M * alpha)
centroids are averaged and re-normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bank import Centroid, CentroidBank
from .core import _unit_vector, number_field, real_number, set_number_fields, whole_number

__all__ = [
    "ScoredCentroid",
    "DebiasedCentroidSet",
    "score_foreground",
    "select_debiased",
    "selection_rows",
    "selected_count",
]

# the top fraction of each class's centroids that feeds its debiased centroid
ALPHA_RANGE = {"low": 0.0, "high": 1.0, "open_low": True}


@dataclass(frozen=True)
class ScoredCentroid:
    """A centroid with its Eq. 1 distance, which lies in [0, 1] for unit vectors."""

    centroid: Centroid
    dist: float


@dataclass(frozen=True)
class DebiasedCentroidSet:
    """One unit vector per foreground class, plus how many centroids fed it."""

    per_class: Mapping[int, np.ndarray]
    alpha: float = number_field(**ALPHA_RANGE)
    selected_counts: Mapping[int, int]

    def __post_init__(self) -> None:
        set_number_fields(self)
        per_class = {
            int(c): _unit_vector(vec, f"class {c} centroid vector")
            for c, vec in self.per_class.items()
        }
        lengths = sorted({vec.shape[0] for vec in per_class.values()})
        if len(lengths) > 1:
            raise ValueError(f"debiased centroid vectors differ in length: {lengths}")
        counts = {
            int(c): whole_number(f"class {c} selected_count", n, 1)
            for c, n in self.selected_counts.items()
        }
        if set(counts) != set(per_class):
            raise ValueError(
                f"selected_counts classes {sorted(counts)} != centroid classes {sorted(per_class)}"
            )
        object.__setattr__(self, "per_class", per_class)
        object.__setattr__(self, "selected_counts", counts)

    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.per_class))


def _bank_matrix(bank: CentroidBank) -> np.ndarray:
    if not bank.background:
        raise ValueError("no background centroids")
    return np.stack([c.vector for c in bank.background])


def _background_distances(vectors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Eq. 1 for each row of a (M, D) matrix of unit vectors: the mean cosine
    distance (1 - cos) / 2 to every row of the background bank matrix."""
    sims = np.clip((vectors @ matrix.T) / np.linalg.norm(matrix, axis=1), -1.0, 1.0)
    return np.mean((1.0 - sims) / 2.0, axis=1)


def selected_count(num_candidates: int, alpha: float) -> int:
    """ceil(M * alpha) with a guard against float round-up at exact integers."""
    alpha = real_number("alpha", alpha, **ALPHA_RANGE)
    return max(1, min(num_candidates, math.ceil(num_candidates * alpha - 1e-9)))


def score_foreground(bank: CentroidBank) -> dict[int, list[ScoredCentroid]]:
    """Every foreground centroid scored and sorted descending by distance,
    with ties broken by (image_id, cluster_index) for reproducibility."""
    matrix = _bank_matrix(bank)
    out: dict[int, list[ScoredCentroid]] = {}
    for class_id in bank.foreground_classes():
        centroids = bank.foreground[class_id]
        dists = _background_distances(np.stack([c.vector for c in centroids]), matrix)
        scored = [ScoredCentroid(c, float(d)) for c, d in zip(centroids, dists)]
        scored.sort(key=lambda s: (-s.dist, s.centroid.image_id, s.centroid.cluster_index))
        out[class_id] = scored
    return out


def select_debiased(bank: CentroidBank, alpha: float) -> DebiasedCentroidSet:
    """Average the top ceil(M * alpha) centroids per class into a unit vector.

    Classes without centroids in the bank are absent from the result; the
    average is re-normalized so downstream similarities stay within [-1, 1].
    """
    per_class: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for class_id, scored in score_foreground(bank).items():
        take = selected_count(len(scored), alpha)
        mean = np.mean([s.centroid.vector for s in scored[:take]], axis=0)
        norm = float(np.linalg.norm(mean))
        if norm == 0.0:
            raise ValueError(f"class {class_id}: selected centroids average to zero")
        per_class[class_id] = mean / norm
        counts[class_id] = take
    return DebiasedCentroidSet(per_class=per_class, alpha=alpha, selected_counts=counts)


def selection_rows(bank: CentroidBank, alpha: float) -> list[dict]:
    """Flat per-centroid rows (class_id, image_id, cluster_index, dist,
    selected) backing the export CSV."""
    rows = []
    for class_id, scored in score_foreground(bank).items():
        take = selected_count(len(scored), alpha)
        for rank, s in enumerate(scored):
            rows.append(
                {
                    "class_id": class_id,
                    "image_id": s.centroid.image_id,
                    "cluster_index": s.centroid.cluster_index,
                    "dist": s.dist,
                    "selected": int(rank < take),
                }
            )
    return rows
