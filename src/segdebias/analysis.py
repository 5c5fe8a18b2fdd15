"""Ground-truth-based diagnostics for the centroid selection stage.

Member pixels of every stored centroid are reconstructed by re-running the
nearest-centroid assignment of its image's class region, then each centroid
is labeled against ground truth by majority vote: the exact oracle used by
the acceptance checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bank import CentroidBank, class_positions, decompose_class_vectors
from .core import FeatureMap, LabelMap
from .selection import score_foreground, selected_count

__all__ = [
    "CentroidQuality",
    "centroid_quality",
    "selection_accuracy",
]


@dataclass(frozen=True)
class CentroidQuality:
    member_count: int
    gt_match_count: int

    @property
    def is_target(self) -> bool:
        """Majority of member pixels carry the centroid's class in ground truth."""
        return self.gt_match_count * 2 > self.member_count


def centroid_quality(
    bank: CentroidBank,
    features: Mapping[str, FeatureMap],
    pseudo_labels: Mapping[str, LabelMap],
    ground_truth: Mapping[str, LabelMap],
) -> dict[tuple[int, str, int], CentroidQuality]:
    """Quality stats keyed by (class_id, image_id, cluster_index)."""
    out: dict[tuple[int, str, int], CentroidQuality] = {}
    for class_id in bank.foreground_classes():
        by_image: dict[str, list] = {}
        for c in bank.foreground[class_id]:
            by_image.setdefault(c.image_id, []).append(c)
        for image_id, centroids in by_image.items():
            centroids.sort(key=lambda c: c.cluster_index)
            fmap = features[image_id]
            label = pseudo_labels[image_id]
            gt = ground_truth[image_id]
            vectors = decompose_class_vectors(fmap, label, class_id)
            positions = class_positions(label, class_id)
            matrix = np.stack([c.vector for c in centroids])
            assign = np.argmax(np.clip(vectors @ matrix.T, -1.0, 1.0), axis=1)
            for j, c in enumerate(centroids):
                member_pos = positions[assign == j]
                member_gt = gt.data[member_pos[:, 0], member_pos[:, 1]]
                out[(class_id, image_id, c.cluster_index)] = CentroidQuality(
                    member_count=len(member_pos),
                    gt_match_count=int((member_gt == class_id).sum()),
                )
    return out


def selection_accuracy(
    bank: CentroidBank,
    alpha: float,
    features: Mapping[str, FeatureMap],
    pseudo_labels: Mapping[str, LabelMap],
    ground_truth: Mapping[str, LabelMap],
) -> dict[int, float]:
    """Per class: the fraction of selected centroids whose member pixels are
    majority ground-truth pixels of that class."""
    quality = centroid_quality(bank, features, pseudo_labels, ground_truth)
    accuracy: dict[int, float] = {}
    for class_id, scored in score_foreground(bank).items():
        take = selected_count(len(scored), alpha)
        hits = 0
        for s in scored[:take]:
            key = (class_id, s.centroid.image_id, s.centroid.cluster_index)
            if quality[key].is_target:
                hits += 1
        accuracy[class_id] = hits / take
    return accuracy
