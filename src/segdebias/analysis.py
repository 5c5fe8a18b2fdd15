"""Ground-truth selection accuracy: the exact oracle the acceptance checks use.

The member pixels of each selected centroid are rebuilt by re-running the
clustering's own nearest-centroid assignment (`bank._similarities`) over its
image's class region; a centroid is a hit when most of its members carry its
class in ground truth.  The ground truth is held to
`evaluation.check_ground_truth` against the pseudo labels first.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .bank import CentroidBank, _similarities, decompose_class_vectors
from .core import FeatureMap, LabelMap
from .evaluation import check_ground_truth
from .selection import score_foreground, selected_count

__all__ = ["selection_accuracy"]


def selection_accuracy(
    bank: CentroidBank,
    alpha: float,
    features: Mapping[str, FeatureMap],
    pseudo_labels: Mapping[str, LabelMap],
    ground_truth: Mapping[str, LabelMap],
) -> dict[int, float]:
    """Per class: the fraction of selected centroids whose member pixels are
    majority ground-truth pixels of that class.  The ground truth declares
    no more classes than the pseudo labels."""
    num_classes = max((label.num_classes for label in pseudo_labels.values()), default=0)
    check_ground_truth(ground_truth, pseudo_labels, num_classes)
    accuracy: dict[int, float] = {}
    for class_id, scored in score_foreground(bank).items():
        take = selected_count(len(scored), alpha)
        chosen: dict[str, set[int]] = {}
        for s in scored[:take]:
            chosen.setdefault(s.centroid.image_id, set()).add(s.centroid.cluster_index)
        hits = 0
        for image_id, indices in chosen.items():
            siblings = sorted(
                (c for c in bank.foreground[class_id] if c.image_id == image_id),
                key=lambda c: c.cluster_index,
            )
            label = pseudo_labels[image_id]
            vectors = decompose_class_vectors(features[image_id], label, class_id)
            matrix = np.stack([c.vector for c in siblings])
            assign = np.argmax(_similarities(vectors, matrix), axis=1)
            region_gt = ground_truth[image_id].data[label.data == class_id]
            for j, c in enumerate(siblings):
                if c.cluster_index in indices:
                    member_gt = region_gt[assign == j]
                    hits += int((member_gt == class_id).sum()) * 2 > member_gt.size
        accuracy[class_id] = hits / take
    return accuracy
