"""Per-image, per-class centroid banks via spherical K-means.

Clustering runs in the same cosine geometry the downstream scoring uses:
inputs are unit vectors, assignment is by maximum cosine similarity, and
each centroid is the L2-normalized mean of its members: the normalized sum,
all of a region's sums taken as one product of its 0/1 membership matrix
with its rows (Dhillon & Modha, 2001).  Seeding is k-means++ on squared
cosine distance, driven by a per-(image, class) seed derived from a stable
hash so bank contents are independent of manifest order and scheduling.
Every cosine the k-means takes (seeding, assignment, reseeding and the
objective) comes from one product of the rows with a contiguous centroid
block, `_similarities`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .core import DatasetManifest, FeatureMap, LabelMap, _unit_vector, check_image
from .core import number_field, set_number_fields, unit_rows, whole_number

MAX_LLOYD_ITERATIONS = 100

__all__ = [
    "Centroid",
    "CentroidBank",
    "KMeansResult",
    "decompose_class_vectors",
    "kmeans_spherical",
    "derive_seed",
    "build_centroid_bank",
]


@dataclass(frozen=True)
class Centroid:
    """A unit vector summarizing one cluster of one class in one image."""

    vector: np.ndarray
    class_id: int
    image_id: str
    cluster_index: int
    member_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", _unit_vector(self.vector, "centroid vector"))
        object.__setattr__(
            self, "member_count", whole_number("member_count", self.member_count, 1)
        )


@dataclass(frozen=True)
class CentroidBank:
    """Dataset-wide centroid collections: per-class foreground plus background.
    Every foreground class holds at least one centroid."""

    foreground: Mapping[int, tuple[Centroid, ...]]
    background: tuple[Centroid, ...]
    k_fg: int = number_field(minimum=1)
    k_bg: int = number_field(minimum=1)

    def __post_init__(self) -> None:
        set_number_fields(self)
        fg = {int(c): tuple(v) for c, v in self.foreground.items()}
        for class_id, centroids in fg.items():
            if class_id < 1:
                raise ValueError("foreground class ids must be >= 1")
            if not centroids:
                raise ValueError(f"foreground class {class_id} has no centroids")
            if any(c.class_id != class_id for c in centroids):
                raise ValueError(f"mislabeled centroid under class {class_id}")
        if any(c.class_id != 0 for c in self.background):
            raise ValueError("background bank must hold class-0 centroids")
        object.__setattr__(self, "foreground", fg)
        object.__setattr__(self, "background", tuple(self.background))

    def foreground_classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.foreground))


@dataclass(frozen=True)
class KMeansResult:
    """Final centroids with member counts, assignments, and the objective trace:
    the total within-cluster cosine distance after each Lloyd assignment, then
    that of the returned centroids, so len(objective_trace) - 1 is the number
    of Lloyd iterations."""

    centroids: np.ndarray  # (m, D) unit rows
    counts: np.ndarray  # (m,)
    assignments: np.ndarray  # (n,)
    objective_trace: tuple[float, ...]


def decompose_class_vectors(fmap: FeatureMap, labels: LabelMap, class_id: int) -> np.ndarray:
    """Unit-normalized pixel vectors of the class region, row-major order, as
    a C-ordered (n, D) float64 array."""
    if labels.spatial_shape != fmap.spatial_shape:
        raise ValueError(
            f"label shape {labels.spatial_shape} != feature shape {fmap.spatial_shape}"
        )
    return unit_rows(fmap.data[:, labels.data == class_id].T)


def _kmeanspp_init(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; returns fewer seeds when residual mass hits zero
    (coincident points), which lets duplicate inputs collapse to one cluster."""
    n = vectors.shape[0]
    chosen = [int(rng.integers(n))]
    d2: Optional[np.ndarray] = None
    while len(chosen) < k:
        # distances to the newest seed, taken only when another seed is drawn
        latest = ((1.0 - _similarities(vectors, vectors[chosen[-1:]])[:, 0]) / 2.0) ** 2
        d2 = latest if d2 is None else np.minimum(d2, latest)
        total = float(d2.sum())
        if total <= 0.0:
            break
        chosen.append(int(rng.choice(n, p=d2 / total)))
    return vectors[chosen].copy()


def _similarities(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Clipped cosine of every (unit) row to every (unit) centroid, (n, m).

    The centroid block is made contiguous before the product.  With OpenBLAS
    0.3.31 a transposed block takes a slower small-matrix path: about 3x
    slower on the 64x64 maps' regions (about 1100 to 1500 rows at D=128, two
    or three centroids), 1.2x to 3x at D=16.  The two forms can round
    differently in the last bits (a few 1e-16 here).  Every cosine k-means
    takes comes from here: the assignments read their argmax, and the
    k-means++ seeding (a one-row block), the reseeding and the objective read
    their values.  So those bits reach the objective trace, but a seed, a
    reseed target or an assignment moves only on a tie to that precision."""
    return np.clip(vectors @ np.ascontiguousarray(centroids.T), -1.0, 1.0)


def _objective(sims: np.ndarray, assign: np.ndarray) -> float:
    """Total within-cluster cosine distance of rows assigned to centroids,
    given their similarities."""
    return float(np.sum((1.0 - sims[np.arange(len(assign)), assign]) / 2.0))


def _normalized_means(
    vectors: np.ndarray, assign: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized per-cluster means; a cancelled (zero-sum) cluster falls back
    to its first member so the result stays on the sphere."""
    counts = np.bincount(assign, minlength=m).astype(np.int64)
    # Every cluster's sum in one product of the (m, n) 0/1 membership matrix
    # with the rows, in place of one masked copy per cluster.  BLAS does not
    # promise to add the rows in order.  OpenBLAS 0.3.31 on AVX-512 matches
    # the row-by-row sum on C-ordered rows while m*n*D <= 100**3 (its
    # small-matrix kernel: two clusters of up to 3906 rows at D=128); past
    # that, or on F-ordered rows, the sums can differ in the last bits.
    # numpy hands a one-row product to gemv, which adds in another order, so
    # one cluster sums its rows directly.
    if m == 1:
        sums = vectors.sum(axis=0, keepdims=True)
    else:
        sums = (np.arange(m)[:, None] == assign).astype(np.float64) @ vectors
    norms = np.linalg.norm(sums, axis=1)
    means = np.zeros_like(sums)
    for j in range(m):
        if counts[j] == 0:
            continue
        if norms[j] > 0.0:
            means[j] = sums[j] / norms[j]
        else:
            means[j] = vectors[int(np.argmax(assign == j))]
    return means, counts


def kmeans_spherical(vectors: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Lloyd iterations in cosine geometry until assignment fixpoint.

    Empty clusters are reseeded to the point farthest from its nearest
    populated centroid; if that farthest distance is zero the cluster is
    dropped instead (all points already coincide with a centroid).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("vectors must be a (n, D) matrix")
    n = vectors.shape[0]
    k = whole_number("k", k, 1)
    if n == 0:
        return KMeansResult(
            centroids=np.zeros((0, vectors.shape[1])),
            counts=np.zeros(0, dtype=np.int64),
            assignments=np.zeros(0, dtype=np.int64),
            objective_trace=(),
        )
    norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("kmeans_spherical expects unit-norm input vectors")

    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(vectors, min(k, n), rng)
    trace: list[float] = []
    prev_assign: Optional[np.ndarray] = None

    for _ in range(MAX_LLOYD_ITERATIONS):
        sims = _similarities(vectors, centroids)
        assign = np.argmax(sims, axis=1)
        trace.append(_objective(sims, assign))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            # `centroids` and `counts` already are the means and member counts of
            # `assign`, and the fixpoint step's objective is theirs
            trace.append(trace[-1])
            break
        prev_assign = assign

        means, counts = _normalized_means(vectors, assign, len(centroids))
        populated = counts > 0
        if not populated.all():
            keep = []
            nearest = (1.0 - _similarities(vectors, means[populated]).max(axis=1)) / 2.0
            for j in np.flatnonzero(~populated):
                far = int(np.argmax(nearest))
                if nearest[far] <= 0.0:
                    continue  # duplicates: drop this cluster
                means[j] = vectors[far]
                nearest[far] = 0.0
                keep.append(j)
            retained = sorted(list(np.flatnonzero(populated)) + keep)
            means = means[retained]
            prev_assign = None  # structure changed, fixpoint must be re-established
        centroids = means
    else:
        # Consistency pass: make the returned triple coherent when the loop
        # stopped at the iteration cap, possibly mid-restructure; clusters
        # left empty are dropped and the rest renumbered in order.
        retained, assign = np.unique(
            np.argmax(_similarities(vectors, centroids), axis=1), return_inverse=True
        )
        centroids, counts = _normalized_means(vectors, assign, len(retained))
        trace.append(_objective(_similarities(vectors, centroids), assign))
    return KMeansResult(
        centroids=centroids,
        counts=counts,
        assignments=assign,
        objective_trace=tuple(trace),
    )


def derive_seed(seed: int, image_id: str, class_id: int) -> int:
    """Stable per-(image, class) seed, independent of manifest order."""
    digest = hashlib.blake2b(
        f"{image_id}\x00{class_id}".encode("utf-8"), digest_size=8
    ).digest()
    return (int(seed) ^ int.from_bytes(digest, "little")) & 0x7FFF_FFFF_FFFF_FFFF


def build_centroid_bank(
    manifest: DatasetManifest,
    pseudo_labels: Mapping[str, LabelMap],
    k_fg: int,
    k_bg: int,
    seed: int,
    features: Mapping[str, FeatureMap],
) -> CentroidBank:
    """Cluster every image's class regions and pool the centroids dataset-wide.

    With k_fg >= 2 a foreground region can split into a target and a
    co-occurring impostor cluster.  Images lacking a region contribute no
    centroids for it.  Records are visited in image-id order, so each
    collection is sorted by (image_id, cluster_index) whatever the manifest
    order: the bank `segdebias cluster` writes.  A lazy `features` holds one
    map at a time.
    """
    foreground: dict[int, list[Centroid]] = {}
    background: list[Centroid] = []
    for record in sorted(manifest.records, key=lambda r: r.image_id):
        fmap = features[record.image_id]
        label = pseudo_labels[record.image_id]
        check_image(record, fmap, label, manifest.embedding_dim)
        if label.has_sentinel():
            raise ValueError(f"{record.image_id}: pseudo label must not contain -1")
        for class_id in (0,) + label.foreground_classes():
            vectors = decompose_class_vectors(fmap, label, class_id)
            k = k_bg if class_id == 0 else k_fg
            result = kmeans_spherical(vectors, k, derive_seed(seed, record.image_id, class_id))
            dest = background if class_id == 0 else foreground.setdefault(class_id, [])
            for j in range(result.centroids.shape[0]):
                dest.append(
                    Centroid(
                        vector=result.centroids[j],
                        class_id=class_id,
                        image_id=record.image_id,
                        cluster_index=j,
                        member_count=int(result.counts[j]),
                    )
                )
            del vectors, result  # one region resident at a time
        del fmap  # one map resident at a time: free it before the next is read
    return CentroidBank(
        foreground={c: tuple(v) for c, v in foreground.items()},
        background=tuple(background),
        k_fg=k_fg,
        k_bg=k_bg,
    )
