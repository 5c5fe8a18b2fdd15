import numpy as np
import pytest

from segdebias import formats
from segdebias.bank import build_centroid_bank, decompose_class_vectors
from segdebias.core import DatasetManifest, FeatureMap, ImageRecord
from segdebias.pipeline import debias_all
from segdebias.selection import select_debiased
from segdebias.synth import SynthConfig, generate


@pytest.fixture(scope="session")
def standard_corpus(tmp_path_factory):
    return generate(SynthConfig.standard(), tmp_path_factory.mktemp("standard_corpus"))


@pytest.fixture(scope="session")
def standard_bank(standard_corpus):
    return build_centroid_bank(
        standard_corpus.manifest,
        formats.load_pseudo_labels(standard_corpus.manifest),
        k_fg=2,
        k_bg=2,
        seed=0,
        features=formats.load_features(standard_corpus.manifest),
    )


@pytest.fixture(scope="session")
def standard_centroids(standard_bank):
    return select_debiased(standard_bank, 0.40)


@pytest.fixture(scope="session")
def standard_debiased(standard_corpus, standard_centroids):
    return debias_all(
        standard_corpus.manifest,
        formats.load_features(standard_corpus.manifest),
        formats.load_pseudo_labels(standard_corpus.manifest),
        standard_centroids,
        0.30,
    )


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    config = SynthConfig(
        num_images=8,
        image_size=(12, 20),
        num_classes=2,
        embedding_dim=12,
        problematic_classes=(1,),
        secondary_class_rate=0.5,
        bias_in_background_rate=0.8,
        seed=11,
    )
    return generate(config, tmp_path_factory.mktemp("tiny_corpus"))


def cosine_similarity(a, b) -> float:
    """Naive cosine of two vectors, clamped to [-1, 1]: the oracle the
    pipeline's vectorized cosine kernels are checked against."""
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


def centroid_quality(bank, features, pseudo_labels, ground_truth):
    """(member_count, gt_match_count) of every foreground centroid, keyed by
    (class_id, image_id, cluster_index): its member pixels re-assigned over
    the image's class region, then counted against ground truth.  The
    all-centroid oracle `analysis.selection_accuracy` is checked against."""
    out = {}
    for class_id in bank.foreground_classes():
        by_image = {}
        for c in bank.foreground[class_id]:
            by_image.setdefault(c.image_id, []).append(c)
        for image_id, centroids in by_image.items():
            centroids.sort(key=lambda c: c.cluster_index)
            label = pseudo_labels[image_id]
            vectors = decompose_class_vectors(features[image_id], label, class_id)
            positions = np.argwhere(label.data == class_id)
            matrix = np.stack([c.vector for c in centroids])
            assign = np.argmax(np.clip(vectors @ matrix.T, -1.0, 1.0), axis=1)
            for j, c in enumerate(centroids):
                member_pos = positions[assign == j]
                member_gt = ground_truth[image_id].data[member_pos[:, 0], member_pos[:, 1]]
                out[(class_id, image_id, c.cluster_index)] = (
                    len(member_pos),
                    int((member_gt == class_id).sum()),
                )
    return out


def random_feature_map(rng, d=3, h=4, w=5) -> FeatureMap:
    data = rng.normal(size=(d, h, w)).astype(np.float32)
    # keep every pixel vector clearly nonzero
    data[0] += np.sign(data[0]) + (data[0] == 0)
    return FeatureMap(data)


def single_record_manifest(tmp_path, fmap, label, truth, gt=None):
    """Write one image to disk and wrap it in a manifest (for loader paths)."""
    fpath = tmp_path / "img.features.bin"
    lpath = tmp_path / "img.labels.bin"
    formats.write_feature_map(fpath, fmap)
    formats.write_label_map(lpath, label)
    gt_path = None
    if gt is not None:
        gt_path = tmp_path / "img.gt.bin"
        formats.write_label_map(gt_path, gt)
    record = ImageRecord(
        image_id="img",
        feature_path=fpath,
        label_path=lpath,
        truth_classes=frozenset(truth),
        gt_path=gt_path,
    )
    return DatasetManifest(
        records=(record,),
        num_classes=label.num_classes,
        embedding_dim=fmap.embedding_dim,
    )
