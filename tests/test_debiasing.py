import logging
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdebias import debiasing
from segdebias.core import FeatureMap, ImageRecord, LabelMap
from segdebias.debiasing import _similarity, debias_image
from segdebias.selection import DebiasedCentroidSet

from conftest import random_feature_map


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def centroid_set(vectors):
    return DebiasedCentroidSet(
        per_class={c: unit(v) for c, v in vectors.items()},
        alpha=0.4,
        selected_counts={c: 1 for c in vectors},
    )


def record(truth):
    return ImageRecord("img", "img.f", "img.l", frozenset(truth))


def debias_with_similarity(sim, pseudo, threshold):
    """debias_image on an image whose similarity map is fixed to `sim`; every
    class of the label is a truth class."""
    sim = np.asarray(sim, dtype=np.float64)
    fmap = FeatureMap(np.ones((1, *sim.shape), dtype=np.float32))
    truth = record(range(1, pseudo.num_classes + 1))
    with mock.patch.object(debiasing, "_similarity", lambda *args: sim):
        return debias_image(
            truth, fmap, pseudo, centroid_set({1: [1.0]}), threshold, embedding_dim=1
        )


def foreground(shape):
    return LabelMap(np.ones(shape, dtype=np.int16), 1)


def test_centroid_length_must_match_feature_dim():
    fmap = FeatureMap(np.ones((3, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="img: centroid vector length 2 != feature dim 3"):
        debias_image(
            record({1}), fmap, foreground((2, 2)), centroid_set({1: [1.0, 0.0]}), 0.3, embedding_dim=3
        )


def test_label_class_outside_truth_set_rejected():
    rng = np.random.default_rng(3)
    fmap = random_feature_map(rng, 3, 2, 2)
    pseudo = LabelMap(np.array([[1, 2], [0, 0]], dtype=np.int16), 2)
    cset = centroid_set({1: rng.normal(size=3), 2: rng.normal(size=3)})
    with pytest.raises(ValueError, match=r"img: label classes \[2\] outside truth set"):
        debias_image(record({1}), fmap, pseudo, cset, 0.3, embedding_dim=3)


class TestSimilarityMap:
    def test_self_similarity_is_one(self):
        v = unit([1.0, 2.0, 2.0])
        data = np.tile(v[:, None, None], (1, 2, 2)).astype(np.float32)
        fmap = FeatureMap(data)
        sim = _similarity(fmap, centroid_set({1: v}), [1])
        assert np.allclose(sim, 1.0, atol=1e-6)

    def test_orthogonal_pixel_is_zero(self):
        fmap = FeatureMap(np.array([[[1.0]], [[0.0]]], dtype=np.float32))
        sim = _similarity(fmap, centroid_set({1: [0.0, 1.0]}), [1])
        assert sim[0, 0] == 0.0

    def test_negative_similarity_clipped(self):
        fmap = FeatureMap(np.array([[[1.0]], [[0.0]]], dtype=np.float32))
        sim = _similarity(fmap, centroid_set({1: [-1.0, 0.0]}), [1])
        assert sim[0, 0] == 0.0

    def test_two_classes_equal_elementwise_max(self):
        rng = np.random.default_rng(9)
        fmap = random_feature_map(rng, 4, 5, 6)
        cset = centroid_set({1: rng.normal(size=4), 2: rng.normal(size=4)})
        combined = _similarity(fmap, cset, [1, 2])
        single_1 = _similarity(fmap, cset, [1])
        single_2 = _similarity(fmap, cset, [2])
        assert np.allclose(combined, np.maximum(single_1, single_2), atol=1e-15)

    def test_missing_class_skipped_with_warning(self, caplog):
        rng = np.random.default_rng(1)
        fmap = random_feature_map(rng, 3, 2, 2)
        cset = centroid_set({1: rng.normal(size=3)})
        pseudo = LabelMap(np.array([[1, 2], [0, 0]], dtype=np.int16), 2)
        with caplog.at_level(logging.WARNING):
            debiased = debias_image(record({1, 2}), fmap, pseudo, cset, 0.3, embedding_dim=3)
        assert "img: no debiased centroid for classes [2]; skipping them" in caplog.text
        keep = _similarity(fmap, cset, [1]) >= 0.3
        expected = np.where((pseudo.data > 0) & ~keep, -1, pseudo.data)
        assert np.array_equal(debiased.data, expected)

    def test_no_usable_centroids(self):
        rng = np.random.default_rng(1)
        fmap = random_feature_map(rng, 3, 2, 2)
        cset = centroid_set({1: rng.normal(size=3)})
        pseudo = LabelMap(np.zeros((2, 2), dtype=np.int16), 3)
        message = "img: no usable centroids: none for truth classes [2, 3]"
        with pytest.raises(ValueError, match=re.escape(message)):
            debias_image(record({2, 3}), fmap, pseudo, cset, 0.3, embedding_dim=3)


def _two_buffer_similarity(fmap, centroids, classes):
    """_similarity as a float64 copy of the map plus `np.linalg.norm`'s own
    squares: the reference the one-buffer form must match bit for bit."""
    d, h, w = fmap.data.shape
    flat = fmap.data.reshape(d, h * w).astype(np.float64)
    norms = np.linalg.norm(flat, axis=0)
    best = np.full(h * w, -1.0)
    for class_id in classes:
        vec = centroids.per_class[class_id]
        sims = np.clip((vec @ flat) / (norms * float(np.linalg.norm(vec))), -1.0, 1.0)
        np.maximum(best, sims, out=best)
    return np.maximum(best, 0.0).reshape(h, w)


class TestSimilarityBuffer:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([16, 128]),
        st.integers(1, 3),
        st.integers(1, 24),
        st.integers(1, 24),
        st.sampled_from([0.01, 1.0, 100.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_two_buffer_formula(self, seed, d, n_classes, h, w, scale):
        rng = np.random.default_rng(seed)
        fmap = FeatureMap(random_feature_map(rng, d, h, w).data * np.float32(scale))
        classes = list(range(1, n_classes + 1))
        cset = centroid_set({c: rng.normal(size=d) for c in classes})
        assert np.array_equal(
            _similarity(fmap, cset, classes), _two_buffer_similarity(fmap, cset, classes)
        )

    @pytest.mark.parametrize("d", [16, 128])
    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_holds_one_float64_copy_of_the_map(self, d, n_classes):
        rng = np.random.default_rng(2)
        h, w = 32, 32
        fmap = random_feature_map(rng, d, h, w)
        classes = list(range(1, n_classes + 1))
        cset = centroid_set({c: rng.normal(size=d) for c in classes})
        tracemalloc.start()
        try:
            _similarity(fmap, cset, classes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 copy of the map, plus a few float64 (H, W) planes: the
        # per-class products, the norms and the running maximum
        assert peak <= (d + 8) * h * w * 8


class TestBinarize:
    """The keep rule of debias_image: a pixel stays when its similarity
    reaches the threshold."""

    def test_zero_threshold_keeps_everything(self):
        sim = np.array([[0.0, 0.2], [0.9, 0.5]])
        assert not debias_with_similarity(sim, foreground((2, 2)), 0.0).has_sentinel()

    def test_threshold_one_keeps_only_exact_ones(self):
        sim = np.array([[1.0, 0.999999], [0.5, 1.0]])
        out = debias_with_similarity(sim, foreground((2, 2)), 1.0)
        assert out.data.tolist() == [[1, -1], [-1, 1]]

    def test_out_of_range_threshold_rejected(self):
        sim = np.zeros((1, 1))
        for threshold in (1.0 + 1e-9, -0.1, float("nan")):
            with pytest.raises(ValueError, match="threshold"):
                debias_with_similarity(sim, foreground((1, 1)), threshold)

    def test_pointwise(self):
        sim = np.array([[0.2, 0.5, 0.8]])
        out = debias_with_similarity(sim, foreground((1, 3)), 0.5)
        assert out.data.tolist() == [[-1, 1, 1]]

    def test_nan_similarity_is_rewritten(self):
        sim = np.array([[np.nan, 0.9]])
        out = debias_with_similarity(sim, foreground((1, 2)), 0.0)
        assert out.data.tolist() == [[-1, 1]]


class TestDebiasLabel:
    def test_case_split(self):
        pseudo = LabelMap(np.array([[0, 3], [3, 0]], dtype=np.int16), 3)
        sim = np.array([[0.0, 0.0], [1.0, 0.0]])
        out = debias_with_similarity(sim, pseudo, 0.5)
        assert out.data.tolist() == [[0, -1], [3, 0]]

    def test_dim_mismatch(self):
        rng = np.random.default_rng(2)
        fmap = random_feature_map(rng, 3, 3, 2)
        pseudo = LabelMap(np.zeros((2, 2), dtype=np.int16), 1)
        cset = centroid_set({1: rng.normal(size=3)})
        with pytest.raises(ValueError, match="shape"):
            debias_image(record({1}), fmap, pseudo, cset, 0.3, embedding_dim=3)

    def test_rejects_existing_sentinel(self):
        pseudo = LabelMap(np.array([[-1]], dtype=np.int16), 1)
        with pytest.raises(ValueError, match="^img: pseudo label must not contain -1$"):
            debias_with_similarity(np.ones((1, 1)), pseudo, 0.5)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pixel_partition_invariant(self, seed):
        rng = np.random.default_rng(seed)
        pseudo = LabelMap(rng.integers(0, 4, size=(5, 5)).astype(np.int16), 3)
        out = debias_with_similarity(rng.random((5, 5)), pseudo, 0.5)
        same = out.data == pseudo.data
        sentinel = out.data == -1
        assert bool(np.all(same | sentinel))
        assert bool(np.all(pseudo.data[sentinel] > 0))

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(13)
        fmap = random_feature_map(rng, 4, 6, 6)
        pseudo = LabelMap(rng.integers(0, 3, size=(6, 6)).astype(np.int16), 2)
        cset = centroid_set({1: rng.normal(size=4), 2: rng.normal(size=4)})
        previous = None
        for threshold in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = debias_image(record({1, 2}), fmap, pseudo, cset, threshold, embedding_dim=4)
            current = set(map(tuple, np.argwhere(out.data == -1)))
            if previous is not None:
                assert previous <= current
            previous = current
