import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdebias.core import FeatureMap, ImageRecord, LabelMap
from segdebias.debiasing import (
    binarize,
    debias_image,
    debias_label,
    similarity_map,
)
from segdebias.pipeline import debias_record
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


class TestSimilarityMap:
    def test_self_similarity_is_one(self):
        v = unit([1.0, 2.0, 2.0])
        data = np.tile(v[:, None, None], (1, 2, 2)).astype(np.float32)
        fmap = FeatureMap(data)
        sim = similarity_map(fmap, centroid_set({1: v}), {1})
        assert np.allclose(sim, 1.0, atol=1e-6)

    def test_orthogonal_pixel_is_zero(self):
        fmap = FeatureMap(np.array([[[1.0]], [[0.0]]], dtype=np.float32))
        sim = similarity_map(fmap, centroid_set({1: [0.0, 1.0]}), {1})
        assert sim[0, 0] == 0.0

    def test_negative_similarity_clipped(self):
        fmap = FeatureMap(np.array([[[1.0]], [[0.0]]], dtype=np.float32))
        sim = similarity_map(fmap, centroid_set({1: [-1.0, 0.0]}), {1})
        assert sim[0, 0] == 0.0

    def test_two_classes_equal_elementwise_max(self):
        rng = np.random.default_rng(9)
        fmap = random_feature_map(rng, 4, 5, 6)
        cset = centroid_set({1: rng.normal(size=4), 2: rng.normal(size=4)})
        combined = similarity_map(fmap, cset, {1, 2})
        single_1 = similarity_map(fmap, cset, {1})
        single_2 = similarity_map(fmap, cset, {2})
        assert np.allclose(combined, np.maximum(single_1, single_2), atol=1e-15)

    def test_missing_class_skipped_with_warning(self, caplog):
        rng = np.random.default_rng(1)
        fmap = random_feature_map(rng, 3, 2, 2)
        cset = centroid_set({1: rng.normal(size=3)})
        assert np.array_equal(similarity_map(fmap, cset, {1, 2}), similarity_map(fmap, cset, {1}))
        record = ImageRecord("img_3", "f", "l", frozenset({1, 2}))
        pseudo = LabelMap(np.array([[1, 2], [0, 0]], dtype=np.int16), 2)
        with caplog.at_level(logging.WARNING):
            debiased = debias_record(record, fmap, pseudo, cset, 0.3)
        assert "img_3: no debiased centroid for classes [2]; skipping them" in caplog.text
        assert debiased.spatial_shape == (2, 2)

    def test_no_usable_centroids(self):
        rng = np.random.default_rng(1)
        fmap = random_feature_map(rng, 3, 2, 2)
        cset = centroid_set({1: rng.normal(size=3)})
        with pytest.raises(ValueError, match="no usable centroids"):
            similarity_map(fmap, cset, {2, 3})


class TestBinarize:
    def test_zero_threshold_keeps_everything(self):
        sim = np.array([[0.0, 0.2], [0.9, 0.5]])
        assert binarize(sim, 0.0).all()

    def test_threshold_one_keeps_only_exact_ones(self):
        sim = np.array([[1.0, 0.999999], [0.5, 1.0]])
        mask = binarize(sim, 1.0)
        assert mask.tolist() == [[True, False], [False, True]]

    def test_out_of_range_threshold_rejected(self):
        sim = np.zeros((1, 1))
        with pytest.raises(ValueError, match="threshold"):
            binarize(sim, 1.0 + 1e-9)
        with pytest.raises(ValueError, match="threshold"):
            binarize(sim, -0.1)

    def test_pointwise(self):
        sim = np.array([[0.2, 0.5, 0.8]])
        assert binarize(sim, 0.5).tolist() == [[False, True, True]]


class TestDebiasLabel:
    def test_case_split(self):
        pseudo = LabelMap(np.array([[0, 3], [3, 0]], dtype=np.int16), 3)
        mask = np.array([[False, False], [True, False]])
        out = debias_label(pseudo, mask)
        assert out.data.tolist() == [[0, -1], [3, 0]]

    def test_dim_mismatch(self):
        pseudo = LabelMap(np.zeros((2, 2), dtype=np.int16), 1)
        with pytest.raises(ValueError, match="shape"):
            debias_label(pseudo, np.ones((3, 2), dtype=bool))

    def test_rejects_existing_sentinel(self):
        pseudo = LabelMap(np.array([[-1]], dtype=np.int16), 1)
        with pytest.raises(ValueError, match="-1"):
            debias_label(pseudo, np.ones((1, 1), dtype=bool))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pixel_partition_invariant(self, seed):
        rng = np.random.default_rng(seed)
        pseudo = LabelMap(rng.integers(0, 4, size=(5, 5)).astype(np.int16), 3)
        mask = rng.random((5, 5)) > 0.5
        out = debias_label(pseudo, mask)
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
            out = debias_image(fmap, pseudo, cset, {1, 2}, threshold)
            current = set(map(tuple, np.argwhere(out.data == -1)))
            if previous is not None:
                assert previous <= current
            previous = current
