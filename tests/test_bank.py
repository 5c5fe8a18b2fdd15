import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segdebias import bank, formats
from segdebias.bank import (
    Centroid,
    CentroidBank,
    build_centroid_bank,
    decompose_class_vectors,
    derive_seed,
    kmeans_spherical,
)
from segdebias.core import DatasetManifest, FeatureMap, ImageRecord, LabelMap
from segdebias.synth import SynthConfig, generate

from conftest import random_feature_map


def unit_cloud(rng, center, n, spread=0.05):
    points = center + spread * rng.normal(size=(n, len(center)))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def _exact_normalized_sum(members):
    """The members' column sums, each correctly rounded by math.fsum, normalized."""
    sums = np.array([math.fsum(column) for column in members.T])
    return sums / math.sqrt(math.fsum(sums * sums))


class TestDecompose:
    def test_empty_region(self):
        rng = np.random.default_rng(0)
        fmap = random_feature_map(rng, 3, 2, 2)
        label = LabelMap(np.zeros((2, 2), dtype=np.int16), 2)
        vectors = decompose_class_vectors(fmap, label, 1)
        assert vectors.shape == (0, 3)
        assert vectors.dtype == np.float64
        assert vectors.flags.c_contiguous

    def test_row_masking(self):
        fmap = FeatureMap(np.arange(1, 13, dtype=np.float32).reshape(3, 2, 2))
        label = LabelMap(np.array([[1, 1], [0, 0]], dtype=np.int16), 1)
        vectors = decompose_class_vectors(fmap, label, 1)
        expected = fmap.data[:, 0, :].T.astype(np.float64)
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        assert np.allclose(vectors, expected)
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0)

    def test_counts_match_label_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            fmap = random_feature_map(rng, 4, 6, 7)
            label = LabelMap(rng.integers(0, 4, size=(6, 7)).astype(np.int16), 3)
            for class_id in range(4):
                expected = int((label.data == class_id).sum())
                assert decompose_class_vectors(fmap, label, class_id).shape[0] == expected

    def test_shape_mismatch(self):
        rng = np.random.default_rng(0)
        fmap = random_feature_map(rng, 3, 2, 2)
        label = LabelMap(np.zeros((3, 2), dtype=np.int16), 1)
        with pytest.raises(ValueError, match="shape"):
            decompose_class_vectors(fmap, label, 0)

    def test_rows_are_c_ordered(self):
        # the cluster sums match the row-by-row sum on C-ordered rows of region
        # size, which keeps the bank byte-identical; pin that layout
        rng = np.random.default_rng(3)
        fmap = random_feature_map(rng, 128, 40, 40)
        label = LabelMap((rng.random((40, 40)) < 0.8).astype(np.int16), 1)
        vectors = decompose_class_vectors(fmap, label, 1)
        n = int((label.data == 1).sum())
        assert vectors.shape == (n, 128) and vectors.dtype == np.float64
        assert vectors.flags.c_contiguous and vectors.flags.owndata
        assert vectors.strides == (128 * 8, 8)

    def test_holds_one_float64_copy_of_the_region(self):
        # a float64 copy of the gathered rows beside the squares and the result
        # made every region of a 64x64, D=128 map fault its heap in again
        rng = np.random.default_rng(6)
        fmap = random_feature_map(rng, 128, 64, 64)
        label = LabelMap((rng.random((64, 64)) < 0.3).astype(np.int16), 1)
        n = int((label.data == 1).sum())
        tracemalloc.start()
        try:
            vectors = decompose_class_vectors(fmap, label, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vectors.shape == (n, 128)
        # the float32 gather and one float64 (n, D) buffer, plus the mask and
        # numpy's casting buffers (8192 elements each); a second float64 buffer
        # would add 1.2 MB
        assert peak <= n * 128 * (4 + 8) + 256 * 1024


class TestKMeans:
    def test_single_vector(self):
        v = np.array([[0.6, 0.8]])
        result = kmeans_spherical(v, 2, seed=0)
        assert result.centroids.shape == (1, 2)
        assert np.allclose(result.centroids[0], v[0])
        assert result.counts.tolist() == [1]

    def test_duplicates_collapse(self):
        v = np.tile([0.6, 0.8], (10, 1))
        result = kmeans_spherical(v, 2, seed=3)
        assert result.centroids.shape[0] in (1, 2)
        assert int(result.counts.sum()) == 10
        assert np.allclose(result.centroids, [0.6, 0.8])

    def test_antipodal_clusters_match_bruteforce_means(self):
        rng = np.random.default_rng(7)
        a = unit_cloud(rng, np.array([1.0, 0.0]), 50)
        b = unit_cloud(rng, np.array([-1.0, 0.0]), 50)
        vectors = np.vstack([a, b])
        result = kmeans_spherical(vectors, 2, seed=1)
        assert result.centroids.shape == (2, 2)
        # brute-force oracle: nearest planted mean decides the partition
        for cloud in (a, b):
            mean = cloud.mean(axis=0)
            mean /= np.linalg.norm(mean)
            dists = [
                (1.0 - float(np.clip(c @ mean, -1, 1))) / 2.0 for c in result.centroids
            ]
            assert min(dists) < 0.01
        signs = np.sign(vectors[:, 0])
        cluster_of_positive = result.assignments[signs > 0]
        cluster_of_negative = result.assignments[signs < 0]
        assert len(set(cluster_of_positive.tolist())) == 1
        assert len(set(cluster_of_negative.tolist())) == 1
        assert cluster_of_positive[0] != cluster_of_negative[0]

    def test_centroids_are_normalized_member_means(self):
        rng = np.random.default_rng(11)
        vectors = unit_cloud(rng, np.array([0.3, 0.5, 0.8]), 40, spread=0.6)
        result = kmeans_spherical(vectors, 3, seed=2)
        for j in range(result.centroids.shape[0]):
            members = vectors[result.assignments == j]
            assert len(members) == result.counts[j] >= 1
            mean = members.sum(axis=0)
            mean /= np.linalg.norm(mean)
            assert np.allclose(result.centroids[j], mean, atol=1e-6)

    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 30))
    @settings(max_examples=40, deadline=None)
    def test_objective_monotone(self, seed, k, n):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        result = kmeans_spherical(vectors, k, seed=seed)
        trace = result.objective_trace
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))

    def test_cancelled_sum_falls_back_to_first_member(self):
        result = kmeans_spherical(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1, seed=0)
        assert result.centroids.tolist() == [[1.0, 0.0]]
        assert result.counts.tolist() == [2]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 4096),
        st.sampled_from([0.0, 0.3, 3.0]),
        st.booleans(),
    )
    @example(seed=0, m=2, n=4096, spread=3.0, fortran=True)
    @example(seed=0, m=2, n=4096, spread=3.0, fortran=False)
    @settings(max_examples=30, deadline=None)
    def test_normalized_means_match_exact_sums(self, seed, m, n, spread, fortran):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(4, 128))
        points = centers[rng.integers(4, size=n)] + spread * rng.normal(size=(n, 128))
        vectors = points / np.linalg.norm(points, axis=1, keepdims=True)
        if fortran:
            vectors = np.asfortranarray(vectors)
        assign = rng.integers(m, size=n)
        means, counts = bank._normalized_means(vectors, assign, m)
        assert counts.tolist() == np.bincount(assign, minlength=m).tolist()
        for j in range(m):
            members = vectors[assign == j]
            if len(members) == 0:
                assert not means[j].any()
            else:
                assert np.abs(means[j] - _exact_normalized_sum(members)).max() <= 1e-12

    def test_one_cluster_adds_rows_in_order(self):
        # a one-row product goes to gemv, which adds in another order; one
        # cluster keeps the in-order sum, so a k=1 bank does not move
        rng = np.random.default_rng(13)
        vectors = unit_cloud(rng, rng.normal(size=128), 1365, spread=0.5)
        in_order = vectors[0].copy()
        for row in vectors[1:]:
            in_order += row
        means, counts = bank._normalized_means(vectors, np.zeros(1365, dtype=np.int64), 1)
        assert counts.tolist() == [1365]
        assert np.array_equal(means[0], in_order / np.linalg.norm(in_order))

    def test_fixpoint_result_is_its_own_lloyd_step(self):
        # at a fixpoint the closing pass is skipped: the returned centroids must
        # still be exactly the means of the returned assignments, which are the
        # centroids' own nearest-centroid assignments
        rng = np.random.default_rng(12)
        vectors = unit_cloud(rng, np.array([0.3, 0.5, 0.8]), 200, spread=0.6)
        result = kmeans_spherical(vectors, 3, seed=5)
        assert len(result.objective_trace) - 1 < bank.MAX_LLOYD_ITERATIONS
        assert result.objective_trace[-1] == result.objective_trace[-2]
        means, counts = bank._normalized_means(vectors, result.assignments, 3)
        assert np.array_equal(means, result.centroids)
        assert np.array_equal(counts, result.counts)
        assert np.array_equal(np.argmax(vectors @ result.centroids.T, axis=1), result.assignments)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1140, 1400, 1478]),
        st.sampled_from([2, 3]),
        st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_contiguous_block_leaves_the_bank_where_it_was(self, seed, n, k, capped):
        # region sizes of the 64x64, D=128 maps, where the contiguous and the
        # transposed centroid block round differently in the last bits; the
        # assignments and the centroids must still be the transposed product's
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(k + 1, 128))
        points = centers[rng.integers(k + 1, size=n)] + 0.8 * rng.normal(size=(n, 128))
        vectors = points / np.linalg.norm(points, axis=1, keepdims=True)

        def transposed(vectors, centroids):
            return np.clip(vectors @ centroids.T, -1.0, 1.0)

        cap = 1 if capped else bank.MAX_LLOYD_ITERATIONS  # 1: the closing pass reassigns
        with mock.patch.object(bank, "MAX_LLOYD_ITERATIONS", cap):
            result = kmeans_spherical(vectors, k, seed)
            with mock.patch.object(bank, "_similarities", transposed):
                reference = kmeans_spherical(vectors, k, seed)
        assert np.array_equal(result.assignments, reference.assignments)
        assert np.array_equal(result.centroids, reference.centroids)
        assert np.array_equal(result.counts, reference.counts)
        assert np.allclose(result.objective_trace, reference.objective_trace, rtol=1e-12, atol=0)
        means, counts = bank._normalized_means(vectors, result.assignments, len(result.centroids))
        assert np.array_equal(means, result.centroids)
        assert np.array_equal(counts, result.counts)
        if not capped:
            old = np.argmax(vectors @ result.centroids.T, axis=1)
            assert np.array_equal(result.assignments, old)

    @staticmethod
    def _two_clouds():
        rng = np.random.default_rng(8)
        a = unit_cloud(rng, np.array([1.0, 0.0, 0.0]), 20)
        b = unit_cloud(rng, np.array([0.0, 1.0, 0.0]), 20)
        return np.vstack([a, b])

    @staticmethod
    def _coincident_seeds(vectors, k, rng):
        """k seeds all on the first vector, which k-means++ never returns."""
        return np.repeat(vectors[:1], k, axis=0)

    @staticmethod
    def _assert_coherent(result):
        m = result.centroids.shape[0]
        assert np.allclose(np.linalg.norm(result.centroids, axis=1), 1.0, atol=1e-12)
        assert (result.counts > 0).all()
        assert np.array_equal(result.counts, np.bincount(result.assignments, minlength=m))

    def test_empty_cluster_is_reseeded_to_the_farthest_point(self):
        vectors = self._two_clouds()
        with mock.patch.object(bank, "_kmeanspp_init", self._coincident_seeds), mock.patch.object(
            bank, "_normalized_means", wraps=bank._normalized_means
        ) as means:
            result = kmeans_spherical(vectors, 2, seed=0)
        # every point joins the first of the two equal seeds; only the reseed of
        # the empty second cluster can split the clouds
        assert result.centroids.shape[0] == 2
        assert len(set(result.assignments[:20].tolist())) == 1
        assert len(set(result.assignments[20:].tolist())) == 1
        assert result.assignments[0] != result.assignments[20]
        self._assert_coherent(result)
        # means are computed in every Lloyd iteration but the one that finds the
        # fixpoint, and the closing pass adds none at a fixpoint
        iterations = len(result.objective_trace) - 1
        assert iterations < bank.MAX_LLOYD_ITERATIONS
        assert means.call_count == iterations - 1

    def test_iteration_cap_drops_clusters_left_empty(self):
        vectors = self._two_clouds()
        with mock.patch.object(bank, "_kmeanspp_init", self._coincident_seeds), mock.patch.object(
            bank, "MAX_LLOYD_ITERATIONS", 0
        ):
            result = kmeans_spherical(vectors, 2, seed=0)
        # no Lloyd step runs: the closing pass gives every point to the first seed
        # and drops the empty second one
        assert result.centroids.shape[0] == 1
        assert result.assignments.tolist() == [0] * 40
        self._assert_coherent(result)
        assert len(result.objective_trace) == 1  # no iteration, then the closing pass

    def test_iteration_cap_drops_an_empty_middle_cluster(self):
        vectors = self._two_clouds()

        def seeds(vectors, k, rng):
            # the middle seed is orthogonal to both clouds and wins no point
            return np.vstack([vectors[0], [0.0, 0.0, 1.0], vectors[20]])

        with mock.patch.object(bank, "_kmeanspp_init", seeds), mock.patch.object(
            bank, "MAX_LLOYD_ITERATIONS", 0
        ):
            result = kmeans_spherical(vectors, 3, seed=0)
        # the closing pass drops the middle cluster and renumbers the last one
        assert result.assignments.tolist() == [0] * 20 + [1] * 20
        self._assert_coherent(result)
        means, _ = bank._normalized_means(vectors, result.assignments, 2)
        assert np.array_equal(result.centroids, means)
        assert len(result.objective_trace) == 1

    def test_empty_input(self):
        result = kmeans_spherical(np.zeros((0, 4)), 2, seed=0)
        assert result.centroids.shape[0] == 0
        assert result.objective_trace == ()

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit-norm"):
            kmeans_spherical(np.array([[2.0, 0.0]]), 1, seed=0)

    def test_k_is_a_whole_number(self):
        vectors = np.eye(3)
        for k, message in [
            (1.5, "k must be a whole number, got 1.5"),
            (True, "k must be a whole number, got True"),
            (0, "k must be >= 1, got 0"),
        ]:
            with pytest.raises(ValueError) as err:
                kmeans_spherical(vectors, k, seed=0)
            assert str(err.value) == message
        assert kmeans_spherical(vectors, 2.0, seed=0).centroids.shape[0] == 2

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        vectors = unit_cloud(rng, np.array([0.0, 1.0]), 25, spread=0.4)
        r1 = kmeans_spherical(vectors, 3, seed=9)
        r2 = kmeans_spherical(vectors, 3, seed=9)
        assert np.array_equal(r1.centroids, r2.centroids)
        assert np.array_equal(r1.assignments, r2.assignments)


def _three_image_manifest(tmp_path, with_empty_background=False):
    rng = np.random.default_rng(21)
    records = []
    features = {}
    labels = {}
    for i in range(3):
        fmap = random_feature_map(rng, 4, 4, 4)
        grid = np.zeros((4, 4), dtype=np.int16)
        grid[:2] = 1
        if with_empty_background and i == 0:
            grid[:] = 1
        image_id = f"im{i}"
        features[image_id] = fmap
        labels[image_id] = LabelMap(grid, 1)
        records.append(
            ImageRecord(
                image_id=image_id,
                feature_path=tmp_path / f"{image_id}.f",
                label_path=tmp_path / f"{image_id}.l",
                truth_classes=frozenset({1}),
            )
        )
    manifest = DatasetManifest(records=tuple(records), num_classes=1, embedding_dim=4)
    return manifest, features, labels


class TestBuildBank:
    def test_counting(self, tmp_path):
        manifest, features, labels = _three_image_manifest(tmp_path)
        bank = build_centroid_bank(manifest, labels, 2, 2, seed=0, features=features)
        assert len(bank.foreground[1]) == 6
        assert len(bank.background) == 6

    def test_image_without_background(self, tmp_path):
        manifest, features, labels = _three_image_manifest(tmp_path, with_empty_background=True)
        bank = build_centroid_bank(manifest, labels, 2, 2, seed=0, features=features)
        assert len(bank.background) == 4  # first image contributes none

    def test_bank_is_independent_of_manifest_order(self, tmp_path):
        manifest, features, labels = _three_image_manifest(tmp_path)
        reversed_manifest = DatasetManifest(
            records=tuple(reversed(manifest.records)),
            num_classes=manifest.num_classes,
            embedding_dim=manifest.embedding_dim,
        )
        for tag, m in (("forward", manifest), ("reversed", reversed_manifest)):
            bank = build_centroid_bank(m, labels, 2, 2, seed=0, features=features)
            formats.write_centroid_bank(tmp_path / f"{tag}.bin", bank)
        assert (tmp_path / "forward.bin").read_bytes() == (tmp_path / "reversed.bin").read_bytes()

    def test_byte_identical_across_runs(self, tmp_path):
        manifest, features, labels = _three_image_manifest(tmp_path)
        paths = []
        for tag in ("one", "two"):
            bank = build_centroid_bank(manifest, labels, 2, 2, seed=0, features=features)
            path = tmp_path / f"bank_{tag}.bin"
            formats.write_centroid_bank(path, bank)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rejects_sentinel_pseudo_label(self, tmp_path):
        manifest, features, labels = _three_image_manifest(tmp_path)
        grid = labels["im0"].data.copy()
        grid[0, 0] = -1
        labels["im0"] = LabelMap(grid, 1)
        with pytest.raises(ValueError, match="^im0: pseudo label must not contain -1$"):
            build_centroid_bank(manifest, labels, 2, 2, seed=0, features=features)

    def test_rejects_label_outside_truth(self, tmp_path):
        rng = np.random.default_rng(2)
        fmap = random_feature_map(rng, 4, 2, 2)
        label = LabelMap(np.array([[2, 0], [0, 0]], dtype=np.int16), 2)
        record = ImageRecord("x", tmp_path / "f", tmp_path / "l", frozenset({1}))
        manifest = DatasetManifest(records=(record,), num_classes=2, embedding_dim=4)
        with pytest.raises(ValueError, match="outside truth"):
            build_centroid_bank(manifest, {"x": label}, 2, 2, seed=0, features={"x": fmap})

    def test_rejects_dim_mismatch(self, tmp_path):
        manifest, features, labels = _three_image_manifest(tmp_path)
        rng = np.random.default_rng(2)
        features["im0"] = random_feature_map(rng, 5, 4, 4)
        with pytest.raises(ValueError, match="dim"):
            build_centroid_bank(manifest, labels, 2, 2, seed=0, features=features)

    def test_sigma_zero_recovers_planted_prototypes(self, tmp_path):
        config = SynthConfig(
            num_images=8,
            image_size=(12, 20),
            num_classes=2,
            embedding_dim=12,
            problematic_classes=(1,),
            feature_noise_sigma=0.0,
            detail_fraction=0.0,
            target_detail_affinity=0.0,
            bias_cooccurrence=1.0,
            secondary_class_rate=0.5,
            bias_in_background_rate=1.0,
            seed=3,
        )
        corpus = generate(config, tmp_path)
        masks = formats.load_bias_masks(corpus.manifest)
        record = next(r for r in corpus.manifest.records if masks[r.image_id].any())
        vectors = decompose_class_vectors(
            formats.read_feature_map(record.feature_path),
            formats.load_pseudo_labels(corpus.manifest)[record.image_id],
            1,
        )
        result = kmeans_spherical(vectors, 2, seed=derive_seed(0, record.image_id, 1))
        planted = [corpus.prototypes.targets[1], corpus.prototypes.biased[1]]
        for proto in planted:
            dists = [
                (1.0 - float(np.clip(c @ proto, -1, 1))) / 2.0 for c in result.centroids
            ]
            assert min(dists) < 1e-6


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "img_1", 2) == derive_seed(7, "img_1", 2)
    assert derive_seed(7, "img_1", 2) != derive_seed(7, "img_1", 3)
    assert derive_seed(7, "img_1", 2) != derive_seed(8, "img_1", 2)


def test_centroid_validation():
    for vector in ([2.0, 0.0], [0.0, 0.0], [np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="unit-norm"):
            Centroid(np.array(vector), 1, "a", 0, 5)
    with pytest.raises(ValueError, match="1-D"):
        Centroid(np.array([[1.0, 0.0]]), 1, "a", 0, 5)
    for count, message in [
        (0, "member_count must be >= 1, got 0"),
        (2.5, "member_count must be a whole number, got 2.5"),
        (True, "member_count must be a whole number, got True"),
    ]:
        with pytest.raises(ValueError) as err:
            Centroid(np.array([1.0, 0.0]), 1, "a", 0, count)
        assert str(err.value) == message
    assert type(Centroid(np.array([1.0, 0.0]), 1, "a", 0, 3.0).member_count) is int


def test_bank_k_is_a_whole_number():
    centroid = Centroid(np.array([1.0, 0.0]), 0, "a", 0, 1)
    base = {"foreground": {}, "background": (centroid,), "k_fg": 2, "k_bg": 2}
    for knobs, message in [
        ({"k_fg": 1.5}, "k_fg must be a whole number, got 1.5"),
        ({"k_bg": True}, "k_bg must be a whole number, got True"),
        ({"k_bg": 0}, "k_bg must be >= 1, got 0"),
        # the bank header stores each k as a u32
        ({"k_fg": 2**32}, "k_fg must be <= 4294967295, got 4294967296"),
        ({"k_bg": 2**32}, "k_bg must be <= 4294967295, got 4294967296"),
    ]:
        with pytest.raises(ValueError) as err:
            CentroidBank(**{**base, **knobs})
        assert str(err.value) == message


def test_bank_with_the_largest_k_round_trips(tmp_path):
    centroid = Centroid(np.array([1.0, 0.0]), 0, "a", 0, 1)
    largest = CentroidBank(foreground={}, background=(centroid,), k_fg=2**32 - 1, k_bg=2**32 - 1)
    formats.write_centroid_bank(tmp_path / "bank.bin", largest)
    back = formats.read_centroid_bank(tmp_path / "bank.bin")
    assert (back.k_fg, back.k_bg) == (2**32 - 1, 2**32 - 1)
