import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segdebias.core import DatasetManifest, FeatureMap, ImageRecord, LabelMap, unit_rows
from segdebias.selection import _background_distances
from segdebias.trainloop import _flat64

finite_vec = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=2,
    max_size=8,
)


def nonzero(v):
    return np.linalg.norm(v) > 1e-6


def cosine(a, b) -> float:
    """Cosine as clustering computes it: a dot product of unit_rows."""
    return float((unit_rows([a]) @ unit_rows([b]).T)[0, 0])


def eq1_distance(a, b) -> float:
    """Eq. 1 of the unit vector of a against a one-centroid background bank b."""
    return float(_background_distances(unit_rows([a]), np.asarray([b], dtype=np.float64))[0])


def test_cosine_similarity_identical_unit_vectors():
    assert cosine([1, 0], [1, 0]) == 1.0


def test_cosine_similarity_orthogonal():
    assert cosine([1, 0], [0, 1]) == 0.0


def test_cosine_similarity_scale_invariant():
    assert cosine([3, 4], [6, 8]) == pytest.approx(1.0, abs=1e-12)


def test_cosine_similarity_zero_norm_rejected():
    with pytest.raises(ValueError, match="degenerate vector"):
        unit_rows([[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="degenerate vector"):
        FeatureMap(np.zeros((2, 1, 1), dtype=np.float32))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.sampled_from([2, 16, 128]),
    st.sampled_from([np.float32, np.float64]),
)
@settings(max_examples=30, deadline=None)
def test_unit_rows_match_copy_first_formula(seed, n, d, dtype):
    # unit_rows casts inside the square and the division; the bits must be
    # those of a float64 copy normalized by np.linalg.norm
    rng = np.random.default_rng(seed)
    rows = (rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))).astype(dtype)
    copied = rows.astype(np.float64)
    assert np.array_equal(unit_rows(rows), copied / np.linalg.norm(copied, axis=-1, keepdims=True))
    # in place, the same bits land in the input's own float64 buffer
    assert unit_rows(copied, out=copied) is copied
    assert np.array_equal(copied, unit_rows(rows))


def test_cosine_distance_examples():
    assert eq1_distance([1, 0], [1, 0]) == 0.0
    assert eq1_distance([1, 0], [0, 1]) == 0.5
    assert eq1_distance([1, 0], [-1, 0]) == 1.0


@given(finite_vec)
def test_cosine_distance_self_and_antipodal(v):
    if not nonzero(v):
        return
    assert abs(eq1_distance(v, v)) <= 1e-12
    assert abs(eq1_distance(v, [-x for x in v]) - 1.0) <= 1e-12


@given(
    finite_vec,
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_cosine_distance_scale_invariance(v, s, t):
    if not nonzero(v):
        return
    w = [x + 1.0 for x in v]
    if not nonzero(w):
        return
    base = eq1_distance(v, w)
    scaled = eq1_distance([s * x for x in v], [t * x for x in w])
    assert abs(base - scaled) <= 1e-9
    assert 0.0 <= base <= 1.0


@given(finite_vec)
@settings(max_examples=50)
def test_cosine_similarity_symmetric(v):
    if not nonzero(v):
        return
    w = [x + 0.5 for x in v]
    if not nonzero(w):
        return
    assert cosine(v, w) == pytest.approx(cosine(w, v), abs=1e-15)


# zeros of both signs, the smallest float32 subnormal, near-overflow magnitudes
FLOAT32_EDGES = [float(np.float32(v)) for v in (0.0, -0.0, 1e-45, -1e-45, 3e38, -3e38, 1.0)]


@st.composite
def edge_feature_maps(draw):
    """Small float32 (D, H, W) maps built from the edge values and any finite
    float32; half of them also carry one NaN or infinity."""
    d, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.one_of(
        st.sampled_from(FLOAT32_EDGES),
        st.floats(width=32, allow_nan=False, allow_infinity=False),
    )
    data = np.array(draw(st.lists(values, min_size=d * h * w, max_size=d * h * w)))
    data = data.astype(np.float32).reshape(d, h, w)
    if draw(st.booleans()):
        data.flat[draw(st.integers(0, data.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
    return data


def float64_norm_rule(data):
    """The message of the earlier check, which took each pixel's norm in
    float64, or None if it accepted the map."""
    if not np.isfinite(data).all():
        return "feature map contains non-finite values"
    if np.any(np.linalg.norm(data.astype(np.float64), axis=0) == 0.0):
        return "degenerate vector: zero-norm pixel embedding"
    return None


class TestFeatureMap:
    def test_pixel_vector_layout(self):
        # the training loop's (D, H*W) cast: column y * W + x is pixel (y, x)
        flat = _flat64(FeatureMap(np.array([[[1.0, 2.0]], [[3.0, 4.0]]])))
        assert flat.dtype == np.float64
        assert flat[:, 0].tolist() == [1.0, 3.0]
        assert flat[:, 1].tolist() == [2.0, 4.0]

    def test_pixel_vector_does_not_alias(self):
        fmap = FeatureMap(np.ones((2, 2, 2), dtype=np.float32))
        flat = _flat64(fmap)
        flat[0, 0] = 99.0
        assert fmap.data[0, 0, 0] == 1.0

    def test_rejects_non_finite(self):
        data = np.ones((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMap(data)

    def test_rejects_zero_norm_pixel(self):
        data = np.ones((2, 2, 2), dtype=np.float32)
        data[:, 1, 1] = 0.0
        with pytest.raises(ValueError, match="degenerate"):
            FeatureMap(data)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            FeatureMap(np.ones((2, 2), dtype=np.float32))

    @settings(max_examples=300, deadline=None)
    @given(edge_feature_maps())
    @example(np.array([[[-0.0]], [[0.0]]], dtype=np.float32))
    @example(np.array([[[1e-45]], [[-0.0]]], dtype=np.float32))
    @example(np.array([[[3e38, 0.0]], [[0.0, -3e38]]], dtype=np.float32))
    def test_rejects_what_the_float64_norm_rule_rejects(self, data):
        """A pixel has a zero float64 norm exactly when its entries are all
        ±0, also at the float32 extremes; FeatureMap checks the latter and
        must accept and reject as the norm did, with the same message."""
        expected = float64_norm_rule(data)
        try:
            FeatureMap(data)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_data_is_read_only(self):
        fmap = FeatureMap(np.ones((1, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            fmap.data[0, 0, 0] = 2.0


class TestLabelMap:
    def test_range_enforced(self):
        with pytest.raises(ValueError, match="label out of range"):
            LabelMap(np.array([[200]], dtype=np.int16), num_classes=5)
        with pytest.raises(ValueError, match="label out of range"):
            LabelMap(np.array([[-2]], dtype=np.int16), num_classes=5)

    def test_sentinel_and_classes(self):
        lmap = LabelMap(np.array([[-1, 0], [2, 2]], dtype=np.int16), num_classes=3)
        assert lmap.has_sentinel()
        assert lmap.foreground_classes() == (2,)

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integer"):
            LabelMap(np.array([[0.5]]), num_classes=1)

    def test_num_classes_is_a_whole_number(self):
        data = np.zeros((2, 2), dtype=np.int16)
        for num_classes, message in [
            (1.5, "num_classes must be a whole number, got 1.5"),
            (True, "num_classes must be a whole number, got True"),
            (0, "num_classes must be >= 1, got 0"),
        ]:
            with pytest.raises(ValueError) as err:
                LabelMap(data, num_classes)
            assert str(err.value) == message
        assert type(LabelMap(data, np.int64(2)).num_classes) is int


class TestRecords:
    def test_truth_classes_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            ImageRecord("a", "f", "l", frozenset())
        with pytest.raises(ValueError, match="background"):
            ImageRecord("a", "f", "l", frozenset({0, 1}))
        with pytest.raises(ValueError, match="background"):
            ImageRecord("a", "f", "l", frozenset({-1}))

    def test_manifest_unique_ids(self):
        rec = ImageRecord("a", "f", "l", frozenset({1}))
        with pytest.raises(ValueError, match="unique"):
            DatasetManifest(records=(rec, rec), num_classes=2, embedding_dim=4)

    def test_manifest_needs_a_record(self):
        with pytest.raises(ValueError, match="manifest has no records"):
            DatasetManifest(records=(), num_classes=2, embedding_dim=4)

    def test_manifest_truth_class_bound(self):
        rec = ImageRecord("a", "f", "l", frozenset({5}))
        with pytest.raises(ValueError, match="exceeds"):
            DatasetManifest(records=(rec,), num_classes=2, embedding_dim=4)
