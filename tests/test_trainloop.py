import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdebias.core import DatasetManifest, ImageRecord, LabelMap
from segdebias.evaluation import ConfusionMatrix, accumulate, report
from segdebias.trainloop import (
    SegHead,
    TrainConfig,
    certainty_mask,
    complement_label,
    ema_update,
    forward,
    teacher_label,
    train,
    wce_gradient,
    wce_loss,
    write_metrics_csv,
)

from conftest import random_feature_map, single_record_manifest


def zero_head(num_classes, dim):
    return SegHead(weights=np.zeros((num_classes + 1, dim)), bias=np.zeros(num_classes + 1))


class TestForward:
    def test_zero_head_is_uniform(self):
        rng = np.random.default_rng(0)
        fmap = random_feature_map(rng, 3, 2, 2)
        probs = forward(zero_head(3, 3), fmap)
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_channel_sums_to_one(self):
        rng = np.random.default_rng(1)
        fmap = random_feature_map(rng, 4, 3, 5)
        head = SegHead(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
        probs = forward(head, fmap)
        assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        fmap = random_feature_map(rng, 4, 3, 3)
        head = SegHead(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
        shifted = SegHead(weights=head.weights, bias=head.bias + 7.3)
        assert np.allclose(forward(head, fmap), forward(shifted, fmap), atol=1e-9)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(3)
        fmap = random_feature_map(rng, 4, 2, 2)
        with pytest.raises(ValueError, match="dim"):
            forward(zero_head(2, 5), fmap)


class TestTeacherLabel:
    def test_restricted_argmax(self):
        probs = np.array([0.2, 0.5, 0.3])[:, None, None]
        label = teacher_label(probs, truth_classes={2})
        assert label.data[0, 0] == 2  # channel 1 is masked out, 0.3 > 0.2

    def test_uniform_ties_to_background(self):
        probs = np.full((4, 1, 1), 0.25)
        assert teacher_label(probs, truth_classes={1, 2, 3}).data[0, 0] == 0

    def test_all_truth_is_plain_argmax(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(4, 3, 3))
        probs = np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True)
        label = teacher_label(probs, truth_classes={1, 2, 3})
        assert np.array_equal(label.data, np.argmax(probs, axis=0).astype(np.int16))

    def test_never_emits_sentinel(self):
        rng = np.random.default_rng(5)
        probs = rng.random((3, 4, 4))
        probs /= probs.sum(axis=0, keepdims=True)
        assert not teacher_label(probs, truth_classes={2}).has_sentinel()


class TestCertaintyMask:
    def test_decided_pixels_are_one(self):
        ydb = LabelMap(np.array([[2]], dtype=np.int16), 3)
        probs = np.full((4, 1, 1), 0.25)
        assert certainty_mask(ydb, probs, {1, 3})[0, 0] == 1.0

    def test_sentinel_takes_max_truth_probability(self):
        ydb = LabelMap(np.array([[-1]], dtype=np.int16), 3)
        probs = np.array([0.5, 0.3, 0.15, 0.05])[:, None, None]
        assert certainty_mask(ydb, probs, {1, 3}) == pytest.approx(np.array([[0.3]]))

    def test_uniform_probs(self):
        ydb = LabelMap(np.array([[-1]], dtype=np.int16), 4)
        probs = np.full((5, 1, 1), 0.2)
        assert certainty_mask(ydb, probs, {1, 2, 3, 4})[0, 0] == pytest.approx(0.2)

    def test_all_ones_when_no_sentinel(self):
        rng = np.random.default_rng(6)
        ydb = LabelMap(rng.integers(0, 3, (4, 4)).astype(np.int16), 2)
        probs = rng.random((3, 4, 4))
        probs /= probs.sum(axis=0, keepdims=True)
        assert np.all(certainty_mask(ydb, probs, {1, 2}) == 1.0)


class TestComplement:
    def test_fill_and_keep(self):
        ydb = LabelMap(np.array([[-1, 2]], dtype=np.int16), 4)
        yte = LabelMap(np.array([[4, 4]], dtype=np.int16), 4)
        out = complement_label(ydb, yte)
        assert out.data.tolist() == [[4, 2]]
        assert not out.has_sentinel()

    def test_noop_without_sentinel(self):
        ydb = LabelMap(np.array([[1, 0]], dtype=np.int16), 2)
        yte = LabelMap(np.array([[2, 2]], dtype=np.int16), 2)
        assert np.array_equal(complement_label(ydb, yte).data, ydb.data)

    def test_rejects_sentinel_teacher(self):
        ydb = LabelMap(np.array([[1]], dtype=np.int16), 1)
        yte = LabelMap(np.array([[-1]], dtype=np.int16), 1)
        with pytest.raises(ValueError, match="-1"):
            complement_label(ydb, yte)


class TestWCELoss:
    def test_perfect_prediction_zero_loss(self):
        probs = np.zeros((3, 2, 2))
        probs[1] = 1.0
        yco = LabelMap(np.ones((2, 2), dtype=np.int16), 2)
        assert wce_loss(probs, yco, np.ones((2, 2))) == 0.0

    def test_zero_weights_zero_loss(self):
        rng = np.random.default_rng(7)
        probs = rng.random((3, 2, 2))
        probs /= probs.sum(axis=0, keepdims=True)
        yco = LabelMap(rng.integers(0, 3, (2, 2)).astype(np.int16), 2)
        assert wce_loss(probs, yco, np.zeros((2, 2))) == 0.0

    def test_single_pixel_value(self):
        p = float(np.exp(-2.0))
        probs = np.array([p, 1.0 - p])[:, None, None]
        yco = LabelMap(np.zeros((1, 1), dtype=np.int16), 1)
        assert wce_loss(probs, yco, np.full((1, 1), 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_linear_in_disjoint_weights(self):
        rng = np.random.default_rng(8)
        probs = rng.random((4, 3, 3))
        probs /= probs.sum(axis=0, keepdims=True)
        yco = LabelMap(rng.integers(0, 4, (3, 3)).astype(np.int16), 3)
        w1 = rng.random((3, 3)) * (rng.random((3, 3)) < 0.5)
        w2 = rng.random((3, 3)) * (w1 == 0)
        assert wce_loss(probs, yco, w1 + w2) == wce_loss(probs, yco, w1) + wce_loss(
            probs, yco, w2
        )

    def test_rejects_sentinel(self):
        probs = np.full((2, 1, 1), 0.5)
        yco = LabelMap(np.array([[-1]], dtype=np.int16), 1)
        with pytest.raises(ValueError, match="-1"):
            wce_loss(probs, yco, np.ones((1, 1)))


class TestGradient:
    def test_zero_weight_zero_gradient(self):
        rng = np.random.default_rng(9)
        fmap = random_feature_map(rng, 3, 2, 2)
        head = SegHead(weights=rng.normal(size=(3, 3)), bias=rng.normal(size=3))
        yco = LabelMap(rng.integers(0, 3, (2, 2)).astype(np.int16), 2)
        grad_w, grad_b = wce_gradient(head, fmap, yco, np.zeros((2, 2)))
        assert not grad_w.any() and not grad_b.any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        fmap = random_feature_map(rng, 3, 2, 3)
        head = SegHead(weights=rng.normal(size=(3, 3)), bias=rng.normal(size=3))
        yco = LabelMap(rng.integers(0, 3, (2, 3)).astype(np.int16), 2)
        weights = rng.random((2, 3))
        grad_w, grad_b = wce_gradient(head, fmap, yco, weights)
        step = 1e-5
        for index in np.ndindex(head.weights.shape):
            perturb = np.zeros_like(head.weights)
            perturb[index] = step
            up = wce_loss(forward(SegHead(head.weights + perturb, head.bias), fmap), yco, weights)
            down = wce_loss(forward(SegHead(head.weights - perturb, head.bias), fmap), yco, weights)
            numeric = (up - down) / (2 * step)
            assert numeric == pytest.approx(grad_w[index], rel=1e-4, abs=1e-8)


class TestEMA:
    def test_momentum_zero_copies_student(self):
        rng = np.random.default_rng(11)
        teacher = SegHead(rng.normal(size=(2, 3)), rng.normal(size=2))
        student = SegHead(rng.normal(size=(2, 3)), rng.normal(size=2))
        out = ema_update(teacher, student, 0.0)
        assert np.array_equal(out.weights, student.weights)
        assert np.array_equal(out.bias, student.bias)

    def test_fixpoint(self):
        rng = np.random.default_rng(12)
        head = SegHead(rng.normal(size=(2, 3)), rng.normal(size=2))
        out = ema_update(head, head, 0.99)
        assert np.allclose(out.weights, head.weights)

    def test_scalar_step(self):
        teacher = SegHead(np.zeros((1, 1)), np.zeros(1))
        student = SegHead(np.ones((1, 1)), np.ones(1))
        out = ema_update(teacher, student, 0.99)
        assert out.weights[0, 0] == pytest.approx(0.01)

    def test_geometric_convergence(self):
        rng = np.random.default_rng(13)
        student = SegHead(rng.normal(size=(2, 4)), rng.normal(size=2))
        teacher = SegHead(rng.normal(size=(2, 4)), rng.normal(size=2))
        momentum = 0.9
        gap0 = np.linalg.norm(teacher.weights - student.weights)
        for n in range(1, 12):
            teacher = ema_update(teacher, student, momentum)
            gap = np.linalg.norm(teacher.weights - student.weights)
            assert gap <= momentum**n * gap0 + 1e-12

    def test_momentum_range(self):
        head = SegHead(np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="momentum"):
            ema_update(head, head, 1.0)


class TestTrain:
    def _setup(self, tmp_path, sentinel=True):
        rng = np.random.default_rng(14)
        fmap = random_feature_map(rng, 4, 4, 4)
        grid = rng.integers(0, 3, (4, 4)).astype(np.int16)
        if sentinel:
            grid[0, 0] = -1
        gt = LabelMap(np.abs(grid).astype(np.int16), 2)
        label = LabelMap(np.where(grid == -1, 0, grid).astype(np.int16), 2)
        manifest = single_record_manifest(tmp_path, fmap, label, {1, 2}, gt=gt)
        debiased = {"img": LabelMap(grid, 2)}
        return manifest, {"img": fmap}, debiased, {"img": gt}

    def test_zero_epochs_returns_initial_head(self, tmp_path):
        manifest, features, debiased, gts = self._setup(tmp_path)
        config = TrainConfig(epochs=0, seed=5)
        r1 = train(manifest, debiased, config, features=features, ground_truth=gts)
        r2 = train(manifest, debiased, config, features=features, ground_truth=gts)
        assert r1.metrics == ()
        assert np.array_equal(r1.teacher.weights, r2.teacher.weights)
        assert np.array_equal(r1.teacher.weights, r1.student.weights)

    def test_training_reduces_loss(self, tmp_path):
        manifest, features, debiased, gts = self._setup(tmp_path)
        config = TrainConfig(epochs=12, learning_rate=1e-3, seed=0)
        result = train(manifest, debiased, config, features=features, ground_truth=gts)
        losses = [m.loss for m in result.metrics]
        assert losses[-1] < losses[0]
        for i in range(2, len(losses)):
            assert losses[i] <= losses[i - 1] * 1.05

    def test_metrics_carry_scores_with_ground_truth(self, tmp_path):
        manifest, features, debiased, gts = self._setup(tmp_path)
        config = TrainConfig(epochs=2, seed=0)
        result = train(manifest, debiased, config, features=features, ground_truth=gts)
        assert all(m.miou is not None for m in result.metrics)
        assert set(result.predictions) == {"img"}
        assert not result.predictions["img"].has_sentinel()

    def test_ground_truth_outside_the_manifest_is_ignored(self, tmp_path):
        manifest, features, debiased, gts = self._setup(tmp_path)
        config = TrainConfig(epochs=2, seed=0)
        extra = {**gts, "other": gts["img"]}
        r1 = train(manifest, debiased, config, features=features, ground_truth=gts)
        r2 = train(manifest, debiased, config, features=features, ground_truth=extra)
        assert r1.metrics == r2.metrics
        assert all(m.miou is not None for m in r2.metrics)

    def test_determinism(self, tmp_path):
        manifest, features, debiased, gts = self._setup(tmp_path)
        config = TrainConfig(epochs=4, seed=9)
        r1 = train(manifest, debiased, config, features=features, ground_truth=gts)
        r2 = train(manifest, debiased, config, features=features, ground_truth=gts)
        assert np.array_equal(r1.teacher.weights, r2.teacher.weights)
        assert np.array_equal(r1.student.bias, r2.student.bias)

    def test_missing_debiased_label_rejected(self, tmp_path):
        manifest, features, _, gts = self._setup(tmp_path)
        with pytest.raises(ValueError, match="missing debiased label"):
            train(manifest, {}, TrainConfig(epochs=1), features=features, ground_truth=gts)

    def test_non_finite_loss_aborts(self, tmp_path, monkeypatch):
        manifest, features, debiased, gts = self._setup(tmp_path)
        import segdebias.trainloop as tl

        monkeypatch.setattr(tl, "_wce", lambda *a, **k: float("nan"))
        with pytest.raises(RuntimeError, match="non-finite loss"):
            train(manifest, debiased, TrainConfig(epochs=1), features=features, ground_truth=gts)

    def test_non_finite_update_aborts(self, tmp_path):
        manifest, features, debiased, gts = self._setup(tmp_path)
        config = TrainConfig(epochs=1, learning_rate=float("inf"))
        with pytest.raises(ValueError, match="head parameters must be finite"):
            train(manifest, debiased, config, features=features, ground_truth=gts)

    def test_label_shape_mismatch_rejected_before_first_step(self, tmp_path, monkeypatch):
        manifest, features, debiased, gts = self._setup(tmp_path)
        import segdebias.trainloop as tl

        def no_step(*args):
            raise AssertionError("a step ran before the shape check")

        monkeypatch.setattr(tl, "_softmax", no_step)
        wide = {"img": LabelMap(np.zeros((4, 5), dtype=np.int16), 2)}
        with pytest.raises(ValueError, match=r"img: debiased label dims \(4, 5\)"):
            train(manifest, wide, TrainConfig(epochs=1), features=features, ground_truth=gts)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(ema_momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(seed=-1)


def test_metrics_csv_columns(tmp_path):
    from segdebias.trainloop import EpochMetrics

    path = tmp_path / "m.csv"
    write_metrics_csv(path, [EpochMetrics(0, 3.5, 0.9, 0.01, 0.02), EpochMetrics(1, 2.0)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,miou,fp,fn"
    assert lines[1].startswith("0,3.5,0.9")
    assert lines[2] == "1,2.0,,,"


# -- reference: the per-step training path before the loop ran on raw arrays --------


def _ref_forward(head, fmap):
    logits = np.tensordot(head.weights, fmap.data.astype(np.float64), axes=([1], [0]))
    logits += head.bias[:, None, None]
    logits -= logits.max(axis=0, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0, keepdims=True)
    return logits


def _ref_teacher_label(probs, truth_classes):
    num_classes = probs.shape[0] - 1
    allowed = [0] + sorted({int(c) for c in truth_classes if 1 <= int(c) <= num_classes})
    winners = np.argmax(probs[allowed], axis=0)
    return LabelMap(np.asarray(allowed, dtype=np.int16)[winners], num_classes)


def _ref_wce_loss(probs, yco, weights):
    h, w = yco.spatial_shape
    labels = yco.data.astype(np.int64)
    picked = probs[labels, np.arange(h)[:, None], np.arange(w)[None, :]]
    return float(np.sum(weights * -np.log(np.maximum(picked, 1e-12))))


def _ref_gradient(probs, fmap, yco, weights):
    grad_logits = np.array(probs, dtype=np.float64)
    h, w = yco.spatial_shape
    grad_logits[yco.data.astype(np.int64), np.arange(h)[:, None], np.arange(w)[None, :]] -= 1.0
    grad_logits *= weights
    grad_w = np.tensordot(grad_logits, fmap.data.astype(np.float64), axes=([1, 2], [1, 2]))
    return grad_w, grad_logits.sum(axis=(1, 2))


def _ref_predict(head, records, features):
    return {
        r.image_id: _ref_teacher_label(_ref_forward(head, features[r.image_id]), r.truth_classes)
        for r in records
    }


def reference_train(manifest, debiased_labels, config, *, features, ground_truth):
    rng = np.random.default_rng(config.seed)
    student = SegHead.initialize(manifest.num_classes, manifest.embedding_dim, rng)
    teacher = student
    records = manifest.records
    have_gt = all(r.image_id in ground_truth for r in records) and len(records) > 0
    metrics, predictions = [], None
    for epoch in range(config.epochs):
        order = rng.permutation(len(records))
        epoch_loss = 0.0
        for idx in order:
            record = records[int(idx)]
            fmap = features[record.image_id]
            ydb = debiased_labels[record.image_id]
            if config.complement:
                teacher_probs = _ref_forward(teacher, fmap)
                yte = _ref_teacher_label(teacher_probs, record.truth_classes)
                filled = np.where(ydb.data == -1, yte.data, ydb.data).astype(np.int16)
                yco = LabelMap(filled, ydb.num_classes)
                if config.certainty_weighting:
                    confidence = teacher_probs[sorted(record.truth_classes)].max(axis=0)
                    weights = np.where(ydb.data == -1, confidence, 1.0)
                else:
                    weights = np.ones(ydb.spatial_shape, dtype=np.float64)
            else:
                weights = (ydb.data != -1).astype(np.float64)
                kept = np.where(ydb.data == -1, 0, ydb.data).astype(np.int16)
                yco = LabelMap(kept, ydb.num_classes)
            probs = _ref_forward(student, fmap)
            loss = _ref_wce_loss(probs, yco, weights)
            grad_w, grad_b = _ref_gradient(probs, fmap, yco, weights)
            student = SegHead(
                weights=student.weights - config.learning_rate * grad_w,
                bias=student.bias - config.learning_rate * grad_b,
            )
            m = config.ema_momentum
            teacher = SegHead(
                weights=m * teacher.weights + (1.0 - m) * student.weights,
                bias=m * teacher.bias + (1.0 - m) * student.bias,
            )
            epoch_loss += loss
        if have_gt:
            predictions = _ref_predict(teacher, records, features)
            cm = ConfusionMatrix.empty(manifest.num_classes)
            for image_id in sorted(ground_truth):
                cm = accumulate(cm, ground_truth[image_id], predictions[image_id])
            rep = report(cm)
            metrics.append((epoch, epoch_loss, rep.miou, rep.fp_rate, rep.fn_rate))
        else:
            metrics.append((epoch, epoch_loss, None, None, None))
    if predictions is None:
        predictions = _ref_predict(teacher, records, features)
    return teacher, student, metrics, predictions


def _random_training_set(seed, num_images, d, h, w, num_classes):
    rng = np.random.default_rng(seed)
    records, features, debiased, gts = [], {}, {}, {}
    for i in range(num_images):
        image_id = f"img_{i}"
        size = int(rng.integers(1, num_classes + 1))
        truth = rng.choice(np.arange(1, num_classes + 1), size=size, replace=False)
        grid = rng.choice(np.concatenate(([0], truth)), size=(h, w)).astype(np.int16)
        gts[image_id] = LabelMap(grid, num_classes)
        grid = np.where((grid > 0) & (rng.random((h, w)) < 0.3), -1, grid).astype(np.int16)
        debiased[image_id] = LabelMap(grid, num_classes)
        features[image_id] = random_feature_map(rng, d, h, w)
        paths = (f"{image_id}.features.bin", f"{image_id}.labels.bin")
        records.append(ImageRecord(image_id, *paths, frozenset(truth.tolist())))
    manifest = DatasetManifest(tuple(records), num_classes=num_classes, embedding_dim=d)
    return manifest, features, debiased, gts


@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from([(4, 8, 5, 7, 3), (3, 64, 16, 12, 4)]),
    complement=st.booleans(),
    certainty=st.booleans(),
    with_gt=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_train_bit_identical_to_per_step_reference(seed, shape, complement, certainty, with_gt):
    manifest, features, debiased, gts = _random_training_set(seed, *shape)
    config = TrainConfig(
        epochs=3,
        learning_rate=0.05,
        seed=seed,
        complement=complement,
        certainty_weighting=certainty,
    )
    gts = gts if with_gt else {}
    result = train(manifest, debiased, config, features=features, ground_truth=gts)
    teacher, student, metrics, predictions = reference_train(
        manifest, debiased, config, features=features, ground_truth=gts
    )
    assert np.array_equal(result.teacher.weights, teacher.weights)
    assert np.array_equal(result.teacher.bias, teacher.bias)
    assert np.array_equal(result.student.weights, student.weights)
    assert np.array_equal(result.student.bias, student.bias)
    assert [(m.epoch, m.loss, m.miou, m.fp_rate, m.fn_rate) for m in result.metrics] == metrics
    assert result.predictions.keys() == predictions.keys()
    for image_id, label in predictions.items():
        assert np.array_equal(result.predictions[image_id].data, label.data)
