import numpy as np
import pytest

from segdebias.core import LabelMap
from segdebias.evaluation import (
    ConfusionMatrix,
    accumulate,
    evaluate_predictions,
    per_class_fp_rows,
    report,
    report_json,
    report_text,
)


def lmap(grid, c):
    return LabelMap(np.asarray(grid, dtype=np.int16), c)


class TestAccumulate:
    def test_perfect_prediction_is_diagonal(self):
        gt = lmap([[0, 1], [2, 2]], 2)
        cm = accumulate(ConfusionMatrix.empty(2), gt, gt)
        assert np.array_equal(cm.counts, np.diag([1, 1, 2]))

    def test_ignored_pixels_skipped(self):
        gt = lmap([[-1, -1]], 2)
        pred = lmap([[1, 2]], 2)
        cm = accumulate(ConfusionMatrix.empty(2), gt, pred)
        assert cm.counts.sum() == 0

    def test_matches_per_pixel_tally(self):
        rng = np.random.default_rng(3)
        cm = ConfusionMatrix.empty(3)
        gt = lmap(rng.integers(-1, 4, (4, 4)), 3)
        pred = lmap(rng.integers(0, 4, (4, 4)), 3)
        cm = accumulate(cm, gt, pred)
        expected = np.zeros((4, 4), dtype=np.int64)
        for y in range(4):
            for x in range(4):
                if gt.data[y, x] != -1:
                    expected[gt.data[y, x], pred.data[y, x]] += 1
        assert np.array_equal(cm.counts, expected)

    def test_rejects_sentinel_prediction(self):
        gt = lmap([[0]], 1)
        pred = lmap([[-1]], 1)
        with pytest.raises(ValueError, match="-1"):
            accumulate(ConfusionMatrix.empty(1), gt, pred)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            accumulate(ConfusionMatrix.empty(1), lmap([[0]], 1), lmap([[0, 0]], 1))

    def test_additive_and_order_independent(self):
        rng = np.random.default_rng(4)
        images = [
            (lmap(rng.integers(0, 3, (3, 3)), 2), lmap(rng.integers(0, 3, (3, 3)), 2))
            for _ in range(4)
        ]
        forward_cm = ConfusionMatrix.empty(2)
        for gt, pred in images:
            forward_cm = accumulate(forward_cm, gt, pred)
        backward_cm = ConfusionMatrix.empty(2)
        for gt, pred in reversed(images):
            backward_cm = accumulate(backward_cm, gt, pred)
        assert np.array_equal(forward_cm.counts, backward_cm.counts)
        halves = ConfusionMatrix.empty(2)
        for gt, pred in images[:2]:
            halves = accumulate(halves, gt, pred)
        rest = ConfusionMatrix.empty(2)
        for gt, pred in images[2:]:
            rest = accumulate(rest, gt, pred)
        assert np.array_equal((halves + rest).counts, forward_cm.counts)


class TestReport:
    def test_perfect(self):
        gt = lmap([[0, 1], [2, 2]], 2)
        rep = report(accumulate(ConfusionMatrix.empty(2), gt, gt))
        assert rep.miou == 1.0
        assert rep.fp_rate == 0.0 and rep.fn_rate == 0.0

    def test_all_background_prediction(self):
        gt = lmap([[1, 1], [0, 0]], 1)
        pred = lmap([[0, 0], [0, 0]], 1)
        rep = report(accumulate(ConfusionMatrix.empty(1), gt, pred))
        assert rep.fp_rate == 0.0
        assert rep.fn_rate == pytest.approx(0.5)

    def test_matches_set_based_iou(self):
        rng = np.random.default_rng(9)
        gt = lmap(rng.integers(0, 4, (6, 6)), 3)
        pred = lmap(rng.integers(0, 4, (6, 6)), 3)
        rep = report(accumulate(ConfusionMatrix.empty(3), gt, pred))
        for class_id, iou in rep.per_class_iou.items():
            gt_set = set(map(tuple, np.argwhere(gt.data == class_id)))
            pred_set = set(map(tuple, np.argwhere(pred.data == class_id)))
            expected = len(gt_set & pred_set) / len(gt_set | pred_set)
            assert iou == pytest.approx(expected, abs=1e-12)

    def test_absent_class_excluded_from_mean(self):
        gt = lmap([[0, 1]], 3)
        pred = lmap([[0, 1]], 3)
        rep = report(accumulate(ConfusionMatrix.empty(3), gt, pred))
        assert set(rep.per_class_iou) == {0, 1}
        assert rep.miou == 1.0

    def test_rates_bounded(self):
        rng = np.random.default_rng(10)
        gt = lmap(rng.integers(0, 3, (5, 5)), 2)
        pred = lmap(rng.integers(0, 3, (5, 5)), 2)
        rep = report(accumulate(ConfusionMatrix.empty(2), gt, pred))
        assert 0.0 <= rep.fp_rate <= 1.0 and 0.0 <= rep.fn_rate <= 1.0
        ious = list(rep.per_class_iou.values())
        assert min(ious) <= rep.miou <= max(ious)


def test_evaluate_predictions_and_serialization():
    gt = {"a": lmap([[0, 1]], 1), "b": lmap([[1, 1]], 1)}
    pred = {"a": lmap([[0, 1]], 1), "b": lmap([[1, 0]], 1)}
    rep = evaluate_predictions(gt, pred, 1)
    text = report_text(rep)
    assert "miou" in text and "fp_rate" in text
    import json

    payload = json.loads(report_json(rep))
    assert set(payload) == {"per_class_iou", "miou", "fp_rate", "fn_rate", "per_class_fp"}
    rows = per_class_fp_rows(rep)
    assert rows and set(rows[0]) == {"class_id", "fp_share"}


def test_evaluate_predictions_requires_overlap():
    with pytest.raises(ValueError, match="shared"):
        evaluate_predictions({"a": lmap([[0]], 1)}, {"b": lmap([[0]], 1)}, 1)


@pytest.mark.parametrize(
    "gt_ids, pred_ids, message",
    [(("a", "b"), ("a",), "b has no prediction"), (("a",), ("a", "b"), "b has no ground truth")],
)
def test_evaluate_predictions_rejects_unshared_ids(gt_ids, pred_ids, message):
    gt = {i: lmap([[0, 1]], 1) for i in gt_ids}
    pred = {i: lmap([[0, 1]], 1) for i in pred_ids}
    with pytest.raises(ValueError, match=message):
        evaluate_predictions(gt, pred, 1)
