import numpy as np
import pytest

from segdebias.core import LabelMap
from segdebias.evaluation import (
    _report,
    _tally,
    evaluate_predictions,
    per_class_fp_rows,
    report_json,
    report_text,
)


def lmap(grid, c):
    return LabelMap(np.asarray(grid, dtype=np.int16), c)


def per_pixel_counts(gt, pred, c):
    expected = np.zeros((c + 1, c + 1), dtype=np.int64)
    for (y, x), g in np.ndenumerate(gt.data):
        if g != -1:
            expected[g, pred.data[y, x]] += 1
    return expected


class TestAccumulate:
    def test_perfect_prediction_is_diagonal(self):
        gt = lmap([[0, 1], [2, 2]], 2)
        assert np.array_equal(_tally(gt, gt, 2), np.diag([1, 1, 2]))

    def test_ignored_pixels_skipped(self):
        gt = lmap([[-1, -1]], 2)
        pred = lmap([[1, 2]], 2)
        assert _tally(gt, pred, 2).sum() == 0

    def test_matches_per_pixel_tally(self):
        rng = np.random.default_rng(3)
        gt = lmap(rng.integers(-1, 4, (4, 4)), 3)
        pred = lmap(rng.integers(0, 4, (4, 4)), 3)
        assert np.array_equal(_tally(gt, pred, 3), per_pixel_counts(gt, pred, 3))

    # past 179 classes the (C+1)*(C+2) bins no longer fit the int16 codes
    @pytest.mark.parametrize("c", [179, 180, 250])
    def test_matches_per_pixel_tally_at_many_classes(self, c):
        rng = np.random.default_rng(3)
        grid = rng.integers(-1, c + 1, (4, 4))
        grid[0, :2] = [c, -1]
        gt = lmap(grid, c)
        pred = lmap(np.where(grid == c, c, rng.integers(0, c + 1, (4, 4))), c)
        assert np.array_equal(_tally(gt, pred, c), per_pixel_counts(gt, pred, c))

    def test_rejects_sentinel_prediction(self):
        gt = lmap([[0]], 1)
        pred = lmap([[-1]], 1)
        with pytest.raises(ValueError, match="-1"):
            _tally(gt, pred, 1)

    def test_dim_mismatch(self):
        message = r"^a: ground truth shape \(1, 1\) != label shape \(1, 2\)$"
        with pytest.raises(ValueError, match=message):
            evaluate_predictions({"a": lmap([[0]], 1)}, {"a": lmap([[0, 0]], 1)}, 1)

    def test_rejects_over_classed_ground_truth(self):
        message = "a: ground truth num_classes 2 exceeds manifest num_classes 1"
        with pytest.raises(ValueError, match=message):
            evaluate_predictions({"a": lmap([[0]], 2)}, {"a": lmap([[0]], 1)}, 1)

    def test_rejects_prediction_class_beyond_the_matrix(self):
        message = "a: prediction num_classes 2 exceeds manifest num_classes 1"
        with pytest.raises(ValueError, match=message):
            evaluate_predictions({"a": lmap([[0]], 1)}, {"a": lmap([[2]], 2)}, 1)

    def test_additive_and_order_independent(self):
        rng = np.random.default_rng(4)
        images = {
            f"im{i}": (lmap(rng.integers(0, 3, (3, 3)), 2), lmap(rng.integers(0, 3, (3, 3)), 2))
            for i in range(4)
        }
        total = sum(_tally(gt, pred, 2) for gt, pred in images.values())
        rep = evaluate_predictions(
            {i: gt for i, (gt, _) in images.items()},
            {i: pred for i, (_, pred) in reversed(images.items())},
            2,
        )
        assert rep == _report(total)
        backward = dict(reversed(images.items()))
        assert rep == evaluate_predictions(
            {i: gt for i, (gt, _) in backward.items()},
            {i: pred for i, (_, pred) in backward.items()},
            2,
        )


class TestReport:
    def test_perfect(self):
        gt = lmap([[0, 1], [2, 2]], 2)
        rep = _report(_tally(gt, gt, 2))
        assert rep.miou == 1.0
        assert rep.fp_rate == 0.0 and rep.fn_rate == 0.0

    def test_all_background_prediction(self):
        gt = lmap([[1, 1], [0, 0]], 1)
        pred = lmap([[0, 0], [0, 0]], 1)
        rep = _report(_tally(gt, pred, 1))
        assert rep.fp_rate == 0.0
        assert rep.fn_rate == pytest.approx(0.5)

    def test_matches_set_based_iou(self):
        rng = np.random.default_rng(9)
        gt = lmap(rng.integers(0, 4, (6, 6)), 3)
        pred = lmap(rng.integers(0, 4, (6, 6)), 3)
        rep = _report(_tally(gt, pred, 3))
        for class_id, iou in rep.per_class_iou.items():
            gt_set = set(map(tuple, np.argwhere(gt.data == class_id)))
            pred_set = set(map(tuple, np.argwhere(pred.data == class_id)))
            expected = len(gt_set & pred_set) / len(gt_set | pred_set)
            assert iou == pytest.approx(expected, abs=1e-12)

    def test_absent_class_excluded_from_mean(self):
        gt = lmap([[0, 1]], 3)
        pred = lmap([[0, 1]], 3)
        rep = _report(_tally(gt, pred, 3))
        assert set(rep.per_class_iou) == {0, 1}
        assert rep.miou == 1.0

    def test_rates_bounded(self):
        rng = np.random.default_rng(10)
        gt = lmap(rng.integers(0, 3, (5, 5)), 2)
        pred = lmap(rng.integers(0, 3, (5, 5)), 2)
        rep = _report(_tally(gt, pred, 2))
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
