import logging
import re
from dataclasses import fields, replace

import pytest

from segdebias import evaluation, pipeline
from segdebias.core import DatasetManifest, LabelMap
from segdebias.pipeline import PipelineParams, debias_all, run_pipeline
from segdebias.selection import DebiasedCentroidSet
from segdebias.trainloop import TrainConfig


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", 1.5),
        ("alpha", 0.0),
        ("threshold", -0.1),
        ("threshold", 1.5),
        ("k_bg", 1.5),
        ("k_fg", 0),
        ("epochs", -1),
        ("epochs", 2.5),
        ("learning_rate", 0.0),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("learning_rate", True),
        ("alpha", True),
        ("threshold", "0.3"),
        ("ema_momentum", 1.0),
        ("seed", -1),
        ("seed", 1.5),
    ],
)
def test_out_of_range_value_rejected_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        PipelineParams(**{field: value})
    with pytest.raises(ValueError, match=field):
        replace(PipelineParams(), **{field: value})


def test_whole_numbers_stored_as_int():
    params = PipelineParams(k_fg=3.0, k_bg=1.0, epochs=2.0, seed=5.0)
    assert (params.k_fg, params.k_bg, params.epochs, params.seed) == (3, 1, 2, 5)
    assert all(type(v) is int for v in (params.k_fg, params.k_bg, params.epochs, params.seed))


def test_train_config_carries_the_training_fields():
    params = PipelineParams(epochs=3, learning_rate=0.01, seed=4, complement=False)
    config = params.train_config()
    assert type(config) is TrainConfig
    assert all(getattr(config, f.name) == getattr(params, f.name) for f in fields(TrainConfig))


def _only_first(truth):
    return {"img_0000": truth["img_0000"]}


def _one_extra(truth):
    return {**truth, "img_9999": truth["img_0000"]}


def _last_one_column_short(truth):
    *_, (image_id, gt) = sorted(truth.items())
    return {**truth, image_id: LabelMap(gt.data[:, :-1], gt.num_classes)}


def _one_over_classed(truth):
    gt = truth["img_0002"]
    return {**truth, "img_0002": LabelMap(gt.data, gt.num_classes + 1)}


UNFIT_GROUND_TRUTH = [
    (_only_first, "img_0001 has no ground truth"),
    (_one_extra, "img_9999 has no prediction"),
    (
        _last_one_column_short,
        r"img_0059: ground truth shape \(24, 39\) != label shape \(24, 40\)",
    ),
    (_one_over_classed, "img_0002: ground truth num_classes 5 exceeds manifest num_classes 4"),
]


def _no_clustering(monkeypatch):
    def build_centroid_bank(*args, **kwargs):
        pytest.fail("clustered although ground truth does not fit the manifest")

    monkeypatch.setattr(pipeline, "build_centroid_bank", build_centroid_bank)


@pytest.mark.parametrize("ground_truth, message", UNFIT_GROUND_TRUTH)
def test_unshared_ground_truth_fails_before_clustering(
    standard_corpus, monkeypatch, ground_truth, message
):
    _no_clustering(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_pipeline(
            standard_corpus.manifest,
            standard_corpus.features(),
            standard_corpus.pseudo_labels(),
            PipelineParams(),
            ground_truth(standard_corpus.ground_truth()),
        )


@pytest.mark.parametrize("ground_truth, message", UNFIT_GROUND_TRUTH)
def test_sweep_checks_ground_truth_before_clustering(
    standard_corpus, monkeypatch, ground_truth, message
):
    _no_clustering(monkeypatch)
    with pytest.raises(ValueError, match=message):
        pipeline.sweep(
            standard_corpus.manifest,
            standard_corpus.features(),
            standard_corpus.pseudo_labels(),
            ground_truth(standard_corpus.ground_truth()),
            "alpha",
            [0.3, 0.5],
            PipelineParams(epochs=1),
        )


def test_the_chain_scores_each_epoch_once(standard_corpus, monkeypatch):
    """Each epoch's teacher counts every image exactly once, the epoch's metrics
    come from those counts, and train's last epoch score is the report: no
    image is counted again."""
    manifest = standard_corpus.manifest
    params = PipelineParams(epochs=3)
    count, calls = evaluation._pair_counts, []

    def tally(codes, pred, k):
        counts = count(codes, pred, k)
        calls.append((id(codes), counts))
        return counts

    monkeypatch.setattr(evaluation, "_pair_counts", tally)
    result = run_pipeline(
        manifest,
        standard_corpus.features(),
        standard_corpus.pseudo_labels(),
        params,
        standard_corpus.ground_truth(),
    )
    n, k = len(manifest.records), manifest.num_classes + 1
    assert len(calls) == params.epochs * n
    images = {image for image, _ in calls[:n]}
    assert len(images) == n
    for epoch, metrics in enumerate(result.train_result.metrics):
        epoch_calls = calls[epoch * n : (epoch + 1) * n]
        assert {image for image, _ in epoch_calls} == images
        report = evaluation._report(sum(counts for _, counts in epoch_calls).reshape(k, k))
        assert (metrics.miou, metrics.fp_rate, metrics.fn_rate) == (
            report.miou, report.fp_rate, report.fn_rate
        )
    assert result.report == report
    assert result.report is result.train_result.report


def test_debias_without_centroid_names_the_image(standard_corpus, standard_centroids):
    only_1 = DebiasedCentroidSet(
        per_class={1: standard_centroids.per_class[1]}, alpha=0.4, selected_counts={1: 1}
    )
    first = next(r for r in standard_corpus.manifest.records if 1 not in r.truth_classes)
    uncovered = sorted(first.truth_classes)
    message = f"{first.image_id}: no usable centroids: none for truth classes {uncovered}"
    with pytest.raises(ValueError, match=re.escape(message)):
        debias_all(
            standard_corpus.manifest,
            standard_corpus.features(),
            standard_corpus.pseudo_labels(),
            only_1,
            0.30,
        )


def test_skipped_class_warning_names_the_image(standard_corpus, standard_centroids, caplog):
    only_1 = DebiasedCentroidSet(
        per_class={1: standard_centroids.per_class[1]}, alpha=0.4, selected_counts={1: 1}
    )
    manifest = standard_corpus.manifest
    with_1 = tuple(r for r in manifest.records if 1 in r.truth_classes)
    partly = [r for r in with_1 if len(r.truth_classes) > 1]
    assert partly
    subset = DatasetManifest(with_1, manifest.num_classes, manifest.embedding_dim)
    features, labels = standard_corpus.features(), standard_corpus.pseudo_labels()
    with caplog.at_level(logging.WARNING):
        debias_all(subset, features, labels, only_1, 0.30)
    warnings = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.WARNING]
    assert warnings == [
        f"{r.image_id}: no debiased centroid for classes {sorted(r.truth_classes - {1})}; "
        "skipping them"
        for r in partly
    ]
