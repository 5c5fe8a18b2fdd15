"""Acceptance checks for the full pipeline on the standard synthetic corpus.

Each test prints one PASS line with its measured numbers; stage timings are
collected once in the module fixture and charged to the criteria that use
those stages.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from segdebias import formats
from segdebias.analysis import selection_accuracy
from segdebias.bank import Centroid, CentroidBank, build_centroid_bank
from segdebias.core import LabelMap, cosine_distance
from segdebias.evaluation import ConfusionMatrix, accumulate
from segdebias.pipeline import PipelineParams, debias_all, run_pipeline
from segdebias.selection import background_distance, select_debiased, selection_rows
from segdebias.synth import SynthConfig, generate
from segdebias.trainloop import SegHead, forward, wce_gradient, wce_loss

from conftest import random_feature_map

ALPHA = 0.40
THRESHOLD = 0.30
PARAMS = PipelineParams()  # k_fg=2, k_bg=2, alpha=0.40, threshold=0.30, seed=0


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    timings = {}

    start = time.perf_counter()
    corpus = generate(SynthConfig.standard(), tmp_path_factory.mktemp("acceptance"))
    timings["corpus"] = time.perf_counter() - start

    features = corpus.features()
    labels = corpus.pseudo_labels()
    gts = corpus.ground_truth()

    start = time.perf_counter()
    bank = build_centroid_bank(corpus.manifest, labels, 2, 2, seed=0, features=features)
    timings["bank"] = time.perf_counter() - start

    start = time.perf_counter()
    centroids = select_debiased(bank, ALPHA)
    timings["select"] = time.perf_counter() - start

    start = time.perf_counter()
    debiased = debias_all(corpus.manifest, features, labels, centroids, THRESHOLD)
    timings["debias"] = time.perf_counter() - start

    start = time.perf_counter()
    rows = {}
    for name, params in [
        ("row1", replace(PARAMS, complement=False, certainty_weighting=False)),
        ("row2", replace(PARAMS, certainty_weighting=False)),
        ("row3", PARAMS),
    ]:
        rows[name] = run_pipeline(corpus.manifest, features, labels, params, gts)
    timings["ablation"] = time.perf_counter() - start

    start = time.perf_counter()
    corpus0 = generate(
        replace(SynthConfig.standard(), feature_noise_sigma=0.0),
        tmp_path_factory.mktemp("acceptance_sigma0"),
    )
    bank0 = build_centroid_bank(
        corpus0.manifest, corpus0.pseudo_labels(), 2, 2, seed=0,
        features=corpus0.features(),
    )
    timings["sigma0"] = time.perf_counter() - start

    return SimpleNamespace(
        corpus=corpus,
        features=features,
        labels=labels,
        gts=gts,
        bank=bank,
        centroids=centroids,
        debiased=debiased,
        rows=rows,
        corpus0=corpus0,
        bank0=bank0,
        timings=timings,
    )


def test_criterion_1_selection_accuracy(artifacts):
    start = time.perf_counter()
    accuracy = selection_accuracy(
        artifacts.bank, ALPHA, artifacts.features, artifacts.labels, artifacts.gts
    )
    for cls in SynthConfig.standard().problematic_classes:
        assert accuracy[cls] >= 0.85, f"class {cls}: selection accuracy {accuracy[cls]}"
    accuracy0 = selection_accuracy(
        artifacts.bank0,
        ALPHA,
        artifacts.corpus0.features(),
        artifacts.corpus0.pseudo_labels(),
        artifacts.corpus0.ground_truth(),
    )
    for cls in SynthConfig.standard().problematic_classes:
        assert accuracy0[cls] == 1.0, f"class {cls}: sigma=0 accuracy {accuracy0[cls]}"
    elapsed = (
        time.perf_counter() - start
        + artifacts.timings["corpus"]
        + artifacts.timings["bank"]
        + artifacts.timings["sigma0"]
    )
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 1: selection accuracy "
        f"{ {c: round(a, 3) for c, a in sorted(accuracy.items())} } (>= 0.85), "
        f"sigma=0 accuracy { {c: round(a, 3) for c, a in sorted(accuracy0.items())} } "
        f"(== 1.0), {elapsed:.1f}s"
    )


def test_criterion_2_debias_precision_recall(artifacts):
    start = time.perf_counter()
    removed = kept = bias_total = target_total = 0
    for rec in artifacts.corpus.records:
        ydb = artifacts.debiased[rec.image_id].data
        bias = rec.biased_mask
        target = rec.gt.data > 0
        bias_total += int(bias.sum())
        target_total += int(target.sum())
        removed += int(((ydb == -1) & bias).sum())
        kept += int(((ydb == rec.gt.data) & target).sum())
    removal = removed / bias_total
    retention = kept / target_total
    assert removal >= 0.95, f"biased-pixel removal {removal:.4f}"
    assert retention >= 0.95, f"target-pixel retention {retention:.4f}"
    elapsed = (
        time.perf_counter() - start
        + artifacts.timings["corpus"]
        + artifacts.timings["bank"]
        + artifacts.timings["select"]
        + artifacts.timings["debias"]
    )
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 2: removal {removal:.4f} >= 0.95, "
        f"retention {retention:.4f} >= 0.95, {elapsed:.1f}s"
    )


def test_criterion_3_ablation_directions(artifacts):
    rep = {name: run.report for name, run in artifacts.rows.items()}
    assert rep["row2"].fn_rate < rep["row1"].fn_rate, (
        f"complementing must cut FN: {rep['row1'].fn_rate:.5f} -> {rep['row2'].fn_rate:.5f}"
    )
    assert rep["row3"].fp_rate < rep["row2"].fp_rate, (
        f"certainty weighting must cut FP: {rep['row2'].fp_rate:.5f} -> {rep['row3'].fp_rate:.5f}"
    )
    assert rep["row3"].miou > rep["row2"].miou > rep["row1"].miou
    elapsed = artifacts.timings["ablation"]
    assert elapsed < 300.0
    print(
        "\nPASS criterion 3: "
        f"FN {rep['row1'].fn_rate:.5f} > {rep['row2'].fn_rate:.5f}, "
        f"FP {rep['row2'].fp_rate:.5f} > {rep['row3'].fp_rate:.5f}, "
        f"mIoU {rep['row1'].miou:.4f} < {rep['row2'].miou:.4f} < {rep['row3'].miou:.4f}, "
        f"{elapsed:.1f}s for 3 runs"
    )


def test_criterion_4_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(20):
        c = int(rng.integers(1, 4))
        d = int(rng.integers(2, 9))
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        if h * w > 16:
            w = max(1, 16 // h)
        fmap = random_feature_map(rng, d, h, w)
        head = SegHead(weights=rng.normal(size=(c + 1, d)), bias=rng.normal(size=c + 1))
        yco = LabelMap(rng.integers(0, c + 1, (h, w)).astype(np.int16), c)
        weights = rng.random((h, w))
        grad_w, grad_b = wce_gradient(head, fmap, yco, weights)
        step = 1e-5
        for flat_index in range(head.weights.size):
            perturb = np.zeros(head.weights.size)
            perturb[flat_index] = step
            perturb = perturb.reshape(head.weights.shape)
            up = wce_loss(forward(SegHead(head.weights + perturb, head.bias), fmap), yco, weights)
            down = wce_loss(forward(SegHead(head.weights - perturb, head.bias), fmap), yco, weights)
            numeric = (up - down) / (2 * step)
            analytic = grad_w.ravel()[flat_index]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / scale)
        for j in range(head.bias.size):
            perturb = np.zeros_like(head.bias)
            perturb[j] = step
            up = wce_loss(forward(SegHead(head.weights, head.bias + perturb), fmap), yco, weights)
            down = wce_loss(forward(SegHead(head.weights, head.bias - perturb), fmap), yco, weights)
            numeric = (up - down) / (2 * step)
            scale = max(abs(numeric), abs(grad_b[j]), 1e-8)
            worst = max(worst, abs(numeric - grad_b[j]) / scale)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"max relative gradient error {worst}"
    assert elapsed < 5.0
    print(f"\nPASS criterion 4: max relative gradient error {worst:.2e} < 1e-4, {elapsed:.1f}s")


def test_criterion_5_distance_oracle_and_ordering(artifacts):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 10))
        n_bg = int(rng.integers(1, 30))
        background = []
        for i in range(n_bg):
            v = rng.normal(size=d)
            background.append(Centroid(v / np.linalg.norm(v), 0, f"b{i}", 0, 1))
        v = rng.normal(size=d)
        probe = Centroid(v / np.linalg.norm(v), 1, "probe", 0, 1)
        bank = CentroidBank(
            foreground={1: (probe,)}, background=tuple(background), k_fg=2, k_bg=2
        )
        fast = background_distance(probe, bank)
        naive = sum(cosine_distance(probe.vector, b.vector) for b in background) / n_bg
        worst = max(worst, abs(fast - naive))
    assert worst <= 1e-12, f"Eq-1 oracle deviation {worst}"

    # ordering invariant for every selection the other criteria performed
    for bank, alpha in ((artifacts.bank, ALPHA), (artifacts.bank0, ALPHA)):
        rows = selection_rows(bank, alpha)
        for class_id in {r["class_id"] for r in rows}:
            sel = [r["dist"] for r in rows if r["class_id"] == class_id and r["selected"]]
            rej = [r["dist"] for r in rows if r["class_id"] == class_id and not r["selected"]]
            if sel and rej:
                assert min(sel) >= max(rej)
    print(f"\nPASS criterion 5: oracle deviation {worst:.2e} <= 1e-12, ordering invariant holds")


def test_criterion_6_hyperparameter_stability(artifacts):
    mious = []
    for kbg in (1, 2, 3, 4, 5):
        result = run_pipeline(
            artifacts.corpus.manifest,
            artifacts.features,
            artifacts.labels,
            replace(PARAMS, k_bg=kbg),
            artifacts.gts,
        )
        mious.append(result.report.miou)
    spread = (max(mious) - min(mious)) * 100.0
    assert spread < 2.0, f"k_bg sweep mIoU spread {spread:.2f} points"

    accuracies = {}
    for alpha in (0.2, 0.4, 0.6, 0.8):
        accuracies[alpha] = selection_accuracy(
            artifacts.bank, alpha, artifacts.features, artifacts.labels, artifacts.gts
        )
    for cls in artifacts.bank.foreground_classes():
        low = min(accuracies[0.2][cls], accuracies[0.4][cls])
        high = max(accuracies[0.6][cls], accuracies[0.8][cls])
        assert low >= high, f"class {cls}: alpha<=0.5 accuracy {low} < alpha>0.5 accuracy {high}"
    print(
        f"\nPASS criterion 6: k_bg mIoU spread {spread:.2f} < 2 points "
        f"(mious={[round(m, 4) for m in mious]}); "
        f"alpha accuracy low>=high per class"
    )


def _write_pipeline_artifacts(corpus, out_dir, epochs=40):
    from segdebias.trainloop import TrainConfig, train

    features = corpus.features()
    labels = corpus.pseudo_labels()
    bank = build_centroid_bank(corpus.manifest, labels, 2, 2, seed=0, features=features)
    formats.write_centroid_bank(out_dir / "bank.bin", bank.canonically_sorted())
    centroids = select_debiased(bank, ALPHA)
    formats.write_centroid_set(out_dir / "centroids.json", centroids)
    debiased = debias_all(corpus.manifest, features, labels, centroids, THRESHOLD)
    for image_id, label in debiased.items():
        formats.write_label_map(out_dir / f"{image_id}.debiased.bin", label)
    result = train(
        corpus.manifest,
        debiased,
        TrainConfig(epochs=epochs, seed=0),
        features=features,
        ground_truth=corpus.ground_truth(),
    )
    formats.write_checkpoint(out_dir / "head.bin", result.teacher)


def test_criterion_7_determinism_and_formats(artifacts, tmp_path):
    start = time.perf_counter()
    dirs = (tmp_path / "run_a", tmp_path / "run_b")
    for d in dirs:
        d.mkdir()
        _write_pipeline_artifacts(artifacts.corpus, d)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert sorted(p.name for p in dirs[1].iterdir()) == names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    # format round-trips, 250 random instances per format
    rng = np.random.default_rng(99)
    scratch = tmp_path / "roundtrip"
    scratch.mkdir()
    for i in range(250):
        d, h, w = (int(rng.integers(1, 5)) for _ in range(3))
        data = rng.normal(size=(d, h, w)).astype(np.float32)
        data[0] += np.sign(data[0]) + (data[0] == 0)
        from segdebias.core import FeatureMap

        fmap = FeatureMap(data)
        formats.write_feature_map(scratch / "f.bin", fmap)
        assert np.array_equal(formats.read_feature_map(scratch / "f.bin").data, fmap.data)

        c = int(rng.integers(1, 5))
        label = LabelMap(rng.integers(-1, c + 1, size=(h, w)).astype(np.int16), c)
        formats.write_label_map(scratch / "l.bin", label)
        assert np.array_equal(
            formats.read_label_map(scratch / "l.bin", c).data, label.data
        )

        vec = rng.normal(size=d + 1)
        centroid = Centroid(vec / np.linalg.norm(vec), 1, f"im{i}", 0, int(rng.integers(1, 99)))
        bank = CentroidBank(foreground={1: (centroid,)}, background=(), k_fg=2, k_bg=2)
        formats.write_centroid_bank(scratch / "b.bin", bank)
        back = formats.read_centroid_bank(scratch / "b.bin")
        assert np.array_equal(back.foreground[1][0].vector, centroid.vector)

        head = SegHead(weights=rng.normal(size=(c + 1, d)), bias=rng.normal(size=c + 1))
        formats.write_checkpoint(scratch / "h.bin", head)
        back = formats.read_checkpoint(scratch / "h.bin")
        assert np.array_equal(back.weights, head.weights)
        assert np.array_equal(back.bias, head.bias)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 7: pipeline rerun byte-identical ({len(names)} artifacts), "
        f"1000 format round-trips bit-exact, {elapsed:.1f}s"
    )


def test_criterion_8_metric_oracle():
    rng = np.random.default_rng(55)
    for _ in range(50):
        c = int(rng.integers(1, 5))
        h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        gt = LabelMap(rng.integers(-1, c + 1, (h, w)).astype(np.int16), c)
        pred = LabelMap(rng.integers(0, c + 1, (h, w)).astype(np.int16), c)
        cm = accumulate(ConfusionMatrix.empty(c), gt, pred)
        expected = np.zeros((c + 1, c + 1), dtype=np.int64)
        for y in range(h):
            for x in range(w):
                if gt.data[y, x] != -1:
                    expected[gt.data[y, x], pred.data[y, x]] += 1
        assert np.array_equal(cm.counts, expected)
    print("\nPASS criterion 8: confusion counts match set-based recomputation exactly (50 pairs)")
