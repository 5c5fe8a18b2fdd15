import numpy as np
import pytest

from segdebias.bank import build_centroid_bank
from segdebias.pipeline import debias_all
from segdebias.selection import select_debiased
from segdebias.synth import BIAS_BLOB_FRACTION, SynthConfig, generate


def test_fixed_seed_is_byte_identical(tmp_path):
    config = SynthConfig(num_images=6, seed=19)
    corpus_a = generate(config, tmp_path / "a")
    corpus_b = generate(config, tmp_path / "b")
    for rec_a, rec_b in zip(corpus_a.records, corpus_b.records):
        for attr in ("feature_path", "label_path", "gt_path", "bias_path"):
            blob_a = getattr(rec_a.record, attr).read_bytes()
            blob_b = getattr(rec_b.record, attr).read_bytes()
            assert blob_a == blob_b
    manifest_a = (tmp_path / "a" / "manifest.jsonl").read_text()
    manifest_b = (tmp_path / "b" / "manifest.jsonl").read_text()
    assert manifest_a.replace("/a/", "/") == manifest_b.replace("/b/", "/")


def test_no_cooccurrence_means_pseudo_equals_gt(tmp_path):
    config = SynthConfig(
        num_images=10, bias_cooccurrence=0.0, detail_fraction=0.0, seed=5
    )
    corpus = generate(config, tmp_path)
    for rec in corpus.records:
        assert np.array_equal(rec.pseudo_label.data, rec.gt.data)
        assert not rec.biased_mask.any()


def test_no_cooccurrence_debias_is_near_noop(tmp_path):
    config = SynthConfig(
        num_images=10, bias_cooccurrence=0.0, detail_fraction=0.0, seed=5
    )
    corpus = generate(config, tmp_path)
    labels = corpus.pseudo_labels()
    bank = build_centroid_bank(corpus.manifest, labels, 2, 2, 0, features=corpus.features())
    centroids = select_debiased(bank, 0.40)
    debiased = debias_all(corpus.manifest, corpus.features(), labels, centroids, 0.30)
    rewritten = foreground = 0
    for rec in corpus.records:
        rewritten += int((debiased[rec.image_id].data == -1).sum())
        foreground += int((rec.pseudo_label.data > 0).sum())
    assert rewritten / foreground <= 0.01


def test_oracle_masks(tmp_path):
    config = SynthConfig(num_images=24, bias_cooccurrence=0.5, seed=23)
    corpus = generate(config, tmp_path)
    problematic = set(config.problematic_classes)
    planted = 0
    eligible = 0
    patch = max(1, round(BIAS_BLOB_FRACTION * _blob_area(config)))
    for rec in corpus.records:
        mask = rec.biased_mask
        eligible += len(rec.record.truth_classes & problematic)
        # mask area is a whole number of planted patches
        assert int(mask.sum()) % patch == 0
        planted += int(mask.sum()) // patch
        # the mask only covers pixels the pseudo label marks as foreground
        assert np.all(rec.pseudo_label.data[mask] > 0)
        assert np.all(rec.gt.data[mask] == 0)
        # ground truth is the pseudo label with the impostor pixels set to background
        assert np.array_equal(rec.gt.data, np.where(mask, 0, rec.pseudo_label.data))
    # binomial sanity: planted patches over eligible (class, image) pairs
    rate = planted / eligible
    sigma = np.sqrt(config.bias_cooccurrence * (1 - config.bias_cooccurrence) / eligible)
    assert abs(rate - config.bias_cooccurrence) <= 4 * sigma


def _blob_area(config):
    h, w = config.image_size
    return (h // 2) * int(w * 0.7)


def test_prototype_separation(standard_corpus):
    protos = standard_corpus.prototypes
    groups = [("bg", 0, protos.background)]
    groups += [("target", c, v) for c, v in protos.targets.items()]
    groups += [("detail", c, v) for c, v in protos.details.items()]
    groups += [("biased", c, v) for c, v in protos.biased.items()]
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            _, fam_i, vec_i = groups[i]
            _, fam_j, vec_j = groups[j]
            if fam_i == fam_j:
                continue
            assert abs(float(vec_i @ vec_j)) <= 0.2 + 1e-9


def test_impostor_closer_to_background_population(standard_corpus):
    protos = standard_corpus.prototypes
    for cls in (1, 2):
        bias_sims = []
        target_sims = []
        for rec in standard_corpus.records:
            bg = rec.pseudo_label.data == 0
            vectors = rec.features.data[:, bg].T.astype(np.float64)
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
            bias_sims.append(vectors @ protos.biased[cls])
            target_sims.append(vectors @ protos.targets[cls])
        bias_dist = float((1 - np.concatenate(bias_sims).mean()) / 2)
        target_dist = float((1 - np.concatenate(target_sims).mean()) / 2)
        assert bias_dist < target_dist


def test_truth_class_invariants(standard_corpus):
    for rec in standard_corpus.records:
        truth = rec.record.truth_classes
        assert truth and all(1 <= c <= 4 for c in truth)
        assert set(rec.pseudo_label.foreground_classes()) <= truth


def test_infeasible_layout_rejected(tmp_path):
    with pytest.raises(ValueError, match="infeasible layout"):
        generate(SynthConfig(num_images=2, image_size=(2, 3)), tmp_path)


def test_config_validation():
    with pytest.raises(ValueError, match="problematic"):
        SynthConfig(problematic_classes=(9,))
    with pytest.raises(ValueError, match="bias_cooccurrence"):
        SynthConfig(bias_cooccurrence=1.5)
    with pytest.raises(ValueError, match="bias_in_background_rate"):
        SynthConfig(bias_in_background_rate=0.0)
    with pytest.raises(ValueError, match="target_detail_affinity"):
        SynthConfig(target_detail_affinity=1.0)
    # 1 background + 2 x 4 class and detail textures + 2 impostors need 11 directions
    with pytest.raises(ValueError, match="embedding_dim must be >= 11"):
        SynthConfig(embedding_dim=10)
    SynthConfig(embedding_dim=11)
    # counts, sizes, class ids and the seed are whole numbers, never truncated
    for knobs, message in [
        ({"num_images": 2.5}, "num_images must be a whole number, got 2.5"),
        ({"seed": 1.5}, "seed must be a whole number, got 1.5"),
        ({"num_classes": True}, "num_classes must be a whole number, got True"),
        ({"embedding_dim": "16"}, "embedding_dim must be a whole number, got '16'"),
        ({"image_size": (24, 40.5)}, "image_size must be a whole number, got 40.5"),
        ({"problematic_classes": (1.5,)}, "problematic class must be a whole number, got 1.5"),
        # a rate is a real number in its range: no NaN, infinity or bool
        ({"feature_noise_sigma": float("nan")},
         "feature_noise_sigma must lie in [0, inf), got nan"),
        ({"feature_noise_sigma": float("inf")},
         "feature_noise_sigma must lie in [0, inf), got inf"),
        ({"bias_cooccurrence": True}, "bias_cooccurrence must lie in [0, 1], got True"),
        ({"image_size": 24}, "image_size must be two whole numbers, got 24"),
        ({"image_size": (24, 40, 3)}, "image_size must be two whole numbers, got (24, 40, 3)"),
        ({"problematic_classes": 1}, "problematic_classes must be a sequence of classes, got 1"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ]:
        with pytest.raises(ValueError) as err:
            SynthConfig(**knobs)
        assert str(err.value) == message
    whole = SynthConfig(num_classes=2.0, image_size=[24.0, 40], problematic_classes=(1.0,))
    assert whole == SynthConfig(num_classes=2, problematic_classes=(1,))
    assert type(whole.num_classes) is int and type(whole.image_size[0]) is int


def test_manifest_readable_from_disk(tmp_path):
    from segdebias import formats

    config = SynthConfig(num_images=4, seed=2)
    corpus = generate(config, tmp_path)
    manifest = formats.read_manifest(tmp_path / "manifest.jsonl")
    assert len(manifest.records) == 4
    features = formats.load_features(manifest)
    labels = formats.load_pseudo_labels(manifest)
    gts = formats.load_ground_truth(manifest)
    masks = formats.load_bias_masks(manifest)
    for rec, mem in zip(manifest.records, corpus.records):
        assert np.array_equal(features[rec.image_id].data, mem.features.data)
        assert np.array_equal(labels[rec.image_id].data, mem.pseudo_label.data)
        assert np.array_equal(gts[rec.image_id].data, mem.gt.data)
        assert np.array_equal(masks[rec.image_id], mem.biased_mask)
