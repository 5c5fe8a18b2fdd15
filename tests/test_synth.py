import itertools
import threading

import numpy as np
import pytest

from segdebias import formats
from segdebias.bank import build_centroid_bank
from segdebias.core import FeatureMap
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


def _same(a, b) -> bool:
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_returned_corpus_is_the_written_corpus(tmp_path):
    """Every map generate returns is the file it wrote, read back through
    formats, and owns its memory: a noise buffer reused across images must
    not leak into the output."""
    corpus = generate(SynthConfig(num_images=7, seed=2), tmp_path)
    manifest = formats.read_manifest(tmp_path / "manifest.jsonl")
    assert manifest == corpus.manifest
    features = formats.load_features(manifest)
    labels = formats.load_pseudo_labels(manifest)
    gts = formats.load_ground_truth(manifest)
    masks = formats.load_bias_masks(manifest)
    returned = []
    for rec in corpus.records:
        image_id = rec.image_id
        assert _same(features[image_id].data, rec.features.data)
        assert _same(labels[image_id].data, rec.pseudo_label.data)
        assert _same(gts[image_id].data, rec.gt.data)
        assert _same(masks[image_id], rec.biased_mask)
        assert labels[image_id].num_classes == rec.pseudo_label.num_classes
        assert gts[image_id].num_classes == rec.gt.num_classes
        returned += [rec.features.data, rec.pseudo_label.data, rec.gt.data, rec.biased_mask]
    assert not any(a.flags.writeable for a in returned)
    for a, b in itertools.combinations(returned, 2):
        assert not np.shares_memory(a, b)


def _drawer_threads():
    return [t for t in threading.enumerate() if t.name.startswith("synth-drawer")]


def _ends_its_threads(call):
    """The exception `call` raises (None if it returns), once no thread it
    started is left running."""
    before = threading.active_count()
    try:
        call()
        raised = None
    except Exception as exc:
        raised = exc
    assert threading.active_count() == before
    assert not _drawer_threads()
    return raised


def test_generate_leaves_no_thread_behind(tmp_path):
    assert _ends_its_threads(lambda: generate(SynthConfig(num_images=5, seed=1), tmp_path / "ok")) is None
    # a corpus of two images fails the premise check, after every file is written
    raised = _ends_its_threads(lambda: generate(SynthConfig(num_images=2), tmp_path / "premise"))
    assert type(raised) is ValueError
    assert str(raised) == (
        "class 1: impostor texture is not closer to the background population than "
        "the class texture; adjust rates or num_images"
    )


def test_write_failure_reaches_the_caller_unchanged(tmp_path):
    blocked = tmp_path / "img_0003.features.bin"
    blocked.mkdir()
    with pytest.raises(IsADirectoryError) as direct:
        formats.write_feature_map(blocked, FeatureMap(np.ones((2, 1, 1))))
    raised = _ends_its_threads(lambda: generate(SynthConfig(num_images=6, seed=4), tmp_path))
    assert type(raised) is IsADirectoryError
    assert (raised.errno, raised.strerror, raised.filename2) == (
        direct.value.errno, direct.value.strerror, str(blocked)
    )
    assert (tmp_path / "img_0002.bias.bin").exists()
    assert not (tmp_path / "img_0003.labels.bin").exists()


def test_drawer_failure_reaches_the_caller_unchanged(tmp_path, monkeypatch):
    """An error raised on the drawer thread is the one generate raises."""
    default_rng = np.random.default_rng
    failure = RuntimeError("noise source failed")

    class FailingNoise:
        def __init__(self, seed):
            self.rng, self.fills = default_rng(seed), 0

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, size=None, out=None):
            if out is not None:
                self.fills += 1
                if self.fills == 3:
                    raise failure
            return self.rng.standard_normal(size, out=out)

    monkeypatch.setattr(np.random, "default_rng", FailingNoise)
    raised = _ends_its_threads(lambda: generate(SynthConfig(num_images=6, seed=4), tmp_path))
    assert raised is failure
    assert (tmp_path / "img_0001.bias.bin").exists()
    assert not (tmp_path / "img_0002.features.bin").exists()
