import json
import re
import struct
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdebias import formats
from segdebias import trainloop as tl
from segdebias.bank import Centroid, CentroidBank, build_centroid_bank
from segdebias.core import DatasetManifest, FeatureMap, ImageRecord, LabelMap
from segdebias.pipeline import debias_all
from segdebias.selection import DebiasedCentroidSet, select_debiased
from segdebias.trainloop import SegHead, TrainConfig, train


def random_unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


@settings(max_examples=250, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**31 - 1),
)
def test_feature_map_roundtrip(tmp_path_factory, d, h, w, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(d, h, w)).astype(np.float32)
    data[0] += np.sign(data[0]) + (data[0] == 0)
    fmap = FeatureMap(data)
    path = tmp_path_factory.mktemp("ft") / "x.bin"
    formats.write_feature_map(path, fmap)
    back = formats.read_feature_map(path)
    assert back.data.dtype == fmap.data.dtype
    assert np.array_equal(back.data, fmap.data)


@settings(max_examples=250, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_label_map_roundtrip(tmp_path_factory, h, w, c, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(-1, c + 1, size=(h, w)).astype(np.int16)
    lmap = LabelMap(data, c)
    path = tmp_path_factory.mktemp("lb") / "x.bin"
    formats.write_label_map(path, lmap)
    back = formats.read_label_map(path, c)
    assert back.data.dtype == lmap.data.dtype
    assert np.array_equal(back.data, lmap.data)
    assert back.num_classes == c


@settings(max_examples=250, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_centroid_bank_roundtrip(tmp_path_factory, d, n_fg, seed):
    rng = np.random.default_rng(seed)
    background = tuple(
        Centroid(random_unit(rng, d), 0, f"bg_{i}", i % 2, int(rng.integers(1, 9)))
        for i in range(2)
    )
    foreground = {}
    for i in range(n_fg):
        class_id = 1 + i % 3
        foreground.setdefault(class_id, []).append(
            Centroid(random_unit(rng, d), class_id, f"im_{i}", i % 2, int(rng.integers(1, 9)))
        )
    bank = CentroidBank(
        foreground={k: tuple(v) for k, v in foreground.items()},
        background=background,
        k_fg=2,
        k_bg=2,
    )
    path = tmp_path_factory.mktemp("cb") / "x.bin"
    formats.write_centroid_bank(path, bank)
    back = formats.read_centroid_bank(path)
    assert back.k_fg == bank.k_fg and back.k_bg == bank.k_bg
    assert len(back.background) == len(bank.background)
    for a, b in zip(back.background, bank.background):
        assert a.image_id == b.image_id and a.member_count == b.member_count
        assert np.array_equal(a.vector, b.vector)
    assert set(back.foreground) == set(bank.foreground)
    for class_id, centroids in bank.foreground.items():
        for a, b in zip(back.foreground[class_id], centroids):
            assert a.cluster_index == b.cluster_index
            assert np.array_equal(a.vector, b.vector)


@settings(max_examples=250, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_checkpoint_roundtrip(tmp_path_factory, c, d, seed):
    rng = np.random.default_rng(seed)
    head = SegHead(weights=rng.normal(size=(c + 1, d)), bias=rng.normal(size=c + 1))
    path = tmp_path_factory.mktemp("hd") / "x.bin"
    formats.write_checkpoint(path, head)
    back = formats.read_checkpoint(path)
    assert np.array_equal(back.weights, head.weights)
    assert np.array_equal(back.bias, head.bias)


def test_truncated_payload_reports_offset(tmp_path):
    fmap = FeatureMap(np.ones((2, 3, 4), dtype=np.float32))
    path = tmp_path / "x.bin"
    formats.write_feature_map(path, fmap)
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(formats.FormatError, match="payload length mismatch"):
        formats.read_feature_map(path)


def _one_of_each_format(tmp_path):
    """(path, reader) for a small file of each binary format."""
    rng = np.random.default_rng(3)
    fmap = FeatureMap(rng.normal(size=(2, 3, 4)).astype(np.float32) + 5.0)
    label = LabelMap(rng.integers(-1, 3, size=(3, 4)).astype(np.int16), 2)
    centroids = tuple(
        Centroid(random_unit(rng, 3), 1, image_id, 0, 4) for image_id in ("img_0", "im\u00e9")
    )
    bank = CentroidBank(foreground={1: centroids}, background=(), k_fg=2, k_bg=2)
    head = SegHead(weights=rng.normal(size=(3, 2)), bias=rng.normal(size=3))
    files = [
        ("f.bin", formats.write_feature_map, fmap, formats.read_feature_map),
        ("l.bin", formats.write_label_map, label, partial(formats.read_label_map, num_classes=2)),
        ("b.bin", formats.write_centroid_bank, bank, formats.read_centroid_bank),
        ("h.bin", formats.write_checkpoint, head, formats.read_checkpoint),
    ]
    out = []
    for name, write, value, read in files:
        write(tmp_path / name, value)
        out.append((tmp_path / name, read))
    return out


def test_every_truncation_is_a_format_error(tmp_path):
    for path, read in _one_of_each_format(tmp_path):
        blob = path.read_bytes()
        read(path)
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(formats.FormatError):
                read(path)


def test_every_corrupted_byte_reads_or_is_a_format_error(tmp_path):
    """Single-byte value corruptions: each file either still reads or fails with
    a FormatError that names it, also where a domain type rejects the value."""
    domain = {"unit-norm", "label out of range", "non-finite", "must be finite"}
    seen = set()
    for path, read in _one_of_each_format(tmp_path):
        blob = path.read_bytes()
        for offset in range(len(blob)):
            for value in (0x00, 0x7F, 0x80, 0xFF):
                if blob[offset] == value:
                    continue
                path.write_bytes(blob[:offset] + bytes([value]) + blob[offset + 1 :])
                try:
                    read(path)
                except formats.FormatError as exc:
                    assert str(exc).startswith(f"{path}: "), str(exc)
                    seen |= {d for d in domain if d in str(exc)}
    assert seen == domain


def test_domain_error_reports_the_payload_offset(tmp_path):
    (_, _), (label_path, _), (bank_path, _), _ = _one_of_each_format(tmp_path)
    blob = bytearray(label_path.read_bytes())
    blob[16:18] = struct.pack("<h", -2)
    label_path.write_bytes(bytes(blob))
    with pytest.raises(formats.FormatError, match="label out of range") as err:
        formats.read_label_map(label_path, 2)
    assert err.value.offset == 16  # magic, H, W
    blob = bytearray(bank_path.read_bytes())
    second = 8 + 16 + 16 + len(b"img_0") + 3 * 8  # header, first record
    vector = second + 16 + len("im\u00e9".encode("utf-8"))
    blob[vector : vector + 8] = struct.pack("<d", 2.0)
    bank_path.write_bytes(bytes(blob))
    with pytest.raises(formats.FormatError, match="unit-norm") as err:
        formats.read_centroid_bank(bank_path)
    assert err.value.offset == second


def test_undecodable_image_id_is_a_format_error(tmp_path):
    centroid = Centroid(random_unit(np.random.default_rng(4), 3), 1, "img_0", 0, 4)
    bank = CentroidBank(foreground={1: (centroid,)}, background=(), k_fg=2, k_bg=2)
    path = tmp_path / "b.bin"
    formats.write_centroid_bank(path, bank)
    blob = bytearray(path.read_bytes())
    id_offset = 8 + 16 + 16  # magic, header, first record's fixed fields
    assert blob[id_offset : id_offset + 5] == b"img_0"
    blob[id_offset] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(formats.FormatError, match="utf-8") as err:
        formats.read_centroid_bank(path)
    assert err.value.offset == id_offset


def test_trailing_bytes_rejected(tmp_path):
    lmap = LabelMap(np.zeros((2, 2), dtype=np.int16), 1)
    path = tmp_path / "x.bin"
    formats.write_label_map(path, lmap)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(formats.FormatError, match="payload length mismatch"):
        formats.read_label_map(path, 1)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOTMAGIC" + struct.pack("<II", 1, 1) + b"\x00\x00")
    with pytest.raises(formats.FormatError, match="bad magic"):
        formats.read_label_map(path, 1)
    err = None
    try:
        formats.read_label_map(path, 1)
    except formats.FormatError as exc:
        err = exc
    assert err.offset == 0


def test_label_out_of_range_at_read(tmp_path):
    path = tmp_path / "x.bin"
    payload = struct.pack("<h", 200)
    path.write_bytes(formats.MAGIC_LABELS + struct.pack("<II", 1, 1) + payload)
    with pytest.raises(ValueError, match="label out of range"):
        formats.read_label_map(path, num_classes=5)


def test_dim_overflow_rejected(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(formats.MAGIC_LABELS + struct.pack("<II", 70000, 1))
    with pytest.raises(formats.FormatError, match="dim overflow"):
        formats.read_label_map(path, 1)


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "x.bin"
    lmap1 = LabelMap(np.zeros((2, 2), dtype=np.int16), 1)
    lmap2 = LabelMap(np.ones((2, 2), dtype=np.int16), 1)
    formats.write_label_map(path, lmap1)
    formats.write_label_map(path, lmap2)
    assert np.array_equal(formats.read_label_map(path, 1).data, lmap2.data)
    assert list(tmp_path.iterdir()) == [path]  # no temp files left behind


def test_centroid_set_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    cset = DebiasedCentroidSet(
        per_class={1: random_unit(rng, 5), 3: random_unit(rng, 5)},
        alpha=0.4,
        selected_counts={1: 4, 3: 2},
    )
    path = tmp_path / "c.json"
    formats.write_centroid_set(path, cset)
    back = formats.read_centroid_set(path)
    assert back.alpha == cset.alpha
    assert back.selected_counts == {1: 4, 3: 2}
    for class_id in (1, 3):
        assert np.array_equal(back.per_class[class_id], cset.per_class[class_id])
    # a count for every class with a vector and for no other, else there is nothing to write
    with pytest.raises(ValueError, match=r"classes \[1\] != centroid classes \[1, 3\]"):
        replace(cset, selected_counts={1: 4})


def test_non_finite_bank_vector_is_a_format_error(tmp_path):
    centroid = Centroid(random_unit(np.random.default_rng(5), 3), 1, "img_0", 0, 4)
    path = tmp_path / "b.bin"
    formats.write_centroid_bank(
        path, CentroidBank(foreground={1: (centroid,)}, background=(), k_fg=2, k_bg=2)
    )
    vector = 8 + 16 + 16 + len(b"img_0")  # magic, header, fixed fields, image id
    for value in (np.nan, np.inf):
        blob = bytearray(path.read_bytes())
        blob[vector : vector + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(formats.FormatError, match="unit-norm") as err:
            formats.read_centroid_bank(path)
        assert str(err.value).startswith(f"{path}: ")
        assert err.value.offset == 8 + 16


def _set_json(alpha=0.4, **classes):
    return json.dumps({"alpha": alpha, "classes": classes})


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"classes": {}}', "missing field 'alpha'"),
        ('{"alpha": 0.4}', "missing field 'classes'"),
        (_set_json(**{"1": {"vector": [1.0]}}), "missing field 'selected_count'"),
        (_set_json(alpha=1.5), "alpha must lie in (0, 1]"),
        ('{"alpha": 0.4, "classes": []}', "has no attribute 'items'"),
        (_set_json(x={"vector": [1.0], "selected_count": 1}), "invalid literal"),
        (
            _set_json(**{"1": {"vector": [0.0, 0.0], "selected_count": 1}}),
            "class 1 centroid vector must be unit-norm",
        ),
        (
            '{"alpha": 0.4, "classes": {"1": {"vector": [NaN, 0.0], "selected_count": 1}}}',
            "class 1 centroid vector must be unit-norm, got |v|=nan",
        ),
        (
            _set_json(**{"1": {"vector": [[1.0]], "selected_count": 1}}),
            "class 1 centroid vector must be 1-D",
        ),
        (
            _set_json(
                **{
                    "1": {"vector": [1.0, 0.0], "selected_count": 1},
                    "2": {"vector": [1.0], "selected_count": 1},
                }
            ),
            "differ in length: [1, 2]",
        ),
        ("{not json", "Expecting property name"),
        # counts and alpha are taken as written, not cast
        (
            _set_json(**{"1": {"vector": [1.0], "selected_count": 2.7}}),
            "class 1 selected_count must be a whole number, got 2.7",
        ),
        (
            _set_json(**{"1": {"vector": [1.0], "selected_count": 0}}),
            "class 1 selected_count must be >= 1, got 0",
        ),
        (
            _set_json(**{"1": {"vector": [1.0], "selected_count": -3}}),
            "class 1 selected_count must be >= 1, got -3",
        ),
        (_set_json(alpha=True), "alpha must lie in (0, 1], got True"),
        (_set_json(alpha="0.4"), "alpha must lie in (0, 1], got '0.4'"),
    ],
)
def test_malformed_centroid_set_names_the_file(tmp_path, text, message):
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        formats.read_centroid_set(path)
    assert str(err.value).startswith(f"{path}: ") and message in str(err.value), str(err.value)


def test_manifest_roundtrip(tmp_path):
    records = (
        ImageRecord(
            image_id="a",
            feature_path=tmp_path / "a.f",
            label_path=tmp_path / "a.l",
            truth_classes=frozenset({1, 2}),
            gt_path=tmp_path / "a.g",
        ),
        ImageRecord(
            image_id="b",
            feature_path=tmp_path / "b.f",
            label_path=tmp_path / "b.l",
            truth_classes=frozenset({2}),
        ),
    )
    manifest = DatasetManifest(records=records, num_classes=3, embedding_dim=7)
    path = tmp_path / "manifest.jsonl"
    formats.write_manifest(path, manifest)
    back = formats.read_manifest(path)
    assert back.num_classes == 3 and back.embedding_dim == 7
    assert [r.image_id for r in back.records] == ["a", "b"]
    assert back.records[0].truth_classes == frozenset({1, 2})
    assert back.records[0].gt_path == tmp_path / "a.g"
    assert back.records[1].gt_path is None
    assert back.records[1].label_path == tmp_path / "b.l"


_META = '{"embedding_dim": 4, "num_classes": 2}'
_RECORD = '{"feature_path": "a.f", "image_id": "a", "label_path": "a.l", "truth_classes": [1]}'


@pytest.mark.parametrize(
    "lines, where, message",
    [
        ([_META, "", _RECORD.replace('"image_id": "a", ', "")], "line 3",
         "missing field 'image_id'"),
        ([_META, "not json"], "line 2", "Expecting value"),
        ([_META, _RECORD.replace("[1]", '["x"]')], "line 2",
         "a: truth class must be a whole number, got 'x'"),
        (['{"num_classes": 2}', _RECORD], "line 1", "missing field 'embedding_dim'"),
        ([_META, _RECORD, _RECORD], None, "image_ids must be unique"),
        # class ids and dims are taken as written, not cast
        ([_META, _RECORD.replace("[1]", '"12"')], "line 2",
         "a: truth class must be a whole number, got '1'"),
        ([_META, _RECORD.replace("[1]", "[1.5]")], "line 2",
         "a: truth class must be a whole number, got 1.5"),
        ([_META, _RECORD.replace("[1]", "[true]")], "line 2",
         "a: truth class must be a whole number, got True"),
        ([_META.replace("4", "16.9"), _RECORD], None,
         "embedding_dim must be a whole number, got 16.9"),
        ([_META.replace("2", '"2"'), _RECORD], None, "num_classes must be a whole number, got '2'"),
    ],
)
def test_malformed_manifest_names_the_file_and_line(tmp_path, lines, where, message):
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        formats.read_manifest(path)
    prefix = f"{path}: {where}: " if where else f"{path}: "
    assert str(err.value).startswith(prefix) and message in str(err.value), str(err.value)


class TestFeatureFiles:
    """The lazy mapping `segdebias cluster` and `train` read maps through."""

    EPOCHS = 2

    def stages(self, manifest, features, pseudo, ground_truth):
        """The bank, then the training result, both computed from `features`."""
        bank = build_centroid_bank(manifest, pseudo, 2, 2, 0, features)
        debiased = debias_all(
            manifest, formats.load_features(manifest), pseudo, select_debiased(bank, 0.4), 0.3
        )
        config = TrainConfig(epochs=self.EPOCHS, seed=0)
        result = train(manifest, debiased, config, features=features, ground_truth=ground_truth)
        return bank, result

    def test_same_results_as_the_resident_maps(self, tiny_corpus, tmp_path):
        manifest = tiny_corpus.manifest
        pseudo, truth = formats.load_pseudo_labels(manifest), formats.load_ground_truth(manifest)
        lazy = formats.FeatureFiles(manifest)
        assert list(lazy) == [r.image_id for r in manifest.records]
        bank, result = self.stages(manifest, lazy, pseudo, truth)
        bank_ref, result_ref = self.stages(manifest, formats.load_features(manifest), pseudo, truth)
        formats.write_centroid_bank(tmp_path / "lazy.bin", bank)
        formats.write_centroid_bank(tmp_path / "resident.bin", bank_ref)
        assert (tmp_path / "lazy.bin").read_bytes() == (tmp_path / "resident.bin").read_bytes()
        assert result.teacher.weights.tobytes() == result_ref.teacher.weights.tobytes()
        assert result.teacher.bias.tobytes() == result_ref.teacher.bias.tobytes()
        assert result.metrics == result_ref.metrics
        assert result.report == result_ref.report
        assert result.predictions.keys() == result_ref.predictions.keys()
        for image_id, label in result.predictions.items():
            assert np.array_equal(label.data, result_ref.predictions[image_id].data)

    def test_at_most_two_maps_alive(self, tiny_corpus, monkeypatch):
        """Each stage reads every map it needs and never holds more than the
        map in hand and the one before it; cluster frees each map before it
        reads the next."""
        manifest = tiny_corpus.manifest
        read = formats.read_feature_map
        maps, most = [], [0]

        def tracked(path):
            fmap = read(path)
            maps.append(weakref.ref(fmap))
            most[0] = max(most[0], sum(ref() is not None for ref in maps))
            return fmap

        def reads_and_most_alive(stage):
            maps.clear()
            most[0] = 0
            result = stage()
            return result, len(maps), most[0]

        monkeypatch.setattr(formats, "read_feature_map", tracked)
        lazy = formats.FeatureFiles(manifest)
        pseudo, truth = formats.load_pseudo_labels(manifest), formats.load_ground_truth(manifest)
        n = len(manifest.records)

        bank, reads, alive = reads_and_most_alive(
            lambda: build_centroid_bank(manifest, pseudo, 2, 2, 0, lazy)
        )
        assert reads == n and alive <= 1
        cset = select_debiased(bank, 0.4)
        debiased, reads, alive = reads_and_most_alive(
            lambda: debias_all(manifest, lazy, pseudo, cset, 0.3)
        )
        assert reads == n and alive <= 2
        config = TrainConfig(epochs=self.EPOCHS, seed=0)
        _, reads, alive = reads_and_most_alive(
            lambda: train(manifest, debiased, config, features=lazy, ground_truth=truth)
        )
        # the up-front check, each epoch's steps (which score the epoch before),
        # then the last epoch's scoring
        assert reads == (self.EPOCHS + 2) * n and alive <= 2

    def test_train_validates_every_lookup(self, tiny_corpus, tmp_path, monkeypatch):
        manifest = tiny_corpus.manifest
        copy = tmp_path / "copy.features.bin"
        copy.write_bytes(manifest.records[2].feature_path.read_bytes())
        records = list(manifest.records)
        records[2] = replace(records[2], feature_path=copy)
        manifest = replace(manifest, records=tuple(records))
        pseudo = formats.load_pseudo_labels(tiny_corpus.manifest)
        truth = formats.load_ground_truth(tiny_corpus.manifest)
        step, steps = tl._step, [0]

        def corrupt_after_first_epoch(*args):
            result = step(*args)
            steps[0] += 1
            if steps[0] == len(records):  # epoch 0's last step
                blob = bytearray(copy.read_bytes())
                blob[20:24] = struct.pack("<f", float("nan"))
                copy.write_bytes(bytes(blob))
            return result

        monkeypatch.setattr(tl, "_step", corrupt_after_first_epoch)
        message = f"{copy}: feature map contains non-finite values (byte offset 20)"
        with pytest.raises(formats.FormatError, match=re.escape(message)):
            self.stages(manifest, formats.FeatureFiles(manifest), pseudo, truth)


_WRITERS = (
    formats.write_feature_map,
    formats.write_label_map,
    formats.write_centroid_bank,
    formats.write_checkpoint,
)


@pytest.mark.parametrize(
    "which, name, offset, value, bounds",
    [
        (0, "D", 8, 0, "[1, 4294967295]"),
        (0, "H", 12, 0, "[1, 65535]"),
        (0, "H", 12, 65536, "[1, 65535]"),
        (0, "W", 16, 0, "[1, 65535]"),
        (0, "W", 16, 65536, "[1, 65535]"),
        (1, "H", 8, 0, "[1, 65535]"),
        (1, "H", 8, 65536, "[1, 65535]"),
        (1, "W", 12, 0, "[1, 65535]"),
        (1, "W", 12, 65536, "[1, 65535]"),
        (2, "k_fg", 12, 0, "[1, 4294967295]"),
        (2, "k_bg", 16, 0, "[1, 4294967295]"),
        (3, "channels", 8, 0, "[1, 4294967295]"),
        (3, "D", 12, 0, "[1, 4294967295]"),
    ],
)
def test_header_field_out_of_range_is_reported_at_its_offset(
    tmp_path, which, name, offset, value, bounds
):
    path, read = _one_of_each_format(tmp_path)[which]
    blob = bytearray(path.read_bytes())
    blob[offset : offset + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(blob))
    with pytest.raises(formats.FormatError) as err:
        read(path)
    message = f"{path}: dim overflow: {name}={value} outside {bounds} (byte offset {offset})"
    assert str(err.value) == message
    assert err.value.offset == offset


def test_empty_bank_roundtrips(tmp_path):
    """The one header whose fields may be 0: D = n = 0."""
    path = tmp_path / "b.bin"
    formats.write_centroid_bank(path, CentroidBank(foreground={}, background=(), k_fg=2, k_bg=3))
    assert path.read_bytes() == formats.MAGIC_BANK + struct.pack("<IIII", 0, 2, 3, 0)
    back = formats.read_centroid_bank(path)
    assert back.foreground == {} and back.background == ()
    assert (back.k_fg, back.k_bg) == (2, 3)


def test_writing_what_was_read_gives_back_the_file_bytes(tiny_corpus, tmp_path):
    files = [(path, read, write) for (path, read), write in
             zip(_one_of_each_format(tmp_path), _WRITERS)]
    manifest = tiny_corpus.manifest
    bank = build_centroid_bank(
        manifest, formats.load_pseudo_labels(manifest), 2, 2, 0, formats.load_features(manifest)
    )
    formats.write_centroid_bank(tmp_path / "tiny_bank.bin", bank)
    files.append((tmp_path / "tiny_bank.bin", formats.read_centroid_bank, _WRITERS[2]))
    num_classes = tiny_corpus.manifest.num_classes
    for r in tiny_corpus.manifest.records:
        files.append((r.feature_path, formats.read_feature_map, _WRITERS[0]))
        for labels, c in ((r.label_path, num_classes), (r.gt_path, num_classes), (r.bias_path, 1)):
            files.append((labels, partial(formats.read_label_map, num_classes=c), _WRITERS[1]))
    for path, read, write in files:
        again = tmp_path / "again.bin"
        write(again, read(path))
        assert again.read_bytes() == path.read_bytes(), path
