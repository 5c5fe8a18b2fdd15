import csv
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import segdebias
from segdebias import formats
from segdebias.cli import main
from segdebias.core import DatasetManifest, LabelMap
from segdebias.pipeline import PipelineParams, run_pipeline
from segdebias.selection import DebiasedCentroidSet
from segdebias.trainloop import train


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    config = {
        "num_images": 8,
        "image_size": [12, 20],
        "num_classes": 2,
        "embedding_dim": 12,
        "problematic_classes": [1],
        "secondary_class_rate": 0.5,
        "bias_in_background_rate": 0.8,
        "seed": 11,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    out = root / "corpus"
    assert main(["synth", "--out", str(out), "--config", str(config_path)]) == 0
    return out


def test_full_chain(corpus_dir, tmp_path):
    manifest = str(corpus_dir / "manifest.jsonl")
    bank = tmp_path / "bank.bin"
    cset = tmp_path / "centroids.json"
    debiased = tmp_path / "debiased"
    ckpt = tmp_path / "head.bin"
    log = tmp_path / "log.csv"
    preds = tmp_path / "preds"
    report = tmp_path / "report.json"
    fp_csv = tmp_path / "fp.csv"
    export = tmp_path / "centroids.csv"

    assert main(["cluster", "--manifest", manifest, "--out", str(bank)]) == 0
    assert main(["select", "--bank", str(bank), "--alpha", "0.4", "--out", str(cset)]) == 0
    assert main([
        "debias", "--manifest", manifest, "--centroids", str(cset),
        "--threshold", "0.3", "--out", str(debiased),
    ]) == 0
    assert main([
        "train", "--manifest", manifest, "--debiased", str(debiased),
        "--epochs", "3", "--lr", "1e-3", "--seed", "0",
        "--out", str(ckpt), "--log", str(log), "--pred-out", str(preds),
    ]) == 0
    assert main([
        "eval", "--manifest", manifest, "--pred", str(preds),
        "--out", str(report), "--fp-csv", str(fp_csv),
    ]) == 0
    assert main([
        "export-centroids", "--bank", str(bank), "--centroids", str(cset),
        "--out", str(export),
    ]) == 0

    payload = json.loads(report.read_text())
    assert 0.0 <= payload["miou"] <= 1.0
    assert log.read_text().startswith("epoch,loss,miou,fp,fn")
    loaded = formats.read_checkpoint(ckpt)
    assert loaded.weights.shape == (3, 12)
    with open(export) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"class_id", "image_id", "cluster_index", "dist", "selected"}
    with open(fp_csv) as fh:
        fp_rows = list(csv.DictReader(fh))
    assert fp_rows and set(fp_rows[0]) == {"class_id", "fp_share"}


def test_alpha_out_of_range_is_usage_error(corpus_dir, tmp_path):
    bank = tmp_path / "bank.bin"
    assert main(["cluster", "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(bank)]) == 0
    with pytest.raises(SystemExit) as err:
        main(["select", "--bank", str(bank), "--alpha", "1.5", "--out", str(tmp_path / "c")])
    assert err.value.code == 2


def test_missing_input_is_nonzero(tmp_path):
    assert main(["cluster", "--manifest", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "bank.bin")]) == 1


def test_manifest_without_records_is_nonzero(tmp_path, capsys):
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"embedding_dim": 4, "num_classes": 2}\n')
    assert main(["cluster", "--manifest", str(path), "--out", str(tmp_path / "bank.bin")]) == 1
    assert f"error: {path}: manifest has no records" in capsys.readouterr().err
    assert not (tmp_path / "bank.bin").exists()


def test_missing_required_flag_shows_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["cluster"])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_sweep_row_cardinality(corpus_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--manifest", str(corpus_dir / "manifest.jsonl"),
        "--param", "kbg", "--values", "1,2,3,4,5",
        "--epochs", "2", "--out", str(out),
    ]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    # the value each run used: k_bg is a whole number
    assert [r["value"] for r in rows] == ["1", "2", "3", "4", "5"]
    assert all(r["miou"] for r in rows)


def test_sweep_rejects_fractional_kbg(corpus_dir, tmp_path, capsys):
    assert main([
        "sweep", "--manifest", str(corpus_dir / "manifest.jsonl"),
        "--param", "kbg", "--values", "1.5,1",
        "--epochs", "1", "--out", str(tmp_path / "sweep.csv"),
    ]) == 1
    assert "1.5" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_rejects_kbg_past_the_bank_header(corpus_dir, tmp_path, capsys):
    assert main([
        "sweep", "--manifest", str(corpus_dir / "manifest.jsonl"),
        "--param", "kbg", "--values", "1,1e300",
        "--epochs", "1", "--out", str(tmp_path / "sweep.csv"),
    ]) == 1
    assert "error: k_bg must be <= 4294967295, got 1e+300" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_eval_missing_prediction_is_nonzero(corpus_dir, tmp_path, capsys):
    manifest_path = corpus_dir / "manifest.jsonl"
    manifest = formats.read_manifest(manifest_path)
    preds = tmp_path / "preds"
    for image_id, gt in formats.load_ground_truth(manifest).items():
        formats.write_label_map(preds / f"{image_id}.bin", gt)
    missing = preds / f"{manifest.records[-1].image_id}.bin"
    missing.unlink()
    assert main(["eval", "--manifest", str(manifest_path), "--pred", str(preds),
                 "--out", str(tmp_path / "report.json")]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_output_path_that_is_a_directory_is_nonzero(corpus_dir, tmp_path, capsys):
    bank = tmp_path / "bank.bin"
    assert main(["cluster", "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(bank)]) == 0
    out = tmp_path / "taken"
    out.mkdir()
    assert main(["select", "--bank", str(bank), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def test_synth_defaults_to_standard_corpus(tmp_path):
    out = tmp_path / "std"
    assert main(["synth", "--out", str(out)]) == 0
    manifest = formats.read_manifest(out / "manifest.jsonl")
    assert len(manifest.records) == 60
    assert manifest.num_classes == 4
    assert manifest.embedding_dim == 16


def test_synth_config_error_names_the_file(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    for payload, message in [
        ({"num_images": 4, "colour": "red"}, "unexpected keyword argument 'colour'"),
        ({"num_images": 0}, "num_images must be >= 1, got 0"),
        ({"embedding_dim": 8}, "embedding_dim must be >= 11"),
        ({"echo_bg_rate": 0.5}, "unexpected keyword argument 'echo_bg_rate'"),
        ([4, 8], "must be a mapping"),
        # a fraction is refused, not truncated or left to crash the generator
        ({"num_images": 2.5}, "num_images must be a whole number, got 2.5"),
        ({"seed": 1.5}, "seed must be a whole number, got 1.5"),
        ({"image_size": [24, 40.5]}, "image_size must be a whole number, got 40.5"),
        # NaN or a bool for a rate and a bare number for image_size fail naming the field
        ({"feature_noise_sigma": float("nan")},
         "feature_noise_sigma must lie in [0, inf), got nan"),
        ({"bias_cooccurrence": True}, "bias_cooccurrence must lie in [0, 1], got True"),
        ({"image_size": 24}, "image_size must be two whole numbers, got 24"),
    ]:
        config_path.write_text(json.dumps(payload))
        assert main(["synth", "--out", str(tmp_path / "c"), "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: ") and message in err, err
    assert not (tmp_path / "c").exists()


def test_malformed_centroid_files_fail_naming_the_file(corpus_dir, tmp_path, capsys):
    manifest_path = str(corpus_dir / "manifest.jsonl")
    bank = tmp_path / "bank.bin"
    cset = tmp_path / "centroids.json"
    assert main(["cluster", "--manifest", manifest_path, "--out", str(bank)]) == 0
    assert main(["select", "--bank", str(bank), "--out", str(cset)]) == 0
    payload = json.loads(cset.read_text())
    payload["classes"]["1"]["vector"] = [0.0] * len(payload["classes"]["1"]["vector"])
    cset.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["debias", "--manifest", manifest_path, "--centroids", str(cset),
                 "--out", str(tmp_path / "debiased")]) == 1
    assert f"error: {cset}: class 1 centroid vector must be unit-norm" in capsys.readouterr().err
    assert not (tmp_path / "debiased").exists()
    del payload["alpha"]
    cset.write_text(json.dumps(payload))
    assert main(["export-centroids", "--bank", str(bank), "--centroids", str(cset),
                 "--out", str(tmp_path / "rows.csv")]) == 1
    assert f"error: {cset}: missing field 'alpha'" in capsys.readouterr().err

    blob = bytearray(bank.read_bytes())
    id_len = struct.unpack("<I", blob[8 + 16 + 12 : 8 + 16 + 16])[0]
    vector = 8 + 16 + 16 + id_len  # magic, header, first record's fields and id
    blob[vector : vector + 8] = struct.pack("<d", float("nan"))
    bank.write_bytes(bytes(blob))
    assert main(["select", "--bank", str(bank), "--out", str(tmp_path / "c2.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bank}: centroid vector must be unit-norm"), err


def test_debiased_labels_roundtrip_with_sentinel(corpus_dir, tmp_path):
    manifest_path = str(corpus_dir / "manifest.jsonl")
    bank = tmp_path / "bank.bin"
    cset = tmp_path / "c.json"
    debiased = tmp_path / "deb"
    assert main(["cluster", "--manifest", manifest_path, "--out", str(bank)]) == 0
    assert main(["select", "--bank", str(bank), "--out", str(cset)]) == 0
    assert main(["debias", "--manifest", manifest_path, "--centroids", str(cset),
                 "--out", str(debiased)]) == 0
    manifest = formats.read_manifest(manifest_path)
    total_sentinel = 0
    for record in manifest.records:
        label = formats.read_label_map(debiased / f"{record.image_id}.bin",
                                       manifest.num_classes)
        total_sentinel += int((label.data == -1).sum())
    assert total_sentinel > 0  # the problematic class planted impostors


@pytest.fixture(scope="module")
def default_chain(corpus_dir, tmp_path_factory):
    """cluster -> select -> debias -> train with no hyperparameter flags."""
    out = tmp_path_factory.mktemp("default_chain")
    manifest = str(corpus_dir / "manifest.jsonl")
    assert main(["cluster", "--manifest", manifest, "--out", str(out / "bank.bin")]) == 0
    assert main(["select", "--bank", str(out / "bank.bin"),
                 "--out", str(out / "centroids.json")]) == 0
    assert main(["debias", "--manifest", manifest, "--centroids", str(out / "centroids.json"),
                 "--out", str(out / "debiased")]) == 0
    assert main(["train", "--manifest", manifest, "--debiased", str(out / "debiased"),
                 "--out", str(out / "head.bin"), "--log", str(out / "metrics.csv")]) == 0
    return out


def _library_inputs(corpus_dir):
    manifest = formats.read_manifest(corpus_dir / "manifest.jsonl")
    return (
        manifest,
        formats.load_features(manifest),
        formats.load_pseudo_labels(manifest),
        formats.load_ground_truth(manifest),
    )


def test_flag_defaults_match_pipeline_params(corpus_dir, default_chain, tmp_path):
    manifest, features, labels, gts = _library_inputs(corpus_dir)
    result = run_pipeline(manifest, features, labels, PipelineParams(), gts)
    formats.write_centroid_bank(tmp_path / "bank.bin", result.bank)
    formats.write_centroid_set(tmp_path / "centroids.json", result.centroid_set)
    formats.write_checkpoint(tmp_path / "head.bin", result.train_result.teacher)
    for image_id, label in result.debiased.items():
        formats.write_label_map(tmp_path / "debiased" / f"{image_id}.bin", label)
    names = ["bank.bin", "centroids.json", "head.bin"] + [
        f"debiased/{r.image_id}.bin" for r in manifest.records
    ]
    for name in names:
        assert (default_chain / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_train_ablation_flags_match_pipeline_params(corpus_dir, default_chain, tmp_path):
    manifest, features, _, gts = _library_inputs(corpus_dir)
    head = tmp_path / "head.bin"
    assert main([
        "train", "--manifest", str(corpus_dir / "manifest.jsonl"),
        "--debiased", str(default_chain / "debiased"), "--no-complement", "--no-certainty",
        "--out", str(head), "--log", str(tmp_path / "metrics.csv"),
    ]) == 0
    debiased = {
        r.image_id: formats.read_label_map(
            default_chain / "debiased" / f"{r.image_id}.bin", manifest.num_classes
        )
        for r in manifest.records
    }
    params = replace(PipelineParams(), complement=False, certainty_weighting=False)
    result = train(manifest, debiased, params.train_config(), features=features, ground_truth=gts)
    formats.write_checkpoint(tmp_path / "expected.bin", result.teacher)
    assert head.read_bytes() == (tmp_path / "expected.bin").read_bytes()
    assert head.read_bytes() != (default_chain / "head.bin").read_bytes()


_COMMAND_ARGS = {
    "cluster": ["--manifest", "m.jsonl", "--out", "bank.bin"],
    "select": ["--bank", "bank.bin", "--out", "c.json"],
    "debias": ["--manifest", "m.jsonl", "--centroids", "c.json", "--out", "deb"],
    "train": ["--manifest", "m.jsonl", "--debiased", "deb", "--out", "h.bin", "--log", "l.csv"],
    "sweep": ["--manifest", "m.jsonl", "--param", "alpha", "--values", "0.4", "--out", "s.csv"],
}
_OUT_OF_RANGE = {
    "kfg": ["0", "1.5", "4294967296"],
    "kbg": ["0", "1.5", "4294967296"],
    "alpha": ["0", "1.5"],
    "threshold": ["-0.1", "1.5"],
    "epochs": ["-1"],
    "lr": ["0", "nan", "inf"],
    "ema": ["1"],
    "seed": ["-1"],
}
_COMMAND_FLAGS = {
    "cluster": ["kfg", "kbg", "seed"],
    "select": ["alpha"],
    "debias": ["threshold"],
    "train": ["epochs", "lr", "ema", "seed"],
    "sweep": list(_OUT_OF_RANGE),
}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for command, flags in _COMMAND_FLAGS.items()
        for flag in flags
        for value in _OUT_OF_RANGE[flag]
    ],
)
def test_out_of_range_hyperparameter_flag_is_usage_error(command, flag, value, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, *_COMMAND_ARGS[command], f"--{flag}", value])
    assert err.value.code == 2
    assert f"--{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("bare", [slice(1, None), slice(2, 3)])
def test_eval_requires_ground_truth_for_every_record(corpus_dir, tmp_path, capsys, bare):
    manifest = formats.read_manifest(corpus_dir / "manifest.jsonl")
    preds = tmp_path / "preds"
    for image_id, gt in formats.load_ground_truth(manifest).items():
        formats.write_label_map(preds / f"{image_id}.bin", gt)
    records = list(manifest.records)
    records[bare] = [replace(r, gt_path=None) for r in records[bare]]
    formats.write_manifest(tmp_path / "manifest.jsonl", replace(manifest, records=tuple(records)))
    assert main(["eval", "--manifest", str(tmp_path / "manifest.jsonl"), "--pred", str(preds),
                 "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert f"error: {records[bare][0].image_id} has no ground truth" in err
    assert not (tmp_path / "report.json").exists()


def test_debias_without_centroid_is_nonzero_and_names_the_image(corpus_dir, tmp_path, capsys):
    manifest_path = corpus_dir / "manifest.jsonl"
    first = formats.read_manifest(manifest_path).records[0]
    empty = tmp_path / "centroids.json"
    formats.write_centroid_set(empty, DebiasedCentroidSet({}, alpha=0.4, selected_counts={}))
    assert main(["debias", "--manifest", str(manifest_path), "--centroids", str(empty),
                 "--out", str(tmp_path / "debiased")]) == 1
    err = capsys.readouterr().err
    assert f"{first.image_id}: no usable centroids" in err
    assert f"truth classes {sorted(first.truth_classes)}" in err
    assert not (tmp_path / "debiased").exists()


def test_debias_skipped_class_warning_names_the_image(corpus_dir, tmp_path, caplog):
    manifest = formats.read_manifest(corpus_dir / "manifest.jsonl")
    with_1 = tuple(r for r in manifest.records if 1 in r.truth_classes)
    partly = [r.image_id for r in with_1 if 2 in r.truth_classes]
    assert partly
    subset = tmp_path / "manifest.jsonl"
    formats.write_manifest(
        subset, DatasetManifest(with_1, manifest.num_classes, manifest.embedding_dim)
    )
    only_1 = tmp_path / "centroids.json"
    vector = np.ones(manifest.embedding_dim) / np.sqrt(manifest.embedding_dim)
    formats.write_centroid_set(
        only_1, DebiasedCentroidSet({1: vector}, alpha=0.4, selected_counts={1: 1})
    )
    assert main(["debias", "--manifest", str(subset), "--centroids", str(only_1),
                 "--out", str(tmp_path / "debiased")]) == 0
    warned = [rec.getMessage().split(":")[0] for rec in caplog.records
              if "no debiased centroid for classes [2]" in rec.getMessage()]
    assert warned == partly


def _with_record(manifest, index, tmp_path, **changes):
    """The manifest with one record's fields replaced, written under tmp_path."""
    records = list(manifest.records)
    records[index] = replace(records[index], **changes)
    path = tmp_path / "manifest.jsonl"
    formats.write_manifest(
        path, DatasetManifest(tuple(records), manifest.num_classes, manifest.embedding_dim)
    )
    return path


def _wider_label(tmp_path, label_path, num_classes):
    """A copy of the label file with one more column."""
    data = formats.read_label_map(label_path, num_classes).data
    path = tmp_path / "wide.bin"
    formats.write_label_map(path, LabelMap(np.pad(data, ((0, 0), (0, 1))), num_classes))
    return path


def test_debias_centroid_length_mismatch_names_both_dims(corpus_dir, tmp_path, capsys):
    manifest_path = corpus_dir / "manifest.jsonl"
    manifest = formats.read_manifest(manifest_path)
    short = tmp_path / "centroids.json"
    vector = np.ones(manifest.embedding_dim - 1) / np.sqrt(manifest.embedding_dim - 1)
    cset = DebiasedCentroidSet({1: vector, 2: vector}, alpha=0.4, selected_counts={1: 1, 2: 1})
    formats.write_centroid_set(short, cset)
    assert main(["debias", "--manifest", str(manifest_path), "--centroids", str(short),
                 "--out", str(tmp_path / "debiased")]) == 1
    err = capsys.readouterr().err
    first = manifest.records[0].image_id
    assert f"error: {first}: centroid vector length 11 != feature dim 12" in err
    assert not (tmp_path / "debiased").exists()


def test_debias_checks_the_manifest_embedding_dim(corpus_dir, tmp_path, capsys):
    manifest = formats.read_manifest(corpus_dir / "manifest.jsonl")
    wider = tmp_path / "manifest.jsonl"
    formats.write_manifest(wider, replace(manifest, embedding_dim=manifest.embedding_dim + 1))
    vector = np.ones(manifest.embedding_dim) / np.sqrt(manifest.embedding_dim)
    cset = DebiasedCentroidSet({1: vector, 2: vector}, alpha=0.4, selected_counts={1: 1, 2: 1})
    formats.write_centroid_set(tmp_path / "centroids.json", cset)
    assert main(["debias", "--manifest", str(wider), "--centroids",
                 str(tmp_path / "centroids.json"), "--out", str(tmp_path / "debiased")]) == 1
    first = manifest.records[0].image_id
    assert f"error: {first}: feature dim 12 != manifest embedding_dim 13" in capsys.readouterr().err
    assert not (tmp_path / "debiased").exists()


# Runs argv[1:] with stdout closed and prints its exit code and ru_maxrss (KiB).
# A child's ru_maxrss starts at the resident size of the process that spawns
# it, so each command is spawned from this small launcher, not from the tests.
_PEAK_RSS = """
import os, sys
devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=devnull)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_cluster_and_train_hold_one_feature_map_at_a_time(tmp_path):
    """The peak RSS of `cluster` and `train`, above that of `segdebias --help`,
    stays under half the corpus's feature bytes: both read one map at a time,
    so what they hold does not grow with the corpus."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(os.path.dirname(os.path.dirname(segdebias.__file__))),
                      env.get("PYTHONPATH")])
    )

    def peak_rss_bytes(*args):
        command = [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "segdebias", *args]
        code, peak_kib = subprocess.run(
            command, env=env, check=True, capture_output=True, text=True
        ).stdout.split()
        assert code == "0", args
        return int(peak_kib) * 1024

    # 24 maps of 64x64 at D=128 are 48 MiB; one map is 2 MiB
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"num_images": 24, "image_size": [64, 64],
                                  "embedding_dim": 128, "seed": 3}))
    corpus = tmp_path / "corpus"
    peak_rss_bytes("synth", "--out", str(corpus), "--config", str(config))
    manifest = formats.read_manifest(corpus / "manifest.jsonl")
    feature_bytes = sum(r.feature_path.stat().st_size for r in manifest.records)
    debiased = tmp_path / "debiased"  # the pseudo labels stand in for debiased ones
    debiased.mkdir()
    for r in manifest.records:
        shutil.copy(r.label_path, debiased / f"{r.image_id}.bin")

    baseline = peak_rss_bytes("--help")
    cluster = peak_rss_bytes("cluster", "--manifest", str(corpus / "manifest.jsonl"),
                             "--out", str(tmp_path / "bank.bin"))
    train_peak = peak_rss_bytes("train", "--manifest", str(corpus / "manifest.jsonl"),
                                "--debiased", str(debiased), "--epochs", "1",
                                "--out", str(tmp_path / "head.bin"),
                                "--log", str(tmp_path / "log.csv"))
    mib = 2**20
    for name, peak in (("cluster", cluster), ("train", train_peak)):
        assert peak - baseline < feature_bytes / 2, (
            f"{name}: {(peak - baseline) / mib:.1f} MiB above --help for "
            f"{feature_bytes / mib:.1f} MiB of feature maps"
        )


def test_cluster_label_shape_mismatch_names_the_image(corpus_dir, tmp_path, capsys):
    manifest = formats.read_manifest(corpus_dir / "manifest.jsonl")
    record = manifest.records[3]
    wide = _wider_label(tmp_path, record.label_path, manifest.num_classes)
    path = _with_record(manifest, 3, tmp_path, label_path=wide)
    assert main(["cluster", "--manifest", str(path), "--out", str(tmp_path / "bank.bin")]) == 1
    err = capsys.readouterr().err
    assert f"error: {record.image_id}: label shape (12, 21) != feature shape (12, 20)" in err
    assert not (tmp_path / "bank.bin").exists()


def test_eval_prediction_shape_mismatch_names_the_image(corpus_dir, tmp_path, capsys):
    manifest_path = corpus_dir / "manifest.jsonl"
    manifest = formats.read_manifest(manifest_path)
    preds = tmp_path / "preds"
    for image_id, gt in formats.load_ground_truth(manifest).items():
        formats.write_label_map(preds / f"{image_id}.bin", gt)
    record = manifest.records[3]
    target = preds / f"{record.image_id}.bin"
    _wider_label(tmp_path, target, manifest.num_classes).replace(target)
    assert main(["eval", "--manifest", str(manifest_path), "--pred", str(preds),
                 "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert f"error: {record.image_id}: ground truth shape (12, 20) != label shape (12, 21)" in err
    assert not (tmp_path / "report.json").exists()


def test_train_with_partial_ground_truth_names_the_first_record_without(
    corpus_dir, default_chain, tmp_path, capsys
):
    manifest = formats.read_manifest(corpus_dir / "manifest.jsonl")
    path = _with_record(manifest, 2, tmp_path, gt_path=None)
    assert main(["train", "--manifest", str(path), "--debiased", str(default_chain / "debiased"),
                 "--out", str(tmp_path / "head.bin"), "--log", str(tmp_path / "log.csv")]) == 1
    err = capsys.readouterr().err
    assert f"error: {manifest.records[2].image_id} has no ground truth" in err
    assert not (tmp_path / "head.bin").exists() and not (tmp_path / "log.csv").exists()


def test_sweep_without_ground_truth_fails_before_any_run(corpus_dir, tmp_path, capsys):
    manifest = formats.read_manifest(corpus_dir / "manifest.jsonl")
    bare = DatasetManifest(
        tuple(replace(r, gt_path=None) for r in manifest.records),
        manifest.num_classes,
        manifest.embedding_dim,
    )
    formats.write_manifest(tmp_path / "manifest.jsonl", bare)
    with mock.patch("segdebias.pipeline.run_pipeline") as run:
        assert main(["sweep", "--manifest", str(tmp_path / "manifest.jsonl"), "--param", "alpha",
                     "--values", "0.3,0.5", "--out", str(tmp_path / "sweep.csv")]) == 1
    run.assert_not_called()
    err = capsys.readouterr().err
    assert f"{manifest.records[0].image_id} has no ground truth" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_train_rejects_a_label_class_outside_the_truth_set(
    corpus_dir, default_chain, tmp_path, capsys
):
    manifest = formats.read_manifest(corpus_dir / "manifest.jsonl")
    record = next(r for r in manifest.records if len(r.truth_classes) == 1)
    (own,) = record.truth_classes
    other = 3 - own
    debiased = tmp_path / "debiased"
    debiased.mkdir()
    for r in manifest.records:
        path = default_chain / "debiased" / f"{r.image_id}.bin"
        label = formats.read_label_map(path, manifest.num_classes)
        if r is record:
            label = LabelMap(np.where(label.data == own, other, label.data), label.num_classes)
        formats.write_label_map(debiased / f"{r.image_id}.bin", label)
    assert main(["train", "--manifest", str(corpus_dir / "manifest.jsonl"), "--debiased",
                 str(debiased), "--epochs", "1",
                 "--out", str(tmp_path / "head.bin"), "--log", str(tmp_path / "log.csv")]) == 1
    err = capsys.readouterr().err
    assert f"error: {record.image_id}: label classes [{other}] outside truth set" in err
    assert not (tmp_path / "head.bin").exists() and not (tmp_path / "log.csv").exists()
