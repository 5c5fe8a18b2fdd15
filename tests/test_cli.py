import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from segdebias import formats
from segdebias.cli import main
from segdebias.core import DatasetManifest
from segdebias.pipeline import PipelineParams, run_pipeline
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
    assert [r["value"] for r in rows] == ["1.0", "2.0", "3.0", "4.0", "5.0"]
    assert all(r["miou"] for r in rows)


def test_sweep_rejects_fractional_kbg(corpus_dir, tmp_path, capsys):
    assert main([
        "sweep", "--manifest", str(corpus_dir / "manifest.jsonl"),
        "--param", "kbg", "--values", "1.5,1",
        "--epochs", "1", "--out", str(tmp_path / "sweep.csv"),
    ]) == 1
    assert "1.5" in capsys.readouterr().err
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
    assert len(manifest) == 60
    assert manifest.num_classes == 4
    assert manifest.embedding_dim == 16


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
    formats.write_centroid_bank(tmp_path / "bank.bin", result.bank.canonically_sorted())
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
    "kfg": ["0", "1.5"],
    "kbg": ["0", "1.5"],
    "alpha": ["0", "1.5"],
    "threshold": ["-0.1", "1.5"],
    "epochs": ["-1"],
    "lr": ["0"],
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


def test_eval_requires_ground_truth_for_every_record(corpus_dir, tmp_path, capsys):
    manifest = formats.read_manifest(corpus_dir / "manifest.jsonl")
    preds = tmp_path / "preds"
    for image_id, gt in formats.load_ground_truth(manifest).items():
        formats.write_label_map(preds / f"{image_id}.bin", gt)
    first, *rest = manifest.records
    partial = DatasetManifest(
        records=(first, *(replace(r, gt_path=None) for r in rest)),
        num_classes=manifest.num_classes,
        embedding_dim=manifest.embedding_dim,
    )
    formats.write_manifest(tmp_path / "manifest.jsonl", partial)
    assert main(["eval", "--manifest", str(tmp_path / "manifest.jsonl"), "--pred", str(preds),
                 "--out", str(tmp_path / "report.json")]) == 1
    assert rest[0].image_id in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
