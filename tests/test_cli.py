import csv
import json

import numpy as np
import pytest

from segdebias import formats
from segdebias.cli import main


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
