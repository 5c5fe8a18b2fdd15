import argparse
import importlib.util
import json
from pathlib import Path

import pytest

from segdebias.cli import add_param_flags
from segdebias.synth import SynthConfig, generate

ROOT = Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ablate_two_epochs(corpus, capsys) -> list[str]:
    """The lines `run_ablation.ablate` prints for corpus with `--epochs 2`."""
    parser = argparse.ArgumentParser()
    add_param_flags(parser, "epochs", "lr", "ema", "seed")
    _script("run_ablation").ablate(parser.parse_args(["--epochs", "2"]), corpus)
    return capsys.readouterr().out.splitlines()


def test_ablation_prints_three_rows_and_the_debias_line(tiny_corpus, capsys):
    lines = _ablate_two_epochs(tiny_corpus, capsys)
    rows = [line.split()[:2] for line in lines[:3]]
    assert rows == [["1", "excluded"], ["2", "+complement"], ["3", "+certainty"]]
    assert all("miou" in line for line in lines[:3])
    assert lines[3].startswith("selection accuracy per class:")
    assert lines[4].startswith("debias: removed ")
    assert len(lines) == 5


def test_ablation_on_a_corpus_without_impostors(tmp_path, capsys):
    """No impostor pixel to remove: the removal share reads n/a, not a NaN
    after a divide-by-zero warning."""
    config = SynthConfig(num_images=10, bias_cooccurrence=0.0, detail_fraction=0.0, seed=5)
    last = _ablate_two_epochs(generate(config, tmp_path), capsys)[-1]
    assert last.startswith("debias: removed 0/0 biased px (n/a), kept "), last


def test_synth_digest_covers_every_output():
    digest = _script("synth_digest").digest
    accepted = digest({"num_images": 4, "seed": 2})
    kinds = ("bias", "features", "gt", "labels")
    assert sorted(accepted["files"]) == sorted(
        [f"img_{i:04d}.{kind}.bin" for i in range(4) for kind in kinds] + ["manifest.jsonl"]
    )
    assert sorted(accepted) == ["files", "prototypes"]
    rejected = digest({"num_images": 2})
    assert rejected["error"].startswith("class 1: impostor texture is not closer")
    assert sorted(rejected) == ["error", "files"] and len(rejected["files"]) == 8


def test_synth_digest_verify_names_every_file_that_differs(tmp_path, monkeypatch, capsys):
    script = _script("synth_digest")
    monkeypatch.setattr(script, "CONFIGS", {"accepted": {"num_images": 4, "seed": 2},
                                            "rejected": {"num_images": 2}})
    ref = tmp_path / "ref.json"
    assert script.main([str(ref)]) == 0
    assert script.main(["--verify", str(ref)]) == 0
    assert capsys.readouterr().out == f"all 2 configs match {ref}\n"

    record = json.loads(ref.read_text())
    corpora = record["corpora"]
    corpora["accepted"]["files"]["img_0001.gt.bin"] = "0" * 64
    corpora["rejected"]["files"]["img_0000.features.bin"] = "0" * 64
    del corpora["accepted"]["files"]["manifest.jsonl"]
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(record))
    assert script.main(["--verify", str(moved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "accepted: img_0001.gt.bin differs",
        "accepted: manifest.jsonl only in this tree",
        "rejected: img_0000.features.bin differs",
    ]

    record["platform"]["numpy"] = "0.0"
    moved.write_text(json.dumps(record))
    assert script.main(["--verify", str(moved)]) == 0
    assert capsys.readouterr().out.startswith("different platform, not compared")


def test_bench_pairs_summary_applies_the_claim_rule():
    """The pairs summary on fixed data: medians, linear quartiles, the ratio,
    pairs better and worse with ties counted for neither, and the claim rule
    (at least nine tenths won and a median gain wider than the parent's
    quartile distance)."""
    bench_pairs = _script("bench_pairs")
    assert bench_pairs.end_to_end_metrics() == {
        "setup_s": "lower", "pipeline_s": "lower", "peak_rss_mb": "lower", "miou": "higher"
    }
    parent = [1.0 + 0.1 * i for i in range(10)]  # median 1.45, quartiles 1.225 and 1.675
    pairs = [
        {
            "parent": {"setup_s": p, "pipeline_s": p, "peak_rss_mb": 100.0, "miou": 0.9},
            # setup_s wins 9 by 0.6; pipeline_s wins 9 by 0.4, inside the 0.45 spread;
            # peak_rss_mb wins 8 and ties 2; miou ties every pair
            "change": {"setup_s": p - 0.6 if i < 9 else 2.0, "pipeline_s": p - 0.4 if i < 9 else 2.0,
                       "peak_rss_mb": 50.0 if i < 8 else 100.0, "miou": 0.9},
        }
        for i, p in enumerate(parent)
    ]
    summary = bench_pairs.summarize(pairs, bench_pairs.end_to_end_metrics())
    setup = summary["setup_s"]
    assert setup["parent_median"] == pytest.approx(1.45)
    assert setup["parent_quartiles"] == pytest.approx([1.225, 1.675])
    assert setup["change_median"] == pytest.approx(0.85)
    assert setup["change_over_parent"] == pytest.approx(0.85 / 1.45, abs=1e-6)
    assert (setup["change_better"], setup["change_worse"], setup["pairs"]) == (9, 1, 10)
    assert setup["claim_rule_met"]
    assert summary["pipeline_s"]["change_better"] == 9
    assert not summary["pipeline_s"]["claim_rule_met"]
    rss = summary["peak_rss_mb"]
    assert (rss["change_better"], rss["change_worse"], rss["change_median"]) == (8, 0, 50.0)
    assert not rss["claim_rule_met"]
    miou = summary["miou"]
    assert (miou["change_better"], miou["change_worse"], miou["change_over_parent"]) == (0, 0, 1.0)
    assert not miou["claim_rule_met"]


def test_bench_pairs_adds_a_repeat_call_to_the_stored_pairs(tmp_path, monkeypatch):
    """A second call on a workload keeps the first call's pairs, skips seeds
    already run, continues the alternation and summarises all the pairs;
    the run length is the benchmark's own."""
    bench_pairs = _script("bench_pairs")
    assert "--seconds 30 " in bench_pairs.COMMAND
    runs = []

    def fake_run(tree, workload, seed):
        runs.append((tree.name, seed))
        value = float(seed) if tree.name == "parent" else seed - 0.5
        return {"setup_s": value, "pipeline_s": value, "peak_rss_mb": 1.0, "miou": 0.5}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "BENCH_x.json"
    trees = [str(tmp_path / "parent"), str(tmp_path / "change")]
    bench_pairs.main([*trees, "--workload", "large", "--seeds", "1", "2", "3", "--out", str(out),
                      "--claim", "large:setup_s"])
    bench_pairs.main([*trees, "--workload", "large", "--seeds", "3", "4", "--out", str(out)])
    bench_pairs.main([*trees, "--workload", "standard", "--seeds", "9", "--out", str(out)])
    assert runs == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                    ("parent", 3), ("change", 3), ("change", 4), ("parent", 4),
                    ("parent", 9), ("change", 9)]
    record = json.loads(out.read_text())
    assert record["seeds"] == {"large": [1, 2, 3, 4], "standard": [9]}
    assert [p["first"] for p in record["pairs"]["large"]] == ["parent", "change"] * 2
    setup = record["summary"]["large"]["setup_s"]
    assert (setup["pairs"], setup["change_better"], setup["parent_median"]) == (4, 4, 2.5)
    assert record["claim"] == {"workload": "large", "metric": "setup_s", "better": "lower",
                               "met": False}
    runs.clear()
    bench_pairs.main([*trees, "--workload", "large", "--seeds", "1", "2", "--out", str(out)])
    assert runs == [] and json.loads(out.read_text()) == record
