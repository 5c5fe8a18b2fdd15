import argparse
import importlib.util
from pathlib import Path

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
