import argparse
import importlib.util
from pathlib import Path

from segdebias.cli import add_param_flags

ROOT = Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ablation_prints_three_rows_and_the_debias_line(tiny_corpus, capsys):
    parser = argparse.ArgumentParser()
    add_param_flags(parser, "epochs", "lr", "ema", "seed")
    _script("run_ablation").ablate(parser.parse_args(["--epochs", "2"]), tiny_corpus)
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split()[:2] for line in lines[:3]]
    assert rows == [["1", "excluded"], ["2", "+complement"], ["3", "+certainty"]]
    assert all("miou" in line for line in lines[:3])
    assert lines[3].startswith("selection accuracy per class:")
    assert lines[4].startswith("debias: removed ")
    assert len(lines) == 5
