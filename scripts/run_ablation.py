#!/usr/bin/env python3
"""Three-row ablation on the standard synthetic corpus.

Row 1 trains on debiased labels with sentinel pixels excluded, row 2 adds
teacher complementing at full weight, row 3 adds the certainty weighting.
Prints the per-row final mIoU/FP/FN table plus stage diagnostics.
"""

import argparse
import tempfile
from dataclasses import replace

from segdebias.analysis import selection_accuracy
from segdebias.cli import add_param_flags, params_from_flags
from segdebias.pipeline import run_pipeline
from segdebias.synth import SynthConfig, generate


def main() -> None:
    parser = argparse.ArgumentParser()
    add_param_flags(parser, "epochs", "lr", "ema", "seed")
    parser.add_argument("--corpus-seed", type=int, default=7)
    args = parser.parse_args()

    config = replace(SynthConfig.standard(), seed=args.corpus_seed)
    with tempfile.TemporaryDirectory(prefix="segdebias_ablation_") as corpus_dir:
        ablate(args, generate(config, corpus_dir))


def ablate(args, corpus) -> None:
    """Print the three rows and the stage diagnostics for one generated corpus."""
    features = corpus.features()
    labels = corpus.pseudo_labels()
    gts = corpus.ground_truth()

    base = params_from_flags(args)
    rows = [
        ("1 excluded", replace(base, complement=False, certainty_weighting=False)),
        ("2 +complement", replace(base, complement=True, certainty_weighting=False)),
        ("3 +certainty", replace(base, complement=True, certainty_weighting=True)),
    ]

    results = {}
    for name, params in rows:
        result = run_pipeline(corpus.manifest, features, labels, params, gts)
        results[name] = result
        rep = result.report
        print(f"{name:16s} miou {rep.miou:.4f}  fp {rep.fp_rate:.5f}  fn {rep.fn_rate:.5f}")

    first = results["1 excluded"]
    acc = selection_accuracy(first.bank, base.alpha, features, labels, gts)
    print("selection accuracy per class:", {c: round(a, 3) for c, a in sorted(acc.items())})

    removed = kept = bias_total = target_total = 0
    for rec in corpus.records:
        ydb = first.debiased[rec.image_id].data
        bias = rec.biased_mask
        target = rec.gt.data > 0
        bias_total += bias.sum()
        target_total += target.sum()
        removed += ((ydb == -1) & bias).sum()
        kept += ((ydb == rec.gt.data) & target).sum()
    print(f"debias: removed {removed}/{bias_total} biased px ({_share(removed, bias_total)}), "
          f"kept {kept}/{target_total} target px ({_share(kept, target_total)})")


def _share(part, whole) -> str:
    """part / whole to four places, or n/a when there is nothing to count."""
    return f"{part / whole:.4f}" if whole else "n/a"


if __name__ == "__main__":
    main()
