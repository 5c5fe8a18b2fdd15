"""Command-line surface chaining the pipeline stages through files.

Every stage reads and writes the documented binary formats; all randomness
flows from --seed.  Exit code 0 means the command completed and every output
was written.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import formats
from .bank import build_centroid_bank
from .core import DatasetManifest
from .debiasing import debias_image
from .evaluation import (
    evaluate_predictions,
    per_class_fp_rows,
    report_json,
    report_text,
)
from .pipeline import FLAG_FIELDS, SWEEPABLE, PipelineParams, sweep
from .selection import select_debiased, selection_rows
from .synth import SynthConfig, generate
from .trainloop import train, write_metrics_csv

_DEFAULTS = PipelineParams()


def _param_type(name: str):
    """argparse type of one PipelineParams field: its type, then its range check."""
    kind = type(getattr(_DEFAULTS, name))

    def parse(text: str):
        try:
            return getattr(replace(_DEFAULTS, **{name: kind(text)}), name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def add_param_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Hyperparameter flags; each defaults to its PipelineParams field."""
    for flag in flags:
        name = FLAG_FIELDS[flag]
        parser.add_argument(
            f"--{flag}",
            dest=name,
            metavar=flag.upper(),
            type=_param_type(name),
            default=getattr(_DEFAULTS, name),
        )


def params_from_flags(args) -> PipelineParams:
    """PipelineParams from the parsed flags; fields without a flag keep their defaults."""
    names = [f.name for f in fields(PipelineParams) if hasattr(args, f.name)]
    return PipelineParams(**{name: getattr(args, name) for name in names})


def _load_label_dir(directory, manifest: DatasetManifest, kind: str):
    """One `<image_id>.bin` label per manifest record; a missing file is an error."""
    out = {}
    for record in manifest.records:
        path = Path(directory) / f"{record.image_id}.bin"
        if not path.exists():
            raise FileNotFoundError(f"missing {kind} label {path}")
        out[record.image_id] = formats.read_label_map(path, manifest.num_classes)
    return out


def _cmd_synth(args) -> int:
    if args.config:
        payload = json.loads(Path(args.config).read_text())
        if "image_size" in payload:
            payload["image_size"] = tuple(payload["image_size"])
        if "problematic_classes" in payload:
            payload["problematic_classes"] = tuple(payload["problematic_classes"])
        config = SynthConfig(**payload)
    else:
        config = SynthConfig.standard()
    corpus = generate(config, args.out)
    print(f"wrote {len(corpus.records)} images and manifest under {args.out}")
    return 0


def _cmd_cluster(args) -> int:
    manifest = formats.read_manifest(args.manifest)
    labels = formats.load_pseudo_labels(manifest)
    bank = build_centroid_bank(
        manifest, labels, args.k_fg, args.k_bg, args.seed, formats.load_features(manifest)
    )
    formats.write_centroid_bank(args.out, bank.canonically_sorted())
    n_fg = sum(len(v) for v in bank.foreground.values())
    print(f"wrote bank: {n_fg} foreground / {len(bank.background)} background centroids")
    return 0


def _cmd_select(args) -> int:
    bank = formats.read_centroid_bank(args.bank)
    cset = select_debiased(bank, args.alpha)
    formats.write_centroid_set(args.out, cset)
    print(f"wrote debiased centroids for classes {list(cset.classes())}")
    return 0


def _cmd_debias(args) -> int:
    manifest = formats.read_manifest(args.manifest)
    cset = formats.read_centroid_set(args.centroids)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rewritten = 0
    for record in manifest.records:
        fmap = formats.read_feature_map(record.feature_path)
        pseudo = formats.read_label_map(record.label_path, manifest.num_classes)
        debiased = debias_image(fmap, pseudo, cset, record.truth_classes, args.threshold)
        rewritten += int((debiased.data == -1).sum())
        formats.write_label_map(out_dir / f"{record.image_id}.bin", debiased)
    print(f"wrote {len(manifest.records)} debiased labels ({rewritten} pixels rewritten)")
    return 0


def _cmd_train(args) -> int:
    manifest = formats.read_manifest(args.manifest)
    debiased = _load_label_dir(args.debiased, manifest, "debiased")
    config = params_from_flags(args).train_config()
    result = train(
        manifest,
        debiased,
        config,
        features=formats.load_features(manifest),
        ground_truth=formats.load_ground_truth(manifest),
    )
    formats.write_checkpoint(args.out, result.teacher)
    write_metrics_csv(args.log, result.metrics)
    if args.pred_out:
        pred_dir = Path(args.pred_out)
        pred_dir.mkdir(parents=True, exist_ok=True)
        for image_id, label in result.predictions.items():
            formats.write_label_map(pred_dir / f"{image_id}.bin", label)
    final = result.metrics[-1].loss if result.metrics else float("nan")
    print(f"trained {config.epochs} epochs, final loss {final:.4f}")
    return 0


def _cmd_eval(args) -> int:
    manifest = formats.read_manifest(args.manifest)
    for record in manifest.records:
        if record.gt_path is None:
            raise ValueError(f"{record.image_id} has no gt_path; eval scores every record")
    ground_truth = formats.load_ground_truth(manifest)
    predictions = _load_label_dir(args.pred, manifest, "prediction")
    rep = evaluate_predictions(ground_truth, predictions, manifest.num_classes)
    formats.atomic_write_bytes(args.out, report_json(rep).encode("utf-8"))
    if args.fp_csv:
        formats.write_csv(args.fp_csv, ["class_id", "fp_share"], per_class_fp_rows(rep))
    print(report_text(rep))
    return 0


def _cmd_export_centroids(args) -> int:
    bank = formats.read_centroid_bank(args.bank)
    cset = formats.read_centroid_set(args.centroids)
    rows = selection_rows(bank, cset.alpha)
    formats.write_csv(
        args.out, ["class_id", "image_id", "cluster_index", "dist", "selected"], rows
    )
    print(f"wrote {len(rows)} centroid rows to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    manifest = formats.read_manifest(args.manifest)
    features = formats.load_features(manifest)
    labels = formats.load_pseudo_labels(manifest)
    ground_truth = formats.load_ground_truth(manifest) or None
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("--values must list at least one number")
    base = params_from_flags(args)
    rows = sweep(manifest, features, labels, ground_truth, args.param, values, base)
    formats.write_csv(
        args.out,
        ["param", "value", "miou", "fp_rate", "fn_rate", "selection_accuracy"],
        rows,
    )
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segdebias",
        description="Pseudo-label debiasing via centroid banks and teacher-student completion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with exact oracles")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file of generator knobs (defaults: standard corpus)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("cluster", help="build the per-image centroid bank")
    p.add_argument("--manifest", required=True)
    add_param_flags(p, "kfg", "kbg", "seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("select", help="aggregate debiased centroids from a bank")
    p.add_argument("--bank", required=True)
    add_param_flags(p, "alpha")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("debias", help="rewrite impostor foreground pixels to -1")
    p.add_argument("--manifest", required=True)
    p.add_argument("--centroids", required=True)
    add_param_flags(p, "threshold")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_debias)

    p = sub.add_parser("train", help="teacher-student training on debiased labels")
    p.add_argument("--manifest", required=True)
    p.add_argument("--debiased", required=True)
    add_param_flags(p, "epochs", "lr", "ema", "seed")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", required=True, help="per-epoch metrics CSV")
    p.add_argument("--pred-out", help="also write final teacher predictions here")
    p.add_argument("--no-complement", dest="complement", action="store_false")
    p.add_argument("--no-certainty", dest="certainty_weighting", action="store_false")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--fp-csv", help="optional per-class FP CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export-centroids", help="per-centroid distance/selection CSV")
    p.add_argument("--bank", required=True)
    p.add_argument("--centroids", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_centroids)

    p = sub.add_parser("sweep", help="rerun the chain over one parameter")
    p.add_argument("--manifest", required=True)
    p.add_argument("--param", choices=SWEEPABLE, required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", required=True)
    add_param_flags(p, *FLAG_FIELDS)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
