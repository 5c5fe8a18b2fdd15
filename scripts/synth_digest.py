"""Digest every file `synth.generate` writes, and the prototypes it returns,
on a fixed set of corpora, so two trees can be compared byte for byte.

    PYTHONPATH=<tree>/src python scripts/synth_digest.py OUT.json
    PYTHONPATH=<tree>/src python scripts/synth_digest.py --verify REF.json

The first form writes the digest of the tree on PYTHONPATH to OUT.json.  The
second digests that tree and compares it with REF.json: it names every
config and every file that differs, then exits 1 if any does and 0 if none
does.  Run this one script against each tree's `src`, setting PYTHONPATH to
that tree, to compare a change with its parent.

The corpora are the standard config, the `large` and `cli_files` shapes of
the benchmark on seeds 0-3, the odd configs of the roadmap and three corpora
the generator's premise check rejects; for those the record holds the
message and the files written before it.  The files are the only copy of
every per-pixel array, so their sha256s cover the maps, labels, ground truth
and impostor masks.  The digests depend on numpy's generator and the BLAS
build, so the record holds the numpy and OpenBLAS versions, and `--verify`
against a record from another platform prints `different platform, not
compared` and compares nothing.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from segdebias.synth import SynthConfig, generate

LARGE = {"image_size": (64, 64), "embedding_dim": 128}
CONFIGS = {
    "standard": {},
    **{f"large_{s}": {"num_images": 100, **LARGE, "seed": s} for s in range(4)},
    **{f"cli_files_{s}": {"num_images": 60, **LARGE, "seed": s} for s in range(4)},
    "one_class": {"num_classes": 1, "problematic_classes": (1,)},
    "no_problematic_class": {"problematic_classes": ()},
    "six_classes": {"num_classes": 6, "problematic_classes": (1, 2, 5), "secondary_class_rate": 0.3},
    "6x9": {"image_size": (6, 9)},
    "12x20": {"image_size": (12, 20)},
    "sigma_0": {"feature_noise_sigma": 0.0},
    "no_cooccurrence": {"bias_cooccurrence": 0.0},
    "no_secondary_class": {"secondary_class_rate": 0.0},
    "no_detail": {"detail_fraction": 0.0},
    "four_64x64": {"num_images": 4, **LARGE},
    # rejected by the premise check
    "two_images": {"num_images": 2},
    "standard_seed_468": {"seed": 468},
    "standard_seed_643": {"seed": 643},
}


def platform() -> dict:
    """The numpy and BLAS builds the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _array(a: np.ndarray) -> str:
    header = repr((a.dtype.str, a.shape, a.flags.c_contiguous, a.flags.writeable)).encode()
    return hashlib.sha256(header + np.ascontiguousarray(a).tobytes()).hexdigest()


def digest(knobs: dict) -> dict:
    """The corpus of `SynthConfig(**knobs)`: each written file's sha256, and
    the prototypes' digests or the premise check's message."""
    with tempfile.TemporaryDirectory() as out:
        try:
            corpus = generate(SynthConfig(**knobs), out)
            p = corpus.prototypes
            record = {"prototypes": [_array(p.background)] + [
                [k, _array(v)] for m in (p.targets, p.details, p.detail_directions, p.biased)
                for k, v in m.items()
            ]}
        except ValueError as exc:
            record = {"error": str(exc)}
        record["files"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in sorted(Path(out).iterdir())}
    return record


def differences(reference: dict, corpora: dict) -> list[str]:
    """One line for each config, file, message or prototype set that differs
    between two digests' corpora."""
    lines = []
    for name in sorted(reference.keys() | corpora.keys()):
        if name not in reference or name not in corpora:
            lines.append(f"{name}: only in {'the reference' if name in reference else 'this tree'}")
            continue
        ref, new = reference[name], corpora[name]
        for file in sorted(ref["files"].keys() | new["files"].keys()):
            if file not in new["files"]:
                lines.append(f"{name}: {file} only in the reference")
            elif file not in ref["files"]:
                lines.append(f"{name}: {file} only in this tree")
            elif ref["files"][file] != new["files"][file]:
                lines.append(f"{name}: {file} differs")
        lines += [f"{name}: {key} differs" for key in ("error", "prototypes") if ref.get(key) != new.get(key)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("out", nargs="?", metavar="OUT.json")
    target.add_argument("--verify", metavar="REF.json")
    args = parser.parse_args(argv)
    if args.out:
        record = {"platform": platform(), "corpora": {n: digest(k) for n, k in CONFIGS.items()}}
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True))
        return 0
    reference = json.loads(Path(args.verify).read_text())
    if reference["platform"] != platform():
        print(f"different platform, not compared: {args.verify} has {reference['platform']}, "
              f"this tree {platform()}")
        return 0
    moved = differences(reference["corpora"], {n: digest(k) for n, k in CONFIGS.items()})
    print("\n".join(moved) or f"all {len(CONFIGS)} configs match {args.verify}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
