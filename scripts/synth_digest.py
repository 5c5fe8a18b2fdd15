"""Digest every file `synth.generate` writes and every array it returns, on a
fixed set of corpora, so two trees can be compared byte for byte.

    PYTHONPATH=<tree>/src python scripts/synth_digest.py OUT.json

Run this one script once against each tree's `src`, setting PYTHONPATH to
that tree, and compare the two JSON files (`cmp a.json b.json`).  Each
feature map is digested through its file's sha256: the returned corpus
keeps no map.  The corpora are the standard config, the `large` and `cli_files` shapes of
the benchmark on seeds 0-3, the odd configs of the roadmap and three
corpora the generator's premise check rejects; for those the record holds
the message and the names of the files written before it.  The digests
depend on numpy's generator and BLAS build, so compare two trees on one
machine.
"""

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


def _array(a: np.ndarray) -> str:
    header = repr((a.dtype.str, a.shape, a.flags.c_contiguous, a.flags.writeable)).encode()
    return hashlib.sha256(header + np.ascontiguousarray(a).tobytes()).hexdigest()


def digest(knobs: dict) -> dict:
    """The corpus of `SynthConfig(**knobs)`: each file's sha256 and each
    returned array's digest, or the premise check's message."""
    with tempfile.TemporaryDirectory() as out:
        try:
            corpus = generate(SynthConfig(**knobs), out)
        except ValueError as exc:
            return {"error": str(exc), "files": sorted(p.name for p in Path(out).iterdir())}
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out).iterdir())}
    arrays = {
        r.image_id: [_array(r.pseudo_label.data), _array(r.gt.data), _array(r.biased_mask),
                     r.pseudo_label.num_classes, r.gt.num_classes, sorted(r.record.truth_classes)]
        for r in corpus.records
    }
    p = corpus.prototypes
    arrays["prototypes"] = [_array(p.background)] + [
        [k, _array(v)] for m in (p.targets, p.details, p.detail_directions, p.biased) for k, v in m.items()
    ]
    return {"files": files, "arrays": arrays}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    Path(sys.argv[1]).write_text(json.dumps({n: digest(k) for n, k in CONFIGS.items()}, indent=1, sort_keys=True))
