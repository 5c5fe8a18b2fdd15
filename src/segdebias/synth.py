"""Deterministic co-occurrence-biased synthetic corpora with exact ground truth.

Each image holds two large target blobs (the image's truth classes) on a
generic background, plus a strip of small patches: an impostor blob per
problematic truth class (labeled as the class in the pseudo label but
background in ground truth), background twin patches of the impostor
texture in unrelated images (which is what ties impostor vectors to the
background bank and lets the distance score separate them), and tiny echo
patches of each class's detail texture.

Target blobs carry a small detail sub-region whose texture is only weakly
aligned with the class prototype, so the debias threshold drops those
pixels; the echo patches give background supervision a slow, unopposed pull
on that direction, which the complementing stage has to out-train.  Patch
sizes are chosen so the pipeline ablations resolve by supervision-mass
ratios rather than by initialization noise.

`generate` draws each image's layout and noise on one worker thread while
the calling thread renders and writes the image before it.  The draws and
the file writes bound `generate`; the output is byte-identical to drawing
and rendering on one thread.  The files are the only copy of every
per-pixel array: `generate` returns the manifest and the prototypes, and
callers read maps, labels, ground truth and impostor masks through the
`formats` loaders, so its memory grows only by the manifest's records.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import DatasetManifest, FeatureMap, ImageRecord, LabelMap, number_field
from .core import set_number_fields, unit_rows, whole_number
from . import formats

__all__ = [
    "SynthConfig",
    "PrototypeSet",
    "SynthCorpus",
    "generate",
]

# Fixed generator geometry: each detail and impostor texture's cosine with its
# class texture, each patch's area as a fraction of a target blob, and the
# chance that a non-truth class plants a background echo patch.
DETAIL_AFFINITY = 0.2
BIAS_AFFINITY = 0.2
BIAS_BLOB_FRACTION = 0.05
BIAS_BG_FRACTION = 0.02
ECHO_BG_FRACTION = 0.03
ECHO_BG_RATE = 0.25
# Bytes of float64 rows per block of a map's float32 copy: a block and its
# copy stay in L2, where a strided copy of a whole 64x64, D=128 map does not.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for one corpus.  The defaults are the standard desk-scale corpus
    used throughout the test suite."""

    num_images: int = number_field(60, minimum=1)
    image_size: tuple[int, int] = (24, 40)
    num_classes: int = number_field(4, minimum=1)
    embedding_dim: int = number_field(16, minimum=None)
    problematic_classes: tuple[int, ...] = (1, 2)
    bias_cooccurrence: float = number_field(0.6, low=0.0, high=1.0)
    bias_in_background_rate: float = number_field(0.3, low=0.0, high=1.0, open_low=True)
    feature_noise_sigma: float = number_field(0.05, low=0.0, high=np.inf, open_high=True)
    seed: int = number_field(7, minimum=0)
    secondary_class_rate: float = number_field(1.0, low=0.0, high=1.0)
    detail_fraction: float = number_field(0.04, low=0.0, high=1.0, open_high=True)
    target_detail_affinity: float = number_field(0.05, low=0.0, high=1.0, open_high=True)

    def __post_init__(self) -> None:
        set_number_fields(self)
        classes = self.problematic_classes
        if not isinstance(classes, Iterable):
            raise ValueError(f"problematic_classes must be a sequence of classes, got {classes!r}")
        problematic = tuple(sorted({whole_number("problematic class", c, 1) for c in classes}))
        if problematic and problematic[-1] > self.num_classes:
            raise ValueError(
                f"problematic class {problematic[-1]} exceeds num_classes {self.num_classes}"
            )
        # one orthogonal direction each for the background, every class texture,
        # every detail texture and every impostor texture
        needed = 1 + 2 * self.num_classes + len(problematic)
        if self.embedding_dim < needed:
            raise ValueError(
                f"embedding_dim must be >= {needed} for {self.num_classes} classes with "
                f"{len(problematic)} problematic, got {self.embedding_dim}"
            )
        object.__setattr__(self, "problematic_classes", problematic)
        size = self.image_size
        if not (isinstance(size, Sequence) and len(size) == 2):
            raise ValueError(f"image_size must be two whole numbers, got {size!r}")
        object.__setattr__(self, "image_size", tuple(whole_number("image_size", n) for n in size))

    @classmethod
    def standard(cls) -> "SynthConfig":
        return cls()


@dataclass(frozen=True)
class PrototypeSet:
    """Unit texture vectors planted by the generator."""

    background: np.ndarray
    targets: Mapping[int, np.ndarray]
    details: Mapping[int, np.ndarray]
    detail_directions: Mapping[int, np.ndarray]
    biased: Mapping[int, np.ndarray]


@dataclass(frozen=True)
class SynthCorpus:
    """The written corpus's manifest and the prototypes, the one oracle that
    is not in a file."""

    manifest: DatasetManifest
    prototypes: PrototypeSet


def _gram_schmidt(rows: np.ndarray) -> np.ndarray:
    out = rows.astype(np.float64).copy()
    for i in range(out.shape[0]):
        for j in range(i):
            out[i] -= (out[i] @ out[j]) * out[j]
        norm = np.linalg.norm(out[i])
        if norm < 1e-9:
            raise ValueError("degenerate draw during prototype orthogonalization")
        out[i] /= norm
    return out


def _mix(base: np.ndarray, direction: np.ndarray, affinity: float) -> np.ndarray:
    vec = affinity * base + np.sqrt(1.0 - affinity * affinity) * direction
    return vec / np.linalg.norm(vec)


def _build_prototypes(config: SynthConfig, rng: np.random.Generator) -> PrototypeSet:
    c, p = config.num_classes, len(config.problematic_classes)
    # SynthConfig guarantees embedding_dim >= 1 + 2c + p, so the rows are orthonormal
    rows = _gram_schmidt(rng.standard_normal((1 + 2 * c + p, config.embedding_dim)))
    background = rows[0]
    base_targets = {cls: rows[cls] for cls in range(1, c + 1)}
    detail_dirs = {cls: rows[c + cls] for cls in range(1, c + 1)}
    bias_dirs = {
        cls: rows[2 * c + 1 + i] for i, cls in enumerate(config.problematic_classes)
    }
    # the class texture itself carries a whiff of its detail direction, so the
    # bulk supervision keeps a standing pull on that direction
    targets = {
        cls: _mix(detail_dirs[cls], base_targets[cls], config.target_detail_affinity)
        for cls in range(1, c + 1)
    }
    details = {
        cls: _mix(base_targets[cls], detail_dirs[cls], DETAIL_AFFINITY)
        for cls in range(1, c + 1)
    }
    biased = {
        cls: _mix(base_targets[cls], bias_dirs[cls], BIAS_AFFINITY)
        for cls in config.problematic_classes
    }
    return PrototypeSet(
        background=background,
        targets=targets,
        details=details,
        detail_directions=detail_dirs,
        biased=biased,
    )


def _layout(h: int, w: int):
    """Pixel geometry: two stacked target blobs on the left and a 3x2 grid of
    small patch cells on the right, one row each for the impostor, twin and
    echo patches.  Returns the target rects, the six cells row by row and a
    target blob's area."""
    target_cols = int(w * 0.7)
    half_h, cell_h, cell_w = h // 2, h // 3, (w - target_cols) // 2
    if min(target_cols, half_h, cell_h, cell_w) < 1:
        raise ValueError(f"infeasible layout: blobs exceed image size {(h, w)}")
    targets = tuple((slice(r * half_h, (r + 1) * half_h), slice(0, target_cols)) for r in range(2))
    cells = tuple(
        (
            slice(r * cell_h, (r + 1) * cell_h),
            slice(target_cols + c * cell_w, target_cols + (c + 1) * cell_w),
        )
        for r in range(3)
        for c in range(2)
    )
    blob_area = half_h * target_cols
    for fraction in (BIAS_BLOB_FRACTION, BIAS_BG_FRACTION, ECHO_BG_FRACTION):
        if max(1, round(fraction * blob_area)) > cell_h * cell_w:
            raise ValueError(f"infeasible layout: patch of {fraction} x blob exceeds its cell")
    return targets, cells, blob_area


def _cells(
    rect: tuple[slice, slice], count: int, last: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The first (or last) `count` row-major pixels of a rectangle, as (ys, xs) arrays."""
    rows = np.arange(rect[0].start, rect[0].stop)
    cols = np.arange(rect[1].start, rect[1].stop)
    ys, xs = np.meshgrid(rows, cols, indexing="ij")
    keep = slice(-count, None) if last else slice(count)
    return ys.ravel()[keep], xs.ravel()[keep]


def _channels_first(rows: np.ndarray, h: int, w: int) -> np.ndarray:
    """The read-only float32 (D, h, w) map of (h*w, D) float64 rows, copied
    one block of rows at a time.  Each element rounds by itself, so the bytes
    equal `np.ascontiguousarray(rows.T.reshape(D, h, w), np.float32)`; at
    64x64, D=128 the blocked copy takes about a quarter of that one's time."""
    n, d = rows.shape
    step = max(1, _BLOCK_BYTES // (rows.itemsize * d))
    out = np.empty((d, n), np.float32)
    for start in range(0, n, step):
        out[:, start : start + step] = rows[start : start + step].T
    out.setflags(write=False)
    return out.reshape(d, h, w)


def generate(config: SynthConfig, out_dir) -> SynthCorpus:
    """Build the corpus, write its files plus manifest, and return the
    manifest and the prototypes.

    It holds one image at a time: each image's feature map, labels and
    impostor mask are written and freed before the next image is rendered,
    so its memory grows only by the manifest's records.  Callers read the
    per-pixel arrays from the files, through `formats.load_features` or
    `formats.FeatureFiles` and `formats.load_pseudo_labels`,
    `load_ground_truth` and `load_bias_masks`.

    A worker thread lays out image i+1 and draws its noise while this thread
    renders image i: texture lookup, normalisation, the float32 map and its
    file, the premise sums and the three label files.  Numpy releases the GIL
    while it fills an array, so on two cores everything but the file writes
    finishes inside the next image's draw.  The draws, which must run in
    order on one thread, set the floor; the writes can hold `generate` above
    it.  One thread at a time consumes the generator, in recipe order, so
    every byte matches a single-threaded run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    h, w = config.image_size
    targets, cells, blob_area = _layout(h, w)
    bias_cells, twin_cells, echo_cells = cells[:2], cells[2:4], cells[4:]
    rng = np.random.default_rng(config.seed)
    protos = _build_prototypes(config, rng)

    # texture table: background, then per class its target, detail and echo
    # textures, then the impostors
    classes = range(1, config.num_classes + 1)
    per_class = (protos.targets, protos.details, protos.detail_directions)
    textures = np.stack(
        [protos.background]
        + [t[cls] for cls in classes for t in per_class]
        + [protos.biased[cls] for cls in config.problematic_classes]
    )
    target_tex, detail_tex, echo_tex = ({c: 3 * c - 2 + k for c in classes} for k in range(3))
    bias_tex = {cls: i for i, cls in enumerate(config.problematic_classes, 3 * len(classes) + 1)}

    problematic = set(config.problematic_classes)
    n_bias = max(1, round(BIAS_BLOB_FRACTION * blob_area))
    n_twin = max(1, round(BIAS_BG_FRACTION * blob_area))
    n_echo = max(1, round(ECHO_BG_FRACTION * blob_area))
    n_detail = round(config.detail_fraction * blob_area)
    # background twins of the impostor textures, then echoes of the detail
    # directions: (candidate classes, cells, patch size, rate, textures)
    background_patches = (
        (problematic, twin_cells, n_twin, config.bias_in_background_rate, bias_tex),
        (set(classes), echo_cells, n_echo, ECHO_BG_RATE, echo_tex),
    )

    def lay_out(i: int, noise):
        """Image i's truth classes, texture indices, pseudo label, ground truth
        and 0/1 impostor mask; its noise, drawn last, fills `noise`."""
        primary = 1 + i % config.num_classes
        secondary = None
        if config.num_classes > 1 and rng.random() < config.secondary_class_rate:
            others = [c for c in classes if c != primary]
            secondary = others[int(rng.integers(len(others)))]
        truth = {primary, secondary} - {None}

        tex_idx = np.zeros((h, w), dtype=np.int64)
        pseudo = np.zeros((h, w), dtype=np.int16)
        bias = np.zeros((h, w), dtype=np.int16)

        for cls, rect in zip((primary, secondary), targets):
            if cls is None:
                continue
            tex_idx[rect] = target_tex[cls]
            pseudo[rect] = cls
            if n_detail > 0:
                tex_idx[_cells(rect, n_detail, last=True)] = detail_tex[cls]
        # ground truth is the pseudo label without the impostor blobs
        gt = pseudo.copy()

        for cls, cell in zip((primary, secondary), bias_cells):
            if cls in problematic and rng.random() < config.bias_cooccurrence:
                pixels = _cells(cell, n_bias)
                tex_idx[pixels] = bias_tex[cls]
                pseudo[pixels] = cls  # the planted false positive
                bias[pixels] = 1

        # each non-truth candidate may take the next free cell of its row
        for candidates, row, count, rate, tex in background_patches:
            free = list(row)
            for cls in sorted(candidates - truth):
                if not free:
                    break
                if rng.random() < rate:
                    tex_idx[_cells(free.pop(0), count)] = tex[cls]
        if noise is not None:
            rng.standard_normal(out=noise)
        return truth, tex_idx, pseudo, gt, bias

    records: list[ImageRecord] = []
    bg_sim_sums = {cls: [0.0, 0.0] for cls in problematic}  # [bias_sum, target_sum]
    bg_count = 0
    # Two noise buffers, made on this thread, used by turns: image i sums its
    # texture and noise in its own, and image i+1 is drawn into the other,
    # which image i-1 had finished with.  With the noise drawn into a fresh
    # array on the worker and summed into another per image, the peak RSS of
    # 100 64x64, D=128 images (seeds 801-803) is 58.3-58.5 MB, against
    # 48.2-48.5 MB.
    sigma = config.feature_noise_sigma
    buffers = [np.empty((h * w, config.embedding_dim)) if sigma > 0.0 else None for _ in range(2)]
    # imported here, not at the top: its modules add about 0.16 MB to the
    # peak RSS of every command that imports this package but never generates
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="synth-drawer") as drawer:
        next_image = drawer.submit(lay_out, 0, buffers[0])
        for i in range(config.num_images):
            (truth, tex_idx, pseudo, gt, bias), noise = next_image.result(), buffers[i % 2]
            if i + 1 < config.num_images:
                next_image = drawer.submit(lay_out, i + 1, buffers[(i + 1) % 2])

            # texture + sigma * noise, summed in place in the noise buffer
            vectors = textures[tex_idx.ravel()]
            if noise is not None:
                vectors = np.add(np.multiply(noise, sigma, out=noise), vectors, out=noise)
            unit_rows(vectors, out=vectors)
            image_id = f"img_{i:04d}"
            feature_path, label_path, gt_path, bias_path = (
                out_dir / f"{image_id}.{kind}.bin" for kind in ("features", "labels", "gt", "bias")
            )
            # the map is written and freed here, and the labels and mask below:
            # the files are their only copy
            formats.write_feature_map(feature_path, FeatureMap(_channels_first(vectors, h, w)))

            bg_vectors = vectors[pseudo.ravel() == 0]
            bg_count += bg_vectors.shape[0]
            for cls in problematic:
                bg_sim_sums[cls][0] += float((bg_vectors @ protos.biased[cls]).sum())
                bg_sim_sums[cls][1] += float((bg_vectors @ protos.targets[cls]).sum())
            # freed now, not when the next image reassigns them: held into its
            # render they raise the peak RSS of 100 64x64, D=128 images to
            # 51.9-52.0 MB, against 48.2-48.5 MB
            del bg_vectors, vectors

            formats.write_label_map(label_path, LabelMap(pseudo, config.num_classes))
            formats.write_label_map(gt_path, LabelMap(gt, config.num_classes))
            formats.write_label_map(bias_path, LabelMap(bias, 1))
            records.append(
                ImageRecord(
                    image_id=image_id,
                    feature_path=feature_path,
                    label_path=label_path,
                    truth_classes=frozenset(truth),
                    gt_path=gt_path,
                    bias_path=bias_path,
                )
            )

    # premise check: the impostor texture must sit closer to the background
    # population than the class texture does, otherwise the distance score
    # has nothing to exploit
    for cls in problematic:
        bias_mean_dist = (1.0 - bg_sim_sums[cls][0] / bg_count) / 2.0
        target_mean_dist = (1.0 - bg_sim_sums[cls][1] / bg_count) / 2.0
        if not bias_mean_dist < target_mean_dist:
            raise ValueError(
                f"class {cls}: impostor texture is not closer to the background "
                "population than the class texture; adjust rates or num_images"
            )

    manifest = DatasetManifest(
        records=tuple(records),
        num_classes=config.num_classes,
        embedding_dim=config.embedding_dim,
    )
    formats.write_manifest(out_dir / "manifest.jsonl", manifest)
    return SynthCorpus(manifest=manifest, prototypes=protos)
