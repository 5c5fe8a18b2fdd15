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
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import DatasetManifest, FeatureMap, ImageRecord, LabelMap, whole_number
from .core import number_field, set_number_fields
from . import formats

__all__ = [
    "SynthConfig",
    "PrototypeSet",
    "SynthRecord",
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
class SynthRecord:
    """One generated image plus its exact oracles; `biased_mask` is the
    read-only bool mask of the planted impostor pixels."""

    record: ImageRecord
    features: FeatureMap
    pseudo_label: LabelMap
    gt: LabelMap
    biased_mask: np.ndarray

    @property
    def image_id(self) -> str:
        return self.record.image_id


@dataclass(frozen=True)
class SynthCorpus:
    manifest: DatasetManifest
    records: tuple[SynthRecord, ...]
    prototypes: PrototypeSet

    def features(self) -> dict[str, FeatureMap]:
        return {r.image_id: r.features for r in self.records}

    def pseudo_labels(self) -> dict[str, LabelMap]:
        return {r.image_id: r.pseudo_label for r in self.records}

    def ground_truth(self) -> dict[str, LabelMap]:
        return {r.image_id: r.gt for r in self.records}


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


@dataclass(frozen=True)
class _Layout:
    """Pixel geometry: two stacked target blobs on the left, a 3x2 grid of
    small patch cells on the right."""

    target_rects: tuple[tuple[slice, slice], ...]
    patch_cells: tuple[tuple[slice, slice], ...]  # bias P/S, twin A/B, echo A/B
    blob_area: int

    @classmethod
    def build(cls, config: SynthConfig) -> "_Layout":
        h, w = config.image_size
        target_cols = int(w * 0.7)
        strip = w - target_cols
        half_h = h // 2
        cell_h = h // 3
        cell_w = strip // 2
        if target_cols < 1 or half_h < 1 or cell_h < 1 or cell_w < 1:
            raise ValueError(f"infeasible layout: blobs exceed image size {config.image_size}")
        targets = (
            (slice(0, half_h), slice(0, target_cols)),
            (slice(half_h, 2 * half_h), slice(0, target_cols)),
        )
        cells = tuple(
            (
                slice(r * cell_h, (r + 1) * cell_h),
                slice(target_cols + c * cell_w, target_cols + (c + 1) * cell_w),
            )
            for r in range(3)
            for c in range(2)
        )
        blob_area = half_h * target_cols
        cell_area = cell_h * cell_w
        for fraction in (BIAS_BLOB_FRACTION, BIAS_BG_FRACTION, ECHO_BG_FRACTION):
            if max(1, round(fraction * blob_area)) > cell_area:
                raise ValueError(
                    f"infeasible layout: patch of {fraction} x blob exceeds its cell"
                )
        return cls(target_rects=targets, patch_cells=cells, blob_area=blob_area)

    def patch_pixels(self, cell: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        return _cells(self.patch_cells[cell], count)


def _cells(
    rect: tuple[slice, slice], count: int, last: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The first (or last) `count` row-major pixels of a rectangle, as (ys, xs) arrays."""
    rows = np.arange(rect[0].start, rect[0].stop)
    cols = np.arange(rect[1].start, rect[1].stop)
    ys, xs = np.meshgrid(rows, cols, indexing="ij")
    keep = slice(-count, None) if last else slice(count)
    return ys.ravel()[keep], xs.ravel()[keep]


_CELL_BIAS_PRIMARY = 0
_CELL_BIAS_SECONDARY = 1
_CELL_TWIN_A = 2
_CELL_TWIN_B = 3
_CELL_ECHO_A = 4
_CELL_ECHO_B = 5


def generate(config: SynthConfig, out_dir) -> SynthCorpus:
    """Build the corpus, write its files plus manifest, and return the oracles."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    h, w = config.image_size
    layout = _Layout.build(config)
    rng = np.random.default_rng(config.seed)
    protos = _build_prototypes(config, rng)

    # texture table: 0 = background, then per class target/detail/echo, impostors
    texture_rows = [protos.background]
    target_tex = {}
    detail_tex = {}
    echo_tex = {}
    bias_tex = {}
    for cls in range(1, config.num_classes + 1):
        target_tex[cls] = len(texture_rows)
        texture_rows.append(protos.targets[cls])
        detail_tex[cls] = len(texture_rows)
        texture_rows.append(protos.details[cls])
        echo_tex[cls] = len(texture_rows)
        texture_rows.append(protos.detail_directions[cls])
    for cls in config.problematic_classes:
        bias_tex[cls] = len(texture_rows)
        texture_rows.append(protos.biased[cls])
    textures = np.stack(texture_rows)

    problematic = set(config.problematic_classes)
    n_bias = max(1, round(BIAS_BLOB_FRACTION * layout.blob_area))
    n_twin = max(1, round(BIAS_BG_FRACTION * layout.blob_area))
    n_echo = max(1, round(ECHO_BG_FRACTION * layout.blob_area))
    n_detail = round(config.detail_fraction * layout.blob_area)

    records: list[SynthRecord] = []
    bg_sim_sums = {cls: [0.0, 0.0] for cls in problematic}  # [bias_sum, target_sum]
    bg_count = 0

    for i in range(config.num_images):
        image_id = f"img_{i:04d}"
        primary = 1 + i % config.num_classes
        secondary = None
        if config.num_classes > 1 and rng.random() < config.secondary_class_rate:
            others = [c for c in range(1, config.num_classes + 1) if c != primary]
            secondary = others[int(rng.integers(len(others)))]
        truth = {primary} | ({secondary} if secondary is not None else set())

        tex_idx = np.zeros((h, w), dtype=np.int64)
        pseudo = np.zeros((h, w), dtype=np.int16)
        gt = np.zeros((h, w), dtype=np.int16)
        biased_mask = np.zeros((h, w), dtype=bool)

        for cls, rect in ((primary, layout.target_rects[0]), (secondary, layout.target_rects[1])):
            if cls is None:
                continue
            tex_idx[rect] = target_tex[cls]
            pseudo[rect] = cls
            gt[rect] = cls
            if n_detail > 0:
                ys, xs = _cells(rect, n_detail, last=True)
                tex_idx[ys, xs] = detail_tex[cls]

        for cls, cell in ((primary, _CELL_BIAS_PRIMARY), (secondary, _CELL_BIAS_SECONDARY)):
            if cls is None or cls not in problematic:
                continue
            if rng.random() < config.bias_cooccurrence:
                ys, xs = layout.patch_pixels(cell, n_bias)
                tex_idx[ys, xs] = bias_tex[cls]
                pseudo[ys, xs] = cls  # the planted false positive
                biased_mask[ys, xs] = True

        free_twins = [_CELL_TWIN_A, _CELL_TWIN_B]
        for cls in sorted(problematic - truth):
            if not free_twins:
                break
            if rng.random() < config.bias_in_background_rate:
                ys, xs = layout.patch_pixels(free_twins.pop(0), n_twin)
                tex_idx[ys, xs] = bias_tex[cls]

        free_echoes = [_CELL_ECHO_A, _CELL_ECHO_B]
        for cls in sorted(set(range(1, config.num_classes + 1)) - truth):
            if not free_echoes:
                break
            if rng.random() < ECHO_BG_RATE:
                ys, xs = layout.patch_pixels(free_echoes.pop(0), n_echo)
                tex_idx[ys, xs] = echo_tex[cls]

        vectors = textures[tex_idx.ravel()]
        if config.feature_noise_sigma > 0.0:
            vectors = vectors + config.feature_noise_sigma * rng.standard_normal(
                vectors.shape
            )
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise ValueError("noise produced a zero-norm pixel vector; lower sigma")
        vectors = vectors / norms
        fmap = FeatureMap(vectors.T.reshape(config.embedding_dim, h, w))

        bg_region = pseudo.ravel() == 0
        bg_count += int(bg_region.sum())
        for cls in problematic:
            sims = vectors[bg_region] @ protos.biased[cls]
            bg_sim_sums[cls][0] += float(sims.sum())
            sims = vectors[bg_region] @ protos.targets[cls]
            bg_sim_sums[cls][1] += float(sims.sum())

        feature_path = out_dir / f"{image_id}.features.bin"
        label_path = out_dir / f"{image_id}.labels.bin"
        gt_path = out_dir / f"{image_id}.gt.bin"
        bias_path = out_dir / f"{image_id}.bias.bin"
        pseudo_map = LabelMap(pseudo, config.num_classes)
        gt_map = LabelMap(gt, config.num_classes)
        formats.write_feature_map(feature_path, fmap)
        formats.write_label_map(label_path, pseudo_map)
        formats.write_label_map(gt_path, gt_map)
        formats.write_label_map(bias_path, LabelMap(biased_mask.astype(np.int16), 1))

        biased_mask.setflags(write=False)
        records.append(
            SynthRecord(
                record=ImageRecord(
                    image_id=image_id,
                    feature_path=feature_path,
                    label_path=label_path,
                    truth_classes=frozenset(truth),
                    gt_path=gt_path,
                    bias_path=bias_path,
                ),
                features=fmap,
                pseudo_label=pseudo_map,
                gt=gt_map,
                biased_mask=biased_mask,
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
        records=tuple(r.record for r in records),
        num_classes=config.num_classes,
        embedding_dim=config.embedding_dim,
    )
    formats.write_manifest(out_dir / "manifest.jsonl", manifest)
    return SynthCorpus(manifest=manifest, records=tuple(records), prototypes=protos)
