"""Binary file formats and manifest I/O.

All formats are little-endian, row-major, and platform independent:

  MARSFT01  features    u32 D, u32 H, u32 W, then f32 payload [D][H][W]
  MARSLB01  labels      u32 H, u32 W, then i16 payload [H][W]
  MARSCB01  bank        u32 D, u32 k_fg, u32 k_bg, u32 n, then n records
  MARSHD01  checkpoint  u32 channels, u32 D, f64 weights, f64 bias

Bank records: i32 class_id, u32 cluster_index, u32 member_count,
u32 id_len, utf-8 image id, f64 vector[D].  A label directory holds one
MARSLB01 file per image, named `<image_id>.bin`.

Header fields lie in these ranges: D, channels, k_fg and k_bg in
[1, 2^32 - 1], H and W in [1, 65535], and the bank's D and n in
[0, 2^32 - 1] (an empty bank has D = n = 0).  A field outside its range
fails as `dim overflow: <field>=<value> outside [<low>, <high>]` at the
field's own offset.

Readers raise FormatError naming the file and a byte offset, also for a
value its domain type rejects (a non-unit centroid vector, a label out of
range): that error is reported at the offset where the value's payload
starts.  Writes are atomic (temp file + rename).  The manifest is
line-delimited JSON: a meta line {"embedding_dim": D, "num_classes": C}
followed by one record object per line, with paths stored relative to the
manifest.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import tempfile
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from .core import DatasetManifest, FeatureMap, ImageRecord, LabelMap

MAGIC_FEATURES = b"MARSFT01"
MAGIC_LABELS = b"MARSLB01"
MAGIC_BANK = b"MARSCB01"
MAGIC_CHECKPOINT = b"MARSHD01"

MAX_SPATIAL_DIM = 0xFFFF
_U32_MAX = 0xFFFFFFFF


class FormatError(ValueError):
    """Malformed binary file; names the file and carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write via a temp file in the same directory, then rename over target."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, fieldnames, rows) -> None:
    """Atomically write dict rows as CSV with a header, \r\n-terminated."""
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


class _Reader:
    """One binary file read front to back, opening with `magic`.  Every fault
    raises a FormatError naming the file, at the offset of the faulty field."""

    def __init__(self, path, magic: bytes):
        self.path = Path(path)
        self.blob = self.path.read_bytes()
        self.offset = 0
        self.skip(8, "magic")
        if self.blob[:8] != magic:
            raise self.error(f"bad magic: expected {magic!r}, got {self.blob[:8]!r}", 0)

    def error(self, message: str, offset: int) -> FormatError:
        return FormatError(f"{self.path}: {message}", offset)

    def skip(self, n: int, what: str) -> int:
        """Step over n bytes without copying them; returns where they start."""
        start = self.offset
        if start + n > len(self.blob):
            raise self.error(f"payload length mismatch: truncated {what}", start)
        self.offset += n
        return start

    def field(self, name: str, low: int = 1, high: int = _U32_MAX, fmt: str = "<I") -> int:
        """The next 4-byte integer field, which must lie in [low, high]."""
        start = self.skip(4, name)
        (value,) = struct.unpack_from(fmt, self.blob, start)
        if not low <= value <= high:
            raise self.error(f"dim overflow: {name}={value} outside [{low}, {high}]", start)
        return value

    def array(self, dtype: str, shape: tuple[int, ...], what: str) -> np.ndarray:
        """A read-only view of the next dtype × shape bytes."""
        count = math.prod(shape)
        start = self.skip(count * np.dtype(dtype).itemsize, what)
        return np.frombuffer(self.blob, dtype, count, start).reshape(shape)

    def make(self, offset: int, build, *args, **kwargs):
        """build(*args, **kwargs) once the whole file is read; a ValueError it
        raises is reported at offset.  A corrupted value that overflows the
        type's checks fails them quietly."""
        if self.offset != len(self.blob):
            raise self.error(
                f"payload length mismatch: {len(self.blob) - self.offset} trailing bytes",
                self.offset,
            )
        try:
            with np.errstate(over="ignore"):
                return build(*args, **kwargs)
        except ValueError as exc:
            raise self.error(str(exc), offset) from None


def _write(path, magic: bytes, header, *payload) -> None:
    """magic, the header as u32s, then the payload's bytes objects and
    C-contiguous arrays, in one atomic write."""
    atomic_write_bytes(path, b"".join([magic, struct.pack(f"<{len(header)}I", *header), *payload]))


# -- features ----------------------------------------------------------------

def write_feature_map(path, fmap: FeatureMap) -> None:
    _write(path, MAGIC_FEATURES, fmap.data.shape, np.ascontiguousarray(fmap.data, "<f4"))


def read_feature_map(path) -> FeatureMap:
    r = _Reader(path, MAGIC_FEATURES)
    shape = r.field("D"), r.field("H", high=MAX_SPATIAL_DIM), r.field("W", high=MAX_SPATIAL_DIM)
    return r.make(20, FeatureMap, r.array("<f4", shape, "feature payload"))


# -- labels -------------------------------------------------------------------

def write_label_map(path, lmap: LabelMap) -> None:
    _write(path, MAGIC_LABELS, lmap.data.shape, np.ascontiguousarray(lmap.data, "<i2"))


def read_label_map(path, num_classes: int) -> LabelMap:
    r = _Reader(path, MAGIC_LABELS)
    shape = r.field("H", high=MAX_SPATIAL_DIM), r.field("W", high=MAX_SPATIAL_DIM)
    return r.make(16, LabelMap, r.array("<i2", shape, "label payload"), num_classes)


def _label_file(directory, image_id: str) -> Path:
    return Path(directory) / f"{image_id}.bin"


def _load_labels(manifest: DatasetManifest, path_of, num_classes=None) -> dict[str, LabelMap]:
    """By image id, the label map in `path_of(record)` for each record where
    that is not None."""
    num_classes = num_classes or manifest.num_classes
    return {
        r.image_id: read_label_map(path, num_classes)
        for r in manifest.records
        if (path := path_of(r)) is not None
    }


def read_label_dir(directory, manifest: DatasetManifest) -> dict[str, LabelMap]:
    """One label per manifest record from a label directory; a missing file
    raises FileNotFoundError naming its path."""
    return _load_labels(manifest, lambda r: _label_file(directory, r.image_id))


def write_label_dir(directory, labels: Mapping[str, LabelMap]) -> None:
    """Each label to its file in a label directory, which is made if need be."""
    for image_id, label in labels.items():
        write_label_map(_label_file(directory, image_id), label)


# -- centroid bank ------------------------------------------------------------

def write_centroid_bank(path, bank) -> None:
    from .bank import CentroidBank  # local import avoids a module cycle

    assert isinstance(bank, CentroidBank)
    centroids = list(bank.background)
    for class_id in sorted(bank.foreground):
        centroids.extend(bank.foreground[class_id])
    d = centroids[0].vector.shape[0] if centroids else 0
    records = []
    for c in centroids:
        ident = c.image_id.encode("utf-8")
        records.append(struct.pack("<iIII", c.class_id, c.cluster_index, c.member_count, len(ident)))
        records += [ident, np.ascontiguousarray(c.vector, "<f8")]
    _write(path, MAGIC_BANK, (d, bank.k_fg, bank.k_bg, len(centroids)), *records)


def read_centroid_bank(path):
    from .bank import Centroid, CentroidBank

    r = _Reader(path, MAGIC_BANK)
    d, k_fg, k_bg, n = r.field("D", 0), r.field("k_fg"), r.field("k_bg"), r.field("n", 0)
    records = []
    for _ in range(n):
        record_at = r.offset
        record = {
            "class_id": r.field("class_id", -(2**31), fmt="<i"),
            "cluster_index": r.field("cluster_index", 0),
            "member_count": r.field("member_count", 0),
        }
        id_offset = r.skip(r.field("id_len", 0), "image id")
        try:
            record["image_id"] = r.blob[id_offset : r.offset].decode("utf-8")
        except UnicodeDecodeError:
            raise r.error("image id is not valid utf-8", id_offset) from None
        record["vector"] = r.array("<f8", (d,), "centroid vector")
        records.append((record_at, record))
    # built once every record is read: `make` first checks for trailing bytes
    centroids = [r.make(record_at, Centroid, **record) for record_at, record in records]
    foreground: dict[int, list[Centroid]] = {}
    for c in centroids:
        if c.class_id != 0:
            foreground.setdefault(c.class_id, []).append(c)
    return r.make(
        24,
        CentroidBank,
        foreground={k: tuple(v) for k, v in foreground.items()},
        background=tuple(c for c in centroids if c.class_id == 0),
        k_fg=k_fg,
        k_bg=k_bg,
    )


# -- segmentation head checkpoint ----------------------------------------------

def write_checkpoint(path, head) -> None:
    weights = np.ascontiguousarray(head.weights, "<f8")
    _write(path, MAGIC_CHECKPOINT, weights.shape, weights, np.ascontiguousarray(head.bias, "<f8"))


def read_checkpoint(path):
    from .trainloop import SegHead

    r = _Reader(path, MAGIC_CHECKPOINT)
    channels, d = r.field("channels"), r.field("D")
    weights = r.array("<f8", (channels, d), "weights")
    bias = r.array("<f8", (channels,), "bias")
    return r.make(16, SegHead, weights=weights, bias=bias)


# -- debiased centroid set (JSON) ----------------------------------------------

def write_centroid_set(path, cset) -> None:
    payload = {
        "alpha": cset.alpha,
        "classes": {
            str(class_id): {
                "vector": [float(v) for v in cset.per_class[class_id]],
                "selected_count": int(cset.selected_counts[class_id]),
            }
            for class_id in sorted(cset.per_class)
        },
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))


def read_centroid_set(path):
    """The debiased centroid set in a JSON file; every error names the file."""
    from .selection import DebiasedCentroidSet

    try:
        payload = json.loads(Path(path).read_text())
        per_class = {}
        counts = {}
        for key, entry in payload["classes"].items():
            per_class[int(key)] = np.asarray(entry["vector"], dtype=np.float64)
            counts[int(key)] = entry["selected_count"]
        return DebiasedCentroidSet(
            per_class=per_class, alpha=payload["alpha"], selected_counts=counts
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- manifest -------------------------------------------------------------------

def write_manifest(path, manifest: DatasetManifest) -> None:
    path = Path(path)
    base = path.parent
    lines = [
        json.dumps(
            {"embedding_dim": manifest.embedding_dim, "num_classes": manifest.num_classes},
            sort_keys=True,
        )
    ]
    for r in manifest.records:
        entry = {
            "image_id": r.image_id,
            "feature_path": os.path.relpath(r.feature_path, base),
            "label_path": os.path.relpath(r.label_path, base),
            "truth_classes": sorted(r.truth_classes),
        }
        if r.gt_path is not None:
            entry["gt_path"] = os.path.relpath(r.gt_path, base)
        if r.bias_path is not None:
            entry["bias_path"] = os.path.relpath(r.bias_path, base)
        lines.append(json.dumps(entry, sort_keys=True))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_manifest(path) -> DatasetManifest:
    """The manifest in a JSON-lines file; every error names the file, and an
    error in one line also its line number."""
    path = Path(path)
    base = path.parent
    lines = [(n, ln) for n, ln in enumerate(path.read_text().splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty manifest")
    try:
        where = f"{path}: line {lines[0][0]}"
        meta = json.loads(lines[0][1])
        num_classes, embedding_dim = meta["num_classes"], meta["embedding_dim"]
        records = []
        for n, ln in lines[1:]:
            where = f"{path}: line {n}"
            entry = json.loads(ln)
            records.append(
                ImageRecord(
                    image_id=entry["image_id"],
                    feature_path=base / entry["feature_path"],
                    label_path=base / entry["label_path"],
                    truth_classes=entry["truth_classes"],
                    gt_path=(base / entry["gt_path"]) if entry.get("gt_path") else None,
                    bias_path=(base / entry["bias_path"]) if entry.get("bias_path") else None,
                )
            )
        where = path
        return DatasetManifest(tuple(records), num_classes, embedding_dim)
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError(f"{where}: {exc}") from None


# -- bulk loaders -----------------------------------------------------------------

class FeatureFiles(Mapping[str, FeatureMap]):
    """The manifest's feature maps by image id, in manifest order.  Each lookup
    reads and validates the file and keeps nothing, so a caller that visits
    one image at a time holds one map however large the corpus."""

    def __init__(self, manifest: DatasetManifest):
        self._paths = {r.image_id: r.feature_path for r in manifest.records}

    def __getitem__(self, image_id: str) -> FeatureMap:
        return read_feature_map(self._paths[image_id])

    def __iter__(self):
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


def load_features(manifest: DatasetManifest) -> dict[str, FeatureMap]:
    """Every feature map of the manifest, read once and kept resident."""
    return dict(FeatureFiles(manifest))


def load_pseudo_labels(manifest: DatasetManifest) -> dict[str, LabelMap]:
    return _load_labels(manifest, lambda r: r.label_path)


def load_ground_truth(manifest: DatasetManifest) -> dict[str, LabelMap]:
    return _load_labels(manifest, lambda r: r.gt_path)


def load_bias_masks(manifest: DatasetManifest) -> dict[str, np.ndarray]:
    masks = _load_labels(manifest, lambda r: r.bias_path, num_classes=1)
    return {image_id: mask.data.astype(bool) for image_id, mask in masks.items()}
