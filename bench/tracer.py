"""Spans recorded around calls into the segdebias layers.

The benchmark never edits the package: `install` replaces every module-level
binding of a layer entry point (`from .bank import build_centroid_bank` in
pipeline.py and cli.py as well as the defining module's own name) with a
wrapper that records a span.  Spans stay in memory as
(id, parent, name, start_ns, end_ns, attrs) and are written out as JSON lines
when the run ends.  Clocks are CLOCK_MONOTONIC, so spans written by CLI
subprocesses nest under the parent's command span.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

def _path_bytes(args, kwargs):
    return {"bytes_read": os.path.getsize(args[0])}


def _feature_bytes(args, kwargs, result):
    return {"resident_bytes": int(result.data.nbytes)}


def _written_bytes(args, kwargs):
    return {"bytes_written": len(args[1])}


def _bank_centroids(args, kwargs):
    bank = args[0]
    return {"centroids_scored": sum(len(v) for v in bank.foreground.values())}


def _rewritten(args, kwargs, result):
    return {"pixels_rewritten": int((result.data == -1).sum())}


def _train_steps(args, kwargs):
    manifest, _, config = args[:3]
    return {"steps": config.epochs * len(manifest.records)}


def _eval_pixels(args, kwargs):
    ground_truth, predictions = args[0], args[1]
    shared = set(ground_truth) & set(predictions)
    return {"pixels": sum(int((ground_truth[i].data != -1).sum()) for i in shared)}


# layer -> {entry point: (counter from the arguments, counter from the result)}
ENTRY_POINTS = {
    "synth": {"generate": (None, None)},
    "formats": {
        "read_manifest": (_path_bytes, None),
        "read_feature_map": (_path_bytes, _feature_bytes),
        "read_label_map": (_path_bytes, None),
        "read_centroid_bank": (_path_bytes, None),
        "read_centroid_set": (_path_bytes, None),
        "read_checkpoint": (_path_bytes, None),
        "load_features": (None, None),
        "load_pseudo_labels": (None, None),
        "load_ground_truth": (None, None),
        "write_manifest": (None, None),
        "write_feature_map": (None, None),
        "write_label_map": (None, None),
        "write_centroid_bank": (None, None),
        "write_centroid_set": (None, None),
        "write_checkpoint": (None, None),
        "atomic_write_bytes": (_written_bytes, None),
    },
    "bank": {"build_centroid_bank": (None, None)},
    "selection": {"select_debiased": (_bank_centroids, None)},
    "debiasing": {"debias_image": (None, _rewritten)},
    "trainloop": {"train": (_train_steps, None), "write_metrics_csv": (None, None)},
    "evaluation": {"evaluate_predictions": (_eval_pixels, None)},
    "pipeline": {"run_pipeline": (None, None), "debias_all": (None, None)},
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, root_parent: str | None = None):
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._root_parent = root_parent
        self._count = 0
        self.enabled = True

    def _begin(self) -> tuple[str, str | None]:
        span_id = self.new_id()
        parent = self._stack[-1] if self._stack else self._root_parent
        self._stack.append(span_id)
        return span_id, parent

    def _end(self, span_id, parent, name, start, attrs) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(
            {"id": span_id, "parent": parent, "name": name,
             "start": start, "end": end, "attrs": attrs}
        )

    def new_id(self) -> str:
        self._count += 1
        return f"{os.getpid()}.{self._count}"

    def record(self, name: str, start: int, end: int, span_id=None, attrs=None) -> str:
        """Add a finished span timed elsewhere, such as a subprocess's wall time."""
        span_id = span_id or self.new_id()
        parent = self._stack[-1] if self._stack else self._root_parent
        self.spans.append(
            {"id": span_id, "parent": parent, "name": name,
             "start": start, "end": end, "attrs": attrs or {}}
        )
        return span_id

    def span(self, name: str):
        tracer = self

        class _Span:
            def __enter__(self):
                self.id, self.parent = tracer._begin()
                self.start = time.perf_counter_ns()
                return self

            def __exit__(self, *exc):
                tracer._end(self.id, self.parent, name, self.start, {})
                return False

        return _Span()

    def wrap(self, name, fn, count_args=None, count_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id, parent = self._begin()
            attrs = count_args(args, kwargs) if count_args else {}
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span_id, parent, name, start, attrs)
            if count_result:
                attrs.update(count_result(args, kwargs, result))
            return result

        return traced

    def dump(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def install(tracer: Tracer) -> None:
    """Route every binding of every entry point through `tracer`."""
    for name in ("segdebias", "segdebias.cli", "segdebias.analysis"):
        importlib.import_module(name)
    modules = [m for n, m in sys.modules.items() if n == "segdebias" or n.startswith("segdebias.")]
    for layer, entries in ENTRY_POINTS.items():
        home = importlib.import_module(f"segdebias.{layer}")
        for fname, (count_args, count_result) in entries.items():
            original = getattr(home, fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", original, count_args, count_result)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of each span not covered by its child spans, keyed by span id."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"] - covered) / 1e9
    return out


def layer_of(span: dict) -> str:
    return span["name"].split(".", 1)[0]
