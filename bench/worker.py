"""One benchmark step in its own process, so peak RSS belongs to it alone.

  round    load the corpus and run the chain through the library API
           (segdebias.pipeline.run_pipeline), timed from the manifest on disk
           to the eval report; then check the outputs
  check    check the output files a CLI chain left in --files
  extras   the traced run's layer measurements that need their own calls:
           a per-region k-means replay, train with and without ground truth,
           and tracemalloc peaks of cluster, debias and train

Run by bench/run.py; the result is one JSON object written to --out.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

from segdebias import bank, formats, pipeline, selection, trainloop
from segdebias.synth import SynthConfig

import checks
from tracer import Tracer, install


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outputs(manifest, features, pseudo, gt, spec, params, **produced) -> checks.Outputs:
    return checks.Outputs(
        manifest=manifest,
        features=features,
        pseudo=pseudo,
        gt=gt,
        bias=formats.load_bias_masks(manifest),
        problematic=SynthConfig(**spec["synth"]).problematic_classes,
        params=params,
        **produced,
    )


def _check(outputs: checks.Outputs, selftest: bool) -> dict:
    """Check results; "miou" is our own recomputation even when a check fails."""
    shared = {i: outputs.gt[i] for i in outputs.predictions}
    values = {"miou": checks.miou(shared, outputs.predictions, outputs.manifest.num_classes)}
    try:
        checks.check_all(outputs, values)
        values["shortfalls"] = checks.shortfalls(values)
        values["selftest_caught"] = checks.self_test(outputs) if selftest else 0
    except checks.CheckFailed as exc:
        values["error"] = str(exc)
    return values


def run_round(args, spec, params) -> dict:
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install(tracer)
    start = time.perf_counter()
    with tracer.span("pipeline.round") if tracer else nullcontext():
        manifest = formats.read_manifest(args.manifest)
        features = formats.load_features(manifest)
        pseudo = formats.load_pseudo_labels(manifest)
        gt = formats.load_ground_truth(manifest)
        result = pipeline.run_pipeline(manifest, features, pseudo, params, gt)
    elapsed = time.perf_counter() - start
    peak = _rss_mb()
    if tracer:
        tracer.enabled = False
        tracer.dump(args.trace_out)
    outputs = _outputs(
        manifest, features, pseudo, gt, spec, params,
        bank=result.bank,
        cset=result.centroid_set,
        debiased=result.debiased,
        predictions=dict(result.train_result.predictions),
        reported_miou=result.report.miou,
    )
    return {"pipeline_s": elapsed, "peak_rss_mb": peak, "checks": _check(outputs, args.selftest)}


def run_check(args, spec, params) -> dict:
    files = Path(args.files)
    manifest = formats.read_manifest(args.manifest)
    num_classes = manifest.num_classes
    predictions = {}
    debiased = {}
    for rec in manifest.records:
        debiased[rec.image_id] = formats.read_label_map(files / "debiased" / f"{rec.image_id}.bin", num_classes)
        pred = files / "preds" / f"{rec.image_id}.bin"
        if pred.exists():  # a missing file is for check_predictions to reject
            predictions[rec.image_id] = formats.read_label_map(pred, num_classes)
    outputs = _outputs(
        manifest,
        formats.load_features(manifest),
        formats.load_pseudo_labels(manifest),
        formats.load_ground_truth(manifest),
        spec,
        params,
        bank=formats.read_centroid_bank(files / "bank.bin"),
        cset=formats.read_centroid_set(files / "centroids.json"),
        debiased=debiased,
        predictions=predictions,
        reported_miou=json.loads((files / "report.json").read_text())["miou"],
    )
    return {"checks": _check(outputs, args.selftest)}


def _alloc_peak_mb(fn):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn()
    return result, (tracemalloc.get_traced_memory()[1] - base) / 2**20


def run_extras(args, spec, params) -> dict:
    manifest = formats.read_manifest(args.manifest)
    features = formats.load_features(manifest)
    pseudo = formats.load_pseudo_labels(manifest)
    gt = formats.load_ground_truth(manifest)
    out = {}

    tracemalloc.start()
    built, out["bank.alloc_peak_mb"] = _alloc_peak_mb(lambda: bank.build_centroid_bank(
        manifest, pseudo, k_fg=params.k_fg, k_bg=params.k_bg, seed=params.seed, features=features
    ))
    cset = selection.select_debiased(built, params.alpha)
    debiased, out["debiasing.alloc_peak_mb"] = _alloc_peak_mb(
        lambda: pipeline.debias_all(manifest, features, pseudo, cset, params.threshold)
    )
    config = params.train_config()
    _, out["trainloop.alloc_peak_mb"] = _alloc_peak_mb(
        lambda: trainloop.train(manifest, debiased, config, features=features, ground_truth=gt)
    )
    tracemalloc.stop()
    del built

    regions = centroids = iters = caps = 0
    decompose_s = kmeans_s = flop = 0.0
    for rec in manifest.records:
        fmap, label = features[rec.image_id], pseudo[rec.image_id]
        for cls in (0,) + label.foreground_classes():
            t0 = time.perf_counter()
            vectors = bank.decompose_class_vectors(fmap, label, cls)
            t1 = time.perf_counter()
            k = params.k_bg if cls == 0 else params.k_fg
            result = bank.kmeans_spherical(vectors, k, bank.derive_seed(params.seed, rec.image_id, cls))
            t2 = time.perf_counter()
            decompose_s += t1 - t0
            kmeans_s += t2 - t1
            n, d = vectors.shape
            lloyd = len(result.objective_trace) - 1  # the last entry is the closing pass
            regions += 1
            centroids += result.centroids.shape[0]
            iters += lloyd
            caps += lloyd >= bank.MAX_LLOYD_ITERATIONS
            flop += lloyd * 2.0 * n * min(k, n) * d
    out.update({
        "bank.regions": regions,
        "bank.centroids": centroids,
        "bank.decompose_s": decompose_s,
        "bank.kmeans_s": kmeans_s,
        "bank.lloyd_iters": iters,
        "bank.cap_hits": caps,
        "bank.assign_gflop": flop / 1e9,
    })

    steps = config.epochs * len(manifest.records)
    t0 = time.perf_counter()
    trainloop.train(manifest, debiased, config, features=features, ground_truth={})
    t1 = time.perf_counter()
    trainloop.train(manifest, debiased, config, features=features, ground_truth=gt)
    t2 = time.perf_counter()
    out["trainloop.step_us"] = (t1 - t0) / steps * 1e6
    out["trainloop.epoch_eval_s"] = (t2 - t1) - (t1 - t0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("round", "check", "extras"))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--spec", required=True, help="JSON: {'synth': ..., 'params': ...}")
    parser.add_argument("--out", required=True)
    parser.add_argument("--files", help="check: directory of the CLI chain's outputs")
    parser.add_argument("--trace-out", help="round: record spans and append them here")
    parser.add_argument("--selftest", action="store_true", help="also corrupt outputs and require the checks to reject them")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)
    params = pipeline.PipelineParams(**spec["params"])
    run = {"round": run_round, "check": run_check, "extras": run_extras}[args.mode]
    Path(args.out).write_text(json.dumps(run(args, spec, params)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
