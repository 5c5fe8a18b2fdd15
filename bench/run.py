#!/usr/bin/env python3
"""The segdebias benchmark: synthetic corpora through cluster -> select ->
debias -> train -> eval, with every output checked.

    python3 bench/run.py --workload {standard,large,cli_files} --seed N \\
        --seconds S --trace {0,1}

Run from a plain checkout: nothing needs installing.  The script puts src/ on
the path of itself and of every process it starts, and runs BLAS with one
thread.  One process does work at a time.

--trace 0 runs whole rounds of the chain, each in a fresh process, for about
--seconds, generates the corpus anew before each round (setup_s is the median
of these set-ups), and reports the medians of the end-to-end metrics.
--trace 1 makes one traced pass of each kind and reports the per-layer
metrics.  The last line of standard output is one JSON object; spans, logs
and per-run results stay in .bench_runs/ and the generated corpora are
removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# One BLAS thread: on 2 cores two threads made debias ~3x and cluster ~15%
# slower on `large` (see the README), and a single thread keeps one process
# doing work at a time.
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # every child is killed by then, so the run ends within 180 s
# Before every round the corpus is generated anew, at least once and until this
# much time has passed; setup_s is the median of all of them.  Spread over the
# run, set-ups see the same spells of machine load as the rounds: one standard
# corpus takes about 0.1 s, a 64x64 one about 2-3 s.
SETUP_SLICE_S = 0.3
STARTUP_SAMPLES = 3
# A corpus seed the generator's premise check rejects (about 1 in 150 on
# standard) is not a workload input: the run takes the next one instead.
CORPUS_SEED_TRIES = 20
PREMISE_REJECTION = "is not closer to the background"  # in synth.generate's ValueError

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "miou": "fraction"}
PER_LAYER_UNITS = {
    "synth.generate_s": "s",
    "formats.load_s": "s",
    "formats.bytes_read": "bytes",
    "formats.write_s": "s",
    "formats.bytes_written": "bytes",
    "formats.resident_feature_mb": "MB",
    "bank.cluster_s": "s",
    "bank.regions": "count",
    "bank.centroids": "count",
    "bank.decompose_s": "s",
    "bank.kmeans_s": "s",
    "bank.lloyd_iters": "count",
    "bank.cap_hits": "count",
    "bank.assign_gflop": "GFLOP",
    "bank.alloc_peak_mb": "MB",
    "selection.select_s": "s",
    "selection.centroids_scored": "count",
    "selection.accuracy_min": "fraction",
    "debiasing.debias_s": "s",
    "debiasing.pixels_rewritten": "count",
    "debiasing.removal": "fraction",
    "debiasing.retention": "fraction",
    "debiasing.alloc_peak_mb": "MB",
    "trainloop.train_s": "s",
    "trainloop.steps": "count",
    "trainloop.step_us": "us",
    "trainloop.epoch_eval_s": "s",
    "trainloop.alloc_peak_mb": "MB",
    "evaluation.eval_s": "s",
    "evaluation.pixels": "count",
    "pipeline.other_s": "s",
    "pipeline.traced_s": "s",
    "pipeline.trace_overhead_s": "s",
    "cli.startup_s": "s",
    "cli.cluster_s": "s",
    "cli.select_s": "s",
    "cli.debias_s": "s",
    "cli.train_s": "s",
    "cli.eval_s": "s",
    "cli.cluster_rss_mb": "MB",
    "cli.train_rss_mb": "MB",
}
STAGES = ("cluster", "select", "debias", "train", "eval")


class BenchError(Exception):
    """The benchmark itself cannot go on; no result is printed."""


class Run:
    """One benchmark invocation: its workload, seed, files and counters."""

    def __init__(self, workload, seed: int, trace: bool):
        from segdebias.pipeline import PipelineParams

        self.workload = workload
        self.params = PipelineParams(**workload.pipeline_params(seed))
        self.seed = seed
        self.use_corpus_seed(seed)
        self.corpus_settled = False
        self.dir = ROOT / ".bench_runs" / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.corpus = self.dir / "corpus"
        self.manifest = self.corpus / "manifest.jsonl"
        self.log = self.dir / "children.log"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def use_corpus_seed(self, corpus_seed: int) -> None:
        self.corpus_seed = corpus_seed
        self.synth = self.workload.synth_config(corpus_seed)
        self.spec = json.dumps({"synth": self.synth, "params": self.workload.pipeline_params(self.seed)})

    def count(self, operations: int, ok: bool, what: str) -> bool:
        self.attempted += operations
        if not ok:
            self.failed += operations
            self.notes.append(what)
        return ok

    def cleanup(self) -> None:
        for name in ("corpus", "files"):
            shutil.rmtree(self.dir / name, ignore_errors=True)


def run_child(run: Run, argv) -> tuple[int, int, float, int]:
    """Start, end (perf_counter ns), peak RSS (MB) and exit code of one child.

    os.wait4 gives this child's own rusage, so the RSS is the command's alone.
    """
    with open(run.log, "ab") as log:
        log.write(("$ " + " ".join(map(str, argv)) + "\n").encode())
        log.flush()
        start = time.perf_counter_ns()
        proc = subprocess.Popen([str(a) for a in argv], stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(max(1.0, run.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, usage.ru_maxrss / 1024.0, proc.returncode


def worker(run: Run, mode: str, name: str, *extra) -> dict | None:
    out = run.dir / f"{name}.json"
    argv = [sys.executable, BENCH / "worker.py", mode, "--manifest", run.manifest,
            "--spec", run.spec, "--out", out, *extra]
    *_, code = run_child(run, argv)
    return json.loads(out.read_text()) if code == 0 else None


# -- setup ----------------------------------------------------------------------


def setup(run: Run, tracer=None, spans=None) -> float:
    """Generate the corpus once; the seconds it took.

    The first set-up of a run settles the corpus seed: a seed whose corpus
    the generator's premise check rejects is not a workload input, so the
    next seed is tried, untimed and uncounted, until one is accepted.  The
    same --seed therefore always settles on the same corpus.
    """
    for _ in range(CORPUS_SEED_TRIES):
        elapsed, rejection = generate(run, tracer, spans)
        if rejection is None:
            run.corpus_settled = True
            run.count(1, True, "setup")
            return elapsed
        if run.corpus_settled:
            raise BenchError(f"synth: the corpus of seed {run.corpus_seed} was accepted once and then "
                             f"rejected: {rejection}")
        run.notes.append(f"synth: corpus seed {run.corpus_seed} rejected by the generator's premise "
                          f"check ({rejection}); corpus seed {run.corpus_seed + 1} tried instead")
        run.use_corpus_seed(run.corpus_seed + 1)
    raise BenchError(f"synth: {CORPUS_SEED_TRIES} corpus seeds from {run.seed} on were rejected")


def generate(run: Run, tracer=None, spans=None) -> tuple[float, str | None]:
    """Seconds taken and the premise check's rejection (None if accepted)."""
    shutil.rmtree(run.corpus, ignore_errors=True)
    if run.workload.via_cli:
        config = run.dir / "synth.json"
        config.write_text(json.dumps(run.synth))
        args = ["synth", "--out", run.corpus, "--config", config]
        if tracer:
            span_id = tracer.new_id()
            start, end, _, code = run_child(run, [sys.executable, BENCH / "cli_shim.py", spans, span_id, "--", *args])
            tracer.record("cli.synth", start, end, span_id)
        else:
            start, end, _, code = run_child(run, [sys.executable, "-m", "segdebias", *args])
        if code != 0:
            last = run.log.read_text().strip().splitlines()[-1]
            if PREMISE_REJECTION not in last:
                raise BenchError(f"synth: segdebias synth exited {code}: {last}; see {run.log}")
            return 0.0, last
        return (end - start) / 1e9, None
    from segdebias import synth

    try:
        start = time.perf_counter()
        synth.generate(synth.SynthConfig(**run.synth), run.corpus)
        return time.perf_counter() - start, None
    except ValueError as exc:
        if PREMISE_REJECTION not in str(exc):
            raise BenchError(f"synth: {exc}") from None
        return 0.0, str(exc)


# -- one round of the chain ------------------------------------------------------------


def cli_commands(run: Run, files: Path) -> list[tuple[str, list]]:
    p, m = run.params, run.manifest
    return [
        ("cluster", ["cluster", "--manifest", m, "--kfg", p.k_fg, "--kbg", p.k_bg,
                     "--seed", p.seed, "--out", files / "bank.bin"]),
        ("select", ["select", "--bank", files / "bank.bin", "--alpha", repr(p.alpha),
                    "--out", files / "centroids.json"]),
        ("debias", ["debias", "--manifest", m, "--centroids", files / "centroids.json",
                    "--threshold", repr(p.threshold), "--out", files / "debiased"]),
        ("train", ["train", "--manifest", m, "--debiased", files / "debiased",
                   "--epochs", p.epochs, "--lr", repr(p.learning_rate), "--ema", repr(p.ema_momentum),
                   "--seed", p.seed, "--out", files / "head.bin", "--log", files / "metrics.csv",
                   "--pred-out", files / "preds"]),
        ("eval", ["eval", "--manifest", m, "--pred", files / "preds",
                  "--out", files / "report.json", "--fp-csv", files / "fp.csv"]),
    ]


def cli_round(run: Run, name: str, selftest: bool, tracer=None, spans=None) -> dict | None:
    """The five CLI commands one after another, then a check of their files."""
    files = run.dir / "files"
    shutil.rmtree(files, ignore_errors=True)
    files.mkdir()
    walls, rss = {}, {}
    for stage, args in cli_commands(run, files):
        if tracer:
            span_id = tracer.new_id()
            argv = [sys.executable, BENCH / "cli_shim.py", spans, span_id, "--", *args]
        else:
            argv = [sys.executable, "-m", "segdebias", *args]
        start, end, rss[stage], code = run_child(run, argv)
        if tracer:
            tracer.record(f"cli.{stage}", start, end, span_id)
        walls[stage] = (end - start) / 1e9
        if code != 0:
            run.count(len(STAGES), False, f"{name}: segdebias {stage} exited {code}")
            return None
    run.count(len(STAGES), True, name)
    checked = worker(run, "check", f"{name}-check", "--files", files, *(["--selftest"] if selftest else []))
    if checked is None:
        raise BenchError(f"{name}: the output check crashed; see {run.log}")
    result = {"pipeline_s": sum(walls.values()), "peak_rss_mb": max(rss.values()),
              "walls": walls, "rss": rss, "checks": checked["checks"]}
    (run.dir / f"{name}.json").write_text(json.dumps(result))
    return result


def library_round(run: Run, name: str, selftest: bool, spans=None) -> dict | None:
    """run_pipeline in a fresh worker process, which checks its own outputs."""
    extra = (["--selftest"] if selftest else []) + (["--trace-out", spans] if spans else [])
    result = worker(run, "round", name, *extra)
    run.count(len(STAGES), result is not None, f"{name}: worker failed")
    return result


def one_round(run: Run, name: str, selftest: bool, tracer=None, spans=None) -> dict | None:
    if run.workload.via_cli:
        return cli_round(run, name, selftest, tracer, spans)
    return library_round(run, name, selftest, spans)


def checks_ok(run: Run, rounds: list[dict]) -> bool:
    ok = True
    for r in rounds:
        if "error" in r["checks"]:
            run.notes.append(r["checks"]["error"])
            ok = False
        else:
            if r["checks"]["cap_hits_off_fixpoint"]:
                run.notes.append(f"{r['checks']['cap_hits_off_fixpoint']} regions stopped at the k-means iteration cap")
            run.notes.extend(f"{m} (corpus seed {run.corpus_seed})" for m in r["checks"]["shortfalls"])
    if ok and len({r["checks"]["miou"] for r in rounds}) > 1:
        run.notes.append("miou differs between rounds of the same inputs")
        ok = False
    if ok and rounds[0]["checks"]["selftest_caught"] < 1:
        run.notes.append("the self-test of the checks did not run")
        ok = False
    return ok


# -- the two kinds of run ---------------------------------------------------------------


def timed_run(run: Run, seconds: float) -> dict:
    setups, rounds = [], []
    round_s = 0.0  # --seconds bounds the rounds; the set-ups come on top
    for attempt in range(1, 10**6):  # whole rounds while the next one still fits
        begin = time.monotonic()
        while True:  # at least one set-up before every round
            setups.append(setup(run))
            if time.monotonic() - begin >= SETUP_SLICE_S:
                break
        begin = time.monotonic()
        result = one_round(run, f"round{attempt}", selftest=not rounds)
        round_s += time.monotonic() - begin
        if result is not None:
            rounds.append(result)
        if round_s * (attempt + 1) / attempt > seconds:
            break
    if not rounds:
        raise BenchError("no round completed: " + "; ".join(run.notes))
    correct = checks_ok(run, rounds)
    values = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(r["pipeline_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "miou": rounds[0]["checks"]["miou"],
    }
    return result_line(run, correct, values, END_TO_END_UNITS)


def traced_run(run: Run) -> dict:
    from tracer import Tracer, install, layer_of, load, self_times

    tracer = Tracer()
    spans_path = run.dir / "spans.jsonl"
    setup(run)  # untraced, so that a corpus seed the premise check rejects leaves no spans
    if not run.workload.via_cli:
        install(tracer)  # this process only generates the corpus
    setup(run, tracer, spans_path)

    untraced = one_round(run, "untraced", selftest=True)
    window = time.perf_counter_ns()
    traced = one_round(run, "traced", selftest=False, tracer=tracer, spans=spans_path)
    window = (window, time.perf_counter_ns())
    cli = untraced if run.workload.via_cli else cli_round(run, "cli", selftest=False)
    startup = []
    for _ in range(STARTUP_SAMPLES):
        start, end, _, code = run_child(run, [sys.executable, "-m", "segdebias", "--help"])
        run.count(1, code == 0, "segdebias --help")
        startup.append((end - start) / 1e9)
    extras = worker(run, "extras", "extras")
    if None in (untraced, traced, cli) or extras is None:
        raise BenchError("a traced-run step failed: " + "; ".join(run.notes) + f"; see {run.log}")
    correct = checks_ok(run, [untraced, traced] + ([cli] if cli is not untraced else []))

    tracer.dump(spans_path)
    spans = load(spans_path)
    own = self_times(spans)
    self_s = defaultdict(float)
    counters = defaultdict(float)
    for s in spans:
        layer = layer_of(s)
        if layer == "formats":
            kind = "load" if (".read_" in s["name"] or ".load_" in s["name"]) else "write"
            self_s[f"formats.{kind}"] += own[s["id"]]
        elif layer == "synth" or window[0] <= s["start"] <= window[1]:
            self_s["pipeline" if layer == "cli" else layer] += own[s["id"]]
        for key, value in s["attrs"].items():
            counters[key] += value

    checked = traced["checks"]
    values = {
        "synth.generate_s": self_s["synth"],
        "formats.load_s": self_s["formats.load"],
        "formats.bytes_read": counters["bytes_read"],
        "formats.write_s": self_s["formats.write"],
        "formats.bytes_written": counters["bytes_written"],
        "formats.resident_feature_mb": counters["resident_bytes"] / 2**20,
        "bank.cluster_s": self_s["bank"],
        "selection.select_s": self_s["selection"],
        "selection.centroids_scored": counters["centroids_scored"],
        "selection.accuracy_min": checked.get("accuracy_min", 0.0),
        "debiasing.debias_s": self_s["debiasing"],
        "debiasing.pixels_rewritten": counters["pixels_rewritten"],
        "debiasing.removal": checked.get("removal", 0.0),
        "debiasing.retention": checked.get("retention", 0.0),
        "trainloop.train_s": self_s["trainloop"],
        "trainloop.steps": counters["steps"],
        "evaluation.eval_s": self_s["evaluation"],
        "evaluation.pixels": counters["pixels"],
        "pipeline.other_s": self_s["pipeline"],
        "pipeline.traced_s": traced["pipeline_s"],
        "pipeline.trace_overhead_s": traced["pipeline_s"] - untraced["pipeline_s"],
        "cli.startup_s": statistics.median(startup),
        **{f"cli.{stage}_s": cli["walls"][stage] for stage in STAGES},
        "cli.cluster_rss_mb": cli["rss"]["cluster"],
        "cli.train_rss_mb": cli["rss"]["train"],
        **extras,
    }
    return result_line(run, correct, values, PER_LAYER_UNITS)


def result_line(run: Run, correct: bool, values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise BenchError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "segdebias" / "__init__.py").is_file():
        print(f"error: {SRC / 'segdebias'} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    sys.path[:0] = [str(SRC)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        result = traced_run(run) if args.trace else timed_run(run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.cleanup()
    for note in dict.fromkeys(run.notes):  # once each, though every round may repeat it
        print(f"note: {note}", file=sys.stderr)
    (run.dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
