"""Run the benchmark in alternating parent/change pairs and write the record.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload large \\
        --seeds 3301 3302 ... --out BENCH_name.json \\
        --label name --describe "what the change does" --claim large:setup_s

For each seed it runs `python3 bench/run.py --workload W --seed S --seconds N
--trace 0` in each tree, one run at a time, with N the `run_seconds` of
`BENCHMARK.json`.  The workload's first pair runs the parent first, and the
side that runs first alternates from pair to pair.  The record is rewritten
after every pair.  If `--out` exists, its pairs and any other keys in it are
kept: a call on a workload the record already holds adds its pairs to the
ones there, skips seeds already run and continues the alternation, and every
summary covers all of its workload's pairs.  So one record can collect
several workloads and rounds over several calls, and a call that names only
seeds already run rebuilds the summaries from the stored pairs.

The record holds `label`, `change`, `claim`, `command`, `seeds`, `pairs` and
`summary`.  For each workload and end-to-end metric of `BENCHMARK.json`, the
summary gives each side's median and quartiles, the ratio of the medians,
the pairs in which the change reads better and worse (ties count for
neither), and `claim_rule_met`: whether the change wins at least nine tenths
of the pairs and its median is better than the parent's by more than the
distance between the parent's quartiles.  `claim.met` is that rule on the
claimed workload and metric.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = (
    "python3 bench/run.py --workload {workload} --seed {seed} "
    f"--seconds {SPEC['run_seconds']} --trace 0"
)
PAIRING = (
    "pairs alternate which side runs first ('first' names it), parent and change in two "
    "checkouts, one run at a time; a later call on a workload adds its pairs and continues "
    "the alternation"
)


def end_to_end_metrics() -> dict[str, str]:
    """Each end-to-end metric of the benchmark and which way is better."""
    return {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def summarize(pairs: list[dict], metrics: dict[str, str]) -> dict:
    """The summary of one workload's pairs, metric by metric."""
    summary = {}
    for name, better in metrics.items():
        parent = np.array([p["parent"][name] for p in pairs], dtype=float)
        change = np.array([p["change"][name] for p in pairs], dtype=float)
        sign = 1.0 if better == "lower" else -1.0
        gain = sign * (parent - change)
        p_med, c_med = float(np.median(parent)), float(np.median(change))
        p_q = np.percentile(parent, [25, 75])
        wins, losses = int((gain > 0).sum()), int((gain < 0).sum())
        med_gain = sign * (p_med - c_med)
        summary[name] = {
            "parent_median": round(p_med, 6),
            "parent_quartiles": [round(float(q), 6) for q in p_q],
            "change_median": round(c_med, 6),
            "change_quartiles": [round(float(q), 6) for q in np.percentile(change, [25, 75])],
            "change_over_parent": round(c_med / p_med, 6) if p_med else None,
            "change_better": wins,
            "change_worse": losses,
            "pairs": len(pairs),
            "claim_rule_met": bool(wins >= 0.9 * len(pairs) and med_gain > p_q[1] - p_q[0]),
        }
    return summary


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in `tree`: its result line, flattened to metric values."""
    argv = COMMAND.format(workload=workload, seed=seed).split()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    flat = {k: result[k] for k in ("correct", "attempted", "failed")}
    flat.update({name: round(m["value"], 6) for name, m in result["metrics"].items()})
    return flat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label", help="the record's label (kept from --out if omitted)")
    parser.add_argument("--describe", help="what the change does (kept from --out if omitted)")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims (kept from --out if omitted)")
    args = parser.parse_args(argv)

    metrics = end_to_end_metrics()
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.label:
        record["label"] = args.label
    if args.describe:
        record["change"] = args.describe
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if metric not in metrics:
            parser.error(f"--claim metric {metric!r} is not one of {sorted(metrics)}")
        record["claim"] = {"workload": workload, "metric": metric, "better": metrics[metric]}
    record["command"] = COMMAND
    record["pairing"] = PAIRING
    for key in ("seeds", "pairs", "summary"):
        record.setdefault(key, {})
    pairs = record["pairs"].setdefault(args.workload, [])

    def save():
        record["seeds"] = {w: [pair["seed"] for pair in p] for w, p in record["pairs"].items()}
        record["summary"] = {w: summarize(p, metrics) for w, p in record["pairs"].items() if p}
        claim = record.get("claim")
        if claim and claim["workload"] in record["summary"]:
            claim["met"] = record["summary"][claim["workload"]][claim["metric"]]["claim_rule_met"]
        args.out.write_text(json.dumps(record, indent=2) + "\n")

    save()
    for seed in args.seeds:
        if any(pair["seed"] == seed for pair in pairs):
            continue
        order = ("parent", "change") if len(pairs) % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_bench(getattr(args, side), args.workload, seed)
        pairs.append(pair)
        save()
        print(f"{args.workload} seed {seed}: "
              + ", ".join(f"{m} {pair['parent'][m]:g} -> {pair['change'][m]:g}" for m in metrics),
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
