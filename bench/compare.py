"""Repeat the benchmark and summarise it: the spread of one tree, or parent vs change.

    python3 bench/compare.py spread --tree . --out bench/baseline.json
    python3 bench/compare.py pair --parent ../parent --change .

Both modes run this copy of ``bench/run.py`` (so both sides use identical
benchmark code) with ``--trace 0`` inside each tree, one run at a time, on
every workload of BENCHMARK.json for its ``run_seconds``.  The i-th of the
ten runs (or pairs) of a workload uses the seed ``seed-base + i``.

``spread`` reports, per workload and end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, against the metric's bound.

``pair`` runs parent and change on the same seeds, alternating which side runs
first.  Per metric it prints one row per workload with each side's median and
quartiles, how many pairs the change won, and a verdict:

* ``unresolved`` first, if a run of either side failed and measured
  nothing (its pair is left out of the figures);
* ``gain``: the change won at least 9 in 10 pairs and the medians differ by
  more than the parent's own interquartile distance;
* ``unresolved``: the parent's spread exceeds the bound, and not every change
  run beats every parent run;
* ``regression``: the change's median is worse than the parent's by more than
  the bound;
* ``within bound`` otherwise.

A rise in the failed share of operations is flagged on the workload's row.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
# runs per workload in ``spread``, pairs per workload in ``pair``: the gain rule is 9 in 10
RUNS = 10
# the first run in a tree may build caches; later runs take about run_seconds + 10 s
RUN_TIMEOUT_S = 900


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``; its result line, or a failed run's stand-in."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run failed in {tree}: {workload} seed {seed}: exit {proc.returncode}: "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def values_of(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def paired_values(parent: list[dict], change: list[dict], metric: str):
    """Both sides' values of the pairs in which both runs measured the metric."""
    pairs = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
             for p, c in zip(parent, change) if metric in p["metrics"] and metric in c["metrics"]]
    return [p for p, _ in pairs], [c for _, c in pairs]


def fail_frac(results: list[dict]) -> float:
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def machine() -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "platform": platform.platform()}


def spread(args) -> dict:
    record = {"machine": machine(), "seconds": SECONDS, "runs": RUNS, "workloads": {}}
    for workload in WORKLOADS:
        seeds = [args.seed_base + i for i in range(RUNS)]
        results = [run_once(args.tree, workload, seed) for seed in seeds]
        rows = {}
        print(f"\n{workload}: {RUNS} runs of {SECONDS} s, seeds {seeds[0]}..{seeds[-1]}, "
              f"fail_frac {fail_frac(results)}")
        for spec in SPEC["end_to_end"]:
            values = values_of(results, spec["name"])
            if len(values) < 2:
                print(f"  {spec['name']}: fewer than two values")
                continue
            row = {**summary(values), "bound": spec["bound"], "unit": spec["unit"]}
            status = ("steady" if row["spread"] < spec["bound"] / 3
                      else "within bound" if row["spread"] <= spec["bound"] else "OVER BOUND")
            print(f"  {spec['name']:<13} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} spread {row['spread']:.4f} bound {spec['bound']} {status}")
            rows[spec["name"]] = row
        record["workloads"][workload] = {
            "seeds": seeds, "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": rows,
        }
    return record


def verdict(parent: list[float], change: list[float], spec: dict, failed: bool) -> tuple[str, int]:
    """The verdict on paired runs; ``failed`` says a run of either side measured nothing."""
    higher = spec["better"] == "higher"
    p, c = summary(parent), summary(change)
    better = (lambda a, b: b > a) if higher else (lambda a, b: b < a)
    wins = sum(better(a, b) for a, b in zip(parent, change))
    every_run_better = all(better(a, b) for a in parent for b in change)
    worse_by = (p["median"] - c["median"] if higher else c["median"] - p["median"]) / p["median"]
    if failed:
        return "unresolved", wins
    if (wins >= 0.9 * len(parent) and better(p["median"], c["median"])
            and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        return "gain", wins
    if p["spread"] > spec["bound"] and not every_run_better:
        return "unresolved", wins
    if worse_by > spec["bound"]:
        return "regression", wins
    return "within bound", wins


def pair(args) -> dict:
    record = {"machine": machine(), "seconds": SECONDS, "pairs": RUNS, "workloads": {}}
    runs = {}
    for workload in WORKLOADS:
        runs[workload] = {"parent": [], "change": []}
        for i in range(RUNS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                tree = args.parent if side == "parent" else args.change
                runs[workload][side].append(run_once(tree, workload, args.seed_base + i))
        record["workloads"][workload] = {
            "fail_frac": {side: fail_frac(results) for side, results in runs[workload].items()},
            "metrics": {},
        }
    for spec in SPEC["end_to_end"]:
        print(f"\n{spec['name']} ({spec['unit']}, {spec['better']} is better, bound {spec['bound']})")
        for workload, row in record["workloads"].items():
            parent, change = paired_values(runs[workload]["parent"], runs[workload]["change"],
                                           spec["name"])
            if len(parent) < 2:
                print(f"  {workload:<20} too few successful pairs")
                continue
            outcome, wins = verdict(parent, change, spec, len(parent) < RUNS)
            p, c = summary(parent), summary(change)
            flag = "  FAIL_FRAC ROSE" if row["fail_frac"]["change"] > row["fail_frac"]["parent"] else ""
            print(f"  {workload:<20} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
                  f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
                  f"wins {wins}/{len(parent)}  {outcome}{flag}")
            row["metrics"][spec["name"]] = {"parent": p, "change": c, "wins": wins, "verdict": outcome}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("spread", "pair"):
        p = sub.add_parser(mode)
        p.add_argument("--seed-base", type=int, default=1)
        p.add_argument("--out", type=Path, default=None, help="Write the record as JSON here.")
    sub.choices["spread"].add_argument("--tree", type=Path, default=Path.cwd())
    sub.choices["pair"].add_argument("--parent", type=Path, required=True)
    sub.choices["pair"].add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    record = spread(args) if args.mode == "spread" else pair(args)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
