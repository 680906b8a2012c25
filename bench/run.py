"""Benchmark of the ordel library and CLI: one workload, one seed, one process.

Run it from the root of an ordel checkout; the package is imported from
``./src`` and from nowhere else:

    python3 bench/run.py --workload simulate_n1000 --seed 1 --seconds 20 --trace 0

One caller in one thread drives ordel in-process as a closed loop: each call
starts when the previous one has returned.  ``--trace 0`` measures the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs the traced
composition instead, reports the per-layer metrics and writes every span to
``.bench_out/``.  Every output is checked.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
# set-ups per untraced run, spread evenly over the measured loop
SETUP_SAMPLES = 15


def load_ordel():
    """Import ordel afresh from ./src; exit with an error if it is not there.

    Earlier imports of the package are dropped first, so its modules run
    again; numpy and click, once loaded, stay loaded.
    """
    src = Path.cwd() / "src"
    if not (src / "ordel" / "__init__.py").is_file():
        sys.exit(f"error: no ordel package under {src}; run from the root of an ordel checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "ordel" or m.startswith("ordel.")]:
        del sys.modules[name]
    importlib.import_module("ordel.cli")
    ordel = sys.modules["ordel"]
    if Path(ordel.__file__).resolve().parent != (src / "ordel").resolve():
        sys.exit(f"error: imported ordel from {ordel.__file__}, not from {src}")
    return ordel


def set_up(name: str, seed: int, trace: bool):
    """Import ordel, build the workload's inputs and make its first call.

    Returns the workload, the gate holding the warm-up's checks, the warm-up
    result and the seconds all of it took.
    """
    start = perf_counter()
    workload = workloads.make(name, load_ordel(), seed, trace)
    gate = workloads.Gate()
    warm = workload.warm_up(gate)
    return workload, gate, warm, perf_counter() - start


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def report(metrics: dict, specs: list[dict], gate, notes: dict) -> None:
    """Print every metric by name with its unit, then the result line."""
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        sys.exit(f"error: metrics not measured: {missing}")
    for s in specs:
        note = notes.get(s["name"])
        print(f"{s['name']} = {metrics[s['name']]!r} {s['unit']}" + (f"  ({note})" if note else ""))
    print(f"fail_frac = {gate.failed / gate.attempted!r} ({gate.failed} of {gate.attempted} operations)")
    if gate.first_failure:
        print(f"first failure: {gate.first_failure}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, gate, warm, _ = set_up(args.workload, args.seed, bool(args.trace))
    if not workload.self_check(warm):
        sys.exit("error: self-check failed: a deliberately wrong expected value was not counted")
    print("self-check: a deliberately wrong expected value counts as a failed operation")

    if args.trace:
        metrics, tracer, info = workload.trace(args.seconds, gate)
        path = Path.cwd() / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write(path, {"workload": args.workload, "seed": args.seed, "clock": "perf_counter_ns",
                           "metrics": metrics, "notes": workloads.NOTES}, tracer.spans)
        notes = dict(workloads.NOTES)
        for name in metrics:
            if name.split(".")[0] in workload.probe_layers:
                notes[name] = "probe: " + notes.get(name, "this workload never calls the layer")
        print(f"spans: {path} ({len(tracer.spans)} spans); info: {info}")
        report(metrics, SPEC["per_layer"], gate, notes)
        return 0

    samples = []
    due = [perf_counter() + (i + 0.5) * args.seconds / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]

    def set_up_again(force: bool = False) -> None:
        """Take the next set-up sample once it is due, outside the timed operations."""
        if due and (force or perf_counter() >= due[0]):
            due.pop(0)
            _, setup_gate, _, seconds = set_up(args.workload, args.seed, trace=False)
            gate.record(setup_gate.attempted, setup_gate.failed, setup_gate.first_failure or "")
            samples.append(seconds)

    metrics, info = workload.measure(args.seconds, gate, set_up_again)
    while due:
        set_up_again(force=True)
    metrics["setup_s"] = statistics.median(samples)
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["ok_frac"] = 1 - gate.failed / gate.attempted
    print(f"info: {info}; setup samples (s): {samples}")
    report(metrics, SPEC["end_to_end"], gate, {})
    return 0


if __name__ == "__main__":
    sys.exit(main())
