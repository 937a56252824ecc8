"""Measure the run-to-run spread of every end-to-end metric.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10 --sets 2 --out perfbench/steadiness.json

Runs ``BENCHMARK.json``'s command with tracing off for ``--sets`` sets
of ``--runs`` seeds each on every workload, at the file's
``run_seconds``.  Set ``s`` (counted from 0) uses seeds ``s * runs + 1``
to ``(s + 1) * runs``.  The runs go in rotation: seed index ``i`` of
every set, and within it every workload, before index ``i + 1``, so
drift of a shared host over the session lands on all workloads and
sets alike instead of on whichever ran last.

For every end-to-end metric it reports the quartiles of each set's
values (Python's ``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median``, the metric's bound and the spread as a share of
the bound.  With two or more sets it also reports how far each later
set's median moved from the first set's, as a share of the first
(positive = worse).  A spread under a third of the bound resolves a
change the size of the bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    completed = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({completed.returncode}):\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "values": values,
        "q1": q1,
        "median": median,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "spread_over_bound": spread / bound,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = [workload["name"] for workload in spec["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    runs = {(set_index, workload): [] for set_index in range(args.sets) for workload in workloads}
    walls = {key: 0.0 for key in runs}
    for index in range(args.runs):
        for set_index in range(args.sets):
            seed = set_index * args.runs + index + 1
            for workload in workloads:
                started = time.monotonic()
                result = run_once(spec["command"], workload, seed, seconds)
                walls[(set_index, workload)] += time.monotonic() - started
                runs[(set_index, workload)].append(result)
                print(f"seed {seed:3d} set {set_index + 1} {workload:11s} "
                      + " ".join(f"{name} {result[name]:.4f}" for name in bounds), flush=True)
    report = {"run_seconds": seconds, "runs": args.runs, "order": "rotation", "sets": []}
    for set_index in range(args.sets):
        current = {}
        for workload in workloads:
            values = runs[(set_index, workload)]
            summary = {
                name: summarize([run[name] for run in values], bound)
                for name, bound in bounds.items()
            }
            current[workload] = {
                "seeds": list(range(set_index * args.runs + 1, (set_index + 1) * args.runs + 1)),
                "wall_seconds_per_run": walls[(set_index, workload)] / args.runs,
                "metrics": summary,
            }
            for name, row in summary.items():
                print(f"set {set_index + 1} {workload:11s} {name:20s} median {row['median']:10.4f}  "
                      f"q1 {row['q1']:10.4f}  q3 {row['q3']:10.4f}  spread {row['spread']:.4f}  "
                      f"bound {row['bound']}  ({row['spread_over_bound']:.2f} of bound)")
        report["sets"].append(current)
    if args.sets > 1:
        first = report["sets"][0]
        report["median_moves"] = {
            workload: {
                name: [
                    (later[workload]["metrics"][name]["median"] / first[workload]["metrics"][name]["median"] - 1)
                    * (1 if better[name] == "lower" else -1)
                    for later in report["sets"][1:]
                ]
                for name in bounds
            }
            for workload in workloads
        }
        for workload, moves in report["median_moves"].items():
            for name, values in moves.items():
                print(f"median move {workload:11s} {name:20s} "
                      + " ".join(f"{value:+.4f}" for value in values)
                      + f"  (bound {bounds[name]})")
    write(args.out, report)
    return 0


def write(path: str | None, report: dict) -> None:
    if path:
        pathlib.Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
