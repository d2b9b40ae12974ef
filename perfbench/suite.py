"""Run several workloads over several seeds and report each metric's spread.

    python3 perfbench/suite.py --workloads train,eval-grid,crowd --seeds 1,2,3

Run from the repository root.  Each (workload, seed) pair is one
``run.py`` invocation, run one after another, and its report (every metric
with its unit and sample count, and the output checks) is printed.  Then,
for every end-to-end metric and for the accuracy line of ``run.py``'s
report, the report gives the median over seeds and the spread: the
distance between the first and third quartiles (``statistics.quantiles(n=4)``)
as a share of the median, next to a third of the metric's bound from
``BENCHMARK.json``.  A run that fails or reports ``correct: false`` is
listed and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run_one(workload: str, seed: int, seconds: int) -> dict | None:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(f"{workload} seed={seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    *report, last = proc.stdout.strip().splitlines()
    print("\n".join(report))
    result = json.loads(last)
    # accuracy is a report line, not a bounded metric; keep it for the spread
    found = re.search(r"^# accuracy: (\S+),", proc.stdout, re.MULTILINE)
    if found:
        result["metrics"]["accuracy"] = {"value": float(found.group(1)), "unit": "1"}
    return result


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="train,eval-grid,crowd")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-3"),
                        help="comma list or ranges, e.g. 1-10 or 1,5,9")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            result = run_one(workload, seed, seconds)
            if result is None or not result["correct"]:
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if n in bounds or n == "accuracy"), flush=True)
        for name, vals in values.items():
            median, rel = spread(vals)
            bound = bounds.get(name)
            limit = f" (bound/3 {bound / 3:.3f}{' OVER' if rel > bound / 3 else ''})" \
                if bound else ""
            print(f"  {workload:<10} {name:<40} median {median:<12.6g} "
                  f"spread {rel:.4f}{limit}  n={len(vals)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
