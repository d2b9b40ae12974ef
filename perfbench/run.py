"""crowdmeta benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each measurement runs in a fresh Python
process (``workload.py``) with the BLAS and OpenMP thread counts set to 1.
One process sets up and measures for ``--seconds``; ``SETUP_ONLY`` processes
that only set up run before it and as many after it, and ``setup_s`` is the
median over all of them.  Splitting them around the measurement samples the
host's speed at two times some ``--seconds`` apart.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``.  The lines before it report every
metric with its unit and sample count, the seed and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from spans import LAYERS, ROOT, SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_ONLY = 6  # set-up-only processes on each side of the measuring one
RUN_LIMIT_S = 170.0  # a whole run, set-up processes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
STEP = {
    "train": "outer iterations (4 meta-gradients + Adam, MetaTrainResult.log wall_ms)",
    "eval-grid": "evaluate invocations (the 3x3 grid, grid_s)",
    "crowd": "tasks (task_ms)",
}
EPISODE = {
    "train": "meta-gradients, Adam and validation included",
    "eval-grid": "target tasks",
    "crowd": "target tasks",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, root: str, workdir: str, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir, *extra]
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(rounds: list[dict]) -> list[str]:
    """Every round of a run repeats the same seeded work: outputs must match."""
    problems = []
    ref = rounds[0]
    for i, rnd in enumerate(rounds):
        problems += [f"round {i}: {p}" for p in rnd["problems"]]
        same = rnd["digest"] == ref["digest"] and (
            rnd["accuracy"] == ref["accuracy"]
            or (np.isnan(rnd["accuracy"]) and np.isnan(ref["accuracy"])))
        if not same:
            rnd["failed"] = rnd["ops"]
            problems.append(f"round {i}: outputs differ from round 0 (accuracy "
                            f"{rnd['accuracy']!r} vs {ref['accuracy']!r})")
    return problems


def end_to_end(run: dict, setups: list[float]) -> tuple[dict, dict]:
    """Times are at the reference host speed (``workload.HostSpeed``)."""
    rounds = run["rounds"]
    steps = [s for rnd in rounds for s in rnd["steps_ms"]]
    episodes = sum(rnd["episodes"] for rnd in rounds)
    ref_s = sum(rnd["ref_s"] for rnd in rounds)
    wall_s = sum(rnd["busy_s"] for rnd in rounds)
    values = {
        "setup_s": statistics.median(setups),
        "episodes_per_s": episodes / ref_s,
        "step_ms.p50": float(np.percentile(steps, 50)),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    p90, p99 = np.percentile(steps, [90, 99])
    samples = {
        "setup_s": f"median of n={len(setups)} processes, {SETUP_ONLY} before and "
                   f"{SETUP_ONLY} after the measuring one; wall median "
                   f"{statistics.median(run['wall_setups']):.6g} s",
        "episodes_per_s": f"{episodes} {EPISODE[run['workload']]} in {ref_s:.2f} s timed "
                          f"(n={len(rounds)} rounds); wall {wall_s:.2f} s, "
                          f"{episodes / wall_s:.6g}/s",
        "step_ms.p50": f"n={len(steps)} {STEP[run['workload']]}",
        "step_ms.p90": f"{p90:.6g} ms, {len(steps) // 10} beyond (reported, not bounded)",
        "step_ms.p99": f"{p99:.6g} ms, {len(steps) // 100} beyond (reported, not bounded)",
        "peak_rss_mb": "n=1 measuring process",
        "accuracy": f"{rounds[0]['accuracy']:.6g}, identical in n={len(rounds)} rounds "
                    "(a check, not a metric: it depends on the seed's data)",
        "host speed": f"median {run['host_speed']['median_scale']:.4g} of the reference "
                      f"over n={run['host_speed']['samples']} samples",
    }
    if run["workload"] == "eval-grid":
        samples["step_ms.p50"] += ("; a round is one evaluate, so this and episodes_per_s "
                                   "are one measurement of the same rounds")
    return values, samples


def per_layer(run: dict) -> tuple[dict, dict, list[str]]:
    rounds = run["rounds"]
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    problems = []

    def table(rnd: dict) -> dict:
        out = {}
        for name, span in rnd["spans"].items():
            out[f"{name}.calls"] = span["calls"]
            out[f"{name}.errors"] = span["errors"]
        return out | rnd["counts"]

    first = table(traced[0])
    for i, rnd in enumerate(traced[1:], start=1):
        if table(rnd) != first:
            problems.append(f"traced round {i}: exact counts differ from traced round 0")
    for name, calls in run["audit"].items():
        if calls["span_calls"] != calls["code_calls"]:
            problems.append(f"audit: {name} ran {calls['code_calls']} times, "
                            f"its span recorded {calls['span_calls']} calls")

    spans = traced[0]["spans"]
    counts = traced[0]["counts"]
    values: dict[str, float] = {f"{layer}.errors": 0 for layer in LAYERS}
    for name in [ROOT] + [span[0] for span in SPANS]:
        values[f"{name}.self_ms"] = statistics.median(
            rnd["spans"].get(name, {"self_ms": 0.0})["self_ms"] for rnd in traced)
        span = spans.get(name, {"calls": 0, "errors": {}})
        values[f"{name}.calls"] = span["calls"]
        if name != ROOT:
            values[f"{name.split('.')[0]}.errors"] += sum(span["errors"].values())
    gradients = spans.get("metatrain.meta_gradient", {}).get("calls", 0)
    values["autodiff.nodes"] = counts.get("autodiff.tensors", 0) / gradients if gradients else 0
    values["annotators.labels"] = counts.get("annotators.labels", 0)
    drawn = counts.get("annotators.drawn", 0)
    values["annotators.kept_ratio"] = values["annotators.labels"] / drawn if drawn else 0.0
    values["metatrain.adam_update.skipped"] = (
        spans.get("metatrain.adam_update", {}).get("errors", {}).get("NonFiniteGradientError", 0))
    values["cli.metrics_bytes"] = counts.get("cli.metrics_bytes", 0)

    # wall time: traced runs take host-speed samples only around each timed
    # call, too few to scale a multi-second call by
    def rate(rs):
        return sum(r["episodes"] for r in rs) / sum(r["busy_s"] for r in rs)

    values["bench.trace_overhead_pct"] = (rate(plain) / rate(traced) - 1.0) * 100.0
    samples = {"rounds": f"n={len(traced)} traced, {len(plain)} untraced rounds; "
                         "self_ms is the median per round, counts are per round",
               "audit": f"{len(run['audit'])} spans, each span's calls against the "
                        "executions of its function's code in one more traced round"}
    total = sum(values[f"{name}.self_ms"] for name in [ROOT] + [span[0] for span in SPANS])
    for layer in ("bench",) + LAYERS:
        share = sum(v for k, v in values.items()
                    if k.startswith(layer + ".") and k.endswith(".self_ms"))
        samples[f"share {layer}"] = f"{100.0 * share / total:.1f}% of traced self time"
    return values, samples, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(STEP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "crowdmeta", "__init__.py")):
        print("error: run from the crowdmeta repository root (src/crowdmeta not found)",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    workroot = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(workroot, f"{args.workload}-{os.getpid()}")

    def setup_only(n: int) -> list[dict]:
        return [spawn(args, root, workdir, ["--setup-only"], deadline) for _ in range(n)]

    try:
        before = setup_only(SETUP_ONLY)
        run = spawn(args, root, workdir, ["--seconds", str(args.seconds),
                                          "--trace", str(args.trace)], deadline)
        processes = before + [run] + setup_only(SETUP_ONLY)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(workroot) and not os.listdir(workroot):
            os.rmdir(workroot)

    setups = [p["setup_s"] for p in processes]
    run["wall_setups"] = [p["wall_setup_s"] for p in processes]
    problems = check_outputs(run["rounds"])
    if args.trace:
        values, samples, self_problems = per_layer(run)
        problems += self_problems
        declared = spec["per_layer"]
    else:
        values, samples = end_to_end(run, setups)
        declared = spec["end_to_end"]
    attempted = sum(r["ops"] for r in run["rounds"])
    failed = sum(r["failed"] for r in run["rounds"])

    env = run["environment"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={len(run['rounds'])}")
    print(f"# env nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']!r} threads={env['threads']}")
    print(f"# attempted={attempted} failed={failed} error_rate={failed / attempted:.4g}")
    for key, text in samples.items():
        print(f"# {key}: {text}")
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']:<40} {value:>14.6g} {m['unit']}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
