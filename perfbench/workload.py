"""One benchmark workload in one process: set up, then repeat rounds.

A round is a fixed amount of work with a fixed seed, so every round of a
run must produce the same outputs; the benchmark checks that.  Rounds
repeat in a closed loop until ``--seconds`` have passed (and at least
``MIN_ROUNDS``).  Only calls into the program are timed, and every time is
also converted to the reference host speed (:class:`HostSpeed`).

With ``--trace 1`` the rounds alternate between untraced and traced, so
the tracing overhead is measured in the same process on the same inputs.
One more traced round then runs under :meth:`Tracer.audit`, untimed, to
check that every call of a listed function passed through its wrapper.

Prints one JSON object with the raw measurements; ``run.py`` turns them
into metrics.  Run from the repository root with ``src`` on the path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy as np

from crowdmeta import annotators, baselines, cli, em, episodes, metatrain, seeding
from crowdmeta.encoder import EncoderConfig, init_params, save_checkpoint

from spans import ROOT, Tracer

MIN_ROUNDS = {False: 2, True: 4}  # untraced / traced runs
SETUP_SAMPLES = 12  # host-speed samples before and after set-up


def _rng(seed: int, purpose: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:8], "little")
    return np.random.default_rng([seed, tag])


class HostSpeed:
    """Converts wall time into time at a fixed reference host speed.

    The shared host this benchmark was developed on runs at one of two
    speeds, about 1.8x apart, for seconds to minutes at a time, in CPU time
    as well as in wall time.  A run's raw times therefore depend on when it
    ran.  A *sample* times a fixed loop of small numpy operations and Python
    bookkeeping, like the program's own, before and after every timed call
    (and inside some, see ``sample_before``).  The work between two samples
    is scaled by ``REFERENCE_S`` over the mean of their durations; the
    samples themselves are not work.  A change to the program changes the
    work, not the samples, so it shows in full.
    """

    LOOP = 50
    # about one sample at the more common, slower speed of the development
    # host (Intel Xeon, 2 vCPUs, numpy 2.4 with OpenBLAS, one thread)
    REFERENCE_S = 0.7e-3

    def __init__(self) -> None:
        self._a = np.random.default_rng(0).standard_normal((12, 8))
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self) -> int:
        """Time one sample now; returns its index."""
        a = self._a
        total, last = 0.0, {}
        start = time.perf_counter()
        for i in range(self.LOOP):
            b = a @ a.T
            total += float(np.exp(b - b.max(axis=1, keepdims=True)).sum())
            last[i & 15] = total
        self.ends.append(time.perf_counter())
        self.starts.append(start)
        return len(self.starts) - 1

    def duration(self, k: int) -> float:
        return self.ends[k] - self.starts[k]

    def scale(self, k: int) -> float:
        """Reference seconds per wall second between samples ``k`` and ``k + 1``."""
        return self.REFERENCE_S / (0.5 * (self.duration(k) + self.duration(k + 1)))

    def reference_s(self, first: int, last: int) -> float:
        """The work between samples ``first`` and ``last``, in reference seconds."""
        return sum((self.starts[k + 1] - self.ends[k]) * self.scale(k)
                   for k in range(first, last))

    def median_scale(self) -> float:
        """Reference seconds per wall second, by the median sample so far."""
        return float(np.median([self.REFERENCE_S / self.duration(k)
                                for k in range(len(self.starts))]))


def sample_before(speed: HostSpeed, module, attr: str, every: int) -> None:
    """Take a host-speed sample before every ``every``-th call of ``module.attr``."""
    original = getattr(module, attr)
    calls = 0

    def sampled(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls % every == 0:
            speed.sample()
        return original(*args, **kwargs)

    setattr(module, attr, sampled)


class Round:
    """What one round did: operations, timed steps and its outputs.

    ``busy_s`` is wall time, ``ref_s`` the same work at the reference host
    speed; ``steps_ms`` are at the reference speed.
    """

    def __init__(self, ops: int) -> None:
        self.ops = ops
        self.failed = 0
        self.episodes = 0
        self.busy_s = 0.0
        self.ref_s = 0.0
        self.steps_ms: list[float] = []
        self.accuracy = float("nan")
        self.digest = ""
        self.counts: dict[str, int] = {}
        self.problems: list[str] = []

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)


class Timer:
    """Times calls into the program; under tracing each is a root span.

    Each call is bracketed by host-speed samples.  After a call,
    ``last_ms`` is its time at the reference speed and ``inner`` the indices
    of the samples around and inside it, in order.
    """

    def __init__(self, tracer: Tracer | None, speed: HostSpeed) -> None:
        self.tracer = tracer
        self.speed = speed

    def __call__(self, rnd: Round, fn, *args, **kwargs):
        first = self.speed.sample()
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                return self.tracer.root(fn, *args, **kwargs)
            return fn(*args, **kwargs)
        finally:
            rnd.busy_s += time.perf_counter() - start
            last = self.speed.sample()
            ref_s = self.speed.reference_s(first, last)
            rnd.ref_s += ref_s
            self.last_ms = ref_s * 1e3
            self.inner = range(first, last + 1)


# --- train ------------------------------------------------------------------

def bimodal_dataset(num_classes: int, per_class: int, rng: np.random.Generator):
    """Two style modes per class in a 4-dim signal block, plus 4 noise dims."""
    centers = rng.standard_normal((num_classes, 4))
    modes = rng.standard_normal((num_classes, 4))
    modes *= 2.6 / np.linalg.norm(modes, axis=1, keepdims=True)
    labels = np.repeat(np.arange(num_classes), per_class)
    signs = rng.choice([-1.0, 1.0], size=len(labels))
    signal = centers[labels] + signs[:, None] * modes[labels]
    signal += 0.3 * rng.standard_normal(signal.shape)
    noise = 1.2 * rng.standard_normal((len(labels), 4))
    return episodes.LabeledDataset(features=np.hstack([signal, noise]), labels=labels)


class Train:
    """``meta_train`` at the C6 shapes for a fixed iteration budget."""

    OPS = ITERATIONS = 120
    VALIDATION_INTERVAL = 120
    SAMPLE_BEFORE = ((metatrain, "adam_update", 1),)  # once per iteration

    def __init__(self, seed: int, workdir: str) -> None:
        data_rng = _rng(seed, "train-data")
        self.source = [bimodal_dataset(50, 40, data_rng)]
        self.val = [bimodal_dataset(10, 40, data_rng)]
        self.config = self._config(seed, self.ITERATIONS, self.VALIDATION_INTERVAL)
        warm = self._config(seed, 2, 2)
        metatrain.meta_train(self.source, self.val, warm)

    @staticmethod
    def _config(seed: int, iterations: int, interval: int) -> metatrain.MetaConfig:
        return metatrain.MetaConfig(
            ways=4, shots=3, query_per_class=10, num_annotators=5,
            pseudo_dist=annotators.AnnotatorDistribution.expert_hammer_spammer(0.1, 0.7, 0.2),
            hyper=em.PriorHyperparams(tau=1.0, b=100.0, c=1.0, em_steps=3),
            encoder=EncoderConfig(8, (32,), 8, init_seed=int(_rng(seed, "init").integers(2**31))),
            learning_rate=3e-3, max_iterations=iterations, validation_interval=interval,
            patience=1000, val_episodes_per_task=25, meta_batch=4, master_seed=seed,
        )

    def round(self, timer: Timer) -> Round:
        rnd = Round(self.OPS)
        result = timer(rnd, metatrain.meta_train, self.source, self.val, self.config)
        rows = result.log
        good = [r for r in rows
                if not r.pseudo_digest.startswith("skipped") and np.isfinite(r.loss)]
        if len(good) < rnd.ops:
            rnd.fail(rnd.ops - len(good),
                     f"{rnd.ops - len(good)} iterations skipped, missing or with non-finite loss")
        rnd.steps_ms = self._steps_ms(rows, timer)
        rnd.episodes = len(rows) * self.config.meta_batch
        rnd.accuracy = result.best_val_accuracy
        rnd.digest = hashlib.sha256(result.final_params.flatten().tobytes()).hexdigest()
        return rnd

    @staticmethod
    def _steps_ms(rows, timer: Timer) -> list[float]:
        """Logged iteration times at the reference speed.

        Untraced, a sample precedes every ``adam_update``, so iteration i
        holds sample i and lies between samples i - 1 and i; its sample is
        taken off its logged time.  Otherwise the whole call's scale is used.
        """
        speed, samples = timer.speed, timer.inner
        steps = []
        if len(samples) == len(rows) + 2:
            for i, row in enumerate(rows):
                if row.pseudo_digest.startswith("skipped") or not np.isfinite(row.loss):
                    continue
                k = samples[i + 1]
                steps.append((row.wall_ms - 1e3 * speed.duration(k)) * speed.scale(k - 1))
            return steps
        wall_ms = 1e3 * (speed.starts[samples[-1]] - speed.ends[samples[0]])
        return [r.wall_ms * timer.last_ms / wall_ms for r in rows
                if not r.pseudo_digest.startswith("skipped") and np.isfinite(r.loss)]


# --- eval-grid ----------------------------------------------------------------

class EvalGrid:
    """``crowdmeta evaluate`` over a 3x3 (shots x annotators) grid via ``cli.main``."""

    OPS = CELLS = 9
    TASKS = 200
    SAMPLE_BEFORE = ((em, "adapt", 10),)  # every 10th task

    def __init__(self, seed: int, workdir: str) -> None:
        self.checkpoint = os.path.join(workdir, "checkpoint.bin")
        encoder = EncoderConfig(8, (32,), 8, init_seed=int(_rng(seed, "init").integers(2**31)))
        save_checkpoint(self.checkpoint, encoder, init_params(encoder))
        self.out = os.path.join(workdir, "eval")
        self.argv = self._argv(workdir, "run.cfg", seed, self.TASKS, self.out)
        warm = self._argv(workdir, "warm.cfg", seed, 2, os.path.join(workdir, "warm"))
        if cli.main(warm) != 0:
            raise RuntimeError("warm-up evaluate failed")

    def _argv(self, workdir: str, name: str, seed: int, tasks: int, out: str) -> list[str]:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"em_steps = 3\neval_tasks = {tasks}\nseed = {seed}\n")
        return ["evaluate", "--checkpoint", self.checkpoint, "--config", path,
                "--out", out, "--shots", "1,3,5", "--annotators", "3,5,7"]

    def round(self, timer: Timer) -> Round:
        rnd = Round(self.OPS)
        metrics_path = os.path.join(self.out, "metrics.json")
        if os.path.exists(metrics_path):
            os.remove(metrics_path)
        code = timer(rnd, cli.main, self.argv)
        rnd.steps_ms = [timer.last_ms]
        if code != 0:
            rnd.fail(self.CELLS, f"evaluate exited with {code}")
            return rnd
        with open(metrics_path, "rb") as fh:
            blob = fh.read()
        cells = json.loads(blob)["cells"]
        good = [c for c in cells if c["n_tasks"] == self.TASKS]
        if len(cells) != self.CELLS or len(good) != self.CELLS:
            rnd.fail(max(1, self.CELLS - len(good)),
                     f"{len(good)} of {len(cells)} cells have {self.TASKS} tasks")
        rnd.episodes = sum(c["n_tasks"] for c in cells)
        rnd.accuracy = float(np.mean([c["mean_acc"] for c in cells]))
        rnd.digest = hashlib.sha256(blob).hexdigest()
        rnd.counts["cli.metrics_bytes"] = len(blob)
        return rnd


# --- crowd --------------------------------------------------------------------

class Crowd:
    """Many sparse annotators on raw features: EM, Dawid-Skene and MV per task."""

    OPS = TASKS = 20
    WAYS, SHOTS, QUERY = 10, 10, 10
    SAMPLE_BEFORE = ()  # each timed call is one task
    ANNOTATORS = 25
    LABEL_FRACTION = 0.3
    DIST = annotators.AnnotatorDistribution.expert_hammer_spammer(0.1, 0.7, 0.2)
    HYPER = em.PriorHyperparams(em_steps=10)

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.data = episodes.generate_synthetic(
            num_classes=20, dim=8, cluster_spread=1.0, examples_per_class=30,
            seed=int(_rng(seed, "crowd-data").integers(2**63)),
        )
        self._task(0)

    def _task(self, i: int):
        episode = episodes.sample_episode(
            self.data, self.WAYS, self.SHOTS, self.QUERY,
            seeding.stream(self.seed, "crowd-episode", i),
        )
        rng = seeding.stream(self.seed, "crowd-annotators", i)
        _, confusions = annotators.sample_annotator_pool(self.DIST, self.ANNOTATORS, self.WAYS, rng)
        labels = annotators.annotate(episode.support_y, confusions, rng,
                                     label_fraction=self.LABEL_FRACTION)
        support = em.SupportSet(embeddings=episode.support_x, annotations=labels,
                                num_classes=self.WAYS, num_annotators=self.ANNOTATORS)
        classifier = em.adapt(support, self.HYPER)
        predicted = em.predict_labels(episode.query_x, classifier)
        ds_lam, _, _ = baselines.dawid_skene(labels, self.WAYS, self.HYPER,
                                             num_annotators=self.ANNOTATORS)
        baselines.majority_vote(labels, self.WAYS)
        return episode, classifier.responsibilities, ds_lam, predicted

    def round(self, timer: Timer) -> Round:
        rnd = Round(self.OPS)
        accuracies = []
        for i in range(self.TASKS):
            try:
                episode, em_lam, ds_lam, predicted = timer(rnd, self._task, i)
            except Exception:
                rnd.fail(1, f"task {i}: {traceback.format_exc(limit=3)}")
                continue
            rnd.steps_ms.append(timer.last_ms)
            rnd.episodes += 1
            if not all(np.allclose(lam.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
                       for lam in (em_lam, ds_lam)):
                rnd.fail(1, f"task {i}: responsibility rows do not sum to 1")
            accuracies.append(float(np.mean(predicted == episode.query_y)))
        rnd.accuracy = float(np.mean(accuracies)) if accuracies else float("nan")
        rnd.digest = repr(accuracies)
        return rnd


WORKLOADS = {"train": Train, "eval-grid": EvalGrid, "crowd": Crowd}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip()
                         for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def span_table(tracer: Tracer) -> dict:
    return {
        name: {"calls": s.calls, "self_ms": s.self_s * 1e3, "errors": dict(s.errors)}
        for name, s in tracer.stats.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC time at which the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    speed = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    sampling_s = speed.ends[-1] - speed.starts[0]
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    wall_setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9 - sampling_s
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    # set-up is one stretch, so it takes the median speed around it
    setup_s = wall_setup_s * speed.median_scale()
    if args.setup_only:
        shutil.rmtree(args.workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s, "wall_setup_s": wall_setup_s}))
        return 0

    traced = bool(args.trace)
    tracer = Tracer() if traced else None
    if not traced:
        # samples inside long calls; traced runs keep them out of the spans
        for module, attr, every in workload.SAMPLE_BEFORE:
            sample_before(speed, module, attr, every)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(rounds) < MIN_ROUNDS[traced]:
        trace_this = traced and len(rounds) % 2 == 1
        if trace_this:
            tracer.reset()
            tracer.install()
        try:
            rnd = workload.round(Timer(tracer if trace_this else None, speed))
        except Exception:
            rnd = Round(workload.OPS)
            rnd.fail(workload.OPS, traceback.format_exc(limit=5))
        finally:
            if trace_this:
                tracer.uninstall()
        record = vars(rnd) | {"traced": trace_this}
        if trace_this:
            record["spans"] = span_table(tracer)
            record["counts"] = rnd.counts | dict(tracer.counts)
        rounds.append(record)

    audit = {}
    if traced:
        tracer.reset()
        tracer.install()
        try:
            with tracer.audit() as seen:
                workload.round(Timer(tracer, speed))
        finally:
            tracer.uninstall()
        spans = span_table(tracer)
        audit = {name: {"span_calls": spans.get(name, {"calls": 0})["calls"],
                        "code_calls": seen[name]}
                 for name in sorted(set(seen) | set(spans) - {ROOT})}

    shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_setup_s": wall_setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "rounds": rounds,
        "audit": audit,
        "host_speed": {"samples": len(speed.starts),
                       "median_scale": speed.median_scale()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
