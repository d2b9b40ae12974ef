"""The benchmark's workloads run one round each against today's package.

``perfbench/`` calls the package's public functions with fixed signatures;
a change to those calls fails here, in the test suite, instead of in a
benchmark run.  Each round's outputs are pinned too.
"""

import dataclasses
import hashlib
import math
import os
import sys

import numpy as np
import pytest

from crowdmeta import cli, em, encoder, episodes, metatrain, seeding

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workload  # noqa: E402


# Each round's outputs on seed 7919: the final parameters of ``train``, the
# ``metrics.json`` of ``eval-grid`` (both SHA-256) and the per-task accuracies
# of ``crowd``.  A refactor that keeps every output byte keeps these.
ROUND_DIGESTS = {
    workload.Train: "9a4b350587b9c39047ef7de39fa0ac2e06df963e5481fb32910d21c3a5872c81",
    workload.EvalGrid: "e8e76b11b047af3228c1f67de5005093e10d0c6253c8dc4204e903fbc551f3d4",
    workload.Crowd: "[0.86, 0.76, 0.79, 0.8, 0.71, 0.83, 0.82, 0.76, 0.8, 0.67, 0.86, 0.8, "
                    "0.79, 0.81, 0.8, 0.7, 0.73, 0.69, 0.76, 0.72]",
}


# SHA-256 of the ``annotator_audit.jsonl`` that ``eval-grid``'s round writes
# beside its ``metrics.json`` on seed 7919: 9 cells of 200 tasks, one line each.
AUDIT_DIGEST = "bb8b1e873527b6e3b4ec2fdf9cb28ec9a111717a32ae40eb3b477f3a2320f9f3"


@pytest.mark.parametrize("workload_class", list(ROUND_DIGESTS),
                         ids=["train", "eval-grid", "crowd"])
def test_one_round_without_failures(workload_class, tmp_path):
    bench = workload_class(7919, str(tmp_path))
    rnd = bench.round(workload.Timer(None, workload.HostSpeed()))
    assert rnd.failed == 0 and rnd.problems == []
    assert rnd.episodes > 0
    assert rnd.digest == ROUND_DIGESTS[workload_class]
    if workload_class is workload.EvalGrid:
        with open(os.path.join(bench.out, "annotator_audit.jsonl"), "rb") as fh:
            audit = fh.read()
        assert audit.count(b"\n") == 1800
        assert hashlib.sha256(audit).hexdigest() == AUDIT_DIGEST


# The training log of ``train``'s configuration on seed 7919, as SHA-256 of
# its rows ``f"{iteration}\t{loss:.17g}\t{pseudo_digest}\n"``, with and
# without pseudo-annotation.  ``ROUND_DIGESTS`` pins the final parameters
# alone; these pin every iteration's loss and pseudo-annotation digest.
TRAINING_LOG_DIGESTS = {
    True: "07b86fce9ae663d0f445d3d5b5a112333ee26865d337daceb76b7144eaec99c9",
    False: "f7f99dd72ce58fa68029640736db46a6e5d60851c2d02060469d6a1115ea6d54",
}


@pytest.fixture(scope="module")
def train_bench(tmp_path_factory):
    return workload.Train(7919, str(tmp_path_factory.mktemp("train")))


@pytest.mark.parametrize("pseudo_annotation", [True, False], ids=["pseudo", "ablation"])
def test_training_log_pinned(train_bench, pseudo_annotation):
    config = dataclasses.replace(train_bench.config, pseudo_annotation=pseudo_annotation)
    result = metatrain.meta_train(train_bench.source, train_bench.val, config)
    rows = "".join(f"{r.iteration}\t{r.loss:.17g}\t{r.pseudo_digest}\n" for r in result.log)
    assert hashlib.sha256(rows.encode()).hexdigest() == TRAINING_LOG_DIGESTS[pseudo_annotation]


def test_one_annotator_draw_per_block(train_bench, monkeypatch):
    # 120 iterations of 4 episodes are 8 training blocks of at most 64
    # episodes, and the one validation is one chunk of 25 episodes
    calls = []
    draw = metatrain.simulate_annotators

    def counting(*args):
        calls.append(len(args[0]))
        return draw(*args)

    monkeypatch.setattr(metatrain, "simulate_annotators", counting)
    config = train_bench.config
    assert (config.max_iterations, config.meta_batch, config.validation_interval) == (120, 4, 120)
    metatrain.meta_train(train_bench.source, train_bench.val, config)
    assert calls == [64] * 7 + [32, 25]


def test_audit_encodes_per_cell_not_per_task(tmp_path, monkeypatch):
    # 9 cells of 200 tasks: at most one json.dumps per cell, plus a few per
    # invocation (metrics.json's two and the annotator kinds), none per task
    bench = workload.EvalGrid(7919, str(tmp_path))
    calls = []
    dumps = cli.json.dumps

    def counting(*args, **kwargs):
        calls.append(1)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", counting)
    rnd = bench.round(workload.Timer(None, workload.HostSpeed()))
    assert rnd.failed == 0 and rnd.digest == ROUND_DIGESTS[workload.EvalGrid]
    assert len(calls) < 20


def test_adapts_per_chunk_not_per_task(tmp_path, monkeypatch):
    # each of the 9 cells adapts its 200 tasks in stacks of at most
    # EVAL_CHUNK, and draws their annotators' doubles once per stack; each
    # shots value's episodes are drawn once per stack too.  At 256 tasks a
    # stack, each cell is one stack: 9 adaptations and 12 draws a round.
    bench = workload.EvalGrid(7919, str(tmp_path))
    adapts, streams = [], []
    adapt, derive = em.adapt, seeding.uniforms

    def counting_adapt(support, hyper):
        adapts.append(len(support.embeddings))
        return adapt(support, hyper)

    def counting_streams(*args):
        streams.append(1)
        return derive(*args)

    monkeypatch.setattr(em, "adapt", counting_adapt)
    monkeypatch.setattr(metatrain, "uniforms", counting_streams)
    monkeypatch.setattr(episodes, "uniforms", counting_streams)
    rnd = bench.round(workload.Timer(None, workload.HostSpeed()))
    assert rnd.failed == 0 and rnd.digest == ROUND_DIGESTS[workload.EvalGrid]
    chunks = math.ceil(bench.TASKS / metatrain.EVAL_CHUNK)
    assert len(adapts) == 9 * chunks
    assert max(adapts) <= metatrain.EVAL_CHUNK
    assert len(streams) == (9 + 3) * chunks


def test_crowd_decodes_each_task_like_a_chunk_row(tmp_path, monkeypatch):
    # each of a crowd round's tasks decodes its episode's doubles with
    # sample_episodes' code, Floyd's algorithm once for the classes and once
    # for their examples, and draws nothing by Generator.choice
    bench = workload.Crowd(7919, str(tmp_path))
    chooses, choices = [], []
    choose, derive = episodes.choose, seeding.stream

    class Counting(np.random.Generator):
        def choice(self, *args, **kwargs):
            choices.append(1)
            return super().choice(*args, **kwargs)

    def counting_choose(*args):
        chooses.append(1)
        return choose(*args)

    monkeypatch.setattr(episodes, "choose", counting_choose)
    monkeypatch.setattr(seeding, "stream", lambda *args: Counting(derive(*args).bit_generator))
    rnd = bench.round(workload.Timer(None, workload.HostSpeed()))
    assert rnd.failed == 0 and rnd.digest == ROUND_DIGESTS[workload.Crowd]
    assert len(chooses) == 2 * bench.TASKS and choices == []


def test_checks_per_block_not_per_iteration(train_bench, monkeypatch):
    # the labels are validated once per training block and once per
    # validation chunk, and θ is read through views: only the initial, final
    # and best parameters are built as checked EncoderParams
    one_hot, builds = [], []
    validate, check = em.one_hot_labels, encoder.EncoderParams.__post_init__

    def counting_one_hot(*args):
        one_hot.append(1)
        return validate(*args)

    def counting_check(params):
        builds.append(1)
        check(params)

    monkeypatch.setattr(em, "one_hot_labels", counting_one_hot)
    monkeypatch.setattr(encoder.EncoderParams, "__post_init__", counting_check)
    config = train_bench.config
    assert (config.max_iterations, config.meta_batch, config.validation_interval) == (120, 4, 120)
    metatrain.meta_train(train_bench.source, train_bench.val, config)
    assert (len(one_hot), len(builds)) == (9, 3)  # 8 blocks and 1 validation chunk
    del one_hot[:], builds[:]
    metatrain.meta_train(train_bench.source, train_bench.val,
                         dataclasses.replace(config, max_iterations=40))
    assert (len(one_hot), len(builds)) == (3, 3)  # 3 blocks, no validation


def test_validation_annotators_drawn_once(train_bench, monkeypatch):
    # two validations score the same 25 validation episodes, one chunk: its
    # annotators are drawn and its labels checked at the first validation alone
    streams, one_hot = [], []
    derive, validate = metatrain.uniforms, em.one_hot_labels

    def counting_streams(master_seed, label, *args):
        streams.append(label)
        return derive(master_seed, label, *args)

    def counting_one_hot(*args):
        one_hot.append(1)
        return validate(*args)

    monkeypatch.setattr(metatrain, "uniforms", counting_streams)
    monkeypatch.setattr(em, "one_hot_labels", counting_one_hot)
    config = dataclasses.replace(train_bench.config, validation_interval=60)
    result = metatrain.meta_train(train_bench.source, train_bench.val, config)
    assert [iteration for iteration, _ in result.val_history] == [60, 120]
    assert streams.count("val-annotators") == 1
    assert streams.count("pseudo-annotate") == 8
    assert len(one_hot) == 8 + 1  # 8 blocks and 1 validation chunk


def test_label_only_work_per_block(train_bench, monkeypatch):
    # the EM's label-only start is built once per training block and once per
    # validation chunk, and the training pass leaves each iteration's last
    # confusions uncomputed, so its confusion updates are the start's and
    # those of the steps between the first and the last
    calls = {"init_responsibilities": 0, "confusion_update": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(em, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(em, name, counting)
    config = train_bench.config
    metatrain.meta_train(train_bench.source, train_bench.val, config)
    iterations, steps = config.max_iterations, config.hyper.em_steps
    blocks = math.ceil(iterations / (metatrain.TRAIN_BLOCK // config.meta_batch))
    chunks = (iterations // config.validation_interval
              * math.ceil(config.val_episodes_per_task / metatrain.EVAL_CHUNK))
    assert (blocks, chunks, steps) == (8, 1, 3)
    assert calls["init_responsibilities"] == blocks + chunks
    assert calls["confusion_update"] == blocks + iterations * (steps - 2) + chunks * steps


@pytest.mark.parametrize("workload_class", list(ROUND_DIGESTS),
                         ids=["train", "eval-grid", "crowd"])
def test_trace_audit_matches_code_calls(workload_class, train_bench, tmp_path):
    # every execution of a listed function's code passes through its span: a
    # function reference captured before the tracer installed would miss it
    import spans

    bench = (train_bench if workload_class is workload.Train
             else workload_class(7919, str(tmp_path)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.audit() as seen:
            rnd = bench.round(workload.Timer(tracer, workload.HostSpeed()))
    finally:
        tracer.uninstall()
    assert rnd.failed == 0 and rnd.digest == ROUND_DIGESTS[workload_class]
    calls = {name: span["calls"] for name, span in workload.span_table(tracer).items()
             if name != spans.ROOT}
    assert "em.confusion_update" in calls and calls == dict(seen)
