"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Criteria 1-5 wrap the shared verification suites; the rest
are self-contained seeded experiments with their tolerances pinned here.
"""

import json
import math
import time

import numpy as np
import pytest

from crowdmeta import baselines, em
from crowdmeta import metatrain as mt
from crowdmeta.annotators import (
    AnnotatorDistribution,
    AnnotatorKind,
    AnnotatorProfile,
    annotate,
    profile_to_confusion,
    sample_annotator_pool,
)
from crowdmeta.cli import main as cli_main
from crowdmeta.encoder import EncoderConfig, forward
from crowdmeta.episodes import LabeledDataset, sample_episode
from crowdmeta.metatrain import MetaConfig, evaluate, meta_train
from crowdmeta.seeding import stream
from crowdmeta.verify import (
    check_em_monotone,
    check_estep_oracle,
    check_gradcheck,
    check_proto_equiv,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_c1_em_monotonicity():
    tic = time.perf_counter()
    result = check_em_monotone(seed=2024, num_tasks=200, em_steps=10, tol=1e-9)
    elapsed = time.perf_counter() - tic
    report("C1 em-monotonicity", result.passed and elapsed < 30.0,
           f"{result.detail}, {elapsed:.1f}s")
    assert result.passed
    assert elapsed < 30.0


def test_c2_estep_brute_force_oracle():
    tic = time.perf_counter()
    result = check_estep_oracle(seed=77, num_tasks=100, tol=1e-12)
    elapsed = time.perf_counter() - tic
    report("C2 e-step oracle", result.passed and elapsed < 5.0,
           f"{result.detail}, {elapsed:.1f}s")
    assert result.passed
    assert elapsed < 5.0


def test_c3_lower_bound_tightness():
    tic = time.perf_counter()
    hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=6)
    worst_gap = -np.inf  # max of Q - log_posterior, must stay <= 0
    worst_tightness = 0.0
    rng_pool = range(60)
    for t in rng_pool:
        rng = stream(31337, "bound-task", t)
        num_classes = int(rng.integers(2, 5))
        size = int(rng.integers(3, 12))
        annotators = int(rng.integers(1, 4))
        truth = rng.integers(num_classes, size=size)
        dist = AnnotatorDistribution.expert_hammer_spammer(0.2, 0.6, 0.2)
        from crowdmeta.annotators import pseudo_annotate
        annotations, _ = pseudo_annotate(truth, annotators, dist, num_classes, rng)
        centers = rng.standard_normal((num_classes, 3)) * 2.0
        support = em.SupportSet(
            centers[truth] + rng.standard_normal((size, 3)),
            annotations, num_classes, annotators,
        )
        lam = em.init_responsibilities(support.onehot)
        for _ in range(hyper.em_steps):
            protos, pi, confusions = em.m_step(lam, support, hyper)
            lp = em.log_posterior(support, protos, pi, confusions, hyper)
            # bound holds at the pre-E-step responsibilities...
            q_before = em.lower_bound_q(lam, support, protos, pi, confusions, hyper)
            worst_gap = max(worst_gap, q_before - lp)
            lam = em.e_step(support, protos, pi, confusions)
            # ...and is tight immediately after the E step
            q_after = em.lower_bound_q(lam, support, protos, pi, confusions, hyper)
            worst_gap = max(worst_gap, q_after - lp)
            worst_tightness = max(worst_tightness, abs(q_after - lp))
    elapsed = time.perf_counter() - tic
    passed = worst_gap <= 1e-9 and worst_tightness < 1e-9 and elapsed < 10.0
    report("C3 lower-bound", passed,
           f"max Q - logpost = {worst_gap:.2e}, worst post-E gap = "
           f"{worst_tightness:.2e}, {elapsed:.1f}s")
    assert worst_gap <= 1e-9
    assert worst_tightness < 1e-9
    assert elapsed < 10.0


def test_c4_prototypical_reduction():
    tic = time.perf_counter()
    result = check_proto_equiv(seed=5, num_queries=1000)
    elapsed = time.perf_counter() - tic
    report("C4 prototypical reduction", result.passed and elapsed < 5.0,
           f"{result.detail}, {elapsed:.1f}s")
    assert result.passed
    assert elapsed < 5.0


def test_c5_meta_gradient_correctness():
    tic = time.perf_counter()
    result = check_gradcheck(seed=9, num_coords=20, step=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - tic
    report("C5 meta-gradient", result.passed and elapsed < 60.0,
           f"{result.detail}, {elapsed:.1f}s")
    assert result.passed
    assert elapsed < 60.0


# --- C6: directional benchmark --------------------------------------------
# Frozen configuration (calibrated once): classes are bimodal in a 4-dim
# signal block (two style modes per class) plus a 4-dim noise block, which
# makes "merge the modes and suppress the noise" the property the latent EM
# needs at test time.  All three methods share episodes and annotator draws.

BENCH_SEED = 123
BENCH_TARGET = AnnotatorDistribution.expert_hammer_spammer(0.1, 0.6, 0.3)
BENCH_PSEUDO = AnnotatorDistribution.expert_hammer_spammer(0.1, 0.7, 0.2)
BENCH_HYPER = em.PriorHyperparams(tau=1.0, b=100.0, c=1.0, em_steps=3)
PROTONET_HYPER = em.PriorHyperparams(tau=0.0, b=100.0, c=1.0, em_steps=1,
                                     allow_zero_tau=True)


def benchmark_dataset(num_classes: int, per_class: int, seed: int) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, 4))
    modes = rng.standard_normal((num_classes, 4))
    modes *= 2.6 / np.linalg.norm(modes, axis=1, keepdims=True)
    labels = np.repeat(np.arange(num_classes), per_class)
    signs = rng.choice([-1.0, 1.0], size=len(labels))
    signal = centers[labels] + signs[:, None] * modes[labels]
    signal += 0.3 * rng.standard_normal(signal.shape)
    noise = 1.2 * rng.standard_normal((len(labels), 4))
    return LabeledDataset(features=np.hstack([signal, noise]), labels=labels)


def bench_train(pseudo_annotation: bool, hyper: em.PriorHyperparams,
                train_data, val_data):
    config = MetaConfig(
        ways=4, shots=3, query_per_class=10, num_annotators=5,
        pseudo_dist=BENCH_PSEUDO, hyper=hyper,
        encoder=EncoderConfig(8, (32,), 8, init_seed=42),
        learning_rate=3e-3, max_iterations=9000, validation_interval=500,
        patience=100, val_episodes_per_task=25, meta_batch=4,
        pseudo_annotation=pseudo_annotation, master_seed=BENCH_SEED,
    )
    return meta_train([train_data], [val_data], config).params


def bench_eval(params, method: str, shots: int, test_data) -> float:
    episodes = [
        sample_episode(test_data, 4, shots, 10,
                       stream(BENCH_SEED, "bench-episode", shots, i))
        for i in range(50)
    ]
    accuracies = []
    for i, episode in enumerate(episodes):
        rng = stream(BENCH_SEED, f"bench-annotators-s{shots}", i)
        _, confusions = sample_annotator_pool(BENCH_TARGET, 5, 4, rng)
        annotations = annotate(episode.support_y, confusions, rng)
        u_support = forward(episode.support_x, params)
        u_query = forward(episode.query_x, params)
        if method == "em":
            support = em.SupportSet(u_support, annotations, 4, 5)
            classifier = em.adapt(support, BENCH_HYPER)
        else:  # majority-vote class-mean prototypes
            labels, _ = baselines.majority_vote(annotations, 4)
            classifier = baselines.prototype_from_labels(
                u_support, baselines.onehot(labels, 4), tau=0.0, b=1e9
            ).classifier
        predicted = em.predict_labels(u_query, classifier)
        accuracies.append(float(np.mean(predicted == episode.query_y)))
    return float(np.mean(accuracies))


def test_c6_directional_benchmark():
    tic = time.perf_counter()
    train_data = benchmark_dataset(50, 40, BENCH_SEED + 1)
    val_data = benchmark_dataset(10, 40, BENCH_SEED + 2)
    test_data = benchmark_dataset(12, 40, BENCH_SEED + 3)

    ours_params = bench_train(True, BENCH_HYPER, train_data, val_data)
    wo_pa_params = bench_train(False, BENCH_HYPER, train_data, val_data)
    protonet_params = bench_train(False, PROTONET_HYPER, train_data, val_data)

    ours = np.mean([bench_eval(ours_params, "em", s, test_data) for s in (1, 3)])
    wo_pa = np.mean([bench_eval(wo_pa_params, "em", s, test_data) for s in (1, 3)])
    proto_mv = np.mean(
        [bench_eval(protonet_params, "mv", s, test_data) for s in (1, 3)]
    )
    elapsed = time.perf_counter() - tic
    gap_wo = ours - wo_pa
    gap_mv = ours - proto_mv
    passed = gap_wo >= 0.03 and gap_mv >= 0.03 and elapsed < 600.0
    report(
        "C6 directional benchmark", passed,
        f"ours={ours:.4f} woPA={wo_pa:.4f} (gap {gap_wo:+.4f}) "
        f"protoMV={proto_mv:.4f} (gap {gap_mv:+.4f}), {elapsed:.0f}s",
    )
    assert elapsed < 600.0
    assert gap_wo >= 0.03, f"ours - w/o-PA gap {gap_wo:+.4f} below 0.03"
    assert gap_mv >= 0.03, f"ours - proto-MV gap {gap_mv:+.4f} below 0.03"


def test_c7_ds_beats_mv():
    tic = time.perf_counter()
    hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=10)
    hammer = profile_to_confusion(AnnotatorProfile(AnnotatorKind.HAMMER, q=0.75), 4)
    spammer = np.full((4, 4), 0.25)
    wins = 0
    for t in range(100):
        rng = stream(424242, "ds-mv-trial", t)
        truth = rng.integers(4, size=300)
        annotations = annotate(truth, [hammer, spammer, spammer], rng)
        lam, _, _ = baselines.dawid_skene(annotations, 4, hyper, num_annotators=3)
        ds_acc = float(np.mean(np.argmax(lam, axis=1) == truth))
        mv_labels, _ = baselines.majority_vote(annotations, 4)
        mv_acc = float(np.mean(mv_labels == truth))
        wins += ds_acc > mv_acc
    elapsed = time.perf_counter() - tic
    passed = wins >= 95 and elapsed < 30.0
    report("C7 DS vs MV", passed, f"DS wins {wins}/100 trials, {elapsed:.1f}s")
    assert elapsed < 30.0
    # Known-red: with one informative annotator among uniform spammers the
    # annotator joint distribution carries no reliability signal (see
    # studies/c7_identifiability.py); kept verbatim rather than weakened.
    assert wins >= 95, f"DS beat MV in only {wins}/100 trials"


def test_c8_confusion_matrix_recovery():
    tic = time.perf_counter()
    rng = stream(88, "confrec")
    num_classes, per_class = 4, 50
    truth = np.repeat(np.arange(num_classes), per_class)
    centers = rng.standard_normal((num_classes, 6)) * 8.0  # well separated
    embeddings = centers[truth] + rng.standard_normal((len(truth), 6))
    true_confusions = [
        profile_to_confusion(AnnotatorProfile(AnnotatorKind.EXPERT, q=0.9), 4),
        profile_to_confusion(AnnotatorProfile(AnnotatorKind.HAMMER, q=0.7), 4),
        np.full((4, 4), 0.25),
    ]
    annotations = annotate(truth, true_confusions, rng)
    hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=0.1, em_steps=10)
    support = em.SupportSet(embeddings, annotations, num_classes, 3)
    classifier = em.adapt(support, hyper)
    mae = float(np.mean([
        np.mean(np.abs(est - true))
        for est, true in zip(classifier.confusions, true_confusions)
    ]))
    elapsed = time.perf_counter() - tic
    passed = mae < 0.05 and elapsed < 10.0
    report("C8 confusion recovery", passed, f"MAE {mae:.4f}, {elapsed:.1f}s")
    assert mae < 0.05
    assert elapsed < 10.0


def test_c9_complexity_linear_in_support_size():
    tic = time.perf_counter()
    hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=10)
    sizes = [100, 200, 400, 800]
    dist = AnnotatorDistribution.expert_hammer_spammer(0.1, 0.7, 0.2)
    supports = []
    for n in sizes:
        rng = stream(99, "complexity", n)
        truth = rng.integers(4, size=n)
        from crowdmeta.annotators import pseudo_annotate
        annotations, _ = pseudo_annotate(truth, 3, dist, 4, rng)
        centers = rng.standard_normal((4, 16)) * 2.0
        supports.append(em.SupportSet(
            centers[truth] + rng.standard_normal((n, 16)), annotations, 4, 3,
        ))
    for support in supports:  # warm-up
        em.adapt(support, hyper)
    # sizes interleaved within each repeat, so a change in host speed
    # reaches every size alike rather than one size's block of repeats
    reps = [[] for _ in supports]
    for _ in range(30):
        for support, size_reps in zip(supports, reps):
            t0 = time.perf_counter()
            em.adapt(support, hyper)
            size_reps.append(time.perf_counter() - t0)
    times = [np.median(size_reps) for size_reps in reps]
    x = np.asarray(sizes, dtype=float)
    y = np.asarray(times)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    r2 = 1.0 - float(np.sum((y - predicted) ** 2) / np.sum((y - np.mean(y)) ** 2))
    elapsed = time.perf_counter() - tic
    passed = r2 > 0.95 and elapsed < 60.0
    report("C9 linear complexity", passed,
           f"R^2 {r2:.4f} over N_S {sizes}, median ms "
           f"{[round(float(t) * 1e3, 2) for t in times]}, {elapsed:.1f}s")
    assert r2 > 0.95
    assert elapsed < 60.0


DETERMINISM_CONFIG = """
synthetic_classes = 12
feature_dim = 5
cluster_spread = 0.5
examples_per_class = 24
split_fractions = 0.5,0.25,0.25
ways = 3
shots = 2
query_per_class = 4
annotators = 3
hidden_dims = 12
embed_dim = 5
em_steps = 2
max_iterations = 120
validation_interval = 30
patience = 10
val_episodes_per_task = 5
eval_tasks = 5
seed = 17
"""


def test_c10_meta_train_determinism(tmp_path):
    tic = time.perf_counter()
    config_path = tmp_path / "det.cfg"
    config_path.write_text(DETERMINISM_CONFIG, encoding="utf-8")
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert cli_main(["meta-train", "--config", str(config_path), "--out", out1]) == 0
    assert cli_main(["meta-train", "--config", str(config_path), "--out", out2]) == 0
    blob1 = open(f"{out1}/metrics.json", "rb").read()
    blob2 = open(f"{out2}/metrics.json", "rb").read()
    elapsed = time.perf_counter() - tic
    passed = blob1 == blob2 and elapsed < 120.0
    report("C10 determinism", passed,
           f"metrics byte-identical: {blob1 == blob2}, {elapsed:.1f}s")
    assert blob1 == blob2
    # checkpoints must agree too for the metrics to mean anything
    assert open(f"{out1}/checkpoint.bin", "rb").read() == open(
        f"{out2}/checkpoint.bin", "rb"
    ).read()
    assert elapsed < 120.0
