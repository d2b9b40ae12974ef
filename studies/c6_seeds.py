"""How much acceptance criterion C6's gaps depend on its master seed.

C6 (``tests/test_acceptance.py::test_c6_directional_benchmark``) trains
three encoders on one frozen setup (ours, without pseudo-annotation, and a
prototypical network) and asks ours to beat the other two by 0.03 in mean
test accuracy.  This script reruns that setup with other master seeds.  A
seed replaces C6's ``BENCH_SEED`` as the ``master_seed`` of the three
trainings and in the ``bench-episode`` and ``bench-annotators-s*``
evaluation streams; the three datasets stay at ``BENCH_SEED + 1..3``.
Seed 123 is C6 itself and reproduces its numbers.

It prints one row per seed (the three accuracies, each the mean over 1 and
3 shots, and the two gaps, each the mean over shots of the per-shot
difference), then the mean, standard deviation and standard error of each
gap.  Each seed takes about a minute on one core.  Run from the repository
root:

    PYTHONPATH=src python3 studies/c6_seeds.py [--seeds 123,1,2,3,4,5,6,7]
"""

from __future__ import annotations

import argparse

import numpy as np

from crowdmeta import baselines, em
from crowdmeta.annotators import AnnotatorDistribution, annotate, sample_annotator_pool
from crowdmeta.encoder import EncoderConfig, forward
from crowdmeta.episodes import LabeledDataset, sample_episode
from crowdmeta.metatrain import MetaConfig, meta_train
from crowdmeta.seeding import stream

# C6's frozen configuration, as in tests/test_acceptance.py
BENCH_SEED = 123
BENCH_TARGET = AnnotatorDistribution.expert_hammer_spammer(0.1, 0.6, 0.3)
BENCH_PSEUDO = AnnotatorDistribution.expert_hammer_spammer(0.1, 0.7, 0.2)
BENCH_HYPER = em.PriorHyperparams(tau=1.0, b=100.0, c=1.0, em_steps=3)
PROTONET_HYPER = em.PriorHyperparams(tau=0.0, b=100.0, c=1.0, em_steps=1,
                                     allow_zero_tau=True)
SEEDS = (123, 1, 2, 3, 4, 5, 6, 7)


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


def bench_train(seed: int, pseudo_annotation: bool, hyper: em.PriorHyperparams,
                train_data, val_data):
    config = MetaConfig(
        ways=4, shots=3, query_per_class=10, num_annotators=5,
        pseudo_dist=BENCH_PSEUDO, hyper=hyper,
        encoder=EncoderConfig(8, (32,), 8, init_seed=42),
        learning_rate=3e-3, max_iterations=9000, validation_interval=500,
        patience=100, val_episodes_per_task=25, meta_batch=4,
        pseudo_annotation=pseudo_annotation, master_seed=seed,
    )
    return meta_train([train_data], [val_data], config).params


def bench_eval(seed: int, params, method: str, shots: int, test_data) -> float:
    accuracies = []
    for i in range(50):
        episode = sample_episode(test_data, 4, shots, 10,
                                 stream(seed, "bench-episode", shots, i))
        rng = stream(seed, f"bench-annotators-s{shots}", i)
        _, confusions = sample_annotator_pool(BENCH_TARGET, 5, 4, rng)
        annotations = annotate(episode.support_y, confusions, rng)
        u_support = forward(episode.support_x, params)
        u_query = forward(episode.query_x, params)
        if method == "em":
            classifier = em.adapt(em.SupportSet(u_support, annotations, 4, 5), BENCH_HYPER)
        else:  # majority-vote class-mean prototypes
            labels, _ = baselines.majority_vote(annotations, 4)
            classifier = baselines.prototype_from_labels(
                u_support, baselines.onehot(labels, 4), tau=0.0, b=1e9
            ).classifier
        predicted = em.predict_labels(u_query, classifier)
        accuracies.append(float(np.mean(predicted == episode.query_y)))
    return float(np.mean(accuracies))


def run_seed(seed: int, data) -> np.ndarray:
    """Test accuracy of ours, w/o-PA and proto-MV (rows) at 1 and 3 shots (columns)."""
    train_data, val_data, test_data = data
    methods = [(True, BENCH_HYPER, "em"), (False, BENCH_HYPER, "em"),
               (False, PROTONET_HYPER, "mv")]
    accuracy = []
    for pseudo_annotation, hyper, method in methods:
        params = bench_train(seed, pseudo_annotation, hyper, train_data, val_data)
        accuracy.append([bench_eval(seed, params, method, s, test_data) for s in (1, 3)])
    return np.array(accuracy)


def signed(x: float, digits: int = 4) -> str:
    return f"{x:+.{digits}f}".replace("-", "\u2212")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=",".join(map(str, SEEDS)),
                        help="comma-separated master seeds (default: %(default)s)")
    seeds = [int(s) for s in parser.parse_args().seeds.split(",")]
    data = tuple(benchmark_dataset(classes, 40, BENCH_SEED + j)
                 for j, classes in ((1, 50), (2, 10), (3, 12)))
    print("| seed | ours | w/o-PA | proto-MV | gap to w/o-PA | gap to proto-MV |")
    print("|---|---|---|---|---|---|")
    gaps = []
    for seed in seeds:
        accuracy = run_seed(seed, data)
        ours, wo_pa, proto_mv = accuracy.mean(axis=1)
        # a gap is the mean over shots of the per-shot differences
        gap = np.mean(accuracy[0] - accuracy[1:], axis=1)
        gaps.append(gap)
        print(f"| {seed} | {ours:.4f} | {wo_pa:.4f} | {proto_mv:.4f} "
              f"| {signed(gap[0])} | {signed(gap[1])} |", flush=True)
    if len(gaps) > 1:
        for name, values in zip(("w/o-PA", "proto-MV"), np.array(gaps).T):
            sd = float(np.std(values, ddof=1))
            print(f"gap to {name}: mean {signed(values.mean(), 3)} "
                  f"(SD {sd:.3f}, SE {sd / np.sqrt(len(values)):.3f})")


if __name__ == "__main__":
    main()
