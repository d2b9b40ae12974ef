"""Per-task forms of evaluation, clean validation and the baseline cell; a test-only oracle.

The package scores evaluation tasks in chunks of equal-shape episodes:
one encoder pass and one fit to the stacked supports per chunk, the EM
adaptation or a baseline's stacked Dawid-Skene or majority-vote call and
prototype fit.  These are the earlier forms, one encoder call per support
and per query set and one adaptation per task, so the tests can check that
both make the same draws and the same scores.  Annotators are drawn by
the per-annotator loops of ``loop_annotators``, one pool and one labelling
per task, each from its row's doubles (``loop_annotators.row_generator``),
so the tests also check the package's chunk pass.
"""

from __future__ import annotations

import numpy as np

import loop_annotators
from crowdmeta import baselines, em
from crowdmeta.encoder import forward


def adapt_and_score(params, episode, annotations, num_annotators, hyper):
    """Query accuracy and support-label recovery of the EM classifier of one support."""
    support = em.SupportSet(
        embeddings=forward(episode.support_x, params),
        annotations=annotations,
        num_classes=episode.num_classes,
        num_annotators=num_annotators,
    )
    classifier = em.adapt(support, hyper)
    predicted = em.predict_labels(forward(episode.query_x, params), classifier)
    recovered = np.argmax(classifier.responsibilities, axis=1) == episode.support_y
    return float(np.mean(predicted == episode.query_y)), float(np.mean(recovered))


def evaluate(params, episodes, dist, hyper, num_annotators, master_seed,
             stream_label="eval-annotators"):
    """Per-task accuracies, EM label recovery and annotator kind codes and accuracies.

    One pool, one labelling and one adaptation per task.
    """
    accuracies = np.empty(len(episodes))
    recovery = np.empty(len(episodes))
    pools = []
    for i, episode in enumerate(episodes):
        rng = loop_annotators.row_generator(master_seed, stream_label, (i,), num_annotators,
                                            len(episode.support_y))
        profiles, confusions = loop_annotators.sample_annotator_pool(
            dist, num_annotators, episode.num_classes, rng)
        annotations = loop_annotators.annotate_matrix(episode.support_y, confusions, rng)
        accuracies[i], recovery[i] = adapt_and_score(params, episode, annotations,
                                                     num_annotators, hyper)
        pools.append(profiles)
    return (accuracies, recovery) + loop_annotators.profile_arrays(pools)


def clean_validation_accuracy(params, val_episodes, hyper):
    """Mean accuracy with each support's clean labels as one perfect annotator."""
    return float(np.mean([
        adapt_and_score(params, e, e.support_y[:, None], 1, hyper)[0]
        for e in val_episodes
    ]))


def baseline_scores(params, episodes, method, r, dist, hyper, seed, label):
    """Per-task query accuracy and support-label recovery of one baseline method."""
    recovery = np.empty(len(episodes))
    accuracy = np.empty(len(episodes))
    for i, episode in enumerate(episodes):
        k = episode.num_classes
        rng = loop_annotators.row_generator(seed, label, (i,), r, len(episode.support_y))
        annotations, _ = loop_annotators.pseudo_annotate_matrix(episode.support_y, r, dist, k, rng)
        if method.endswith("ds"):
            weights, _, _ = baselines.dawid_skene(annotations, k, hyper, num_annotators=r)
            estimated = np.argmax(weights, axis=1)
        else:
            estimated, weights = baselines.majority_vote(annotations, k)
            weights = baselines.onehot(estimated, k)
        recovery[i] = float(np.mean(estimated == episode.support_y))
        support_u = forward(episode.support_x, params) if params is not None else episode.support_x
        query_u = forward(episode.query_x, params) if params is not None else episode.query_x
        fit = baselines.prototype_from_labels(support_u, weights, hyper.tau, hyper.b)
        predicted = em.predict_labels(query_u, fit.classifier)
        accuracy[i] = float(np.mean(predicted == episode.query_y))
    return accuracy, recovery
