"""Loop forms of annotator sampling; a test-only oracle.

The package draws a whole chunk of tasks' annotators in one pass: one
block of uniforms per task, decoded into kinds, accuracies and labels with
array operations, and a single task's as a chunk of one.  These are the
earlier forms, one ``Generator.choice`` call per kind, one
``Generator.random()`` call per accuracy slot, which a spammer discards,
and one ``Generator.random(N)`` call per annotator's labels, so the tests
can check that both decode the same uniforms into the same profiles and
labels.
``profile_to_confusion`` builds each matrix kind by kind, and
``pseudo_annotate`` goes through profiles.  The loops return per-example
annotation maps where the package returns the ``(N, R)`` label matrix;
the ``*_matrix`` forms pass them through ``em.label_matrix``.  A
:class:`Replay` generator hands out a given row of uniforms, so the loops
can also decode the uniform blocks the package's chunk pass takes, and
``row_generator`` replays one row of the package's counter-based
generator.
"""

from __future__ import annotations

import numpy as np

import loop_seeding
from crowdmeta import em
from crowdmeta.annotators import KINDS, AnnotatorKind, AnnotatorProfile, SimulatedAnnotators


class Replay(np.random.Generator):
    """A generator whose doubles are the given uniforms, in order.

    ``Generator.choice`` with ``p`` draws its uniform through ``random``, so
    it reads them too.
    """

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self._uniforms = iter(np.asarray(uniforms).tolist())

    def random(self, size=None, dtype=np.float64, out=None):
        if size is None:
            return next(self._uniforms)
        return np.array([next(self._uniforms) for _ in range(int(np.prod(size)))]).reshape(size)


def row_generator(master_seed, label, row, num_annotators, num_examples):
    """A :class:`Replay` of one row's block of doubles, as the package's chunk draws read it."""
    return Replay(loop_seeding.row_uniforms(master_seed, label, row,
                                            num_annotators * (2 + num_examples)))


# (low, high] accuracy range per kind
RANGES = {AnnotatorKind.EXPERT: (0.8, 1.0), AnnotatorKind.HAMMER: (0.5, 0.8)}


def sample_profile(dist, num_classes, rng):
    """One annotator, its kind drawn by ``rng.choice(n, p=...)``."""
    if num_classes < 2:
        raise ValueError("annotator simulation needs at least 2 classes")
    kinds = [kind for kind, _ in dist.weights]
    kind = kinds[rng.choice(len(kinds), p=dist.probabilities())]
    if kind is AnnotatorKind.SPAMMER:
        rng.random()  # the accuracy slot, which a spammer discards
        return AnnotatorProfile(kind=kind)
    lo, hi = RANGES[kind]
    return AnnotatorProfile(kind=kind, q=hi - rng.random() * (hi - lo))


def annotate(true_labels, confusions, rng, label_fraction=1.0):
    """Labels drawn one annotator at a time, kept pairs filtered per example."""
    true_labels = np.asarray(true_labels, dtype=np.intp)
    n = len(true_labels)
    num_annotators = len(confusions)
    sampled = np.empty((n, num_annotators), dtype=np.intp)
    for r, alpha in enumerate(confusions):
        cum = np.cumsum(alpha[:, true_labels], axis=0)  # (K, n)
        draws = rng.random(n)
        sampled[:, r] = np.minimum(
            (draws[None, :] > cum).sum(axis=0), alpha.shape[0] - 1
        )
    if label_fraction >= 1.0:
        keep = np.ones((n, num_annotators), dtype=bool)
    else:
        if label_fraction <= 0.0:
            raise ValueError("label_fraction must be in (0, 1]")
        keep = rng.random((n, num_annotators)) < label_fraction
        for i in np.flatnonzero(~keep.any(axis=1)):
            keep[i, rng.integers(num_annotators)] = True
    return [
        {r: int(sampled[i, r]) for r in range(num_annotators) if keep[i, r]}
        for i in range(n)
    ]


def profile_to_confusion(profile, num_classes):
    """Column-stochastic (K, K) matrix of one profile, built kind by kind."""
    K = num_classes
    if profile.kind is AnnotatorKind.SPAMMER:
        return np.full((K, K), 1.0 / K, dtype=np.float64)
    alpha = np.full((K, K), (1.0 - profile.q) / (K - 1), dtype=np.float64)
    np.fill_diagonal(alpha, profile.q)
    return alpha


def sample_annotator_pool(dist, num_annotators, num_classes, rng):
    """Profiles drawn one at a time, each turned into its confusion matrix."""
    profiles = tuple(sample_profile(dist, num_classes, rng) for _ in range(num_annotators))
    return profiles, tuple(profile_to_confusion(p, num_classes) for p in profiles)


def pseudo_annotate(support_truth, num_annotators, dist, num_classes, rng):
    """A pool's labels for the support, and its confusions."""
    _, confusions = sample_annotator_pool(dist, num_annotators, num_classes, rng)
    return annotate(support_truth, confusions, rng), confusions


def annotate_matrix(true_labels, confusions, rng, label_fraction=1.0):
    """``annotate``'s maps as the label matrix."""
    labels = annotate(true_labels, confusions, rng, label_fraction)
    return em.label_matrix(labels, len(confusions))


def pseudo_annotate_matrix(support_truth, num_annotators, dist, num_classes, rng):
    """``pseudo_annotate`` with its maps as the label matrix."""
    labels, confusions = pseudo_annotate(support_truth, num_annotators, dist, num_classes, rng)
    return em.label_matrix(labels, num_annotators), confusions


def profile_arrays(pools):
    """Kind codes and accuracies (NaN for none) of equal-size pools of profiles."""
    kinds = np.array([[KINDS.index(p.kind) for p in pool] for pool in pools], dtype=np.intp)
    q = np.array([[np.nan if p.q is None else p.q for p in pool] for pool in pools])
    return kinds.reshape(len(pools), -1), q.reshape(len(pools), -1)


def simulate_annotators(true_labels, num_annotators, dist, num_classes, rngs):
    """Each task's pool and labels, one task at a time."""
    pools, confusions, labels = [], [], []
    for truth, rng in zip(true_labels, rngs, strict=True):
        profiles, pool = sample_annotator_pool(dist, num_annotators, num_classes, rng)
        labels.append(annotate_matrix(truth, pool, rng))
        pools.append(profiles)
        confusions.append(np.stack(pool))
    kinds, q = profile_arrays(pools)
    return SimulatedAnnotators(kinds=kinds, q=q, confusions=np.stack(confusions),
                               labels=np.stack(labels))


def simulate_block(true_labels, num_annotators, dist, num_classes, block):
    """``simulate_annotators`` of tasks whose draws are the rows of a uniform block."""
    return simulate_annotators(true_labels, num_annotators, dist, num_classes,
                               [Replay(row) for row in block])
