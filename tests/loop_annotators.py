"""Loop forms of annotator sampling; a test-only oracle.

The package draws an annotator's kind by a binary search in the
distribution's precomputed CDF and every annotator's labels from one
``(R, N)`` block of uniforms.  These are the earlier forms, one
``Generator.choice`` call per kind and one ``Generator.random(N)`` call per
annotator, so the tests can check that both consume the same draws and
produce the same profiles and labels.  ``profile_to_confusion`` builds
each matrix kind by kind, and ``pseudo_annotate`` goes through profiles,
where the package fills one confusion stack from the drawn parameters.
The loops return per-example annotation maps where the package returns
the ``(N, R)`` label matrix; the ``*_matrix`` forms pass them through
``em.label_matrix``.
"""

from __future__ import annotations

import numpy as np

from crowdmeta import em
from crowdmeta.annotators import AnnotatorKind, AnnotatorProfile, _sample_q


def sample_profile(dist, num_classes, rng):
    """One annotator, its kind drawn by ``rng.choice(n, p=...)``."""
    if num_classes < 2:
        raise ValueError("annotator simulation needs at least 2 classes")
    kinds = [kind for kind, _ in dist.weights]
    kind = kinds[rng.choice(len(kinds), p=dist.probabilities())]
    if kind is AnnotatorKind.SPAMMER:
        return AnnotatorProfile(kind=kind)
    if kind is AnnotatorKind.PAIRWISE_FLIPPER:
        q = _sample_q(kind, rng)
        targets = []
        for k in range(num_classes):
            t = int(rng.integers(num_classes - 1))
            targets.append(t + 1 if t >= k else t)
        return AnnotatorProfile(kind=kind, q=q, flip_targets=tuple(targets))
    if kind is AnnotatorKind.CLASSWISE_SPAMMER:
        spam = rng.choice(num_classes, size=num_classes // 2, replace=False)
        return AnnotatorProfile(kind=kind, spam_classes=frozenset(int(s) for s in spam))
    return AnnotatorProfile(kind=kind, q=_sample_q(kind, rng))


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
    kind = profile.kind
    if kind is AnnotatorKind.SPAMMER:
        return np.full((K, K), 1.0 / K, dtype=np.float64)
    if kind is AnnotatorKind.PAIRWISE_FLIPPER:
        alpha = np.zeros((K, K), dtype=np.float64)
        for k, target in enumerate(profile.flip_targets):
            alpha[k, k] = profile.q
            alpha[target, k] = 1.0 - profile.q
        return alpha
    if kind is AnnotatorKind.CLASSWISE_SPAMMER:
        alpha = np.eye(K, dtype=np.float64)
        for k in profile.spam_classes:
            alpha[:, k] = 1.0 / K
        return alpha
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
