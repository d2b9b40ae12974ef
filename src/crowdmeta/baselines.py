"""Reference label-aggregation methods and prototype classifiers built on them.

Majority voting and the feature-free confusion-matrix EM share the core
update rules: the EM here is exactly the latent-space adaptation with the
Gaussian factor switched off, so one tested implementation backs both
models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import em


def majority_vote(
    annotations: Sequence[Mapping[int, int]], num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Plurality labels and the underlying vote fractions.

    Ties resolve to the lowest class index, so results are reproducible.
    """
    onehot = em.one_hot_annotations(annotations, num_classes, _num_annotators(annotations))
    fractions = em.init_responsibilities(onehot)
    return np.argmax(fractions, axis=1), fractions


def _num_annotators(annotations: Sequence[Mapping[int, int]]) -> int:
    """One more than the largest annotator index used."""
    return 1 + max((r for ann in annotations for r in ann), default=0)


def dawid_skene(
    annotations: Sequence[Mapping[int, int]],
    num_classes: int,
    hyper: em.PriorHyperparams,
    num_annotators: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature-free EM over annotator confusion matrices.

    Starts from vote fractions and runs ``hyper.em_steps`` iterations of
    {update pi and confusions; recompute soft labels from pi_k * a_nk}.
    Returns the soft labels, class prior, and the ``(R, K, K)`` confusions.
    """
    if num_annotators is None:
        num_annotators = _num_annotators(annotations)
    # The support set validates the labels once into the one-hot tensor the
    # updates read; zero embeddings keep the Gaussian term out of the scores.
    support = em.SupportSet(
        embeddings=np.zeros((len(annotations), 1)),
        annotations=annotations,
        num_classes=num_classes,
        num_annotators=num_annotators,
    )
    lam = em.init_responsibilities(support.onehot)
    pi = confusions = None
    for _ in range(hyper.em_steps):
        pi = em.class_prior_update(lam, hyper.b)
        confusions = em.confusion_update(lam, support.onehot, hyper.c)
        scores = np.log(pi)[None, :] + em.annotation_log_likelihood(support, confusions)
        lam = np.exp(scores - em.logsumexp(scores, axis=1, keepdims=True))
    return lam, pi, confusions


@dataclass
class PrototypeFit:
    """Prototype classifier built from externally estimated labels."""

    classifier: em.AdaptedClassifier
    empty_classes: tuple[int, ...]  # classes with zero label weight (prototype = 0)


def prototype_from_labels(
    embeddings: np.ndarray,
    label_weights: np.ndarray,
    tau: float,
    b: float = 1.0,
) -> PrototypeFit:
    """Prototypes from hard (one-hot) or soft label weights.

    Uses the same shrinkage and smoothing rules as the EM's M step, so a
    soft-label fit coincides with one M step of the full model.  Each row
    of ``label_weights`` is one example's distribution over the classes:
    finite, non-negative and summing to 1, which the class prior needs.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    weights = np.asarray(label_weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != embeddings.shape[0]:
        raise ValueError("label weights must be (N, K) matching the embeddings")
    if not np.all(np.isfinite(weights)):
        raise ValueError("label weights contain non-finite values")
    if np.any(weights < 0.0):
        raise ValueError("label weights contain negative entries")
    sums = weights.sum(axis=1)
    off = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if off.size:
        raise ValueError(f"label weights of example {off[0]} sum to {sums[off[0]]:g}, not 1")
    if tau < 0.0 or b <= 0.0:
        raise ValueError(f"prototype fit needs tau >= 0 and b > 0 (got tau={tau}, b={b})")
    num_classes = weights.shape[1]
    classifier = em.AdaptedClassifier(
        prototypes=em.prototype_update(weights, embeddings, tau),
        class_prior=em.class_prior_update(weights, b),
        confusions=np.zeros((0, num_classes, num_classes)),
        responsibilities=weights,
    )
    empty = tuple(int(k) for k in np.flatnonzero(weights.sum(axis=0) == 0.0))
    return PrototypeFit(classifier=classifier, empty_classes=empty)


def onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out
