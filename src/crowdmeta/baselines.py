"""Reference label-aggregation methods and prototype classifiers built on them.

Majority voting is the EM's vote-fraction initialization, and the
feature-free confusion-matrix EM of Dawid & Skene is :func:`crowdmeta.em.adapt`
on a zero-width support, so one tested implementation backs both models.  The
two fits are what :func:`crowdmeta.metatrain.evaluate` scores in place of the
EM adaptation, on the same annotators and chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import em


def majority_vote(labels: np.ndarray, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Plurality labels and the underlying vote fractions of an ``(N, R)`` label matrix.

    Ties resolve to the lowest class index, so results are reproducible.
    """
    fractions = em.init_responsibilities(em.one_hot_labels(np.asarray(labels), num_classes))
    return np.argmax(fractions, axis=-1), fractions


def dawid_skene(
    labels: np.ndarray,
    num_classes: int,
    hyper: em.PriorHyperparams,
    num_annotators: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature-free EM over annotator confusion matrices: Dawid & Skene (1979).

    Runs :func:`crowdmeta.em.adapt` on zero-width embeddings: vote-fraction
    init, then ``hyper.em_steps`` iterations of {update pi and confusions;
    recompute soft labels from pi_k * a_nk}.  Returns the soft labels, class
    prior, and the ``(R, K, K)`` confusions.  ``num_annotators``, if given,
    must be the width of the ``(N, R)`` label matrix; a ``(B, N, R)`` stack
    runs B tasks, each result gaining that axis.
    """
    labels = np.asarray(labels)
    r = labels.shape[-1] if num_annotators is None else num_annotators
    support = em.SupportSet(np.zeros(labels.shape[:-1] + (0,)), labels, num_classes, r)
    fit = em.adapt(support, hyper)
    return fit.responsibilities, fit.class_prior, fit.confusions


@dataclass
class PrototypeFit:
    """Prototype classifier built from externally estimated labels."""

    classifier: em.AdaptedClassifier
    # classes with zero label weight (prototype = 0); one tuple per task when stacked
    empty_classes: tuple[int, ...] | tuple[tuple[int, ...], ...]


def _class_indices(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(k) for k in np.flatnonzero(mask))


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
    ``(B, N, M)`` embeddings with ``(B, N, K)`` weights fit B tasks at once.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    weights = np.asarray(label_weights, dtype=np.float64)
    if weights.ndim not in (2, 3) or weights.shape[:-1] != embeddings.shape[:-1]:
        raise ValueError("label weights must be (N, K) or (B, N, K) matching the embeddings")
    if not np.all(np.isfinite(weights)):
        raise ValueError("label weights contain non-finite values")
    if np.any(weights < 0.0):
        raise ValueError("label weights contain negative entries")
    sums = weights.sum(axis=-1)
    off = np.argwhere(np.abs(sums - 1.0) > 1e-9)
    if off.size:
        *task, n = off[0]
        where = f"example {n}" + (f" of task {task[0]}" if task else "")
        raise ValueError(f"label weights of {where} sum to {sums[tuple(off[0])]:g}, not 1")
    if not (0.0 <= tau < np.inf and 0.0 < b < np.inf):  # NaN fails this too
        raise ValueError(f"prototype fit needs finite tau >= 0 and b > 0 (got tau={tau}, b={b})")
    num_classes = weights.shape[-1]
    classifier = em.AdaptedClassifier(
        prototypes=em.prototype_update(weights, embeddings, tau),
        class_prior=em.class_prior_update(weights, b),
        confusions=np.zeros(weights.shape[:-2] + (0, num_classes, num_classes)),
        responsibilities=weights,
    )
    empty = weights.sum(axis=-2) == 0.0
    per_task = tuple(map(_class_indices, empty)) if empty.ndim == 2 else _class_indices(empty)
    return PrototypeFit(classifier=classifier, empty_classes=per_task)


def onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Float one-hot rows, on a new last axis, of integer labels of any shape."""
    return np.eye(num_classes)[np.asarray(labels, dtype=np.intp)]


def fit_majority_vote(support_u: np.ndarray, labels: np.ndarray, num_classes: int,
                      hyper: em.PriorHyperparams) -> em.AdaptedClassifier:
    """Prototypes fitted to the plurality labels of ``(B, N, R)`` label matrices."""
    weights = onehot(majority_vote(labels, num_classes)[0], num_classes)
    return prototype_from_labels(support_u, weights, hyper.tau, hyper.b).classifier


def fit_dawid_skene(support_u: np.ndarray, labels: np.ndarray, num_classes: int,
                    hyper: em.PriorHyperparams) -> em.AdaptedClassifier:
    """Prototypes fitted to the Dawid-Skene soft labels of ``(B, N, R)`` label matrices."""
    weights, _, _ = dawid_skene(labels, num_classes, hyper)
    return prototype_from_labels(support_u, weights, hyper.tau, hyper.b).classifier
