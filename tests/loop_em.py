"""Loop forms of the EM's label handling; a test-only oracle.

The package builds the one-hot ``(N, R, K)`` label tensor from the int
``(N, R)`` label matrix in one vectorized comparison, and runs the
confusion update and the annotation likelihood as matrix products over
that tensor.  These are the same steps written one label or one annotator
at a time: the one-hot tensor from annotation maps, and the updates from
the label matrix's columns, never from the package's tensor, so the tests
can check the dense forms against them.  The E step and the query
log-softmax here score classes by their full squared distances, the form
the package's class scores equal up to a row constant.

:func:`dawid_skene` is the labels-only EM written as its own loop over the
class prior and confusion updates, which the package runs as
:func:`crowdmeta.em.adapt` on a zero-width support.
"""

from __future__ import annotations

import numpy as np

from crowdmeta import em


def one_hot_annotations(annotations, num_classes, num_annotators):
    """Validated annotation maps as a float one-hot ``(N, R, K)`` label tensor, label by label."""
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    if num_annotators < 1:
        raise ValueError("num_annotators must be >= 1")
    onehot = np.zeros((len(annotations), num_annotators, num_classes))
    for n, ann in enumerate(annotations):
        if len(ann) == 0:
            raise em.UnannotatedExampleError(f"unannotated example at index {n}")
        for r, y in ann.items():
            if not 0 <= r < num_annotators:
                raise ValueError(f"annotator index {r} out of range at example {n}")
            if not 0 <= y < num_classes:
                raise ValueError(f"label {y} out of range at example {n}")
            onehot[n, r, y] = 1.0
    return onehot


def label_pairs(row):
    """``(annotator, label)`` pairs of one example's row of the label matrix, by annotator."""
    return [(r, int(row[r])) for r in np.flatnonzero(row >= 0)]


def group_by_annotator(labels, num_annotators):
    """Per-annotator ``(example_indices, labels)`` arrays; silent annotators get empty ones."""
    labels = np.asarray(labels)
    assert labels.shape[1] == num_annotators
    return [(np.flatnonzero(column >= 0), column[column >= 0]) for column in labels.T]


def confusion_update(lam, labels, num_annotators, num_classes, c):
    """``alpha_r = (counts_r + c) / (sum_{n in I_r} lam_n + K c)``, one annotator at a time."""
    out = []
    for idx, given in group_by_annotator(labels, num_annotators):
        lam_r = lam[idx]
        onehot = np.zeros((len(idx), num_classes))
        onehot[np.arange(len(idx)), given] = 1.0
        out.append((onehot.T @ lam_r + c) / (lam_r.sum(axis=0) + num_classes * c))
    return out


def annotation_log_likelihood(labels, confusions, num_classes):
    """``log a_nk`` summed over the annotators who labeled example ``n``."""
    log_a = np.zeros((len(labels), num_classes))
    grouped = group_by_annotator(labels, len(confusions))
    with np.errstate(divide="ignore"):
        for (idx, given), alpha in zip(grouped, confusions):
            rows = np.log(alpha)[given, :]
            if np.any(np.isneginf(rows)):
                raise ValueError("zero confusion entry hit by an observed label")
            log_a[idx] += rows
    return log_a


def gaussian_log_scores(embeddings, prototypes, class_prior):
    """``-0.5 |u_n - mu_k|^2 + log pi_k`` from the squared distances, row constant kept."""
    return -0.5 * em.squared_distances(embeddings, prototypes) + np.log(class_prior)[None, :]


def e_step(embeddings, labels, prototypes, class_prior, confusions):
    """Responsibilities from the loop likelihood, normalized in log space."""
    scores = (gaussian_log_scores(embeddings, prototypes, class_prior)
              + annotation_log_likelihood(labels, confusions, len(class_prior)))
    return np.exp(scores - em.logsumexp(scores, axis=1, keepdims=True))


def predict_log_probs(embeddings, prototypes, class_prior):
    """One episode's query log-softmax over the Gaussian class log scores."""
    scores = gaussian_log_scores(embeddings, prototypes, class_prior)
    return scores - em.logsumexp(scores, axis=1, keepdims=True)


def with_silent_annotators(labels, num_annotators):
    """The ``(..., N, R)`` label matrix widened to ``num_annotators`` by columns of no labels."""
    pad = [(0, 0)] * (labels.ndim - 1) + [(0, num_annotators - labels.shape[-1])]
    return np.pad(labels, pad, constant_values=-1)


def dawid_skene(labels, num_classes, hyper):
    """Dawid & Skene's EM as its own loop: {pi and confusions; pi_k * a_nk} per step.

    Returns what :func:`crowdmeta.baselines.dawid_skene` does for a
    ``(N, R)`` label matrix or a ``(B, N, R)`` stack.  The support set only
    validates the labels into the one-hot tensor; the loop never reads its
    zero embeddings and builds the scores from ``log pi`` directly.
    """
    labels = np.asarray(labels)
    support = em.SupportSet(np.zeros(labels.shape[:-1] + (1,)), labels, num_classes,
                            labels.shape[-1])
    lam = em.init_responsibilities(support.onehot)
    pi = confusions = None
    for _ in range(hyper.em_steps):
        pi = em.class_prior_update(lam, hyper.b)
        confusions = em.confusion_update(lam, support.onehot, hyper.c)
        scores = np.log(pi)[..., None, :] + em.annotation_log_likelihood(support, confusions)
        lam = np.exp(scores - em.logsumexp(scores, axis=-1, keepdims=True))
    return lam, pi, confusions
