"""Per-annotator loop forms of the EM's label updates; a test-only oracle.

The package runs the confusion update and the annotation likelihood as
matrix products over a one-hot ``(N, R, K)`` label tensor.  These are the
same updates written one annotator at a time over the annotation maps, so
the tests can check the dense forms against them.
"""

from __future__ import annotations

import numpy as np

from crowdmeta import em


def group_by_annotator(annotations, num_annotators):
    """Per-annotator ``(example_indices, labels)`` arrays; silent annotators get empty ones."""
    idx = [[] for _ in range(num_annotators)]
    lab = [[] for _ in range(num_annotators)]
    for n, ann in enumerate(annotations):
        for r, y in ann.items():
            idx[r].append(n)
            lab[r].append(y)
    return [(np.asarray(i, dtype=np.intp), np.asarray(l, dtype=np.intp))
            for i, l in zip(idx, lab)]


def confusion_update(lam, annotations, num_annotators, num_classes, c):
    """``alpha_r = (counts_r + c) / (sum_{n in I_r} lam_n + K c)``, one annotator at a time."""
    out = []
    for idx, labels in group_by_annotator(annotations, num_annotators):
        lam_r = lam[idx]
        onehot = np.zeros((len(idx), num_classes))
        onehot[np.arange(len(idx)), labels] = 1.0
        out.append((onehot.T @ lam_r + c) / (lam_r.sum(axis=0) + num_classes * c))
    return out


def annotation_log_likelihood(annotations, confusions, num_classes):
    """``log a_nk`` summed over the annotators who labeled example ``n``."""
    log_a = np.zeros((len(annotations), num_classes))
    grouped = group_by_annotator(annotations, len(confusions))
    with np.errstate(divide="ignore"):
        for (idx, labels), alpha in zip(grouped, confusions):
            rows = np.log(alpha)[labels, :]
            if np.any(np.isneginf(rows)):
                raise ValueError("zero confusion entry hit by an observed label")
            log_a[idx] += rows
    return log_a


def e_step(embeddings, annotations, prototypes, class_prior, confusions):
    """Responsibilities from the loop likelihood, normalized in log space."""
    scores = (-0.5 * em.squared_distances(embeddings, prototypes)
              + np.log(class_prior)[None, :]
              + annotation_log_likelihood(annotations, confusions, len(class_prior)))
    return np.exp(scores - em.logsumexp(scores, axis=1, keepdims=True))
