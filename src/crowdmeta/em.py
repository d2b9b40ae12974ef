"""Latent-space mixture model over noisy multi-annotator labels, fit by EM.

Each support example carries labels from one or more annotators.  The model
couples three pieces on the embedding space: an isotropic unit-variance
Gaussian per class (prototypes ``mu_k``), a categorical class prior ``pi``,
and one column-stochastic confusion matrix per annotator whose ``(l, k)``
entry is the probability that annotator ``r`` reports label ``l`` when the
true class is ``k``; the ``R`` matrices form one ``(R, K, K)`` stack.
Conjugate priors (Gaussian with precision ``tau`` on prototypes, Dirichlet
with strengths ``b`` and ``c`` on the class prior and on confusion columns)
make every EM update closed form.  With the labels held as a one-hot
``(N, R, K)`` tensor ``Y`` (``Y_nrl = 1`` when annotator ``r`` labeled
example ``n`` as ``l``), the confusion update is the Dawid & Skene (1979)
count form:

  M step:  mu_k      = sum_n lam_nk u_n / (tau + sum_n lam_nk)
           pi_k      = (sum_n lam_nk + b) / (K b + N)
           C_rlk     = sum_n Y_nrl lam_nk
           alpha_rlk = (C_rlk + c) / (sum_l C_rlk + K c)
  E step:  lam_nk  propto  N(u_n | mu_k, I) pi_k a_nk,
           log a_nk = sum_{r,l} Y_nrl log alpha_rlk

so the counts ``C`` are one product ``Y^T lam`` and ``log a`` one product
``Y log alpha``, with ``Y`` flattened to ``(N, R K)``.  An annotator who
labeled nothing has zero counts and gets the uniform prior-mean matrix.
All probability products run in log space; E-step normalization uses
log-sum-exp with a max shift.

The updates, the E step and :func:`adapt` take an optional leading task
axis: B episodes of equal shape, stacked as ``(B, N, ...)`` arrays in one
:class:`SupportSet`, run as one call whose every result gains that axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

# One annotation map per example: annotator index -> reported label.
AnnotationMap = Mapping[int, int]


class UnannotatedExampleError(ValueError):
    """A support example has no annotations at all."""


@dataclass(frozen=True)
class PriorHyperparams:
    """Prior strengths and the EM iteration budget.

    ``tau`` is the Gaussian precision pulling prototypes toward the origin,
    ``b`` and ``c`` are the Dirichlet strengths smoothing the class prior
    and the confusion columns, and ``em_steps`` is the number of EM
    iterations run by :func:`adapt`.  ``allow_zero_tau`` permits the
    degenerate flat prototype prior used by the nearest-class-mean
    reduction checks; general use requires ``tau > 0``.
    """

    tau: float = 1.0
    b: float = 1.0
    c: float = 1.0
    em_steps: int = 2
    allow_zero_tau: bool = False

    def __post_init__(self) -> None:
        if self.tau < 0.0 or (self.tau == 0.0 and not self.allow_zero_tau):
            raise ValueError(f"tau must be > 0 (got {self.tau})")
        if self.b <= 0.0:
            raise ValueError(f"b must be > 0 (got {self.b})")
        if self.c <= 0.0:
            raise ValueError(f"c must be > 0 (got {self.c})")
        if not isinstance(self.em_steps, int) or self.em_steps < 1:
            raise ValueError(f"em_steps must be an integer >= 1 (got {self.em_steps})")


def one_hot_annotations(
    annotations: Sequence[AnnotationMap], num_classes: int, num_annotators: int
) -> np.ndarray:
    """Validated annotation maps as a float one-hot ``(N, R, K)`` label tensor."""
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    if num_annotators < 1:
        raise ValueError("num_annotators must be >= 1")
    onehot = np.zeros((len(annotations), num_annotators, num_classes))
    hits = []  # flat indices of the ones
    for n, ann in enumerate(annotations):
        if len(ann) == 0:
            raise UnannotatedExampleError(f"unannotated example at index {n}")
        for r, y in ann.items():
            if not 0 <= r < num_annotators:
                raise ValueError(f"annotator index {r} out of range at example {n}")
            if not 0 <= y < num_classes:
                raise ValueError(f"label {y} out of range at example {n}")
            hits.append((n * num_annotators + r) * num_classes + y)
    onehot.reshape(-1)[hits] = 1.0
    return onehot


@dataclass
class SupportSet:
    """Embedded support examples with their per-annotator labels.

    ``embeddings`` is ``(N, M)`` float64; ``annotations[n]`` maps annotator
    index to the reported label for example ``n``.  Every example must have
    at least one annotation.  The labels are validated once, into the
    one-hot ``(N, R, K)`` tensor ``onehot`` that every EM update reads, and
    its ``(N, R)`` mask ``observed`` of the labeled (example, annotator)
    pairs.  ``(B, N, M)`` embeddings with B annotation lists stack B
    episodes; ``onehot`` is then ``(B, N, R, K)``.
    """

    embeddings: np.ndarray
    annotations: Sequence[AnnotationMap]
    num_classes: int
    num_annotators: int
    onehot: np.ndarray = field(init=False, repr=False)
    observed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.embeddings = np.ascontiguousarray(self.embeddings, dtype=np.float64)
        if not 2 <= self.embeddings.ndim <= 3:
            raise ValueError("embeddings must be an (N, M) or a (B, N, M) array")
        if not np.all(np.isfinite(self.embeddings)):
            raise ValueError("embeddings contain non-finite values")
        stacked = self.embeddings.ndim == 3
        lists = self.annotations if stacked else [self.annotations]
        if list(map(len, lists)) != [self.size] * (len(self.embeddings) if stacked else 1):
            raise ValueError("annotation count does not match embedding count")
        onehot = [one_hot_annotations(a, self.num_classes, self.num_annotators) for a in lists]
        self.onehot = np.stack(onehot) if stacked else onehot[0]
        self.observed = self.onehot.sum(axis=-1)

    @property
    def size(self) -> int:
        return self.embeddings.shape[-2]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[-1]


@dataclass
class AdaptedClassifier:
    """Task-specific parameters produced by EM adaptation.

    A plain record that checks nothing: :func:`adapt` builds it from
    updates whose outputs are distributions by construction, and a caller
    that assembles one from its own numbers validates them first, as
    :func:`crowdmeta.baselines.prototype_from_labels` does.
    """

    prototypes: np.ndarray  # (K, M)
    class_prior: np.ndarray  # (K,)
    confusions: np.ndarray  # (R, K, K); R = 0 for label-free classifiers
    responsibilities: np.ndarray  # (N, K)

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[-2]


def check_confusion(alpha: np.ndarray, atol: float = 1e-12) -> None:
    """Confusion matrices, ``(K, K)`` or stacked ``(..., K, K)``, are column-stochastic."""
    alpha = np.asarray(alpha)
    if alpha.ndim < 2 or alpha.shape[-2] != alpha.shape[-1]:
        raise ValueError("confusion matrix must be square")
    if np.any(alpha < 0.0) or np.any(alpha > 1.0):
        raise ValueError("confusion entries must lie in [0, 1]")
    if not np.allclose(alpha.sum(axis=-2), 1.0, rtol=0.0, atol=atol):
        raise ValueError("confusion columns do not sum to 1")


def init_responsibilities(onehot: np.ndarray) -> np.ndarray:
    """Vote-fraction initialization from the ``(N, R, K)`` one-hot labels.

    ``lam_nk = (votes for k) / (labels given to n)``.
    """
    votes = onehot.sum(axis=-2)
    return votes / votes.sum(axis=-1, keepdims=True)


def prototype_update(lam: np.ndarray, embeddings: np.ndarray, tau: float) -> np.ndarray:
    """Closed-form prototype maximizer; empty classes fall back to the prior mean 0."""
    denom = tau + lam.sum(axis=-2)
    protos = np.zeros(denom.shape + embeddings.shape[-1:], dtype=np.float64)
    nz = denom > 0.0
    protos[nz] = (lam.swapaxes(-1, -2) @ embeddings)[nz] / denom[nz, None]
    return protos


def class_prior_update(lam: np.ndarray, b: float) -> np.ndarray:
    num_examples, num_classes = lam.shape[-2:]
    return (lam.sum(axis=-2) + b) / (num_classes * b + num_examples)


def confusion_update(lam: np.ndarray, onehot: np.ndarray, c: float) -> np.ndarray:
    """Smoothed ``(R, K, K)`` confusion estimates from the ``(N, R, K)`` one-hot labels.

    With ``c > 0`` an annotator who labeled nothing gets exactly the
    uniform matrix (the Dirichlet prior mean), since all counts are zero.
    """
    k = onehot.shape[-1]
    counts = onehot.reshape(onehot.shape[:-2] + (-1,)).swapaxes(-1, -2) @ lam
    counts = counts.reshape(onehot.shape[:-3] + (-1, k, k))  # (..., r, label l, class k)
    return (counts + c) / (counts.sum(axis=-2, keepdims=True) + k * c)


def m_step(
    lam: np.ndarray, support: SupportSet, hyper: PriorHyperparams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One maximization step: prototypes, class prior, confusion matrices."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != support.embeddings.shape[:-1] + (support.num_classes,):
        raise ValueError(
            f"responsibilities shape {lam.shape} does not match "
            f"{support.embeddings.shape[:-1] + (support.num_classes,)}"
        )
    protos = prototype_update(lam, support.embeddings, hyper.tau)
    pi = class_prior_update(lam, hyper.b)
    confusions = confusion_update(lam, support.onehot, hyper.c)
    return protos, pi, confusions


def annotation_log_likelihood(
    support: SupportSet, confusions: Sequence[np.ndarray]
) -> np.ndarray:
    """``log a_nk``: log-probability of example n's labels given true class k.

    Zero confusion entries are allowed in rows no observed label selects.
    """
    shape = support.onehot.shape  # (..., n, r, k)
    r, k = shape[-2:]
    confusions = np.asarray(confusions, dtype=np.float64)
    if confusions.shape != shape[:-3] + (r, k, k):
        raise ValueError("one (K, K) confusion matrix per annotator required")
    with np.errstate(divide="ignore"):
        log_alpha = np.log(confusions)
    if not np.isfinite(log_alpha).all():
        zero = confusions == 0.0
        if np.any(zero & support.onehot.any(axis=-3)[..., None]):
            raise ValueError(
                "zero confusion entry hit by an observed label; "
                "annotation likelihood requires strictly positive entries"
            )
        log_alpha[zero] = 0.0  # never selected: keeps 0 * log 0 out of the product
    labels = support.onehot.reshape(shape[:-2] + (r * k,))
    return labels @ log_alpha.reshape(shape[:-3] + (r * k, k))


def annotation_likelihood(
    support: SupportSet, confusions: Sequence[np.ndarray]
) -> np.ndarray:
    """``a_nk`` on the linear scale (products accumulated in log space)."""
    return np.exp(annotation_log_likelihood(support, confusions))


def squared_distances(u: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (..., n, K)."""
    sq_u = np.sum(u * u, axis=-1)[..., None]
    sq_p = np.sum(prototypes * prototypes, axis=-1)[..., None, :]
    return sq_u - 2.0 * (u @ prototypes.swapaxes(-1, -2)) + sq_p


def logsumexp(scores: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Max-shifted log-sum-exp along ``axis``."""
    shift = np.max(scores, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    out = shift + np.log(np.sum(np.exp(scores - shift), axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


def class_log_scores(
    u: np.ndarray, prototypes: np.ndarray, class_prior: np.ndarray
) -> np.ndarray:
    """``-0.5 |u_n - mu_k|^2 + log pi_k``, (..., n, K): the label-free class scores."""
    return -0.5 * squared_distances(u, prototypes) + np.log(class_prior)[..., None, :]


def _posterior_log_scores(
    support: SupportSet,
    prototypes: np.ndarray,
    class_prior: np.ndarray,
    confusions: Sequence[np.ndarray],
) -> np.ndarray:
    """Unnormalized per-example class log scores (Gaussian constant dropped)."""
    scores = class_log_scores(support.embeddings, prototypes, class_prior)
    return scores + annotation_log_likelihood(support, confusions)


def e_step(
    support: SupportSet,
    prototypes: np.ndarray,
    class_prior: np.ndarray,
    confusions: Sequence[np.ndarray],
) -> np.ndarray:
    """Exact posterior responsibilities, normalized row-wise in log space."""
    scores = _posterior_log_scores(support, prototypes, class_prior, confusions)
    if not np.all(np.isfinite(np.max(scores, axis=-1))):
        raise RuntimeError("no class has positive posterior mass for some example")
    return np.exp(scores - logsumexp(scores, axis=-1, keepdims=True))


def log_prior(
    prototypes: np.ndarray,
    class_prior: np.ndarray,
    confusions: Sequence[np.ndarray],
    hyper: PriorHyperparams,
) -> float:
    """Log density of the conjugate priors, normalization constants included."""
    if hyper.tau <= 0.0:
        raise ValueError("log prior requires tau > 0")
    num_classes, dim = prototypes.shape
    gauss = num_classes * 0.5 * dim * (math.log(hyper.tau) - LOG_2PI)
    gauss -= 0.5 * hyper.tau * float(np.sum(prototypes * prototypes))
    dir_pi = (
        math.lgamma(num_classes * (hyper.b + 1.0))
        - num_classes * math.lgamma(hyper.b + 1.0)
        + hyper.b * float(np.sum(np.log(class_prior)))
    )
    col_const = math.lgamma(num_classes * (hyper.c + 1.0)) - num_classes * math.lgamma(
        hyper.c + 1.0
    )
    dir_conf = len(confusions) * num_classes * col_const + hyper.c * float(
        np.sum(np.log(confusions))
    )
    return gauss + dir_pi + dir_conf


def log_posterior(
    support: SupportSet,
    prototypes: np.ndarray,
    class_prior: np.ndarray,
    confusions: Sequence[np.ndarray],
    hyper: PriorHyperparams,
) -> float:
    """Unnormalized log posterior: marginal log likelihood plus log prior."""
    scores = _posterior_log_scores(support, prototypes, class_prior, confusions)
    scores -= 0.5 * support.dim * LOG_2PI  # Gaussian normalization constant
    loglik = float(np.sum(logsumexp(scores, axis=1)))
    return loglik + log_prior(prototypes, class_prior, confusions, hyper)


def lower_bound_q(
    lam: np.ndarray,
    support: SupportSet,
    prototypes: np.ndarray,
    class_prior: np.ndarray,
    confusions: Sequence[np.ndarray],
    hyper: PriorHyperparams,
) -> float:
    """Jensen lower bound on :func:`log_posterior`, tight after an E step.

    Entries with ``lam_nk == 0`` contribute zero by the usual convention.
    """
    lam = np.asarray(lam, dtype=np.float64)
    scores = _posterior_log_scores(support, prototypes, class_prior, confusions)
    scores -= 0.5 * support.dim * LOG_2PI
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(lam > 0.0, lam * (scores - np.log(lam)), 0.0)
    return float(np.sum(inner)) + log_prior(prototypes, class_prior, confusions, hyper)


def adapt(support: SupportSet, hyper: PriorHyperparams) -> AdaptedClassifier:
    """Run the full adaptation: vote-fraction init, then em_steps x {M, E}."""
    lam = init_responsibilities(support.onehot)
    prototypes = pi = confusions = None
    for _ in range(hyper.em_steps):
        prototypes, pi, confusions = m_step(lam, support, hyper)
        lam = e_step(support, prototypes, pi, confusions)
    return AdaptedClassifier(
        prototypes=prototypes, class_prior=pi, confusions=confusions, responsibilities=lam
    )


def predict_log_probs(u: np.ndarray, classifier: AdaptedClassifier) -> np.ndarray:
    """Log class probabilities for new embeddings.

    Accepts a single ``(M,)`` vector or an ``(n, M)`` batch; returns the
    matching ``(K,)`` or ``(n, K)`` log-softmax scores.
    """
    u = np.asarray(u, dtype=np.float64)
    single = u.ndim == 1
    u2 = u[None, :] if single else u
    if u2.shape[1] != classifier.prototypes.shape[1]:
        raise ValueError(
            f"embedding dimension {u2.shape[1]} does not match prototypes "
            f"({classifier.prototypes.shape[1]})"
        )
    scores = class_log_scores(u2, classifier.prototypes, classifier.class_prior)
    log_probs = scores - logsumexp(scores, axis=1, keepdims=True)
    return log_probs[0] if single else log_probs


def predict_labels(u: np.ndarray, classifier: AdaptedClassifier) -> np.ndarray:
    """Argmax prediction; ties resolve to the lowest class index."""
    log_probs = predict_log_probs(u, classifier)
    return np.argmax(log_probs, axis=-1)
