"""Latent-space mixture model over noisy multi-annotator labels, fit by EM.

Each support example carries labels from one or more annotators.  The model
couples three pieces on the embedding space: an isotropic unit-variance
Gaussian per class (prototypes ``mu_k``), a categorical class prior ``pi``,
and one column-stochastic confusion matrix per annotator whose ``(l, k)``
entry is the probability that annotator ``r`` reports label ``l`` when the
true class is ``k``; the ``R`` matrices form one ``(R, K, K)`` stack.
Conjugate priors (Gaussian with precision ``tau`` on prototypes, Dirichlet
with strengths ``b`` and ``c`` on the class prior and on confusion columns)
make every EM update closed form.  The labels arrive as the int ``(N, R)``
items x workers matrix of Dawid & Skene (1979), -1 marking a missing
label, and are held as a one-hot ``(N, R, K)`` tensor ``Y`` (``Y_nrl = 1``
when annotator ``r`` labeled example ``n`` as ``l``), so the confusion
update is their count form:

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
log-sum-exp with a max shift.  On zero-width embeddings the Gaussian factor
drops out and :func:`adapt` is Dawid & Skene's EM.

The updates, the E step and :func:`adapt` take an optional leading task
axis: B episodes of equal shape, stacked as ``(B, N, ...)`` arrays in one
:class:`SupportSet`, run as one call whose every result gains that axis.
:func:`backward` is the reverse pass through :func:`iterate`'s steps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

# An axis of fewer than SHORT_AXIS entries, over at least SHORT_AXIS_ROWS
# rows, is reduced by one ufunc call per entry over its slices: numpy's
# reduce costs tens of nanoseconds per row on so short an axis, a call over
# a slice a few microseconds in all.  Below that many rows numpy's is faster.
SHORT_AXIS = 8
SHORT_AXIS_ROWS = 128


def _by_slices(x: np.ndarray, axis: int) -> bool:
    """Whether :func:`_reduce` and :func:`_argmax` take ``x``'s ``axis`` slice by slice."""
    k = x.shape[axis]
    return 1 < k < SHORT_AXIS and x.size >= SHORT_AXIS_ROWS * k


def _reduce(ufunc: np.ufunc, x: np.ndarray, axis: int = -1) -> np.ndarray:
    """``ufunc.reduce(x, axis, keepdims=True)`` for ``np.add`` or ``np.maximum``, bit for bit.

    A short axis is folded over its slices left to right, the order numpy's
    reduce takes on fewer than 8 entries; a sum then adds numpy's starting
    value 0, which turns an all -0.0 row's -0.0 into its +0.0.  Fixing the
    order here keeps every sum's bits whatever numpy's reduce does.
    """
    if not _by_slices(x, axis):
        return ufunc.reduce(x, axis=axis, keepdims=True)
    slices = np.moveaxis(x, axis, 0)
    out = ufunc(slices[0], slices[1])
    for s in slices[2:]:
        ufunc(out, s, out=out)
    if ufunc.identity is not None:
        ufunc(out, ufunc.identity, out=out)
    return np.expand_dims(out, axis)


def _argmax(x: np.ndarray) -> np.ndarray:
    """``np.argmax(x, axis=-1)``: each row's first maximum, or its first NaN if it holds one."""
    if not _by_slices(x, -1):
        return np.argmax(x, axis=-1)
    best = x[..., 0].copy()
    index = np.zeros(best.shape, dtype=np.intp)
    for j in range(1, x.shape[-1]):
        column = x[..., j]
        np.putmask(index, column > best, j)  # strictly greater: the first maximum stays
        np.maximum(best, column, out=best)  # NaN propagates
    if np.isnan(best).any():  # a NaN compares false with everything; numpy's rule picks it
        return np.argmax(x, axis=-1)
    return index


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
        # written so that NaN fails each comparison
        if not (0.0 < self.tau < math.inf or (self.tau == 0.0 and self.allow_zero_tau)):
            raise ValueError(f"tau must be finite and > 0 (got {self.tau})")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"b must be finite and > 0 (got {self.b})")
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be finite and > 0 (got {self.c})")
        try:
            steps = operator.index(self.em_steps)
        except TypeError:
            steps = 0
        if steps < 1:
            raise ValueError(f"em_steps must be an integer >= 1 (got {self.em_steps})")
        object.__setattr__(self, "em_steps", steps)


def label_matrix(annotation_maps: Sequence[Mapping[int, int]], num_annotators: int) -> np.ndarray:
    """Per-example maps {annotator: label} as the int ``(N, R)`` label matrix, -1 for no label."""
    labels = np.full((len(annotation_maps), num_annotators), -1, dtype=np.intp)
    for n, ann in enumerate(annotation_maps):
        for r, y in ann.items():
            if not 0 <= r < num_annotators:
                raise ValueError(f"annotator index {r} out of range at example {n}")
            if y < 0 or y != int(y):
                raise ValueError(f"label {y} out of range at example {n}")
            labels[n, r] = y
    return labels


def one_hot_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """A validated ``(..., N, R)`` label matrix as its float one-hot ``(..., N, R, K)`` tensor."""
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    if labels.ndim < 2 or labels.dtype.kind not in "iu":
        raise ValueError("annotations must be an integer (N, R) label matrix or a stack of them "
                         "(em.label_matrix converts annotation maps)")
    if labels.size == 0:
        axis = labels.shape.index(0) - labels.ndim
        empty = {-2: "no examples (N = 0)", -1: "no annotators (R = 0)"}.get(axis, "no tasks")
        raise ValueError(f"annotations {labels.shape} have {empty}")
    row_max = labels.max(axis=-1)
    if labels.min() < -1 or row_max.max() >= num_classes:
        where = tuple(np.argwhere((labels < -1) | (labels >= num_classes))[0])
        raise ValueError(f"label {labels[where]} out of range at example {where[-2]}")
    if row_max.min() < 0:  # every entry is now -1 or a class, so the row is all -1
        n = np.argwhere(row_max < 0)[0][-1]
        raise UnannotatedExampleError(f"unannotated example at index {n}")
    onehot = np.zeros(labels.shape + (num_classes,))
    hits = np.flatnonzero(labels >= 0)
    onehot.reshape(-1)[hits * num_classes + labels.reshape(-1)[hits]] = 1.0
    return onehot


@dataclass
class CheckedLabels:
    """A validated ``(..., N, R)`` label matrix, its one-hot tensor and its mask.

    Indexing the leading axes indexes all three, as views: a stack of label
    matrices is checked once, and each slice of it enters a
    :class:`SupportSet` without being checked again.
    """

    annotations: np.ndarray
    onehot: np.ndarray  # (..., N, R, K)
    observed: np.ndarray  # (..., N, R), annotations >= 0

    @classmethod
    def check(cls, labels: np.ndarray, num_classes: int) -> "CheckedLabels":
        labels = np.asarray(labels)
        return cls(labels, one_hot_labels(labels, num_classes), labels >= 0)

    def __getitem__(self, index) -> "CheckedLabels":
        return CheckedLabels(self.annotations[index], self.onehot[index], self.observed[index])

    @property
    def shape(self) -> tuple[int, ...]:
        return self.annotations.shape


@dataclass
class SupportSet:
    """Embedded support examples with their per-annotator labels.

    ``embeddings`` is ``(N, M)`` float64; ``annotations`` is the int
    ``(N, R)`` label matrix, -1 where annotator r did not label example n.
    Every example needs a label.  They are validated once, into the one-hot
    ``(N, R, K)`` tensor ``onehot`` that every EM update reads and its
    ``(N, R)`` mask ``observed``; labels given as :class:`CheckedLabels`
    were validated when it was built and are taken as they are.
    ``(B, N, M)`` embeddings with ``(B, N, R)`` labels stack B episodes.
    """

    embeddings: np.ndarray
    annotations: np.ndarray
    num_classes: int
    num_annotators: int
    onehot: np.ndarray = field(init=False, repr=False)
    observed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_annotators < 1:
            raise ValueError("num_annotators must be >= 1")
        checked = self.annotations
        if not isinstance(checked, CheckedLabels):
            checked = CheckedLabels.check(checked, self.num_classes)
        elif checked.onehot.shape[-1] != self.num_classes:
            raise ValueError(f"labels were checked for {checked.onehot.shape[-1]} classes, "
                             f"not num_classes = {self.num_classes}")
        self.annotations = labels = checked.annotations
        self.onehot, self.observed = checked.onehot, checked.observed
        self.embeddings = np.ascontiguousarray(self.embeddings, dtype=np.float64)
        if not 2 <= self.embeddings.ndim <= 3:
            raise ValueError("embeddings must be an (N, M) or a (B, N, M) array")
        if not np.isfinite(self.embeddings).all():
            raise ValueError("embeddings contain non-finite values")
        if labels.shape[:-1] != self.embeddings.shape[:-1]:
            raise ValueError("annotation count does not match embedding count")
        if labels.shape[-1] != self.num_annotators:
            raise ValueError(f"label matrix has {labels.shape[-1]} annotator columns, "
                             f"not num_annotators = {self.num_annotators}")

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


def init_responsibilities(onehot: np.ndarray) -> np.ndarray:
    """Vote-fraction initialization from the ``(N, R, K)`` one-hot labels.

    ``lam_nk = (votes for k) / (labels given to n)``.
    """
    votes = np.ones(onehot.shape[-2]) @ onehot  # counts of 0/1 values: exact in any order
    return votes / _reduce(np.add, votes)


def prototype_update(lam: np.ndarray, embeddings: np.ndarray, tau: float,
                     class_mass: np.ndarray | None = None) -> np.ndarray:
    """Closed-form prototype maximizer; empty classes fall back to the prior mean 0.

    ``class_mass`` is ``lam.sum(axis=-2)`` when the caller already has it.
    """
    sums = lam.swapaxes(-1, -2) @ embeddings
    if sums.size == 0:  # zero-width embeddings: empty prototypes, nothing to divide
        return sums
    if class_mass is None:
        class_mass = lam.sum(axis=-2)
    denom = (tau + class_mass)[..., None]
    if tau > 0.0:  # denom >= tau: nothing to mask
        return sums / denom
    return np.divide(sums, denom, out=np.zeros_like(sums), where=denom > 0.0)


def class_prior_update(lam: np.ndarray, b: float,
                       class_mass: np.ndarray | None = None) -> np.ndarray:
    """Smoothed class prior; ``class_mass`` is ``lam.sum(axis=-2)`` when the caller has it."""
    num_examples, num_classes = lam.shape[-2:]
    if class_mass is None:
        class_mass = lam.sum(axis=-2)
    return (class_mass + b) / (num_classes * b + num_examples)


def confusion_update(lam: np.ndarray, onehot: np.ndarray, c: float) -> np.ndarray:
    """Smoothed ``(R, K, K)`` confusion estimates from the ``(N, R, K)`` one-hot labels.

    With ``c > 0`` an annotator who labeled nothing gets exactly the
    uniform matrix (the Dirichlet prior mean), since all counts are zero.
    """
    k = onehot.shape[-1]
    counts = onehot.reshape(onehot.shape[:-2] + (-1,)).swapaxes(-1, -2) @ lam
    counts = counts.reshape(onehot.shape[:-3] + (-1, k, k))  # (..., r, label l, class k)
    return (counts + c) / (_reduce(np.add, counts, -2) + k * c)


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
    class_mass = lam.sum(axis=-2)  # shared by the prototype and class-prior updates
    protos = prototype_update(lam, support.embeddings, hyper.tau, class_mass)
    pi = class_prior_update(lam, hyper.b, class_mass)
    confusions = confusion_update(lam, support.onehot, hyper.c)
    return protos, pi, confusions


def annotation_log_likelihood(
    support: SupportSet | CheckedLabels, confusions: Sequence[np.ndarray]
) -> np.ndarray:
    """``log a_nk``: log-probability of example n's labels given true class k.

    Zero confusion entries are allowed in rows no observed label selects.
    """
    shape = support.onehot.shape  # (..., n, r, k)
    r, k = shape[-2:]
    confusions = np.asarray(confusions, dtype=np.float64)
    if confusions.shape != shape[:-3] + (r, k, k):
        raise ValueError("one (K, K) confusion matrix per annotator required")
    if confusions.min(initial=np.inf) > 0.0:  # every log finite: no check needed
        log_alpha = np.log(confusions)
    else:  # zero, negative or NaN entries
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


def squared_distances(u: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (..., n, K)."""
    sq_u = (u * u).sum(axis=-1)[..., None]
    sq_p = (prototypes * prototypes).sum(axis=-1)[..., None, :]
    return sq_u - 2.0 * (u @ prototypes.swapaxes(-1, -2)) + sq_p


def logsumexp(scores: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Max-shifted log-sum-exp along ``axis``."""
    shift = scores.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    out = shift + np.log(np.exp(scores - shift).sum(axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


def class_log_scores(
    u: np.ndarray, prototypes: np.ndarray, class_prior: np.ndarray
) -> np.ndarray:
    """``-0.5 |u_n - mu_k|^2 + log pi_k``, (..., n, K): the label-free class scores."""
    return -0.5 * squared_distances(u, prototypes) + np.log(class_prior)[..., None, :]


def class_log_scores_vjp(
    d_scores: np.ndarray, u: np.ndarray, prototypes: np.ndarray, class_prior: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pull gradients of :func:`class_log_scores` back to ``(d_u, d_mu, d_pi)``.

    Every row of ``d_scores`` is the gradient of a softmax input and sums
    to zero, so the ``|u_n|^2`` term contributes nothing to ``d_u``.
    """
    col = d_scores.sum(axis=-2)
    d_protos = d_scores.swapaxes(-1, -2) @ u - col[..., None] * prototypes
    return d_scores @ prototypes, d_protos, col / class_prior


def _posterior_log_scores(
    support: SupportSet,
    prototypes: np.ndarray,
    class_prior: np.ndarray,
    confusions: Sequence[np.ndarray],
    log_a: np.ndarray | None = None,
) -> np.ndarray:
    """Unnormalized per-example class log scores (Gaussian constant dropped)."""
    if support.dim == 0:  # no Gaussian term: Dawid & Skene's log pi_k + log a_nk
        scores = np.log(class_prior)[..., None, :]
    else:
        scores = class_log_scores(support.embeddings, prototypes, class_prior)
    if log_a is None:
        log_a = annotation_log_likelihood(support, confusions)
    return scores + log_a


def e_step(
    support: SupportSet,
    prototypes: np.ndarray,
    class_prior: np.ndarray,
    confusions: Sequence[np.ndarray],
    log_a: np.ndarray | None = None,
) -> np.ndarray:
    """Exact posterior responsibilities, normalized row-wise in log space.

    ``log_a`` is :func:`annotation_log_likelihood` of ``confusions`` when the caller has it.
    """
    scores = _posterior_log_scores(support, prototypes, class_prior, confusions, log_a)
    shift = _reduce(np.maximum, scores)  # log-sum-exp shift, finite once checked
    if not np.isfinite(shift).all():
        raise ValueError("no class has positive posterior mass for some example")
    log_norm = shift + np.log(_reduce(np.add, np.exp(scores - shift)))
    return np.exp(scores - log_norm)


def _episode_sum(values: np.ndarray, axes: int) -> float | np.ndarray:
    """Sum over the trailing ``axes`` axes: a float for one episode, one value per episode stacked."""
    total = values.reshape(values.shape[: values.ndim - axes] + (-1,)).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def log_prior(
    prototypes: np.ndarray,
    class_prior: np.ndarray,
    confusions: Sequence[np.ndarray],
    hyper: PriorHyperparams,
) -> float | np.ndarray:
    """Log density of the conjugate priors, normalization constants included.

    ``(B, K, M)`` prototypes with their ``(B, K)`` class priors and
    ``(B, R, K, K)`` confusions give one value per episode.
    """
    if hyper.tau <= 0.0:
        raise ValueError("log prior requires tau > 0")
    confusions = np.asarray(confusions, dtype=np.float64)
    num_classes, dim = prototypes.shape[-2:]
    gauss = num_classes * 0.5 * dim * (math.log(hyper.tau) - LOG_2PI)
    gauss -= 0.5 * hyper.tau * _episode_sum(prototypes * prototypes, 2)
    dir_pi = (
        math.lgamma(num_classes * (hyper.b + 1.0))
        - num_classes * math.lgamma(hyper.b + 1.0)
        + hyper.b * _episode_sum(np.log(class_prior), 1)
    )
    col_const = math.lgamma(num_classes * (hyper.c + 1.0)) - num_classes * math.lgamma(
        hyper.c + 1.0
    )
    dir_conf = confusions.shape[-3] * num_classes * col_const + hyper.c * _episode_sum(
        np.log(confusions), 3
    )
    return gauss + dir_pi + dir_conf


def log_posterior(
    support: SupportSet,
    prototypes: np.ndarray,
    class_prior: np.ndarray,
    confusions: Sequence[np.ndarray],
    hyper: PriorHyperparams,
) -> float | np.ndarray:
    """Unnormalized log posterior: marginal log likelihood plus log prior.

    A stacked support gives one value per episode.
    """
    scores = _posterior_log_scores(support, prototypes, class_prior, confusions)
    scores -= 0.5 * support.dim * LOG_2PI  # Gaussian normalization constant
    loglik = _episode_sum(logsumexp(scores, axis=-1), 1)
    return loglik + log_prior(prototypes, class_prior, confusions, hyper)


def lower_bound_q(
    lam: np.ndarray,
    support: SupportSet,
    prototypes: np.ndarray,
    class_prior: np.ndarray,
    confusions: Sequence[np.ndarray],
    hyper: PriorHyperparams,
) -> float | np.ndarray:
    """Jensen lower bound on :func:`log_posterior`, tight after an E step.

    Entries with ``lam_nk == 0`` contribute zero by the usual convention.
    A stacked support gives one value per episode.
    """
    lam = np.asarray(lam, dtype=np.float64)
    scores = _posterior_log_scores(support, prototypes, class_prior, confusions)
    scores -= 0.5 * support.dim * LOG_2PI
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(lam > 0.0, lam * (scores - np.log(lam)), 0.0)
    return _episode_sum(inner, 2) + log_prior(prototypes, class_prior, confusions, hyper)


@dataclass
class LabelStart:
    """The part of :func:`iterate`'s start that depends on the labels and ``b``, ``c`` alone.

    That is the vote-fraction responsibilities, their class mass, the first
    M step's class prior and confusions, and the annotation log-likelihood
    the first E step reads; only the first prototypes need the embeddings.
    Indexing the leading axes indexes every field, as views, like
    :class:`CheckedLabels`, and a row's start does not depend on the other
    rows of its stack, so one start serves a whole stack's slices.
    """

    responsibilities: np.ndarray  # (..., N, K) vote fractions
    class_mass: np.ndarray  # (..., K)
    class_prior: np.ndarray  # (..., K)
    confusions: np.ndarray  # (..., R, K, K)
    log_a: np.ndarray | None  # (..., N, K); None for em_steps = 1, which has no E step

    @classmethod
    def of(cls, labels: SupportSet | CheckedLabels, hyper: PriorHyperparams) -> "LabelStart":
        lam = init_responsibilities(labels.onehot)
        class_mass = lam.sum(axis=-2)
        confusions = confusion_update(lam, labels.onehot, hyper.c)
        log_a = annotation_log_likelihood(labels, confusions) if hyper.em_steps > 1 else None
        return cls(lam, class_mass, class_prior_update(lam, hyper.b, class_mass), confusions,
                   log_a)

    def __getitem__(self, index) -> "LabelStart":
        return LabelStart(self.responsibilities[index], self.class_mass[index],
                          self.class_prior[index], self.confusions[index],
                          None if self.log_a is None else self.log_a[index])


class Step(NamedTuple):
    """An M step as :func:`iterate` records it: its input responsibilities and its output."""

    responsibilities: np.ndarray
    class_mass: np.ndarray  # responsibilities.sum(axis=-2)
    prototypes: np.ndarray
    class_prior: np.ndarray
    confusions: np.ndarray | None  # None when left uncomputed (last_confusions=False)


def iterate(support: SupportSet, hyper: PriorHyperparams, start: LabelStart | None = None,
            *, last_confusions: bool = True) -> Iterator[Step]:
    """The EM iterations: each M step's input responsibilities and its output.

    From the :class:`LabelStart` ``start`` (built here when not given),
    ``hyper.em_steps`` M steps with an E step between each two, each
    yielded as a :class:`Step`; the first M step computes only its
    prototypes.  The E step after the last M step is the caller's.
    ``last_confusions=False`` leaves the last step's confusions uncomputed
    for a caller that reads only its prototypes and class prior, as the
    training loss does (a single step's come from the start).
    """
    if start is None:
        start = LabelStart.of(support, hyper)
    lam, class_mass = start.responsibilities, start.class_mass
    pi, confusions, log_a = start.class_prior, start.confusions, start.log_a
    del start  # each array can go once a later step replaces it
    for t in range(hyper.em_steps):
        if t:
            lam = e_step(support, protos, pi, confusions, log_a)
            class_mass, log_a = lam.sum(axis=-2), None
            pi = class_prior_update(lam, hyper.b, class_mass)
            confusions = (confusion_update(lam, support.onehot, hyper.c)
                          if last_confusions or t + 1 < hyper.em_steps else None)
        protos = prototype_update(lam, support.embeddings, hyper.tau, class_mass)
        yield Step(lam, class_mass, protos, pi, confusions)


def backward(support: SupportSet, hyper: PriorHyperparams, steps: Sequence[Step],
             d_protos: np.ndarray, d_pi: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. ``support.embeddings`` of a scalar of the last M step's outputs.

    ``steps`` are :func:`iterate`'s recorded steps; ``d_protos`` and ``d_pi``
    are the scalar's gradients w.r.t. the last prototypes and class prior.
    From the last step back, each M step pulls its output gradients to its
    responsibilities and the embeddings, and the E step before it pulls the
    responsibility gradient to the previous M step's outputs.  Classes whose
    prototype denominator is zero (``tau = 0``, empty class) hold the prior
    mean and pass no gradient.  The labels and the label-only start are
    constants: the pass stops at the first M step's prototypes, since its
    responsibilities, class prior and confusions take no gradient, and
    never reads the last step's confusions.
    """
    u = support.embeddings
    *lead, n, k = steps[0].responsibilities.shape
    onehot = support.onehot.reshape(*lead, n, -1)
    d_support, d_confusions = np.zeros_like(u), None
    for t in range(len(steps) - 1, -1, -1):
        lam, class_mass, protos, _, confusions = steps[t]
        denom = (hyper.tau + class_mass)[..., None]
        if hyper.tau > 0.0:  # denom >= tau, as in prototype_update
            g = d_protos / denom
        else:
            g = np.divide(d_protos, denom, out=np.zeros_like(d_protos), where=denom > 0.0)
        d_support += lam @ g
        if t == 0:  # the vote fractions are constants
            break
        d_lam = u @ g.swapaxes(-1, -2) - (g * protos).sum(axis=-1)[..., None, :]
        d_lam += (d_pi / (k * hyper.b + n))[..., None, :]
        if d_confusions is not None:
            label_sums = support.observed.swapaxes(-1, -2) @ lam  # sum_l C_rlk
            d_counts = d_confusions / (label_sums + k * hyper.c)[..., None, :]
            d_counts -= (d_counts * confusions).sum(axis=-2, keepdims=True)
            d_lam += onehot @ d_counts.reshape(*lead, -1, k)
        # lam came from the E step on the previous M step's parameters
        _, _, protos, pi, confusions = steps[t - 1]
        d_scores = lam * (d_lam - (lam * d_lam).sum(axis=-1, keepdims=True))
        d_u, d_protos, d_pi = class_log_scores_vjp(d_scores, u, protos, pi)
        d_support += d_u
        if t > 1:  # the first M step's confusions are label-only constants
            d_confusions = ((onehot.swapaxes(-1, -2) @ d_scores).reshape(confusions.shape)
                            / confusions)
    return d_support


def adapt(support: SupportSet, hyper: PriorHyperparams) -> AdaptedClassifier:
    """Run the full adaptation: the label-only start, then em_steps x {M, E}."""
    for _, _, prototypes, pi, confusions in iterate(support, hyper):
        pass
    return AdaptedClassifier(
        prototypes=prototypes, class_prior=pi, confusions=confusions,
        responsibilities=e_step(support, prototypes, pi, confusions),
    )


def _query_scores(u: np.ndarray, classifier: AdaptedClassifier) -> tuple[np.ndarray, bool]:
    """Class log scores of ``u``, a single ``(M,)`` vector scored as a batch of one.

    Also returns whether ``u`` was such a vector."""
    u = np.asarray(u, dtype=np.float64)
    dim = classifier.prototypes.shape[-1]
    if u.shape[-1] != dim:
        raise ValueError(f"embedding dimension {u.shape[-1]} does not match prototypes ({dim})")
    single = u.ndim == 1
    return class_log_scores(u[None, :] if single else u, classifier.prototypes,
                            classifier.class_prior), single


def predict_log_probs(u: np.ndarray, classifier: AdaptedClassifier) -> np.ndarray:
    """Log class probabilities for new embeddings.

    Accepts a single ``(M,)`` vector or an ``(n, M)`` batch; returns the
    matching ``(K,)`` or ``(n, K)`` log-softmax scores.  A classifier
    adapted on B stacked episodes takes ``(B, n, M)`` embeddings and
    returns ``(B, n, K)``.
    """
    scores, single = _query_scores(u, classifier)
    log_probs = scores - logsumexp(scores, axis=-1, keepdims=True)
    return log_probs[..., 0, :] if single else log_probs


def predict_labels(u: np.ndarray, classifier: AdaptedClassifier) -> np.ndarray:
    """Argmax of the class scores; ties resolve to the lowest class index.

    Normalizing a row shifts all its scores alike, so this is the argmax of
    :func:`predict_log_probs` up to a rounding tie, without the normalizing.
    """
    scores, single = _query_scores(u, classifier)
    labels = _argmax(scores)
    return labels[..., 0] if single else labels
