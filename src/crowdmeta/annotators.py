"""Annotator simulation: profiles, confusion matrices, and noisy labels.

Three annotator kinds are modeled.  Experts and hammers report the true
class with accuracy ``q`` (drawn from disjoint ranges) and otherwise pick a
wrong label uniformly; spammers label uniformly at random.  The same
machinery produces pseudo-annotations for meta-training and simulated
target-task annotators for evaluation.

A pool of R annotators draws a kind per annotator and an accuracy per
expert or hammer, R to 2R uniforms, then R·N label uniforms.  A task's
draws are one block of ``2R + R·N`` uniforms (:func:`block_size`), and
:func:`simulate_annotators` decodes a chunk of tasks' blocks at once: each
uniform is the one a draw per annotator would take in turn.  The per-task
functions decode the block of their generator's next doubles with that
same code and leave the generator after it, whatever the pool used, so
any numpy ``Generator`` serves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np


class AnnotatorKind(str, Enum):
    EXPERT = "expert"
    HAMMER = "hammer"
    SPAMMER = "spammer"


KINDS = tuple(AnnotatorKind)  # a kind code is an index into this

# (low, high] accuracy range per kind; spammers have no sampled accuracy.
ACCURACY_RANGES: dict[AnnotatorKind, tuple[float, float]] = {
    AnnotatorKind.EXPERT: (0.8, 1.0),
    AnnotatorKind.HAMMER: (0.5, 0.8),
}

# accuracy range per kind code, NaN for a kind without an accuracy draw
_Q_LO, _Q_HI = np.array([ACCURACY_RANGES.get(kind, (np.nan, np.nan)) for kind in KINDS]).T


@dataclass(frozen=True)
class AnnotatorProfile:
    """One annotator's behavior: its kind and, for experts and hammers, its accuracy ``q``."""

    kind: AnnotatorKind
    q: float | None = None

    def __post_init__(self) -> None:
        if self.kind in ACCURACY_RANGES:
            lo, hi = ACCURACY_RANGES[self.kind]
            if self.q is None or not lo < self.q <= hi:
                raise ValueError(
                    f"{self.kind.value} accuracy must lie in ({lo}, {hi}], got {self.q}"
                )
        elif self.q is not None:
            raise ValueError(f"{self.kind.value} has no accuracy, got {self.q}")


@dataclass(frozen=True)
class AnnotatorDistribution:
    """Sampling weights over annotator kinds.

    ``cdf`` is the normalized CDF that ``Generator.choice(p=...)`` builds per
    call, and ``codes`` the kind code of each weight.
    """

    weights: tuple[tuple[AnnotatorKind, float], ...]
    cdf: np.ndarray = field(init=False, repr=False, compare=False)
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        total = 0.0
        for kind, w in self.weights:
            if not w >= 0.0:  # NaN fails this too
                raise ValueError(f"negative or NaN weight for {kind.value}: {w}")
            total += w
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"annotator weights must sum to 1, got {total}")
        cdf = self.probabilities().cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "codes", np.array([KINDS.index(k) for k, _ in self.weights]))

    @classmethod
    def expert_hammer_spammer(cls, p_expert: float, p_hammer: float, p_spammer: float):
        return cls(
            (
                (AnnotatorKind.EXPERT, p_expert),
                (AnnotatorKind.HAMMER, p_hammer),
                (AnnotatorKind.SPAMMER, p_spammer),
            )
        )

    def probabilities(self) -> np.ndarray:
        return np.asarray([w for _, w in self.weights], dtype=np.float64)

    def to_dict(self) -> dict:
        return {kind.value: w for kind, w in self.weights}


def _confusion_stack(q: np.ndarray, num_classes: int) -> np.ndarray:
    """Column-stochastic ``(..., K, K)`` matrices of annotators with accuracies ``q``.

    An expert or hammer is correct with probability q and otherwise uniform
    over the K - 1 wrong labels; a spammer (NaN) is uniform.
    """
    k = num_classes
    alpha = np.empty(q.shape + (k, k))
    alpha[...] = ((1.0 - q) / (k - 1))[..., None, None]
    alpha.reshape(*q.shape, k * k)[..., :: k + 1] = q[..., None]
    alpha[np.isnan(q)] = 1.0 / k
    return alpha


def _draw_labels(confusions: np.ndarray, true_labels: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """``(B, N, R)`` labels of ``(B, R, K, K)`` confusions for ``(B, N)`` true classes.

    Annotator r labels example n with the first class whose cumulative
    probability in column ``true_labels[n]`` exceeds ``draws[r, n]``.  The
    labels take the smallest unsigned type that holds K, a byte for K up to
    256, so that a chunk's labels are small while its fit holds them.
    """
    cum = np.cumsum(confusions, axis=-2).transpose(0, 3, 1, 2)  # (B, column, R, K)
    columns = cum[np.arange(len(cum))[:, None], true_labels]  # (B, N, R, K)
    del cum  # peak memory: freed before the comparison
    k = confusions.shape[-1]
    below = draws.swapaxes(-1, -2)[..., None] > columns
    # a count of 0/1 terms is exact in any order; taken over bytes, since a float
    # product would first copy ``below`` to eight bytes a term
    counts = below.view(np.uint8) @ np.ones(k, dtype=np.min_scalar_type(k))
    return np.minimum(counts, k - 1, out=counts)


def _one_task_labels(true_labels) -> np.ndarray:
    """One task's true labels as an intp ``(N,)`` vector; reject other shapes and non-integers."""
    labels = np.asarray(true_labels)
    if labels.ndim != 1:
        raise ValueError(f"true labels {labels.shape} are not one task's (N,) vector")
    if labels.size and labels.dtype.kind not in "iu":
        raise ValueError(f"true labels must be integers, got {labels.dtype}")
    return labels.astype(np.intp, copy=False)


def _check_true_labels(true_labels: np.ndarray, num_classes: int) -> None:
    """Reject fewer than 2 classes, and name the first true label outside ``0..num_classes - 1``."""
    if num_classes < 2:
        raise ValueError("annotator simulation needs at least 2 classes")
    if true_labels.size and (true_labels.min() < 0 or true_labels.max() >= num_classes):
        bad = true_labels[(true_labels < 0) | (true_labels >= num_classes)][0]
        raise ValueError(f"true label {bad} is outside 0..{num_classes - 1}")


@dataclass(frozen=True)
class SimulatedAnnotators:
    """B tasks' annotator pools of R and their labels of the tasks' N support examples."""

    kinds: np.ndarray  # (B, R) kind codes, indices into KINDS
    q: np.ndarray  # (B, R) accuracies, NaN for spammers
    confusions: np.ndarray  # (B, R, K, K)
    labels: np.ndarray  # (B, N, R) unsigned, the smallest type that holds K


def block_size(num_annotators: int, num_examples: int) -> int:
    """Uniforms in a task's block: up to two per annotator for its pool, then its labels."""
    return num_annotators * (2 + num_examples)


def simulate_annotators(
    true_labels: np.ndarray,
    num_annotators: int,
    dist: AnnotatorDistribution,
    num_classes: int,
    block: np.ndarray,
) -> SimulatedAnnotators:
    """Decode each task's annotators and their labels of its support, for a chunk of tasks in one pass.

    ``true_labels`` is ``(B, N)`` and ``block`` the ``(B, 2R + R·N)``
    uniforms (:func:`block_size`) of the B tasks, in [0, 1) as
    ``Generator.random`` draws them.  Task b's pool is drawn from ``dist``
    with row b: each annotator in turn takes a uniform for its kind, and an
    expert or hammer the next for its accuracy; then annotator r labels
    with the r-th N uniforms after the pool's.  The uniforms the pool
    leaves unused, one per spammer, end the block.
    """
    true_labels = np.asarray(true_labels, dtype=np.intp)
    if true_labels.ndim != 2 or len(true_labels) != len(block):
        raise ValueError(f"true labels {true_labels.shape} do not stack {len(block)} tasks")
    _check_true_labels(true_labels, num_classes)
    (b, n), r, head = true_labels.shape, num_annotators, 2 * num_annotators
    if block.shape != (b, block_size(r, n)):
        raise ValueError(f"{r} annotators of {n} examples need a ({b}, {block_size(r, n)}) "
                         f"uniform block, got {block.shape}")
    # the kind each of the first 2R uniforms would give as a kind draw; the
    # next kind draw comes 1 later, or 2 after an accuracy draw
    heads = block[:, :head].ravel()
    kind_at = dist.codes[dist.cdf.searchsorted(heads, side="right")]
    following = np.arange(len(heads)) + 1 + ~np.isnan(_Q_LO[kind_at])
    starts = np.arange(b) * head
    positions = np.empty((b, r), dtype=np.intp)
    p = starts
    for a in range(r):
        positions[:, a] = p
        p = following[p]
    used = p - starts
    kinds = kind_at[positions]
    hi = _Q_HI[kinds]
    q = hi - heads[positions + 1] * (hi - _Q_LO[kinds])  # uniform over (lo, hi]
    # annotator r labels with the r-th n uniforms after its pool's
    draws = block[np.arange(b)[:, None], used[:, None] + np.arange(r * n)].reshape(b, r, n)
    confusions = _confusion_stack(q, num_classes)
    return SimulatedAnnotators(kinds=kinds, q=q, confusions=confusions,
                               labels=_draw_labels(confusions, true_labels, draws))


def _simulate_one(true_labels: np.ndarray, num_annotators: int, dist: AnnotatorDistribution,
                  num_classes: int, rng: np.random.Generator) -> SimulatedAnnotators:
    """:func:`simulate_annotators` for one task, its block the next doubles of ``rng``.

    The annotator count and the labels are checked before the draw, so a
    rejected call leaves ``rng`` as it was.
    """
    if not isinstance(num_annotators, (int, np.integer)) or num_annotators < 1:
        raise ValueError(f"num_annotators must be an integer >= 1, got {num_annotators!r}")
    true_labels = _one_task_labels(true_labels)
    _check_true_labels(true_labels, num_classes)
    block = rng.random((1, block_size(num_annotators, len(true_labels))))
    return simulate_annotators(true_labels[None], num_annotators, dist, num_classes, block)


def sample_annotator_pool(
    dist: AnnotatorDistribution,
    num_annotators: int,
    num_classes: int,
    rng: np.random.Generator,
) -> tuple[tuple[AnnotatorProfile, ...], tuple[np.ndarray, ...]]:
    """Draw a pool of annotators and their true confusion matrices.

    Reads the ``2R`` doubles of a block with no examples from ``rng``.
    """
    drawn = _simulate_one(np.empty(0), num_annotators, dist, num_classes, rng)
    profiles = tuple(AnnotatorProfile(KINDS[c], None if math.isnan(a) else a)
                     for c, a in zip(drawn.kinds[0].tolist(), drawn.q[0].tolist()))
    return profiles, tuple(drawn.confusions[0])


def profile_to_confusion(profile: AnnotatorProfile, num_classes: int) -> np.ndarray:
    """Column-stochastic (K, K) matrix realizing the profile's behavior."""
    q = profile.q if profile.kind in ACCURACY_RANGES else np.nan
    return _confusion_stack(np.array(q), num_classes)


# how far a caller's confusion column may sum from 1: room for the rounding of
# probabilities normalised in float32
COLUMN_SUM_TOLERANCE = 1e-6


def _check_confusions(alpha: np.ndarray) -> None:
    """Reject an ``(R, K, K)`` stack with a column that is not a distribution, naming its first.

    A column's entries must be finite and non-negative, and sum to 1
    within :data:`COLUMN_SUM_TOLERANCE`.
    """
    # NaN fails both comparisons, and an infinite entry makes its sum fail the
    # second; the sums are a product, as numpy's reduce costs per column
    if (alpha.min() >= 0.0
            and np.abs(np.ones(alpha.shape[-1]) @ alpha - 1.0).max() <= COLUMN_SUM_TOLERANCE):
        return
    with np.errstate(invalid="ignore"):  # a column holding inf and -inf sums to NaN
        valid = ((alpha.min(axis=-2) >= 0.0)
                 & (np.abs(alpha.sum(axis=-2) - 1.0) <= COLUMN_SUM_TOLERANCE))
    r, k = np.argwhere(~valid)[0]
    raise ValueError(f"annotator {r}'s confusion column {k} is not a distribution: its "
                     f"entries must be finite and >= 0 and sum to 1 within "
                     f"{COLUMN_SUM_TOLERANCE:g}, got {alpha[r, :, k].tolist()}")


def annotate(
    true_labels: np.ndarray,
    confusions: Sequence[np.ndarray],
    rng: np.random.Generator,
    label_fraction: float = 1.0,
) -> np.ndarray:
    """Sample annotator labels from confusion columns of the true classes.

    Returns the int ``(N, R)`` label matrix, -1 where annotator r gave no
    label for example n.  ``label_fraction``, in (0, 1], below 1 keeps each
    pair independently with that probability, but at least one per example.
    The true labels must be one task's integer ``(N,)`` vector, and each
    confusion column a distribution (:func:`_check_confusions`); every
    check runs before ``rng`` draws.
    """
    if not 0.0 < label_fraction <= 1.0:  # NaN fails this too
        raise ValueError(f"label_fraction must be in (0, 1], got {label_fraction}")
    true_labels = _one_task_labels(true_labels)
    n = len(true_labels)
    alpha = np.asarray(confusions, dtype=np.float64)
    if alpha.ndim != 3 or len(alpha) < 1 or not 2 <= alpha.shape[1] == alpha.shape[2]:
        raise ValueError(f"confusions must be an (R, K, K) stack with R >= 1 and K >= 2, "
                         f"got shape {alpha.shape}")
    _check_confusions(alpha)
    _check_true_labels(true_labels, alpha.shape[-1])
    num_annotators = len(alpha)
    # annotator r takes the r-th n draws
    labels = _draw_labels(alpha[None], true_labels[None],
                          rng.random((1, num_annotators, n)))[0].astype(np.intp)
    if label_fraction == 1.0:
        return labels
    keep = rng.random((n, num_annotators)) < label_fraction
    for i in np.flatnonzero(~keep.any(axis=1)):
        keep[i, rng.integers(num_annotators)] = True
    return np.where(keep, labels, -1)


def pseudo_annotate(
    support_truth: np.ndarray,
    num_annotators: int,
    dist: AnnotatorDistribution,
    num_classes: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Noisy int ``(N, R)`` labels for clean support data from freshly sampled annotators.

    :func:`simulate_annotators` for one task, whose block of
    ``2R + R·N`` doubles (:func:`block_size`) is read from ``rng``.
    """
    drawn = _simulate_one(support_truth, num_annotators, dist, num_classes, rng)
    return drawn.labels[0].astype(np.intp), tuple(drawn.confusions[0])
