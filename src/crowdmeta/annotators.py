"""Annotator simulation: profiles, confusion matrices, and noisy labels.

Five annotator behaviors are modeled.  Experts and hammers report the true
class with accuracy ``q`` (drawn from disjoint ranges) and otherwise pick a
wrong label uniformly; spammers label uniformly at random; pairwise
flippers err onto one fixed target label per class; classwise spammers are
perfect on some classes and uniform on the rest.  The same machinery
produces pseudo-annotations for meta-training and simulated target-task
annotators for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np


class AnnotatorKind(str, Enum):
    EXPERT = "expert"
    HAMMER = "hammer"
    SPAMMER = "spammer"
    PAIRWISE_FLIPPER = "pairwise_flipper"
    CLASSWISE_SPAMMER = "classwise_spammer"


# (low, high] accuracy range per kind; spammers and classwise spammers
# have fixed mechanics and no sampled accuracy.
ACCURACY_RANGES: dict[AnnotatorKind, tuple[float, float]] = {
    AnnotatorKind.EXPERT: (0.8, 1.0),
    AnnotatorKind.HAMMER: (0.5, 0.8),
    AnnotatorKind.PAIRWISE_FLIPPER: (0.5, 0.8),
}


@dataclass(frozen=True)
class AnnotatorProfile:
    """One annotator's behavior.

    ``q`` is the accuracy rate for kinds that have one, ``flip_targets``
    gives the per-class error label for pairwise flippers, and
    ``spam_classes`` lists the classes a classwise spammer answers at
    random.
    """

    kind: AnnotatorKind
    q: float | None = None
    flip_targets: tuple[int, ...] = ()
    spam_classes: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.kind in ACCURACY_RANGES:
            lo, hi = ACCURACY_RANGES[self.kind]
            if self.q is None or not lo < self.q <= hi:
                raise ValueError(
                    f"{self.kind.value} accuracy must lie in ({lo}, {hi}], got {self.q}"
                )
        if self.kind is AnnotatorKind.PAIRWISE_FLIPPER:
            if not self.flip_targets:
                raise ValueError("pairwise flipper needs flip targets")
            for k, target in enumerate(self.flip_targets):
                if target == k:
                    raise ValueError(f"flip target for class {k} must differ from {k}")
        if self.kind is AnnotatorKind.CLASSWISE_SPAMMER and not self.spam_classes:
            raise ValueError("classwise spammer needs a nonempty spam-class set")

    def to_dict(self) -> dict:
        """JSON-serializable summary for run audit output."""
        out: dict = {"kind": self.kind.value}
        if self.q is not None:
            out["q"] = self.q
        if self.flip_targets:
            out["flip_targets"] = list(self.flip_targets)
        if self.spam_classes:
            out["spam_classes"] = sorted(self.spam_classes)
        return out


@dataclass(frozen=True)
class AnnotatorDistribution:
    """Sampling weights over annotator kinds.

    ``cdf`` is the normalized CDF that ``Generator.choice(p=...)`` builds per call.
    """

    weights: tuple[tuple[AnnotatorKind, float], ...]
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        total = 0.0
        for kind, w in self.weights:
            if w < 0.0:
                raise ValueError(f"negative weight for {kind.value}")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"annotator weights must sum to 1, got {total}")
        cdf = self.probabilities().cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "cdf", cdf)

    @classmethod
    def expert_hammer_spammer(cls, p_expert: float, p_hammer: float, p_spammer: float):
        return cls(
            (
                (AnnotatorKind.EXPERT, p_expert),
                (AnnotatorKind.HAMMER, p_hammer),
                (AnnotatorKind.SPAMMER, p_spammer),
            )
        )

    @classmethod
    def from_mapping(cls, weights: dict[AnnotatorKind, float]):
        return cls(tuple(weights.items()))

    def probabilities(self) -> np.ndarray:
        return np.asarray([w for _, w in self.weights], dtype=np.float64)

    def to_dict(self) -> dict:
        return {kind.value: w for kind, w in self.weights}


def _sample_q(kind: AnnotatorKind, rng: np.random.Generator) -> float:
    # uniform over (lo, hi]: rng.random() is in [0, 1)
    lo, hi = ACCURACY_RANGES[kind]
    return hi - rng.random() * (hi - lo)


def _draw_annotator(
    dist: AnnotatorDistribution, num_classes: int, rng: np.random.Generator
) -> tuple[AnnotatorKind, float | None, tuple[int, ...], frozenset[int]]:
    """Draw one annotator's kind, then its parameters: the fields of its profile."""
    if num_classes < 2:
        raise ValueError("annotator simulation needs at least 2 classes")
    # the draw and the index of rng.choice(len(dist.weights), p=dist.probabilities())
    kind = dist.weights[dist.cdf.searchsorted(rng.random(), side="right")][0]
    if kind is AnnotatorKind.SPAMMER:
        return kind, None, (), frozenset()
    if kind is AnnotatorKind.PAIRWISE_FLIPPER:
        q = _sample_q(kind, rng)
        targets = []
        for k in range(num_classes):
            t = int(rng.integers(num_classes - 1))
            targets.append(t + 1 if t >= k else t)
        return kind, q, tuple(targets), frozenset()
    if kind is AnnotatorKind.CLASSWISE_SPAMMER:
        spam = rng.choice(num_classes, size=num_classes // 2, replace=False)
        return kind, None, (), frozenset(int(s) for s in spam)
    return kind, _sample_q(kind, rng), (), frozenset()


def _fill_confusion(
    alpha: np.ndarray,
    kind: AnnotatorKind,
    q: float | None,
    flip_targets: tuple[int, ...],
    spam_classes: frozenset[int],
) -> None:
    """Write the column-stochastic matrix of an annotator's behavior into ``(K, K)`` ``alpha``."""
    K = len(alpha)
    if kind is AnnotatorKind.SPAMMER:
        alpha.fill(1.0 / K)
    elif kind is AnnotatorKind.PAIRWISE_FLIPPER:
        classes = np.arange(K)
        alpha.fill(0.0)
        alpha[classes, classes] = q
        alpha[list(flip_targets), classes] = 1.0 - q
    elif kind is AnnotatorKind.CLASSWISE_SPAMMER:
        alpha.fill(0.0)
        np.fill_diagonal(alpha, 1.0)
        alpha[:, sorted(spam_classes)] = 1.0 / K
    else:
        # expert / hammer: correct with probability q, otherwise uniform over
        # the K - 1 wrong labels
        alpha.fill((1.0 - q) / (K - 1))
        np.fill_diagonal(alpha, q)


def _draw_pool(
    dist: AnnotatorDistribution,
    num_annotators: int,
    num_classes: int,
    rng: np.random.Generator,
) -> tuple[list[tuple], np.ndarray]:
    """Profile fields of ``num_annotators`` fresh annotators and their ``(R, K, K)`` confusions."""
    draws = [_draw_annotator(dist, num_classes, rng) for _ in range(num_annotators)]
    confusions = np.empty((num_annotators, num_classes, num_classes))
    for alpha, draw in zip(confusions, draws):
        _fill_confusion(alpha, *draw)
    return draws, confusions


def sample_profile(
    dist: AnnotatorDistribution, num_classes: int, rng: np.random.Generator
) -> AnnotatorProfile:
    """Draw one annotator: kind from the distribution, then its parameters."""
    return AnnotatorProfile(*_draw_annotator(dist, num_classes, rng))


def profile_to_confusion(profile: AnnotatorProfile, num_classes: int) -> np.ndarray:
    """Column-stochastic (K, K) matrix realizing the profile's behavior."""
    if profile.kind is AnnotatorKind.PAIRWISE_FLIPPER and len(profile.flip_targets) != num_classes:
        raise ValueError("flip targets do not match the class count")
    alpha = np.empty((num_classes, num_classes))
    _fill_confusion(alpha, profile.kind, profile.q, profile.flip_targets, profile.spam_classes)
    return alpha


def annotate(
    true_labels: np.ndarray,
    confusions: Sequence[np.ndarray],
    rng: np.random.Generator,
    label_fraction: float = 1.0,
) -> np.ndarray:
    """Sample annotator labels from confusion columns of the true classes.

    Returns the int ``(N, R)`` label matrix, -1 where annotator r gave no
    label for example n.  ``label_fraction`` below 1 keeps each pair
    independently with that probability, but at least one per example.
    """
    true_labels = np.asarray(true_labels, dtype=np.intp)
    n = len(true_labels)
    num_annotators = len(confusions)
    alpha = np.asarray(confusions, dtype=np.float64)  # (R, K, K)
    cum = np.cumsum(alpha, axis=1)[:, :, true_labels]  # (R, K, n)
    draws = rng.random((num_annotators, n))  # annotator r takes the r-th n draws
    labels = np.minimum((draws[:, None, :] > cum).sum(axis=1), alpha.shape[1] - 1).T
    if label_fraction >= 1.0:
        return labels
    if label_fraction <= 0.0:
        raise ValueError("label_fraction must be in (0, 1]")
    keep = rng.random((n, num_annotators)) < label_fraction
    for i in np.flatnonzero(~keep.any(axis=1)):
        keep[i, rng.integers(num_annotators)] = True
    return np.where(keep, labels, -1)


def sample_annotator_pool(
    dist: AnnotatorDistribution,
    num_annotators: int,
    num_classes: int,
    rng: np.random.Generator,
) -> tuple[tuple[AnnotatorProfile, ...], tuple[np.ndarray, ...]]:
    """Draw a pool of annotators and their true confusion matrices."""
    draws, confusions = _draw_pool(dist, num_annotators, num_classes, rng)
    return tuple(AnnotatorProfile(*draw) for draw in draws), tuple(confusions)


def pseudo_annotate(
    support_truth: np.ndarray,
    num_annotators: int,
    dist: AnnotatorDistribution,
    num_classes: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Noisy ``(N, R)`` labels for clean support data from freshly sampled annotators.

    Makes the draws of :func:`sample_annotator_pool` and then
    :func:`annotate`, without building the profiles.
    """
    _, confusions = _draw_pool(dist, num_annotators, num_classes, rng)
    annotations = annotate(support_truth, confusions, rng)
    return annotations, tuple(confusions)
