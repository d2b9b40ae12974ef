"""Datasets, class-disjoint splits, and N-way/K-shot episode sampling.

:func:`sample_episodes` draws a chunk of episodes, stacked, each from its
own row of crowdmeta's counter-based generator
(:func:`crowdmeta.seeding.uniforms`): a fixed number of doubles per task,
whatever the class pools' sizes, which :func:`crowdmeta.seeding.choose`
turns into classes and examples as array operations over all (task,
class) rows.  :func:`sample_episode` draws one episode by decoding as
many doubles of a numpy generator with the same code.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .seeding import choose, uniforms


class DataError(ValueError):
    """Malformed input data (CSV parse failures, impossible splits...)."""


@dataclass
class LabeledDataset:
    """Feature vectors with dense integer class labels.

    A dataset is not mutated after construction: the examples grouped by
    class, the sorted class ids and the eligible classes of each size
    threshold are computed once and cached.
    """

    features: np.ndarray  # (N, D) float64
    labels: np.ndarray  # (N,) intp
    # example indices grouped by class, in class id order; each class's
    # examples in index order, from _class_start its _class_size entries
    _by_class: np.ndarray = field(init=False, repr=False, compare=False)
    _class_start: np.ndarray = field(init=False, repr=False, compare=False)
    _class_size: np.ndarray = field(init=False, repr=False, compare=False)
    _class_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _eligible: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D (N, D) array")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError("labels must be a vector matching the feature rows")
        self._by_class = np.argsort(self.labels, kind="stable")
        ids, self._class_start, self._class_size = np.unique(
            self.labels[self._by_class], return_index=True, return_counts=True)
        self._class_ids = tuple(ids.tolist())
        self._eligible = {}

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def class_ids(self) -> tuple[int, ...]:
        return self._class_ids

    def eligible_classes(self, min_examples: int) -> tuple[int, ...]:
        """Sorted ids of the classes with at least ``min_examples`` examples."""
        eligible = self._eligible.get(min_examples)
        if eligible is None:
            eligible = self._eligible[min_examples] = tuple(
                c for c, size in zip(self._class_ids, self._class_size.tolist())
                if size >= min_examples
            )
        return eligible


@dataclass
class Episode:
    """One task: support and query drawn from the same dataset, disjoint.

    Labels are remapped to 0..K-1 (sorted original class ids).  Like
    :class:`crowdmeta.em.SupportSet`, an episode may carry a leading task
    axis: B equal-shape tasks stacked, as :func:`sample_episodes` returns
    them, with ``(B, K)`` class ids, ``(B, N, D)`` support rows and
    ``(B, N)`` labels, ``(B, Q, D)`` query rows and ``(B, Q)`` labels.
    """

    class_ids: tuple[int, ...] | np.ndarray  # (K,), or (B, K) stacked
    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray

    @property
    def num_classes(self) -> int:
        return np.shape(self.class_ids)[-1]


def generate_synthetic(
    num_classes: int,
    dim: int,
    cluster_spread: float,
    examples_per_class: int,
    seed: int,
) -> LabeledDataset:
    """Gaussian clusters: centers ~ N(0, I), examples ~ N(center, spread^2 I)."""
    if num_classes < 2:
        raise DataError("synthetic datasets need at least 2 classes")
    for name, size in (("dim", dim), ("examples_per_class", examples_per_class)):
        if size < 1:
            raise DataError(f"{name} must be >= 1 (got {size})")
    if not np.isfinite(cluster_spread):
        raise DataError(f"cluster spread must be finite, got {cluster_spread}")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim))
    features = np.repeat(centers, examples_per_class, axis=0)
    features = features + cluster_spread * rng.standard_normal(features.shape)
    labels = np.repeat(np.arange(num_classes), examples_per_class)
    return LabeledDataset(features=features, labels=labels)


def split_classes(
    dataset: LabeledDataset,
    fractions: tuple[float, float, float],
    seed: int,
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Shuffle classes and partition them into disjoint train/val/test sets."""
    for name, f in zip(("train", "validation", "test"), fractions):
        if not f >= 0.0:
            raise DataError(f"{name} split fraction is {f:g}; split fractions must be >= 0")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError("split fractions must sum to 1")
    classes = np.asarray(dataset.class_ids)
    rng = np.random.default_rng(seed)
    rng.shuffle(classes)
    n = len(classes)
    counts = [int(np.floor(f * n)) for f in fractions]
    remainders = [f * n - c for f, c in zip(fractions, counts)]
    for _ in range(n - sum(counts)):
        i = int(np.argmax(remainders))
        counts[i] += 1
        remainders[i] = -1.0
    for f, c in zip(fractions, counts):
        if f > 0.0 and c == 0:
            raise DataError("too few classes to honor a nonzero split fraction")
    pieces = []
    start = 0
    for c in counts:
        chosen = set(int(x) for x in classes[start : start + c])
        mask = np.isin(dataset.labels, sorted(chosen))
        pieces.append(
            LabeledDataset(features=dataset.features[mask], labels=dataset.labels[mask])
        )
        start += c
    return pieces[0], pieces[1], pieces[2]


def _eligible_classes(dataset: LabeledDataset, ways: int, shots: int,
                      query_per_class: int) -> tuple[int, tuple[int, ...]]:
    """Examples per class of an episode, and the classes that have that many."""
    if shots < 1:
        raise DataError("every class needs at least one support example")
    if query_per_class < 1:
        raise DataError("query_per_class must be >= 1")
    need = shots + query_per_class
    eligible = dataset.eligible_classes(need)
    if len(eligible) < ways:
        raise DataError(
            f"only {len(eligible)} classes have {need}+ examples; need {ways}"
        )
    return need, eligible


def sample_episode(
    dataset: LabeledDataset,
    ways: int,
    shots: int,
    query_per_class: int,
    rng: np.random.Generator,
) -> Episode:
    """Draw a ways-class episode with disjoint support and query examples.

    Every class gets ``shots`` support examples.  Classes with too few
    examples for the shots plus the query are skipped.  The episode is the
    :func:`sample_episodes` decode of ``rng``'s next ``ways + 2·ways·need``
    doubles, unstacked, with tuple ``class_ids``.
    """
    stacked = _decode(dataset, ways, shots, query_per_class, lambda count: rng.random((1, count)))
    return Episode(tuple(stacked.class_ids[0].tolist()), stacked.support_x[0],
                   stacked.support_y[0], stacked.query_x[0], stacked.query_y[0])


def sample_episodes(
    dataset: LabeledDataset,
    ways: int,
    shots: int,
    query_per_class: int,
    master_seed: int,
    label: str,
    indices,
) -> Episode:
    """One episode per row of the ``(T, L)`` integer array ``indices``, stacked.

    Row t's episode reads the first ``ways + 2·ways·need`` doubles of its
    row of ``uniforms(master_seed, label, indices, ...)`` (``need = shots
    + query_per_class``), whatever the pool sizes: ``ways`` choose its
    classes by Floyd's algorithm (:func:`crowdmeta.seeding.choose`), then
    each class in turn takes ``2·need``, ``need`` to choose its examples
    by Floyd and ``need`` whose order shuffles them, support first.  Every
    (task, class) row is drawn at once, and the chunk's features gathered
    once.
    """
    return _decode(dataset, ways, shots, query_per_class,
                   lambda count: uniforms(master_seed, label, indices, count))


def _decode(dataset: LabeledDataset, ways: int, shots: int, query_per_class: int,
            draw) -> Episode:
    """The stacked episodes of the ``(T, count)`` doubles ``draw(count)`` returns."""
    need, eligible = _eligible_classes(dataset, ways, shots, query_per_class)
    u = draw(ways + 2 * ways * need)
    t = len(u)
    chosen = choose(u[:, :ways], np.full(t, len(eligible)), ways)
    class_ids = np.sort(np.asarray(eligible)[chosen], axis=1)
    at = np.searchsorted(dataset.class_ids, class_ids)
    per_class = u[:, ways:].reshape(t * ways, 2 * need)
    picked = choose(per_class[:, :need], dataset._class_size[at].ravel(), need)
    order = np.argsort(per_class[:, need:], axis=1, kind="stable")
    picked = picked[np.arange(t * ways)[:, None], order]
    examples = dataset._by_class[dataset._class_start[at].reshape(-1, 1) + picked]
    examples = examples.reshape(t, ways, need)
    new_labels = np.arange(ways, dtype=np.intp)
    return Episode(
        class_ids=class_ids,
        support_x=dataset.features[examples[:, :, :shots].reshape(t, -1)],
        support_y=np.tile(np.repeat(new_labels, shots), (t, 1)),
        query_x=dataset.features[examples[:, :, shots:].reshape(t, -1)],
        query_y=np.tile(np.repeat(new_labels, query_per_class), (t, 1)),
    )


def load_csv(path: str, label_column: str) -> LabeledDataset:
    """Read a headed CSV: one label column, every other column numeric.

    Label values map to dense ids in order of first appearance.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        if label_column not in header:
            raise DataError(f"{path}: no column named {label_column!r}")
        label_pos = header.index(label_column)
        feature_pos = [i for i in range(len(header)) if i != label_pos]

        rows: list[list[float]] = []
        label_ids: dict[str, int] = {}
        labels: list[int] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {line_no} has {len(row)} fields, expected {len(header)}"
                )
            try:
                rows.append([float(row[i]) for i in feature_pos])
            except ValueError as exc:
                raise DataError(f"{path}: row {line_no}: {exc}") from None
            key = row[label_pos]
            labels.append(label_ids.setdefault(key, len(label_ids)))
    if not rows:
        raise DataError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        row, col = bad[0].tolist()
        raise DataError(f"{path}: row {row + 2}, column {header[feature_pos[col]]!r}: "
                        f"non-finite value {features[row, col]}")
    return LabeledDataset(features=features, labels=np.asarray(labels, dtype=np.intp))
