"""Deterministic random-stream derivation, and the chunk draws.

Every stochastic component draws from its own stream, derived from a
single master seed plus a purpose label (and optional integer indices such
as the training iteration).  The derivation is a stable hash, so runs are
reproducible across processes and platforms and streams for different
purposes are statistically independent.

:func:`stream` gives one numpy generator for a purpose, for the per-task
paths.  The chunk draws, which give many tasks' inputs at once from
arrays, read crowdmeta's own counter-based generator instead
(:func:`uniforms`): a SplitMix64 stream per row (Steele, Lea & Flood 2014,
"Fast Splittable Pseudorandom Number Generators"), whose key hashes the
seed, the label and the row's indices with SplitMix64's finaliser.  Its
j-th double is the finaliser of a counter, so a row's doubles do not
depend on the other rows of its chunk, and it needs nothing of numpy's
``Generator`` algorithms.  :func:`choose` draws subsets from those doubles
by Floyd's algorithm.  The per-task paths decode their generator's
doubles with the chunk draws' code, so nothing here reads a bit
generator's state.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


@functools.lru_cache(maxsize=4096)
def _tag(label: str) -> int:
    """The first 8 bytes of the label's SHA-256, little-endian."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")


def stream_seed(master_seed: int, label: str, *indices: int) -> np.random.SeedSequence:
    """Child seed for ``(master_seed, label, *indices)``.

    The entropy is ``[master_seed mod 2**64, tag, *indices]``, where the tag
    is the first 8 bytes of the label's SHA-256 (little-endian), so the
    mapping does not depend on Python's randomized ``hash()``.  A negative
    index is rejected by ``SeedSequence``.
    """
    return np.random.SeedSequence([int(master_seed) & (2**64 - 1), _tag(label), *indices])


def stream(master_seed: int, label: str, *indices: int) -> np.random.Generator:
    """Independent generator for ``(master_seed, label, *indices)``.

    ``SeedSequence`` mixes a missing entropy word as 0, so a trailing zero
    index is invisible while the entropy has at most four words (a master
    seed below 2**32, the two tag words, one index): ``stream(m, label)`` is
    then ``stream(m, label, 0)``.  Never use one label both with and
    without indices.
    """
    return np.random.default_rng(stream_seed(master_seed, label, *indices))


# SplitMix64's increment (the golden ratio's odd 64-bit fraction) and its
# finaliser's multipliers (Stafford's Mix13)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1, _MIX_2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _finalise(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser of a uint64 array: a bijection, each output bit
    depending on every input bit."""
    z = (z ^ z >> np.uint64(30)) * _MIX_1
    z = (z ^ z >> np.uint64(27)) * _MIX_2
    return z ^ z >> np.uint64(31)


@functools.lru_cache(maxsize=4096)
def _label_key(master_seed: int, label: str) -> np.uint64:
    """The key of ``(master_seed, label)`` before any index: the masked seed's
    finaliser, then the label's tag mixed in."""
    seed = _finalise(np.array([master_seed & (2**64 - 1)], dtype=np.uint64))
    return _finalise(seed ^ np.uint64(_tag(label)))[0]


def uniforms(master_seed: int, label: str, indices, count: int) -> np.ndarray:
    """The first ``count`` doubles of many rows' streams, as a ``(T, count)`` array in [0, 1).

    ``indices`` is a ``(T, L)`` array of integers in ``[0, 2**64)``.  Row
    t's key mixes ``indices[t]`` into :func:`_label_key` one column at a
    time, each by the finaliser of the key XOR the index, so distinct
    indices after a common prefix give distinct keys, and ``()``, ``(0,)``
    and ``(0, 0)`` are distinct streams.  Double j is the finaliser of
    ``key + γ·(j + 1)``, SplitMix64's (j + 1)-th output, its top 53 bits
    times 2**-53.  A row's doubles depend on its own key alone, so a chunk
    draws what its rows draw one at a time.
    """
    rows = np.asarray(indices)
    if rows.ndim != 2 or rows.dtype.kind not in "iu":
        raise ValueError(f"indices must be a (T, L) integer array, got {rows.dtype} {rows.shape}")
    if rows.dtype.kind == "i" and rows.size and rows.min() < 0:
        raise ValueError(f"stream indices must be non-negative (got {rows.min()})")
    key = np.full(len(rows), _label_key(int(master_seed), label))
    for column in rows.astype(np.uint64).T:
        key = _finalise(key ^ column)
    counters = key[:, None] + _GAMMA * np.arange(1, count + 1, dtype=np.uint64)
    return (_finalise(counters) >> np.uint64(11)) * 2.0**-53


def choose(u: np.ndarray, pool: np.ndarray, size: int) -> np.ndarray:
    """``size`` distinct integers in ``[0, pool[i])`` for each row i, by Floyd's algorithm.

    Row i reads the doubles ``u[i]``, one per step: step s draws
    ``min(floor(u·(j + 1)), j)`` in [0, j] for j = pool - size + s, and
    takes its j when that draw was taken before, else the draw (Bentley &
    Floyd 1987, "A Sample of Brilliance").  Every size-subset is equally
    likely; the ``(rows, size)`` result holds each row's in the order its
    steps took them, so the caller orders them if order matters.
    """
    floyd = pool[:, None] - size + np.arange(size)  # each step's j
    draw = np.minimum((u * (floyd + 1)).astype(np.intp), floyd)
    # Floyd's draw s finds taken every earlier draw, and each earlier j it
    # took: it takes its j when its draw repeats an earlier draw, or equals
    # the j of an earlier step s' that took its j (s' = draw - j_0)
    rows = np.arange(len(pool))[:, None]
    order = np.argsort(draw, axis=1, kind="stable")
    ordered = draw[rows, order]
    repeats = np.zeros(draw.shape, dtype=bool)
    repeats[rows, order[:, 1:]] = ordered[:, 1:] == ordered[:, :-1]
    back = draw - floyd[:, :1]
    earlier = (back >= 0) & (back < np.arange(size))
    back[~earlier] = 0
    took_j = repeats
    while True:  # each pass settles at least one more step of a chain of such js
        more = repeats | earlier & took_j[rows, back]
        if np.array_equal(more, took_j):
            break
        took_j = more
    return np.where(took_j, floyd, draw)
