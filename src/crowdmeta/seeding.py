"""Deterministic random-stream derivation.

Every stochastic component draws from its own generator, derived from a
single master seed plus a purpose label (and optional integer indices such
as the training iteration).  The derivation is a stable hash, so runs are
reproducible across processes and platforms and streams for different
purposes are statistically independent.
"""

from __future__ import annotations

import functools
import hashlib
import operator

import numpy as np

_WORD = 2**32 - 1


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words ``SeedSequence`` makes of a non-negative integer."""
    if value < 0:
        raise ValueError(f"stream indices must be non-negative (got {value})")
    words = [value & _WORD]
    value >>= 32
    while value:
        words.append(value & _WORD)
        value >>= 32
    return words


@functools.lru_cache(maxsize=4096)
def _prefix_words(master_seed: int, label: str) -> tuple[int, ...]:
    """Entropy words of the masked master seed and of the label's SHA-256 tag."""
    tag = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    return tuple(_words(master_seed & (2**64 - 1)) + _words(tag))


def stream_seed(master_seed: int, label: str, *indices: int) -> np.random.SeedSequence:
    """Child seed for ``(master_seed, label, *indices)``.

    The entropy is ``[master_seed mod 2**64, tag, *indices]``, where the tag
    is the first 8 bytes of the label's SHA-256 (little-endian), so the
    mapping does not depend on Python's randomized ``hash()``.  It is passed
    as the ``uint32`` words numpy would coerce that list of integers into,
    so the words of a ``(master_seed, label)`` pair are computed once.
    """
    words = list(_prefix_words(int(master_seed), label))
    for index in indices:
        words += _words(operator.index(index))
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def stream(master_seed: int, label: str, *indices: int) -> np.random.Generator:
    """Independent generator for ``(master_seed, label, *indices)``.

    ``SeedSequence`` mixes a missing entropy word as 0, so a trailing zero
    index is invisible while the entropy has at most four words (a master
    seed below 2**32, the two tag words, one index): ``stream(m, label)`` is
    then ``stream(m, label, 0)``.  Never use one label both with and
    without indices.
    """
    return np.random.default_rng(stream_seed(master_seed, label, *indices))
