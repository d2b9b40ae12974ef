"""Deterministic random-stream derivation, and the decoders of its draws.

Every stochastic component draws from its own generator, derived from a
single master seed plus a purpose label (and optional integer indices such
as the training iteration).  The derivation is a stable hash, so runs are
reproducible across processes and platforms and streams for different
purposes are statistically independent.

This module is the one place that mirrors numpy's ``Generator``, for the
chunk decoders that draw a whole chunk of tasks' inputs from arrays
instead of one generator per task.  :func:`raw_streams` gives the raw
PCG64 output of many streams at once: it mirrors ``SeedSequence``'s hash
mix (numpy's ``bit_generator.pyx``) as uint32 array operations over the
streams, and PCG64's seeding (O'Neill 2014, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation"; numpy's ``pcg64.h``).  :func:`uniforms` decodes
``Generator.random``, :func:`choose` ``Generator.choice`` without
replacement, and :func:`move_back` rewinds a generator as 32-bit draws
leave it.  NEP 19 keeps the seeding stable across numpy versions, but not
the draws; the first call of :func:`raw_streams` in a process checks one
stream, its doubles and two ``choice`` decodes against a real generator,
and raises an error naming the numpy version if they differ.
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


# SeedSequence's hash constants, its pool of four words, and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1
_PROBE = (2**32 + 5, "numpy-probe", (3, 0))  # a multi-word master seed: six entropy words
_LOW = np.uint64(_WORD)
# Generator.choice(pool, size, replace=False) shuffles a tail of the whole
# pool instead of running Floyd's algorithm when pool > 10,000 and size > pool // 50
_FLOYD_POOL, _FLOYD_SHARE = 10_000, 50


@functools.lru_cache(maxsize=64)
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """``init·mult**k mod 2**32`` for k <= calls: the hash constant before each hash call."""
    return np.array([init * pow(mult, k, 2**32) & _WORD for k in range(calls + 1)],
                    dtype=np.uint32)


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hash of ``values``, the j-th of the last axis between
    hash constants j and j + 1."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ values >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    values = x * _MIX_L - y * _MIX_R
    return values ^ values >> np.uint32(16)


def _derive(master_seed: int, label: str, rows: np.ndarray, count: int) -> np.ndarray:
    """:func:`raw_streams` of uint32 ``rows``, each index one entropy word."""
    prefix = _prefix_words(int(master_seed), label)
    t, width = rows.shape
    entropy = np.zeros((t, max(len(prefix) + width, _POOL)), dtype=np.uint32)
    entropy[:, : len(prefix)] = prefix
    entropy[:, len(prefix) : len(prefix) + width] = rows
    words = entropy.shape[1]
    hash_a = _hash_constants(_INIT_A, _MULT_A, _POOL * words)
    # SeedSequence.mix_entropy: hash the first words into the pool, a missing
    # word as 0, mix every pool word into every other, then mix each further
    # word into every pool word
    pool = _hashmix(entropy[:, :_POOL], hash_a[: _POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], hash_a[k : k + _POOL]))
        k += _POOL - 1
    for w in range(_POOL, words):
        pool = _mix(pool, _hashmix(entropy[:, w, None], hash_a[k : k + _POOL + 1]))
        k += _POOL
    # SeedSequence.generate_state(4, uint64): the PCG64 seed, then its increment
    state = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]],
                     _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)).astype(np.uint64)
    seeded = state[:, 0::2] | state[:, 1::2] << np.uint64(32)
    # one bit generator takes each row's seeded state in turn (pcg64_set_seed:
    # the increment is odd, and the state is stepped twice with the seed added)
    bit_generator = np.random.PCG64(0)
    inner = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(seeded), count), dtype=np.uint64)
    for t, (seed_hi, seed_lo, inc_hi, inc_lo) in enumerate(seeded.tolist()):
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        inner["state"] = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        inner["inc"] = inc
        bit_generator.state = full
        out[t] = bit_generator.random_raw(count)
    return out


def uniforms(raw: np.ndarray) -> np.ndarray:
    """``Generator.random``'s doubles of raw PCG64 outputs: the top 53 bits times 2**-53."""
    return (raw >> np.uint64(11)) * 2.0**-53


def halves(raw: np.ndarray) -> np.ndarray:
    """The 32-bit halves of raw PCG64 outputs in the order 32-bit draws read them, low first."""
    return np.stack([raw & _LOW, raw >> np.uint64(32)], axis=-1).reshape(len(raw), -1)


def choose(draws: np.ndarray, task: np.ndarray, start: np.ndarray, pool: np.ndarray,
           size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Generator.choice(pool[i], size, replace=False)`` for each row i, decoded from 32-bit draws.

    Row i reads ``draws[task[i]]`` (:func:`halves`) from ``start[i]`` on.
    numpy runs Floyd's algorithm, a draw in [0, j] for j = pool - size,
    ..., pool - 1 that takes j when the draw was taken before, then a
    Fisher-Yates shuffle, a draw in [0, i] for i = size - 1, ..., 1 whose
    result swaps with i.  Each draw is Lemire's method on the next 32-bit
    draw (Lemire 2019, "Fast Random Integer Generation in an Interval"),
    and a draw in [0, 0] reads nothing.  Returns the ``(rows, size)``
    choices, the draws each row read, and whether a row's choice is one
    this decode does not follow: a draw that Lemire's method rejects and
    redraws, or a pool that ``choice`` tail-shuffles.
    """
    floyd = pool[:, None] - size + np.arange(size)  # each Floyd draw's j
    bounds = np.concatenate([floyd + 1, np.broadcast_to(np.arange(size, 1, -1),
                                                        (len(pool), size - 1))], axis=1)
    bounds = bounds.astype(np.uint64)
    empty = pool == size  # the first Floyd draw is in [0, 0]
    # that draw's bound of 1 decodes any 32-bit draw to 0, never rejected
    at = start[:, None] + np.arange(2 * size - 1) - empty[:, None]
    scaled = draws[task[:, None], at] * bounds
    missed = ((scaled & _LOW) < np.uint64(2**32) % bounds).any(axis=1)
    missed |= (pool > _FLOYD_POOL) & (size > pool // _FLOYD_SHARE)
    drawn = (scaled >> np.uint64(32)).astype(np.intp)
    # Floyd's draw s finds taken every earlier draw, and each earlier j it
    # took: it takes its j when its draw repeats an earlier draw, or equals
    # the j of an earlier step s' that took its j (s' = draw - j_0)
    draw = drawn[:, :size]
    order = np.argsort(draw, axis=1, kind="stable")
    ordered = np.take_along_axis(draw, order, axis=1)
    repeats = np.zeros(draw.shape, dtype=bool)
    np.put_along_axis(repeats, order[:, 1:], ordered[:, 1:] == ordered[:, :-1], axis=1)
    back = draw - floyd[:, :1]
    earlier = (back >= 0) & (back < np.arange(size))
    back[~earlier] = 0
    took_j = repeats
    while True:  # each pass settles at least one more step of a chain of such js
        more = repeats | earlier & np.take_along_axis(took_j, back, axis=1)
        if np.array_equal(more, took_j):
            break
        took_j = more
    chosen = np.where(took_j, floyd, draw)
    rows = np.arange(len(pool))
    for i, swap in zip(range(size - 1, 0, -1), drawn[:, size:].T):
        chosen[rows, swap], chosen[:, i] = chosen[:, i].copy(), chosen[rows, swap]
    return chosen, 2 * size - 1 - empty, missed


def move_back(bit_generator: np.random.PCG64, delta: int) -> None:
    """``bit_generator.advance(delta)``, restoring the buffered half of a 64-bit draw
    that 32-bit draws such as ``Generator.integers`` keep and ``advance`` drops.

    One PCG64 step is one 64-bit draw, as one ``Generator.random`` double takes.
    """
    state = bit_generator.state
    bit_generator.advance(delta)
    if state["has_uint32"]:
        moved = bit_generator.state
        moved["has_uint32"], moved["uinteger"] = 1, state["uinteger"]
        bit_generator.state = moved


@functools.cache
def _check_numpy() -> None:
    """Check this module's decoders against a real generator, once a process.

    One stream's raw output and doubles (:func:`raw_streams`,
    :func:`uniforms`), then two ``choice`` calls on it (:func:`choose`):
    9 of 9, whose first draw is in [0, 0], and 6 of 40.  Raises
    RuntimeError, naming the numpy version, when this numpy seeds or draws
    differently from what they mirror.
    """
    master_seed, label, row = _PROBE
    raw = _derive(master_seed, label, np.array([row], dtype=np.uint32), 16)
    if not (np.array_equal(raw[0], stream(master_seed, label, *row).bit_generator.random_raw(16))
            and np.array_equal(uniforms(raw[0]), stream(master_seed, label, *row).random(16))):
        raise RuntimeError(f"numpy {np.__version__} seeds or draws streams differently from "
                           "crowdmeta.seeding.raw_streams, which mirrors numpy 2.4.6")
    rng = stream(master_seed, label, *row)
    draws, one = halves(raw), np.zeros(1, dtype=np.intp)
    first, used, _ = choose(draws, one, one, np.array([9]), 9)
    second, _, _ = choose(draws, one, used, np.array([40]), 6)
    if not (np.array_equal(first[0], rng.choice(9, size=9, replace=False))
            and np.array_equal(second[0], rng.choice(40, size=6, replace=False))):
        raise RuntimeError(f"numpy {np.__version__} draws Generator.choice differently from "
                           "crowdmeta.seeding.choose, which mirrors numpy 2.4.6")


def raw_streams(master_seed: int, label: str, indices, count: int) -> np.ndarray:
    """The first ``count`` raw outputs of many streams, as a ``(T, count)`` uint64 array.

    ``indices`` is a ``(T, L)`` array of integers in ``[0, 2**64)``; row t
    is ``stream(master_seed, label, *indices[t]).bit_generator.random_raw(count)``,
    derived without a ``SeedSequence`` or ``Generator`` per row.  A row
    holding an index of 2**32 or more, which takes two entropy words and
    which no iteration, task or shot count reaches, is drawn by its own
    :func:`stream` instead.
    """
    rows = np.asarray(indices)
    if rows.ndim != 2 or rows.dtype.kind not in "iu":
        raise ValueError(f"indices must be a (T, L) integer array, got {rows.dtype} {rows.shape}")
    if rows.dtype.kind == "i" and rows.size and rows.min() < 0:
        raise ValueError(f"stream indices must be non-negative (got {rows.min()})")
    _check_numpy()
    out = _derive(master_seed, label, rows.astype(np.uint32), count)
    for t in np.flatnonzero((rows >> 32).any(axis=1)).tolist():
        out[t] = stream(master_seed, label, *rows[t].tolist()).bit_generator.random_raw(count)
    return out
