"""Deterministic random-stream derivation.

Every stochastic component draws from its own generator, derived from a
single master seed plus a purpose label (and optional integer indices such
as the training iteration).  The derivation is a stable hash, so runs are
reproducible across processes and platforms and streams for different
purposes are statistically independent.

:func:`raw_streams` gives the raw PCG64 output of many such streams at
once, for the chunk decoders that draw a whole chunk of tasks' inputs from
arrays instead of one generator per task: it mirrors ``SeedSequence``'s
hash mix (numpy's ``bit_generator.pyx``) as uint32 array operations over
the streams, and PCG64's seeding (O'Neill 2014, "PCG: A Family of Simple
Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation"; numpy's ``pcg64.h``).  NEP 19 keeps both stable across numpy
versions; the first call in a process checks one stream against a real
generator all the same, and raises an error naming the numpy version
if they differ.
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
_PROBE = (2**32 + 5, "numpy-probe", (2**40 + 3, 0))  # a multi-word master seed and index


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


def _entropy_words(master_seed: int, label: str,
                   rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Each row's entropy words (:func:`stream_seed`), zero-padded to at least the pool.

    The second array is each row's own word count, or None when every row
    has all the columns.
    """
    prefix = list(_prefix_words(int(master_seed), label))
    t, width = rows.shape
    if not (rows >> np.uint64(32)).any():
        entropy = np.zeros((t, max(len(prefix) + width, _POOL)), dtype=np.uint32)
        entropy[:, : len(prefix)] = prefix
        entropy[:, len(prefix) : len(prefix) + width] = rows
        return entropy, None
    # an index of 2**32 or more takes two words, so the rows differ in length
    words = [prefix + [w for index in row for w in _words(index)] for row in rows.tolist()]
    lengths = np.array([len(row) for row in words])
    entropy = np.zeros((t, max(lengths.max(), _POOL)), dtype=np.uint32)
    for out, row in zip(entropy, words):
        out[: len(row)] = row
    return entropy, lengths


def _derive(master_seed: int, label: str, rows: np.ndarray, count: int) -> np.ndarray:
    """:func:`raw_streams` of checked uint64 ``rows``."""
    entropy, lengths = _entropy_words(master_seed, label, rows)
    words = entropy.shape[1]
    hash_a = _hash_constants(_INIT_A, _MULT_A, _POOL * words)
    # SeedSequence.mix_entropy: hash the first words into the pool, a missing
    # word as 0, mix every pool word into every other, then mix each further
    # word into every pool word; a row without that word skips it
    pool = _hashmix(entropy[:, :_POOL], hash_a[: _POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], hash_a[k : k + _POOL]))
        k += _POOL - 1
    for w in range(_POOL, words):
        mixed = _mix(pool, _hashmix(entropy[:, w, None], hash_a[k : k + _POOL + 1]))
        pool = mixed if lengths is None else np.where(lengths[:, None] > w, mixed, pool)
        k += _POOL
    # SeedSequence.generate_state(4, uint64): the PCG64 seed, then its increment
    state = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]],
                     _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)).astype(np.uint64)
    halves = state[:, 0::2] | state[:, 1::2] << np.uint64(32)
    # one bit generator takes each row's seeded state in turn (pcg64_set_seed:
    # the increment is odd, and the state is stepped twice with the seed added)
    bit_generator = np.random.PCG64(0)
    inner = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(halves), count), dtype=np.uint64)
    for t, (seed_hi, seed_lo, inc_hi, inc_lo) in enumerate(halves.tolist()):
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        inner["state"] = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        inner["inc"] = inc
        bit_generator.state = full
        out[t] = bit_generator.random_raw(count)
    return out


def uniforms(raw: np.ndarray) -> np.ndarray:
    """``Generator.random``'s doubles of raw PCG64 outputs: the top 53 bits times 2**-53."""
    return (raw >> np.uint64(11)) * 2.0**-53


@functools.cache
def _check_numpy() -> None:
    """Check :func:`raw_streams` and :func:`uniforms` against a real generator, once a process.

    Raises RuntimeError, naming the numpy version, when this numpy seeds or
    draws differently from what they mirror.
    """
    master_seed, label, row = _PROBE
    raw = _derive(master_seed, label, np.array([row], dtype=np.uint64), 8)[0]
    if not (np.array_equal(raw, stream(master_seed, label, *row).bit_generator.random_raw(8))
            and np.array_equal(uniforms(raw), stream(master_seed, label, *row).random(8))):
        raise RuntimeError(f"numpy {np.__version__} seeds or draws streams differently from "
                           "crowdmeta.seeding.raw_streams, which mirrors numpy 2.4.6")


def raw_streams(master_seed: int, label: str, indices, count: int) -> np.ndarray:
    """The first ``count`` raw outputs of many streams, as a ``(T, count)`` uint64 array.

    ``indices`` is a ``(T, L)`` array of integers in ``[0, 2**64)``; row t
    is ``stream(master_seed, label, *indices[t]).bit_generator.random_raw(count)``,
    derived without a ``SeedSequence`` or ``Generator`` per row.
    """
    rows = np.asarray(indices)
    if rows.ndim != 2 or rows.dtype.kind not in "iu":
        raise ValueError(f"indices must be a (T, L) integer array, got {rows.dtype} {rows.shape}")
    if rows.dtype.kind == "i" and rows.size and rows.min() < 0:
        raise ValueError(f"stream indices must be non-negative (got {rows.min()})")
    _check_numpy()
    return _derive(master_seed, label, rows.astype(np.uint64), count)
