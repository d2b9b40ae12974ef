"""Loop forms of stream derivation; test-only oracles.

The package hands ``SeedSequence`` the entropy
``[master_seed mod 2**64, tag, *indices]``, with each label's tag hashed
once.  ``stream`` hashes the tag on every call, so the tests can check
that both seed the same generator.  ``uniforms`` is the
package's counter-based generator in loop form: one row at a time, in
Python integers masked to 64 bits where the package wraps uint64 arrays.
"""

from __future__ import annotations

import hashlib

import numpy as np

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def stream(master_seed, label, *indices):
    tag = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    entropy = [int(master_seed) & (2**64 - 1), tag, *indices]
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def finalise(z):
    """SplitMix64's finaliser of a 64-bit integer."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK
    return z ^ z >> 31


def row_uniforms(master_seed, label, row, count):
    """The first ``count`` doubles of one row's stream, as a list of floats."""
    tag = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    key = finalise(finalise(int(master_seed) & MASK) ^ tag)
    for index in row:
        key = finalise(key ^ int(index))
    return [(finalise(key + GAMMA * (j + 1) & MASK) >> 11) * 2.0**-53 for j in range(count)]


def uniforms(master_seed, label, indices, count):
    """``row_uniforms`` of each row of ``indices``, as a ``(T, count)`` array."""
    return np.array([row_uniforms(master_seed, label, row, count)
                     for row in np.asarray(indices).tolist()]).reshape(-1, count)
