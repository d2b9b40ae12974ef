"""List-entropy form of stream derivation; a test-only oracle.

The package hands ``SeedSequence`` the ``uint32`` entropy words of
``[master_seed mod 2**64, tag, *indices]``, with the words of each
``(master_seed, label)`` pair computed once.  This is the earlier form,
which passes that list of integers and lets numpy coerce it, so the tests
can check that both seed the same generator.  ``raw_streams`` is the
package's array derivation of many streams' raw output, one generator per
row.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(master_seed, label, *indices):
    tag = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    entropy = [int(master_seed) & (2**64 - 1), tag, *indices]
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def raw_streams(master_seed, label, indices, count):
    rows = np.asarray(indices).tolist()
    out = np.empty((len(rows), count), dtype=np.uint64)
    for t, row in enumerate(rows):
        out[t] = stream(master_seed, label, *row).bit_generator.random_raw(count)
    return out
