"""Stream derivation against the list-entropy formula of ``loop_seeding``."""

import numpy as np
import pytest

import loop_seeding
from crowdmeta.seeding import stream, stream_seed


@pytest.mark.parametrize("master_seed", [0, 2**32 + 5, -1, 2**64 - 1])
def test_same_generator_as_list_entropy(master_seed):
    for label in ("episode", "pseudo-annotate", "val-episode"):
        for indices in [(), (0,), (2**32,), (2**40,), (7, 0), (2**40, 2**32, 3), (np.int64(5),)]:
            fast = stream(master_seed, label, *indices)
            slow = loop_seeding.stream(master_seed, label, *indices)
            assert fast.bit_generator.state == slow.bit_generator.state
            np.testing.assert_array_equal(fast.random(3), slow.random(3))


def test_masked_master_seed_shares_the_stream():
    assert (stream(-1, "x", 3).bit_generator.state
            == stream(2**64 - 1, "x", 3).bit_generator.state)


def test_labels_and_indices_separate_streams():
    draws = {stream(3, label, *idx).random()
             for label in ("a", "b") for idx in [(), (1,), (2,), (1, 1)]}
    assert len(draws) == 8


def test_negative_index_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        stream(1, "x", 0, -1)
    with pytest.raises(ValueError, match="non-negative"):
        stream_seed(2**32 + 5, "x", -3)
